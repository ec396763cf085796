"""Differentiable primitives of the per-pixel label transformer: multi-head
self-attention over label tokens and the two pre-norm residual blocks, built
from the ``tape`` ops (GeLU, softmax and a layer norm's normalization are
those ops themselves; its gain and shift are a ``mul`` and an ``add``).

Every forward function takes tape Vars, with parameter dataclasses whose
tensors are Vars, and returns a Var; each op is recorded for reverse-mode
differentiation only when an input needs a gradient (see ``tape``).  Plain
arrays are lifted to Vars by the callers that hold them (the merge tiler,
the training tiler and the generator head).  Token matrices are (N, d) for
one pixel or (B, N, d) for a batch of pixels; all math is per pixel either way.

The parameter dataclasses declare, per tensor field, its file stem and its
symbolic shape (``tensor``).  ``map_tensors`` walks those fields in
declaration order; initialization (a ``blank`` skeleton whose tensors hold
their shapes, each replaced by ``draw_tensor``), lifting to Vars, the
optimizers' named arrays, serialization and loading with shape checks
(``tlt_loader``, through ``check_shape``) all go through it, so the names,
their order and the shapes live only in the field declarations.  The
merger's skeleton (``fusion._blank_params``) is walked the same way by
``fusion.map_params``, to draw it or to load it.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tape
from .tape import Var
from .tensor_core import load_tensor

LN_EPS = 1e-5


class MacCounter:
    """Running count of attention multiply-accumulates (QK^T and A*V only).

    Merge tiles add to it from worker threads, so ``add`` holds a lock: an
    unguarded ``+=`` can lose an update between its read and its write."""

    __slots__ = ("count", "_lock")

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.count = 0

    def add(self, n: int) -> None:
        with self._lock:
            self.count += n


attention_mac_counter = MacCounter()


def tensor(stem: str, *shape, **kw):
    """A params-dataclass field holding one tensor: its file stem and its
    symbolic shape, whose axes are ints or names (see ``_resolve_shape``)."""
    return field(metadata={"stem": stem, "shape": shape}, **kw)


@dataclass
class AttentionParams:
    """Multi-head attention weights.

    wq/wk/wv hold the per-head maps stacked as (heads, d, d_head); wo is the
    learned output map (d, d) with bias bo (d,).
    """

    wq: object = tensor("Wq", "heads", "d", "d/heads")
    wk: object = tensor("Wk", "heads", "d", "d/heads")
    wv: object = tensor("Wv", "heads", "d", "d/heads")
    wo: object = tensor("Wo", "d", "d")
    bo: object = tensor("bo", "d")


@dataclass
class BlockParams:
    """One transformer block: pre-norm attention then pre-norm MLP."""

    ln1_gamma: object = tensor("ln1.gamma", "d")
    ln1_beta: object = tensor("ln1.beta", "d")
    # a nested params dataclass: its stems are prefixed with "attn."
    attn: AttentionParams = field(metadata={"stem": "attn.", "part": AttentionParams})
    ln2_gamma: object = tensor("ln2.gamma", "d")
    ln2_beta: object = tensor("ln2.beta", "d")
    w1: object = tensor("mlp.W1", "d", "4d")
    b1: object = tensor("mlp.b1", "4d")
    w2: object = tensor("mlp.W2", "4d", "d")
    b2: object = tensor("mlp.b2", "d")


def map_tensors(obj, fn, prefix: str = ""):
    """A copy of params dataclass ``obj`` with each tensor t replaced by
    ``fn(prefix + stem, t)``, called in field declaration order (nested
    params depth first).  Fields holding None are left as they are."""
    changes = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "part" in f.metadata:
            changes[f.name] = map_tensors(value, fn, prefix + f.metadata["stem"])
        elif "stem" in f.metadata and value is not None:
            changes[f.name] = fn(prefix + f.metadata["stem"], value)
    return replace(obj, **changes)


def _head_width(dims: dict) -> int:
    d, heads = dims["d"], dims["heads"]
    if heads < 1 or d % heads:
        raise ValueError(f"token width {d} not divisible by {heads} heads")
    return d // heads


# shape names computed from others; every other name (d, heads, the label
# channels c, the head widths d_g and d_c) is given or read off a tensor
_DERIVED = {
    "d/heads": _head_width,
    "4d": lambda dims: 4 * dims["d"],
    "d+3": lambda dims: dims["d"] + 3,
}


def _resolve_shape(shape: tuple, dims: dict, got: tuple = ()) -> tuple:
    """Substitute ``dims`` into a symbolic shape.

    A name that is neither in ``dims`` nor derivable from it is bound in
    ``dims`` to the matching axis of ``got`` when the ranks agree, and is
    left symbolic otherwise.
    """
    if len(got) == len(shape):
        for sym, n in zip(shape, got):
            if isinstance(sym, str) and sym not in _DERIVED:
                dims.setdefault(sym, n)

    def axis(sym):
        try:
            return _DERIVED[sym](dims) if sym in _DERIVED else dims.get(sym, sym)
        except KeyError:
            return sym

    return tuple(axis(sym) for sym in shape)


def check_shape(name: str, t, shape: tuple, dims: dict):
    """Return ``t`` if its shape matches symbolic ``shape`` under ``dims``
    (binding names seen for the first time); raise ValueError otherwise."""
    got = np.shape(t)
    want = _resolve_shape(shape, dims, got)
    if got != want:
        raise ValueError(f"{name} has shape {got}, expected {want}")
    return t


def tlt_loader(dirpath):
    """``load(name, shape)`` for ``map_tensors``: read ``<dirpath>/<name>.tlt``
    and check its shape with ``check_shape``; a dim name is bound by the first
    tensor that has it, and every later shape is checked against it.  A
    tensor with an inf or NaN raises ValueError naming its first such index."""
    dims = {}

    def load(name, shape):
        path = os.path.join(dirpath, name + ".tlt")
        t = check_shape(path, load_tensor(path), shape, dims)
        finite = np.isfinite(t)
        if not finite.all():
            at = tuple(int(i) for i in np.argwhere(~finite)[0])
            raise ValueError(f"{path}: value {t[at]} at index {at} is not finite")
        return t

    return load


def blank(cls, **dims):
    """A ``cls`` whose tensor fields hold their shapes, resolved as far as
    ``dims`` allows."""

    def value(f):
        if "part" in f.metadata:
            return blank(f.metadata["part"], **dims)
        return _resolve_shape(f.metadata["shape"], dims)

    return cls(**{f.name: value(f) for f in fields(cls)})


def xavier_uniform(rng, shape) -> np.ndarray:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) draws filled in row-major order,
    with fan_in and fan_out the last two axes of ``shape``."""
    bound = math.sqrt(6.0 / (shape[-2] + shape[-1]))
    return (2.0 * rng.uniforms(*shape) - 1.0) * bound


def draw_tensor(rng, name: str, shape: tuple) -> np.ndarray:
    """A fresh tensor of ``shape``: a matrix Xavier-uniform over its last two
    axes, a layer-norm gain (a stem ending in gamma) one, any other vector zero."""
    if len(shape) > 1:
        return xavier_uniform(rng, shape)
    return np.ones(shape) if name.endswith("gamma") else np.zeros(shape)


def init_tensors(params, rng):
    """Fill a ``blank`` with ``draw_tensor`` draws, in field order."""
    return map_tensors(params, lambda name, shape: draw_tensor(rng, name, shape))


def init_block_params(d: int, heads: int, rng) -> BlockParams:
    return init_tensors(blank(BlockParams, d=d, heads=heads), rng)


def multi_head_self_attention(Z: Var, p: AttentionParams) -> Var:
    """Standard scaled dot-product attention across the N label tokens.

    Per head j: Q = Z Wq_j, K = Z Wk_j, V = Z Wv_j, A = softmax(Q K^T / sqrt(d_h)),
    head_j = A V; heads are concatenated and mapped through Wo with bias bo.
    """
    in_shape = Z.value.shape
    if len(in_shape) < 2:
        raise ValueError("token matrix must be (N, d) or (B, N, d)")
    n, d = in_shape[-2], in_shape[-1]
    heads, d_model, dh = p.wq.value.shape
    if d != d_model or heads * dh != d:
        raise ValueError(f"attention params sized for d={d_model}, got tokens of width {d}")
    batch = int(np.prod(in_shape[:-2])) if len(in_shape) > 2 else 1

    zb = tape.reshape(Z, (batch, 1, n, d))
    q = tape.matmul(zb, p.wq)  # (batch, heads, n, dh)
    k = tape.matmul(zb, p.wk)
    v = tape.matmul(zb, p.wv)
    scores = tape.matmul(q, tape.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    attn = tape.softmax(scores)
    mixed = tape.matmul(attn, v)  # (batch, heads, n, dh)
    attention_mac_counter.add(2 * batch * heads * n * n * dh)

    merged = tape.reshape(tape.transpose(mixed, (0, 2, 1, 3)), (batch, n, d))
    out = tape.matmul(merged, p.wo, p.bo)
    return tape.reshape(out, in_shape)


def msa_block(Z: Var, p: BlockParams) -> Var:
    """Pre-norm attention with residual: MSA(LN(Z) * gamma1 + beta1) + Z."""
    normed = tape.layer_norm(Z, LN_EPS) * p.ln1_gamma + p.ln1_beta
    return multi_head_self_attention(normed, p.attn) + Z


def mlp_hidden(Z: Var, p: BlockParams) -> Var:
    """The MLP's (..., 4d) hidden layer, GeLU(LN(Z) W1 + b1).  Params whose
    ``ln2_gamma`` and ``ln2_beta`` are None have LN's affine folded into W1
    and b1 (``fusion.merge_step``), so LN only normalizes."""
    normed = tape.layer_norm(Z, LN_EPS)
    if p.ln2_gamma is not None:
        normed = normed * p.ln2_gamma + p.ln2_beta
    return tape.gelu(tape.matmul(normed, p.w1, p.b1))


def mlp_block(Z: Var, p: BlockParams) -> Var:
    """Pre-norm token-wise MLP with residual: MLP(LN(Z)) + Z."""
    return tape.matmul(mlp_hidden(Z, p), p.w2, p.b2) + Z


def transformer_block(Z: Var, p: BlockParams) -> Var:
    """One full block: the attention sub-block followed by the MLP sub-block."""
    return mlp_block(msa_block(Z, p), p)
