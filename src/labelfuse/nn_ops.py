"""Differentiable primitives of the per-pixel label transformer: GeLU, affine
maps, layer normalization, softmax, multi-head self-attention over label
tokens, and the two pre-norm residual blocks.

Every public op accepts either plain numpy arrays (evaluated without
recording) or tape Vars (recorded for reverse-mode differentiation), and
returns the matching kind; one helper, ``_apply``, makes that choice for all
of them.  Token matrices are (N, d) for one pixel or (B, N, d) for a batch of
pixels; all math is per pixel either way.

The parameter dataclasses declare, per tensor field, its file stem and its
symbolic shape (``tensor``).  ``map_tensors`` walks those fields in
declaration order; initialization (``blank`` then ``init_tensors``), lifting
to Vars, registering in a parameter store, serialization and loading with
shape checks (``check_shape``) all go through it, so the names, their order
and the shapes live only in the field declarations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import tape
from .tape import Var, as_var, no_grad

LN_EPS = 1e-5


class MacCounter:
    """Running count of attention multiply-accumulates (QK^T and A*V only)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def reset(self) -> None:
        self.count = 0

    def add(self, n: int) -> None:
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

    heads: int
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


def blank(cls, **dims):
    """A ``cls`` whose tensor fields hold their shapes, resolved as far as
    ``dims`` allows, and whose other fields are taken from ``dims``."""

    def value(f):
        if "part" in f.metadata:
            return blank(f.metadata["part"], **dims)
        if "shape" in f.metadata:
            return _resolve_shape(f.metadata["shape"], dims)
        return dims[f.name]

    return cls(**{f.name: value(f) for f in fields(cls)})


def xavier_uniform(rng, shape, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) draws filled in row-major order."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    n = int(np.prod(shape))
    flat = np.array([rng.uniform() for _ in range(n)], dtype=np.float64)
    return ((2.0 * flat - 1.0) * bound).reshape(shape)


def init_tensors(params, rng):
    """Fill a ``blank`` with fresh tensors, drawn in field order: matrices
    Xavier-uniform over their last two axes, layer-norm gains (stems ending
    in gamma) one, every other vector zero."""

    def draw(name, shape):
        if len(shape) > 1:
            return xavier_uniform(rng, shape, shape[-2], shape[-1])
        return np.ones(shape) if name.endswith("gamma") else np.zeros(shape)

    return map_tensors(params, draw)


def init_attention_params(d: int, heads: int, rng) -> AttentionParams:
    return init_tensors(blank(AttentionParams, d=d, heads=heads), rng)


def init_block_params(d: int, heads: int, rng) -> BlockParams:
    return init_tensors(blank(BlockParams, d=d, heads=heads), rng)


def _apply(op, *args):
    """Run tape ``op`` on ``args``: arrays, Vars or params dataclasses.

    With a Var anywhere among them the call is recorded and returns a Var;
    otherwise it runs without recording and returns the array.
    """
    recorded = False

    def lift(_name, t):
        nonlocal recorded
        recorded = recorded or isinstance(t, Var)
        return as_var(t)

    lifted = [map_tensors(a, lift) if is_dataclass(a) else lift(None, a) for a in args]
    if recorded:
        return op(*lifted)
    with no_grad():
        return op(*lifted).value


def gelu(x):
    """GeLU, tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    out = _apply(tape.gelu, x)
    return float(out) if isinstance(out, np.ndarray) and out.ndim == 0 else out


def linear(x, A, b):
    """Affine map A @ x + b for a vector x (C,) or a batch (..., C)."""
    return _apply(_linear, x, A, b)


def _linear(x: Var, A: Var, b: Var) -> Var:
    d, c = A.value.shape
    if x.value.shape[-1] != c:
        raise ValueError(f"linear: x has {x.value.shape[-1]} channels, A expects {c}")
    single = x.value.ndim == 1
    lead = (1,) if single else x.value.shape[:-1]
    flat = tape.reshape(x, (int(np.prod(lead)), c))
    out = tape.matmul(flat, tape.transpose(A, (1, 0))) + b
    return tape.reshape(out, (d,) if single else lead + (d,))


def layer_norm(x, gamma, beta, eps: float = LN_EPS):
    """Per-token normalization over the last axis (biased variance)."""
    return _apply(lambda *xgb: tape.layer_norm(*xgb, eps), x, gamma, beta)


def softmax(v):
    """Stable softmax over the last axis; rows sum to 1."""
    return _apply(tape.softmax, v)


def multi_head_self_attention(Z, p: AttentionParams):
    """Standard scaled dot-product attention across the N label tokens.

    Per head j: Q = Z Wq_j, K = Z Wk_j, V = Z Wv_j, A = softmax(Q K^T / sqrt(d_h)),
    head_j = A V; heads are concatenated and mapped through Wo with bias bo.
    """
    return _apply(_mhsa, Z, p)


def _mhsa(Z: Var, p: AttentionParams) -> Var:
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
    out = tape.matmul(merged, p.wo) + p.bo
    return tape.reshape(out, in_shape)


def msa_block(Z, p: BlockParams):
    """Pre-norm attention with residual: MSA(LN(Z)) + Z."""
    return _apply(_msa_block, Z, p)


def _msa_block(Z: Var, p: BlockParams) -> Var:
    normed = tape.layer_norm(Z, p.ln1_gamma, p.ln1_beta, LN_EPS)
    return _mhsa(normed, p.attn) + Z


def mlp_block(Z, p: BlockParams):
    """Pre-norm token-wise MLP with residual: MLP(LN(Z)) + Z."""
    return _apply(_mlp_block, Z, p)


def _mlp_block(Z: Var, p: BlockParams) -> Var:
    normed = tape.layer_norm(Z, p.ln2_gamma, p.ln2_beta, LN_EPS)
    hidden = tape.gelu(tape.matmul(normed, p.w1) + p.b1)
    return tape.matmul(hidden, p.w2) + p.b2 + Z


def transformer_block(Z, p: BlockParams):
    """One full block: the attention sub-block followed by the MLP sub-block."""
    return _apply(_transformer_block, Z, p)


def _transformer_block(Z: Var, p: BlockParams) -> Var:
    return _mlp_block(_msa_block(Z, p), p)
