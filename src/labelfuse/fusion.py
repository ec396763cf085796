"""Label-merging front ends.

Three variants produce a per-pixel fused representation from a label set:

* ``tlam_merge``: project each label to a d-wide token (affine + GeLU, with
  absent pixels replaced by the zero vector), add a learned per-label
  encoding, run the tokens of each pixel through a stack of transformer
  blocks, and average the output tokens (always dividing by N, in ascending
  label order).
* ``clam_merge``: the same projection followed by per-label stacks of
  d x d affine + GeLU layers, then the same token average.
* ``naive_concat``: plain channel concatenation in label order.

Merging is embarrassingly parallel over pixels: attention never crosses
pixels, so any row split of the grid gives bit-identical results.  One tiler
serves every caller that splits a grid, merging and training alike:
``row_spans`` cuts the rows, ``masked_rows`` slices the masked inputs of a
span and ``map_spans`` runs spans on a thread pool in span order.

``map_params`` walks every tensor of a ``MergerParams`` under its canonical
name (``proj.<label>.A``, ``enc.<label>``, ``block<m>.`` plus the block's
field stems, ``clam.<label>.<i>.A``); listing, lifting, saving and loading
all go through it.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn_ops, tape
from .label_model import LabelSet, validate_label_set
from .nn_ops import (
    BlockParams,
    blank,
    check_shape,
    init_block_params,
    init_tensors,
    map_tensors,
    tensor,
)
from .tape import Var, no_grad
from .tensor_core import Rng, load_tensor, save_tensor

TLAM = "tlam"
CLAM = "clam"
NAIVE = "naive"

DEFAULT_D = 96
DEFAULT_BLOCKS = 3
DEFAULT_HEADS = 3


@dataclass
class LabelProjection:
    """Per-label affine map into the embedding space: A (d, C_k), b (d,)."""

    A: object = tensor("A", "d", "c")
    b: object = tensor("b", "d")


@dataclass
class MergerParams:
    """All learnable parameters of one merger variant, keyed by label name."""

    variant: str
    d: int
    heads: int
    projections: dict = field(default_factory=dict)
    encodings: dict = field(default_factory=dict)
    blocks: list = field(default_factory=list)
    clam_stacks: dict = field(default_factory=dict)

    @property
    def n_blocks(self) -> int:
        if self.variant == CLAM:
            stacks = next(iter(self.clam_stacks.values()), [])
            return len(stacks)
        return len(self.blocks)


def map_params(p: MergerParams, fn) -> MergerParams:
    """A copy of ``p`` with each tensor t replaced by ``fn(name, t)``, called
    in definition order (projections, encodings, blocks, clam stacks).

    The names double as serialization file stems and parameter-store keys.
    """
    projections = {k: map_tensors(q, fn, f"proj.{k}.") for k, q in p.projections.items()}
    encodings = {k: fn(f"enc.{k}", e) for k, e in p.encodings.items()}
    blocks = [map_tensors(bp, fn, f"block{m}.") for m, bp in enumerate(p.blocks)]
    stacks = {
        k: [map_tensors(q, fn, f"clam.{k}.{i}.") for i, q in enumerate(stack)]
        for k, stack in p.clam_stacks.items()
    }
    return replace(p, projections=projections, encodings=encodings, blocks=blocks, clam_stacks=stacks)


def param_items(p: MergerParams) -> list:
    """(canonical name, tensor) for every parameter, in definition order."""
    items = []
    map_params(p, lambda name, t: items.append((name, t)))
    return items


def init_merger_params(
    labels,
    variant: str = TLAM,
    d: int = DEFAULT_D,
    n_blocks: int = DEFAULT_BLOCKS,
    heads: int = DEFAULT_HEADS,
    seed: int = 0,
    rng: Rng | None = None,
) -> MergerParams:
    """Fresh parameters bound to a label set (or a list of (name, channels)).

    Weight matrices are Xavier-uniform, biases zero, layer-norm gamma/beta
    1/0, and label encodings are 0.02-scaled normal draws; the draw order is
    fixed (projections, encodings, then blocks or stacks) so a seed pins the
    parameters bit-exactly.
    """
    if variant not in (TLAM, CLAM, NAIVE):
        raise ValueError(f"unknown merger variant {variant!r}")
    if isinstance(labels, LabelSet):
        spec = [(lab.name, lab.channels) for lab in labels]
    else:
        spec = [(str(n), int(c)) for n, c in labels]
    if rng is None:
        rng = Rng(seed)
    p = MergerParams(variant=variant, d=d, heads=heads)
    if variant == NAIVE:
        return p
    if d % heads != 0:
        raise ValueError(f"embedding width {d} not divisible by {heads} heads")
    for name, c in spec:
        p.projections[name] = init_tensors(blank(LabelProjection, d=d, c=c), rng)
    for name, _ in spec:
        p.encodings[name] = 0.02 * np.array([rng.normal() for _ in range(d)])
    if variant == TLAM:
        p.blocks = [init_block_params(d, heads, rng) for _ in range(n_blocks)]
    else:
        for name, _ in spec:
            p.clam_stacks[name] = [
                init_tensors(blank(LabelProjection, d=d, c=d), rng) for _ in range(n_blocks)
            ]
    return p


def project_label(x, mask_bit: int, A, b):
    """Embed one label vector: gelu(A x + b), with absent inputs zeroed first."""
    x = np.asarray(x, dtype=np.float64)
    if mask_bit == 0:
        x = np.zeros_like(x)
    return nn_ops.gelu(nn_ops.linear(x, np.asarray(A, dtype=np.float64), np.asarray(b, dtype=np.float64)))


def _bind_check(s: LabelSet, p: MergerParams) -> None:
    validate_label_set(s)
    for lab in s:
        proj = p.projections.get(lab.name)
        if proj is None:
            raise ValueError(f"merger params have no projection for label {lab.name!r}")
        a = proj.A.value if isinstance(proj.A, Var) else proj.A
        if a.shape[1] != lab.channels:
            raise ValueError(
                f"label {lab.name!r} has {lab.channels} channels, projection expects {a.shape[1]}"
            )
        if p.variant == TLAM and lab.name not in p.encodings:
            raise ValueError(f"merger params have no encoding for label {lab.name!r}")
        if p.variant == CLAM and lab.name not in p.clam_stacks:
            raise ValueError(f"merger params have no stack for label {lab.name!r}")


def row_spans(h: int, chunks: int) -> list[tuple[int, int]]:
    """Rows [0, h) cut into at most ``chunks`` non-empty, near-equal spans."""
    chunks = max(1, min(int(chunks), h))
    bounds = [round(i * h / chunks) for i in range(chunks + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(chunks) if bounds[i] < bounds[i + 1]]


def masked_rows(s: LabelSet, r0: int, r1: int) -> list[np.ndarray]:
    """Per label, rows [r0, r1) as (pixels, C_k) float64 with absent pixels exactly zero."""
    return [
        np.where(lab.mask[r0:r1, :, None] != 0, lab.values[r0:r1].astype(np.float64), 0.0)
        .reshape(-1, lab.channels)
        for lab in s
    ]


def map_spans(fn, spans: list, threads: int) -> list:
    """``[fn(r0, r1) for r0, r1 in spans]``, on up to ``threads`` threads;
    results keep span order."""
    if threads <= 1 or len(spans) <= 1:
        return [fn(*span) for span in spans]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda span: fn(*span), spans))


def _projected_tokens(xs: list[Var], names: list[str], p: MergerParams) -> list[Var]:
    toks = []
    for x, name in zip(xs, names):
        proj = p.projections[name]
        e = tape.gelu(tape.matmul(x, tape.transpose(proj.A, (1, 0))) + proj.b)
        toks.append(e)
    return toks


def _token_average(tokens: Var) -> Var:
    # ascending label-index accumulation, then division by N (absent included)
    n = tokens.value.shape[1]
    acc = tape.take_index(tokens, 0, axis=1)
    for k in range(1, n):
        acc = acc + tape.take_index(tokens, k, axis=1)
    return acc * (1.0 / n)


def tlam_graph(xs: list[Var], names: list[str], p: MergerParams) -> Var:
    """The differentiable merge for one pixel batch: (B, C_k) inputs -> (B, d)."""
    toks = _projected_tokens(xs, names, p)
    toks = [e + p.encodings[name] for e, name in zip(toks, names)]
    Z = tape.stack(toks, axis=1)
    for bp in p.blocks:
        Z = nn_ops._transformer_block(Z, bp)
    return _token_average(Z)


def clam_graph(xs: list[Var], names: list[str], p: MergerParams) -> Var:
    vs = _projected_tokens(xs, names, p)
    out = []
    for v, name in zip(vs, names):
        for proj in p.clam_stacks[name]:
            v = tape.gelu(tape.matmul(v, tape.transpose(proj.A, (1, 0))) + proj.b)
        out.append(v)
    return _token_average(tape.stack(out, axis=1))


def _run_chunked(s: LabelSet, p: MergerParams, graph, threads: int, chunks: int | None) -> np.ndarray:
    threads = max(1, int(threads))
    names = [lab.name for lab in s]
    lifted = map_params(p, lambda _name, t: tape.as_var(t))
    out = np.empty((s.height, s.width, p.d), dtype=np.float64)

    def tile(r0, r1):
        with no_grad():
            z = graph([Var(x) for x in masked_rows(s, r0, r1)], names, lifted).value
        out[r0:r1] = z.reshape(r1 - r0, s.width, p.d)

    map_spans(tile, row_spans(s.height, threads if chunks is None else chunks), threads)
    if not np.isfinite(out).all():
        raise FloatingPointError("merge produced non-finite values")
    return out


def tlam_merge(s: LabelSet, p: MergerParams, threads: int = 1, chunks: int | None = None) -> np.ndarray:
    """Transformer label merging; returns the H x W x d concept tensor."""
    if p.variant != TLAM:
        raise ValueError(f"params are for variant {p.variant!r}, expected {TLAM!r}")
    _bind_check(s, p)
    nn_ops.attention_mac_counter.reset()
    return _run_chunked(s, p, tlam_graph, threads, chunks)


def clam_merge(s: LabelSet, p: MergerParams, threads: int = 1, chunks: int | None = None) -> np.ndarray:
    """Stacked per-label affine+GeLU merging; returns H x W x d."""
    if p.variant != CLAM:
        raise ValueError(f"params are for variant {p.variant!r}, expected {CLAM!r}")
    _bind_check(s, p)
    return _run_chunked(s, p, clam_graph, threads, chunks)


def naive_concat(s: LabelSet) -> np.ndarray:
    """Channel-wise concatenation in label order (absent pixels contribute zeros)."""
    validate_label_set(s)
    parts = [
        np.where(lab.mask[..., None] != 0, lab.values, np.float32(0.0)) for lab in s
    ]
    return np.concatenate(parts, axis=-1)


def count_attention_macs(n_labels: int, d: int, h: int, l: int, pixels: int) -> int:
    """Exact multiply-accumulate count of the QK^T and A*V attention products."""
    if d % h != 0:
        raise ValueError(f"width {d} not divisible by {h} heads")
    return pixels * l * h * 2 * n_labels * n_labels * (d // h)


def _raw(t) -> np.ndarray:
    return t.value if isinstance(t, Var) else np.asarray(t)


def save_merger_params(p: MergerParams, dirpath) -> None:
    """Serialize to a directory: params.json plus one .tlt file per parameter."""
    os.makedirs(dirpath, exist_ok=True)
    labels = [
        {"name": name, "channels": int(_raw(proj.A).shape[1])}
        for name, proj in p.projections.items()
    ]
    doc = {
        "variant": p.variant,
        "d": p.d,
        "heads": p.heads,
        "n_blocks": p.n_blocks,
        "labels": labels,
    }
    with open(os.path.join(dirpath, "params.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    for name, t in param_items(p):
        save_tensor(os.path.join(dirpath, name + ".tlt"), _raw(t).astype(np.float64))


def load_merger_params(dirpath) -> MergerParams:
    """Read a params directory written by ``save_merger_params``; every
    tensor's shape is checked against ``params.json``."""
    with open(os.path.join(dirpath, "params.json")) as f:
        doc = json.load(f)
    p = MergerParams(variant=doc["variant"], d=doc["d"], heads=doc["heads"])
    if p.variant == NAIVE:
        return p
    dims = {"d": p.d, "heads": p.heads}
    channels = {e["name"]: e["channels"] for e in doc["labels"]}
    p.projections = {k: blank(LabelProjection, c=c, **dims) for k, c in channels.items()}
    p.encodings = {k: (p.d,) for k in channels}
    if p.variant == TLAM:
        p.blocks = [blank(BlockParams, **dims)] * doc["n_blocks"]
    else:
        p.clam_stacks = {k: [blank(LabelProjection, c=p.d, **dims)] * doc["n_blocks"] for k in channels}
    return map_params(p, _tlt_loader(dirpath, {}))


def _tlt_loader(dirpath, dims: dict):
    """``load(name, shape)``: read ``<dirpath>/<name>.tlt`` and check its
    shape under ``dims`` (see ``nn_ops.check_shape``)."""

    def load(name, shape):
        path = os.path.join(dirpath, name + ".tlt")
        return check_shape(path, load_tensor(path), shape, dims)

    return load
