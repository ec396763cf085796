"""Label-merging front ends.

Three variants produce a per-pixel fused representation from a label set:

* ``tlam_merge``: project each label to a d-wide token (affine + GeLU, with
  absent pixels replaced by the zero vector), add a learned per-label
  encoding, run the tokens of each pixel through a stack of transformer
  blocks, and average the output tokens (weights 1/N, absent labels
  included).  ``merge_step`` folds each block's LN2 gain and shift into
  MLP-up once per merge (LN1's are a product and a sum after its
  normalization), and the last block's MLP-down runs on the average of its
  hidden layer, not on each token.
* ``clam_merge``: the same projection followed by per-label stacks of
  d x d affine + GeLU layers, then the same token average.  A label's chain
  (projection and stack) sees one label's pixels one at a time, so every
  absent pixel of label k leaves it as one vector c_k: ``merge_step``
  computes c_k once per merge, and in each tile a label's chain runs once
  on each distinct value of that label's present pixels.
* ``naive_concat``: plain channel concatenation in label order.

Merging is embarrassingly parallel over pixels: attention never crosses
pixels, so tiles may cut rows.  ``map_tiles`` is the one tiler, for merging
and training alike: it cuts the flattened grid into ``pixel_spans`` of
``max(1, TILE_BYTES // pixel_bytes)`` pixels and runs a function of each
span's bounds on the calling thread and up to ``threads - 1`` helpers, one
loop for every thread count, each tile under the caller's numpy error
state.  ``merge_step``, the one per-merge setup of both variants, returns
the graph a tile runs, which slices its inputs with ``masked_pixels``.  A
merge raises numpy's overflow and invalid flags, so an overflow in any tile
is a ``FloatingPointError``.  Results never depend on the thread count.
At some widths (d=12) a pixel's last bit can depend on the grid's pixel
count, as OpenBLAS picks its dgemm kernel by GEMM size (the CHANGES.md
``FOUND:`` note on tile row counts).  For the same reason a ``clam``
pixel's last bit may depend on how many distinct present values of each of
its present labels its tile holds, when that count is small: under 13 at
d=96 and under 26 at d=47 with OpenBLAS 0.3.31 on an AVX-512 Xeon.

``map_params`` walks every tensor of a ``MergerParams`` under its canonical
name (``proj.<label>.A``, ``enc.<label>``, ``block<m>.`` plus the block's
field stems, ``clam.<label>.<i>.A``); initialization and loading walk the
one skeleton ``_blank_params`` builds, and listing, lifting and saving walk
the tensors.  Only ``tlam`` has label encodings: ``clam`` neither draws
nor writes them, and loading ignores the ``enc.*`` files of older ``clam``
directories.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn_ops, tape
from .label_model import FILE_STEM, LabelSet, validate_label_set
from .nn_ops import BlockParams, blank, draw_tensor, map_tensors, tensor, tlt_loader
from .tape import Var, as_var
from .tensor_core import Rng, read_json, save_tensor_dir

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
    heads: int | None  # attention heads: tlam only, None for clam
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

    The names double as serialization file stems and optimizer keys.
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


def _check_sizes(variant, d, heads, n_blocks, where: str = "merger") -> None:
    """Raise ValueError unless d is an integer >= 1, heads (``tlam`` only) an
    integer >= 1 and n_blocks an integer >= 0 (a merger may have no blocks);
    ``where`` starts the message."""
    _check_int(f"{where} 'd'", d, 1)
    if variant == TLAM:
        _check_int(f"{where} 'heads'", heads, 1)
    _check_int(f"{where} 'n_blocks'", n_blocks, 0)


def _check_int(what: str, value, least: int) -> None:
    if type(value) is not int or value < least:
        raise ValueError(f"{what} must be an integer >= {least}")


def init_merger_params(
    labels: LabelSet,
    variant: str = TLAM,
    d: int = DEFAULT_D,
    n_blocks: int = DEFAULT_BLOCKS,
    heads: int = DEFAULT_HEADS,
    seed: int = 0,
    rng: Rng | None = None,
) -> MergerParams:
    """Fresh parameters bound to a label set: per label, a projection sized
    from its channel count, then a ``tlam`` encoding or a ``clam`` stack.

    The sizes must pass ``_check_sizes``, and for ``tlam`` the heads must
    divide d.  ``clam`` has no attention: it ignores ``heads`` and stores
    None.  Weight matrices are Xavier-uniform, biases zero, layer-norm
    gamma/beta 1/0 (``nn_ops.draw_tensor``), and the ``tlam`` label
    encodings are 0.02-scaled normal draws; they are drawn in ``map_params``
    order over ``_blank_params`` (projections, then encodings and blocks for
    ``tlam`` or stacks for ``clam``), so a seed pins the parameters
    bit-exactly.
    """
    if variant not in (TLAM, CLAM):
        raise ValueError(f"unknown merger variant {variant!r}")
    if variant == TLAM:
        nn_ops._head_width({"d": d, "heads": heads})
    else:
        heads = None
    _check_sizes(variant, d, heads, n_blocks)
    if rng is None:
        rng = Rng(seed)
    draw = lambda name, shape: 0.02 * rng.normals(*shape) if name.startswith("enc.") else draw_tensor(rng, name, shape)
    return map_params(_blank_params(variant, d, heads, n_blocks, {lab.name: lab.channels for lab in labels}), draw)


def _blank_params(variant, d, heads, n_blocks, channels: dict) -> MergerParams:
    """A ``MergerParams`` whose tensors hold their shapes: per label of
    ``channels`` (name -> channel count) a projection, then a ``tlam``
    encoding or a ``clam`` stack, and ``tlam``'s n_blocks blocks."""
    p = MergerParams(variant=variant, d=d, heads=heads)
    dims = {"d": d, "heads": heads}
    p.projections = {k: blank(LabelProjection, c=c, **dims) for k, c in channels.items()}
    if variant == TLAM:
        p.encodings = {k: (d,) for k in channels}
        p.blocks = [blank(BlockParams, **dims)] * n_blocks
    else:
        p.clam_stacks = {k: [blank(LabelProjection, c=d, **dims)] * n_blocks for k in channels}
    return p


def _bind_check(s: LabelSet, p: MergerParams) -> None:
    """Raise ValueError unless ``p`` holds, for the labels of ``s``, exactly
    the tensors ``_blank_params`` names for them, each of its shape.  Tensors
    of labels outside ``s`` are not read, so they are not checked."""
    validate_label_set(s)
    _check_sizes(p.variant, p.d, p.heads, p.n_blocks)
    channels = {lab.name: lab.channels for lab in s}
    ours = lambda table: {k: v for k, v in table.items() if k in channels}
    got = dict(param_items(replace(p, projections=ours(p.projections), encodings=ours(p.encodings),
                                   clam_stacks=ours(p.clam_stacks))))
    for name, shape in param_items(_blank_params(p.variant, p.d, p.heads, p.n_blocks, channels)):
        t = got.pop(name, None)
        if t is None:
            raise ValueError(f"merger params have no tensor {name!r}")
        if np.shape(t) != shape:
            raise ValueError(f"merger params tensor {name!r} has shape {np.shape(t)}, expected {shape}")
    if got:
        raise ValueError(f"merger params tensor {next(iter(got))!r} is not one of a {p.variant} merger's")


# Bytes of one tile's widest intermediate: half of a 2 MiB per-core L2
# cache, so a tile's elementwise ops run from L2 rather than L3.  Measured
# on a 2-core Xeon (2 MiB L2 a core, OpenBLAS on one thread, malloc set as
# ``labelfuse/__init__`` sets it): a 64x64 merge at N=5, d=96 in 1,024-pixel
# tiles, whose (1024, 5, 384) MLP hidden layer alone is 15.7 MB, took
# 0.76-0.87 s and up to 8,750 minor page faults, against 0.64-0.75 s and 0
# in 64-pixel tiles, near the 68 this rule gives.  Not a pixel count:
# 64-pixel tiles everywhere would cut 16x16 toy training at d=16 into 4
# tiles, and the extra per-op Python cost took 50 iterations from
# 0.71-0.89 s to 1.15-1.28 s.
TILE_BYTES = 1 << 20


def pixel_bytes(variant: str, n_labels: int, d: int) -> int:
    """Bytes of one pixel's widest float64 merge intermediate: the (N, 4d)
    MLP hidden layer for ``tlam``, the (N, d) tokens for ``clam``."""
    return 8 * n_labels * (4 * d if variant == TLAM else d)


def pixel_spans(pixels: int, pixel_size: int) -> list[tuple[int, int]]:
    """Pixels [0, pixels) of a flattened grid cut, in order, into spans of
    ``max(1, TILE_BYTES // pixel_size)`` pixels (only the last may be
    shorter), where ``pixel_size`` is ``pixel_bytes`` of the merge."""
    step = max(1, TILE_BYTES // pixel_size)
    return [(p0, min(p0 + step, pixels)) for p0 in range(0, pixels, step)]


def masked_pixels(s: LabelSet, p0: int, p1: int) -> list[Var]:
    """Per label, pixels [p0, p1) of the flattened grid as a (p1 - p0, C_k)
    float64 constant (input pixels take no gradient), absent pixels exactly zero."""
    return [
        as_var(np.where(lab.mask.reshape(-1, 1)[p0:p1] != 0, lab.values.reshape(-1, lab.channels)[p0:p1], 0.0))
        for lab in s
    ]


def map_tiles(fn, s: LabelSet, p: MergerParams, threads: int, fold) -> None:
    """``fn(p0, p1)`` for each of the ``pixel_spans`` of a ``p`` merge of
    ``s``: the caller and up to ``threads - 1`` helpers (none at one thread
    or one span) run one loop, each taking the next span when it finishes
    one, so no task (~2 KB) is queued per span.  numpy's error state is per
    thread, so every span runs under the caller's.  ``fold`` takes the
    results in span order, each as soon as every earlier one is folded, so
    only the results of spans in flight, or done ahead of an earlier span,
    are held.  Once ``fn`` has raised on any thread, no thread starts
    another span, and the error surfaces from the caller."""
    spans = pixel_spans(s.height * s.width, pixel_bytes(p.variant, len(s), p.d))
    todo = iter(range(len(spans)))  # shared: next() on a range iterator is atomic under the GIL
    done: dict = {}  # results not yet folded, by span index
    lock = threading.Lock()
    folded = 0
    failed = False
    state = np.geterr()

    def work():
        nonlocal folded, failed
        with np.errstate(**state):
            for i in todo:
                if failed:
                    return
                try:
                    result = fn(*spans[i])
                except BaseException:
                    failed = True
                    raise
                with lock:
                    done[i] = result
                    while folded in done:
                        fold(done.pop(folded))
                        folded += 1

    helpers = min(threads, len(spans)) - 1
    with ThreadPoolExecutor(max_workers=max(1, helpers)) as pool:
        running = [pool.submit(work) for _ in range(helpers)]
        work()
        for f in running:
            f.result()


def _projected_tokens(xs: list[Var], names: list[str], p: MergerParams) -> Var:
    """``tlam``'s (B, N, d) tokens, each label's affine + GeLU plus its
    encoding, concatenated side by side and viewed as (B, N, d)."""
    toks = []
    for x, name in zip(xs, names):
        proj = p.projections[name]
        e = tape.gelu(tape.matmul(x, tape.transpose(proj.A, (1, 0)), proj.b))
        toks.append(e + p.encodings[name])
    return tape.reshape(tape.concat(toks, axis=1), (len(xs[0].value), len(toks), p.d))


def _token_average(tokens: Var) -> Var:
    """The (B, w) mean of (B, N, w) tokens over their N labels, absent ones
    included: per pixel, one (1, N) @ (N, w) product with weights 1/N, whose
    backward is one more.  One node, however many labels."""
    b, n, w = tokens.value.shape
    return tape.reshape(tape.matmul(as_var(np.full((1, n), 1.0 / n)), tokens), (b, w))


def merge_step(p: MergerParams, s: LabelSet):
    """The graph a tile of a ``p`` merge of ``s`` runs: ``graph(p0, p1)`` is
    the (p1 - p0, d) merge of pixels [p0, p1) of the flattened grid.

    ``p`` is lifted with ``as_var``, which leaves Vars alone, and what the
    variant reads is built once, here.  ``tlam``: each block's LN2 affine is
    folded into MLP-up, W1' = diag(gamma2) W1 and b1' = beta2 W1 + b1, so LN2
    only normalizes; the fold is tape ops, so gradients reach gamma2, beta2,
    W1 and b1.  LN1's affine stays a product and a sum after the
    normalization (``nn_ops.msa_block``): Q, K and V have no bias, and the
    three bias adds a fold would need cost about what it saves.
    ``clam``: each label's c_k, one all-zero pixel pushed through its chain.
    A merge builds one step; a training tile builds its own from its leaves."""
    p = map_params(p, lambda _name, t: as_var(t))
    names = [lab.name for lab in s]
    if p.variant == TLAM:

        def fold(bp):
            w1 = tape.transpose(tape.transpose(bp.w1, (1, 0)) * bp.ln2_gamma, (1, 0))
            b1 = tape.reshape(tape.matmul(tape.reshape(bp.ln2_beta, (1, p.d)), bp.w1, bp.b1), (4 * p.d,))
            return replace(bp, ln2_gamma=None, ln2_beta=None, w1=w1, b1=b1)

        step = replace(p, blocks=[fold(bp) for bp in p.blocks])
        return lambda p0, p1: tlam_graph(masked_pixels(s, p0, p1), names, step)
    absent = {
        lab.name: clam_graph([as_var(np.zeros((1, lab.channels)))], [lab.name], p, [np.ones(1, bool)], {}).value[0]
        for lab in s
    }
    present = lambda p0, p1: [lab.mask.reshape(-1)[p0:p1] != 0 for lab in s]
    return lambda p0, p1: clam_graph(masked_pixels(s, p0, p1), names, p, present(p0, p1), absent)


def tlam_graph(xs: list[Var], names: list[str], step: MergerParams) -> Var:
    """The differentiable merge for one pixel batch: (B, C_k) inputs -> (B, d),
    reading the params ``merge_step`` folds.

    The last block's MLP-down is linear and followed only by the token
    average, so it runs after it, on B rows rather than B N:
    avg_k(GeLU(LN2(Y_k) W1' + b1')) W2 + b2 + avg_k(Y_k).  With no blocks
    the result is the tokens' plain average."""
    Z = _projected_tokens(xs, names, step)
    if not step.blocks:
        return _token_average(Z)
    for bp in step.blocks[:-1]:
        Z = nn_ops.transformer_block(Z, bp)
    last = step.blocks[-1]
    Y = nn_ops.msa_block(Z, last)
    batch = Y.value.shape[0]
    hidden = tape.reshape(_token_average(nn_ops.mlp_hidden(Y, last)), (batch, 1, 4 * step.d))
    down = tape.matmul(hidden, last.w2, last.b2)  # (B, 1, 4d) @ (4d, d)
    return tape.reshape(down, (batch, step.d)) + _token_average(Y)


def clam_graph(xs: list[Var], names: list[str], p: MergerParams, present: list, absent: dict) -> Var:
    """The ``clam`` merge for one pixel batch: (B, C_k) inputs -> (B, d).

    ``present[k]`` is a (B,) bool array of the rows where label k is present.
    The label's chain (projection and stack) is a function of a row's value
    alone, so it runs once on each distinct value of those rows
    (``_distinct_rows``), and not at all when there are none; each output
    goes to every row that holds its value.  Every other row takes
    ``absent[names[k]]``, the chain's (d,) output for an absent pixel;
    ``absent`` is read only for a label absent on some row.  The tokens are
    written into one (B, N, d) array, so nothing is recorded.
    """
    tokens = np.empty((len(xs[0].value), len(xs), p.d))
    for k, (x, name, rows) in enumerate(zip(xs, names, present)):
        if not rows.all():
            tokens[:, k] = absent[name]
            if not rows.any():
                continue
        values, inverse = _distinct_rows(x.value[rows])
        v = as_var(values)
        for proj in (p.projections[name], *p.clam_stacks[name]):
            v = tape.gelu(tape.matmul(v, tape.transpose(proj.A, (1, 0)), proj.b))
        tokens[rows, k] = v.value if inverse is None else v.value[inverse]
    return _token_average(as_var(tokens))


def _distinct_rows(x: np.ndarray):
    """``(values, inverse)``: the distinct rows of the (B, C) array ``x``,
    told apart by their bytes (so -0.0 and +0.0 differ), and the (B,) index
    with ``values[inverse]`` equal to ``x``.  Equal rows give equal mixes
    ``x @ m`` for any fixed m, so when the B mixes are distinct, as for most
    continuous labels, so are the rows, and it returns ``(x, None)`` without
    comparing bytes."""
    mix = np.sort(x @ np.sqrt(np.arange(2.0, x.shape[1] + 2)))
    if (mix[1:] != mix[:-1]).all():
        return x, None
    keys = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return x[first], inverse


def _run_tiled(s: LabelSet, p: MergerParams, variant: str, threads: int) -> np.ndarray:
    """The H x W x d ``p`` merge of ``s`` on up to ``threads`` threads.

    The step and every tile run with numpy's overflow and invalid flags
    raised, so an overflow anywhere in the merge is a ``FloatingPointError``
    (``merge produced non-finite values (<numpy's reason>)``), not a warning.
    An inf that raises no flag (an inf bias, say) is caught by each tile's
    ``isfinite`` check."""
    if p.variant != variant:
        raise ValueError(f"params are for variant {p.variant!r}, expected {variant!r}")
    _bind_check(s, p)
    out = np.empty((s.height, s.width, p.d), dtype=np.float64)
    flat = out.reshape(-1, p.d)

    def tile(p0, p1):
        z = graph(p0, p1).value
        if not np.isfinite(z).all():
            raise FloatingPointError(f"in pixels [{p0}, {p1})")
        flat[p0:p1] = z

    try:
        with np.errstate(over="raise", invalid="raise"):
            graph = merge_step(p, s)
            map_tiles(tile, s, p, threads, lambda _none: None)
    except FloatingPointError as e:
        raise FloatingPointError(f"merge produced non-finite values ({e})") from e
    return out


def tlam_merge(s: LabelSet, p: MergerParams, threads: int = 1) -> np.ndarray:
    """Transformer label merging; returns the H x W x d concept tensor."""
    nn_ops.attention_mac_counter.reset()
    return _run_tiled(s, p, TLAM, threads)


def clam_merge(s: LabelSet, p: MergerParams, threads: int = 1) -> np.ndarray:
    """Stacked per-label affine+GeLU merging; returns H x W x d.  Each
    label's projection and stack run, per tile, once on each distinct value
    of its present pixels: every pixel of a tile that holds the value takes
    the one output, and every absent pixel of a label takes one vector,
    computed once per merge."""
    return _run_tiled(s, p, CLAM, threads)


def naive_concat(s: LabelSet) -> np.ndarray:
    """Channel-wise concatenation in label order (absent pixels contribute zeros)."""
    validate_label_set(s)
    parts = [
        np.where(lab.mask[..., None] != 0, lab.values, np.float32(0.0)) for lab in s
    ]
    return np.concatenate(parts, axis=-1)


def count_attention_macs(n_labels: int, d: int, h: int, l: int, pixels: int) -> int:
    """Exact multiply-accumulate count of the QK^T and A*V attention products."""
    return pixels * l * h * 2 * n_labels * n_labels * nn_ops._head_width({"d": d, "heads": h})


def save_merger_params(p: MergerParams, dirpath) -> None:
    """Serialize to a directory: params.json plus one .tlt file per parameter."""
    labels = [
        {"name": name, "channels": int(proj.A.shape[1])}
        for name, proj in p.projections.items()
    ]
    doc = {"variant": p.variant, "d": p.d}
    if p.variant == TLAM:
        doc["heads"] = p.heads
    doc.update(n_blocks=p.n_blocks, labels=labels)
    save_tensor_dir(dirpath, "params.json", doc, param_items(p))


def load_merger_params(dirpath) -> MergerParams:
    """Read a params directory written by ``save_merger_params``.

    ``params.json`` must be an object with variant ``tlam`` or ``clam``,
    integers d >= 1, heads >= 1 (``tlam`` only; a ``clam`` file's heads, if
    any, is ignored) and n_blocks >= 0 (a merger may have no blocks), and a
    labels list of objects with a string name that is a ``FILE_STEM`` and an
    integer channels >= 1; every tensor's shape is checked against it, and
    n_blocks may not exceed the directory's entries (each block has a file).
    Anything else raises ValueError.
    """
    doc = read_json(os.path.join(dirpath, "params.json"), "params.json")
    if doc.get("variant") not in (TLAM, CLAM):
        raise ValueError("params.json must be an object with a known 'variant'")
    labels = doc.get("labels")
    if not isinstance(labels, list) or not all(isinstance(e, dict) and isinstance(e.get("name"), str) for e in labels):
        raise ValueError("params.json 'labels' must be a list of objects with a string 'name'")
    _check_sizes(doc["variant"], doc.get("d"), doc.get("heads"), doc.get("n_blocks"), "params.json")
    files = len(os.listdir(dirpath))
    if doc["n_blocks"] > files:
        raise ValueError(f"params.json 'n_blocks' is {doc['n_blocks']}, but the directory holds {files} files")
    for i, e in enumerate(labels):
        name = e["name"]
        if not FILE_STEM.fullmatch(name):
            raise ValueError(f"params.json label {i} name {name!r} must be a non-empty file stem without '/' or '\\'")
        _check_int(f"params.json label {i} 'channels'", e.get("channels"), 1)
    heads = doc["heads"] if doc["variant"] == TLAM else None
    channels = {e["name"]: e["channels"] for e in labels}
    return map_params(_blank_params(doc["variant"], doc["d"], heads, doc["n_blocks"], channels), tlt_loader(dirpath))
