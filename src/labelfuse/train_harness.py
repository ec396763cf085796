"""Reverse-mode training machinery for the toy generation task:
finite-difference gradient verification, Adam (beta1 = 0) with the
bias-corrected update, hinge adversarial losses, per-pixel
generator/discriminator heads, and the desk-scale training loop on synthetic
scenes.

Parameters are named float64 arrays (``fusion.param_items``, ``head_items``),
in training as at rest: Adam updates them in place, and a loss lifts them to
Vars only for the call that differentiates it.

Every training step runs on the merge tiler (``tiled_grads``): the l2 loss,
the adversarial generator loss (``_adv_g_tile``) and the discriminator's
per-pixel hinge (``_d_tile``) are means over pixels, so they split exactly
into pixel-weighted tile losses.  A step's leaves are the tensors its
optimizer updates, all else is constant, so the discriminator step records
neither merge nor generator and the generator step takes no ``disc.*`` gradient.
Each tile's graph is freed once its gradients are taken.  The final eval and
ablation losses run on the same tiler with no leaves, so they record nothing
and hold one tile a thread, whatever the grid size.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import fusion, nn_ops, tape
from .label_model import (
    LabelMap,
    LabelSet,
    apply_masks,
    generate_sparse_masks,
    mask_out_label,
    synth_scene,
)
from .nn_ops import blank, init_block_params, init_tensors, map_tensors, tensor, tlt_loader
from .tape import Var, as_var, backward
from .tensor_core import Rng, read_json, save_tensor_dir


# toy-training constants: hidden widths of the generator and discriminator
# heads; adversarial-mode learning rates and the weight of the l2 stabilizer
# added to its generator loss; the final evals' sparsity levels and the mask
# draws averaged at each
D_G = 64
D_C = 64
LR_G = 1e-4
LR_D = 4e-4
L2_WEIGHT = 10.0
EVAL_SPARSITIES = (0.0, 0.3, 0.5, 0.7)
EVAL_REPEATS = 8


@dataclass
class HeadParams:
    """Per-pixel MLP heads: generator d -> d_g -> 3, discriminator (d+3) -> d_c -> 1."""

    gen_w1: object = tensor("gen.W1", "d", "d_g")
    gen_b1: object = tensor("gen.b1", "d_g")
    gen_w2: object = tensor("gen.W2", "d_g", 3)
    gen_b2: object = tensor("gen.b2", 3)
    disc_w1: object = tensor("disc.W1", "d+3", "d_c", default=None)
    disc_b1: object = tensor("disc.b1", "d_c", default=None)
    disc_w2: object = tensor("disc.W2", "d_c", 1, default=None)
    disc_b2: object = tensor("disc.b2", 1, default=None)

    @property
    def has_discriminator(self) -> bool:
        return self.disc_w1 is not None


def head_items(hp: HeadParams) -> list:
    """(file stem, tensor) for every head parameter, in declaration order."""
    items = []
    map_tensors(hp, lambda name, t: items.append((name, t)))
    return items


def _blank_heads(discriminator: bool, **dims) -> HeadParams:
    hp = blank(HeadParams, **dims)
    if not discriminator:
        hp.disc_w1 = hp.disc_b1 = hp.disc_w2 = hp.disc_b2 = None
    return hp


def init_head_params(d: int, rng: Rng, d_g: int = D_G, d_c: int = D_C, discriminator: bool = False) -> HeadParams:
    return init_tensors(_blank_heads(discriminator, d=d, d_g=d_g, d_c=d_c), rng)


def generate_graph(z: Var, hp: HeadParams) -> Var:
    """Generator head on a (B, d) pixel batch -> (B, 3); no output squashing.
    ``hp`` holds Vars, as do the head arguments of the graphs and losses below."""
    hidden = tape.gelu(tape.matmul(z, hp.gen_w1, hp.gen_b1))
    return tape.matmul(hidden, hp.gen_w2, hp.gen_b2)


def discriminator_graph(z: Var, rgb: Var, hp: HeadParams) -> Var:
    """Per-pixel scores (B, 1) from concat(z, rgb): a patch discriminator
    with 1x1 patches."""
    x = tape.concat([z, rgb], axis=-1)
    hidden = tape.gelu(tape.matmul(x, hp.disc_w1, hp.disc_b1))
    return tape.matmul(hidden, hp.disc_w2, hp.disc_b2)


def hinge_d_loss(real_score: Var, fake_score: Var) -> Var:
    """The patch hinge: mean max(0, 1 - real) + mean max(0, 1 + fake) over
    the scores; zero iff every score meets its margin."""
    return tape.mean_all(tape.relu(1.0 - real_score)) + tape.mean_all(tape.relu(1.0 + fake_score))


def hinge_g_loss(fake_score):
    """The generator side of the hinge objective: -fake."""
    return -fake_score


def l2_loss(img: Var, target: Var) -> Var:
    """Mean squared difference over all elements."""
    diff = img - target
    return tape.mean_all(diff * diff)


# Adam's second-moment decay and denominator guard.  The first-moment decay
# beta1 is 0, so the first moment is the gradient itself and needs no buffer
# or bias correction.
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam optimizer state over named float64 parameter arrays, which
    ``adam_step`` updates in place."""

    params: dict[str, np.ndarray]
    lr: float
    t: int = 0
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        for n, p in self.params.items():
            self.v[n] = np.zeros_like(p)


def adam_step(state: AdamState, grads: dict) -> None:
    """One bias-corrected Adam update with beta1 = 0, applied in place:
    theta -= lr * g / (sqrt(v / (1 - ADAM_BETA2^t)) + ADAM_EPS).

    ``v`` is updated in place and the step is built in one scratch buffer;
    every operation keeps the order of that formula, so the result is
    bit-identical to evaluating it with temporaries."""
    state.t += 1
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for n, p in state.params.items():
        g, v = grads[n], state.v[n]
        step = np.multiply(g, g)
        step *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += step
        np.divide(v, bc2, out=step)
        np.sqrt(step, out=step)
        step += ADAM_EPS
        np.divide(state.lr * g, step, out=step)
        p -= step


@dataclass
class FdFailure:
    name: str
    index: int
    analytic: float
    numeric: float
    rel_err: float
    roundoff: float  # the allowance r this element was judged against


@dataclass
class FdReport:
    max_rel_err: float
    checked: int
    failures: list
    per_param_max: dict
    max_roundoff: float  # largest round-off allowance r over the checked elements

    @property
    def passed(self) -> bool:
        return not self.failures


# Central-difference step, the largest relative error that passes, and the
# elements sampled (with seed 0) from parameters of more than 10^4 elements
FD_STEP = 1e-5
FD_TOL = 1e-4
FD_SAMPLES = 200
# Each loss evaluation may carry up to this many eps * |f| of rounding error
# (a few ulps per accumulated stage of a block) before it counts against the
# gradient; at |f| ~ 1 and FD_STEP the allowance is ~3.5e-10.
FD_ROUNDOFF_C = 16.0
_EPS = float(np.finfo(np.float64).eps)


def finite_diff_check(params: dict, loss_fn) -> FdReport:
    """Compare tape gradients against central differences element by element.

    ``loss_fn(vars)`` returns a scalar Var from ``vars``, which maps each name
    of ``params`` (a dict of arrays) to a Var.  Its gradients are taken with
    every array lifted to a leaf; a parameter the loss does not use gets
    zeros.  The differences need only loss values, so they lift constants
    over private float64 copies: the caller's arrays are never written, even
    when ``loss_fn`` raises.

    Checks every element when the parameters hold at most 10^4; otherwise a
    random subsample of ``FD_SAMPLES`` elements, drawn with seed 0 over the
    names in sorted order.  The error of analytic gradient a against
    numeric n is

        max(0, |a - n| - r) / max(1e-8, |a| + |n|),
        r = FD_ROUNDOFF_C * eps * max(|f+|, |f-|) / FD_STEP,

    where eps is float64 machine epsilon and f+/f- are the two loss values.
    r is the round-off term of the central-difference error bound: the
    rounding error of each loss value enters n divided by 2 * FD_STEP, so a
    gradient below eps * |f| / FD_STEP cannot be resolved and is not judged
    by the relative test.  An element fails when its error exceeds
    ``FD_TOL``; the report records r (``FdReport.max_roundoff``,
    ``FdFailure.roundoff``).
    """
    names = sorted(params)
    leaves = {n: Var(params[n]) for n in names}
    backward(loss_fn(leaves))
    grads = {n: np.zeros_like(v.value) if v.grad is None else v.grad for n, v in leaves.items()}

    copies = {n: np.array(params[n], dtype=np.float64) for n in names}
    constants = {n: as_var(a) for n, a in copies.items()}
    sizes = [copies[n].size for n in names]
    total = sum(sizes)
    if total <= 10_000:
        targets = [(n, i) for n, size in zip(names, sizes) for i in range(size)]
    else:
        rng = Rng(0)
        chosen: set[tuple[str, int]] = set()
        offsets = np.cumsum([0] + sizes)
        while len(chosen) < FD_SAMPLES:
            flat = rng.next_u64() % total
            k = int(np.searchsorted(offsets, flat, side="right") - 1)
            chosen.add((names[k], int(flat - offsets[k])))
        targets = sorted(chosen)

    failures: list[FdFailure] = []
    per_param_max: dict[str, float] = {}  # only parameters with a checked element
    max_rel = 0.0
    max_roundoff = 0.0
    for name, idx in targets:
        arr = copies[name]
        old = arr.flat[idx]
        arr.flat[idx] = old + FD_STEP
        f_plus = float(loss_fn(constants).value)
        arr.flat[idx] = old - FD_STEP
        f_minus = float(loss_fn(constants).value)
        arr.flat[idx] = old
        numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
        analytic = float(grads[name].flat[idx])
        roundoff = FD_ROUNDOFF_C * _EPS * max(abs(f_plus), abs(f_minus)) / FD_STEP
        excess = max(0.0, abs(analytic - numeric) - roundoff)
        rel = excess / max(1e-8, abs(analytic) + abs(numeric))
        max_rel = max(max_rel, rel)
        max_roundoff = max(max_roundoff, roundoff)
        per_param_max[name] = max(per_param_max.get(name, 0.0), rel)
        if rel > FD_TOL:
            failures.append(FdFailure(name, idx, analytic, numeric, rel, roundoff))
    return FdReport(
        max_rel_err=max_rel,
        checked=len(targets),
        failures=failures,
        per_param_max=per_param_max,
        max_roundoff=max_roundoff,
    )


@dataclass
class ToyTrainConfig:
    height: int = 16
    width: int = 16
    regions: int = 4
    seed: int = 42
    iters: int = 500
    sparsity: float = 0.5
    mode: str = "l2"  # "l2" | "adversarial"
    d: int = 16
    blocks: int = 2
    heads: int = 2
    lr: float = 5e-3  # l2 mode; the adversarial mode uses LR_G / LR_D
    threads: int = 1  # schedules pixel tiles only; results never depend on it


def _l2_tile(z: Var, heads: HeadParams, t: Var) -> Var:
    """The l2 training loss of one tile: generate, then l2 against ``t``."""
    return l2_loss(generate_graph(z, heads), t)


def _adv_g_tile(z: Var, heads: HeadParams, t: Var) -> Var:
    """The adversarial generator loss of one tile: -mean D(fake) + L2_WEIGHT * l2."""
    fake = generate_graph(z, heads)
    return hinge_g_loss(tape.mean_all(discriminator_graph(z, fake, heads))) + L2_WEIGHT * l2_loss(fake, t)


def _d_tile(z: Var, heads: HeadParams, t: Var) -> Var:
    """The discriminator's hinge loss of one tile, real pixels ``t`` against
    generated ones; with only ``disc.*`` as leaves, ``z`` and the image are constants."""
    fake = generate_graph(z, heads)
    return hinge_d_loss(discriminator_graph(z, t, heads), discriminator_graph(z, fake, heads))


def tiled_grads(masked, target, merger_arrays, heads_arrays, tile_loss, wrt, threads: int = 1):
    """A per-pixel mean loss and its gradients, by merge tile (``fusion.map_tiles``).

    The merger and head params hold arrays.  Each tile lifts those named in ``wrt``
    (an optimizer's ``params``) to leaves and all else to constants, so only they get gradients,
    and runs the graph its own ``fusion.merge_step`` builds from them, so the LN2 fold's
    gradients reach its leaves.
    An empty ``wrt`` gives the loss alone: nothing is recorded and ``grads`` is empty.

    ``tile_loss(z, heads, t)`` (``_l2_tile``, ``_adv_g_tile`` or ``_d_tile``) is
    the loss of a tile's merge ``z`` (B, d) against its target pixels ``t`` (B, 3).
    Each tile has its own leaves and may run on its own thread; tile losses
    and gradients are weighted by the tile's share of pixels and summed in
    ascending tile order, so nothing depends on ``threads``.  A tile's graph
    is freed once its gradients are taken, and its gradients once they are
    summed, as soon as every earlier tile's are: a step holds at most one
    graph per thread, and no gradient set per tile.  Returns ``(loss, grads)``.
    """
    pixels = masked.height * masked.width
    flat_target = target.reshape(-1, 3)

    def run(p0, p1):
        leaves: dict[str, Var] = {}
        register = lambda name, arr: leaves.setdefault(name, Var(arr)) if name in wrt else as_var(arr)
        heads = map_tensors(heads_arrays, register)
        t = as_var(flat_target[p0:p1])
        loss = tile_loss(fusion.merge_step(fusion.map_params(merger_arrays, register), masked)(p0, p1), heads, t)
        backward(loss)
        return (p1 - p0) / pixels, float(loss.value), {n: v.grad for n, v in leaves.items() if v.grad is not None}

    total = 0.0
    grads: dict[str, np.ndarray] = {}

    def fold(result):
        nonlocal total
        w, value, tile_grads = result
        total += w * value
        for n, g in tile_grads.items():
            grads[n] = grads[n] + w * g if n in grads else w * g

    fusion.map_tiles(run, masked, merger_arrays, threads, fold)
    return total, grads


def train_toy(cfg: ToyTrainConfig) -> dict:
    """Train the toy merge-and-generate pipeline on one synthetic scene.

    Each iteration resamples sparsity masks with a fresh seed, merges via
    the transformer variant, generates, and Adam-updates (``adam_step``).
    The report carries per-iteration losses, final eval
    losses at sparsity {0.0, 0.3, 0.5, 0.7} (masks seeded deterministically;
    a mask set drawn again is not merged again) and a per-label
    full-ablation eval.  Each eval loss is the l2 training loss, run on the
    tiler (``tiled_grads``) with no leaves; a non-finite one raises
    ``FloatingPointError``.
    """
    report, _, _ = train_toy_with_params(cfg)
    return report


def train_toy_with_params(cfg: ToyTrainConfig):
    """As train_toy, but also returns the trained merger and head params, as
    arrays.  The optimizers hold those arrays and Adam updates them in place,
    so they are current after every step."""
    if cfg.mode not in ("l2", "adversarial"):
        raise ValueError(f"unknown training mode {cfg.mode!r}")
    if cfg.iters < 0:
        raise ValueError(f"iters must be >= 0, got {cfg.iters}")
    labels, inst, target = synth_scene(cfg.height, cfg.width, cfg.regions, cfg.seed)
    target64 = target.astype(np.float64)

    master = Rng(cfg.seed)
    seed_params = master.next_u64()
    seed_masks = master.next_u64()
    seed_eval = master.next_u64()

    init_rng = Rng(seed_params)
    merger = fusion.init_merger_params(
        labels, fusion.TLAM, d=cfg.d, n_blocks=cfg.blocks, heads=cfg.heads, rng=init_rng
    )
    heads = init_head_params(cfg.d, init_rng, discriminator=cfg.mode == "adversarial")

    items = fusion.param_items(merger) + head_items(heads)
    if cfg.mode == "l2":
        tile_loss, lr = _l2_tile, cfg.lr
    else:
        tile_loss, lr = _adv_g_tile, LR_G
        opt_d = AdamState({n: t for n, t in items if n.startswith("disc.")}, LR_D)
    opt = AdamState({n: t for n, t in items if not n.startswith("disc.")}, lr)

    mask_rng = Rng(seed_masks)
    losses: list[float] = []
    diverged_at = None
    # overflow and invalid are expected once training diverges: the finite-loss
    # and eval checks below decide, so numpy neither warns nor raises
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.iters):
            mseed = mask_rng.next_u64()
            masked = apply_masks(labels, generate_sparse_masks(inst, labels, cfg.sparsity, mseed))
            if cfg.mode == "adversarial":
                adam_step(opt_d, tiled_grads(masked, target64, merger, heads, _d_tile, opt_d.params, cfg.threads)[1])
            value, grads = tiled_grads(masked, target64, merger, heads, tile_loss, opt.params, cfg.threads)
            adam_step(opt, grads)
            losses.append(value)
            if not math.isfinite(value):
                diverged_at = it
                break

        if diverged_at is None:
            def l2(s: LabelSet) -> float:
                value = tiled_grads(s, target64, merger, heads, _l2_tile, (), cfg.threads)[0]
                if not math.isfinite(value):
                    raise FloatingPointError("eval produced a non-finite l2")
                return value

            eval_rng = Rng(seed_eval)
            recon: dict[bytes, float] = {}  # by mask set: at sparsity 0 every draw keeps every label

            def sparse_l2(s: float) -> float:
                masks = generate_sparse_masks(inst, labels, s, eval_rng.next_u64())
                key = b"".join(m.tobytes() for m in masks.masks.values())
                if key not in recon:
                    recon[key] = l2(apply_masks(labels, masks))
                return recon[key]

            evals = {
                f"s{s:.1f}": float(np.mean([sparse_l2(s) for _ in range(EVAL_REPEATS)]))
                for s in EVAL_SPARSITIES
            }
            ablation = {lab.name: l2(mask_out_label(labels, lab.name)) for lab in labels}
        else:
            evals = None
            ablation = None

    report = {
        "config": asdict(cfg),
        "loss": losses,
        "eval": evals,
        "per_label_ablation": ablation,
        "diverged_at": diverged_at,
    }
    return report, merger, heads


def make_random_label_set(
    n_labels: int, h: int, w: int, seed: int, sparsity: float = 0.0
) -> LabelSet:
    """A dense-or-sparse random label set for gradient checks and benches.

    Channel counts cycle 1, 2, 3; values are standard normal draws and masks
    are independent per-pixel coin flips at the given absence rate.
    """
    rng = Rng(seed)
    labels = []
    for k in range(n_labels):
        c = 1 + k % 3
        values = rng.normals(h, w, c).astype(np.float32)
        if sparsity > 0.0:
            mask = (rng.uniforms(h, w) >= sparsity).astype(np.uint8)
            values = np.where(mask[..., None] == 0, np.float32(0.0), values)
        else:
            mask = np.ones((h, w), dtype=np.uint8)
        labels.append(LabelMap(name=f"lab{k}", kind="continuous", values=values, mask=mask))
    return LabelSet(labels=labels)


def block_check(stage, rng: Rng, d: int, heads: int, n: int):
    """A gradient check of ``stage(z, bp)`` on a transformer block: the block's
    tensors and an (n, d) input "Z" by name, and the loss, the mean of the
    stage's output weighted by fixed (n, d) weights.  Block, input and
    weights are drawn from ``rng`` in that order."""
    params = {}
    bp = map_tensors(init_block_params(d, heads, rng), params.setdefault)
    params["Z"] = rng.normals(n, d)
    c = rng.normals(n, d)
    return params, lambda p: tape.mean_all(stage(p["Z"], map_tensors(bp, lambda name, _t: p[name])) * c)


def gradcheck_suite(preset: str = "small", seed: int = 0):
    """Named (group, params, loss_fn) triples for ``finite_diff_check``.

    The ``small`` preset covers each primitive op (layer norm with and
    without a gain and shift) plus two tiny end-to-end configurations, the
    second with random LN2 gains and shifts; ``full`` runs seeded random
    end-to-end configurations over N in {1, 3, 5}, d in {8, 16} and depth
    in {1, 2} on a 4x4 grid.
    """

    def check_gelu(rng):
        params = {"x": rng.normals(3, 4)}
        return params, lambda p: tape.mean_all(tape.gelu(p["x"]))

    def check_linear(rng):
        params = {"A": rng.normals(4, 3), "b": rng.normals(4), "x": rng.normals(5, 3)}
        c = rng.normals(5, 4)
        return params, lambda p: tape.mean_all((tape.matmul(p["x"], tape.transpose(p["A"], (1, 0))) + p["b"]) * c)

    def check_linear_bias(rng):
        params = {"W": rng.normals(4, 3), "b": rng.normals(3), "x": rng.normals(2, 3, 4)}
        c = rng.normals(2, 3, 3)
        return params, lambda p: tape.mean_all(tape.matmul(p["x"], p["W"], p["b"]) * c)

    def check_layer_norm(rng):
        params = {"x": rng.normals(5, 6), "gamma": rng.normals(6), "beta": rng.normals(6)}
        c = rng.normals(5, 6)
        return params, lambda p: tape.mean_all((tape.layer_norm(p["x"], 1e-5) * p["gamma"] + p["beta"]) * c)

    def check_normalize(rng):
        params = {"x": rng.normals(5, 6)}
        c = rng.normals(5, 6)
        return params, lambda p: tape.mean_all(tape.layer_norm(p["x"]) * c)

    def check_softmax(rng):
        params = {"x": rng.normals(4, 5)}
        c = rng.normals(4, 5)
        return params, lambda p: tape.mean_all(tape.softmax(p["x"]) * c)

    def check_block(stage):
        """Check ``stage(z, bp)`` of a d=8, 2-head block on 3 tokens."""
        return lambda rng: block_check(stage, rng, 8, 2, 3)

    def check_e2e(n_labels, d, blocks, h, w, heads=2, ln2_affine=False):
        """A tiny merge-and-generate l2 loss; with ``ln2_affine``, LN2's
        gains and shifts are normal draws, not 1 and 0, where the gradients
        through ``fusion.merge_step``'s fold are not trivial."""

        def check(rng):
            labels = make_random_label_set(n_labels, h, w, rng.next_u64(), sparsity=0.3)
            merger = fusion.init_merger_params(labels, fusion.TLAM, d=d, n_blocks=blocks, heads=heads, rng=rng)
            if ln2_affine:
                merger.blocks = [replace(bp, ln2_gamma=rng.normals(d), ln2_beta=rng.normals(d)) for bp in merger.blocks]
            head_params = init_head_params(d, rng, d_g=16)
            target = as_var(rng.uniforms(h * w, 3))

            def loss_fn(p):
                by_name = lambda name, _t: p[name]
                z = fusion.merge_step(fusion.map_params(merger, by_name), labels)(0, h * w)
                return _l2_tile(z, map_tensors(head_params, by_name), target)

            return dict(fusion.param_items(merger) + head_items(head_params)), loss_fn

        return check

    if preset == "small":
        checks = [
            ("gelu", 1, check_gelu),
            ("linear", 2, check_linear),
            ("linear_bias", 9, check_linear_bias),
            ("layer_norm", 3, check_layer_norm),
            ("layer_norm_plain", 10, check_normalize),
            ("softmax", 4, check_softmax),
            ("attention", 5, check_block(lambda z, bp: nn_ops.multi_head_self_attention(z, bp.attn))),
            ("msa_block", 6, check_block(nn_ops.msa_block)),
            ("mlp_block", 7, check_block(nn_ops.mlp_block)),
            ("e2e.N2.d8.l1", 8, check_e2e(2, 8, 1, 4, 4)),
            ("e2e.N2.d8.l2.ln2", 11, check_e2e(2, 8, 2, 4, 4, ln2_affine=True)),
        ]
    elif preset == "full":
        configs = [(1, 8, 1), (3, 8, 2), (5, 8, 1), (3, 16, 1), (5, 16, 2)]
        checks = [(f"e2e.N{n}.d{d}.l{l}", 10 + i, check_e2e(n, d, l, 4, 4)) for i, (n, d, l) in enumerate(configs)]
    else:
        raise ValueError(f"unknown gradcheck preset {preset!r}")
    return [(name, *check(Rng(seed + offset))) for name, offset, check in checks]


def save_head_params(hp: HeadParams, dirpath) -> None:
    save_tensor_dir(dirpath, "heads.json", {"discriminator": hp.has_discriminator}, head_items(hp))


def load_head_params(dirpath) -> HeadParams:
    """Read heads written by ``save_head_params``.  The widths d, d_g and d_c
    are read off the first tensor that has them and every later shape is
    checked against them."""
    meta = read_json(os.path.join(dirpath, "heads.json"), "heads.json")
    if type(meta.get("discriminator")) is not bool:
        raise ValueError("heads.json must be an object with a bool 'discriminator'")
    return map_tensors(_blank_heads(meta["discriminator"]), tlt_loader(dirpath))
