"""Reverse-mode training machinery for the toy generation task: a parameter
store over tape leaves, finite-difference gradient verification, Adam with
the bias-corrected update, hinge adversarial losses, per-pixel
generator/discriminator heads, and the desk-scale training loop on synthetic
scenes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import fusion, tape
from .fusion import MergerParams, masked_rows, tlam_graph
from .label_model import (
    LabelSet,
    apply_masks,
    generate_sparse_masks,
    mask_out_label,
    synth_scene,
)
from .nn_ops import blank, init_block_params, init_tensors, map_tensors, tensor
from .tape import Var, backward, no_grad
from .tensor_core import Rng, save_tensor


class ParamStore:
    """Named parameter tensors held as tape leaves, iterated in name order."""

    def __init__(self):
        self._params: dict[str, Var] = {}

    def add(self, name: str, value) -> Var:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        v = Var(value)
        if not np.isfinite(v.value).all():
            raise ValueError(f"parameter {name!r} contains non-finite values")
        self._params[name] = v
        return v

    def names(self) -> list[str]:
        return sorted(self._params)

    def var(self, name: str) -> Var:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def total_size(self) -> int:
        return sum(v.value.size for v in self._params.values())

    def zero_grad(self) -> None:
        for v in self._params.values():
            v.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        """Accumulated gradients by name; parameters unused by the loss get zeros."""
        return {
            name: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for name, v in self._params.items()
        }

    def values(self) -> dict[str, np.ndarray]:
        return {name: v.value for name, v in self._params.items()}


def lift_merger_params(p: MergerParams, register) -> MergerParams:
    """Rebuild a MergerParams with each tensor passed through ``register``.

    ``register(name, tensor) -> Var`` receives the canonical parameter names
    (the same stems used by the on-disk serialization).
    """
    return fusion.map_params(p, lambda name, t: register(name, fusion._raw(t)))


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


def init_head_params(d: int, rng: Rng, d_g: int = 64, d_c: int = 64, discriminator: bool = False) -> HeadParams:
    return init_tensors(_blank_heads(discriminator, d=d, d_g=d_g, d_c=d_c), rng)


def lift_head_params(hp: HeadParams, register) -> HeadParams:
    return map_tensors(hp, lambda name, t: register(name, fusion._raw(t)))


def generate_graph(z: Var, hp: HeadParams) -> Var:
    """Generator head on a (B, d) pixel batch -> (B, 3); no output squashing."""
    hidden = tape.gelu(tape.matmul(z, tape.as_var(hp.gen_w1)) + tape.as_var(hp.gen_b1))
    return tape.matmul(hidden, tape.as_var(hp.gen_w2)) + tape.as_var(hp.gen_b2)


def discriminator_graph(z: Var, rgb: Var, hp: HeadParams) -> Var:
    """Per-pixel score from concat(z, rgb), averaged to one scalar."""
    x = tape.concat([z, rgb], axis=-1)
    hidden = tape.gelu(tape.matmul(x, tape.as_var(hp.disc_w1)) + tape.as_var(hp.disc_b1))
    scores = tape.matmul(hidden, tape.as_var(hp.disc_w2)) + tape.as_var(hp.disc_b2)
    return tape.mean_all(scores)


def forward_generate(z: np.ndarray, hp: HeadParams) -> np.ndarray:
    """Map an H x W x d concept tensor to an H x W x 3 image."""
    arr = np.asarray(z, dtype=np.float64)
    h, w, d = arr.shape
    with no_grad():
        rgb = generate_graph(Var(arr.reshape(-1, d)), hp).value
    return rgb.reshape(h, w, 3)


def discriminator_score(z: np.ndarray, img: np.ndarray, hp: HeadParams) -> float:
    z = np.asarray(z, dtype=np.float64)
    img = np.asarray(img, dtype=np.float64)
    h, w, d = z.shape
    with no_grad():
        s = discriminator_graph(
            Var(z.reshape(-1, d)), Var(img.reshape(-1, 3)), hp
        ).value
    return float(s)


def hinge_d_loss(real_score, fake_score):
    """max(0, 1 - real) + max(0, 1 + fake); zero iff both margins are satisfied."""
    if isinstance(real_score, Var) or isinstance(fake_score, Var):
        real = tape.as_var(real_score)
        fake = tape.as_var(fake_score)
        return tape.relu(1.0 - real) + tape.relu(1.0 + fake)
    return max(0.0, 1.0 - real_score) + max(0.0, 1.0 + fake_score)


def hinge_g_loss(fake_score):
    """The generator side of the hinge objective: -fake."""
    return -fake_score


def l2_loss(img, target):
    """Mean squared difference over all H*W*3 elements."""
    if isinstance(img, Var) or isinstance(target, Var):
        diff = tape.as_var(img) - tape.as_var(target)
        return tape.mean_all(diff * diff)
    a = np.asarray(img, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    return float(np.mean((a - b) ** 2))


@dataclass
class AdamState:
    """Adam optimizer state over a subset of a parameter store."""

    store: ParamStore
    names: list[str]
    lr: float
    beta1: float = 0.0
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        self.names = sorted(self.names)
        for n in self.names:
            arr = self.store.var(n).value
            self.m[n] = np.zeros_like(arr)
            self.v[n] = np.zeros_like(arr)


def make_adam(store: ParamStore, names=None, lr: float = 1e-4, beta1: float = 0.0, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(store=store, names=list(names if names is not None else store.names()), lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, grads: dict) -> None:
    """One bias-corrected Adam update, applied to the parameters in place."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for n in state.names:
        g = grads[n]
        state.m[n] = state.beta1 * state.m[n] + (1.0 - state.beta1) * g
        state.v[n] = state.beta2 * state.v[n] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[n] / bc1
        v_hat = state.v[n] / bc2
        state.store.var(n).value -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


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
    tol: float
    failures: list
    per_param_max: dict
    max_roundoff: float  # largest round-off allowance r over the checked elements

    @property
    def passed(self) -> bool:
        return not self.failures


# Each loss evaluation may carry up to this many eps * |f| of rounding error
# (a few ulps per accumulated stage of a block) before it counts against the
# gradient; at |f| ~ 1 and step 1e-5 the allowance is ~3.5e-10.
FD_ROUNDOFF_C = 16.0
_EPS = float(np.finfo(np.float64).eps)


def finite_diff_check(
    store: ParamStore,
    loss_fn,
    step: float = 1e-5,
    tol: float = 1e-4,
    sample_seed: int = 0,
    min_samples: int = 200,
    corrupt_scale: float = 0.0,
) -> FdReport:
    """Compare tape gradients against central differences element by element.

    Checks every element when the store holds at most 10^4; otherwise a
    seeded random subsample of at least ``min_samples`` elements.  The error
    of analytic gradient a against numeric n is

        max(0, |a - n| - r) / max(1e-8, |a| + |n|),
        r = FD_ROUNDOFF_C * eps * max(|f+|, |f-|) / step,

    where eps is float64 machine epsilon and f+/f- are the two loss values.
    r is the round-off term of the central-difference error bound: the
    rounding error of each loss value enters n divided by 2 * step, so a
    gradient below eps * |f| / step cannot be resolved and is not judged by
    the relative test.  Any error above r is judged as before; the report
    records r (``FdReport.max_roundoff``, ``FdFailure.roundoff``).
    ``corrupt_scale`` inflates the analytic gradients (a debug hook used as
    a negative control).
    """
    store.zero_grad()
    loss = loss_fn()
    backward(loss)
    grads = {n: g.copy() for n, g in store.grads().items()}
    if corrupt_scale:
        for g in grads.values():
            g *= 1.0 + corrupt_scale

    names = store.names()
    sizes = [store.var(n).value.size for n in names]
    total = sum(sizes)
    if total <= 10_000:
        targets = [(n, i) for n, size in zip(names, sizes) for i in range(size)]
    else:
        rng = Rng(sample_seed)
        chosen: set[tuple[str, int]] = set()
        offsets = np.cumsum([0] + sizes)
        while len(chosen) < min_samples:
            flat = rng.next_u64() % total
            k = int(np.searchsorted(offsets, flat, side="right") - 1)
            chosen.add((names[k], int(flat - offsets[k])))
        targets = sorted(chosen)

    failures: list[FdFailure] = []
    per_param_max: dict[str, float] = {}  # only parameters with a checked element
    max_rel = 0.0
    max_roundoff = 0.0
    for name, idx in targets:
        arr = store.var(name).value
        old = arr.flat[idx]
        arr.flat[idx] = old + step
        with no_grad():
            f_plus = float(loss_fn().value)
        arr.flat[idx] = old - step
        with no_grad():
            f_minus = float(loss_fn().value)
        arr.flat[idx] = old
        numeric = (f_plus - f_minus) / (2.0 * step)
        analytic = float(grads[name].flat[idx])
        roundoff = FD_ROUNDOFF_C * _EPS * max(abs(f_plus), abs(f_minus)) / step
        excess = max(0.0, abs(analytic - numeric) - roundoff)
        rel = excess / max(1e-8, abs(analytic) + abs(numeric))
        max_rel = max(max_rel, rel)
        max_roundoff = max(max_roundoff, roundoff)
        per_param_max[name] = max(per_param_max.get(name, 0.0), rel)
        if rel > tol:
            failures.append(FdFailure(name, idx, analytic, numeric, rel, roundoff))
    return FdReport(
        max_rel_err=max_rel,
        checked=len(targets),
        tol=tol,
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
    d_g: int = 64
    d_c: int = 64
    lr: float = 5e-3  # l2 mode; the adversarial mode uses lr_g / lr_d
    lr_g: float = 1e-4
    lr_d: float = 4e-4
    l2_weight: float = 10.0  # stabilizer added to the adversarial generator loss
    threads: int = 1
    eval_sparsities: tuple = (0.0, 0.3, 0.5, 0.7)
    eval_repeats: int = 8


def _merge_graph(masked: LabelSet, merger: MergerParams, r0: int, r1: int) -> Var:
    """tlam_graph over rows [r0, r1) of a masked label set."""
    xs = [Var(x) for x in masked_rows(masked, r0, r1)]
    return tlam_graph(xs, [lab.name for lab in masked], merger)


def l2_loss_graph(masked: LabelSet, target: np.ndarray, merger: MergerParams, heads: HeadParams, r0: int = 0, r1: int | None = None) -> Var:
    """tlam merge -> generator head -> mean squared error, over a row span."""
    if r1 is None:
        r1 = masked.height
    z = _merge_graph(masked, merger, r0, r1)
    img = generate_graph(z, heads)
    t = Var(target[r0:r1].astype(np.float64).reshape(-1, 3))
    return l2_loss(img, t)


def _chunked_l2_grads(masked, target, merger_arrays, heads_arrays, threads):
    """Forward/backward per row chunk with per-chunk gradient buffers, reduced
    in ascending chunk order (so parallel runs are reproducible)."""
    h = masked.height
    spans = fusion.row_spans(h, threads)
    weights = [(r1 - r0) / h for r0, r1 in spans]

    def run(r0, r1):
        leaves: dict[str, Var] = {}

        def register(name, arr):
            leaves[name] = Var(arr)
            return leaves[name]

        merger = lift_merger_params(merger_arrays, register)
        heads = lift_head_params(heads_arrays, register)
        loss = l2_loss_graph(masked, target, merger, heads, r0, r1)
        backward(loss)
        return float(loss.value), {n: v.grad for n, v in leaves.items()}

    results = fusion.map_spans(run, spans, threads)

    total = 0.0
    grads: dict[str, np.ndarray] = {}
    for w, (value, chunk_grads) in zip(weights, results):
        total += w * value
        for n, g in chunk_grads.items():
            if g is None:
                continue
            if n in grads:
                grads[n] += w * g
            else:
                grads[n] = w * g
    return total, grads


def adv_d_loss_graph(masked, target, merger, heads) -> Var:
    z = _merge_graph(masked, merger, 0, masked.height)
    fake = generate_graph(z, heads)
    t = Var(target.astype(np.float64).reshape(-1, 3))
    real_score = discriminator_graph(z, t, heads)
    fake_score = discriminator_graph(z, fake, heads)
    return hinge_d_loss(real_score, fake_score)


def adv_g_loss_graph(masked, target, merger, heads, l2_weight) -> Var:
    z = _merge_graph(masked, merger, 0, masked.height)
    fake = generate_graph(z, heads)
    t = Var(target.astype(np.float64).reshape(-1, 3))
    fake_score = discriminator_graph(z, fake, heads)
    return hinge_g_loss(fake_score) + l2_weight * l2_loss(fake, t)


def _eval_l2(labels, inst, target, merger, heads, sparsity, seeds) -> float:
    vals = []
    for seed in seeds:
        masked = apply_masks(labels, generate_sparse_masks(inst, labels, sparsity, seed))
        z = fusion.tlam_merge(masked, merger)
        img = forward_generate(z, heads)
        vals.append(l2_loss(img, target.astype(np.float64)))
    return float(np.mean(vals))


def train_toy(cfg: ToyTrainConfig) -> dict:
    """Train the toy merge-and-generate pipeline on one synthetic scene.

    Each iteration resamples sparsity masks with a fresh seed, merges via
    the transformer variant, generates, and Adam-updates (beta1=0,
    beta2=0.999).  The report carries per-iteration losses, final eval
    losses at sparsity {0.0, 0.3, 0.5, 0.7} (masks seeded deterministically)
    and a per-label full-ablation eval.
    """
    report, _, _ = train_toy_with_params(cfg)
    return report


def train_toy_with_params(cfg: ToyTrainConfig):
    """As train_toy, but also returns the trained merger and head params."""
    if cfg.mode not in ("l2", "adversarial"):
        raise ValueError(f"unknown training mode {cfg.mode!r}")
    labels, inst, target = synth_scene(cfg.height, cfg.width, cfg.regions, cfg.seed)
    target64 = target.astype(np.float64)

    master = Rng(cfg.seed)
    seed_params = master.next_u64()
    seed_masks = master.next_u64()
    seed_eval = master.next_u64()

    init_rng = Rng(seed_params)
    merger_init = fusion.init_merger_params(
        labels, fusion.TLAM, d=cfg.d, n_blocks=cfg.blocks, heads=cfg.heads, rng=init_rng
    )
    heads_init = init_head_params(
        cfg.d, init_rng, d_g=cfg.d_g, d_c=cfg.d_c, discriminator=cfg.mode == "adversarial"
    )

    store = ParamStore()
    merger = lift_merger_params(merger_init, store.add)
    heads = lift_head_params(heads_init, store.add)
    g_names = [n for n in store.names() if not n.startswith("disc.")]
    d_names = [n for n in store.names() if n.startswith("disc.")]

    if cfg.mode == "l2":
        opt = make_adam(store, g_names, lr=cfg.lr)
    else:
        opt_g = make_adam(store, g_names, lr=cfg.lr_g)
        opt_d = make_adam(store, d_names, lr=cfg.lr_d)

    mask_rng = Rng(seed_masks)
    losses: list[float] = []
    diverged_at = None
    for it in range(cfg.iters):
        mseed = mask_rng.next_u64()
        masked = apply_masks(labels, generate_sparse_masks(inst, labels, cfg.sparsity, mseed))
        if cfg.mode == "l2":
            if cfg.threads > 1:
                value, grads = _chunked_l2_grads(masked, target64, merger, heads, cfg.threads)
            else:
                store.zero_grad()
                loss = l2_loss_graph(masked, target64, merger, heads)
                backward(loss)
                value, grads = float(loss.value), store.grads()
            adam_step(opt, grads)
        else:
            store.zero_grad()
            d_loss = adv_d_loss_graph(masked, target64, merger, heads)
            backward(d_loss)
            adam_step(opt_d, store.grads())
            store.zero_grad()
            g_loss = adv_g_loss_graph(masked, target64, merger, heads, cfg.l2_weight)
            backward(g_loss)
            adam_step(opt_g, store.grads())
            value = float(g_loss.value)
        losses.append(value)
        if not math.isfinite(value):
            diverged_at = it
            break

    if diverged_at is None:
        eval_rng = Rng(seed_eval)
        eval_seeds = {
            s: [eval_rng.next_u64() for _ in range(cfg.eval_repeats)]
            for s in cfg.eval_sparsities
        }
        evals = {
            f"s{s:.1f}": _eval_l2(labels, inst, target64, merger, heads, s, eval_seeds[s])
            for s in cfg.eval_sparsities
        }
        ablation = {}
        for lab in labels:
            dropped = mask_out_label(labels, lab.name)
            z = fusion.tlam_merge(dropped, merger)
            img = forward_generate(z, heads)
            ablation[lab.name] = l2_loss(img, target64)
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
    from .label_model import LabelMap

    rng = Rng(seed)
    labels = []
    for k in range(n_labels):
        c = 1 + k % 3
        values = np.array(
            [rng.normal() for _ in range(h * w * c)], dtype=np.float64
        ).reshape(h, w, c).astype(np.float32)
        if sparsity > 0.0:
            mask = np.array(
                [0 if rng.uniform() < sparsity else 1 for _ in range(h * w)],
                dtype=np.uint8,
            ).reshape(h, w)
            values = np.where(mask[..., None] == 0, np.float32(0.0), values)
        else:
            mask = np.ones((h, w), dtype=np.uint8)
        labels.append(LabelMap(name=f"lab{k}", kind="continuous", values=values, mask=mask))
    return LabelSet(labels=labels)


def _normal_param(store, rng, name, shape):
    arr = np.array([rng.normal() for _ in range(int(np.prod(shape)))]).reshape(shape)
    return store.add(name, arr)


def block_store(store: ParamStore, rng: Rng, d: int, heads: int, n: int):
    """Register a transformer block, an (n, d) input Z and fixed (n, d) loss
    weights in ``store``, drawn from ``rng`` in that order."""
    bp = map_tensors(init_block_params(d, heads, rng), store.add)
    z = _normal_param(store, rng, "Z", (n, d))
    c = np.array([[rng.normal() for _ in range(d)] for _ in range(n)])
    return bp, z, c


def _op_check(name, seed, build):
    """Helper assembling one (name, store, loss_fn) gradcheck entry."""
    store = ParamStore()
    loss_fn = build(store, Rng(seed))
    return name, store, loss_fn


def gradcheck_suite(preset: str = "small", seed: int = 0):
    """Named (group, store, loss_fn) triples for finite-difference checking.

    The ``small`` preset covers each primitive op plus one tiny end-to-end
    configuration; ``full`` runs seeded random end-to-end configurations over
    N in {1, 3, 5}, d in {8, 16} and depth in {1, 2} on a 4x4 grid.
    """

    def build_gelu(store, rng):
        x = _normal_param(store, rng, "x", (3, 4))
        return lambda: tape.mean_all(tape.gelu(x))

    def build_linear(store, rng):
        a = _normal_param(store, rng, "A", (4, 3))
        b = _normal_param(store, rng, "b", (4,))
        x = _normal_param(store, rng, "x", (5, 3))
        c = np.array([[rng.normal() for _ in range(4)] for _ in range(5)])
        return lambda: tape.mean_all(
            (tape.matmul(x, tape.transpose(a, (1, 0))) + b) * c
        )

    def build_layer_norm(store, rng):
        x = _normal_param(store, rng, "x", (5, 6))
        gamma = _normal_param(store, rng, "gamma", (6,))
        beta = _normal_param(store, rng, "beta", (6,))
        c = np.array([[rng.normal() for _ in range(6)] for _ in range(5)])
        return lambda: tape.mean_all(tape.layer_norm(x, gamma, beta, 1e-5) * c)

    def build_softmax(store, rng):
        x = _normal_param(store, rng, "x", (4, 5))
        c = np.array([[rng.normal() for _ in range(5)] for _ in range(4)])
        return lambda: tape.mean_all(tape.softmax(x) * c)

    def build_attention(store, rng):
        from . import nn_ops

        bp, z, c = block_store(store, rng, 8, 2, 3)
        return lambda: tape.mean_all(nn_ops._mhsa(z, bp.attn) * c)

    def build_msa_block(store, rng):
        from . import nn_ops

        bp, z, c = block_store(store, rng, 8, 2, 3)
        return lambda: tape.mean_all(nn_ops._msa_block(z, bp) * c)

    def build_mlp_block(store, rng):
        from . import nn_ops

        bp, z, c = block_store(store, rng, 8, 2, 3)
        return lambda: tape.mean_all(nn_ops._mlp_block(z, bp) * c)

    def e2e_builder(n_labels, d, blocks, h, w, heads=2):
        def build(store, rng):
            labels = make_random_label_set(n_labels, h, w, rng.next_u64(), sparsity=0.3)
            merger_init = fusion.init_merger_params(
                labels, fusion.TLAM, d=d, n_blocks=blocks, heads=heads, rng=rng
            )
            heads_init = init_head_params(d, rng, d_g=16)
            merger = lift_merger_params(merger_init, store.add)
            head_vars = lift_head_params(heads_init, store.add)
            target = np.array(
                [rng.uniform() for _ in range(h * w * 3)]
            ).reshape(-1, 3)
            # precompute the masked inputs once; only the graph is rebuilt per eval
            names = [lab.name for lab in labels]
            xs_np = masked_rows(labels, 0, h)

            def loss_fn():
                z = tlam_graph([Var(x) for x in xs_np], names, merger)
                img = generate_graph(z, head_vars)
                return l2_loss(img, Var(target))

            return loss_fn

        return build

    if preset == "small":
        entries = [
            _op_check("gelu", seed + 1, build_gelu),
            _op_check("linear", seed + 2, build_linear),
            _op_check("layer_norm", seed + 3, build_layer_norm),
            _op_check("softmax", seed + 4, build_softmax),
            _op_check("attention", seed + 5, build_attention),
            _op_check("msa_block", seed + 6, build_msa_block),
            _op_check("mlp_block", seed + 7, build_mlp_block),
            _op_check("e2e.N2.d8.l1", seed + 8, e2e_builder(2, 8, 1, 4, 4)),
        ]
    elif preset == "full":
        configs = [(1, 8, 1), (3, 8, 2), (5, 8, 1), (3, 16, 1), (5, 16, 2)]
        entries = [
            _op_check(
                f"e2e.N{n}.d{d}.l{l}", seed + 10 + i, e2e_builder(n, d, l, 4, 4)
            )
            for i, (n, d, l) in enumerate(configs)
        ]
    else:
        raise ValueError(f"unknown gradcheck preset {preset!r}")
    return entries


def save_head_params(hp: HeadParams, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    meta = {"discriminator": hp.has_discriminator}
    with open(os.path.join(dirpath, "heads.json"), "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    for name, t in head_items(hp):
        save_tensor(os.path.join(dirpath, name + ".tlt"), fusion._raw(t).astype(np.float64))


def load_head_params(dirpath) -> HeadParams:
    """Read heads written by ``save_head_params``.  The widths d, d_g and d_c
    are read off the first tensor that has them and every later shape is
    checked against them."""
    with open(os.path.join(dirpath, "heads.json")) as f:
        meta = json.load(f)
    return map_tensors(_blank_heads(meta.get("discriminator")), fusion._tlt_loader(dirpath, {}))
