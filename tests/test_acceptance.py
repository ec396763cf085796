"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import math
import time

import numpy as np
import pytest

from labelfuse import fusion, nn_ops, tape, train_harness as th
from labelfuse.cli import EXIT_OK, main
from labelfuse.label_model import (
    InstanceMap,
    LabelSet,
    generate_sparse_masks,
    make_label,
    synth_scene,
)
from labelfuse.metrics_viz import make_segmap, mean_iou, pixel_accuracy
from labelfuse.nn_ops import AttentionParams, init_block_params, multi_head_self_attention
from labelfuse.tensor_core import Rng, read_tensor, write_tensor
from labelfuse.train_harness import ToyTrainConfig, train_toy

from lifting import unrecorded
from oracles import seg_counting_oracle


def report_line(idx, name, ok):
    print(f"ACCEPTANCE {idx} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {idx} ({name}) failed"


@pytest.fixture(scope="module")
def trained():
    """The pinned toy-training run shared by criterion 7."""
    cfg = ToyTrainConfig(
        height=16, width=16, regions=4, seed=42, iters=500, sparsity=0.5,
        d=16, blocks=2, heads=2, mode="l2",
    )
    t0 = time.perf_counter()
    report = train_toy(cfg)
    return report, time.perf_counter() - t0


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    ok = True
    configs = 0
    for name, params, loss_fn in th.gradcheck_suite("full", seed=0):
        r = th.finite_diff_check(params, loss_fn)
        ok = ok and r.passed
        configs += 1
    elapsed = time.perf_counter() - t0
    ok = ok and configs >= 5 and elapsed <= 60.0
    report_line(1, f"end-to-end gradcheck ({configs} configs, {elapsed:.1f}s)", ok)


def test_criterion_2_projection_semantics():
    t0 = time.perf_counter()
    # the merge's own projection: one label, no blocks, every pixel absent
    rng = np.random.default_rng(0)
    b = rng.standard_normal(16)
    A = rng.standard_normal((16, 4))
    x = np.tile(rng.standard_normal(4).astype(np.float32), (3, 3, 1))
    one = LabelSet(labels=[make_label("lab", "continuous", x, np.zeros((3, 3)))])
    p = fusion.init_merger_params(one, fusion.TLAM, d=16, n_blocks=0, heads=1, seed=0)
    p.projections["lab"] = fusion.LabelProjection(A=A, b=b)
    expect = (unrecorded(tape.gelu, b) + p.encodings["lab"]).tobytes()
    ok = all(pixel.tobytes() == expect for pixel in fusion.tlam_merge(one, p).reshape(-1, 16))

    labels = th.make_random_label_set(3, 6, 6, seed=1, sparsity=0.5)
    p = fusion.init_merger_params(labels, fusion.TLAM, d=8, n_blocks=2, heads=2, seed=2)
    z1 = fusion.tlam_merge(labels, p)
    tampered = LabelSet(
        labels=[
            make_label(
                lab.name,
                lab.kind,
                np.where(lab.mask[..., None] == 0, np.float32(-77.7), lab.values),
                lab.mask.copy(),
            )
            for lab in labels
        ]
    )
    z2 = fusion.tlam_merge(tampered, p)
    ok = ok and z1.tobytes() == z2.tobytes()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 1.0
    report_line(2, f"absent token = gelu(b), masked-value bit-invariance ({elapsed:.2f}s)", ok)


def test_criterion_3_block_structure():
    # residual identity with zeroed branches
    bp = init_block_params(8, 2, Rng(1))
    bp.attn.wo = np.zeros((8, 8))
    bp.attn.bo = np.zeros(8)
    bp.w2 = np.zeros((32, 8))
    bp.b2 = np.zeros(8)
    z = np.random.default_rng(1).standard_normal((5, 8))
    ok = np.array_equal(unrecorded(nn_ops.transformer_block, z, bp), z)

    # softmax row-stochasticity
    v = np.random.default_rng(2).standard_normal((200, 7)) * 40
    s = unrecorded(tape.softmax, v)
    ok = ok and (s >= 0).all() and np.abs(s.sum(axis=-1) - 1.0).max() <= 1e-12

    # permutation equivariance of the merge under joint label/param permutation
    labels = th.make_random_label_set(4, 4, 4, seed=3, sparsity=0.3)
    p = fusion.init_merger_params(labels, fusion.TLAM, d=8, n_blocks=2, heads=2, seed=4)
    z1 = fusion.tlam_merge(labels, p)
    order = [3, 1, 0, 2]
    permuted = LabelSet(labels=[labels.labels[i] for i in order])
    p2 = fusion.MergerParams(
        variant=p.variant, d=p.d, heads=p.heads,
        projections={labels.labels[i].name: p.projections[labels.labels[i].name] for i in order},
        encodings={labels.labels[i].name: p.encodings[labels.labels[i].name] for i in order},
        blocks=p.blocks,
    )
    z2 = fusion.tlam_merge(permuted, p2)
    rel = np.abs(z1 - z2).max() / max(1.0, np.abs(z1).max())
    ok = ok and rel <= 1e-6
    report_line(3, "residual identity, softmax rows, permutation equivariance", ok)


def test_criterion_4_complexity_counter():
    n, d, heads, blocks, h, w = 3, 8, 2, 2, 4, 5
    labels = th.make_random_label_set(n, h, w, seed=5)
    p = fusion.init_merger_params(labels, fusion.TLAM, d=d, n_blocks=blocks, heads=heads, seed=6)
    fusion.tlam_merge(labels, p)
    base = nn_ops.attention_mac_counter.count
    ok = base == h * w * blocks * heads * 2 * n * n * (d // heads)

    labels2 = th.make_random_label_set(2 * n, h, w, seed=7)
    p2 = fusion.init_merger_params(labels2, fusion.TLAM, d=d, n_blocks=blocks, heads=heads, seed=8)
    fusion.tlam_merge(labels2, p2)
    ok = ok and nn_ops.attention_mac_counter.count == 4 * base

    wide = th.make_random_label_set(n, 2 * h, w, seed=5)
    pw = fusion.init_merger_params(wide, fusion.TLAM, d=d, n_blocks=blocks, heads=heads, seed=6)
    fusion.tlam_merge(wide, pw)
    ok = ok and nn_ops.attention_mac_counter.count == 2 * base
    report_line(4, "attention MAC counter exact, x4 on 2N, x2 on 2HW", ok)


def test_criterion_5_oracle_equivalences():
    # CLAM(l=0) == TLAM(l=0) bit-exact (shared projections, zero encodings)
    labels = th.make_random_label_set(3, 5, 5, seed=9, sparsity=0.4)
    tl = fusion.init_merger_params(labels, fusion.TLAM, d=6, n_blocks=0, heads=1, seed=10)
    cl = fusion.init_merger_params(labels, fusion.CLAM, d=6, n_blocks=0, heads=1, seed=10)
    for name in tl.encodings:
        tl.encodings[name] = np.zeros(6)
    cl.projections = tl.projections
    ok = fusion.tlam_merge(labels, tl).tobytes() == fusion.clam_merge(labels, cl).tobytes()

    # 2-token scalar attention against the closed-form oracle
    p = AttentionParams(
        wq=np.ones((1, 1, 1)), wk=np.ones((1, 1, 1)), wv=np.ones((1, 1, 1)),
        wo=np.ones((1, 1)), bo=np.zeros(1),
    )
    out = unrecorded(multi_head_self_attention, np.array([[0.0], [1.0]]), p)
    sigma = 1.0 / (1.0 + math.exp(-1.0))
    ok = ok and abs(out[0, 0] - 0.5) <= 1e-12 and abs(out[1, 0] - sigma) <= 1e-12

    # metrics against the counting oracle, 1000 random 8x8 pairs with K <= 4
    rng = np.random.default_rng(11)
    exact = True
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        a = rng.integers(0, k, (8, 8))
        g = rng.integers(0, k, (8, 8))
        miou, acc = seg_counting_oracle(a, g, k)
        exact = exact and mean_iou(make_segmap(a, k), make_segmap(g, k)) == miou
        exact = exact and pixel_accuracy(make_segmap(a, k), make_segmap(g, k)) == acc
    ok = ok and exact
    report_line(5, "CLAM==TLAM at l=0, attention oracle, metric counting oracle", ok)


def test_criterion_6_sparsity_protocol():
    inst = InstanceMap(ids=np.arange(10_000).reshape(100, 100))
    single = LabelSet(labels=[make_label("a", "continuous", np.zeros((100, 100, 1)))])
    ok = True
    for i, s in enumerate((0.1, 0.3, 0.5, 0.7)):
        m = generate_sparse_masks(inst, single, s, seed=11 + i)
        absent = 1.0 - m.masks["a"].mean()
        ok = ok and abs(absent - s) <= 0.02

    # region-constant masks on a real scene
    labels, scene_inst, _ = synth_scene(16, 16, 6, seed=12)
    masks = generate_sparse_masks(scene_inst, labels, 0.5, seed=13)
    for mask in masks.masks.values():
        for rid in np.unique(scene_inst.ids):
            bits = mask[scene_inst.ids == rid]
            ok = ok and bits.min() == bits.max()

    # independence across labels over 10 000 regions
    pair = LabelSet(
        labels=[
            make_label("a", "continuous", np.zeros((100, 100, 1))),
            make_label("b", "continuous", np.zeros((100, 100, 1))),
        ]
    )
    m = generate_sparse_masks(inst, pair, 0.5, seed=1234)
    da = 1.0 - m.masks["a"].ravel().astype(float)
    db = 1.0 - m.masks["b"].ravel().astype(float)
    ok = ok and abs(np.corrcoef(da, db)[0, 1]) <= 0.03
    report_line(6, "drop rate within 2%, region-constant, label-independent", ok)


def test_criterion_7_toy_training_properties(trained):
    report, elapsed = trained
    losses = report["loss"]
    ok = report["diverged_at"] is None
    ok = ok and losses[-1] <= 0.1 * losses[0]

    evals = [report["eval"][f"s{s:.1f}"] for s in (0.0, 0.3, 0.5, 0.7)]
    for a, b in zip(evals, evals[1:]):
        ok = ok and b >= 0.95 * a  # non-decreasing with 5% slack per step

    dense = report["eval"]["s0.0"]
    for name, value in report["per_label_ablation"].items():
        ok = ok and value >= dense

    ok = ok and elapsed <= 300.0
    report_line(
        7,
        f"toy training: {losses[-1] / losses[0]:.3f}x initial, "
        f"evals {['%.4f' % e for e in evals]}, {elapsed:.0f}s",
        ok,
    )


def test_criterion_8_adam_settings():
    # two-step hand recurrence, beta1=0, beta2=0.999
    w = np.array([0.25])
    opt = th.AdamState({"w": w}, lr=0.002)
    g1, g2 = 0.8, -0.4
    th.adam_step(opt, {"w": np.array([g1])})
    th.adam_step(opt, {"w": np.array([g2])})
    m1 = g1
    v1 = (1 - 0.999) * g1 * g1
    t1 = 0.25 - 0.002 * m1 / (math.sqrt(v1 / (1 - 0.999)) + 1e-8)
    m2 = g2
    v2 = 0.999 * v1 + (1 - 0.999) * g2 * g2
    t2 = t1 - 0.002 * m2 / (math.sqrt(v2 / (1 - 0.999 ** 2)) + 1e-8)
    ok = w[0] == t2

    # first-step magnitude ~ lr for |g| >> eps
    w2 = np.array([1.0])
    opt2 = th.AdamState({"w": w2}, lr=0.01)
    th.adam_step(opt2, {"w": np.array([100.0])})
    step = abs(1.0 - w2[0])
    ok = ok and abs(step - 0.01) / 0.01 <= 1e-6
    report_line(8, "Adam beta1=0 recurrence exact, first step = lr", ok)


def test_criterion_9_reproducibility(tmp_path):
    reports = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        code = main([
            "train-toy", "--size", "8x8", "--regions", "3", "--iters", "20",
            "--seed", "7", "--threads", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        reports.append(out.read_bytes())
    ok = reports[0] == reports[1]

    rng = Rng(99)
    import io

    for _ in range(100):
        rank = 1 + rng.next_u64() % 3
        dims = [1 + rng.next_u64() % 6 for _ in range(rank)]
        dtype = (np.float32, np.float64, np.uint8)[rng.next_u64() % 3]
        n = int(np.prod(dims))
        if dtype == np.uint8:
            t = np.array([rng.next_u64() % 256 for _ in range(n)], dtype=dtype).reshape(dims)
        else:
            t = np.array([rng.normal() for _ in range(n)], dtype=dtype).reshape(dims)
        buf = io.BytesIO()
        write_tensor(t, buf)
        buf.seek(0)
        back = read_tensor(buf)
        ok = ok and back.tobytes() == t.tobytes() and back.dtype == t.dtype
    report_line(9, "bit-identical reports across runs, 100 TLT1 round-trips", ok)
