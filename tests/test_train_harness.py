import gc
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from labelfuse import fusion, label_model, nn_ops, tape, train_harness as th
from labelfuse.tape import Var, as_var, backward
from labelfuse.tensor_core import Rng, load_tensor, save_tensor

from lifting import lift, unrecorded
from oracles import adam_recurrence, adv_d_loss_whole_grid, gelu_scalar

# the pixel tiles of the 8-wide, d=8 scenes (five labels) that the tiling
# tests train on: TILE_ROWS + 8 rows of 8 make two or more spans
PIXEL_SIZE = fusion.pixel_bytes(fusion.TLAM, 5, 8)
TILE_PIXELS = fusion.TILE_BYTES // PIXEL_SIZE
TILE_ROWS = TILE_PIXELS // 8


def heads_with_disc(d=4, seed=0, d_g=6, d_c=5):
    return th.init_head_params(d, Rng(seed), d_g=d_g, d_c=d_c, discriminator=True)


def disc_scores(z, img, hp):
    """The discriminator's per-pixel scores (H*W, 1) of an H x W x d merge and an image."""
    return th.discriminator_graph(as_var(z.reshape(-1, z.shape[-1])), as_var(img.reshape(-1, 3)), lift(hp)).value


def whole_grid_merge(s, merger):
    """The recorded tlam merge of every pixel of ``s`` as one (H*W, d) graph."""
    return fusion.merge_step(merger, s)(0, s.height * s.width)


def whole_grid_l2(s, target, merger, heads):
    """The eval l2 of ``s`` by a route apart from the tiler's: the merge of
    the whole grid, the generator on all its pixels at once, then the mean."""
    z = fusion.tlam_merge(s, merger)
    diff = unrecorded(th.generate_graph, z.reshape(-1, z.shape[-1]), heads) - target.astype(np.float64).reshape(-1, 3)
    return float(np.mean(diff * diff))


def lift_leaves(merger, heads):
    """``merger`` and ``heads`` with every tensor lifted to a leaf, and those leaves by name."""
    leaves = {}
    leaf = lambda name, t: leaves.setdefault(name, Var(t))
    return fusion.map_params(merger, leaf), nn_ops.map_tensors(heads, leaf), leaves


def whole_grid_loss(tile_loss, labels, merger, heads, target):
    """A ``finite_diff_check`` loss: ``tile_loss`` of the whole-grid merge of
    ``labels``, with each merger and head tensor taken from the check's Vars."""

    def loss_fn(p):
        by_name = lambda name, _t: p[name]
        z = whole_grid_merge(labels, fusion.map_params(merger, by_name))
        return tile_loss(z, nn_ops.map_tensors(heads, by_name), target)

    return loss_fn


def max_rows(root):
    """The most rows of any array a graph holds."""
    return max(n.value.shape[0] for n in tape.Tape.from_root(root).nodes if n.value.ndim)


def graph_leaves(root):
    """The nodes without parents in the recorded graph of ``root``."""
    return [n for n in tape.Tape.from_root(root).nodes if not n.parents]


def recorded(tile_loss):
    """``tile_loss`` that also keeps the loss of each tile it is run on, and
    the list it keeps them in (in finishing order)."""
    losses = []

    def record(z, heads, t):
        loss = tile_loss(z, heads, t)
        losses.append(loss)
        return loss

    return record, losses


DISC_NAMES = ["disc.W1", "disc.W2", "disc.b1", "disc.b2"]


def adv_scene(h, w):
    """A masked h x w scene, its target, and merger and head (discriminator
    included) arrays for it."""
    labels, inst, target = label_model.synth_scene(h, w, 3, 5)
    masked = label_model.apply_masks(labels, label_model.generate_sparse_masks(inst, labels, 0.5, 6))
    rng = Rng(8)
    merger = fusion.init_merger_params(masked, fusion.TLAM, d=8, n_blocks=1, heads=2, rng=rng)
    heads = th.init_head_params(8, rng, d_g=8, d_c=4, discriminator=True)
    return masked, target.astype(np.float64), merger, heads


@pytest.fixture(scope="module")
def two_tile_adv():
    """``adv_scene`` of two or more pixel tiles."""
    h, w = TILE_ROWS + 8, 8
    assert len(fusion.pixel_spans(h * w, PIXEL_SIZE)) >= 2
    return adv_scene(h, w)


def step_names(tile_loss, merger, heads):
    """The tensors a step on ``tile_loss`` updates: the discriminator's for
    ``_d_tile``, every other one for the generator's losses."""
    names = [n for n, _ in fusion.param_items(merger) + th.head_items(heads)]
    return [n for n in names if (n in DISC_NAMES) == (tile_loss is th._d_tile)]


class TestHeads:
    def test_constant_generator(self):
        hp = heads_with_disc()
        hp.gen_w2 = np.zeros((6, 3))
        hp.gen_b2 = np.array([0.1, 0.2, 0.3])
        z = np.random.default_rng(0).standard_normal((4, 5, 4))
        img = unrecorded(th.generate_graph, z.reshape(-1, 4), hp)
        assert np.allclose(img, [0.1, 0.2, 0.3])

    def test_generator_pixel_independence(self):
        hp = heads_with_disc(seed=1)
        z = np.random.default_rng(1).standard_normal((3, 3, 4))
        img1 = unrecorded(th.generate_graph, z.reshape(-1, 4), hp).reshape(3, 3, 3)
        z2 = z.copy()
        z2[2, 1] += 1.0
        img2 = unrecorded(th.generate_graph, z2.reshape(-1, 4), hp).reshape(3, 3, 3)
        diff = np.any(img1 != img2, axis=-1)
        assert diff[2, 1]
        diff[2, 1] = False
        assert not diff.any()

    def test_generator_scalar_composition(self):
        hp = th.init_head_params(1, Rng(3), d_g=1)
        z = np.array([[[0.4]]])
        img = unrecorded(th.generate_graph, z.reshape(-1, 1), hp)
        hidden = gelu_scalar(0.4 * hp.gen_w1[0, 0] + hp.gen_b1[0])
        expect = hidden * hp.gen_w2[0] + hp.gen_b2
        assert np.allclose(img[0], expect, atol=1e-14)

    def test_discriminator_constant_score(self):
        hp = heads_with_disc(seed=2)
        hp.disc_w2 = np.zeros((5, 1))
        hp.disc_b2 = np.array([2.5])
        z = np.random.default_rng(2).standard_normal((3, 4, 4))
        img = np.random.default_rng(3).standard_normal((3, 4, 3))
        scores = disc_scores(z, img, hp)
        assert scores.shape == (12, 1)
        assert scores == pytest.approx(np.full((12, 1), 2.5))

    def test_discriminator_is_mean_of_pixel_scores(self):
        hp = heads_with_disc(seed=4)
        z = np.random.default_rng(4).standard_normal((2, 3, 4))
        img = np.random.default_rng(5).standard_normal((2, 3, 3))
        per_pixel = []
        for i in range(2):
            for j in range(3):
                x = np.concatenate([z[i, j], img[i, j]])
                hidden = np.array(
                    [gelu_scalar(x @ hp.disc_w1[:, k] + hp.disc_b1[k]) for k in range(5)]
                )
                per_pixel.append(float(hidden @ hp.disc_w2[:, 0] + hp.disc_b2[0]))
        scores = disc_scores(z, img, hp)
        assert scores[:, 0] == pytest.approx(per_pixel, rel=1e-12)
        # the generator's adversarial term scores the image by this mean
        mean = tape.mean_all(as_var(scores)).item()
        assert mean == pytest.approx(np.mean(per_pixel), rel=1e-12)


class TestLosses:
    def test_hinge_d_examples(self):
        assert unrecorded(th.hinge_d_loss, 2.0, -2.0) == 0.0
        assert unrecorded(th.hinge_d_loss, 0.0, 0.0) == 2.0
        assert unrecorded(th.hinge_d_loss, 0.5, 0.5) == 2.0

    def test_hinge_d_nonnegative_and_zero_iff_margins(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r, f = rng.uniform(-3, 3), rng.uniform(-3, 3)
            loss = unrecorded(th.hinge_d_loss, r, f)
            assert loss >= 0.0
            assert (loss == 0.0) == (r >= 1.0 and f <= -1.0)

    def test_hinge_d_is_per_pixel(self):
        # the mean of the per-pixel hinges, not the hinge of the mean scores
        real, fake = np.array([[2.0], [-2.0]]), np.array([[-3.0], [0.5]])
        assert unrecorded(th.hinge_d_loss, real, fake) == pytest.approx((0.0 + 3.0) / 2 + (0.0 + 1.5) / 2)

    def test_hinge_g(self):
        assert th.hinge_g_loss(0.0) == 0.0
        assert th.hinge_g_loss(3.0) == -3.0
        assert th.hinge_g_loss(1.0) + th.hinge_g_loss(2.0) == th.hinge_g_loss(3.0)

    def test_l2_examples(self):
        img = np.random.default_rng(1).standard_normal((4, 4, 3))
        assert unrecorded(th.l2_loss, img, img) == 0.0
        assert unrecorded(th.l2_loss, img + 0.5, img) == pytest.approx(0.25)
        one = np.array([[[1.0, 2.0, 3.0]]])
        other = np.array([[[2.0, 0.0, 3.0]]])
        assert unrecorded(th.l2_loss, one, other) == pytest.approx((1 + 4 + 0) / 3)

    def test_losses_differentiable(self):
        r = Var(np.array(0.3))
        f = Var(np.array(0.2))
        backward(th.hinge_d_loss(r, f))
        assert r.grad == -1.0 and f.grad == 1.0
        g = Var(np.array(0.7))
        backward(th.hinge_g_loss(g))
        assert g.grad == -1.0

    def test_hinge_builds_no_gradient_for_its_margins(self, unbroadcast_calls):
        # the constant 1.0 of each margin takes no gradient: the only sums
        # down to a shape are those of the two scores and of the two terms
        real, fake = Var(np.array([[0.3], [1.5]])), Var(np.array([[-2.0], [0.2]]))
        backward(th.hinge_d_loss(real, fake))
        assert sorted(unbroadcast_calls) == [((), ())] * 2 + [((2, 1), (2, 1))] * 2
        assert np.array_equal(real.grad, [[-0.5], [0.0]]) and np.array_equal(fake.grad, [[0.0], [0.5]])


class TestFiniteDiff:
    def test_quadratic_exact(self):
        params = {"theta": np.array([3.0])}
        report = th.finite_diff_check(params, lambda p: tape.sum_all(p["theta"] * p["theta"] * 0.5))
        assert report.passed
        assert report.max_rel_err <= 1e-9

    def test_corrupted_gradient_detected(self, corrupt_gradients):
        corrupt_gradients(0.1)
        report = th.finite_diff_check({"theta": np.array([3.0])}, lambda p: tape.sum_all(p["theta"] * p["theta"] * 0.5))
        assert not report.passed
        assert report.failures

    def test_randomized_tlam_config_passes(self):
        triples = th.gradcheck_suite("full", seed=3)
        name, params, loss_fn = triples[1]  # N=3, d=8, l=2
        report = th.finite_diff_check(params, loss_fn)
        assert report.passed, f"{name}: {report.max_rel_err}"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown gradcheck preset 'nope'"):
            th.gradcheck_suite("nope")

    @pytest.mark.parametrize("fail_at", [None, 2, 5])
    def test_inputs_bit_identical_afterwards(self, fail_at):
        # the analytic pass lifts leaves over the caller's arrays, the
        # differences constants over copies; also when loss_fn raises
        params = {"theta": np.array([3.0, -1.0]), "phi": np.array([[0.5, 2.0]])}
        before = {n: a.copy() for n, a in params.items()}
        seen = []

        def loss_fn(p):
            seen.append([p[n].needs_grad for n in sorted(p)])
            if len(seen) == fail_at:
                raise RuntimeError("loss failed")
            return tape.sum_all(p["theta"] * p["theta"]) + tape.sum_all(p["phi"] * p["phi"] * p["phi"])

        if fail_at is None:
            assert th.finite_diff_check(params, loss_fn).passed
        else:
            with pytest.raises(RuntimeError, match="loss failed"):
                th.finite_diff_check(params, loss_fn)
        assert seen[0] == [True, True] and not any(any(s) for s in seen[1:])
        for name, a in params.items():
            assert a.tobytes() == before[name].tobytes(), name

    def test_unused_parameter_zero_grad(self):
        # the loss never reads "unused": its analytic gradient is zeros, which
        # the central differences (also zero) confirm with no error at all
        params = {"used": np.array([2.0]), "unused": np.array([1.0])}
        report = th.finite_diff_check(params, lambda p: tape.sum_all(p["used"] * 3.0))
        assert report.passed and report.checked == 2
        assert report.per_param_max["unused"] == 0.0

    def test_iteration_sorted_by_name(self):
        params = {name: np.zeros(1) for name in ("zeta", "alpha", "mid")}
        seen = []

        def loss_fn(p):
            seen.append(list(p))
            return tape.sum_all(p["alpha"] + p["mid"] + p["zeta"])

        report = th.finite_diff_check(params, loss_fn)
        assert list(report.per_param_max) == ["alpha", "mid", "zeta"]
        assert all(names == ["alpha", "mid", "zeta"] for names in seen)

    def test_subsampling_above_threshold(self):
        params = {"big": np.random.default_rng(0).standard_normal(20_001)}
        w = np.random.default_rng(1).standard_normal(20_001)
        report = th.finite_diff_check(params, lambda p: tape.sum_all(p["big"] * w))
        assert report.checked >= 200
        assert report.checked < 20_001
        assert report.passed

    def test_gradient_below_roundoff_passes(self):
        # f = 1 + 1e-11 * theta: the true slope is below eps * |f| / step, so
        # the central difference returns only ulps of f, and a pure relative
        # test with the 1e-8 floor would read 1e-3
        one = as_var(np.array([1.0]))
        report = th.finite_diff_check({"theta": np.array([0.5])}, lambda p: tape.sum_all(p["theta"] * 1e-11 + one))
        assert report.passed, report.failures
        assert report.max_roundoff > 1e-11
        assert report.max_roundoff < 1e-9

    def test_error_above_roundoff_still_fails(self, corrupt_gradients):
        # same |f| ~ 1, so r ~ 3.5e-10, but a 1e-8 slope reported as 2e-8:
        # an error thirty times the allowance must fail
        one = as_var(np.array([1.0]))
        corrupt_gradients(1.0)
        report = th.finite_diff_check({"theta": np.array([0.5])}, lambda p: tape.sum_all(p["theta"] * 1e-8 + one))
        assert not report.passed
        (fail,) = report.failures
        assert 0.0 < fail.roundoff == report.max_roundoff
        assert abs(fail.analytic - fail.numeric) > 20 * fail.roundoff
        assert fail.rel_err > 0.3

    def test_subsample_lists_only_checked_params(self, corrupt_gradients):
        # a 1-element parameter no draw lands on must not read as a pass (0.0)
        params = {"big": np.random.default_rng(0).standard_normal(20_001), "small": np.array([0.7])}
        w = np.random.default_rng(1).standard_normal(20_001)
        corrupt_gradients(0.5)
        report = th.finite_diff_check(params, lambda p: tape.sum_all(p["big"] * w) + tape.sum_all(p["small"] * 3.0))
        assert set(report.per_param_max) == {"big"}
        assert report.per_param_max["big"] == pytest.approx(0.2)

    def test_corruption_detected_at_pinned_d2_block(self, corrupt_gradients):
        # the N=2, d=2, one-head block of the pinned-size gradient test, where
        # the attention gradients sit below the round-off scale: the allowance
        # must not hide a 10% error in the others
        params, loss_fn = th.block_check(nn_ops.transformer_block, Rng(2 * 17 + 2), d=2, heads=1, n=2)
        assert th.finite_diff_check(params, loss_fn).passed
        corrupt_gradients(0.1)
        report = th.finite_diff_check(params, loss_fn)
        assert not report.passed
        assert report.max_rel_err > 0.04
        assert {f.name for f in report.failures} >= {"Z", "mlp.W1", "mlp.W2"}


class TestAdam:
    def test_first_step_is_signed_lr(self):
        w = np.array([1.0, -2.0])
        opt = th.AdamState({"w": w}, lr=0.01)
        g = np.array([100.0, -50.0])
        th.adam_step(opt, {"w": g})
        # beta1=0: delta = -lr * g / (|g| + eps) ~ -lr * sign(g)
        assert abs((1.0 - w[0]) - 0.01) <= 0.01 * 1e-6
        assert abs((w[1] + 2.0) - 0.01) <= 0.01 * 1e-6

    def test_zero_gradient_no_move(self):
        w = np.array([4.0])
        opt = th.AdamState({"w": w}, lr=0.5)
        th.adam_step(opt, {"w": np.zeros(1)})
        assert w[0] == 4.0

    def test_two_steps_match_hand_recurrence(self):
        w = np.array([0.7])
        opt = th.AdamState({"w": w}, lr=0.1)
        th.adam_step(opt, {"w": np.array([0.3])})
        th.adam_step(opt, {"w": np.array([0.3])})
        expect = adam_recurrence(0.7, [0.3, 0.3], 0.1, 0.0, 0.999, 1e-8)
        assert w[0] == pytest.approx(expect, rel=1e-15)

    def test_momentum_free_when_beta1_zero(self):
        # each step moves along its own gradient only: the first moment is g
        w = np.zeros(3)
        opt = th.AdamState({"w": w}, lr=0.1)
        for step in range(3):
            g = np.random.default_rng(step).standard_normal(3)
            before = w.copy()
            th.adam_step(opt, {"w": g})
            v_hat = opt.v["w"] / (1.0 - th.ADAM_BETA2 ** (step + 1))
            assert np.array_equal(w, before - 0.1 * g / (np.sqrt(v_hat) + th.ADAM_EPS))

    def test_in_place_step_matches_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(4)
        shapes = {"a": (3, 4), "b": (5,), "c": (2, 1, 3)}
        params = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        theta = {name: p.copy() for name, p in params.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        opt = th.AdamState(params, lr=0.03)
        for t in range(1, 4):
            grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
            th.adam_step(opt, grads)
            for name, g in grads.items():
                # the formula as written, with numpy temporaries
                v[name] = th.ADAM_BETA2 * v[name] + (1.0 - th.ADAM_BETA2) * (g * g)
                v_hat = v[name] / (1.0 - th.ADAM_BETA2 ** t)
                theta[name] = theta[name] - 0.03 * g / (np.sqrt(v_hat) + th.ADAM_EPS)
                assert np.array_equal(opt.v[name], v[name])
                assert np.array_equal(params[name], theta[name])


class TestTrainToy:
    def small_cfg(self, **kw):
        base = dict(height=8, width=8, regions=3, seed=5, iters=8, sparsity=0.5, d=8, blocks=1, heads=2)
        base.update(kw)
        return th.ToyTrainConfig(**base)

    def test_zero_iters_reports_initial_evals_only(self):
        report = th.train_toy(self.small_cfg(iters=0))
        assert report["loss"] == []
        assert set(report["eval"]) == {"s0.0", "s0.3", "s0.5", "s0.7"}
        assert set(report["per_label_ablation"]) == {
            "semantics", "depth", "normals", "edges", "curvature",
        }
        assert report["diverged_at"] is None

    def test_trained_params_are_float64_arrays(self, tmp_path):
        cfg = self.small_cfg(mode="adversarial", iters=3)
        report, merger, heads = th.train_toy_with_params(cfg)
        items = fusion.param_items(merger)
        assert all(type(t) is np.ndarray and t.dtype == np.float64 for _, t in items + th.head_items(heads))
        fusion.save_merger_params(merger, tmp_path / "params")
        back = fusion.load_merger_params(tmp_path / "params")
        assert [(n, t.tobytes()) for n, t in fusion.param_items(back)] == [(n, t.tobytes()) for n, t in items]
        # the arrays are the trained ones: they reproduce the report's ablation eval
        # (the 8x8 grid is one tile, so the tiler's route and the whole grid's are bit-equal)
        labels, _, target = label_model.synth_scene(cfg.height, cfg.width, cfg.regions, cfg.seed)
        for name, value in report["per_label_ablation"].items():
            ablated = label_model.mask_out_label(labels, name)
            assert whole_grid_l2(ablated, target, merger, heads) == value
        assert fusion.tlam_merge(labels, merger).tobytes() == fusion.tlam_merge(labels, back).tobytes()

    def test_eval_merges_each_mask_set_once(self, monkeypatch):
        calls = []
        tiled_grads = th.tiled_grads
        monkeypatch.setattr(th, "tiled_grads", lambda *args: calls.append(args) or tiled_grads(*args))
        cfg = self.small_cfg(iters=2)
        report, merger, heads = th.train_toy_with_params(cfg)
        merged = sum(1 for args in calls if not args[5])  # the eval's calls, with no leaves
        # the eval with every draw merged, from the same draws of the eval seed
        labels, inst, target = label_model.synth_scene(cfg.height, cfg.width, cfg.regions, cfg.seed)
        master = Rng(cfg.seed)
        eval_rng = Rng([master.next_u64() for _ in range(3)][2])
        sets, evals = set(), {}
        for s in th.EVAL_SPARSITIES:
            l2 = []
            for _ in range(th.EVAL_REPEATS):
                masks = label_model.generate_sparse_masks(inst, labels, s, eval_rng.next_u64())
                sets.add(b"".join(m.tobytes() for m in masks.masks.values()))
                l2.append(whole_grid_l2(label_model.apply_masks(labels, masks), target, merger, heads))
            evals[f"s{s:.1f}"] = float(np.mean(l2))
        assert report["eval"] == evals
        # sparsity 0 keeps every label in each of its draws: one merge for all of them
        assert len(sets) <= len(th.EVAL_SPARSITIES) * th.EVAL_REPEATS - (th.EVAL_REPEATS - 1)
        assert merged == len(sets) + len(labels)

    def test_non_finite_eval_raises(self, monkeypatch):
        init_head_params = th.init_head_params

        def overflowing_heads(*args, **kwargs):
            hp = init_head_params(*args, **kwargs)
            hp.gen_b2 = np.full(3, np.inf)
            return hp

        monkeypatch.setattr(th, "init_head_params", overflowing_heads)
        with pytest.raises(FloatingPointError, match="non-finite l2"):
            th.train_toy(self.small_cfg(iters=0))

    def test_fixed_seed_bit_identical_reports(self):
        a = th.train_toy(self.small_cfg())
        b = th.train_toy(self.small_cfg())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_loss_decreases(self):
        report = th.train_toy(self.small_cfg(iters=60))
        assert report["loss"][-1] < report["loss"][0]

    def test_parallel_mode_matches_within_tolerance(self):
        h, w = TILE_ROWS + 8, 8
        assert len(fusion.pixel_spans(h * w, PIXEL_SIZE)) >= 2
        a = th.train_toy(self.small_cfg(iters=12, threads=1, height=h, width=w))
        b = th.train_toy(self.small_cfg(iters=12, threads=3, height=h, width=w))
        assert a["loss"] == b["loss"]
        assert a["eval"] == b["eval"] and a["per_label_ablation"] == b["per_label_ablation"]

    def test_tiled_l2_grads_match_whole_grid(self):
        h, w = TILE_ROWS + 8, 8
        assert len(fusion.pixel_spans(h * w, PIXEL_SIZE)) >= 2
        labels, inst, target = label_model.synth_scene(h, w, 3, 5)
        masked = label_model.apply_masks(labels, label_model.generate_sparse_masks(inst, labels, 0.5, 6))
        target = target.astype(np.float64)
        rng = Rng(7)
        merger0 = fusion.init_merger_params(masked, fusion.TLAM, d=8, n_blocks=1, heads=2, rng=rng)
        heads0 = th.init_head_params(8, rng, d_g=8)
        names = [n for n, _ in fusion.param_items(merger0) + th.head_items(heads0)]
        tile_loss, tiles = recorded(th._l2_tile)
        value, grads = th.tiled_grads(masked, target, merger0, heads0, tile_loss, names, threads=2)
        # each tile's graph holds only its own pixels
        assert len(tiles) >= 2 and all(max_rows(loss) <= TILE_PIXELS for loss in tiles)
        merger, heads, leaves = lift_leaves(merger0, heads0)
        loss = th._l2_tile(whole_grid_merge(masked, merger), heads, as_var(target.reshape(-1, 3)))
        backward(loss)
        assert abs(value - float(loss.value)) <= 1e-12
        whole = {n: v.grad for n, v in leaves.items()}
        assert sorted(grads) == sorted(whole)
        for name, g in whole.items():
            assert np.abs(grads[name] - g).max() <= 1e-12, name

    def test_merge_step_built_per_tile_from_its_leaves(self, monkeypatch):
        # each tile folds LN2 from its own leaves, so the fold's gradients reach them
        h, w = TILE_ROWS + 8, 8
        assert len(fusion.pixel_spans(h * w, PIXEL_SIZE)) == 2
        masked, target, merger, heads = adv_scene(h, w)
        steps = []
        step = fusion.merge_step
        monkeypatch.setattr(fusion, "merge_step", lambda q, s: steps.append(q) or step(q, s))
        tile_loss, tiles = recorded(th._l2_tile)
        th.tiled_grads(masked, target, merger, heads, tile_loss, [n for n, _ in fusion.param_items(merger)])
        assert len(steps) == len(tiles) == 2
        for q, loss in zip(steps, tiles):
            assert {id(leaf) for leaf in graph_leaves(loss)} == {id(t) for _, t in fusion.param_items(q)}
        assert not {id(t) for _, t in fusion.param_items(steps[0])} & {id(t) for _, t in fusion.param_items(steps[1])}

    def test_inputs_and_targets_take_no_gradient(self):
        labels, inst, target = label_model.synth_scene(4, 4, 3, 5)
        masked = label_model.apply_masks(labels, label_model.generate_sparse_masks(inst, labels, 0.5, 6))
        assert not any(x.needs_grad for x in fusion.masked_pixels(masked, 0, 16))
        rng = Rng(7)
        merger = fusion.init_merger_params(masked, fusion.TLAM, d=8, n_blocks=1, heads=2, rng=rng)
        heads = th.init_head_params(8, rng, d_g=8)
        items = fusion.param_items(merger) + th.head_items(heads)
        tile_loss, tiles = recorded(th._l2_tile)
        th.tiled_grads(masked, target.astype(np.float64), merger, heads, tile_loss, [n for n, _ in items])
        # every leaf of the step's graph is a parameter array: no input
        # pixels, no target and no scalar constant
        assert tiles
        for loss in tiles:
            leaves = graph_leaves(loss)
            assert len(leaves) == len(items)
            assert all(any(leaf.value is t for _, t in items) for leaf in leaves)

    def test_adversarial_report_independent_of_threads(self):
        h, w = TILE_ROWS + 8, 8
        assert len(fusion.pixel_spans(h * w, PIXEL_SIZE)) >= 2
        reports, trained = [], []
        for threads in (1, 3):
            cfg = self.small_cfg(mode="adversarial", iters=4, threads=threads, height=h, width=w)
            report, merger, heads = th.train_toy_with_params(cfg)
            del report["config"]["threads"]
            reports.append(json.dumps(report, sort_keys=True))
            trained.append([(n, t.tobytes()) for n, t in fusion.param_items(merger) + th.head_items(heads)])
        assert reports[0] == reports[1]
        # the trained arrays too, bit for bit: the report passes them only
        # through losses, which can hide low-bit differences
        assert trained[0] == trained[1]

    def test_parallel_mode_deterministic(self):
        h, w = TILE_ROWS + 8, 8
        assert len(fusion.pixel_spans(h * w, PIXEL_SIZE)) >= 2
        a = th.train_toy(self.small_cfg(iters=6, threads=3, height=h, width=w))
        b = th.train_toy(self.small_cfg(iters=6, threads=3, height=h, width=w))
        assert a["loss"] == b["loss"]

    def test_adversarial_mode_runs(self):
        report = th.train_toy(self.small_cfg(mode="adversarial", iters=6))
        assert len(report["loss"]) == 6
        assert report["diverged_at"] is None

    def test_divergence_reported_with_iteration(self):
        report = th.train_toy(self.small_cfg(iters=10, lr=1e90))
        assert report["diverged_at"] is not None
        assert report["eval"] is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            th.train_toy(self.small_cfg(mode="nope"))


class TestEndToEndGradcheck:
    def test_merge_generate_l2_gradients(self):
        # the composition used by training, at a non-suite configuration
        rng = Rng(1)
        labels = th.make_random_label_set(2, 4, 4, seed=2, sparsity=0.5)
        merger = fusion.init_merger_params(labels, fusion.TLAM, d=8, n_blocks=1, heads=2, rng=rng)
        heads = th.init_head_params(8, rng, d_g=8)
        target = as_var(np.random.default_rng(0).uniform(size=(16, 3)))
        params = dict(fusion.param_items(merger) + th.head_items(heads))
        report = th.finite_diff_check(params, whole_grid_loss(th._l2_tile, labels, merger, heads, target))
        assert report.passed, report.max_rel_err

    def test_adversarial_graph_gradients(self):
        rng = Rng(2)
        labels = th.make_random_label_set(2, 3, 3, seed=3, sparsity=0.4)
        merger = fusion.init_merger_params(labels, fusion.TLAM, d=4, n_blocks=1, heads=2, rng=rng)
        heads = th.init_head_params(4, rng, d_g=6, d_c=5, discriminator=True)
        target = as_var(np.random.default_rng(1).uniform(size=(9, 3)))
        params = dict(fusion.param_items(merger) + th.head_items(heads))
        report = th.finite_diff_check(params, whole_grid_loss(th._adv_g_tile, labels, merger, heads, target))
        assert report.passed, report.max_rel_err


class TestAdversarialSteps:
    def test_tiled_g_step_matches_whole_grid(self, two_tile_adv):
        masked, target, merger0, heads0 = two_tile_adv
        g_names = [n for n, _ in fusion.param_items(merger0) + th.head_items(heads0) if n not in DISC_NAMES]
        tile_loss, tiles = recorded(th._adv_g_tile)
        value, grads = th.tiled_grads(masked, target, merger0, heads0, tile_loss, g_names, threads=2)
        assert len(tiles) >= 2 and all(max_rows(loss) <= TILE_PIXELS for loss in tiles)
        merger, heads, leaves = lift_leaves(merger0, heads0)
        loss = th._adv_g_tile(whole_grid_merge(masked, merger), heads, as_var(target.reshape(-1, 3)))
        backward(loss)
        assert abs(value - float(loss.value)) <= 1e-12
        # the generator step takes no discriminator gradients
        assert sorted(grads) == sorted(g_names)
        whole = {n: v.grad for n, v in leaves.items()}
        for name in g_names:
            assert np.abs(grads[name] - whole[name]).max() <= 1e-12, name

    def test_d_tile_records_only_the_discriminator(self, two_tile_adv):
        masked, target, merger, heads = two_tile_adv
        tile_loss, tiles = recorded(th._d_tile)
        th.tiled_grads(masked, target, merger, heads, tile_loss, DISC_NAMES, threads=2)
        # no merge node (the merge's tokens are (B, N, d)) and no leaf but
        # the four discriminator tensors, in every tile
        disc = [heads.disc_w1, heads.disc_w2, heads.disc_b1, heads.disc_b2]
        assert len(tiles) >= 2
        for loss in tiles:
            assert all(n.value.ndim <= 2 for n in tape.Tape.from_root(loss).nodes)
            leaves = graph_leaves(loss)
            assert len(leaves) == 4
            assert all(any(leaf.value is t for t in disc) for leaf in leaves)

    def test_d_step_matches_whole_grid_graph(self, two_tile_adv):
        masked, target, merger0, heads0 = two_tile_adv
        value, grads = th.tiled_grads(masked, target, merger0, heads0, th._d_tile, DISC_NAMES, threads=2)
        # the merge and the generator enter the D step as constants
        assert sorted(grads) == DISC_NAMES
        merger, heads, leaves = lift_leaves(merger0, heads0)
        reference = adv_d_loss_whole_grid(masked, target, merger, heads)
        backward(reference)
        assert abs(value - float(reference.value)) <= 1e-12
        whole = {n: v.grad for n, v in leaves.items()}
        for name, g in grads.items():
            assert np.abs(g - whole[name]).max() <= 1e-12, name

    def test_d_step_finite_differences(self, two_tile_adv):
        masked, target, merger, heads0 = two_tile_adv
        disc = {n: t for n, t in th.head_items(heads0) if n.startswith("disc.")}
        assert sorted(disc) == DISC_NAMES
        z = whole_grid_merge(masked, fusion.map_params(merger, lambda _n, t: as_var(t)))
        t = as_var(target.reshape(-1, 3))
        lifted = lambda p: nn_ops.map_tensors(heads0, lambda n, a: p[n] if n in p else as_var(a))
        report = th.finite_diff_check(disc, lambda p: th._d_tile(z, lifted(p), t))
        assert report.passed, report.max_rel_err

    def test_d_step_tile_bounded_and_independent_of_threads(self, two_tile_adv):
        masked, target, merger, heads = two_tile_adv
        tile_loss, tiles = recorded(th._d_tile)
        runs = [th.tiled_grads(masked, target, merger, heads, tile_loss, DISC_NAMES, threads) for threads in (1, 3)]
        assert len(tiles) >= 4 and all(max_rows(loss) <= TILE_PIXELS for loss in tiles)
        (v1, g1), (v3, g3) = runs
        assert v1 == v3
        assert sorted(g1) == sorted(g3)
        for name in g1:
            assert g1[name].tobytes() == g3[name].tobytes(), name


STEPS = pytest.mark.parametrize("tile_loss", [th._l2_tile, th._adv_g_tile, th._d_tile], ids=["l2", "adv_g", "d"])

# A tile's recorded graph (five labels, d=8, one block, the heads) peaks near
# 13 TILE_BYTES; a step holds one graph per thread at most.
GRAPH_BYTES = 16 * fusion.TILE_BYTES


class TestStepMemory:
    @STEPS
    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_graph_outlives_the_step(self, two_tile_adv, tile_loss, threads):
        masked, target, merger, heads = two_tile_adv
        gc.collect()
        value, grads = th.tiled_grads(masked, target, merger, heads, tile_loss, step_names(tile_loss, merger, heads), threads)
        assert math.isfinite(value) and grads
        # Var has __slots__ and no __weakref__: count the instances the collector tracks
        assert not [o for o in gc.get_objects() if type(o) is tape.Var]

    @STEPS
    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_bounded_by_tiles_in_flight(self, tile_loss, threads):
        h, w = 4 * TILE_ROWS + 8, 8
        assert len(fusion.pixel_spans(h * w, PIXEL_SIZE)) >= 5
        masked, target, merger, heads = adv_scene(h, w)
        names = step_names(tile_loss, merger, heads)
        tracemalloc.start()
        try:
            th.tiled_grads(masked, target, merger, heads, tile_loss, names, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= threads * GRAPH_BYTES, peak


    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_does_not_grow_with_tiles(self, threads):
        # an l2 step at d=64 (one block) cuts 16 and 64 rows of 64 into 11
        # and 41 tiles, each with 0.42 MiB of gradients; summed as they come,
        # the gradient sets of earlier tiles are not held.  At two threads the
        # peak depends on whether both threads' graphs peak at once, which
        # more tiles make likelier, so the bound is threads one-thread
        # 11-tile peaks, plus 2 MiB
        def peak(h, threads):
            labels, inst, target = label_model.synth_scene(h, 64, 4, 3)
            masked = label_model.apply_masks(labels, label_model.generate_sparse_masks(inst, labels, 0.5, 4))
            rng = Rng(5)
            merger = fusion.init_merger_params(masked, fusion.TLAM, d=64, n_blocks=1, heads=2, rng=rng)
            heads = th.init_head_params(64, rng)
            names = [n for n, _ in fusion.param_items(merger) + th.head_items(heads)]
            assert len(fusion.pixel_spans(h * 64, fusion.pixel_bytes(fusion.TLAM, 5, 64))) == {16: 11, 64: 41}[h]
            tracemalloc.start()
            try:
                th.tiled_grads(masked, target.astype(np.float64), merger, heads, th._l2_tile, names, threads)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        base, large = peak(16, 1), peak(64, threads)
        assert large <= threads * base + 2 * 2**20, (base, large)


@pytest.mark.parametrize("stem, bad_shape", [("gen.b1", (1,)), ("disc.W1", (6, 5))])
def test_head_params_wrong_shape_rejected(tmp_path, stem, bad_shape):
    # the widths are read off gen.W1 (d=4, d_g=6) and disc.W1 (d_c=5)
    th.save_head_params(heads_with_disc(seed=9), tmp_path / "heads")
    save_tensor(tmp_path / "heads" / f"{stem}.tlt", np.ones(bad_shape))
    with pytest.raises(ValueError, match=re.escape(f"{stem}.tlt has shape {bad_shape}")):
        th.load_head_params(tmp_path / "heads")


@pytest.mark.parametrize("stem, at, bad", [("gen.b1", (4,), np.nan), ("disc.W1", (1, 2), np.inf)], ids=["nan", "inf"])
def test_head_params_nonfinite_rejected(tmp_path, stem, at, bad):
    th.save_head_params(heads_with_disc(seed=9), tmp_path / "heads")
    t = load_tensor(tmp_path / "heads" / f"{stem}.tlt")
    t[at] = bad
    save_tensor(tmp_path / "heads" / f"{stem}.tlt", t)
    with pytest.raises(ValueError, match=re.escape(f"{stem}.tlt: value {bad} at index {at} is not finite")):
        th.load_head_params(tmp_path / "heads")


def test_head_params_serialization_roundtrip(tmp_path):
    hp = heads_with_disc(seed=9)
    th.save_head_params(hp, tmp_path / "heads")
    back = th.load_head_params(tmp_path / "heads")
    for (na, ta), (nb, tb) in zip(th.head_items(hp), th.head_items(back)):
        assert na == nb
        assert np.asarray(ta).tobytes() == np.asarray(tb).tobytes()


@pytest.mark.parametrize("meta", [[1], {}, {"discriminator": "yes"}, {"discriminator": 1}])
def test_malformed_heads_json_rejected(tmp_path, meta):
    th.save_head_params(heads_with_disc(seed=9), tmp_path / "heads")
    (tmp_path / "heads" / "heads.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="heads.json"):
        th.load_head_params(tmp_path / "heads")


@pytest.mark.parametrize(
    "text, message",
    [("[" * 200_000 + "]" * 200_000, "heads.json JSON nests too deeply"),
     ("[1]", "heads.json must be a JSON object, not list")],
    ids=["nested", "list"],
)
def test_heads_json_not_an_object_rejected(tmp_path, text, message):
    th.save_head_params(heads_with_disc(seed=9), tmp_path / "heads")
    (tmp_path / "heads" / "heads.json").write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        th.load_head_params(tmp_path / "heads")
