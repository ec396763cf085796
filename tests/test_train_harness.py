import json
import re

import numpy as np
import pytest

from labelfuse import fusion, nn_ops, tape, train_harness as th
from labelfuse.tape import Var, backward
from labelfuse.tensor_core import Rng, save_tensor

from oracles import adam_recurrence, gelu_scalar


def heads_with_disc(d=4, seed=0, d_g=6, d_c=5):
    return th.init_head_params(d, Rng(seed), d_g=d_g, d_c=d_c, discriminator=True)


class TestHeads:
    def test_constant_generator(self):
        hp = heads_with_disc()
        hp.gen_w2 = np.zeros((6, 3))
        hp.gen_b2 = np.array([0.1, 0.2, 0.3])
        z = np.random.default_rng(0).standard_normal((4, 5, 4))
        img = th.forward_generate(z, hp)
        assert np.allclose(img, [0.1, 0.2, 0.3])

    def test_generator_pixel_independence(self):
        hp = heads_with_disc(seed=1)
        z = np.random.default_rng(1).standard_normal((3, 3, 4))
        img1 = th.forward_generate(z, hp)
        z2 = z.copy()
        z2[2, 1] += 1.0
        img2 = th.forward_generate(z2, hp)
        diff = np.any(img1 != img2, axis=-1)
        assert diff[2, 1]
        diff[2, 1] = False
        assert not diff.any()

    def test_generator_scalar_composition(self):
        hp = th.init_head_params(1, Rng(3), d_g=1)
        z = np.array([[[0.4]]])
        img = th.forward_generate(z, hp)
        hidden = gelu_scalar(0.4 * hp.gen_w1[0, 0] + hp.gen_b1[0])
        expect = hidden * hp.gen_w2[0] + hp.gen_b2
        assert np.allclose(img[0, 0], expect, atol=1e-14)

    def test_discriminator_constant_score(self):
        hp = heads_with_disc(seed=2)
        hp.disc_w2 = np.zeros((5, 1))
        hp.disc_b2 = np.array([2.5])
        z = np.random.default_rng(2).standard_normal((3, 4, 4))
        img = np.random.default_rng(3).standard_normal((3, 4, 3))
        assert th.discriminator_score(z, img, hp) == pytest.approx(2.5)

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
        assert th.discriminator_score(z, img, hp) == pytest.approx(np.mean(per_pixel), rel=1e-12)


class TestLosses:
    def test_hinge_d_examples(self):
        assert th.hinge_d_loss(2.0, -2.0) == 0.0
        assert th.hinge_d_loss(0.0, 0.0) == 2.0
        assert th.hinge_d_loss(0.5, 0.5) == 2.0

    def test_hinge_d_nonnegative_and_zero_iff_margins(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r, f = rng.uniform(-3, 3), rng.uniform(-3, 3)
            loss = th.hinge_d_loss(r, f)
            assert loss >= 0.0
            assert (loss == 0.0) == (r >= 1.0 and f <= -1.0)

    def test_hinge_g(self):
        assert th.hinge_g_loss(0.0) == 0.0
        assert th.hinge_g_loss(3.0) == -3.0
        assert th.hinge_g_loss(1.0) + th.hinge_g_loss(2.0) == th.hinge_g_loss(3.0)

    def test_l2_examples(self):
        img = np.random.default_rng(1).standard_normal((4, 4, 3))
        assert th.l2_loss(img, img) == 0.0
        assert th.l2_loss(img + 0.5, img) == pytest.approx(0.25)
        one = np.array([[[1.0, 2.0, 3.0]]])
        other = np.array([[[2.0, 0.0, 3.0]]])
        assert th.l2_loss(one, other) == pytest.approx((1 + 4 + 0) / 3)

    def test_losses_differentiable(self):
        r = Var(np.array(0.3))
        f = Var(np.array(0.2))
        backward(th.hinge_d_loss(r, f))
        assert r.grad == -1.0 and f.grad == 1.0
        g = Var(np.array(0.7))
        backward(th.hinge_g_loss(g))
        assert g.grad == -1.0


class TestFiniteDiff:
    def test_quadratic_exact(self):
        store = th.ParamStore()
        theta = store.add("theta", np.array([3.0]))
        report = th.finite_diff_check(store, lambda: tape.sum_all(theta * theta * 0.5))
        assert report.passed
        assert report.max_rel_err <= 1e-9

    def test_corrupted_gradient_detected(self):
        store = th.ParamStore()
        theta = store.add("theta", np.array([3.0]))
        report = th.finite_diff_check(
            store, lambda: tape.sum_all(theta * theta * 0.5), corrupt_scale=0.1
        )
        assert not report.passed
        assert report.failures

    def test_randomized_tlam_config_passes(self):
        triples = th.gradcheck_suite("full", seed=3)
        name, store, loss_fn = triples[1]  # N=3, d=8, l=2
        report = th.finite_diff_check(store, loss_fn, step=1e-5, tol=1e-4)
        assert report.passed, f"{name}: {report.max_rel_err}"

    def test_subsampling_above_threshold(self):
        store = th.ParamStore()
        big = store.add("big", np.random.default_rng(0).standard_normal(20_001))
        w = np.random.default_rng(1).standard_normal(20_001)
        report = th.finite_diff_check(store, lambda: tape.sum_all(big * w))
        assert report.checked >= 200
        assert report.checked < 20_001
        assert report.passed

    def test_gradient_below_roundoff_passes(self):
        # f = 1 + 1e-11 * theta: the true slope is below eps * |f| / step, so
        # the central difference returns only ulps of f, and a pure relative
        # test with the 1e-8 floor would read 1e-3
        store = th.ParamStore()
        theta = store.add("theta", np.array([0.5]))
        one = Var(np.array([1.0]))
        report = th.finite_diff_check(store, lambda: tape.sum_all(theta * 1e-11 + one))
        assert report.passed, report.failures
        assert report.max_roundoff > 1e-11
        assert report.max_roundoff < 1e-9

    def test_error_above_roundoff_still_fails(self):
        # same |f| ~ 1, so r ~ 3.5e-10, but a 1e-8 slope reported as 2e-8:
        # an error thirty times the allowance must fail
        store = th.ParamStore()
        theta = store.add("theta", np.array([0.5]))
        one = Var(np.array([1.0]))
        report = th.finite_diff_check(
            store, lambda: tape.sum_all(theta * 1e-8 + one), corrupt_scale=1.0
        )
        assert not report.passed
        (fail,) = report.failures
        assert 0.0 < fail.roundoff == report.max_roundoff
        assert abs(fail.analytic - fail.numeric) > 20 * fail.roundoff
        assert fail.rel_err > 0.3

    def test_subsample_lists_only_checked_params(self):
        # a 1-element parameter no draw lands on must not read as a pass (0.0)
        store = th.ParamStore()
        big = store.add("big", np.random.default_rng(0).standard_normal(20_001))
        small = store.add("small", np.array([0.7]))
        w = np.random.default_rng(1).standard_normal(20_001)
        report = th.finite_diff_check(
            store, lambda: tape.sum_all(big * w) + tape.sum_all(small * 3.0), corrupt_scale=0.5
        )
        assert set(report.per_param_max) == {"big"}
        assert report.per_param_max["big"] == pytest.approx(0.2)

    def test_corruption_detected_at_pinned_d2_block(self):
        # the N=2, d=2, one-head block of the pinned-size gradient test, where
        # the attention gradients sit below the round-off scale: the allowance
        # must not hide a 10% error in the others
        store = th.ParamStore()
        bp, z, c = th.block_store(store, Rng(2 * 17 + 2), d=2, heads=1, n=2)
        loss_fn = lambda: tape.mean_all(nn_ops._transformer_block(z, bp) * c)
        assert th.finite_diff_check(store, loss_fn, step=1e-5, tol=1e-4).passed
        report = th.finite_diff_check(store, loss_fn, step=1e-5, tol=1e-4, corrupt_scale=0.1)
        assert not report.passed
        assert report.max_rel_err > 0.04
        assert {f.name for f in report.failures} >= {"Z", "mlp.W1", "mlp.W2"}


class TestAdam:
    def test_first_step_is_signed_lr(self):
        store = th.ParamStore()
        store.add("w", np.array([1.0, -2.0]))
        opt = th.make_adam(store, lr=0.01)
        g = np.array([100.0, -50.0])
        th.adam_step(opt, {"w": g})
        w = store.var("w").value
        # beta1=0: delta = -lr * g / (|g| + eps) ~ -lr * sign(g)
        assert abs((1.0 - w[0]) - 0.01) <= 0.01 * 1e-6
        assert abs((w[1] + 2.0) - 0.01) <= 0.01 * 1e-6

    def test_zero_gradient_no_move(self):
        store = th.ParamStore()
        store.add("w", np.array([4.0]))
        opt = th.make_adam(store, lr=0.5)
        th.adam_step(opt, {"w": np.zeros(1)})
        assert store.var("w").value[0] == 4.0

    def test_two_steps_match_hand_recurrence(self):
        for beta1, beta2 in [(0.0, 0.999), (0.9, 0.999), (0.5, 0.9)]:
            store = th.ParamStore()
            store.add("w", np.array([0.7]))
            opt = th.make_adam(store, lr=0.1, beta1=beta1, beta2=beta2)
            th.adam_step(opt, {"w": np.array([0.3])})
            th.adam_step(opt, {"w": np.array([0.3])})
            expect = adam_recurrence(0.7, [0.3, 0.3], 0.1, beta1, beta2, 1e-8)
            assert store.var("w").value[0] == pytest.approx(expect, rel=1e-15)

    def test_momentum_free_when_beta1_zero(self):
        store = th.ParamStore()
        store.add("w", np.zeros(3))
        opt = th.make_adam(store, lr=0.1, beta1=0.0)
        for step in range(3):
            g = np.random.default_rng(step).standard_normal(3)
            th.adam_step(opt, {"w": g})
            assert np.array_equal(opt.m["w"], g)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = th.ParamStore()
        store.add("a", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("a", np.zeros(2))

    def test_nonfinite_rejected(self):
        store = th.ParamStore()
        with pytest.raises(ValueError, match="finite"):
            store.add("bad", np.array([np.nan]))

    def test_iteration_sorted_by_name(self):
        store = th.ParamStore()
        for name in ("zeta", "alpha", "mid"):
            store.add(name, np.zeros(1))
        assert store.names() == ["alpha", "mid", "zeta"]

    def test_unused_parameter_zero_grad(self):
        store = th.ParamStore()
        used = store.add("used", np.array([2.0]))
        store.add("unused", np.array([1.0]))
        store.zero_grad()
        backward(used * 3.0)
        grads = store.grads()
        assert grads["used"][()] == 3.0
        assert not grads["unused"].any()


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

    def test_fixed_seed_bit_identical_reports(self):
        a = th.train_toy(self.small_cfg())
        b = th.train_toy(self.small_cfg())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_loss_decreases(self):
        report = th.train_toy(self.small_cfg(iters=60))
        assert report["loss"][-1] < report["loss"][0]

    def test_parallel_mode_matches_within_tolerance(self):
        a = th.train_toy(self.small_cfg(iters=12, threads=1))
        b = th.train_toy(self.small_cfg(iters=12, threads=3))
        la, lb = np.array(a["loss"]), np.array(b["loss"])
        rel = np.abs(la - lb) / np.maximum(np.abs(la), 1e-12)
        assert rel.max() <= 1e-5

    def test_parallel_mode_deterministic(self):
        a = th.train_toy(self.small_cfg(iters=6, threads=3))
        b = th.train_toy(self.small_cfg(iters=6, threads=3))
        assert a["loss"] == b["loss"]

    def test_adversarial_mode_runs(self):
        report = th.train_toy(self.small_cfg(mode="adversarial", iters=6))
        assert len(report["loss"]) == 6
        assert report["diverged_at"] is None

    def test_divergence_reported_with_iteration(self):
        with np.errstate(all="ignore"):
            report = th.train_toy(self.small_cfg(iters=10, lr=1e90))
        assert report["diverged_at"] is not None
        assert report["eval"] is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            th.train_toy(self.small_cfg(mode="nope"))


class TestEndToEndGradcheck:
    def test_merge_generate_l2_gradients(self):
        # the composition used by training, at a non-suite configuration
        store = th.ParamStore()
        rng = Rng(1)
        labels = th.make_random_label_set(2, 4, 4, seed=2, sparsity=0.5)
        merger = th.lift_merger_params(
            fusion.init_merger_params(labels, fusion.TLAM, d=8, n_blocks=1, heads=2, rng=rng),
            store.add,
        )
        heads = th.lift_head_params(th.init_head_params(8, rng, d_g=8), store.add)
        target = np.random.default_rng(0).uniform(size=(4, 4, 3))
        report = th.finite_diff_check(
            store, lambda: th.l2_loss_graph(labels, target, merger, heads)
        )
        assert report.passed, report.max_rel_err

    def test_adversarial_graph_gradients(self):
        store = th.ParamStore()
        rng = Rng(2)
        labels = th.make_random_label_set(2, 3, 3, seed=3, sparsity=0.4)
        merger = th.lift_merger_params(
            fusion.init_merger_params(labels, fusion.TLAM, d=4, n_blocks=1, heads=2, rng=rng),
            store.add,
        )
        heads = th.lift_head_params(
            th.init_head_params(4, rng, d_g=6, d_c=5, discriminator=True), store.add
        )
        target = np.random.default_rng(1).uniform(size=(3, 3, 3))
        report = th.finite_diff_check(
            store, lambda: th.adv_g_loss_graph(labels, target, merger, heads, 10.0)
        )
        assert report.passed, report.max_rel_err


@pytest.mark.parametrize("stem, bad_shape", [("gen.b1", (1,)), ("disc.W1", (6, 5))])
def test_head_params_wrong_shape_rejected(tmp_path, stem, bad_shape):
    # the widths are read off gen.W1 (d=4, d_g=6) and disc.W1 (d_c=5)
    th.save_head_params(heads_with_disc(seed=9), tmp_path / "heads")
    save_tensor(tmp_path / "heads" / f"{stem}.tlt", np.ones(bad_shape))
    with pytest.raises(ValueError, match=re.escape(f"{stem}.tlt has shape {bad_shape}")):
        th.load_head_params(tmp_path / "heads")


def test_head_params_serialization_roundtrip(tmp_path):
    hp = heads_with_disc(seed=9)
    th.save_head_params(hp, tmp_path / "heads")
    back = th.load_head_params(tmp_path / "heads")
    for (na, ta), (nb, tb) in zip(th.head_items(hp), th.head_items(back)):
        assert na == nb
        assert np.asarray(ta).tobytes() == np.asarray(tb).tobytes()
