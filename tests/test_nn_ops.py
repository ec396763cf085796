import math

import numpy as np
import pytest

from labelfuse import nn_ops, tape, train_harness
from labelfuse.nn_ops import (
    AttentionParams,
    attention_mac_counter,
    init_block_params,
    mlp_block,
    msa_block,
    multi_head_self_attention,
    transformer_block,
)
from labelfuse.tape import Var
from labelfuse.tensor_core import Rng

from lifting import unrecorded
from oracles import attention_bruteforce, gelu_scalar, layer_norm_rows


def affine_layer_norm(x, gamma, beta, eps=1e-5):
    """The value of a layer norm with a gain and shift, composed as the
    blocks compose it: the normalization, then a product and a sum."""
    return unrecorded(lambda x, gamma, beta: tape.layer_norm(x, eps) * gamma + beta, x, gamma, beta)


def zeroed_block(d, heads, seed=0):
    """Block params whose attention and MLP branches output exactly zero."""
    bp = init_block_params(d, heads, Rng(seed))
    bp.attn.wo = np.zeros((d, d))
    bp.attn.bo = np.zeros(d)
    bp.w2 = np.zeros((4 * d, d))
    bp.b2 = np.zeros(d)
    return bp


class TestGelu:
    def test_zero(self):
        assert unrecorded(tape.gelu, 0.0) == 0.0

    def test_frozen_values(self):
        assert unrecorded(tape.gelu, 3.0) == pytest.approx(2.996362607918227, abs=1e-4)
        assert unrecorded(tape.gelu, -3.0) == pytest.approx(-0.0036373920817729943, abs=1e-4)
        assert unrecorded(tape.gelu, 1.0) == pytest.approx(0.8411919906082768, abs=1e-4)
        assert unrecorded(tape.gelu, -1.0) == pytest.approx(-0.15880800939172324, abs=1e-4)

    def test_elementwise_matches_scalar_oracle(self):
        xs = np.linspace(-4, 4, 23)
        out = unrecorded(tape.gelu, xs)
        for x, y in zip(xs, out):
            assert y == pytest.approx(gelu_scalar(x), rel=1e-12, abs=1e-15)


class TestLayerNorm:
    def test_constant_input_maps_to_beta(self):
        out = affine_layer_norm(np.array([4.0, 4.0, 4.0]), np.ones(3), np.zeros(3))
        assert np.allclose(out, 0.0)
        out = affine_layer_norm(np.array([[2.0, 2.0]]), np.ones(2), np.array([7.0, 7.0]))
        assert np.allclose(out, 7.0)

    def test_unit_pair_exact(self):
        out = affine_layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2), eps=0.0)
        assert np.array_equal(out, [1.0, -1.0])

    def test_output_moments(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 16))
        out = affine_layer_norm(x, np.ones(16), np.zeros(16), eps=0.0)
        assert np.abs(out.mean(axis=-1)).max() <= 1e-10
        assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-6

    def test_matches_row_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 5))
        gamma = rng.standard_normal(5)
        beta = rng.standard_normal(5)
        out = affine_layer_norm(x, gamma, beta, eps=1e-5)
        assert np.allclose(out, layer_norm_rows(x, gamma, beta, 1e-5), atol=1e-12)

    def test_without_affine_normalizes_only(self):
        # the op alone: the normalized rows, bit-equal to a unit gain and
        # zero shift after it, and a node whose one parent is the input
        rng = np.random.default_rng(7)
        x = Var(rng.standard_normal((2, 7, 5)))
        out = tape.layer_norm(x)
        assert out.parents == (x,)
        assert out.value.tobytes() == affine_layer_norm(x.value, np.ones(5), np.zeros(5)).tobytes()
        assert np.allclose(out.value, layer_norm_rows(x.value.reshape(-1, 5), 1.0, 0.0, 1e-5).reshape(2, 7, 5), atol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(unrecorded(tape.softmax, np.zeros(2)), [0.5, 0.5])

    def test_singleton(self):
        for x in (-100.0, 0.0, 55.0):
            assert np.array_equal(unrecorded(tape.softmax, np.array([x])), [1.0])

    def test_closed_form(self):
        out = unrecorded(tape.softmax, np.log(np.array([1.0, 3.0])))
        assert np.allclose(out, [0.25, 0.75], atol=1e-15)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((50, 9)) * 30
        out = unrecorded(tape.softmax, v)
        assert (out >= 0.0).all()
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 1e-12


def random_attention_params(d, heads, seed):
    return nn_ops.init_tensors(nn_ops.blank(AttentionParams, d=d, heads=heads), Rng(seed))


class TestAttention:
    def test_single_token_weight_is_one(self):
        p = random_attention_params(4, 2, 1)
        z = np.random.default_rng(0).standard_normal((1, 4))
        out = unrecorded(multi_head_self_attention, z, p)
        # softmax over one token is 1, so the value row passes straight through
        per_head = [z @ p.wv[j] for j in range(2)]
        expect = np.concatenate(per_head, axis=1) @ p.wo + p.bo
        assert np.allclose(out, expect, atol=1e-14)

    def test_zero_output_map(self):
        p = random_attention_params(6, 3, 2)
        p.wo = np.zeros((6, 6))
        p.bo = np.zeros(6)
        z = np.random.default_rng(1).standard_normal((5, 6))
        assert not unrecorded(multi_head_self_attention, z, p).any()

    def test_two_token_scalar_oracle(self):
        p = AttentionParams(
            wq=np.ones((1, 1, 1)),
            wk=np.ones((1, 1, 1)),
            wv=np.ones((1, 1, 1)),
            wo=np.ones((1, 1)),
            bo=np.zeros(1),
        )
        out = unrecorded(multi_head_self_attention, np.array([[0.0], [1.0]]), p)
        sigma = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(out[0, 0] - 0.5) <= 1e-12
        assert abs(out[1, 0] - sigma) <= 1e-12

    @pytest.mark.parametrize("n,d,heads", [(1, 4, 1), (2, 4, 2), (4, 8, 2), (5, 6, 3)])
    def test_matches_bruteforce_oracle(self, n, d, heads):
        p = random_attention_params(d, heads, seed=n * 31 + d)
        z = np.random.default_rng(n + d).standard_normal((n, d))
        out = unrecorded(multi_head_self_attention, z, p)
        expect = attention_bruteforce(z, p.wq, p.wk, p.wv, p.wo, p.bo)
        assert np.abs(out - expect).max() <= 1e-12

    def test_batched_equals_per_pixel(self):
        p = random_attention_params(4, 2, 9)
        rng = np.random.default_rng(9)
        z = rng.standard_normal((6, 3, 4))
        out = unrecorded(multi_head_self_attention, z, p)
        for b in range(6):
            assert np.allclose(out[b], unrecorded(multi_head_self_attention, z[b], p), atol=1e-13)

    def test_permutation_equivariance(self):
        p = random_attention_params(8, 2, 4)
        z = np.random.default_rng(4).standard_normal((5, 8))
        perm = np.array([3, 0, 4, 1, 2])
        a = unrecorded(multi_head_self_attention, z[perm], p)
        b = unrecorded(multi_head_self_attention, z, p)[perm]
        assert np.abs(a - b).max() <= 1e-6 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize(
        "shape, match",
        [((4,), r"token matrix must be \(N, d\) or \(B, N, d\)"),
         ((3, 6), "attention params sized for d=4, got tokens of width 6")],
        ids=["rank1", "width"],
    )
    def test_bad_token_shape_rejected(self, shape, match):
        with pytest.raises(ValueError, match=match):
            unrecorded(multi_head_self_attention, np.ones(shape), random_attention_params(4, 2, 0))

    def test_mac_counter(self):
        p = random_attention_params(6, 3, 0)
        z = np.random.default_rng(0).standard_normal((7, 4, 6))
        attention_mac_counter.reset()
        unrecorded(multi_head_self_attention, z, p)
        assert attention_mac_counter.count == 7 * 3 * 2 * 4 * 4 * 2


class TestBlocks:
    def test_msa_residual_identity(self):
        bp = init_block_params(8, 2, Rng(3))
        bp.attn.wo = np.zeros((8, 8))
        bp.attn.bo = np.zeros(8)
        z = np.random.default_rng(3).standard_normal((4, 8))
        assert np.array_equal(unrecorded(msa_block, z, bp), z)

    def test_msa_composes_primitives(self):
        bp = init_block_params(4, 2, Rng(8))
        z = np.random.default_rng(8).standard_normal((3, 4))
        normed = affine_layer_norm(z, bp.ln1_gamma, bp.ln1_beta)
        expect = unrecorded(multi_head_self_attention, normed, bp.attn) + z
        assert np.allclose(unrecorded(msa_block, z, bp), expect, atol=1e-14)

    def test_mlp_residual_identity(self):
        bp = init_block_params(6, 2, Rng(4))
        bp.w2 = np.zeros((24, 6))
        bp.b2 = np.zeros(6)
        z = np.random.default_rng(4).standard_normal((3, 6))
        assert np.array_equal(unrecorded(mlp_block, z, bp), z)

    def test_mlp_tokenwise_permutation(self):
        bp = init_block_params(5, 1, Rng(5))
        z = np.random.default_rng(5).standard_normal((6, 5))
        perm = np.array([5, 2, 0, 1, 4, 3])
        assert np.allclose(unrecorded(mlp_block, z, bp)[perm], unrecorded(mlp_block, z[perm], bp), atol=1e-14)

    def test_mlp_scalar_composition(self):
        # d=1, d_ff=4: hand-compose the token path
        bp = init_block_params(1, 1, Rng(6))
        z = np.array([[0.7]])
        normed = affine_layer_norm(z, bp.ln2_gamma, bp.ln2_beta)
        hidden = np.array(
            [gelu_scalar((normed @ bp.w1[:, k]).item() + bp.b1[k]) for k in range(4)]
        )
        expect = hidden @ bp.w2 + bp.b2 + z
        assert np.allclose(unrecorded(mlp_block, z, bp), expect, atol=1e-12)

    def test_transformer_block_identity_when_zeroed(self):
        bp = zeroed_block(8, 2)
        z = np.random.default_rng(7).standard_normal((5, 8))
        assert np.array_equal(unrecorded(transformer_block, z, bp), z)

    def test_transformer_block_is_composition(self):
        bp = init_block_params(6, 3, Rng(9))
        z = np.random.default_rng(9).standard_normal((4, 6))
        assert np.array_equal(unrecorded(transformer_block, z, bp), unrecorded(mlp_block, unrecorded(msa_block, z, bp), bp))

    def test_transformer_block_permutation_equivariance(self):
        bp = init_block_params(8, 2, Rng(10))
        z = np.random.default_rng(10).standard_normal((6, 8))
        perm = np.array([2, 4, 0, 5, 3, 1])
        a = unrecorded(transformer_block, z[perm], bp)
        b = unrecorded(transformer_block, z, bp)[perm]
        assert np.abs(a - b).max() <= 1e-6 * max(1.0, np.abs(b).max())


class TestGradients:
    def test_every_op_matches_finite_differences(self):
        for name, params, loss_fn in train_harness.gradcheck_suite("small", seed=0):
            report = train_harness.finite_diff_check(params, loss_fn)
            assert report.passed, f"{name}: max rel err {report.max_rel_err}"

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("d", [2, 8])
    def test_block_gradients_at_pinned_sizes(self, n, d):
        # inputs and all parameters of a full block, against central differences
        heads = 1 if d == 2 else 2
        params, loss_fn = train_harness.block_check(nn_ops.transformer_block, Rng(n * 17 + d), d, heads, n)
        report = train_harness.finite_diff_check(params, loss_fn)
        assert report.passed, f"N={n} d={d}: max rel err {report.max_rel_err}"
