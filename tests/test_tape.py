import importlib.util
import inspect
import itertools
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from labelfuse import fusion, tape
from labelfuse.tape import Tape, Var, as_var, backward
from labelfuse.train_harness import finite_diff_check, make_random_label_set
from lifting import unrecorded
from oracles import gelu_scalar


# every tape op, called on (2, 3), (2, 3), (3,), (3,) and (3, 2) Vars
TAPE_OPS = {
    "add": lambda a, b, c, d, e: tape.add(a, b),
    "sub": lambda a, b, c, d, e: tape.sub(a, b),
    "mul": lambda a, b, c, d, e: tape.mul(a, b),
    "neg": lambda a, b, c, d, e: tape.neg(a),
    "matmul": lambda a, b, c, d, e: tape.matmul(a, e),
    "transpose": lambda a, b, c, d, e: tape.transpose(a, (1, 0)),
    "reshape": lambda a, b, c, d, e: tape.reshape(a, (6,)),
    "concat": lambda a, b, c, d, e: tape.concat([a, b], axis=1),
    "sum_all": lambda a, b, c, d, e: tape.sum_all(a),
    "mean_all": lambda a, b, c, d, e: tape.mean_all(a),
    "relu": lambda a, b, c, d, e: tape.relu(a),
    "gelu": lambda a, b, c, d, e: tape.gelu(a),
    "softmax": lambda a, b, c, d, e: tape.softmax(a),
    "layer_norm": lambda a, b, c, d, e: tape.layer_norm(a),
}


class TestBackwardBasics:
    def test_repr_names_the_shape(self):
        # pytest's failure messages show a Var this way
        assert repr(Var(np.zeros((2, 3)))) == "Var(shape=(2, 3))"

    def test_loss_is_parameter_itself(self):
        x = Var(np.array(2.5))
        backward(x)
        assert x.grad == 1.0

    def test_sum_of_two_parameters(self):
        a, b = Var(np.array(1.0)), Var(np.array(4.0))
        loss = a + b
        backward(loss)
        assert a.grad == 1.0 and b.grad == 1.0

    def test_diamond_graph_accumulates(self):
        # z = x*y + x: dz/dx = y + 1, dz/dy = x
        x, y = Var(np.array(3.0)), Var(np.array(5.0))
        loss = x * y + x
        backward(loss)
        assert x.grad == 6.0
        assert y.grad == 3.0

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(Var(np.zeros(3)))

    def test_unused_parameter_keeps_no_grad(self):
        used, unused = Var(np.array(1.0)), Var(np.array(1.0))
        backward(used * 2.0)
        assert used.grad == 2.0
        assert unused.grad is None

    def test_each_node_visited_once(self):
        x = Var(np.array(2.0))
        y = x * x
        loss = y + y  # y consumed twice; still one backward visit
        t = Tape.from_root(loss)
        assert len(t.nodes) == len({id(n) for n in t.nodes})
        t.backward_from(loss)
        assert x.grad == 8.0  # d(2x^2)/dx

    def test_only_leaves_keep_grads(self):
        x, w = Var(np.array([1.0, -2.0])), Var(np.array([3.0, 0.5]))
        y = tape.gelu(x * w)
        loss = tape.sum_all(y + x)
        t = backward(loss)
        assert x.grad is not None and w.grad is not None
        interior = [node for node in t.nodes if node._backward is not None]
        assert y in interior and loss in interior
        assert all(node.grad is None for node in interior)

    def test_fresh_graphs_accumulate_on_shared_leaves(self):
        x = Var(np.array(1.0))
        backward(x * 3.0)
        backward(x * 3.0)  # a second forward pass over the same leaf
        assert x.grad == 6.0


class TestNoGrad:
    """Whether a Var takes a gradient is a property of the data: ``Var(x)``
    is a leaf that needs one, ``as_var(x)`` a constant that needs none, and
    an op's result needs one, and is recorded, only when an argument does.
    The test names predate the rule: "grad enabled" now means that some
    argument needs a gradient, and "no grad" that none does."""

    def test_no_parents_recorded(self):
        a = as_var(np.ones(3))
        out = a * 2.0 + 1.0
        assert not a.needs_grad and not out.needs_grad
        assert out.parents == ()
        assert out._backward is None

    def test_worker_thread_no_grad_does_not_leak(self, monkeypatch):
        # a merge runs on constants, and its tiles on worker threads; a
        # tlam_merge(threads=2) running on other threads leaves this
        # thread's recording intact
        from concurrent.futures import ThreadPoolExecutor

        labels = make_random_label_set(2, 4, 4, seed=3)
        p = fusion.init_merger_params(labels, fusion.TLAM, d=8, n_blocks=1, heads=2, seed=4)
        monkeypatch.setattr(fusion, "TILE_BYTES", 4 * fusion.pixel_bytes(fusion.TLAM, 2, 8))
        a = Var(np.ones(2))
        with ThreadPoolExecutor(max_workers=2) as pool:
            merges = [pool.submit(fusion.tlam_merge, labels, p, 2) for _ in range(8)]
            outs = [a * 3.0 for _ in range(64)]
            assert all(m.result().shape == (4, 4, 8) for m in merges)
        assert all(out.needs_grad and out.parents[0] is a for out in outs)
        backward(tape.sum_all(outs[-1]))
        assert np.array_equal(a.grad, np.full(2, 3.0))

    def test_values_match_recorded_mode(self):
        a = Var(np.arange(4.0))
        rec = tape.gelu(a)
        plain = tape.gelu(as_var(np.arange(4.0)))
        assert rec.needs_grad and not plain.needs_grad
        assert np.array_equal(rec.value, plain.value)

    def test_every_op_covered(self):
        ops = {
            name for name, fn in vars(tape).items()
            if inspect.isfunction(fn) and fn.__annotations__.get("return") == "Var" and name != "as_var"
        }
        assert ops == set(TAPE_OPS)

    @pytest.mark.parametrize("name", sorted(TAPE_OPS))
    def test_every_op_records_only_while_grad_enabled(self, name):
        # constant arguments: an unrecorded constant with the bytes that
        # leaf arguments give
        rng = np.random.default_rng(7)
        args = [Var(rng.standard_normal(shape)) for shape in ((2, 3), (2, 3), (3,), (3,), (3, 2))]
        plain = TAPE_OPS[name](*[as_var(a.value.copy()) for a in args])
        assert not plain.needs_grad
        assert plain.parents == ()
        assert plain._backward is None
        recorded = TAPE_OPS[name](*args)
        assert recorded.needs_grad
        assert recorded.parents and all(any(p is a for a in args) for p in recorded.parents)
        assert recorded._backward is not None
        assert recorded.value.tobytes() == plain.value.tobytes()

    @pytest.mark.parametrize("name", sorted(TAPE_OPS))
    def test_constant_parents_take_no_gradient(self, name):
        # one argument at a time is the leaf, the rest constants: the
        # constants keep grad None after backward, and the leaf gets the
        # bytes it gets when every argument is a leaf
        rng = np.random.default_rng(8)
        values = [rng.standard_normal(shape) for shape in ((2, 3), (2, 3), (3,), (3,), (3, 2))]
        leaves = [Var(v) for v in values]
        out = TAPE_OPS[name](*leaves)
        weights = rng.standard_normal(out.shape)
        backward(tape.sum_all(out * weights))
        for i in range(len(values)):
            args = [Var(v) if j == i else as_var(v) for j, v in enumerate(values)]
            out = TAPE_OPS[name](*args)
            assert out.needs_grad == (leaves[i].grad is not None)
            if not out.needs_grad:
                continue
            tape_ = backward(tape.sum_all(out * weights))
            assert all(node.needs_grad for node in tape_.nodes)
            assert all(a.grad is None for j, a in enumerate(args) if j != i)
            assert args[i].grad.tobytes() == leaves[i].grad.tobytes()

    @pytest.mark.parametrize("op, sign", [
        (lambda x, c: x - c, 1.0),
        (lambda x, c: c - x, -1.0),
        (lambda x, c: x + c, 1.0),
        (lambda x, c: c + x, 1.0),
    ], ids=["x-c", "c-x", "x+c", "c+x"])
    def test_add_and_sub_build_no_gradient_for_a_constant(self, unbroadcast_calls, op, sign):
        # the constant operand's gradient is never summed down to its shape
        x = Var(np.ones((4, 3)))
        backward(tape.mean_all(op(x, as_var(np.full((4, 3), 2.0)))))
        assert unbroadcast_calls == [((4, 3), (4, 3))]
        assert np.array_equal(x.grad, np.full((4, 3), sign / 12))


class TestGelu:
    def test_input_bytes_unchanged(self):
        base = np.random.default_rng(3).uniform(-8.0, 8.0, (5, 7))
        before = base.tobytes()
        for value in (base, base.T, base[::2, 1:]):  # contiguous and strided views
            x = Var(value)
            tape.gelu(as_var(value))
            assert base.tobytes() == before
            y = tape.gelu(x)
            assert base.tobytes() == before
            backward(tape.sum_all(y * 1.5))
            assert base.tobytes() == before
            assert x.grad.shape == value.shape

    @pytest.mark.parametrize("x", [-7.0, -3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.5, 7.0])
    def test_zero_d_and_scalar_inputs_match_oracle(self, x):
        expect = gelu_scalar(x)
        for value in (np.array(x), np.float64(x), x):
            v = Var(value)
            assert v.value.ndim == 0
            assert tape.gelu(v).item() == pytest.approx(expect, rel=1e-12, abs=1e-15)
            backward(tape.gelu(v))
            assert v.grad.shape == () and np.isfinite(v.grad)
        assert unrecorded(tape.gelu, x) == pytest.approx(expect, rel=1e-12, abs=1e-15)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4),
            elements=st.floats(-20.0, 20.0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_and_finite_differences(self, x):
        y = tape.gelu(Var(x)).value
        assert y.shape == x.shape
        for xi, yi in zip(x.flat, y.flat):
            assert yi == pytest.approx(gelu_scalar(float(xi)), rel=1e-12, abs=1e-15)
        # the "+ v" term keeps the loss of order |x|; the negative tail on
        # its own is test_finite_differences_in_negative_tail
        w = np.linspace(0.5, 1.5, x.size).reshape(x.shape)
        report = finite_diff_check({"x": x}, lambda p: tape.sum_all((tape.gelu(p["x"]) + p["x"]) * w))
        assert report.passed, report.failures[:3]

    def test_finite_differences_in_negative_tail(self):
        # gelu(-6) is about -8e-11: a form that rounds at the scale of |x|,
        # as 0.5 x (1 + tanh u) does, fails this check
        report = finite_diff_check({"x": np.array([-6.0])}, lambda p: tape.sum_all(tape.gelu(p["x"]) * 0.5))
        assert report.passed, report.failures

    def test_matches_decimal_reference(self):
        xs = np.linspace(-30.0, 20.0, 5001)
        y = tape.gelu(Var(xs)).value
        for x, yi in zip(xs, y):
            ref = gelu_decimal(float(x))
            if yi == 0.0:
                # exp(-2u) overflowed: only where the true value is negligible
                assert abs(ref) < Decimal("1e-300"), x
            else:
                # relative accuracy holds even below 1e-300, down to where
                # exp(-2u) overflows (about x = -21.2)
                assert abs((Decimal(float(yi)) - ref) / ref) <= Decimal("1e-12"), x

    def test_far_tail_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = Var(np.array([-25.0, -25.0]))
            y = tape.gelu(x)
            backward(tape.sum_all(y))
        assert np.all(y.value == 0.0) and np.all(np.signbit(y.value))
        assert np.all(x.grad == 0.0)


# pi to 62 significant digits, for the 60-digit GeLU reference
_PI = Decimal("3.1415926535897932384626433832795028841971693993751058209749445923")


def gelu_decimal(x: float) -> Decimal:
    """0.5 x (1 + tanh u) = x / (1 + exp(-2u)), u = sqrt(2/pi) (x + 0.044715 x^3),
    in 60-digit decimal arithmetic (the second form does not cancel)."""
    with localcontext() as ctx:
        ctx.prec = 60
        xd = Decimal(x)
        u = (2 / _PI).sqrt() * (xd + Decimal("0.044715") * xd**3)
        return xd / (1 + (-2 * u).exp())


class TestFlatMatmul:
    """(..., k) @ (k, m) with an optional bias, and head-stacked
    (B, 1, n, k) @ (h, k, m), run as one flat GEMM; they must agree with
    numpy's broadcasting matmul and with the broadcasting gradient formulas."""

    @given(
        batch=hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3),
        k=st.integers(1, 6),
        m=st.integers(1, 6),
        with_bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=(2, 0), k=3, m=2, with_bias=True, seed=0)
    @example(batch=(0, 3, 1), k=1, m=4, with_bias=False, seed=1)
    @example(batch=(4,), k=3, m=5, with_bias=True, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_matches_broadcasting_matmul(self, batch, k, m, with_bias, seed):
        rng = np.random.default_rng(seed)
        a_val = rng.standard_normal((*batch, k))
        b_val = rng.standard_normal((k, m))
        c_val = rng.standard_normal(m)
        g = rng.standard_normal((*batch, m))
        a, b, c = Var(a_val), Var(b_val), Var(c_val)
        out = tape.matmul(a, b, c) if with_bias else tape.matmul(a, b)
        assert out.shape == (*batch, m)
        want = np.matmul(a_val, b_val) + c_val if with_bias else np.matmul(a_val, b_val)
        close(out.value, want)
        backward(tape.sum_all(out * g))
        close(a.grad, np.matmul(g, b_val.T))
        lead = tuple(range(len(batch)))
        close(b.grad, np.matmul(np.swapaxes(a_val, -1, -2), g).sum(axis=lead[:-1]))
        if with_bias:
            close(c.grad, g.sum(axis=lead))
        else:
            assert c.grad is None

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("heads", [1, 3])
    def test_head_stacked_weights(self, batch, heads):
        rng = np.random.default_rng(10 * batch + heads)
        n, k, m = 4, 5, 2
        a_val = rng.standard_normal((batch, 1, n, k))
        w_val = rng.standard_normal((heads, k, m))
        g = rng.standard_normal((batch, heads, n, m))
        a, w = Var(a_val), Var(w_val)
        out = tape.matmul(a, w)
        assert out.shape == (batch, heads, n, m)
        close(out.value, np.matmul(a_val, w_val))
        backward(tape.sum_all(out * g))
        close(a.grad, np.matmul(g, np.swapaxes(w_val, -1, -2)).sum(axis=1, keepdims=True))
        close(w.grad, np.matmul(np.swapaxes(a_val, -1, -2), g).sum(axis=0))

    @pytest.mark.parametrize(
        "a_shape, b_shape, bias",
        [((2, 4, 3), (3, 5), True), ((2, 1, 4, 3), (3, 3, 5), False), ((2, 3, 4, 3), (2, 3, 3, 5), False)],
    )
    def test_constant_operand_takes_no_gradient(self, a_shape, b_shape, bias):
        # the three shape paths: a 2-D weight with a bias, head-stacked
        # weights and numpy's batched matmul
        rng = np.random.default_rng(len(a_shape) + len(b_shape))
        values = [rng.standard_normal(a_shape), rng.standard_normal(b_shape)] + [rng.standard_normal(5)] * bias
        leaves = [Var(v) for v in values]
        weights = rng.standard_normal(tape.matmul(*leaves).shape)
        backward(tape.sum_all(tape.matmul(*leaves) * weights))
        for i in range(len(values)):
            args = [Var(v) if j == i else as_var(v) for j, v in enumerate(values)]
            backward(tape.sum_all(tape.matmul(*args) * weights))
            assert all(a.grad is None for j, a in enumerate(args) if j != i)
            assert args[i].grad.tobytes() == leaves[i].grad.tobytes()

    @pytest.mark.parametrize("w_shape, b_shape", [((3, 2), (3,)), ((3, 2), (1, 2)), ((1, 3, 2), (2,))])
    def test_bias_shape_checked(self, w_shape, b_shape):
        a = Var(np.ones((4, 3)))
        with pytest.raises(ValueError, match="bias"):
            tape.matmul(a, Var(np.ones(w_shape)), Var(np.ones(b_shape)))

    @pytest.mark.parametrize("a_shape, b_shape", [((3,), (3, 2)), ((4, 3), (3,))])
    def test_rank_one_operand_rejected(self, a_shape, b_shape):
        with pytest.raises(ValueError, match="matmul operands must have rank >= 2"):
            tape.matmul(Var(np.ones(a_shape)), Var(np.ones(b_shape)))


class TestAccumulate:
    def test_add_of_a_node_to_itself_gives_twice_the_gradient(self):
        x = Var(np.array([1.0, -2.0, 3.0]))
        g = np.array([0.5, 1.5, -2.0])
        backward(tape.sum_all((x + x) * g))
        assert np.array_equal(x.grad, 2.0 * g)

    @pytest.mark.parametrize("name", sorted(TAPE_OPS))
    def test_backward_returns_one_gradient_per_parent(self, name):
        # under every mix of leaf and constant arguments, a recorded node's
        # closure returns one gradient per parent, of that parent's shape and
        # None exactly for the constants, and leaves its own gradient as it was
        rng = np.random.default_rng(9)
        values = [rng.standard_normal(shape) for shape in ((2, 3), (2, 3), (3,), (3,), (3, 2))]
        for leaf in itertools.product((True, False), repeat=len(values)):
            out = TAPE_OPS[name](*[Var(v) if is_leaf else as_var(v) for v, is_leaf in zip(values, leaf)])
            if not out.needs_grad:
                continue
            g = rng.standard_normal(out.shape)
            before = g.tobytes()
            grads = out._backward(g)
            assert g.tobytes() == before
            assert len(grads) == len(out.parents)
            for parent, grad in zip(out.parents, grads):
                assert (grad is None) == (not parent.needs_grad)
                assert grad is None or np.shape(grad) == parent.shape


class TestSoftmax:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_rows_and_old_formula(self, n):
        rng = np.random.default_rng(n)
        x_val = 3.0 * rng.standard_normal((4, 3, n))
        g = rng.standard_normal((4, 3, n))
        x = Var(x_val)
        out = tape.softmax(x)
        assert np.abs(out.value.sum(axis=-1) - 1.0).max() <= 1e-15
        e = np.exp(x_val - x_val.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        assert np.abs(out.value - s).max() <= 1e-15
        backward(tape.sum_all(out * g))
        want = s * (g - (g * s).sum(axis=-1, keepdims=True))
        assert np.abs(x.grad - want).max() <= 1e-15


class TestTracerRule:
    """The benchmark tracer wraps every module-level function of ``tape`` and
    names a stage only for the ops it knows, so a module-level helper in
    ``tape`` lands in no reported figure.  Helpers are nested in their op."""

    def test_module_functions_are_ops_or_skipped(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        functions = {
            name for name, fn in vars(tape).items()
            if inspect.isfunction(fn) and fn.__module__ == tape.__name__
        }
        # grad_enabled and no_grad are deleted from tape but still named in
        # the tracer's SKIP, and take_index and stack in its TAPE_OPS: stale
        # entries until the next change to the benchmark removes them
        stale = {"grad_enabled", "no_grad", "take_index", "stack"}
        assert functions | stale == set(tracer.TAPE_OPS) | tracer.SKIP["tape"] | {"backward"}


def close(got, want):
    """Agreement to 1e-12 relative to the largest entry of ``want``."""
    assert got.shape == want.shape
    scale = max(np.abs(want).max(initial=0.0), np.finfo(float).tiny)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale


class TestBroadcasting:
    def test_bias_add_gradient_sums_over_batch(self):
        x = Var(np.ones((4, 3)))
        b = Var(np.zeros(3))
        backward(tape.sum_all(x + b))
        assert np.array_equal(b.grad, np.full(3, 4.0))

    def test_matmul_parameter_broadcast(self):
        # (B, 1, N, d) @ (h, d, dh): grads unbroadcast to both operands
        x = Var(np.random.default_rng(0).standard_normal((2, 1, 3, 4)))
        w = Var(np.random.default_rng(1).standard_normal((5, 4, 2)))
        backward(tape.sum_all(tape.matmul(x, w)))
        assert x.grad.shape == (2, 1, 3, 4)
        assert w.grad.shape == (5, 4, 2)

    def test_scalar_constant_multiply(self):
        x = Var(np.full((2, 2), 3.0))
        backward(tape.sum_all(x * 0.5))
        assert np.allclose(x.grad, 0.5)

    def test_size_one_axis_broadcast_fails_loudly(self):
        # only leading axes broadcast: the gradient of a (1, 3) operand
        # added to a (4, 3) one is refused, never summed wrongly
        x, b = Var(np.ones((4, 3))), Var(np.zeros((1, 3)))
        with pytest.raises(ValueError, match=r"cannot reshape array of size 12 into shape \(1,\s?3\)"):
            backward(tape.sum_all(x + b))


class TestShapeOps:
    def test_concat_splits_gradient(self):
        a, b = Var(np.ones((2, 2))), Var(np.ones((2, 3)))
        out = tape.concat([a, b], axis=-1)
        backward(tape.sum_all(out * np.arange(10.0).reshape(2, 5)))
        assert np.array_equal(a.grad, np.array([[0.0, 1.0], [5.0, 6.0]]))
        assert np.array_equal(b.grad, np.array([[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]]))

    def test_transpose_reshape_inverse(self):
        x = Var(np.arange(6.0).reshape(2, 3))
        y = tape.reshape(tape.transpose(x, (1, 0)), (6,))
        backward(tape.sum_all(y * np.arange(6.0)))
        # gradient lands back in the original layout
        assert x.grad.shape == (2, 3)
        assert x.grad[0, 1] == 2.0  # element (1,0) of the transposed view
