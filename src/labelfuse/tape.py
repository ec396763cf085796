"""A minimal reverse-mode tape over numpy float64 arrays.

Operations execute eagerly.  Each op computes its value, defines a closure
that maps the output gradient to one gradient per input, and returns
``Var(value, parents, backward)``; the ``Var`` constructor alone decides
whether that is recorded.  As in PyTorch autograd, a result needs a gradient
only when an input does: ``Var(x)`` is a leaf that needs one, ``as_var(x)``
a constant, and only results that need one keep parents and closure, so a
merge over constants records nothing.  ``Tape.from_root(loss)`` collects
the nodes that need a gradient in topological order and ``backward`` visits
each exactly once in reverse.  As with PyTorch's and JAX's backward rules,
a closure returns one gradient per parent (``None`` for one that needs none)
and only the tape sums them: no op writes into a gradient, which may be a view.

A training step is bound by numpy passes over small arrays, not by FLOPs,
so the ops keep their passes few: ``matmul`` runs a weight product as one
flat GEMM and folds an optional bias into it, every op with several
operands skips the gradients of those that need none, and ``softmax`` and
``layer_norm`` reduce their short last axis without numpy's generic
reductions.  What the model can compose from ops is not an op: a layer
norm's gain and shift are a ``mul`` and an ``add`` after ``layer_norm``.
Every module-level function here is either a tape op or in the benchmark
tracer's skip list, so helpers are nested inside their op.
"""

from __future__ import annotations

import math

import numpy as np


class Var:
    """A float64 array plus the summed gradient of the same shape.  A
    ``Var(value)`` leaf needs a gradient, an ``as_var`` constant does not,
    and an op's result needs one (and keeps ``parents`` and ``backward``)
    only if some parent does."""

    __slots__ = ("value", "grad", "needs_grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        if type(value) is np.ndarray and value.dtype == np.float64:
            self.value = value
        else:
            self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        for p in parents:
            if p.needs_grad:
                self.needs_grad, self.parents, self._backward = True, parents, backward
                break
        else:
            self.needs_grad, self.parents, self._backward = not parents, (), None

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    # arithmetic sugar; scalars and arrays are lifted to constants
    def __add__(self, other):
        return add(self, as_var(other))

    def __radd__(self, other):
        return add(as_var(other), self)

    def __sub__(self, other):
        return sub(self, as_var(other))

    def __rsub__(self, other):
        return sub(as_var(other), self)

    def __mul__(self, other):
        return mul(self, as_var(other))

    def __rmul__(self, other):
        return mul(as_var(other), self)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def as_var(x) -> Var:
    """``x`` if it is a Var, else ``x`` as a constant, which takes no gradient."""
    if not isinstance(x, Var):
        x = Var(x)
        x.needs_grad = False
    return x


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` over the leading axes that numpy
    broadcasting added.  Only leading-axis broadcasting is supported: no op
    broadcasts an operand's size-1 axis, and a gradient for one fails in
    ``reshape`` with a ValueError."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g.reshape(shape)


def add(a: Var, b: Var) -> Var:
    def backward(g):
        return (_unbroadcast(g, a.value.shape) if a.needs_grad else None,
                _unbroadcast(g, b.value.shape) if b.needs_grad else None)

    return Var(a.value + b.value, (a, b), backward)


def sub(a: Var, b: Var) -> Var:
    def backward(g):
        return (_unbroadcast(g, a.value.shape) if a.needs_grad else None,
                _unbroadcast(-g, b.value.shape) if b.needs_grad else None)

    return Var(a.value - b.value, (a, b), backward)


def mul(a: Var, b: Var) -> Var:
    def backward(g):
        return (_unbroadcast(g * b.value, a.value.shape) if a.needs_grad else None,
                _unbroadcast(g * a.value, b.value.shape) if b.needs_grad else None)

    return Var(a.value * b.value, (a, b), backward)


def neg(a: Var) -> Var:
    def backward(g):
        return (-g,)

    return Var(-a.value, (a,), backward)


def matmul(a: Var, b: Var, bias: Var | None = None) -> Var:
    """Batched matrix product with numpy broadcasting over leading axes, plus
    an optional bias over the last output axis.

    Two weight shapes run as one flat GEMM; the reshapes stay inside this op,
    so callers still see their own shapes:

    * rows times a 2-D weight, (..., k) @ (k, m), including a plain (r, k)
      matrix, is one (rows, k) @ (k, m) GEMM.  Its backward is one GEMM for
      the input and one (k, rows) @ (rows, m) GEMM for the weight, instead
      of a batched product summed over the batch.
    * head-stacked weights, (B, 1, n, k) @ (h, k, m) -> (B, h, n, m), are one
      (B n, k) @ (k, h m) GEMM over the heads laid side by side; the result
      is a (B, h, n, m) view of it.  The input gradient is one GEMM that also
      sums over the heads, the weight gradient one more.

    ``bias`` (shape (m,), only with a 2-D weight) is added in place to the
    fresh product and its gradient is one row sum, so a layer ``x W + b``
    is a single node.  Every other shape pair uses numpy's batched matmul."""
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    if bias is not None and (bv.ndim != 2 or bias.value.shape != bv.shape[-1:]):
        raise ValueError(f"matmul bias must have shape ({bv.shape[-1]},) and the weight rank 2")
    if bv.ndim == 2:
        rows, m = math.prod(av.shape[:-1]), bv.shape[1]
        a2 = av.reshape(rows, av.shape[-1])
        out = a2 @ bv
        if bias is not None:
            out += bias.value

        def backward(g):
            g2 = g.reshape(rows, m)
            grads = ((g2 @ bv.T).reshape(av.shape) if a.needs_grad else None, a2.T @ g2 if b.needs_grad else None)
            return grads if bias is None else (*grads, g2.sum(axis=0) if bias.needs_grad else None)

        parents = (a, b) if bias is None else (a, b, bias)
        return Var(out.reshape(*av.shape[:-1], m), parents, backward)

    if bv.ndim == 3 and av.ndim == 4 and av.shape[1] == 1:
        batch, _, n, k = av.shape
        h, m = bv.shape[0], bv.shape[2]
        a2 = av.reshape(batch * n, k)
        w2 = bv.transpose(1, 0, 2).reshape(k, h * m)

        def backward(g):
            g2 = g.transpose(0, 2, 1, 3).reshape(batch * n, h * m)
            return ((g2 @ w2.T).reshape(av.shape) if a.needs_grad else None,
                    (a2.T @ g2).reshape(k, h, m).transpose(1, 0, 2) if b.needs_grad else None)

        out = (a2 @ w2).reshape(batch, n, h, m).transpose(0, 2, 1, 3)
        return Var(out, (a, b), backward)

    def backward(g):
        return (_unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape) if a.needs_grad else None,
                _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape) if b.needs_grad else None)

    return Var(av @ bv, (a, b), backward)


def transpose(a: Var, axes: tuple) -> Var:
    def backward(g):
        return (np.transpose(g, np.argsort(axes)),)

    return Var(np.transpose(a.value, axes), (a,), backward)


def reshape(a: Var, shape: tuple) -> Var:
    def backward(g):
        return (g.reshape(a.value.shape),)

    return Var(a.value.reshape(shape), (a,), backward)


def concat(vars_: list, axis: int) -> Var:
    vars_ = [as_var(v) for v in vars_]
    splits = np.cumsum([v.value.shape[axis] for v in vars_])[:-1]

    def backward(g):
        return tuple(part if v.needs_grad else None for v, part in zip(vars_, np.split(g, splits, axis)))

    return Var(np.concatenate([v.value for v in vars_], axis=axis), tuple(vars_), backward)


def sum_all(a: Var) -> Var:
    def backward(g):
        return (np.broadcast_to(g, a.value.shape),)

    return Var(a.value.sum(), (a,), backward)


def mean_all(a: Var) -> Var:
    n = a.value.size

    def backward(g):
        return (np.broadcast_to(g / n, a.value.shape),)

    return Var(a.value.mean(), (a,), backward)


def relu(a: Var) -> Var:
    def backward(g):
        return (g * (a.value > 0.0),)

    return Var(np.maximum(a.value, 0.0), (a,), backward)


_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


def gelu(a: Var) -> Var:
    """Elementwise GeLU, tanh approximation, evaluated as x * sigma(2u) with
    u = K (x + C x^3): in exact math 0.5 (1 + tanh u) = sigma(2u), so
    gelu(x) = x / (1 + exp(-2u)).  Unlike 1 + tanh u, which rounds to 0 in
    the negative tail, this keeps full relative accuracy there; below about
    x = -21.2, exp(-2u) overflows to inf (silenced) and x / inf gives -0.
    The backward differentiates the approximation itself,
    s + 2 x s (1 - s) K (1 + 3 C x^2) with s = sigma(2u), so gradient checks
    are exact.

    The forward builds t = 1 + exp(-2u) in one scratch buffer, with the
    constants folded so that -2u = x (-2KC x^2 - 2K) is three passes after
    the square (numpy's generic float pow is an order of magnitude slower
    than x*x).  A result that needs no gradient is written over t.  One
    that needs one keeps t and its value y = x s for the backward, which
    writes the derivative as (1 + (2K + 6KC x^2) (x - y)) / t, as
    x - y = x (1 - s) and s = 1/t: eight passes and two fresh arrays.
    ``a.value`` is only read."""
    x = a.value
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= -2.0 * _GELU_K * _GELU_C
    t -= 2.0 * _GELU_K
    t *= x
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    if not a.needs_grad:
        return Var(np.divide(x, t, out=t), (a,))
    y = x / t

    def backward(g):
        local = np.multiply(x, x)
        local *= 6.0 * _GELU_K * _GELU_C
        local += 2.0 * _GELU_K
        local *= x - y  # x (1 - s)
        local += 1.0
        local /= t
        local *= g
        return (local,)

    return Var(y, (a,), backward)


def softmax(a: Var) -> Var:
    """Row softmax over the last axis (max-shifted for stability).

    The rows are short (one score per label token), where numpy's generic
    max and sum reductions cost several times more than the arithmetic.  So
    the forward's max and sum and the backward's row dot are each a
    left-to-right fold over the columns, one vectorised pass per column.
    For rows of fewer than 8 entries that gives the same bits as numpy's
    reduction; longer rows may differ from it by rounding."""
    x = a.value

    def rows(t, ufunc):
        acc = t[..., 0].copy()
        for j in range(1, t.shape[-1]):
            ufunc(acc, t[..., j], out=acc)
        return acc[..., None]

    s = x - rows(x, np.maximum)
    np.exp(s, out=s)
    s /= rows(s, np.add)

    def backward(g):
        dx = g - rows(g * s, np.add)
        dx *= s
        return (dx,)

    return Var(s, (a,), backward)


def layer_norm(a: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis with biased variance.  A layer norm's
    gain and shift are the caller's ``mul`` and ``add`` on the result.

    One fresh array is centred, its squares summed by ``np.einsum`` and then
    normalized in place; the backward reuses it and the inverse deviation.
    Every per-row sum, the mean and the backward's two row sums included, is
    an ``np.einsum``, which on rows of a few dozen entries costs a fraction
    of numpy's generic reduction."""
    x = a.value
    d = x.shape[-1]
    mean = np.einsum("...i->...", x)[..., None]
    mean /= d
    xh = x - mean
    var = np.einsum("...i,...i->...", xh, xh)[..., None]
    var /= d
    var += eps
    inv = 1.0 / np.sqrt(var)
    xh *= inv

    def backward(g):
        term = np.einsum("...i->...", g)[..., None] + xh * np.einsum("...i,...i->...", g, xh)[..., None]
        return (inv / d * (d * g - term),)

    return Var(xh, (a,), backward)


class Tape:
    """The nodes of one recorded forward pass, topologically ordered."""

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def from_root(cls, root: Var) -> "Tape":
        order: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if parent.needs_grad and id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def backward_from(self, root: Var) -> None:
        """Add d root / d leaf into every leaf's ``grad``.  The closures return
        their parents' gradients, summed here alone, out of place, into the
        parents that need one.  An interior node's gradient is dropped once
        it has gone to the node's parents."""
        if root.needs_grad:
            ones = np.ones_like(root.value)
            root.grad = ones if root.grad is None else root.grad + ones
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                for p, g in zip(node.parents, node._backward(node.grad)):
                    if p.needs_grad:
                        p.grad = g if p.grad is None else p.grad + g
                node.grad = None


def backward(loss: Var) -> Tape:
    """Reverse-mode gradients of a scalar loss; returns the walked tape."""
    if loss.value.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.value.shape}")
    tape = Tape.from_root(loss)
    tape.backward_from(loss)
    return tape
