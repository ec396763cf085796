"""A minimal reverse-mode tape over numpy float64 arrays.

Operations execute eagerly.  Each op computes its value, defines a closure
that pushes the output gradient back to its inputs, and returns
``Var(value, parents, backward)``; the ``Var`` constructor alone decides
whether that is recorded.  While gradients are enabled the node keeps its
parents and closure; inside ``no_grad()`` it keeps neither, which is what
the plain (non-training) forward paths use.  ``Tape.from_root(loss)``
collects the nodes reachable from a scalar loss in topological order and
``backward`` visits each exactly once in reverse.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

# recording is toggled per thread: worker threads that merge under no_grad
# must not disturb a training thread that is recording
_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "enabled", True)


@contextmanager
def no_grad():
    prev = grad_enabled()
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = prev


class Var:
    """A float64 array plus an accumulated gradient of the same shape.

    A node keeps ``parents`` and ``backward`` only if it has a parent and
    gradients are enabled; otherwise it is a constant or an unrecorded result.
    """

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        if type(value) is np.ndarray and value.dtype == np.float64:
            self.value = value
        else:
            self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        if parents and grad_enabled():
            self.parents = parents
            self._backward = backward
        else:
            self.parents = ()
            self._backward = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

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

    def __matmul__(self, other):
        return matmul(self, as_var(other))

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` (the inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g.reshape(shape)


def add(a: Var, b: Var) -> Var:
    def backward(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(g, b.value.shape))

    return Var(a.value + b.value, (a, b), backward)


def sub(a: Var, b: Var) -> Var:
    def backward(g):
        a.accumulate(_unbroadcast(g, a.value.shape))
        b.accumulate(_unbroadcast(-g, b.value.shape))

    return Var(a.value - b.value, (a, b), backward)


def mul(a: Var, b: Var) -> Var:
    def backward(g):
        a.accumulate(_unbroadcast(g * b.value, a.value.shape))
        b.accumulate(_unbroadcast(g * a.value, b.value.shape))

    return Var(a.value * b.value, (a, b), backward)


def neg(a: Var) -> Var:
    def backward(g):
        a.accumulate(-g)

    return Var(-a.value, (a,), backward)


def matmul(a: Var, b: Var) -> Var:
    """Batched matrix product with numpy broadcasting over leading axes.

    A batch of rows times a 2-D weight, (..., k) @ (k, m), runs as one flat
    (rows, k) @ (k, m) GEMM, and its weight gradient as one (k, rows) @
    (rows, m) GEMM instead of a batched product summed over the batch.  The
    reshape stays inside this op, so callers still see their own shapes."""
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError("matmul operands must have rank >= 2")
    if bv.ndim == 2 and av.ndim > 2:
        a2 = av.reshape(math.prod(av.shape[:-1]), av.shape[-1])

        def backward(g):
            g2 = g.reshape(a2.shape[0], bv.shape[1])
            a.accumulate((g2 @ bv.T).reshape(av.shape))
            b.accumulate(a2.T @ g2)

        return Var((a2 @ bv).reshape(*av.shape[:-1], bv.shape[1]), (a, b), backward)

    def backward(g):
        a.accumulate(_unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
        b.accumulate(_unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))

    return Var(av @ bv, (a, b), backward)


def transpose(a: Var, axes: tuple) -> Var:
    inverse = tuple(np.argsort(axes))

    def backward(g):
        a.accumulate(np.transpose(g, inverse))

    return Var(np.transpose(a.value, axes), (a,), backward)


def reshape(a: Var, shape: tuple) -> Var:
    def backward(g):
        a.accumulate(g.reshape(a.value.shape))

    return Var(a.value.reshape(shape), (a,), backward)


def stack(vars_: list, axis: int) -> Var:
    vars_ = [as_var(v) for v in vars_]

    def backward(g):
        for i, v in enumerate(vars_):
            v.accumulate(np.take(g, i, axis=axis))

    return Var(np.stack([v.value for v in vars_], axis=axis), tuple(vars_), backward)


def concat(vars_: list, axis: int) -> Var:
    vars_ = [as_var(v) for v in vars_]
    sizes = [v.value.shape[axis] for v in vars_]

    def backward(g):
        start = 0
        for v, size in zip(vars_, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, start + size)
            v.accumulate(g[tuple(index)])
            start += size

    return Var(np.concatenate([v.value for v in vars_], axis=axis), tuple(vars_), backward)


def take_index(a: Var, i: int, axis: int) -> Var:
    """Select index ``i`` along ``axis`` (drops that axis)."""

    def backward(g):
        full = np.zeros_like(a.value)
        index = [slice(None)] * a.value.ndim
        index[axis] = i
        full[tuple(index)] = g
        a.accumulate(full)

    return Var(np.take(a.value, i, axis=axis), (a,), backward)


def sum_all(a: Var) -> Var:
    def backward(g):
        a.accumulate(np.broadcast_to(g, a.value.shape).copy())

    return Var(a.value.sum(), (a,), backward)


def mean_all(a: Var) -> Var:
    n = a.value.size

    def backward(g):
        a.accumulate(np.broadcast_to(g / n, a.value.shape).copy())

    return Var(a.value.mean(), (a,), backward)


def relu(a: Var) -> Var:
    def backward(g):
        a.accumulate(g * (a.value > 0.0))

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

    The forward builds 1 + exp(-2u) in one scratch buffer, which the
    backward reads for s; the cube is x*x*x because numpy's generic float
    pow is an order of magnitude slower.  ``a.value`` is only read."""
    x = a.value
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= _GELU_C
    t += x
    t *= -2.0 * _GELU_K
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0

    def backward(g):
        s = 1.0 / t
        local = np.multiply(x, x)
        local *= 3.0 * _GELU_C
        local += 1.0
        local *= 2.0 * _GELU_K
        local *= x
        local *= s
        local *= 1.0 - s
        local += s
        local *= g
        a.accumulate(local)

    return Var(x / t, (a,), backward)


def softmax(a: Var) -> Var:
    """Row softmax over the last axis (max-shifted for stability)."""
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        a.accumulate(s * (g - dot))

    return Var(s, (a,), backward)


def layer_norm(a: Var, gamma: Var, beta: Var, eps: float = 1e-5) -> Var:
    """Normalize over the last axis with biased variance, then scale and shift.

    One fresh array is centred, its squares summed by ``np.einsum`` and then
    normalized in place; the backward reuses it and the inverse deviation."""
    x = a.value
    d = x.shape[-1]
    xh = x - x.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", xh, xh)[..., None]
    var /= d
    var += eps
    inv = 1.0 / np.sqrt(var)
    xh *= inv

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gamma.accumulate(_unbroadcast((g * xh).sum(axis=lead), gamma.value.shape))
        beta.accumulate(_unbroadcast(g.sum(axis=lead), beta.value.shape))
        dxh = g * gamma.value
        term = dxh.sum(axis=-1, keepdims=True) + xh * (dxh * xh).sum(axis=-1, keepdims=True)
        a.accumulate(inv / d * (d * dxh - term))

    out = xh * gamma.value
    out += beta.value
    return Var(out, (a, gamma, beta), backward)


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
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def backward_from(self, root: Var) -> None:
        """Accumulate d root / d node into every leaf.  An interior node's
        gradient is dropped once it has gone to the node's parents."""
        root.accumulate(np.ones_like(root.value))
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def backward(loss: Var) -> Tape:
    """Reverse-mode gradients of a scalar loss; returns the walked tape."""
    if loss.value.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.value.shape}")
    tape = Tape.from_root(loss)
    tape.backward_from(loss)
    return tape
