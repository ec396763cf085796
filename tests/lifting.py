"""Evaluate the package's Var-in, Var-out functions on plain arrays: lift the
arguments to Vars, run without recording and return the value."""

from dataclasses import is_dataclass

from labelfuse.nn_ops import map_tensors
from labelfuse.tape import Var, no_grad


def lift(params):
    """A copy of params dataclass ``params`` with every tensor held as a Var."""
    return map_tensors(params, lambda _name, t: Var(t))


def unrecorded(fn, *args, **kwargs):
    """The value of ``fn`` on ``args`` (arrays, floats or params dataclasses,
    each lifted to Vars), evaluated under ``no_grad``; ``kwargs`` pass as they are."""
    lifted = [lift(a) if is_dataclass(a) else Var(a) for a in args]
    with no_grad():
        return fn(*lifted, **kwargs).value
