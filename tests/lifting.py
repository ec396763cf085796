"""Evaluate the package's Var-in, Var-out functions on plain arrays: lift the
arguments to constants, so nothing is recorded, and return the value."""

from dataclasses import is_dataclass

from labelfuse.nn_ops import map_tensors
from labelfuse.tape import as_var


def lift(params):
    """A copy of params dataclass ``params`` with every tensor held as a constant."""
    return map_tensors(params, lambda _name, t: as_var(t))


def unrecorded(fn, *args, **kwargs):
    """The value of ``fn`` on ``args`` (arrays, floats or params dataclasses,
    each lifted to constants); ``kwargs`` pass as they are."""
    lifted = [lift(a) if is_dataclass(a) else as_var(a) for a in args]
    return fn(*lifted, **kwargs).value
