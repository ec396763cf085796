import os
from pathlib import Path

import pytest

# pyproject's ``pythonpath = ["src"]`` reaches this process only; tests that
# start ``python -m labelfuse.cli`` need the same path in the environment.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def unbroadcast_calls(monkeypatch):
    """The (gradient shape, target shape) of each ``tape._unbroadcast`` call
    the test makes, in call order."""
    from labelfuse import tape

    calls = []
    unbroadcast = tape._unbroadcast

    def counted(g, shape):
        calls.append((g.shape, shape))
        return unbroadcast(g, shape)

    monkeypatch.setattr(tape, "_unbroadcast", counted)
    return calls


@pytest.fixture
def corrupt_gradients(monkeypatch):
    """``corrupt_gradients(c)``: from then on, the test's
    ``train_harness.backward`` multiplies every leaf gradient by (1 + c), a
    gradient error for ``finite_diff_check`` to catch."""
    from labelfuse import train_harness

    backward = train_harness.backward

    def corrupt(c):
        def corrupted(loss):
            walked = backward(loss)
            for node in walked.nodes:
                if not node.parents and node.grad is not None:
                    node.grad = node.grad * (1.0 + c)
            return walked

        monkeypatch.setattr(train_harness, "backward", corrupted)

    return corrupt


@pytest.fixture
def open_flags(monkeypatch):
    """The flags of each ``os.open`` call the test makes, in call order."""
    flags = []
    real_open = os.open

    def spy(path, how, *args, **kwargs):
        flags.append(how)
        return real_open(path, how, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    return flags
