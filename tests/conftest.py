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
