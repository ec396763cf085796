import os
from pathlib import Path

# pyproject's ``pythonpath = ["src"]`` reaches this process only; tests that
# start ``python -m labelfuse.cli`` need the same path in the environment.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
