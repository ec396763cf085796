"""``scripts/identity.py``, which writes the pinned output set and its
SHA-256 manifest for comparing a change with its parent, at its tiny preset."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity.py"


def manifest(out: Path) -> dict:
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), "--preset", "tiny"], check=True, capture_output=True)
    lines = (out / "MANIFEST.sha256").read_text().splitlines()
    return {path: digest for digest, path in (line.split("  ") for line in lines)}


def test_tiny_manifest_reproducible(tmp_path):
    a = manifest(tmp_path / "a")
    assert a == manifest(tmp_path / "b")
    for path in ("gradcheck.small.stdout", "l2.json", "adv.params/disc.W1.tlt", "chain/concept.ppm",
                 "chain/basis/explained_variance.tlt", "grid/clam.t1.tlt"):
        assert path in a, path
    # the thread count never changes an output (the reports record it)
    trained = lambda t: {p[len(t):]: d for p, d in a.items() if p.startswith(t) and p.endswith((".ppm", ".tlt"))}
    assert len(trained("adv32.t1")) > 1 and trained("adv32.t1") == trained("adv32.t2")
    assert a["wide/tlam.t1.tlt"] == a["wide/tlam.t2.tlt"]


def test_non_empty_out_rejected(tmp_path):
    (tmp_path / "stale").write_text("")
    run = subprocess.run([sys.executable, str(SCRIPT), "--out", str(tmp_path), "--preset", "tiny"], capture_output=True, text=True)
    assert run.returncode == 2 and "is not empty" in run.stderr
