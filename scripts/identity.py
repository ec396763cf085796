"""Write labelfuse's pinned output set and a SHA-256 manifest of it.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/identity.py --out DIR [--preset full|tiny]

Runs each command of the preset through ``labelfuse.cli.main`` inside DIR
(which must be new or empty), with relative paths, keeps each command's
stdout as ``<step>.stdout`` beside its outputs, and writes
``DIR/MANIFEST.sha256``: one ``<sha256>  <path>`` line per file, sorted by
path.  To show that a change leaves every output bit-identical, run the
script on the parent's source and on the change's (``PYTHONPATH=<tree>/src``)
and diff the two manifests.  Bits follow the BLAS build and the CPU, so no
manifest is kept as an expectation.

``full``: ``gradcheck`` stdout of both presets; l2 and adversarial
``train-toy`` reports, params and PPMs, with the 32x32 adversarial run at
one and two threads; the CI scene chain (a d=47 ``clam`` merge of a
sparsified scene, then ``visualize`` with its basis); the 6x400 ``tlam``
merge at one and two threads; a 64x64 ``tlam`` and ``clam`` merge.
``tiny`` runs the same commands on small inputs in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os

from labelfuse import cli


def scene_merges(name, size, variants, threads, init):
    """A synthetic scene, then per variant fresh params and a merge per thread count."""
    steps = [(name, ["synth-scene", "--size", size, "--regions", "4", "--seed", "5", "--out-dir", name])]
    for v in variants:
        params = f"{name}/{v}.params"
        steps.append((f"{name}.{v}.init", ["init-params", "--manifest", f"{name}/manifest.json", "--variant", v,
                                          *init, "--out", params]))
        steps += [(f"{name}.{v}.t{t}", ["merge", "--manifest", f"{name}/manifest.json", "--params", params,
                                       "--variant", v, "--threads", str(t), "--out", f"{name}/{v}.t{t}.tlt"])
                  for t in threads]
    return steps


def preset_steps(preset: str) -> list:
    """(step name, CLI argv) pairs, in run order."""
    full = preset == "full"
    # merger sizes for tiny runs; full runs use the CLI defaults
    init = [] if full else ["--d", "8", "--blocks", "1", "--heads", "2"]
    l2 = ["--iters", "20"] if full else ["--size", "8x8", "--iters", "2", *init]
    adv = ["--size", "24x20", "--iters", "5"] if full else ["--size", "8x6", "--iters", "2", *init]
    small = ["--d", "8", "--blocks", "1"]
    steps = [(f"gradcheck.{p}", ["gradcheck", "--preset", p]) for p in (("small", "full") if full else ("small",))]
    steps += [
        ("l2", ["train-toy", *l2, "--threads", "1", "--out", "l2.json"]),
        ("adv", ["train-toy", "--mode", "adv", *adv, "--threads", "1", "--out", "adv.json"]),
    ]
    steps += [(f"adv32.t{t}", ["train-toy", "--mode", "adv", "--size", "32x32" if full else "12x12", "--iters", "2",
                               *small, "--threads", str(t), "--out", f"adv32.t{t}.json"]) for t in (1, 2)]
    steps += [
        ("chain", ["synth-scene", "--size", "24x20" if full else "12x10", "--regions", "4", "--seed", "3",
                   "--out-dir", "chain/scene"]),
        ("chain.sparsify", ["sparsify", "--manifest", "chain/scene/manifest.json", "--instances",
                            "chain/scene/instances.tlt", "--sparsity", "0.5", "--seed", "4",
                            "--out-manifest", "chain/sparse/manifest.json"]),
        ("chain.init", ["init-params", "--manifest", "chain/scene/manifest.json", "--variant", "clam", "--d", "47",
                        "--out", "chain/params"]),
        ("chain.merge", ["merge", "--manifest", "chain/sparse/manifest.json", "--params", "chain/params",
                         "--variant", "clam", "--threads", "1", "--out", "chain/concept.tlt"]),
        ("chain.visualize", ["visualize", "--concept", "chain/concept.tlt", "--out", "chain/concept.ppm",
                             "--basis-out", "chain/basis"]),
    ]
    steps += scene_merges("wide", "6x400" if full else "4x250", ["tlam"], (1, 2), init)
    steps += scene_merges("grid", "64x64" if full else "8x8", ["tlam", "clam"], (1,), init)
    return steps


def manifest(root) -> str:
    """``<sha256>  <path>`` for every file under ``root``, sorted by path."""
    lines = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            lines.append((os.path.relpath(path, root).replace(os.sep, "/"), digest))
    return "".join(f"{digest}  {path}\n" for path, digest in sorted(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the pinned output set and its SHA-256 manifest.")
    parser.add_argument("--out", required=True, help="output directory, new or empty")
    parser.add_argument("--preset", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if os.listdir(args.out):
        parser.error(f"--out {args.out} is not empty")
    os.chdir(args.out)
    for step, command in preset_steps(args.preset):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(command)
        if code != cli.EXIT_OK:
            parser.exit(1, f"{step}: labelfuse {' '.join(command)} exited {code}\n")
        with open(f"{step}.stdout", "w") as f:
            f.write(out.getvalue())
    text = manifest(".")
    with open("MANIFEST.sha256", "w") as f:
        f.write(text)
    print(f"wrote {args.out}/MANIFEST.sha256 ({len(text.splitlines())} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
