"""labelfuse benchmark: one workload in this process, or every workload in
fresh processes.

    python3 perfbench/run.py --workload merge-tlam --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads: merge-tlam, train-toy, scene-pipeline (see perfbench/README.md).
Everything runs single-threaded: BLAS and OpenMP get one thread each and
labelfuse gets ``threads=1``.  Each run sets up, then runs a closed loop
(one caller; the next operation starts when the previous one returns) for
``--seconds``, sets up again at even intervals in between, and checks every
output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and then traced, and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the full record of the run, and the spans of a traced
run, go to .perfbench_out/ at the checkout root.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# numpy is imported later, by the workloads; BLAS reads these when it loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("merge-tlam", "train-toy", "scene-pipeline")
SETUP_REPEATS = 11
MIN_OPS = 3


@dataclass
class Loop:
    """Outcome of a closed loop: the times and total work of the timed
    operations whose checks passed, and the failures."""

    times: list = field(default_factory=list)
    units: int = 0
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_op(wl, loop: Loop, k: int, timed: bool = True) -> None:
    """Run and check operation ``k`` once; a raising operation counts as failed."""
    try:
        elapsed, units, errors = wl.op(k)
    except Exception as e:
        elapsed, units, errors = 0.0, 0, [f"{type(e).__name__}: {e}"]
    loop.attempted += 1
    if errors:
        loop.failed += 1
        loop.errors += errors
    elif timed:
        loop.times.append(elapsed)
        loop.units += units


def timed_setup(wl) -> float:
    t0 = perf_counter()
    wl.setup()
    return perf_counter() - t0


def tail(samples: list) -> str:
    """Median plus the highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    ordered = sorted(samples)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return f"{text}, p{p} {ordered[rank - 1]:.6g}, n={n}"
    return f"{text}, n={n} (too few samples for a tail percentile)"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        | {"labelfuse": 1},
    }


def untraced(wl, seconds: float):
    """Set up, run one checked warm-up operation, then run operations back to
    back for ``seconds`` (at least ``MIN_OPS``).  The other set-ups are spread
    evenly over the loop, between operations and outside their times, so
    their median does not hang on one stretch of the machine's speed."""
    setups = [timed_setup(wl)]
    loop = Loop()
    run_op(wl, loop, 0, timed=False)
    start = perf_counter()
    while len(loop.times) + loop.failed < MIN_OPS or perf_counter() - start < seconds:
        due = (len(setups) - 0.5) * seconds / (SETUP_REPEATS - 1)
        if len(setups) < SETUP_REPEATS and perf_counter() - start >= due:
            setups.append(timed_setup(wl))
        run_op(wl, loop, loop.attempted)
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(wl))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mib,
        "work_per_s": loop.units / sum(loop.times) if loop.times else 0.0,
    }
    name, unit, what = wl.work
    lines = [
        f"setup_s = {metrics['setup_s']:.6g} s (median of {SETUP_REPEATS} set-ups: {', '.join(f'{s:.4g}' for s in setups)})",
        f"peak_rss_mb = {rss_mib:.6g} MiB",
        f"error_rate = {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted} operations failed)",
        f"{name} = {metrics['work_per_s']:.6g} {unit} (total over {len(loop.times)} {what}; reported as work_per_s)",
    ]
    if loop.times:
        lines.append(f"operation seconds: {tail(loop.times)}")
    lines += [f"{key} = {value:.6g} {u}" for key, (value, u) in wl.extra().items()]
    record = {"setup_samples": setups, "op_seconds": loop.times, "extra": wl.extra()}
    return metrics, loop.attempted, loop.failed, loop.errors, lines, record


def traced(wl, seconds: float, spans_path: Path):
    """Set up and warm up untraced, set up once traced, then run each
    operation untraced and traced, in turns, for ``seconds``.  The
    tracer is installed only around the traced set-up and operations, so
    ``trace.overhead_frac`` compares operations run seconds apart."""
    import tracer as tr
    from workloads import SPARSITY

    wl.setup()
    plain, loop = Loop(), Loop()
    run_op(wl, plain, 0, timed=False)
    tracer = tr.Tracer()
    left = []

    def with_tracer(fn, *args):
        tracer.install()
        try:
            fn(*args)
        finally:
            left.extend(tracer.uninstall())

    a = tracer.mark()
    with_tracer(wl.setup)
    b = tracer.mark()
    start = perf_counter()
    while loop.attempted < 2 or perf_counter() - start < seconds:
        # alternate which run comes first, so an order effect cancels out
        k = loop.attempted + 1
        if k % 2:
            run_op(wl, plain, k)
        with_tracer(run_op, wl, loop, k)
        if not k % 2:
            run_op(wl, plain, k)
    c = tracer.mark()
    peak = tr.dgemm_peak_gflops()
    spans = tracer.spans
    ops = tr.classify(spans)
    metrics = tr.layer_metrics(spans, ops, (*a, *b), (*b, *c), loop.attempted, SPARSITY, peak)
    # only pairs in which both operations passed their checks
    n = min(len(plain.times), len(loop.times))
    metrics["trace.overhead_frac"] = sum(loop.times[:n]) / sum(plain.times[:n]) - 1 if n else 0.0
    checks, errors = tr.check_spans(spans, ops)
    if left:
        errors.append(f"wrappers left installed: {', '.join(sorted(set(left)))}")
    checks += 1

    with open(spans_path, "w") as f:
        f.write(json.dumps({"fields": ["id", "parent", "name", "t0", "t1"], "setup": [a[0], b[0]], "ops": [b[0], c[0]]}) + "\n")
        for sid, (name, parent, t0, t1, _) in enumerate(spans):
            f.write(json.dumps([sid, parent, name, t0, t1]) + "\n")

    lines = [
        f"traced {loop.attempted} operations ({len(spans)} spans), each after an untraced one",
        f"tracer self-checks: {checks - len(errors)} of {checks} passed",
        f"error_rate = {(plain.failed + loop.failed) / (plain.attempted + loop.attempted):.6g}",
    ]
    # the tracer's self-checks count as one more checked item
    attempted = plain.attempted + loop.attempted + 1
    failed = plain.failed + loop.failed + bool(errors)
    record = {"op_seconds_untraced": plain.times, "op_seconds_traced": loop.times, "spans_file": spans_path.name}
    return metrics, attempted, failed, plain.errors + loop.errors + errors, lines, record


def run_one(args) -> int:
    if not (SRC / "labelfuse" / "__init__.py").is_file():
        print(f"error: labelfuse sources not found under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    wl = WORKLOADS[args.workload](args.seed, OUT)
    try:
        if args.trace:
            result = traced(wl, args.seconds, OUT / f"{stem}.spans.jsonl")
        else:
            result = untraced(wl, args.seconds)
    finally:
        wl.close()
    metrics, attempted, failed, errors, lines, record = result

    if set(metrics) != {m["name"] for m in spec}:
        print(f"error: metrics {sorted(set(metrics) ^ {m['name'] for m in spec})} disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}
    info = machine()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for line in lines:
        print(line)
    for error in errors[:20]:
        print(f"FAILED: {error}")
    if args.trace:
        for name, m in reported.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    out = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": reported}
    record |= {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "machine": info, "errors": errors, "result": out}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(out))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = code or subprocess.run(argv, check=False).returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
