"""Command-line surface tying the modules into reproducible experiments.

``build_parser`` builds the argparse tree once per process; every ``main``
call reuses it.  The parser holds no handlers: ``main`` looks up
``cmd_<command>`` (dashes as underscores) on this module when the command
runs, so a replaced ``cmd_*`` attribute is the one that runs.

Exit codes: 0 success, 1 usage or validation failure, 2 numerical failure
(gradient check failure, training divergence, counter mismatch).
"""

from __future__ import annotations

import argparse
import functools
import os
import statistics
import sys
import time

from . import fusion, label_model, metrics_viz, nn_ops, train_harness
from .tensor_core import load_tensor, save_tensor, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = map(int, text.lower().split("x"))
        if h >= 1 and w >= 1:
            return h, w
    except ValueError:
        pass
    raise ValueError(f"bad --size {text!r}, expected HxW with both sides >= 1 (e.g. 16x16)")


def cmd_merge(args) -> int:
    if args.variant != fusion.NAIVE and args.params is None:
        raise ValueError("--params is required for --variant tlam and clam")
    labels = label_model.load_label_set(args.manifest)
    if args.variant == fusion.NAIVE:
        out = fusion.naive_concat(labels)
    else:
        params = fusion.load_merger_params(args.params)
        merge = fusion.tlam_merge if args.variant == fusion.TLAM else fusion.clam_merge
        out = merge(labels, params, threads=args.threads)
    save_tensor(args.out, out)
    print(f"wrote {args.out} dims {list(out.shape)}")
    if args.variant == fusion.TLAM:
        print(f"attention MACs: {nn_ops.attention_mac_counter.count}")
    return EXIT_OK


def cmd_sparsify(args) -> int:
    labels = label_model.load_label_set(args.manifest)
    inst = label_model.load_instance_map(args.instances)
    masks = label_model.generate_sparse_masks(inst, labels, args.sparsity, args.seed)
    masked = label_model.apply_masks(labels, masks)
    label_model.save_label_set(masked, args.out_manifest)
    print(f"wrote {args.out_manifest} (sparsity {args.sparsity}, seed {args.seed})")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    suite = train_harness.gradcheck_suite(args.preset, args.seed)
    all_ok = True
    print(f"{'group':<16} {'checked':>8} {'max rel err':>14} {'round-off':>11} result")
    for name, params, loss_fn in suite:
        report = train_harness.finite_diff_check(params, loss_fn)
        status = "pass" if report.passed else "FAIL"
        all_ok = all_ok and report.passed
        print(
            f"{name:<16} {report.checked:>8} {report.max_rel_err:>14.3e}"
            f" {report.max_roundoff:>11.3e} {status}"
        )
    return EXIT_OK if all_ok else EXIT_NUMERIC


def cmd_train_toy(args) -> int:
    h, w = _parse_size(args.size)
    cfg = train_harness.ToyTrainConfig(
        height=h,
        width=w,
        regions=args.regions,
        seed=args.seed,
        iters=args.iters,
        sparsity=args.sparsity,
        mode="adversarial" if args.mode == "adv" else "l2",
        d=args.d,
        blocks=args.blocks,
        heads=args.heads,
        lr=args.lr,
        threads=args.threads,
    )
    report, merger, heads = train_harness.train_toy_with_params(cfg)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    write_json(args.out, report, sort_keys=True)
    if report["diverged_at"] is not None:
        print(f"diverged at iteration {report['diverged_at']}; wrote {args.out}")
        return EXIT_NUMERIC
    stem = args.out[: -len(".json")] if args.out.endswith(".json") else args.out
    fusion.save_merger_params(merger, stem + ".params")
    train_harness.save_head_params(heads, stem + ".params")
    labels, _, _ = label_model.synth_scene(h, w, args.regions, args.seed)
    concept = fusion.tlam_merge(labels, merger, threads=args.threads)
    _, img = metrics_viz.pca_project_3(concept)
    metrics_viz.save_ppm(stem + ".ppm", img)
    if report["loss"]:
        print(f"loss: first {report['loss'][0]:.6f} last {report['loss'][-1]:.6f}")
    print(f"eval: {report['eval']}")
    print(f"wrote {args.out}, {stem}.params/, {stem}.ppm")
    return EXIT_OK


def cmd_bench(args) -> int:
    h, w = _parse_size(args.size)
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")

    def run(n_labels, height, width):
        labels = train_harness.make_random_label_set(n_labels, height, width, args.seed)
        params = fusion.init_merger_params(
            labels,
            fusion.TLAM,
            d=args.d,
            n_blocks=args.blocks,
            heads=args.heads,
            seed=args.seed,
        )
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            fusion.tlam_merge(labels, params, threads=args.threads)
            times.append(time.perf_counter() - t0)
        macs = nn_ops.attention_mac_counter.count
        expected = fusion.count_attention_macs(
            n_labels, args.d, args.heads, args.blocks, height * width
        )
        return times, macs, expected

    times, macs, expected = run(args.labels, h, w)
    if macs != expected:
        print(f"MAC counter mismatch: counted {macs}, formula {expected}")
        return EXIT_NUMERIC
    best, median = min(times), statistics.median(times)
    pixels = h * w
    print(f"labels={args.labels} size={h}x{w} d={args.d} blocks={args.blocks} heads={args.heads}"
          f" threads={args.threads} OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"time: min {best * 1e3:.2f} ms, median {median * 1e3:.2f} ms over {args.repeat} runs")
    print(f"pixels/sec: {pixels / best:,.0f}   attention MACs: {macs:,}"
          f"   attention MACs/sec: {macs / best:,.3e}")

    _, macs_2n, _ = run(2 * args.labels, h, w)
    _, macs_2hw, _ = run(args.labels, 2 * h, w)
    for label, doubled, factor in (("N doubled ", macs_2n, 4), ("HW doubled", macs_2hw, 2)):
        ratio = f"{doubled / macs:.1f}" if macs else "n/a (0 MACs)"
        print(f"{label}  -> MAC ratio {ratio} (expect {factor:.1f})")
    if macs_2n != 4 * macs or macs_2hw != 2 * macs:
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_visualize(args) -> int:
    z = load_tensor(args.concept)
    basis, img = metrics_viz.pca_project_3(z)
    metrics_viz.save_ppm(args.out, img)
    if args.basis_out:
        metrics_viz.save_pca_basis(basis, args.basis_out)
    print(f"wrote {args.out} ({z.shape[0]}x{z.shape[1]})")
    return EXIT_OK


def cmd_synth_scene(args) -> int:
    h, w = _parse_size(args.size)
    labels, inst, target = label_model.synth_scene(h, w, args.regions, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    label_model.save_label_set(labels, os.path.join(args.out_dir, "manifest.json"))
    label_model.save_instance_map(inst, os.path.join(args.out_dir, "instances.tlt"))
    save_tensor(os.path.join(args.out_dir, "target.tlt"), target)
    print(f"wrote scene to {args.out_dir}/ (manifest.json, instances.tlt, target.tlt)")
    return EXIT_OK


def cmd_init_params(args) -> int:
    labels = label_model.load_label_set(args.manifest)
    params = fusion.init_merger_params(
        labels,
        args.variant,
        d=args.d,
        n_blocks=args.blocks,
        heads=args.heads,
        seed=args.seed,
    )
    fusion.save_merger_params(params, args.out)
    print(f"wrote {args.variant} params to {args.out}/")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares.  Parsing reads it and never
    changes it, and no default is mutable, so calls cannot leak values into
    each other."""

    # nested, so the parser, which outlives any wrapper later set on this
    # module's functions, keeps no module-level function
    def thread_count(text: str) -> int:
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
        return n

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    common.add_argument(
        "--threads",
        type=thread_count,
        default=os.cpu_count() or 1,
        help="worker threads; results never depend on the thread count. With more"
        " than 1, set OPENBLAS_NUM_THREADS=1 so BLAS threads do not oversubscribe the cores",
    )

    parser = argparse.ArgumentParser(
        prog="labelfuse",
        description="Merge heterogeneous spatial label maps into a concept tensor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge", parents=[common], help="run a merger over a label manifest")
    p.add_argument("--manifest", required=True, help="label set manifest JSON")
    p.add_argument("--params", help="merger params directory (not needed for naive)")
    p.add_argument("--variant", choices=[fusion.TLAM, fusion.CLAM, fusion.NAIVE], required=True)
    p.add_argument("--out", required=True, help="output concept tensor (.tlt)")

    p = sub.add_parser("sparsify", parents=[common], help="apply the region sparsity protocol")
    p.add_argument("--manifest", required=True)
    p.add_argument("--instances", required=True, help="instance map tensor (.tlt)")
    p.add_argument("--sparsity", type=float, required=True, help="drop probability in [0,1]")
    p.add_argument("--out-manifest", required=True)

    p = sub.add_parser("gradcheck", parents=[common], help="verify tape gradients by finite differences")
    p.add_argument("--preset", choices=["small", "full"], default="small")

    p = sub.add_parser("train-toy", parents=[common], help="train the toy pipeline on a synthetic scene")
    p.add_argument("--size", default="16x16", help="grid as HxW (default 16x16)")
    p.add_argument("--regions", type=int, default=4)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--sparsity", type=float, default=0.5)
    p.add_argument("--mode", choices=["l2", "adv"], default="l2")
    p.add_argument("--d", type=int, default=16, help="embedding width")
    p.add_argument("--blocks", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--lr", type=float, default=5e-3, help="learning rate for l2 mode")
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("bench", parents=[common], help="time the transformer merger and check MAC scaling")
    p.add_argument("--labels", type=int, default=5)
    p.add_argument("--size", default="64x64")
    p.add_argument("--d", type=int, default=fusion.DEFAULT_D)
    p.add_argument("--blocks", type=int, default=fusion.DEFAULT_BLOCKS)
    p.add_argument("--heads", type=int, default=fusion.DEFAULT_HEADS)
    p.add_argument("--repeat", type=int, default=3)

    p = sub.add_parser("visualize", parents=[common], help="PCA-project a concept tensor to a PPM image")
    p.add_argument("--concept", required=True, help="concept tensor (.tlt)")
    p.add_argument("--out", required=True, help="output image (.ppm)")
    p.add_argument("--basis-out", help="also save the PCA basis to this directory")

    p = sub.add_parser("synth-scene", parents=[common], help="write a synthetic scene to a directory")
    p.add_argument("--size", default="16x16")
    p.add_argument("--regions", type=int, default=4)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("init-params", parents=[common], help="initialize fresh merger params for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--variant", choices=[fusion.TLAM, fusion.CLAM], default=fusion.TLAM)
    p.add_argument("--d", type=int, default=fusion.DEFAULT_D)
    p.add_argument("--blocks", type=int, default=fusion.DEFAULT_BLOCKS)
    p.add_argument("--heads", type=int, default=fusion.DEFAULT_HEADS,
                   help=f"attention heads, tlam only (default {fusion.DEFAULT_HEADS})")
    p.add_argument("--out", required=True, help="output params directory")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; remap to the validation code
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    command = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return command(args)
    except (ValueError, KeyError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
