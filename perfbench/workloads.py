"""The three benchmark workloads.

Each drives labelfuse only through its public calls and makes its inputs
from the workload seed.  ``setup`` builds inputs and parameters and warms
up; ``op(k)`` runs operation ``k`` once, timing only the package call, and
returns ``(seconds, units of work, failed checks)``.
"""

from __future__ import annotations

import io
import math
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from labelfuse import cli, fusion, label_model, nn_ops, train_harness
from labelfuse.label_model import LabelMap, LabelSet

SPARSITY = 0.5


class Workload:
    def extra(self) -> dict:
        """Further end-to-end figures for the report: name -> (value, unit)."""
        return {}

    def close(self) -> None:
        pass


class MergeTlam(Workload):
    """``tlam_merge`` of one 64x64 scene (16 regions, N=5) at d=96, 3 blocks, 3 heads."""

    name = "merge-tlam"
    work = ("merge.pixels_per_s", "px/s", "tlam_merge calls")
    SIZE, REGIONS, D, BLOCKS, HEADS = 64, 16, 96, 3, 3
    CHECK_PIXELS = 16

    def __init__(self, seed: int, work_dir: Path):
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=4)]

    def setup(self) -> None:
        labels, inst, _ = label_model.synth_scene(self.SIZE, self.SIZE, self.REGIONS, self.seeds[0])
        masks = label_model.generate_sparse_masks(inst, labels, SPARSITY, self.seeds[1])
        self.labels = label_model.apply_masks(labels, masks)
        self.params = fusion.init_merger_params(
            self.labels, fusion.TLAM, d=self.D, n_blocks=self.BLOCKS, heads=self.HEADS, seed=self.seeds[2]
        )
        warm = LabelSet([LabelMap(lab.name, lab.kind, lab.values[:4], lab.mask[:4]) for lab in self.labels])
        fusion.tlam_merge(warm, self.params, threads=1)

    def op(self, k: int):
        t0 = perf_counter()
        out = fusion.tlam_merge(self.labels, self.params, threads=1)
        elapsed = perf_counter() - t0
        counted = nn_ops.attention_mac_counter.count
        pixels = self.SIZE * self.SIZE
        expected = fusion.count_attention_macs(len(self.labels), self.D, self.HEADS, self.BLOCKS, pixels)
        errors = []
        if counted != expected:
            errors.append(f"attention MAC counter read {counted}, count_attention_macs gives {expected}")
        if out.shape != (self.SIZE, self.SIZE, self.D):
            errors.append(f"merge output has shape {out.shape}")
        else:
            rng = np.random.default_rng([self.seeds[3], k])
            errors += checks.check_tlam_pixels(self.labels, self.params, out, rng, self.CHECK_PIXELS)
        return elapsed, pixels, errors


class TrainToy(Workload):
    """``train_toy`` in l2 mode: 16x16, 4 regions, d=16, 2 blocks, 2 heads, 50 iterations."""

    name = "train-toy"
    work = ("train.iters_per_s", "iter/s", "train_toy calls of 50 iterations, eval tail included")
    ITERS = 50

    def __init__(self, seed: int, work_dir: Path):
        self.seed = int(np.random.default_rng(seed).integers(0, 2**31))
        self.first_losses = None
        self.eval_loss = None

    def _config(self, iters: int):
        return train_harness.ToyTrainConfig(
            height=16, width=16, regions=4, seed=self.seed, iters=iters, sparsity=SPARSITY,
            mode="l2", d=16, blocks=2, heads=2, threads=1,
        )

    def setup(self) -> None:
        # scene, parameters, two iterations and the whole eval tail
        train_harness.train_toy(self._config(2))

    def op(self, k: int):
        t0 = perf_counter()
        report = train_harness.train_toy(self._config(self.ITERS))
        elapsed = perf_counter() - t0
        losses = report["loss"]
        errors = []
        if report["diverged_at"] is not None:
            errors.append(f"training diverged at iteration {report['diverged_at']}")
        elif len(losses) != self.ITERS or not all(math.isfinite(x) for x in losses):
            errors.append(f"{len(losses)} losses, not {self.ITERS} finite ones")
        elif not losses[-1] < losses[0]:
            errors.append(f"last loss {losses[-1]} is not below the first {losses[0]}")
        elif self.first_losses is None:
            self.first_losses = losses
            self.eval_loss = report["eval"]["s0.5"]
        elif losses != self.first_losses:
            errors.append("a repeated call with the same config gave other losses")
        return elapsed, self.ITERS, errors

    def extra(self) -> dict:
        return {"train.eval_l2_s0.5": (self.eval_loss, "mse")} if self.eval_loss is not None else {}


class ScenePipeline(Workload):
    """Per scene, in-process CLI calls: synth-scene -> sparsify -> merge clam -> visualize."""

    name = "scene-pipeline"
    work = ("pipeline.scenes_per_s", "scene/s", "scenes")
    SIZE, REGIONS = 32, 8
    WARMUP_SEED = 7

    def __init__(self, seed: int, work_dir: Path):
        self.base = int(np.random.default_rng(seed).integers(0, 2**30))
        work_dir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="scene-", dir=work_dir))

    def _cli(self, *argv) -> list[str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([*map(str, argv), "--threads", "1"])
        return [] if code == 0 else [f"labelfuse {argv[0]} exited {code}: {err.getvalue().strip()}"]

    def _scene(self, seed: int) -> list[str]:
        d = self.dir
        for argv in (
            ("synth-scene", "--size", f"{self.SIZE}x{self.SIZE}", "--regions", self.REGIONS,
             "--seed", seed, "--out-dir", d / "scene"),
            ("sparsify", "--manifest", d / "scene/manifest.json", "--instances", d / "scene/instances.tlt",
             "--sparsity", SPARSITY, "--seed", seed + 1, "--out-manifest", d / "sparse/manifest.json"),
            ("merge", "--manifest", d / "sparse/manifest.json", "--params", d / "params",
             "--variant", "clam", "--out", d / "concept.tlt"),
            ("visualize", "--concept", d / "concept.tlt", "--out", d / "concept.ppm", "--basis-out", d / "basis"),
        ):
            errors = self._cli(*argv)
            if errors:
                return errors
        return []

    def setup(self) -> None:
        d = self.dir
        errors = self._cli("synth-scene", "--size", f"{self.SIZE}x{self.SIZE}", "--regions", self.REGIONS,
                           "--seed", self.base, "--out-dir", d / "init")
        errors += self._cli("init-params", "--manifest", d / "init/manifest.json", "--variant", "clam",
                            "--d", 96, "--blocks", 3, "--heads", 3, "--seed", self.base + 1, "--out", d / "params")
        # the warm-up scene is the same for every workload seed: Jacobi's cost
        # depends on the scene, and set-up time should not
        errors += self._scene(self.WARMUP_SEED)
        if errors:
            raise RuntimeError("; ".join(errors))

    def op(self, k: int):
        t0 = perf_counter()
        errors = self._scene(self.base + 2 + 2 * k)
        elapsed = perf_counter() - t0
        if not errors:
            errors = checks.check_pca(self.dir / "concept.tlt", self.dir / "basis")
            errors += checks.check_ppm(self.dir / "concept.ppm", self.SIZE, self.SIZE)
        return elapsed, 1, errors

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (MergeTlam, TrainToy, ScenePipeline)}
