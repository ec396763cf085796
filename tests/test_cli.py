import json
import subprocess
import sys

import numpy as np
import pytest

from labelfuse.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from labelfuse.tensor_core import load_tensor, save_tensor


def run(*argv):
    return main(list(argv))


@pytest.fixture
def scene(tmp_path):
    out = tmp_path / "scene"
    assert run("synth-scene", "--size", "8x8", "--regions", "3", "--seed", "9",
               "--out-dir", str(out)) == EXIT_OK
    return out


@pytest.fixture
def params(tmp_path, scene):
    out = tmp_path / "params"
    assert run("init-params", "--manifest", str(scene / "manifest.json"),
               "--variant", "tlam", "--d", "12", "--blocks", "1", "--heads", "2",
               "--seed", "5", "--out", str(out)) == EXIT_OK
    return out


class TestMerge:
    def test_tlam_output_dims(self, tmp_path, scene, params):
        out = tmp_path / "z.tlt"
        assert run("merge", "--manifest", str(scene / "manifest.json"),
                   "--params", str(params), "--variant", "tlam",
                   "--out", str(out), "--threads", "1") == EXIT_OK
        assert load_tensor(out).shape == (8, 8, 12)

    def test_naive_output_dims(self, tmp_path, scene):
        out = tmp_path / "z.tlt"
        assert run("merge", "--manifest", str(scene / "manifest.json"),
                   "--variant", "naive", "--out", str(out)) == EXIT_OK
        # synth scene channels: 3 (semantics) + 1 + 3 + 1 + 1
        assert load_tensor(out).shape == (8, 8, 9)

    def test_missing_params_dir(self, tmp_path, scene, capsys):
        code = run("merge", "--manifest", str(scene / "manifest.json"),
                   "--params", str(tmp_path / "nope"), "--variant", "tlam",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert "nope" in capsys.readouterr().err

    def test_variant_mismatch(self, tmp_path, scene, params):
        code = run("merge", "--manifest", str(scene / "manifest.json"),
                   "--params", str(params), "--variant", "clam",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE

    def test_wrong_tensor_shape_exits_1(self, tmp_path, scene, params, capsys):
        save_tensor(params / "block0.mlp.b1.tlt", np.zeros(1))
        code = run("merge", "--manifest", str(scene / "manifest.json"),
                   "--params", str(params), "--variant", "tlam",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert "block0.mlp.b1.tlt" in capsys.readouterr().err

    def test_threads_reproducible(self, tmp_path, scene, params):
        a, b = tmp_path / "a.tlt", tmp_path / "b.tlt"
        for out in (a, b):
            assert run("merge", "--manifest", str(scene / "manifest.json"),
                       "--params", str(params), "--variant", "tlam",
                       "--out", str(out), "--threads", "1") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestSparsify:
    def test_zero_sparsity_identical_tensors(self, tmp_path, scene):
        out = tmp_path / "dense" / "manifest.json"
        assert run("sparsify", "--manifest", str(scene / "manifest.json"),
                   "--instances", str(scene / "instances.tlt"),
                   "--sparsity", "0.0", "--out-manifest", str(out)) == EXIT_OK
        src = json.loads((scene / "manifest.json").read_text())
        dst = json.loads(out.read_text())
        for a, b in zip(src["labels"], dst["labels"]):
            av = (scene / a["values"]).read_bytes()
            bv = (out.parent / b["values"]).read_bytes()
            assert av == bv

    def test_full_sparsity_all_masks_zero(self, tmp_path, scene):
        out = tmp_path / "empty" / "manifest.json"
        assert run("sparsify", "--manifest", str(scene / "manifest.json"),
                   "--instances", str(scene / "instances.tlt"),
                   "--sparsity", "1.0", "--out-manifest", str(out)) == EXIT_OK
        doc = json.loads(out.read_text())
        for entry in doc["labels"]:
            assert not load_tensor(out.parent / entry["mask"]).any()

    def test_seed_reproducible(self, tmp_path, scene):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name / "manifest.json"
            assert run("sparsify", "--manifest", str(scene / "manifest.json"),
                       "--instances", str(scene / "instances.tlt"),
                       "--sparsity", "0.5", "--seed", "3",
                       "--out-manifest", str(out)) == EXIT_OK
            outs.append(out)
        for entry in json.loads(outs[0].read_text())["labels"]:
            a = (outs[0].parent / entry["mask"]).read_bytes()
            b = (outs[1].parent / entry["mask"]).read_bytes()
            assert a == b

    def test_bad_sparsity(self, tmp_path, scene):
        assert run("sparsify", "--manifest", str(scene / "manifest.json"),
                   "--instances", str(scene / "instances.tlt"),
                   "--sparsity", "1.5",
                   "--out-manifest", str(tmp_path / "m.json")) == EXIT_USAGE


class TestGradcheck:
    def test_small_preset_passes(self, capsys):
        assert run("gradcheck", "--preset", "small") == EXIT_OK
        out = capsys.readouterr().out
        assert "gelu" in out and "pass" in out

    def test_corrupted_gradients_fail(self):
        assert run("gradcheck", "--preset", "small", "--corrupt") == EXIT_NUMERIC


class TestTrainToy:
    def test_zero_iters(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("train-toy", "--size", "8x8", "--regions", "3", "--iters", "0",
                   "--out", str(out), "--threads", "1") == EXIT_OK
        report = json.loads(out.read_text())
        assert report["loss"] == []
        assert set(report["eval"]) == {"s0.0", "s0.3", "s0.5", "s0.7"}

    def test_short_run_decreases_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("train-toy", "--size", "8x8", "--regions", "3", "--iters", "25",
                   "--out", str(out), "--threads", "1") == EXIT_OK
        report = json.loads(out.read_text())
        assert report["loss"][-1] < report["loss"][0]
        assert (tmp_path / "r.params" / "params.json").exists()
        assert (tmp_path / "r.ppm").read_bytes().startswith(b"P6\n")

    def test_divergence_exits_2(self, tmp_path):
        out = tmp_path / "r.json"
        with np.errstate(all="ignore"):
            code = run("train-toy", "--size", "8x8", "--regions", "3", "--iters", "15",
                       "--lr", "1e90", "--out", str(out), "--threads", "1")
        assert code == EXIT_NUMERIC
        assert json.loads(out.read_text())["diverged_at"] is not None


class TestBench:
    def test_quick_bench(self, capsys):
        assert run("bench", "--labels", "2", "--size", "8x8", "--d", "8",
                   "--blocks", "1", "--heads", "2", "--repeat", "2",
                   "--threads", "1") == EXIT_OK
        out = capsys.readouterr().out
        assert "MAC ratio 4.0" in out
        assert "MAC ratio 2.0" in out
        assert "min" in out and "median" in out


class TestVisualize:
    def test_roundtrip_dims(self, tmp_path, scene, params):
        z = tmp_path / "z.tlt"
        run("merge", "--manifest", str(scene / "manifest.json"), "--params", str(params),
            "--variant", "tlam", "--out", str(z), "--threads", "1")
        img = tmp_path / "z.ppm"
        assert run("visualize", "--concept", str(z), "--out", str(img)) == EXIT_OK
        header = img.read_bytes().split(b"\n", 2)
        assert header[0] == b"P6"
        assert header[1] == b"8 8"

    def test_low_width_concept_rejected(self, tmp_path):
        from labelfuse.tensor_core import save_tensor

        z = tmp_path / "z.tlt"
        save_tensor(z, np.zeros((4, 4, 2)))
        assert run("visualize", "--concept", str(z),
                   "--out", str(tmp_path / "o.ppm")) == EXIT_USAGE

    def test_missing_input(self, tmp_path):
        assert run("visualize", "--concept", str(tmp_path / "nope.tlt"),
                   "--out", str(tmp_path / "o.ppm")) == EXIT_USAGE


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert run("merge", "--wat", "x") == EXIT_USAGE

    def test_unknown_command_rejected(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_bad_size_string(self, tmp_path):
        assert run("synth-scene", "--size", "16", "--out-dir", str(tmp_path / "s")) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run("--help") == EXIT_OK


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "labelfuse.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "merge" in proc.stdout and "train-toy" in proc.stdout
