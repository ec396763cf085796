import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelfuse import cli, fusion, metrics_viz, nn_ops
from labelfuse.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from labelfuse.tensor_core import load_tensor, save_tensor


def run(*argv):
    return main(list(argv))


def run_warnings_as_errors(*argv):
    """``labelfuse argv`` in a fresh interpreter under CI's ``-W
    error::RuntimeWarning``, where a numpy warning that escapes ends in a
    traceback; returns the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fusion.__file__)))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "labelfuse.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )


EIGH_FAILED = "eigendecomposition of the covariance failed: Eigenvalues did not converge"


def fail_eigh(monkeypatch):
    """Make the PCA's eigensolver fail as LAPACK's does when it does not
    converge.  LinAlgError is a ValueError, so the exit code is 2 only if the
    PCA reports it as a numerical failure."""

    def eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(metrics_viz.np.linalg, "eigh", eigh)


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


# a tlam merge of a synth scene (five labels) at d=8
WIDE_PIXEL_SIZE = fusion.pixel_bytes(fusion.TLAM, 5, 8)


@pytest.fixture
def wide_scene(tmp_path):
    """A scene of two merge tiles and tlam params for it."""
    scene = tmp_path / "wide"
    rows = fusion.TILE_BYTES // (8 * WIDE_PIXEL_SIZE)
    assert run("synth-scene", "--size", f"{rows + 8}x8", "--regions", "3",
               "--seed", "9", "--out-dir", str(scene)) == EXIT_OK
    assert run("init-params", "--manifest", str(scene / "manifest.json"),
               "--variant", "tlam", "--d", "8", "--blocks", "1", "--heads", "2",
               "--out", str(tmp_path / "p")) == EXIT_OK
    return scene, tmp_path / "p"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A synthetic scene whose tensor files the fuzzed manifests may name."""
    out = tmp_path_factory.mktemp("fuzz")
    assert run("synth-scene", "--size", "4x4", "--regions", "2", "--seed", "3",
               "--out-dir", str(out)) == EXIT_OK
    return out


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_files = st.sampled_from([
    "depth.values.tlt", "depth.mask.tlt", "normals.values.tlt", "semantics.mask.tlt",
    "instances.tlt", "target.tlt", "manifest.json", "missing.tlt", ".", "",
])
_scene_entries = [
    {"name": name, "kind": kind, "channels": c, "values": f"{name}.values.tlt", "mask": f"{name}.mask.tlt"}
    for name, kind, c in (("semantics", "discrete", 2), ("depth", "continuous", 1), ("normals", "continuous", 3))
]


# label values: finite floats, then ones a float32 value cannot hold or that are not finite
_label_values = st.floats() | st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300])
_pixels = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def _value_edits(draw):
    """An edit of one label of the value-contract scene: drawn float64 values
    at drawn pixels and channels (``channel % C``), and drawn mask values,
    in range or not, in a mask of a drawn dtype."""
    label = draw(st.sampled_from(["semantics", "depth", "normals", "edges", "curvature"]))
    values = draw(st.lists(st.tuples(_pixels, st.integers(0, 2), _label_values), min_size=1, max_size=4))
    mask_dtype = draw(st.sampled_from(["u1", "f4", "f8"]))
    mask_values = st.sampled_from([0, 1, 2, 255]) if mask_dtype == "u1" else st.sampled_from(
        [0.0, 1.0, 2.0, 300.0, 0.5, -1.0, np.nan, np.inf])
    return label, values, mask_dtype, draw(st.lists(st.tuples(_pixels, mask_values), max_size=4))


@st.composite
def _manifest_docs(draw):
    """Any JSON, or a manifest of the fuzz scene with up to two of its parts
    replaced by other JSON or another file name, or dropped."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_json)
    entries = [dict(e) for e in draw(st.lists(st.sampled_from(_scene_entries), min_size=1, max_size=3,
                                              unique_by=lambda e: e["name"]))]
    doc = {"height": 4, "width": 4, "labels": entries}
    parts = [(doc, key) for key in doc] + [(e, key) for e in entries for key in e]
    for i, value in draw(st.lists(st.tuples(st.integers(0, len(parts) - 1), st.none() | _files | _json),
                                  max_size=2)):
        obj, key = parts[i]
        if value is None:
            obj.pop(key, None)
        else:
            obj[key] = value
    return doc


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

    @pytest.mark.parametrize("variant", ["tlam", "clam"])
    def test_missing_params_option_exits_1(self, tmp_path, scene, capsys, variant):
        code = run("merge", "--manifest", str(scene / "manifest.json"), "--variant", variant,
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: --params is required for --variant tlam and clam\n"

    def test_variant_mismatch(self, tmp_path, scene, params, capsys):
        code = run("merge", "--manifest", str(scene / "manifest.json"),
                   "--params", str(params), "--variant", "clam",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'tlam'" in err and "'clam'" in err

    def test_wrong_tensor_shape_exits_1(self, tmp_path, scene, params, capsys):
        save_tensor(params / "block0.mlp.b1.tlt", np.zeros(1))
        code = run("merge", "--manifest", str(scene / "manifest.json"),
                   "--params", str(params), "--variant", "tlam",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert "block0.mlp.b1.tlt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {**doc, "labels": 5},
            lambda doc: [1],
            lambda doc: {**doc, "d": "8"},
            lambda doc: {**doc, "n_blocks": "2"},
            lambda doc: {**doc, "n_blocks": 10**18},
            lambda doc: {**doc, "labels": [{**doc["labels"][0], "channels": "7"}] + doc["labels"][1:]},
        ],
        ids=["labels-not-list", "document-not-object", "d-string", "n_blocks-string", "n_blocks-huge", "channels-string"],
    )
    def test_malformed_params_json_exits_1(self, tmp_path, scene, params, capsys, edit):
        doc = json.loads((params / "params.json").read_text())
        (params / "params.json").write_text(json.dumps(edit(doc)))
        code = run("merge", "--manifest", str(scene / "manifest.json"),
                   "--params", str(params), "--variant", "tlam",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: params.json")

    def test_deeply_nested_params_json_exits_1(self, tmp_path, scene, params, capsys):
        # too deep for the JSON parser's recursion: an error line, not a RecursionError traceback
        (params / "params.json").write_text("[" * 200_000 + "]" * 200_000)
        code = run("merge", "--manifest", str(scene / "manifest.json"),
                   "--params", str(params), "--variant", "tlam",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: params.json JSON nests too deeply\n"

    def test_nonfinite_params_tensor_exits_1(self, tmp_path, scene, params, capsys):
        # such params once merged, and the merge exited 2 after the work
        w1 = load_tensor(params / "block0.mlp.W1.tlt")
        w1[3, 5] = np.nan
        save_tensor(params / "block0.mlp.W1.tlt", w1)
        code = run("merge", "--manifest", str(scene / "manifest.json"), "--params", str(params),
                   "--variant", "tlam", "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {params / 'block0.mlp.W1.tlt'}: value nan at index (3, 5) is not finite\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("variant", ["tlam", "clam"])
    def test_overflow_in_the_merge_exits_2(self, tmp_path, variant, threads):
        # finite params whose depth projection is scaled by 1e300 overflow in
        # every tile; this once warned and exited 0, or, under -W
        # error::RuntimeWarning, ended in a traceback.  64x64 pixels make five
        # tlam spans and two clam spans, so at two threads a helper meets it too
        scene = tmp_path / "scene"
        assert run("synth-scene", "--size", "64x64", "--regions", "3", "--seed", "9",
                   "--out-dir", str(scene)) == EXIT_OK
        assert len(fusion.pixel_spans(64 * 64, fusion.pixel_bytes(variant, 5, 8))) >= 2
        assert run("init-params", "--manifest", str(scene / "manifest.json"), "--variant", variant,
                   "--d", "8", "--blocks", "1", "--heads", "2", "--out", str(tmp_path / "p")) == EXIT_OK
        a = tmp_path / "p" / "proj.depth.A.tlt"
        save_tensor(a, load_tensor(a) * 1e300)
        proc = run_warnings_as_errors("merge", "--manifest", str(scene / "manifest.json"), "--params",
                                      str(tmp_path / "p"), "--variant", variant, "--threads", threads,
                                      "--out", str(tmp_path / "z.tlt"))
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stderr.startswith("numerical failure: merge produced non-finite values (")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    def test_mac_count_printed_for_tlam_only(self, tmp_path, scene, params, capsys):
        manifest = str(scene / "manifest.json")
        assert run("init-params", "--manifest", manifest, "--variant", "clam", "--d", "12",
                   "--out", str(tmp_path / "clam")) == EXIT_OK
        capsys.readouterr()
        for variant, p in (("clam", tmp_path / "clam"), ("naive", None), ("tlam", params)):
            argv = ["--params", str(p)] if p else []
            assert run("merge", "--manifest", manifest, *argv, "--variant", variant,
                       "--out", str(tmp_path / "z.tlt"), "--threads", "1") == EXIT_OK
            out = capsys.readouterr().out
            if variant == "tlam":
                # 5 labels, d=12, 2 heads, 1 block, 8x8 pixels
                assert f"attention MACs: {fusion.count_attention_macs(5, 12, 2, 1, 64)}\n" in out
            else:
                assert "MACs" not in out

    def test_threads_reproducible(self, tmp_path, wide_scene):
        scene, params = wide_scene
        a, b = tmp_path / "a.tlt", tmp_path / "b.tlt"
        for out in (a, b):
            assert run("merge", "--manifest", str(scene / "manifest.json"),
                       "--params", str(params), "--variant", "tlam",
                       "--out", str(out), "--threads", "2") == EXIT_OK
        assert len(fusion.pixel_spans(load_tensor(a)[..., 0].size, WIDE_PIXEL_SIZE)) >= 2
        assert a.read_bytes() == b.read_bytes()

    def test_output_independent_of_threads(self, tmp_path, wide_scene):
        scene, params = wide_scene
        a, b = tmp_path / "a.tlt", tmp_path / "b.tlt"
        for out, threads in ((a, "1"), (b, "2")):
            assert run("merge", "--manifest", str(scene / "manifest.json"),
                       "--params", str(params), "--variant", "tlam",
                       "--out", str(out), "--threads", threads) == EXIT_OK
        assert len(fusion.pixel_spans(load_tensor(a)[..., 0].size, WIDE_PIXEL_SIZE)) >= 2
        assert a.read_bytes() == b.read_bytes()


class TestManifestInput:
    @pytest.mark.parametrize(
        "doc",
        [[1], {"labels": 5, "height": 8, "width": 8}, {"labels": [7], "height": 8, "width": 8}],
    )
    def test_malformed_manifest_exits_1(self, tmp_path, doc, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        code = run("merge", "--manifest", str(manifest), "--variant", "naive",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: manifest")

    @pytest.mark.parametrize("label, channels, match", [(0, "x", "must be an integer"), (1, 7, "'channels' is 7")])
    def test_bad_channels_exits_1(self, tmp_path, scene, capsys, label, channels, match):
        doc = json.loads((scene / "manifest.json").read_text())
        doc["labels"][label]["channels"] = channels
        manifest = scene / "bad.json"
        manifest.write_text(json.dumps(doc))
        code = run("merge", "--manifest", str(manifest), "--variant", "naive",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest label {label}: 'channels'") and match in err

    @pytest.mark.parametrize("key", ["height", "width"])
    def test_dims_disagreeing_with_tensors_exit_1(self, tmp_path, scene, capsys, key):
        doc = json.loads((scene / "manifest.json").read_text())
        doc[key] += 1
        manifest = scene / "bad.json"
        manifest.write_text(json.dumps(doc))
        code = run("merge", "--manifest", str(manifest), "--variant", "naive",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: manifest height/width disagree with tensor dims\n"
        assert not (tmp_path / "z.tlt").exists()

    @pytest.mark.parametrize("variant", ["naive", "tlam", "clam"])
    def test_nonfinite_present_value_exits_1(self, tmp_path, scene, capsys, variant):
        # naive once wrote the inf and exited 0; tlam and clam found it after the work and exited 2
        params = [] if variant == "naive" else ["--params", str(tmp_path / "p")]
        if params:
            assert run("init-params", "--manifest", str(scene / "manifest.json"), "--variant", variant,
                       "--d", "8", "--blocks", "1", "--heads", "2", "--out", str(tmp_path / "p")) == EXIT_OK
        depth = load_tensor(scene / "depth.values.tlt")
        depth[2, 3, 0] = np.inf
        save_tensor(scene / "depth.values.tlt", depth)
        code = run("merge", "--manifest", str(scene / "manifest.json"), "--variant", variant, *params,
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: label 'depth': value inf at present pixel (2, 3) is not finite\n"
        assert not (tmp_path / "z.tlt").exists()

    def test_float_mask_of_other_values_exits_1(self, tmp_path, scene, capsys):
        # such a mask once loaded silently: 300.0 as present, 0.5 as absent
        mask = load_tensor(scene / "depth.mask.tlt").astype(np.float32)
        mask[0, 0], mask[0, 1] = 300.0, 0.5
        save_tensor(scene / "depth.mask.tlt", mask)
        code = run("merge", "--manifest", str(scene / "manifest.json"), "--variant", "naive",
                   "--out", str(tmp_path / "z.tlt"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: label 'depth': float32 mask holds 300.0 at pixel (0, 0), not 0 or 1\n"

    @pytest.mark.parametrize("variant, bad", [("tlam", np.inf), ("clam", 1e200)], ids=["inf", "f64-overflow"])
    def test_nonfinite_value_under_warnings_as_errors_exits_1(self, tmp_path, scene, variant, bad):
        # a fresh interpreter under CI's -W error::RuntimeWarning: GeLU's
        # overflow on an inf, or the float32 cast of 1e200, once ended in a traceback
        assert run("init-params", "--manifest", str(scene / "manifest.json"), "--variant", variant,
                   "--d", "8", "--blocks", "1", "--heads", "2", "--out", str(tmp_path / "p")) == EXIT_OK
        depth = load_tensor(scene / "depth.values.tlt").astype(np.float64)
        depth[1, 1, 0] = bad
        save_tensor(scene / "depth.values.tlt", depth)
        proc = run_warnings_as_errors("merge", "--manifest", str(scene / "manifest.json"), "--params",
                                      str(tmp_path / "p"), "--variant", variant, "--out", str(tmp_path / "z.tlt"))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: label 'depth': value inf at present pixel (1, 1) is not finite\n"

    @given(doc=_manifest_docs())
    @settings(max_examples=200, deadline=None)
    def test_fuzz_any_json_exits_0_or_1(self, fuzz_dir, doc):
        manifest = fuzz_dir / "fuzz.json"
        manifest.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run("merge", "--manifest", str(manifest), "--variant", "naive",
                       "--out", str(fuzz_dir / "z.tlt"))
        assert code in (EXIT_OK, EXIT_USAGE)
        assert (code == EXIT_USAGE) == err.getvalue().startswith("error: ")


    @pytest.mark.parametrize("command", ["sparsify", "init-params"])
    def test_label_name_with_path_exits_1(self, tmp_path, scene, capsys, command):
        # a label name is a file stem: "../../escaped" would write two levels up
        doc = json.loads((scene / "manifest.json").read_text())
        doc["labels"][0]["name"] = "../../escaped"
        manifest = scene / "escape.json"
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "out" / "a"
        extra = {
            "sparsify": ["--instances", str(scene / "instances.tlt"), "--sparsity", "0.5",
                         "--out-manifest", str(out / "manifest.json")],
            "init-params": ["--d", "8", "--blocks", "1", "--heads", "2", "--out", str(out)],
        }[command]
        assert run(command, "--manifest", str(manifest), *extra) == EXIT_USAGE
        assert "label name '../../escaped' must be a non-empty file stem" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*escaped*"))


@pytest.fixture(scope="module")
def value_scene(tmp_path_factory):
    """A 4x4 synthetic scene and tlam and clam params for it at d=4; the
    value-contract property edits copies of the scene under ``work/``."""
    base = tmp_path_factory.mktemp("values")
    manifest = str(base / "scene" / "manifest.json")
    assert run("synth-scene", "--size", "4x4", "--regions", "2", "--seed", "3",
               "--out-dir", str(base / "scene")) == EXIT_OK
    for variant in ("tlam", "clam"):
        assert run("init-params", "--manifest", manifest, "--variant", variant, "--d", "4", "--blocks", "1",
                   "--heads", "2", "--out", str(base / variant)) == EXIT_OK
    return base


class TestValueContract:
    @given(edit=_value_edits())
    @settings(max_examples=100, deadline=None)
    def test_any_label_values_exit_0_1_or_2_with_a_message(self, value_scene, edit):
        # under CI's warning filter, in process: a numpy warning or any other
        # exception that escapes main fails the property, as a traceback would
        label, values, mask_dtype, mask_values = edit
        work = value_scene / "work"
        shutil.copytree(value_scene / "scene", work, dirs_exist_ok=True)
        v = load_tensor(work / f"{label}.values.tlt").astype(np.float64)
        for (y, x), c, value in values:
            v[y, x, c % v.shape[2]] = value
        save_tensor(work / f"{label}.values.tlt", v)
        m = load_tensor(work / f"{label}.mask.tlt").astype(mask_dtype)
        for (y, x), value in mask_values:
            m[y, x] = value
        save_tensor(work / f"{label}.mask.tlt", m)
        concept = np.zeros((4, 4, 3))
        concept[..., : v.shape[2]] = v[..., :3]
        save_tensor(work / "concept.tlt", concept)
        manifest = str(work / "manifest.json")
        merge = ["merge", "--manifest", manifest, "--threads", "2", "--out", str(work / "z.tlt")]
        commands = [
            [*merge, "--variant", "naive"],
            [*merge, "--variant", "tlam", "--params", str(value_scene / "tlam")],
            [*merge, "--variant", "clam", "--params", str(value_scene / "clam")],
            ["sparsify", "--manifest", manifest, "--instances", str(work / "instances.tlt"), "--sparsity", "0.5",
             "--out-manifest", str(work / "sparse" / "manifest.json")],
            ["init-params", "--manifest", manifest, "--d", "4", "--blocks", "1", "--heads", "2",
             "--out", str(work / "params")],
            ["visualize", "--concept", str(work / "concept.tlt"), "--out", str(work / "concept.ppm")],
        ]
        for argv in commands:
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            prefix = {EXIT_OK: "", EXIT_USAGE: "error: ", EXIT_NUMERIC: "numerical failure: "}[code]
            assert err.getvalue().startswith(prefix) and (err.getvalue() == "") == (code == EXIT_OK), argv


class TestInitParams:
    def test_zero_heads_exits_1(self, tmp_path, scene, capsys):
        code = run("init-params", "--manifest", str(scene / "manifest.json"),
                   "--heads", "0", "--out", str(tmp_path / "p"))
        assert code == EXIT_USAGE
        assert "0 heads" in capsys.readouterr().err

    def test_clam_width_indivisible_by_heads_exits_0(self, tmp_path, scene):
        # clam has no attention, so the default 3 heads put no rule on d
        code = run("init-params", "--manifest", str(scene / "manifest.json"),
                   "--variant", "clam", "--d", "16", "--out", str(tmp_path / "p"))
        assert code == EXIT_OK

    def test_clam_heads_ignored(self, tmp_path, scene):
        # --heads applies to tlam only: clam writes no heads, so any value passes
        code = run("init-params", "--manifest", str(scene / "manifest.json"),
                   "--variant", "clam", "--heads", "0", "--out", str(tmp_path / "p"))
        assert code == EXIT_OK
        assert "heads" not in json.loads((tmp_path / "p" / "params.json").read_text())

    def test_fewer_blocks_over_more_equals_fresh_write(self, tmp_path, scene):
        # a writer deletes nothing: block1's 13 files stay beside the new
        # params, and the loader reads only the files params.json names
        init = ["init-params", "--manifest", str(scene / "manifest.json"), "--d", "8", "--heads", "2"]
        for blocks, out in (("2", "old"), ("1", "old"), ("1", "new")):
            assert run(*init, "--blocks", blocks, "--out", str(tmp_path / out)) == EXIT_OK
        old, new = tmp_path / "old", tmp_path / "new"
        assert len(list(old.iterdir())) == 42 and len(list(new.iterdir())) == 29
        assert (old / "params.json").read_bytes() == (new / "params.json").read_bytes()
        items = [fusion.param_items(fusion.load_merger_params(d)) for d in (old, new)]
        assert [(n, t.tobytes()) for n, t in items[0]] == [(n, t.tobytes()) for n, t in items[1]]
        for d in ("old", "new"):
            assert run("merge", "--manifest", str(scene / "manifest.json"), "--params", str(tmp_path / d),
                       "--variant", "tlam", "--out", str(tmp_path / f"{d}.tlt")) == EXIT_OK
        assert (tmp_path / "old.tlt").read_bytes() == (tmp_path / "new.tlt").read_bytes()


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

    def test_instance_map_of_wrong_size_exits_1(self, tmp_path, scene, capsys):
        save_tensor(tmp_path / "inst.tlt", np.zeros((4, 8), dtype=np.uint8))
        out = tmp_path / "sparse" / "manifest.json"
        assert run("sparsify", "--manifest", str(scene / "manifest.json"),
                   "--instances", str(tmp_path / "inst.tlt"),
                   "--sparsity", "0.5", "--out-manifest", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: instance map dims (4, 8) differ from (8, 8)\n"
        assert not out.parent.exists()

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

    def test_corrupted_gradients_fail(self, corrupt_gradients):
        corrupt_gradients(0.1)
        assert run("gradcheck", "--preset", "small") == EXIT_NUMERIC

    def test_corrupt_flag_rejected(self):
        assert run("gradcheck", "--preset", "small", "--corrupt") == EXIT_USAGE


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
        code = run("train-toy", "--size", "8x8", "--regions", "3", "--iters", "15",
                   "--lr", "1e90", "--out", str(out), "--threads", "1")
        assert code == EXIT_NUMERIC
        assert json.loads(out.read_text())["diverged_at"] is not None

    @pytest.mark.parametrize("mode", ["l2", "adv"])
    @pytest.mark.parametrize("lr", ["-0.005", "0", "nan", "inf"])
    def test_bad_lr_exits_1(self, tmp_path, capsys, lr, mode):
        # a negative lr once trained by gradient ascent and exited 0; nan and
        # inf exited 2 as a divergence at iteration 1
        out = tmp_path / "r.json"
        assert run("train-toy", "--mode", mode, "--size", "8x8", "--regions", "3", "--iters", "2",
                   f"--lr={lr}", "--out", str(out), "--threads", "1") == EXIT_USAGE
        assert capsys.readouterr().err == f"error: lr must be a finite number > 0, got {float(lr)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_divergence_under_warnings_as_errors_exits_2(self, tmp_path, threads):
        # a 32x32 grid is three spans at d=16; the overflow of a diverging
        # step once ended in a traceback under -W error::RuntimeWarning
        out = tmp_path / "r.json"
        proc = run_warnings_as_errors("train-toy", "--size", "32x32", "--iters", "15", "--lr", "1e90",
                                      "--threads", threads, "--out", str(out))
        assert proc.returncode == EXIT_NUMERIC
        assert "Traceback" not in proc.stderr
        assert proc.stdout.startswith("diverged at iteration ")
        assert json.loads(out.read_text())["diverged_at"] is not None


    def test_pca_non_convergence_exits_2(self, tmp_path, capsys, monkeypatch):
        fail_eigh(monkeypatch)
        out = tmp_path / "r.json"
        assert run("train-toy", "--size", "8x8", "--regions", "3", "--iters", "1",
                   "--out", str(out), "--threads", "1") == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"numerical failure: {EIGH_FAILED}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.ppm").exists()


# two labels on a 4x4 grid, d=4, one block of one head, on one thread
SMALL_BENCH = ["--labels", "2", "--size", "4x4", "--d", "4", "--blocks", "1", "--heads", "1",
               "--repeat", "1", "--threads", "1"]


class TestBench:
    def test_quick_bench(self, capsys):
        assert run("bench", "--labels", "2", "--size", "8x8", "--d", "8",
                   "--blocks", "1", "--heads", "2", "--repeat", "2",
                   "--threads", "1") == EXIT_OK
        out = capsys.readouterr().out
        assert "MAC ratio 4.0" in out
        assert "MAC ratio 2.0" in out
        assert "min" in out and "median" in out

    def test_bench_labels_attention_macs(self, capsys):
        assert run("bench", *SMALL_BENCH) == EXIT_OK
        out = capsys.readouterr().out
        assert "attention MACs: " in out and "attention MACs/sec: " in out

    def test_counter_disagreeing_with_formula_exits_2(self, capsys, monkeypatch):
        counted = fusion.count_attention_macs(2, 4, 1, 1, 16)
        monkeypatch.setattr(fusion, "count_attention_macs", lambda *args: counted + 1)
        assert run("bench", *SMALL_BENCH) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert out == f"MAC counter mismatch: counted {counted}, formula {counted + 1}\n"

    def test_counts_not_scaling_exit_2(self, capsys, monkeypatch):
        # every attention call counts 1 and the formula agrees on the base
        # run, so only the doubled runs' ratios show the fault
        add = nn_ops.MacCounter.add
        monkeypatch.setattr(nn_ops.MacCounter, "add", lambda self, n: add(self, 1))
        monkeypatch.setattr(fusion, "count_attention_macs", lambda *args: nn_ops.attention_mac_counter.count)
        assert run("bench", *SMALL_BENCH) == EXIT_NUMERIC
        out = capsys.readouterr().out
        assert "mismatch" not in out
        assert "N doubled   -> MAC ratio 1.0 (expect 4.0)\n" in out
        assert "HW doubled  -> MAC ratio 1.0 (expect 2.0)\n" in out

    @pytest.mark.parametrize("value", ["1", None])
    def test_bench_prints_blas_threads(self, capsys, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert run("bench", "--labels", "2", "--size", "4x4", "--d", "4",
                   "--blocks", "1", "--heads", "1", "--repeat", "1",
                   "--threads", "2") == EXIT_OK
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith(f" threads=2 OPENBLAS_NUM_THREADS={value or 'unset'}")


class TestVisualize:
    def test_oversized_header_exits_1(self, tmp_path, capsys):
        concept = tmp_path / "huge.tlt"
        concept.write_bytes(b"TLT1\x03" + b"\xff\xff\x00\x00" * 3 + b"\x01" + b"\0" * 5)
        code = run("visualize", "--concept", str(concept), "--out", str(tmp_path / "z.ppm"))
        assert code == EXIT_USAGE
        assert "truncated" in capsys.readouterr().err

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

    def test_rank_two_concept_exits_1(self, tmp_path, capsys):
        save_tensor(tmp_path / "z.tlt", np.zeros((4, 5)))
        out = tmp_path / "o.ppm"
        assert run("visualize", "--concept", str(tmp_path / "z.tlt"), "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: concept tensor must be H x W x d, got shape (4, 5)\n"
        assert not out.exists()

    def test_basis_out_is_the_projections_basis(self, tmp_path):
        z = np.random.default_rng(5).standard_normal((4, 4, 5))
        save_tensor(tmp_path / "z.tlt", z)
        assert run("visualize", "--concept", str(tmp_path / "z.tlt"), "--out", str(tmp_path / "o.ppm"),
                   "--basis-out", str(tmp_path / "basis")) == EXIT_OK
        want, _ = metrics_viz.pca_project_3(z)
        got = metrics_viz.load_pca_basis(tmp_path / "basis")
        for field in ("mean", "components", "explained_variance"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_missing_input(self, tmp_path):
        assert run("visualize", "--concept", str(tmp_path / "nope.tlt"),
                   "--out", str(tmp_path / "o.ppm")) == EXIT_USAGE

    @pytest.mark.parametrize(
        "bad, code",
        [(np.nan, EXIT_USAGE), (np.inf, EXIT_USAGE), (1e300, EXIT_NUMERIC)],
        ids=["nan", "inf", "overflow"],
    )
    def test_non_finite_concept_writes_no_image(self, tmp_path, capsys, bad, code):
        z = np.random.default_rng(3).standard_normal((4, 4, 5))
        if bad == 1e300:  # finite, but the covariance overflows
            z = np.where(z < 0.0, -1e300, 1e300)
        else:
            z[1, 2, 0] = bad
        save_tensor(tmp_path / "z.tlt", z)
        out = tmp_path / "o.ppm"
        assert run("visualize", "--concept", str(tmp_path / "z.tlt"), "--out", str(out)) == code
        assert ("covariance" if code == EXIT_NUMERIC else "non-finite") in capsys.readouterr().err
        assert not out.exists()

    def test_pca_non_convergence_exits_2(self, tmp_path, capsys, monkeypatch):
        fail_eigh(monkeypatch)
        z = np.random.default_rng(4).standard_normal((4, 4, 5))
        save_tensor(tmp_path / "z.tlt", z)
        out = tmp_path / "o.ppm"
        assert run("visualize", "--concept", str(tmp_path / "z.tlt"), "--out", str(out),
                   "--basis-out", str(tmp_path / "basis")) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert f"numerical failure: {EIGH_FAILED}" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "basis").exists()


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert run("merge", "--wat", "x") == EXIT_USAGE

    def test_unknown_command_rejected(self):
        assert run("frobnicate") == EXIT_USAGE

    def test_bad_size_string(self, tmp_path):
        assert run("synth-scene", "--size", "16", "--out-dir", str(tmp_path / "s")) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run("--help") == EXIT_OK

    @pytest.mark.parametrize(
        "argv",
        [
            ["init-params", "--manifest", "{scene}", "--d", "0", "--out", "{tmp}/p"],
            ["init-params", "--manifest", "{scene}", "--blocks", "-2", "--out", "{tmp}/p"],
            ["train-toy", "--size", "4x4", "--d", "0", "--out", "{tmp}/r.json"],
            ["train-toy", "--size", "4x4", "--blocks", "-1", "--out", "{tmp}/r.json"],
            ["train-toy", "--size", "4x4", "--iters", "-3", "--out", "{tmp}/r.json"],
            ["bench", "--size", "4x0"],
            ["bench", "--size", "0x4"],
            ["bench", "--size", "4x4", "--repeat", "0"],
        ],
        ids=["init-d0", "init-blocks-2", "train-d0", "train-blocks-1", "train-iters-3",
             "bench-size-4x0", "bench-size-0x4", "bench-repeat0"],
    )
    def test_out_of_range_numbers_exit_1(self, tmp_path, scene, capsys, argv):
        argv = [a.format(scene=scene / "manifest.json", tmp=tmp_path) for a in argv]
        assert run(*argv, "--threads", "1") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["merge", "--manifest", "{scene}", "--variant", "naive", "--out", "{tmp}/z.tlt"],
            ["train-toy", "--size", "4x4", "--iters", "1", "--out", "{tmp}/r.json"],
        ],
        ids=["merge", "train-toy"],
    )
    def test_threads_below_one_exit_1(self, tmp_path, scene, capsys, argv, threads):
        argv = [a.format(scene=scene / "manifest.json", tmp=tmp_path) for a in argv]
        assert run(*argv, "--threads", threads) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument --threads: must be >= 1, got {threads}" in err and "Traceback" not in err
        assert not (tmp_path / "z.tlt").exists() and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["init-params", "--manifest", "{scene}", "--d", "100000000000000000", "--heads", "1", "--out", "{tmp}/p"],
            ["train-toy", "--size", "1000000000x1000000000", "--iters", "0", "--out", "{tmp}/r.json"],
            ["synth-scene", "--size", "1000000000x1000000000", "--out-dir", "{tmp}/s"],
        ],
        ids=["init-params", "train-toy", "synth-scene"],
    )
    def test_input_too_large_to_allocate_exits_1(self, tmp_path, scene, capsys, argv):
        # each first allocation asks for over 128 PiB, more than any 64-bit
        # address space holds, and under 2**63 bytes, where numpy would raise
        # ValueError instead: it fails at once, whatever the overcommit policy
        argv = [a.format(scene=scene / "manifest.json", tmp=tmp_path) for a in argv]
        assert run(*argv, "--threads", "1") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scene"]

    @pytest.mark.parametrize("sparsity", ["7", "-0.1", "nan"])
    def test_train_toy_sparsity_checked_without_iterations(self, tmp_path, capsys, sparsity):
        out = tmp_path / "r.json"
        assert run("train-toy", "--iters", "0", "--sparsity", sparsity, "--size", "8x8", "--d", "8",
                   "--blocks", "1", "--threads", "1", "--out", str(out)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: sparsity must be in [0, 1], got {float(sparsity)}\n"
        assert not out.exists()

    def test_bench_without_blocks_exits_0(self, capsys):
        assert run("bench", "--labels", "2", "--size", "4x4", "--d", "4", "--blocks", "0",
                   "--heads", "1", "--repeat", "1", "--threads", "1") == EXIT_OK
        assert "attention MACs: 0" in capsys.readouterr().out


# argv for every command; most are parsed first with optional values set and
# then with their defaults, so a value that leaked from one parse into the next
# would show
PARSER_ARGVS = [
    ["merge", "--manifest", "m.json", "--params", "p", "--variant", "clam", "--out", "z.tlt", "--threads", "2"],
    ["merge", "--manifest", "m.json", "--variant", "naive", "--out", "z.tlt"],
    ["sparsify", "--manifest", "m.json", "--instances", "i.tlt", "--sparsity", "0.5", "--out-manifest", "s.json"],
    ["gradcheck", "--preset", "full", "--seed", "3"],
    ["gradcheck"],
    ["train-toy", "--size", "8x8", "--iters", "3", "--mode", "adv", "--lr", "0.1", "--out", "r.json"],
    ["train-toy", "--out", "r.json"],
    ["bench", "--labels", "2", "--size", "4x4", "--d", "8", "--repeat", "1"],
    ["bench"],
    ["visualize", "--concept", "z.tlt", "--out", "z.ppm", "--basis-out", "b"],
    ["visualize", "--concept", "z.tlt", "--out", "z.ppm"],
    ["synth-scene", "--size", "4x4", "--regions", "2", "--out-dir", "s"],
    ["synth-scene", "--out-dir", "s"],
    ["init-params", "--manifest", "m.json", "--variant", "clam", "--d", "8", "--blocks", "0", "--out", "p"],
    ["init-params", "--manifest", "m.json", "--out", "p"],
]


class TestParser:
    """``main`` builds the parser once per process and looks each command's
    handler up by name when it runs."""

    def test_parser_built_once(self, tmp_path, monkeypatch):
        assert run("synth-scene", "--size", "4x4", "--out-dir", str(tmp_path / "a")) == EXIT_OK
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run("synth-scene", "--size", "4x4", "--out-dir", str(tmp_path / "b")) == EXIT_OK
        assert run("frobnicate") == EXIT_USAGE
        assert built == []
        cli.build_parser.__wrapped__()
        assert "labelfuse" in built

    def test_handler_looked_up_when_command_runs(self, monkeypatch):
        assert run("frobnicate") == EXIT_USAGE
        seen = []

        def visualize(args):
            seen.append(vars(args))
            return EXIT_NUMERIC

        monkeypatch.setattr(cli, "cmd_visualize", visualize)
        assert run("visualize", "--concept", "z.tlt", "--out", "z.ppm", "--threads", "1") == EXIT_NUMERIC
        assert seen == [{"command": "visualize", "seed": 42, "threads": 1, "concept": "z.tlt",
                         "out": "z.ppm", "basis_out": None}]

    def test_cached_parser_matches_fresh_one(self):
        handlers = {name[len("cmd_"):].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
        assert {argv[0] for argv in PARSER_ARGVS} == handlers
        cached = cli.build_parser()
        for argv in PARSER_ARGVS:
            assert vars(cached.parse_args(argv)) == vars(cli.build_parser.__wrapped__().parse_args(argv)), argv
        assert cli.build_parser() is cached


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "labelfuse.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "merge" in proc.stdout and "train-toy" in proc.stdout
