import json
import os
import re

import numpy as np
import pytest

from labelfuse.label_model import (
    InstanceMap,
    LabelSet,
    SparsityMaskSet,
    apply_masks,
    generate_sparse_masks,
    load_instance_map,
    load_label_set,
    make_label,
    mask_out_label,
    save_instance_map,
    save_label_set,
    scene_target,
    synth_scene,
    validate_label_set,
)
from labelfuse.tensor_core import Rng, save_tensor


def two_label_set(h=8, w=8):
    rng = np.random.default_rng(0)
    return LabelSet(
        labels=[
            make_label("depth", "continuous", rng.standard_normal((h, w, 1))),
            make_label("sem", "discrete", rng.standard_normal((h, w, 3))),
        ]
    )


def grid_instances(n_regions, h=100, w=100):
    # one region per pixel when n_regions == h*w; otherwise row bands
    ids = (np.arange(h * w) * n_regions // (h * w)).reshape(h, w)
    return InstanceMap(ids=ids)


class TestValidate:
    def test_ok(self):
        validate_label_set(two_label_set())

    def test_dimension_mismatch_names_label(self):
        s = two_label_set()
        s.labels[1] = make_label("sem", "discrete", np.zeros((8, 9, 3)))
        with pytest.raises(ValueError, match="sem"):
            validate_label_set(s)

    def test_unknown_kind_names_label(self):
        s = two_label_set()
        s.labels[0].kind = "ordinal"
        with pytest.raises(ValueError, match="label 'depth': unknown kind 'ordinal'"):
            validate_label_set(s)

    def test_duplicate_name(self):
        s = two_label_set()
        s.labels[1].name = "depth"
        with pytest.raises(ValueError, match="duplicate"):
            validate_label_set(s)

    def test_empty_set(self):
        with pytest.raises(ValueError, match="empty"):
            validate_label_set(LabelSet(labels=[]))

    def test_mask_dimension_mismatch_names_label(self):
        s = two_label_set()
        s.labels[1].mask = np.ones((8, 9), dtype=np.uint8)
        with pytest.raises(ValueError, match=r"label 'sem': mask dims \(8, 9\) differ from \(8, 8\)"):
            validate_label_set(s)

    def test_values_of_wrong_rank(self):
        with pytest.raises(ValueError, match=r"label 'depth': values must be H x W x C, got shape \(8, 8\)"):
            make_label("depth", "continuous", np.zeros((8, 8)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_present_value_names_label_and_pixel(self, bad):
        s = two_label_set()
        s.labels[1].values[3, 5, 2] = bad
        s.labels[1].values[6, 1, 0] = bad
        with pytest.raises(ValueError, match=rf"label 'sem': value {bad} at present pixel \(3, 5\) is not finite"):
            validate_label_set(s)

    def test_nonfinite_absent_value_ignored(self):
        s = two_label_set()
        s.labels[0].values[2, 2, 0] = np.nan
        s.labels[0].mask[2, 2] = 0
        validate_label_set(s)

    def test_by_name_missing_label(self):
        with pytest.raises(KeyError, match="no label named 'normals'"):
            two_label_set().by_name("normals")


class TestSparseMasks:
    def test_sparsity_zero_all_present(self):
        s = two_label_set()
        m = generate_sparse_masks(grid_instances(10, 8, 8), s, 0.0, seed=1)
        assert all(mask.all() for mask in m.masks.values())

    def test_sparsity_one_all_absent(self):
        s = two_label_set()
        m = generate_sparse_masks(grid_instances(10, 8, 8), s, 1.0, seed=1)
        assert all(not mask.any() for mask in m.masks.values())

    def test_out_of_range_sparsity(self):
        s = two_label_set()
        with pytest.raises(ValueError, match="sparsity"):
            generate_sparse_masks(grid_instances(4, 8, 8), s, 1.5, seed=0)

    def test_monte_carlo_drop_rate(self):
        # 10 000 (label, region) pairs: one label, one region per pixel
        lab = make_label("a", "continuous", np.zeros((100, 100, 1)))
        s = LabelSet(labels=[lab])
        inst = InstanceMap(ids=np.arange(10_000).reshape(100, 100))
        m = generate_sparse_masks(inst, s, 0.5, seed=7)
        absent = 1.0 - m.masks["a"].mean()
        assert 0.48 <= absent <= 0.52

    def test_region_constant_masks(self):
        labels, inst, _ = synth_scene(16, 16, 5, seed=3)
        m = generate_sparse_masks(inst, labels, 0.5, seed=9)
        for mask in m.masks.values():
            for rid in np.unique(inst.ids):
                bits = mask[inst.ids == rid]
                assert bits.min() == bits.max()

    def test_label_independence(self):
        s = LabelSet(
            labels=[
                make_label("a", "continuous", np.zeros((100, 100, 1))),
                make_label("b", "continuous", np.zeros((100, 100, 1))),
            ]
        )
        inst = InstanceMap(ids=np.arange(10_000).reshape(100, 100))
        m = generate_sparse_masks(inst, s, 0.5, seed=1234)
        drop_a = 1.0 - m.masks["a"].ravel().astype(float)
        drop_b = 1.0 - m.masks["b"].ravel().astype(float)
        corr = np.corrcoef(drop_a, drop_b)[0, 1]
        assert abs(corr) <= 0.03

    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.5, 1.0])
    def test_one_draw_per_label_then_region(self, sparsity):
        # the protocol's order: one scalar draw per (label, ascending region
        # id) pair, regions given by arbitrary ids, negative ones included
        labels, _, _ = synth_scene(9, 7, 4, seed=2)
        ids = np.random.default_rng(4).integers(-2, 6, (9, 7))
        m = generate_sparse_masks(InstanceMap(ids=ids), labels, sparsity, seed=21)
        rng = Rng(21)
        for lab in labels:
            want = np.ones((9, 7), dtype=np.uint8)
            for rid in np.unique(ids):
                if rng.uniform() < sparsity:
                    want[ids == rid] = 0
            assert m.masks[lab.name].dtype == np.uint8
            assert m.masks[lab.name].tobytes() == want.tobytes()

    def test_deterministic_given_seed(self):
        labels, inst, _ = synth_scene(12, 12, 4, seed=5)
        m1 = generate_sparse_masks(inst, labels, 0.4, seed=77)
        m2 = generate_sparse_masks(inst, labels, 0.4, seed=77)
        for name in m1.masks:
            assert np.array_equal(m1.masks[name], m2.masks[name])


class TestApplyMasks:
    def test_all_present_is_identity(self):
        s = two_label_set()
        m = generate_sparse_masks(grid_instances(4, 8, 8), s, 0.0, seed=0)
        out = apply_masks(s, m)
        for a, b in zip(s, out):
            assert a.values.tobytes() == b.values.tobytes()
            assert np.array_equal(a.mask, b.mask)

    def test_all_absent_zeroes_everything(self):
        s = two_label_set()
        m = generate_sparse_masks(grid_instances(4, 8, 8), s, 1.0, seed=0)
        out = apply_masks(s, m)
        for lab in out:
            assert not lab.values.any()
            assert not lab.mask.any()

    def test_single_pixel_zeroed(self):
        s = two_label_set()
        masks = {name: np.ones((8, 8), dtype=np.uint8) for name in ("depth", "sem")}
        masks["depth"][0, 0] = 0
        out = apply_masks(s, SparsityMaskSet(masks=masks))
        depth_in, depth_out = s.by_name("depth"), out.by_name("depth")
        assert depth_out.values[0, 0, 0] == 0.0
        assert depth_out.mask[0, 0] == 0
        changed = depth_in.values != depth_out.values
        assert changed.sum() == 1 and changed[0, 0, 0]
        sem_in, sem_out = s.by_name("sem"), out.by_name("sem")
        assert sem_in.values.tobytes() == sem_out.values.tobytes()

    def test_any_nonzero_mask_byte_is_present(self):
        # the merges read any nonzero byte as present; so must the masking
        s = two_label_set()
        s.labels[0].mask = np.full((8, 8), 2, dtype=np.uint8)
        s.labels[1].mask[0, 0] = 3
        sp = generate_sparse_masks(grid_instances(4, 8, 8), s, 0.0, seed=0)
        sp.masks["sem"][0, 1] = 2
        out = apply_masks(s, sp)
        for a, b in zip(s, out):
            assert (b.mask == 1).all()
            assert a.values.tobytes() == b.values.tobytes()

    def test_idempotent(self):
        labels, inst, _ = synth_scene(10, 10, 4, seed=2)
        m = generate_sparse_masks(inst, labels, 0.5, seed=6)
        once = apply_masks(labels, m)
        twice = apply_masks(once, m)
        for a, b in zip(once, twice):
            assert a.values.tobytes() == b.values.tobytes()
            assert np.array_equal(a.mask, b.mask)

    def test_dim_mismatch(self):
        s = two_label_set()
        masks = {"depth": np.ones((4, 4), dtype=np.uint8), "sem": np.ones((8, 8), dtype=np.uint8)}
        with pytest.raises(ValueError, match="depth"):
            apply_masks(s, SparsityMaskSet(masks=masks))

    def test_mask_set_without_a_label(self):
        masks = {"depth": np.ones((8, 8), dtype=np.uint8)}
        with pytest.raises(ValueError, match="sparsity mask set has no entry for label 'sem'"):
            apply_masks(two_label_set(), SparsityMaskSet(masks=masks))


class TestSynthScene:
    def test_single_region_flat(self):
        labels, inst, _ = synth_scene(8, 8, 1, seed=0)
        assert not labels.by_name("edges").values.any()
        normals = labels.by_name("normals").values
        assert np.unique(normals.reshape(-1, 3), axis=0).shape[0] == 1
        assert (inst.ids == 0).all()

    def test_semantics_one_hot(self):
        labels, _, _ = synth_scene(12, 16, 6, seed=4)
        sem = labels.by_name("semantics").values
        assert np.allclose(sem.sum(axis=-1), 1.0)
        assert set(np.unique(sem)) == {0.0, 1.0}

    def test_bit_identical_across_runs(self):
        a = synth_scene(10, 10, 5, seed=11)
        b = synth_scene(10, 10, 5, seed=11)
        for la, lb in zip(a[0], b[0]):
            assert la.values.tobytes() == lb.values.tobytes()
        assert np.array_equal(a[1].ids, b[1].ids)
        assert a[2].tobytes() == b[2].tobytes()

    def test_target_reconstructible_from_labels(self):
        labels, _, target = synth_scene(14, 10, 6, seed=8)
        rebuilt = scene_target(labels, 6)
        assert rebuilt.tobytes() == target.tobytes()

    def test_edges_mark_region_boundaries(self):
        labels, inst, _ = synth_scene(9, 9, 3, seed=1)
        edges = labels.by_name("edges").values[..., 0]
        ids = inst.ids
        h, w = ids.shape
        for i in range(h):
            for j in range(w):
                expect = 0.0
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and ids[ni, nj] != ids[i, j]:
                        expect = 1.0
                assert edges[i, j] == expect

    def test_parameter_range_errors(self):
        with pytest.raises(ValueError):
            synth_scene(2, 8, 2, seed=0)
        with pytest.raises(ValueError):
            synth_scene(8, 8, 0, seed=0)
        with pytest.raises(ValueError):
            synth_scene(8, 8, 17, seed=0)

    def test_mask_out_label(self):
        labels, _, _ = synth_scene(8, 8, 3, seed=0)
        out = mask_out_label(labels, "depth")
        assert not out.by_name("depth").mask.any()
        assert not out.by_name("depth").values.any()
        assert out.by_name("edges").mask.all()


class TestManifest:
    def test_roundtrip(self, tmp_path):
        labels, inst, _ = synth_scene(8, 8, 3, seed=7)
        manifest = tmp_path / "scene" / "manifest.json"
        save_label_set(labels, manifest)
        loaded = load_label_set(manifest)
        assert [l.name for l in loaded] == [l.name for l in labels]
        for a, b in zip(labels, loaded):
            assert a.kind == b.kind
            assert a.values.tobytes() == b.values.tobytes()
            assert np.array_equal(a.mask, b.mask)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([1], "JSON object"),
            ({"height": 8, "width": 8}, "'labels' must be a list"),
            ({"labels": 5, "height": 8, "width": 8}, "'labels' must be a list"),
            ({"labels": [7], "height": 8, "width": 8}, "label 0 must be an object"),
            ({"labels": [{"name": "a", "kind": "discrete", "values": 3, "mask": "m"}],
              "height": 8, "width": 8}, "'values' must be a string"),
            ({"labels": [], "width": 8}, "'height' must be an integer"),
            ({"labels": [], "height": 8, "width": True}, "'width' must be an integer"),
            ({"labels": [{"name": "a", "kind": "discrete", "channels": "x", "values": "v", "mask": "m"}],
              "height": 8, "width": 8}, "'channels' must be an integer"),
        ],
    )
    def test_malformed_manifest_rejected(self, tmp_path, doc, match):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_label_set(manifest)

    def test_channels_must_match_values(self, tmp_path):
        labels, _, _ = synth_scene(8, 8, 3, seed=7)
        manifest = tmp_path / "scene" / "manifest.json"
        save_label_set(labels, manifest)
        doc = json.loads(manifest.read_text())
        doc["labels"][1]["channels"] = 7
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="manifest label 1: 'channels' is 7, values have"):
            load_label_set(manifest)

    def test_deeply_nested_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="nests too deeply"):
            load_label_set(manifest)

    def test_values_beyond_float32_rejected_at_present_pixels_only(self, tmp_path):
        # the cast to float32 turns 1e200 into inf without a warning
        labels, _, _ = synth_scene(8, 8, 3, seed=7)
        manifest = tmp_path / "manifest.json"
        labels.by_name("depth").mask[0, 0] = 0
        save_label_set(labels, manifest)
        depth = labels.by_name("depth").values.astype(np.float64)
        depth[0, 0, 0] = 1e200
        save_tensor(tmp_path / "depth.values.tlt", depth)
        assert load_label_set(manifest).by_name("depth").values[0, 0, 0] == np.inf
        depth[4, 1, 0] = -1e200
        save_tensor(tmp_path / "depth.values.tlt", depth)
        with pytest.raises(ValueError, match=r"label 'depth': value -inf at present pixel \(4, 1\) is not finite"):
            load_label_set(manifest)

    @pytest.mark.parametrize("bad, at", [(300.0, (2, 3)), (0.5, (2, 3)), (np.nan, (7, 7))])
    def test_non_uint8_mask_must_hold_0_and_1(self, tmp_path, bad, at):
        labels, _, _ = synth_scene(8, 8, 3, seed=7)
        manifest = tmp_path / "manifest.json"
        save_label_set(labels, manifest)
        mask = labels.by_name("depth").mask.astype(np.float32)
        save_tensor(tmp_path / "depth.mask.tlt", mask)
        assert np.array_equal(load_label_set(manifest).by_name("depth").mask, labels.by_name("depth").mask)
        mask[at] = bad
        save_tensor(tmp_path / "depth.mask.tlt", mask)
        message = f"label 'depth': float32 mask holds {bad} at pixel {at}, not 0 or 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_label_set(manifest)

    def test_low_rank_values_rejected(self):
        lab = make_label("depth", "continuous", np.zeros((8, 8, 1)))
        lab.values = np.zeros(8, dtype=np.float32)
        with pytest.raises(ValueError, match="rank 3"):
            validate_label_set(LabelSet(labels=[lab]))

    def test_shorter_overwrite_equals_fresh_write(self, tmp_path, open_flags):
        big, _, _ = synth_scene(16, 16, 4, seed=7)
        small = LabelSet(labels=[lab for lab in synth_scene(5, 4, 2, seed=9)[0] if lab.name != "semantics"])
        save_label_set(big, tmp_path / "old" / "manifest.json")
        save_label_set(small, tmp_path / "old" / "manifest.json")
        save_label_set(small, tmp_path / "new" / "manifest.json")
        for lab in small:
            for name in (f"{lab.name}.values.tlt", f"{lab.name}.mask.tlt"):
                assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()
        old = (tmp_path / "old" / "manifest.json").read_bytes()
        assert old == (tmp_path / "new" / "manifest.json").read_bytes()
        assert json.loads(old)["height"] == 5
        assert open_flags and not any(flags & os.O_TRUNC for flags in open_flags)

    def test_stale_tensors_are_kept_and_never_read(self, tmp_path):
        # a writer overwrites the files its manifest names and deletes
        # nothing; the loader reads only the files the manifest names
        big, _, _ = synth_scene(16, 16, 4, seed=7)
        small = LabelSet(labels=[lab for lab in synth_scene(5, 4, 2, seed=9)[0] if lab.name != "semantics"])
        save_label_set(big, tmp_path / "old" / "manifest.json")
        save_label_set(small, tmp_path / "old" / "manifest.json")
        save_label_set(small, tmp_path / "new" / "manifest.json")
        assert (tmp_path / "old" / "semantics.values.tlt").exists()
        assert not (tmp_path / "new" / "semantics.values.tlt").exists()
        old, new = load_label_set(tmp_path / "old" / "manifest.json"), load_label_set(tmp_path / "new" / "manifest.json")
        assert [(l.name, l.kind) for l in old] == [(l.name, l.kind) for l in new]
        for a, b in zip(old, new):
            assert a.values.tobytes() == b.values.tobytes() and a.mask.tobytes() == b.mask.tobytes()

    def test_unencodable_manifest_leaves_file_as_it_was(self, tmp_path, monkeypatch):
        labels, _, _ = synth_scene(8, 8, 3, seed=7)
        manifest = tmp_path / "manifest.json"
        save_label_set(labels, manifest)
        before = manifest.read_bytes()

        def unencodable(doc, **kwargs):
            raise TypeError("Object of type int64 is not JSON serializable")

        monkeypatch.setattr(json, "dumps", unencodable)
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_label_set(labels, manifest)
        assert manifest.read_bytes() == before

    def test_instance_map_roundtrip(self, tmp_path):
        _, inst, _ = synth_scene(8, 8, 4, seed=7)
        path = tmp_path / "inst.tlt"
        save_instance_map(inst, path)
        assert np.array_equal(load_instance_map(path).ids, inst.ids)

    def test_instance_ids_above_255_rejected(self, tmp_path):
        path = tmp_path / "inst.tlt"
        with pytest.raises(ValueError, match="instance ids above 255 do not fit the u8 tensor format"):
            save_instance_map(InstanceMap(ids=np.array([[0, 256]])), path)
        assert not path.exists()
