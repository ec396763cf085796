import numpy as np
import pytest

from labelfuse import fusion, nn_ops
from labelfuse.fusion import (
    clam_merge,
    count_attention_macs,
    init_merger_params,
    load_merger_params,
    naive_concat,
    project_label,
    save_merger_params,
    tlam_merge,
)
from labelfuse.label_model import LabelSet, make_label
from labelfuse.tensor_core import load_tensor, save_tensor
from labelfuse.train_harness import make_random_label_set

from oracles import gelu_scalar


def tiny_set(h=4, w=4, seed=0, sparsity=0.3, n=3):
    return make_random_label_set(n, h, w, seed, sparsity=sparsity)


class TestProjectLabel:
    def test_absent_with_zero_bias(self):
        out = project_label(np.array([5.0, -2.0]), 0, np.eye(2), np.zeros(2))
        assert np.array_equal(out, np.zeros(2))

    def test_absent_gives_gelu_of_bias_bit_equal(self):
        b = np.array([0.3, -1.2, 4.0])
        A = np.random.default_rng(0).standard_normal((3, 2))
        out = project_label(np.array([9.9, -7.7]), 0, A, b)
        expect = nn_ops.gelu(b)
        assert out.tobytes() == expect.tobytes()

    def test_present_identity_projection(self):
        out = project_label(np.array([1.0, -1.0]), 1, np.eye(2), np.zeros(2))
        assert out[0] == pytest.approx(0.8412, abs=1e-4)
        assert out[1] == pytest.approx(-0.1588, abs=1e-4)


class TestTlamMerge:
    def test_l0_identical_embeddings_average_to_shared_token(self):
        # three labels with identical projections, encodings and inputs
        h = w = 3
        vals = np.random.default_rng(1).standard_normal((h, w, 2)).astype(np.float32)
        labels = LabelSet(
            labels=[make_label(f"l{k}", "continuous", vals.copy()) for k in range(3)]
        )
        p = init_merger_params(labels, fusion.TLAM, d=4, n_blocks=0, heads=1, seed=2)
        shared_proj = p.projections["l0"]
        shared_enc = p.encodings["l0"]
        for k in range(3):
            p.projections[f"l{k}"] = shared_proj
            p.encodings[f"l{k}"] = shared_enc
        z = tlam_merge(labels, p)
        tok = nn_ops.gelu(vals.reshape(-1, 2).astype(np.float64) @ shared_proj.A.T + shared_proj.b)
        expect = (tok + shared_enc).reshape(h, w, 4)
        assert np.allclose(z, expect, atol=1e-12)

    def test_l0_two_token_average(self):
        h = w = 2
        a = np.random.default_rng(2).standard_normal((h, w, 1)).astype(np.float32)
        b = np.random.default_rng(3).standard_normal((h, w, 2)).astype(np.float32)
        labels = LabelSet(
            labels=[
                make_label("a", "continuous", a),
                make_label("b", "continuous", b),
            ]
        )
        p = init_merger_params(labels, fusion.TLAM, d=3, n_blocks=0, heads=1, seed=4)
        z = tlam_merge(labels, p)
        t1 = nn_ops.gelu(a.reshape(-1, 1).astype(np.float64) @ p.projections["a"].A.T + p.projections["a"].b) + p.encodings["a"]
        t2 = nn_ops.gelu(b.reshape(-1, 2).astype(np.float64) @ p.projections["b"].A.T + p.projections["b"].b) + p.encodings["b"]
        assert np.allclose(z, ((t1 + t2) / 2).reshape(h, w, 3), atol=1e-12)

    def test_masked_raw_values_do_not_matter(self):
        labels = tiny_set(sparsity=0.5, seed=5)
        p = init_merger_params(labels, fusion.TLAM, d=8, n_blocks=2, heads=2, seed=6)
        z1 = tlam_merge(labels, p)
        tampered = []
        for lab in labels:
            vals = lab.values.copy()
            vals[lab.mask == 0] = 123.456  # absent pixels only
            tampered.append(make_label(lab.name, lab.kind, vals, lab.mask.copy()))
        z2 = tlam_merge(LabelSet(labels=tampered), p)
        assert z1.tobytes() == z2.tobytes()

    def test_pixel_independence_bit_exact(self):
        labels = tiny_set(seed=7, sparsity=0.0)
        p = init_merger_params(labels, fusion.TLAM, d=8, n_blocks=1, heads=2, seed=8)
        z1 = tlam_merge(labels, p)
        bumped = []
        for i, lab in enumerate(labels):
            vals = lab.values.copy()
            if i == 0:
                vals[1, 2] += 1.0
            bumped.append(make_label(lab.name, lab.kind, vals, lab.mask.copy()))
        z2 = tlam_merge(LabelSet(labels=bumped), p)
        changed = np.any(z1 != z2, axis=-1)
        assert changed[1, 2]
        changed[1, 2] = False
        assert not changed.any()

    def test_label_order_equivariance(self):
        labels = tiny_set(seed=9, sparsity=0.4, n=4)
        p = init_merger_params(labels, fusion.TLAM, d=8, n_blocks=2, heads=2, seed=10)
        z1 = tlam_merge(labels, p)
        order = [2, 0, 3, 1]
        permuted = LabelSet(labels=[labels.labels[i] for i in order])
        # dict order drives label order inside the merge; rebuild it permuted
        p2 = fusion.MergerParams(
            variant=p.variant,
            d=p.d,
            heads=p.heads,
            projections={labels.labels[i].name: p.projections[labels.labels[i].name] for i in order},
            encodings={labels.labels[i].name: p.encodings[labels.labels[i].name] for i in order},
            blocks=p.blocks,
        )
        z2 = tlam_merge(permuted, p2)
        assert np.abs(z1 - z2).max() <= 1e-6 * max(1.0, np.abs(z1).max())

    def test_unbound_label_name(self):
        labels = tiny_set()
        p = init_merger_params([("other", 1)], fusion.TLAM, d=4, n_blocks=0, heads=1)
        with pytest.raises(ValueError, match="lab0"):
            tlam_merge(labels, p)

    def test_channel_mismatch(self):
        labels = tiny_set()
        spec = [(lab.name, lab.channels + 1) for lab in labels]
        p = init_merger_params(spec, fusion.TLAM, d=4, n_blocks=0, heads=1)
        with pytest.raises(ValueError, match="channels"):
            tlam_merge(labels, p)

    def test_wrong_variant_rejected(self):
        labels = tiny_set()
        p = init_merger_params(labels, fusion.CLAM, d=4, n_blocks=1, heads=1)
        with pytest.raises(ValueError, match="variant"):
            tlam_merge(labels, p)

    def test_nonfinite_inputs_rejected(self):
        labels = tiny_set(sparsity=0.0)
        labels.labels[0].values[0, 0, 0] = np.inf
        p = init_merger_params(labels, fusion.TLAM, d=4, n_blocks=0, heads=1, seed=0)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            tlam_merge(labels, p)

    def test_chunked_parallel_matches_sequential_bitwise(self):
        labels = tiny_set(h=8, w=8, seed=11, sparsity=0.3)
        p = init_merger_params(labels, fusion.TLAM, d=8, n_blocks=2, heads=2, seed=12)
        seq = tlam_merge(labels, p, threads=1, chunks=4)
        par = tlam_merge(labels, p, threads=4, chunks=4)
        assert seq.tobytes() == par.tobytes()

    def test_chunking_matches_full_batch(self):
        labels = tiny_set(h=8, w=8, seed=13, sparsity=0.3)
        p = init_merger_params(labels, fusion.TLAM, d=8, n_blocks=1, heads=2, seed=14)
        full = tlam_merge(labels, p)
        chunked = tlam_merge(labels, p, threads=1, chunks=5)
        assert np.abs(full - chunked).max() <= 1e-12


class TestClamAndNaive:
    def test_clam_l0_equals_tlam_l0_bit_exact(self):
        labels = tiny_set(seed=15, sparsity=0.4)
        tl = init_merger_params(labels, fusion.TLAM, d=6, n_blocks=0, heads=1, seed=16)
        cl = init_merger_params(labels, fusion.CLAM, d=6, n_blocks=0, heads=1, seed=16)
        # both reduce to the projected-token average once encodings are zero
        for name in tl.encodings:
            tl.encodings[name] = np.zeros(6)
        cl.projections = tl.projections
        assert tlam_merge(labels, tl).tobytes() == clam_merge(labels, cl).tobytes()

    def test_clam_zero_stacks_give_zero(self):
        labels = tiny_set(seed=17)
        p = init_merger_params(labels, fusion.CLAM, d=5, n_blocks=2, heads=1, seed=18)
        for name in p.clam_stacks:
            p.clam_stacks[name] = [
                fusion.LabelProjection(A=np.zeros((5, 5)), b=np.zeros(5))
                for _ in p.clam_stacks[name]
            ]
        assert not clam_merge(labels, p).any()

    def test_clam_scalar_hand_oracle(self):
        vals = np.array([[[0.6]]], dtype=np.float32)
        labels = LabelSet(labels=[make_label("x", "continuous", vals)])
        p = init_merger_params(labels, fusion.CLAM, d=1, n_blocks=1, heads=1, seed=19)
        a0 = p.projections["x"].A[0, 0]
        b0 = p.projections["x"].b[0]
        a1 = p.clam_stacks["x"][0].A[0, 0]
        b1 = p.clam_stacks["x"][0].b[0]
        expect = gelu_scalar(a1 * gelu_scalar(a0 * float(vals[0, 0, 0]) + b0) + b1)
        out = clam_merge(labels, p)
        assert out[0, 0, 0] == pytest.approx(expect, rel=1e-12)

    def test_naive_concat_order_and_width(self):
        h = w = 3
        a = make_label("a", "continuous", np.full((h, w, 1), 2.0, dtype=np.float32))
        b = make_label("b", "continuous", np.full((h, w, 3), 5.0, dtype=np.float32))
        out = naive_concat(LabelSet(labels=[a, b]))
        assert out.shape == (h, w, 4)
        assert (out[..., 0] == 2.0).all()
        assert (out[..., 1:] == 5.0).all()

    def test_naive_single_label_identity(self):
        labels = tiny_set(n=1, sparsity=0.0)
        out = naive_concat(labels)
        assert out.tobytes() == labels.labels[0].values.tobytes()

    def test_naive_masked_pixels_zero(self):
        h = w = 2
        vals = np.full((h, w, 2), 3.0, dtype=np.float32)
        mask = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        out = naive_concat(LabelSet(labels=[make_label("a", "continuous", vals, mask)]))
        assert not out[0, 1].any()
        assert (out[1, 1] == 3.0).all()


class TestMacCounting:
    def test_formula_examples(self):
        assert count_attention_macs(1, 2, 1, 1, 1) == 4
        assert count_attention_macs(2, 2, 1, 1, 1) == 16  # doubling N quadruples
        assert count_attention_macs(1, 2, 1, 1, 2) == 8  # doubling HW doubles

    def test_counter_matches_formula_after_merge(self):
        for n, d, heads, blocks, h, w in [(2, 4, 1, 1, 3, 3), (4, 8, 2, 3, 4, 5)]:
            labels = make_random_label_set(n, h, w, seed=n)
            p = init_merger_params(labels, fusion.TLAM, d=d, n_blocks=blocks, heads=heads, seed=1)
            tlam_merge(labels, p)
            assert nn_ops.attention_mac_counter.count == count_attention_macs(
                n, d, heads, blocks, h * w
            )

    def test_l0_counts_zero(self):
        labels = tiny_set()
        p = init_merger_params(labels, fusion.TLAM, d=4, n_blocks=0, heads=1, seed=0)
        tlam_merge(labels, p)
        assert nn_ops.attention_mac_counter.count == 0

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            count_attention_macs(2, 7, 2, 1, 4)


class TestParamsSerialization:
    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    def test_roundtrip(self, tmp_path, variant):
        labels = tiny_set(n=2)
        p = init_merger_params(labels, variant, d=6, n_blocks=2, heads=2, seed=21)
        save_merger_params(p, tmp_path / "params")
        q = load_merger_params(tmp_path / "params")
        assert q.variant == variant and q.d == 6 and q.heads == 2 and q.n_blocks == 2
        z1 = (tlam_merge if variant == fusion.TLAM else clam_merge)(labels, p)
        z2 = (tlam_merge if variant == fusion.TLAM else clam_merge)(labels, q)
        assert z1.tobytes() == z2.tobytes()
        saved = [(n, np.asarray(t).tobytes()) for n, t in fusion.param_items(p)]
        loaded = [(n, np.asarray(t).tobytes()) for n, t in fusion.param_items(q)]
        assert loaded == saved

    @pytest.mark.parametrize(
        "variant, block_stems",
        [
            (
                fusion.TLAM,
                [
                    "block0." + s
                    for s in (
                        "ln1.gamma", "ln1.beta", "attn.Wq", "attn.Wk", "attn.Wv", "attn.Wo",
                        "attn.bo", "ln2.gamma", "ln2.beta", "mlp.W1", "mlp.b1", "mlp.W2", "mlp.b2",
                    )
                ],
            ),
            (fusion.CLAM, ["clam.lab0.0.A", "clam.lab0.0.b", "clam.lab1.0.A", "clam.lab1.0.b"]),
        ],
    )
    def test_file_stems_pinned(self, tmp_path, variant, block_stems):
        # existing params directories rely on these exact names, in this order
        p = init_merger_params(tiny_set(n=2), variant, d=4, n_blocks=1, heads=2, seed=1)
        stems = ["proj.lab0.A", "proj.lab0.b", "proj.lab1.A", "proj.lab1.b", "enc.lab0", "enc.lab1"]
        assert [n for n, _ in fusion.param_items(p)] == stems + block_stems
        save_merger_params(p, tmp_path / "params")
        files = sorted(f.name for f in (tmp_path / "params").iterdir())
        assert files == sorted(["params.json"] + [s + ".tlt" for s in stems + block_stems])

    @pytest.mark.parametrize(
        "stem, bad_shape",
        [("block0.mlp.b1", (1,)), ("block0.ln1.gamma", (1,)), ("proj.lab1.A", (6, 3)), ("enc.lab0", (5,))],
    )
    def test_wrong_tensor_shape_rejected(self, tmp_path, stem, bad_shape):
        # a (1,) bias or gamma would broadcast and merge without error
        p = init_merger_params(tiny_set(n=2), fusion.TLAM, d=6, n_blocks=1, heads=2, seed=2)
        save_merger_params(p, tmp_path / "params")
        good = load_tensor(tmp_path / "params" / f"{stem}.tlt").shape
        save_tensor(tmp_path / "params" / f"{stem}.tlt", np.ones(bad_shape))
        with pytest.raises(ValueError) as err:
            load_merger_params(tmp_path / "params")
        msg = str(err.value)
        assert f"{stem}.tlt" in msg and str(bad_shape) in msg and str(good) in msg

    def test_deterministic_init(self):
        labels = tiny_set(n=2)
        p = init_merger_params(labels, fusion.TLAM, d=6, n_blocks=1, heads=2, seed=33)
        q = init_merger_params(labels, fusion.TLAM, d=6, n_blocks=1, heads=2, seed=33)
        for (na, ta), (nb, tb) in zip(fusion.param_items(p), fusion.param_items(q)):
            assert na == nb
            assert np.asarray(ta).tobytes() == np.asarray(tb).tobytes()
