import json
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from labelfuse import fusion, nn_ops, tape
from labelfuse.fusion import (
    clam_merge,
    count_attention_macs,
    init_merger_params,
    load_merger_params,
    naive_concat,
    save_merger_params,
    tlam_merge,
)
from labelfuse.label_model import LabelSet, make_label, synth_scene
from labelfuse.tensor_core import load_tensor, save_tensor
from labelfuse.train_harness import make_random_label_set

from lifting import unrecorded
from oracles import clam_per_pixel, gelu_scalar, tlam_per_pixel


def tiny_set(h=4, w=4, seed=0, sparsity=0.3, n=3):
    return make_random_label_set(n, h, w, seed, sparsity=sparsity)


def random_biases(p, seed):
    """``p`` (``clam``) with standard normal projection and stack biases, so
    that no label's absent pixels leave its stack as zero."""
    rng = np.random.default_rng(seed)
    for name, proj in p.projections.items():
        proj.b = rng.standard_normal(p.d)
        for layer in p.clam_stacks[name]:
            layer.b = rng.standard_normal(p.d)
    return p


def random_affine(p, seed):
    """``p`` (``tlam``) with standard normal layer-norm gains and shifts and
    MLP and attention-output biases in every block, so that folding LN2's
    gain and shift into MLP-up is not trivially exact."""
    rng = np.random.default_rng(seed)
    for bp in p.blocks:
        for name in ("ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta", "b1", "b2"):
            setattr(bp, name, rng.standard_normal(getattr(bp, name).shape))
        bp.attn.bo = rng.standard_normal(p.d)
    return p


def one_label_merge(x, mask_bit: int, A, b):
    """A one-label, zero-block tlam_merge on a 2x2 grid whose pixels all hold
    ``x`` with mask ``mask_bit``, the label projected by (A, b).  Returns the
    four merged pixels (4, d) and the label's encoding, which the merge adds
    to the projected token."""
    A = np.asarray(A, dtype=np.float64)
    vals = np.tile(np.asarray(x, dtype=np.float32), (2, 2, 1))
    labels = LabelSet(labels=[make_label("lab", "continuous", vals, np.full((2, 2), mask_bit))])
    p = init_merger_params(labels, fusion.TLAM, d=A.shape[0], n_blocks=0, heads=1, seed=0)
    p.projections["lab"] = fusion.LabelProjection(A=A, b=np.asarray(b, dtype=np.float64))
    return tlam_merge(labels, p).reshape(4, -1), p.encodings["lab"]


class TestProjectLabel:
    def test_absent_with_zero_bias(self):
        out, enc = one_label_merge([5.0, -2.0], 0, np.eye(2), np.zeros(2))
        for pixel in out:
            assert np.array_equal(pixel - enc, np.zeros(2))

    def test_absent_gives_gelu_of_bias_bit_equal(self):
        b = np.array([0.3, -1.2, 4.0])
        A = np.random.default_rng(0).standard_normal((3, 2))
        out, enc = one_label_merge([9.9, -7.7], 0, A, b)
        expect = unrecorded(tape.gelu, b) + enc
        for pixel in out:
            assert pixel.tobytes() == expect.tobytes()

    def test_present_identity_projection(self):
        out, enc = one_label_merge([1.0, -1.0], 1, np.eye(2), np.zeros(2))
        for pixel in out:
            assert pixel[0] - enc[0] == pytest.approx(0.8412, abs=1e-4)
            assert pixel[1] - enc[1] == pytest.approx(-0.1588, abs=1e-4)


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
        tok = unrecorded(tape.gelu, vals.reshape(-1, 2).astype(np.float64) @ shared_proj.A.T + shared_proj.b)
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
        t1 = unrecorded(tape.gelu, a.reshape(-1, 1).astype(np.float64) @ p.projections["a"].A.T + p.projections["a"].b) + p.encodings["a"]
        t2 = unrecorded(tape.gelu, b.reshape(-1, 2).astype(np.float64) @ p.projections["b"].A.T + p.projections["b"].b) + p.encodings["b"]
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
        other = LabelSet(labels=[make_label("other", "continuous", np.zeros((4, 4, 1)))])
        p = init_merger_params(other, fusion.TLAM, d=4, n_blocks=0, heads=1)
        with pytest.raises(ValueError, match="merger params have no tensor 'proj.lab0.A'"):
            tlam_merge(labels, p)

    @pytest.mark.parametrize("variant, table, tensor", [(fusion.TLAM, "encodings", "enc.lab1"),
                                                        (fusion.CLAM, "clam_stacks", "clam.lab1.0.A")],
                             ids=["tlam-encodings-encoding", "clam-clam_stacks-stack"])
    def test_params_without_a_labels_part_rejected(self, variant, table, tensor):
        labels = tiny_set()
        p = init_merger_params(labels, variant, d=4, n_blocks=1, heads=1)
        del getattr(p, table)["lab1"]
        merge = tlam_merge if variant == fusion.TLAM else clam_merge
        with pytest.raises(ValueError, match=f"merger params have no tensor '{re.escape(tensor)}'"):
            merge(labels, p)

    def test_channel_mismatch(self):
        # lab0 has one channel, and the params were drawn for two
        labels = tiny_set()
        wider = LabelSet(
            labels=[make_label(lab.name, lab.kind, np.zeros((4, 4, lab.channels + 1))) for lab in labels]
        )
        p = init_merger_params(wider, fusion.TLAM, d=4, n_blocks=0, heads=1)
        with pytest.raises(ValueError, match=r"merger params tensor 'proj\.lab0\.A' has shape \(4, 2\), expected \(4, 1\)"):
            tlam_merge(labels, p)

    @pytest.mark.parametrize("edit, tensor, got, want", [
        (lambda p: p.encodings.update(depth=np.array([0.5])), "enc.depth", (1,), (8,)),
        (lambda p: setattr(p.blocks[0], "ln1_gamma", np.array([2.0])), "block0.ln1.gamma", (1,), (8,)),
        (lambda p: setattr(p.blocks[0], "ln2_beta", np.array([2.0])), "block0.ln2.beta", (1,), (8,)),
        (lambda p: setattr(p.blocks[0].attn, "wq", p.blocks[0].attn.wq[None]), "block0.attn.Wq", (1, 2, 8, 4),
         (2, 8, 4)),
    ], ids=["encoding", "ln1_gamma", "ln2_beta", "rank4_wq"])
    def test_misshaped_tensor_rejected(self, edit, tensor, got, want):
        # unchecked, the first two broadcast into an (8, 8, 8) output and the
        # last two fail inside numpy with messages naming no tensor
        labels, _, _ = synth_scene(8, 8, 3, seed=2)
        p = init_merger_params(labels, fusion.TLAM, d=8, n_blocks=1, heads=2)
        edit(p)
        with pytest.raises(ValueError, match=re.escape(f"merger params tensor '{tensor}' has shape {got}, expected {want}")):
            tlam_merge(labels, p)

    def test_tensor_of_another_variant_rejected(self):
        # clam has no label encodings, so one for a label of the set is refused
        labels = tiny_set()
        p = init_merger_params(labels, fusion.CLAM, d=4, n_blocks=1)
        p.encodings["lab2"] = np.zeros(4)
        with pytest.raises(ValueError, match="merger params tensor 'enc.lab2' is not one of a clam merger's"):
            clam_merge(labels, p)

    def test_tensors_of_labels_outside_the_set_are_not_read(self):
        labels = tiny_set()
        p = init_merger_params(labels, fusion.TLAM, d=4, n_blocks=1, heads=1)
        subset = LabelSet(labels=labels.labels[:2])
        p.encodings["lab2"] = np.zeros(1)
        assert tlam_merge(subset, p).shape == (4, 4, 4)

    def test_wrong_variant_rejected(self):
        labels = tiny_set()
        p = init_merger_params(labels, fusion.CLAM, d=4, n_blocks=1, heads=1)
        with pytest.raises(ValueError, match="variant"):
            tlam_merge(labels, p)

    def test_nonfinite_inputs_rejected(self):
        # before any work, as a malformed input, not as a numerical failure
        labels = tiny_set(sparsity=0.0)
        labels.labels[0].values[0, 2, 0] = np.inf
        p = init_merger_params(labels, fusion.TLAM, d=4, n_blocks=0, heads=1, seed=0)
        with pytest.raises(ValueError, match=r"label 'lab0': value inf at present pixel \(0, 2\) is not finite"):
            tlam_merge(labels, p)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    def test_nonfinite_pixel_in_a_later_tile_rejected(self, variant, threads):
        # finite inputs with a non-finite result: label 1 is zero except in
        # the last pixel, where its 3e38 meets a projection scaled by 1e280
        pixel_size = fusion.pixel_bytes(variant, 3, 8)
        h, w = 2 * (fusion.TILE_BYTES // (8 * pixel_size)) + 3, 8
        assert len(fusion.pixel_spans(h * w, pixel_size)) >= 3
        labels = tiny_set(h=h, w=w, seed=11, sparsity=0.0)
        labels.labels[1].values[:] = 0.0
        labels.labels[1].values[-1, -1, 0] = 3e38
        p = init_merger_params(labels, variant, d=8, n_blocks=1, heads=2, seed=12)
        p.projections[labels.labels[1].name].A *= 1e280
        merge = tlam_merge if variant == fusion.TLAM else clam_merge
        with pytest.raises(FloatingPointError, match="merge produced non-finite values"):
            merge(labels, p, threads=threads)

    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    def test_inf_that_raises_no_flag_rejected_by_the_tile_check(self, variant):
        # adding an inf bias, then GeLU and the token average, raise no
        # floating-point flag: only each tile's isfinite check sees the inf
        labels = tiny_set(sparsity=0.0)
        p = init_merger_params(labels, variant, d=4, n_blocks=0, heads=2, seed=1)
        p.projections[labels.labels[1].name].b[2] = np.inf
        merge = tlam_merge if variant == fusion.TLAM else clam_merge
        with pytest.raises(FloatingPointError, match=re.escape("merge produced non-finite values (in pixels [0, 16))")):
            merge(labels, p)

    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    def test_merge_step_built_once_per_merge(self, monkeypatch, variant):
        # tlam's LN2 fold and clam's absent vectors are built once, not per tile
        pixel_size = fusion.pixel_bytes(variant, 3, 8)
        h, w = 2 * (fusion.TILE_BYTES // (8 * pixel_size)) + 3, 8
        assert len(fusion.pixel_spans(h * w, pixel_size)) >= 3
        labels = tiny_set(h=h, w=w, seed=11)
        p = init_merger_params(labels, variant, d=8, n_blocks=1, heads=2, seed=12)
        built = []
        step = fusion.merge_step
        monkeypatch.setattr(fusion, "merge_step", lambda q, s: built.append((q, s)) or step(q, s))
        merge = tlam_merge if variant == fusion.TLAM else clam_merge
        merge(labels, p, threads=2)
        assert len(built) == 1 and built[0][0] is p and built[0][1] is labels

    def test_chunked_parallel_matches_sequential_bitwise(self):
        for variant, merge in ((fusion.TLAM, tlam_merge), (fusion.CLAM, clam_merge)):
            pixel_size = fusion.pixel_bytes(variant, 3, 8)
            h, w = 2 * (fusion.TILE_BYTES // (8 * pixel_size)) + 3, 8
            spans = fusion.pixel_spans(h * w, pixel_size)
            assert len(spans) >= 2 and any(p0 % w for p0, _ in spans)  # a span starts mid-row
            labels = tiny_set(h=h, w=w, seed=11, sparsity=0.3)
            p = init_merger_params(labels, variant, d=8, n_blocks=2, heads=2, seed=12)
            seq = merge(labels, p, threads=1)
            par = merge(labels, p, threads=4)
            assert seq.tobytes() == par.tobytes()

    @pytest.mark.parametrize("d,heads", [(8, 2), (96, 3)])
    def test_tile_size_does_not_change_output(self, monkeypatch, d, heads):
        # the flat GEMMs see a tile's rows as one matrix; at these widths
        # each output row does not depend on how many rows that matrix has
        h, w = 64, 16
        labels = tiny_set(h=h, w=w, seed=21, sparsity=0.3)
        for variant, merge in ((fusion.TLAM, tlam_merge), (fusion.CLAM, clam_merge)):
            p = init_merger_params(labels, variant, d=d, n_blocks=2, heads=heads, seed=22)
            pixel_size = fusion.pixel_bytes(variant, 3, d)
            outs = []
            for tile_pixels in (64, 1024):
                monkeypatch.setattr(fusion, "TILE_BYTES", tile_pixels * pixel_size)
                assert len(fusion.pixel_spans(h * w, pixel_size)) == h * w // tile_pixels
                outs.append(merge(labels, p).tobytes())
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("d, heads", [(8, 2), (96, 3)])
    def test_matches_per_pixel_oracle(self, d, heads):
        labels = tiny_set(h=3, w=4, seed=61, sparsity=0.3)
        for n_blocks in range(4):
            p = random_affine(init_merger_params(labels, fusion.TLAM, d=d, n_blocks=n_blocks, heads=heads, seed=62), 63)
            want = tlam_per_pixel(labels, p)
            got = tlam_merge(labels, p)
            # within 2^12 ulps of the largest output
            assert np.abs(got - want).max() <= 2**12 * np.spacing(np.abs(want).max()), n_blocks

    def test_last_mlp_down_runs_on_the_token_average(self, monkeypatch):
        # every (4d, d) product but the last block's sees the B N tokens;
        # the last block's sees one averaged row per pixel
        labels = tiny_set(h=4, w=5, seed=64)
        p = init_merger_params(labels, fusion.TLAM, d=8, n_blocks=3, heads=2, seed=65)
        shapes = []
        matmul = tape.matmul

        def recording(a, b, bias=None):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, bias)

        monkeypatch.setattr(tape, "matmul", recording)
        tlam_merge(labels, p)
        assert [a for a, b in shapes if b == (32, 8)] == [(20, 3, 32), (20, 3, 32), (20, 1, 32)]

    def test_chunking_matches_full_batch(self):
        pixel_size = fusion.pixel_bytes(fusion.TLAM, 3, 8)
        h, w = fusion.TILE_BYTES // (8 * pixel_size) + 5, 8
        assert len(fusion.pixel_spans(h * w, pixel_size)) >= 2
        labels = tiny_set(h=h, w=w, seed=13, sparsity=0.3)
        p = init_merger_params(labels, fusion.TLAM, d=8, n_blocks=1, heads=2, seed=14)
        full = fusion.merge_step(p, labels)(0, h * w).value
        tiled = tlam_merge(labels, p)
        assert np.abs(full.reshape(h, w, 8) - tiled).max() <= 1e-12


class TestRowSpans:
    # spans are row ranges of the flattened (H*W, C_k) inputs: runs of
    # pixels in row-major order that may start and end mid-row
    @pytest.mark.parametrize(
        "h,w",
        [(1, 1), (4, 4), (7, 5), (64, 8), (65, 8), (100, 8), (300, 3),
         (3, 1024), (3, 1025), (2, 3072)],
    )
    def test_cover_rows_in_order_within_budget(self, h, w):
        for pixel_size in (8, 1024, 2560, 3840, 15360, fusion.TILE_BYTES + 1):
            spans = fusion.pixel_spans(h * w, pixel_size)
            assert spans[0][0] == 0 and spans[-1][1] == h * w
            assert all(a1 == b0 for (_, a1), (b0, _) in zip(spans, spans[1:]))
            step = max(1, fusion.TILE_BYTES // pixel_size)
            assert all(p1 - p0 == step for p0, p1 in spans[:-1])
            assert 0 < spans[-1][1] - spans[-1][0] <= step

    def test_small_grid_is_one_tile(self):
        assert fusion.pixel_spans(7 * 5, fusion.pixel_bytes(fusion.TLAM, 5, 96)) == [(0, 35)]

    def test_wide_grid_splits_rows(self):
        # 1,024 bytes a pixel fills TILE_BYTES at 1,024 pixels, so a
        # 1,025-pixel row is cut inside the row, not held whole
        spans = fusion.pixel_spans(3 * 1025, 1024)
        assert spans == [(0, 1024), (1024, 2048), (2048, 3072), (3072, 3075)]

    def test_pixel_bytes_is_the_widest_intermediate(self):
        # tlam's (N, 4d) MLP hidden layer, clam's (N, d) tokens, in float64
        assert fusion.pixel_bytes(fusion.TLAM, 5, 96) == 15360
        assert fusion.pixel_bytes(fusion.CLAM, 5, 96) == 3840

    @pytest.mark.parametrize(
        "variant,h,w,d,pixels",
        [(fusion.TLAM, 64, 64, 96, 68),  # the 64x64 d=96 benchmark merge
         (fusion.TLAM, 16, 16, 16, 256),  # toy training at d=16: one span
         (fusion.CLAM, 32, 32, 96, 273)],  # the CLI chain's clam merge
    )
    def test_pinned_span_sizes(self, variant, h, w, d, pixels):
        spans = fusion.pixel_spans(h * w, fusion.pixel_bytes(variant, 5, d))
        assert spans == [(p0, min(p0 + pixels, h * w)) for p0 in range(0, h * w, pixels)]

    def test_map_tiles_folds_each_span_once_in_span_order(self, monkeypatch):
        # 86 three-pixel spans on four threads (more than the cores), with a
        # short switch interval so that threads interleave around the fold;
        # every other span sleeps, so later spans finish before earlier ones
        labels = tiny_set(h=16, w=16, seed=51)
        p = init_merger_params(labels, fusion.CLAM, d=4, n_blocks=0, seed=52)
        monkeypatch.setattr(fusion, "TILE_BYTES", 3 * fusion.pixel_bytes(fusion.CLAM, 3, 4))
        folded = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fusion.map_tiles(lambda p0, p1: time.sleep(p0 % 2 / 1000) or (p0, p1), labels, p, 4, folded.append)
        finally:
            sys.setswitchinterval(interval)
        assert folded == fusion.pixel_spans(16 * 16, fusion.pixel_bytes(fusion.CLAM, 3, 4))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_caller_runs_spans_and_every_span_has_its_error_state(self, monkeypatch, threads):
        # eight two-pixel spans; a helper's first span waits until the caller
        # has run one, so the caller's share does not hang on scheduling
        labels = tiny_set(h=4, w=4, seed=51)
        p = init_merger_params(labels, fusion.CLAM, d=4, n_blocks=0, seed=52)
        monkeypatch.setattr(fusion, "TILE_BYTES", 2 * fusion.pixel_bytes(fusion.CLAM, 3, 4))
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        caller = threading.get_ident()
        caller_ran = threading.Event()
        records = []

        def span(p0, p1):
            if threading.get_ident() == caller:
                caller_ran.set()
            else:
                caller_ran.wait(5)
            records.append((threading.get_ident(), np.geterr()))

        state = {"divide": "raise", "over": "ignore", "under": "warn", "invalid": "raise"}  # none the default
        with np.errstate(**state):
            fusion.map_tiles(span, labels, p, threads, lambda _none: None)
        assert len(records) == 8
        assert all(r == state for _, r in records)
        idents = {i for i, _ in records}
        assert caller in idents
        assert len(idents - {caller}) <= threads - 1
        assert len(started) <= threads - 1

    def test_no_span_starts_after_one_has_raised(self, monkeypatch):
        # twenty two-pixel spans on three threads: span 0 raises at once and
        # every other span sleeps, so only the spans taken before it raised run
        labels = tiny_set(h=4, w=10, seed=51)
        p = init_merger_params(labels, fusion.CLAM, d=4, n_blocks=0, seed=52)
        monkeypatch.setattr(fusion, "TILE_BYTES", 2 * fusion.pixel_bytes(fusion.CLAM, 3, 4))
        ran = []

        def span(p0, p1):
            ran.append(p0)
            if p0 == 0:
                raise ValueError("span 0")
            time.sleep(0.01)

        with pytest.raises(ValueError, match="span 0"):
            fusion.map_tiles(span, labels, p, 3, lambda _none: None)
        assert len(fusion.pixel_spans(40, fusion.pixel_bytes(fusion.CLAM, 3, 4))) == 20
        assert 0 in ran and len(ran) <= 3

    def test_masked_pixels_flattens_rows_and_zeroes_absent(self):
        values = np.arange(24, dtype=np.float32).reshape(3, 4, 2)
        mask = np.ones((3, 4), dtype=np.uint8)
        mask[1, 2] = 0
        mask[2, 0] = 2
        labels = LabelSet(labels=[make_label("a", "continuous", values, mask)])
        (x,) = fusion.masked_pixels(labels, 3, 9)
        expect = values.reshape(12, 2)[3:9].astype(np.float64)
        expect[3] = 0.0  # pixel (1, 2), flat index 6
        assert x.value.dtype == np.float64
        assert x.value.tobytes() == expect.tobytes()


def beside_output(variant, h, w, d, threads):
    """The ``tracemalloc`` peak of a one-label, no-block merge of an h x w
    random grid at width d, less its output."""
    labels = make_random_label_set(1, h, w, 3)
    p = init_merger_params(labels, variant, d=d, n_blocks=0, heads=2, seed=1)
    merge = tlam_merge if variant == fusion.TLAM else clam_merge
    tracemalloc.start()
    try:
        out = merge(labels, p, threads=threads)
        return tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()


class TestMergeMemory:
    # At one label a clam tile's intermediates (projection, GeLU, stacked
    # tokens and their average) peak near 4 TILE_BYTES and a tlam tile's
    # (no blocks) near 1; a merge holds a tile per thread at most, beside
    # its output.  The large grid's H x W x d boolean array alone is twice
    # the two-thread budget.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    @pytest.mark.parametrize("h, w", [(64, 64), (512, 640)])
    def test_peak_bounded_by_tiles_in_flight(self, h, w, variant, threads):
        beside = beside_output(variant, h, w, 64, threads)
        assert beside <= 5 * threads * fusion.TILE_BYTES, beside

    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    def test_threads_queue_no_task_per_span(self, monkeypatch, variant):
        # 4-pixel tiles: 256 at 32x32, 2,048 at 64x128.  A span beyond the
        # tiles in flight costs its (p0, p1) tuple and result slot; a task
        # queued for every span cost about 2 KB each
        monkeypatch.setattr(fusion, "TILE_BYTES", 4 * fusion.pixel_bytes(variant, 1, 8))
        small, large = (beside_output(variant, h, w, 8, 2) for h, w in ((32, 32), (64, 128)))
        assert large - small <= 512 * (2048 - 256), (small, large)


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

    @pytest.mark.parametrize("d", [8, 47])
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 1.0])
    def test_clam_matches_per_pixel_oracle(self, monkeypatch, sparsity, d):
        # 4-pixel tiles, so that some tiles hold a label on every pixel or on none
        monkeypatch.setattr(fusion, "TILE_BYTES", 4 * fusion.pixel_bytes(fusion.CLAM, 3, d))
        labels = tiny_set(h=6, w=8, seed=41, sparsity=sparsity)
        for n_blocks in (2, 0):  # with no stack, a label's chain is its projection alone
            p = random_biases(init_merger_params(labels, fusion.CLAM, d=d, n_blocks=n_blocks, seed=42), 43)
            want = clam_per_pixel(labels, p)
            got = clam_merge(labels, p)
            # within 2^12 ulps of the largest output
            assert np.abs(got - want).max() <= 2**12 * np.spacing(np.abs(want).max())

    def test_stacks_run_on_present_pixels_only(self, monkeypatch):
        # per label, its projection's product and each of its stack layers'
        # see its present pixels once and the one absent pixel pushed
        # through per merge
        monkeypatch.setattr(fusion, "TILE_BYTES", 16 * fusion.pixel_bytes(fusion.CLAM, 3, 8))
        labels = tiny_set(h=8, w=8, seed=44, sparsity=0.5)
        p = init_merger_params(labels, fusion.CLAM, d=8, n_blocks=2, seed=45)
        layer_of = {id(layer.b): (name, "stack") for name, stack in p.clam_stacks.items() for layer in stack}
        layer_of.update({id(proj.b): (name, "proj") for name, proj in p.projections.items()})
        rows = dict.fromkeys(layer_of.values(), 0)
        matmul = tape.matmul

        def counted(a, b, bias=None):
            if bias is not None and id(bias.value) in layer_of:
                rows[layer_of[id(bias.value)]] += a.value.shape[0]
            return matmul(a, b, bias)

        monkeypatch.setattr(tape, "matmul", counted)
        clam_merge(labels, p)
        for lab in labels:
            assert 0 < np.count_nonzero(lab.mask) < lab.mask.size
            seen = int(np.count_nonzero(lab.mask)) + 1
            assert rows[lab.name, "proj"] == seen
            assert rows[lab.name, "stack"] == seen * 2

    def test_pixel_with_every_label_absent_same_bits_everywhere(self, monkeypatch):
        monkeypatch.setattr(fusion, "TILE_BYTES", 64 * fusion.pixel_bytes(fusion.CLAM, 3, 8))
        labels = tiny_set(h=32, w=16, seed=46, sparsity=0.5)
        p = random_biases(init_merger_params(labels, fusion.CLAM, d=8, n_blocks=2, seed=47), 48)
        none = np.flatnonzero(~np.any([lab.mask.reshape(-1) != 0 for lab in labels], axis=0))
        assert len(set(none // 64)) >= 4  # in four tiles or more
        outs = [clam_merge(labels, p, threads=threads).reshape(-1, 8) for threads in (1, 2)]
        assert outs[0].tobytes() == outs[1].tobytes()
        assert len({row.tobytes() for row in outs[0][none]}) == 1

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

    def test_counter_exact_with_worker_threads(self):
        # four workers over eight tiles with frequent thread switches: a lost
        # counter update would show as a short count
        pixel_size = fusion.pixel_bytes(fusion.TLAM, 2, 16)
        h, w = 8 * (fusion.TILE_BYTES // (8 * pixel_size)), 8
        assert len(fusion.pixel_spans(h * w, pixel_size)) >= 4
        labels = tiny_set(h=h, w=w, seed=15, n=2)
        p = init_merger_params(labels, fusion.TLAM, d=16, n_blocks=2, heads=2, seed=16)
        expect = count_attention_macs(2, 16, 2, 2, h * w)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                tlam_merge(labels, p, threads=4)
                assert nn_ops.attention_mac_counter.count == expect
        finally:
            sys.setswitchinterval(interval)

    def test_l0_counts_zero(self):
        labels = tiny_set()
        p = init_merger_params(labels, fusion.TLAM, d=4, n_blocks=0, heads=1, seed=0)
        tlam_merge(labels, p)
        assert nn_ops.attention_mac_counter.count == 0

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            count_attention_macs(2, 7, 2, 1, 4)

    def test_zero_heads_rejected(self):
        with pytest.raises(ValueError, match="0 heads"):
            count_attention_macs(2, 8, 0, 1, 4)
        with pytest.raises(ValueError, match="0 heads"):
            init_merger_params(tiny_set(), fusion.TLAM, d=8, n_blocks=1, heads=0)
        # clam has no attention: it ignores the heads argument and stores None
        assert init_merger_params(tiny_set(), fusion.CLAM, d=8, n_blocks=1, heads=0).heads is None

    def test_clam_width_indivisible_by_heads(self, tmp_path):
        # clam has no attention: d=16 with the default 3 heads initializes,
        # saves, loads and merges, while tlam still rejects it
        labels = tiny_set(n=2)
        p = init_merger_params(labels, fusion.CLAM, d=16, n_blocks=1, seed=31)
        assert p.heads is None
        save_merger_params(p, tmp_path / "params")
        q = load_merger_params(tmp_path / "params")
        assert (q.d, q.heads) == (16, None)
        assert clam_merge(labels, q).tobytes() == clam_merge(labels, p).tobytes()
        assert clam_merge(labels, q).shape == (4, 4, 16)
        with pytest.raises(ValueError, match="token width 16 not divisible by 3 heads"):
            init_merger_params(labels, fusion.TLAM, d=16, n_blocks=1, seed=31)

    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    @pytest.mark.parametrize(
        "d, n_blocks, match",
        [(0, 1, "merger 'd' must be an integer >= 1"), (4, -1, "merger 'n_blocks' must be an integer >= 0")],
    )
    def test_out_of_range_sizes_rejected(self, variant, d, n_blocks, match):
        # the rule load_merger_params applies, so saved params always load
        with pytest.raises(ValueError, match=match):
            init_merger_params(tiny_set(), variant, d=d, n_blocks=n_blocks, heads=1)

    def test_naive_variant_has_no_params(self, tmp_path):
        # ``naive_concat`` learns nothing, so there are no naive params to make or load
        with pytest.raises(ValueError, match="unknown merger variant 'naive'"):
            init_merger_params(tiny_set(), fusion.NAIVE, d=4, n_blocks=1, heads=1)
        save_merger_params(init_merger_params(tiny_set(), fusion.TLAM, d=4, n_blocks=1, heads=1), tmp_path)
        doc = json.loads((tmp_path / "params.json").read_text())
        (tmp_path / "params.json").write_text(json.dumps({**doc, "variant": fusion.NAIVE}))
        with pytest.raises(ValueError, match="known 'variant'"):
            load_merger_params(tmp_path)


class TestParamsSerialization:
    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    def test_roundtrip(self, tmp_path, variant):
        labels = tiny_set(n=2)
        p = init_merger_params(labels, variant, d=6, n_blocks=2, heads=2, seed=21)
        save_merger_params(p, tmp_path / "params")
        # heads is saved for tlam only: clam has no attention
        doc = json.loads((tmp_path / "params" / "params.json").read_text())
        assert doc.get("heads", "absent") == (2 if variant == fusion.TLAM else "absent")
        q = load_merger_params(tmp_path / "params")
        assert q.variant == variant and q.d == 6 and q.n_blocks == 2
        assert q.heads == (2 if variant == fusion.TLAM else None)
        z1 = (tlam_merge if variant == fusion.TLAM else clam_merge)(labels, p)
        z2 = (tlam_merge if variant == fusion.TLAM else clam_merge)(labels, q)
        assert z1.tobytes() == z2.tobytes()
        saved = [(n, np.asarray(t).tobytes()) for n, t in fusion.param_items(p)]
        loaded = [(n, np.asarray(t).tobytes()) for n, t in fusion.param_items(q)]
        assert loaded == saved

    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    def test_zero_block_roundtrip(self, tmp_path, variant):
        # a merger with no blocks or stack layers is valid and writes n_blocks 0
        labels = tiny_set(n=2)
        p = init_merger_params(labels, variant, d=6, n_blocks=0, heads=2, seed=23)
        save_merger_params(p, tmp_path / "params")
        q = load_merger_params(tmp_path / "params")
        assert q.n_blocks == 0
        merge = tlam_merge if variant == fusion.TLAM else clam_merge
        assert merge(labels, q).tobytes() == merge(labels, p).tobytes()

    @pytest.mark.parametrize(
        "variant, block_stems",
        [
            (
                fusion.TLAM,
                ["enc.lab0", "enc.lab1"]
                + [
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
        stems = ["proj.lab0.A", "proj.lab0.b", "proj.lab1.A", "proj.lab1.b"]
        assert [n for n, _ in fusion.param_items(p)] == stems + block_stems
        save_merger_params(p, tmp_path / "params")
        files = sorted(f.name for f in (tmp_path / "params").iterdir())
        assert files == sorted(["params.json"] + [s + ".tlt" for s in stems + block_stems])

    def test_clam_dir_with_encodings_loads(self, tmp_path):
        # clam directories written before clam dropped its encodings hold
        # enc.<label>.tlt files; loading ignores them
        labels = tiny_set(n=2)
        p = init_merger_params(labels, fusion.CLAM, d=6, n_blocks=2, heads=2, seed=22)
        save_merger_params(p, tmp_path / "params")
        for name in ("lab0", "lab1"):
            save_tensor(tmp_path / "params" / f"enc.{name}.tlt", np.full(6, 0.5))
        q = load_merger_params(tmp_path / "params")
        assert q.encodings == {}
        assert [n for n, _ in fusion.param_items(q)] == [n for n, _ in fusion.param_items(p)]
        assert clam_merge(labels, q).tobytes() == clam_merge(labels, p).tobytes()

    @pytest.mark.parametrize("heads", [3, 0, "x", None])
    def test_clam_dir_with_heads_loads(self, tmp_path, heads):
        # clam directories written before clam dropped its heads hold one;
        # loading ignores it, whatever it is
        labels = tiny_set(n=2)
        p = init_merger_params(labels, fusion.CLAM, d=6, n_blocks=1, seed=24)
        save_merger_params(p, tmp_path)
        doc = json.loads((tmp_path / "params.json").read_text())
        (tmp_path / "params.json").write_text(json.dumps({**doc, "heads": heads}))
        q = load_merger_params(tmp_path)
        assert q.heads is None
        assert clam_merge(labels, q).tobytes() == clam_merge(labels, p).tobytes()

    @pytest.mark.parametrize("variant", [fusion.TLAM, fusion.CLAM])
    def test_more_blocks_than_files_rejected(self, tmp_path, variant):
        # checked before any list of n_blocks entries is built
        save_merger_params(init_merger_params(tiny_set(n=2), variant, d=6, n_blocks=1, heads=2), tmp_path)
        doc = json.loads((tmp_path / "params.json").read_text())
        (tmp_path / "params.json").write_text(json.dumps({**doc, "n_blocks": 10**18}))
        with pytest.raises(ValueError, match="params.json 'n_blocks' is 1000000000000000000, but the directory holds"):
            load_merger_params(tmp_path)

    def test_tlam_dir_without_heads_rejected(self, tmp_path):
        save_merger_params(init_merger_params(tiny_set(n=2), fusion.TLAM, d=6, n_blocks=1, heads=2), tmp_path)
        doc = json.loads((tmp_path / "params.json").read_text())
        del doc["heads"]
        (tmp_path / "params.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="params.json 'heads' must be an integer >= 1"):
            load_merger_params(tmp_path)

    @pytest.mark.parametrize("name", ["", "../escaped", "a\\b"])
    def test_label_name_not_a_file_stem_rejected(self, tmp_path, name):
        # names become file stems (proj.<name>.A.tlt), so they must not hold a path
        save_merger_params(init_merger_params(tiny_set(n=2), fusion.TLAM, d=6, n_blocks=1, heads=2), tmp_path)
        doc = json.loads((tmp_path / "params.json").read_text())
        doc["labels"][1]["name"] = name
        (tmp_path / "params.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="params.json label 1 name .* must be a non-empty file stem"):
            load_merger_params(tmp_path)

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

    @pytest.mark.parametrize(
        "variant, stem, at, bad",
        [(fusion.TLAM, "proj.lab1.b", (5,), np.inf), (fusion.CLAM, "proj.lab0.b", (0,), np.nan),
         (fusion.TLAM, "block0.mlp.W1", (2, 7), np.nan), (fusion.CLAM, "clam.lab1.0.A", (3, 1), -np.inf)],
        ids=["tlam-proj-inf", "clam-proj-nan", "tlam-block-nan", "clam-stack-neginf"],
    )
    def test_nonfinite_tensor_rejected(self, tmp_path, variant, stem, at, bad):
        # such a tensor once loaded, and the merge failed only after the work
        p = init_merger_params(tiny_set(n=2), variant, d=6, n_blocks=1, heads=2, seed=2)
        save_merger_params(p, tmp_path / "params")
        t = load_tensor(tmp_path / "params" / f"{stem}.tlt")
        t[at] = bad
        save_tensor(tmp_path / "params" / f"{stem}.tlt", t)
        with pytest.raises(ValueError, match=re.escape(f"{stem}.tlt: value {bad} at index {at} is not finite")):
            load_merger_params(tmp_path / "params")

    def test_deterministic_init(self):
        labels = tiny_set(n=2)
        p = init_merger_params(labels, fusion.TLAM, d=6, n_blocks=1, heads=2, seed=33)
        q = init_merger_params(labels, fusion.TLAM, d=6, n_blocks=1, heads=2, seed=33)
        for (na, ta), (nb, tb) in zip(fusion.param_items(p), fusion.param_items(q)):
            assert na == nb
            assert np.asarray(ta).tobytes() == np.asarray(tb).tobytes()
