import io
import itertools
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelfuse import fusion, label_model
from labelfuse.metrics_viz import (
    PcaBasis,
    load_pca_basis,
    make_segmap,
    mean_iou,
    pca_project_3,
    pixel_accuracy,
    save_pca_basis,
    save_ppm,
    write_ppm,
)
from labelfuse.tensor_core import load_tensor, save_tensor

from oracles import JACOBI_REL_TOL, jacobi_eigh, round_robin, seg_counting_oracle


def seg(arr, k):
    return make_segmap(np.asarray(arr), k)


class TestSegMetrics:
    def test_identical_maps(self):
        m = seg(np.random.default_rng(0).integers(0, 3, (6, 6)), 3)
        assert mean_iou(m, m) == 1.0
        assert pixel_accuracy(m, m) == 1.0

    def test_complementary_binary_maps(self):
        gt = seg([[0, 0], [1, 1]], 2)
        pred = seg([[1, 1], [0, 0]], 2)
        assert mean_iou(pred, gt) == 0.0
        assert pixel_accuracy(pred, gt) == 0.0

    def test_hand_counted_example(self):
        gt = seg([[0, 0], [1, 1]], 2)
        pred = seg([[0, 1], [1, 1]], 2)
        assert mean_iou(pred, gt) == pytest.approx(7 / 12)
        assert pixel_accuracy(pred, gt) == pytest.approx(3 / 4)

    def test_class_absent_from_both_skipped(self):
        gt = seg([[0, 0], [0, 0]], 3)
        pred = seg([[0, 0], [0, 1]], 3)
        # class 2 appears nowhere: mean over classes 0 and 1 only
        assert mean_iou(pred, gt) == pytest.approx((3 / 4 + 0.0) / 2)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = seg(rng.integers(0, 4, (8, 8)), 4)
            b = seg(rng.integers(0, 4, (8, 8)), 4)
            assert mean_iou(a, b) == mean_iou(b, a)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            a = rng.integers(0, k, (8, 8))
            b = rng.integers(0, k, (8, 8))
            miou, acc = seg_counting_oracle(a, b, k)
            assert mean_iou(seg(a, k), seg(b, k)) == miou
            assert pixel_accuracy(seg(a, k), seg(b, k)) == acc

    def test_dim_and_k_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            mean_iou(seg(np.zeros((2, 2)), 2), seg(np.zeros((2, 3)), 2))
        with pytest.raises(ValueError, match="class counts"):
            pixel_accuracy(seg(np.zeros((2, 2)), 2), seg(np.zeros((2, 2)), 3))

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError, match="indices"):
            make_segmap(np.array([[0, 5]]), 2)

    @pytest.mark.parametrize(
        "classes, k, match",
        [(np.zeros((2, 2, 1), dtype=int), 2, "segmentation map must be H x W"),
         (np.zeros((2, 2), dtype=int), 0, "num_classes must be >= 1")],
        ids=["rank3", "k0"],
    )
    def test_bad_rank_or_class_count_rejected(self, classes, k, match):
        with pytest.raises(ValueError, match=match):
            make_segmap(classes, k)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_map_without_pixels_rejected(self, shape):
        # no pixel: the mean IoU and the accuracy would be 0/0
        with pytest.raises(ValueError, match="no pixels"):
            make_segmap(np.zeros(shape, dtype=int), 2)


class TestJacobi:
    @pytest.mark.parametrize("d,seed", [(3, 0), (5, 1), (8, 2), (12, 3)])
    def test_matches_eigh(self, d, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, d))
        sym = m @ m.T
        vals, vecs = jacobi_eigh(sym)
        order = np.argsort(vals)
        ref_vals, ref_vecs = np.linalg.eigh(sym)
        assert np.allclose(np.sort(vals), ref_vals, atol=1e-8 * max(1, abs(sym).max()))
        for i, j in enumerate(order):
            v = vecs[:, j]
            r = ref_vecs[:, i]
            assert min(np.abs(v - r).max(), np.abs(v + r).max()) <= 1e-6

    def test_reconstructs_matrix(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        sym = m @ m.T
        vals, vecs = jacobi_eigh(sym)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, sym, atol=1e-9)

    def test_zero_matrix(self):
        vals, vecs = jacobi_eigh(np.zeros((4, 4)))
        assert not vals.any()
        assert np.array_equal(vecs, np.eye(4))

    @pytest.mark.parametrize("sym", [[[-1.0, 1.0], [1.0, -1.0]], [[1.0, 2.0], [2.0, -1.0]]])
    def test_trace_not_positive_is_diagonalized(self, sym):
        # trace -2 and 0: eigenvalues (-2, 0) and +-sqrt(5)
        sym = np.array(sym)
        vals, vecs = jacobi_eigh(sym)
        assert np.allclose(np.sort(vals), np.linalg.eigh(sym)[0], rtol=0.0, atol=1e-12)
        assert np.allclose(vecs @ np.diag(vals) @ vecs.T, sym, rtol=0.0, atol=1e-12)

    def test_nan_entry_not_converged(self):
        with pytest.raises(RuntimeError, match="converge"):
            jacobi_eigh(np.array([[np.nan, 1.0], [1.0, 2.0]]))


def check_eigh(sym, vals, vecs):
    """Eigenvalues within the stopping rule's Weyl bound of LAPACK's, an
    orthonormal V, and V diag(vals) V^T back to the input."""
    d, trace = sym.shape[0], np.trace(sym)
    ref = np.linalg.eigh(sym)[0]
    assert np.abs(np.sort(vals) - ref).max() <= JACOBI_REL_TOL * trace
    assert np.abs(vecs.T @ vecs - np.eye(d)).max() <= 1e-12
    assert np.abs(vecs @ np.diag(vals) @ vecs.T - sym).max() <= JACOBI_REL_TOL * trace


class TestRoundRobin:
    @pytest.mark.parametrize("d", [*range(1, 13), 95, 96, 97])
    def test_schedule_covers_each_pair_once_in_disjoint_rounds(self, d):
        layouts, moves = round_robin(d)
        n = d + d % 2
        assert layouts.shape == moves.shape == (n - 1, n)
        pairs = []
        for layout in layouts:
            assert sorted(layout.tolist()) == list(range(n))  # disjoint pairs
            p, q = layout[0::2], layout[1::2]
            assert (p < q).all()
            pairs += [(i, j) for i, j in zip(p.tolist(), q.tolist()) if j < d]  # index d pads odd d
        assert sorted(pairs) == list(itertools.combinations(range(d), 2))
        layout = layouts[0]
        for r, move in enumerate(moves):
            layout = layout[move]
            assert np.array_equal(layout, layouts[(r + 1) % len(layouts)])

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 40), rank=st.integers(1, 42), seed=st.integers(0, 2**32 - 1))
    def test_matches_eigh(self, d, rank, seed):
        m = np.random.default_rng(seed).standard_normal((d, rank))
        sym = m @ m.T
        check_eigh(sym, *jacobi_eigh(sym))

    def test_diagonal_input_returned_exactly(self):
        diag = np.array([3.0, 0.0, 7.5, 1e-3, 2.0])
        vals, vecs = jacobi_eigh(np.diag(diag))
        assert np.array_equal(vals, diag)
        assert np.array_equal(vecs, np.eye(5))

    def test_block_diagonal_with_zero_blocks(self):
        # interleaved blocks on odd d: {0, 2, 4, 6}, {1, 5} and an all-zero {3, 7, 8}
        rng = np.random.default_rng(8)
        blocks = ([0, 2, 4, 6], [1, 5])
        sym = np.zeros((9, 9))
        for block in blocks:
            m = rng.standard_normal((len(block), len(block)))
            sym[np.ix_(block, block)] = m @ m.T
        vals, vecs = jacobi_eigh(sym)
        check_eigh(sym, vals, vecs)
        # pairs with an exact-zero entry are identity rotations, so no rotation
        # ever mixes two blocks or touches the zero block
        for block in blocks:
            rest = [i for i in range(9) if i not in block]
            assert not vecs[np.ix_(rest, block)].any()
        zero = [3, 7, 8]
        assert not vals[zero].any()
        assert np.array_equal(vecs[:, zero], np.eye(9)[:, zero])

    def test_repeated_eigenvalues(self):
        u = np.random.default_rng(9).standard_normal(10)
        sym = np.eye(10) + np.outer(u, u)  # nine eigenvalues 1, one 1 + |u|^2
        vals, vecs = jacobi_eigh(sym)
        check_eigh(sym, vals, vecs)
        assert np.sort(vals)[-1] == pytest.approx(1.0 + u @ u, rel=1e-12)

    def test_scene_covariance_top3(self):
        labels, _, _ = label_model.synth_scene(16, 16, 6, 21)
        for d, heads in ((45, 3), (96, 3), (97, 1)):  # odd d pads the paired layout
            params = fusion.init_merger_params(labels, fusion.CLAM, d=d, n_blocks=3, heads=heads, seed=23)
            x = fusion.clam_merge(labels, params).reshape(-1, d)
            xc = x - x.mean(axis=0)
            cov = (xc.T @ xc) / (x.shape[0] - 1)
            vals, _ = jacobi_eigh(cov)
            ref = np.linalg.eigh(cov)[0][::-1][:3]
            assert np.abs(np.sort(vals)[::-1][:3] - ref).max() <= 1e-9 * np.trace(cov)


def check_pca(z, basis):
    """The PCA contract against the pixel covariance C: orthonormal rows,
    ||Cv - lambda v|| <= 1e-9 trace for each written component v and
    variance lambda, non-increasing variances within 1e-9 trace of the top
    three of ``eigvalsh`` and of the Jacobi oracle (a route without LAPACK),
    and each component's largest-magnitude entry positive."""
    x = z.reshape(-1, z.shape[-1])
    xc = x - x.mean(axis=0)
    cov = (xc.T @ xc) / (x.shape[0] - 1)
    tol = 1e-9 * np.trace(cov)
    v, lam = basis.components, basis.explained_variance
    assert np.abs(v @ v.T - np.eye(3)).max() <= 1e-12
    assert np.linalg.norm(cov @ v.T - v.T * lam, axis=0).max() <= tol
    assert (np.diff(lam) <= 0.0).all()
    assert np.abs(lam - np.linalg.eigvalsh(cov)[:-4:-1]).max() <= tol
    assert np.abs(lam - np.sort(jacobi_eigh(cov)[0])[:-4:-1]).max() <= tol
    assert (v[np.arange(3), np.abs(v).argmax(axis=1)] > 0.0).all()


class TestPca:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(3, 40), rank=st.integers(1, 42), seed=st.integers(0, 2**32 - 1))
    def test_matches_eigh(self, d, rank, seed):
        # 48 pixels, so the centred data can reach rank 42
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((48, rank)) @ rng.standard_normal((rank, d)) + rng.standard_normal(d)
        z = z.reshape(6, 8, d)
        check_pca(z, pca_project_3(z)[0])

    def test_scene_covariance_top3(self):
        labels, _, _ = label_model.synth_scene(16, 16, 6, 21)
        for d, heads in ((45, 3), (96, 3), (97, 1)):
            params = fusion.init_merger_params(labels, fusion.CLAM, d=d, n_blocks=3, heads=heads, seed=23)
            z = fusion.clam_merge(labels, params)
            check_pca(z, pca_project_3(z)[0])

    def test_same_input_bit_identical(self):
        z = np.random.default_rng(14).standard_normal((9, 7, 12))
        (b1, img1), (b2, img2) = pca_project_3(z), pca_project_3(z.copy())
        for a, b in ((b1.mean, b2.mean), (b1.components, b2.components),
                     (b1.explained_variance, b2.explained_variance), (img1, img2)):
            assert a.tobytes() == b.tobytes()

    def test_rank_one_data(self):
        rng = np.random.default_rng(5)
        direction = rng.standard_normal(6)
        coeffs = rng.standard_normal(50)
        z = (coeffs[:, None] * direction).reshape(10, 5, 6)
        basis, img = pca_project_3(z)
        total = np.var(z.reshape(-1, 6), axis=0, ddof=1).sum()
        assert basis.explained_variance[0] == pytest.approx(total, abs=1e-8 * total)
        assert np.allclose(img[..., 1], 0.5)
        assert np.allclose(img[..., 2], 0.5)

    def test_constant_tensor_maps_to_half(self):
        # a zero covariance: no channel carries variance
        basis, img = pca_project_3(np.full((5, 4, 6), 2.5))
        assert not basis.explained_variance.any()
        assert np.abs(basis.components @ basis.components.T - np.eye(3)).max() <= 1e-12
        assert (img == 0.5).all()

    def test_recovers_orthogonal_axes(self):
        # build sample coordinates that are exactly decorrelated, so the
        # empirical covariance is diagonal in the chosen axes
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((400, 3))
        q, _ = np.linalg.qr(raw - raw.mean(axis=0))
        scales = np.array([5.0, 2.0, 0.5])
        coords = q * scales * np.sqrt(399)
        z = np.zeros((20, 20, 5))
        z[..., 1] = coords[:, 0].reshape(20, 20)
        z[..., 3] = coords[:, 1].reshape(20, 20)
        z[..., 4] = coords[:, 2].reshape(20, 20)
        basis, _ = pca_project_3(z)
        # components align with the populated axes, up to sign fixing
        for row, axis in zip(basis.components, (1, 3, 4)):
            assert abs(row[axis]) >= 1 - 1e-8
            assert row[axis] > 0  # sign fixed positive at the peak entry
        assert np.allclose(basis.explained_variance, scales ** 2, rtol=1e-8)

    def test_components_orthonormal_and_trace(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((9, 7, 6))
        basis, _ = pca_project_3(z)
        v = basis.components
        assert np.abs(v @ v.T - np.eye(3)).max() <= 1e-12
        # the variance the three components leave out is the rest of the trace
        x = z.reshape(-1, 6) - basis.mean
        rest = x - (x @ v.T) @ v
        trace = np.trace(np.cov(x.T))
        left_out = (rest * rest).sum() / (x.shape[0] - 1)
        assert basis.explained_variance.sum() + left_out == pytest.approx(trace, abs=1e-12 * trace)

    def test_projection_centered(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((6, 6, 5))
        basis, _ = pca_project_3(z)
        x = z.reshape(-1, 5) - basis.mean
        proj = x @ basis.components.T
        assert np.abs(proj.mean(axis=0)).max() <= 1e-10

    def test_pixel_reordering_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((8, 4, 6))
        basis1, _ = pca_project_3(z)
        flat = z.reshape(-1, 6)
        perm = rng.permutation(flat.shape[0])
        basis2, _ = pca_project_3(flat[perm].reshape(8, 4, 6))
        assert np.abs(basis1.components - basis2.components).max() <= 1e-8
        assert np.abs(basis1.explained_variance - basis2.explained_variance).max() <= 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        z = np.random.default_rng(12).standard_normal((4, 4, 5))
        z[2, 1, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pca_project_3(z)

    def test_overflowing_covariance_rejected(self):
        # finite entries whose products overflow: the covariance is inf/NaN
        signs = np.where(np.random.default_rng(13).random((4, 4, 5)) < 0.5, 1.0, -1.0)
        with pytest.raises(FloatingPointError, match="covariance"):
            pca_project_3(signs * 1e300)

    def test_too_few_channels(self):
        with pytest.raises(ValueError, match="d=2"):
            pca_project_3(np.zeros((4, 4, 2)))

    def test_too_few_pixels(self):
        # three samples: the covariance has rank 2 at most
        with pytest.raises(ValueError, match="need at least 4 pixels"):
            pca_project_3(np.zeros((1, 3, 4)))

    def test_output_in_unit_range(self):
        rng = np.random.default_rng(10)
        _, img = pca_project_3(rng.standard_normal((7, 7, 8)))
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_basis_serialization(self, tmp_path):
        rng = np.random.default_rng(11)
        basis, _ = pca_project_3(rng.standard_normal((5, 5, 4)))
        save_pca_basis(basis, tmp_path / "basis")
        back = load_pca_basis(tmp_path / "basis")
        assert np.array_equal(back.mean, basis.mean)
        assert np.array_equal(back.components, basis.components)
        assert np.array_equal(back.explained_variance, basis.explained_variance)
        assert sorted(os.listdir(tmp_path / "basis")) == [
            "basis.json", "components.tlt", "explained_variance.tlt", "mean.tlt"]
        assert json.loads((tmp_path / "basis" / "basis.json").read_text()) == {"width": 4, "components": 3}

    def test_basis_of_another_width_rejected(self, tmp_path):
        # the width d is basis.json's, and components.tlt must agree with it
        basis, _ = pca_project_3(np.random.default_rng(11).standard_normal((5, 5, 4)))
        save_pca_basis(basis, tmp_path / "basis")
        save_tensor(tmp_path / "basis" / "components.tlt", np.ones((3, 5)))
        with pytest.raises(ValueError, match=re.escape("components.tlt has shape (3, 5), expected (3, 4)")):
            load_pca_basis(tmp_path / "basis")

    @pytest.mark.parametrize(
        "doc, match",
        [
            ('{"width": 99, "components": 7}', "'components' 3"),
            ('{"width": 4.0, "components": 3}', "integer 'width'"),
            ('{"width": 99, "components": 3}', re.escape("mean.tlt has shape (4,), expected (99,)")),
            ("[" * 100_000 + "]" * 100_000, "basis.json JSON nests too deeply"),
        ],
        ids=["components", "float-width", "width", "nested"],
    )
    def test_basis_document_is_read_and_checked(self, tmp_path, doc, match):
        # basis.json was once never read: a basis whose document said width 99 and 7 components loaded
        basis, _ = pca_project_3(np.random.default_rng(11).standard_normal((5, 5, 4)))
        save_pca_basis(basis, tmp_path / "basis")
        (tmp_path / "basis" / "basis.json").write_text(doc)
        with pytest.raises(ValueError, match=match):
            load_pca_basis(tmp_path / "basis")

    @pytest.mark.parametrize("stem, at, bad", [("mean", (2,), np.nan), ("components", (1, 3), -np.inf)],
                             ids=["mean-nan", "components-neginf"])
    def test_nonfinite_basis_tensor_rejected(self, tmp_path, stem, at, bad):
        basis, _ = pca_project_3(np.random.default_rng(11).standard_normal((5, 5, 4)))
        save_pca_basis(basis, tmp_path / "basis")
        t = load_tensor(tmp_path / "basis" / f"{stem}.tlt")
        t[at] = bad
        save_tensor(tmp_path / "basis" / f"{stem}.tlt", t)
        with pytest.raises(ValueError, match=re.escape(f"{stem}.tlt: value {bad} at index {at} is not finite")):
            load_pca_basis(tmp_path / "basis")


class TestPpm:
    def test_single_white_pixel(self):
        buf = io.BytesIO()
        n = write_ppm(np.ones((1, 1, 3)), buf)
        assert buf.getvalue() == b"P6\n1 1\n255\n\xff\xff\xff"
        assert n == len(buf.getvalue())

    def test_half_rounds_up(self):
        buf = io.BytesIO()
        write_ppm(np.full((1, 1, 3), 0.5), buf)
        assert buf.getvalue().endswith(bytes([128, 128, 128]))

    def test_out_of_range_clamped(self):
        buf = io.BytesIO()
        write_ppm(np.array([[[1.7, -0.3, 0.0]]]), buf)
        assert buf.getvalue().endswith(bytes([255, 0, 0]))

    def test_header_carries_width_then_height(self):
        buf = io.BytesIO()
        write_ppm(np.zeros((2, 5, 3)), buf)
        assert buf.getvalue().startswith(b"P6\n5 2\n255\n")

    def test_save_helper(self, tmp_path):
        path = tmp_path / "img.ppm"
        n = save_ppm(path, np.zeros((3, 3, 3)))
        assert path.stat().st_size == n

    def test_shorter_overwrite_equals_fresh_write(self, tmp_path, open_flags):
        path, fresh = tmp_path / "img.ppm", tmp_path / "fresh.ppm"
        save_ppm(path, np.zeros((9, 9, 3)))
        ino = path.stat().st_ino
        save_ppm(path, np.full((2, 3, 3), 0.25))
        save_ppm(fresh, np.full((2, 3, 3), 0.25))
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_ino == ino
        assert len(open_flags) == 3 and not any(flags & os.O_TRUNC for flags in open_flags)

    def test_save_to_dev_null(self):
        assert save_ppm(os.devnull, np.zeros((2, 5, 3))) == len(b"P6\n5 2\n255\n") + 30

    @pytest.mark.parametrize("bad", [np.zeros((3, 3)), np.full((2, 2, 3), np.nan)])
    def test_rejected_image_leaves_file_intact(self, tmp_path, bad):
        path = tmp_path / "img.ppm"
        save_ppm(path, np.zeros((3, 3, 3)))
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_ppm(path, bad)
        assert path.read_bytes() == before

    def test_bad_shape(self):
        with pytest.raises(ValueError, match="H x W x 3"):
            write_ppm(np.zeros((3, 3)), io.BytesIO())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        img = np.full((2, 2, 3), 0.5)
        img[1, 0, 2] = bad
        buf = io.BytesIO()
        with pytest.raises(ValueError, match="non-finite"):
            write_ppm(img, buf)
        assert buf.getvalue() == b""  # nothing written, not even the header

    def test_sink_failure_reports_byte_offset(self):
        class FailingSink:
            def __init__(self):
                self.calls = 0

            def write(self, blob):
                self.calls += 1
                if self.calls > 1:  # header lands, pixel write fails
                    raise OSError("disk full")

        header = b"P6\n5 2\n255\n"
        with pytest.raises(OSError, match=f"byte offset {len(header)}: disk full"):
            write_ppm(np.zeros((2, 5, 3)), FailingSink())
