"""Segmentation metrics, PCA projection of concept tensors to RGB, and
portable PPM image output."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .tensor_core import load_tensor, save_tensor, write_blobs

JACOBI_REL_TOL = 1e-10
JACOBI_MAX_SWEEPS = 100


@dataclass
class SegMap:
    """Per-pixel integer class indices with a known class count."""

    classes: np.ndarray  # H x W
    num_classes: int


def make_segmap(classes: np.ndarray, num_classes: int) -> SegMap:
    classes = np.asarray(classes)
    if classes.ndim != 2:
        raise ValueError("segmentation map must be H x W")
    if classes.size == 0:
        raise ValueError(f"segmentation map {classes.shape} has no pixels")
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    if classes.min() < 0 or classes.max() >= num_classes:
        raise ValueError("class indices must lie in [0, num_classes)")
    return SegMap(classes=classes, num_classes=num_classes)


def _check_pair(pred: SegMap, gt: SegMap) -> None:
    if pred.classes.shape != gt.classes.shape:
        raise ValueError(
            f"segmentation dims differ: {pred.classes.shape} vs {gt.classes.shape}"
        )
    if pred.num_classes != gt.num_classes:
        raise ValueError(
            f"class counts differ: {pred.num_classes} vs {gt.num_classes}"
        )


def mean_iou(pred: SegMap, gt: SegMap) -> float:
    """Mean per-class intersection over union.

    Classes absent from both maps are skipped; the mean runs over the rest.
    """
    _check_pair(pred, gt)
    ious = []
    for c in range(gt.num_classes):
        p = pred.classes == c
        g = gt.classes == c
        union = np.count_nonzero(p | g)
        if union == 0:
            continue
        ious.append(np.count_nonzero(p & g) / union)
    return float(np.mean(ious))


def pixel_accuracy(pred: SegMap, gt: SegMap) -> float:
    """Fraction of pixels on which the two maps agree."""
    _check_pair(pred, gt)
    return float(np.count_nonzero(pred.classes == gt.classes) / gt.classes.size)


def jacobi_eigh(sym: np.ndarray):
    """Eigendecomposition of a symmetric matrix by Jacobi rotations in
    round-robin order (Brent & Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985).

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs (see ``_round_robin``); the rotations of one round commute, so a
    round is one similarity transform.  A, and V^T as rows, are held in the
    round's paired layout (rows 2i and 2i + 1 are the round's pair i), so
    each side of a round is one batched 2x2 ``np.matmul`` over all pairs.
    The column side uses A = A^T, so A' = R^T A R = R^T (R^T A)^T, and moves
    A into the next round's layout on the way.  A sweep ends in the layout
    it began in, which is undone once before returning.  Odd d is padded
    with a zero row and column, whose rotations are the identity.
    Sweeps stop once the off-diagonal Frobenius norm drops to
    ``JACOBI_REL_TOL`` times the trace of the input (its total variance when
    it is a covariance), or times its Frobenius norm if the trace is not
    positive.  Returns (eigenvalues, eigenvectors-as-columns),
    unsorted.  Raises RuntimeError if that is not reached in
    ``JACOBI_MAX_SWEEPS`` sweeps, and at once if the norm or the trace is NaN.
    """
    a = np.array(sym, dtype=np.float64)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    trace = float(np.trace(a))
    if trace > 0.0:
        threshold = JACOBI_REL_TOL * trace
    else:
        threshold = JACOBI_REL_TOL * float(np.linalg.norm(a))
        if threshold == 0.0:  # the zero matrix: already diagonal
            return np.diag(a).copy(), np.eye(d)
    layouts, moves = _round_robin(d)
    n = layouts.shape[1]
    m = n // 2
    first = layouts[0]
    a = np.pad(a, (0, n - d))[np.ix_(first, first)]
    vt = np.eye(n, d)[first]  # V^T, one row per index, in the layout
    stride = 2 * n + 2  # from one pair's 2x2 diagonal block to the next
    off = _off_norm(a)
    for _ in range(JACOBI_MAX_SWEEPS):
        if not off > threshold:  # converged, or NaN
            break
        for move in moves:
            flat = a.ravel()
            apq = flat[1::stride]
            with np.errstate(divide="ignore", invalid="ignore"):  # where apq == 0
                theta = (flat[n + 1::stride] - flat[::stride]) / (2.0 * apq)
            t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.hypot(theta, 1.0))
            t[apq == 0.0] = 0.0  # c = 1, s = 0: the identity
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            g = np.array([c, -s, s, c]).T.reshape(m, 2, 2)  # R^T, one 2x2 per pair
            b = np.matmul(g, a.reshape(m, 2, n)).reshape(n, n)  # R^T A
            bt = b.take(move, axis=0).T.copy().reshape(m, 2, n)  # (R^T A)^T, cols moved
            a = np.matmul(g, bt).reshape(n, n).take(move, axis=0)
            vt = np.matmul(g, vt.reshape(m, 2, d)).reshape(n, d).take(move, axis=0)
        off = _off_norm(a)
    if not off <= threshold:
        raise RuntimeError("Jacobi sweeps did not converge")
    back = np.argsort(first)[:d]
    return np.diag(a)[back], vt[back].T


def _round_robin(d: int) -> tuple[np.ndarray, np.ndarray]:
    """One sweep's paired layouts and the moves between them.

    With n = d rounded up to even, the circle method gives n - 1 rounds of
    n/2 disjoint pairs that together hold every pair once: index 0 stays put
    and the others rotate one place per round.  Row r of ``layouts`` lists
    round r's pairs as (p, q), p < q, at positions (2i, 2i + 1); for odd d
    the padding index d is one of them.  ``layouts[r][moves[r]]`` is the
    next round's layout, and the last move leads back to ``layouts[0]``.
    """
    n = d + d % 2
    ring = np.zeros((n - 1, n), dtype=np.intp)
    ring[:, 1:] = 1 + (np.arange(n - 1) - np.arange(n - 1)[:, None]) % (n - 1)
    x, y = ring[:, : n // 2], ring[:, : n // 2 - 1 : -1]
    layouts = np.stack([np.minimum(x, y), np.maximum(x, y)], axis=2).reshape(n - 1, n)
    inverse = np.argsort(layouts, axis=1)
    moves = np.take_along_axis(inverse, np.roll(layouts, -1, axis=0), axis=1)
    return layouts, moves


def _off_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part."""
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


@dataclass
class PcaBasis:
    """Top-3 principal directions of a pixel cloud."""

    mean: np.ndarray  # (d,)
    components: np.ndarray  # (3, d), orthonormal rows
    explained_variance: np.ndarray  # (3,)


def pca_project_3(z: np.ndarray):
    """Project an H x W x d concept tensor to a 3-channel image via PCA.

    Pixels are treated as H*W samples; the covariance (divided by H*W - 1)
    is diagonalized by ``jacobi_eigh`` (Jacobi rotations in round-robin
    order, Brent & Luk 1985, each round one batched 2x2 matmul per side
    over all its pairs), component signs are fixed so each one's
    largest-magnitude entry is positive, and every output channel is
    min-max rescaled to [0, 1].  Channels whose component carries
    (numerically) no variance map to the constant 0.5.  Raises ValueError
    for a tensor with NaN or inf entries and FloatingPointError when the
    covariance of finite entries overflows.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError("concept tensor must be H x W x d")
    h, w, d = z.shape
    if d < 3:
        raise ValueError(f"need at least 3 channels to project, got d={d}")
    if h * w < 4:
        raise ValueError("need at least 4 pixels")
    if not np.isfinite(z).all():
        raise ValueError("concept tensor has non-finite values")
    x = z.reshape(-1, d)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        xc = x - mean
        cov = (xc.T @ xc) / (h * w - 1)
    if not np.isfinite(cov).all():
        raise FloatingPointError("covariance of the concept tensor is not finite")
    vals, vecs = jacobi_eigh(cov)
    order = np.argsort(vals)[::-1][:3]
    components = vecs[:, order].T.copy()
    variances = np.maximum(vals[order], 0.0)
    for i in range(3):
        peak = np.argmax(np.abs(components[i]))
        if components[i, peak] < 0.0:
            components[i] = -components[i]
    basis = PcaBasis(mean=mean, components=components, explained_variance=variances)

    proj = xc @ components.T  # (H*W, 3)
    total_var = float(np.trace(cov))
    img = np.empty((h * w, 3))
    for c in range(3):
        lo, hi = proj[:, c].min(), proj[:, c].max()
        degenerate = hi <= lo or variances[c] <= 1e-12 * max(total_var, 1e-300)
        img[:, c] = 0.5 if degenerate else (proj[:, c] - lo) / (hi - lo)
    return basis, img.reshape(h, w, 3)


def _ppm_blobs(img: np.ndarray) -> tuple[bytes, bytes]:
    """The P6 header and pixel bytes of ``img``; see ``write_ppm``."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("image must be H x W x 3")
    if not np.isfinite(img).all():
        raise ValueError("image has non-finite pixels")
    h, w = img.shape[:2]
    data = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return f"P6\n{w} {h}\n255\n".encode("ascii"), data.tobytes(order="C")


def write_ppm(img: np.ndarray, dest) -> int:
    """Write an H x W x 3 image in [0, 1] as binary PPM (P6, maxval 255).

    Channel bytes are round(clamp(v, 0, 1) * 255), rounding half up.
    Raises ValueError for NaN or infinite pixels.
    """
    return write_blobs(dest, *_ppm_blobs(img))


def save_ppm(path, img: np.ndarray) -> int:
    """``write_ppm`` to a file.  A rejected image raises before the file is
    opened, so it leaves the file as it was."""
    blobs = _ppm_blobs(img)
    with open(path, "wb") as f:
        return write_blobs(f, *blobs)


def save_pca_basis(basis: PcaBasis, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    save_tensor(os.path.join(dirpath, "mean.tlt"), basis.mean.astype(np.float64))
    save_tensor(os.path.join(dirpath, "components.tlt"), basis.components.astype(np.float64))
    save_tensor(
        os.path.join(dirpath, "explained_variance.tlt"),
        basis.explained_variance.astype(np.float64),
    )
    with open(os.path.join(dirpath, "basis.json"), "w") as f:
        json.dump({"width": int(basis.mean.size), "components": 3}, f, indent=2)
        f.write("\n")


def load_pca_basis(dirpath) -> PcaBasis:
    return PcaBasis(
        mean=load_tensor(os.path.join(dirpath, "mean.tlt")),
        components=load_tensor(os.path.join(dirpath, "components.tlt")),
        explained_variance=load_tensor(os.path.join(dirpath, "explained_variance.tlt")),
    )
