"""Segmentation metrics, PCA projection of concept tensors to RGB, and
portable PPM image output."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .nn_ops import blank, map_tensors, tensor, tlt_loader
from .tensor_core import read_json, save_tensor_dir, write_blobs, write_file


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


@dataclass
class PcaBasis:
    """Top-3 principal directions of a pixel cloud."""

    mean: np.ndarray = tensor("mean", "d")
    components: np.ndarray = tensor("components", 3, "d")  # orthonormal rows
    explained_variance: np.ndarray = tensor("explained_variance", 3)


def pca_project_3(z: np.ndarray):
    """Project an H x W x d concept tensor to a 3-channel image via PCA.

    Pixels are treated as H*W samples; the covariance (divided by H*W - 1)
    is diagonalized by ``numpy.linalg.eigh`` (LAPACK's symmetric solver) and
    its top three eigenpairs kept, component signs are fixed so each one's
    largest-magnitude entry is positive, and every output channel is
    min-max rescaled to [0, 1].  Channels whose component carries
    (numerically) no variance map to the constant 0.5.  Raises ValueError
    for a tensor with NaN or inf entries, and FloatingPointError when the
    covariance of finite entries overflows or the eigensolver fails.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError(f"concept tensor must be H x W x d, got shape {z.shape}")
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
    try:
        vals, vecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as e:  # a ValueError, which would read as bad input
        raise FloatingPointError(f"eigendecomposition of the covariance failed: {e}") from e
    components = vecs[:, :-4:-1].T.copy()  # eigh sorts ascending: the top three, largest first
    variances = np.maximum(vals[:-4:-1], 0.0)
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
    return write_file(path, *_ppm_blobs(img))


def save_pca_basis(basis: PcaBasis, dirpath) -> None:
    items = []
    map_tensors(basis, lambda name, t: items.append((name, t)))
    save_tensor_dir(dirpath, "basis.json", {"width": int(basis.mean.size), "components": 3}, items)


def load_pca_basis(dirpath) -> PcaBasis:
    """Read a basis written by ``save_pca_basis``: ``basis.json`` must be an
    object with an integer ``width`` d and ``components`` 3, and every
    tensor's shape is checked against them."""
    doc = read_json(os.path.join(dirpath, "basis.json"), "basis.json")
    if type(doc.get("width")) is not int or doc.get("components") != 3:
        raise ValueError("basis.json must be an object with an integer 'width' and 'components' 3")
    return map_tensors(blank(PcaBasis, d=doc["width"]), tlt_loader(dirpath))
