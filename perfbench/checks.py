"""Output checks that share no code with labelfuse.

* ``tlam_pixel`` recomputes the transformer merge of one pixel with plain
  numpy, straight from the model's definition (affine + GeLU projection with
  absent inputs zeroed, per-label encoding, pre-norm attention and MLP blocks,
  token average).
* ``read_tlt`` parses the TLT1 tensor format without ``tensor_core``.
* ``check_pca`` compares the top-3 variances written by ``visualize
  --basis-out`` with ``numpy.linalg.eigh`` of the concept covariance.

Tolerances are fixed here, from float64 epsilon, before any run.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# One merged pixel passes through 3 blocks of dot products no longer than
# 4d = 384 terms of O(1) values, each block followed by a layer norm.  The
# reference sums in another order, which moves outputs by a few tens of ulps;
# 2**12 ulps (9.1e-13) leaves a wide margin for that and still catches any
# change to the maths, which moves outputs by 1e-3 or more.
PIXEL_TOL = 2.0**12 * EPS

# The cyclic Jacobi solver stops once its off-diagonal norm is at most
# 1e-10 * trace, and by Weyl's inequality no eigenvalue is then further than
# that from the exact one.  Ten times that bound also covers eigh's own
# rounding, which is a few ulps times the trace.
PCA_REL_TOL = 1e-9

_GELU_K = math.sqrt(2.0 / math.pi)
_TLT_DTYPES = {0: "<f4", 1: "<f8", 2: "u1"}


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_K * (x + 0.044715 * x * x * x)))


def _layer_norm(z, gamma, beta, eps=1e-5):
    mu = z.mean(axis=-1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (z - mu) / np.sqrt(var + eps) + beta


def _softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def tlam_pixel(labels, params, i: int, j: int) -> np.ndarray:
    """The (d,) merged vector of pixel (i, j), one label token at a time."""
    tokens = []
    for lab in labels:
        x = lab.values[i, j].astype(np.float64) if lab.mask[i, j] else np.zeros(lab.channels)
        proj = params.projections[lab.name]
        tokens.append(_gelu(proj.A @ x + proj.b) + params.encodings[lab.name])
    z = np.array(tokens)
    for bp in params.blocks:
        y = _layer_norm(z, bp.ln1_gamma, bp.ln1_beta)
        heads = []
        for wq, wk, wv in zip(bp.attn.wq, bp.attn.wk, bp.attn.wv):
            q, k, v = y @ wq, y @ wk, y @ wv
            heads.append(_softmax_rows(q @ k.T / math.sqrt(q.shape[1])) @ v)
        z = z + np.concatenate(heads, axis=1) @ bp.attn.wo + bp.attn.bo
        y = _layer_norm(z, bp.ln2_gamma, bp.ln2_beta)
        z = z + _gelu(y @ bp.w1 + bp.b1) @ bp.w2 + bp.b2
    return z.mean(axis=0)


def check_tlam_pixels(labels, params, out: np.ndarray, rng: np.random.Generator, count: int) -> list[str]:
    """Compare ``count`` seeded pixels of a merge output with the reference."""
    h, w = out.shape[:2]
    errors = []
    for flat in rng.choice(h * w, size=count, replace=False):
        i, j = divmod(int(flat), w)
        want = tlam_pixel(labels, params, i, j)
        err = float(np.max(np.abs(out[i, j] - want) / np.maximum(1.0, np.abs(want))))
        if not err <= PIXEL_TOL:
            errors.append(f"pixel ({i},{j}) differs from the reference by {err:.3e} (tol {PIXEL_TOL:.3e})")
    return errors


def read_tlt(path) -> np.ndarray:
    """Parse a TLT1 file: magic, u8 rank, u32 dims, u8 dtype tag, payload."""
    data = Path(path).read_bytes()
    if data[:4] != b"TLT1":
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    rank = data[4]
    dims = struct.unpack_from(f"<{rank}I", data, 5)
    offset = 6 + 4 * rank
    dtype = np.dtype(_TLT_DTYPES[data[offset - 1]])
    payload = data[offset:]
    if len(payload) != math.prod(dims) * dtype.itemsize:
        raise ValueError(f"{path}: payload is {len(payload)} bytes for dims {dims}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims)


def check_pca(concept_path, basis_dir) -> list[str]:
    """Top-3 explained variances against eigh of the pixel covariance."""
    z = read_tlt(concept_path).astype(np.float64)
    x = z.reshape(-1, z.shape[-1])
    xc = x - x.mean(axis=0)
    cov = (xc.T @ xc) / (x.shape[0] - 1)
    want = np.maximum(np.linalg.eigh(cov)[0][::-1][:3], 0.0)
    got = read_tlt(Path(basis_dir) / "explained_variance.tlt")
    tol = PCA_REL_TOL * float(np.trace(cov))
    if got.shape != (3,) or not np.all(np.abs(got - want) <= tol):
        return [f"PCA variances {got} differ from eigh {want} by more than {tol:.3e}"]
    return []


def check_ppm(path, h: int, w: int) -> list[str]:
    data = Path(path).read_bytes()
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + h * w * 3:
        return [f"{path}: not a {h}x{w} binary PPM"]
    return []
