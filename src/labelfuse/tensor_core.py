"""Dense tensor plumbing shared by every other module: the TLT1 binary tensor
format, tensor directories and a deterministic, platform-independent random
number generator.

Tensors are plain ``numpy.ndarray`` values, always C-contiguous (row-major,
channels innermost) and restricted to three dtypes: float32, float64 and
uint8.  Files use the ".tlt" extension by convention.

Every file the package writes goes through ``write_file``: it overwrites an
existing file in place and then cuts it to the bytes written, instead of
truncating it to zero first, so an overwrite keeps the file's inode, mode
and symlink and ends with exactly the new bytes.  A write that fails part
way cuts the file at the bytes that landed, so a TLT1 file left that way
fails to load.  A target that is not a regular file (``/dev/null``) is
written and never cut.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from typing import BinaryIO

import numpy as np

MAGIC = b"TLT1"

# dtype tag values in the TLT1 header
TAG_F32 = 0
TAG_F64 = 1
TAG_U8 = 2

_TAG_TO_DTYPE = {
    TAG_F32: np.dtype("<f4"),
    TAG_F64: np.dtype("<f8"),
    TAG_U8: np.dtype("u1"),
}


class TensorFormatError(ValueError):
    """A TLT1 stream is malformed (bad magic, bad tag, truncation...)."""


def check_tensor(t: np.ndarray) -> np.ndarray:
    """Validate a tensor value and return it as a C-contiguous array.

    Requires rank >= 1, every dim from 1 to 2^32 - 1 (the header's u32 dims)
    and a supported dtype.  The rank's upper limit is numpy's (64 dims in
    numpy 2, 32 in numpy 1), which fits the header's u8 rank.
    """
    t = np.asarray(t)
    if t.ndim < 1:
        raise ValueError("tensor rank must be >= 1 (got a scalar)")
    if any(d < 1 for d in t.shape):
        raise ValueError(f"tensor dims must all be >= 1, got {t.shape}")
    if any(d > 0xFFFFFFFF for d in t.shape):
        raise ValueError("dim does not fit in a u32")
    if t.dtype not in (np.float32, np.float64, np.uint8):
        raise ValueError(f"unsupported tensor dtype {t.dtype} (want f32/f64/u8)")
    return np.ascontiguousarray(t)


def _tag_for(t: np.ndarray) -> int:
    if t.dtype == np.float32:
        return TAG_F32
    if t.dtype == np.float64:
        return TAG_F64
    return TAG_U8


def _tlt_blobs(t: np.ndarray) -> tuple[bytes, memoryview]:
    """The TLT1 header bytes of ``t`` and its payload, a byte view of the
    little-endian array (no copy for a little-endian ``t``); see ``write_tensor``."""
    t = check_tensor(t)
    header = (
        MAGIC
        + struct.pack("<B", t.ndim)
        + struct.pack(f"<{t.ndim}I", *t.shape)
        + struct.pack("<B", _tag_for(t))
    )
    return header, memoryview(t.astype(t.dtype.newbyteorder("<"), copy=False)).cast("B")


def write_tensor(t: np.ndarray, dest: BinaryIO) -> int:
    """Write ``t`` to a byte sink in TLT1 format, returning the byte count.

    Layout: magic "TLT1", u8 rank, rank little-endian u32 dims, u8 dtype tag
    (0=f32, 1=f64, 2=u8), then the raw little-endian row-major payload.
    """
    return write_blobs(dest, *_tlt_blobs(t))


def write_blobs(dest: BinaryIO, *blobs: bytes) -> int:
    """Write ``blobs`` to a byte sink in order and return the byte count; an
    OSError from the sink is re-raised with the byte offset it failed at."""
    written = 0
    for blob in blobs:
        try:
            dest.write(blob)
        except OSError as e:
            raise OSError(f"write failed at byte offset {written}: {e}") from e
        written += len(blob)
    return written


class _FdSink:
    """A byte sink over an open file descriptor; ``write`` returns once the
    whole blob has landed."""

    __slots__ = ("fd",)

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, blob: bytes) -> None:
        view = memoryview(blob)
        while view:
            view = view[os.write(self.fd, view):]


# No O_TRUNC: truncating a non-empty file to zero and writing it again costs
# tens of times what an overwrite of the old bytes does on ext4.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_file(path, *blobs: bytes) -> int:
    """Write ``blobs`` to the file at ``path`` in order and return the byte count.

    An existing file is overwritten in place, then cut to the bytes written;
    a new one is created with mode 0o666 less the umask, as by ``open``.  If
    a write fails, a regular file is cut at the bytes that landed and the
    error (see ``write_blobs``) is re-raised.  A target that is not a regular
    file, such as ``/dev/null``, is written and never cut.
    """
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            written = write_blobs(_FdSink(fd), *blobs)
        except BaseException:
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
            raise
        if regular:
            os.ftruncate(fd, written)
        return written
    finally:
        os.close(fd)


def write_json(path, doc, sort_keys: bool = False) -> int:
    """Write ``doc`` as indented JSON and a newline with ``write_file``.  The
    document is encoded before the file is opened, so one that cannot be
    encoded raises and leaves the file as it was."""
    return write_file(path, (json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n").encode())


def read_json(path, what: str) -> dict:
    """The JSON object in the file at ``path`` (the counterpart of
    ``write_json``).  A document that nests too deeply to parse, or is not an
    object, raises ValueError naming it as ``what``."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ValueError(f"{what} JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


# Largest single read: a header that claims more payload than the stream
# holds fails when the stream runs out, not by allocating the claimed size.
_READ_PIECE = 1 << 24


def _read_exact(src: BinaryIO, n: int, field: str) -> bytes:
    pieces, got = [], 0
    while got < n and (piece := src.read(min(n - got, _READ_PIECE))):
        pieces.append(piece)
        got += len(piece)
    if got != n:
        raise TensorFormatError(
            f"truncated stream while reading {field}: wanted {n} bytes, got {got}"
        )
    return b"".join(pieces)


def read_tensor(src: BinaryIO) -> np.ndarray:
    """Read one TLT1 tensor from a byte stream (inverse of write_tensor)."""
    magic = _read_exact(src, 4, "magic")
    if magic != MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    rank = _read_exact(src, 1, "rank")[0]
    if rank < 1:
        raise TensorFormatError("rank must be >= 1")
    dims = struct.unpack(f"<{rank}I", _read_exact(src, 4 * rank, "dims"))
    if any(d < 1 for d in dims):
        raise TensorFormatError(f"dims must all be >= 1, got {dims}")
    tag = _read_exact(src, 1, "dtype tag")[0]
    if tag not in _TAG_TO_DTYPE:
        raise TensorFormatError(f"unknown dtype tag {tag}")
    dtype = _TAG_TO_DTYPE[tag]
    count = math.prod(dims)
    payload = _read_exact(src, count * dtype.itemsize, "payload")
    try:
        return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    except ValueError as e:  # a rank numpy cannot hold
        raise TensorFormatError(f"rank {rank}: {e}") from None


def save_tensor(path, t: np.ndarray) -> int:
    """Write ``t`` to a TLT1 file, returning the byte count.  A rejected
    tensor raises before the file is opened, so it leaves the file as it was."""
    return write_file(path, *_tlt_blobs(t))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        return read_tensor(f)


def save_tensor_dir(dirpath, json_name: str, doc: dict, items) -> None:
    """Write ``doc`` to ``<dirpath>/<json_name>`` with ``write_json``, then
    each (name, tensor) of ``items`` to ``<dirpath>/<name>.tlt`` as float64."""
    os.makedirs(dirpath, exist_ok=True)
    write_json(os.path.join(dirpath, json_name), doc)
    for name, t in items:
        save_tensor(os.path.join(dirpath, name + ".tlt"), t.astype(np.float64, copy=False))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
_MIN_U = 2.0 ** -53


class Rng:
    """splitmix64 generator: tiny, portable, bit-exact across platforms.

    An Rng is a value.  Parallel code must split seeds explicitly
    (``child = Rng(parent.next_u64())``) instead of sharing one stream.
    Arrays of draws come from ``uniforms`` and ``normals``, which fill them
    in row-major order, one scalar draw per element.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """A draw in [0, 1): the top 53 bits of next_u64 scaled by 2**-53."""
        return (self.next_u64() >> 11) * _INV_2_53

    def normal(self) -> float:
        """Standard normal via Box-Muller (u1 clamped away from zero)."""
        u1 = max(self.uniform(), _MIN_U)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def uniforms(self, *shape: int) -> np.ndarray:
        """An array of ``uniform()`` draws of the given shape, in row-major order.

        The k-th draw's state is ``state + k * _GAMMA`` (mod 2**64), so the
        whole array is mixed at once in uint64 arithmetic, which wraps.
        """
        n = int(math.prod(shape))
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self.state = (self.state + n * _GAMMA) & _MASK64
        return ((z >> np.uint64(11)) * _INV_2_53).reshape(shape)

    def normals(self, *shape: int) -> np.ndarray:
        """An array of ``normal()`` draws of the given shape, in row-major order."""
        return np.array([self.normal() for _ in range(math.prod(shape))]).reshape(shape)
