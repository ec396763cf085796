import errno
import io
import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelfuse.tensor_core import (
    MAGIC,
    Rng,
    TensorFormatError,
    check_tensor,
    load_tensor,
    read_tensor,
    save_tensor,
    save_tensor_dir,
    write_file,
    write_tensor,
)

from oracles import splitmix64_reference

DATA = os.path.join(os.path.dirname(__file__), "data")


def roundtrip(t):
    buf = io.BytesIO()
    write_tensor(t, buf)
    buf.seek(0)
    return read_tensor(buf)


class TestFormat:
    def test_smallest_well_formed_file(self):
        buf = io.BytesIO()
        n = write_tensor(np.zeros(1, dtype=np.float32), buf)
        assert n == 14
        assert buf.getvalue() == (
            b"TLT1" + bytes([1]) + b"\x01\x00\x00\x00" + bytes([0]) + b"\x00\x00\x00\x00"
        )

    def test_u8_payload_follows_header(self):
        buf = io.BytesIO()
        write_tensor(np.array([[1, 2], [3, 4]], dtype=np.uint8), buf)
        raw = buf.getvalue()
        # header: magic(4) + rank(1) + 2 u32 dims(8) + dtype tag(1)
        assert raw[:4] == b"TLT1"
        assert raw[4] == 2
        assert raw[13] == 2  # u8 tag
        assert raw[14:] == bytes([1, 2, 3, 4])

    def test_random_f64_roundtrip_bit_identical(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 4, 5))
        t2 = roundtrip(t)
        assert t2.dtype == np.float64
        assert t2.tobytes() == t.tobytes()

    @given(
        dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        dtype=st.sampled_from(["float32", "float64", "uint8"]),
        seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, dims, dtype, seed):
        rng = np.random.default_rng(seed)
        if dtype == "uint8":
            t = rng.integers(0, 256, size=dims, dtype=np.uint8)
        else:
            t = rng.standard_normal(dims).astype(dtype)
        t2 = roundtrip(t)
        assert t2.dtype == t.dtype
        assert t2.shape == t.shape
        assert t2.tobytes() == t.tobytes()

    def test_bad_magic(self):
        with pytest.raises(TensorFormatError, match="magic"):
            read_tensor(io.BytesIO(b"XXXX" + b"\x00" * 16))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        write_tensor(np.arange(10, dtype=np.float32).reshape(10), buf)
        data = buf.getvalue()
        # keep the header claiming 10 elements but only 5 elements of payload
        with pytest.raises(TensorFormatError, match="payload"):
            read_tensor(io.BytesIO(data[: 4 + 1 + 4 + 1 + 5 * 4]))

    def test_oversized_dims_claim_rejected_without_allocating(self, tmp_path):
        # 23 bytes whose header claims 65535^3 float64 elements (~2 PB)
        path = tmp_path / "huge.tlt"
        path.write_bytes(MAGIC + bytes([3]) + struct.pack("<3I", 65535, 65535, 65535) + bytes([1]) + b"\0" * 5)
        assert path.stat().st_size == 23
        with pytest.raises(TensorFormatError, match="payload"):
            load_tensor(path)

    @given(
        rest=st.binary(max_size=64)
        | st.builds(
            lambda dims, tag, tail: bytes([len(dims)]) + struct.pack(f"<{len(dims)}I", *dims) + bytes([tag]) + tail,
            st.lists(st.integers(0, 4) | st.integers(0, 2 ** 32 - 1), min_size=1, max_size=4),
            st.integers(0, 3),
            st.binary(max_size=64),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzz_after_magic_gives_tensor_or_format_error(self, rest):
        # a buffered reader, as for a file: it allocates what a read asks for
        try:
            t = read_tensor(io.BufferedReader(io.BytesIO(MAGIC + rest)))
        except TensorFormatError:
            return
        assert isinstance(t, np.ndarray) and t.size >= 1

    @pytest.mark.parametrize(
        "dims, match",
        # 65 dims of 1 are well formed, but more than numpy holds (64, or 32 in numpy 1)
        [((), "^rank must be >= 1$"), ((3, 0), r"^dims must all be >= 1, got \(3, 0\)$"),
         ((1,) * 65, "^rank 65: .*dimension")],
        ids=["rank0", "dim0", "rank65"],
    )
    def test_header_no_array_can_hold(self, dims, match):
        # the header, a u8 tag and a 1-byte payload
        data = MAGIC + bytes([len(dims)]) + struct.pack(f"<{len(dims)}I", *dims) + bytes([2, 7])
        with pytest.raises(TensorFormatError, match=match):
            read_tensor(io.BytesIO(data))

    def test_unknown_dtype_tag(self):
        buf = io.BytesIO()
        write_tensor(np.zeros(1, dtype=np.float32), buf)
        data = bytearray(buf.getvalue())
        data[9] = 7  # dtype tag byte
        with pytest.raises(TensorFormatError, match="tag"):
            read_tensor(io.BytesIO(bytes(data)))

    def test_rejects_scalars_and_bad_dtypes(self):
        with pytest.raises(ValueError, match="rank"):
            check_tensor(np.float64(3.0))
        with pytest.raises(ValueError, match="dtype"):
            check_tensor(np.zeros(3, dtype=np.int32))
        # 2^32 elements as a broadcast view, which allocates nothing
        with pytest.raises(ValueError, match="dim does not fit in a u32"):
            check_tensor(np.broadcast_to(np.zeros(1, dtype=np.uint8), (2 ** 32,)))

    def test_file_helpers(self, tmp_path):
        t = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "x.tlt"
        save_tensor(path, t)
        assert np.array_equal(load_tensor(path), t)
        # a strided view is written in row-major order
        save_tensor(path, t.T)
        assert load_tensor(path).tobytes() == np.ascontiguousarray(t.T).tobytes()

    @pytest.mark.parametrize("save", [
        lambda path, t: save_tensor(path / "big.tlt", t),
        lambda path, t: save_tensor_dir(path, "doc.json", {}, [("big", t)]),
    ], ids=["save_tensor", "save_tensor_dir"])
    def test_save_writes_from_a_view_of_the_array(self, tmp_path, save):
        t = np.random.default_rng(0).standard_normal(1 << 21)  # 16 MiB of float64
        tracemalloc.start()
        try:
            save(tmp_path, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert load_tensor(tmp_path / "big.tlt").tobytes() == t.tobytes()

    @pytest.mark.parametrize("bad", [np.zeros(3, dtype=np.float16), np.zeros((0,)), np.float64(1.0)])
    def test_rejected_tensor_leaves_file_intact(self, tmp_path, bad):
        path = tmp_path / "x.tlt"
        save_tensor(path, np.arange(3, dtype=np.float64))
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_tensor(path, bad)
        assert path.read_bytes() == before

    def test_sink_failure_reports_byte_offset(self):
        class FailingSink:
            def __init__(self):
                self.calls = 0

            def write(self, blob):
                self.calls += 1
                if self.calls > 1:  # header lands, payload write fails
                    raise OSError("disk full")

        # header is magic(4) + rank(1) + dim(4) + tag(1) = 10 bytes
        with pytest.raises(OSError, match="byte offset 10"):
            write_tensor(np.zeros(1, dtype=np.float32), FailingSink())


class TestWriteFile:
    """Every file the package writes goes through ``write_file``, which
    overwrites in place and cuts the file to the bytes written."""

    @pytest.mark.parametrize(
        "write, long, short",
        [
            (save_tensor, np.arange(50, dtype=np.float64), np.array([7, 8, 9], dtype=np.uint8)),
            (
                lambda path, doc: save_tensor_dir(os.path.dirname(path), os.path.basename(path), doc, []),
                {"labels": [{"name": f"label{i}", "channels": i} for i in range(20)]},
                {"d": 8},
            ),
        ],
        ids=["tlt", "json"],
    )
    def test_shorter_overwrite_equals_fresh_write(self, tmp_path, write, long, short):
        (tmp_path / "old").mkdir()
        (tmp_path / "new").mkdir()
        write(str(tmp_path / "old" / "f"), long)
        before = (tmp_path / "old" / "f").stat().st_size
        write(str(tmp_path / "old" / "f"), short)
        write(str(tmp_path / "new" / "f"), short)
        after = (tmp_path / "old" / "f").read_bytes()
        assert after == (tmp_path / "new" / "f").read_bytes()
        assert len(after) < before

    def test_overwrite_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "x.tlt"
        save_tensor(path, np.arange(40, dtype=np.float64))
        os.chmod(path, 0o640)
        ino = path.stat().st_ino
        save_tensor(path, np.arange(3, dtype=np.float64))
        assert path.stat().st_ino == ino
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert np.array_equal(load_tensor(path), np.arange(3, dtype=np.float64))

    def test_overwrite_through_symlink(self, tmp_path):
        target, link = tmp_path / "target.tlt", tmp_path / "link.tlt"
        save_tensor(target, np.arange(40, dtype=np.float64))
        ino = target.stat().st_ino
        os.symlink(target, link)
        save_tensor(link, np.ones(2, dtype=np.float32))
        assert link.is_symlink()
        assert target.stat().st_ino == ino
        assert np.array_equal(load_tensor(target), np.ones(2, dtype=np.float32))

    def test_non_regular_target_is_written_not_cut(self):
        # ftruncate raises EINVAL on /dev/null
        assert save_tensor(os.devnull, np.zeros(3, dtype=np.float32)) == 10 + 12
        assert write_file(os.devnull, b"abc", b"") == 3

    def test_failed_write_leaves_a_file_that_does_not_load(self, tmp_path, monkeypatch):
        path = tmp_path / "x.tlt"
        save_tensor(path, np.arange(100, dtype=np.float64))
        size = path.stat().st_size
        real_write, calls = os.write, []

        def failing_write(fd, data):
            calls.append(len(data))
            if len(calls) == 2:  # the payload: half of it lands
                return real_write(fd, bytes(data[: len(data) // 2]))
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", failing_write)
        # the header is magic(4) + rank(1) + dim(4) + tag(1) = 10 bytes
        with pytest.raises(OSError, match="byte offset 10"):
            save_tensor(path, np.ones(100, dtype=np.float64))
        monkeypatch.undo()
        # the same header over the old file: without the cut the old payload's
        # tail would complete a well-formed file
        with pytest.raises(TensorFormatError, match="payload"):
            load_tensor(path)
        assert path.stat().st_size == 10 + 400 < size

    @pytest.mark.parametrize("exists", [False, True])
    def test_writers_open_without_truncation(self, tmp_path, open_flags, exists):
        if exists:
            for name in ("x.tlt", "d/params.json", "d/w.tlt"):
                (tmp_path / name).parent.mkdir(exist_ok=True)
                (tmp_path / name).write_bytes(b"old" * 100)
        save_tensor(tmp_path / "x.tlt", np.zeros(3))
        save_tensor_dir(tmp_path / "d", "params.json", {"d": 8}, [("w", np.zeros(2))])
        assert len(open_flags) == 3
        assert not any(flags & os.O_TRUNC for flags in open_flags)

    def test_unencodable_json_leaves_file_as_it_was(self, tmp_path):
        save_tensor_dir(tmp_path, "params.json", {"d": 8}, [])
        before = (tmp_path / "params.json").read_bytes()
        assert json.loads(before) == {"d": 8}
        with pytest.raises(TypeError, match="int64"):
            save_tensor_dir(tmp_path, "params.json", {"d": np.int64(8)}, [])
        assert (tmp_path / "params.json").read_bytes() == before


class TestRowMajor:
    def test_flat_index_arithmetic_exhaustive(self):
        h, w, c = 3, 4, 2
        t = np.arange(h * w * c, dtype=np.float64).reshape(h, w, c)
        flat = roundtrip(t).ravel()
        for i in range(h):
            for j in range(w):
                for k in range(c):
                    assert flat[(i * w + j) * c + k] == t[i, j, k]


class TestRng:
    def test_seed0_first_output(self):
        assert Rng(0).next_u64() == 0xE220A8397B1DCDAF

    def test_same_seed_same_stream(self):
        a, b = Rng(99), Rng(99)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_seed0_vs_seed1_differ(self):
        assert Rng(0).next_u64() != Rng(1).next_u64()

    def test_matches_reference_recurrence(self):
        r = Rng(987654321)
        assert [r.next_u64() for _ in range(100)] == splitmix64_reference(987654321, 100)

    def test_golden_stream_seed42(self):
        with open(os.path.join(DATA, "splitmix64_seed42.txt")) as f:
            golden = [int(line, 16) for line in f]
        r = Rng(42)
        assert [r.next_u64() for _ in range(1000)] == golden

    def test_uniform_range_and_determinism(self):
        r = Rng(5)
        draws = [r.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        r2 = Rng(5)
        assert draws == [r2.uniform() for _ in range(1000)]

    def test_uniform_mean(self):
        r = Rng(123)
        mean = np.mean([r.uniform() for _ in range(100_000)])
        assert 0.49 <= mean <= 0.51

    def test_normal_moments(self):
        r = Rng(2024)
        draws = np.array([r.normal() for _ in range(100_000)])
        assert -0.02 <= draws.mean() <= 0.02
        assert 0.97 <= draws.var() <= 1.03

    def test_normal_deterministic(self):
        assert [Rng(8).normal() for _ in range(5)] == [Rng(8).normal() for _ in range(5)]

    @pytest.mark.parametrize("draw, one", [("normals", "normal"), ("uniforms", "uniform")])
    def test_array_draws_are_scalar_draws_in_row_major_order(self, draw, one):
        arr_rng, scalar_rng = Rng(11), Rng(11)
        arr = getattr(arr_rng, draw)(2, 3)
        scalars = [getattr(scalar_rng, one)() for _ in range(6)]
        assert arr.shape == (2, 3) and arr.dtype == np.float64
        assert arr.ravel().tolist() == scalars
        assert arr_rng.state == scalar_rng.state

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 64, 2**64 - 1)),
        shape=st.lists(st.integers(0, 6), min_size=1, max_size=3),
    )
    def test_uniforms_match_scalar_loop_bytes(self, seed, shape):
        arr_rng, scalar_rng = Rng(seed), Rng(seed)
        arr = arr_rng.uniforms(*shape)
        scalars = np.array([scalar_rng.uniform() for _ in range(int(np.prod(shape)))])
        assert arr.shape == tuple(shape) and arr.dtype == np.float64
        assert arr.tobytes() == scalars.tobytes()
        assert arr_rng.state == scalar_rng.state
        assert arr_rng.uniform() == scalar_rng.uniform()

    @pytest.mark.parametrize("shape", [(np.int64(3),), (np.int32(2), np.int64(3)), (np.uint64(4), 2)])
    def test_uniforms_take_numpy_integer_sizes(self, shape):
        # math.prod of numpy integers is a numpy integer, which overflowed
        # once multiplied into the state advance
        np_rng, int_rng = Rng(1), Rng(1)
        assert np_rng.uniforms(*shape).tobytes() == int_rng.uniforms(*map(int, shape)).tobytes()
        assert np_rng.state == int_rng.state and type(np_rng.state) is int
