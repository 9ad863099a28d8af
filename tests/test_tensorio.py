import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorenr.core import ObservationMask, cp_reconstruct, sample_mask
from tensorenr.tensorio import (
    FormatError,
    read_mask,
    read_tensor,
    write_mask,
    write_tensor,
)


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5))
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    assert np.array_equal(read_tensor(path), t)


def test_tensor_header_bytes(tmp_path):
    t = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    raw = path.read_bytes()
    assert raw[:4] == b"TNSR"
    assert raw[4] == 1
    assert struct.unpack("<I", raw[5:9])[0] == 2
    assert struct.unpack("<II", raw[9:17]) == (2, 3)
    # payload is little-endian f64 with the first index varying fastest
    payload = np.frombuffer(raw[17:], dtype="<f8")
    assert payload.tolist() == [0.0, 3.0, 1.0, 4.0, 2.0, 5.0]


def test_tensor_payload_layout_is_column_major(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.standard_normal((2, 3, 2))
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    raw = path.read_bytes()
    payload = np.frombuffer(raw[4 + 1 + 4 + 12 :], dtype="<f8")
    assert np.array_equal(payload, t.ravel(order="F"))


def _layouts():
    base = np.random.default_rng(7).standard_normal((4, 6, 5))
    return {
        "c": base,
        "f": np.asfortranarray(base),
        "strided": base[::2, 1::2, ::-1],
        "transposed": base.transpose(2, 0, 1),
        "float32": base.astype(np.float32),
    }


@pytest.mark.parametrize("layout", sorted(_layouts()))
def test_tensor_bytes_do_not_depend_on_input_layout(tmp_path, layout):
    t = _layouts()[layout]
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    want = _header(b"TNSR", t.shape) + np.ravel(t, order="F").astype("<f8").tobytes()
    assert path.read_bytes() == want
    back = read_tensor(path)
    assert back.dtype == np.float64 and np.array_equal(back, t.astype(np.float64))


def test_tensor_io_copies_no_payload(tmp_path):
    # writing a Fortran-ordered float64 tensor streams the array itself, and
    # reading fills one preallocated array: neither holds a second payload
    t = np.asfortranarray(np.random.default_rng(8).standard_normal((64, 64, 64)))
    path = tmp_path / "t.tnsr"
    tracemalloc.start()
    try:
        write_tensor(path, t)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_tensor(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, t)
    assert write_peak < 0.5 * t.nbytes
    assert read_peak < 1.5 * t.nbytes


def test_mask_write_copies_no_payload(tmp_path):
    # the offsets are written through the buffer protocol, not as a converted
    # copy and its bytes
    mask = sample_mask((100, 100, 100), 0.9, seed=4)
    path = tmp_path / "m.msk"
    payload = 8 * mask.count
    tracemalloc.start()
    try:
        write_mask(path, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(read_mask(path).linear_indices, mask.linear_indices)
    assert peak < 0.5 * payload


def test_mask_round_trip(tmp_path):
    mask = sample_mask((4, 5, 6), 0.65, seed=3)
    path = tmp_path / "m.msk"
    write_mask(path, mask)
    loaded = read_mask(path)
    assert loaded.shape == mask.shape
    assert np.array_equal(loaded.linear_indices, mask.linear_indices)


def test_mask_read_copies_no_payload(tmp_path):
    # the offsets are read into one preallocated array, and checking their
    # order makes no array as large as them
    mask = sample_mask((100, 100, 100), 0.9, seed=4)
    path = tmp_path / "m.msk"
    write_mask(path, mask)
    payload = 8 * mask.count
    tracemalloc.start()
    try:
        back = read_mask(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.linear_indices, mask.linear_indices)
    assert peak < 1.5 * payload


@pytest.mark.parametrize("offsets", [[2**63], [1, 2**63], [2**64 - 1]])
def test_mask_offset_beyond_int64_rejected(tmp_path, offsets):
    # u64 offsets of 2^63 and above do not fit the int64 offsets of a mask
    path = tmp_path / "m.msk"
    body = struct.pack("<Q", len(offsets)) + struct.pack(f"<{len(offsets)}Q", *offsets)
    path.write_bytes(_header(b"MASK", [2**16] * 4) + body)
    with pytest.raises(FormatError):
        read_mask(path)


def test_mask_header_bytes(tmp_path):
    mask = ObservationMask((2, 2), np.array([0, 3], dtype=np.int64))
    path = tmp_path / "m.msk"
    write_mask(path, mask)
    raw = path.read_bytes()
    assert raw[:4] == b"MASK"
    assert raw[4] == 1
    assert struct.unpack("<I", raw[5:9])[0] == 2
    assert struct.unpack("<II", raw[9:17]) == (2, 2)
    assert struct.unpack("<Q", raw[17:25])[0] == 2
    assert np.frombuffer(raw[25:], dtype="<u8").tolist() == [0, 3]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.tnsr"
    path.write_bytes(b"JUNK" + bytes(20))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_mask_magic_not_accepted_as_tensor(tmp_path):
    mask = sample_mask((3, 3), 0.5, seed=0)
    path = tmp_path / "m.msk"
    write_mask(path, mask)
    with pytest.raises(FormatError):
        read_tensor(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "x.tnsr"
    path.write_bytes(b"TNSR" + bytes([9]) + struct.pack("<I", 1) + struct.pack("<I", 1) + struct.pack("<d", 0.0))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_truncated_payload_rejected(tmp_path):
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 3))
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_tensor(path)


def test_trailing_bytes_rejected(tmp_path):
    t = np.ones((2, 2))
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        read_tensor(path)


def test_non_finite_payload_rejected(tmp_path):
    t = np.ones((2, 2))
    t[0, 0] = np.nan
    path = tmp_path / "t.tnsr"
    with pytest.raises(FormatError):
        write_tensor(path, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [(0, 0, 0), (2, 1, 3), (3, 4, 4)])
def test_any_non_finite_entry_rejected_before_writing(tmp_path, bad, at):
    t = np.random.default_rng(3).standard_normal((4, 5, 5))[:, ::-1]
    t[at] = bad
    path = tmp_path / "t.tnsr"
    with pytest.raises(FormatError):
        write_tensor(path, t)
    assert not path.exists()


def test_tensor_write_of_a_cp_reconstruction_copies_slices_only(tmp_path):
    # cp_reconstruct returns a strided view, neither C- nor Fortran-ordered;
    # it is written one last-mode slice at a time, with the bytes of its
    # Fortran-ordered copy
    rng = np.random.default_rng(9)
    t = cp_reconstruct([rng.standard_normal((100, 5)) for _ in range(3)])
    assert not (t.flags.c_contiguous or t.flags.f_contiguous)
    path = tmp_path / "t.tnsr"
    tracemalloc.start()
    try:
        write_tensor(path, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = _header(b"TNSR", t.shape) + t.astype("<f8").tobytes(order="F")
    assert path.read_bytes() == want
    assert peak < 0.05 * t.nbytes


def test_unsorted_mask_offsets_rejected(tmp_path):
    path = tmp_path / "m.msk"
    header = b"MASK" + bytes([1]) + struct.pack("<I", 2) + struct.pack("<II", 2, 2)
    body = struct.pack("<Q", 2) + struct.pack("<QQ", 3, 1)
    path.write_bytes(header + body)
    with pytest.raises(FormatError):
        read_mask(path)


def test_mask_offset_out_of_range_rejected(tmp_path):
    path = tmp_path / "m.msk"
    header = b"MASK" + bytes([1]) + struct.pack("<I", 2) + struct.pack("<II", 2, 2)
    body = struct.pack("<Q", 1) + struct.pack("<Q", 9)
    path.write_bytes(header + body)
    with pytest.raises(FormatError):
        read_mask(path)


def test_high_order_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2, 2, 2, 2, 2, 2))
    path = tmp_path / "t.tnsr"
    write_tensor(path, t)
    assert np.array_equal(read_tensor(path), t)


def _header(magic, dims):
    return magic + bytes([1]) + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)


def test_mask_header_overflowing_int64_rejected(tmp_path):
    # 65536^6 = 2^96 entries wraps to 0 in int64 arithmetic
    path = tmp_path / "m.msk"
    path.write_bytes(_header(b"MASK", [65536] * 6) + struct.pack("<Q", 0))
    assert path.stat().st_size == 41
    with pytest.raises(FormatError):
        read_mask(path)


def test_tensor_header_overflowing_int64_rejected(tmp_path):
    path = tmp_path / "t.tnsr"
    path.write_bytes(_header(b"TNSR", [65536] * 6))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_payload_checked_against_file_size_before_reading(tmp_path):
    # 4096^3 entries would be a 512 GiB read; the file holds only a header
    path = tmp_path / "t.tnsr"
    path.write_bytes(_header(b"TNSR", [4096] * 3))
    with pytest.raises(FormatError):
        read_tensor(path)


def test_mask_count_beyond_file_size_rejected(tmp_path):
    path = tmp_path / "m.msk"
    path.write_bytes(_header(b"MASK", [4096] * 3) + struct.pack("<Q", 2**36))
    with pytest.raises(FormatError):
        read_mask(path)


@settings(max_examples=200, deadline=None)
@given(
    which=st.sampled_from(["tensor", "mask"]),
    edits=st.lists(st.tuples(st.integers(0, 32), st.integers(0, 255)), min_size=1, max_size=4),
)
def test_mutated_headers_read_or_raise_format_error(tmp_path_factory, which, edits):
    # flipping bytes anywhere in the header (and the mask count) must give
    # either a readable file or FormatError, never another error
    path = tmp_path_factory.mktemp("fuzz") / "f.bin"
    if which == "tensor":
        write_tensor(path, np.arange(24.0).reshape(2, 3, 4))
        header_len, reader = 4 + 1 + 4 + 12, read_tensor
    else:
        write_mask(path, sample_mask((2, 3, 4), 0.5, seed=1))
        header_len, reader = 4 + 1 + 4 + 12 + 8, read_mask
    raw = bytearray(path.read_bytes())
    for pos, value in edits:
        raw[pos % header_len] = value
    path.write_bytes(bytes(raw))
    try:
        reader(path)
    except FormatError:
        pass
