"""Binary file formats for dense tensors and observation masks.

Tensor file layout (version 1):

    4 bytes  magic b"TNSR"
    1 byte   format version (1)
    u32 LE   order d
    d * u32  dimensions
    f64 LE   entries, first index fastest (Fortran order)

Mask files share the header with magic b"MASK", then store the number of
observed entries as u64 LE followed by that many u64 LE linear offsets in
strictly ascending order.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .core import ObservationMask, check_shape

TENSOR_MAGIC = b"TNSR"
MASK_MAGIC = b"MASK"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """Raised when a file does not conform to the expected layout."""


def _pack_header(magic, shape):
    parts = [magic, struct.pack("<B", FORMAT_VERSION), struct.pack("<I", len(shape))]
    parts.extend(struct.pack("<I", n) for n in shape)
    return b"".join(parts)


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def _check_payload(fh, nbytes, what):
    """Require exactly `nbytes` left in the file, before reading any of them."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < nbytes:
        raise FormatError(f"truncated file: {what} needs {nbytes} bytes, {left} left")
    if left > nbytes:
        raise FormatError(f"trailing bytes after {what}")


def _read_header(fh, magic):
    """Read a header; returns the shape and its exact entry count."""
    got = _read_exact(fh, 4, "magic")
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<B", _read_exact(fh, 1, "version"))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    (order,) = struct.unpack("<I", _read_exact(fh, 4, "order"))
    if not 1 <= order <= 16:
        raise FormatError(f"implausible tensor order {order}")
    dims = struct.unpack(f"<{order}I", _read_exact(fh, 4 * order, "dimensions"))
    try:
        shape = check_shape(dims)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return shape, math.prod(shape)


def write_tensor(path, tensor):
    """Write a dense float64 tensor to `path` in TNSR1 layout."""
    t = np.asarray(tensor, dtype=np.float64)
    shape = check_shape(t.shape)
    # a NaN makes the maximum NaN, and an infinity is the maximum or the
    # minimum: no temporary the size of the tensor
    if not (np.isfinite(t.max()) and np.isfinite(t.min())):
        raise FormatError("refusing to write non-finite tensor entries")
    # Fortran order is the order of the last-mode slices, each in Fortran
    # order: a Fortran-ordered tensor goes out whole as a view, any other
    # one slice (one copy of 1/n_last of it) at a time
    pieces = [t] if t.flags.f_contiguous else (t[..., i] for i in range(shape[-1]))
    with open(path, "wb") as fh:
        fh.write(_pack_header(TENSOR_MAGIC, shape))
        for piece in pieces:
            # little-endian float64, written through the buffer protocol
            fh.write(np.ravel(piece, order="F").astype("<f8", copy=False))


def read_tensor(path):
    """Read a TNSR1 file back into a numpy array."""
    with open(path, "rb") as fh:
        shape, total = _read_header(fh, TENSOR_MAGIC)
        _check_payload(fh, 8 * total, "tensor payload")
        flat = np.empty(total, dtype="<f8")
        if fh.readinto(flat) != flat.nbytes:
            raise FormatError("truncated file while reading tensor payload")
    flat = flat.astype(np.float64, copy=False)
    if not np.all(np.isfinite(flat)):
        raise FormatError("tensor payload contains non-finite values")
    return np.reshape(flat, shape, order="F")


def write_mask(path, mask):
    """Write an :class:`ObservationMask` to `path` in MASK layout."""
    with open(path, "wb") as fh:
        fh.write(_pack_header(MASK_MAGIC, mask.shape))
        fh.write(struct.pack("<Q", mask.count))
        # the offsets are non-negative, so their little-endian int64 bytes
        # are the u64 payload; written through the buffer protocol, no copy
        fh.write(mask.linear_indices.astype("<i8", copy=False))


def read_mask(path):
    """Read a MASK file back into an :class:`ObservationMask`."""
    with open(path, "rb") as fh:
        shape, total = _read_header(fh, MASK_MAGIC)
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "mask count"))
        if count > total:
            raise FormatError(f"mask count {count} exceeds tensor size {total}")
        _check_payload(fh, 8 * count, "mask offsets")
        # offsets of 2^63 and above read as negative and are rejected below
        idx = np.empty(count, dtype="<i8")
        if fh.readinto(idx) != idx.nbytes:
            raise FormatError("truncated file while reading mask offsets")
    try:
        return ObservationMask(shape, idx)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
