"""NDT1 binary tensor files.

Layout (all little-endian):

    magic   4 bytes  b"NDT1"
    version u16      1
    dtype   u8       0 = float64
    reserved u8      0
    rank    u32
    dims    rank x u64
    payload rank-major (C order) float64 values
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .tensor import real_array, validate_shape

MAGIC = b"NDT1"
VERSION = 1
DTYPE_F64 = 0

_HEADER = struct.Struct("<4sHBBI")


class FormatError(ValueError):
    """Raised when bytes do not parse as a valid NDT1 file."""


def dump_bytes(t: np.ndarray) -> bytes:
    """Serialize a tensor to NDT1 bytes."""
    arr = np.ascontiguousarray(real_array(t, "tensor"))
    dims = validate_shape(arr.shape)
    header = _HEADER.pack(MAGIC, VERSION, DTYPE_F64, 0, len(dims))
    dims_bytes = struct.pack(f"<{len(dims)}Q", *dims)
    return header + dims_bytes + arr.astype("<f8").tobytes(order="C")


def load_bytes(blob: bytes) -> np.ndarray:
    """Parse NDT1 bytes back into a float64 tensor."""
    if len(blob) < _HEADER.size:
        raise FormatError(f"truncated header: {len(blob)} bytes")
    magic, version, dtype, reserved, rank = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if dtype != DTYPE_F64:
        raise FormatError(f"unsupported dtype code {dtype}")
    if reserved != 0:
        raise FormatError(f"reserved byte must be 0, got {reserved}")
    if rank < 1:
        raise FormatError("rank must be >= 1")

    offset = _HEADER.size
    dims_size = 8 * rank
    if len(blob) < offset + dims_size:
        raise FormatError("truncated dimension list")
    dims = struct.unpack_from(f"<{rank}Q", blob, offset)
    offset += dims_size
    try:
        dims = validate_shape(dims)
    except (ValueError, OverflowError) as exc:
        raise FormatError(str(exc)) from exc

    count = math.prod(dims)
    expected = offset + 8 * count
    if len(blob) != expected:
        raise FormatError(f"payload size mismatch: file has {len(blob)} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    return data.astype(np.float64).reshape(dims)


def write(path, t: np.ndarray) -> None:
    Path(path).write_bytes(dump_bytes(t))


def read(path) -> np.ndarray:
    return load_bytes(Path(path).read_bytes())
