import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndlinear import ndt
from ndlinear.tensor import make_rng


def test_round_trip(tmp_path):
    rng = make_rng(5)
    t = rng.standard_normal((3, 4, 2))
    path = tmp_path / "t.ndt"
    ndt.write(path, t)
    back = ndt.read(path)
    assert back.shape == t.shape
    assert np.array_equal(back, t)


def test_golden_header_bytes():
    blob = ndt.dump_bytes(np.zeros((2, 3)))
    expected_header = (
        b"NDT1"
        + struct.pack("<H", 1)       # version
        + bytes([0, 0])              # dtype=f64, reserved
        + struct.pack("<I", 2)       # rank
        + struct.pack("<QQ", 2, 3)   # dims
    )
    assert blob[: len(expected_header)] == expected_header
    assert len(blob) == len(expected_header) + 6 * 8
    assert blob[len(expected_header):] == b"\x00" * 48


def test_little_endian_payload():
    blob = ndt.dump_bytes(np.array([1.0]))
    assert blob[-8:] == struct.pack("<d", 1.0)


def test_rank1_vector():
    blob = ndt.dump_bytes(np.array([1.5, -2.5]))
    assert np.array_equal(ndt.load_bytes(blob), [1.5, -2.5])


@pytest.mark.parametrize(
    "mangle",
    [
        lambda b: b"XXXX" + b[4:],                    # bad magic
        lambda b: b[:4] + struct.pack("<H", 9) + b[6:],  # bad version
        lambda b: b[:6] + bytes([7]) + b[7:],         # bad dtype
        lambda b: b[:7] + bytes([1]) + b[8:],         # reserved set
        lambda b: b[:10],                             # truncated header
        lambda b: b[:-8],                             # truncated payload
        lambda b: b + b"\x00" * 8,                    # trailing bytes
    ],
)
def test_rejects_malformed(mangle):
    blob = ndt.dump_bytes(np.ones((2, 2)))
    with pytest.raises(ndt.FormatError):
        ndt.load_bytes(mangle(blob))


@pytest.mark.parametrize("t", [np.array([1 + 2j, 3]), np.array(["1.5", "2"]), [1.0, 2j]])
def test_dump_refuses_non_real_values(t):
    # [1+2j, 3] was written as [1., 3.] with only a ComplexWarning, and a
    # string array was parsed as numbers
    with pytest.raises(TypeError, match="tensor must hold real numbers"):
        ndt.dump_bytes(t)


@pytest.mark.parametrize("t", [[[1, 2], [3, 4]], np.arange(4, dtype=np.int32).reshape(2, 2),
                               np.ones((2, 2), dtype=np.float32)])
def test_dump_converts_real_values_to_float64(t):
    assert np.array_equal(ndt.load_bytes(ndt.dump_bytes(t)), np.asarray(t, dtype=np.float64))


def test_rejects_zero_dim():
    good = ndt.dump_bytes(np.ones((2, 2)))
    bad = good[:12] + struct.pack("<QQ", 0, 2) + good[28:]
    with pytest.raises(ndt.FormatError):
        ndt.load_bytes(bad)


def _ndt_blobs():
    """Byte strings from arbitrary through structurally plausible: random
    bytes, a valid header over random dims and payload, and a valid file
    with one byte overwritten or the tail cut."""
    header = st.builds(lambda rank, rest: ndt._HEADER.pack(ndt.MAGIC, ndt.VERSION,
                                                         ndt.DTYPE_F64, 0, rank) + rest,
                       st.integers(0, 2**32 - 1) | st.integers(0, 4),
                       st.binary(max_size=96))
    valid = st.builds(lambda shape: ndt.dump_bytes(np.arange(math.prod(shape), dtype=float)
                                                    .reshape(shape)),
                      st.lists(st.integers(1, 3), min_size=1, max_size=3))
    mutated = st.builds(lambda blob, i, byte: blob[:i % len(blob)] + bytes([byte])
                        + blob[i % len(blob) + 1:], valid, st.integers(0, 200),
                        st.integers(0, 255))
    cut = st.builds(lambda blob, i: blob[:i % len(blob)], valid, st.integers(0, 200))
    return st.binary(max_size=64) | header | mutated | cut


@settings(max_examples=300, deadline=None)
@given(blob=_ndt_blobs())
def test_any_bytes_parse_or_raise_format_error(blob):
    try:
        t = ndt.load_bytes(blob)
    except ndt.FormatError:
        return
    assert t.dtype == np.float64 and t.ndim >= 1
    assert ndt.dump_bytes(t) == blob
