"""Dense N-D tensor primitives.

Conventions used throughout the package:

- Tensors are ``numpy.ndarray`` objects with dtype float64 and C
  (row-major, last axis fastest) memory order.
- Operations are pure: inputs are never mutated. ``permute``
  materializes a contiguous result; ``matmul`` takes its operands as
  they come, so a transposed view reaches BLAS as a transpose flag
  instead of being copied first, and writes into ``out`` when given
  one. These two are the layer's only compute primitives; the
  reference mode-k product lives in ``oracle``.
- The layer's batch moves are axis rotations: 2-D transposes. numpy's
  strided copy of one larger than the per-core L2 misses cache on every
  read, so ``permute`` copies it in bands of source rows that stay in
  cache (a (32768, 32) move: 6.5-7.2 ms, 2.2-2.3 ms in bands).
- OpenBLAS runs products of at most ``SMALL_GEMM_MNK`` multiply-adds
  in a small-matrix kernel whose operands stay in cache, and that is
  faster on long, skinny products than one call. A planned inference
  step, a short weight times a long unfolding that contracts by at least
  16 ((m, k) @ (k, n) with k >= 16m), is computed by ``matmul`` in row
  bands within that bound ((4, 256) @ (256, 4096): 1.17-1.38 ms,
  0.54-0.59 ms in bands). Training keeps its steps within it by
  running the batch in sample chunks (``layer``), one ``matmul`` each.
- Tensors hold real numbers. ``real_array`` is the one rule for values
  from outside: bool, int and float convert to float64; complex, string,
  bytes, object, datetime and void arrays raise ``TypeError``.
- A size (a dim, a batch, a count) is a positive int: ``is_positive_int``
  is the one rule, and ``positive_int`` its raising twin. Shapes are
  tuples of sizes; ``validate_shape`` adds rank >= 1 and no overflow.
  An axis or mode order is a ``permutation`` of 0..n-1.
- Randomness comes from ``make_rng``, a seeded 64-bit PCG64 generator.
  Identical seeds give identical streams within this implementation.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Counting limits. Element counts are bounded by the platform word
# (signed, since they are used as indexes); FLOP/parameter tallies use
# unsigned 64-bit bounds and raise instead of wrapping.
INDEX_MAX = 2**63 - 1
U64_MAX = 2**64 - 1


class ShapeError(ValueError):
    """Raised when a shape, axis list, or dimension does not match."""


def checked_u64(value: int, what: str) -> int:
    """Return ``value`` unchanged unless it falls outside u64 range."""
    if value < 0 or value > U64_MAX:
        raise OverflowError(f"{what} = {value} does not fit in 64 bits")
    return value


def is_positive_int(value) -> bool:
    """True for an int >= 1, numpy ints included; never a bool, float or string."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def positive_int(value, what: str) -> int:
    """``value`` as a Python int if ``is_positive_int``; else a ShapeError naming ``what``."""
    if not is_positive_int(value):
        raise ShapeError(f"{what} must be a positive int, got {value!r}")
    return int(value)


def validate_shape(dims) -> tuple[int, ...]:
    """Check a dimension list and return it as a tuple of Python ints.

    Requires rank >= 1, every dim a positive int (``is_positive_int``),
    and an element count that fits in a platform word.
    """
    shape = tuple(dims) if np.iterable(dims) else ()
    if len(shape) == 0:
        raise ShapeError(f"shape must be a non-empty sequence of dims, got {dims!r}")
    if not all(map(is_positive_int, shape)):
        raise ShapeError(f"all dims must be positive ints, got {dims!r}")
    shape = tuple(map(int, shape))
    count = math.prod(shape)
    if count > INDEX_MAX:
        raise OverflowError(f"element count {count} overflows platform word")
    return shape


def permutation(axes, n: int, what: str = "axes") -> tuple[int, ...]:
    """``axes`` as a tuple of Python ints if it holds each of 0..n-1 exactly
    once; else a ShapeError. Numpy ints count as ints; a bool or a float
    never does, though ``True == 1`` and ``1.0 == 1``."""
    try:
        items = tuple(axes)
        ints = tuple(map(operator.index, items))  # a float or a string raises
    except TypeError:  # not iterable, or not all integers
        ints = None
    if ints is None or bool in map(type, items) or sorted(ints) != list(range(n)):
        raise ShapeError(f"{what} {axes!r} is not a permutation of 0..{n - 1}")
    return ints


_F64 = np.dtype(np.float64)


def real_array(x, what: str) -> np.ndarray:
    """``x`` as a float64 array if its dtype is bool, int or float; else a
    TypeError naming ``what``. numpy would drop a complex array's imaginary
    part with only a warning, and parse a string array as numbers."""
    x = np.asarray(x)
    if x.dtype == _F64:  # first, as the cheapest test (~0.1 us per call)
        return x
    if x.dtype.kind not in "biuf":
        raise TypeError(f"{what} must hold real numbers (bool, int or float), "
                        f"got dtype {x.dtype}")
    return x.astype(_F64)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded 64-bit PRNG (PCG64) used for every random draw here."""
    return np.random.Generator(np.random.PCG64(seed))


class FlopCounter:
    """Tally of multiply-adds performed by ``matmul`` while active.

    Use as a context manager::

        with FlopCounter() as fc:
            forward(layer, x)
        flops = 2 * fc.multiply_adds

    One (m, k) @ (k, n) product counts m*k*n multiply-adds. The count
    is monotone non-decreasing and checked against u64 range. Only one
    counter may be active at a time; instrumentation is not thread-safe.
    """

    def __init__(self) -> None:
        self.multiply_adds = 0

    def add(self, n: int) -> None:
        self.multiply_adds = checked_u64(self.multiply_adds + n, "multiply_adds")

    def __enter__(self) -> "FlopCounter":
        global _active_counter
        if _active_counter is not None:
            raise RuntimeError("another FlopCounter is already active")
        _active_counter = self
        return self

    def __exit__(self, *exc) -> None:
        global _active_counter
        _active_counter = None


_active_counter: FlopCounter | None = None


# Rotations of more elements than this (2 MiB of float64, the per-core
# L2) are copied in bands; see ``permute``.
BAND_MIN_SIZE = 2**18


def permute(t: np.ndarray, axes) -> np.ndarray:
    """Reorder axes so output axis i is input axis ``axes[i]``.

    Always materializes a fresh contiguous copy, including for the
    identity permutation. A rotation (j..n-1, 0..j-1) is the transpose
    of the (prod(shape[:j]), rest) matrix. Over ``BAND_MIN_SIZE``
    elements it is copied in bands of ``max(16, 2**15 // cols)`` source
    rows, each read while it sits in cache. On a 2 MiB-L2 Xeon the
    (32768, 32) transpose took 6.5-7.2 ms as one strided copy and 2.2-2.3
    ms in bands, and the (32, 32768) one 2.9-3.1 and 1.6-1.7 ms. Any other
    permutation, and any smaller tensor, is one ``np.transpose(...).copy()``.
    The values are the same either way.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    axes = permutation(axes, t.ndim)
    j = axes[0] if t.size > BAND_MIN_SIZE else 0
    if j > 0 and axes == (*range(j, t.ndim), *range(j)):
        rows = math.prod(t.shape[:j])
        src = t.reshape(rows, -1)
        out = np.empty((src.shape[1], rows))
        band = max(16, 2**15 // src.shape[1])
        for r in range(0, rows, band):
            out[:, r:r + band] = src[r:r + band].T
        return out.reshape(t.shape[j:] + t.shape[:j])
    return np.transpose(t, axes).copy(order="C")


# Products of at most this many multiply-adds run OpenBLAS's unpacked
# small-matrix kernel; see ``matmul``.
SMALL_GEMM_MNK = 10**6


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rank-2 matrix product with f64 accumulation.

    Operands may be strided views: a transposed one reaches BLAS as a
    transpose flag, not a copy. ``out``, if given, is a writeable (m, n)
    float64 array with contiguous rows (C-contiguous, or a view such as
    a column band ``z[:, s]`` with ``strides[1] == 8`` and ``strides[0]
    >= 8n``, which numpy hands to BLAS as it is). It receives the
    product (the same bits as a fresh one) and is returned; a transposed
    or read-only ``out`` raises ``ShapeError`` before anything is counted.
    Feeds the active FlopCounter, if any, with m*k*n multiply-adds, once,
    however the product is computed.

    One kind of product is computed in row bands: ``a`` and ``b`` are
    transposes of C-contiguous (k, m) and (n, k) matrices (the layout of
    ``forward_only``'s planned steps, W_k^T times an unfolding's
    transpose), it contracts by at least 16 (1 < m, 16m <= k), and m*k*n
    exceeds ``SMALL_GEMM_MNK``. Then bands of ``SMALL_GEMM_MNK // (m*k)``
    rows of b^T a^T, if that is at least 16, go into an (n, m) scratch
    buffer, which is transposed into the result. A one-row ``a`` is
    excluded: it is C-contiguous too, so backward's W_k G^T for D_k = 1
    would match. OpenBLAS 0.3.31 (1 thread, AVX-512 Xeon) takes products
    of at most 10^6 multiply-adds through an unpacked small-matrix
    kernel, and the cut is sharp: (976, 256) @ (256, 4) is fast, (977,
    256) @ (256, 4) is not. The rule is narrow because wider ones lose.
    Banded/one-call time, 3 runs each: every win had k >= 16m ((4, 256)
    @ (256, 4096) 0.39-0.60, (8, 512) 0.56-0.64, (16, 256) 0.65-0.77),
    every loss k/m <= 4, where the scratch transpose costs more than the
    small kernel saves ((16, 64) @ (64, 16384) 1.15-1.38, (32, 64)
    1.61-1.72, (32, 128) @ (128, 8192) 1.06-1.20). 16-row bands over the
    bound run the slow kernel in pieces ((64, 1024) @ (1024, 4096): 16.7
    ms in one call, 30.5 ms in bands). A banded product matches ``a @ b``
    up to rounding, not bitwise. Every other product, NN, TN and NT ones
    included, is one ``a @ b``; training splits its batch into sample
    chunks itself (``layer``), one ``matmul`` a step and chunk.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    if out is not None and not (
            isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == (m, n) and out.flags.writeable
            and (out.flags.c_contiguous or out.strides[1] == 8 and out.strides[0] >= 8 * n)):
        raise ShapeError(f"out must be a writeable float64 array of shape {(m, n)} "
                         "with contiguous rows")
    if _active_counter is not None:
        _active_counter.add(m * k * n)
    band = (SMALL_GEMM_MNK // (m * k)
            if 1 < m and 16 * m <= k and m * k * n > SMALL_GEMM_MNK else 0)
    if band >= 16 and a.T.flags.c_contiguous and b.T.flags.c_contiguous:
        bt, at = b.T, a.T
        # a fresh buffer, so every read of a and b precedes the first write to out
        scratch = np.empty((n, m))
        for r in range(0, n, band):
            np.matmul(bt[r:r + band], at, out=scratch[r:r + band])
        if out is None:
            return scratch.T.copy()
        out[...] = scratch.T
        return out
    if out is None:
        return a @ b
    return np.matmul(a, b, out=out)
