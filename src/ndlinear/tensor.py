"""Dense N-D tensor primitives.

Conventions used throughout the package:

- Tensors are float64 ``numpy.ndarray`` objects: C (row-major) order, or a
  strided view of a fresh buffer nothing else holds (a layer's output).
- Operations are pure: inputs are never mutated. ``permute`` copies into
  a contiguous result; ``matmul`` takes its operands as they come (a
  transposed view reaches BLAS as a flag) and writes into ``out`` if
  given. Every product the layer computes is a ``matmul``, so
  ``FlopCounter`` counts its FLOPs exactly, and every whole-batch copy it
  makes is a ``permute``. A tracer of the two misses what runs in plain
  numpy: a chunk's batch moves into and out of the step layout, the bias
  adds and the db_k gemvs.
- Each public entry (``layer.forward``, ``nn.model_forward``, ...) checks
  its input; inner steps run a cached plan. The primitives still check
  their operands but pass a float64 ndarray through: a (32, 64)
  ``permute`` took 4.6 us, not 6.1 (``x.T.copy()``: 2.4).
- OpenBLAS runs products of at most ``SMALL_GEMM_MNK`` multiply-adds in
  a faster small-matrix kernel; ``matmul``'s and training's bands keep
  long steps within it.
- Tensors hold real numbers. ``real_array`` is the one rule for values,
  operands, parameters and files included: bool, int and float convert to
  float64; complex, string, bytes, object, datetime and void arrays raise
  ``TypeError``. ``batch_of`` adds the one rule for a batch of inputs.
- A size (a dim, a batch, a count) is a positive int: ``is_positive_int``
  is the one rule, and ``positive_int`` its raising twin. Shapes are
  tuples of sizes; ``validate_shape`` adds rank >= 1 and no overflow.
  An axis or mode order is a ``permutation`` of 0..n-1.
- Randomness comes from ``make_rng``, a seeded 64-bit PCG64 generator.
"""

from __future__ import annotations

import math
import operator

import numpy as np

# Counting limits: element counts fit the signed platform word (they index);
# FLOP/parameter tallies raise past unsigned 64 bits instead of wrapping.
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
    """``axes`` as a tuple of Python ints if it holds each of 0..n-1 once; else a
    ShapeError. Numpy ints count; a bool or a float never does, though True == 1."""
    if type(axes) is tuple and {*map(type, axes)} <= {int} and sorted(axes) == [*range(n)]:
        return axes  # the common call: exact ints, no bool
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
    part with only a warning, and parse a string array as numbers. A ragged
    nested list is a ShapeError."""
    try:
        x = np.asarray(x)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise ShapeError(f"{what} is not a rectangular array: {exc}") from None
    if x.dtype == _F64:  # first, as the cheapest test (~0.1 us per call)
        return x
    if x.dtype.kind not in "biuf":
        raise TypeError(f"{what} must hold real numbers (bool, int or float), "
                        f"got dtype {x.dtype}")
    return x.astype(_F64)


def batch_of(x, dims: tuple[int, ...], what: str) -> np.ndarray:
    """``real_array(x, what)`` if of shape (rows >= 1, *dims), else a ShapeError."""
    x = real_array(x, what)
    if x.shape[1:] != dims or len(x) < 1:  # dims is never (), so a 0-d x stops first
        raise ShapeError(f"{what} shape {x.shape} is not (row count >= 1, *in_dims) "
                         f"with in_dims {dims}")
    return x


def _f64(x) -> np.ndarray:
    """``real_array(x)``, with a float64 ndarray passed as it is first."""
    return x if type(x) is np.ndarray and x.dtype is _F64 else real_array(x, "operand")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded 64-bit PRNG (PCG64) used for every random draw here."""
    return np.random.Generator(np.random.PCG64(seed))


class FlopCounter:
    """Tally of multiply-adds performed by ``matmul`` while active, as in
    ``with FlopCounter() as fc: forward(layer, x)``: one (m, k) @ (k, n)
    product counts m*k*n, checked against u64 range. Only one counter may
    be active at a time; instrumentation is not thread-safe.
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


def permute(t: np.ndarray, axes) -> np.ndarray:
    """Reorder axes so output axis i is input axis ``axes[i]``, as a fresh
    C-contiguous float64 copy, including for the identity permutation."""
    t = _f64(t)
    return t.transpose(permutation(axes, t.ndim)).copy()


# Products of at most this many multiply-adds run OpenBLAS's small kernel.
SMALL_GEMM_MNK = 10**6


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rank-2 matrix product with f64 accumulation.

    Operands may be strided views. ``out``, if given, must be a writeable
    C-contiguous (m, n) float64 array (else ``ShapeError``, before anything
    is counted); it gets the same bits as a fresh product. Feeds the active
    FlopCounter, if any, m*k*n multiply-adds once. A product of transposed
    C-contiguous operands (``forward_only``'s planned steps) that contracts
    by at least 16 (1 < m, 16m <= k) and exceeds ``SMALL_GEMM_MNK`` runs as
    bands of ``SMALL_GEMM_MNK // (m*k)`` >= 16 rows of b^T a^T, transposed
    into the result: ``a @ b`` up to rounding, (4, 256) @ (256, 4096) in
    0.54-0.59 ms, not 1.17-1.38 ms. Every other product is one ``a @ b``.
    """
    a, b = _f64(a), _f64(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    (m, k), (kb, n) = a.shape, b.shape
    if k != kb:
        raise ShapeError(f"inner dims differ: {a.shape} @ {b.shape}")
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == _F64
                                and out.shape == (m, n) and (f := out.flags).writeable
                                and f.c_contiguous):
        raise ShapeError(f"out must be a writeable C-contiguous float64 array of shape {(m, n)}")
    if _active_counter is not None:
        _active_counter.add(m * k * n)
    band = (SMALL_GEMM_MNK // (m * k)
            if 16 * m <= k and 1 < m and m * k * n > SMALL_GEMM_MNK else 0)
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
