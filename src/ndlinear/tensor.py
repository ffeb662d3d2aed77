"""Dense N-D tensor primitives.

Conventions used throughout the package:

- Tensors are ``numpy.ndarray`` objects with dtype float64 and C
  (row-major, last axis fastest) memory order.
- Operations are pure: inputs are never mutated. ``permute``
  materializes a contiguous result; ``matmul`` takes its operands as
  they come, so a transposed view reaches BLAS as a transpose flag
  instead of being copied first. These two are the layer's only
  compute primitives; the reference mode-k product lives in ``oracle``.
- A size (a dim, a batch, a count) is a positive int: ``is_positive_int``
  is the one rule, and ``positive_int`` its raising twin. Shapes are
  tuples of sizes; ``validate_shape`` adds rank >= 1 and no overflow.
- Randomness comes from ``make_rng``, a seeded 64-bit PCG64 generator.
  Identical seeds give identical streams within this implementation.
"""

from __future__ import annotations

import math

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
    dims = tuple(dims)
    if len(dims) == 0:
        raise ShapeError("shape must have rank >= 1")
    if not all(map(is_positive_int, dims)):
        raise ShapeError(f"all dims must be positive ints, got {dims}")
    dims = tuple(map(int, dims))
    count = math.prod(dims)
    if count > INDEX_MAX:
        raise OverflowError(f"element count {count} overflows platform word")
    return dims


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


def permute(t: np.ndarray, axes) -> np.ndarray:
    """Reorder axes so output axis i is input axis ``axes[i]``.

    Always materializes a fresh contiguous copy, including for the
    identity permutation.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(t.ndim)):
        raise ShapeError(f"axes {axes} is not a permutation of 0..{t.ndim - 1}")
    return np.transpose(t, axes).copy(order="C")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rank-2 matrix product with f64 accumulation.

    Operands may be strided views: a transposed one reaches BLAS as a
    transpose flag, not a copy. Feeds the active FlopCounter, if any,
    with m*k*n multiply-adds.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} @ {b.shape}")
    if _active_counter is not None:
        m, k = a.shape
        n = b.shape[1]
        _active_counter.add(m * k * n)
    return a @ b
