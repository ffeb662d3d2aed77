"""Ground-truth checks for the factorized layer.

Two independent constructions of the dense map a layer realizes:

- ``materialize_full_weight`` builds the flattened weight matrix
  algebraically as the Kronecker product W_1 (x) W_2 (x) ... (x) W_N.
  Under row-major flattening and the row-vector convention
  y_flat = x_flat @ W_full + b_full this is exact in mode order.
- ``probe_full_map`` treats the layer as a black box and identifies the
  affine map by evaluating the training ``forward`` (declaration order)
  on the zero input and on every standard basis vector. It is exact for
  any affine map and knows nothing about the Kronecker convention, so
  the two constructions cross-check each other. Probing ``forward``, not
  ``forward_only``, keeps inference's planned mode order from being
  judged against itself.

``mode_k_product`` is the reference mode-k product (Kolda & Bader,
SIAM Review 2009). ``finite_diff_grads`` supplies the numerical
gradient oracle the hand-written backward pass is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import layer as layer_mod
from .layer import NdLinearGrads, NdLinearLayer
from .tensor import ShapeError, batch_of, make_rng, positive_int, real_array, shaped

DEFAULT_SIZE_CAP = 1 << 24
REL_ERR_FLOOR = 1e-8
FD_STEP = 1e-5
# Basis vectors per ``forward`` call in ``probe_full_map``. One batch of
# all 4,096 probes of a (16,256)->(64,4) layer peaked at 835 MiB RSS in
# 1.51 s; chunks of 256 peaked at 117 MiB in 0.69 s.
PROBE_CHUNK = 256


class SizeCapError(ValueError):
    """Raised when a dense materialization would exceed the entry cap."""


@dataclass
class FlatAffineMap:
    """Dense equivalent of a layer: y_flat = x_flat @ w_full + b_full."""

    w_full: np.ndarray
    b_full: np.ndarray
    out_dims: tuple[int, ...]


def _check_cap(layer: NdLinearLayer, size_cap: int, what: str) -> tuple[int, int]:
    p = math.prod(layer_mod.checked_layer(layer, what).in_dims)
    q = math.prod(layer.out_dims)
    if p * q > size_cap:
        raise SizeCapError(
            f"dense map would hold {p * q} entries, above the cap of {size_cap}"
        )
    return p, q


def materialize_full_weight(layer: NdLinearLayer, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Flattened weight matrix as the mode-order Kronecker product."""
    _check_cap(layer, size_cap, "materialize_full_weight")
    return reduce(np.kron, layer.weights)


def probe_full_map(layer: NdLinearLayer) -> FlatAffineMap:
    """Identify the layer's affine map from black-box evaluations.

    b_full is the output on the zero input; row j of w_full is the
    output on basis vector e_j minus b_full. The basis probes run through
    ``forward`` (caches dropped) in batches of at most ``PROBE_CHUNK``
    vectors, so memory stays bounded for wide layers.
    """
    p, q = _check_cap(layer, DEFAULT_SIZE_CAP, "probe_full_map")
    b_full = layer_mod.forward(layer, np.zeros((1, *layer.in_dims)))[0].reshape(q)
    w_full = np.empty((p, q))
    for start in range(0, p, PROBE_CHUNK):
        rows = min(PROBE_CHUNK, p - start)
        basis = np.zeros((rows, p))
        basis[:, start:start + rows] = np.eye(rows)
        w_full[start:start + rows] = layer_mod.forward(
            layer, basis.reshape(rows, *layer.in_dims))[0].reshape(rows, q)
    w_full -= b_full
    return FlatAffineMap(w_full, b_full, layer.out_dims)


def flat_forward(m: FlatAffineMap, x: np.ndarray) -> np.ndarray:
    """Apply the dense map to a batched input and reshape the output."""
    x = batch_of(x, None, "flat_forward input")
    batch = len(x)
    width = x.size // batch
    if width != m.w_full.shape[0]:
        raise ShapeError(
            f"flattened input width {width} != map width {m.w_full.shape[0]}"
        )
    x_flat = x.reshape(batch, width)
    y_flat = x_flat @ m.w_full + m.b_full
    return y_flat.reshape(batch, *m.out_dims)


def mode_k_product(t: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Replace every mode-k fiber f of ``t`` (B, S_1, ..., S_N) by f^T w.

    Mode k counts from 1, so it is array axis k; that axis resizes from
    w.shape[0] to w.shape[1]. No library path calls this.
    """
    t, w = real_array(t, "mode_k_product tensor"), real_array(w, "mode_k_product weight")
    if w.ndim != 2:
        raise ShapeError(f"weight must be a matrix, got shape {w.shape}")
    if positive_int(k, "mode") > t.ndim - 1:
        raise ShapeError(f"mode {k} out of range for tensor of rank {t.ndim} (batch at 0)")
    if t.shape[k] != w.shape[0]:
        raise ShapeError(f"mode {k} has size {t.shape[k]}, weight expects {w.shape[0]}")
    return np.moveaxis(np.tensordot(t, w, axes=(k, 0)), -1, k)


def central_diff(f, arrays: list[np.ndarray], step: float = FD_STEP) -> list[np.ndarray]:
    """Central finite differences of scalar ``f()`` w.r.t. each array.

    Entries are perturbed in place and restored, so ``f`` must read the
    arrays afresh on every call. If ``f`` is quadratic in each entry, any
    ``step`` is exact, and a large one shrinks the rounding, ~eps |f| / step.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, g_flat = arr.flat, g.flat  # C order, and written through in any layout
        for i in range(arr.size):
            orig = flat[i]
            try:
                flat[i] = orig + step
                loss_plus = f()
                flat[i] = orig - step
                loss_minus = f()
            finally:  # restored even if ``f`` raises
                flat[i] = orig
            g_flat[i] = (loss_plus - loss_minus) / (2.0 * step)
        grads.append(g)
    return grads


def finite_diff_grads(layer: NdLinearLayer, x: np.ndarray, loss_fn,
                      step: float = FD_STEP) -> NdLinearGrads:
    """Numerical dL/d(weights, biases, input) for L = loss_fn(forward(x)).

    Slow path: two forward passes per scalar. Callers keep the configs
    small.
    """
    x = real_array(x, "finite_diff_grads input").copy()  # writable: central_diff perturbs it
    n = layer_mod.checked_layer(layer, "finite_diff_grads").n_modes

    def run() -> float:
        return float(loss_fn(layer_mod.forward_only(layer, x)))

    *grads, d_input = central_diff(run, [*layer.params(), x], step)
    return NdLinearGrads(grads[:n], grads[n:] or None, d_input)


def _worst(a, b, relative: bool) -> float:
    """Largest |a-b|, over max(|a|, |b|, ``REL_ERR_FLOOR``) if ``relative``, of two real
    arrays of one shape (else a ShapeError: broadcasting would hide a shape bug); 0 if
    empty, and inf if any entry is NaN, so that no tolerance check passes on a NaN."""
    a = real_array(a, "compared array")
    b = shaped(b, a.shape, "compared array")
    err = np.abs(a - b)
    if relative:
        err = err / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERR_FLOOR)
    worst = float(np.max(err, initial=0.0))
    return math.inf if math.isnan(worst) else worst


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b|; inf if any entry is NaN."""
    return _worst(a, b, relative=False)


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, ``REL_ERR_FLOOR``); inf if any entry is NaN."""
    return _worst(a, b, relative=True)


def grads_max_rel_err(analytic: NdLinearGrads, numeric: NdLinearGrads) -> float:
    """Worst ``max_rel_err`` over the input gradient and every parameter gradient."""
    return max(max_rel_err(a, b) for a, b in zip(
        [analytic.d_input, *analytic.params()], [numeric.d_input, *numeric.params()],
        strict=True))


# --- seeded trial runners (shared by the verify subcommand and tests) ---

@dataclass
class TrialResult:
    kind: str
    seed: int
    n_modes: int
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    with_bias: bool
    batch: int
    max_error: float


def _random_dims(rng: np.random.Generator, n: int, max_dim: int) -> tuple[int, ...]:
    return tuple(int(d) for d in rng.integers(1, positive_int(max_dim, "max_dim") + 1, size=n))


def _random_layer(rng: np.random.Generator, n: int, max_dim: int,
                  with_bias: bool) -> NdLinearLayer:
    in_dims = _random_dims(rng, n, max_dim)
    out_dims = _random_dims(rng, n, max_dim)
    lyr = layer_mod.init_xavier(in_dims, out_dims, with_bias, rng)
    if with_bias:
        # zero biases would make the bias path vacuous; draw real ones
        lyr = NdLinearLayer(
            in_dims, out_dims, lyr.weights,
            [rng.uniform(-1.0, 1.0, size=h) for h in out_dims],
        )
    return lyr


def equivalence_trial(seed: int, n: int, with_bias: bool, max_dim: int = 5) -> TrialResult:
    """Max |forward_only - dense probe of forward| on one random config."""
    rng = make_rng(seed)
    lyr = _random_layer(rng, n, max_dim, with_bias)
    batch = int(rng.integers(1, 4))
    x = rng.standard_normal((batch, *lyr.in_dims))
    y_layer = layer_mod.forward_only(lyr, x)
    y_flat = flat_forward(probe_full_map(lyr), x)
    return TrialResult("equivalence", seed, n, lyr.in_dims, lyr.out_dims,
                       with_bias, batch, max_abs_diff(y_layer, y_flat))


def kronecker_trial(seed: int, n: int, max_dim: int = 5) -> TrialResult:
    """Max |kron construction - probe| on one random no-bias config."""
    rng = make_rng(seed)
    lyr = _random_layer(rng, n, max_dim, with_bias=False)
    w_kron = materialize_full_weight(lyr)
    w_probe = probe_full_map(lyr).w_full
    return TrialResult("kronecker", seed, n, lyr.in_dims, lyr.out_dims,
                       False, 0, max_abs_diff(w_kron, w_probe))


def gradient_trial(seed: int) -> TrialResult:
    """Max relative error, analytic backward vs central differences, on
    a random layer of rank 1-3 with dims 1-4.

    Uses L = 0.5 * sum(y^2), whose dL/dy is y, and which is quadratic in
    every single scalar, so central differences at step 1 are exact.
    """
    rng = make_rng(seed)
    n = int(rng.integers(1, 4))
    with_bias = bool(rng.integers(0, 2))
    lyr = _random_layer(rng, n, 4, with_bias)
    batch = int(rng.integers(1, 4))
    x = rng.standard_normal((batch, *lyr.in_dims))

    y, cache = layer_mod.forward(lyr, x)
    analytic = layer_mod.backward(lyr, cache, y)
    numeric = finite_diff_grads(lyr, x, lambda out: 0.5 * float((out ** 2).sum()), step=1.0)
    return TrialResult("gradient", seed, n, lyr.in_dims, lyr.out_dims,
                       with_bias, batch, grads_max_rel_err(analytic, numeric))


def equivalence_trials(seeds: int, max_rank: int = 4, max_dim: int = 5,
                       base: int = 0) -> list[TrialResult]:
    """One trial per (seed, rank, bias) family, for seeds base..base+seeds-1."""
    return [equivalence_trial(seed * 1000 + n * 10 + int(with_bias), n, with_bias, max_dim)
            for seed in range(base, base + positive_int(seeds, "seeds"))
            for n in range(1, positive_int(max_rank, "max_rank") + 1)
            for with_bias in (False, True)]


def kronecker_trials(seeds: int, max_rank: int = 4, max_dim: int = 5,
                     base: int = 0) -> list[TrialResult]:
    return [kronecker_trial(seed * 1000 + n * 10, n, max_dim)
            for seed in range(base, base + positive_int(seeds, "seeds"))
            for n in range(1, positive_int(max_rank, "max_rank") + 1)]


def gradient_trials(seeds: int, base: int = 0) -> list[TrialResult]:
    return [gradient_trial(seed) for seed in range(base, base + positive_int(seeds, "seeds"))]
