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

``finite_diff_grads`` supplies the numerical gradient oracle the
hand-written backward pass is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import layer as layer_mod
from .layer import NdLinearGrads, NdLinearLayer
from .tensor import ShapeError, make_rng, reshape, validate_shape, zeros

DEFAULT_SIZE_CAP = 1 << 24
REL_ERR_FLOOR = 1e-8
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
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]


def _check_cap(layer: NdLinearLayer, size_cap: int) -> tuple[int, int]:
    p = math.prod(layer.in_dims)
    q = math.prod(layer.out_dims)
    if p * q > size_cap:
        raise SizeCapError(
            f"dense map would hold {p * q} entries, above the cap of {size_cap}"
        )
    return p, q


def materialize_full_weight(layer: NdLinearLayer, size_cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Flattened weight matrix as the mode-order Kronecker product."""
    _check_cap(layer, size_cap)
    return reduce(np.kron, layer.weights)


def probe_full_map(layer: NdLinearLayer, size_cap: int = DEFAULT_SIZE_CAP) -> FlatAffineMap:
    """Identify the layer's affine map from black-box evaluations.

    b_full is the output on the zero input; row j of w_full is the
    output on basis vector e_j minus b_full. The basis probes run through
    ``forward`` (caches dropped) in batches of at most ``PROBE_CHUNK``
    vectors, so memory stays bounded for wide layers.
    """
    p, q = _check_cap(layer, size_cap)
    b_full = layer_mod.forward(layer, zeros((1, *layer.in_dims)))[0].reshape(q)
    w_full = np.empty((p, q))
    for start in range(0, p, PROBE_CHUNK):
        rows = min(PROBE_CHUNK, p - start)
        basis = np.zeros((rows, p))
        basis[:, start:start + rows] = np.eye(rows)
        w_full[start:start + rows] = layer_mod.forward(
            layer, basis.reshape(rows, *layer.in_dims))[0].reshape(rows, q)
    w_full -= b_full
    return FlatAffineMap(w_full, b_full, layer.in_dims, layer.out_dims)


def flat_forward(m: FlatAffineMap, x: np.ndarray) -> np.ndarray:
    """Apply the dense map to a batched input and reshape the output."""
    x = np.asarray(x, dtype=np.float64)
    batch = x.shape[0]
    width = x.size // batch
    if width != m.w_full.shape[0]:
        raise ShapeError(
            f"flattened input width {width} != map width {m.w_full.shape[0]}"
        )
    x_flat = reshape(x, (batch, width))
    y_flat = x_flat @ m.w_full + m.b_full
    return y_flat.reshape(batch, *m.out_dims)


def central_diff(f, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of scalar ``f()`` w.r.t. each array.

    Entries are perturbed in place and restored, so ``f`` must read the
    arrays afresh on every call.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        g_flat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_plus = f()
            flat[i] = orig - h
            loss_minus = f()
            flat[i] = orig
            g_flat[i] = (loss_plus - loss_minus) / (2.0 * h)
        grads.append(g)
    return grads


def finite_diff_grads(layer: NdLinearLayer, x: np.ndarray, loss_fn,
                      h: float = 1e-5) -> NdLinearGrads:
    """Numerical dL/d(weights, biases, input) for L = loss_fn(forward(x)).

    Slow path: two forward passes per scalar. Callers keep the configs
    small.
    """
    x = np.array(x, dtype=np.float64)
    arrays = list(layer.weights)
    n = layer.n_modes
    if layer.biases is not None:
        arrays += list(layer.biases)
    arrays.append(x)

    def run() -> float:
        return float(loss_fn(layer_mod.forward_only(layer, x)))

    grads = central_diff(run, arrays, h)
    d_weights = grads[:n]
    d_biases = grads[n:2 * n] if layer.biases is not None else None
    return NdLinearGrads(d_weights, d_biases, grads[-1])


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.asarray(a).size else 0.0

def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = REL_ERR_FLOOR) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def grads_max_rel_err(analytic: NdLinearGrads, numeric: NdLinearGrads) -> float:
    worst = max_rel_err(analytic.d_input, numeric.d_input)
    for a, b in zip(analytic.d_weights, numeric.d_weights):
        worst = max(worst, max_rel_err(a, b))
    if analytic.d_biases is not None:
        for a, b in zip(analytic.d_biases, numeric.d_biases):
            worst = max(worst, max_rel_err(a, b))
    return worst


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

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "n_modes": self.n_modes,
            "in_dims": list(self.in_dims),
            "out_dims": list(self.out_dims),
            "with_bias": self.with_bias,
            "batch": self.batch,
            "max_error": self.max_error,
        }


def _random_dims(rng: np.random.Generator, n: int, max_dim: int) -> tuple[int, ...]:
    return tuple(int(d) for d in rng.integers(1, max_dim + 1, size=n))


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


def gradient_trial(seed: int, max_rank: int = 3, max_dim: int = 4,
                   h: float = 1e-5) -> TrialResult:
    """Max relative error, analytic backward vs central differences.

    Uses the quadratic loss L = 0.5 * sum(y^2), whose dL/dy is y.
    """
    rng = make_rng(seed)
    n = int(rng.integers(1, max_rank + 1))
    with_bias = bool(rng.integers(0, 2))
    lyr = _random_layer(rng, n, max_dim, with_bias)
    batch = int(rng.integers(1, 4))
    x = rng.standard_normal((batch, *lyr.in_dims))

    y, cache = layer_mod.forward(lyr, x)
    analytic = layer_mod.backward(lyr, cache, y)
    numeric = finite_diff_grads(lyr, x, lambda out: 0.5 * float((out ** 2).sum()), h)
    return TrialResult("gradient", seed, n, lyr.in_dims, lyr.out_dims,
                       with_bias, batch, grads_max_rel_err(analytic, numeric))


def equivalence_trials(seeds: int, max_rank: int = 4, max_dim: int = 5) -> list[TrialResult]:
    """One trial per (seed, rank, bias) family."""
    results = []
    for seed in range(seeds):
        for n in range(1, max_rank + 1):
            for with_bias in (False, True):
                trial_seed = seed * 1000 + n * 10 + int(with_bias)
                results.append(equivalence_trial(trial_seed, n, with_bias, max_dim))
    return results


def kronecker_trials(seeds: int, max_rank: int = 4, max_dim: int = 5) -> list[TrialResult]:
    results = []
    for seed in range(seeds):
        for n in range(1, max_rank + 1):
            results.append(kronecker_trial(seed * 1000 + n * 10, n, max_dim))
    return results


def gradient_trials(seeds: int, max_rank: int = 3, max_dim: int = 4) -> list[TrialResult]:
    return [gradient_trial(seed, max_rank, max_dim) for seed in range(seeds)]
