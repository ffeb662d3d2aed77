"""Factorized N-dimensional linear layer.

A layer over inputs of shape (B, D_1, ..., D_N) holds one weight matrix
W_k of shape (D_k, H_k) per feature mode, plus optional per-mode bias
vectors b_k. The forward pass applies the modes in declaration order:

    Y = ((X x_1 W_1 + b_1) x_2 W_2 + b_2) ... x_N W_N + b_N

where x_k is the mode-k tensor-matrix product and each bias broadcasts
along the freshly transformed axis. Compared to one dense matrix on the
flattened features this stores sum(D_k * H_k) weights instead of
prod(D_k) * prod(H_k), at the price of only representing maps whose
flattened matrix factors as W_1 (x) ... (x) W_N (Kronecker structure).

Each mode step is one 2-D gemm on a rotating unfolding. The input is
transposed once to (D_1..D_N, B). Step k reads its buffer as the
(D_k, rest) matrix Z and computes Z^T W_k + b_k, laid out as
(D_{k+1}..D_N, B, H_1..H_k): the next mode leads, and step N leaves Y
in (B, H_1..H_N). The hand-written backward walks the same buffers;
with G the (rest, H_k) gradient of step k, for k = N..1:

    dW_k = Z G,    db_k = column sums of G,    G <- W_k G^T

W_k G^T is already in Z's layout, and one transpose returns dL/dX.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ndt
from .tensor import (
    FlopCounter,
    ShapeError,
    checked_u64,
    matmul,
    permute,
    rand_uniform,
    reshape,
    validate_shape,
    zeros,
)

__all__ = [
    "NdLinearLayer",
    "LayerCache",
    "NdLinearGrads",
    "FlopCounter",
    "init_xavier",
    "forward",
    "forward_only",
    "backward",
    "param_count",
    "dense_param_count",
    "flop_count",
    "dense_flop_count",
    "save_layer",
    "load_layer",
]


@dataclass
class NdLinearLayer:
    """Per-mode weights W_k (D_k, H_k) and optional biases b_k (H_k,)."""

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray] | None = None

    def __post_init__(self) -> None:
        self.in_dims = validate_shape(self.in_dims)
        self.out_dims = validate_shape(self.out_dims)
        n = len(self.in_dims)
        if len(self.out_dims) != n or len(self.weights) != n:
            raise ShapeError(
                f"need equally many in_dims, out_dims and weights, "
                f"got {len(self.in_dims)}/{len(self.out_dims)}/{len(self.weights)}"
            )
        for k, w in enumerate(self.weights):
            want = (self.in_dims[k], self.out_dims[k])
            if w.shape != want:
                raise ShapeError(f"weight {k + 1} has shape {w.shape}, expected {want}")
        if self.biases is not None:
            if len(self.biases) != n:
                raise ShapeError(f"expected {n} biases, got {len(self.biases)}")
            for k, b in enumerate(self.biases):
                if b.shape != (self.out_dims[k],):
                    raise ShapeError(
                        f"bias {k + 1} has shape {b.shape}, expected ({self.out_dims[k]},)"
                    )

    @property
    def n_modes(self) -> int:
        return len(self.in_dims)

    @property
    def with_bias(self) -> bool:
        return self.biases is not None


@dataclass
class LayerCache:
    """Intermediates Z_0 = X, Z_1, ..., Z_N = Y kept for backward.

    Z_k has shape (B, H_1..H_k, D_{k+1}..D_N): the running tensor after
    transforming mode k (bias included). ``forward`` stores transposed
    views of its step buffers (D_{k+1}..D_N, B, H_1..H_k), which
    ``backward`` reads without a copy; any other array costs one copy.
    """

    intermediates: list[np.ndarray] = field(default_factory=list)


@dataclass
class NdLinearGrads:
    """Loss gradients for every weight, bias, and the layer input."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray] | None
    d_input: np.ndarray


def init_xavier(in_dims, out_dims, with_bias: bool, rng: np.random.Generator) -> NdLinearLayer:
    """Layer with W_k ~ Uniform(+-sqrt(6/(D_k+H_k))) and zero biases.

    Each mode's weight sees fan-in D_k and fan-out H_k, so the bound is
    computed per mode, not from the flattened sizes.
    """
    in_dims = validate_shape(in_dims)
    out_dims = validate_shape(out_dims)
    if len(in_dims) != len(out_dims):
        raise ShapeError(f"rank mismatch: {in_dims} vs {out_dims}")
    weights = []
    for d, h in zip(in_dims, out_dims):
        bound = math.sqrt(6.0 / (d + h))
        weights.append(rand_uniform(rng, (d, h), -bound, bound))
    biases = [np.zeros(h, dtype=np.float64) for h in out_dims] if with_bias else None
    return NdLinearLayer(in_dims, out_dims, weights, biases)


def _check_input(layer: NdLinearLayer, x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.ndim != layer.n_modes + 1:
        raise ShapeError(
            f"input rank {x.ndim} does not match batch + {layer.n_modes} feature modes"
        )
    if x.shape[0] < 1:
        raise ShapeError("batch must be >= 1")
    if x.shape[1:] != layer.in_dims:
        raise ShapeError(f"input feature dims {x.shape[1:]} != layer in_dims {layer.in_dims}")
    return x


def _step_axes(rank: int, k: int) -> tuple[int, ...]:
    """Axis order taking Z_k to its step layout (D_{k+1}..D_N, B, H_1..H_k)."""
    return tuple(range(k + 1, rank)) + tuple(range(k + 1))


def _run_steps(layer: NdLinearLayer, x: np.ndarray, cache: LayerCache | None) -> np.ndarray:
    """Apply every mode step to a checked input, appending Z_0..Z_N to ``cache``."""
    n = layer.n_modes
    batch = x.shape[0]
    # Z_0 in step layout (D_1..D_N, B). A 2-D input's transposed view is
    # already that layout, which keeps N = 1 bitwise equal to x @ W_1 + b_1.
    z = x.T if n == 1 else permute(x, _step_axes(n + 1, 0))
    for k, w in enumerate(layer.weights):
        if cache is not None:
            shape = (*layer.in_dims[k:], batch, *layer.out_dims[:k])
            cache.intermediates.append(
                z.reshape(shape).transpose(np.argsort(_step_axes(n + 1, k))))
        z = matmul(z.reshape(w.shape[0], -1).T, w)
        if layer.biases is not None:
            z += layer.biases[k]
    y = z.reshape(batch, *layer.out_dims)
    if cache is not None:
        cache.intermediates.append(y)
    return y


def forward(layer: NdLinearLayer, x: np.ndarray) -> tuple[np.ndarray, LayerCache]:
    """Apply all mode transforms, keeping every intermediate for backward."""
    cache = LayerCache()
    return _run_steps(layer, _check_input(layer, x), cache), cache


def forward_only(layer: NdLinearLayer, x: np.ndarray) -> np.ndarray:
    """Inference path: the same steps, intermediates dropped as we go."""
    return _run_steps(layer, _check_input(layer, x), None)


def _expected_cache_shape(layer: NdLinearLayer, batch: int, k: int) -> tuple[int, ...]:
    return (batch, *layer.out_dims[:k], *layer.in_dims[k:])


def backward(layer: NdLinearLayer, cache: LayerCache, d_y: np.ndarray) -> NdLinearGrads:
    """Propagate dL/dY back through every mode step.

    ``cache`` must come from ``forward`` on the same layer and input.
    """
    n = layer.n_modes
    if len(cache.intermediates) != n + 1:
        raise ShapeError(f"cache holds {len(cache.intermediates)} tensors, expected {n + 1}")
    batch = cache.intermediates[0].shape[0]
    for k, z in enumerate(cache.intermediates):
        if z.shape != _expected_cache_shape(layer, batch, k):
            raise ShapeError(f"cache entry {k} has shape {z.shape}, layer expects "
                             f"{_expected_cache_shape(layer, batch, k)}")
    d_y = np.ascontiguousarray(np.asarray(d_y, dtype=np.float64))
    if d_y.shape != cache.intermediates[-1].shape:
        raise ShapeError(f"d_y shape {d_y.shape} != output shape {cache.intermediates[-1].shape}")

    d_weights: list[np.ndarray | None] = [None] * n
    d_biases: list[np.ndarray | None] | None = [None] * n if layer.with_bias else None
    g = d_y
    for k in range(n, 0, -1):
        w = layer.weights[k - 1]
        g = g.reshape(-1, w.shape[1])
        # one operand layout for any cache; free for forward's views (N >= 2)
        z = np.ascontiguousarray(cache.intermediates[k - 1].transpose(_step_axes(n + 1, k - 1)))
        d_weights[k - 1] = matmul(z.reshape(w.shape[0], -1), g)
        if d_biases is not None:
            d_biases[k - 1] = g.sum(axis=0)
        g = matmul(w, g.T)

    g = g.reshape(*layer.in_dims, batch)
    return NdLinearGrads(d_weights, d_biases, permute(g, np.argsort(_step_axes(n + 1, 0))))


def param_count(in_dims, out_dims, with_bias: bool) -> int:
    """Trainable scalars in the factorized layer: sum(D_k H_k [+ H_k])."""
    in_dims = validate_shape(in_dims)
    out_dims = validate_shape(out_dims)
    if len(in_dims) != len(out_dims):
        raise ShapeError(f"rank mismatch: {in_dims} vs {out_dims}")
    total = sum(d * h for d, h in zip(in_dims, out_dims))
    if with_bias:
        total += sum(out_dims)
    return checked_u64(total, "param count")


def dense_param_count(in_dims, out_dims, with_bias: bool) -> int:
    """Parameters of one dense layer on the flattened features."""
    in_dims = validate_shape(in_dims)
    out_dims = validate_shape(out_dims)
    d_flat = math.prod(in_dims)
    h_flat = math.prod(out_dims)
    total = checked_u64(d_flat * h_flat, "dense weight count")
    if with_bias:
        total += h_flat
    return checked_u64(total, "dense param count")


def flop_count(batch: int, in_dims, out_dims) -> int:
    """FLOPs for one forward pass, counting a multiply-add as 2.

    Mode k multiplies a (B * prod_{j<k} H_j * prod_{j>k} D_j, D_k)
    matrix by W_k, so the total is

        2 B * sum_k [ prod_{j<k} H_j * prod_{j>k} D_j * D_k * H_k ].

    Bias additions are excluded from the count.
    """
    in_dims = validate_shape(in_dims)
    out_dims = validate_shape(out_dims)
    if len(in_dims) != len(out_dims):
        raise ShapeError(f"rank mismatch: {in_dims} vs {out_dims}")
    if batch < 1:
        raise ShapeError(f"batch must be >= 1, got {batch}")
    total = 0
    for k in range(len(in_dims)):
        term = math.prod(out_dims[:k]) * math.prod(in_dims[k + 1:])
        term *= in_dims[k] * out_dims[k]
        total = checked_u64(total + term, "flop count term sum")
    return checked_u64(2 * batch * total, "flop count")


def dense_flop_count(batch: int, in_dims, out_dims) -> int:
    """FLOPs of the dense layer on flattened features: 2 B prod(D) prod(H)."""
    in_dims = validate_shape(in_dims)
    out_dims = validate_shape(out_dims)
    if batch < 1:
        raise ShapeError(f"batch must be >= 1, got {batch}")
    return checked_u64(2 * batch * math.prod(in_dims) * math.prod(out_dims), "dense flop count")


def dense_equivalent_forward(w_full: np.ndarray, b_full: np.ndarray | None,
                             x: np.ndarray, out_dims) -> np.ndarray:
    """Forward through an explicit flattened weight matrix.

    Used by benchmarks as the baseline the factorized layer is measured
    against: flatten features, one big matmul, reshape back.
    """
    out_dims = validate_shape(out_dims)
    batch = x.shape[0]
    x_flat = reshape(x, (batch, x.size // batch))
    y_flat = matmul(x_flat, w_full)
    if b_full is not None:
        y_flat = y_flat + b_full
    return reshape(y_flat, (batch, *out_dims))


_META_NAME = "meta.json"


def save_layer(layer: NdLinearLayer, path) -> None:
    """Write a layer as a directory: meta.json + W_k.ndt (+ b_k.ndt)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {
        "in_dims": list(layer.in_dims),
        "out_dims": list(layer.out_dims),
        "with_bias": layer.with_bias,
        "N": layer.n_modes,
    }
    (root / _META_NAME).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for k, w in enumerate(layer.weights, start=1):
        ndt.write(root / f"W_{k}.ndt", w)
    if layer.biases is not None:
        for k, b in enumerate(layer.biases, start=1):
            ndt.write(root / f"b_{k}.ndt", b)


def load_layer(path) -> NdLinearLayer:
    root = Path(path)
    meta = json.loads((root / _META_NAME).read_text())
    n = int(meta["N"])
    in_dims = tuple(int(d) for d in meta["in_dims"])
    out_dims = tuple(int(d) for d in meta["out_dims"])
    weights = [ndt.read(root / f"W_{k}.ndt") for k in range(1, n + 1)]
    biases = None
    if meta["with_bias"]:
        biases = [ndt.read(root / f"b_{k}.ndt") for k in range(1, n + 1)]
    return NdLinearLayer(in_dims, out_dims, weights, biases)


def forward_zero_input_bias(layer: NdLinearLayer, batch: int = 1) -> np.ndarray:
    """Output on an all-zero input: the layer's effective bias.

    Earlier biases are themselves transformed by later weights, so this
    is generally not any single b_k broadcast.
    """
    return forward_only(layer, zeros((batch, *layer.in_dims)))
