"""Low-rank and factorized adapters over a frozen dense layer.

Both adapters add a trainable delta to a fixed base map y = x w0 + b0:

- ``LoRAAdapter``: delta = (alpha / r) * (x a) b with a (d, r), b (r, h),
  b zero-initialized so the starting delta is exactly zero.
- ``NdLoRAAdapter``: the delta is a bias-free two-mode factorized linear
  layer applied to x reshaped as (B, d1, d2) with d1 * d2 = d, flattened
  back to width h = h1 * h2. Its second factor starts at zero, giving
  the same exact-zero start. The delta's flattened matrix is always the
  Kronecker product of the two factors, and the adapter trains
  d1*h1 + d2*h2 scalars against LoRA's r*(d + h). No alpha scaling is
  applied to the factorized delta.

Base weights are marked read-only at construction, so no optimizer can
touch them even by accident.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import layer as layer_mod
from . import nn, oracle
from .layer import NdLinearLayer
from .nn import Adam, Dense, mse_loss
from .tensor import ShapeError, make_rng, positive_int


@dataclass
class FrozenDense:
    """Fixed base map y = x w0 + b0, an ``nn.Dense`` with read-only arrays."""

    w0: np.ndarray
    b0: np.ndarray | None = None

    def __post_init__(self):
        self._dense = Dense(self.w0, self.b0)  # checks the shapes
        for arr in self._dense.params():
            arr.setflags(write=False)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._dense.infer(x)


@dataclass
class LoRAAdapter:
    a: np.ndarray  # (d, r)
    b: np.ndarray  # (r, h)
    alpha: float

    def __post_init__(self):
        if self.a.ndim != 2 or self.b.ndim != 2 or self.a.shape[1] != self.b.shape[0]:
            raise ShapeError(f"incompatible adapter factors {self.a.shape} and {self.b.shape}")

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    def delta_matrix(self) -> np.ndarray:
        return (self.alpha / self.rank) * (self.a @ self.b)


@dataclass
class NdLoRAAdapter:
    """The delta as a bias-free two-mode layer (d1, d2) -> (h1, h2)."""

    nd: NdLinearLayer

    def __post_init__(self):
        if self.nd.n_modes != 2 or self.nd.biases is not None:
            raise ShapeError(f"adapter deltas are bias-free two-mode layers, got "
                             f"{self.nd.in_dims}->{self.nd.out_dims}, bias {self.nd.with_bias}")

    @property
    def in_factors(self) -> tuple[int, int]:
        return self.nd.in_dims

    @property
    def out_factors(self) -> tuple[int, int]:
        return self.nd.out_dims

    def delta_matrix(self) -> np.ndarray:
        return oracle.materialize_full_weight(self.nd)


def init_lora(d: int, h: int, rank: int, alpha: float,
              rng: np.random.Generator) -> LoRAAdapter:
    """Gaussian a, zero b: the adapter starts as the exact zero map."""
    rank = positive_int(rank, "rank")
    a = rng.standard_normal((d, rank)) / math.sqrt(d)
    return LoRAAdapter(a, np.zeros((rank, h)), float(alpha))


def init_ndlora(d: int, h: int, rng: np.random.Generator,
                in_factors: tuple[int, int] | None = None,
                out_factors: tuple[int, int] | None = None) -> NdLoRAAdapter:
    """Factorized adapter; the second factor starts at zero."""
    in_factors = in_factors or choose_factors(d)
    out_factors = out_factors or choose_factors(h)
    if math.prod(in_factors) != d:
        raise ValueError(f"in_factors {in_factors} do not multiply to {d}")
    if math.prod(out_factors) != h:
        raise ValueError(f"out_factors {out_factors} do not multiply to {h}")
    nd = layer_mod.init_xavier(in_factors, out_factors, with_bias=False, rng=rng)
    nd.weights[1] = np.zeros_like(nd.weights[1])
    return NdLoRAAdapter(nd)


def lora_forward(base: FrozenDense, adapter: LoRAAdapter, x: np.ndarray) -> np.ndarray:
    y = base.forward(x)
    scale = adapter.alpha / adapter.rank
    return y + scale * ((x @ adapter.a) @ adapter.b)


def ndlora_forward(base: FrozenDense, adapter: NdLoRAAdapter, x: np.ndarray) -> np.ndarray:
    batch, d = x.shape
    if math.prod(adapter.in_factors) != d:
        raise ShapeError(f"input width {d} does not factor as {adapter.in_factors}")
    delta = layer_mod.forward_only(adapter.nd, x.reshape(batch, *adapter.in_factors))
    return base.forward(x) + delta.reshape(batch, -1)


def choose_factors(d: int) -> tuple[int, int]:
    """Closest-to-square factor pair: largest divisor d1 <= sqrt(d)."""
    d = positive_int(d, "d")
    d1 = next(d1 for d1 in range(math.isqrt(d), 0, -1) if d % d1 == 0)
    if d1 == 1 and d > 1:
        warnings.warn(f"{d} has no nontrivial factorization; falling back to (1, {d})",
                      RuntimeWarning, stacklevel=2)
    return (d1, d // d1)


@dataclass
class AdapterParamReport:
    d: int
    h: int
    rank: int
    in_factors: tuple[int, int]
    out_factors: tuple[int, int]
    lora_params: int
    ndlora_params: int
    ratio: float


def adapter_param_counts(d: int, h: int, rank: int,
                         in_factors: tuple[int, int] | None = None,
                         out_factors: tuple[int, int] | None = None
                         ) -> AdapterParamReport:
    """Trainable-parameter comparison: r(d + h) vs d1 h1 + d2 h2."""
    rank = positive_int(rank, "rank")
    in_factors = in_factors or choose_factors(d)
    out_factors = out_factors or choose_factors(h)
    lora_params = rank * (d + h)
    ndlora_params = layer_mod.param_count(in_factors, out_factors, with_bias=False)
    return AdapterParamReport(d, h, rank, in_factors, out_factors,
                              lora_params, ndlora_params, lora_params / ndlora_params)


def fit_ndlora(base: FrozenDense, adapter: NdLoRAAdapter, x: np.ndarray,
               y_target: np.ndarray, steps: int, lr: float) -> list[float]:
    """Full-batch Adam on the adapter factors only; returns the loss curve.

    The factors train as an ``nn.Model``, so they become views of its ``flat``.
    """
    batch = x.shape[0]
    x_nd = x.reshape(batch, *adapter.in_factors)
    delta_target = y_target - base.forward(x)
    model = nn.Model([nn.NdLinear(adapter.nd), nn.Reshape(delta_target.shape[1:])], "mse",
                     adapter.in_factors)
    optimizer = Adam(lr)
    losses = []
    for _ in range(steps):
        delta, caches = nn.model_forward(model, x_nd)
        loss, d_delta = mse_loss(delta, delta_target)
        nn._backward(model, caches, d_delta, need_input=False)
        optimizer.step(model.flat, model.grad)
        losses.append(loss)
    return losses


def recovery_experiment(d: int, h: int, rank: int = 8, seed: int = 0,
                        steps: int = 2000, lr: float = 0.05,
                        target: str = "random-kron") -> dict:
    """Fit the factorized adapter to a known target delta and report.

    ``random-kron`` targets are exactly representable, so the relative
    Frobenius recovery error should approach zero; ``random-dense``
    targets are generally not, and the residual error shows the
    adapter's structural constraint.
    """
    if target not in ("random-kron", "random-dense"):
        raise ValueError(f"unknown target kind {target!r}")
    steps = positive_int(steps, "steps")
    rng = make_rng(seed)
    # the base comes before the O(sqrt(d)) factor search: a size too big to hold fails fast
    base = FrozenDense(rng.standard_normal((d, h)) / math.sqrt(d),
                       rng.standard_normal(h) * 0.1)
    in_factors = choose_factors(d)
    out_factors = choose_factors(h)
    if target == "random-kron":
        g1 = rng.standard_normal((in_factors[0], out_factors[0]))
        g2 = rng.standard_normal((in_factors[1], out_factors[1]))
        delta_target = np.kron(g1, g2)
    else:
        delta_target = rng.standard_normal((d, h))
    x = rng.standard_normal((2 * d, d))
    y_target = x @ (base.w0 + delta_target) + (base.b0 if base.b0 is not None else 0.0)

    adapter = init_ndlora(d, h, rng, in_factors, out_factors)
    losses = fit_ndlora(base, adapter, x, y_target, steps, lr)
    learned = adapter.delta_matrix()
    recovery = float(np.linalg.norm(learned - delta_target)
                     / np.linalg.norm(delta_target))

    counts = adapter_param_counts(d, h, rank, in_factors, out_factors)
    return {
        "config": {"d": d, "h": h, "rank": rank, "seed": seed, "steps": steps,
                   "lr": lr, "target": target,
                   "in_factors": list(in_factors), "out_factors": list(out_factors)},
        "param_counts": asdict(counts),
        "final_loss": losses[-1],
        "recovery_rel_frobenius": recovery,
        "loss_curve": losses,
    }
