"""Low-rank and factorized adapters over a frozen dense layer.

Both adapters are ``nn.Model``s over the d input features whose output,
the delta of width h, adds to a fixed base map y = x w0 + b0
(``lora_forward``). Each delta is linear and bias-free, and starts as
the exact zero map:

- ``init_lora``: delta = (x a) b, two bias-free ``Dense`` layers with
  a (d, r) and b (r, h), b zero-initialized. alpha / r scales a's initial
  draw. Hu et al. scale the delta's output instead: the two start as the
  same map, but under Adam, whose steps do not follow the gradient's
  scale, they take steps of different sizes.
- ``init_ndlora``: the delta is a bias-free two-mode ``NdLinear`` on x
  reshaped as (B, d1, d2) with d1 * d2 = d, flattened back to width
  h = h1 * h2, its second factor zero. Its matrix is always the
  Kronecker product of the two factors, and it trains d1*h1 + d2*h2
  scalars against LoRA's r*(d + h). No alpha scaling is applied.

``fit_adapter`` trains either adapter, and ``delta_matrix`` reads either
one's (d, h) matrix. Base weights are marked read-only at construction,
so no optimizer can touch them even by accident.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import layer as layer_mod
from . import nn
from .nn import Adam, Dense, NdLinear, Reshape, mse_loss
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


def init_lora(d: int, h: int, rank: int, alpha: float,
              rng: np.random.Generator) -> nn.Model:
    """(d,) -> (r,) -> (h,) bias-free ``Dense`` layers: a Gaussian a scaled by
    alpha / r (not the output, as in Hu et al.), and a zero b, so the
    adapter starts as the exact zero map."""
    rank = positive_int(rank, "rank")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    a = rng.standard_normal((d, rank)) * (alpha / rank / math.sqrt(d))
    return nn.Model([Dense(a), Dense(np.zeros((rank, h)))], "mse", (d,))


def init_ndlora(d: int, h: int, rng: np.random.Generator,
                in_factors: tuple[int, int] | None = None,
                out_factors: tuple[int, int] | None = None) -> nn.Model:
    """(d,) -> in_factors -> out_factors -> (h,): a factorized adapter whose
    second factor starts at zero. Each factor pair is two dims of its width."""
    in_factors = in_factors or choose_factors(d)
    out_factors = out_factors or choose_factors(h)
    for name, factors, size in (("in_factors", in_factors, d), ("out_factors", out_factors, h)):
        if len(factors) != 2 or math.prod(factors) != size:
            raise ShapeError(f"{name} {factors} are not two factors of {size}")
    nd = layer_mod.init_xavier(in_factors, out_factors, with_bias=False, rng=rng)
    nd.weights[1] = np.zeros_like(nd.weights[1])
    return nn.Model([Reshape(in_factors), NdLinear(nd), Reshape((h,))], "mse", (d,))


def lora_forward(base: FrozenDense, adapter: nn.Model, x: np.ndarray) -> np.ndarray:
    """The adapted map: the base's output plus the adapter's delta."""
    return base.forward(x) + nn.infer(adapter, x)


ndlora_forward = lora_forward  # a second name, which callers of the factorized adapter use


def delta_matrix(adapter: nn.Model) -> np.ndarray:
    """The adapter's (d, h) matrix: its output on the identity, exact as the
    delta is linear and has no bias."""
    return nn.infer(adapter, np.eye(math.prod(adapter.in_dims)))


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


def fit_adapter(base: FrozenDense, adapter: nn.Model, x: np.ndarray,
                y_target: np.ndarray, steps: int, lr: float) -> list[float]:
    """Full-batch Adam on the adapter's parameters only; returns the loss curve."""
    delta_target = y_target - base.forward(x)
    optimizer = Adam(lr)
    losses = []
    for _ in range(steps):
        delta, caches = nn.model_forward(adapter, x)
        loss, d_delta = mse_loss(delta, delta_target)
        nn.model_backward(adapter, caches, d_delta, need_input=False)
        optimizer.step(adapter.flat, adapter.grad)
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
    y_target = x @ (base.w0 + delta_target) + base.b0

    adapter = init_ndlora(d, h, rng, in_factors, out_factors)
    losses = fit_adapter(base, adapter, x, y_target, steps, lr)
    recovery = float(np.linalg.norm(delta_matrix(adapter) - delta_target)
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
