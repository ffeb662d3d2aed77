"""Minimal layer-graph training engine.

Just enough machinery to train small MLP-style stacks that mix the
factorized N-D linear layer with dense layers, ReLU, and reshapes, plus
the synthetic-data generators used to probe its inductive bias. Losses:

- ``mse``: L = sum((y - t)^2) / (B * M), M = output feature count.
- ``cross_entropy``: softmax cross-entropy over logits (B, C) with
  integer labels, computed with max-subtraction.

Training is single-threaded and deterministic given the config seed.

The optimizers keep their state as flat vectors (``_FlatState``): a
fixed handful of numpy calls per step instead of ~15 per parameter, with
updates bitwise equal to a per-parameter loop. The learning rate is
their one setting; momentum, betas, eps and weight decay are constants.

``evaluate`` (the per-epoch train and test losses) is an inference
pass, block-wise and cache-free: it runs the rows in blocks through
each layer's ``infer``, which keeps no backward cache, and sums the
block losses. A block's widest activation holds at most
``_EVAL_BLOCK_BYTES`` = 512 KiB, a quarter of a 2 MiB L2. On the
separable 8x8 -> 16x16 -> 8x8 model (3,276 train rows, 2-vCPU Xeon,
1 BLAS thread) the train-set pass took 9.7 ms at 256 KiB blocks,
8.8 ms at 512 KiB and 10.3 ms at 1 MiB, against 27.6 ms as one
batch through the training forward.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import layer as layer_mod
from .layer import NdLinearLayer
from .tensor import ShapeError, is_positive_int, make_rng, positive_int, validate_shape

LOSSES = ("mse", "cross_entropy")

# Bytes of the widest activation in one ``evaluate`` block; the module
# docstring has the measurement behind the value.
_EVAL_BLOCK_BYTES = 512 * 1024


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


# ---------------------------------------------------------------- layers

class _Layer:
    """Model layer defaults: no parameters, and ``infer`` is ``forward`` less its cache."""

    def params(self):
        return []

    def infer(self, x):
        return self.forward(x)[0]


class NdLinear:
    """Model layer wrapping a factorized N-D linear layer."""

    def __init__(self, inner: NdLinearLayer):
        self.inner = inner

    def out_shape(self, in_shape):
        if tuple(in_shape) != self.inner.in_dims:
            raise ShapeError(f"ndlinear expects {self.inner.in_dims}, gets {tuple(in_shape)}")
        return self.inner.out_dims

    def params(self):
        return self.inner.params()

    def forward(self, x):
        return layer_mod.forward(self.inner, x)

    def infer(self, x):
        return layer_mod.forward_only(self.inner, x)

    def backward(self, cache, d_y):
        g = layer_mod.backward(self.inner, cache, d_y)
        return g.d_input, g.params()


class Dense(_Layer):
    """Plain affine layer; flattens feature axes row-major on the way in."""

    def __init__(self, w: np.ndarray, b: np.ndarray | None = None):
        if w.ndim != 2:
            raise ShapeError(f"dense weight must be a matrix, got {w.shape}")
        if b is not None and b.shape != (w.shape[1],):
            raise ShapeError(f"dense bias shape {b.shape} != ({w.shape[1]},)")
        self.w = w
        self.b = b

    def out_shape(self, in_shape):
        flat = math.prod(in_shape)
        if flat != self.w.shape[0]:
            raise ShapeError(f"dense expects {self.w.shape[0]} features, gets {flat}")
        return (self.w.shape[1],)

    def params(self):
        return [self.w] if self.b is None else [self.w, self.b]

    def forward(self, x):
        batch = x.shape[0]
        x_flat = np.ascontiguousarray(x).reshape(batch, -1)
        y = x_flat @ self.w
        if self.b is not None:
            y = y + self.b
        return y, (x_flat, x.shape)

    def backward(self, cache, d_y):
        x_flat, in_shape = cache
        d_w = x_flat.T @ d_y
        d_x = (d_y @ self.w.T).reshape(in_shape)
        if self.b is None:
            return d_x, [d_w]
        return d_x, [d_w, d_y.sum(axis=0)]


class ReLU(_Layer):
    def out_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        mask = x > 0  # ties at 0 get gradient 0
        return x * mask, mask

    def infer(self, x):
        return np.maximum(x, 0.0)

    def backward(self, cache, d_y):
        return d_y * cache, []


class Reshape(_Layer):
    """Rearranges feature axes; flat data order is untouched."""

    def __init__(self, dims):
        self.dims = validate_shape(dims)

    def out_shape(self, in_shape):
        if math.prod(in_shape) != math.prod(self.dims):
            raise ShapeError(f"cannot reshape features {tuple(in_shape)} to {self.dims}")
        return self.dims

    def forward(self, x):
        return np.ascontiguousarray(x).reshape(x.shape[0], *self.dims), x.shape

    def backward(self, cache, d_y):
        return np.ascontiguousarray(d_y).reshape(cache), []


def init_dense(d: int, h: int, with_bias: bool, rng: np.random.Generator) -> Dense:
    """Xavier-uniform dense layer: the one-mode ``init_xavier``, same draws."""
    lyr = layer_mod.init_xavier((d,), (h,), with_bias, rng)
    return Dense(*lyr.params())


# ----------------------------------------------------------------- model

@dataclass
class Model:
    layers: list
    loss: str
    in_dims: tuple[int, ...]
    out_shape: tuple[int, ...] = field(init=False)
    # largest per-sample feature count of the input and every layer output
    widest: int = field(init=False)

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        self.in_dims = validate_shape(self.in_dims)
        shape = self.in_dims
        self.widest = math.prod(shape)
        for i, lyr in enumerate(self.layers):
            try:
                shape = lyr.out_shape(shape)
            except ShapeError as exc:
                raise ShapeError(f"layer {i} ({type(lyr).__name__}): {exc}") from exc
            self.widest = max(self.widest, math.prod(shape))
        if self.loss == "cross_entropy" and len(shape) != 1:
            raise ShapeError(f"cross_entropy needs rank-1 outputs, model emits {shape}")
        self.out_shape = tuple(shape)

    def params(self):
        out = []
        for lyr in self.layers:
            out += lyr.params()
        return out


def model_forward(model: Model, x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != model.in_dims:
        raise ShapeError(f"input features {x.shape[1:]} != model in_dims {model.in_dims}")
    caches = []
    z = x
    for lyr in model.layers:
        z, cache = lyr.forward(z)
        caches.append(cache)
    return z, caches


def model_backward(model: Model, caches: list, d_y: np.ndarray):
    """Reverse sweep. Returns (flat gradient list aligned with
    model.params(), gradient w.r.t. the model input)."""
    if len(caches) != len(model.layers):
        raise ShapeError(f"got {len(caches)} caches for {len(model.layers)} layers")
    flat = []
    d_z = d_y
    for lyr, cache in zip(reversed(model.layers), reversed(caches)):
        d_z, grads = lyr.backward(cache, d_z)
        flat = grads + flat
    return flat, d_z


# ---------------------------------------------------------------- losses

def mse_loss(y: np.ndarray, t: np.ndarray):
    """Mean squared error over batch and features; returns (loss, dL/dy)."""
    if y.shape != t.shape:
        raise ShapeError(f"prediction shape {y.shape} != target shape {t.shape}")
    diff = y - t
    scale = 1.0 / diff.size
    return float((diff ** 2).sum() * scale), 2.0 * scale * diff


def _log_softmax_picked(logits: np.ndarray, labels: np.ndarray):
    """(exp of the max-shifted logits, log-probability of each label)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    picked = shifted[np.arange(logits.shape[0]), labels] - np.log(exp.sum(axis=1))
    return exp, picked


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy with integer labels; returns (loss, dL/dlogits)."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (batch, classes), got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} != ({logits.shape[0]},)")
    exp, picked = _log_softmax_picked(logits, labels)
    batch = logits.shape[0]
    loss = float(-picked.mean())
    d = exp / exp.sum(axis=1, keepdims=True)
    d[np.arange(batch), labels] -= 1.0
    return loss, d / batch


def _apply_loss(model: Model, y: np.ndarray, targets: np.ndarray):
    if model.loss == "mse":
        return mse_loss(y, targets)
    return softmax_cross_entropy(y, targets)


# ------------------------------------------------------------ optimizers

class _FlatState:
    """Optimizer state as flat vectors over all parameters.

    A step updates the concatenated parameters once and copies each slice
    back in place, so callers keep their arrays. Elementwise IEEE
    arithmetic does not depend on grouping, so the update is bitwise equal
    to a per-parameter loop. The state fits the parameter shapes of the
    first step; other shapes raise ``ValueError``.
    """

    _shapes = None

    def _gather(self, params, grads) -> tuple[np.ndarray, np.ndarray]:
        shapes = [p.shape for p in params]
        if self._shapes is None:
            self._shapes = shapes
        if shapes != self._shapes or [g.shape for g in grads] != shapes:
            raise ValueError(f"optimizer state is for parameter shapes {self._shapes}, got "
                             f"parameters {shapes}, gradients {[g.shape for g in grads]}")
        if not shapes:  # a model without parameters
            return np.zeros(0), np.zeros(0)
        return np.concatenate(params, axis=None), np.concatenate(grads, axis=None)

    @staticmethod
    def _scatter(flat: np.ndarray, params) -> None:
        start = 0
        for p in params:
            p[...] = flat[start:start + p.size].reshape(p.shape)
            start += p.size

    def step(self, params, grads):
        p, g = self._gather(params, grads)
        self._update(p, g)
        self._scatter(p, params)


class SGD(_FlatState):
    """SGD with momentum ``MOMENTUM``; the velocity is one flat vector."""

    MOMENTUM = 0.9

    def __init__(self, lr: float):
        self.lr = lr
        self._velocity = None

    def _update(self, p: np.ndarray, g: np.ndarray) -> None:
        if self._velocity is None:
            self._velocity = np.zeros_like(p)
        v = self._velocity
        v *= self.MOMENTUM
        v += g
        p -= self.lr * v


class Adam(_FlatState):
    """Adam; the moments ``m`` and ``v`` are flat vectors."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self._m = None
        self._v = None
        self._t = 0

    def _update(self, p: np.ndarray, g: np.ndarray) -> None:
        if self._m is None:
            self._m = np.zeros_like(p)
            self._v = np.zeros_like(p)
        self._t += 1
        b1c = 1.0 - self.BETA1 ** self._t
        b2c = 1.0 - self.BETA2 ** self._t
        m, v = self._m, self._v
        m += (1.0 - self.BETA1) * (g - m)
        v += (1.0 - self.BETA2) * (g * g - v)
        p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)


class AdamW(Adam):
    """Adam with decoupled weight decay ``WEIGHT_DECAY``, applied to the parameters first."""

    WEIGHT_DECAY = 0.01

    def step(self, params, grads):
        p, g = self._gather(params, grads)
        p -= self.lr * self.WEIGHT_DECAY * p
        self._update(p, g)
        self._scatter(p, params)


# ------------------------------------------------------------- training

@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    seed: int = 42

    def __post_init__(self):
        self.epochs = positive_int(self.epochs, "epochs")
        self.batch_size = positive_int(self.batch_size, "batch_size")


@dataclass
class TrainSplit:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    task: str  # "regression" or "classification"


@dataclass
class TrainResult:
    model: Model
    log: list[dict]

    @property
    def final(self) -> dict:
        return self.log[-1]


def evaluate(model: Model, x: np.ndarray, targets: np.ndarray):
    """Full-set loss, plus accuracy for classification models.

    An inference pass: rows go through the model in blocks, each layer's
    ``infer`` keeps no backward cache (``NdLinear`` runs ``forward_only``
    in its planned mode order), and the losses and correct predictions
    of the blocks are summed, then divided by the totals, so the result
    matches one batch through ``model_forward`` and the loss up to
    rounding. A block holds the most rows whose widest activation
    (``Model.widest`` float64 features per row) fits in
    ``_EVAL_BLOCK_BYTES``, and at least one row.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets)
    n = x.shape[0]
    if x.shape[1:] != model.in_dims:
        raise ShapeError(f"input features {x.shape[1:]} != model in_dims {model.in_dims}")
    want = (n, *model.out_shape) if model.loss == "mse" else (n,)
    if targets.shape != want:
        raise ShapeError(f"target shape {targets.shape} != {want}")
    rows = max(1, _EVAL_BLOCK_BYTES // (8 * model.widest))
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, rows):
        z = x[start:start + rows]
        t = targets[start:start + rows]
        for lyr in model.layers:
            z = lyr.infer(z)
        if model.loss == "mse":
            loss_sum += float(((z - t) ** 2).sum())
        else:
            loss_sum -= float(_log_softmax_picked(z, t)[1].sum())
            correct += int((z.argmax(axis=1) == t).sum())
    if model.loss == "mse":
        return loss_sum / targets.size, None
    return loss_sum / n, correct / n


def train(model: Model, data: TrainSplit, config: TrainConfig, optimizer,
          rng: np.random.Generator | None = None) -> TrainResult:
    """Minibatch training loop; shuffling comes from the config seed.

    Raises TrainingDiverged on a non-finite batch loss, or a non-finite
    train or test loss at the end of an epoch. The returned log
    holds one record per epoch with train/test loss (and accuracy for
    classification) from ``evaluate``, and ``epoch_wall_ns``, the
    ``perf_counter_ns`` duration of the epoch, evaluation included.
    """
    if len(data.x_train) == 0:
        raise ValueError("empty training set")
    if rng is None:
        rng = make_rng(config.seed)
    params = model.params()
    n = len(data.x_train)
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        start_ns = time.perf_counter_ns()
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            y, caches = model_forward(model, data.x_train[idx])
            loss, d_y = _apply_loss(model, y, data.y_train[idx])
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch offset {start}"
                )
            grads, _ = model_backward(model, caches, d_y)
            optimizer.step(params, grads)

        train_loss, train_acc = evaluate(model, data.x_train, data.y_train)
        test_loss, test_acc = evaluate(model, data.x_test, data.y_test)
        if not (math.isfinite(train_loss) and math.isfinite(test_loss)):
            raise TrainingDiverged(f"non-finite epoch loss at epoch {epoch}: "
                                   f"train {train_loss}, test {test_loss}")
        record = {"epoch": epoch, "train_loss": train_loss, "test_loss": test_loss}
        if train_acc is not None:
            record["train_accuracy"] = train_acc
            record["test_accuracy"] = test_acc
        record["epoch_wall_ns"] = time.perf_counter_ns() - start_ns
        log.append(record)
    return TrainResult(model, log)


# ------------------------------------------------------- synthetic data

def _split(x: np.ndarray, t: np.ndarray, split: float, task: str) -> TrainSplit:
    """The first ``round(len(x) * split)`` samples train, the rest test."""
    n_train = round(len(x) * split)
    if not 0 < n_train < len(x):
        raise ValueError(f"split {split} leaves no train or no test samples")
    return TrainSplit(x[:n_train], t[:n_train], x[n_train:], t[n_train:], task)


def gen_separable_regression(rng: np.random.Generator, b_total: int,
                             in_dims=(8, 8), out_dims=(8, 8),
                             noise_sigma: float = 0.0, split: float = 0.8,
                             factors: tuple[np.ndarray, np.ndarray] | None = None
                             ) -> TrainSplit:
    """Regression set whose target map factors per axis.

    Draws ground-truth matrices G_1 (d1, h1), G_2 (d2, h2) (scaled so
    targets have roughly unit variance), sets T = X x_1 G_1 x_2 G_2
    plus Gaussian noise, and splits train/test. Pass ``factors`` to pin
    the ground truth instead of drawing it.
    """
    d1, d2 = validate_shape(in_dims)
    h1, h2 = validate_shape(out_dims)
    if factors is None:
        g1 = rng.standard_normal((d1, h1)) / math.sqrt(d1)
        g2 = rng.standard_normal((d2, h2)) / math.sqrt(d2)
    else:
        g1, g2 = factors
    x = rng.standard_normal((b_total, d1, d2))
    truth = NdLinearLayer((d1, d2), (h1, h2), [np.asarray(g1, float), np.asarray(g2, float)])
    t = layer_mod.forward_only(truth, x)
    if noise_sigma > 0:
        t = t + noise_sigma * rng.standard_normal(t.shape)
    return _split(x, t, split, "regression")


def gen_blob_classification(rng: np.random.Generator, b_total: int,
                            features: int = 11, sep: float = 4.0,
                            split: float = 0.8) -> TrainSplit:
    """Two Gaussian blobs offset by ``sep`` along the first feature.

    Samples come out shaped (B, features, 1) so both factorized and
    dense front layers consume them directly.
    """
    labels = rng.integers(0, 2, size=b_total)
    x = rng.standard_normal((b_total, features))
    x[:, 0] += (labels - 0.5) * sep
    return _split(x.reshape(b_total, features, 1), labels, split, "classification")


# ------------------------------------- inductive-bias comparison helpers

_MATCH_TOL = 0.05  # relative parameter-count mismatch ``matched_dense_width`` allows

def matched_dense_width(target_params: int, in_features: int, out_features: int) -> int:
    """Hidden width of a bias-free two-layer dense stack whose parameter
    count lands within ``_MATCH_TOL`` of ``target_params``."""
    per_unit = in_features + out_features
    best = max(1, round(target_params / per_unit))
    candidates = [w for w in (best - 1, best, best + 1) if w >= 1]
    width = min(candidates, key=lambda w: abs(w * per_unit - target_params))
    achieved = width * per_unit
    if abs(achieved - target_params) > _MATCH_TOL * target_params:
        raise ValueError(
            f"no hidden width matches {target_params} params within {_MATCH_TOL:.0%} "
            f"(closest: width {width} -> {achieved})"
        )
    return width


def run_separable_comparison(n_seeds: int = 5, in_dims=(8, 8), out_dims=(8, 8),
                             noise_sigma: float = 0.05, n_train: int = 256,
                             n_test: int = 64, epochs: int = 40,
                             batch_size: int = 32, lr: float = 1e-2) -> dict:
    """Factorized vs dense extractors on axis-separable regression data.

    Three bias-free models per seed: the factorized layer, a dense map
    on flattened features ("naive"), and a two-layer dense bottleneck
    shrunk to the factorized layer's parameter count ("matched"). All
    train identically; the summary reports per-seed final test MSE,
    medians, and extractor parameter counts.
    """
    d_flat = math.prod(in_dims)
    h_flat = math.prod(out_dims)
    nd_params = layer_mod.param_count(in_dims, out_dims, with_bias=False)
    naive_params = layer_mod.dense_param_count(in_dims, out_dims, with_bias=False)
    width = matched_dense_width(nd_params, d_flat, h_flat)
    matched_params = width * (d_flat + h_flat)

    split = n_train / (n_train + n_test)
    mses: dict[str, list[float]] = {"ndlinear": [], "naive_dense": [], "matched_dense": []}
    for seed in range(n_seeds):
        data_rng = make_rng(10_000 + seed)
        data = gen_separable_regression(data_rng, n_train + n_test, in_dims, out_dims,
                                        noise_sigma, split)
        init_rng = make_rng(20_000 + seed)
        models = {
            "ndlinear": Model(
                [NdLinear(layer_mod.init_xavier(in_dims, out_dims, False, init_rng))],
                "mse", in_dims),
            "naive_dense": Model(
                [init_dense(d_flat, h_flat, False, init_rng), Reshape(out_dims)],
                "mse", in_dims),
            "matched_dense": Model(
                [init_dense(d_flat, width, False, init_rng),
                 init_dense(width, h_flat, False, init_rng), Reshape(out_dims)],
                "mse", in_dims),
        }
        for name, model in models.items():
            cfg = TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed)
            result = train(model, data, cfg, Adam(lr))
            mses[name].append(result.final["test_loss"])

    return {
        "config": {
            "in_dims": list(in_dims), "out_dims": list(out_dims),
            "noise_sigma": noise_sigma, "n_train": n_train, "n_test": n_test,
            "epochs": epochs, "batch_size": batch_size, "lr": lr, "seeds": n_seeds,
        },
        "params": {
            "ndlinear": nd_params,
            "naive_dense": naive_params,
            "matched_dense": matched_params,
            "matched_hidden_width": width,
        },
        "test_mse": mses,
        "median_test_mse": {k: float(np.median(v)) for k, v in mses.items()},
    }


# --------------------------------------------------- model config (JSON)

class ConfigError(ValueError):
    """Model config did not validate; message carries the field path."""


def _cfg_dims(entry: dict, key: str, where: str) -> tuple[int, ...]:
    value = entry.get(key)
    if (not isinstance(value, list) or not value
            or not all(is_positive_int(d) for d in value)):
        raise ConfigError(f"{where}.{key}: expected a list of positive ints, got {value!r}")
    return tuple(value)


def _cfg_int(entry: dict, key: str, where: str) -> int:
    value = entry.get(key)
    if not is_positive_int(value):
        raise ConfigError(f"{where}.{key}: expected a positive int, got {value!r}")
    return value


def build_model(config: dict, rng: np.random.Generator) -> Model:
    """Construct a Model from its JSON-dict description.

    Schema: {"layers": [{"type": "ndlinear", "in": [..], "out": [..],
    "bias": bool}, {"type": "relu"}, {"type": "dense", "in": N,
    "out": M, "bias": bool}, {"type": "reshape", "dims": [..]}],
    "loss": "mse" | "cross_entropy"}.
    """
    if not isinstance(config, dict):
        raise ConfigError(f"top level: expected an object, got {type(config).__name__}")
    raw_layers = config.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ConfigError("layers: expected a non-empty list")
    loss = config.get("loss")
    if loss not in LOSSES:
        raise ConfigError(f"loss: expected one of {LOSSES}, got {loss!r}")

    layers = []
    in_dims: tuple[int, ...] | None = None
    for i, entry in enumerate(raw_layers):
        where = f"layers[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: expected an object")
        kind = entry.get("type")
        bias = entry.get("bias", True)
        if kind in ("ndlinear", "dense") and not isinstance(bias, bool):
            raise ConfigError(f"{where}.bias: expected a bool, got {bias!r}")
        if kind == "ndlinear":
            dims_in = _cfg_dims(entry, "in", where)
            dims_out = _cfg_dims(entry, "out", where)
            if len(dims_in) != len(dims_out):
                raise ConfigError(f"{where}: in and out must have the same rank")
            layers.append(NdLinear(layer_mod.init_xavier(dims_in, dims_out, bias, rng)))
            if in_dims is None:
                in_dims = dims_in
        elif kind == "dense":
            d = _cfg_int(entry, "in", where)
            h = _cfg_int(entry, "out", where)
            layers.append(init_dense(d, h, bias, rng))
            if in_dims is None:
                in_dims = (d,)
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "reshape":
            layers.append(Reshape(_cfg_dims(entry, "dims", where)))
        else:
            raise ConfigError(f"{where}.type: unknown layer type {kind!r}")
        if in_dims is None:
            raise ConfigError(f"{where}: first layer must be 'ndlinear' or 'dense' "
                              "so the model input shape is known")

    try:
        return Model(layers, loss, in_dims)
    except ShapeError as exc:
        raise ConfigError(f"layers do not compose: {exc}") from exc
