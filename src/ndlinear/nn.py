"""Minimal layer-graph training engine.

Just enough machinery to train small MLP-style stacks of the factorized
N-D linear layer (``Dense`` is its one-mode case), ReLU, and reshapes,
plus the synthetic-data generators used to probe its inductive bias. Losses:

- ``mse``: L = sum((y - t)^2) / (B * M), M = output feature count.
- ``cross_entropy``: softmax cross-entropy over logits (B, C) with
  integer labels, computed with max-subtraction.

Training is single-threaded and deterministic given its generator.

A ``Model`` packs its parameters once, at construction, into one vector
``flat`` (``params()`` order) and rebinds each layer's arrays to views
of it. Parameters that share memory, such as a layer listed twice, are
refused: one vector cannot hold an array twice. ``model_forward`` and
``infer`` check the model input, and each layer's ``backward`` its d_y
(``shaped``). A training step writes the gradients into views of ``grad``,
skipping the model input's; the optimizer then updates ``flat`` in
place, and allocates nothing: each operation writes into scratch kept in
its state (``_FlatState``), which made an AdamW step on 560 parameters
7% faster. The learning rate is the optimizers' one setting; momentum,
betas, eps and weight decay are constants.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import layer as layer_mod
from .layer import NdLinearLayer
from .tensor import (ShapeError, batch_of, is_positive_int, make_rng, positive_int, real_array,
                     shaped, validate_shape)

LOSSES = ("mse", "cross_entropy")

# Bytes of the widest activation in an ``evaluate`` block (measured there)
_EVAL_BLOCK_BYTES = 512 * 1024


class TrainingDiverged(RuntimeError):
    """Raised when a training loss or gradient becomes non-finite."""


# ---------------------------------------------------------------- layers

class _Layer:
    """Model layer defaults: no parameters; ``infer`` runs ``forward``."""

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

    def bind(self, arrays):
        n = self.inner.n_modes
        self.inner.weights, self.inner.biases = arrays[:n], arrays[n:] or None

    def backward(self, cache, d_y, d_params, need_input):
        return layer_mod._backward_into(self.inner, cache, d_y, d_params, need_input)


class Dense(NdLinear):
    """Plain affine layer y = x w + b: a one-mode ``NdLinear`` on the feature
    axes flattened row-major."""

    def __init__(self, w: np.ndarray, b: np.ndarray | None = None):
        w = real_array(w, "dense weight")
        if w.ndim != 2:
            raise ShapeError(f"dense weight must be a matrix, got {w.shape}")
        super().__init__(NdLinearLayer(w.shape[:1], w.shape[1:], [w], None if b is None else [b]))

    def out_shape(self, in_shape):
        flat = math.prod(in_shape)
        if flat != self.inner.in_dims[0]:
            raise ShapeError(f"dense expects {self.inner.in_dims[0]} features, gets {flat}")
        return self.inner.out_dims

    def forward(self, x):
        y, cache = super().forward(_rows(x))
        return y, (cache, np.shape(x))

    def infer(self, x):
        return super().infer(_rows(x))

    def backward(self, cache, d_y, d_params, need_input):
        cache, in_shape = cache
        d_x = super().backward(cache, d_y, d_params, need_input)
        return None if d_x is None else d_x.reshape(in_shape)


def _rows(x) -> np.ndarray:
    """``x`` as (rows, features): its leading axis, and the rest flattened."""
    x = batch_of(x, None, "dense input")
    return x.reshape(len(x), math.prod(x.shape[1:]))


class ReLU(_Layer):
    def out_shape(self, in_shape):
        return tuple(in_shape)

    def forward(self, x):
        x = batch_of(x, None, "relu input")
        mask = x > 0  # ties at 0 get gradient 0
        return x * mask, mask

    def infer(self, x):
        return np.maximum(batch_of(x, None, "relu input"), 0.0)

    def backward(self, cache, d_y, d_params, need_input):
        """Refuses a cache that is not a bool ndarray; a forged bool mask of its shape passes."""
        if type(cache) is not np.ndarray or cache.dtype != bool:
            raise ShapeError("relu cache is not the bool mask its forward made")
        return shaped(d_y, cache.shape, "d_y") * cache


class Reshape(_Layer):
    """Rearranges feature axes; flat data order is untouched."""

    def __init__(self, dims):
        self.dims = validate_shape(dims)

    def out_shape(self, in_shape):
        if math.prod(in_shape) != math.prod(self.dims):
            raise ShapeError(f"cannot reshape features {tuple(in_shape)} to {self.dims}")
        return self.dims

    def forward(self, x):
        x = batch_of(x, None, "reshape input")
        return np.ascontiguousarray(x).reshape(len(x), *self.out_shape(x.shape[1:])), x.shape

    def backward(self, cache, d_y, d_params, need_input):
        """Refuses any cache but a (rows, *feature dims) tuple; a well-formed forged one passes."""
        if not (type(cache) is tuple and cache and all(map(is_positive_int, cache))
                and math.prod(cache[1:]) == math.prod(self.dims)):
            raise ShapeError("reshape cache is not the (rows, *feature dims) its forward made")
        return np.ascontiguousarray(shaped(d_y, (cache[0], *self.dims), "d_y")).reshape(cache)


def init_dense(d: int, h: int, with_bias: bool, rng: np.random.Generator) -> Dense:
    """Xavier-uniform dense layer: the one-mode ``init_xavier``, same draws."""
    lyr = layer_mod.init_xavier((d,), (h,), with_bias, rng)
    return Dense(*lyr.params())


# ----------------------------------------------------------------- model

@dataclass
class Model:
    """Layers in order, their parameters packed (see the module docstring)."""

    layers: list
    loss: str
    in_dims: tuple[int, ...]
    out_shape: tuple[int, ...] = field(init=False)
    # largest per-sample feature count of the input and every layer output
    widest: int = field(init=False)
    # every parameter in params() order, and the last backward sweep's gradients
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)

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

        owned = [(i, p) for i, lyr in enumerate(self.layers) for p in lyr.params()]
        for (i, p), (j, q) in itertools.combinations(owned, 2):
            if np.shares_memory(p, q):
                raise ShapeError(f"layers {i} and {j} share parameter memory")
        self.flat = np.concatenate([np.zeros(0), *(p for _, p in owned)], axis=None)
        self.grad = np.empty_like(self.flat)
        self._grads = self._unpack(self.grad)
        for lyr, views in zip(self.layers, self._unpack(self.flat)):
            if views:
                lyr.bind(views)

    def params(self):
        out = []
        for lyr in self.layers:
            out += lyr.params()
        return out

    def _unpack(self, vec: np.ndarray) -> list[list[np.ndarray]]:
        """Per layer, views of a packed vector shaped like that layer's parameters."""
        parts = iter(np.split(vec, np.cumsum([p.size for p in self.params()])[:-1]))
        return [[next(parts).reshape(p.shape) for p in lyr.params()] for lyr in self.layers]


def model_forward(model: Model, x: np.ndarray):
    """Output and layer caches, each layer run through its ``forward``."""
    caches = []
    z = batch_of(x, model.in_dims, "model input")
    for lyr in model.layers:
        z, cache = lyr.forward(z)
        caches.append(cache)
    return z, caches


def infer(model: Model, x) -> np.ndarray:
    """The model's output on ``x``; each layer's ``infer`` keeps no backward
    cache (``NdLinear`` runs ``forward_only`` in its planned order)."""
    z = batch_of(x, model.in_dims, "model input")
    for lyr in model.layers:
        z = lyr.infer(z)
    return z


def model_backward(model: Model, caches: list, d_y: np.ndarray, need_input: bool = True):
    """Reverse sweep, filling ``model.grad``: layer i's ``backward(cache, d_y,
    d_params, need_input)`` writes into its views and returns dL/d(its input).
    Returns (the views of ``model.grad`` in ``params()`` order, not copies, so
    valid until the next sweep; dL/dX, or None unless ``need_input``). A
    training step (``train``, ``lora.fit_adapter``) passes ``need_input=False``:
    the sweep then ends at the first layer with parameters, which skips its
    input gradient, as nobody reads it. A ``d_y`` that is not real or not shaped like
    the forward batch's output is a TypeError or ShapeError before any write."""
    if len(caches) != len(model.layers):
        raise ShapeError(f"got {len(caches)} caches for {len(model.layers)} layers")
    d_z = batch_of(d_y, model.out_shape, "d_y")  # each layer's backward checks its d_y
    grads = model._grads
    stop = 0 if need_input else next((i for i, g in enumerate(grads) if g), len(grads))
    for i in range(len(model.layers) - 1, stop - 1, -1):
        d_z = model.layers[i].backward(caches[i], d_z, grads[i], need_input or i > stop)
    return [g for views in grads for g in views], d_z if need_input else None


# ---------------------------------------------------------------- losses

def _checked_targets(loss: str, y_shape: tuple[int, ...], targets) -> np.ndarray:
    """The one target rule, for a prediction of shape ``y_shape`` with at least one
    value: ``mse`` takes real values of that shape, ``cross_entropy`` one integer label
    in [0, classes) per row of (rows, classes) logits. A ragged list is a ShapeError,
    non-real values a TypeError. Returns the targets as an array."""
    if not math.prod(y_shape):
        raise ShapeError(f"prediction shape {y_shape} holds no values")
    if loss == "mse":
        return shaped(targets, y_shape, "target")
    if len(y_shape) != 2:
        raise ShapeError(f"logits must be (batch, classes), got {y_shape}")
    shaped(targets, y_shape[:1], "labels")  # ragged, non-real or misshapen labels raise
    labels = np.asarray(targets)  # in their own dtype, for the integer test below
    classes = y_shape[1]
    bad = labels if labels.dtype.kind not in "iu" else labels[(labels < 0) | (labels >= classes)]
    if bad.size:
        raise ShapeError(f"labels must be integers in [0, {classes}), got {bad.flat[0]}")
    return labels


def mse_loss(y: np.ndarray, t: np.ndarray):
    """Mean squared error over batch and features; returns (loss, dL/dy)."""
    y = real_array(y, "prediction")
    diff = y - _checked_targets("mse", y.shape, t)
    scale = 1.0 / diff.size
    loss = float((diff ** 2).sum() * scale)
    diff *= 2.0 * scale  # dL/dy, in diff's memory
    return loss, diff


def _log_softmax_picked(logits: np.ndarray, labels: np.ndarray):
    """(exp of the max-shifted logits, log-probability of each label), both checked."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    picked = shifted[np.arange(logits.shape[0]), labels] - np.log(exp.sum(axis=1))
    return exp, picked


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy with labels in [0, classes); returns (loss, dL/dlogits)."""
    logits = real_array(logits, "logits")
    labels = _checked_targets("cross_entropy", logits.shape, labels)
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

    ``step(p, g)`` updates the parameter vector ``p`` (a ``Model.flat``) in
    place from the gradient vector ``g`` (its ``grad``), bitwise equal to a
    per-parameter loop, as IEEE arithmetic is elementwise. The first step
    zeroes ``STATE``, scratch included, at ``p``'s shape; another shape raises ValueError.
    """

    STATE: tuple[str, ...] = ()
    _shape = None

    def __init__(self, lr: float):
        self.lr = lr

    def _check(self, p: np.ndarray, g: np.ndarray) -> None:
        if self._shape is None:
            self._shape = p.shape
            for name in self.STATE:
                setattr(self, name, np.zeros(p.shape))
        if p.shape != self._shape or g.shape != self._shape:
            raise ValueError(f"optimizer state has shape {self._shape}, got parameters "
                             f"{p.shape}, gradients {g.shape}")

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        self._check(p, g)
        self._update(p, g)


class SGD(_FlatState):
    """SGD with momentum ``MOMENTUM``; the velocity is one flat vector."""

    MOMENTUM = 0.9
    STATE = ("_velocity", "_tmp")

    def _update(self, p: np.ndarray, g: np.ndarray) -> None:
        v = self._velocity
        v *= self.MOMENTUM
        v += g
        p -= np.multiply(v, self.lr, out=self._tmp)


class Adam(_FlatState):
    """Adam; the moments ``m`` and ``v`` are flat vectors."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    STATE = ("_m", "_v", "_tmp", "_tmp2")
    _t = 0  # steps taken

    def _update(self, p: np.ndarray, g: np.ndarray) -> None:
        self._t += 1
        b1c = 1.0 - self.BETA1 ** self._t
        b2c = 1.0 - self.BETA2 ** self._t
        m, v, s, u = self._m, self._v, self._tmp, self._tmp2
        # m += (1 - b1) (g - m); v += (1 - b2) (g g - v); p -= lr m/b1c / (sqrt(v/b2c) + eps)
        m += np.multiply(np.subtract(g, m, out=s), 1.0 - self.BETA1, out=s)
        np.subtract(np.multiply(g, g, out=s), v, out=s)
        v += np.multiply(s, 1.0 - self.BETA2, out=s)
        np.add(np.sqrt(np.divide(v, b2c, out=s), out=s), self.EPS, out=s)
        np.multiply(np.divide(m, b1c, out=u), self.lr, out=u)
        p -= np.divide(u, s, out=u)


class AdamW(Adam):
    """Adam with decoupled weight decay ``WEIGHT_DECAY``, applied to the parameters first."""

    WEIGHT_DECAY = 0.01

    def step(self, p: np.ndarray, g: np.ndarray) -> None:
        self._check(p, g)
        p -= np.multiply(p, self.lr * self.WEIGHT_DECAY, out=self._tmp)
        self._update(p, g)


OPTIMIZERS = {"sgd": SGD, "adam": Adam, "adamw": AdamW}


# ------------------------------------------------------------- training

@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32

    def __post_init__(self):
        self.epochs = positive_int(self.epochs, "epochs")
        self.batch_size = positive_int(self.batch_size, "batch_size")


@dataclass
class TrainSplit:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


@dataclass
class TrainResult:
    model: Model
    log: list[dict]

    @property
    def final(self) -> dict:
        return self.log[-1]


def evaluate(model: Model, x: np.ndarray, targets: np.ndarray):
    """Full-set loss, plus accuracy for classification models.

    An inference pass: rows go through ``infer`` in blocks, and
    the losses and correct predictions of the blocks are summed, then
    divided by the totals, so the result matches one batch through
    ``model_forward`` and the loss up to rounding. A block holds the most
    rows whose widest activation (``Model.widest`` float64 features per row)
    fits in ``_EVAL_BLOCK_BYTES`` (a quarter of a 2 MiB L2), and at least
    one row: the separable model's train-set pass took 8.8 ms, 27.6 ms as
    one batch.
    """
    x = batch_of(x, model.in_dims, "model input")
    n = len(x)
    targets = _checked_targets(model.loss, (n, *model.out_shape), targets)
    rows = max(1, _EVAL_BLOCK_BYTES // (8 * model.widest))
    loss_sum = 0.0
    correct = 0
    for start in range(0, n, rows):
        z = infer(model, x[start:start + rows])
        t = targets[start:start + rows]
        if model.loss == "mse":
            loss_sum += float(((z - t) ** 2).sum())
        else:
            loss_sum -= float(_log_softmax_picked(z, t)[1].sum())
            correct += int((z.argmax(axis=1) == t).sum())
    if model.loss == "mse":
        return loss_sum / targets.size, None
    return loss_sum / n, correct / n


def train(model: Model, data: TrainSplit, config: TrainConfig, optimizer,
          rng: np.random.Generator) -> TrainResult:
    """Minibatch training loop; each epoch's shuffle is drawn from ``rng``.

    A set that fails the batch rule (named "training set" or "test set") or
    the target rule is a ShapeError or TypeError before the first step. Raises
    TrainingDiverged on a non-finite batch loss or gradient, before that
    step's update, or on a non-finite train or test loss at the end of an
    epoch. The returned log holds one record per epoch with train/test loss
    (and accuracy for classification) from ``evaluate``, and ``epoch_wall_ns``,
    the ``perf_counter_ns`` duration of the epoch, evaluation included.
    """
    x_train = batch_of(data.x_train, model.in_dims, "training set")
    x_test = batch_of(data.x_test, model.in_dims, "test set")
    y_train, y_test = (_checked_targets(model.loss, (len(x), *model.out_shape), t)
                       for x, t in ((x_train, data.y_train), (x_test, data.y_test)))
    if any(p.base is not model.flat for p in model.params()):  # e.g. packed by another Model
        raise ValueError("the layers' parameters are no longer views of model.flat")
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        start_ns = time.perf_counter_ns()
        order = rng.permutation(len(x_train))
        for start in range(0, len(x_train), config.batch_size):
            idx = order[start:start + config.batch_size]
            y, caches = model_forward(model, x_train[idx])
            loss, d_y = _apply_loss(model, y, y_train[idx])
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss {loss} at epoch {epoch}, batch offset {start}"
                )
            model_backward(model, caches, d_y, need_input=False)
            if not np.isfinite(model.grad).all():
                i = next(i for i, views in enumerate(model._grads)
                         if not all(np.isfinite(v).all() for v in views))
                raise TrainingDiverged(f"non-finite gradient at epoch {epoch}, batch offset "
                                       f"{start}, first in layer {i} "
                                       f"({type(model.layers[i]).__name__})")
            optimizer.step(model.flat, model.grad)

        train_loss, train_acc = evaluate(model, x_train, y_train)
        test_loss, test_acc = evaluate(model, x_test, y_test)
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

def _split(x: np.ndarray, t: np.ndarray, split: float) -> TrainSplit:
    """The first ``round(len(x) * split)`` samples train, the rest test."""
    n_train = round(len(x) * split)
    if not 0 < n_train < len(x):
        raise ValueError(f"split {split} leaves no train or no test samples")
    return TrainSplit(x[:n_train], t[:n_train], x[n_train:], t[n_train:])


def gen_separable_regression(rng: np.random.Generator, b_total: int,
                             in_dims=(8, 8), out_dims=(8, 8),
                             noise_sigma: float = 0.0, split: float = 0.8) -> TrainSplit:
    """Regression set whose target map factors per axis.

    Draws ground-truth matrices G_1 (d1, h1), G_2 (d2, h2) (scaled so
    targets have roughly unit variance) and then X, sets T = X x_1 G_1 x_2 G_2
    plus Gaussian noise, and splits train/test.
    """
    b_total = positive_int(b_total, "b_total")
    d1, d2 = validate_shape(in_dims)
    h1, h2 = validate_shape(out_dims)
    g1 = rng.standard_normal((d1, h1)) / math.sqrt(d1)
    g2 = rng.standard_normal((d2, h2)) / math.sqrt(d2)
    x = rng.standard_normal((b_total, d1, d2))
    truth = NdLinearLayer((d1, d2), (h1, h2), [g1, g2])
    t = layer_mod.forward_only(truth, x)
    if noise_sigma > 0:
        t = t + noise_sigma * rng.standard_normal(t.shape)
    return _split(x, t, split)


def gen_blob_classification(rng: np.random.Generator, b_total: int,
                            features: int = 11, sep: float = 4.0,
                            split: float = 0.8) -> TrainSplit:
    """Two Gaussian blobs offset by ``sep`` along the first feature.

    Samples come out shaped (B, features, 1) so both factorized and
    dense front layers consume them directly.
    """
    b_total = positive_int(b_total, "b_total")
    labels = rng.integers(0, 2, size=b_total)
    x = rng.standard_normal((b_total, features))
    x[:, 0] += (labels - 0.5) * sep
    return _split(x.reshape(b_total, features, 1), labels, split)


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
                             n_test: int = 64, epochs: int = 40) -> dict:
    """Factorized vs dense extractors on axis-separable regression data.

    Three bias-free models per seed: the factorized layer, a dense map
    on flattened features ("naive"), and a two-layer dense bottleneck
    shrunk to the factorized layer's parameter count ("matched"). All
    train identically (Adam at lr 0.01, batch 32, shuffled from the seed);
    the summary reports per-seed final test MSE, medians, and extractor
    parameter counts.
    """
    config = TrainConfig(epochs=epochs)
    lr = 1e-2
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
            result = train(model, data, config, Adam(lr), make_rng(seed))
            mses[name].append(result.final["test_loss"])

    return {
        "config": {
            "in_dims": list(in_dims), "out_dims": list(out_dims),
            "noise_sigma": noise_sigma, "n_train": n_train, "n_test": n_test,
            "epochs": epochs, "batch_size": config.batch_size, "lr": lr, "seeds": n_seeds,
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


_WIDTH = partial(positive_int, what="width")  # a dense layer's in or out


def _cfg_field(entry: dict, key: str, where: str, rule=validate_shape):
    """``rule(entry[key])``, a library size rule, its error a ConfigError naming the field."""
    try:
        return rule(entry.get(key))
    except ShapeError as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from exc


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
            dims_in, dims_out = (_cfg_field(entry, key, where) for key in ("in", "out"))
            if len(dims_in) != len(dims_out):
                raise ConfigError(f"{where}: in and out must have the same rank")
            layers.append(NdLinear(layer_mod.init_xavier(dims_in, dims_out, bias, rng)))
            if in_dims is None:
                in_dims = dims_in
        elif kind == "dense":
            d, h = (_cfg_field(entry, key, where, _WIDTH) for key in ("in", "out"))
            layers.append(init_dense(d, h, bias, rng))
            if in_dims is None:
                in_dims = (d,)
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "reshape":
            layers.append(Reshape(_cfg_field(entry, "dims", where)))
        else:
            raise ConfigError(f"{where}.type: unknown layer type {kind!r}")
        if in_dims is None:
            raise ConfigError(f"{where}: first layer must be 'ndlinear' or 'dense' "
                              "so the model input shape is known")

    try:
        return Model(layers, loss, in_dims)
    except ShapeError as exc:
        raise ConfigError(f"layers do not compose: {exc}") from exc
