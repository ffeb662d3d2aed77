"""The benchmark's workloads: inputs, the timed operation, and its check.

Each workload is a closed loop with one caller. ``prepare(i)`` builds
the input of op ``i`` outside the timed region, ``run`` is the timed
call into the library, and ``check`` compares the output with a
reference that does not run the code under test's compute path for the
same input. Inputs cycle through a small pool drawn from the seed, and
every op scales its pooled input by a distinct factor ``op_scale(i)``,
so no two ops see the same input and a cache of outputs cannot pass for
a speed-up. The layer is affine in its input and the gradients are
linear in the upstream gradient, so the reference for a scaled input
follows from the pooled one by exact algebra (see ``TrainCube``).

``baseline`` does the op's work in plain numpy, as a user would write
it without the library. The measuring process runs it right after each
op on the same input; the op's time over the baseline's cancels the
speed drift of a shared machine, and the baseline calls no library code,
so a change to the library moves only the op's side of the ratio.

Library functions are looked up as module attributes at call time
(``layer_mod.forward_only``), which is where the tracer installs its
wrappers.
"""

from __future__ import annotations

import math

import numpy as np

from ndlinear import cli, nn, oracle
from ndlinear import layer as layer_mod
from ndlinear.tensor import make_rng

# Tolerance of ``ndlinear verify``'s dense-equivalence check, applied
# relative to the largest reference entry (or absolute below 1).
TOL = cli.EQUIVALENCE_TOL
POOL = 3


def op_scale(i: int) -> float:
    """Distinct, exactly representable input scale for op ``i``."""
    return 1.0 + (i + 1) * 2.0 ** -12


def close(out: np.ndarray, expected: np.ndarray) -> bool:
    """True when ``out`` matches ``expected`` within ``TOL``."""
    out = np.asarray(out)
    if out.shape != expected.shape or not np.all(np.isfinite(out)):
        return False
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(out - expected))) <= TOL * scale


def _layer_with_biases(rng, in_dims, out_dims) -> layer_mod.NdLinearLayer:
    lyr = layer_mod.init_xavier(in_dims, out_dims, True, rng)
    # zero biases would make the bias path vacuous
    biases = [rng.uniform(-1.0, 1.0, size=h) for h in out_dims]
    return layer_mod.NdLinearLayer(lyr.in_dims, lyr.out_dims, lyr.weights, biases)


class InferSkew:
    """``forward_only`` on (16,256)->(64,4) with biases, batch 256.

    Declaration order costs 655,360 FLOPs per sample and the reverse
    order 40,960, so this is the workload a mode-order planner moves.
    """

    name = "infer_skew"
    in_dims = (16, 256)
    out_dims = (64, 4)
    batch = 256
    samples_per_op = batch

    def __init__(self, seed: int):
        rng = make_rng(seed)
        self.layer = _layer_with_biases(rng, self.in_dims, self.out_dims)
        self.pool = [rng.standard_normal((self.batch, *self.in_dims)) for _ in range(POOL)]

    def reference(self) -> dict[str, np.ndarray]:
        """Dense map from ``probe_full_map``; outputs via ``flat_forward``."""
        m = oracle.probe_full_map(self.layer)
        b = m.b_full.reshape(self.out_dims)
        y0 = np.stack([oracle.flat_forward(m, x) - b for x in self.pool])
        return {"b": b, "y0": y0}

    def prepare(self, i: int):
        s = op_scale(i)
        return i, s, self.pool[i % POOL] * s

    def run(self, args):
        return layer_mod.forward_only(self.layer, args[2])

    def baseline(self, args):
        return _np_forward(self.layer.weights, self.layer.biases, args[2])[-1]

    def check(self, args, out, ref) -> bool:
        i, s, _ = args
        return close(out, s * ref["y0"][i % POOL] + ref["b"])

    def finish(self) -> bool:
        return True


def _mode(z: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Mode-k product by einsum, independent of ``tensor.mode_k_product``."""
    idx = "abcdefgh"[:z.ndim]
    out = idx[:k] + "z" + idx[k + 1:]
    return np.einsum(f"{idx},{idx[k]}z->{out}", z, w, optimize=True)


def _weight_grad(z: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """sum over every axis but k of z[..., d, ...] * g[..., h, ...]."""
    idx = "abcdefgh"[:z.ndim]
    gidx = idx[:k] + "z" + idx[k + 1:]
    return np.einsum(f"{idx},{gidx}->{idx[k]}z", z, g, optimize=True)


def _bias_shape(rank: int, k: int, h: int) -> tuple[int, ...]:
    shape = [1] * rank
    shape[k] = h
    return tuple(shape)


def _np_forward(weights, biases, x) -> list[np.ndarray]:
    """Plain-numpy forward of a layer with biases: input and every step."""
    zs = [x]
    for k, (w, b) in enumerate(zip(weights, biases), start=1):
        zs.append(_mode(zs[-1], w, k) + b.reshape(_bias_shape(x.ndim, k, len(b))))
    return zs


def _np_backward(weights, zs, g):
    """Plain-numpy backward of ``_np_forward``: (d_weights, d_biases, d_input)."""
    n = len(weights)
    d_w, d_b = [None] * n, [None] * n
    for k in range(n, 0, -1):
        d_w[k - 1] = _weight_grad(zs[k - 1], g, k)
        d_b[k - 1] = g.sum(axis=tuple(ax for ax in range(g.ndim) if ax != k))
        g = _mode(g, weights[k - 1].T, k)
    return d_w, d_b, g


class TrainCube:
    """``forward`` then ``backward`` on 32^3 -> 32^3 with biases, batch 32.

    Op i feeds x = s * x_j and d_y = s * g_j (j = i mod POOL). Writing
    Z_k = s * Z0_k + C_k, with Z0 the bias-free chain on x_j and C the
    chain on the zero input, and G_k the upstream gradient at step k for
    d_y = g_j, the exact results are

        Y = s * Z0_N + C_N,  dW_k = s * (s * A_k + E_k),
        db_k = s * sum(G_k),  dX = s * G_0,

    where A_k and E_k contract Z0_{k-1} and C_{k-1} with G_k. The
    reference stores Z0_N, C_N, A, E, sum(G) and G_0 per pooled pair.
    """

    name = "train_cube"
    dims = (32, 32, 32)
    batch = 32
    samples_per_op = batch

    def __init__(self, seed: int):
        rng = make_rng(seed)
        self.layer = _layer_with_biases(rng, self.dims, self.dims)
        shape = (self.batch, *self.dims)
        self.pool = [(rng.standard_normal(shape), rng.standard_normal(shape))
                     for _ in range(POOL)]

    def reference(self) -> dict[str, np.ndarray]:
        lyr = self.layer
        n = lyr.n_modes
        rank = n + 1
        c = [np.zeros((1, *lyr.in_dims))]
        for k in range(1, n + 1):
            b = lyr.biases[k - 1].reshape(_bias_shape(rank, k, lyr.out_dims[k - 1]))
            c.append(_mode(c[-1], lyr.weights[k - 1], k) + b)
        ref: dict[str, list] = {"y0": [], "a": [], "e": [], "db": [], "dx": []}
        for x, g_top in self.pool:
            z0 = [x]
            for k in range(1, n + 1):
                z0.append(_mode(z0[-1], lyr.weights[k - 1], k))
            g = [None] * (n + 1)
            g[n] = g_top
            for k in range(n, 0, -1):
                g[k - 1] = _mode(g[k], lyr.weights[k - 1].T, k)
            a, e, db = [], [], []
            for k in range(1, n + 1):
                a.append(_weight_grad(z0[k - 1], g[k], k))
                e.append(_weight_grad(np.broadcast_to(c[k - 1], z0[k - 1].shape), g[k], k))
                db.append(g[k].sum(axis=tuple(ax for ax in range(rank) if ax != k)))
            ref["y0"].append(z0[n])
            ref["a"].append(np.stack(a))
            ref["e"].append(np.stack(e))
            ref["db"].append(np.stack(db))
            ref["dx"].append(g[0])
        out = {key: np.stack(v) for key, v in ref.items()}
        out["c"] = c[n][0]
        return out

    def prepare(self, i: int):
        s = op_scale(i)
        x, g = self.pool[i % POOL]
        return i, s, x * s, g * s

    def run(self, args):
        y, cache = layer_mod.forward(self.layer, args[2])
        return y, layer_mod.backward(self.layer, cache, args[3])

    def baseline(self, args):
        zs = _np_forward(self.layer.weights, self.layer.biases, args[2])
        return zs[-1], _np_backward(self.layer.weights, zs, args[3])

    def check(self, args, out, ref) -> bool:
        i, s = args[0], args[1]
        j = i % POOL
        y, grads = out
        if not close(y, s * ref["y0"][j] + ref["c"]):
            return False
        if not close(grads.d_input, s * ref["dx"][j]):
            return False
        for k in range(self.layer.n_modes):
            if not close(grads.d_weights[k], s * (s * ref["a"][j][k] + ref["e"][j][k])):
                return False
            if not close(grads.d_biases[k], s * ref["db"][j][k]):
                return False
        return True

    def finish(self) -> bool:
        return True


class TrainSep:
    """``nn.train`` one epoch per op: ndlinear -> relu -> ndlinear on
    separable 8x8 -> 8x8 regression (n=4096, batch 32, AdamW).

    Tiny tensors, so per-call Python overhead dominates. Every epoch's
    losses must be finite, and the final test MSE must be below
    ``MAX_FINAL_TEST_MSE``: the targets have unit variance and noise
    sigma 0.05 (MSE floor 0.0025), and the model passes 0.05 within
    about five epochs.
    """

    name = "train_sep"
    n = 4096
    batch = 32
    noise_sigma = 0.05
    lr = 1e-3
    MAX_FINAL_TEST_MSE = 0.05
    config = {
        "layers": [
            {"type": "ndlinear", "in": [8, 8], "out": [16, 16]},
            {"type": "relu"},
            {"type": "ndlinear", "in": [16, 16], "out": [8, 8]},
        ],
        "loss": "mse",
    }

    def __init__(self, seed: int):
        self.rng = make_rng(seed)
        self.data = nn.gen_separable_regression(self.rng, self.n, (8, 8), (8, 8),
                                                noise_sigma=self.noise_sigma)
        self.model = nn.build_model(self.config, self.rng)
        self.optimizer = nn.AdamW(self.lr)
        self.train_config = nn.TrainConfig(epochs=1, batch_size=self.batch)
        self.samples_per_op = len(self.data.x_train)
        self.last_test_mse = math.inf
        self.numpy_net = NumpyNet(self.model.params(), self.lr, self.batch, make_rng(seed + 1))

    def reference(self) -> dict[str, np.ndarray]:
        return {}

    def prepare(self, i: int):
        return i

    def run(self, args):
        return nn.train(self.model, self.data, self.train_config, self.optimizer,
                        rng=self.rng)

    def baseline(self, args):
        return self.numpy_net.epoch(self.data)

    def check(self, args, out, ref) -> bool:
        final = out.final
        ok = math.isfinite(final["train_loss"]) and math.isfinite(final["test_loss"])
        self.last_test_mse = final["test_loss"]
        return ok

    def finish(self) -> bool:
        return self.last_test_mse < self.MAX_FINAL_TEST_MSE


class NumpyNet:
    """``train_sep``'s model and epoch in plain numpy: the baseline.

    Two biased 2-mode layers with a relu between them, mse loss, AdamW
    (weight decay 0.01, the library's default) over shuffled minibatches,
    then the loss on the full train and test sets, as ``nn.train`` does.
    ``params`` are copied in ``model.params()`` order: each layer's two
    weights, then its two biases.
    """

    beta1, beta2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01

    def __init__(self, params, lr: float, batch: int, rng):
        self.params = [p.copy() for p in params]
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self.lr, self.batch, self.rng = lr, batch, rng

    def forward(self, x):
        w1a, w1b, b1a, b1b, w2a, w2b, b2a, b2b = self.params
        z1 = _np_forward((w1a, w1b), (b1a, b1b), x)
        mask = z1[-1] > 0
        z2 = _np_forward((w2a, w2b), (b2a, b2b), z1[-1] * mask)
        return z2[-1], (z1, mask, z2)

    def backward(self, cache, g):
        z1, mask, z2 = cache
        p = self.params
        dw2, db2, g = _np_backward(p[4:6], z2, g)
        dw1, db1, _ = _np_backward(p[0:2], z1, g * mask)
        return [*dw1, *db1, *dw2, *db2]

    def step(self, grads):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            p -= self.lr * self.weight_decay * p
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def loss(self, x, t) -> float:
        return float(((self.forward(x)[0] - t) ** 2).mean())

    def epoch(self, data) -> tuple[float, float]:
        """One epoch; returns the (train, test) mse after it."""
        order = self.rng.permutation(len(data.x_train))
        for start in range(0, len(order), self.batch):
            idx = order[start:start + self.batch]
            y, cache = self.forward(data.x_train[idx])
            diff = y - data.y_train[idx]
            self.step(self.backward(cache, 2.0 / diff.size * diff))
        return self.loss(data.x_train, data.y_train), self.loss(data.x_test, data.y_test)


WORKLOADS = {w.name: w for w in (InferSkew, TrainCube, TrainSep)}
