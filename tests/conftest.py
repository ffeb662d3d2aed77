"""Shared test oracles, independent of the library's compute paths."""

import numpy as np

from ndlinear import nn, oracle


def brute_force_mode_k(t: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """Mode-k product straight from the definition: loop over every
    mode-k fiber f and replace it with sum_i f[i] * w[i, :]."""
    out_shape = list(t.shape)
    out_shape[k] = w.shape[1]
    out = np.zeros(out_shape)
    other_axes = [s for i, s in enumerate(t.shape) if i != k]
    for idx in np.ndindex(*other_axes):
        sel = idx[:k] + (slice(None),) + idx[k:]
        fiber = t[sel]
        out[sel] = (fiber[:, None] * w).sum(axis=0)
    return out


def model_numeric_grads(model, x, targets):
    """Central-difference gradients of the model loss w.r.t. every
    parameter, via the generic finite-difference helper."""
    params = model.params()

    def run():
        y, _ = nn.model_forward(model, x)
        if model.loss == "mse":
            return nn.mse_loss(y, targets)[0]
        return nn.softmax_cross_entropy(y, targets)[0]

    return oracle.central_diff(run, params)


def model_analytic_grads(model, x, targets):
    y, caches = nn.model_forward(model, x)
    if model.loss == "mse":
        _, d_y = nn.mse_loss(y, targets)
    else:
        _, d_y = nn.softmax_cross_entropy(y, targets)
    grads, _ = nn.model_backward(model, caches, d_y)
    return grads
