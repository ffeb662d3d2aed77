"""Factorized N-dimensional linear layer.

A layer over inputs of shape (B, D_1, ..., D_N) holds one weight matrix
W_k of shape (D_k, H_k) per feature mode, plus optional per-mode bias
vectors b_k. The layer computes

    Y = ((X x_1 W_1 + b_1) x_2 W_2 + b_2) ... x_N W_N + b_N

where x_k is the mode-k tensor-matrix product and each bias broadcasts
along the freshly transformed axis. Compared to one dense matrix on the
flattened features this stores sum(D_k * H_k) weights instead of
prod(D_k) * prod(H_k), at the price of only representing maps whose
flattened matrix factors as W_1 (x) ... (x) W_N (Kronecker structure).

Each public entry (``forward``, ``forward_only``, ``backward``) checks its
layer (``checked_layer``) and its input; the steps inside run an immutable
plan cached per (dims, batch, bound), ``_step_plan``, and derive no shape.

Training applies the modes in declaration order. N <= 2 runs batch-leading, in the
caller's layout: Z_1 = W_1^T @ X stacked over the batch plus b_1 (N = 2), then
Y = Z_{N-1} @ W_N + b_N; backward transposes X once, for dW_1. For N >= 3 the batch
runs in chunks of c samples, the most that keep a step within ``SMALL_GEMM_MNK``
multiply-adds (at least one). Step k reads its buffer as the (D_k, rest) matrix Z and
computes Z^T W_k + b_k in the layout (D_{k+1}..D_N, c, H_1..H_k); the input is
transposed to (D_1..D_N, c), with no copy at c = 1, where a step over the bound, and
its dW_k, runs in equal row bands at least as tall as W_k is wide. ``forward`` keeps
each Z in the buffer it computed it in (``LayerCache``); with G the (rest, H_k)
gradient of step k, for k = N..1, summed over chunks and bands in order:

    dW_k = Z G,    db_k = 1^T G,    G <- W_k G^T

W_k G^T goes into Z's buffer once dW_k has read it: forward's buffers are backward's
scratch, for dL/dX (Z_0's at one chunk; Z_{N-1}'s at c = 1, N > 2, if at most twice
its size) and, with Y's, the next forward, which takes Y's and dL/dX's only once
nothing else refers to them. One unbanded chunk keeps the one-product bits; more
chunks or bands move the summed gradients in the last bits.

Inference (``forward_only``) applies the modes in the order with the
fewest FLOPs (``plan_modes``), the biases in closed form
(``effective_bias``): declaration order runs the training steps without
a cache; any other consumes the trailing axis and prepends the output
axis at each step, and returns the last product as a (B, H_1..H_N) view.
So outputs may be strided views, but of buffers nothing else holds.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ndt, tensor
from .tensor import (
    ShapeError,
    batch_of,
    checked_u64,
    matmul,
    permutation,
    permute,
    positive_int,
    real_array,
    shaped,
    validate_shape,
)


@dataclass
class NdLinearLayer:
    """Per-mode weights W_k (D_k, H_k) and optional biases b_k (H_k,). ``_spare`` is
    one set at most, {batch: {k: Z_k's buffer}}, that its last consumed chunked cache
    left; Y's (Z_N's) and a lent Z_{N-1}'s, handed to the caller, are keyed k - N - 1."""

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray] | None = None
    _spare: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.in_dims, self.out_dims = _mode_dims(self.in_dims, self.out_dims)
        self.weights = [real_array(w, "weight") for w in self.weights]
        self.biases = None if self.biases is None else [real_array(b, "bias") for b in self.biases]
        want = list(zip(self.in_dims, self.out_dims))  # in ``params`` order
        if self.biases is not None:
            want += [(h,) for h in self.out_dims]
        got = [p.shape for p in self.params()]
        if got != want:
            raise ShapeError(f"parameter shapes {got} do not fit the dims, which need {want}")

    @property
    def n_modes(self) -> int:
        return len(self.in_dims)

    @property
    def with_bias(self) -> bool:
        return self.biases is not None

    def params(self) -> list[np.ndarray]:
        """Weights, then biases: the parameter order ``NdLinearGrads.params`` follows."""
        return [*self.weights, *(self.biases or ())]


@dataclass
class NdLinearGrads:
    """Loss gradients for every weight, bias, and the layer input."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray] | None
    d_input: np.ndarray

    def params(self) -> list[np.ndarray]:
        """Parameter gradients in ``NdLinearLayer.params`` order."""
        return [*self.d_weights, *(self.d_biases or ())]


def _mode_dims(in_dims, out_dims) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both dim lists validated, with one output dim per input dim."""
    in_dims = validate_shape(in_dims)
    out_dims = validate_shape(out_dims)
    if len(in_dims) != len(out_dims):
        raise ShapeError(f"rank mismatch: {in_dims} vs {out_dims}")
    return in_dims, out_dims


def init_xavier(in_dims, out_dims, with_bias: bool, rng: np.random.Generator) -> NdLinearLayer:
    """Layer with W_k ~ Uniform(+-sqrt(6/(D_k+H_k))) and zero biases.

    Each mode's weight sees fan-in D_k and fan-out H_k, so the bound is
    computed per mode, not from the flattened sizes.
    """
    in_dims, out_dims = _mode_dims(in_dims, out_dims)
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"init_xavier needs rng to be a numpy Generator, got {type(rng).__name__}")
    bounds = [math.sqrt(6.0 / (d + h)) for d, h in zip(in_dims, out_dims)]
    weights = [rng.uniform(-b, b, size=(d, h)) for b, d, h in zip(bounds, in_dims, out_dims)]
    biases = [np.zeros(h, dtype=np.float64) for h in out_dims] if with_bias else None
    return NdLinearLayer(in_dims, out_dims, weights, biases)


def checked_layer(value, what: str) -> NdLinearLayer:
    """``value`` if an ``NdLinearLayer``, else a TypeError naming ``what``."""
    if not isinstance(value, NdLinearLayer):
        raise TypeError(f"{what} needs an NdLinearLayer, got {type(value).__name__}")
    return value


def _check_input(layer: NdLinearLayer, x: np.ndarray, what: str) -> np.ndarray:
    return np.ascontiguousarray(batch_of(x, checked_layer(layer, what).in_dims, "layer input"))


class _StepPlan(NamedTuple):
    """How ``_run_steps`` and ``_backward_into`` run a batch (``_step_plan``): an
    immutable value that every layer of its dims and batch shares. Step k+1 reads
    a chunk's Z_k, whatever its buffer's shape, as the (D_{k+1}, rows) matrix
    ``reshape(D_{k+1}, -1)``."""

    c: int  # samples a chunk; the last chunk may be shorter
    sizes: tuple[int, ...]  # values a sample of Z_0..Z_N
    bands: tuple[int, ...]  # rows of step k's (rest, D_k) operand that one matmul takes
    whole: bool  # the batch is one chunk, and each step one product
    y_shape: tuple[int, ...]  # (batch, *out_dims)
    ones: np.ndarray  # read-only, 1^T for a chunk's longest G (N >= 2)


class LayerCache(NamedTuple):
    """What ``forward`` keeps for one ``backward``: the N gemm operands
    Z_0 = X, Z_1, ..., Z_{N-1} as a tuple, the step plan that laid them out, and
    ``owned``, forward's [layer, that tuple, that plan, Y's buffer], which backward empties.

    Entry k is the buffer forward computed Z_k in: B · ``plan.sizes[k]`` values, chunk
    after chunk in the step layout (D_{k+1}..D_N, c, H_1..H_k), X itself at N <= 2 and
    c = 1, and Z_1 as (B, H_1, D_2) at N = 2. Backward takes only an unconsumed cache
    that forward made for its layer, with a writeable C-contiguous float64 Y buffer of
    B prod(H) values (any other is a ``ShapeError`` before any write), reads it through
    the plan, empties ``owned`` and overwrites each Z_k but X with W_{k+1} G^T: they and
    Y's back dL/dX or the next forward (``_reclaim``). The fields are read-only.
    """

    intermediates: tuple[np.ndarray, ...]
    plan: _StepPlan
    owned: list


@lru_cache(maxsize=1024)
def _step_plan(in_dims: tuple[int, ...], out_dims: tuple[int, ...], batch: int,
               bound: int) -> _StepPlan:
    """Chunk size c (all at N <= 2), bands and shapes of a training step. At c = 1, N >= 3,
    a step over ``bound`` runs in ceil(rest D_k H_k / bound) equal bands of rows
    (the last ragged), if a band has at least H_k rows."""
    n = len(in_dims)
    sizes = tuple(math.prod(out_dims[:k] + in_dims[k:]) for k in range(n + 1))
    most = max(s * h for s, h in zip(sizes, out_dims))  # a sample's largest step
    c = batch if n <= 2 else min(batch, max(1, bound // most))
    rest = [s // d for s, d in zip(sizes, in_dims)]
    cut = [-(-r // -(-s * h // bound)) for r, s, h in zip(rest, sizes, out_dims)]
    bands = tuple(b if c == 1 < n - 1 and b >= h else c * r for b, r, h in zip(cut, rest, out_dims))
    ones = np.ones(c * max(s // h for s, h in zip(sizes[1:], out_dims)) if n > 1 else 0)
    ones.flags.writeable = False
    return _StepPlan(c, sizes, bands, c == batch and bands == tuple(c * r for r in rest),
                     (batch, *out_dims), ones)


def _samples(buf: np.ndarray, size: int, start: int, count: int) -> np.ndarray:
    """Samples start..start+count-1, as a flat view, of a chunk-major buffer of
    ``size`` values a sample. A buffer of one chunk holds each chunk in turn."""
    start %= buf.size // size
    return buf.reshape(-1)[start * size:(start + count) * size]


def _reclaim(spare: dict, k: int, n: int) -> np.ndarray | None:
    """Z_k's (Y's at k = N) buffer in a spare set: a private one, or one handed out (keyed
    k - N - 1) if it has no more references, views included, than a probe held alike."""
    if (z := spare.get(k)) is not None or (z := spare.get(k - n - 1)) is None:
        return z
    probe = {0: np.empty(0)}  # interpreters count a local's references differently
    p = probe[0]
    return z if sys.getrefcount(z) == sys.getrefcount(p) else None


def _run_steps(layer: NdLinearLayer, x: np.ndarray,
               keep: bool) -> tuple[np.ndarray, LayerCache | None]:
    """Every mode step of a checked input: Y, and if ``keep`` the cache of Z_k."""
    n, batch = layer.n_modes, len(x)
    plan = _step_plan(layer.in_dims, layer.out_dims, batch, tensor.SMALL_GEMM_MNK)
    c, sizes, flat = plan.c, plan.sizes, x.reshape(batch, -1)
    if n <= 2:  # batch-leading: W_1^T @ X stacked over the batch (N = 2), then Z_{N-1} @ W_N
        bufs = [x] if n == 1 else [x, z := matmul(layer.weights[0].T, x)]
        if n == 2 and layer.biases is not None:  # b_1 tiled over D_2: long contiguous adds
            z += layer.biases[0].repeat(x.shape[2]).reshape(z.shape[1:])
        bufs.append(y := matmul(bufs[-1].reshape(-1, layer.in_dims[-1]), layer.weights[-1]))
        if layer.biases is not None:
            y += layer.biases[-1]
    elif plan.whole:  # each product is the next step's buffer
        bufs = [permute(flat, (1, 0))]
        for k, w in enumerate(layer.weights):
            bufs.append(matmul(bufs[k].reshape(w.shape[0], -1).T, w))
            if layer.biases is not None:
                bufs[-1] += layer.biases[k]
    else:  # chunks write their rows of batch-long buffers (one chunk's if no cache)
        held, spare = (batch, layer._spare.pop(batch, {})) if keep else (c, {})  # no other call's
        owned = [z if (z := _reclaim(spare, k, n)) is not None else
                 np.empty((held if k < n else batch) * sizes[k]) for k in range(c == 1, n + 1)]
        bufs = [*([flat] if c == 1 else ()), *owned]  # Z_0.., then Y: batch-long either way
        for b0 in range(0, batch, c):
            nb = min(c, batch - b0)
            part = [_samples(buf, s, b0, nb) for buf, s in zip(bufs, sizes)]
            if c > 1:  # this chunk of X, transposed into step layout
                part[0].reshape(-1, nb)[...] = flat[b0:b0 + nb].T
            for k, w in enumerate(layer.weights):
                a, band = part[k].reshape(w.shape[0], -1).T, plan.bands[k]
                z = part[k + 1].reshape(len(a), -1)
                for r in range(0, len(a), band):
                    matmul(a[r:r + band], w, out=z[r:r + band])
                if layer.biases is not None:
                    z += layer.biases[k]
    zs = tuple(bufs[:n])
    cache = LayerCache(zs, plan, [layer, zs, plan, bufs[n]]) if keep else None
    return bufs[n].reshape(plan.y_shape), cache


def forward(layer: NdLinearLayer, x: np.ndarray) -> tuple[np.ndarray, LayerCache]:
    """Apply all mode transforms, keeping every intermediate for backward."""
    return _run_steps(layer, _check_input(layer, x, "forward"), True)


def _run_planned(layer: NdLinearLayer, x: np.ndarray, order: tuple[int, ...]) -> np.ndarray:
    """Apply the modes of a checked input in ``order``, then the effective bias."""
    n, batch = layer.n_modes, x.shape[0]
    # (B, D_order[-1]..D_order[0]): the first mode to run trails. For the
    # reverse of declaration order that is the caller's own layout.
    axes = (0, *(1 + k for k in reversed(order)))
    z = x if axes == tuple(range(n + 1)) else permute(x, axes)
    for k in order:
        w = layer.weights[k]
        # (rest, D_k) -> (H_k, rest): the trailing axis is consumed and
        # the new one leads, so no step copies.
        z = matmul(w.T, z.reshape(-1, w.shape[0]).T)
    z = z.reshape(*(layer.out_dims[k] for k in reversed(order)), batch)
    y = z.transpose(n, *(n - 1 - order.index(k) for k in range(n)))  # a view of the fresh z
    if layer.biases is not None:
        y += effective_bias(layer)
    return y


def forward_only(layer: NdLinearLayer, x: np.ndarray) -> np.ndarray:
    """Inference path: modes in the ``plan_modes`` order, no cache kept, the
    output a strided view unless the plan is declaration order. Equals
    ``forward``'s output up to rounding, and bitwise when the plan is
    declaration order (always for N = 1 and for equal in/out dims)."""
    x = _check_input(layer, x, "forward_only")
    order = plan_modes(layer.in_dims, layer.out_dims)
    if order == tuple(range(layer.n_modes)):
        return _run_steps(layer, x, False)[0]
    return _run_planned(layer, x, order)


def effective_bias(layer: NdLinearLayer) -> np.ndarray:
    """The layer's output on the zero input, of shape out_dims.

    Bias b_k is carried through the later modes on an all-ones fiber,
    which W_j maps to its column sums c_j, so

        B_eff = sum_k 1_{H_1..H_{k-1}} (x) b_k (x) c_{k+1} (x) ... (x) c_N.

    Zero for a layer without biases. Costs O(N prod(H)) and is not
    cached: optimizers update weights and biases in place.
    """
    checked_layer(layer, "effective_bias")
    total, tail = np.zeros(layer.out_dims), np.ones(())  # tail: c_{k+1} (x) ... (x) c_N
    for w, b in zip(reversed(layer.weights), reversed(layer.biases or ())):
        total += np.multiply.outer(b, tail)
        tail = np.multiply.outer(w.sum(axis=0), tail)
    return total


def backward(layer: NdLinearLayer, cache: LayerCache, d_y: np.ndarray) -> NdLinearGrads:
    """Propagate dL/dY back through every mode step, consuming ``cache``, the one
    ``forward`` returned for this layer. It writes neither ``d_y`` nor the input;
    forward's buffers are its scratch, for dL/dX or a later forward's cache."""
    d_params = [np.empty(p.shape) for p in checked_layer(layer, "backward").params()]
    d_x = _backward_into(layer, cache, d_y, d_params, need_input=True)
    return NdLinearGrads(d_params[:layer.n_modes], d_params[layer.n_modes:] or None, d_x)


def _backward_into(layer: NdLinearLayer, cache: LayerCache, d_y: np.ndarray,
                   d_params: list[np.ndarray], need_input: bool) -> np.ndarray | None:
    """``backward`` into ``d_params`` (C-contiguous, ``params`` order), and dL/dX
    only if ``need_input``. For N >= 2 db_k is numpy's gemv 1^T G (3-4x faster
    than ``G.sum(axis=0)``), not a counted ``matmul``: ``flop_count`` has no bias."""
    slot = cache.owned if isinstance(cache, LayerCache) and type(cache.owned) is list else None
    if slot == []:
        raise ShapeError("cache was consumed by an earlier backward")
    if slot is None or len(slot) != 4 or [*map(id, slot[:3])] != [
            id(layer), id(cache.intermediates), id(cache.plan)] or not (  # and Y's buffer:
            type(y := slot[3]) is np.ndarray and y.dtype == np.float64 and (f := y.flags).writeable
            and f.c_contiguous and y.size == math.prod(cache.plan.y_shape)):
        raise ShapeError(f"cache is not one that forward made for a layer of dims "
                         f"{layer.in_dims} -> {layer.out_dims}, this one")
    n, zs, plan = layer.n_modes, cache.intermediates, cache.plan
    batch, c, ones = plan.y_shape[0], plan.c, plan.ones
    d_y = np.ascontiguousarray(shaped(d_y, plan.y_shape, "d_y"))
    y_buf = slot.pop()
    slot.clear()  # consumed: the entries forward allocated are overwritten below
    if n == 1:  # the dense statements, on forward's X
        matmul(zs[0].T, d_y, out=d_params[0])
        if layer.biases is not None:
            d_y.sum(axis=0, out=d_params[1])
        return matmul(d_y, layer.weights[0].T) if need_input else None
    zs = [*zs, d_y]
    if n == 2:  # the batch-leading X moves once, to X^T's (D_1 D_2, B): dW_1's operand
        zs[0] = permute(zs[0].reshape(batch, -1), (1, 0))
    if plan.whole:  # at N = 2 Z_1 is (B H_1, D_2), and G = W_2 dY^T reads as (D_2 B, H_1)
        g = d_y
        for k in range(n, 0, -1):
            w = layer.weights[k - 1]
            g = g.reshape(-1, w.shape[1])
            z = zs[k - 1].reshape(w.shape[0], -1)
            matmul(zs[1].reshape(len(g), -1).T if k == n == 2 else z, g, out=d_params[k - 1])
            if layer.biases is not None:
                np.matmul(ones[:len(g)], g, out=d_params[n + k - 1])
            if k > 1 or need_input:  # dL/dZ_{k-1} takes Z_{k-1}'s place, which dW_k has read
                g = matmul(w, g.T, out=z)
        return g.reshape(-1, batch).T.reshape(batch, *layer.in_dims) if need_input else None
    # dL/dX takes Z_{N-1}'s buffer at most twice its size: sample b's rows lie on swept ones <= b
    lend = need_input and c == 1 and plan.sizes[0] <= plan.sizes[n - 1] <= 2 * plan.sizes[0]
    d_x = (zs[n - 1][:batch * plan.sizes[0]].reshape(batch, -1) if lend else
           np.empty((batch, plan.sizes[0])) if need_input else None)
    for d in d_params:  # every chunk adds its terms, in batch order, to -0.0 (-0.0 + x is x)
        d.fill(-0.0)
    for b0 in range(0, batch, c):
        nb = min(c, batch - b0)
        part = [_samples(buf, s, b0, nb) for buf, s in zip(zs, plan.sizes)]
        g = part[n]
        for k in range(n, 0, -1):
            w = layer.weights[k - 1]
            g = g.reshape(-1, w.shape[1])
            z = part[k - 1].reshape(w.shape[0], -1)
            band = plan.bands[k - 1]
            d_params[k - 1] += matmul(z, g) if band >= len(g) else sum(  # the bands' terms
                matmul(z[:, r:r + band], g[r:r + band]) for r in range(0, len(g), band))
            if layer.biases is not None:
                d_params[n + k - 1] += ones[:len(g)] @ g
            if k > 1:  # as in the whole batch's sweep
                g = matmul(w, g.T, out=z)
        if not need_input:
            continue
        if nb == 1:  # dL/dX from step layout (D_1..D_N, nb): a sample is its own
            matmul(w, g.T, out=d_x[b0].reshape(w.shape[0], -1))
        else:
            d_x[b0:b0 + nb] = matmul(w, g.T, out=z).reshape(-1, nb).T
    # for the next forward: what forward allocated, keyed k, or k - N - 1 if handed out (Y, dL/dX)
    layer._spare = {batch: {k if k < n - lend else k - n - 1: z
                            for k, z in enumerate([*zs[:n], y_buf]) if k >= (c == 1)}}
    return None if d_x is None else d_x.reshape(batch, *layer.in_dims)


def param_count(in_dims, out_dims, with_bias: bool) -> int:
    """Trainable scalars in the factorized layer: sum(D_k H_k [+ H_k])."""
    in_dims, out_dims = _mode_dims(in_dims, out_dims)
    total = sum(d * h for d, h in zip(in_dims, out_dims)) + (sum(out_dims) if with_bias else 0)
    return checked_u64(total, "param count")


def dense_param_count(in_dims, out_dims, with_bias: bool) -> int:
    """Parameters of one dense layer on the flattened features."""
    d_flat = math.prod(validate_shape(in_dims))
    h_flat = math.prod(validate_shape(out_dims))
    total = checked_u64(d_flat * h_flat, "dense weight count")
    if with_bias:
        total += h_flat
    return checked_u64(total, "dense param count")


def _order_cost(in_dims: tuple[int, ...], out_dims: tuple[int, ...], order) -> int:
    """Multiply-adds per sample of applying the modes in ``order``."""
    size = math.prod(in_dims)
    total = 0
    for k in order:
        size = size // in_dims[k] * out_dims[k]
        total = checked_u64(total + size * in_dims[k], "flop count term sum")
    return total


def plan_modes(in_dims, out_dims) -> tuple[int, ...]:
    """Mode order (indices into in_dims) with the fewest forward FLOPs.

    With R the product of H_j / D_j over the modes already applied,
    mode k costs R prod(D) H_k multiply-adds per sample. Swapping
    adjacent modes a, b changes the cost by R prod(D) H_a H_b
    (key(b) - key(a)), where key = 1/H - 1/D. So an order is optimal
    exactly when its keys never increase, and a stable sort on the key
    finds one at any N. Ties keep declaration order, which is returned
    whenever it is optimal. The plan depends on the dims alone, so it
    is cached per shape.
    """
    return _plan(tuple(in_dims), tuple(out_dims))


@lru_cache(maxsize=1024)
def _plan(in_dims: tuple[int, ...], out_dims: tuple[int, ...]) -> tuple[int, ...]:
    in_dims, out_dims = _mode_dims(in_dims, out_dims)
    return tuple(sorted(range(len(in_dims)), reverse=True,
                        key=lambda k: Fraction(in_dims[k] - out_dims[k],
                                               in_dims[k] * out_dims[k])))


def flop_count(batch: int, in_dims, out_dims, order=None) -> int:
    """FLOPs for one forward pass, counting a multiply-add as 2.

    Applying the modes in ``order``, a mode multiplies a
    (B * prod(dims of the other modes, H if applied else D), D_k) matrix
    by W_k. In declaration order (``order=range(N)``, as in training)
    the total is

        2 B * sum_k [ prod_{j<k} H_j * prod_{j>k} D_j * D_k * H_k ].

    The default order is ``plan_modes``', the one ``forward_only`` runs.
    Bias additions are excluded from the count.
    """
    in_dims, out_dims = _mode_dims(in_dims, out_dims)
    batch = positive_int(batch, "batch")
    if order is None:
        order = plan_modes(in_dims, out_dims)
    else:
        order = permutation(order, len(in_dims), "order")
    return checked_u64(2 * batch * _order_cost(in_dims, out_dims, order), "flop count")


def dense_flop_count(batch: int, in_dims, out_dims) -> int:
    """FLOPs of the dense layer on flattened features: 2 B prod(D) prod(H)."""
    weights = dense_param_count(in_dims, out_dims, with_bias=False)
    batch = positive_int(batch, "batch")
    return checked_u64(2 * batch * weights, "dense flop count")


_META_NAME = "meta.json"


def save_layer(layer: NdLinearLayer, path) -> None:
    """Write a layer as a directory: meta.json + W_k.ndt (+ b_k.ndt).

    The files go into a new sibling directory that then replaces ``path``,
    so a failed save leaves an earlier layer there intact, and no file of
    an earlier layer (say a ``b_k.ndt``) outlives a save.
    """
    meta = {"in_dims": list(checked_layer(layer, "save_layer").in_dims),
            "out_dims": list(layer.out_dims), "with_bias": layer.with_bias, "N": layer.n_modes}
    root = Path(path)
    root.parent.mkdir(parents=True, exist_ok=True)
    # the scratch directory, and the earlier layer once moved into it, go on exit
    with tempfile.TemporaryDirectory(prefix=f".{root.name}.", dir=root.parent) as scratch:
        new = Path(scratch) / "new"
        new.mkdir()
        (new / _META_NAME).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        for name, params in (("W", layer.weights), ("b", layer.biases or ())):
            for k, p in enumerate(params, start=1):
                ndt.write(new / f"{name}_{k}.ndt", p)
        if root.is_dir():
            root.rename(Path(scratch) / "old")
        new.rename(root)


def _read_meta(path: Path) -> tuple[int, tuple[int, ...], tuple[int, ...], bool]:
    """(N, in_dims, out_dims, with_bias) from meta.json; FormatError if malformed.
    Each dims list must pass ``validate_shape``, its element count's bound included."""
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ndt.FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ndt.FormatError(f"{path}: expected an object, got {type(meta).__name__}")
    keys = ("N", "in_dims", "out_dims", "with_bias")
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ndt.FormatError(f"{path}: missing keys {missing}")
    n, in_dims, out_dims, with_bias = (meta[key] for key in keys)
    # JSON integers load as int; type() also turns away bools and floats.
    if type(n) is not int:
        raise ndt.FormatError(f"{path}: N must be an integer, got {n!r}")
    for key, dims in (("in_dims", in_dims), ("out_dims", out_dims)):
        try:
            validate_shape(dims)
        except (ShapeError, OverflowError) as exc:
            raise ndt.FormatError(f"{path}: {key} must be a valid shape: {exc}") from exc
        if len(dims) != n:
            raise ndt.FormatError(f"{path}: N = {n} but {key} has {len(dims)} modes")
    if not isinstance(with_bias, bool):
        raise ndt.FormatError(f"{path}: with_bias must be a bool, got {with_bias!r}")
    return n, tuple(in_dims), tuple(out_dims), with_bias


def load_layer(path) -> NdLinearLayer:
    """Read a directory written by ``save_layer``.

    Raises ``ndt.FormatError`` for a malformed meta.json or tensor file.
    """
    root = Path(path)
    n, in_dims, out_dims, with_bias = _read_meta(root / _META_NAME)
    weights = [ndt.read(root / f"W_{k}.ndt") for k in range(1, n + 1)]
    biases = [ndt.read(root / f"b_{k}.ndt") for k in range(1, n + 1)] if with_bias else None
    try:
        return NdLinearLayer(in_dims, out_dims, weights, biases)
    except ShapeError as exc:
        raise ndt.FormatError(f"{root}: tensor files do not fit {_META_NAME}: {exc}") from exc
