"""Span tracing of the library's public functions, from outside.

``Tracer.install`` replaces each traced function at every name in the
``ndlinear`` package that refers to it, so calls are caught wherever
the caller looks the name up (``ndlinear.layer.permute`` as well as
``ndlinear.tensor.permute``). Spans are kept in memory as tuples and
``restore`` puts every original object back. A function the library
no longer has is skipped, and its metrics read 0.

Per-layer metrics are per op: the benchmark wraps each timed op in
``Tracer.op()`` and divides totals by the number of ops. Byte and FLOP
figures are computed from operand shapes, not read from hardware
counters.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

# span name -> (module, attribute path) of the traced function
TRACED = {
    "tensor.permute": ("ndlinear.tensor", "permute"),
    "tensor.matmul": ("ndlinear.tensor", "matmul"),
    "tensor.mode_k_product": ("ndlinear.tensor", "mode_k_product"),
    "tensor.validate_shape": ("ndlinear.tensor", "validate_shape"),
    "layer.forward_only": ("ndlinear.layer", "forward_only"),
    "layer.forward": ("ndlinear.layer", "forward"),
    "layer.backward": ("ndlinear.layer", "backward"),
    "nn.train": ("ndlinear.nn", "train"),
    "nn.model_forward": ("ndlinear.nn", "model_forward"),
    "nn.model_backward": ("ndlinear.nn", "model_backward"),
    "nn.mse_loss": ("ndlinear.nn", "mse_loss"),
    "nn.evaluate": ("ndlinear.nn", "evaluate"),
    "nn.optimizer_step": ("ndlinear.nn", "AdamW.step"),
}
OP = "op"

PER_LAYER = [
    ("tensor.permute.calls", "count", "lower"),
    ("tensor.permute.ms", "ms", "lower"),
    ("tensor.copy_bytes", "B", "lower"),
    ("tensor.matmul.calls", "count", "lower"),
    ("tensor.matmul.ms", "ms", "lower"),
    ("tensor.flops", "count", "lower"),
    ("tensor.mode_k_product.calls", "count", "lower"),
    ("tensor.mode_k_product.ms", "ms", "lower"),
    ("tensor.gflops", "GFLOP/s", "higher"),
    ("tensor.gemm_floor_ms", "ms", "lower"),
    ("tensor.floor_gap", "x", "lower"),
    ("tensor.validate_shape.calls", "count", "lower"),
    ("layer.self_ms", "ms", "lower"),
    ("layer.forward_only.calls", "count", "lower"),
    ("layer.forward_only.ms", "ms", "lower"),
    ("layer.forward.calls", "count", "lower"),
    ("layer.forward.ms", "ms", "lower"),
    ("layer.backward.calls", "count", "lower"),
    ("layer.backward.ms", "ms", "lower"),
    ("nn.model_forward.ms", "ms", "lower"),
    ("nn.model_backward.ms", "ms", "lower"),
    ("nn.optimizer_step.ms", "ms", "lower"),
    ("nn.mse_loss.ms", "ms", "lower"),
    ("nn.evaluate.ms", "ms", "lower"),
    ("nn.self_ms", "ms", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]
# Figures derived from shapes and a same-shape gemm, not from counters.
COMPUTED = {"tensor.copy_bytes", "tensor.flops", "tensor.gflops",
            "tensor.gemm_floor_ms", "tensor.floor_gap"}


def _resolve(module_name: str, path: str):
    obj = sys.modules.get(module_name)
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


class Tracer:
    """Records spans (name, parent, op, start_ns, end_ns, extra)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --------------------------------------------------- install/restore

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            op = self._stack[0] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, parent, op, start, end, None)
            if name == "tensor.matmul":
                (m, k), n = np.shape(args[0]), np.shape(args[1])[1]
                self.spans[idx] = (name, parent, op, start, end, (m, k, n))
            elif name == "tensor.permute":
                self.spans[idx] = (name, parent, op, start, end, out.nbytes)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every package name bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ndlinear" or key.startswith("ndlinear."))]
        for name, (module_name, path) in TRACED.items():
            owner, fn = _resolve(module_name, path)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                attr = path.rsplit(".", 1)[1]
                owner = next(c for c in owner.__mro__ if attr in vars(c))
                self._patch(owner, attr, fn, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, fn, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every original object, in reverse order of patching."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self):
        """Root span of one timed op; every span inside carries its index."""
        if self._stack:
            raise RuntimeError("op spans do not nest")
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (OP, -1, idx, start, end, None)

    # ----------------------------------------------------------- output

    def write(self, path, header: str) -> None:
        """Write spans as gzip TSV: index, name, parent, op, start, end, extra."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n")
            fh.write("index\tname\tparent\top\tstart_ns\tend_ns\textra\n")
            for i, (name, parent, op, start, end, extra) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{parent}\t{op}\t{start}\t{end}\t"
                         f"{'' if extra is None else extra}\n")


def _gemm_ms(shape: tuple[int, int, int], rng: np.random.Generator) -> float:
    """Median time of one contiguous (m, k) @ (k, n) product."""
    m, k, n = shape
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    a @ b
    samples = []
    deadline = time.perf_counter() + 0.05
    while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 200):
        start = time.perf_counter_ns()
        a @ b
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples) / 1e6


def per_layer_metrics(spans: list, untraced_ms: list[float],
                      traced_ms: list[float]) -> dict[str, float]:
    """Per-op totals of the spans, plus the computed gemm floor."""
    ops = sum(1 for s in spans if s[0] == OP)
    if ops == 0:
        raise ValueError("no op spans recorded")
    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    child_ns = [0] * len(spans)
    shapes: dict[tuple[int, int, int], int] = {}
    copy_bytes = 0
    for name, parent, _op, start, end, extra in spans:
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + end - start
        if parent >= 0:
            child_ns[parent] += end - start
        if extra is None:
            continue
        if name == "tensor.matmul":
            shapes[extra] = shapes.get(extra, 0) + 1
        elif name == "tensor.permute":
            copy_bytes += extra
    self_ns = {"layer": 0, "nn": 0}
    layer_ns = 0
    for i, (name, parent, _op, start, end, _extra) in enumerate(spans):
        module = name.split(".", 1)[0]
        if module in self_ns:
            self_ns[module] += end - start - child_ns[i]
        if module == "layer" and (parent < 0 or not spans[parent][0].startswith("layer.")):
            layer_ns += end - start

    flops = sum(2 * m * k * n * c for (m, k, n), c in shapes.items())
    rng = np.random.default_rng(0)
    floor_ms = sum(_gemm_ms(shape, rng) * c for shape, c in shapes.items()) / ops
    layer_ms = layer_ns / 1e6 / ops

    def ms(name: str) -> float:
        return total_ns.get(name, 0) / 1e6 / ops

    def per_op(name: str) -> float:
        return calls.get(name, 0) / ops

    out = {
        "tensor.permute.calls": per_op("tensor.permute"),
        "tensor.permute.ms": ms("tensor.permute"),
        "tensor.copy_bytes": copy_bytes / ops,
        "tensor.matmul.calls": per_op("tensor.matmul"),
        "tensor.matmul.ms": ms("tensor.matmul"),
        "tensor.flops": flops / ops,
        "tensor.mode_k_product.calls": per_op("tensor.mode_k_product"),
        "tensor.mode_k_product.ms": ms("tensor.mode_k_product"),
        "tensor.gflops": flops / ops / (layer_ms * 1e6) if layer_ms else 0.0,
        "tensor.gemm_floor_ms": floor_ms,
        "tensor.floor_gap": layer_ms / floor_ms if floor_ms else 0.0,
        "tensor.validate_shape.calls": per_op("tensor.validate_shape"),
        "layer.self_ms": self_ns["layer"] / 1e6 / ops,
        "nn.self_ms": self_ns["nn"] / 1e6 / ops,
        "trace_overhead_frac": statistics.median(traced_ms) / statistics.median(untraced_ms) - 1,
    }
    for fn in ("forward_only", "forward", "backward"):
        out[f"layer.{fn}.calls"] = per_op(f"layer.{fn}")
        out[f"layer.{fn}.ms"] = ms(f"layer.{fn}")
    for fn in ("model_forward", "model_backward", "optimizer_step", "mse_loss", "evaluate"):
        out[f"nn.{fn}.ms"] = ms(f"nn.{fn}")
    return {name: out[name] for name, _unit, _better in PER_LAYER}
