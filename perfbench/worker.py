"""One child process of the benchmark: one role for one workload.

    python3 perfbench/worker.py ROLE WORKLOAD SEED SECONDS TRACE SPAWN_NS REF_PATH

ROLE is one of

- ``reference``: build the workload's check data and save it to REF_PATH;
- ``setup``: set up, run the warm-up op and report the set-up time;
- ``measure``: set up, then run ops for SECONDS, checking every one. With
  TRACE 0 the workload's plain-numpy baseline runs on the same input
  right after each op; with TRACE 1 untraced and traced ops alternate.

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time includes interpreter start and imports.
The result is one JSON object on stdout.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# Pinned before numpy loads BLAS, so every run uses one BLAS thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# Bounds the memory the traced run holds (~150 bytes a span).
MAX_SPANS = 250_000
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def _monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


class Runner:
    """Runs a workload's ops in a closed loop and checks each output."""

    def __init__(self, wl):
        self.wl = wl
        self.ref = None
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def call(self, tracer=None):
        """Run op ``next_op``; return (ms, args, output or None if it raised)."""
        args = self.wl.prepare(self.next_op)
        self.next_op += 1
        self.attempted += 1
        out = None
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = self.wl.run(args)
            else:
                with tracer.op():
                    out = self.wl.run(args)
        except Exception:
            if self.failed == 0:
                traceback.print_exc()
        return (time.perf_counter_ns() - start) / 1e6, args, out

    def check(self, args, out) -> None:
        if out is None or not self.wl.check(args, out, self.ref):
            self.failed += 1

    def timed(self, tracer=None) -> tuple[float, object]:
        """Run and check one op; return its time in ms and its input."""
        ms, args, out = self.call(tracer)
        self.check(args, out)
        return ms, args

    def baseline(self, args) -> float:
        """Run the workload's plain-numpy baseline on ``args``; return ms."""
        start = time.perf_counter_ns()
        self.wl.baseline(args)
        return (time.perf_counter_ns() - start) / 1e6


def main(argv: list[str]) -> int:
    role, name, seed, seconds, trace, spawn_ns, ref_path = argv
    seed, seconds, trace, spawn_ns = int(seed), float(seconds), int(trace), int(spawn_ns)
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    if role == "reference":
        np.savez(ref_path, **wl.reference())
        print(json.dumps({"role": role}))
        return 0

    runner = Runner(wl)
    _, warm_args, warm_out = runner.call()  # first-call costs belong to set-up
    setup_s = (_monotonic_ns() - spawn_ns) / 1e9
    if role == "setup":
        print(json.dumps({"role": role, "setup_s": setup_s}))
        return 0

    with np.load(ref_path) as data:
        runner.ref = {key: data[key] for key in data.files}
    runner.check(warm_args, warm_out)
    runner.timed()  # with the check data loaded, so the peak is the run's
    # read before the baseline runs, whose memory is not the library's
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"role": role, "setup_s": setup_s, "samples_per_op": wl.samples_per_op,
              "peak_rss_mib": peak_rss_mib, "env": environment(np)}
    deadline = time.perf_counter() + seconds
    if trace:
        # Traced and untraced ops alternate, so drift in machine speed
        # does not masquerade as tracing overhead.
        tracer = spans.Tracer()
        untraced, traced = [], []
        while time.perf_counter() < deadline:
            untraced.append(runner.timed()[0])
            if len(tracer.spans) >= MAX_SPANS:
                continue
            tracer.install()
            try:
                traced.append(runner.timed(tracer)[0])
            finally:
                tracer.restore()
        values = spans.per_layer_metrics(tracer.spans, untraced, traced)
        result["per_layer"] = {metric: {"value": values[metric], "unit": unit,
                                        "computed": metric in spans.COMPUTED}
                               for metric, unit, _better in spans.PER_LAYER}
        result["op_ms"] = untraced
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(span_path, json.dumps({"workload": name, "seed": seed,
                                            "env": result["env"]}))
        result["spans_path"] = str(span_path.relative_to(ROOT))
    else:
        runner.baseline(warm_args)
        op_ms, base_ms = [], []
        while time.perf_counter() < deadline:
            ms, args = runner.timed()
            op_ms.append(ms)
            base_ms.append(runner.baseline(args))
        result.update(op_ms=op_ms, base_ms=base_ms)
    result.update(attempted=runner.attempted, failed=runner.failed, finish_ok=wl.finish())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
