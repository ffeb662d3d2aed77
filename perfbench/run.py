"""Benchmark of the ndlinear library: three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``infer_skew``, ``train_cube``, ``train_sep`` or ``all``. Each
workload runs in processes of its own (``worker.py``), with one BLAS
thread: a reference process builds the check data, a measuring process
times ops for S seconds and checks every output, and with ``--trace 0``
two set-up processes before it and two after it repeat the set-up, so
that ``setup_s`` is a median of five. With ``--trace 0`` the result
holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced run. Every metric is printed by name and unit; the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The timing metrics of the result are ratios to the workload's
plain-numpy baseline, run right after each op on the same input: a
shared virtual machine's speed can drift by a quarter between runs a
minute apart, and the ratio cancels that drift. Op times in ms and
samples per second are printed as well.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("infer_skew", "train_cube", "train_sep")
END_TO_END = [
    ("speed_vs_numpy", "x"),
    ("op_vs_numpy_p50", "x"),
    ("op_vs_numpy_p90", "x"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
# printed for reading, not in the result: raw times drift with the machine
RAW_TIMINGS = [
    ("samples_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("numpy_op_ms_p50", "ms"),
]
SETUP_PROBES = 2  # on each side of the measuring process
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(role: str, workload: str, seed: int, seconds: int, trace: int,
           ref_path: Path, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit reached before the {role} process of {workload}")
    cmd = [sys.executable, str(HERE / "worker.py"), role, workload, str(seed),
           str(seconds), str(trace), str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
           str(ref_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process of {workload} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{role} process of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    # the highest decile with at least ten ops beyond it at ~100+ ops
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(main: dict, setups: list[float]) -> dict[str, float]:
    op_ms, base_ms = main["op_ms"], main["base_ms"]
    ratio = [op / base for op, base in zip(op_ms, base_ms)]
    return {
        "speed_vs_numpy": sum(base_ms) / sum(op_ms),
        "op_vs_numpy_p50": statistics.median(ratio),
        "op_vs_numpy_p90": _p90(ratio),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": main["peak_rss_mib"],
    }


def raw_timings(main: dict) -> dict[str, float]:
    op_ms = main["op_ms"]
    return {
        "samples_per_s": main["samples_per_op"] * len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": _p90(op_ms),
        "numpy_op_ms_p50": statistics.median(main["base_ms"]),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Run one workload in its own processes; print and return its result."""
    OUT_DIR.mkdir(exist_ok=True)
    ref_path = OUT_DIR / f"ref-{name}-seed{seed}-{os.getpid()}.npz"

    def spawn(role: str) -> dict:
        return _spawn(role, name, seed, seconds, trace, ref_path, deadline)

    try:
        spawn("reference")
        # Set-up probes run before and after the measuring process, so
        # the median spans the run's changes in machine speed.
        setups = [] if trace else [spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        main = spawn("measure")
        setups.append(main["setup_s"])
        if not trace:
            setups += [spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    finally:
        ref_path.unlink(missing_ok=True)

    attempted, failed = main["attempted"], main["failed"]
    ops = len(main["op_ms"])
    print(f"workload {name}  seed {seed}  closed loop, 1 caller  {ops} timed ops"
          f"{' untraced, alternating with traced ones' if trace else ''}")
    print("env " + json.dumps(main["env"], sort_keys=True))
    if trace:
        metrics = main["per_layer"]
        print(f"spans written to {main['spans_path']}")
    else:
        units = dict(END_TO_END)
        metrics = {metric: {"value": value, "unit": units[metric]}
                   for metric, value in end_to_end(main, setups).items()}
    for metric, m in metrics.items():
        label = "  (computed, no hardware counters)" if m.get("computed") else ""
        print(f"  {metric:30s} {m['value']:14.6g} {m['unit']}{label}")
    if not trace:
        for (metric, unit), value in zip(RAW_TIMINGS, raw_timings(main).values()):
            print(f"  {metric:30s} {value:14.6g} {unit}  (raw, not in the result)")
    print(f"  {'fail_frac':30s} {failed / attempted:14.6g} frac ({failed} of {attempted} ops)")
    if not main["finish_ok"]:
        print(f"  final check of {name} FAILED", file=sys.stderr)
    return {
        "correct": failed == 0 and main["finish_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": m["value"], "unit": m["unit"]}
                    for metric, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "ndlinear" / "__init__.py").is_file():
        print(f"error: no ndlinear sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an error, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for i, name in enumerate(names, start=1):
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         start + i * TIME_LIMIT_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
