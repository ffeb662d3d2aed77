"""Command-line entry point.

Subcommands: ``verify`` (oracle suite), ``bench`` (count + wall-time
report), ``train`` (toy training on synthetic data), ``lora-demo``
(adapter parameter counts and delta recovery). Exit codes: 0 success,
1 check failure, 2 usage error. All randomness hangs off --seed; only
wall-clock fields vary between runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import layer as layer_mod
from . import lora, nn, oracle
from .tensor import FlopCounter, make_rng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

EQUIVALENCE_TOL = 1e-10
KRONECKER_TOL = 1e-12
GRADIENT_TOL = 1e-6


class UsageError(Exception):
    pass


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse dims {text!r}; expected e.g. 16,16,16")
    if not dims or any(d < 1 for d in dims):
        raise UsageError(f"dims must be positive, got {text!r}")
    return dims


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- verify

def _check_block(trials, tolerance: float) -> dict:
    errors = [t.max_error for t in trials]
    failures = [t.as_dict() for t in trials if t.max_error >= tolerance]
    return {
        "tolerance": tolerance,
        "trials": [t.as_dict() for t in trials],
        "max_error": max(errors) if errors else 0.0,
        "failures": len(failures),
        "failing_trials": failures,
    }


def cmd_verify(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"need --seeds >= 1, got {args.seeds}")
    checks = {
        "equivalence": _check_block(
            oracle.equivalence_trials(args.seeds, args.max_rank, args.max_dim),
            EQUIVALENCE_TOL),
        "kronecker": _check_block(
            oracle.kronecker_trials(args.seeds, args.max_rank, args.max_dim),
            KRONECKER_TOL),
        "gradient": _check_block(
            oracle.gradient_trials(args.seeds * 2), GRADIENT_TOL),
    }
    passed = all(block["failures"] == 0 for block in checks.values())
    report = {
        "config": {"seeds": args.seeds, "max_rank": args.max_rank,
                   "max_dim": args.max_dim},
        "checks": checks,
        "passed": passed,
    }
    _write_json(args.json, report)
    if not args.quiet:
        for name, block in checks.items():
            status = "ok" if block["failures"] == 0 else "FAILED"
            print(f"{name:12s} {status}: {len(block['trials'])} trials, "
                  f"max error {block['max_error']:.3e} (tol {block['tolerance']:.0e})")
        print("verify:", "PASS" if passed else "FAIL")
    if not passed and not args.quiet:
        for name, block in checks.items():
            for t in block["failing_trials"]:
                print(f"  failing {name} trial: {t}", file=sys.stderr)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# ----------------------------------------------------------------- bench

@dataclass
class BenchReport:
    config: dict
    mode_order: list[int]
    param_count_nd: int
    param_count_dense: int
    flop_formula_nd: int
    flop_instrumented_nd: int
    flop_dense: int
    wall_ns_nd: float
    wall_ns_dense: float | None
    speedup: float | None

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "mode_order": self.mode_order,
            "param_count_nd": self.param_count_nd,
            "param_count_dense": self.param_count_dense,
            "flop_formula_nd": self.flop_formula_nd,
            "flop_instrumented_nd": self.flop_instrumented_nd,
            "flop_dense": self.flop_dense,
            "wall_ns_nd": self.wall_ns_nd,
            "wall_ns_dense": self.wall_ns_dense,
            "speedup": self.speedup,
        }


CSV_COLUMNS = [
    "in_dims", "out_dims", "batch", "with_bias", "trials", "warmup", "seed",
    "param_count_nd", "param_count_dense", "flop_formula_nd",
    "flop_instrumented_nd", "flop_dense", "wall_ns_nd", "wall_ns_dense", "speedup",
]


def _median_wall_ns(fn, trials: int, warmup: int) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(trials):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return float(statistics.median(samples))


def run_bench(in_dims, out_dims, batch: int, trials: int = 30, warmup: int = 5,
              seed: int = 42, with_bias: bool = False,
              mem_cap_bytes: int = 1 << 30) -> BenchReport:
    """Count report plus median wall times, factorized vs dense baseline.

    The dense baseline is materialized (as the layer's exact flattened
    equivalent) only when its weight matrix fits the memory cap;
    otherwise its timing and the speedup are null. ``mode_order`` lists
    the modes ``forward_only`` applies, in order, numbered from 1.
    """
    rng = make_rng(seed)
    lyr = layer_mod.init_xavier(in_dims, out_dims, with_bias, rng)
    x = rng.standard_normal((batch, *in_dims))

    p_nd = layer_mod.param_count(in_dims, out_dims, with_bias)
    p_dense = layer_mod.dense_param_count(in_dims, out_dims, with_bias)
    f_nd = layer_mod.flop_count(batch, in_dims, out_dims)
    f_dense = layer_mod.dense_flop_count(batch, in_dims, out_dims)

    with FlopCounter() as fc:
        layer_mod.forward_only(lyr, x)
    f_instr = 2 * fc.multiply_adds
    if f_instr != f_nd:
        raise AssertionError(
            f"instrumented count {f_instr} disagrees with formula {f_nd}")

    dense_entries = math.prod(in_dims) * math.prod(out_dims)
    wall_nd = _median_wall_ns(lambda: layer_mod.forward_only(lyr, x), trials, warmup)
    wall_dense = None
    if dense_entries * 8 <= mem_cap_bytes:
        dense = oracle.FlatAffineMap(
            oracle.materialize_full_weight(lyr, size_cap=dense_entries),
            layer_mod.effective_bias(lyr).reshape(-1), lyr.in_dims, lyr.out_dims)
        wall_dense = _median_wall_ns(lambda: oracle.flat_forward(dense, x), trials, warmup)

    speedup = (wall_dense / wall_nd) if wall_dense is not None else None
    config = {
        "in_dims": list(in_dims), "out_dims": list(out_dims), "batch": batch,
        "with_bias": with_bias, "trials": trials, "warmup": warmup, "seed": seed,
        "mem_cap_bytes": mem_cap_bytes,
    }
    mode_order = [k + 1 for k in layer_mod.plan_modes(lyr.in_dims, lyr.out_dims)]
    return BenchReport(config, mode_order, p_nd, p_dense, f_nd, f_instr, f_dense,
                       wall_nd, wall_dense, speedup)


def _write_csv(path: str, report: BenchReport) -> None:
    cfg = report.config
    row = {
        "in_dims": "x".join(str(d) for d in cfg["in_dims"]),
        "out_dims": "x".join(str(d) for d in cfg["out_dims"]),
        "batch": cfg["batch"],
        "with_bias": cfg["with_bias"],
        "trials": cfg["trials"],
        "warmup": cfg["warmup"],
        "seed": cfg["seed"],
        "param_count_nd": report.param_count_nd,
        "param_count_dense": report.param_count_dense,
        "flop_formula_nd": report.flop_formula_nd,
        "flop_instrumented_nd": report.flop_instrumented_nd,
        "flop_dense": report.flop_dense,
        "wall_ns_nd": report.wall_ns_nd,
        "wall_ns_dense": "" if report.wall_ns_dense is None else report.wall_ns_dense,
        "speedup": "" if report.speedup is None else report.speedup,
    }
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerow(row)


def cmd_bench(args) -> int:
    in_dims = _parse_dims(args.in_dims)
    out_dims = _parse_dims(args.out_dims)
    if len(in_dims) != len(out_dims):
        raise UsageError(f"--in-dims has {len(in_dims)} modes but --out-dims has "
                         f"{len(out_dims)}; give one output dim per input dim")
    if args.batch < 1 or args.trials < 1 or args.warmup < 0:
        raise UsageError("need batch >= 1, trials >= 1, warmup >= 0")
    report = run_bench(in_dims, out_dims, args.batch, args.trials, args.warmup,
                       args.seed, args.bias,
                       mem_cap_bytes=int(args.mem_cap_gib * (1 << 30)))
    _write_json(args.json, report.as_dict())
    if args.csv:
        _write_csv(args.csv, report)
    if not args.quiet:
        print(f"params:      {report.param_count_nd} (factorized) "
              f"vs {report.param_count_dense} (dense)")
        print(f"flops:       {report.flop_formula_nd} formula, "
              f"{report.flop_instrumented_nd} instrumented, {report.flop_dense} dense")
        print(f"mode order:  {','.join(str(k) for k in report.mode_order)}")
        print(f"wall ns:     {report.wall_ns_nd:.0f} (factorized) vs "
              + (f"{report.wall_ns_dense:.0f} (dense)" if report.wall_ns_dense is not None
                 else "n/a (dense above memory cap)"))
        if report.speedup is not None:
            print(f"speedup:     {report.speedup:.2f}x")
    return EXIT_OK


# ----------------------------------------------------------------- train

_DATA_DEFAULTS = {
    "separable": {"d1": 8, "d2": 8, "h1": 8, "h2": 8, "n": 320, "sigma": 0.05},
    "blobs": {"features": 11, "n": 1000, "sep": 4.0},
}


def _parse_data_spec(text: str, split: float, rng) -> nn.TrainSplit:
    kind, _, rest = text.partition(":")
    if kind not in _DATA_DEFAULTS:
        raise UsageError(f"unknown data kind {kind!r}; choose from "
                         f"{sorted(_DATA_DEFAULTS)}")
    opts = dict(_DATA_DEFAULTS[kind])
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            if not eq or key not in opts:
                raise UsageError(f"bad data option {item!r} for {kind}; "
                                 f"known keys: {sorted(opts)}")
            opts[key] = _data_value(key, value, type(opts[key]))
    try:
        if kind == "separable":
            return nn.gen_separable_regression(
                rng, opts["n"], (opts["d1"], opts["d2"]), (opts["h1"], opts["h2"]),
                noise_sigma=opts["sigma"], split=split)
        return nn.gen_blob_classification(
            rng, opts["n"], features=opts["features"], sep=opts["sep"], split=split)
    except ValueError as exc:  # a split that leaves no train or no test samples
        raise UsageError(f"--data {text}: {exc}")
    except MemoryError:
        features = opts["d1"] * opts["d2"] if kind == "separable" else opts["features"]
        raise UsageError(f"--data {text}: cannot allocate {8 * opts['n'] * features:,} "
                         f"bytes for {opts['n']:,} samples of {features:,} float64 features")


def _data_value(key: str, value: str, kind: type):
    """Parse one --data option: ints (sizes) must be >= 1, floats
    (noise sigma, blob separation) finite and >= 0."""
    try:
        parsed = kind(value)
    except ValueError:
        raise UsageError(f"data option {key}: expected {kind.__name__}, got {value!r}")
    if kind is int and parsed < 1:
        raise UsageError(f"data option {key}: must be >= 1, got {parsed}")
    if kind is float and not (math.isfinite(parsed) and parsed >= 0):
        raise UsageError(f"data option {key}: must be finite and >= 0, got {parsed}")
    return parsed


def cmd_train(args) -> int:
    config_path = Path(args.config)
    try:
        raw = config_path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{config_path}:{exc.lineno}:{exc.colno}: {exc.msg}")

    try:
        train_config = nn.TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                                      seed=args.seed, split=args.split, lr=args.lr)
    except ValueError as exc:
        raise UsageError(str(exc))

    rng = make_rng(args.seed)
    try:
        model = nn.build_model(config, rng)
    except nn.ConfigError as exc:
        raise UsageError(f"{config_path}: {exc}")

    data = _parse_data_spec(args.data, args.split, rng)
    if (model.loss == "cross_entropy") != (data.task == "classification"):
        raise UsageError(f"loss {model.loss!r} does not fit {data.task} data")
    if data.x_train.shape[1:] != model.in_dims:
        raise UsageError(f"data samples {data.x_train.shape[1:]} do not fit "
                         f"model input {model.in_dims}")
    if data.task == "regression" and data.y_train.shape[1:] != model.out_shape:
        raise UsageError(f"data targets {data.y_train.shape[1:]} do not fit "
                         f"model output {model.out_shape}")
    if data.task == "classification":
        classes = int(max(data.y_train.max(), data.y_test.max())) + 1
        if model.out_shape[0] < classes:
            raise UsageError(f"model emits {model.out_shape[0]} logits but the data has "
                             f"{classes} classes")

    optimizer = {
        "sgd": lambda: nn.SGD(args.lr, momentum=0.9),
        "adam": lambda: nn.Adam(args.lr),
        "adamw": lambda: nn.AdamW(args.lr),
    }[args.optimizer]()

    try:
        result = nn.train(model, data, train_config, optimizer, rng=rng)
    except nn.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED

    if args.log:
        lines = [json.dumps(rec, sort_keys=True) for rec in result.log]
        Path(args.log).write_text("\n".join(lines) + "\n")
    if not args.quiet:
        final = result.final
        parts = [f"epoch {final['epoch']}",
                 f"train_loss {final['train_loss']:.6g}",
                 f"test_loss {final['test_loss']:.6g}"]
        if "test_accuracy" in final:
            parts.append(f"train_acc {final['train_accuracy']:.4f}")
            parts.append(f"test_acc {final['test_accuracy']:.4f}")
        print("  ".join(parts))
    return EXIT_OK


# ------------------------------------------------------------- lora-demo

def cmd_lora_demo(args) -> int:
    if args.d < 1 or args.h < 1:
        raise UsageError("need --d >= 1 and --h >= 1")
    if args.rank < 1:
        raise UsageError("need --rank >= 1")
    import warnings as _warnings
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        report = lora.recovery_experiment(args.d, args.h, args.rank, args.seed,
                                          args.steps, args.lr, args.target)
    report["warnings"] = [str(w.message) for w in caught]
    _write_json(args.json, report)
    if not args.quiet:
        counts = report["param_counts"]
        print(f"trainable params: LoRA r={args.rank}: {counts['lora_params']}, "
              f"factorized: {counts['ndlora_params']} "
              f"(ratio {counts['ratio']:.2f}x)")
        print(f"recovery rel Frobenius error: {report['recovery_rel_frobenius']:.3e} "
              f"({args.target}, {args.steps} steps)")
        for msg in report["warnings"]:
            print(f"warning: {msg}")
    return EXIT_OK


# ------------------------------------------------------------------ main

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="PRNG seed (default 42)")
    common.add_argument("--json", metavar="PATH", help="write the JSON report here")
    common.add_argument("--quiet", action="store_true", help="suppress console summary")

    parser = argparse.ArgumentParser(
        prog="ndlinear",
        description="Factorized N-D linear layers: verification, benchmarks, "
                    "toy training, and adapter demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run the dense-equivalence and gradient oracle suite")
    p.add_argument("--seeds", type=int, default=12,
                   help="trials per config family (default 12)")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--max-dim", type=int, default=5)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", parents=[common],
                       help="parameter/FLOP counts and wall times vs dense baseline")
    p.add_argument("--in-dims", default="16,16,16")
    p.add_argument("--out-dims", default="16,16,16")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--bias", action="store_true", help="benchmark with per-mode biases")
    p.add_argument("--mem-cap-gib", type=float, default=1.0,
                   help="skip dense timing above this weight size (default 1 GiB)")
    p.add_argument("--csv", metavar="PATH", help="also write a one-row CSV")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("train", parents=[common],
                       help="train a model config on synthetic data")
    p.add_argument("--config", required=True, metavar="PATH",
                   help="model config JSON file")
    p.add_argument("--data", default="separable",
                   help="dataset spec, e.g. separable:d1=8,d2=8,n=320,sigma=0.05 "
                        "or blobs:features=11,n=1000")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--optimizer", choices=("sgd", "adam", "adamw"), default="adamw")
    p.add_argument("--log", metavar="PATH", help="write a JSON-lines training log")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("lora-demo", parents=[common],
                       help="adapter parameter counts and delta recovery")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--h", type=int, default=64)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--target", choices=("random-kron", "random-dense"),
                   default="random-kron")
    p.set_defaults(fn=cmd_lora_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
