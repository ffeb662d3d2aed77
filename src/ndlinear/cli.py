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
import io
import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import layer as layer_mod
from . import lora, nn, oracle
from .tensor import INDEX_MAX, FlopCounter, make_rng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

EQUIVALENCE_TOL = 1e-10
KRONECKER_TOL = 1e-12
GRADIENT_TOL = 1e-9


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


def _write(option: str, path: str | None, text: str) -> None:
    """Write ``text`` to the path given with ``option``, if any; a path that
    cannot be written is a usage error naming both."""
    if not path:
        return
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise UsageError(f"{option} {path}: cannot write: {exc.strerror or exc}")


def _check_writable(option: str, path: str | None) -> None:
    """Refuse an output path before the run, creating no file: it must not be a
    directory, and its parent must be a directory the process can write to."""
    parent = Path(path or ".").parent
    if path and (Path(path).is_dir() or not (parent.is_dir() and os.access(parent, os.W_OK))):
        raise UsageError(f"{option} {path}: cannot write: not a file in a writable directory")


def _write_json(path: str | None, payload: dict) -> None:
    # JSON has no NaN or Infinity (RFC 8259), so non-finite floats are written as null
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    _write("--json", path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextmanager
def _allocating(option: str, nbytes: int, purpose: str):
    """Run a block that allocates ``nbytes``; if it cannot, raise a usage error naming
    ``option``. numpy turns away sizes past the address space or the machine at once."""
    error = UsageError(f"{option}: cannot allocate {nbytes:,} bytes for {purpose}")
    if nbytes > INDEX_MAX:
        raise error
    try:
        yield
    except MemoryError:
        raise error from None


# ---------------------------------------------------------------- verify

def _check_block(trials, tolerance: float) -> dict:
    failures = [asdict(t) for t in trials if t.max_error >= tolerance]
    return {
        "tolerance": tolerance,
        "trials": [asdict(t) for t in trials],
        "max_error": max((t.max_error for t in trials), default=0.0),
        "failures": len(failures),
        "failing_trials": failures,
    }


def cmd_verify(args) -> int:
    # max_dim ** (2 max_rank) bounds a trial's dense-map entries; max_dim is floored at 2
    # to bound the rank at --max-dim 1 too, and an exponent of cap.bit_length() is past the cap
    cap = oracle.DEFAULT_SIZE_CAP
    if (min(args.seeds, args.max_rank, args.max_dim) < 1
            or max(args.max_dim, 2) ** min(2 * args.max_rank, cap.bit_length()) > cap):
        raise UsageError(f"need --seeds, --max-rank and --max-dim >= 1, and max(max_dim, 2) "
                         f"** (2 max_rank) <= {cap}, the oracle's cap on dense-map entries; "
                         f"got {args.seeds}, {args.max_rank} and {args.max_dim}")
    checks = {
        "equivalence": _check_block(
            oracle.equivalence_trials(args.seeds, args.max_rank, args.max_dim, args.seed),
            EQUIVALENCE_TOL),
        "kronecker": _check_block(
            oracle.kronecker_trials(args.seeds, args.max_rank, args.max_dim, args.seed),
            KRONECKER_TOL),
        "gradient": _check_block(
            oracle.gradient_trials(args.seeds * 2, args.seed), GRADIENT_TOL),
    }
    passed = all(block["failures"] == 0 for block in checks.values())
    report = {
        "config": {"seeds": args.seeds, "max_rank": args.max_rank,
                   "max_dim": args.max_dim, "seed": args.seed},
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
            layer_mod.effective_bias(lyr).reshape(-1), lyr.out_dims)
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


def _write_csv(path: str | None, report: BenchReport) -> None:
    """One row of ``CSV_COLUMNS`` from the report and its config: dims
    joined with x, and empty cells where the JSON has null."""
    fields = {**asdict(report), **report.config}
    row = {}
    for column in CSV_COLUMNS:
        value = fields[column]
        if isinstance(value, list):
            value = "x".join(str(d) for d in value)
        row[column] = "" if value is None else value
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerow(row)
    _write("--csv", path, text.getvalue())


def cmd_bench(args) -> int:
    in_dims = _parse_dims(args.in_dims)
    out_dims = _parse_dims(args.out_dims)
    if len(in_dims) != len(out_dims):
        raise UsageError(f"--in-dims has {len(in_dims)} modes but --out-dims has "
                         f"{len(out_dims)}; give one output dim per input dim")
    if (args.batch < 1 or args.trials < 1 or args.warmup < 0
            or not (math.isfinite(args.mem_cap_gib) and args.mem_cap_gib >= 0)):
        raise UsageError("need --batch >= 1, --trials >= 1, --warmup >= 0 "
                         "and a finite --mem-cap-gib >= 0")
    mem_cap_bytes = int(args.mem_cap_gib * (1 << 30))
    # the weights, input and output, and the dense weight if it is timed
    dense_bytes = 8 * math.prod(in_dims) * math.prod(out_dims)
    nbytes = (8 * sum(d * h for d, h in zip(in_dims, out_dims))
              + 8 * args.batch * (math.prod(in_dims) + math.prod(out_dims))
              + (dense_bytes if dense_bytes <= mem_cap_bytes else 0))
    with _allocating(f"--in-dims {args.in_dims} --out-dims {args.out_dims}", nbytes,
                     f"the layer and a batch of {args.batch}"):
        report = run_bench(in_dims, out_dims, args.batch, args.trials, args.warmup,
                           args.seed, args.bias, mem_cap_bytes)
    _write_json(args.json, asdict(report))
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
    features = opts["d1"] * opts["d2"] if kind == "separable" else opts["features"]
    try:
        with _allocating(f"--data {text}", 8 * opts["n"] * features,
                         f"{opts['n']:,} samples of {features:,} float64 features"):
            if kind == "separable":
                return nn.gen_separable_regression(
                    rng, opts["n"], (opts["d1"], opts["d2"]), (opts["h1"], opts["h2"]),
                    noise_sigma=opts["sigma"], split=split)
            return nn.gen_blob_classification(
                rng, opts["n"], features=opts["features"], sep=opts["sep"], split=split)
    except ValueError as exc:  # a split that leaves no train or no test samples
        raise UsageError(f"--data {text}: {exc}")


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
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"--config {args.config}: cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}")

    if not 0 < args.split < 1:
        raise UsageError(f"need 0 < --split < 1, got {args.split}")
    try:
        train_config = nn.TrainConfig(epochs=args.epochs, batch_size=args.batch_size)
    except ValueError as exc:
        raise UsageError(str(exc))

    rng = make_rng(args.seed)
    try:
        model = nn.build_model(config, rng)
    except nn.ConfigError as exc:
        raise UsageError(f"--config {args.config}: {exc}")
    except (OverflowError, ValueError, MemoryError) as exc:  # too large to index or allocate
        raise UsageError(f"--config {args.config}: cannot allocate the model: {exc}")

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

    optimizer = nn.OPTIMIZERS[args.optimizer](args.lr)

    try:
        # an overflow ends in a non-finite loss, which TrainingDiverged reports on one line
        with np.errstate(over="ignore", invalid="ignore"):
            result = nn.train(model, data, train_config, optimizer, rng)
    except nn.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED

    settings = {key: vars(args)[key] for key in
                ("config", "data", "epochs", "batch_size", "lr", "split", "optimizer", "seed")}
    _write_json(args.json, {"config": settings, "log": result.log})
    _write("--log", args.log, "".join(json.dumps(rec, sort_keys=True) + "\n"
                                       for rec in result.log))
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
    if min(args.d, args.h, args.rank, args.steps) < 1:
        raise UsageError("need --d, --h, --rank and --steps >= 1")
    import warnings as _warnings
    # the 2d x d inputs, the 2d x h targets and three d x h maps
    nbytes = 8 * args.d * (2 * args.d + 5 * args.h)
    with (_allocating(f"--d {args.d} --h {args.h}", nbytes, "the demo's data and weights"),
          _warnings.catch_warnings(record=True) as caught):
        _warnings.simplefilter("always")
        report = lora.recovery_experiment(args.d, args.h, args.rank, args.seed,
                                          args.steps, args.lr, args.target)
    report["warnings"] = [str(w.message) for w in caught]
    # a fit that went non-finite writes null in place of those values, and exits 1
    diverged = not all(map(math.isfinite,
                           [*report["loss_curve"], report["recovery_rel_frobenius"]]))
    _write_json(args.json, report)
    if not args.quiet:
        counts = report["param_counts"]
        print(f"trainable params: LoRA r={args.rank}: {counts['lora_params']}, "
              f"factorized: {counts['ndlora_params']} "
              f"(ratio {counts['ratio']:.2f}x)")
        if not diverged:
            print(f"recovery rel Frobenius error: {report['recovery_rel_frobenius']:.3e} "
                  f"({args.target}, {args.steps} steps)")
        for msg in report["warnings"]:
            print(f"warning: {msg}")
    if diverged:
        print(f"lora-demo: the fit went non-finite at --lr {args.lr}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ------------------------------------------------------------------ main

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the JSON report here")
    common.add_argument("--quiet", action="store_true", help="suppress console summary")

    def add_parser(name, seed=42, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.add_argument("--seed", type=int, default=seed, help=f"PRNG seed (default {seed})")
        return p

    parser = argparse.ArgumentParser(
        prog="ndlinear",
        description="Factorized N-D linear layers: verification, benchmarks, "
                    "toy training, and adapter demos.")
    sub = parser.add_subparsers(dest="command", required=True)

    # verify's trial seeds start at --seed; 0 runs the oracle runners' default trials
    p = add_parser("verify", seed=0,
                   help="run the dense-equivalence and gradient oracle suite")
    p.add_argument("--seeds", type=int, default=12,
                   help="trials per config family (default 12)")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--max-dim", type=int, default=5)
    p.set_defaults(fn=cmd_verify)

    p = add_parser("bench", help="parameter/FLOP counts and wall times vs dense baseline")
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

    p = add_parser("train", help="train a model config on synthetic data")
    p.add_argument("--config", required=True, metavar="PATH",
                   help="model config JSON file")
    p.add_argument("--data", default="separable",
                   help="dataset spec, e.g. separable:d1=8,d2=8,n=320,sigma=0.05 "
                        "or blobs:features=11,n=1000")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--optimizer", choices=nn.OPTIMIZERS, default="adamw")
    p.add_argument("--log", metavar="PATH", help="write a JSON-lines training log")
    p.set_defaults(fn=cmd_train)

    p = add_parser("lora-demo", help="adapter parameter counts and delta recovery")
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
        if args.seed < 0:
            raise UsageError(f"need --seed >= 0, got {args.seed}")
        lr = vars(args).get("lr")  # train and lora-demo
        if lr is not None and not (math.isfinite(lr) and lr > 0):
            raise UsageError(f"need a finite --lr > 0, got {lr}")
        for option in ("json", "csv", "log"):
            _check_writable(f"--{option}", vars(args).get(option))
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
