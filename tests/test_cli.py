import argparse
import csv
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ndlinear import cli, nn, oracle
from ndlinear import layer as layer_mod
from ndlinear.cli import main


MODEL_CONFIG = {
    "layers": [
        {"type": "ndlinear", "in": [11, 1], "out": [11, 64], "bias": True},
        {"type": "relu"},
        {"type": "dense", "in": 704, "out": 2},
    ],
    "loss": "cross_entropy",
}


REGRESSION_CONFIG = {
    "layers": [{"type": "ndlinear", "in": [8, 8], "out": [8, 8], "bias": True}],
    "loss": "mse",
}

_DATA_KEYS = {"separable": ("d1", "d2", "h1", "h2", "n", "sigma"),
              "blobs": ("features", "n", "sep")}


@st.composite
def data_specs(draw):
    """--data strings over the known keys with arbitrary values. Values
    that parse as ints are capped so every run stays small."""
    kind = draw(st.sampled_from(sorted(_DATA_KEYS)))
    keys = draw(st.lists(st.sampled_from(_DATA_KEYS[kind]), max_size=4))
    value = st.one_of(st.integers(-3, 40).map(str),
                      st.floats().map(repr),
                      st.text(st.characters(exclude_characters=","), max_size=6))
    items = []
    for key in keys:
        v = draw(value)
        try:
            v = str(min(int(v), 40 if key == "n" else 12))
        except ValueError:
            pass
        items.append(f"{key}={v}")
    return kind + (":" + ",".join(items) if items else "")


def write_config(tmp_path, config=MODEL_CONFIG):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    return path


def _no_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def read_report(path):
    """A JSON report, refusing the NaN and Infinity tokens that RFC 8259 lacks."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


def refuse(*args, **kwargs):
    raise AssertionError("the run started before its output paths were checked")


def output_path(tmp_path, name):
    """A path that cannot be written: in a missing directory, or a directory itself."""
    return tmp_path / name if name else tmp_path


def assert_one_line_usage_error(capsys, *parts):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for part in parts:
        assert part in err


class TestVerify:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--seeds", "3", "--json", str(out), "--quiet"])
        assert code == 0
        report = read_report(out)
        assert report["passed"] is True
        assert report["checks"]["equivalence"]["max_error"] < 1e-10
        assert report["checks"]["kronecker"]["max_error"] < 1e-12
        assert report["checks"]["gradient"]["max_error"] < 1e-6

    def test_seed_45_passes(self):
        # its gradient trial read 1.83e-6 when central differences used step 1e-5
        assert main(["verify", "--seeds", "1", "--seed", "45", "--quiet"]) == 0

    def test_one_seed_gives_one_trial_per_family(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--seeds", "1", "--json", str(out), "--quiet"]) == 0
        report = read_report(out)
        trials = report["checks"]["equivalence"]["trials"]
        families = [(t["n_modes"], t["with_bias"]) for t in trials]
        assert sorted(families) == sorted(
            (n, b) for n in (1, 2, 3, 4) for b in (False, True))

    def test_corrupted_build_fails(self, tmp_path, monkeypatch):
        original = layer_mod.forward_only

        def sign_flipped(lyr, x):
            return -original(lyr, x)

        monkeypatch.setattr(layer_mod, "forward_only", sign_flipped)
        code = main(["verify", "--seeds", "1", "--quiet",
                     "--json", str(tmp_path / "r.json")])
        assert code == 1
        report = read_report(tmp_path / "r.json")
        assert report["passed"] is False
        assert any(report["checks"][c]["failures"] > 0 for c in report["checks"])

    @pytest.mark.parametrize("check, mutate", [
        ("gradient", "backward"),
        ("equivalence", "forward_only"),
    ])
    def test_nan_output_fails_closed(self, tmp_path, monkeypatch, check, mutate):
        # a NaN error used to compare below every tolerance: verify printed PASS
        # for an all-NaN gradient, and a NaN forward_only ended in a traceback
        original = getattr(layer_mod, mutate)

        def nan_output(*args):
            out = original(*args)
            if mutate == "backward":
                out.d_weights[0] = np.full_like(out.d_weights[0], np.nan)
                return out
            return np.full_like(out, np.nan)

        monkeypatch.setattr(layer_mod, mutate, nan_output)
        out = tmp_path / "r.json"
        assert main(["verify", "--seeds", "1", "--quiet", "--json", str(out)]) == 1
        report = read_report(out)
        assert report["passed"] is False
        assert report["checks"][check]["max_error"] is None
        assert report["checks"][check]["failures"] == len(report["checks"][check]["trials"])

    def test_console_summary(self, capsys):
        assert main(["verify", "--seeds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:3]] == [
            ["equivalence", "ok:"], ["kronecker", "ok:"], ["gradient", "ok:"]]
        assert "8 trials, max error" in lines[0] and "(tol 1e-10)" in lines[0]
        assert lines[3:] == ["verify: PASS"]

    def test_console_names_failing_trials(self, capsys, monkeypatch):
        original = layer_mod.forward_only
        monkeypatch.setattr(layer_mod, "forward_only", lambda lyr, x: -original(lyr, x))
        assert main(["verify", "--seeds", "1"]) == 1
        captured = capsys.readouterr()
        assert "equivalence  FAILED: 8 trials" in captured.out
        assert captured.out.endswith("verify: FAIL\n")
        assert "failing equivalence trial: {'kind': 'equivalence'" in captured.err

    def test_unwritable_json_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        assert main(["verify", "--seeds", "1", "--quiet", "--json", str(path)]) == 2
        assert_one_line_usage_error(capsys, f"--json {path}")

    @pytest.mark.parametrize("name", ["missing/r.json", None])
    def test_unwritable_json_refused_before_the_trials(self, tmp_path, capsys, monkeypatch,
                                                       name):
        # every trial used to run before the write failed
        monkeypatch.setattr(oracle, "equivalence_trials", refuse)
        path = output_path(tmp_path, name)
        assert main(["verify", "--seeds", "1", "--quiet", "--json", str(path)]) == 2
        assert_one_line_usage_error(capsys, f"--json {path}: cannot write")

    def test_json_round_trips(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", "--seeds", "1", "--json", str(out), "--quiet"])
        report = read_report(out)
        assert json.loads(json.dumps(report)) == report

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_nonpositive_seeds_usage_error(self, tmp_path, capsys, seeds):
        out = tmp_path / "report.json"
        assert main(["verify", "--seeds", seeds, "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--seeds" in captured.err
        assert "PASS" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--max-rank", "0"],    # ran zero equivalence and Kronecker trials, then PASS
        ["--max-rank", "-2"],
        ["--max-dim", "0"],     # numpy ValueError: low >= high
        ["--max-rank", "9"],    # oracle.SizeCapError: 5 ** 18 entries
        ["--max-dim", "4097", "--max-rank", "1"],
        ["--max-dim", "2", "--max-rank", "1000000000000"],
    ])
    def test_range_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "report.json"
        assert main(["verify", *args, "--json", str(out)]) == 2
        assert_one_line_usage_error(capsys, "--max-rank", "--max-dim",
                                    f"{oracle.DEFAULT_SIZE_CAP}")
        assert not out.exists()

    @pytest.mark.parametrize("max_dim, max_rank, code", [
        (4096, 1, 0), (4097, 1, 2), (2, 12, 0), (2, 13, 2), (1, 12, 0), (1, 13, 2),
    ])
    def test_cap_is_max_dim_to_twice_max_rank(self, monkeypatch, max_dim, max_rank, code):
        # the range check alone: no trials run
        for name in ("equivalence_trials", "kronecker_trials", "gradient_trials"):
            monkeypatch.setattr(oracle, name, lambda *args: [])
        assert main(["verify", "--max-dim", str(max_dim), "--max-rank", str(max_rank),
                     "--quiet"]) == code

    def test_seed_selects_the_trials(self, tmp_path):
        def run(seed, name):
            out = tmp_path / name
            assert main(["verify", "--seeds", "1", "--max-rank", "2", "--max-dim", "3",
                         "--seed", seed, "--json", str(out), "--quiet"]) == 0
            return out

        a, again, b = run("7", "a.json"), run("7", "again.json"), run("8", "b.json")
        assert a.read_bytes() == again.read_bytes()
        report_a, report_b = read_report(a), read_report(b)
        assert report_a["config"]["seed"] == 7
        for check in ("equivalence", "kronecker", "gradient"):
            # the trials differ in what they draw, not only in their seed field
            drawn_a, drawn_b = ([{k: v for k, v in t.items() if k != "seed"}
                                 for t in report["checks"][check]["trials"]]
                                for report in (report_a, report_b))
            assert len(drawn_a) == len(drawn_b) and drawn_a != drawn_b

    def test_default_seed_runs_the_runners_default_trials(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--seeds", "1", "--max-rank", "2", "--max-dim", "3",
                     "--json", str(out), "--quiet"]) == 0
        want = [asdict(t) for t in oracle.kronecker_trials(1, 2, 3)]
        assert read_report(out)["checks"]["kronecker"]["trials"] == json.loads(json.dumps(want))


class TestBench:
    def test_formula_and_instrumented_counts_must_agree(self, monkeypatch):
        monkeypatch.setattr(layer_mod, "flop_count", lambda *args, **kwargs: 1)
        with pytest.raises(AssertionError,
                           match="instrumented count 4 disagrees with formula 1"):
            cli.run_bench((2,), (1,), 1, trials=1, warmup=0)

    def test_degenerate_n1(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(["bench", "--in-dims", "4", "--out-dims", "4", "--batch", "2",
                     "--trials", "3", "--warmup", "1", "--json", str(out), "--quiet"])
        assert code == 0
        report = read_report(out)
        assert report["param_count_nd"] == report["param_count_dense"] == 16
        assert report["flop_formula_nd"] == report["flop_dense"]
        assert report["flop_formula_nd"] == report["flop_instrumented_nd"]
        assert report["wall_ns_dense"] is not None

    def test_headline_config_skips_dense(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(["bench", "--in-dims", "32,32,32", "--out-dims", "32,32,32",
                     "--batch", "1", "--trials", "2", "--warmup", "0",
                     "--json", str(out), "--quiet"])
        assert code == 0
        report = read_report(out)
        assert report["param_count_nd"] == 3072
        assert report["param_count_dense"] == 1_073_741_824
        assert report["wall_ns_dense"] is None
        assert report["speedup"] is None
        assert report["flop_formula_nd"] == 6_291_456

    def test_csv_matches_json(self, tmp_path):
        out_json = tmp_path / "bench.json"
        out_csv = tmp_path / "bench.csv"
        main(["bench", "--in-dims", "2,3", "--out-dims", "4,5", "--batch", "2",
              "--trials", "3", "--warmup", "1", "--json", str(out_json),
              "--csv", str(out_csv), "--quiet"])
        report = read_report(out_json)
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == cli.CSV_COLUMNS
        assert row["in_dims"] == "2x3"
        assert int(row["param_count_nd"]) == report["param_count_nd"]
        assert int(row["flop_formula_nd"]) == report["flop_formula_nd"] == 280
        assert float(row["wall_ns_nd"]) == report["wall_ns_nd"]

    def test_json_round_trips(self, tmp_path):
        out = tmp_path / "bench.json"
        main(["bench", "--in-dims", "3", "--out-dims", "3", "--batch", "1",
              "--trials", "2", "--warmup", "0", "--json", str(out), "--quiet"])
        report = read_report(out)
        assert json.loads(json.dumps(report)) == report

    def test_json_names_the_environment(self, tmp_path):
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            pytest.skip("this numpy does not report its BLAS")
        out = tmp_path / "bench.json"
        main(["bench", "--in-dims", "3", "--out-dims", "3", "--batch", "1", "--trials", "2",
              "--warmup", "0", "--json", str(out), "--quiet"])
        assert read_report(out)["env"] == {
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "cpu_count": os.cpu_count(),
        }

    @pytest.mark.parametrize("show_config", [
        lambda: None,                                 # numpy < 1.26: no mode, TypeError
        lambda mode: {"Build Dependencies": {}},      # a build without a blas entry
    ])
    def test_json_environment_without_blas_report(self, tmp_path, monkeypatch, show_config):
        monkeypatch.setattr(np, "show_config", show_config)
        out = tmp_path / "bench.json"
        assert main(["bench", "--in-dims", "3", "--out-dims", "3", "--batch", "1",
                     "--trials", "2", "--warmup", "0", "--json", str(out), "--quiet"]) == 0
        assert read_report(out)["env"]["blas"] == {"name": None, "version": None}

    def test_bad_dims_usage_error(self, capsys):
        assert main(["bench", "--in-dims", "banana", "--quiet"]) == 2
        assert "dims" in capsys.readouterr().err

    @pytest.mark.parametrize("in_dims, out_dims, nbytes", [
        # a MemoryError before, as at 100000,100000; this size is past a
        # 47-bit address space, so no overcommit policy lets it through
        ("10000000,10000000", "1,1", "6,400,000,160,000,064"),
        # OverflowError: the element count overflows a platform word
        ("10000000000,10000000000", "1,1", "6,400,000,000,160,000,000,064"),
        # ValueError: array is too big
        ("3000000000", "3000000000", "72,000,000,384,000,000,000"),
    ])
    def test_unallocatable_layer_usage_error(self, capsys, in_dims, out_dims, nbytes):
        assert main(["bench", "--in-dims", in_dims, "--out-dims", out_dims, "--quiet"]) == 2
        assert_one_line_usage_error(
            capsys, f"--in-dims {in_dims} --out-dims {out_dims}: cannot allocate {nbytes} bytes")

    @pytest.mark.parametrize("cap", ["nan", "inf", "-1", "-0.5"])
    def test_mem_cap_must_be_finite_and_nonnegative(self, capsys, cap):
        # -1 used to skip the dense timing; nan and inf ended in tracebacks
        assert main(["bench", "--in-dims", "2", "--out-dims", "2",
                     f"--mem-cap-gib={cap}", "--quiet"]) == 2
        assert_one_line_usage_error(capsys, "--mem-cap-gib")

    def test_zero_mem_cap_skips_dense(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--in-dims", "2", "--out-dims", "2", "--trials", "1",
                     "--mem-cap-gib", "0", "--json", str(out), "--quiet"]) == 0
        assert read_report(out)["wall_ns_dense"] is None

    def test_mem_cap_past_float_range_in_bytes(self, tmp_path):
        # 1e300 GiB is a finite float, but 1e300 * 2**30 is not: int() of it raised
        out = tmp_path / "bench.json"
        assert main(["bench", "--in-dims", "2", "--out-dims", "2", "--trials", "1",
                     "--mem-cap-gib", "1e300", "--json", str(out), "--quiet"]) == 0
        assert read_report(out)["config"]["mem_cap_bytes"] == int(1e300) << 30

    def test_dense_weight_under_the_cap_counts_toward_the_bytes(self, capsys):
        # 2**46 x 2**46 dense entries fit a 2**90 GiB cap; the layer alone
        # (2**47 weights, 2**46 inputs and outputs) is past a 47-bit address space
        assert main(["bench", "--in-dims", "8388608,8388608", "--out-dims", "8388608,8388608",
                     "--batch", "1", "--mem-cap-gib", str(2.0**90), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, f"cannot allocate {8 * (2**92 + 2**48):,} bytes")

    def test_console_summary(self, capsys):
        assert main(["bench", "--in-dims", "2,3", "--out-dims", "4,5", "--bias",
                     "--trials", "2", "--warmup", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == ["params:      32 (factorized) vs 140 (dense)",
                             "flops:       1120 formula, 1120 instrumented, 1920 dense",
                             "mode order:  2,1"]
        assert lines[3].startswith("wall ns:") and lines[3].endswith("(dense)")
        assert lines[4].startswith("speedup:") and lines[4].endswith("x")

    def test_console_summary_without_dense_timing(self, capsys):
        assert main(["bench", "--in-dims", "2", "--out-dims", "2", "--trials", "1",
                     "--mem-cap-gib", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].endswith("n/a (dense above memory cap)")
        assert len(lines) == 4  # no speedup line

    @pytest.mark.parametrize("option", ["--json", "--csv"])
    def test_unwritable_output_usage_error(self, tmp_path, capsys, option):
        path = tmp_path / "missing" / "bench.out"
        assert main(["bench", "--in-dims", "2", "--out-dims", "2", "--trials", "1",
                     option, str(path), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, f"{option} {path}")

    @pytest.mark.parametrize("option", ["--json", "--csv"])
    @pytest.mark.parametrize("name", ["missing/bench.out", None])
    def test_unwritable_output_refused_before_the_run(self, tmp_path, capsys, monkeypatch,
                                                      option, name):
        monkeypatch.setattr(cli, "run_bench", refuse)
        path = output_path(tmp_path, name)
        assert main(["bench", "--in-dims", "2", "--out-dims", "2", option, str(path)]) == 2
        assert_one_line_usage_error(capsys, f"{option} {path}: cannot write")

    def test_rank_mismatch_usage_error(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--in-dims", "2,2", "--out-dims", "2",
                     "--json", str(out)]) == 2
        assert "--out-dims" in capsys.readouterr().err
        assert not out.exists()

    def test_skewed_layer_reports_planned_order(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--in-dims", "16,256", "--out-dims", "64,4", "--bias",
                     "--batch", "2", "--trials", "2", "--warmup", "0",
                     "--json", str(out), "--quiet"]) == 0
        report = read_report(out)
        assert report["mode_order"] == [2, 1]
        assert report["flop_formula_nd"] == report["flop_instrumented_nd"] \
            == 2 * 2 * (16 * 256 * 4 + 4 * 16 * 64)


class TestTrain:
    def test_tabular_classifier_runs(self, tmp_path):
        config = write_config(tmp_path)
        log = tmp_path / "log.jsonl"
        code = main(["train", "--config", str(config),
                     "--data", "blobs:features=11,n=500",
                     "--epochs", "40", "--batch-size", "32", "--lr", "0.001",
                     "--seed", "7", "--log", str(log), "--quiet"])
        assert code == 0
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 40
        assert records[0]["epoch"] == 1
        assert {"train_loss", "test_loss", "train_accuracy", "test_accuracy",
                "epoch_wall_ns"} <= set(records[-1])
        for rec in records:
            assert type(rec["epoch_wall_ns"]) is int and rec["epoch_wall_ns"] > 0

    def test_deterministic_logs(self, tmp_path):
        config = write_config(tmp_path)
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            code = main(["train", "--config", str(config),
                         "--data", "blobs:features=11,n=200",
                         "--epochs", "3", "--seed", "5",
                         "--log", str(tmp_path / name), "--quiet"])
            assert code == 0
            lines = (tmp_path / name).read_text().splitlines()
            # every field but the wall clock repeats exactly
            logs.append([json.dumps({k: v for k, v in json.loads(line).items()
                                     if k != "epoch_wall_ns"}, sort_keys=True)
                         for line in lines])
        assert logs[0] == logs[1]

    def test_regression_pipeline(self, tmp_path):
        config = write_config(tmp_path, {
            "layers": [{"type": "ndlinear", "in": [4, 4], "out": [4, 4],
                        "bias": False}],
            "loss": "mse",
        })
        code = main(["train", "--config", str(config),
                     "--data", "separable:d1=4,d2=4,h1=4,h2=4,n=100,sigma=0.0",
                     "--epochs", "2", "--optimizer", "adam", "--lr", "0.01",
                     "--log", str(tmp_path / "log.jsonl"), "--quiet"])
        assert code == 0

    def test_console_summary(self, tmp_path, capsys):
        config = write_config(tmp_path, REGRESSION_CONFIG)
        assert main(["train", "--config", str(config), "--data", "separable:n=40",
                     "--epochs", "2"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("epoch 2  train_loss ") and "  test_loss " in line
        assert "acc" not in line

    def test_console_summary_with_accuracy(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config), "--data", "blobs:n=100",
                     "--epochs", "1"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("epoch 1  train_loss ")
        assert "  train_acc " in line and "  test_acc " in line

    def test_diverged_epoch_exits_1_without_log(self, tmp_path, capsys):
        # one batch per epoch, so every batch loss is finite; the log used to
        # record "train_loss": Infinity and the run exit 0
        config = write_config(tmp_path, REGRESSION_CONFIG)
        log, report = tmp_path / "log.jsonl", tmp_path / "r.json"
        assert main(["train", "--config", str(config), "--epochs", "1",
                     "--data", "separable:n=40", "--optimizer", "sgd", "--lr", "1e100",
                     "--log", str(log), "--json", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("training diverged: non-finite epoch loss at epoch 1")
        assert err.count("\n") == 1 and "Warning" not in err
        assert not log.exists() and not report.exists()

    def test_json_report_holds_settings_and_log(self, tmp_path):
        config = write_config(tmp_path, REGRESSION_CONFIG)
        log, report = tmp_path / "log.jsonl", tmp_path / "r.json"
        assert main(["train", "--config", str(config), "--data", "separable:n=40",
                     "--epochs", "2", "--seed", "3", "--log", str(log),
                     "--json", str(report), "--quiet"]) == 0
        written = read_report(report)
        assert written["config"] == {
            "config": str(config), "data": "separable:n=40", "epochs": 2, "batch_size": 32,
            "lr": 1e-3, "split": 0.8, "optimizer": "adamw", "seed": 3}
        assert written["log"] == [json.loads(line) for line in log.read_text().splitlines()]
        assert [rec["epoch"] for rec in written["log"]] == [1, 2]

    @pytest.mark.parametrize("option", ["--json", "--log"])
    def test_unwritable_output_usage_error(self, tmp_path, capsys, option):
        config = write_config(tmp_path, REGRESSION_CONFIG)
        path = tmp_path / "missing" / "out"
        assert main(["train", "--config", str(config), "--data", "separable:n=40",
                     "--epochs", "1", option, str(path), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, f"{option} {path}")

    @pytest.mark.parametrize("option", ["--json", "--log"])
    @pytest.mark.parametrize("name", ["missing/out", None])
    def test_unwritable_output_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                       option, name):
        # a 40-epoch run used to train in full before the write failed
        monkeypatch.setattr(nn, "train", refuse)
        config = write_config(tmp_path, REGRESSION_CONFIG)
        path = output_path(tmp_path, name)
        assert main(["train", "--config", str(config), "--data", "separable:n=40",
                     option, str(path), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, f"{option} {path}: cannot write")

    def test_unwritable_log_leaves_no_report(self, tmp_path, capsys):
        config = write_config(tmp_path, REGRESSION_CONFIG)
        report = tmp_path / "r.json"
        assert main(["train", "--config", str(config), "--data", "separable:n=40",
                     "--epochs", "1", "--json", str(report),
                     "--log", str(tmp_path / "missing" / "log.jsonl"), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, "--log")
        assert not report.exists()

    def test_optimizer_choices_are_the_optimizer_table(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        (action,) = [a for a in sub.choices["train"]._actions if a.dest == "optimizer"]
        assert action.choices is nn.OPTIMIZERS

    def test_non_utf8_config_usage_error(self, tmp_path, capsys):
        # ended in a UnicodeDecodeError traceback, exit 1
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["train", "--config", str(path), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, f"--config {path}: cannot read config")

    @pytest.mark.parametrize("dims", [[2**40, 2**40], [3037000499]])
    def test_unallocatable_model_usage_error(self, tmp_path, capsys, dims):
        # an OverflowError from validate_shape and numpy's "array is too big"
        # ValueError, both raised before any allocation, ended in tracebacks
        config = write_config(tmp_path, {
            "layers": [{"type": "ndlinear", "in": dims, "out": dims}], "loss": "mse"})
        assert main(["train", "--config", str(config), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, f"--config {config}: cannot allocate the model")

    def test_model_past_memory_usage_error(self, tmp_path, capsys, monkeypatch):
        # a dense 100000 -> 100000000 layer (72.8 TiB) raised MemoryError; the
        # allocation is stubbed so that no machine is asked for the memory
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 72.8 TiB")

        monkeypatch.setattr(nn, "init_dense", out_of_memory)
        config = write_config(tmp_path, {
            "layers": [{"type": "dense", "in": 100000, "out": 100000000}], "loss": "mse"})
        assert main(["train", "--config", str(config), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, f"--config {config}: cannot allocate the model",
                                    "72.8 TiB")

    def test_unreadable_config_usage_error(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["train", "--config", str(path), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, "cannot read config", str(path))

    def test_unknown_data_key_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, REGRESSION_CONFIG)
        assert main(["train", "--config", str(config), "--data", "separable:width=3",
                     "--quiet"]) == 2
        assert_one_line_usage_error(capsys, "bad data option 'width=3' for separable",
                                    "known keys")

    def test_zero_epochs_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["train", "--config", str(config), "--data", "blobs:n=100",
                     "--epochs", "0", "--quiet"])
        assert code == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["0", "1", "inf", "nan"])
    def test_split_outside_unit_interval_usage_error(self, tmp_path, capsys, split):
        # --split inf reached round() and ended in an OverflowError traceback
        config = write_config(tmp_path, REGRESSION_CONFIG)
        assert main(["train", "--config", str(config), "--split", split, "--quiet"]) == 2
        assert_one_line_usage_error(capsys, "--split")

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.01"])
    def test_lr_must_be_finite_and_positive(self, tmp_path, capsys, lr):
        config = write_config(tmp_path, REGRESSION_CONFIG)
        log = tmp_path / "log.jsonl"
        assert main(["train", "--config", str(config), f"--lr={lr}", "--epochs", "1",
                     "--log", str(log), "--quiet"]) == 2
        assert_one_line_usage_error(capsys, "--lr")
        assert not log.exists()

    def test_config_syntax_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "layers": [,]\n}\n')
        code = main(["train", "--config", str(bad), "--data", "blobs:n=100",
                     "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.json:2" in err

    def test_config_schema_error_reports_field(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "layers": [{"type": "warp", "in": [2], "out": [2]}],
            "loss": "mse",
        })
        code = main(["train", "--config", str(config), "--data", "blobs:n=100",
                     "--quiet"])
        assert code == 2
        assert "layers[0].type" in capsys.readouterr().err

    @pytest.mark.parametrize("layer, field", [
        ({"type": "ndlinear", "in": [True, 8], "out": [8, 8]}, "layers[0].in"),
        ({"type": "dense", "in": 64, "out": True}, "layers[0].out"),
    ])
    def test_bool_dims_usage_error(self, tmp_path, capsys, layer, field):
        # the dense case used to end in a TypeError traceback
        config = write_config(tmp_path, {"layers": [layer], "loss": "mse"})
        assert main(["train", "--config", str(config), "--data", "separable:n=20",
                     "--epochs", "1", "--quiet"]) == 2
        assert_one_line_usage_error(capsys, field)

    def test_loss_data_mismatch(self, tmp_path, capsys):
        config = write_config(tmp_path)  # cross_entropy model
        code = main(["train", "--config", str(config),
                     "--data", "separable:n=100", "--quiet"])
        assert code == 2
        assert "does not fit" in capsys.readouterr().err

    def test_unknown_data_kind(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["train", "--config", str(config), "--data", "mnist",
                     "--quiet"]) == 2

    @pytest.mark.parametrize("spec, key", [
        ("separable:n=abc", "n"),
        ("separable:n=-5", "n"),
        ("separable:n=0", "n"),
        ("separable:d1=1.5", "d1"),
        ("separable:h2=0", "h2"),
        ("separable:sigma=-0.1", "sigma"),
        ("separable:sigma=nan", "sigma"),
        ("separable:sigma=inf", "sigma"),
        ("separable:sigma=", "sigma"),
        ("blobs:features=0", "features"),
        ("blobs:n=1e3", "n"),
        ("blobs:sep=-inf", "sep"),
        ("blobs:sep=four", "sep"),
    ])
    def test_bad_data_value_usage_error(self, tmp_path, capsys, spec, key):
        config = write_config(tmp_path, REGRESSION_CONFIG)
        assert main(["train", "--config", str(config), "--data", spec,
                     "--epochs", "1", "--quiet"]) == 2
        assert f"data option {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["separable:n=1", "separable:d1=4", "separable:h1=3"])
    def test_data_that_cannot_train_usage_error(self, tmp_path, capsys, spec):
        config = write_config(tmp_path, REGRESSION_CONFIG)
        assert main(["train", "--config", str(config), "--data", spec,
                     "--epochs", "1", "--quiet"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fewer_logits_than_classes_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "layers": [{"type": "ndlinear", "in": [11, 1], "out": [1, 1]},
                       {"type": "dense", "in": 1, "out": 1}],
            "loss": "cross_entropy",
        })
        assert main(["train", "--config", str(config), "--data", "blobs",
                     "--epochs", "1", "--quiet"]) == 2
        assert "model emits 1 logits but the data has 2 classes" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, requested", [
        ("separable:n=1000000000000000", "512,000,000,000,000,000 bytes"),
        ("blobs:n=1000000000000000", "88,000,000,000,000,000 bytes"),
    ])
    def test_unallocatable_data_usage_error(self, tmp_path, capsys, spec, requested):
        # numpy refuses allocations this large before touching any memory
        config = write_config(tmp_path,
                              MODEL_CONFIG if spec.startswith("blobs") else REGRESSION_CONFIG)
        assert main(["train", "--config", str(config), "--data", spec,
                     "--epochs", "1", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"--data {spec}: cannot allocate {requested}" in err

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=data_specs())
    def test_any_data_spec_exits_cleanly(self, tmp_path, spec):
        config = write_config(tmp_path,
                              MODEL_CONFIG if spec.startswith("blobs") else REGRESSION_CONFIG)
        code = main(["train", "--config", str(config), "--data", spec,
                     "--epochs", "1", "--quiet"])
        assert code in (0, 1, 2)


class TestLoraDemo:
    def test_console_reports_the_recovery_error(self, capsys):
        assert main(["lora-demo", "--d", "16", "--h", "16", "--steps", "20"]) == 0
        out = capsys.readouterr().out
        assert "trainable params: LoRA r=8: 256, factorized: 32" in out
        assert "recovery rel Frobenius error: " in out and "(random-kron, 20 steps)" in out

    def test_param_counts_in_report(self, tmp_path):
        out = tmp_path / "lora.json"
        code = main(["lora-demo", "--d", "64", "--h", "64", "--rank", "8",
                     "--steps", "5", "--json", str(out), "--quiet"])
        assert code == 0
        report = read_report(out)
        assert report["param_counts"]["lora_params"] == 1024
        assert report["param_counts"]["ndlora_params"] == 128
        assert report["warnings"] == []
        assert len(report["loss_curve"]) == 5

    def test_prime_width_warns(self, tmp_path):
        out = tmp_path / "lora.json"
        code = main(["lora-demo", "--d", "7", "--h", "49", "--steps", "3",
                     "--json", str(out), "--quiet"])
        assert code == 0
        report = read_report(out)
        assert any("(1, 7)" in w for w in report["warnings"])
        assert report["param_counts"]["in_factors"] == [1, 7]

    def test_recovery_in_report(self, tmp_path):
        out = tmp_path / "lora.json"
        code = main(["lora-demo", "--d", "16", "--h", "16", "--rank", "4",
                     "--steps", "800", "--target", "random-kron",
                     "--json", str(out), "--quiet"])
        assert code == 0
        report = read_report(out)
        assert report["recovery_rel_frobenius"] < 1e-3

    @pytest.mark.parametrize("args, nbytes", [
        # a MemoryError before (at --h 64 too; a larger --h keeps the base past
        # a 47-bit address space, so no overcommit policy lets it through)
        (["--d", "100000000", "--h", "100000000"], "560,000,000,000,000,000"),
        # a prime width: the base must fail before ~3.8e8 factor trials
        (["--d", "1", "--h", "144115188075855859"], "5,764,607,523,034,234,376"),
    ])
    def test_unallocatable_usage_error(self, capsys, args, nbytes):
        assert main(["lora-demo", *args, "--steps", "1", "--quiet"]) == 2
        assert_one_line_usage_error(capsys, f"--d {args[1]}", f"cannot allocate {nbytes} bytes")

    @pytest.mark.parametrize("flag", ["--d", "--h", "--rank"])
    def test_nonpositive_size_usage_error(self, capsys, flag):
        assert main(["lora-demo", flag, "0", "--quiet"]) == 2
        assert_one_line_usage_error(capsys, flag)

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_nonpositive_steps_usage_error(self, tmp_path, capsys, steps):
        # exited 0 with a null final loss: nothing was fitted
        out = tmp_path / "lora.json"
        assert main(["lora-demo", "--steps", steps, "--d", "4", "--h", "4",
                     "--json", str(out)]) == 2
        assert_one_line_usage_error(capsys, "--steps")
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0", "-0.05"])
    def test_lr_must_be_finite_and_positive(self, tmp_path, capsys, lr):
        # --lr nan used to exit 0 and write bare NaN tokens
        out = tmp_path / "lora.json"
        assert main(["lora-demo", f"--lr={lr}", "--d", "4", "--h", "4", "--steps", "2",
                     "--json", str(out)]) == 2
        assert_one_line_usage_error(capsys, "--lr")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_diverged_fit_writes_null_and_exits_1(self, tmp_path, capsys):
        out = tmp_path / "lora.json"
        assert main(["lora-demo", "--lr", "1e300", "--steps", "50", "--d", "4", "--h", "4",
                     "--json", str(out)]) == 1
        report = read_report(out)
        assert report["final_loss"] is None and report["recovery_rel_frobenius"] is None
        assert len(report["loss_curve"]) == 50 and None in report["loss_curve"]
        assert all(v is None or math.isfinite(v) for v in report["loss_curve"])
        assert "non-finite" in capsys.readouterr().err


def mostly(valid, other):
    """Draws from ``valid`` three times in four, else from ``other``."""
    return st.tuples(st.integers(0, 3), valid, other).map(
        lambda t: t[2] if t[0] == 0 else t[1])


# Sizes are small, or so large (>= 2**45 elements, past a 47-bit address
# space) that numpy turns the allocation away before touching memory.
# Sizes in between would really allocate, so none are drawn.
HUGE = st.integers(2**45, 2**64)


def sizes(hi):
    return mostly(st.integers(1, hi), st.one_of(st.integers(-1, 0), HUGE))


def dim_list(n):
    return mostly(st.lists(st.integers(1, 3), min_size=n, max_size=n),
                  st.lists(st.one_of(st.integers(0, 3), HUGE), min_size=1, max_size=3)
                  ).map(lambda ds: ",".join(map(str, ds)))


# train's --config, in argvs' draws: a name that the test maps to a file it wrote
TRAIN_CONFIGS = {"config:separable": REGRESSION_CONFIG, "config:blobs": MODEL_CONFIG}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["verify", "bench", "lora-demo", "train"]))
    argv = [command, "--quiet", f"--seed={draw(mostly(st.integers(0, 3), st.just(-1)))}"]
    if command == "verify":
        argv += [f"--seeds={draw(mostly(st.just(1), st.integers(-1, 0)))}",
                 f"--max-dim={draw(sizes(4))}", f"--max-rank={draw(sizes(2))}"]
    elif command == "bench":
        n = draw(st.integers(1, 3))
        malformed = st.sampled_from(["", "x", "1,,2", "2.5"])
        argv += [f"--in-dims={draw(mostly(dim_list(n), malformed))}",
                 f"--out-dims={draw(mostly(dim_list(n), malformed))}",
                 f"--batch={draw(sizes(3))}",
                 f"--trials={draw(mostly(st.integers(1, 2), st.integers(-1, 0)))}",
                 f"--warmup={draw(mostly(st.integers(0, 1), st.just(-1)))}",
                 f"--mem-cap-gib={draw(mostly(st.floats(0, 1), st.floats()))!r}"]
        if draw(st.booleans()):
            argv.append("--bias")
    elif command == "train":
        small = st.builds("{}:n={}".format, st.sampled_from(sorted(_DATA_KEYS)),
                          st.integers(10, 40))
        spec = draw(mostly(small, data_specs()))
        fits = f"config:{spec.partition(':')[0]}"
        malformed = st.sampled_from(["", "x", "1.5", "0", "-1"])
        argv += ["--config", draw(mostly(st.just(fits), st.sampled_from(sorted(TRAIN_CONFIGS)))),
                 f"--data={spec}",
                 f"--epochs={draw(mostly(st.integers(1, 2).map(str), malformed))}",
                 f"--batch-size={draw(mostly(sizes(64).map(str), malformed))}",
                 f"--split={draw(mostly(st.floats(0.1, 0.9), st.floats()))!r}",
                 f"--lr={draw(mostly(st.floats(1e-3, 0.1), st.floats()))!r}"]
    else:
        argv += [f"--d={draw(sizes(6))}", f"--h={draw(sizes(6))}", f"--rank={draw(sizes(3))}",
                 f"--steps={draw(st.integers(-1, 2))}",
                 f"--lr={draw(mostly(st.floats(1e-3, 0.1), st.floats()))!r}",
                 f"--target={draw(st.sampled_from(['random-kron', 'random-dense']))}"]
    return argv


@pytest.fixture(scope="module")
def train_configs(tmp_path_factory):
    return {name: str(write_config(tmp_path_factory.mktemp("config"), config))
            for name, config in TRAIN_CONFIGS.items()}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # e.g. --lr inf overflows
@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_every_command_exits_cleanly(train_configs, argv):
    assert main([train_configs.get(arg, arg) for arg in argv]) in (0, 1, 2)


class TestUsage:
    def test_a_failed_write_is_a_usage_error(self, tmp_path, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli.Path, "write_text", full_disk)
        with pytest.raises(cli.UsageError,
                           match=r"--json .*r\.json: cannot write: No space left on device"):
            cli._write("--json", str(tmp_path / "r.json"), "{}")

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["verify", "--frobnicate"]) == 2

    def test_help(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv", [
        ["bench", "--in-dims", "2", "--out-dims", "2"],
        ["lora-demo", "--d", "4", "--h", "4", "--steps", "1"],
        ["verify", "--seeds", "1"],
    ])
    def test_negative_seed_usage_error(self, capsys, argv):
        # bench and lora-demo ended in numpy's "expected non-negative integer"
        assert main([*argv, "--seed", "-1", "--quiet"]) == 2
        assert_one_line_usage_error(capsys, "--seed")
