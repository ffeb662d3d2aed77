import csv
import json

import numpy as np
import pytest

from ndlinear import cli
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


def write_config(tmp_path, config=MODEL_CONFIG):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    return path


class TestVerify:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--seeds", "3", "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["checks"]["equivalence"]["max_error"] < 1e-10
        assert report["checks"]["kronecker"]["max_error"] < 1e-12
        assert report["checks"]["gradient"]["max_error"] < 1e-6

    def test_one_seed_gives_one_trial_per_family(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--seeds", "1", "--json", str(out), "--quiet"]) == 0
        report = json.loads(out.read_text())
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
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["passed"] is False
        assert any(report["checks"][c]["failures"] > 0 for c in report["checks"])

    def test_json_round_trips(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", "--seeds", "1", "--json", str(out), "--quiet"])
        report = json.loads(out.read_text())
        assert json.loads(json.dumps(report)) == report

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_nonpositive_seeds_usage_error(self, tmp_path, capsys, seeds):
        out = tmp_path / "report.json"
        assert main(["verify", "--seeds", seeds, "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--seeds" in captured.err
        assert "PASS" not in captured.out
        assert not out.exists()


class TestBench:
    def test_degenerate_n1(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(["bench", "--in-dims", "4", "--out-dims", "4", "--batch", "2",
                     "--trials", "3", "--warmup", "1", "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
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
        report = json.loads(out.read_text())
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
        report = json.loads(out_json.read_text())
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == cli.CSV_COLUMNS
        assert row["in_dims"] == "2x3"
        assert int(row["param_count_nd"]) == report["param_count_nd"]
        assert int(row["flop_formula_nd"]) == report["flop_formula_nd"] == 336
        assert float(row["wall_ns_nd"]) == report["wall_ns_nd"]

    def test_json_round_trips(self, tmp_path):
        out = tmp_path / "bench.json"
        main(["bench", "--in-dims", "3", "--out-dims", "3", "--batch", "1",
              "--trials", "2", "--warmup", "0", "--json", str(out), "--quiet"])
        report = json.loads(out.read_text())
        assert json.loads(json.dumps(report)) == report

    def test_bad_dims_usage_error(self, capsys):
        assert main(["bench", "--in-dims", "banana", "--quiet"]) == 2
        assert "dims" in capsys.readouterr().err


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
        assert {"train_loss", "test_loss", "train_accuracy", "test_accuracy"} <= set(records[-1])

    def test_deterministic_logs(self, tmp_path):
        config = write_config(tmp_path)
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            code = main(["train", "--config", str(config),
                         "--data", "blobs:features=11,n=200",
                         "--epochs", "3", "--seed", "5",
                         "--log", str(tmp_path / name), "--quiet"])
            assert code == 0
            logs.append((tmp_path / name).read_bytes())
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

    def test_zero_epochs_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["train", "--config", str(config), "--data", "blobs:n=100",
                     "--epochs", "0", "--quiet"])
        assert code == 2
        assert "epochs" in capsys.readouterr().err

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


class TestLoraDemo:
    def test_param_counts_in_report(self, tmp_path):
        out = tmp_path / "lora.json"
        code = main(["lora-demo", "--d", "64", "--h", "64", "--rank", "8",
                     "--steps", "5", "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["param_counts"]["lora_params"] == 1024
        assert report["param_counts"]["ndlora_params"] == 128
        assert report["warnings"] == []
        assert len(report["loss_curve"]) == 5

    def test_prime_width_warns(self, tmp_path):
        out = tmp_path / "lora.json"
        code = main(["lora-demo", "--d", "7", "--h", "49", "--steps", "3",
                     "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert any("(1, 7)" in w for w in report["warnings"])
        assert report["param_counts"]["in_factors"] == [1, 7]

    def test_recovery_in_report(self, tmp_path):
        out = tmp_path / "lora.json"
        code = main(["lora-demo", "--d", "16", "--h", "16", "--rank", "4",
                     "--steps", "800", "--target", "random-kron",
                     "--json", str(out), "--quiet"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["recovery_rel_frobenius"] < 1e-3


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == 2

    def test_unknown_flag(self):
        assert main(["verify", "--frobnicate"]) == 2

    def test_help(self):
        assert main(["--help"]) == 0
