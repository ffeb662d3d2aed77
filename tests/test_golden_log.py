"""``ndlinear train --log`` against records committed in ``tests/data/golden_train``.

Each record is compared field by field, exactly, except the wall clock
``epoch_wall_ns``. A change that claims to keep the training numbers must
keep these files as they are; one that changes them on purpose rewrites
them with ``python tests/test_golden_log.py`` and says why.
"""

import json
import sys
from pathlib import Path

import pytest

from ndlinear.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_train"
RUNS = {
    "separable": ("separable:d1=4,d2=4,h1=4,h2=4,n=200,sigma=0.05", "0.01"),
    "blobs": ("blobs:features=5,n=200,sep=3.0", "0.02"),
}
OPTIMIZERS = ("sgd", "adam", "adamw")


def _train_log(kind: str, optimizer: str, log_path: Path) -> list[dict]:
    data, lr = RUNS[kind]
    argv = ["train", "--config", str(GOLDEN / f"{kind}.json"), "--data", data,
            "--epochs", "3", "--lr", lr, "--optimizer", optimizer, "--seed", "7",
            "--log", str(log_path), "--quiet"]
    assert main(argv) == 0
    return [json.loads(line) for line in log_path.read_text().splitlines()]


def _without_wall_clock(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in rec.items() if k != "epoch_wall_ns"} for rec in records]


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("kind", sorted(RUNS))
def test_train_log_matches_the_golden_record(kind, optimizer, tmp_path):
    want = [json.loads(line)
            for line in (GOLDEN / f"{kind}_{optimizer}.jsonl").read_text().splitlines()]
    got = _train_log(kind, optimizer, tmp_path / "log.jsonl")
    assert len(want) == 3
    assert _without_wall_clock(got) == _without_wall_clock(want)


if __name__ == "__main__":  # rewrite the records from the current code
    for kind in RUNS:
        for optimizer in OPTIMIZERS:
            _train_log(kind, optimizer, GOLDEN / f"{kind}_{optimizer}.jsonl")
    sys.exit(0)
