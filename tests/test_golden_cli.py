"""CLI ``--json`` reports against files committed in ``tests/data/golden_cli``.

Each report is compared byte for byte: these commands write no wall-clock
field, so a change that claims to keep their numbers must keep these files
as they are. One that changes them on purpose rewrites them with
``python tests/test_golden_cli.py`` and says why.
"""

import sys
from pathlib import Path

import pytest

from ndlinear.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_cli"
RUNS = {
    "verify_seeds2": ["verify", "--seeds", "2"],
    "lora_demo_d16_h16_steps20": ["lora-demo", "--d", "16", "--h", "16", "--steps", "20"],
}


def _report(name: str, path: Path) -> bytes:
    assert main([*RUNS[name], "--json", str(path), "--quiet"]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_json_report_matches_the_golden_file(name, tmp_path):
    assert _report(name, tmp_path / "report.json") == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":  # rewrite the files from the current code
    for name in RUNS:
        _report(name, GOLDEN / f"{name}.json")
    sys.exit(0)
