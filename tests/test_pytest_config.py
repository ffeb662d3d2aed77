"""The repo's pytest configuration reports a failing property test, and the
layer's memory tests pass in any order.

``pyproject.toml`` turns every DeprecationWarning into an error. When a
``@given`` test fails, hypothesis's pytest plugin imports libcst to offer
a patch, and that import warns that ``mypy_extensions.TypedDict`` is
deprecated; unfiltered, pytest stops with an INTERNALERROR and no report.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_given_test_is_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out  # tests failed; an internal error exits 3
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def run_pytest(*args):
    return subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_memory_tests_pass_in_either_order():
    # step memory belongs to a layer, so no test sees the buffers another left:
    # no fixture has to reset shared state between them
    classes = ["tests/test_layer.py::TestCacheMemoryIsReused",
               "tests/test_layer.py::TestCacheIsConsumed"]
    listed = run_pytest("--collect-only", "-q", *classes)
    ids = [line for line in listed.stdout.splitlines() if "::" in line]
    assert len(ids) > 10, listed.stdout + listed.stderr
    for order in (ids, ids[::-1]):
        run = run_pytest("-v", *order)
        assert run.returncode == 0, run.stdout + run.stderr
        ran = [line.split(" PASSED")[0] for line in run.stdout.splitlines() if " PASSED" in line]
        assert ran == order
