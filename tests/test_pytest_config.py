"""The repo's pytest configuration reports a failing property test.

``pyproject.toml`` turns every DeprecationWarning into an error. When a
``@given`` test fails, hypothesis's pytest plugin imports libcst to offer
a patch, and that import warns that ``mypy_extensions.TypedDict`` is
deprecated; unfiltered, pytest stops with an INTERNALERROR and no report.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
