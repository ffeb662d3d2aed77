"""Kill list: seeded kernel faults that tier-1 must catch.

    python tests/mutants.py [NAME ...]

Each mutant is a named text edit of one source file. For each, the script
copies ``src/``, ``tests/``, ``perfbench/``, README.md and the project files
into a temporary directory, checks that tier-1 passes there, applies the edit,
and runs the tier-1 suite with ``-x``. A mutant is killed when a test fails;
the script exits 1 if any mutant survives, or if an edit no longer matches
its file. It is run by hand, not in tier-1 (pytest does not collect this
file): each mutant takes from a few seconds up to a full tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYER, TENSOR = "src/ndlinear/layer.py", "src/ndlinear/tensor.py"

# name -> (file, text, replacement): the text must occur exactly once in the file
MUTANTS = {
    # the N >= 3 chunk loop
    "ragged_chunk_skips_bias": (
        LAYER, "                if layer.biases is not None:\n                    z += "
               "layer.biases[k]\n",
        "                if layer.biases is not None and nb == c:\n                    z += "
        "layer.biases[k]\n"),
    "chunk_db_drops_last_row": (
        LAYER, "d_params[n + k - 1] += ones[:len(g)] @ g",
        "d_params[n + k - 1] += ones[:len(g) - 1] @ g[:-1]"),
    "forward_band_loop_drops_ragged_band": (
        LAYER, "                for r in range(0, len(a), band):",
        "                for r in range(0, len(a) // band * band, band):"),
    "dw_band_sum_drops_ragged_band": (
        LAYER, "for r in range(0, len(g), band))", "for r in range(0, len(g) // band * band, band))"),
    "lend_bound_relaxed": (
        LAYER, "plan.sizes[0] <= plan.sizes[n - 1] <= 2 * plan.sizes[0]",
        "plan.sizes[0] <= plan.sizes[n - 1] <= 4 * plan.sizes[0]"),
    "spare_set_of_any_batch": (
        LAYER, "layer._spare.pop(batch, {})",
        "(layer._spare.popitem()[1] if layer._spare else {})"),
    "reclaim_skips_reference_check": (
        LAYER, "sys.getrefcount(z) == sys.getrefcount(p)", "sys.getrefcount(z) >= 0"),
    "y_buffer_unchecked": (
        LAYER, "type(y := slot[3]) is np.ndarray and y.dtype == np.float64 and (f := y.flags)"
               ".writeable\n            and f.c_contiguous and y.size == math.prod(cache.plan.y_shape)",
        "True"),
    # shared by every order
    "effective_bias_row_sums": (LAYER, "w.sum(axis=0)", "w.sum(axis=1)"),
    "matmul_band_drops_ragged_band": (
        TENSOR, "for r in range(0, n, band):", "for r in range(0, n // band * band, band):"),
    # the N <= 2 batch-leading kernel
    "b1_dropped": (
        LAYER, "z += layer.biases[0].repeat(x.shape[2]).reshape(z.shape[1:])", "pass"),
    "dw1_from_wrong_permutation": (
        LAYER, "permute(zs[0].reshape(batch, -1), (1, 0))",
        "permute(np.swapaxes(zs[0], 1, 2).reshape(batch, -1), (1, 0))"),
    "two_mode_plan_banded": (LAYER, "b if c == 1 < n - 1 and b >= h", "b if c == 1 and b >= h"),
    "stacked_count_misses_s": (
        TENSOR, "_active_counter.add(math.prod(s) * m * k * n)", "_active_counter.add(m * k * n)"),
    "stacked_count_misses_n": (
        TENSOR, "_active_counter.add(math.prod(s) * m * k * n)",
        "_active_counter.add(math.prod(s) * m * k * (n if not s else 1))"),
}

COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json", "README.md")


def run(name: str, work: Path) -> str | None:
    """The first test that fails (the mutant is killed) on a copy with the edit
    applied, or None if tier-1 passes."""
    path, text, replacement = MUTANTS[name]
    source = (work / path).read_text()
    if source.count(text) != 1:
        raise SystemExit(f"{name}: the edit matches {source.count(text)} times in {path}")
    (work / path).write_text(source.replace(text, replacement))
    try:
        return tier1(work)
    finally:
        (work / path).write_text(source)


def tier1(work: Path) -> str | None:
    """The first test of tier-1 that fails in ``work``, or None if all pass."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p",
                           "no:cacheprovider", "--continue-on-collection-errors"],
                          cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return failed[0] if failed else f"exit {proc.returncode}"


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        raise SystemExit(f"unknown mutants: {unknown}")
    survived = []
    with tempfile.TemporaryDirectory(prefix="ndlinear-mutants-") as tmp:
        work = Path(tmp)
        for item in COPIED:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, work / item,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(src, work / item)
        if (failed := tier1(work)) is not None:  # a kill must be the edit's doing
            raise SystemExit(f"tier-1 fails on the unedited copy: {failed}")
        for name in names or MUTANTS:
            start = time.perf_counter()
            killed = run(name, work)
            print(f"{name:36s} {time.perf_counter() - start:4.0f} s  "
                  f"{'killed by ' + killed if killed else 'SURVIVED'}", flush=True)
            if not killed:
                survived.append(name)
    print(f"{len(names or MUTANTS) - len(survived)} killed, {len(survived)} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
