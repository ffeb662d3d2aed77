"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ndlinear import layer as layer_mod  # noqa: E402
from ndlinear import nn  # noqa: E402


@pytest.fixture(scope="module")
def skew():
    wl = workloads.InferSkew(seed=3)
    return wl, wl.reference()


@pytest.fixture(scope="module")
def cube():
    wl = workloads.TrainCube(seed=3)
    return wl, wl.reference()


def test_infer_skew_check_flags_perturbed_output(skew):
    wl, ref = skew
    args = wl.prepare(7)
    out = wl.run(args)
    assert wl.check(args, out, ref)
    bad = out.copy()
    bad[5, 3, 1] += 1e-8
    assert not wl.check(args, bad, ref)
    # the right output of another op is wrong for this one
    assert not wl.check(args, wl.run(wl.prepare(8)), ref)


def test_train_cube_check_flags_each_perturbed_output(cube):
    wl, ref = cube
    args = wl.prepare(4)
    y, grads = wl.run(args)
    assert wl.check(args, (y, grads), ref)
    targets = [y, grads.d_input, *grads.d_weights, *grads.d_biases]
    for t in targets:
        saved = t.flat[0]
        t.flat[0] = saved * (1 + 1e-8) + 1e-8
        assert not wl.check(args, (y, grads), ref)
        t.flat[0] = saved
    assert wl.check(args, (y, grads), ref)


def test_train_sep_checks_losses_and_final_mse():
    wl = workloads.TrainSep(seed=3)
    out = wl.run(wl.prepare(0))
    assert wl.check(None, out, {})
    assert not wl.finish(), "one epoch should not reach the final MSE bound"
    bad = nn.TrainResult(out.model, [dict(out.final, test_loss=math.nan)])
    assert not wl.check(None, bad, {})


def test_baselines_match_the_library(skew, cube):
    wl, _ = skew
    args = wl.prepare(2)
    np.testing.assert_allclose(wl.baseline(args), wl.run(args), rtol=1e-12, atol=1e-12)
    wl, _ = cube
    args = wl.prepare(2)
    y, grads = wl.run(args)
    y_np, (d_w, d_b, d_x) = wl.baseline(args)
    for got, want in zip([y_np, d_x, *d_w, *d_b],
                         [y, grads.d_input, *grads.d_weights, *grads.d_biases]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-10)


def test_numpy_net_epoch_matches_nn_train():
    wl = workloads.TrainSep(seed=3)
    net = workloads.NumpyNet(wl.model.params(), wl.lr, wl.batch, copy.deepcopy(wl.rng))
    final = wl.run(wl.prepare(0)).final
    train_mse, test_mse = net.epoch(wl.data)
    assert train_mse == pytest.approx(final["train_loss"], rel=1e-9)
    assert test_mse == pytest.approx(final["test_loss"], rel=1e-9)


def test_baselines_call_no_library_function(skew, cube):
    """The ratio's denominator must not move when the library changes."""
    sep = workloads.TrainSep(seed=3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for wl in (skew[0], cube[0], sep):
            wl.baseline(wl.prepare(1))
    finally:
        tracer.restore()
    assert tracer.spans == []


def _traced_op(wl):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op():
            wl.run(wl.prepare(0))
    finally:
        tracer.restore()
    return spans.per_layer_metrics(tracer.spans, [1.0], [1.0])


def test_traced_flops_equal_flop_count_on_infer_skew(skew):
    wl, _ = skew
    metrics = _traced_op(wl)
    assert metrics["tensor.flops"] == layer_mod.flop_count(wl.batch, wl.in_dims, wl.out_dims)
    assert metrics["layer.forward_only.calls"] == 1
    assert metrics["tensor.matmul.calls"] == len(wl.in_dims)


def test_traced_flops_of_a_training_step_are_three_forwards(cube):
    wl, _ = cube
    metrics = _traced_op(wl)
    assert metrics["tensor.flops"] == 3 * layer_mod.flop_count(wl.batch, wl.dims, wl.dims)


def _bindings():
    """Every name bound in the package's modules, plus the optimizer method."""
    mods = {key: m for key, m in sys.modules.items()
            if key == "ndlinear" or key.startswith("ndlinear.")}
    out = {(key, attr): value for key, m in mods.items() for attr, value in vars(m).items()}
    out[("AdamW", "step")] = vars(nn.AdamW)["step"]
    return out


def test_restore_puts_every_wrapped_name_back(skew):
    wl, _ = skew
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert {(getattr(o, "__name__", ""), a) for o, a, _ in patched} >= {
            ("ndlinear.tensor", "permute"), ("ndlinear.layer", "permute"),
            ("ndlinear.layer", "forward_only"), ("AdamW", "step")}
        with pytest.raises(ValueError):
            with tracer.op():
                wl.run((0, 1.0, np.zeros((2, 3))))
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer._patched == []


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "infer_skew",
                           "--seed", "5", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_sep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
