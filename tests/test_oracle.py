import math
from dataclasses import asdict

import numpy as np
import pytest

from ndlinear import cli, layer, oracle
from ndlinear.layer import NdLinearLayer, dense_param_count, init_xavier, param_count
from ndlinear.oracle import (
    SizeCapError,
    central_diff,
    equivalence_trials,
    flat_forward,
    kronecker_trials,
    materialize_full_weight,
    grads_max_rel_err,
    max_abs_diff,
    max_rel_err,
    probe_full_map,
)
from ndlinear.tensor import ShapeError, make_rng


class TestMaterialize:
    def test_n1_returns_weight(self):
        w = make_rng(0).standard_normal((3, 4))
        lyr = NdLinearLayer((3,), (4,), [w])
        assert np.array_equal(materialize_full_weight(lyr), w)

    def test_hand_kronecker(self):
        w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        w2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        lyr = NdLinearLayer((2, 2), (2, 2), [w1, w2])
        expected = np.array([
            [0.0, 1.0, 0.0, 2.0],
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 3.0, 0.0, 4.0],
            [3.0, 0.0, 4.0, 0.0],
        ])
        assert np.array_equal(materialize_full_weight(lyr), expected)

    def test_identity_weights(self):
        lyr = NdLinearLayer((2, 3), (2, 3), [np.eye(2), np.eye(3)])
        assert np.array_equal(materialize_full_weight(lyr), np.eye(6))

    def test_size_cap(self):
        lyr = init_xavier((300, 300), (300, 300), False, make_rng(0))
        with pytest.raises(SizeCapError):
            materialize_full_weight(lyr)
        with pytest.raises(SizeCapError):
            probe_full_map(lyr)


class TestProbe:
    def test_zero_bias_layer(self):
        lyr = init_xavier((2, 3), (3, 2), False, make_rng(1))
        m = probe_full_map(lyr)
        assert np.all(m.b_full == 0.0)

    def test_probe_matches_kronecker(self):
        lyr = init_xavier((2, 3), (4, 2), False, make_rng(2))
        err = max_abs_diff(probe_full_map(lyr).w_full, materialize_full_weight(lyr))
        assert err < 1e-12

    def test_chunked_probe_matches_kronecker(self):
        # 400 basis vectors: one full chunk and a partial one
        rng = make_rng(5)
        lyr = init_xavier((20, 20), (3, 5), True, rng)
        lyr = NdLinearLayer(lyr.in_dims, lyr.out_dims, lyr.weights,
                            [rng.standard_normal(3), rng.standard_normal(5)])
        assert 400 % oracle.PROBE_CHUNK != 0 and 400 > oracle.PROBE_CHUNK
        m = probe_full_map(lyr)
        assert max_abs_diff(m.w_full, materialize_full_weight(lyr)) < cli.EQUIVALENCE_TOL
        assert max_abs_diff(m.b_full, layer.effective_bias(lyr).reshape(-1)) < cli.EQUIVALENCE_TOL

    def test_n1_bias_recovered(self):
        rng = make_rng(3)
        b = rng.standard_normal(4)
        lyr = NdLinearLayer((3,), (4,), [rng.standard_normal((3, 4))], [b])
        assert np.allclose(probe_full_map(lyr).b_full, b, atol=1e-15)

    def test_later_modes_transform_earlier_biases(self):
        # with two modes the effective bias is b1 applied through W2, plus b2
        rng = make_rng(4)
        lyr = init_xavier((2, 3), (4, 5), True, rng)
        lyr = NdLinearLayer(lyr.in_dims, lyr.out_dims, lyr.weights,
                            [rng.standard_normal(4), rng.standard_normal(5)])
        b1, b2 = lyr.biases
        expected = (np.outer(b1, np.ones(3)) @ lyr.weights[1]
                    + np.outer(np.ones(4), b2)).reshape(-1)
        assert np.allclose(probe_full_map(lyr).b_full, expected, atol=1e-13)


class TestFlatForward:
    def test_identity_map(self):
        lyr = NdLinearLayer((2, 2), (2, 2), [np.eye(2), np.eye(2)])
        m = probe_full_map(lyr)
        x = make_rng(5).standard_normal((3, 2, 2))
        assert np.allclose(flat_forward(m, x), x, atol=1e-15)

    def test_matches_layer_forward(self):
        rng = make_rng(6)
        lyr = init_xavier((3, 2), (2, 4), True, rng)
        lyr = NdLinearLayer(lyr.in_dims, lyr.out_dims, lyr.weights,
                            [rng.standard_normal(2), rng.standard_normal(4)])
        x = rng.standard_normal((4, 3, 2))
        y_layer, _ = layer.forward(lyr, x)
        assert max_abs_diff(y_layer, flat_forward(probe_full_map(lyr), x)) < 1e-10

    def test_zero_input_gives_bias(self):
        rng = make_rng(7)
        lyr = init_xavier((2, 2), (3, 3), True, rng)
        lyr = NdLinearLayer(lyr.in_dims, lyr.out_dims, lyr.weights,
                            [rng.standard_normal(3), rng.standard_normal(3)])
        m = probe_full_map(lyr)
        y = flat_forward(m, np.zeros((2, 2, 2)))
        assert np.allclose(y.reshape(2, -1), np.tile(m.b_full, (2, 1)), atol=1e-15)

    def test_width_mismatch(self):
        lyr = init_xavier((2, 2), (2, 2), False, make_rng(8))
        m = probe_full_map(lyr)
        with pytest.raises(ShapeError):
            flat_forward(m, np.zeros((1, 5)))

    @pytest.mark.parametrize("x", [np.float64(1.0), np.zeros((0, 2, 2))],
                             ids=["zero_d", "zero_rows"])
    def test_no_batch_of_rows_is_a_shape_error(self, x):
        # a 0-d input raised IndexError, a zero-row batch ZeroDivisionError
        m = probe_full_map(init_xavier((2, 2), (2, 2), False, make_rng(9)))
        with pytest.raises(ShapeError, match="no batch of rows"):
            flat_forward(m, x)


class TestFiniteDifferences:
    def test_constant_loss_gives_zero(self):
        lyr = init_xavier((2, 2), (2, 2), True, make_rng(9))
        x = make_rng(10).standard_normal((2, 2, 2))
        g = oracle.finite_diff_grads(lyr, x, lambda y: 3.5)
        assert all(np.max(np.abs(dw)) < 1e-8 for dw in g.d_weights)
        assert all(np.max(np.abs(db)) < 1e-8 for db in g.d_biases)
        assert np.max(np.abs(g.d_input)) < 1e-8

    def test_restores_values(self):
        lyr = init_xavier((2, 3), (3, 2), False, make_rng(11))
        snapshot = [w.copy() for w in lyr.weights]
        x = make_rng(12).standard_normal((1, 2, 3))
        oracle.finite_diff_grads(lyr, x, lambda y: float(y.sum()))
        assert all(np.array_equal(a, b) for a, b in zip(snapshot, lyr.weights))

    def test_central_diff_quadratic_exact(self):
        # d/dx of x^2 at 3 via central differences is exact up to roundoff
        arr = np.array([3.0])
        (g,) = central_diff(lambda: float(arr[0] ** 2), [arr])
        assert abs(g[0] - 6.0) < 1e-9


class TestErrorMeasures:
    @pytest.mark.filterwarnings("ignore:invalid value")  # inf - inf is the point
    @pytest.mark.parametrize("measure", [max_abs_diff, max_rel_err])
    def test_nan_is_an_infinite_error(self, measure):
        # np.max of a NaN is NaN, which compares below any tolerance
        a = np.array([1.0, 2.0, 3.0])
        assert measure(a, a) == 0.0
        assert measure(a, np.array([1.0, np.nan, 3.0])) == math.inf
        assert measure(np.array([np.inf]), np.array([np.inf])) == math.inf
        assert measure(np.zeros(0), np.zeros(0)) == 0.0

    def test_nan_gradient_is_an_infinite_error(self):
        # Python's max drops a NaN that is not its first argument
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(13))
        x = make_rng(14).standard_normal((2, 2, 3))
        y, cache = layer.forward(lyr, x)
        analytic = layer.backward(lyr, cache, y)
        numeric = oracle.finite_diff_grads(lyr, x, lambda out: 0.5 * float((out ** 2).sum()))
        assert grads_max_rel_err(analytic, numeric) < 1e-6
        for k in range(len(analytic.params())):
            y, cache = layer.forward(lyr, x)  # a cache serves one backward
            broken = layer.backward(lyr, cache, y)
            broken.params()[k][...] = np.nan
            assert grads_max_rel_err(broken, numeric) == math.inf


class TestTrialRunners:
    def test_equivalence_family_coverage(self):
        trials = equivalence_trials(seeds=1, max_rank=4, max_dim=3)
        assert len(trials) == 8  # 4 ranks x bias on/off
        assert sorted({(t.n_modes, t.with_bias) for t in trials}) == [
            (n, b) for n in (1, 2, 3, 4) for b in (False, True)
        ]
        assert all(t.max_error < 1e-10 for t in trials)

    def test_kronecker_trials_no_bias(self):
        trials = kronecker_trials(seeds=2, max_rank=3, max_dim=3)
        assert len(trials) == 6
        assert all(not t.with_bias for t in trials)
        assert all(t.max_error < 1e-12 for t in trials)

    def test_deterministic(self):
        a = equivalence_trials(seeds=2, max_rank=2, max_dim=3)
        b = equivalence_trials(seeds=2, max_rank=2, max_dim=3)
        assert [asdict(t) for t in a] == [asdict(t) for t in b]

    def test_gradient_trials_pass_the_cli_tolerance_on_600_seeds(self):
        # at step FD_STEP, seed 45 read 1.83e-6 on a correct layer, and 201
        # of these trials were over 1e-9: rounding, not truncation
        worst = max(t.max_error for t in oracle.gradient_trials(600))
        assert worst < cli.GRADIENT_TOL

    def test_gradient_trial_fails_one_weight_gradient_off_by_1e_7(self, monkeypatch):
        real = layer.backward

        def skewed(lyr, cache, d_y):
            grads = real(lyr, cache, d_y)
            d_w = grads.d_weights[-1]
            d_w.flat[np.argmax(np.abs(d_w))] *= 1 + 1e-7
            return grads

        monkeypatch.setattr(layer, "backward", skewed)
        for seed in range(10):
            # passed at the old tolerance of 1e-6
            assert cli.GRADIENT_TOL < oracle.gradient_trial(seed).max_error < 1e-6


def test_compression_witness_counts_only():
    # the dense equivalent of the 32^3 cube would hold prod(D_k * H_k)
    # entries; the factorized layer trains ~350k times fewer scalars
    dims = (32, 32, 32)
    dense_entries = dense_param_count(dims, dims, with_bias=False)
    assert dense_entries == (32 * 32) ** 3
    assert dense_entries / param_count(dims, dims, with_bias=False) > 3e5
