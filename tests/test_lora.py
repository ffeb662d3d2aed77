import math
from unittest import mock

import numpy as np
import pytest

from ndlinear import layer, lora, nn, oracle
from ndlinear.lora import (
    FrozenDense,
    adapter_param_counts,
    choose_factors,
    delta_matrix,
    fit_adapter,
    init_lora,
    init_ndlora,
    lora_forward,
)
from ndlinear.tensor import ShapeError, make_rng


def make_base(rng, d, h, bias=True):
    return FrozenDense(rng.standard_normal((d, h)),
                       rng.standard_normal(h) if bias else None)


def lora_model(a, b):
    """The LoRA adapter with the given factors: delta = (x a) b."""
    return nn.Model([nn.Dense(a), nn.Dense(b)], "mse", a.shape[:1])


def nd_of(adapter):
    """The two-mode layer of an ``init_ndlora`` adapter."""
    return adapter.layers[1].inner


class TestZeroInit:
    @pytest.mark.parametrize("seed", range(6))
    def test_lora_starts_at_base(self, seed):
        rng = make_rng(seed)
        d, h = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        base = make_base(rng, d, h, bias=bool(seed % 2))
        adapter = init_lora(d, h, rank=int(rng.integers(1, 5)), alpha=8.0, rng=rng)
        x = rng.standard_normal((4, d))
        assert np.array_equal(lora_forward(base, adapter, x), base.forward(x))
        assert not delta_matrix(adapter).any()

    @pytest.mark.parametrize("seed", range(6))
    def test_ndlora_starts_at_base(self, seed):
        rng = make_rng(100 + seed)
        d, h = 12, 18
        base = make_base(rng, d, h, bias=bool(seed % 2))
        adapter = init_ndlora(d, h, rng)
        x = rng.standard_normal((4, d))
        assert np.array_equal(lora_forward(base, adapter, x), base.forward(x))
        assert not delta_matrix(adapter).any()


class TestLoRAForward:
    def test_algebraic_identity(self):
        rng = make_rng(1)
        d, h, r = 6, 5, 2
        base = make_base(rng, d, h)
        a, b = rng.standard_normal((d, r)), rng.standard_normal((r, h))
        adapter = lora_model(a, b)
        x = rng.standard_normal((3, d))
        expected = x @ (base.w0 + a @ b) + base.b0
        assert np.max(np.abs(lora_forward(base, adapter, x) - expected)) < 1e-12
        assert np.max(np.abs(delta_matrix(adapter) - a @ b)) < 1e-12

    def test_full_rank_degeneracy(self):
        rng = make_rng(2)
        d = 4
        base = make_base(rng, d, d)
        delta = rng.standard_normal((d, d))
        adapter = lora_model(np.eye(d), delta)
        x = rng.standard_normal((5, d))
        expected = x @ (base.w0 + delta) + base.b0
        assert np.max(np.abs(lora_forward(base, adapter, x) - expected)) < 1e-12

    def test_alpha_over_rank_scales_the_draw_of_a(self):
        a1, a2 = (init_lora(8, 6, 4, alpha, make_rng(11)).layers[0].inner.weights[0]
                  for alpha in (4.0, 8.0))
        assert np.array_equal(a2, 2.0 * a1)
        draw = make_rng(11).standard_normal((8, 4))
        assert np.max(np.abs(a1 - draw / math.sqrt(8))) < 1e-15

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            init_lora(4, 4, rank=0, alpha=1.0, rng=make_rng(0))

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # NaN built an all-NaN a, and only the fit failed
        with pytest.raises(ValueError, match="alpha must be finite"):
            init_lora(4, 4, rank=2, alpha=alpha, rng=make_rng(0))


class TestNdLoRAForward:
    def test_delta_is_kronecker_structured(self):
        rng = make_rng(3)
        adapter = init_ndlora(12, 12, rng)
        nd = nd_of(adapter)
        nd.weights[1][...] = rng.standard_normal(nd.weights[1].shape)
        probed = oracle.probe_full_map(nd).w_full
        assert np.max(np.abs(probed - oracle.materialize_full_weight(nd))) < 1e-10
        assert np.max(np.abs(probed - delta_matrix(adapter))) < 1e-10

    @pytest.mark.parametrize("in_factors, out_factors", [
        ((3, 4), (3, 6)), ((4, 4), (4, 4)), ((5, 1), (1, 3)), ((8, 8), (8, 8)),
        ((2, 6), (9, 2)), ((1, 7), (2, 5)),  # forward_only's planned order is (1, 0)
    ])
    def test_delta_matrix_is_the_kronecker_product_bitwise(self, in_factors, out_factors):
        # each probe product has one nonzero term, so it rounds as np.kron does
        rng = make_rng(12)
        d, h = math.prod(in_factors), math.prod(out_factors)
        adapter = init_ndlora(d, h, rng, in_factors, out_factors)
        nd = nd_of(adapter)
        nd.weights[1][...] = rng.standard_normal(nd.weights[1].shape)
        assert np.array_equal(delta_matrix(adapter), oracle.materialize_full_weight(nd))

    def test_delta_matches_flat_oracle(self):
        rng = make_rng(4)
        d, h = 12, 18
        base = make_base(rng, d, h)
        adapter = init_ndlora(d, h, rng)
        nd = nd_of(adapter)
        nd.weights[1][...] = rng.standard_normal(nd.weights[1].shape)
        x = rng.standard_normal((5, d))
        delta = lora_forward(base, adapter, x) - base.forward(x)
        m = oracle.probe_full_map(nd)
        expected = oracle.flat_forward(m, x.reshape(5, *nd.in_dims)).reshape(5, h)
        assert np.max(np.abs(delta - expected)) < 1e-10

    def test_factor_validation(self):
        rng = make_rng(5)
        with pytest.raises(ValueError):
            init_ndlora(12, 12, rng, in_factors=(3, 5))
        with pytest.raises(ValueError):
            init_ndlora(12, 12, rng, out_factors=(7, 2))
        with pytest.raises(ShapeError):
            lora_forward(make_base(rng, 10, 12), init_ndlora(12, 12, rng),
                         rng.standard_normal((2, 10)))


class TestNdLoRAAdapter:
    def test_three_factors_rejected(self):
        with pytest.raises(ShapeError):
            init_ndlora(12, 12, make_rng(10), in_factors=(2, 2, 3))

    @pytest.mark.parametrize("factors", [
        {"in_factors": (12,)},  # raised IndexError
        {"in_factors": (2, 2, 3), "out_factors": (2, 2, 3)},  # built three modes
        {"out_factors": (1, 2, 6)},
    ])
    def test_factor_pairs_must_hold_two_dims(self, factors):
        with pytest.raises(ValueError, match="are not two factors of 12"):
            init_ndlora(12, 12, make_rng(10), **factors)


class TestFrozenBase:
    def test_base_is_write_protected(self):
        base = make_base(make_rng(6), 4, 4)
        with pytest.raises(ValueError):
            base.w0[0, 0] = 1.0
        with pytest.raises(ValueError):
            base.b0[0] = 1.0

    @pytest.mark.parametrize("bias", [None, np.zeros(3, np.float32)])
    def test_base_holds_the_arrays_its_map_reads(self, bias):
        # float32 arrays were kept as given: writable, and not what forward read
        base = FrozenDense(np.ones((2, 3), np.float32), bias)
        assert base.w0.dtype == np.float64 and not base.w0.flags.writeable
        assert (base.b0 is None) == (bias is None)
        with pytest.raises(ValueError):
            base.w0[0, 0] = 5.0
        for got, arr in zip((base.w0, base.b0), base._dense.params()):
            assert got is arr
        assert np.array_equal(base.forward(np.ones((1, 2))), [[2.0, 2.0, 2.0]])

    def test_base_unchanged_by_fitting(self):
        rng = make_rng(7)
        d = h = 16
        base = make_base(rng, d, h)
        w0_before = base.w0.copy()
        b0_before = base.b0.copy()
        adapter = init_ndlora(d, h, rng)
        x = rng.standard_normal((32, d))
        y = rng.standard_normal((32, h))
        fit_adapter(base, adapter, x, y, steps=30, lr=0.05)
        assert np.array_equal(base.w0, w0_before)
        assert np.array_equal(base.b0, b0_before)


class TestParamCounts:
    def test_toy_case(self):
        report = adapter_param_counts(64, 64, rank=8)
        assert report.in_factors == (8, 8)
        assert report.out_factors == (8, 8)
        assert report.lora_params == 1024
        assert report.ndlora_params == 128
        assert report.ratio == 8.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # prime widths expected
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_trainable_enumeration(self, seed):
        rng = make_rng(300 + seed)
        d = int(rng.integers(2, 40))
        h = int(rng.integers(2, 40))
        r = int(rng.integers(1, 9))
        report = adapter_param_counts(d, h, r)
        assert report.lora_params == init_lora(d, h, r, alpha=1.0, rng=rng).flat.size
        assert report.ndlora_params == init_ndlora(d, h, rng).flat.size

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            adapter_param_counts(8, 8, rank=0)

    @pytest.mark.parametrize("rank", [1.5, True, "2", -1])
    def test_rank_must_be_a_positive_int(self, rank):
        with pytest.raises(ValueError):
            adapter_param_counts(8, 8, rank=rank)
        with pytest.raises(ValueError):
            init_lora(8, 8, rank=rank, alpha=1.0, rng=make_rng(0))

    def test_counts_follow_the_layer_param_count(self):
        report = adapter_param_counts(12, 18, 2, in_factors=(2, 6), out_factors=(9, 2))
        assert report.ndlora_params == 2 * 9 + 6 * 2
        assert report.ndlora_params == layer.param_count((2, 6), (9, 2), with_bias=False)
        assert report.lora_params == 2 * (12 + 18)


class TestChooseFactors:
    def test_square(self):
        assert choose_factors(64) == (8, 8)

    def test_rectangular(self):
        assert choose_factors(12) == (3, 4)

    def test_prime_warns(self):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert choose_factors(7) == (1, 7)

    def test_one(self):
        assert choose_factors(1) == (1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            choose_factors(0)

    @pytest.mark.parametrize("d", [12.0, True, "12", -4])
    def test_d_must_be_a_positive_int(self, d):
        with pytest.raises(ValueError):
            choose_factors(d)


class TestRecovery:
    @pytest.mark.parametrize("seed", range(3))
    def test_the_shared_fit_trains_lora(self, seed):
        rng = make_rng(seed)
        d = h = 16
        r = 4
        base = FrozenDense(rng.standard_normal((d, h)) / math.sqrt(d),
                           rng.standard_normal(h) * 0.1)
        target = rng.standard_normal((d, r)) @ rng.standard_normal((r, h))
        x = rng.standard_normal((2 * d, d))
        adapter = init_lora(d, h, r, alpha=float(r), rng=rng)
        losses = fit_adapter(base, adapter, x, x @ (base.w0 + target) + base.b0,
                             steps=800, lr=0.05)
        recovery = np.linalg.norm(delta_matrix(adapter) - target) / np.linalg.norm(target)
        assert recovery < 1e-2
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("init", [lambda rng: init_lora(8, 8, 2, 2.0, rng),
                                      lambda rng: init_ndlora(8, 8, rng)], ids=["lora", "ndlora"])
    def test_one_model_backward_a_step(self, init):
        rng = make_rng(5)
        base = make_base(rng, 8, 8)
        x = rng.standard_normal((16, 8))
        adapter = init(rng)
        with mock.patch.object(nn, "model_backward", wraps=nn.model_backward) as spy:
            fit_adapter(base, adapter, x, rng.standard_normal((16, 8)), steps=5, lr=0.01)
        assert spy.call_count == 5
        assert all(call.kwargs == {"need_input": False} for call in spy.call_args_list)

    def test_kron_target_recovered(self):
        report = lora.recovery_experiment(16, 16, rank=4, seed=0, steps=800,
                                          lr=0.05, target="random-kron")
        assert report["recovery_rel_frobenius"] < 1e-3
        assert report["loss_curve"][-1] < report["loss_curve"][0]

    def test_dense_target_leaves_residual(self):
        report = lora.recovery_experiment(16, 16, rank=4, seed=0, steps=200,
                                          lr=0.05, target="random-dense")
        assert report["recovery_rel_frobenius"] > 0.5

    @pytest.mark.parametrize("steps", [0, 2.5])
    def test_steps_must_be_a_positive_int(self, steps):
        # steps=0 reported the unfitted adapter: final_loss None, recovery 1.0
        with pytest.raises(ShapeError, match="steps"):
            lora.recovery_experiment(4, 4, steps=steps)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            lora.recovery_experiment(8, 8, target="exact")

    @pytest.mark.parametrize("kwargs", [{"d": -1}, {"h": 0}, {"rank": 0}, {"d": 4.0}],
                             ids=["negative_d", "zero_h", "zero_rank", "float_d"])
    def test_sizes_must_be_positive_ints(self, kwargs):
        # d=-1 ended in numpy's "negative dimensions" ValueError; rank=0 was refused
        # only after the whole fit had run
        with pytest.raises(ShapeError, match=next(iter(kwargs))):
            lora.recovery_experiment(**{"d": 4, "h": 4, "steps": 1, **kwargs})
