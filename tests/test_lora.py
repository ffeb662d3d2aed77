import numpy as np
import pytest

from dataclasses import fields

from ndlinear import layer, lora, oracle
from ndlinear.lora import (
    FrozenDense,
    LoRAAdapter,
    NdLoRAAdapter,
    adapter_param_counts,
    choose_factors,
    fit_ndlora,
    init_lora,
    init_ndlora,
    lora_forward,
    ndlora_forward,
)
from ndlinear.tensor import ShapeError, make_rng


def make_base(rng, d, h, bias=True):
    return FrozenDense(rng.standard_normal((d, h)),
                       rng.standard_normal(h) if bias else None)


class TestZeroInit:
    @pytest.mark.parametrize("seed", range(6))
    def test_lora_starts_at_base(self, seed):
        rng = make_rng(seed)
        d, h = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        base = make_base(rng, d, h, bias=bool(seed % 2))
        adapter = init_lora(d, h, rank=int(rng.integers(1, 5)), alpha=8.0, rng=rng)
        x = rng.standard_normal((4, d))
        assert np.array_equal(lora_forward(base, adapter, x), base.forward(x))

    @pytest.mark.parametrize("seed", range(6))
    def test_ndlora_starts_at_base(self, seed):
        rng = make_rng(100 + seed)
        d, h = 12, 18
        base = make_base(rng, d, h, bias=bool(seed % 2))
        adapter = init_ndlora(d, h, rng)
        x = rng.standard_normal((4, d))
        assert np.array_equal(ndlora_forward(base, adapter, x), base.forward(x))


class TestLoRAForward:
    def test_algebraic_identity(self):
        rng = make_rng(1)
        d, h, r = 6, 5, 2
        base = make_base(rng, d, h)
        adapter = LoRAAdapter(rng.standard_normal((d, r)),
                              rng.standard_normal((r, h)), alpha=7.0)
        x = rng.standard_normal((3, d))
        expected = x @ (base.w0 + adapter.delta_matrix()) + base.b0
        assert np.max(np.abs(lora_forward(base, adapter, x) - expected)) < 1e-12

    def test_full_rank_degeneracy(self):
        rng = make_rng(2)
        d = 4
        base = make_base(rng, d, d)
        delta = rng.standard_normal((d, d))
        adapter = LoRAAdapter(np.eye(d), delta, alpha=float(d))
        x = rng.standard_normal((5, d))
        expected = x @ (base.w0 + delta) + base.b0
        assert np.max(np.abs(lora_forward(base, adapter, x) - expected)) < 1e-12

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            init_lora(4, 4, rank=0, alpha=1.0, rng=make_rng(0))


class TestNdLoRAForward:
    def test_delta_is_kronecker_structured(self):
        rng = make_rng(3)
        adapter = init_ndlora(12, 12, rng)
        adapter.nd.weights[1] = rng.standard_normal(adapter.nd.weights[1].shape)
        probed = oracle.probe_full_map(adapter.nd).w_full
        assert np.max(np.abs(probed - adapter.delta_matrix())) < 1e-10

    def test_delta_matches_flat_oracle(self):
        rng = make_rng(4)
        d, h = 12, 18
        base = make_base(rng, d, h)
        adapter = init_ndlora(d, h, rng)
        adapter.nd.weights[1] = rng.standard_normal(adapter.nd.weights[1].shape)
        x = rng.standard_normal((5, d))
        delta = ndlora_forward(base, adapter, x) - base.forward(x)
        m = oracle.probe_full_map(adapter.nd)
        d1, d2 = adapter.in_factors
        expected = oracle.flat_forward(m, x.reshape(5, d1, d2)).reshape(5, h)
        assert np.max(np.abs(delta - expected)) < 1e-10

    def test_factor_validation(self):
        rng = make_rng(5)
        with pytest.raises(ValueError):
            init_ndlora(12, 12, rng, in_factors=(3, 5))
        with pytest.raises(ValueError):
            init_ndlora(12, 12, rng, out_factors=(7, 2))
        with pytest.raises(ShapeError):
            ndlora_forward(make_base(rng, 10, 12), init_ndlora(12, 12, rng),
                           rng.standard_normal((2, 10)))


class TestNdLoRAAdapter:
    def test_one_field_and_read_only_factors(self):
        adapter = init_ndlora(12, 18, make_rng(8))
        assert [f.name for f in fields(NdLoRAAdapter)] == ["nd"]
        assert adapter.in_factors == adapter.nd.in_dims == (3, 4)
        assert adapter.out_factors == adapter.nd.out_dims == (3, 6)
        with pytest.raises(AttributeError):
            adapter.in_factors = (4, 3)

    @pytest.mark.parametrize("in_dims, out_dims, with_bias", [
        ((2, 3), (3, 2), True),  # a delta has no bias
        ((6,), (6,), False),  # nor one mode
        ((1, 2, 3), (3, 2, 1), False),  # nor three
    ])
    def test_delta_is_a_bias_free_two_mode_layer(self, in_dims, out_dims, with_bias):
        nd = layer.init_xavier(in_dims, out_dims, with_bias, make_rng(9))
        with pytest.raises(ShapeError):
            NdLoRAAdapter(nd)

    def test_three_factors_rejected(self):
        with pytest.raises(ShapeError):
            init_ndlora(12, 12, make_rng(10), in_factors=(2, 2, 3))


class TestFrozenBase:
    def test_base_is_write_protected(self):
        base = make_base(make_rng(6), 4, 4)
        with pytest.raises(ValueError):
            base.w0[0, 0] = 1.0
        with pytest.raises(ValueError):
            base.b0[0] = 1.0

    def test_base_unchanged_by_fitting(self):
        rng = make_rng(7)
        d = h = 16
        base = make_base(rng, d, h)
        w0_before = base.w0.copy()
        b0_before = base.b0.copy()
        adapter = init_ndlora(d, h, rng)
        x = rng.standard_normal((32, d))
        y = rng.standard_normal((32, h))
        fit_ndlora(base, adapter, x, y, steps=30, lr=0.05)
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
        lora_adapter = init_lora(d, h, r, alpha=1.0, rng=rng)
        assert report.lora_params == lora_adapter.a.size + lora_adapter.b.size
        nd_adapter = init_ndlora(d, h, rng)
        assert report.ndlora_params == sum(w.size for w in nd_adapter.nd.weights)

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
