import gc
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndlinear import cli, layer, ndt, oracle, tensor
from ndlinear.layer import (
    LayerCache,
    NdLinearLayer,
    backward,
    dense_flop_count,
    dense_param_count,
    effective_bias,
    flop_count,
    forward,
    forward_only,
    init_xavier,
    load_layer,
    param_count,
    plan_modes,
    save_layer,
)
from ndlinear.tensor import FlopCounter, ShapeError, make_rng


def random_layer(seed, n=None, max_dim=4, with_bias=None):
    rng = make_rng(seed)
    if n is None:
        n = int(rng.integers(1, 5))
    if with_bias is None:
        with_bias = bool(rng.integers(0, 2))
    in_dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=n))
    out_dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=n))
    lyr = init_xavier(in_dims, out_dims, with_bias, rng)
    if with_bias:
        lyr = NdLinearLayer(in_dims, out_dims, lyr.weights,
                            [rng.uniform(-1, 1, size=h) for h in out_dims])
    return rng, lyr


def assert_matches_forward(lyr, got, want):
    """Bitwise when forward_only's plan is declaration order, else within tol."""
    if plan_modes(lyr.in_dims, lyr.out_dims) == tuple(range(lyr.n_modes)):
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) < cli.EQUIVALENCE_TOL


class TestInit:
    def test_square_32_bound(self):
        lyr = init_xavier((32,), (32,), False, make_rng(0))
        bound = math.sqrt(6.0 / 64.0)
        assert abs(bound - 0.30618621784789724) < 1e-15
        assert np.abs(lyr.weights[0]).max() < bound
        # the draw should actually use the range, not collapse near zero
        assert np.abs(lyr.weights[0]).max() > 0.9 * bound

    def test_one_by_one_bound(self):
        draws = [abs(init_xavier((1,), (1,), False, make_rng(s)).weights[0][0, 0])
                 for s in range(200)]
        assert max(draws) < math.sqrt(3.0) + 1e-12
        assert max(draws) > 0.95 * math.sqrt(3.0)

    def test_biases_start_at_zero(self):
        lyr = init_xavier((3, 4), (5, 6), True, make_rng(1))
        for b in lyr.biases:
            assert np.all(b == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            init_xavier((2, 3), (4,), False, make_rng(0))

    def test_layer_validation(self):
        w = [np.zeros((2, 3))]
        with pytest.raises(ShapeError):
            NdLinearLayer((2,), (4,), w)  # wrong weight shape
        with pytest.raises(ShapeError):
            NdLinearLayer((2,), (3,), w, [np.zeros(2)])  # wrong bias length

    @pytest.mark.parametrize("weights, biases", [
        ([np.zeros((2, 3))], None),  # too few weights
        ([np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((1, 1))], None),  # too many
        ([np.zeros((3, 2)), np.zeros((4, 5))], None),  # transposed weight
        ([np.zeros((2, 3)), np.zeros((4, 5))], [np.zeros(3)]),  # too few biases
        ([np.zeros((2, 3)), np.zeros((4, 5))], []),
        ([np.zeros((2, 3)), np.zeros((4, 5))], [np.zeros(5), np.zeros(3)]),  # swapped
    ])
    def test_parameter_shapes_must_fit_the_dims(self, weights, biases):
        with pytest.raises(ShapeError):
            NdLinearLayer((2, 4), (3, 5), weights, biases)

    @pytest.mark.parametrize("in_dims, out_dims", [
        ((2.5, 3), (4, 5)),  # built a (2, 3) -> ... layer before
        ((True, 3), (2, 2)),
        ((2, 3), (4, True)),
        (("2", 3), (4, 5)),
    ])
    def test_dims_must_be_positive_ints(self, in_dims, out_dims):
        with pytest.raises(ShapeError):
            init_xavier(in_dims, out_dims, False, make_rng(0))

    @pytest.mark.parametrize("weights, biases, what", [
        ([np.ones((2, 3)) + 1j], None, "weight"),
        ([np.ones((2, 3)).astype(str)], None, "weight"),
        ([np.ones((2, 3))], [np.ones(3) + 1j], "bias"),
    ])
    def test_parameters_follow_the_value_rule(self, weights, biases, what):
        # a complex weight was kept: save_layer wrote its real part and
        # load_layer returned another layer
        with pytest.raises(TypeError, match=f"{what} must hold real numbers"):
            NdLinearLayer((2,), (3,), weights, biases)

    def test_list_parameters_convert_to_float64(self, tmp_path):
        # a list weight raised AttributeError
        lyr = NdLinearLayer((2,), (3,), [[[1, 2, 3], [4, 5, 6]]], [[True, False, True]])
        assert all(type(p) is np.ndarray and p.dtype == np.float64 for p in lyr.params())
        assert lyr.weights[0].tolist() == [[1, 2, 3], [4, 5, 6]]
        save_layer(lyr, tmp_path / "lyr")
        back = load_layer(tmp_path / "lyr")
        assert all(np.array_equal(a, b) for a, b in zip(back.params(), lyr.params(), strict=True))

    def test_float64_parameters_are_kept_as_they_are(self):
        w, b = np.ones((2, 3)), np.zeros(3)
        lyr = NdLinearLayer((2,), (3,), [w], [b])
        assert lyr.weights[0] is w and lyr.biases[0] is b

    def test_numpy_int_dims_are_stored_as_python_ints(self):
        lyr = init_xavier(np.array([2, 3]), (np.int64(4), 5), False, make_rng(0))
        assert lyr.in_dims == (2, 3) and lyr.out_dims == (4, 5)
        assert all(type(d) is int for d in (*lyr.in_dims, *lyr.out_dims))


class TestParams:
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_weights_then_biases(self, with_bias):
        lyr = init_xavier((2, 3, 4), (3, 2, 1), with_bias, make_rng(5))
        want = lyr.weights + (lyr.biases if with_bias else [])
        assert len(lyr.params()) == len(want)
        assert all(p is q for p, q in zip(lyr.params(), want))

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_gradients_follow_the_parameter_order(self, with_bias):
        rng, lyr = random_layer(6, n=3, with_bias=with_bias)
        x = rng.standard_normal((2, *lyr.in_dims))
        y, cache = forward(lyr, x)
        grads = backward(lyr, cache, y)
        assert [g.shape for g in grads.params()] == [p.shape for p in lyr.params()]
        want = grads.d_weights + (grads.d_biases if with_bias else [])
        assert all(g is w for g, w in zip(grads.params(), want, strict=True))


class TestForward:
    def test_hand_example_n2(self):
        lyr = NdLinearLayer((2, 2), (2, 2), [np.eye(2), 2.0 * np.eye(2)])
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        y, _ = forward(lyr, x)
        assert y.tolist() == [[[2.0, 4.0], [6.0, 8.0]]]

    def test_identity_weights(self):
        rng = make_rng(2)
        x = rng.standard_normal((3, 2, 4, 3))
        lyr = NdLinearLayer((2, 4, 3), (2, 4, 3), [np.eye(2), np.eye(4), np.eye(3)])
        y, _ = forward(lyr, x)
        assert np.array_equal(y, x)

    def test_zero_input_gives_bias_n1(self):
        b = np.array([0.5, -1.5, 2.0])
        lyr = NdLinearLayer((2,), (3,), [np.zeros((2, 3))], [b])
        y, _ = forward(lyr, np.zeros((4, 2)))
        assert np.array_equal(y, np.tile(b, (4, 1)))

    def test_shape_mismatch(self):
        lyr = init_xavier((2, 3), (4, 5), False, make_rng(0))
        with pytest.raises(ShapeError):
            forward(lyr, np.zeros((1, 3, 2)))
        with pytest.raises(ShapeError):
            forward(lyr, np.zeros((1, 2)))

    def test_zero_d_input_reports_rank_zero(self):
        # the contiguous copy made a 0-d input 1-d, reported as "input rank 1"
        lyr = init_xavier((2,), (3,), False, make_rng(0))
        for run in (lambda x: forward(lyr, x), lambda x: forward_only(lyr, x)):
            with pytest.raises(ShapeError, match=r"layer input shape \(\) is not"):
                run(np.float64(1.0))

    @pytest.mark.parametrize("seed", range(12))
    def test_output_shape_law(self, seed):
        rng, lyr = random_layer(seed)
        batch = int(rng.integers(1, 4))
        x = rng.standard_normal((batch, *lyr.in_dims))
        steps = []  # the buffers forward's steps return: X in step layout, then each product

        def kept(run):
            def spy(*args, **kwargs):
                steps.append(out := run(*args, **kwargs))
                return out
            return spy

        with mock.patch.object(layer, "permute", kept(layer.permute)), \
                mock.patch.object(layer, "matmul", kept(layer.matmul)):
            y, cache = forward(lyr, x)
        assert y.shape == (batch, *lyr.out_dims)
        # one gemm operand per mode step, in step layout; Y is not kept
        assert len(cache.intermediates) == lyr.n_modes
        for k, z in enumerate(cache.intermediates):
            # B prod(H_1..H_k D_{k+1}..D_N) values in the buffer step k's operand came
            # from (X itself at N = 1), not a copy of it
            assert z.size == batch * math.prod(lyr.out_dims[:k] + lyr.in_dims[k:])
            assert np.shares_memory(z, x if lyr.n_modes == 1 else steps[k])
            # backward's ascontiguousarray copies nothing of forward's buffers
            assert z.flags.c_contiguous or lyr.n_modes == 1

    def test_forward_only_matches_forward(self):
        rng, lyr = random_layer(7)
        x = rng.standard_normal((2, *lyr.in_dims))
        assert_matches_forward(lyr, forward_only(lyr, x), forward(lyr, x)[0])

    def test_degenerates_to_dense_bitwise(self):
        # (6, 20, 4) rounds differently when x reaches BLAS transposed
        for batch, d, h in [(3, 5, 7), (6, 20, 4)]:
            rng = make_rng(9)
            w = rng.standard_normal((d, h))
            b = rng.standard_normal(h)
            x = rng.standard_normal((batch, d))
            lyr = NdLinearLayer((d,), (h,), [w], [b])
            y, _ = forward(lyr, x)
            assert np.array_equal(y, x @ w + b)

    def test_one_mode_layer_is_bitwise_dense_at_scale(self):
        # (4096, 256) @ (256, 4): over tensor.SMALL_GEMM_MNK, but an NN product
        rng = make_rng(10)
        w, b = rng.standard_normal((256, 4)), rng.standard_normal(4)
        x = rng.standard_normal((4096, 256))
        lyr = NdLinearLayer((256,), (4,), [w], [b])
        assert np.array_equal(forward_only(lyr, x), x @ w + b)
        assert np.array_equal(forward(lyr, x)[0], x @ w + b)

    def test_banded_planned_step_matches_forward_and_the_probe(self):
        # infer_skew's layer: its first planned step, (4, 256) @ (256, 4096),
        # runs in row bands
        rng = make_rng(11)
        lyr = NdLinearLayer((16, 256), (64, 4),
                            [rng.standard_normal((16, 64)), rng.standard_normal((256, 4))],
                            [rng.uniform(-1, 1, size=64), rng.uniform(-1, 1, size=4)])
        x = rng.standard_normal((256, 16, 256))
        with mock.patch.object(np, "matmul", wraps=np.matmul) as spy:
            y = forward_only(lyr, x)
        assert spy.call_count == 5  # 976-row bands of 4096
        assert np.max(np.abs(y - forward(lyr, x)[0])) < cli.EQUIVALENCE_TOL
        dense = oracle.probe_full_map(lyr)  # 2^20 entries
        assert np.max(np.abs(y - oracle.flat_forward(dense, x))) < cli.EQUIVALENCE_TOL

    @pytest.mark.parametrize("x", [
        np.ones((1, 2, 3)) + 1j,
        np.array([[['1', '2', '3'], ['4', '5', '6']]]),
        np.ones((1, 2, 3), dtype=object),
    ])
    def test_non_real_input_is_a_type_error(self, x):
        # a complex x lost its imaginary part with only a warning, and a
        # string array was parsed as numbers
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(12))
        for run in (forward_only, forward):
            with pytest.raises(TypeError, match="layer input must hold real numbers"):
                run(lyr, x)

    def test_bool_and_int_input_convert(self):
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(13))
        x = np.arange(6).reshape(1, 2, 3)
        assert np.array_equal(forward_only(lyr, x), forward_only(lyr, x.astype(float)))
        assert np.array_equal(forward_only(lyr, x > 2), forward_only(lyr, (x > 2) * 1.0))

    @pytest.mark.parametrize("seed", range(8))
    def test_affine_in_input(self, seed):
        rng, lyr = random_layer(30 + seed)
        x = rng.standard_normal((2, *lyr.in_dims))
        y = rng.standard_normal((2, *lyr.in_dims))
        alpha, beta = 0.7, -1.3
        offset = forward_only(lyr, np.zeros_like(x))
        lin = lambda t: forward_only(lyr, t) - offset
        lhs = lin(alpha * x + beta * y)
        rhs = alpha * lin(x) + beta * lin(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@st.composite
def layer_cases(draw, max_dim=5):
    """A layer with N 1..4 and dims 1..max_dim, an input of batch 1..3 and a d_y."""
    n = draw(st.integers(1, 4))
    dims = st.lists(st.integers(1, max_dim), min_size=n, max_size=n).map(tuple)
    in_dims, out_dims = draw(dims), draw(dims)
    batch = draw(st.integers(1, 3))
    with_bias = draw(st.booleans())
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    lyr = init_xavier(in_dims, out_dims, with_bias, rng)
    if with_bias:
        lyr = NdLinearLayer(in_dims, out_dims, lyr.weights,
                            [rng.uniform(-1, 1, size=h) for h in out_dims])
    x = rng.standard_normal((batch, *in_dims))
    d_y = rng.standard_normal((batch, *out_dims))
    return lyr, x, d_y


def grad_arrays(g):
    return [g.d_input, *g.d_weights, *(g.d_biases or [])]


def literal_forward(lyr, x):
    """Y = ((X x_1 W_1 + b_1) x_2 W_2 + b_2) ... from the reference mode-k product."""
    z = x
    for k, w in enumerate(lyr.weights, start=1):
        z = oracle.mode_k_product(z, w, k)
        if lyr.with_bias:  # b_k broadcasts along axis k
            z = z + lyr.biases[k - 1].reshape(-1, *[1] * (lyr.n_modes - k))
    return z


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(layer_cases())
    def test_forward_backward_contract(self, case):
        lyr, x, d_y = case
        y, cache = forward(lyr, x)
        assert_matches_forward(lyr, forward_only(lyr, x), y)
        assert np.max(np.abs(y - literal_forward(lyr, x))) < cli.EQUIVALENCE_TOL
        dense = oracle.probe_full_map(lyr)
        assert np.max(np.abs(y - oracle.flat_forward(dense, x))) < cli.EQUIVALENCE_TOL

        # the kernel's cache holds views of its step buffers; plain
        # contiguous arrays of the same values and layout (X^T at N = 1)
        # must give the same bits (copied first: backward consumes the cache)
        copied = LayerCache([z.copy(order="K") for z in cache.intermediates], cache.plan)
        grads = backward(lyr, cache, d_y)
        batch = x.shape[0]
        d_x_dense = d_y.reshape(batch, -1) @ dense.w_full.T
        assert np.max(np.abs(grads.d_input.reshape(batch, -1) - d_x_dense)) \
            < cli.EQUIVALENCE_TOL
        again = backward(lyr, copied, d_y)
        for got, want in zip(grad_arrays(again), grad_arrays(grads), strict=True):
            assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(layer_cases())
    def test_batch_moves_once_on_the_way_in(self, case):
        # into step layout only: dL/dX leaves as a strided view of Z_0's
        # buffer, no mode step and no cache read copies through permute,
        # and a one-mode layer moves nothing
        lyr, x, d_y = case
        with mock.patch.object(layer, "permute", wraps=layer.permute) as spy:
            backward(lyr, forward(lyr, x)[1], d_y)
        assert spy.call_count == (0 if lyr.n_modes == 1 else 1)


def brute_force_min_cost(in_dims, out_dims):
    """Fewest forward FLOPs per sample over all N! mode orders."""
    return min(flop_count(1, in_dims, out_dims, order=o)
               for o in itertools.permutations(range(len(in_dims))))


def check_planned_forward(lyr, x):
    """forward_only against the planner's cost, the FlopCounter and forward."""
    n, batch = lyr.n_modes, x.shape[0]
    planned = flop_count(batch, lyr.in_dims, lyr.out_dims)
    assert planned <= flop_count(batch, lyr.in_dims, lyr.out_dims, order=range(n))
    assert planned == batch * brute_force_min_cost(lyr.in_dims, lyr.out_dims)
    with FlopCounter() as fc:
        y = forward_only(lyr, x)
    assert 2 * fc.multiply_adds == planned
    assert_matches_forward(lyr, y, forward(lyr, x)[0])
    return y


class TestModePlan:
    @settings(max_examples=150, deadline=None)
    @given(layer_cases(max_dim=6))
    def test_planned_forward_is_cheapest_and_exact(self, case):
        lyr, x, _ = case
        y = check_planned_forward(lyr, x)
        b_eff = effective_bias(lyr)
        assert np.max(np.abs(b_eff.reshape(-1) - oracle.probe_full_map(lyr).b_full)) \
            < cli.EQUIVALENCE_TOL
        kron = oracle.FlatAffineMap(oracle.materialize_full_weight(lyr), b_eff.reshape(-1),
                                    lyr.out_dims)
        assert np.max(np.abs(y - oracle.flat_forward(kron, x))) < cli.EQUIVALENCE_TOL

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_seven_modes(self, with_bias):
        rng = make_rng(77)
        in_dims, out_dims = (2, 5, 1, 6, 3, 4, 2), (6, 1, 3, 2, 5, 2, 4)
        lyr = init_xavier(in_dims, out_dims, with_bias, rng)
        if with_bias:
            lyr = NdLinearLayer(in_dims, out_dims, lyr.weights,
                                [rng.uniform(-1, 1, size=h) for h in out_dims])
        check_planned_forward(lyr, rng.standard_normal((2, *in_dims)))
        zero = np.zeros((1, *in_dims))
        assert np.max(np.abs(effective_bias(lyr) - forward(lyr, zero)[0][0])) \
            < cli.EQUIVALENCE_TOL

    def test_effective_bias_of_a_non_layer_is_a_type_error(self):
        with pytest.raises(TypeError, match="effective_bias needs an NdLinearLayer, got int"):
            effective_bias(3)

    def test_ties_keep_declaration_order(self):
        assert plan_modes((32, 32, 32), (32, 32, 32)) == (0, 1, 2)
        assert plan_modes((8, 8), (16, 16)) == (0, 1)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng, lyr = random_layer(3, with_bias=True)
        x = rng.standard_normal((2, *lyr.in_dims))
        y, cache = forward(lyr, x)
        g = backward(lyr, cache, np.zeros_like(y))
        assert all(np.all(dw == 0.0) for dw in g.d_weights)
        assert all(np.all(db == 0.0) for db in g.d_biases)
        assert np.all(g.d_input == 0.0)

    def test_n1_matches_dense_rule(self):
        rng = make_rng(4)
        w = rng.standard_normal((3, 2))
        x = rng.standard_normal((5, 3))
        lyr = NdLinearLayer((3,), (2,), [w])
        y, cache = forward(lyr, x)
        d_y = rng.standard_normal(y.shape)
        g = backward(lyr, cache, d_y)
        assert np.allclose(g.d_weights[0], x.T @ d_y, atol=1e-14)
        assert np.allclose(g.d_input, d_y @ w.T, atol=1e-14)

    def test_matches_finite_differences(self):
        rng = make_rng(5)
        lyr = init_xavier((2, 3), (2, 2), True, rng)
        x = rng.standard_normal((2, 2, 3))
        y, cache = forward(lyr, x)
        analytic = backward(lyr, cache, y)  # dL/dy = y for L = 0.5*sum(y^2)
        numeric = oracle.finite_diff_grads(lyr, x, lambda o: 0.5 * float((o**2).sum()))
        assert oracle.grads_max_rel_err(analytic, numeric) < 1e-6

    def test_non_real_upstream_gradient_is_a_type_error(self):
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(14))
        y, cache = forward(lyr, np.ones((2, 2, 3)))
        with pytest.raises(TypeError, match="d_y must hold real numbers"):
            backward(lyr, cache, y + 1j)

    def test_cache_mismatch(self):
        rng, lyr = random_layer(6, n=2, with_bias=False)
        x = rng.standard_normal((2, *lyr.in_dims))
        y, cache = forward(lyr, x)
        with pytest.raises(ShapeError):
            backward(lyr, cache, np.zeros((1, *lyr.out_dims)))
        with pytest.raises(ShapeError):
            backward(lyr, cache._replace(intermediates=cache.intermediates[:-1]), y)

    def test_entries_cannot_be_reordered_in_place(self):
        # in a list, Z_1 could be swapped for a reordered view of its own values: the
        # value count still fits, and dW_2 came out wrong
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(17))
        rng = make_rng(18)
        x, d_y = rng.standard_normal((4, 2, 3)), rng.standard_normal((4, 3, 2))
        cache = forward(lyr, x)[1]
        want = fresh_buffer_backward(lyr, [z.copy() for z in cache.intermediates], d_y)
        zs = cache.intermediates
        with pytest.raises(TypeError):
            zs[1] = zs[1].reshape(2, 3, 2, 3)[::-1]
        with pytest.raises(AttributeError):
            zs.reverse()
        for got, ref in zip(grad_arrays(backward(lyr, cache, d_y)), want, strict=True):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("cache", [None, np.zeros((4, 2, 3)), (np.zeros(24), np.zeros(36))],
                             ids=["none", "array", "tuple"])
    def test_a_cache_of_another_type_is_refused(self, cache):
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(16))
        with pytest.raises(ShapeError, match="not one that forward made"):
            backward(lyr, cache, np.zeros((4, 3, 2)))


    @pytest.mark.parametrize("bad, error", [
        (lambda d: d[0], ShapeError),         # no batch axis
        (lambda d: d[:, :, :1], ShapeError),  # output dims
        (lambda d: d + 1j, TypeError),
    ])
    @pytest.mark.parametrize("copied", [False, True])
    def test_bad_upstream_gradient(self, bad, error, copied):
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(15))
        y, cache = forward(lyr, make_rng(16).standard_normal((4, 2, 3)))
        if copied:
            cache = LayerCache([z.copy() for z in cache.intermediates], cache.plan)
        with pytest.raises(error):
            backward(lyr, cache, bad(y))

    def test_forward_cache_of_other_dims(self):
        # its plan is for forward's layer, and names that layer's dims
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(19))
        other = init_xavier((3, 2), (3, 2), True, make_rng(20))
        y, cache = forward(lyr, make_rng(21).standard_normal((4, 2, 3)))
        with pytest.raises(ShapeError, match=r"not one that forward made for a layer of "
                                             r"dims \(3, 2\) -> \(3, 2\)"):
            backward(other, cache, y)

    @pytest.mark.parametrize("entries, rows", [
        (lambda zs: [z.copy() for z in zs], 4),
        (lambda zs: [np.float64(1.0), zs[1]], 4),
        (lambda zs: [zs[0], [1.0, 2.0]], 4),
        (lambda zs: [z[..., :0, :] if k else z[..., :0] for k, z in enumerate(zs)], 0),
    ], ids=["copied_entries", "zero_d_entry", "list_entry", "zero_batch"])
    def test_cache_without_forwards_plan_is_refused(self, entries, rows):
        # backward reads only forward's cache: one without its plan is a
        # ShapeError before any entry is used, whatever its entries hold
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(22))
        y, cache = forward(lyr, make_rng(23).standard_normal((4, 2, 3)))
        with pytest.raises(ShapeError, match="not one that forward made"):
            backward(lyr, LayerCache(entries(cache.intermediates)), y[:rows])

    @pytest.mark.parametrize("entries", [
        lambda zs: [np.zeros(5), zs[1]],
        lambda zs: [zs[0].tolist(), zs[1]],
        lambda zs: [zs[0], np.float64(1.0)],
        lambda zs: [zs[0], np.array(1.0)],
    ], ids=["too_few_values", "list_entry", "scalar_entry", "zero_d_entry"])
    def test_forged_entries_beside_forwards_plan(self, entries):
        # each entry must be an array of B · sizes[k] values, whatever its shape
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(24))
        y, cache = forward(lyr, make_rng(25).standard_normal((4, 2, 3)))
        with pytest.raises(ShapeError, match=r"expected 2 arrays of \[24, 36\] values"):
            backward(lyr, LayerCache(entries(cache.intermediates), cache.plan), y)

    @pytest.mark.parametrize("name", ["intermediates", "plan", "owned"])
    def test_cache_fields_are_read_only(self, name):
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(26))
        cache = forward(lyr, make_rng(26).standard_normal((4, 2, 3)))[1]
        with pytest.raises(AttributeError):
            setattr(cache, name, None)

    def test_cache_outlives_its_plans_eviction(self):
        # _step_plan keeps 1,024 plans; the cache's own plan still serves
        # after forwards at 1,100 other batch sizes evict it from there
        lyr = init_xavier((2, 3), (3, 2), True, make_rng(27))
        pool = make_rng(28).standard_normal((1104, 2, 3))
        x, d_y = pool[:4], make_rng(29).standard_normal((4, 3, 2))
        want = grad_arrays(backward(lyr, forward(lyr, x)[1], d_y))
        cache = forward(lyr, x)[1]
        for batch in range(5, 1105):
            forward(lyr, pool[:batch])
        assert cache.plan is not layer._step_plan(lyr.in_dims, lyr.out_dims, 4,
                                                  tensor.SMALL_GEMM_MNK)
        for got, ref in zip(grad_arrays(backward(lyr, cache, d_y)), want, strict=True):
            assert np.array_equal(got, ref)


def fresh_buffer_backward(lyr, zs, d_y):
    """The sweep with a fresh buffer for every product, a ones vector per
    bias and one numpy transpose: what backward computed before it wrote
    into its cache, as (d_input, *d_weights, *d_biases). At N = 1 it is the
    dense layer's x^T @ d_y, d_y.sum(axis=0) and d_y @ W^T on forward's x^T."""
    n, batch = lyr.n_modes, d_y.shape[0]
    if n == 1:
        x_t, w = np.ascontiguousarray(zs[0].T).T, lyr.weights[0]
        return [d_y @ w.T, x_t @ d_y, *([d_y.sum(axis=0)] if lyr.with_bias else [])]
    d_w, d_b = [None] * n, [None] * n
    g = d_y
    for k in range(n, 0, -1):
        w = lyr.weights[k - 1]
        g = g.reshape(-1, w.shape[1])
        d_w[k - 1] = np.ascontiguousarray(zs[k - 1]).reshape(w.shape[0], -1) @ g
        d_b[k - 1] = np.ones(g.shape[0]) @ g
        g = w @ g.T
    d_x = np.transpose(g.reshape(-1, batch)).copy().reshape(batch, *lyr.in_dims)
    return [d_x, *d_w, *(d_b if lyr.with_bias else [])]


class TestCacheIsConsumed:
    @settings(max_examples=150, deadline=None)
    @given(layer_cases())
    def test_same_bits_as_fresh_buffers(self, case):
        lyr, x, d_y = case
        y, cache = forward(lyr, x)
        want = fresh_buffer_backward(lyr, [z.copy() for z in cache.intermediates], d_y)
        got = grad_arrays(backward(lyr, cache, d_y))
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 3])
    def test_second_backward_raises(self, n):
        rng, lyr = random_layer(40, n=n, with_bias=True)
        x = rng.standard_normal((2, *lyr.in_dims))
        y, cache = forward(lyr, x)
        backward(lyr, cache, y)
        assert len(cache.intermediates) == n and cache.owned == []  # the slot is spent
        with pytest.raises(ShapeError, match="cache was consumed by an earlier backward"):
            backward(lyr, cache, y)

    @settings(max_examples=100, deadline=None)
    @given(layer_cases())
    def test_input_and_upstream_gradient_are_never_written(self, case):
        lyr, x, d_y = case
        x_was, d_y_was = x.copy(), d_y.copy()
        x.flags.writeable = d_y.flags.writeable = False  # a write raises
        y, cache = forward(lyr, x)
        backward(lyr, cache, d_y)
        assert np.array_equal(x, x_was) and np.array_equal(d_y, d_y_was)

    @pytest.mark.parametrize("batch", [1, 4])
    def test_one_mode_input_is_never_written(self, batch):
        # at B = 1, Z_0 = x.T is C-contiguous: a view of x that backward must not write
        rng, lyr = random_layer(41, n=1, with_bias=True)
        x = rng.standard_normal((batch, *lyr.in_dims))
        x_was = x.copy()
        y, cache = forward(lyr, x)
        assert np.shares_memory(cache.intermediates[0], x)
        backward(lyr, cache, y)
        assert np.array_equal(x, x_was)

    @pytest.mark.parametrize("in_dims, out_dims", [((4, 64, 64, 8), (8, 64, 64, 8)),
                                                   ((4, 64, 64, 8), (4, 64, 64, 8))])
    def test_backward_allocates_no_step_buffer_beside_d_input(self, in_dims, out_dims):
        # step buffers of 4-8 MiB, above L2. A fresh W_k G^T for every k held
        # one or two of them beside d_input: 12 MiB for the first layer, 4 MiB
        # for the second. Now each goes into the cache entry of its layout.
        lyr = init_xavier(in_dims, out_dims, True, make_rng(42))
        x = make_rng(43).standard_normal((4, *in_dims))
        y, cache = forward(lyr, x)
        step = min(z.nbytes for z in cache.intermediates)
        ones = 8 * max(z.size // z.shape[0] for z in cache.intermediates)  # 1^T of the longest G
        small = sum(p.nbytes for p in lyr.params()) + ones + 2**16
        tracemalloc.start()
        try:
            grads = backward(lyr, cache, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - grads.d_input.nbytes <= small < step

    @pytest.mark.parametrize("in_dims", [(4, 4, 4), (4, 1, 4)])
    def test_expanding_mode_over_the_bound_is_banded_in_place_in_backward(self, in_dims):
        # its largest step costs 16384 multiply-adds a sample, so the batch runs in
        # chunks of 61 (tensor.SMALL_GEMM_MNK // 16384), the last one of 12;
        # backward writes each chunk's W_k G^T into the cache, with no scratch
        # beside d_input such as the batch's (4096, D_2) W_2 G^T
        lyr = init_xavier(in_dims, (4, 256, 4), False, make_rng(44))
        x = make_rng(45).standard_normal((256, *in_dims))
        assert chunk_size(lyr, 256) == 61
        y, cache = forward(lyr, x)
        with ONE_CHUNK:
            want = backward(lyr, forward(lyr, x)[1], y)
        scratch = 8 * in_dims[1] * 16 * 256
        tracemalloc.start()
        try:
            grads = backward(lyr, cache, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for got, ref in zip(grads.d_weights + [grads.d_input], want.d_weights + [want.d_input]):
            assert_within_rounding(got, ref)
        small = sum(p.nbytes for p in lyr.params()) + 2**14
        assert peak - grads.d_input.nbytes <= small < scratch


# tensor.SMALL_GEMM_MNK out of reach: every training step runs the batch as one chunk
ONE_CHUNK = mock.patch.object(tensor, "SMALL_GEMM_MNK", 2**62)


def assert_within_rounding(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def biased_layer(seed, in_dims, out_dims):
    rng = make_rng(seed)
    weights = init_xavier(in_dims, out_dims, False, rng).weights
    return rng, NdLinearLayer(in_dims, out_dims, weights,
                              [rng.uniform(-1, 1, size=h) for h in out_dims])


def training_step(lyr, x, d_y):
    y, cache = forward(lyr, x)
    return y, backward(lyr, cache, d_y)


def chunk_size(lyr, batch):
    return layer._step_plan(lyr.in_dims, lyr.out_dims, batch, tensor.SMALL_GEMM_MNK).c


def product_size(a, b, out=None):
    """Multiply-adds of one ``matmul(a, b)``."""
    return a.shape[0] * a.shape[1] * b.shape[1]


def largest_step(lyr):
    """Multiply-adds a sample of the layer's largest training step."""
    return max(math.prod(lyr.out_dims[:k]) * d * h * math.prod(lyr.in_dims[k + 1:])
               for k, (d, h) in enumerate(zip(lyr.in_dims, lyr.out_dims)))


@st.composite
def chunked_cases(draw):
    """A layer with N 2..4 and dims 1..4, a batch of 3..9 and a chunk size
    1 < c < B, which tensor.SMALL_GEMM_MNK is set to give: B is a multiple
    of c or not (a last chunk of B mod c samples)."""
    n = draw(st.integers(2, 4))
    dims = st.lists(st.integers(1, 4), min_size=n, max_size=n).map(tuple)
    in_dims, out_dims = draw(dims), draw(dims)
    batch = draw(st.integers(3, 9))
    chunk = draw(st.integers(2, batch - 1))
    rng, lyr = biased_layer(draw(st.integers(0, 2**32 - 1)), in_dims, out_dims)
    if not draw(st.booleans()):
        lyr = NdLinearLayer(in_dims, out_dims, lyr.weights)
    x = rng.standard_normal((batch, *in_dims))
    return lyr, x, rng.standard_normal((batch, *out_dims)), chunk


class TestBandedTrainingSteps:
    """A training step of an N >= 2 layer runs its batch in bands of c samples,
    the chunks of ``layer._chunking``: c = 1 on the 32^3 cube (a step is 2^20
    multiply-adds a sample) and 3 on (16,256)->(64,4), 256 = 85 * 3 + 1."""

    CASES = [((32, 32, 32), (32, 32, 32), 32, 1),
             ((16, 256), (64, 4), 256, 3)]

    @pytest.mark.parametrize("in_dims, out_dims, batch, chunk", CASES)
    def test_outputs_and_gradients_match_one_product(self, in_dims, out_dims, batch, chunk):
        rng, lyr = biased_layer(50, in_dims, out_dims)
        assert chunk_size(lyr, batch) == chunk
        x = rng.standard_normal((batch, *in_dims))
        d_y = rng.standard_normal((batch, *out_dims))
        y, grads = training_step(lyr, x, d_y)
        with ONE_CHUNK:
            want_y, want = training_step(lyr, x, d_y)
        assert_within_rounding(y, want_y)
        for got, ref in zip(grads.params() + [grads.d_input], want.params() + [want.d_input]):
            assert_within_rounding(got, ref)
        if plan_modes(in_dims, out_dims) == tuple(range(lyr.n_modes)):
            assert np.array_equal(forward_only(lyr, x), y)  # the same chunked steps

    @pytest.mark.parametrize("in_dims, out_dims, batch, chunk", CASES)
    def test_each_band_is_one_product_and_the_count_is_exact(self, in_dims, out_dims, batch,
                                                             chunk):
        # a one-sample step over the bound, (1024, 32) @ (32, 32) at 2^20 multiply-adds,
        # runs forward and dW_k in 2 row bands; W_k G^T stays one product
        rng, lyr = biased_layer(51, in_dims, out_dims)
        x = rng.standard_normal((batch, *in_dims))
        chunks, n = -(-batch // chunk), lyr.n_modes
        bands = 2 if chunk == 1 else 1
        # a band writes into its rows of the step buffer: np.matmul(..., out=)
        with mock.patch.object(np, "matmul", wraps=np.matmul) as spy, \
                mock.patch.object(layer, "matmul", wraps=tensor.matmul) as products, \
                FlopCounter() as fc:
            y, cache = forward(lyr, x)
            assert spy.call_count == products.call_count == chunks * n * bands
            assert max(product_size(*c.args) for c in products.call_args_list) \
                <= tensor.SMALL_GEMM_MNK
            backward(lyr, cache, y)
        assert products.call_count == chunks * n * (2 * bands + 1)  # 15 a sample on 32^3
        assert 2 * fc.multiply_adds == 3 * flop_count(batch, in_dims, out_dims, range(n))

    @staticmethod
    def step_against_one_chunk(seed, in_dims, out_dims, batch):
        """The layer and the matmul calls of a training step whose output and
        gradients match one chunk's within rounding."""
        rng, lyr = biased_layer(seed, in_dims, out_dims)
        x = rng.standard_normal((batch, *in_dims))
        d_y = rng.standard_normal((batch, *out_dims))
        with mock.patch.object(layer, "matmul", wraps=tensor.matmul) as products:
            y, grads = training_step(lyr, x, d_y)
        with ONE_CHUNK:
            want_y, want = training_step(lyr, x, d_y)
        for got, ref in zip([y, *grad_arrays(grads)], [want_y, *grad_arrays(want)], strict=True):
            assert_within_rounding(got, ref)
        assert np.array_equal(forward_only(lyr, x), y)
        return lyr, products.call_args_list

    def test_a_ragged_last_band_matches_one_product(self):
        # one sample's steps are (1089, 33) @ (33, 33), 1,185,921 multiply-adds:
        # 2 bands of 545 and 544 rows forward, and over the rows of dW_k
        lyr, calls = self.step_against_one_chunk(57, (33, 33, 33), (33, 33, 33), 3)
        assert chunk_size(lyr, 3) == 1
        assert [c.args[0].shape[0] for c in calls[:6]] == [545, 544] * 3  # sample 0's forward
        assert len(calls) == 3 * 3 * 5

    def test_bands_shorter_than_the_weight_is_wide_stay_one_product(self):
        # (128, 128) @ (128, 128), 2^21 multiply-adds a sample, would take 3 bands
        # of 43 rows, fewer than H_k = 128: one product a step
        lyr, calls = self.step_against_one_chunk(58, (128, 128), (128, 128), 2)
        assert chunk_size(lyr, 2) == 1 and largest_step(lyr) > tensor.SMALL_GEMM_MNK
        assert len(calls) == 2 * 2 * 3

    def test_a_batch_of_one_is_banded(self):
        # one chunk, whose bands write a fresh step buffer
        _, calls = self.step_against_one_chunk(59, (32, 32, 32), (32, 32, 32), 1)
        assert len(calls) == 15

    def test_backward_reads_the_cache_as_forward_laid_it_out(self):
        # the bound changes between forward and backward: the cache's plan, not
        # one made at backward's bound, says how its chunks lie (c = 7, not 3)
        rng, lyr = biased_layer(60, (16, 256), (64, 4))
        x, d_y = rng.standard_normal((7, 16, 256)), rng.standard_normal((7, 64, 4))
        with ONE_CHUNK:
            cache = forward(lyr, x)[1]
            want = backward(lyr, forward(lyr, x)[1], d_y)
        assert chunk_size(lyr, 7) == 3
        for got, ref in zip(grad_arrays(backward(lyr, cache, d_y)), grad_arrays(want),
                            strict=True):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("in_dims, out_dims, batch, chunk", CASES)
    def test_backward_allocates_no_step_scratch(self, in_dims, out_dims, batch, chunk):
        rng, lyr = biased_layer(52, in_dims, out_dims)
        x = rng.standard_normal((batch, *in_dims))
        y, cache = forward(lyr, x)
        # a step's (rows, D_k) buffer for one chunk, and 1^T for a chunk's longest G
        scratch = min(z.nbytes for z in cache.intermediates) * chunk // batch
        ones = 8 * chunk * max(z.size // z.shape[0] for z in cache.intermediates) // batch
        tracemalloc.start()
        try:
            grads = backward(lyr, cache, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        small = sum(p.nbytes for p in lyr.params()) + ones + 2**16
        assert peak - grads.d_input.nbytes <= small < scratch

    def test_one_sample_chunks_view_the_input(self):
        # c = 1: Z_0 is x itself, no permute copies the batch in or out, and
        # backward writes nothing of x
        rng, lyr = biased_layer(54, (32, 32, 32), (32, 32, 32))
        x = rng.standard_normal((32, 32, 32, 32))
        x_was = x.copy()
        x.flags.writeable = False  # a write raises
        with mock.patch.object(layer, "permute", wraps=layer.permute) as spy:
            y, cache = forward(lyr, x)
            assert np.shares_memory(cache.intermediates[0], x)
            grads = backward(lyr, cache, y)
        assert spy.call_count == 0
        assert np.array_equal(x, x_was)
        assert np.array_equal(forward_only(lyr, x), y)
        with ONE_CHUNK:
            want = backward(lyr, forward(lyr, x)[1], y)
        assert_within_rounding(grads.d_input, want.d_input)

    def test_inference_holds_one_chunk_of_step_buffers(self):
        # no cache to keep: Z_1 and Z_2 take one sample's 256 KiB, not 8 MiB each
        rng, lyr = biased_layer(55, (32, 32, 32), (32, 32, 32))
        x = rng.standard_normal((32, 32, 32, 32))
        tracemalloc.start()
        try:
            y = forward_only(lyr, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - y.nbytes <= 2 * x[0].nbytes + 2**17 < x.nbytes

    @settings(max_examples=100, deadline=None)
    @given(chunked_cases())
    def test_chunks_of_any_size_match_one_chunk(self, case):
        lyr, x, d_y, chunk = case
        batch = x.shape[0]
        with mock.patch.object(tensor, "SMALL_GEMM_MNK", chunk * largest_step(lyr)):
            assert chunk_size(lyr, batch) == chunk
            y, grads = training_step(lyr, x, d_y)
            assert_matches_forward(lyr, forward_only(lyr, x), y)
        with ONE_CHUNK:
            want_y, want = training_step(lyr, x, d_y)
        # the summed terms are O(1) (unit inputs, weights and biases), and a sum
        # that cancels ends far below them: judged against max(1, max |want|)
        for got, ref in zip([y, *grad_arrays(grads)], [want_y, *grad_arrays(want)], strict=True):
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("in_dims, out_dims, batch", [
        ((8, 8), (16, 16), 32),     # a train_sep step
        ((8, 8), (16, 16), 256),    # and one of its evaluate blocks
        ((256,), (4,), 4096),       # one mode: never chunked
    ])
    def test_other_steps_are_one_product_and_keep_their_bits(self, in_dims, out_dims, batch):
        rng, lyr = biased_layer(53, in_dims, out_dims)
        x = rng.standard_normal((batch, *in_dims))
        d_y = rng.standard_normal((batch, *out_dims))
        with mock.patch.object(layer, "matmul", wraps=tensor.matmul) as spy:
            y, grads = training_step(lyr, x, d_y)
        assert spy.call_count == 3 * lyr.n_modes
        with ONE_CHUNK:
            want_y, want = training_step(lyr, x, d_y)
        for got, ref in zip([y, *grads.params(), grads.d_input],
                            [want_y, *want.params(), want.d_input]):
            assert np.array_equal(got, ref)


class TestCacheMemoryIsReused:
    """On the cube at batch 2 (c = 1, banded) a consumed cache's buffers are
    backward's scratch: Z_2's takes dL/dX, Z_1's backs the layer's next forward."""

    DIMS = (32, 32, 32)

    def step_data(self, seed):
        rng, lyr = biased_layer(seed, self.DIMS, self.DIMS)
        assert chunk_size(lyr, 2) == 1
        return lyr, [(rng.standard_normal((2, *self.DIMS)), rng.standard_normal((2, *self.DIMS)))
                     for _ in range(2)]

    def test_a_second_step_reuses_the_first_ones_cache(self):
        lyr, data = self.step_data(70)
        outs, entries = [], []
        for x, d_y in data:
            y, cache = forward(lyr, x)
            entries.append(list(cache.intermediates))
            outs.append([y, *grad_arrays(backward(lyr, cache, d_y))])
            if len(outs) == 1:
                first = [a.copy() for a in outs[0]]
        assert np.shares_memory(outs[0][1], entries[0][2])  # dL/dX in the spent Z_2
        assert entries[1][1] is entries[0][1]
        for now, then in zip(outs[0], first, strict=True):  # the second step wrote none of it
            assert np.array_equal(now, then)
        for (x, d_y), got in zip(data, outs):
            fresh = NdLinearLayer(lyr.in_dims, lyr.out_dims, lyr.weights, lyr.biases)
            want_y, cache = forward(fresh, x)  # a layer with no spare set: fresh buffers
            copies = LayerCache([z.copy() for z in cache.intermediates], cache.plan)
            want = [want_y, *grad_arrays(backward(fresh, copies, d_y))]
            assert fresh._spare == {}  # a hand-built cache gives nothing back
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("hand_built", [
        lambda cache, zs: LayerCache(zs, cache.plan),
        lambda cache, zs: cache._replace(intermediates=zs),  # forward's owned list, not its arrays
    ], ids=["plan_only", "replaced_entries"])
    def test_memory_the_library_does_not_own_is_never_reused(self, hand_built):
        lyr, [(x, d_y), (x2, _)] = self.step_data(71)
        x.flags.writeable = False  # Z_0 at c = 1: a write raises
        y, cache = forward(lyr, x)
        copies = [z.copy() for z in cache.intermediates]
        theirs = (x, *copies)
        kept = [a.copy() for a in theirs]
        d_x = backward(lyr, hand_built(cache, list(copies)), d_y).d_input
        backward(lyr, cache, d_y)  # forward's own cache gives its buffers back
        for _ in range(2):  # each step takes the spare set the one before left
            y2, cache2 = forward(lyr, x2)
            ours = [y2, *cache2.intermediates]
            ours.append(backward(lyr, cache2, d_y).d_input)
            assert not any(np.shares_memory(a, b) for a in ours for b in theirs)
        assert not any(np.shares_memory(d_x, b) for b in theirs)
        for now, then in zip(theirs, kept, strict=True):
            assert np.array_equal(now, then)

    def test_a_forward_after_a_consumed_backward_allocates_y_and_one_buffer(self):
        lyr, [(x, d_y), _] = self.step_data(72)
        y, cache = forward(lyr, x)
        step = cache.intermediates[1].nbytes
        backward(lyr, cache, d_y)
        tracemalloc.start()
        try:
            y2, cache2 = forward(lyr, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Z_1 is the spare one; Z_2 is fresh, as its buffer went out as dL/dX
        assert peak - y2.nbytes - step <= 2**17 < step
        assert np.array_equal(y2, y)

    @pytest.mark.parametrize("in_dims, out_dims", [
        ((64, 64, 64), (4, 4, 64)),  # Z_2 holds 1,024 values a sample, X 262,144
        ((128, 128), (128, 128)),    # N = 2: Z_1 holds the last G
    ], ids=["short_z2", "two_modes"])
    def test_input_gradient_is_fresh_where_it_cannot_take_z_n_minus_1(self, in_dims,
                                                                       out_dims):
        rng, lyr = biased_layer(74, in_dims, out_dims)
        x, d_y = rng.standard_normal((2, *in_dims)), rng.standard_normal((2, *out_dims))
        assert chunk_size(lyr, 2) == 1
        y, cache = forward(lyr, x)
        entries = list(cache.intermediates)
        copies = LayerCache([z.copy() for z in entries], cache.plan)
        got = grad_arrays(backward(lyr, cache, d_y))
        assert not any(np.shares_memory(got[0], z) for z in entries)
        assert sorted(lyr._spare[2]) == list(range(1, lyr.n_modes))  # all but X go back
        for a, b in zip(got, grad_arrays(backward(lyr, copies, d_y)), strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("out_dims, lent", [
        ((32, 32, 32), True),   # Z_2 holds as many values a sample as X
        ((64, 32, 32), True),   # twice as many
        ((64, 64, 32), False),  # four times: a 512 KiB dL/dX would keep 2 MiB alive
    ], ids=["equal", "twice", "four_times"])
    def test_input_gradient_views_at_most_twice_its_size(self, out_dims, lent):
        rng, lyr = biased_layer(75, self.DIMS, out_dims)
        x, d_y = rng.standard_normal((2, *self.DIMS)), rng.standard_normal((2, *out_dims))
        cache = forward(lyr, x)[1]
        z2 = cache.intermediates[2]
        d_x = backward(lyr, cache, d_y).d_input
        assert np.shares_memory(d_x, z2) == lent
        assert d_x.base.nbytes <= 2 * d_x.nbytes

    def test_the_layer_keeps_one_set_and_frees_it_with_itself(self):
        lyr, [(x, d_y), _] = self.step_data(73)
        caches = [forward(lyr, x)[1] for _ in range(2)]  # held at once
        spent = [weakref.ref(cache.intermediates[1]) for cache in caches]
        for cache in caches:
            backward(lyr, cache, d_y)
        assert list(lyr._spare) == [2] and list(lyr._spare[2]) == [1]
        assert lyr._spare[2][1] is spent[1]()
        del cache, caches
        gc.collect()
        assert spent[0]() is None  # nothing but the consumed cache held the first set
        for batch in (3, 1, 2):  # whatever batch sizes it runs, the layer keeps one set
            xb = np.ones((batch, *self.DIMS))
            backward(lyr, forward(lyr, xb)[1], xb)
            assert list(lyr._spare) == [batch] and list(lyr._spare[batch]) == [1]
        last = weakref.ref(lyr._spare[2][1])
        del lyr
        gc.collect()
        assert last() is None

    def test_layers_of_equal_dims_keep_their_own_sets(self):
        # a plan is shared by every layer of its dims and batch; spare buffers are not
        first, data = self.step_data(76)
        second = NdLinearLayer(self.DIMS, self.DIMS, first.weights, first.biases)
        entries = [[], []]
        for x, d_y in data:
            for lyr, seen in zip((first, second), entries):
                cache = forward(lyr, x)[1]
                seen.append(cache.intermediates[1])
                backward(lyr, cache, d_y)
        assert all(seen[1] is seen[0] for seen in entries)  # each its own Z_1, taken back
        assert entries[0][0] is not entries[1][0]


def per_sample_outer(vs):
    """Sample b of the result is vs[0][b] (x) vs[1][b] (x) ... (x) vs[-1][b]."""
    out = vs[0]
    for v in vs[1:]:
        out = np.einsum("b...,bj->b...j", out, v)
    return out


class TestRankOneSamples:
    """Mode products map a rank-one sample u_1 (x) ... (x) u_N to the rank-one
    (u_1^T W_1) (x) ... (x) (u_N^T W_N), so forward(x) - forward(0) has a closed
    form for any batch that no chunking or banding can change."""

    @pytest.mark.parametrize("in_dims, out_dims, batch, chunk, run", [
        ((32, 32, 32), (32, 32, 32), 2, 1, "forward"),     # c = 1: Z_0 views x
        ((16, 256), (64, 4), 7, 3, "forward"),             # ragged: chunks of 3, 3, 1
        ((16, 256), (64, 4), 4096, 1, "forward_only"),     # planned, row-banded first step
        ((40, 33, 31), (40, 33, 31), 2, 1, "forward"),     # c = 1, bands of 512 and 511
    ])
    def test_matches_the_outer_product_of_the_mode_maps(self, in_dims, out_dims, batch,
                                                        chunk, run):
        rng, lyr = biased_layer(56, in_dims, out_dims)
        us = [rng.standard_normal((batch, d)) for d in in_dims]
        if run == "forward":
            assert chunk_size(lyr, batch) == chunk
            apply = lambda x: forward(lyr, x)[0]
        else:
            assert plan_modes(in_dims, out_dims) != tuple(range(lyr.n_modes))
            apply = lambda x: forward_only(lyr, x)
        got = apply(per_sample_outer(us)) - apply(np.zeros((1, *in_dims)))
        want = per_sample_outer([u @ w for u, w in zip(us, lyr.weights)])
        assert got.shape == want.shape == (batch, *out_dims)
        assert np.max(np.abs(got - want)) < cli.EQUIVALENCE_TOL


class TestCounts:
    def test_headline_param_counts(self):
        dims = (32, 32, 32)
        assert param_count(dims, dims, with_bias=False) == 3 * 32 * 32 == 3072
        assert dense_param_count(dims, dims, with_bias=False) == 32**6 == 1_073_741_824
        assert param_count(dims, dims, with_bias=True) == 3 * (1024 + 32) == 3168

    def test_dense_with_bias(self):
        assert dense_param_count((2, 3), (4, 5), True) == 6 * 20 + 20

    @pytest.mark.parametrize("seed", range(20))
    def test_param_count_matches_enumeration(self, seed):
        _, lyr = random_layer(seed)
        expected = sum(w.size for w in lyr.weights)
        if lyr.biases is not None:
            expected += sum(b.size for b in lyr.biases)
        assert param_count(lyr.in_dims, lyr.out_dims, lyr.with_bias) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_factorized_always_smaller(self, seed):
        rng = make_rng(400 + seed)
        n = int(rng.integers(2, 5))
        in_dims = tuple(int(d) for d in rng.integers(2, 6, size=n))
        out_dims = tuple(int(d) for d in rng.integers(2, 6, size=n))
        assert (param_count(in_dims, out_dims, False)
                < dense_param_count(in_dims, out_dims, False))

    def test_param_overflow(self):
        with pytest.raises(OverflowError):
            dense_param_count((2**32,), (2**32,), False)

    def test_headline_flop_count(self):
        dims = (32, 32, 32)
        assert flop_count(1, dims, dims) == 3 * 2 * 32**4 == 6_291_456
        assert dense_flop_count(1, dims, dims) == 2 * 32**6

    def test_flop_term_by_term(self):
        # declaration order, k=1: D2*(D1*H1) = 3*8 = 24; k=2: H1*(D2*H2) = 4*15 = 60
        assert flop_count(2, (2, 3), (4, 5), order=range(2)) == 2 * 2 * (24 + 60) == 336
        # planned order 2, 1: D1*(D2*H2) = 2*15 = 30; then H2*(D1*H1) = 5*8 = 40
        assert plan_modes((2, 3), (4, 5)) == (1, 0)
        assert flop_count(2, (2, 3), (4, 5)) == 2 * 2 * (30 + 40) == 280
        with pytest.raises(ShapeError):
            flop_count(2, (2, 3), (4, 5), order=(0, 0))

    @pytest.mark.parametrize("order", [(0.0, 1.0), (True, False), (1.5, 0), "01", 1, (0, 1, 2)])
    def test_order_must_be_a_permutation_of_ints(self, order):
        # (0.0, 1.0) ended in an untyped TypeError, and (True, False) was accepted
        with pytest.raises(ShapeError, match="order .* is not a permutation of 0..1"):
            flop_count(2, (2, 3), (4, 5), order=order)
        assert flop_count(2, (2, 3), (4, 5), order=np.array([0, 1])) == 336

    def test_flop_n1_degeneracy(self):
        assert flop_count(3, (17,), (5,)) == dense_flop_count(3, (17,), (5,))

    def test_flop_batch_check(self):
        with pytest.raises(ShapeError):
            flop_count(0, (2,), (2,))

    @pytest.mark.parametrize("batch", [2.5, True, "2", -1])
    def test_batch_must_be_a_positive_int(self, batch):
        # flop_count(2.5, (3,), (2,)) returned the float 30.0
        with pytest.raises(ShapeError):
            flop_count(batch, (3,), (2,))
        with pytest.raises(ShapeError):
            dense_flop_count(batch, (3,), (2,))

    @pytest.mark.parametrize("seed", range(20))
    def test_instrumented_counter_matches_formula(self, seed):
        rng, lyr = random_layer(500 + seed)
        batch = int(rng.integers(1, 5))
        x = rng.standard_normal((batch, *lyr.in_dims))
        with FlopCounter() as fc:
            forward_only(lyr, x)
        assert 2 * fc.multiply_adds == flop_count(batch, lyr.in_dims, lyr.out_dims)
        with FlopCounter() as fc:
            y, cache = forward(lyr, x)
            backward(lyr, cache, y)
        declared = flop_count(batch, lyr.in_dims, lyr.out_dims, order=range(lyr.n_modes))
        assert 2 * fc.multiply_adds == 3 * declared


class TestSerialization:
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_round_trip(self, tmp_path, with_bias):
        _, lyr = random_layer(8, with_bias=with_bias)
        save_layer(lyr, tmp_path / "lyr")
        back = load_layer(tmp_path / "lyr")
        assert back.in_dims == lyr.in_dims
        assert back.out_dims == lyr.out_dims
        assert all(np.array_equal(a, b) for a, b in zip(back.weights, lyr.weights))
        if with_bias:
            assert all(np.array_equal(a, b) for a, b in zip(back.biases, lyr.biases))
        else:
            assert back.biases is None

    def test_meta_and_files(self, tmp_path):
        import json

        lyr = init_xavier((2, 3), (4, 5), True, make_rng(0))
        save_layer(lyr, tmp_path / "lyr")
        meta = json.loads((tmp_path / "lyr" / "meta.json").read_text())
        assert meta == {"in_dims": [2, 3], "out_dims": [4, 5],
                        "with_bias": True, "N": 2}
        names = sorted(p.name for p in (tmp_path / "lyr").iterdir())
        assert names == ["W_1.ndt", "W_2.ndt", "b_1.ndt", "b_2.ndt", "meta.json"]

    def test_resave_leaves_no_stale_files(self, tmp_path):
        save_layer(init_xavier((2, 3, 4), (4, 5, 6), True, make_rng(0)), tmp_path / "lyr")
        smaller = init_xavier((3, 2), (2, 3), False, make_rng(1))
        save_layer(smaller, tmp_path / "lyr")
        names = sorted(p.name for p in (tmp_path / "lyr").iterdir())
        assert names == ["W_1.ndt", "W_2.ndt", "meta.json"]
        assert [p.name for p in tmp_path.iterdir()] == ["lyr"]  # no scratch left
        back = load_layer(tmp_path / "lyr")
        assert back.in_dims == (3, 2) and back.biases is None

    def test_failed_save_keeps_the_earlier_layer(self, tmp_path, monkeypatch):
        _, first = random_layer(9, n=3, with_bias=True)
        save_layer(first, tmp_path / "lyr")
        calls = []
        real_write = ndt.write

        def write_then_fail(path, t):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            real_write(path, t)

        monkeypatch.setattr(ndt, "write", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_layer(init_xavier((2,), (3,), True, make_rng(2)), tmp_path / "lyr")
        back = load_layer(tmp_path / "lyr")
        assert back.in_dims == first.in_dims and back.out_dims == first.out_dims
        for got, want in zip(back.weights + back.biases, first.weights + first.biases):
            assert got.tobytes() == want.tobytes()
        assert [p.name for p in tmp_path.iterdir()] == ["lyr"]

    def test_tensor_that_does_not_fit_meta_is_a_format_error(self, tmp_path):
        save_layer(init_xavier((2, 3), (4, 5), True, make_rng(0)), tmp_path / "lyr")
        ndt.write(tmp_path / "lyr" / "W_1.ndt", np.zeros((4, 5)))
        with pytest.raises(ndt.FormatError) as info:
            load_layer(tmp_path / "lyr")
        assert str(tmp_path / "lyr") in str(info.value)
        assert "meta.json" in str(info.value)

    @pytest.mark.parametrize("meta, problem", [
        (b'{"N": 2,', "not valid JSON"),
        (b"\xff\xfe", "not valid JSON"),
        (b"[2, 3]", "expected an object"),
        (b'{"in_dims": [2, 3], "out_dims": [4, 5], "with_bias": true}', "missing keys ['N']"),
        (b'{"N": "2", "in_dims": [2, 3], "out_dims": [4, 5], "with_bias": true}',
         "N must be an integer"),
        (b'{"N": 2, "in_dims": [2, 3.5], "out_dims": [4, 5], "with_bias": true}',
         "in_dims must be"),
        (b'{"N": 2, "in_dims": [2, 3], "out_dims": 45, "with_bias": true}',
         "out_dims must be"),
        (b'{"N": 2, "in_dims": [2, 3], "out_dims": [4, 0], "with_bias": true}',
         "out_dims must be"),
        (b'{"N": 2, "in_dims": [true, 3], "out_dims": [4, 5], "with_bias": true}',
         "in_dims must be"),
        (b'{"N": 2, "in_dims": [2, 3], "out_dims": [4, 5], "with_bias": 1}',
         "with_bias must be a bool"),
        (b'{"N": 3, "in_dims": [2, 3], "out_dims": [4, 5], "with_bias": true}',
         "N = 3 but in_dims has 2 modes"),
    ])
    def test_malformed_meta_is_a_format_error(self, tmp_path, meta, problem):
        save_layer(init_xavier((2, 3), (4, 5), True, make_rng(0)), tmp_path / "lyr")
        (tmp_path / "lyr" / "meta.json").write_bytes(meta)
        with pytest.raises(ndt.FormatError) as info:
            load_layer(tmp_path / "lyr")
        assert problem in str(info.value)


class TestStridedOutputs:
    """``forward_only``'s planned path returns its (H.., B) buffer as a
    transposed view, and a one-chunk backward returns dL/dX as a view of
    forward's own copy of X: fresh memory that nothing else holds."""

    # infer_skew's layer (order (1, 0), the caller's layout) at one chunk and
    # a ragged batch, and an N = 3 plan, (1, 0, 2), that is neither order
    PLANNED = [((16, 256), (64, 4), 256, (1, 0)), ((16, 256), (64, 4), 7, (1, 0)),
               ((2, 40, 3), (5, 2, 30), 5, (1, 0, 2))]

    @pytest.mark.parametrize("in_dims, out_dims, batch, order", PLANNED)
    def test_planned_output_is_a_view_of_the_last_product(self, in_dims, out_dims, batch,
                                                         order):
        rng, lyr = biased_layer(61, in_dims, out_dims)
        n = lyr.n_modes
        assert plan_modes(in_dims, out_dims) == order
        x = rng.standard_normal((batch, *in_dims))
        bare = NdLinearLayer(in_dims, out_dims, lyr.weights)  # the same products, no bias
        with mock.patch.object(layer, "permute", wraps=layer.permute) as spy:
            with FlopCounter() as fc:
                y = forward_only(lyr, x)
        # the batch moves only on the way in, and only when the plan needs it
        assert spy.call_count == (0 if order == tuple(reversed(range(n))) else 1)
        assert 2 * fc.multiply_adds == flop_count(batch, in_dims, out_dims)
        assert not y.flags.c_contiguous and y.shape == (batch, *out_dims)
        # the same products and additions as a contiguous copy plus the bias
        want = tensor.permute(forward_only(bare, x), range(n + 1)) + effective_bias(lyr)
        assert np.array_equal(y, want)
        for other in (x, *lyr.params()):
            assert not np.shares_memory(y, other)

    @pytest.mark.parametrize("in_dims, out_dims, batch",
                             [((8, 8), (16, 16), 32), ((16, 16), (8, 8), 32),
                              ((3, 4, 5), (5, 4, 3), 7)])
    def test_whole_batch_input_gradient_is_fresh_memory(self, in_dims, out_dims, batch):
        rng, lyr = biased_layer(61, in_dims, out_dims)
        x = rng.standard_normal((batch, *in_dims))
        d_y = rng.standard_normal((batch, *out_dims))
        kept = [a.copy() for a in (x, d_y, *lyr.params())]
        y, cache = forward(lyr, x)
        assert cache.plan.whole
        with FlopCounter() as fc:
            grads = backward(lyr, cache, d_y)
        # dW_k and W_k G^T each cost what step k of forward did
        assert fc.multiply_adds == flop_count(batch, in_dims, out_dims, range(lyr.n_modes))
        d_x = grads.d_input
        assert d_x.shape == x.shape and not d_x.flags.c_contiguous
        for other in (x, d_y, y, *lyr.params(), *grads.params()):
            assert not np.shares_memory(d_x, other)
        want = d_x.copy()
        d_x[...] = np.nan
        for now, then in zip((x, d_y, *lyr.params()), kept, strict=True):
            assert np.array_equal(now, then)
        assert np.array_equal(backward(lyr, forward(lyr, x)[1], d_y).d_input, want)
