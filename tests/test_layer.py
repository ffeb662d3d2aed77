import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndlinear import cli, layer, ndt, oracle
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

    @pytest.mark.parametrize("seed", range(12))
    def test_output_shape_law(self, seed):
        rng, lyr = random_layer(seed)
        batch = int(rng.integers(1, 4))
        x = rng.standard_normal((batch, *lyr.in_dims))
        y, cache = forward(lyr, x)
        assert y.shape == (batch, *lyr.out_dims)
        assert len(cache.intermediates) == lyr.n_modes + 1
        for k, z in enumerate(cache.intermediates):
            assert z.shape == (batch, *lyr.out_dims[:k], *lyr.in_dims[k:])

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

        grads = backward(lyr, cache, d_y)
        batch = x.shape[0]
        d_x_dense = d_y.reshape(batch, -1) @ dense.w_full.T
        assert np.max(np.abs(grads.d_input.reshape(batch, -1) - d_x_dense)) \
            < cli.EQUIVALENCE_TOL
        # the kernel's cache holds views of its step buffers; plain
        # contiguous arrays of the same values must give the same bits
        copied = LayerCache([np.ascontiguousarray(z) for z in cache.intermediates])
        again = backward(lyr, copied, d_y)
        for got, want in zip(grad_arrays(again), grad_arrays(grads), strict=True):
            assert np.array_equal(got, want)


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

    def test_cache_mismatch(self):
        rng, lyr = random_layer(6, n=2, with_bias=False)
        x = rng.standard_normal((2, *lyr.in_dims))
        y, cache = forward(lyr, x)
        with pytest.raises(ShapeError):
            backward(lyr, cache, np.zeros((1, *lyr.out_dims)))
        cache.intermediates.pop()
        with pytest.raises(ShapeError):
            backward(lyr, cache, y)


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
