import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_mode_k
from ndlinear import oracle
from ndlinear.oracle import mode_k_product
from ndlinear.tensor import (
    SMALL_GEMM_MNK,
    FlopCounter,
    ShapeError,
    batch_of,
    is_positive_int,
    make_rng,
    matmul,
    permutation,
    permute,
    positive_int,
    real_array,
    validate_shape,
)


class TestValidateShape:
    def test_overflow(self):
        with pytest.raises(OverflowError):
            validate_shape((2**32, 2**32))

    @pytest.mark.parametrize("dims", [(2.5, 3), (True, 3), (3, "4"), (0, 2), (2, -1), ()])
    def test_every_dim_is_a_positive_int(self, dims):
        # a dim of 2.5 used to be truncated to 2, and True read as 1
        with pytest.raises(ShapeError):
            validate_shape(dims)

    @pytest.mark.parametrize("dims", [None, 8, 2.5])
    def test_non_sequence_is_a_shape_error(self, dims):
        # used to end in "'NoneType' object is not iterable"
        with pytest.raises(ShapeError, match=f"got {dims!r}"):
            validate_shape(dims)

    def test_numpy_ints_become_python_ints(self):
        dims = validate_shape(np.array([2, 3]))
        assert dims == (2, 3) and all(type(d) is int for d in dims)


class TestPositiveInt:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(1)])
    def test_accepts_ints_from_one(self, value):
        assert is_positive_int(value)
        assert positive_int(value, "size") == value
        assert type(positive_int(value, "size")) is int

    @pytest.mark.parametrize("value", [0, -2, True, False, 2.0, 2.5, "3", None, np.float64(2),
                                       np.bool_(True)])
    def test_refuses_everything_else(self, value):
        assert not is_positive_int(value)
        with pytest.raises(ShapeError, match="size must be a positive int"):
            positive_int(value, "size")


class TestPermute:
    def test_transpose(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert permute(t, (1, 0)).tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_shape_law(self):
        t = np.zeros((2, 3, 4))
        assert permute(t, (2, 0, 1)).shape == (4, 2, 3)

    def test_identity_is_bitwise_equal(self):
        rng = make_rng(3)
        t = rng.standard_normal((2, 3, 4))
        out = permute(t, (0, 1, 2))
        assert np.array_equal(out, t)
        assert out.flags["C_CONTIGUOUS"]
        assert out is not t  # always a fresh copy

    @pytest.mark.parametrize("make", [
        lambda a: a[:, ::2],                  # strided
        lambda a: np.asfortranarray(a),       # column-major
        lambda a: a.astype(np.int64),         # integer
        lambda a: a.astype(np.float32),
    ])
    def test_any_input_layout_or_dtype(self, make):
        t = make(np.round(make_rng(22).standard_normal((6, 5, 8)) * 1000))
        out = permute(t, (2, 0, 1))
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert not np.shares_memory(out, t)
        assert np.array_equal(out, np.transpose(t, (2, 0, 1)).astype(np.float64))

    def test_not_a_permutation(self):
        with pytest.raises(ShapeError):
            permute(np.zeros((2, 2)), (0, 0))
        with pytest.raises(ShapeError):
            permute(np.zeros((2, 2)), (0, 2))

    @pytest.mark.parametrize("seed", range(10))
    def test_inverse_round_trip(self, seed):
        rng = make_rng(seed)
        rank = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.integers(1, 5, size=rank))
        t = rng.standard_normal(dims)
        axes = tuple(rng.permutation(rank))
        inverse = tuple(np.argsort(axes))
        assert np.array_equal(permute(permute(t, axes), inverse), t)

    def test_element_mapping(self):
        rng = make_rng(11)
        t = rng.standard_normal((2, 3, 4))
        out = permute(t, (2, 0, 1))
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert out[k, i, j] == t[i, j, k]

    @pytest.mark.parametrize("axes", [(1.9, 0.2), (1.0, 0.0), (True, False), (np.bool_(True), 0),
                                      (0, 0), (0, 2), (0,), (0, 1, 2), "10", 1, None])
    def test_axes_must_be_a_permutation_of_ints(self, axes):
        # (1.9, 0.2) was truncated to (1, 0), and (True, False) read as (1, 0)
        with pytest.raises(ShapeError, match="not a permutation of 0..1"):
            permute(np.zeros((2, 3)), axes)

    def test_numpy_int_axes(self):
        t = make_rng(12).standard_normal((2, 3))
        assert np.array_equal(permute(t, np.array([1, 0])), t.T)
        assert permutation(np.array([1, 0]), 2) == (1, 0)
        assert all(type(a) is int for a in permutation(np.array([1, 0]), 2))
        assert permutation(range(3), 3) == (0, 1, 2)


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert matmul(a, np.eye(2)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert matmul(a, b).tolist() == [[3.0], [7.0]]

    def test_zeros(self):
        out = matmul(np.zeros((2, 3)), np.ones((3, 4)))
        assert out.shape == (2, 4)
        assert np.all(out == 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_rank_check(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3, 4)), np.zeros((4, 2)))

    @pytest.mark.parametrize("shape", [(3, 4), (40, 7)])
    def test_out_gets_the_same_bits_and_the_same_count(self, shape):
        rng = make_rng(23)
        a = rng.standard_normal((shape[1], shape[0])).T  # a transposed view
        b = rng.standard_normal((shape[1], 5))
        out = np.full((shape[0], 5), np.nan)
        with FlopCounter() as fc:
            got = matmul(a, b, out=out)
        assert got is out
        assert np.array_equal(out, a @ b)
        assert fc.multiply_adds == shape[0] * shape[1] * 5

    @pytest.mark.parametrize("out", [np.zeros((2, 5)), np.zeros((4, 2)).T,
                                     np.zeros((2, 4), dtype=np.float32), [[0.0] * 4] * 2,
                                     np.zeros((2, 9))[:, 2:6]])
    def test_out_must_be_a_contiguous_f64_result(self, out):
        # a strided out would reach numpy's non-BLAS loop and round differently;
        # a column band z[:, s], whose rows are contiguous, is refused too
        with FlopCounter() as fc, pytest.raises(ShapeError, match="out must be"):
            matmul(np.ones((2, 3)), np.ones((3, 4)), out=out)
        assert fc.multiply_adds == 0

    def test_read_only_out_is_refused_before_counting(self):
        out = np.zeros((2, 4))
        out.flags.writeable = False
        with FlopCounter() as fc, pytest.raises(ShapeError, match="out must be"):
            matmul(np.ones((2, 3)), np.ones((3, 4)), out=out)
        assert fc.multiply_adds == 0


class TestStackedMatmul:
    """A rank-2 first operand times each matrix of a stack: (m, k) @ (s, k, n)."""

    def test_each_matrix_of_the_stack(self):
        rng = make_rng(31)
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3, 2))
        got = matmul(a, b)
        assert got.shape == (5, 4, 2)
        for got_i, b_i in zip(got, b, strict=True):
            assert_close(got_i, a @ b_i)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_counts_s_m_k_n_once_and_out_gets_the_same_bits(self, transposed):
        rng = make_rng(32)
        a = rng.standard_normal((3, 4)).T if transposed else rng.standard_normal((4, 3))
        b = rng.standard_normal((6, 3, 5))
        out = np.full((6, 4, 5), np.nan)
        with FlopCounter() as fc:
            fresh = matmul(a, b)
            assert fc.multiply_adds == 6 * 4 * 3 * 5
            assert matmul(a, b, out=out) is out
        assert fc.multiply_adds == 2 * 6 * 4 * 3 * 5
        assert np.array_equal(out, fresh)

    @pytest.mark.parametrize("a, b", [
        (np.zeros((2, 3, 4)), np.zeros((2, 4, 5))),  # a stack as the first operand
        (np.zeros((2, 3)), np.zeros((4, 2, 5))),     # unequal inner dims
        (np.zeros((2, 3)), np.zeros((1, 4, 3, 5))),  # a rank-4 second operand
        (np.zeros(3), np.zeros((2, 3, 5))),
    ], ids=["rank_three_first", "inner_dims", "rank_four_second", "vector_first"])
    def test_other_operands_are_shape_errors(self, a, b):
        with FlopCounter() as fc, pytest.raises(ShapeError):
            matmul(a, b)
        assert fc.multiply_adds == 0

    @pytest.mark.parametrize("out", [np.zeros((2, 4)), np.zeros((3, 4, 2)),
                                     np.zeros((3, 4, 2)).transpose(0, 2, 1),
                                     np.zeros((3, 2, 4), dtype=np.float32),
                                     np.zeros((3, 2, 8))[:, :, ::2], np.zeros((6, 2, 4))[::2]],
                             ids=["unstacked", "transposed_shape", "transposed_view", "float32",
                                  "strided_rows", "strided_stack"])
    def test_a_wrong_out_is_refused_before_counting(self, out):
        with FlopCounter() as fc, pytest.raises(ShapeError, match="out must be"):
            matmul(np.ones((2, 3)), np.ones((3, 3, 4)), out=out)
        assert fc.multiply_adds == 0


def planned_operands(m, k, n, seed=30):
    """a and b the transposes of C-contiguous (k, m) and (n, k) matrices,
    as in ``forward_only``'s planned steps."""
    rng = make_rng(seed)
    return rng.standard_normal((k, m)).T, rng.standard_normal((n, k)).T


def assert_close(got, want):
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestBandedMatmul:
    # a product over SMALL_GEMM_MNK that contracts by at least 16 and whose a and
    # b are transposed C-contiguous matrices runs as SMALL_GEMM_MNK // (m k)-row
    # bands of b^T a^T, one np.matmul each; every other product is one ``a @ b``
    @pytest.mark.parametrize("m, k, n, bands", [
        (4, 256, 977, 2),        # one row above the 976-row band
        (4, 256, 4096, 5),       # infer_skew's first step: 976 does not divide 4096
        (4, 250, 3000, 3),       # 1000-row bands that divide n
        (62, 1008, 17, 2),       # the smallest band, 16 rows
        (16, 256, 4096, 17),     # k = 16 m, the least contraction that is banded
        (2, 5000, 1000, 10),
    ])
    def test_banded_product_matches(self, m, k, n, bands):
        assert 16 * m <= k and m * k * n > SMALL_GEMM_MNK
        a, b = planned_operands(m, k, n)
        with mock.patch.object(np, "matmul", wraps=np.matmul) as spy:
            got = matmul(a, b)
        assert spy.call_count == bands
        assert_close(got, a @ b)

    @pytest.mark.parametrize("m, k, n", [
        (4, 256, 976),           # at the band size: 999,424 multiply-adds, within the bound
        (4, 256, 975),           # one row below it
        (2, 31251, 17),          # over the bound, but a band would be 15 rows
        (125, 500, 17),          # contracts, but k = 4 m: the scratch transpose costs more
        (16, 64, 16384),         # k = 4 m
        (32, 64, 16384),         # k = 2 m
        (1, 5000, 1000),         # a one-row a is C-contiguous too, like backward's W G^T
        (64, 4, 4096),           # expands: m > k
        (32, 32, 2048),          # m == k
    ])
    def test_other_planned_layouts_are_one_product(self, m, k, n):
        a, b = planned_operands(m, k, n)
        with mock.patch.object(np, "matmul", wraps=np.matmul) as spy:
            got = matmul(a, b)
        assert spy.call_count == 0
        assert np.array_equal(got, a @ b)

    @pytest.mark.parametrize("layout", ["NN", "TN", "NT"])
    def test_nn_tn_and_nt_products_over_the_bound_keep_their_bits(self, layout):
        # NT is backward's W_k G^T, which must stay one product with no scratch
        rng = make_rng(31)
        m, k, n = 4, 256, 4096
        a = rng.standard_normal((k, m)).T if layout == "TN" else rng.standard_normal((m, k))
        b = rng.standard_normal((n, k)).T if layout == "NT" else rng.standard_normal((k, n))
        with mock.patch.object(np, "matmul", wraps=np.matmul) as spy:
            got = matmul(a, b)
        assert spy.call_count == 0
        assert np.array_equal(got, a @ b)

    def test_out_gets_the_same_bits(self):
        a, b = planned_operands(4, 256, 4096)
        out = np.full((4, 4096), np.nan)
        assert matmul(a, b, out=out) is out
        assert np.array_equal(out, matmul(a, b))

    @pytest.mark.parametrize("shared", ["a", "b"])
    def test_out_that_shares_an_operand_reads_it_before_writing(self, shared):
        m, k, n = 4, 256, 4096
        a, b = planned_operands(m, k, n)
        base = (b.T if shared == "b" else make_rng(32).standard_normal((n, k))).copy()
        if shared == "a":
            base.reshape(-1)[:m * k] = a.T.reshape(-1)
            a = base.reshape(-1)[:m * k].reshape(k, m).T
        else:
            b = base.T
        want = a.copy() @ b.copy()
        out = base.reshape(-1)[:m * n].reshape(m, n)
        assert np.shares_memory(out, a if shared == "a" else b)
        assert_close(matmul(a, b, out=out), want)

    @pytest.mark.parametrize("m, k, n", [(0, 256, 4096), (4, 0, 4096), (4, 256, 0),
                                         (0, 0, 10**7)])
    def test_empty_products(self, m, k, n):
        a, b = planned_operands(m, k, n)
        with FlopCounter() as fc:
            got = matmul(a, b)
        assert got.shape == (m, n) and np.array_equal(got, a @ b)
        assert fc.multiply_adds == 0

    def test_counts_the_product_once(self):
        a, b = planned_operands(4, 256, 4096)
        with FlopCounter() as fc:
            matmul(a, b)
        assert fc.multiply_adds == 4 * 256 * 4096


class TestRealArray:
    @pytest.mark.parametrize("x", [
        np.array([1 + 2j]),
        np.array([["1", "2"]]),
        np.array([b"1"]),
        np.array([1.0], dtype=object),
        np.array(["2020-01-01"], dtype="datetime64[D]"),
        np.array([1], dtype="timedelta64[s]"),
        np.zeros(2, dtype="V8"),
        [1.0, 2j],
    ])
    def test_non_real_dtypes_raise(self, x):
        with pytest.raises(TypeError, match="input must hold real numbers"):
            real_array(x, "input")

    @pytest.mark.parametrize("x", [[True, False], np.arange(3, dtype=np.uint8),
                                   np.arange(3), np.ones(2, dtype=np.float32),
                                   np.arange(2, dtype=">f8"), 2.5])
    def test_bool_int_and_float_convert(self, x):
        got = real_array(x, "input")
        assert got.dtype == np.float64 and got.dtype.isnative
        assert np.array_equal(got, np.asarray(x, dtype=np.float64))

    def test_float64_array_is_returned_as_it_is(self):
        x = np.ones((2, 3))[:, ::2]
        assert real_array(x, "input") is x

    @pytest.mark.parametrize("kind", [complex, str, object])
    @pytest.mark.parametrize("call", [
        lambda v: matmul(v, np.ones((1, 1))),
        lambda v: matmul(np.ones((1, 1)), v),
        lambda v: permute(v, (1, 0)),
        lambda v: oracle.flat_forward(oracle.FlatAffineMap(np.eye(1), np.zeros(1), (1,)), v),
        lambda v: mode_k_product(v, np.ones((1, 1)), 1),
        lambda v: mode_k_product(np.ones((1, 1)), v, 1),
    ], ids=["matmul_a", "matmul_b", "permute", "flat_forward", "mode_k_t", "mode_k_w"])
    def test_primitives_and_oracle_follow_the_rule(self, call, kind):
        # a complex operand lost its imaginary part with only a warning; a
        # string one was parsed as numbers
        with pytest.raises(TypeError, match="must hold real numbers"):
            call(np.array([[1 + 2j]]).astype(kind))


class TestBatchOf:
    """The one rule for a batch of inputs, which every layer and model entry runs."""

    @pytest.mark.parametrize("x", [np.ones((1, 3, 5)), np.ones((4, 3, 5), dtype=np.int8),
                                   [[[True] * 5] * 3]])
    def test_a_batch_of_rows_passes_as_float64(self, x):
        got = batch_of(x, (3, 5), "input")
        assert got.dtype == np.float64 and np.array_equal(got, np.asarray(x, dtype=float))

    def test_a_float64_batch_is_returned_as_it_is(self):
        x = np.ones((2, 3, 10))[:, :, ::2]
        assert batch_of(x, (3, 5), "input") is x

    @pytest.mark.parametrize("shape, fragment", [
        ((), r"input shape \(\) is not \(row count >= 1, \*dims\) with dims \(3, 5\)"),
        ((0, 3, 5), r"shape \(0, 3, 5\) is not \(row count >= 1"),
        ((2, 5, 3), r"shape \(2, 5, 3\)"),
        ((3, 5), r"shape \(3, 5\)"),
        ((2, 3, 5, 1), r"shape \(2, 3, 5, 1\)"),
    ])
    def test_a_wrong_shape_is_a_shape_error(self, shape, fragment):
        with pytest.raises(ShapeError, match=fragment):
            batch_of(np.ones(shape), (3, 5), "input")

    def test_values_go_through_real_array_first(self):
        with pytest.raises(TypeError, match="input must hold real numbers"):
            batch_of(np.ones((0, 3, 5), dtype=complex), (3, 5), "input")


class TestModeKProduct:
    def test_identity_weights(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert np.array_equal(mode_k_product(x, np.eye(2), 1), x)

    def test_row_sums(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        w = np.array([[1.0], [1.0]])
        assert mode_k_product(x, w, 2).tolist() == [[[3.0], [7.0]]]

    def test_column_sums(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        w = np.array([[1.0], [1.0]])
        assert mode_k_product(x, w, 1).tolist() == [[[4.0, 6.0]]]

    def test_mode_out_of_range(self):
        x = np.zeros((1, 2, 2))
        with pytest.raises(ShapeError):
            mode_k_product(x, np.eye(2), 0)
        with pytest.raises(ShapeError):
            mode_k_product(x, np.eye(2), 3)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            mode_k_product(np.zeros((1, 2, 2)), np.eye(3), 1)

    @pytest.mark.parametrize("w", [np.ones(2), np.ones((2, 2, 1))])
    def test_weight_must_be_a_matrix(self, w):
        with pytest.raises(ShapeError, match="weight must be a matrix"):
            mode_k_product(np.zeros((1, 2, 2)), w, 1)

    @pytest.mark.parametrize("seed", range(50))
    def test_identity_matrix_is_identity_map(self, seed):
        rng = make_rng(seed)
        rank = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.integers(1, 5, size=rank + 1))
        t = rng.standard_normal(dims)
        k = int(rng.integers(1, rank + 1))
        out = mode_k_product(t, np.eye(dims[k]), k)
        assert np.max(np.abs(out - t)) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_linearity(self, seed):
        rng = make_rng(100 + seed)
        x = rng.standard_normal((2, 3, 4))
        y = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((3, 5))
        alpha, beta = rng.standard_normal(2)
        lhs = mode_k_product(alpha * x + beta * y, w, 1)
        rhs = alpha * mode_k_product(x, w, 1) + beta * mode_k_product(y, w, 1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_fiber_brute_force(self, seed):
        rng = make_rng(200 + seed)
        rank = int(rng.integers(1, 4))
        dims = tuple(int(d) for d in rng.integers(1, 5, size=rank + 1))
        k = int(rng.integers(1, rank + 1))
        h = int(rng.integers(1, 5))
        t = rng.standard_normal(dims)
        w = rng.standard_normal((dims[k], h))
        assert np.max(np.abs(mode_k_product(t, w, k) - brute_force_mode_k(t, w, k))) < 1e-12


class TestFlopCounter:
    def test_counts_multiply_adds(self):
        with FlopCounter() as fc:
            matmul(np.zeros((3, 4)), np.zeros((4, 5)))
        assert fc.multiply_adds == 3 * 4 * 5

    def test_inactive_by_default(self):
        fc = FlopCounter()
        matmul(np.zeros((2, 2)), np.zeros((2, 2)))
        assert fc.multiply_adds == 0

    def test_monotone(self):
        with FlopCounter() as fc:
            matmul(np.zeros((2, 2)), np.zeros((2, 2)))
            first = fc.multiply_adds
            matmul(np.zeros((2, 2)), np.zeros((2, 2)))
            assert fc.multiply_adds >= first

    def test_no_nesting(self):
        with FlopCounter():
            with pytest.raises(RuntimeError):
                with FlopCounter():
                    pass
