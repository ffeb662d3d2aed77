import numpy as np
import pytest

from conftest import brute_force_mode_k
from ndlinear.oracle import mode_k_product
from ndlinear.tensor import (
    FlopCounter,
    ShapeError,
    is_positive_int,
    make_rng,
    matmul,
    permute,
    positive_int,
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
