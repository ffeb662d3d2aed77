"""The tensor rules at every entry: seeds, generators, modes and factor pairs of the
wrong kind are typed errors, and generated malformed arrays reach each entry as a
ShapeError or TypeError, with no argument array written."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ndlinear import layer, lora, nn, oracle, tensor
from ndlinear.tensor import ShapeError, make_rng


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: make_rng(-1), ShapeError, "seed must be >= 0"),                # numpy's ValueError
    (lambda: make_rng(np.int64(-1)), ShapeError, "seed must be >= 0"),
    (lambda: make_rng(1.5), TypeError, "seed must be an int"),              # numpy's TypeError
    (lambda: make_rng(True), TypeError, "seed must be an int"),             # seeded as 1
    (lambda: make_rng("7"), TypeError, "seed must be an int"),
    (lambda: layer.init_xavier((2,), (3,), False, None), TypeError, "rng"),  # AttributeError
    (lambda: oracle.mode_k_product(np.ones((1, 2, 2)), np.eye(2), np.array([1, 2])),
     ShapeError, "mode must be a positive int"),                            # "truth value"
    (lambda: lora.init_ndlora(12, 12, make_rng(0), in_factors=np.array([2, 2, 3])),
     ShapeError, "are not two factors of 12"),                              # "truth value"
    (lambda: lora.init_ndlora(12, 12, make_rng(0), out_factors=np.array([[3, 4]])),
     ShapeError, "dims must be positive ints"),
    (lambda: lora.init_ndlora(np.array([12, 12]), 12, make_rng(0), in_factors=(3, 4)),
     ShapeError, "d must be a positive int"),
    (lambda: lora.adapter_param_counts(12, 12, 2, in_factors=np.array([2, 2, 3])),
     ShapeError, "rank mismatch"),                                          # "truth value"
], ids=["negative_seed", "negative_numpy_seed", "float_seed", "bool_seed", "str_seed",
        "no_rng", "array_mode", "three_array_factors", "matrix_factors", "array_width",
        "param_counts_of_three_array_factors"])
def test_an_escape_is_a_typed_error(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_array_factors_are_factors():
    # an array factor pair raised numpy's "truth value" ValueError
    pairs = {"in_factors": np.array([3, 4]), "out_factors": np.array([4, 3])}
    want = lora.init_ndlora(12, 12, make_rng(0), in_factors=(3, 4), out_factors=(4, 3))
    got = lora.init_ndlora(12, 12, make_rng(0), **pairs)
    assert all(np.array_equal(a, b) for a, b in zip(got.params(), want.params(), strict=True))
    assert (lora.adapter_param_counts(12, 12, 2, **pairs).ndlora_params
            == lora.adapter_param_counts(12, 12, 2, (3, 4), (4, 3)).ndlora_params == 24)


def _ro(a):
    """``a``, read-only: an entry that writes it raises, which the test reports."""
    a.flags.writeable = False
    return a


_X = _ro(np.arange(6.0).reshape(2, 3) - 2.5)
_W = _ro(np.eye(3))
_T = _ro(np.ones((1, 3, 3)))
_LYR = layer.init_xavier((3,), (2,), True, make_rng(0))
_MAP = oracle.probe_full_map(_LYR)


def _relu_backward_d_y(bad):
    lyr = nn.ReLU()
    return lyr.backward(lyr.forward(_X)[1], bad, [], True)


def _reshape_backward_d_y(bad):
    lyr = nn.Reshape((3, 1))
    return lyr.backward(lyr.forward(_X)[1], bad, [], True)


def _finite_diff_grads(bad):
    before = [p.copy() for p in _LYR.params()]
    try:
        return oracle.finite_diff_grads(_LYR, bad, lambda y: float(y.sum()))
    finally:  # the layer's own entries are perturbed, and restored bit for bit
        assert all(np.array_equal(p, q) for p, q in zip(_LYR.params(), before, strict=True))


ENTRIES = {
    "relu_forward": lambda bad: nn.ReLU().forward(bad),
    "relu_backward_cache": lambda bad: nn.ReLU().backward(bad, _X, [], True),
    "relu_backward_d_y": _relu_backward_d_y,
    "reshape_forward": lambda bad: nn.Reshape((3, 1)).forward(bad),
    "reshape_backward_d_y": _reshape_backward_d_y,
    "dense_forward": lambda bad: nn.Dense(_W).forward(bad),
    "dense_infer": lambda bad: nn.Dense(_W).infer(bad),
    "mse_loss_y": lambda bad: nn.mse_loss(bad, _X),
    "mse_loss_t": lambda bad: nn.mse_loss(_X, bad),
    "flat_forward": lambda bad: oracle.flat_forward(_MAP, bad),
    "finite_diff_grads": _finite_diff_grads,
    "max_abs_diff_a": lambda bad: oracle.max_abs_diff(bad, _X),
    "max_abs_diff_b": lambda bad: oracle.max_abs_diff(_X, bad),
    "max_rel_err_a": lambda bad: oracle.max_rel_err(bad, _X),
    "max_rel_err_b": lambda bad: oracle.max_rel_err(_X, bad),
    "mode_k_product_t": lambda bad: oracle.mode_k_product(bad, _W, 1),
    "mode_k_product_w": lambda bad: oracle.mode_k_product(_T, bad, 1),
    "mode_k_product_k": lambda bad: oracle.mode_k_product(_T, _W, bad),
    "matmul_a": lambda bad: tensor.matmul(bad, _W),
    "matmul_b": lambda bad: tensor.matmul(_X, bad),
    "matmul_a_of_a_stack": lambda bad: tensor.matmul(bad, _T),
    "matmul_out_of_a_stack": lambda bad: tensor.matmul(_W, _T, out=bad),
    "permute_t": lambda bad: tensor.permute(bad, (1, 0)),
    "permute_axes": lambda bad: tensor.permute(_X, bad),
    "make_rng": make_rng,
    "init_xavier_in_dims": lambda bad: layer.init_xavier(bad, (2,), False, make_rng(0)),
    "init_xavier_out_dims": lambda bad: layer.init_xavier((2,), bad, False, make_rng(0)),
    "init_xavier_rng": lambda bad: layer.init_xavier((2,), (2,), False, bad),
    "init_ndlora_d": lambda bad: lora.init_ndlora(bad, 12, make_rng(0), (3, 4), (3, 4)),
    "init_ndlora_in_factors": lambda bad: lora.init_ndlora(12, 12, make_rng(0), bad),
    "init_ndlora_out_factors": lambda bad: lora.init_ndlora(12, 12, make_rng(0), None, bad),
    "init_ndlora_rng": lambda bad: lora.init_ndlora(12, 12, bad),
}

_SHAPES = st.lists(st.integers(0, 3), max_size=3).map(tuple)  # (), zero rows included
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.floats(-3, 3)),
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(-1, 4)),
    hnp.arrays(np.bool_, _SHAPES),
    hnp.arrays(np.complex128, _SHAPES, elements=st.complex_numbers(max_magnitude=3)),
    hnp.arrays("U3", _SHAPES, elements=st.sampled_from(["a", "1", "2.5"])))

MALFORMED = st.one_of(
    st.none(), st.text(max_size=3), st.integers(-2, 13), st.floats(-3, 3), st.booleans(),
    st.builds(np.float64, st.floats(-3, 3)), st.builds(np.int64, st.integers(-2, 13)),
    st.sampled_from([[[1.0, 2.0], [3.0]], [[1.0], []], [[1.0, 1.0], [[1.0]]], [[1j, 2.0]]]),
    _ARRAYS.map(_ro),
    _ARRAYS.map(lambda a: _ro(a).T),  # a strided view
    _ARRAYS.map(lambda a: a.tolist()))


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(sorted(ENTRIES)), MALFORMED)
def test_only_shape_and_type_errors_escape(entry, bad):
    before = copy.deepcopy(bad)
    try:
        ENTRIES[entry](bad)
    except Exception as exc:  # noqa: BLE001 -- the point is which types get out
        assert type(exc) in (ShapeError, TypeError), f"{entry}: {exc!r}"
    if isinstance(bad, np.ndarray):
        assert bad.dtype == before.dtype and np.array_equal(bad, before)
    else:
        assert repr(bad) == repr(before)
    assert np.array_equal(_X, np.arange(6.0).reshape(2, 3) - 2.5)
