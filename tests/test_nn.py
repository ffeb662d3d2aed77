import copy
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import largest_step, model_analytic_grads, model_numeric_grads, step_bounds
from ndlinear import layer, nn, tensor
from ndlinear.oracle import max_rel_err
from ndlinear.tensor import FlopCounter, ShapeError, make_rng, positive_int, validate_shape


def small_mse_model(seed=0):
    rng = make_rng(seed)
    return nn.Model(
        [nn.NdLinear(layer.init_xavier((2, 3), (3, 2), True, rng)),
         nn.ReLU(),
         nn.Dense(rng.standard_normal((6, 4)), rng.standard_normal(4))],
        "mse", (2, 3))


class TestLayers:
    def test_dense_identity_passthrough(self):
        model = nn.Model([nn.Dense(np.eye(3))], "mse", (3,))
        x = make_rng(0).standard_normal((4, 3))
        y, _ = nn.model_forward(model, x)
        assert np.array_equal(y, x)

    def test_relu(self):
        y, _ = nn.ReLU().forward(np.array([-1.0, 2.0]))
        assert y.tolist() == [0.0, 2.0]

    def test_relu_grad_zero_at_tie(self):
        lyr = nn.ReLU()
        y, cache = lyr.forward(np.array([0.0, -1.0, 3.0]))
        d_x = lyr.backward(cache, np.ones(3), [], True)
        assert d_x.tolist() == [0.0, 0.0, 1.0]

    def test_tabular_classifier_shape(self):
        # front layer (11, 1) -> (11, 64), ReLU, then a 2-way head
        rng = make_rng(1)
        model = nn.Model(
            [nn.NdLinear(layer.init_xavier((11, 1), (11, 64), True, rng)),
             nn.ReLU(),
             nn.init_dense(11 * 64, 2, True, rng)],
            "cross_entropy", (11, 1))
        x = rng.standard_normal((5, 11, 1))
        y, _ = nn.model_forward(model, x)
        assert y.shape == (5, 2)

    def test_reshape_preserves_data(self):
        model = nn.Model([nn.Reshape((6,))], "mse", (2, 3))
        x = make_rng(2).standard_normal((2, 2, 3))
        y, _ = nn.model_forward(model, x)
        assert np.array_equal(y.reshape(-1), x.reshape(-1))

    def test_shape_mismatch_at_build(self):
        with pytest.raises(ShapeError, match="layer 1"):
            nn.Model([nn.Reshape((6,)), nn.Dense(np.eye(5))], "mse", (2, 3))

    def test_cross_entropy_needs_flat_output(self):
        with pytest.raises(ShapeError):
            nn.Model([nn.Reshape((2, 3))], "cross_entropy", (6,))


class TestLosses:
    def test_mse_convention(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = np.zeros((2, 2))
        loss, d = nn.mse_loss(y, t)
        assert loss == (1 + 4 + 9 + 16) / 4  # mean over batch * features
        assert np.array_equal(d, 2.0 * y / 4)

    def test_softmax_ce_matches_manual(self):
        logits = np.array([[1.0, 2.0, 0.5]])
        labels = np.array([1])
        loss, d = nn.softmax_cross_entropy(logits, labels)
        probs = np.exp(logits[0]) / np.exp(logits[0]).sum()
        assert abs(loss + math.log(probs[1])) < 1e-12
        assert np.allclose(d[0], probs - np.eye(3)[1], atol=1e-12)

    def test_softmax_ce_stable_at_huge_logits(self):
        logits = np.array([[1e3, -1e3], [-1e3, 1e3]])
        loss, d = nn.softmax_cross_entropy(logits, np.array([0, 0]))
        assert math.isfinite(loss)
        assert np.all(np.isfinite(d))

    def test_row_gradients_sum_to_zero(self):
        rng = make_rng(3)
        logits = rng.standard_normal((4, 5))
        _, d = nn.softmax_cross_entropy(logits, rng.integers(0, 5, size=4))
        assert np.allclose(d.sum(axis=1), 0.0, atol=1e-15)

    @pytest.mark.parametrize("label", [-1, 3, 1.0, True])
    def test_labels_must_be_integers_below_the_class_count(self, label):
        # -1 read the last logit (loss 0.4076, class 2's); 3 and 1.0 raised IndexError
        with pytest.raises(ShapeError, match=r"labels must be integers in \[0, 3\)"):
            nn.softmax_cross_entropy(np.array([[1.0, 2.0, 3.0]]), np.array([label]))
        model = nn.Model([nn.Dense(np.eye(3))], "cross_entropy", (3,))
        with pytest.raises(ShapeError, match="labels"):
            nn.evaluate(model, np.ones((2, 3)), np.array([label, label]))


class TestBackward:
    def test_single_dense_mse_hand_rule(self):
        rng = make_rng(4)
        w = rng.standard_normal((3, 2))
        x = rng.standard_normal((1, 3))
        t = rng.standard_normal((1, 2))
        model = nn.Model([nn.Dense(w)], "mse", (3,))
        y, caches = nn.model_forward(model, x)
        _, d_y = nn.mse_loss(y, t)
        grads, _ = nn.model_backward(model, caches, d_y)
        # dL/dW = x^T (2 (y - t) / (B * M))
        assert np.allclose(grads[0], x.T @ (2.0 * (y - t) / y.size), atol=1e-14)

    def test_dead_relu_blocks_gradient(self):
        model = nn.Model([nn.Dense(-np.eye(2)), nn.ReLU(), nn.Dense(np.eye(2))],
                         "mse", (2,))
        x = np.ones((3, 2))  # pre-activations all -1
        y, caches = nn.model_forward(model, x)
        grads, d_x = nn.model_backward(model, caches, np.ones_like(y))
        assert np.all(grads[0] == 0.0)  # first dense never sees a signal
        assert np.all(d_x == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_whole_model_matches_finite_differences(self, seed):
        model = small_mse_model(seed)
        rng = make_rng(100 + seed)
        x = rng.standard_normal((3, 2, 3))
        t = rng.standard_normal((3, 4))
        analytic = model_analytic_grads(model, x, t)
        numeric = model_numeric_grads(model, x, t)
        worst = max(max_rel_err(a, b) for a, b in zip(analytic, numeric))
        assert worst < 1e-5

    def test_classifier_matches_finite_differences(self):
        rng = make_rng(6)
        model = nn.Model(
            [nn.init_dense(4, 8, True, rng), nn.ReLU(), nn.init_dense(8, 3, True, rng)],
            "cross_entropy", (4,))
        x = rng.standard_normal((5, 4))
        t = rng.integers(0, 3, size=5)
        analytic = model_analytic_grads(model, x, t)
        numeric = model_numeric_grads(model, x, t)
        worst = max(max_rel_err(a, b) for a, b in zip(analytic, numeric))
        assert worst < 1e-5


class TestModelBackward:
    """``model_backward`` is the one sweep: ``train`` and ``lora.fit_adapter``
    call it, and it returns the views it filled, not copies."""

    def test_returns_views_of_model_grad_in_params_order(self):
        model = small_mse_model()
        x = make_rng(7).standard_normal((3, 2, 3))
        y, caches = nn.model_forward(model, x)
        grads, d_x = nn.model_backward(model, caches, y)
        assert [g.shape for g in grads] == [p.shape for p in model.params()]
        assert all(g.base is model.grad for g in grads)
        assert np.array_equal(np.concatenate([g.ravel() for g in grads]), model.grad)
        assert d_x.shape == x.shape
        # valid until the next sweep, which writes into the same views
        y, caches = nn.model_forward(model, 2 * x)
        again, _ = nn.model_backward(model, caches, y)
        assert all(np.shares_memory(g, a) and np.array_equal(g, a)
                   for g, a in zip(grads, again, strict=True))

    def test_a_model_without_parameters(self):
        model = nn.Model([nn.Reshape((6,))], "mse", (2, 3))
        x = np.arange(12.0).reshape(2, 2, 3)
        y, caches = nn.model_forward(model, x)
        grads, d_x = nn.model_backward(model, caches, y)
        assert grads == [] and np.array_equal(d_x, x)
        assert nn.model_backward(model, caches, y, need_input=False) == ([], None)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("in_dims, out_dims, batch, chunk", [
        ((8, 64, 8), (8, 64, 8), 7, 3),      # ragged: chunks of 3, 3 and 1
        ((32, 32, 32), (32, 32, 32), 2, 1),  # one sample a chunk, in row bands
    ], ids=["ragged", "banded"])
    def test_a_chunked_layer_without_the_input_gradient(self, in_dims, out_dims, batch,
                                                        chunk, with_bias):
        rng = make_rng(3)
        inner = layer.init_xavier(in_dims, out_dims, with_bias, rng)
        for b in inner.biases or ():
            b[...] = rng.standard_normal(b.shape)
        model = nn.Model([nn.NdLinear(inner)], "mse", in_dims)
        plan = layer._step_plan(in_dims, out_dims, batch, tensor.SMALL_GEMM_MNK)
        assert plan.c == chunk and not plan.whole
        x = rng.standard_normal((batch, *in_dims))
        d_y = rng.standard_normal((batch, *out_dims))
        sweeps = {}
        for need_input in (True, False):
            _, caches = nn.model_forward(model, x)
            grads, d_x = nn.model_backward(model, caches, d_y, need_input=need_input)
            sweeps[need_input] = [g.copy() for g in grads], d_x
        assert sweeps[True][1].shape == x.shape and sweeps[False][1] is None
        assert all(np.array_equal(a, b)
                   for a, b in zip(sweeps[True][0], sweeps[False][0], strict=True))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_models_history_cannot_change_its_results(self, data):
        # the history law through model_forward and model_backward: ndlinear -> relu
        # -> ndlinear -> ndlinear, the last reading the one before's Y as its input
        n = data.draw(st.integers(2, 3))
        dims = [data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n).map(tuple))
                for _ in range(4)]
        rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
        nds = [biased_ndlinear(a, b, rng) for a, b in zip(dims, dims[1:])]
        model = nn.Model([nds[0], nn.ReLU(), *nds[1:]], "mse", dims[0])
        pristine = copy.deepcopy(model)  # no layer has a spare set
        bounds = step_bounds(max(largest_step(nd.inner) for nd in nds))
        held = []
        for _ in range(data.draw(st.integers(2, 6))):
            batch, bound = data.draw(st.integers(1, 5)), data.draw(st.sampled_from(bounds))
            need_input, hold = data.draw(st.booleans()), data.draw(st.booleans())
            x = rng.standard_normal((batch, *dims[0]))
            d_y = rng.standard_normal((batch, *dims[-1]))
            fresh = copy.deepcopy(pristine)
            with mock.patch.object(tensor, "SMALL_GEMM_MNK", bound):
                y, caches = nn.model_forward(model, x)
                grads, d_x = nn.model_backward(model, caches, d_y, need_input)
                want_y, want_caches = nn.model_forward(fresh, x)
                want_grads, want_d_x = nn.model_backward(fresh, want_caches, d_y, need_input)
            for a, b in zip([y, *grads], [want_y, *want_grads], strict=True):
                assert np.array_equal(a, b)
            assert d_x is None if not need_input else np.array_equal(d_x, want_d_x)
            if hold:  # Y, dL/dX and the consumed caches; model.grad is the next sweep's
                held.append((y, d_x, caches, want_y, want_d_x))
            del y, grads, d_x, caches  # all else is dropped before the next step
        for y, d_x, _, want_y, want_d_x in held:
            assert np.array_equal(y, want_y)
            assert d_x is None or np.array_equal(d_x, want_d_x)

    def test_one_sweep_a_batch_of_train(self):
        data = nn.gen_separable_regression(make_rng(0), 100, (8, 8), (8, 8))
        model = nn.build_model(SEPARABLE_MODEL, make_rng(0))
        with mock.patch.object(nn, "model_backward", wraps=nn.model_backward) as spy:
            nn.train(model, data, nn.TrainConfig(epochs=2, batch_size=32), nn.AdamW(1e-3),
                     make_rng(1))
        assert spy.call_count == 2 * math.ceil(80 / 32)
        assert all(call.kwargs == {"need_input": False} for call in spy.call_args_list)


class TestRefusals:
    def test_ndlinear_out_shape_of_other_dims(self):
        lyr = nn.NdLinear(layer.init_xavier((2, 3), (4, 5), False, make_rng(0)))
        with pytest.raises(ShapeError, match=r"ndlinear expects \(2, 3\), gets \(3, 2\)"):
            lyr.out_shape((3, 2))

    def test_reshape_out_shape_of_another_size(self):
        with pytest.raises(ShapeError, match=r"cannot reshape features \(5,\) to \(2, 3\)"):
            nn.Reshape((2, 3)).out_shape((5,))

    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="loss must be one of"):
            nn.Model([nn.Dense(np.eye(2))], "hinge", (2,))

    def test_model_backward_with_the_wrong_number_of_caches(self):
        model = small_mse_model()
        y, caches = nn.model_forward(model, np.ones((2, 2, 3)))
        with pytest.raises(ShapeError, match="got 2 caches for 3 layers"):
            nn.model_backward(model, caches[:2], y)

    @pytest.mark.parametrize("layers, d_y, error", [
        # numpy's ValueError escaped from ReLU's d_y * mask
        ([nn.Dense(np.eye(3)), nn.ReLU()], np.ones((3, 3)), ShapeError),
        ([nn.Dense(np.eye(3)), nn.ReLU()], np.ones((2, 4)), ShapeError),
        ([nn.Dense(np.eye(3)), nn.ReLU()], [[1.0] * 3, [1.0]], ShapeError),
        ([nn.Dense(np.eye(3)), nn.ReLU()], np.ones((1, 3)), ShapeError),  # broadcast
        ([nn.Dense(np.eye(3)), nn.ReLU()], np.ones((2, 3), complex), TypeError),
        ([nn.Dense(np.eye(3)), nn.ReLU()], np.ones(3), ShapeError),
        # "cannot reshape" escaped from Reshape's backward
        ([nn.Dense(np.ones((3, 6))), nn.Reshape((2, 3))], np.ones((2, 5)), ShapeError),
        ([nn.Dense(np.ones((3, 6))), nn.Reshape((2, 3))], np.ones((3, 2, 3)), ShapeError),
        ([nn.Dense(np.eye(3))], np.ones((3, 3)), ShapeError),  # NdLinear's own check
    ], ids=["relu_rows", "relu_features", "relu_ragged", "relu_one_row", "relu_complex",
            "relu_rank_1", "reshape_features", "reshape_rows", "dense_rows"])
    def test_model_backward_refuses_a_bad_d_y_before_any_write(self, layers, d_y, error):
        model = nn.Model(layers, "mse", (3,))
        y, caches = nn.model_forward(model, np.ones((2, 3)))
        model.grad[:] = 7.0
        with pytest.raises(error):
            nn.model_backward(model, caches, d_y)
        assert np.all(model.grad == 7.0)
        # no backward consumed its cache: the caches still serve a good d_y
        assert nn.model_backward(model, caches, y)[1].shape == (2, 3)

    @pytest.mark.parametrize("lyr, x, d_y, error", [
        (nn.ReLU(), np.ones((2, 3)), np.ones((1, 3)), ShapeError),  # was broadcast to (2, 3)
        (nn.ReLU(), np.ones((2, 3)), np.ones((3, 3)), ShapeError),
        (nn.ReLU(), np.ones((2, 3)), np.ones((2, 3), complex), TypeError),
        (nn.Reshape((2, 3)), np.ones((4, 6)), np.ones((4, 3, 2)), ShapeError),  # was (4, 6)
        (nn.Reshape((2, 3)), np.ones((4, 6)), np.ones((3, 2, 3)), ShapeError),
    ], ids=["relu_broadcast", "relu_rows", "relu_complex", "reshape_features",
            "reshape_rows"])
    def test_layer_backward_refuses_a_d_y_unlike_its_output(self, lyr, x, d_y, error):
        y, cache = lyr.forward(x)
        with pytest.raises(error, match="d_y"):
            lyr.backward(cache, d_y, [], True)
        assert lyr.backward(cache, np.ones_like(y), [], True).shape == x.shape

    def test_reshape_forward_of_another_size(self):
        # numpy's "cannot reshape" ValueError escaped
        with pytest.raises(ShapeError, match=r"cannot reshape features \(5,\) to \(2, 3\)"):
            nn.Reshape((2, 3)).forward(np.ones((2, 5)))

    @pytest.mark.parametrize("x, error", [
        (np.float64(1.0), ShapeError),          # x.shape[0] raised IndexError
        (np.ones((2, 6), complex), TypeError),  # passed through
    ], ids=["zero_d", "complex"])
    def test_reshape_forward_runs_the_batch_rule(self, x, error):
        with pytest.raises(error, match="reshape input"):
            nn.Reshape((2, 3)).forward(x)

    def test_reshape_forward_converts_a_nested_list(self):
        # x.shape of a list raised AttributeError
        y, cache = nn.Reshape((2, 3)).forward([[1, 2, 3, 4, 5, 6]])
        assert y.dtype == np.float64 and y.tolist() == [[[1, 2, 3], [4, 5, 6]]]
        assert cache == (1, 6)

    def test_relu_forward_refuses_complex_values(self):
        # the real parts were compared, and the imaginary parts passed through
        with pytest.raises(TypeError, match="relu input must hold real numbers"):
            nn.ReLU().forward(np.array([[1 + 2j, -1 + 0j]]))

    @pytest.mark.parametrize("cache", [None, np.ones((2, 3)), [[True] * 3] * 2],
                             ids=["none", "float", "list"])
    def test_relu_backward_refuses_a_cache_that_is_not_a_mask(self, cache):
        # None raised AttributeError; a float array scaled d_y by its values
        with pytest.raises(ShapeError, match="relu cache is not the bool mask"):
            nn.ReLU().backward(cache, np.ones((2, 3)), [], True)

    def test_relu_infer_runs_forwards_batch_rule(self):
        # np.maximum took the input as given, and returned [[1+2j, 0j]]
        with pytest.raises(TypeError, match="relu input must hold real numbers"):
            nn.ReLU().infer(np.array([[1 + 2j, -1 + 0j]]))

    @pytest.mark.parametrize("cache", [(), None, (2,), (2, 5), (2, 6.0), [2, 6], (0, 6)],
                             ids=["empty", "none", "rows_only", "other_features", "float_dim",
                                  "list", "zero_rows"])
    def test_reshape_backward_refuses_a_cache_that_is_not_an_input_shape(self, cache):
        # () raised IndexError and None an untyped TypeError; (2, 5) reached numpy's reshape
        with pytest.raises(ShapeError, match="reshape cache is not the"):
            nn.Reshape((2, 3)).backward(cache, np.ones((2, 2, 3)), [], True)

    def test_reshape_backward_takes_forwards_cache(self):
        x = make_rng(9).standard_normal((2, 3, 2))
        y, cache = nn.Reshape((2, 3)).forward(x)
        assert np.array_equal(nn.Reshape((2, 3)).backward(cache, y, [], True), x)

    def test_mse_of_mismatched_shapes(self):
        with pytest.raises(ShapeError, match=r"target shape \(3, 2\) != \(2, 3\)"):
            nn.mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("targets, error", [
        (None, TypeError),                 # an AttributeError on t.shape
        ([[1.0, 2.0, 3.0]], ShapeError),  # a list is converted, then its shape checked
    ], ids=["none", "list"])
    def test_mse_targets_are_real_arrays(self, targets, error):
        with pytest.raises(error, match="target"):
            nn.mse_loss(np.zeros((2, 3)), targets)
        assert nn.mse_loss(np.zeros((1, 3)), [[1, 2, 2]])[0] == 3.0

    def test_cross_entropy_of_non_2d_logits(self):
        with pytest.raises(ShapeError, match=r"logits must be \(batch, classes\)"):
            nn.softmax_cross_entropy(np.zeros(3), np.zeros(1, dtype=int))

    def test_cross_entropy_labels_of_the_wrong_shape(self):
        with pytest.raises(ShapeError, match=r"labels shape \(2, 1\) != \(2,\)"):
            nn.softmax_cross_entropy(np.zeros((2, 3)), np.zeros((2, 1), dtype=int))


# Every loss entry below sees 2 rows: mse predictions and targets (2, 3), logits (2, 3)
# with 3 classes, and labels (2,) of integers in [0, 3).
_NOT_REAL = st.one_of(
    st.none(), st.just({}), st.text(max_size=3),
    st.builds(lambda s: np.full((2, 3), s), st.sampled_from(["a", "1.0"])),
    st.builds(lambda v: np.zeros((2, 3)) + 1j * v, st.floats(-1, 1)))


def _ragged(row):
    """Nested lists of two rows whose lengths differ, or whose depths do."""
    return st.one_of(
        st.builds(lambda k: [[row] * 3, [row] * k], st.integers(0, 4).filter(lambda k: k != 3)),
        st.just([[row], []]), st.just([[row, row], [[row]]]))


_MALFORMED_TARGETS = st.one_of(
    _NOT_REAL, _ragged(0.0),
    st.builds(np.float64, st.floats(-2, 2)),  # 0-d
    st.builds(lambda r: np.zeros((r, 3)), st.sampled_from([0, 1, 3])),  # row count
    st.builds(lambda f: np.zeros((2, f)), st.sampled_from([1, 2, 4])))

_MALFORMED_LABELS = st.one_of(
    _NOT_REAL, _ragged(1),
    st.builds(np.int64, st.integers(0, 2)),  # 0-d
    st.builds(lambda r: np.zeros(r, dtype=int), st.sampled_from([0, 1, 3])),
    st.just(np.zeros((2, 1), dtype=int)),
    st.builds(lambda v: np.array([0.0, v]), st.floats(0, 2)),  # float labels
    st.just(np.array([True, False])),
    st.builds(lambda v: np.array([v, 0]), st.sampled_from([-1, 3, 100])))  # out of range

_MALFORMED_LOGITS = st.one_of(
    _NOT_REAL, _ragged(1.0),
    st.builds(np.float64, st.floats(-2, 2)),
    st.sampled_from([(0, 3), (1, 3), (3, 3), (2, 0), (3,), (2, 3, 1)]).map(np.ones),
    st.just([[1.0, 2.0]]))

_LOSS_CASES = st.one_of(
    *(st.tuples(st.just(entry), _MALFORMED_TARGETS)
      for entry in ("mse_loss", "evaluate_mse", "train_mse_train", "train_mse_test")),
    *(st.tuples(st.just(entry), _MALFORMED_LABELS)
      for entry in ("labels", "evaluate_ce", "train_ce_train", "train_ce_test")),
    st.tuples(st.just("logits"), _MALFORMED_LOGITS))


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class TestLossEntryRefusals:
    """The target rule at every loss entry: malformed targets, labels and logits are
    a ShapeError or TypeError (no other type, no warning), and nothing is written."""

    @settings(max_examples=250, deadline=None)
    @given(_LOSS_CASES)
    @example(("evaluate_mse", [[1, 2], [3]]))           # a numpy ValueError
    @example(("evaluate_mse", np.full((2, 3), "a")))    # numpy's UFuncTypeError
    @example(("labels", [[1], []]))                     # a numpy ValueError
    @example(("logits", [[1.0, 2.0]]))                  # an AttributeError on .ndim
    @example(("logits", np.ones((2, 3)) + 1j))          # truncated, with a ComplexWarning
    def test_only_shape_and_type_errors_escape(self, case):
        entry, bad = case
        if isinstance(bad, np.ndarray):
            _read_only(bad)
        before = copy.deepcopy(bad)
        x, y, t, labels = _read_only(np.ones((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)),
                                     np.array([0, 1]))
        loss = "mse" if "mse" in entry else "cross_entropy"
        model = nn.Model([nn.Dense(np.eye(3))], loss, (3,))
        flat = model.flat.copy()
        good = t if loss == "mse" else labels
        calls = {
            "mse_loss": lambda: nn.mse_loss(y, bad),
            "labels": lambda: nn.softmax_cross_entropy(y, bad),
            "logits": lambda: nn.softmax_cross_entropy(bad, labels),
            "evaluate": lambda: nn.evaluate(model, x, bad),
            "train_train": lambda: nn.train(model, nn.TrainSplit(x, bad, x, good),
                                            nn.TrainConfig(epochs=1), nn.SGD(0.1), make_rng(0)),
            "train_test": lambda: nn.train(model, nn.TrainSplit(x, good, x, bad),
                                           nn.TrainConfig(epochs=1), nn.SGD(0.1), make_rng(0)),
        }
        call = calls[entry.replace("_mse", "").replace("_ce", "")]
        with pytest.raises(Exception) as raised:
            call()
        assert type(raised.value) in (ShapeError, TypeError), repr(raised.value)
        assert all(np.all(a == b) for a, b in
                   [(x, 1.0), (y, 0.0), (t, 0.0), (labels, [0, 1]), (model.flat, flat)])
        if isinstance(bad, np.ndarray):
            assert np.array_equal(bad, before)
        else:
            assert repr(bad) == repr(before)

    def test_lists_convert(self):
        logits, labels = np.array([[1.0, 2.0, 0.5]]), np.array([1])
        want = nn.softmax_cross_entropy(logits, labels)
        got = nn.softmax_cross_entropy(logits.tolist(), labels.tolist())
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


class TestTraining:
    def _data(self, seed=0):
        return nn.gen_separable_regression(make_rng(seed), 80, (3, 2), (2, 3),
                                           noise_sigma=0.1)

    def test_zero_lr_changes_nothing(self):
        model = nn.Model(
            [nn.NdLinear(layer.init_xavier((3, 2), (2, 3), False, make_rng(1)))],
            "mse", (3, 2))
        before = [p.copy() for p in model.params()]
        res = nn.train(model, self._data(), nn.TrainConfig(epochs=3),
                       nn.SGD(lr=0.0), make_rng(0))
        assert all(np.array_equal(a, b) for a, b in zip(before, model.params()))
        losses = [r["train_loss"] for r in res.log]
        assert losses[0] == losses[1] == losses[2]

    def test_deterministic_log(self):
        def run():
            model = nn.Model(
                [nn.NdLinear(layer.init_xavier((3, 2), (2, 3), False, make_rng(1)))],
                "mse", (3, 2))
            log = nn.train(model, self._data(), nn.TrainConfig(epochs=4),
                           nn.Adam(1e-2), make_rng(9)).log
            # every field but the wall clock repeats exactly
            return [{k: v for k, v in rec.items() if k != "epoch_wall_ns"} for rec in log]
        assert run() == run()

    def test_separable_classification_sanity(self):
        rng = make_rng(5)
        data = nn.gen_blob_classification(rng, 400, features=4, sep=6.0)
        model = nn.Model([nn.init_dense(4, 2, True, make_rng(2))],
                         "cross_entropy", (4, 1))
        res = nn.train(model, data, nn.TrainConfig(epochs=40),
                       nn.Adam(0.05), make_rng(0))
        assert res.final["train_accuracy"] >= 0.95

    def test_noise_free_realizable_converges(self):
        data = nn.gen_separable_regression(make_rng(11), 320, (8, 8), (8, 8),
                                           noise_sigma=0.0)
        model = nn.Model(
            [nn.NdLinear(layer.init_xavier((8, 8), (8, 8), False, make_rng(3)))],
            "mse", (8, 8))
        # 8 batches/epoch * 250 epochs = 2000 optimizer steps
        res = nn.train(model, data, nn.TrainConfig(epochs=250),
                       nn.Adam(1e-2), make_rng(0))
        assert res.final["test_loss"] < 1e-6

    @pytest.mark.filterwarnings("ignore:overflow")  # blow-up is the point
    def test_divergence_aborts(self):
        model = nn.Model(
            [nn.NdLinear(layer.init_xavier((3, 2), (2, 3), False, make_rng(1)))],
            "mse", (3, 2))
        with pytest.raises(nn.TrainingDiverged, match="epoch"):
            nn.train(model, self._data(), nn.TrainConfig(epochs=50),
                     nn.SGD(lr=1e12), make_rng(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            nn.TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            nn.TrainConfig(batch_size=0)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, True, "4", -1])
    def test_config_sizes_must_be_positive_ints(self, field, value):
        with pytest.raises(ValueError, match=field):
            nn.TrainConfig(**{field: value})

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_epoch_loss_aborts(self):
        # one batch per epoch: every batch loss is finite, but the update
        # leaves parameters whose epoch losses are not
        data = nn.gen_separable_regression(make_rng(0), 40, (3, 2), (2, 3))
        model = nn.Model(
            [nn.NdLinear(layer.init_xavier((3, 2), (2, 3), False, make_rng(1)))],
            "mse", (3, 2))
        with pytest.raises(nn.TrainingDiverged, match="epoch 1: train inf"):
            nn.train(model, data, nn.TrainConfig(epochs=1, batch_size=32),
                     nn.SGD(lr=1e200), make_rng(0))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowing_gradient_aborts_before_the_update(self):
        # h = x w1 = 1e8 and y = h give a finite loss (1e16) and a finite
        # dW2, but dW1 = x^T dL/dh = 4 * 1e308 * 5e7 overflows
        x = np.full((4, 1), 1e308)
        data = nn.TrainSplit(x, np.zeros((4, 1)), x[:1], np.zeros((1, 1)))
        model = nn.Model([nn.Dense(np.array([[1e-300]])), nn.Dense(np.ones((1, 1)))],
                         "mse", (1,))
        before = model.flat.copy()
        with pytest.raises(nn.TrainingDiverged, match=r"non-finite gradient at epoch 1, "
                           r"batch offset 0, first in layer 0 \(Dense\)"):
            nn.train(model, data, nn.TrainConfig(epochs=1, batch_size=4), nn.SGD(0.1),
                     make_rng(0))
        assert np.array_equal(model.flat, before)
        assert np.isfinite(model.grad[1]) and not np.isfinite(model.grad[0])

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_ndlinear_layer_shares_the_inner_parameter_order(self, with_bias):
        inner = layer.init_xavier((3, 2), (2, 3), with_bias, make_rng(2))
        lyr = nn.NdLinear(inner)
        assert all(p is q for p, q in zip(lyr.params(), inner.params(), strict=True))
        x = make_rng(3).standard_normal((4, 3, 2))
        y, cache = lyr.forward(x)
        grads = [np.empty_like(p) for p in lyr.params()]
        d_x = lyr.backward(cache, y, grads, True)
        want = layer.backward(inner, layer.forward(inner, x)[1], y)
        assert np.array_equal(d_x, want.d_input)
        assert all(np.array_equal(g, w) for g, w in zip(grads, want.params(), strict=True))

    def test_negative_label_refused(self):
        data = nn.gen_blob_classification(make_rng(5), 40, features=4)
        data.y_train[7] = -1
        model = nn.Model([nn.init_dense(4, 2, True, make_rng(2))], "cross_entropy", (4, 1))
        with pytest.raises(ShapeError, match="labels"):
            nn.train(model, data, nn.TrainConfig(epochs=1), nn.SGD(0.1), make_rng(0))

    @pytest.mark.parametrize("split, field", [("train", "training set"),
                                              ("test", "test set")])
    def test_empty_set_refused_before_training(self, split, field):
        data = self._data()
        setattr(data, f"x_{split}", data.x_train[:0])
        setattr(data, f"y_{split}", data.y_train[:0])
        model = nn.Model(
            [nn.NdLinear(layer.init_xavier((3, 2), (2, 3), False, make_rng(1)))],
            "mse", (3, 2))
        before = [p.copy() for p in model.params()]
        with pytest.raises(ShapeError, match=field):
            nn.train(model, data, nn.TrainConfig(epochs=1), nn.SGD(0.1), make_rng(0))
        assert all(np.array_equal(a, b) for a, b in zip(before, model.params()))

    def test_train_needs_a_generator(self):
        model = nn.Model([nn.ReLU()], "mse", (3,))
        with pytest.raises(TypeError, match="rng"):
            nn.train(model, self._data(), nn.TrainConfig(epochs=1), nn.SGD(0.1))

    def test_optimizers_reduce_loss(self):
        for opt in (nn.SGD(0.05), nn.Adam(0.01), nn.AdamW(0.01)):
            model = nn.Model(
                [nn.NdLinear(layer.init_xavier((3, 2), (2, 3), False, make_rng(1)))],
                "mse", (3, 2))
            res = nn.train(model, self._data(), nn.TrainConfig(epochs=10),
                           opt, make_rng(0))
            assert res.log[-1]["train_loss"] < res.log[0]["train_loss"]


class _LoopSGD:
    """Per-parameter SGD with momentum: the reference for ``nn.SGD``."""

    def __init__(self, lr, momentum):
        self.lr, self.momentum = lr, momentum
        self.velocity = None

    def step(self, params, grads):
        if self.velocity is None:
            self.velocity = [np.zeros_like(p) for p in params]
        for p, g, v in zip(params, grads, self.velocity):
            v *= self.momentum
            v += g
            p -= self.lr * v

    def state(self):
        return {"_velocity": self.velocity}


class _LoopAdam:
    """Per-parameter Adam, with decoupled weight decay first when
    ``weight_decay`` is set: the reference for ``nn.Adam``/``nn.AdamW``."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr, weight_decay=None):
        self.lr, self.weight_decay = lr, weight_decay
        self.m = self.v = None
        self.t = 0

    def step(self, params, grads):
        if self.weight_decay is not None:
            for p in params:
                p -= self.lr * self.weight_decay * p
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def state(self):
        return {"_m": self.m, "_v": self.v}


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _packed(arrays):
    """The arrays copied into one vector, and views of it shaped like them."""
    vec = np.concatenate(arrays, axis=None)
    bounds = np.cumsum([0, *(a.size for a in arrays)])
    return vec, [vec[i:j].reshape(a.shape) for i, j, a in zip(bounds, bounds[1:], arrays)]


OPTIMIZER_PAIRS = {
    "sgd": (lambda: nn.SGD(0.05), lambda: _LoopSGD(0.05, 0.9)),
    "adam": (lambda: nn.Adam(0.01), lambda: _LoopAdam(0.01)),
    "adamw": (lambda: nn.AdamW(0.01), lambda: _LoopAdam(0.01, weight_decay=0.01)),
}


class TestFlatOptimizers:
    @pytest.mark.parametrize("name", sorted(OPTIMIZER_PAIRS))
    def test_steps_bitwise_equal_per_parameter_loop(self, name):
        make, make_ref = OPTIMIZER_PAIRS[name]
        opt, ref = make(), make_ref()
        rng = make_rng(7)
        vec, params = _packed([rng.standard_normal(s)
                               for s in [(3, 4), (4,), (2, 5), (5,), (1, 1)]])
        ref_params = [p.copy() for p in params]
        for step in range(5):
            if step == 2:  # the caller edits a parameter between steps
                params[2][0] = ref_params[2][0] = 3.0
            grads = [rng.standard_normal(p.shape) for p in params]
            opt.step(vec, np.concatenate(grads, axis=None))
            ref.step(ref_params, [g.copy() for g in grads])
            assert all(_same_bits(p, q) for p, q in zip(params, ref_params))
            for attr, ref_state in ref.state().items():
                assert _same_bits(getattr(opt, attr), np.concatenate(ref_state, axis=None))

    @pytest.mark.parametrize("name", sorted(OPTIMIZER_PAIRS))
    def test_changed_parameter_layout_raises(self, name):
        # a layout change reaches the optimizer as a vector of another size
        opt = OPTIMIZER_PAIRS[name][0]()
        vec = np.zeros(9)
        opt.step(vec, np.ones(9))
        for other in (np.zeros(6), np.zeros(10), np.zeros(1)):
            with pytest.raises(ValueError, match="shape"):
                opt.step(other, np.ones_like(other))
            with pytest.raises(ValueError, match="shape"):
                opt.step(vec, np.ones_like(other))

    @pytest.mark.parametrize("name", sorted(OPTIMIZER_PAIRS))
    def test_model_without_parameters_trains(self, name):
        model = nn.Model([nn.ReLU()], "mse", (3,))
        rng = make_rng(0)
        x = rng.standard_normal((8, 3))
        data = nn.TrainSplit(x[:6], x[:6], x[6:], x[6:])
        res = nn.train(model, data, nn.TrainConfig(epochs=2, batch_size=4),
                       OPTIMIZER_PAIRS[name][0](), make_rng(42))
        assert res.final["train_loss"] == res.log[0]["train_loss"]


def _earlier_flat_step(name, lr, p, g, state):
    """The flat updates as they were written before their steps ran in place:
    SGD, Adam and AdamW over the whole vector, ``state`` holding t, m and v."""
    if name == "sgd":
        v = state.setdefault("v", np.zeros(p.shape))
        v *= 0.9
        v += g
        p -= lr * v
        return
    if name == "adamw":
        p -= lr * 0.01 * p
    m, v = state.setdefault("m", np.zeros(p.shape)), state.setdefault("v", np.zeros(p.shape))
    state["t"] = t = state.get("t", 0) + 1
    b1c = 1.0 - 0.9 ** t
    b2c = 1.0 - 0.999 ** t
    m += (1.0 - 0.9) * (g - m)
    v += (1.0 - 0.999) * (g * g - v)
    p -= lr * (m / b1c) / (np.sqrt(v / b2c) + 1e-8)


class TestInPlaceOptimizerSteps:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(nn.OPTIMIZERS)), size=st.integers(1, 700),
           steps=st.integers(1, 80), lr=st.floats(1e-6, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_the_earlier_statements(self, name, size, steps, lr, seed):
        rng = make_rng(seed)
        opt, state = nn.OPTIMIZERS[name](lr), {}
        p = rng.standard_normal(size)
        want = p.copy()
        for _ in range(steps):  # gradients over many scales, some entries exactly 0
            g = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 4, size=size)
            g[rng.random(size) < 0.1] = 0.0
            opt.step(p, g)
            _earlier_flat_step(name, lr, want, g, state)
            assert _same_bits(p, want)
        for attr, key in (("_velocity", "v"), ("_m", "m"), ("_v", "v")):
            if hasattr(opt, attr):
                assert _same_bits(getattr(opt, attr), state[key])
        with pytest.raises(ValueError, match="shape"):
            opt.step(np.zeros(size + 1), np.zeros(size + 1))

    @pytest.mark.parametrize("name", sorted(nn.OPTIMIZERS))
    def test_a_step_allocates_no_vector(self, name):
        # the first step sets up the state and its scratch; later steps write in place
        opt = nn.OPTIMIZERS[name](1e-3)
        rng = make_rng(9)
        p, g = rng.standard_normal(4096), rng.standard_normal(4096)
        opt.step(p, g)
        tracemalloc.start()
        try:
            opt.step(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.nbytes // 8


class TestPackedParameters:
    def _layers(self):
        rng = make_rng(4)
        return [nn.NdLinear(layer.init_xavier((2, 3), (3, 2), True, rng)), nn.ReLU(),
                nn.NdLinear(layer.init_xavier((3, 2), (2, 2), True, rng))]

    def _model(self):
        return nn.Model(self._layers(), "mse", (2, 3))

    def _data(self, rows):
        rng = make_rng(5)
        x = rng.standard_normal((rows, 2, 3))
        t = rng.standard_normal((rows, 2, 2))
        return nn.TrainSplit(x, t, x[:2], t[:2])

    def test_parameters_stay_views_of_the_vector_through_training(self):
        model = self._model()
        values = [p for lyr in self._layers() for p in lyr.params()]
        assert np.array_equal(model.flat, np.concatenate(values, axis=None))
        nn.train(model, self._data(16), nn.TrainConfig(epochs=2, batch_size=4),
                 nn.AdamW(0.01), make_rng(0))
        assert not np.array_equal(model.flat, np.concatenate(values, axis=None))
        assert all(np.shares_memory(p, model.flat) for p in model.params())
        assert np.array_equal(model.flat, np.concatenate(model.params(), axis=None))

    @pytest.mark.parametrize("shared", ["ndlinear", "dense"])
    def test_a_layer_listed_twice_is_refused(self, shared):
        # SGD used to apply only the second occurrence's gradient
        if shared == "ndlinear":
            inner = layer.init_xavier((2, 2), (2, 2), True, make_rng(0))
            layers, in_dims = [nn.NdLinear(inner), nn.ReLU(), nn.NdLinear(inner)], (2, 2)
        else:
            dense = nn.Dense(np.eye(4), np.zeros(4))
            layers, in_dims = [nn.ReLU(), dense, dense], (4,)
        pair = "0 and 2" if shared == "ndlinear" else "1 and 2"
        with pytest.raises(ShapeError, match=f"layers {pair} share parameter memory"):
            nn.Model(layers, "mse", in_dims)

    def test_layers_packed_again_are_refused(self):
        model = self._model()
        nn.Model(model.layers, "mse", (2, 3))  # rebinds the layers to its own vector
        with pytest.raises(ValueError, match="views of model.flat"):
            nn.train(model, self._data(8), nn.TrainConfig(epochs=1), nn.SGD(0.1),
                     make_rng(0))

    def test_saved_views_load_back(self, tmp_path):
        model = self._model()
        inner = model.layers[0].inner
        assert all(p.base is model.flat for p in inner.params())
        layer.save_layer(inner, tmp_path / "layer")
        loaded = layer.load_layer(tmp_path / "layer")
        assert all(np.array_equal(a, b)
                   for a, b in zip(loaded.params(), inner.params(), strict=True))

    def test_a_step_skips_the_input_gradient(self, monkeypatch):
        # the first layer's last W_1 G^T goes: one gemm fewer than
        # model_forward + model_backward; each layer's input is transposed once,
        # for its dW_1, and no dL/dX is transposed out (it leaves as a view)
        model = self._model()
        data = self._data(4)
        calls = {"matmul": 0, "permute": 0}
        for name in calls:
            def counted(*args, _real=getattr(layer, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(layer, name, counted)

        y, caches = nn.model_forward(model, data.x_train)
        nn.model_backward(model, caches, nn.mse_loss(y, data.y_train)[1])
        full = dict(calls)
        calls.update(matmul=0, permute=0)
        monkeypatch.setattr(nn, "evaluate", lambda *args: (1.0, None))  # count the step only
        nn.train(model, data, nn.TrainConfig(epochs=1, batch_size=4), nn.SGD(0.1),
                 make_rng(0))
        assert full == {"matmul": 12, "permute": 2}
        assert calls == {"matmul": 11, "permute": 2}


SEPARABLE_MODEL = {  # the benchmark's train_sep model
    "layers": [{"type": "ndlinear", "in": [8, 8], "out": [16, 16]}, {"type": "relu"},
               {"type": "ndlinear", "in": [16, 16], "out": [8, 8]}],
    "loss": "mse",
}


class TestCountedPrimitives:
    """The kernels' gemms and batch transposes go through ``tensor.matmul`` and
    ``permute``, which ``FlopCounter`` and a tracer read: a kernel that went
    round them would change these counts."""

    @staticmethod
    def counted_epoch(monkeypatch, n_train, evaluate=True):
        rng = make_rng(0)
        data = nn.gen_separable_regression(rng, 4096, (8, 8), (8, 8), noise_sigma=0.05)
        data.x_train, data.y_train = data.x_train[:n_train], data.y_train[:n_train]
        model = nn.build_model(SEPARABLE_MODEL, rng)
        calls = {"matmul": 0, "permute": 0}
        for name in calls:
            def counted(*args, _real=getattr(layer, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(layer, name, counted)
        if not evaluate:
            monkeypatch.setattr(nn, "evaluate", lambda *args: (1.0, None))
        with FlopCounter() as fc:
            nn.train(model, data, nn.TrainConfig(epochs=1, batch_size=32), nn.AdamW(1e-3),
                     make_rng(1))
        return calls, fc.multiply_adds

    def test_a_training_step(self, monkeypatch):
        # forward: 2 products a layer; backward: dW_k and W_k G^T of both modes of
        # the second layer, whose dL/dX leaves as a view, and dW_1, dW_2 and W_2 G^T
        # of the first, each layer's input transposed once for its dW_1
        calls, macs = self.counted_epoch(monkeypatch, 32, evaluate=False)
        assert calls == {"matmul": 11, "permute": 2}
        step = 32 * 8 * 16 * (8 + 16)  # multiply-adds of one layer's forward
        assert macs == 2 * step + 2 * step + step + 32 * 16 * 8 * 16 == 557_056

    def test_an_epoch(self, monkeypatch):
        # 3,277 training rows: 102 steps of 32 and one of 13, 17,408 multiply-adds
        # a row, 2 transposes a step; evaluate runs 17 blocks of at most 256 rows
        # through 2 layers, 2 products and no transpose each (the batch-leading
        # kernel), 6,144 multiply-adds a row of 4,096
        calls, macs = self.counted_epoch(monkeypatch, 3277)
        assert calls == {"matmul": 103 * 11 + 17 * 2 * 2, "permute": 103 * 2}
        assert calls == {"matmul": 1201, "permute": 206}
        assert macs == 3277 * 17_408 + 4096 * 6_144 == 82_211_840


class TestChecksAtTheBoundary:
    """``model_forward`` and ``nn.infer`` check the model input, and run each
    layer through its public ``forward`` or ``infer``, which checks its own."""

    BAD = [
        (lambda x: x[0], ShapeError),         # no batch axis
        (lambda x: x[:, :, :1], ShapeError),  # feature dims
        (lambda x: x[:0], ShapeError),        # an empty batch
        (lambda x: x + 1j, TypeError),        # complex
        (lambda x: x[0, 0, 0], ShapeError),   # 0-d
    ]

    @pytest.mark.parametrize("bad, error", BAD)
    def test_model_input(self, bad, error):
        model = nn.build_model(SEPARABLE_MODEL, make_rng(0))
        with pytest.raises(error):
            nn.model_forward(model, bad(make_rng(1).standard_normal((3, 8, 8))))

    @pytest.mark.parametrize("bad, error", BAD)
    def test_infer_input(self, bad, error):
        model = nn.build_model(SEPARABLE_MODEL, make_rng(0))
        with pytest.raises(error):
            nn.infer(model, bad(make_rng(1).standard_normal((3, 8, 8))))

    @pytest.mark.parametrize("run", [
        lambda m, x: layer.forward(m.layers[0].inner, x),
        lambda m, x: layer.forward_only(m.layers[0].inner, x),
        nn.model_forward,
        nn.infer,
    ], ids=["layer.forward", "layer.forward_only", "nn.model_forward", "nn.infer"])
    def test_a_ragged_nested_list_is_a_shape_error(self, run):
        # numpy's own "inhomogeneous shape" ValueError escaped before any check ran
        model = nn.build_model(SEPARABLE_MODEL, make_rng(0))
        ragged = [np.ones((8, 8)).tolist(), np.ones((8, 7)).tolist()]
        with pytest.raises(ShapeError, match="input is not a rectangular array"):
            run(model, ragged)

    def test_infer_is_the_forward_output(self):
        model = nn.build_model(SEPARABLE_MODEL, make_rng(0))
        x = make_rng(1).standard_normal((5, 8, 8))
        assert np.max(np.abs(nn.infer(model, x) - nn.model_forward(model, x)[0])) < 1e-12

    @pytest.mark.parametrize("bad, error", BAD)
    @pytest.mark.parametrize("call", ["forward", "infer"])
    def test_a_model_layer_called_directly(self, bad, error, call):
        lyr = nn.build_model(SEPARABLE_MODEL, make_rng(0)).layers[0]
        with pytest.raises(error):
            getattr(lyr, call)(bad(make_rng(1).standard_normal((3, 8, 8))))

    @pytest.mark.parametrize("config, fronts", [
        (SEPARABLE_MODEL, 2),
        ({"layers": [{"type": "ndlinear", "in": [8, 8], "out": [4, 4]}, {"type": "relu"},
                     {"type": "dense", "in": 16, "out": 64}, {"type": "reshape", "dims": [8, 8]}],
          "loss": "mse"}, 2),
    ], ids=["ndlinear", "dense"])
    def test_training_enters_each_layer_through_forward(self, config, fronts):
        # once a batch for each NdLinear (Dense included): the name a tracer wraps
        rng = make_rng(0)
        data = nn.gen_separable_regression(rng, 100, (8, 8), (8, 8))
        model = nn.build_model(config, rng)
        with mock.patch.object(layer, "forward", wraps=layer.forward) as spy:
            nn.train(model, data, nn.TrainConfig(epochs=1, batch_size=32), nn.AdamW(1e-3),
                     make_rng(1))
        assert spy.call_count == fronts * math.ceil(80 / 32)

    def test_model_input_of_any_layout_gives_the_same_bits(self):
        model = nn.build_model(SEPARABLE_MODEL, make_rng(0))
        x = make_rng(1).standard_normal((5, 8, 8))
        want = nn.model_forward(model, x)[0]
        for other in (np.asfortranarray(x), np.repeat(x, 2, axis=2)[:, :, ::2]):
            assert np.array_equal(nn.model_forward(model, other)[0], want)


class TestData:
    def test_targets_are_the_separable_map_of_the_drawn_factors(self):
        data = nn.gen_separable_regression(make_rng(0), 10, (3, 2), (2, 4), noise_sigma=0.0)
        replay = make_rng(0)  # the generator's draws in order: G_1, G_2, then X
        g1 = replay.standard_normal((3, 2)) / math.sqrt(3)
        g2 = replay.standard_normal((2, 4)) / math.sqrt(2)
        x = replay.standard_normal((10, 3, 2))
        want = np.einsum("bij,ik,jl->bkl", x, g1, g2)
        assert np.array_equal(np.concatenate([data.x_train, data.x_test]), x)
        assert np.allclose(np.concatenate([data.y_train, data.y_test]), want,
                           rtol=1e-13, atol=1e-13)

    def test_deterministic(self):
        a = nn.gen_separable_regression(make_rng(7), 20, (2, 2), (2, 2), 0.1)
        b = nn.gen_separable_regression(make_rng(7), 20, (2, 2), (2, 2), 0.1)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_test, b.y_test)

    def test_split_counts(self):
        data = nn.gen_separable_regression(make_rng(0), 320, (2, 2), (2, 2), 0.0,
                                           split=0.8)
        assert len(data.x_train) == 256
        assert len(data.x_test) == 64

    def test_blobs_shapes_and_labels(self):
        data = nn.gen_blob_classification(make_rng(1), 50, features=11)
        assert data.x_train.shape[1:] == (11, 1)
        assert set(np.unique(np.concatenate([data.y_train, data.y_test]))) <= {0, 1}

    @pytest.mark.parametrize("gen", [nn.gen_separable_regression, nn.gen_blob_classification])
    @pytest.mark.parametrize("b_total", [2.5, 0, True])
    def test_sample_count_must_be_a_positive_int(self, gen, b_total):
        # 2.5 ended in numpy's TypeError
        with pytest.raises(ShapeError, match="b_total"):
            gen(make_rng(0), b_total)

    def test_bad_split(self):
        with pytest.raises(ValueError):
            nn.gen_separable_regression(make_rng(0), 5, (2, 2), (2, 2), 0.0,
                                        split=0.999)


@pytest.mark.parametrize("with_bias", [False, True])
def test_init_dense_draws_the_one_mode_xavier_weights(with_bias):
    dense = nn.init_dense(6, 5, with_bias, make_rng(3)).inner
    lyr = layer.init_xavier((6,), (5,), with_bias, make_rng(3))
    assert np.array_equal(dense.weights[0], lyr.weights[0])
    bound = np.sqrt(6.0 / (6 + 5))  # the Xavier rule written out
    assert np.array_equal(dense.weights[0], make_rng(3).uniform(-bound, bound, size=(6, 5)))
    if with_bias:
        assert np.array_equal(dense.biases[0], np.zeros(5))
    else:
        assert dense.biases is None


def reference_dense_forward(w, b, x):
    """The dense layer's own forward statements, before it was a one-mode
    NdLinear: (y, x_flat)."""
    x_flat = np.ascontiguousarray(x).reshape(x.shape[0], -1)
    y = x_flat @ w
    if b is not None:
        y = y + b
    return y, x_flat


def reference_dense_backward(w, b, x_flat, in_shape, d_y):
    """Its backward statements: (dW, db or None, dL/dX)."""
    d_w = np.empty(w.shape)
    np.matmul(x_flat.T, d_y, out=d_w)
    d_b = None
    if b is not None:
        d_b = np.empty(b.shape)
        d_y.sum(axis=0, out=d_b)
    return d_w, d_b, (d_y @ w.T).reshape(in_shape)


@st.composite
def dense_cases(draw):
    """A Dense layer, an input of 1-3 feature axes (d their product) laid out
    C-contiguous, read-only, strided or column-major, and a d_y."""
    feature = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    batch, h = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((math.prod(feature), h))
    b = rng.standard_normal(h) if draw(st.booleans()) else None
    layout = draw(st.sampled_from(["C", "read-only", "strided", "F"]))
    if layout == "strided":
        x = rng.standard_normal((batch, *feature[:-1], 2 * feature[-1]))[..., ::2]
    else:
        x = rng.standard_normal((batch, *feature))
        if layout == "F":
            x = np.asfortranarray(x)
        x.flags.writeable = layout != "read-only"
    return nn.Dense(w, b), w, b, x, rng.standard_normal((batch, h))


class TestDenseIsOneModeNdLinear:
    @settings(max_examples=300, deadline=None)
    @given(dense_cases())
    def test_same_bits_as_the_dense_statements(self, case):
        dense, w, b, x, d_y = case
        want_y, x_flat = reference_dense_forward(w, b, x)
        want = reference_dense_backward(w, b, x_flat, x.shape, d_y)
        y, cache = dense.forward(x)
        assert np.array_equal(y, want_y) and np.array_equal(dense.infer(x), want_y)
        grads = [np.empty(p.shape) for p in dense.params()]
        d_x = dense.backward(cache, d_y, grads, True)
        assert d_x.shape == x.shape and np.array_equal(d_x, want[2])
        assert np.array_equal(grads[0], want[0])
        assert len(grads) == (1 if b is None else 2)
        if b is not None:
            assert np.array_equal(grads[1], want[1])
        again = [np.empty(p.shape) for p in dense.params()]
        assert dense.backward(dense.forward(x)[1], d_y, again, False) is None
        assert all(np.array_equal(g, a) for g, a in zip(grads, again, strict=True))

    def test_parameters_are_the_inner_layers(self):
        w, b = np.ones((6, 4)), np.zeros(4)
        dense = nn.Dense(w, b)
        assert dense.inner.in_dims == (6,) and dense.inner.out_dims == (4,)
        assert dense.params()[0] is w and dense.params()[1] is b
        assert dense.out_shape((2, 3)) == (4,)
        with pytest.raises(ShapeError, match="dense expects 6 features, gets 5"):
            dense.out_shape((5,))

    @pytest.mark.parametrize("call", ["forward", "infer"])
    def test_zero_d_input_is_a_shape_error(self, call):
        # x.shape[0] of a 0-d array raised IndexError
        with pytest.raises(ShapeError, match=r"dense input shape \(\) is not \(row count >= 1"):
            getattr(nn.Dense(np.ones((6, 4))), call)(np.float64(1.0))

    @pytest.mark.parametrize("w, b", [
        (np.ones(4), None),                  # a vector, not a matrix
        (np.ones((2, 3, 4)), None),
        (np.ones((4, 3)), np.ones(4)),       # bias of the input width
        (np.ones((4, 3)), np.ones((1, 3))),
    ])
    def test_bad_shapes_raise(self, w, b):
        with pytest.raises(ShapeError):
            nn.Dense(w, b)

    @pytest.mark.parametrize("call", ["forward", "infer"])
    def test_zero_rows_is_a_shape_error(self, call):
        # reshaping to (0, -1) raised numpy's ValueError
        with pytest.raises(ShapeError, match=r"shape \(0, 5\) is not \(row count >= 1"):
            getattr(nn.Dense(np.ones((5, 3))), call)(np.zeros((0, 5)))

    def test_list_weights_convert_to_float64(self):
        # a list weight raised AttributeError
        dense = nn.Dense([[1, 0], [0, 1], [1, 1]], [0, 1])
        assert all(p.dtype == np.float64 for p in dense.params())
        assert dense.infer(np.ones((1, 3))).tolist() == [[2.0, 3.0]]

    @pytest.mark.parametrize("w, b, what", [(np.eye(2) + 1j, None, "dense weight"),
                                            (np.eye(2), np.ones(2) + 1j, "bias")])
    def test_complex_parameters_are_a_type_error(self, w, b, what):
        with pytest.raises(TypeError, match=f"{what} must hold real numbers"):
            nn.Dense(w, b)

    def test_flop_counter_counts_the_dense_products(self):
        # B d h multiply-adds forward, and dW and dL/dX backward; nothing for the bias
        batch, d, h = 5, 12, 7
        rng = make_rng(8)
        dense = nn.Dense(rng.standard_normal((d, h)), rng.standard_normal(h))
        x = rng.standard_normal((batch, 3, 4))
        grads = [np.empty(p.shape) for p in dense.params()]
        with FlopCounter() as fc:
            y, cache = dense.forward(x)
        assert fc.multiply_adds == batch * d * h
        with FlopCounter() as fc:
            dense.backward(cache, y, grads, True)
        assert fc.multiply_adds == 2 * batch * d * h
        with FlopCounter() as fc:
            dense.backward(dense.forward(x)[1], y, grads, False)
        assert fc.multiply_adds == 2 * batch * d * h  # its forward, and dW alone


class TestMatchedBaseline:
    def test_exact_match(self):
        assert nn.matched_dense_width(128, 64, 64) == 1

    def test_rounding_within_tolerance(self):
        # target 3 * 128 = 384 -> width 3 exactly
        assert nn.matched_dense_width(384, 64, 64) == 3

    def test_unmatchable(self):
        with pytest.raises(ValueError):
            nn.matched_dense_width(10, 64, 64)


def biased_ndlinear(in_dims, out_dims, rng):
    lyr = layer.init_xavier(in_dims, out_dims, True, rng)
    biases = [rng.uniform(-1.0, 1.0, size=h) for h in out_dims]
    return nn.NdLinear(layer.NdLinearLayer(lyr.in_dims, lyr.out_dims, lyr.weights, biases))


def skewed_mse_model(seed=0):
    """ndlinear -> relu -> ndlinear; the first layer's plan is (1, 0)."""
    rng = make_rng(seed)
    model = nn.Model([biased_ndlinear((2, 16), (16, 2), rng), nn.ReLU(),
                      biased_ndlinear((16, 2), (3, 5), rng)], "mse", (2, 16))
    assert layer.plan_modes((2, 16), (16, 2)) == (1, 0)
    assert layer.plan_modes((16, 2), (3, 5)) == (0, 1)
    return model


def dense_ce_model(width, seed=0):
    rng = make_rng(seed)
    return nn.Model([nn.init_dense(6, width, True, rng), nn.ReLU(),
                     nn.Dense(rng.standard_normal((width, 3)), rng.standard_normal(3)),
                     nn.Reshape((3,))], "cross_entropy", (2, 3))


def block_rows(model):
    return max(1, nn._EVAL_BLOCK_BYTES // (8 * model.widest))


class TestEvaluate:
    def _data(self, model, n, seed=1):
        rng = make_rng(seed)
        x = rng.standard_normal((n, *model.in_dims))
        if model.loss == "mse":
            return x, rng.standard_normal((n, *model.out_shape))
        return x, rng.integers(0, model.out_shape[0], size=n)

    @pytest.mark.parametrize("make, extra", [
        (skewed_mse_model, 300),
        (lambda: dense_ce_model(width=40), 5),
        (lambda: dense_ce_model(width=70_000), 4),  # widest row alone > budget
    ])
    def test_blocked_equals_one_batch(self, monkeypatch, make, extra):
        model = make()
        rows = block_rows(model)
        n = (rows if rows > 1 else 0) + extra
        x, t = self._data(model, n)
        y, _ = nn.model_forward(model, x)
        want_loss, _ = nn._apply_loss(model, y, t)

        seen = []
        last = model.layers[-1]
        original = last.infer

        def spy(z):
            seen.append(len(z))
            return original(z)

        monkeypatch.setattr(last, "infer", spy)
        loss, acc = nn.evaluate(model, x, t)
        assert seen == [rows] * (n // rows) + ([n % rows] if n % rows else [])
        assert len(seen) >= 2
        assert loss == pytest.approx(want_loss, rel=1e-12)
        if model.loss == "mse":
            assert acc is None
        else:
            assert acc == float((y.argmax(axis=1) == t).mean())

    def test_block_rows_follow_widest_activation(self):
        assert skewed_mse_model().widest == 32
        assert block_rows(skewed_mse_model()) == 2048
        assert dense_ce_model(width=70_000).widest == 70_000
        assert block_rows(dense_ce_model(width=70_000)) == 1

    def test_no_training_forward_or_cache(self, monkeypatch):
        model = skewed_mse_model()
        x, t = self._data(model, 50)
        want = nn.evaluate(model, x, t)

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate must not run the training path")

        monkeypatch.setattr(layer, "forward", refuse)
        monkeypatch.setattr(layer, "LayerCache", refuse)
        assert nn.evaluate(model, x, t) == want

    def test_parameters_unchanged(self):
        for model in (skewed_mse_model(), dense_ce_model(width=40)):
            before = [p.copy() for p in model.params()]
            nn.evaluate(model, *self._data(model, 30))
            assert all(np.array_equal(a, b) for a, b in zip(before, model.params()))

    def test_shape_errors(self):
        model = skewed_mse_model()
        x, t = self._data(model, 4)
        with pytest.raises(ShapeError, match=r"with dims \(2, 16\)"):
            nn.evaluate(model, x[:, :1], t)
        with pytest.raises(ShapeError, match="target"):
            nn.evaluate(model, x, t[:3])

    def test_zero_d_input_is_a_shape_error(self):
        # x.shape[0] of a 0-d array raised IndexError
        model = skewed_mse_model()
        with pytest.raises(ShapeError, match=r"input shape \(\) .* with dims"):
            nn.evaluate(model, np.float64(1.0), np.zeros((1, 3, 5)))

    def test_zero_rows_is_a_shape_error(self):
        model = skewed_mse_model()
        x, t = self._data(model, 1)
        with pytest.raises(ShapeError, match="row count"):
            nn.evaluate(model, x[:0], t[:0])

    @pytest.mark.parametrize("kind", [complex, str])
    def test_non_real_input_is_a_type_error(self, kind):
        # a complex x lost its imaginary part with only a warning, a string
        # array was parsed as numbers
        model = small_mse_model()
        x, t = self._data(model, 3)
        with pytest.raises(TypeError, match="model input must hold real numbers"):
            nn.evaluate(model, x.astype(kind), t)
        with pytest.raises(TypeError, match="model input must hold real numbers"):
            nn.model_forward(model, x.astype(kind))

    def test_int_and_bool_input_convert(self):
        model = small_mse_model()
        x, t = self._data(model, 3)
        for kind in (int, bool):
            want = nn.evaluate(model, x.astype(kind).astype(float), t)
            assert nn.evaluate(model, x.astype(kind), t) == want
            assert np.array_equal(nn.model_forward(model, x.astype(kind))[0],
                                  nn.model_forward(model, x.astype(kind).astype(float))[0])


class TestModelConfig:
    GOOD = {
        "layers": [
            {"type": "ndlinear", "in": [11, 1], "out": [11, 64], "bias": True},
            {"type": "relu"},
            {"type": "dense", "in": 704, "out": 2},
        ],
        "loss": "cross_entropy",
    }

    def test_builds(self):
        model = nn.build_model(self.GOOD, make_rng(0))
        assert model.in_dims == (11, 1)
        assert model.out_shape == (2,)

    def test_unknown_type(self):
        bad = copy.deepcopy(self.GOOD)
        bad["layers"][1]["type"] = "softplus"
        with pytest.raises(nn.ConfigError, match=r"layers\[1\].type"):
            nn.build_model(bad, make_rng(0))

    def test_bad_dims(self):
        bad = copy.deepcopy(self.GOOD)
        bad["layers"][0]["in"] = [11, 0]
        with pytest.raises(nn.ConfigError, match=r"layers\[0\].in"):
            nn.build_model(bad, make_rng(0))

    @pytest.mark.parametrize("layer, field", [
        ({"type": "ndlinear", "in": [True, 8], "out": [8, 8]}, "layers[0].in"),
        ({"type": "ndlinear", "in": [8, 8], "out": [8, False]}, "layers[0].out"),
        ({"type": "dense", "in": 8, "out": True}, "layers[0].out"),
        ({"type": "dense", "in": 8.0, "out": 8}, "layers[0].in"),
    ])
    def test_bools_and_floats_are_not_dims(self, layer, field):
        # [true, 8] used to build a (1, 8) layer; a dense "out": true got through
        with pytest.raises(nn.ConfigError) as info:
            nn.build_model({"layers": [layer], "loss": "mse"}, make_rng(0))
        assert str(info.value).startswith(field + ":")

    @pytest.mark.parametrize("layer, key", [
        ({"type": "ndlinear", "out": [8]}, "in"),
        ({"type": "ndlinear", "in": 8, "out": [8]}, "in"),
        ({"type": "ndlinear", "in": [8], "out": []}, "out"),
        ({"type": "ndlinear", "in": [8], "out": "8"}, "out"),
        ({"type": "dense", "in": [8], "out": 8}, "in"),
        ({"type": "dense", "in": 8}, "out"),
    ])
    def test_sizes_follow_the_library_rule(self, layer, key):
        # the library's own message behind the field, showing the value given
        value = layer.get(key)
        with pytest.raises(ShapeError) as lib:
            if layer["type"] == "ndlinear":
                validate_shape(value)
            else:
                positive_int(value, "width")
        with pytest.raises(nn.ConfigError) as info:
            nn.build_model({"layers": [layer], "loss": "mse"}, make_rng(0))
        assert str(info.value) == f"layers[0].{key}: {lib.value}"
        assert str(info.value).endswith(f"got {value!r}")

    def test_reshape_dims_must_be_ints(self):
        config = {"layers": [{"type": "dense", "in": 6, "out": 6},
                             {"type": "reshape", "dims": [True, 6]}], "loss": "mse"}
        with pytest.raises(nn.ConfigError, match=r"layers\[1\].dims"):
            nn.build_model(config, make_rng(0))

    @pytest.mark.parametrize("kind, dims", [("ndlinear", [8, 8]), ("dense", 8)])
    def test_bias_must_be_bool(self, kind, dims):
        layer = {"type": kind, "in": dims, "out": dims, "bias": 1}
        with pytest.raises(nn.ConfigError, match=r"layers\[0\].bias"):
            nn.build_model({"layers": [layer], "loss": "mse"}, make_rng(0))

    def test_bad_loss(self):
        bad = copy.deepcopy(self.GOOD)
        bad["loss"] = "hinge"
        with pytest.raises(nn.ConfigError, match="loss"):
            nn.build_model(bad, make_rng(0))

    def test_non_composing(self):
        bad = copy.deepcopy(self.GOOD)
        bad["layers"][2]["in"] = 100
        with pytest.raises(nn.ConfigError, match="compose"):
            nn.build_model(bad, make_rng(0))

    def test_first_layer_must_fix_shape(self):
        with pytest.raises(nn.ConfigError, match="first layer"):
            nn.build_model({"layers": [{"type": "relu"}], "loss": "mse"},
                           make_rng(0))

    @pytest.mark.parametrize("config, fragment", [
        ([], "top level: expected an object, got list"),
        ({"loss": "mse"}, "layers: expected a non-empty list"),
        ({"layers": [], "loss": "mse"}, "layers: expected a non-empty list"),
        ({"layers": ["relu"], "loss": "mse"}, r"layers\[0\]: expected an object"),
        ({"layers": [{"type": "ndlinear", "in": [8, 8], "out": [8]}], "loss": "mse"},
         r"layers\[0\]: in and out must have the same rank"),
    ])
    def test_malformed_structure(self, config, fragment):
        with pytest.raises(nn.ConfigError, match=fragment):
            nn.build_model(config, make_rng(0))

    def test_reshape_layer_roundtrip(self):
        config = {
            "layers": [
                {"type": "dense", "in": 6, "out": 6, "bias": False},
                {"type": "reshape", "dims": [2, 3]},
            ],
            "loss": "mse",
        }
        model = nn.build_model(config, make_rng(0))
        assert model.out_shape == (2, 3)


def test_separable_comparison_structure():
    summary = nn.run_separable_comparison(n_seeds=2, in_dims=(4, 4), out_dims=(4, 4),
                                          n_train=64, n_test=32, epochs=10)
    assert summary["params"]["ndlinear"] == 2 * 16
    assert summary["params"]["naive_dense"] == 256
    assert set(summary["median_test_mse"]) == {"ndlinear", "naive_dense", "matched_dense"}
    assert len(summary["test_mse"]["ndlinear"]) == 2
