"""Numeric core: activations, layers, the training step, optimiser.

``TestTape`` and ``TestGradients`` check ``tests/tape_reference.py``, the
exact oracle of the training step in ``tests/test_train_step.py``, against
finite differences; its ops run their own slow kernels, not ``nn``'s.
Criterion 1 checks ``nn.backward`` and its kernels.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritas import HashingEmbedder, SyntheticSpec, generate_synthetic, mc_sample, nn
from veritas.errors import ConfigError, InvalidInput, ShapeError, child_rng, make_rng
from veritas.model import forward_branch, init_params

import network_reference as ref
import tape_reference as tr
from conftest import numeric_grad, rel_err


# ---------------------------------------------------------------------------
# activations


class TestSoftmax:
    def test_uniform_on_zeros(self):
        np.testing.assert_allclose(nn.softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-12)

    def test_two_logit_values(self):
        np.testing.assert_allclose(nn.softmax(np.array([1.0, 0.0])), [0.73106, 0.26894], atol=1e-5)

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, shift):
        v = np.array([5.0, 5.0, 5.0, 5.0])
        np.testing.assert_allclose(nn.softmax(v + shift), np.full(4, 0.25), atol=1e-9)

    @given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, logits):
        p = nn.softmax(np.array(logits))
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p >= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            nn.softmax(np.array([1.0, np.inf]))

    def test_rejects_matrix(self):
        with pytest.raises(ShapeError):
            nn.softmax(np.zeros((2, 2)))


class TestSoftplus:
    def test_zero(self):
        assert nn.softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_asymptote(self):
        assert nn.softplus(50.0) == pytest.approx(50.0, abs=1e-9)

    def test_negative_value(self):
        assert nn.softplus(-3.0) == pytest.approx(0.048587, abs=1e-6)

    def test_scalar_in_float_out(self):
        assert isinstance(nn.softplus(1.5), float)

    def test_array_matches_naive_form(self):
        x = np.linspace(-20, 20, 41)
        np.testing.assert_allclose(nn.softplus(x), np.log1p(np.exp(x)), rtol=1e-12)

    def test_no_overflow_far_out(self):
        assert nn.softplus(800.0) == 800.0
        assert nn.softplus(-800.0) == 0.0


def test_sigmoid_stable_at_extremes():
    assert nn.sigmoid(np.array([800.0]))[0] == 1.0
    assert nn.sigmoid(np.array([-800.0]))[0] == 0.0
    assert nn.sigmoid(np.array([0.0]))[0] == 0.5


# ---------------------------------------------------------------------------
# dense


class TestDense:
    def test_identity_relu(self):
        out = nn.dense_forward(np.eye(2), np.zeros(2), np.array([-1.0, 2.0]), "relu")
        np.testing.assert_array_equal(out, [0.0, 2.0])

    def test_zero_weights_gives_bias(self):
        b = np.array([0.3, -0.7, 2.0])
        out = nn.dense_forward(np.zeros((3, 4)), b, np.ones(4))
        np.testing.assert_array_equal(out, b)

    def test_matches_scalar_loop(self, rng):
        W = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        x = rng.normal(size=5)
        expect = np.array([sum(W[i, j] * x[j] for j in range(5)) + b[i] for i in range(3)])
        np.testing.assert_allclose(nn.dense_forward(W, b, x), expect, rtol=1e-12)
        np.testing.assert_allclose(
            nn.dense_forward(W, b, x, "relu"), np.maximum(expect, 0), rtol=1e-12
        )

    def test_shape_errors(self, rng):
        with pytest.raises(ShapeError):
            nn.dense_forward(np.zeros((2, 3)), np.zeros(3), np.zeros(3))
        with pytest.raises(ShapeError):
            nn.dense_forward(np.zeros((2, 3)), np.zeros(2), np.zeros(4))
        with pytest.raises(ConfigError):
            nn.dense_forward(np.zeros((2, 3)), np.zeros(2), np.zeros(3), "tanh")


# ---------------------------------------------------------------------------
# lstm


def _lstm_scalar_oracle(Wx, Wh, b, X):
    """Straight-line per-step reimplementation of the recurrences."""
    hidden = b.shape[0] // 4

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * hidden
    c = [0.0] * hidden
    rows = []
    for t in range(X.shape[0]):
        a = [
            sum(Wx[r, j] * X[t, j] for j in range(X.shape[1]))
            + sum(Wh[r, j] * h[j] for j in range(hidden))
            + b[r]
            for r in range(4 * hidden)
        ]
        i = [sig(a[r]) for r in range(hidden)]
        f = [sig(a[hidden + r]) for r in range(hidden)]
        g = [math.tanh(a[2 * hidden + r]) for r in range(hidden)]
        o = [sig(a[3 * hidden + r]) for r in range(hidden)]
        c = [f[r] * c[r] + i[r] * g[r] for r in range(hidden)]
        h = [o[r] * math.tanh(c[r]) for r in range(hidden)]
        rows.append(list(h))
    return np.array(rows)


class TestLstm:
    def test_zero_params_zero_output(self):
        hidden = 3
        out = nn.lstm_forward(
            np.zeros((4 * hidden, 2)), np.zeros((4 * hidden, hidden)), np.zeros(4 * hidden),
            np.ones((5, 2)),
        )
        np.testing.assert_array_equal(out, np.zeros((5, hidden)))

    def test_matches_scalar_loop_oracle(self, rng):
        hidden, dim, steps = 4, 3, 3
        Wx = rng.normal(size=(4 * hidden, dim))
        Wh = rng.normal(size=(4 * hidden, hidden))
        b = rng.normal(size=4 * hidden)
        X = rng.normal(size=(steps, dim))
        np.testing.assert_allclose(
            nn.lstm_forward(Wx, Wh, b, X), _lstm_scalar_oracle(Wx, Wh, b, X), rtol=1e-10
        )

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            nn.lstm_forward(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(7), np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            nn.lstm_forward(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8), np.zeros((0, 2)))
        # Each sums to the two input rows, but a length is a positive integer and not a bool.
        for lengths in ([True, True], [2.0], [1.5, 0.5], [0, 2]):
            with pytest.raises(ShapeError, match="lengths"):
                nn.lstm_forward(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8), np.zeros((2, 2)), lengths)
        # Any integer type is a length.
        out = nn.lstm_forward(np.zeros((8, 2)), np.zeros((8, 2)), np.zeros(8), np.zeros((2, 2)), (np.int64(1), 1))
        assert out.shape == (2, 2)


# ---------------------------------------------------------------------------
# dropout


class TestDropout:
    def test_inactive_returns_same_object(self):
        x = np.ones(4)
        assert ref.dropout_forward(x, 0.0) is x

    def test_zero_fraction_near_rate(self):
        masks = nn._draw_mask((10_000, 100), 0.3, make_rng(0))
        zero_fraction = float((masks == 0).mean())
        assert abs(zero_fraction - 0.3) <= 0.02

    def test_survivors_scaled_and_mean_preserved(self):
        mask = nn._draw_mask(200_000, 0.25, make_rng(3))
        survivors = mask[mask > 0]
        assert np.allclose(survivors, 1.0 / 0.75)
        x = np.full(200_000, 2.0)
        dropped = ref.dropout_forward(x, 0.25, make_rng(4))
        assert abs(dropped.mean() - 2.0) < 0.02

    def test_invalid_rate(self):
        params = init_params(4, 3, 1, 3, seed=0)
        vectors = np.ones((2, 4))
        target = np.array([1.0, 0.0, 0.0])
        tree = generate_synthetic(SyntheticSpec(trees_per_class=1, seed=0))[0]
        emb = HashingEmbedder(dimension=4, seed=0)
        p = params.layers
        for rate in (1.0, -0.1):
            calls = (
                lambda: nn.backward(p, vectors, target, rate, make_rng(0), 2, 1.0, 0.2),
                lambda: forward_branch(params, vectors, rate, make_rng(0)),
                lambda: mc_sample(params, tree, emb, 2, rate),
            )
            for call in calls:
                with pytest.raises(ConfigError, match=rf"dropout rate must be in \[0, 1\), got {rate}"):
                    call()


# ---------------------------------------------------------------------------
# the tape reference: plumbing


class TestTape:
    def test_sum_of_parameters_gives_unit_gradients(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=4)
        tape = tr.Tape()
        tape.watch_all({"a": a, "b": b})
        tr.weighted_sum(tr.tensor_sum(a, tape), tr.tensor_sum(b, tape), 1.0, 1.0, tape)
        grads = tr.backward(tape)
        np.testing.assert_array_equal(grads["a"], np.ones((2, 3)))
        np.testing.assert_array_equal(grads["b"], np.ones(4))

    def test_zero_weighted_loss_gives_zero_gradients(self, rng):
        a = rng.normal(size=5)
        tape = tr.Tape()
        tape.watch_all({"a": a})
        s = tr.tensor_sum(a, tape)
        tr.weighted_sum(s, s, 0.0, 0.0, tape)
        np.testing.assert_array_equal(tr.backward(tape)["a"], np.zeros(5))

    def test_untouched_watch_gets_zeros(self, rng):
        a = rng.normal(size=3)
        unused = rng.normal(size=(2, 2))
        tape = tr.Tape()
        tape.watch_all({"a": a, "unused": unused})
        tr.tensor_sum(a, tape)
        grads = tr.backward(tape)
        np.testing.assert_array_equal(grads["unused"], np.zeros((2, 2)))

    def test_empty_tape_raises(self):
        with pytest.raises(tr.TapeError):
            tr.backward(tr.Tape())

    def test_non_scalar_final_op_raises(self, rng):
        tape = tr.Tape()
        W, b, x = rng.normal(size=(2, 3)), rng.normal(size=2), rng.normal(size=3)
        tape.watch_all({"w": W})
        tr.dense(W, b, x, "linear", tape)
        with pytest.raises(tr.TapeError):
            tr.backward(tape)

    def test_fan_out_accumulates(self, rng):
        # The same node feeds two ops; gradients must add.
        x = rng.normal(size=4)
        tape = tr.Tape()
        tape.watch_all({"x": x})
        s1 = tr.tensor_sum(x, tape)
        s2 = tr.inner(x, np.full(4, 2.0), tape)
        tr.weighted_sum(s1, s2, 1.0, 1.0, tape)
        np.testing.assert_allclose(tr.backward(tape)["x"], np.full(4, 3.0))


# ---------------------------------------------------------------------------
# the tape reference: gradient checks, op by op

GRAD_TOL = 1e-4


def _check_grads(build, arrays, names, tol=GRAD_TOL):
    """build(arrays, tape) -> scalar node; compares tape grads vs FD."""

    def value(arrs):
        return float(build(arrs, tr.Tape()))

    tape = tr.Tape()
    tape.watch_all(arrays)
    build(arrays, tape)
    grads = tr.backward(tape)
    for name in names:
        fd = numeric_grad(value, arrays, name)
        err = rel_err(grads[name], fd)
        assert err < tol, f"{name}: rel err {err:.3g}"


class TestGradients:
    @pytest.mark.parametrize("activation", ["linear", "relu"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense(self, activation, seed):
        rng = np.random.default_rng(seed)
        arrays = {
            "w": rng.normal(size=(4, 5)),
            "b": rng.normal(size=4),
            "x": rng.normal(size=5),
        }
        r = rng.normal(size=4)

        def build(arrs, tape):
            return tr.inner(tr.dense(arrs["w"], arrs["b"], arrs["x"], activation, tape), r, tape)

        _check_grads(build, arrays, ("w", "b", "x"))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lstm(self, seed):
        rng = np.random.default_rng(seed)
        hidden, dim, steps = 3, 4, 5
        arrays = {
            "wx": rng.normal(size=(4 * hidden, dim)) * 0.5,
            "wh": rng.normal(size=(4 * hidden, hidden)) * 0.5,
            "b": rng.normal(size=4 * hidden) * 0.5,
            "x": rng.normal(size=(steps, dim)),
        }
        r = rng.normal(size=(steps, hidden))

        def build(arrs, tape):
            hs = tr.lstm(arrs["wx"], arrs["wh"], arrs["b"], arrs["x"], 0.0, None, tape)
            return tr.inner(hs, r, tape)

        _check_grads(build, arrays, ("wx", "wh", "b", "x"))

    def test_lstm_with_dropout(self):
        rng = np.random.default_rng(7)
        hidden, dim, steps = 3, 3, 4
        arrays = {
            "wx": rng.normal(size=(4 * hidden, dim)) * 0.5,
            "wh": rng.normal(size=(4 * hidden, hidden)) * 0.5,
            "b": rng.normal(size=4 * hidden) * 0.5,
            "x": rng.normal(size=(steps, dim)),
        }
        r = rng.normal(size=(steps, hidden))
        def build(arrs, tape):
            # Fresh generator per call keeps the mask fixed across FD evals.
            hs = tr.lstm(arrs["wx"], arrs["wh"], arrs["b"], arrs["x"], 0.4, make_rng(11), tape)
            return tr.inner(hs, r, tape)

        _check_grads(build, arrays, ("wx", "wh", "b", "x"))

    def test_dropout_and_softplus(self):
        rng = np.random.default_rng(5)
        arrays = {"x": rng.normal(size=6)}
        r = rng.normal(size=6)
        def build(arrs, tape):
            y = tr.dropout(arrs["x"], 0.3, make_rng(2), tape)
            return tr.inner(tr.softplus(y, tape), r, tape)

        _check_grads(build, arrays, ("x",))

    def test_take_last(self):
        rng = np.random.default_rng(6)
        arrays = {"x": rng.normal(size=(4, 3))}
        r = rng.normal(size=3)

        def build(arrs, tape):
            return tr.inner(tr.take_last(arrs["x"], tape), r, tape)

        _check_grads(build, arrays, ("x",))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_softmax_xent(self, seed):
        rng = np.random.default_rng(seed)
        arrays = {"v": rng.normal(size=4)}
        y = np.zeros(4)
        y[int(rng.integers(4))] = 1.0

        def build(arrs, tape):
            return tr.softmax_xent(arrs["v"], y, tape)

        _check_grads(build, arrays, ("v",))

    @pytest.mark.parametrize("per_logit", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_xent(self, per_logit, seed):
        rng = np.random.default_rng(seed)
        n_classes = 3
        sig_dim = n_classes if per_logit else 1
        arrays = {
            "v": rng.normal(size=n_classes),
            "sig": rng.uniform(0.5, 2.0, size=sig_dim),
        }
        y = np.zeros(n_classes)
        y[int(rng.integers(n_classes))] = 1.0
        eps = rng.standard_normal((40, n_classes))

        def build(arrs, tape):
            return tr.sampled_xent(arrs["v"], arrs["sig"], y, eps, tape)

        _check_grads(build, arrays, ("v", "sig"), tol=1e-3)

    def test_inner_and_weighted_sum(self):
        rng = np.random.default_rng(4)
        arrays = {"x": rng.normal(size=5)}
        r = rng.normal(size=5)

        def build(arrs, tape):
            a = tr.inner(arrs["x"], 0.5 * r, tape)
            b = tr.tensor_sum(arrs["x"], tape)
            return tr.weighted_sum(a, b, 1.0, 0.25, tape)

        _check_grads(build, arrays, ("x",))


# ---------------------------------------------------------------------------
# sampled loss specifics


class TestSampledXent:
    def test_zero_variance_matches_plain_xent_exactly(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            v = rng.normal(size=n) * 3
            y = np.zeros(n)
            y[int(rng.integers(n))] = 1.0
            eps = rng.standard_normal((int(rng.integers(1, 30)), n))
            plain = nn.softmax_xent(v, y)
            sampled = nn.sampled_xent(v, np.zeros(1), y, eps)
            assert float(sampled) == float(plain)

    def test_zero_variance_gradients(self, rng):
        # The training step's short circuit: plain cross-entropy gradients on
        # the logits and no gradient entry for the variance head.
        params = init_params(3, 4, 0, 4, seed=2)
        params.layers["var.b"][:] = -800.0
        vectors = rng.normal(size=(2, 3))
        y = np.array([0.0, 1.0, 0.0, 0.0])
        out = forward_branch(params, vectors)
        assert np.all(out.variance == 0.0)
        _, _, grads = nn.backward(params.layers, vectors, y, 0.0, rng, 10, 0.0, 1.0)
        assert "var.w" not in grads and "var.b" not in grads
        np.testing.assert_allclose(grads["out.b"], nn.softmax(out.logits) - y, atol=1e-12)

    def test_single_draw_is_direct_evaluation(self, rng):
        v = rng.normal(size=3)
        sig = np.array([0.49])
        y = np.array([1.0, 0.0, 0.0])
        eps = rng.standard_normal((1, 3))
        expect = -math.log(max(nn.softmax(v + eps[0] * 0.7)[0], nn.LOG_FLOOR))
        assert float(nn.sampled_xent(v, sig, y, eps)) == pytest.approx(expect, rel=1e-12)

    def test_validation(self, rng):
        v = np.zeros(3)
        y = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ShapeError):
            nn.sampled_xent(v, np.zeros(2), y, rng.standard_normal((5, 3)))
        with pytest.raises(ShapeError):
            nn.sampled_xent(v, np.zeros(1), y, rng.standard_normal((5, 4)))
        with pytest.raises(InvalidInput):
            nn.sampled_xent(v, np.array([-0.1]), y, rng.standard_normal((5, 3)))


# ---------------------------------------------------------------------------
# optimiser


class TestSgd:
    def test_zero_lr_unchanged(self, rng):
        p = rng.normal(size=4)
        layers = {"a": p.copy()}
        nn.sgd_step(layers, {"a": rng.normal(size=4)}, 0.0)
        np.testing.assert_array_equal(layers["a"], p)

    def test_hand_case(self):
        layers = {"a": np.array([1.0])}
        nn.sgd_step(layers, {"a": np.array([1.0])}, 0.1)
        assert layers["a"][0] == pytest.approx(0.9)

    def test_dict_matches_elementwise_oracle(self, rng):
        params = {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=3)}
        grads = {"a": rng.normal(size=(2, 2)), "b": rng.normal(size=3)}
        layers = {k: v.copy() for k, v in params.items()}
        arrays = dict(layers)
        nn.sgd_step(layers, grads, 0.05)
        for k in params:
            assert layers[k] is arrays[k]  # updated in place
            assert np.array_equal(layers[k], params[k] - 0.05 * grads[k])

    def test_missing_grad_key_kept(self, rng):
        a = rng.normal(size=2)
        layers = {"a": a, "b": rng.normal(size=3)}
        before = a.copy()
        nn.sgd_step(layers, {"b": np.ones(3)}, 0.1)
        assert layers["a"] is a
        np.testing.assert_array_equal(a, before)

    def test_errors(self):
        with pytest.raises(ConfigError):
            nn.sgd_step({"a": np.zeros(2)}, {"a": np.zeros(2)}, -0.1)
        with pytest.raises(ShapeError, match="layer 'a'"):
            nn.sgd_step({"a": np.zeros(2)}, {"a": np.zeros(3)}, 0.1)


# ---------------------------------------------------------------------------
# rng streams


def test_child_rng_deterministic_and_distinct():
    a = child_rng(5, 1).random(4)
    b = child_rng(5, 1).random(4)
    c = child_rng(5, 2).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
