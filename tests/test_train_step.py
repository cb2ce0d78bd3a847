"""The library's training step against the Tape reference it replaced.

``nn.backward`` followed by the in-place ``nn.sgd_step`` must give what
``tape_reference.reference_step`` followed by its functional ``sgd`` gives
(the network and both losses recorded on a Tape and swept in reverse, with
slow kernels of its own) bit for bit: equal bytes for both loss values and
every gradient ``nn.backward`` returns, zeros on the Tape for the variance
layers it leaves out at zero variance, the same rng state afterwards, and
the same parameters after the update. The cases add one-step branches and
all-zero input rows to the drawn ones.

The error tests pin the order of ``nn.backward``'s finiteness checks:
softplus on the variance pre-activation, then softmax on the logits, then
``sampled_xent`` on the perturbed logits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tape_reference import reference_step, sgd

from veritas import nn
from veritas.errors import InvalidInput, make_rng
from veritas.model import ModelParams, TrainingConfig, forward_branch, init_params


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def step_cases(draw):
    hidden = draw(st.integers(1, 8))
    n_relu = draw(st.integers(0, 2))
    n_classes = draw(st.integers(2, 4))
    input_dim = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 6))
    weights = draw(st.sampled_from([(1.0, 0.2), (0.0, 1.0), (1.0, 0.0), (0.7, 1.3)]))
    config = TrainingConfig(
        hidden_size=hidden,
        num_relu_layers=n_relu,
        dropout_rate_train=draw(st.sampled_from([0.0, 0.2, 0.5])),
        learning_rate=draw(st.sampled_from([0.01, 0.05, 0.3])),
        aleatoric_samples=draw(st.integers(1, 6)),
        ce_weight=weights[0],
        aleatoric_weight=weights[1],
        variance_per_logit=draw(st.booleans()),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed)
    variance_dim = n_classes if config.variance_per_logit else 1
    layers = dict(init_params(input_dim, hidden, n_relu, n_classes, seed=seed, variance_dim=variance_dim).layers)
    layers = {k: v + 0.3 * data.standard_normal(v.shape) for k, v in layers.items()}
    if draw(st.booleans()):
        # softplus(-800) is exactly 0: sampled_xent's zero-variance short circuit.
        layers["var.b"] = np.full(variance_dim, -800.0)
    # Sparse inputs, as hashed embeddings are: exact zeros meet negative gradients.
    vectors = data.standard_normal((steps, input_dim)) * (data.random((steps, input_dim)) < 0.6)
    target = np.zeros(n_classes)
    target[int(data.integers(n_classes))] = 1.0
    return layers, vectors, target, config, seed


@st.composite
def oracle_cases(draw):
    layers, vectors, target, config, seed = draw(step_cases())
    shape = draw(st.sampled_from(["as drawn", "one step", "zero rows"]))
    if shape == "one step":
        vectors = vectors[-1:]
    elif shape == "zero rows":
        zero = draw(st.lists(st.booleans(), min_size=len(vectors), max_size=len(vectors)))
        vectors = vectors.copy()
        vectors[np.asarray(zero, dtype=bool)] = 0.0
    return layers, vectors, target, config, seed


@settings(max_examples=400, deadline=None)
@given(oracle_cases())
def test_step_bits_equal_tape_reference(case):
    layers, vectors, target, config, seed = case
    rng, ref_rng = make_rng(seed), make_rng(seed)
    rate = config.dropout_rate_train
    want, want_ce, want_sampled, variance = reference_step(layers, vectors, target, config, rate, ref_rng)

    stepped = {k: v.copy() for k, v in layers.items()}
    ce, sampled, grads = nn.backward(
        stepped, vectors, target, rate, rng, config.aleatoric_samples, config.ce_weight, config.aleatoric_weight
    )
    assert all(same_bits(stepped[k], layers[k]) for k in layers)  # backward mutates nothing

    assert np.float64(ce).tobytes() == np.float64(want_ce).tobytes()
    assert np.float64(sampled).tobytes() == np.float64(want_sampled).tobytes()
    assert set(want) == set(layers) and set(grads) <= set(want)
    for name in grads:
        assert same_bits(grads[name], want[name]), name
    omitted = set(want) - set(grads)
    assert omitted == ({"var.w", "var.b"} if not np.sqrt(variance).any() else set())
    for name in omitted:
        assert not want[name].any(), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    nn.sgd_step(stepped, grads, config.learning_rate)
    expected = sgd(layers, want, float(config.learning_rate))
    assert set(stepped) == set(expected)
    for name in expected:
        assert same_bits(stepped[name], expected[name]), name


def test_zero_variance_case_is_reached():
    layers = dict(init_params(3, 4, 1, 3, seed=0).layers)
    layers["var.b"] = np.full(1, -800.0)
    out = forward_branch(ModelParams(layers), np.ones((2, 3)))
    assert np.all(out.variance == 0.0)


class _FixedNoise:
    """A generator stand-in whose noise block is one constant; no dropout draws it."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)


def _step(layers, noise=1.0):
    vectors = np.ones((2, 3))
    target = np.array([1.0, 0.0, 0.0])
    return nn.backward(layers, vectors, target, 0.0, _FixedNoise(noise), 4, 1.0, 0.2)


@pytest.fixture
def layers():
    return {k: v.copy() for k, v in init_params(3, 4, 1, 3, seed=0).layers.items()}


def test_non_finite_variance_is_the_softplus_error_first(layers):
    layers["var.b"][:] = np.inf
    layers["out.b"][:] = np.inf
    with pytest.raises(InvalidInput, match=r"^softplus: input must be finite$"):
        _step(layers)


def test_non_finite_logits_with_finite_variance_are_the_softmax_error(layers):
    layers["out.b"][:] = np.inf
    with pytest.raises(InvalidInput, match=r"^softmax: logits must be finite$"):
        _step(layers)


def test_overflowing_noise_times_sqrt_variance_is_the_sampled_xent_error(layers):
    # softplus(1e300) is 1e300, so the noise is scaled by 1e150; 1e200 times that overflows.
    layers["var.b"][:] = 1e300
    with np.errstate(over="ignore"), pytest.raises(
        InvalidInput, match=r"^sampled_xent: perturbed logits are not finite$"
    ):
        _step(layers, noise=1e200)
    _step(layers)  # the same layers with unit noise raise nothing
