"""The training step against the code it was before its dispatch was cut.

``step_reference`` keeps ``nn.backward`` and ``nn.sgd_step`` as they were,
with the kernels they called then. The property reuses the cases of
``test_train_step`` and adds one-step branches and all-zero input rows,
and asks for the same bits: equal bytes for both loss values and every
gradient array, the same gradient names, the same rng state afterwards,
and the same parameters after the SGD update.

The error tests pin the order of ``nn.backward``'s finiteness checks:
softplus on the variance pre-activation, then softmax on the logits, then
``sampled_xent`` on the perturbed logits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_train_step import step_cases

import step_reference as ref
from veritas import nn
from veritas.errors import InvalidInput
from veritas.model import init_params


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_step_bits_equal_reference(case):
    layers, vectors, target, config, seed = case
    rng, ref_rng = nn.make_rng(seed), nn.make_rng(seed)
    args = (config.dropout_rate_train,)
    rest = (config.aleatoric_samples, config.ce_weight, config.aleatoric_weight)
    ce, sampled, grads = nn.backward(layers, vectors, target, *args, rng, *rest)
    want_ce, want_sampled, want = ref.backward(layers, vectors, target, *args, ref_rng, *rest)

    assert np.float64(ce).tobytes() == np.float64(want_ce).tobytes()
    assert np.float64(sampled).tobytes() == np.float64(want_sampled).tobytes()
    assert set(grads) == set(want)
    for name in want:
        assert same_bits(grads[name], want[name]), name
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    stepped = {k: v.copy() for k, v in layers.items()}
    expected = {k: v.copy() for k, v in layers.items()}
    nn.sgd_step(stepped, grads, config.learning_rate)
    ref.sgd_step(expected, want, config.learning_rate)
    for name in layers:
        assert same_bits(stepped[name], expected[name]), name


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
