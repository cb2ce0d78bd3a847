"""The library's training step against the Tape reference it replaced.

``nn.backward`` followed by the in-place ``nn.sgd_step`` must give the
same parameters and loss values as ``tape_reference.reference_step`` (the
network and both losses recorded on a Tape, a reverse sweep, a functional
SGD update) bit for bit, and consume the same random numbers, so the
checks use exact equality, not a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from tape_reference import reference_step

from veritas import nn
from veritas.model import ModelParams, TrainingConfig, forward_branch, init_params


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


@settings(max_examples=300, deadline=None)
@given(step_cases())
def test_fused_step_equals_tape_reference(case):
    layers, vectors, target, config, seed = case
    ref_rng, step_rng = nn.make_rng(seed), nn.make_rng(seed)
    rate = config.dropout_rate_train
    expected, ref_ce, ref_sampled = reference_step(layers, vectors, target, config, rate, ref_rng)

    stepped = {k: v.copy() for k, v in layers.items()}
    ce, sampled, grads = nn.backward(
        stepped, vectors, target, rate, step_rng,
        config.aleatoric_samples, config.ce_weight, config.aleatoric_weight,
    )
    assert all(np.array_equal(stepped[k], layers[k]) for k in layers)  # backward mutates nothing
    nn.sgd_step(stepped, grads, config.learning_rate)

    assert (ce, sampled) == (ref_ce, ref_sampled)
    assert set(stepped) == set(expected)
    for name in expected:
        assert np.array_equal(stepped[name], expected[name]), name
    assert step_rng.random() == ref_rng.random()


def test_zero_variance_case_is_reached():
    layers = dict(init_params(3, 4, 1, 3, seed=0).layers)
    layers["var.b"] = np.full(1, -800.0)
    out = forward_branch(ModelParams(layers), np.ones((2, 3)))
    assert np.all(out.variance == 0.0)
