"""The fused training step against the Tape reference it replaces.

The reference is the per-branch step ``model.train`` used to run: the
network and both losses recorded on a ``Tape``, ``nn.backward``, then
``nn.sgd_step``. The fused step must give the same parameters and loss
values bit for bit and consume the same random numbers, so the checks use
exact equality, not a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from veritas import nn
from veritas.model import ModelParams, TrainingConfig, _train_step, forward_branch, init_params
from veritas.nn import DropoutSpec, Tape


def reference_step(layers, vectors, target, config, dropout, rng):
    tape = Tape()
    tape.watch_all(layers)
    out = forward_branch(ModelParams(layers), vectors, dropout, rng, tape=tape)
    ce = nn.softmax_xent(out.logits, target, tape=tape)
    noise = rng.standard_normal((config.aleatoric_samples, target.shape[0]))
    sampled = nn.sampled_xent(out.logits, out.variance, target, noise, tape=tape)
    nn.weighted_sum(ce, sampled, config.ce_weight, config.aleatoric_weight, tape=tape)
    return nn.sgd_step(layers, nn.backward(tape), config.learning_rate), float(ce), float(sampled)


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
    dropout = DropoutSpec(config.dropout_rate_train, active=config.dropout_rate_train > 0)
    ref_rng, fused_rng = nn.make_rng(seed), nn.make_rng(seed)
    expected, ref_ce, ref_sampled = reference_step(layers, vectors, target, config, dropout, ref_rng)

    fused = {k: v.copy() for k, v in layers.items()}
    n_relu = ModelParams(fused).num_relu_layers
    ce, sampled = _train_step(fused, n_relu, vectors, target, config, dropout, fused_rng)

    assert (ce, sampled) == (ref_ce, ref_sampled)
    assert set(fused) == set(expected)
    for name in expected:
        assert np.array_equal(fused[name], expected[name]), name
    assert fused_rng.random() == ref_rng.random()


def test_zero_variance_case_is_reached():
    layers = dict(init_params(3, 4, 1, 3, seed=0).layers)
    layers["var.b"] = np.full(1, -800.0)
    out = forward_branch(ModelParams(layers), np.ones((2, 3)))
    assert np.all(out.variance == 0.0)
