"""One branch network for initialisation, inference and training.

``model.init_params`` and ``model.forward_branch`` must give the bits of
the per-layer code in ``network_reference`` they replaced, and
``nn.backward`` (training) must run the very forward pass that
``forward_branch`` (inference, MC dropout) runs: the same cross-entropy
and the same random numbers, compared exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import network_reference as ref
from veritas import nn
from veritas.errors import make_rng
from veritas.model import ModelParams, forward_branch, init_params


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def shapes(draw):
    n_classes = draw(st.integers(2, 5))
    return dict(
        input_dim=draw(st.integers(1, 40)),
        hidden_size=draw(st.integers(1, 12)),
        num_relu_layers=draw(st.integers(0, 3)),
        n_classes=n_classes,
        variance_dim=draw(st.sampled_from([1, n_classes])),
    )


@settings(max_examples=300, deadline=None)
@given(
    shapes(),
    st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(0, 2**32 - 1),
)
def test_init_params_equals_per_layer_reference(dims, input_scale, seed):
    got = init_params(**dims, seed=seed, input_scale=input_scale).layers
    expected = ref.init_params(**dims, seed=seed, input_scale=input_scale)
    assert list(got) == list(expected)
    for name in expected:
        assert same_bits(got[name], expected[name]), name


INT_TYPES = st.sampled_from([int, np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64])


@settings(max_examples=100, deadline=None)
@given(shapes(), st.fixed_dictionaries({name: INT_TYPES for name in ("input_dim", "hidden_size", "num_relu_layers",
                                                                       "n_classes", "variance_dim")}))
def test_init_params_same_for_every_integer_type(dims, types):
    # numpy takes the square root of a small numpy integer in float16
    typed = {name: types[name](value) for name, value in dims.items()}
    got, expected = init_params(**typed, seed=2).layers, init_params(**dims, seed=2).layers
    assert list(got) == list(expected)
    for name in expected:
        assert same_bits(got[name], expected[name]), name


@st.composite
def branch_cases(draw):
    dims = draw(shapes())
    dims["input_dim"] = min(dims["input_dim"], 8)
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed)
    layers = dict(init_params(**dims, seed=seed).layers)
    layers = {k: v + 0.5 * data.standard_normal(v.shape) for k, v in layers.items()}
    if draw(st.booleans()):
        # softplus(-800) is exactly 0: sampled_xent's zero-variance short circuit.
        layers["var.b"] = np.full(dims["variance_dim"], -800.0)
    steps = draw(st.integers(1, 6))
    vectors = data.standard_normal((steps, dims["input_dim"])) * (data.random((steps, dims["input_dim"])) < 0.6)
    target = np.zeros(dims["n_classes"])
    target[int(data.integers(dims["n_classes"]))] = 1.0
    rate = draw(st.sampled_from([0.0, 0.2, 0.5]))
    return ModelParams(layers), vectors, target, rate, seed


@settings(max_examples=300, deadline=None)
@given(branch_cases())
def test_forward_branch_equals_dense_op_chain(case):
    params, vectors, _, dropout, seed = case
    rng, ref_rng = make_rng(seed), make_rng(seed)
    out = forward_branch(params, vectors, dropout, rng)
    want = ref.forward_branch(params, vectors, dropout, ref_rng)
    assert same_bits(out.logits, want.logits)
    assert same_bits(out.variance, want.variance)
    assert same_bits(out.probs, want.probs)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(branch_cases(), st.integers(1, 6))
def test_training_runs_the_inference_forward_pass(case, samples):
    params, vectors, target, dropout, seed = case
    train_rng, infer_rng = make_rng(seed), make_rng(seed)
    ce, _, _ = nn.backward(params.layers, vectors, target, dropout, train_rng, samples, 1.0, 0.2)
    out = forward_branch(params, vectors, dropout, infer_rng)
    assert ce == nn._xent(out.probs, target)
    infer_rng.standard_normal((samples, params.n_classes))  # backward's noise block
    assert train_rng.bit_generator.state == infer_rng.bit_generator.state
