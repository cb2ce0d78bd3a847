"""The LSTM step's fast paths against the loops they replaced.

``network_reference`` keeps the slow versions: fresh arrays per step and
a two-division sigmoid in the recurrence, per-step outer products in the
backward. Every property asks for the same bits: ``np.array_equal`` and
equal ``tobytes()`` for each state array and each gradient.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import network_reference as ref
from veritas import nn

STATE_FIELDS = ("acts", "cells", "hiddens", "tanh_cells")


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


@st.composite
def lstm_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps, hidden = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    dim = draw(st.integers(1, 40))
    # Large weight scales drive gates into both saturated tails.
    scale = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
    Wx = scale * rng.standard_normal((4 * hidden, dim))
    Wh = scale * rng.standard_normal((4 * hidden, hidden))
    b = scale * rng.standard_normal(4 * hidden)
    X = rng.standard_normal((steps, dim))
    density = draw(st.sampled_from([1.0, 0.5, 0.1, 0.0]))
    X *= rng.random((steps, dim)) < density  # sparse, as hashing embeddings are
    zero_rows = rng.random(steps) < draw(st.sampled_from([0.0, 0.3]))
    X[zero_rows] = 0.0
    # Gradients spanning many magnitudes, so a reordered sum would round differently.
    d_hidden = rng.standard_normal((steps, hidden)) * 10.0 ** rng.integers(-8, 9, size=(steps, hidden))
    d_hidden *= rng.random((steps, hidden)) >= draw(st.sampled_from([0.0, 0.2, 0.5]))  # dropout zeros
    return Wx, Wh, b, X, d_hidden


@settings(max_examples=400, deadline=None)
@given(lstm_cases())
def test_recurrence_bits_equal_fresh_array_loop(case):
    Wx, Wh, b, X, _ = case
    fast = nn._lstm_recurrence(Wx, Wh, b, X)
    slow = ref.lstm_recurrence(Wx, Wh, b, X)
    for name in STATE_FIELDS:
        assert same_bits(getattr(fast, name), getattr(slow, name)), name


@settings(max_examples=400, deadline=None)
@given(lstm_cases())
def test_backward_bits_equal_per_step_outer_products(case):
    Wx, Wh, b, X, d_hidden = case
    states = ref.lstm_recurrence(Wx, Wh, b, X)
    fast = nn._lstm_backward(Wh, X, states, d_hidden)
    slow = ref.lstm_backward(Wh, X, states, d_hidden)
    for name, got, want in zip(("dWx", "dWh", "db", "das"), fast, slow):
        assert same_bits(got, want), name


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=64))
def test_one_division_sigmoid_equals_two_division_sigmoid(values):
    x = np.asarray(values)
    assert same_bits(nn.sigmoid(x), ref.sigmoid(x))
