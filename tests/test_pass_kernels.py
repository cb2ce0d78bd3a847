"""A pass's kernels against the textbook code in ``network_reference``.

``pass_reference`` runs ``nn._lstm_step`` itself, so a bundle property
cannot see a change in how the kernel treats a block. Here the kernel runs
on blocks of 1 to 8 rows and must give, row by row, the bytes of
``network_reference.lstm_step`` (the two-division sigmoid and fresh
arrays). The recurrence skips the zero state's product on step 0; its
states must equal the reference loop's, which adds that product, also
with signed zero biases and inputs. The softplus kernel must give the
bytes of the reference's ``where`` form on every finite value.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import network_reference as ref
from veritas import nn

# Values that exercise the kernel's edges: signed zeros, both saturated
# sigmoid tails (exp(-|a|) underflows past about 745) and ordinary values.
EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 710.0, -710.0, 746.0, -746.0, 1e300, -1e300])


def draw_block(rng, shape, edge_share):
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    edges = rng.random(shape) < edge_share
    x[edges] = rng.choice(EDGES, size=int(edges.sum()))
    x[rng.random(shape[0]) < 0.2] = 0.0  # whole zero rows
    return x


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    hidden=st.integers(1, 8),
    edge_share=st.sampled_from([0.0, 0.2, 0.7]),
)
def test_block_step_equals_the_one_row_textbook_step(seed, rows, hidden, edge_share):
    rng = np.random.default_rng(seed)
    a = draw_block(rng, (rows, 4 * hidden), edge_share)
    c_prev = draw_block(rng, (rows, hidden), edge_share)
    a_before = a.tobytes()
    s, c, tc, h = (np.empty((rows, n)) for n in (4 * hidden, hidden, hidden, hidden))
    nn._lstm_step(a, c_prev, s, c, tc, h)
    assert a.tobytes() == a_before
    for r in range(rows):
        want = [x.tobytes() for x in ref.lstm_step(a[r].copy(), c_prev[r].copy())]
        assert [s[r].tobytes(), c[r].tobytes(), tc[r].tobytes(), h[r].tobytes()] == want
        # a step where one sequence runs gets the row itself, not a block
        row = [np.empty(n) for n in (4 * hidden, hidden, hidden, hidden)]
        nn._lstm_step(a[r], c_prev[r], *row)
        assert [x.tobytes() for x in row] == want


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 5),
    hidden=st.integers(1, 6),
    dim=st.integers(1, 6),
)
def test_recurrence_without_step_zero_product_keeps_every_state(seed, steps, hidden, dim):
    """Biases and inputs mix +-0.0 with signs of one kind, so an added +0.0 would show in a zero's sign."""
    rng = np.random.default_rng(seed)
    Wx = rng.standard_normal((4 * hidden, dim)) * rng.choice([-1.0, 1.0, 0.0], size=(4 * hidden, 1))
    Wh = -np.abs(rng.standard_normal((4 * hidden, hidden)))
    b = rng.choice([0.0, -0.0, 1.5, -1.5], size=4 * hidden)
    X = rng.choice([0.0, -0.0, 0.5, -2.0], size=(steps, dim))
    fast = nn._lstm_recurrence(Wx, Wh, b, X)
    slow = ref.lstm_recurrence(Wx, Wh, b, X)
    for name in ("acts", "cells", "hiddens", "tanh_cells"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(list(EDGES))), min_size=1))
def test_softplus_kernel_equals_the_where_form(values):
    x = np.asarray(values)
    assert nn._softplus_kernel(x).tobytes() == ref.softplus(x).tobytes()
