"""Slow reference versions of the LSTM step's fast paths.

``lstm_recurrence`` is the recurrence with a fresh array for every gate,
cell and hidden state and the two-division sigmoid. ``lstm_backward``
sums the weight gradients inside the time loop as per-step outer
products, starting from zeros. ``nn._lstm_recurrence`` and
``nn._lstm_backward`` must match them bit for bit, so the property tests
compare with ``np.array_equal`` and equal bytes, never a tolerance.
"""

from __future__ import annotations

import numpy as np

from veritas.nn import _LSTMStates


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def lstm_recurrence(Wx, Wh, b, X):
    steps, hidden = X.shape[0], Wh.shape[1]
    acts = np.empty((steps, 4 * hidden))
    cells = np.zeros((steps + 1, hidden))
    hiddens = np.zeros((steps + 1, hidden))
    tanh_cells = np.empty((steps, hidden))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    candidate = slice(2 * hidden, 3 * hidden)
    for t in range(steps):
        a = Wx @ X[t] + Wh @ h + b
        s = sigmoid(a)
        g = np.tanh(a[candidate])
        s[candidate] = g
        acts[t] = s
        c = s[hidden : 2 * hidden] * c + s[:hidden] * g
        tanh_cells[t] = np.tanh(c)
        h = s[3 * hidden :] * tanh_cells[t]
        cells[t + 1] = c
        hiddens[t + 1] = h
    return _LSTMStates(acts, cells, hiddens, tanh_cells)


def lstm_backward(Wh, X, states, d_hidden):
    steps, hidden = X.shape[0], Wh.shape[1]
    acts = states.acts.reshape(steps, 4, hidden)
    i, f, g, o = acts[:, 0], acts[:, 1], acts[:, 2], acts[:, 3]
    tc = states.tanh_cells
    second = np.concatenate([g, states.cells[:-1], i, tc], axis=1)
    third = np.concatenate([i, f, np.ones((steps, hidden)), o], axis=1)
    fourth = np.concatenate([1.0 - i, 1.0 - f, 1.0 - g * g, 1.0 - o], axis=1)
    dtanh = 1.0 - tc * tc
    dWx = np.zeros((4 * hidden, X.shape[1]))
    dWh = np.zeros((4 * hidden, hidden))
    db = np.zeros(4 * hidden)
    das = np.empty((steps, 4 * hidden))
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    hiddens = states.hiddens
    for t in reversed(range(steps)):
        dh = d_hidden[t] + dh_next
        dc = dh * o[t] * dtanh[t] + dc_next
        da = np.concatenate((dc, dc, dc, dh)) * second[t] * third[t] * fourth[t]
        dWx += np.outer(da, X[t])
        dWh += np.outer(da, hiddens[t])
        db += da
        das[t] = da
        dh_next = Wh.T @ da
        dc_next = dc * f[t]
    return dWx, dWh, db, das
