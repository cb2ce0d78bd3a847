"""The branch network a branch at a time, layer by layer, as it was written before ``nn`` batched it.

``init_params`` builds every layer by hand, in its own shape table.
``lstm_recurrence`` is the LSTM with a fresh array for every gate, cell
and hidden state, the zero state's product on step 0 too, and the
two-division ``sigmoid`` in its one-row ``lstm_step``; ``lstm_backward``
sums the weight gradients inside the time loop as per-step outer
products, starting from zeros. ``softmax`` and ``softplus`` check
finiteness with generic ``np.all`` calls. ``forward_branch`` runs one branch: the
recurrence, its ``(steps, H)`` dropout mask, then ``nn.dense_forward`` and
``dropout_forward`` per ReLU layer, the two heads, ``softplus`` and
``softmax``, into a ``PassResult`` of its vectors. ``tree_branch_outputs``
runs a tree's branches through it one after another from one rng and
stacks their vectors into blocks, a row per branch. ``nn``'s kernels,
``model.init_params``, ``model.forward_branch`` and a one-branch
``model.tree_branch_outputs`` must match these bit for bit, so the
properties compare equal bytes.
``dropout_forward`` is also the single-op dropout that criteria 1 and 4
check; no library path calls it, so it lives here rather than in ``nn``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from veritas import nn
from veritas.data import branch_matrix, decompose_branches
from veritas.errors import ConfigError, InvalidInput, ShapeError, make_rng
from veritas.nn import _LSTMStates


class PassResult(NamedTuple):
    """The fields of ``model.PassOutput``, every one worked out at once; the variance by this module's ``softplus``."""

    logits: np.ndarray
    var_pre: np.ndarray
    variance: np.ndarray
    probs: np.ndarray


def init_params(input_dim, hidden_size, num_relu_layers, n_classes, seed=0, variance_dim=1, input_scale=1.0):
    """Seeded uniform(+-1/sqrt(fan_in)) weights, zero biases, as a layer dict."""
    rng = make_rng(seed)

    def uniform(shape, fan_in, scale=1.0):
        bound = 1.0 / (np.sqrt(fan_in) * scale)
        return rng.uniform(-bound, bound, shape)

    layers = {
        "lstm.wx": uniform((4 * hidden_size, input_dim), input_dim, input_scale),
        "lstm.wh": uniform((4 * hidden_size, hidden_size), hidden_size),
        "lstm.b": np.zeros(4 * hidden_size),
    }
    for i in range(num_relu_layers):
        layers[f"relu{i}.w"] = uniform((hidden_size, hidden_size), hidden_size)
        layers[f"relu{i}.b"] = np.zeros(hidden_size)
    layers["out.w"] = uniform((n_classes, hidden_size), hidden_size)
    layers["out.b"] = np.zeros(n_classes)
    layers["var.w"] = uniform((variance_dim, hidden_size), hidden_size)
    layers["var.b"] = np.zeros(variance_dim)
    return layers


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(logits):
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"softmax expects a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("softmax: logits must be finite")
    e = np.exp(v - v.max())
    return e / e.sum()


def softplus(x):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("softplus: input must be finite")
    tail = np.log1p(np.exp(-np.abs(arr)))
    return np.where(arr > 0, arr + tail, tail)


def lstm_step(a, c):
    """One textbook LSTM step on one row: (gate activations, new cell, its tanh, new hidden state)."""
    hidden = c.shape[0]
    candidate = slice(2 * hidden, 3 * hidden)
    s = sigmoid(a)
    g = np.tanh(a[candidate])
    s[candidate] = g
    c = s[hidden : 2 * hidden] * c + s[:hidden] * g
    tc = np.tanh(c)
    return s, c, tc, s[3 * hidden :] * tc


def lstm_recurrence(Wx, Wh, b, X):
    steps, hidden = X.shape[0], Wh.shape[1]
    acts = np.empty((steps, 4 * hidden))
    cells = np.zeros((steps + 1, hidden))
    hiddens = np.zeros((steps + 1, hidden))
    tanh_cells = np.empty((steps, hidden))
    for t in range(steps):
        # the zero state's product too, on step 0
        a = Wx @ X[t] + Wh @ hiddens[t] + b
        acts[t], cells[t + 1], tanh_cells[t], hiddens[t + 1] = lstm_step(a, cells[t])
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


def dropout_forward(x, rate, rng=None):
    """Inverted dropout of one array at ``rate``; a zero rate returns the array itself."""
    xv = np.asarray(x, dtype=np.float64)
    if not nn._drops(rate):
        return xv
    if rng is None:
        raise ConfigError("dropout: a positive dropout rate needs an rng")
    return xv * nn._draw_mask(xv.shape, rate, rng)


def forward_branch(params, vectors, dropout=0.0, rng=None):
    p = params.layers
    outputs = lstm_recurrence(p["lstm.wx"], p["lstm.wh"], p["lstm.b"], vectors).hiddens[1:]
    u = dropout_forward(outputs, dropout, rng)[-1]
    for i in range(params.num_relu_layers):
        u = dropout_forward(nn.dense_forward(p[f"relu{i}.w"], p[f"relu{i}.b"], u, "relu"), dropout, rng)
    logits = nn.dense_forward(p["out.w"], p["out.b"], u, "linear")
    var_pre = nn.dense_forward(p["var.w"], p["var.b"], u, "linear")
    variance = softplus(var_pre)
    return PassResult(logits=logits, var_pre=var_pre, variance=variance, probs=softmax(logits))


def tree_branch_outputs(params, tree, embedder, dropout=0.0, rng=None):
    branches = [forward_branch(params, branch_matrix(b, embedder), dropout, rng) for b in decompose_branches(tree)]
    return PassResult(*(np.stack(rows) for rows in zip(*branches)))
