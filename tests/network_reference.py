"""The branch network as it was written before ``nn`` defined it once.

``init_params`` builds every layer by hand, in its own shape table, and
``forward_branch`` chains the checked single-layer ops (``nn.dense_forward``
and ``dropout_forward``) after the LSTM. ``model.init_params`` and
``model.forward_branch`` now run ``nn.layer_shapes`` and
``nn.head_forward`` instead, and must match these bit for bit, so the
properties compare with ``np.array_equal`` and equal bytes.
``dropout_forward`` is also the single-op dropout that criteria 1 and 4
check; no library path calls it, so it lives here rather than in ``nn``.
"""

from __future__ import annotations

import numpy as np

from veritas import nn
from veritas.errors import ConfigError


def init_params(input_dim, hidden_size, num_relu_layers, n_classes, seed=0, variance_dim=1, input_scale=1.0):
    """Seeded uniform(+-1/sqrt(fan_in)) weights, zero biases, as a layer dict."""
    rng = nn.make_rng(seed)

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


def dropout_forward(x, rate, rng=None):
    """Inverted dropout of one array at ``rate``; a zero rate returns the array itself."""
    xv = np.asarray(x, dtype=np.float64)
    if not nn._drops(rate):
        return xv
    if rng is None:
        raise ConfigError("dropout: a positive dropout rate needs an rng")
    return xv * nn._draw_mask(xv.shape, rate, rng)


def forward_branch(params, vectors, dropout=0.0, rng=None):
    """(hidden, logits, variance, probs) of one branch through the dense-op chain."""
    p = params.layers
    outputs = nn.lstm_forward(p["lstm.wx"], p["lstm.wh"], p["lstm.b"], vectors)
    if nn._drops(dropout):
        outputs = outputs * nn._draw_mask(outputs.shape, dropout, rng)
    u = outputs[-1]
    for i in range(params.num_relu_layers):
        u = nn.dense_forward(p[f"relu{i}.w"], p[f"relu{i}.b"], u, "relu")
        u = dropout_forward(u, dropout, rng)
    logits = nn.dense_forward(p["out.w"], p["out.b"], u, "linear")
    variance = nn.softplus(nn.dense_forward(p["var.w"], p["var.b"], u, "linear"))
    return u, logits, variance, nn.softmax(logits)
