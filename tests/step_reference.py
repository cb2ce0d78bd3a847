"""The training step as it was before its per-branch dispatch was cut.

``backward`` and ``sgd_step`` are ``nn.backward`` and ``nn.sgd_step`` as
they were written then, with the kernels they called and that have since
been rewritten kept beside them: ``softmax`` and ``softplus`` with their
generic ``np.all`` checks, ``_dense_backward`` with ``np.outer``,
``head_forward`` counting its ReLU layers by name on every call,
``_sampled_xent`` with ``np.mean``, and ``_sampled_xent_backward``. The
LSTM backward runs on the full ``(steps, H)`` gradient block, the only row
of it that is not zero masked by the last row of the mask block, through
``lstm_reference.lstm_backward``, the exact per-step loop that
``nn._lstm_backward`` is checked against. ``nn.backward`` and
``nn.sgd_step`` must match these bit for bit, so the properties compare
equal bytes, never a tolerance.
"""

from __future__ import annotations

import numpy as np

import lstm_reference
from veritas import nn
from veritas.errors import ConfigError, InvalidInput, ShapeError


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
    out = np.where(arr > 0, arr + tail, tail)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _dense_backward(weights, x, dz):
    return np.outer(dz, x), weights.T @ dz


def head_forward(layers, u, dropout, rng):
    drops = nn._drops(dropout)
    cache = []
    for i in range(sum(name.startswith("relu") for name in layers) // 2):
        z = layers[f"relu{i}.w"] @ u + layers[f"relu{i}.b"]
        y = np.maximum(z, 0.0)
        mask = nn._draw_mask(y.shape, dropout, rng) if drops else None
        cache.append((u, z, mask))
        u = y if mask is None else y * mask
    return u, cache, layers["out.w"] @ u + layers["out.b"], layers["var.w"] @ u + layers["var.b"]


def _sampled_xent(logits, sqrt_sig, target, noise):
    perturbed = logits[None, :] + noise * sqrt_sig[None, :]
    if not np.all(np.isfinite(perturbed)):
        raise InvalidInput("sampled_xent: perturbed logits are not finite")
    z = perturbed - perturbed.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    return float(np.mean(-(np.log(np.maximum(probs, nn.LOG_FLOOR)) @ target))), probs


def _sampled_xent_backward(probs, sqrt_sig, target, noise, dy):
    n_draws, n_classes = noise.shape
    g = (probs - target[None, :]) / n_draws
    dv = dy * g.sum(axis=0)
    per_logit = (g * noise).sum(axis=0)
    if sqrt_sig.shape == (n_classes,):
        dsig = np.where(sqrt_sig > 0.0, per_logit / (2.0 * np.where(sqrt_sig > 0.0, sqrt_sig, 1.0)), 0.0)
    else:
        dsig = np.asarray([per_logit.sum() / (2.0 * sqrt_sig[0])])
    return dv, dy * dsig


def backward(layers, vectors, target, dropout, rng, samples, ce_weight, aleatoric_weight):
    wx, wh, b = layers["lstm.wx"], layers["lstm.wh"], layers["lstm.b"]
    steps, hidden = vectors.shape[0], wh.shape[1]
    masks = nn._draw_mask((steps, hidden), dropout, rng) if nn._drops(dropout) else np.ones((steps, hidden))
    states = nn._lstm_recurrence(wx, wh, b, vectors)
    u, relu_cache, logits, var_pre = head_forward(layers, states.outputs[-1] * masks[-1], dropout, rng)
    w_out, w_var = layers["out.w"], layers["var.w"]
    sqrt_sig = np.sqrt(softplus(var_pre))
    p = softmax(logits)
    ce = nn._xent(p, target)
    noise = rng.standard_normal((samples, logits.shape[0]))

    grads = {}
    dlogits = nn._xent_backward(p, target, ce_weight)
    if np.all(sqrt_sig == 0.0):
        sampled = ce
        dlogits = nn._xent_backward(p, target, aleatoric_weight) + dlogits
        dw_out, du = _dense_backward(w_out, u, dlogits)
    else:
        sampled, probs = _sampled_xent(logits, sqrt_sig, target, noise)
        dv, dsig = _sampled_xent_backward(probs, sqrt_sig, target, noise, aleatoric_weight)
        dlogits = dv + dlogits
        dz_var = nn._softplus_backward(var_pre, dsig)
        grads["var.w"], du_var = _dense_backward(w_var, u, dz_var)
        grads["var.b"] = dz_var
        dw_out, du_out = _dense_backward(w_out, u, dlogits)
        du = du_var + du_out
    grads["out.w"], grads["out.b"] = dw_out, dlogits

    for i in reversed(range(len(relu_cache))):
        u_in, z, mask = relu_cache[i]
        dz = (du if mask is None else du * mask) * (z > 0.0)
        grads[f"relu{i}.w"], du = _dense_backward(layers[f"relu{i}.w"], u_in, dz)
        grads[f"relu{i}.b"] = dz

    d_hidden = np.zeros((steps, hidden))
    d_hidden[-1] = du
    grads["lstm.wx"], grads["lstm.wh"], grads["lstm.b"], _ = lstm_reference.lstm_backward(
        wh, vectors, states, d_hidden * masks
    )
    return ce, sampled, grads


def sgd_step(layers, grads, learning_rate):
    lr = float(learning_rate)
    if lr < 0:
        raise ConfigError(f"learning rate must be nonnegative, got {lr}")
    for name, value in layers.items():
        g = grads.get(name)
        if g is None:
            continue
        if np.shape(g) != value.shape:
            raise ShapeError(f"sgd_step: gradient shape {np.shape(g)} != {value.shape} for layer {name!r}")
        value -= lr * g
