"""Reverse-mode tape: the exact reference for the library's training step.

A forward pass records (output, inputs, pullback) steps on a ``Tape``;
``backward`` replays them in reverse and returns the gradient of the last
recorded scalar for every watched array. Gradients flow keyed on array
identity, so the same array objects must be passed to every op that should
share them. Only the ops of the branch network and its two losses are here.

The ops compute with slow kernels of their own: ``network_reference``'s
LSTM loop and per-step outer-product backward, its ``np.all``-checked
``softmax`` and ``softplus``, ``np.outer`` dense gradients and an
``np.mean`` sampled cross-entropy. Only the dropout rule (``nn._drops``,
``nn._draw_mask``), ``nn._xent``, ``nn._xent_backward`` and ``LOG_FLOOR``
are shared with ``nn``. ``reference_step`` followed by ``sgd`` is the
per-branch step ``model.train`` used to run, so ``nn.backward`` and
``nn.sgd_step`` must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

import network_reference as net
from veritas import nn
from veritas.errors import InvalidInput


class TapeError(Exception):
    """backward() called on a tape with no scalar loss at its end."""


class Tape:
    def __init__(self) -> None:
        self._steps = []
        self._watched = {}

    def watch_all(self, arrays: dict) -> None:
        self._watched.update(arrays)

    def record(self, out, inputs, pullback):
        self._steps.append((out, inputs, pullback))
        return out


def backward(tape: Tape) -> dict:
    """Gradients of the last recorded scalar; untouched watched arrays get zeros."""
    if not tape._steps:
        raise TapeError("backward() called before any recorded forward op")
    loss = tape._steps[-1][0]
    if loss.ndim != 0:
        raise TapeError("the last recorded op must produce a scalar loss")
    flows = {id(loss): np.ones(())}
    for out, inputs, pullback in reversed(tape._steps):
        dy = flows.get(id(out))
        if dy is None:
            continue
        for x, dx in zip(inputs, pullback(dy)):
            prev = flows.get(id(x))
            flows[id(x)] = dx if prev is None else prev + dx
    return {name: flows.get(id(arr), np.zeros_like(arr)) for name, arr in tape._watched.items()}


# ---------------------------------------------------------------------------
# ops


def dense(W, b, x, activation, tape):
    z = W @ x + b
    y = np.maximum(z, 0.0) if activation == "relu" else z

    def pull(dy):
        dz = dy * (z > 0.0) if activation == "relu" else dy
        return np.outer(dz, x), dz, W.T @ dz

    return tape.record(y, (W, b, x), pull)


def lstm(Wx, Wh, b, X, dropout, rng, tape):
    steps, hidden = X.shape[0], Wh.shape[1]
    masks = nn._draw_mask((steps, hidden), dropout, rng) if nn._drops(dropout) else np.ones((steps, hidden))
    states = net.lstm_recurrence(Wx, Wh, b, X)

    def pull(dout):
        dWx, dWh, db, das = net.lstm_backward(Wh, X, states, dout * masks)
        return dWx, dWh, db, das @ Wx

    return tape.record(states.outputs * masks, (Wx, Wh, b, X), pull)


def take_last(seq, tape):
    def pull(dy):
        d = np.zeros_like(seq)
        d[-1] = dy
        return (d,)

    return tape.record(seq[-1].copy(), (seq,), pull)


def dropout(x, rate, rng, tape):
    if not nn._drops(rate):
        return x  # identity: gradients flow through the same array object
    mask = nn._draw_mask(x.shape, rate, rng)
    return tape.record(x * mask, (x,), lambda dy: (dy * mask,))


def softplus(x, tape):
    return tape.record(net.softplus(x), (x,), lambda dy: (dy * net.sigmoid(x),))


def softmax_xent(v, target, tape):
    p = net.softmax(v)
    return tape.record(np.asarray(nn._xent(p, target)), (v,), lambda dy: (nn._xent_backward(p, target, dy),))


def sampled_xent(v, sig, target, noise, tape):
    sqrt_sig = np.sqrt(sig)
    if np.all(sqrt_sig == 0.0):
        return softmax_xent(v, target, tape)
    perturbed = v[None, :] + noise * sqrt_sig[None, :]
    if not np.all(np.isfinite(perturbed)):
        raise InvalidInput("sampled_xent: perturbed logits are not finite")
    e = np.exp(perturbed - perturbed.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    value = np.mean(-(np.log(np.maximum(probs, nn.LOG_FLOOR)) @ target))

    def pull(dy):
        g = (probs - target[None, :]) / noise.shape[0]
        per_logit = (g * noise).sum(axis=0)
        if sqrt_sig.shape == v.shape:
            dsig = np.where(sqrt_sig > 0.0, per_logit / (2.0 * np.where(sqrt_sig > 0.0, sqrt_sig, 1.0)), 0.0)
        else:
            dsig = np.asarray([per_logit.sum() / (2.0 * sqrt_sig[0])])
        return dy * g.sum(axis=0), dy * dsig

    return tape.record(np.asarray(value), (v, sig), pull)


def weighted_sum(a, b, weight_a, weight_b, tape):
    out = np.asarray(weight_a * a + weight_b * b)
    return tape.record(out, (a, b), lambda dy: (weight_a * dy, weight_b * dy))


def tensor_sum(x, tape):
    return tape.record(np.asarray(x.sum()), (x,), lambda dy: (dy * np.ones_like(x),))


def inner(x, weights, tape):
    """Sum of the elementwise product with a constant weight array."""
    out = np.asarray(float((x * weights).sum()))
    return tape.record(out, (x,), lambda dy: (dy * weights,))


# ---------------------------------------------------------------------------
# the training step


def forward_branch(layers, vectors, rate, rng, tape):
    """The branch network on the tape; returns the (logits, variance) nodes."""
    n_relu = sum(name.startswith("relu") for name in layers) // 2
    u = take_last(lstm(layers["lstm.wx"], layers["lstm.wh"], layers["lstm.b"], vectors, rate, rng, tape), tape)
    for i in range(n_relu):
        u = dropout(dense(layers[f"relu{i}.w"], layers[f"relu{i}.b"], u, "relu", tape), rate, rng, tape)
    logits = dense(layers["out.w"], layers["out.b"], u, "linear", tape)
    variance = softplus(dense(layers["var.w"], layers["var.b"], u, "linear", tape), tape)
    return logits, variance


def sgd(layers, grads, learning_rate):
    """Functional SGD: fresh arrays, inputs untouched."""
    return {name: value - learning_rate * grads[name] for name, value in layers.items()}


def reference_step(layers, vectors, target, config, rate, rng):
    """One branch's step on the tape: (gradients of every layer, cross-entropy, sampled loss, variance)."""
    tape = Tape()
    tape.watch_all(layers)
    logits, variance = forward_branch(layers, vectors, rate, rng, tape)
    ce = softmax_xent(logits, target, tape)
    noise = rng.standard_normal((config.aleatoric_samples, target.shape[0]))
    sampled = sampled_xent(logits, variance, target, noise, tape)
    weighted_sum(ce, sampled, config.ce_weight, config.aleatoric_weight, tape)
    return backward(tape), float(ce), float(sampled), variance
