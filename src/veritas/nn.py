"""Differentiable building blocks for the branch classifier.

Everything is plain float64 numpy. Forward ops optionally record onto a
Tape; ``backward`` replays the recorded pullbacks in reverse and returns
exact gradients for every watched parameter array. Only the op set the
model needs is supported (dense, a single LSTM layer, inverted dropout,
softplus, fused cross-entropy losses and a couple of reductions); this is
not a general autodiff engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, InvalidInput, ShapeError, StateError

Array = np.ndarray

# Floor for log arguments inside the cross-entropy losses.
LOG_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# random streams


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def child_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...).

    Derived streams do not depend on draw order elsewhere, so per-sample or
    per-fold work stays deterministic under any scheduling.
    """
    return np.random.default_rng([int(seed), *(int(s) for s in stream)])


# ---------------------------------------------------------------------------
# activations


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def sigmoid(x: Array) -> Array:
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(logits: Array) -> Array:
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"softmax expects a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInput("softmax: logits must be finite")
    e = np.exp(v - v.max())
    return e / e.sum()


def softplus(x):
    """Numerically stable softplus; returns a float for scalar input."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("softplus: input must be finite")
    # log1p(exp(x)) for x <= 0, x + log1p(exp(-x)) for x > 0; both share
    # log1p(exp(-|x|)) so the exp argument never overflows.
    tail = np.log1p(np.exp(-np.abs(arr)))
    out = np.where(arr > 0, arr + tail, tail)
    if np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# dropout


@dataclass(frozen=True)
class DropoutSpec:
    rate: float = 0.0
    active: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.rate}")


DROPOUT_OFF = DropoutSpec()


def _draw_mask(shape, spec: DropoutSpec, rng) -> Array:
    # Inverted dropout: survivors are scaled by 1/(1-rate) so the expected
    # activation is unchanged and no rescaling is needed at test time.
    keep = 1.0 - spec.rate
    return (rng.random(shape) >= spec.rate) / keep


# ---------------------------------------------------------------------------
# tape


class Tape:
    """Execution record of one forward pass, consumed by backward().

    Ops append (output, inputs, pullback) steps; gradients flow backwards
    keyed on array identity, so the same array objects must be passed to
    every op that should share them.
    """

    def __init__(self) -> None:
        self._steps: list[tuple[Array, tuple[Array, ...], Callable]] = []
        self._watched: dict[str, Array] = {}

    def watch(self, name: str, array: Array) -> Array:
        self._watched[name] = array
        return array

    def watch_all(self, arrays: dict[str, Array]) -> None:
        for name, arr in arrays.items():
            self.watch(name, arr)

    def record(self, out: Array, inputs: tuple[Array, ...], pullback: Callable) -> Array:
        self._steps.append((out, inputs, pullback))
        return out


def backward(tape: Tape) -> dict[str, Array]:
    """Gradients of the last recorded scalar w.r.t. every watched array.

    Watched arrays the loss never touched get zero gradients.
    """
    if not isinstance(tape, Tape) or not tape._steps:
        raise StateError("backward() called before any recorded forward op")
    loss = tape._steps[-1][0]
    if loss.ndim != 0:
        raise StateError("the last recorded op must produce a scalar loss")
    flows: dict[int, Array] = {id(loss): np.ones(())}
    for out, inputs, pullback in reversed(tape._steps):
        dy = flows.get(id(out))
        if dy is None:
            continue
        for x, dx in zip(inputs, pullback(dy)):
            if dx is None:
                continue
            prev = flows.get(id(x))
            flows[id(x)] = dx if prev is None else prev + dx
    return {
        name: flows.get(id(arr), np.zeros_like(arr))
        for name, arr in tape._watched.items()
    }


# ---------------------------------------------------------------------------
# layers


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def dense_forward(
    weights: Array,
    bias: Array,
    x: Array,
    activation: str = "linear",
    tape: Tape | None = None,
) -> Array:
    W, b, xv = _as_f64(weights), _as_f64(bias), _as_f64(x)
    if W.ndim != 2:
        raise ShapeError(f"dense: weights must be 2-D, got shape {W.shape}")
    if b.shape != (W.shape[0],):
        raise ShapeError(f"dense: bias shape {b.shape} does not match {W.shape[0]} outputs")
    if xv.shape != (W.shape[1],):
        raise ShapeError(f"dense: input shape {xv.shape} does not match {W.shape[1]} columns")
    if activation not in ("linear", "relu"):
        raise ConfigError(f"dense: unknown activation {activation!r}")
    z = W @ xv + b
    y = np.maximum(z, 0.0) if activation == "relu" else z
    if tape is not None:

        def pull(dy, W=W, xv=xv, z=z, relu_act=(activation == "relu")):
            dz = dy * (z > 0.0) if relu_act else dy
            return np.outer(dz, xv), dz, W.T @ dz

        tape.record(y, (W, b, xv), pull)
    return y


def lstm_forward(
    weights_x: Array,
    weights_h: Array,
    bias: Array,
    inputs: Array,
    dropout: DropoutSpec = DROPOUT_OFF,
    rng=None,
    tape: Tape | None = None,
) -> Array:
    """Single-layer LSTM over one sequence; returns one hidden row per step.

    Gate layout along the 4H axis is input, forget, candidate, output. With
    dropout active an inverted-dropout mask (one per step, drawn from rng)
    is applied to each emitted hidden state; the recurrent path itself stays
    undropped. Fixed rng seed and inputs give identical outputs.
    """
    Wx, Wh, b = _as_f64(weights_x), _as_f64(weights_h), _as_f64(bias)
    X = _as_f64(inputs)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeError(f"lstm: inputs must be a nonempty (steps, dim) array, got {X.shape}")
    four_h = b.shape[0] if b.ndim == 1 else -1
    if four_h <= 0 or four_h % 4:
        raise ShapeError(f"lstm: bias length must be a positive multiple of 4, got {b.shape}")
    hidden = four_h // 4
    if Wx.shape != (four_h, X.shape[1]):
        raise ShapeError(f"lstm: input weights {Wx.shape} do not match inputs {X.shape}")
    if Wh.shape != (four_h, hidden):
        raise ShapeError(f"lstm: recurrent weights {Wh.shape} do not match hidden size {hidden}")
    if dropout.active and rng is None:
        raise ConfigError("lstm: active dropout needs an rng")

    steps = X.shape[0]
    masks = _draw_mask((steps, hidden), dropout, rng) if dropout.active else np.ones((steps, hidden))

    gate_i = np.empty((steps, hidden))
    gate_f = np.empty((steps, hidden))
    gate_g = np.empty((steps, hidden))
    gate_o = np.empty((steps, hidden))
    cell_prev = np.empty((steps, hidden))
    hidden_prev = np.empty((steps, hidden))
    tanh_cell = np.empty((steps, hidden))
    hs = np.empty((steps, hidden))

    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in range(steps):
        a = Wx @ X[t] + Wh @ h + b
        i = sigmoid(a[:hidden])
        f = sigmoid(a[hidden : 2 * hidden])
        g = np.tanh(a[2 * hidden : 3 * hidden])
        o = sigmoid(a[3 * hidden :])
        gate_i[t], gate_f[t], gate_g[t], gate_o[t] = i, f, g, o
        cell_prev[t] = c
        hidden_prev[t] = h
        c = f * c + i * g
        tanh_cell[t] = np.tanh(c)
        h = o * tanh_cell[t]
        hs[t] = h
    out = hs * masks

    if tape is not None:

        def pull(dout):
            dWx = np.zeros_like(Wx)
            dWh = np.zeros_like(Wh)
            db = np.zeros_like(b)
            dX = np.zeros_like(X)
            dh_next = np.zeros(hidden)
            dc_next = np.zeros(hidden)
            for t in reversed(range(steps)):
                i, f, g, o = gate_i[t], gate_f[t], gate_g[t], gate_o[t]
                tc = tanh_cell[t]
                dh = dout[t] * masks[t] + dh_next
                dc = dh * o * (1.0 - tc * tc) + dc_next
                da = np.concatenate(
                    [
                        dc * g * i * (1.0 - i),
                        dc * cell_prev[t] * f * (1.0 - f),
                        dc * i * (1.0 - g * g),
                        dh * tc * o * (1.0 - o),
                    ]
                )
                dWx += np.outer(da, X[t])
                dWh += np.outer(da, hidden_prev[t])
                db += da
                dX[t] = Wx.T @ da
                dh_next = Wh.T @ da
                dc_next = dc * f
            return dWx, dWh, db, dX

        tape.record(out, (Wx, Wh, b, X), pull)
    return out


def take_last(sequence: Array, tape: Tape | None = None) -> Array:
    seq = _as_f64(sequence)
    if seq.ndim != 2 or seq.shape[0] == 0:
        raise ShapeError(f"take_last expects a nonempty (steps, dim) array, got {seq.shape}")
    y = seq[-1].copy()
    if tape is not None:

        def pull(dy, seq=seq):
            d = np.zeros_like(seq)
            d[-1] = dy
            return (d,)

        tape.record(y, (seq,), pull)
    return y


def dropout_forward(x: Array, spec: DropoutSpec, rng=None, tape: Tape | None = None) -> Array:
    xv = _as_f64(x)
    if not spec.active:
        # Identity: gradients flow through the unchanged array object.
        return xv
    if rng is None:
        raise ConfigError("dropout: active dropout needs an rng")
    mask = _draw_mask(xv.shape, spec, rng)
    y = xv * mask
    if tape is not None:
        tape.record(y, (xv,), lambda dy: (dy * mask,))
    return y


def softplus_forward(x: Array, tape: Tape | None = None) -> Array:
    xv = _as_f64(x)
    y = np.asarray(softplus(xv))
    if tape is not None:
        tape.record(y, (xv,), lambda dy: (dy * sigmoid(xv),))
    return y


# ---------------------------------------------------------------------------
# losses and reductions


def _check_target(target: Array, n: int) -> Array:
    y = _as_f64(target)
    if y.shape != (n,):
        raise ShapeError(f"target shape {y.shape} does not match {n} classes")
    return y


def softmax_xent(logits: Array, target: Array, tape: Tape | None = None) -> Array:
    """Cross-entropy of softmax(logits) against a one-hot target (0-d array)."""
    v = _as_f64(logits)
    p = softmax(v)
    y = _check_target(target, v.shape[0])
    loss = np.asarray(-float(y @ np.log(np.maximum(p, LOG_FLOOR))))
    if tape is not None:
        tape.record(loss, (v,), lambda dy: (dy * (p - y),))
    return loss


def sampled_xent(
    logits: Array,
    variance: Array,
    target: Array,
    noise: Array,
    tape: Tape | None = None,
) -> Array:
    """Mean cross-entropy over logit vectors perturbed by Gaussian noise.

    One row of ``noise`` per sample; each row is scaled componentwise by
    sqrt(variance) and added to the logits, so the gradient w.r.t. variance
    comes out of the recorded draws (reparameterisation). ``variance`` may
    be a single shared value or one value per logit. All-zero variance
    short-circuits to the plain cross-entropy, bit for bit.
    """
    v = _as_f64(logits)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"sampled_xent: logits must be a nonempty vector, got {v.shape}")
    n_classes = v.shape[0]
    y = _check_target(target, n_classes)
    sig = np.atleast_1d(_as_f64(variance))
    if sig.shape not in ((1,), (n_classes,)):
        raise ShapeError(f"sampled_xent: variance shape {sig.shape} must be (1,) or ({n_classes},)")
    if np.any(sig < 0) or not np.all(np.isfinite(sig)):
        raise InvalidInput("sampled_xent: variance must be finite and nonnegative")
    eps = _as_f64(noise)
    if eps.ndim != 2 or eps.shape[0] == 0 or eps.shape[1] != n_classes:
        raise ShapeError(f"sampled_xent: noise shape {eps.shape} must be (samples, {n_classes})")

    sqrt_sig = np.sqrt(sig)
    if np.all(sqrt_sig == 0.0):
        return softmax_xent(v, y, tape=tape)

    n_draws = eps.shape[0]
    # sqrt_sig broadcasts over the sample axis: one shared scale or one per logit.
    perturbed = v[None, :] + eps * sqrt_sig[None, :]
    if not np.all(np.isfinite(perturbed)):
        raise InvalidInput("sampled_xent: perturbed logits are not finite")
    z = perturbed - perturbed.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = np.asarray(float(np.mean(-(np.log(np.maximum(probs, LOG_FLOOR)) @ y))))

    if tape is not None:

        def pull(dy):
            g = (probs - y[None, :]) / n_draws  # (samples, classes)
            dv = dy * g.sum(axis=0)
            per_logit = (g * eps).sum(axis=0)
            if sig.shape == (n_classes,):
                dsig = np.where(sqrt_sig > 0.0, per_logit / (2.0 * np.where(sqrt_sig > 0.0, sqrt_sig, 1.0)), 0.0)
            else:
                dsig = np.asarray([per_logit.sum() / (2.0 * sqrt_sig[0])])
            return dv, dy * dsig

        tape.record(loss, (v, sig), pull)
    return loss


def weighted_sum(a: Array, b: Array, weight_a: float, weight_b: float, tape: Tape | None = None) -> Array:
    out = np.asarray(weight_a * np.asarray(a) + weight_b * np.asarray(b))
    if tape is not None:
        tape.record(out, (a, b), lambda dy: (weight_a * dy, weight_b * dy))
    return out


def tensor_sum(x: Array, tape: Tape | None = None) -> Array:
    xv = _as_f64(x)
    out = np.asarray(xv.sum())
    if tape is not None:
        tape.record(out, (xv,), lambda dy: (dy * np.ones_like(xv),))
    return out


def inner(x: Array, weights: Array, tape: Tape | None = None) -> Array:
    """Sum of the elementwise product with a constant weight array."""
    xv, w = _as_f64(x), _as_f64(weights)
    if xv.shape != w.shape:
        raise ShapeError(f"inner: shapes {xv.shape} and {w.shape} differ")
    out = np.asarray(float((xv * w).sum()))
    if tape is not None:
        tape.record(out, (xv,), lambda dy: (dy * w,))
    return out


def scale(x: Array, factor: float, tape: Tape | None = None) -> Array:
    xv = _as_f64(x)
    out = xv * float(factor)
    if tape is not None:
        tape.record(out, (xv,), lambda dy: (dy * float(factor),))
    return out


# ---------------------------------------------------------------------------
# optimiser


def sgd_step(params, grads, learning_rate: float):
    """One plain SGD update; returns fresh arrays, inputs are untouched."""
    lr = float(learning_rate)
    if lr < 0:
        raise ConfigError(f"learning rate must be nonnegative, got {lr}")
    if isinstance(params, dict):
        if not isinstance(grads, dict):
            raise ShapeError("sgd_step: params is a dict but grads is not")
        out = {}
        for name, value in params.items():
            g = grads.get(name)
            if g is None:
                out[name] = value.copy()
                continue
            if np.shape(g) != value.shape:
                raise ShapeError(f"sgd_step: gradient shape {np.shape(g)} != {value.shape} for {name!r}")
            out[name] = value - lr * g
        return out
    p, g = _as_f64(params), _as_f64(grads)
    if p.shape != g.shape:
        raise ShapeError(f"sgd_step: gradient shape {g.shape} != parameter shape {p.shape}")
    return p - lr * g


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(layers: dict[str, Array], path) -> None:
    """Write layers as JSON {name: {shape, row-major values}}; lossless."""
    doc = {}
    for name in sorted(layers):
        arr = _as_f64(layers[name])
        doc[name] = {"shape": list(arr.shape), "values": [float(v) for v in arr.ravel()]}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path) -> dict[str, Array]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path}: top level must be an object")
    layers = {}
    for name, entry in doc.items():
        try:
            shape = tuple(int(s) for s in entry["shape"])
            values = entry["values"]
        except (TypeError, KeyError) as exc:
            raise DataError(f"checkpoint {path}: bad entry for layer {name!r}") from exc
        arr = np.asarray(values, dtype=np.float64)
        if arr.size != int(np.prod(shape, dtype=np.int64)):
            raise DataError(f"checkpoint {path}: layer {name!r} has {arr.size} values for shape {shape}")
        layers[name] = arr.reshape(shape)
    return layers
