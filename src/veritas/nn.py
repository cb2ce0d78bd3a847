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


def _dense_backward(weights: Array, x: Array, dz: Array) -> tuple[Array, Array]:
    """Weight gradient and input gradient of ``weights @ x + b`` for output gradient dz."""
    return np.outer(dz, x), weights.T @ dz


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
            dW, dx = _dense_backward(W, xv, dz)
            return dW, dz, dx

        tape.record(y, (W, b, xv), pull)
    return y


@dataclass(frozen=True)
class _LSTMStates:
    """What the LSTM backward needs from the forward recurrence.

    ``acts[t]`` holds the step's four gate activations (sigmoid input,
    sigmoid forget, tanh candidate, sigmoid output); ``cells[t]`` and
    ``hiddens[t]`` are the states entering step t, so row ``steps`` holds
    the final ones; ``tanh_cells[t]`` is tanh of the cell leaving step t.
    """

    acts: Array
    cells: Array
    hiddens: Array
    tanh_cells: Array

    @property
    def outputs(self) -> Array:
        return self.hiddens[1:]


def _lstm_recurrence(Wx: Array, Wh: Array, b: Array, X: Array) -> _LSTMStates:
    """Run the LSTM recurrence over the rows of X (shapes already checked)."""
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


def _lstm_backward(
    Wh: Array, X: Array, states: _LSTMStates, d_hidden: Array
) -> tuple[Array, Array, Array, Array]:
    """Gradients (dWx, dWh, db, per-step gate gradients) of the recurrence.

    ``d_hidden`` is the gradient reaching each emitted hidden state (after
    its dropout mask). Weight gradients are summed as per-step outer
    products in reversed time order, starting from zeros: gemm and gemv
    round differently, so a stacked product would change the bits. Each
    gate gradient is one product chain over the 4H axis,
    ``[dc, dc, dc, dh] * [g, c_prev, i, tanh c] * [i, f, 1, o] * [1-i, 1-f, 1-g^2, 1-o]``,
    which rounds exactly as the four per-gate chains it replaces.
    """
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
    states = _lstm_recurrence(Wx, Wh, b, X)
    out = states.outputs * masks

    if tape is not None:

        def pull(dout):
            dWx, dWh, db, das = _lstm_backward(Wh, X, states, dout * masks)
            dX = np.empty_like(X)
            for t in range(steps):
                dX[t] = Wx.T @ das[t]
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


def _softplus_backward(x: Array, dy: Array) -> Array:
    return dy * sigmoid(x)


def softplus_forward(x: Array, tape: Tape | None = None) -> Array:
    xv = _as_f64(x)
    y = np.asarray(softplus(xv))
    if tape is not None:
        tape.record(y, (xv,), lambda dy: (_softplus_backward(xv, dy),))
    return y


# ---------------------------------------------------------------------------
# losses and reductions


def _check_target(target: Array, n: int) -> Array:
    y = _as_f64(target)
    if y.shape != (n,):
        raise ShapeError(f"target shape {y.shape} does not match {n} classes")
    return y


def _xent(p: Array, target: Array) -> float:
    """Cross-entropy of the softmax output p against a one-hot target."""
    return -float(target @ np.log(np.maximum(p, LOG_FLOOR)))


def _xent_backward(p: Array, target: Array, dy) -> Array:
    return dy * (p - target)


def _sampled_xent(logits: Array, sqrt_sig: Array, target: Array, noise: Array) -> tuple[float, Array]:
    """Mean cross-entropy over the noise-perturbed logits, and their softmax rows."""
    perturbed = logits[None, :] + noise * sqrt_sig[None, :]
    if not np.all(np.isfinite(perturbed)):
        raise InvalidInput("sampled_xent: perturbed logits are not finite")
    z = perturbed - perturbed.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    return float(np.mean(-(np.log(np.maximum(probs, LOG_FLOOR)) @ target))), probs


def _sampled_xent_backward(
    probs: Array, sqrt_sig: Array, target: Array, noise: Array, dy
) -> tuple[Array, Array]:
    """Gradients w.r.t. the logits and the variance, through the recorded draws."""
    n_draws, n_classes = noise.shape
    g = (probs - target[None, :]) / n_draws  # (samples, classes)
    dv = dy * g.sum(axis=0)
    per_logit = (g * noise).sum(axis=0)
    if sqrt_sig.shape == (n_classes,):
        dsig = np.where(sqrt_sig > 0.0, per_logit / (2.0 * np.where(sqrt_sig > 0.0, sqrt_sig, 1.0)), 0.0)
    else:
        dsig = np.asarray([per_logit.sum() / (2.0 * sqrt_sig[0])])
    return dv, dy * dsig


def softmax_xent(logits: Array, target: Array, tape: Tape | None = None) -> Array:
    """Cross-entropy of softmax(logits) against a one-hot target (0-d array)."""
    v = _as_f64(logits)
    p = softmax(v)
    y = _check_target(target, v.shape[0])
    loss = np.asarray(_xent(p, y))
    if tape is not None:
        tape.record(loss, (v,), lambda dy: (_xent_backward(p, y, dy),))
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
    value, probs = _sampled_xent(v, sqrt_sig, y, eps)
    loss = np.asarray(value)
    if tape is not None:
        tape.record(loss, (v, sig), lambda dy: _sampled_xent_backward(probs, sqrt_sig, y, eps, dy))
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


def _check_finite(arr: Array, path, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise DataError(f"checkpoint {path}: layer {name!r} has non-finite values")


def save_checkpoint(layers: dict[str, Array], path) -> None:
    """Write layers as JSON {name: {shape, row-major values}}; lossless.

    A non-finite value is a DataError naming the layer; nothing is written.
    """
    doc = {}
    for name in sorted(layers):
        arr = _as_f64(layers[name])
        _check_finite(arr, path, name)
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
            arr = np.asarray(entry["values"], dtype=np.float64)
        except (TypeError, KeyError, ValueError) as exc:
            raise DataError(f"checkpoint {path}: bad entry for layer {name!r}") from exc
        if arr.size != int(np.prod(shape, dtype=np.int64)):
            raise DataError(f"checkpoint {path}: layer {name!r} has {arr.size} values for shape {shape}")
        _check_finite(arr, path, name)
        layers[name] = arr.reshape(shape)
    return layers
