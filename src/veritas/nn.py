"""The branch network in plain float64 numpy: layer table, forward pass, training step.

``layer_shapes`` is the layer table. The forward pass is the LSTM
recurrence (``lstm_forward``) followed by ``head_forward`` (ReLU stack,
logits, variance head); ``backward`` returns one branch's losses and
gradients from the private per-layer kernels, and ``sgd_step`` applies
them in place. This is not a general autodiff engine. README's
"Inference path" and "Training path" say how each path runs and rounds.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple
import numpy as np

from .errors import ConfigError, InvalidInput, ShapeError

Array = np.ndarray

# Floor for log arguments inside the cross-entropy losses.
LOG_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: Array) -> Array:
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    # One division: 1/(1+e) for x >= 0 and e/(1+e) below, as two would give;
    # e lies in [0, 1], so max(e, x >= 0) is the numerator.
    return np.maximum(e, x >= 0) / (1.0 + e)


def softmax(logits: Array) -> Array:
    """Softmax of a nonempty vector."""
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"softmax expects a nonempty vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise InvalidInput("softmax: logits must be finite")
    return _softmax_kernel(v)


def _softmax_kernel(v: Array) -> Array:
    """Softmax along the last axis, unchecked."""
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softplus(x):
    """Numerically stable softplus; returns a float for scalar input."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidInput("softplus: input must be finite")
    out = _softplus_kernel(arr)
    return float(out) if arr.ndim == 0 else out


def _softplus_kernel(arr: Array) -> Array:
    # log1p(exp(x)) for x <= 0, x + log1p(exp(-x)) for x > 0; both share
    # log1p(exp(-|x|)) so the exp argument never overflows. For finite x,
    # max(x, 0) + tail is x + tail where x > 0 and tail elsewhere, bit for
    # bit: a zero added to the nonnegative tail leaves it as it is.
    tail = np.log1p(np.exp(-np.abs(arr)))
    return np.maximum(arr, 0.0) + tail


def head_probs(logits: Array, var_pre: Array) -> Array | None:
    """``softmax`` of each logits row, a row per branch, after one finiteness check of both heads' blocks.

    None when any entry is not finite: the caller then finds the branch,
    and ``softplus`` and ``softmax`` on its rows give the error.
    """
    if not (np.isfinite(logits).all() and np.isfinite(var_pre).all()):
        return None
    return _softmax_kernel(logits)


# ---------------------------------------------------------------------------
# dropout


def _drops(rate: float) -> bool:
    """Whether dropout at ``rate`` draws a mask; a rate outside [0, 1) is a ConfigError."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    return rate > 0.0


def _draw_mask(shape, rate: float, rng, rows=slice(None)) -> Array:
    """An inverted-dropout mask from one ``rng.random(shape)`` block, made only of its ``rows``."""
    # Inverted dropout: survivors are scaled by 1/(1-rate) so the expected
    # activation is unchanged and no rescaling is needed at test time.
    keep = 1.0 - rate
    return (rng.random(shape)[rows] >= rate) / keep


# ---------------------------------------------------------------------------
# layers


def _as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _dense_backward(weights: Array, x: Array, dz: Array) -> tuple[Array, Array]:
    """Weight gradient and input gradient of ``weights @ x + b`` for output gradient dz."""
    return dz[:, None] * x[None, :], weights.T @ dz


def dense_forward(weights: Array, bias: Array, x: Array, activation: str = "linear") -> Array:
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
    return np.maximum(z, 0.0) if activation == "relu" else z


class _LSTMStates(NamedTuple):
    """What the LSTM backward needs from the forward recurrence.

    The rows are step-major: step 0 of every sequence, then step 1 of the
    sequences still running, and so on. ``acts`` holds each step's four
    gate activations (sigmoid input, sigmoid forget, tanh candidate,
    sigmoid output) and ``tanh_cells`` tanh of the cell leaving it.
    ``cells`` and ``hiddens`` hold the zero state of each sequence, then
    the states leaving each step. ``order`` is the input row of each step
    row, or None for one sequence, whose rows are in input order: then
    ``cells[t]`` and ``hiddens[t]`` are the states entering step t, so row
    ``steps`` holds the final ones.
    """

    acts: Array
    cells: Array
    hiddens: Array
    tanh_cells: Array
    order: Array | None = None

    @property
    def outputs(self) -> Array:
        """The emitted hidden states, one per input row, in input order."""
        if self.order is None:
            return self.hiddens[1:]
        out = np.empty((len(self.order), self.hiddens.shape[1]))
        out[self.order] = self.hiddens[len(self.hiddens) - len(self.order) :]
        return out


def _lstm_step(a: Array, c_prev: Array, s: Array, c: Array, tc: Array, h: Array) -> None:
    """One LSTM step from the gate pre-activations ``a``, on one row or a block of rows.

    Writes the gate activations into ``s``, the new cell into ``c``, its
    tanh into ``tc`` and the new hidden state into ``h``; the last axis of
    ``a`` and ``s`` is 4H. Every elementwise op is the one ``sigmoid`` and
    the textbook update ``c = f * c + i * g`` take, in the same order, so
    the bits are theirs.
    """
    hidden = c.shape[-1]
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(e, a >= 0, out=s)
    e += 1.0
    s /= e
    g = s[..., 2 * hidden : 3 * hidden]
    np.tanh(a[..., 2 * hidden : 3 * hidden], out=g)
    np.multiply(s[..., hidden : 2 * hidden], c_prev, out=c)
    # tc is free until the new cell's tanh lands in it: it holds i * g first.
    np.multiply(s[..., :hidden], g, out=tc)
    c += tc
    np.tanh(c, out=tc)
    np.multiply(s[..., 3 * hidden :], tc, out=h)


# Most shapes (branch-length tuples) whose lockstep plan, and whose mask
# rows, are kept. A bundle's passes share one shape, so even a few entries
# serve all but its first pass.
_SHAPE_CACHE = 1024


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _lockstep_plan(lengths: tuple[int, ...]) -> tuple[int, Array | None, tuple]:
    """Sequence count, step-major row order and per-step rows of back-to-back sequences.

    Sequences are taken longest first (ties in input order), so the ones
    still running at every step are a prefix of those running at the step
    before. ``order`` gives each step row's input row, read-only, or is None
    for one sequence, whose rows are in step order already. Each step holds
    the slices of its step rows, of the state rows entering it and of those
    leaving it. The state arrays hold each sequence's zero state, then the
    states leaving each step.
    """
    k = len(lengths)
    by_length = sorted(range(k), key=lengths.__getitem__, reverse=True)
    starts = list(itertools.accumulate(lengths, initial=0))
    order, steps, entering = [], [], 0
    for t in range(lengths[by_length[0]]):
        lo = len(order)
        order += [starts[j] + t for j in by_length if lengths[j] > t]
        hi = len(order)
        steps.append((slice(lo, hi), slice(entering, entering + hi - lo), slice(k + lo, k + hi)))
        entering = k + lo
    if k == 1:
        return 1, None, tuple(steps)
    order = np.array(order)
    order.flags.writeable = False
    return k, order, tuple(steps)


def _lstm_recurrence(Wx: Array, Wh: Array, b: Array, X: Array, lengths: tuple[int, ...] | None = None) -> _LSTMStates:
    """Run the LSTM recurrence over the rows of X (shapes already checked).

    ``lengths`` splits X into sequences that sit back to back, each
    starting from the zero state; None is one sequence. The sequences run
    in lockstep by ``_lockstep_plan``: each step is one ``rows @ Wx.T`` and
    one ``h @ Wh.T`` over the sequences still running (step 0 skips the
    latter, whose states are all zero), then ``_lstm_step`` on all of them,
    writing in place into the preallocated state arrays. A
    one-row product rounds as the matrix-vector product ``Wx @ x`` does, so
    one sequence gets the bits of a plain per-step loop; a block of rows is
    a matrix product, which rounds differently.
    """
    rows, hidden = X.shape[0], Wh.shape[1]
    k, order, steps = _lockstep_plan((rows,) if lengths is None else lengths)
    if order is not None:
        X = X[order]
    acts = np.empty((rows, 4 * hidden))
    cells = np.zeros((k + rows, hidden))
    hiddens = np.zeros((k + rows, hidden))
    tanh_cells = np.empty((rows, hidden))
    wx_t, wh_t = Wx.T, Wh.T
    for t, (step_rows, entering, leaving) in enumerate(steps):
        a = X[step_rows] @ wx_t
        if t:  # step 0's entering states are zero, and adding their +0.0 product changes no entry
            a += hiddens[entering] @ wh_t
        a += b
        _lstm_step(a, cells[entering], acts[step_rows], cells[leaving], tanh_cells[step_rows], hiddens[leaving])
    return _LSTMStates(acts, cells, hiddens, tanh_cells, order)


def _lstm_backward(
    Wh: Array, X: Array, states: _LSTMStates, d_hidden: Array
) -> tuple[Array, Array, Array, Array]:
    """Gradients (dWx, dWh, db, per-step gate gradients) of the recurrence.

    ``d_hidden`` holds the gradients reaching the last ``len(d_hidden)``
    emitted hidden states (after their dropout masks), one row per state;
    the states before them get none from outside. A full ``(steps, H)``
    block with zero rows in front gives the same ``dWx``, ``dWh`` and
    ``db``. The time loop runs only the gate-gradient chain; each gate
    gradient is one product chain over the 4H axis,
    ``[dc, dc, dc, dh] * [g, c_prev, i, tanh c] * [i, f, 1, o] * [1-i, 1-f, 1-g^2, 1-o]``,
    which rounds exactly as the four per-gate chains it replaces.

    The weight gradients are the per-step outer products ``da_t x_t``,
    ``da_t h_{t-1}`` and ``da_t`` summed in reversed time order starting
    from zeros. Each is one ``np.add.reduce(..., axis=0, initial=0.0)``
    after the loop, over the per-step products stacked by ``np.einsum``
    (one product per element, no sum): a reduction over the leading axis
    adds the rows one after another, so it rounds as a loop of per-step
    ``+=`` would, while a stacked gemm would not. ``dWx``'s products are
    stacked input column first, so each row of the einsum is 4H long. An
    input column that is zero at every step gets exactly zero from that
    sum, so ``dWx`` is reduced only over the columns that are nonzero
    somewhere; a hashing embedding fills a few of them.
    """
    steps, hidden = X.shape[0], Wh.shape[1]
    first = steps - d_hidden.shape[0]
    acts = states.acts
    i, f, g, o = (acts[:, k * hidden : (k + 1) * hidden] for k in range(4))
    gate_g = slice(2 * hidden, 3 * hidden)
    tc = states.tanh_cells
    second = np.concatenate([g, states.cells[:-1], i, tc], axis=1)
    third = acts.copy()
    third[:, gate_g] = 1.0
    fourth = 1.0 - acts
    np.subtract(1.0, g * g, out=fourth[:, gate_g])
    dtanh = 1.0 - tc * tc
    das = np.empty((steps, 4 * hidden))
    wh_t = Wh.T
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in reversed(range(steps)):
        dh = d_hidden[t - first] + dh_next if t >= first else dh_next
        dc = dh * o[t] * dtanh[t] + dc_next
        da = np.multiply(np.concatenate((dc, dc, dc, dh)) * second[t] * third[t], fourth[t], out=das[t])
        dh_next = wh_t @ da
        dc_next = dc * f[t]
    rev_das = das[::-1]
    cols = X.any(axis=0).nonzero()[0]
    dWx = np.zeros((4 * hidden, X.shape[1]))
    dWx.T[cols] = np.add.reduce(np.einsum("tj,ti->tji", X[::-1, cols], rev_das), axis=0, initial=0.0)
    dWh = np.add.reduce(np.einsum("ti,tj->tij", rev_das, states.hiddens[steps - 1 :: -1]), axis=0, initial=0.0)
    db = np.add.reduce(rev_das, axis=0, initial=0.0)
    return dWx, dWh, db, das


def lstm_forward(
    weights_x: Array,
    weights_h: Array,
    bias: Array,
    inputs: Array,
    lengths=None,
) -> Array:
    """Single-layer LSTM over the rows of ``inputs``; returns one hidden row per input row.

    ``lengths`` lists the sequences, which sit back to back in ``inputs``:
    the state resets to zero at the start of each one, and they run in
    lockstep (see ``_lstm_recurrence``). Without it the rows are one
    sequence. Gate layout along the 4H axis is input, forget, candidate,
    output. No dropout is applied: a pass masks the outputs it keeps with
    ``branch_masks``.
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
    if lengths is not None:
        lengths = tuple(lengths)
        try:  # a bool is refused before the plan cache sees it: (True,) and (1,) are equal keys
            steps = () if bool in map(type, lengths) else tuple(map(operator.index, lengths))
        except TypeError:
            steps = ()
        if min(steps, default=0) < 1 or sum(steps) != len(X):
            raise ShapeError(f"lstm: lengths must be positive integers summing to the {len(X)} rows, got {lengths}")
        lengths = steps
    return _lstm_recurrence(Wx, Wh, b, X, lengths).outputs


def layer_shapes(input_dim: int, hidden: int, n_relu: int, n_classes: int, variance_dim: int) -> dict:
    """The branch network's ``{layer name: shape}`` in order: lstm, relu<i>, out, var."""
    shapes = {"lstm.wx": (4 * hidden, input_dim), "lstm.wh": (4 * hidden, hidden), "lstm.b": (4 * hidden,)}
    for i in range(n_relu):
        shapes[f"relu{i}.w"], shapes[f"relu{i}.b"] = (hidden, hidden), (hidden,)
    shapes["out.w"], shapes["out.b"] = (n_classes, hidden), (n_classes,)
    shapes["var.w"], shapes["var.b"] = (variance_dim, hidden), (variance_dim,)
    return shapes


def _relu_count(layers: dict[str, Array]) -> int:
    """ReLU layers of a network: ``relu0``, ``relu1``, ... for as long as their weights are present."""
    n = 0
    while f"relu{n}.w" in layers:
        n += 1
    return n


def branch_masks(lengths, hidden: int, n_relu: int, rate: float, rng) -> Array | None:
    """The dropout masks of one pass over branches of ``lengths`` steps; None at rate 0.

    A pass draws, branch after branch, a mask for each LSTM step and then
    one for each ReLU layer's output, all from one ``rng.random`` block in
    that order. Only the masks that reach the heads are returned: entry
    ``[j, 0]`` masks branch j's last LSTM output and ``[j, 1 + i]`` the
    output of its ReLU layer i. The whole block is drawn, so the stream
    moves on as before, but only those rows become masks; which rows they
    are is worked out once per shape (``_mask_rows``).
    """
    if not _drops(rate):
        return None
    if rng is None:
        raise ConfigError("dropout: a positive dropout rate needs an rng")
    lengths = tuple(lengths)
    rows, end = _mask_rows(lengths, n_relu)
    return _draw_mask((end, hidden), rate, rng, rows).reshape(len(lengths), n_relu + 1, hidden)


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _mask_rows(lengths: tuple[int, ...], n_relu: int) -> tuple[Array, int]:
    """The read-only rows of a pass's mask block that reach the heads, and the block's row count."""
    rows, end = [], 0
    for steps in lengths:
        end += steps + n_relu
        rows += range(end - n_relu - 1, end)
    rows = np.array(rows, dtype=np.intp)
    rows.flags.writeable = False
    return rows, end


def head_forward(layers: dict[str, Array], u: Array, masks: Array | None):
    """The ReLU stack and both heads on the LSTM's last (masked) output ``u``.

    ``u`` is one branch's vector or a ``(branches, H)`` block with one row
    per branch. The ReLU layers are those ``_relu_count`` finds, and
    ``masks[..., i, :]`` is the dropout mask of ReLU layer i's output (the
    entries of ``branch_masks`` after the LSTM one); None is no dropout.
    Returns the heads' input, an ``(input, pre-activation, mask or None)``
    per ReLU layer, the logits and the variance pre-activation, each with
    ``u``'s leading axes.
    """
    cache = []
    for i in range(_relu_count(layers)):
        z = u @ layers[f"relu{i}.w"].T + layers[f"relu{i}.b"]
        y = np.maximum(z, 0.0)
        mask = None if masks is None else masks[..., i, :]
        cache.append((u, z, mask))
        u = y if mask is None else y * mask
    return u, cache, u @ layers["out.w"].T + layers["out.b"], u @ layers["var.w"].T + layers["var.b"]


def _softplus_backward(x: Array, dy: Array) -> Array:
    return dy * sigmoid(x)


# ---------------------------------------------------------------------------
# losses


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
    if not np.isfinite(perturbed).all():
        raise InvalidInput("sampled_xent: perturbed logits are not finite")
    z = perturbed - perturbed.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    # np.mean's own arithmetic: one pairwise sum, then a division by the count.
    return float(np.add.reduce(-(np.log(np.maximum(probs, LOG_FLOOR)) @ target)) / len(noise)), probs


def _sampled_xent_backward(
    probs: Array, sqrt_sig: Array, target: Array, noise: Array, dy
) -> tuple[Array, Array]:
    """Gradients w.r.t. the logits and the variance, through the recorded draws."""
    n_draws, n_classes = noise.shape
    g = (probs - target[None, :]) / n_draws  # (samples, classes)
    dv = dy * g.sum(axis=0)
    per_logit = (g * noise).sum(axis=0)
    if sqrt_sig.shape == (n_classes,):
        positive = sqrt_sig > 0.0
        dsig = np.where(positive, per_logit / (2.0 * np.where(positive, sqrt_sig, 1.0)), 0.0)
    else:
        dsig = np.asarray([per_logit.sum() / (2.0 * sqrt_sig[0])])
    return dv, dy * dsig


def softmax_xent(logits: Array, target: Array) -> Array:
    """Cross-entropy of softmax(logits) against a one-hot target (0-d array)."""
    v = _as_f64(logits)
    p = softmax(v)
    y = _check_target(target, v.shape[0])
    return np.asarray(_xent(p, y))


def sampled_xent(
    logits: Array,
    variance: Array,
    target: Array,
    noise: Array,
) -> Array:
    """Mean cross-entropy over logit vectors perturbed by Gaussian noise.

    One row of ``noise`` per sample; each row is scaled componentwise by
    sqrt(variance) and added to the logits, so the gradient w.r.t. variance
    comes out of the fixed draws (reparameterisation). ``variance`` may
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
        return softmax_xent(v, y)
    return np.asarray(_sampled_xent(v, sqrt_sig, y, eps)[0])


# ---------------------------------------------------------------------------
# training step


def backward(
    layers: dict[str, Array],
    vectors: Array,
    target: Array,
    dropout: float,
    rng,
    samples: int,
    ce_weight: float,
    aleatoric_weight: float,
) -> tuple[float, float, dict[str, Array]]:
    """Training loss of one branch and its exact gradients; mutates nothing.

    ``layers`` is the network ``model.forward_branch`` runs (``lstm.*``,
    ``relu<i>.*``, the ``out.*`` logits and the ``var.*`` softplus variance
    head). The loss is ``ce_weight`` times the cross-entropy against the
    one-hot ``target`` plus ``aleatoric_weight`` times ``sampled_xent`` over
    ``samples`` noise rows. Random numbers come in forward_branch's order,
    the mask block of ``branch_masks`` (each LSTM step's mask, then each
    ReLU mask), followed by the noise block. Returns (cross-entropy,
    sampled loss, gradients by layer name). At all-zero variance ``sampled_xent`` is the plain cross-entropy, so
    the variance layers get no gradient entry.
    """
    wx, wh, b = layers["lstm.wx"], layers["lstm.wh"], layers["lstm.b"]
    # Inference draws every LSTM step's mask, so training does too, but only
    # the last emitted state reaches the heads: only its mask is kept.
    masks = branch_masks((vectors.shape[0],), wh.shape[1], _relu_count(layers), dropout, rng)
    lstm_mask, relu_masks = (None, None) if masks is None else (masks[0, 0], masks[0, 1:])
    states = _lstm_recurrence(wx, wh, b, vectors)
    h_last = states.hiddens[-1]
    u, relu_cache, logits, var_pre = head_forward(
        layers, h_last if lstm_mask is None else h_last * lstm_mask, relu_masks
    )
    w_out, w_var = layers["out.w"], layers["var.w"]
    sqrt_sig = np.sqrt(softplus(var_pre))
    p = softmax(logits)
    ce = _xent(p, target)
    noise = rng.standard_normal((samples, logits.shape[0]))

    grads = {}
    dlogits = _xent_backward(p, target, ce_weight)
    if not sqrt_sig.any():
        # sampled_xent's short circuit: the plain cross-entropy, no variance gradient.
        sampled = ce
        dlogits = _xent_backward(p, target, aleatoric_weight) + dlogits
        dw_out, du = _dense_backward(w_out, u, dlogits)
    else:
        sampled, probs = _sampled_xent(logits, sqrt_sig, target, noise)
        dv, dsig = _sampled_xent_backward(probs, sqrt_sig, target, noise, aleatoric_weight)
        dlogits = dv + dlogits
        dz_var = _softplus_backward(var_pre, dsig)
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

    d_last = du if lstm_mask is None else du * lstm_mask
    grads["lstm.wx"], grads["lstm.wh"], grads["lstm.b"], _ = _lstm_backward(wh, vectors, states, d_last[None, :])
    return ce, sampled, grads


def sgd_step(layers: dict[str, Array], grads: dict[str, Array], learning_rate: float) -> None:
    """One plain SGD update in place: ``layers[name] -= learning_rate * grads[name]``.

    A layer with no gradient entry is left as it is.
    """
    lr = float(learning_rate)
    if lr < 0:
        raise ConfigError(f"learning rate must be nonnegative, got {lr}")
    for name, value in layers.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != value.shape:
            raise ShapeError(f"sgd_step: gradient shape {g.shape} != {value.shape} for layer {name!r}")
        value -= lr * g
