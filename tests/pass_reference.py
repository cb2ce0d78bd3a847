"""A bundle's tree passes as they ran before a pass stopped repeating work.

Every pass here works everything out again: it decomposes the tree
(``decompose_branches``), plans the lockstep LSTM run of the branch lengths
(``lockstep_plan``), finds the rows of its mask block that reach the heads
(``branch_masks``), stacks the embeddings with ``np.stack``, works out
each branch's variance and probabilities on its own row (``softplus``,
then ``softmax``, as a branch-at-a-time pass would) and stacks them into
blocks, averages with ``np.mean`` (the variance a branch at a time), and
seeds the generator that a tree's samples draw from in turn with
``np.random.default_rng([seed, *stream])``. Branch-level sample sets
stack each branch's rows of those passes one row at a time. Its
lockstep loop adds the zero state's product ``h @ Wh.T`` on step 0 too. The step kernel
``nn._lstm_step``, ``nn.head_forward``, ``embed_tweet`` and the measures on
sample sets are shared with the library; ``test_pass_kernels`` checks the
kernel against the textbook step. ``uncertainty.bundle`` must equal
``bundle`` here exactly.
"""

from __future__ import annotations

import itertools

import numpy as np
from network_reference import PassResult

from veritas import nn
from veritas.data import Branch, embed_tweet
from veritas.uncertainty import (
    SampleSet,
    UncertaintyBundle,
    _tree_seed,
    max_variance,
    predictive_entropy,
    softmax_confidences,
    variation_ratio,
)


def child_rng(seed, *stream):
    return np.random.default_rng([int(seed), *(int(s) for s in stream)])


def decompose_branches(tree):
    by_id = {tw.id: tw for tw in tree.tweets}
    parents = {tw.parent_id for tw in tree.tweets}
    leaves = [tw for tw in tree.tweets if tw.id not in parents]
    leaves.sort(key=lambda t: (t.timestamp, t.id))
    branches = []
    for leaf in leaves:
        path = [leaf]
        node = leaf
        while node.parent_id is not None:
            node = by_id[node.parent_id]
            path.append(node)
        branches.append(Branch(tree_id=tree.tree_id, tweets=tuple(reversed(path))))
    return branches


def lockstep_plan(lengths):
    by_length = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    starts = list(itertools.accumulate(lengths, initial=0))
    order, bounds = [], [0]
    for t in range(lengths[by_length[0]]):
        order += [starts[j] + t for j in by_length if lengths[j] > t]
        bounds.append(len(order))
    return len(lengths), np.array(order), bounds


def lstm_forward(Wx, Wh, b, X, lengths):
    steps, hidden = X.shape[0], Wh.shape[1]
    k, order, bounds = lockstep_plan(lengths)
    X = X[order]
    acts = np.empty((steps, 4 * hidden))
    cells = np.zeros((k + steps, hidden))
    hiddens = np.zeros((k + steps, hidden))
    tanh_cells = np.empty((steps, hidden))
    wx_t, wh_t = Wx.T, Wh.T
    prev = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo == 1:
            rows, entering, leaving = lo, prev, k + lo
        else:
            rows, entering, leaving = slice(lo, hi), slice(prev, prev + hi - lo), slice(k + lo, k + hi)
        a = X[rows] @ wx_t
        a += hiddens[entering] @ wh_t
        a += b
        nn._lstm_step(a, cells[entering], acts[rows], cells[leaving], tanh_cells[rows], hiddens[leaving])
        prev = k + lo
    out = np.empty((len(order), hidden))
    out[order] = hiddens[k:]
    return out


def branch_masks(lengths, hidden, n_relu, rate, rng):
    if not nn._drops(rate):
        return None
    rows, end = [], 0
    for steps in lengths:
        end += steps + n_relu
        rows += range(end - n_relu - 1, end)
    return nn._draw_mask((end, hidden), rate, rng)[rows].reshape(len(lengths), n_relu + 1, hidden)


def branch_heads(params, X, lengths, dropout, rng):
    p = params.layers
    outputs = lstm_forward(p["lstm.wx"], p["lstm.wh"], p["lstm.b"], X, lengths)
    u = outputs[np.cumsum(lengths) - 1]
    masks = branch_masks(lengths, params.hidden_size, params.num_relu_layers, dropout, rng)
    if masks is not None:
        u *= masks[:, 0]
    _, _, logits, var_pre = nn.head_forward(p, u, None if masks is None else masks[:, 1:])
    return logits, var_pre


def branch_outputs(logits, var_pre):
    """Each branch's variance and probabilities from its own row, variance first, stacked into blocks."""
    rows = [(nn.softplus(v), nn.softmax(z)) for v, z in zip(var_pre, logits)]
    return PassResult(logits, var_pre, *(np.stack(block) for block in zip(*rows)))


def tree_branch_outputs(params, tree, embedder, dropout=0.0, rng=None):
    branches = decompose_branches(tree)
    X = np.stack([embed_tweet(tw.text, embedder) for b in branches for tw in b.tweets])
    return branch_outputs(*branch_heads(params, X, [len(b.tweets) for b in branches], dropout, rng))


def tree_probs(params, tree, embedder, dropout=0.0, rng=None):
    return np.mean(tree_branch_outputs(params, tree, embedder, dropout, rng).probs, axis=0)


def aleatoric_score(params, tree, embedder):
    return float(np.mean([float(np.mean(row)) for row in tree_branch_outputs(params, tree, embedder).variance]))


def mc_sample(params, tree, embedder, n_samples, dropout_rate, seed):
    tree_seed = _tree_seed(seed, tree.tree_id)
    rng = child_rng(tree_seed)
    rows = [tree_probs(params, tree, embedder, dropout_rate, rng) for _ in range(n_samples)]
    return SampleSet(np.stack(rows))


def mc_sample_branches(params, tree, embedder, n_samples, dropout_rate, seed):
    rng = child_rng(_tree_seed(seed, tree.tree_id))
    passes = [tree_branch_outputs(params, tree, embedder, dropout_rate, rng).probs for _ in range(n_samples)]
    return [SampleSet(np.stack([block[b] for block in passes])) for b in range(len(passes[0]))]


def bundle(params, tree, embedder, n_samples, dropout_rate, seed=0, branch_level=False):
    det_probs = tree_probs(params, tree, embedder)
    det_class = int(np.argmax(det_probs))
    if branch_level:
        sets = mc_sample_branches(params, tree, embedder, n_samples, dropout_rate, seed)
    else:
        sets = [mc_sample(params, tree, embedder, n_samples, dropout_rate, seed)]
    conf = softmax_confidences(det_probs)
    return UncertaintyBundle(
        variation_ratio=float(np.mean([variation_ratio(s) for s in sets])),
        entropy=float(np.mean([predictive_entropy(s) for s in sets])),
        variance=float(np.mean([max_variance(s) for s in sets])),
        aleatoric=aleatoric_score(params, tree, embedder),
        softmax_lcs=conf.lcs,
        softmax_margin=conf.margin,
        softmax_ratio=conf.ratio,
        softmax_entropy=conf.entropy,
        mean_probs=tuple(float(p) for p in det_probs),
        predicted_class=det_class,
    )
