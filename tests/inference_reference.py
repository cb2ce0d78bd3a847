"""Tree inference as it ran before a pass batched its branches.

``tree_branch_outputs`` runs the branches one at a time: each embedded
branch goes through its own LSTM recurrence (``lstm_reference``'s
fresh-array loop), draws its own LSTM mask block from the pass's rng, then
its ReLU masks (``head_forward`` draws them as it goes, through gemv
products), and is checked by ``softplus`` and then ``softmax`` on its own.
``model.tree_branch_outputs`` must draw the same random numbers, equal
this exactly on one-branch trees, and agree to rounding (gemm against
gemv) on trees with more branches.
"""

from __future__ import annotations

import numpy as np

import lstm_reference
from veritas import nn
from veritas.data import branch_matrix, decompose_branches
from veritas.model import BranchOutput


def head_forward(layers, u, dropout, rng):
    drops = nn._drops(dropout)
    i = 0
    while f"relu{i}.w" in layers:
        y = np.maximum(layers[f"relu{i}.w"] @ u + layers[f"relu{i}.b"], 0.0)
        u = y * nn._draw_mask(y.shape, dropout, rng) if drops else y
        i += 1
    return layers["out.w"] @ u + layers["out.b"], layers["var.w"] @ u + layers["var.b"]


def forward_branch(params, vectors, dropout=0.0, rng=None):
    p = params.layers
    outputs = lstm_reference.lstm_recurrence(p["lstm.wx"], p["lstm.wh"], p["lstm.b"], vectors).hiddens[1:]
    if nn._drops(dropout):
        outputs = outputs * nn._draw_mask(outputs.shape, dropout, rng)
    logits, var_pre = head_forward(p, outputs[-1], dropout, rng)
    return BranchOutput(logits=logits, variance=nn.softplus(var_pre), probs=nn.softmax(logits))


def tree_branch_outputs(params, tree, embedder, dropout=0.0, rng=None):
    return [
        forward_branch(params, branch_matrix(branch, embedder), dropout, rng)
        for branch in decompose_branches(tree)
    ]
