"""How much work one bundle does today, pinned as exact counts.

A bundle runs S+2 tree passes in both sampling modes: the deterministic
pass (``predict_tree``), the learned-variance pass (``aleatoric_score``)
and S MC-dropout passes; ``branch_level`` only chooses how the MC passes'
rows are reduced. Each tree pass embeds every branch row (one
``data.embed_tweet`` call each), runs one ``nn._lstm_recurrence`` over all
of them, draws its masks once (``nn.branch_masks``, also at rate 0) and
runs ``nn.head_forward`` once on a row per branch; each is one
``model.tree_branch_outputs`` call. No bundle runs a branch alone
(``model.forward_branch``) or embeds one (``data.branch_matrix``). Only the
learned-variance pass reads its variance, so a bundle runs the softplus
kernel (``nn._softplus_kernel``) once. A plain counter patched over each
function, in every module that binds it, counts its calls and the rows it
gets, for every timeline prefix of random trees.

These are today's values, not a target: the one scorer per bundle and the
one head block (ROADMAP items 3 and 4) rewrite them, and a change that runs
one pass more or less must rewrite them too.
"""

from __future__ import annotations

import contextlib
import functools
import sys

import numpy as np
import pytest
from conftest import conversation_trees
from hypothesis import given, settings
from hypothesis import strategies as st

from veritas import HashingEmbedder, UncertaintyConfig, bundle, nn
from veritas import data as data_module
from veritas import model as model_module
from veritas.data import decompose_branches, timeline_prefixes
from veritas.harness import timeline_report
from veritas.model import init_params

EMBEDDER = HashingEmbedder(dimension=6, seed=1)
PARAMS = init_params(6, 4, 1, 3, seed=2)


@contextlib.contextmanager
def counting():
    """Count calls and rows of the functions a bundle runs, in every namespace that binds them."""
    counts = dict.fromkeys(
        (
            "recurrence_calls", "recurrence_rows", "head_calls", "head_rows", "embed_calls", "mask_calls",
            "pass_calls", "softplus_calls", "branch_pass_calls", "branch_matrix_calls",
        ),
        0,
    )

    def counted(fn, calls, rows=None, row_arg=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if rows is not None:
                counts[rows] += len(np.atleast_2d(args[row_arg]))  # a vector is one row
            return fn(*args, **kwargs)

        return wrapper

    targets = [
        (nn._lstm_recurrence, "recurrence_calls", "recurrence_rows", 3),
        (nn.head_forward, "head_calls", "head_rows", 1),
        (nn.branch_masks, "mask_calls"),
        (nn._softplus_kernel, "softplus_calls"),
        (data_module.embed_tweet, "embed_calls"),
        (model_module.tree_branch_outputs, "pass_calls"),
        (model_module.forward_branch, "branch_pass_calls"),
        (data_module.branch_matrix, "branch_matrix_calls"),
    ]
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "veritas"]
    with pytest.MonkeyPatch.context() as mp:
        for fn, *how in targets:
            wrapper = counted(fn, *how)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        mp.setattr(module, name, wrapper)
        yield counts


def expected(tree, n_samples: int) -> dict:
    """One bundle's counts; the same in both sampling modes."""
    lengths = [len(b) for b in decompose_branches(tree)]
    rows, branches = sum(lengths), len(lengths)
    passes = n_samples + 2
    return dict(
        recurrence_calls=passes,
        recurrence_rows=passes * rows,
        head_calls=passes,
        head_rows=passes * branches,
        embed_calls=passes * rows,
        mask_calls=passes,
        pass_calls=passes,
        softplus_calls=1,
        branch_pass_calls=0,
        branch_matrix_calls=0,
    )


@settings(max_examples=40, deadline=None)
@given(
    tree=conversation_trees(max_tweets=8),
    n_samples=st.sampled_from([1, 3, 15]),
    branch_level=st.booleans(),
    rate=st.sampled_from([0.0, 0.2]),
)
def test_every_prefix_bundle_does_todays_work(tree, n_samples, branch_level, rate):
    for prefix in timeline_prefixes(tree):
        with counting() as counts:
            bundle(PARAMS, prefix, EMBEDDER, n_samples, rate, seed=3, branch_level=branch_level)
        assert counts == expected(prefix, n_samples)


@settings(max_examples=15, deadline=None)
@given(tree=conversation_trees(max_tweets=8), n_samples=st.sampled_from([1, 3, 15]), branch_level=st.booleans())
def test_timeline_does_one_bundle_of_work_per_prefix(tree, n_samples, branch_level):
    uq = UncertaintyConfig(n_samples=n_samples, dropout_rate=0.2, seed=3, branch_level=branch_level)
    with counting() as counts:
        timeline_report(PARAMS, tree, EMBEDDER, uq)
    want = dict.fromkeys(counts, 0)
    for prefix in timeline_prefixes(tree):
        for key, value in expected(prefix, n_samples).items():
            want[key] += value
    assert counts == want
