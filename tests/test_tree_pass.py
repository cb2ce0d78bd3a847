"""A tree pass runs all of its branches as one batch.

``model.tree_branch_outputs`` sends every branch through one lockstep LSTM
call and one head pass. ``network_reference`` keeps the branch-at-a-time
loop it replaced, with its own per-step LSTM loop. The masks must be the
same random numbers, so the rng state after a pass must equal the
reference's, and a one-branch pass must give the same bits. With several branches the LSTM and head products are
matrix products instead of matrix-vector ones, which round differently:
those passes must agree within 1e-12, where a wrong mask would move a
value by order one. ``forward_branch`` is the tree pass over one branch,
bit for bit. The MC-dropout sample sets of both sampling modes are read
off one set of tree passes: branch-level sets are the branches' rows, and
the tree-level set is their branch mean, each pass's ``tree_probs``.
"""

import numpy as np
import pytest
from conftest import conversation_trees
from hypothesis import given, settings
from hypothesis import strategies as st

import network_reference as ref
from veritas import (
    ConversationTree,
    HashingEmbedder,
    TableEmbedder,
    Tweet,
    UncertaintyConfig,
    bundle,
    mc_sample,
    mc_sample_branches,
    timeline_report,
    tree_probs,
)
from veritas.data import branch_matrix, decompose_branches
from veritas.errors import InvalidInput, child_rng, make_rng
from veritas.model import ModelParams, forward_branch, init_params, tree_branch_outputs
from veritas.uncertainty import _tree_seed

FIELDS = ("logits", "var_pre", "probs", "variance")


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def pass_cases(draw):
    tree = draw(conversation_trees())
    n_classes = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    params = init_params(
        dim,
        draw(st.integers(1, 8)),
        draw(st.integers(0, 2)),
        n_classes,
        seed=seed,
        variance_dim=draw(st.sampled_from([1, n_classes])),
    )
    noise = np.random.default_rng(seed)
    params = ModelParams({k: v + 0.5 * noise.standard_normal(v.shape) for k, v in params.layers.items()})
    embedder = HashingEmbedder(dimension=dim, seed=draw(st.integers(0, 3)))
    return params, tree, embedder, draw(st.sampled_from([0.0, 0.2, 0.5])), seed


@settings(max_examples=300, deadline=None)
@given(pass_cases())
def test_tree_pass_matches_branch_at_a_time_reference(case):
    params, tree, embedder, dropout, seed = case
    rng, ref_rng = make_rng(seed), make_rng(seed)
    got = tree_branch_outputs(params, tree, embedder, dropout, rng)
    want = ref.tree_branch_outputs(params, tree, embedder, dropout, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(want.probs) == len(decompose_branches(tree))
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if len(want.probs) == 1:
            assert same_bits(a, b), name
        else:
            assert a.shape == b.shape and np.abs(a - b).max() <= 1e-12, name

    deterministic = tree_probs(params, tree, embedder)
    for row in mc_sample(params, tree, embedder, 2, 0.0, seed=seed).samples:
        assert same_bits(row, deterministic)


@settings(max_examples=200, deadline=None)
@given(pass_cases())
def test_forward_branch_is_the_one_branch_tree_pass(case):
    params, tree, embedder, dropout, seed = case
    for b in decompose_branches(tree):
        rng, tree_rng = make_rng(seed), make_rng(seed)
        got = forward_branch(params, branch_matrix(b, embedder), dropout, rng)
        alone = ConversationTree(tree.tree_id, tree.event, tree.label, b.tweets)
        want = tree_branch_outputs(params, alone, embedder, dropout, tree_rng)
        assert rng.bit_generator.state == tree_rng.bit_generator.state
        for name in FIELDS:
            assert same_bits(getattr(got, name), getattr(want, name)[0]), name


@settings(max_examples=200, deadline=None)
@given(pass_cases(), st.integers(1, 4))
def test_sample_sets_of_both_modes_come_from_one_set_of_passes(case, n_samples):
    params, tree, embedder, dropout, seed = case
    rng = child_rng(_tree_seed(seed, tree.tree_id))
    passes = [tree_branch_outputs(params, tree, embedder, dropout, rng).probs for _ in range(n_samples)]
    sets = mc_sample_branches(params, tree, embedder, n_samples, dropout, seed)
    assert len(sets) == len(decompose_branches(tree))
    for b, sample_set in enumerate(sets):
        assert same_bits(sample_set.samples, np.array([block[b] for block in passes]))
    tree_set = mc_sample(params, tree, embedder, n_samples, dropout, seed).samples
    assert same_bits(np.mean(np.stack([s.samples for s in sets], axis=1), axis=1), tree_set)
    rng = child_rng(_tree_seed(seed, tree.tree_id))
    assert same_bits(np.array([tree_probs(params, tree, embedder, dropout, rng) for _ in passes]), tree_set)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 400), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_tree_set_of_a_wide_tree_is_each_pass_tree_probs(replies, n_classes, seed):
    """The branch mean of ``mc_sample``'s pass block rounds as ``tree_probs`` does, up to 400 branches."""
    params = init_params(4, 3, 1, n_classes, seed=seed % 1000)
    tree = _tree("wide", [f"w{i} root" for i in range(replies + 1)], [None] + [0] * replies)
    embedder = HashingEmbedder(dimension=4, seed=1)
    rng = child_rng(_tree_seed(seed, tree.tree_id))
    want = np.array([tree_probs(params, tree, embedder, 0.5, rng) for _ in range(3)])
    assert same_bits(mc_sample(params, tree, embedder, 3, 0.5, seed).samples, want)


def _tree(tree_id, texts, parents):
    tweets = tuple(
        Tweet(id=f"{tree_id}.{i}", parent_id=None if p is None else f"{tree_id}.{p}", timestamp=i, text=text)
        for i, (text, p) in enumerate(zip(texts, parents))
    )
    return ConversationTree(tree_id=tree_id, event="e", label="true", tweets=tweets)


def _overflowing_heads():
    """A network whose logits overflow on a leaf with token ``a`` and whose variance overflows on ``b``.

    Hidden units 0-1 follow input 0 and units 2-3 input 1: the forget gate is
    shut and the others open, so a unit's state is tanh(tanh(x)) of the last
    tweet, 0.76 for a token and 0 without one. The logit head sums units 0-1
    and the variance head units 2-3, each times 1.5e308, which overflows at
    0.76 and not at 0.
    """
    hidden = 4
    layers = {
        "lstm.wx": np.zeros((4 * hidden, 2)),
        "lstm.wh": np.zeros((4 * hidden, hidden)),
        "lstm.b": np.repeat([50.0, -50.0, 0.0, 50.0], hidden),
        "out.w": np.array([[1.5e308, 1.5e308, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        "out.b": np.zeros(2),
        "var.w": np.array([[0.0, 0.0, 1.5e308, 1.5e308]]),
        "var.b": np.zeros(1),
    }
    layers["lstm.wx"][2 * hidden : 3 * hidden] = [[5.0, 0.0], [5.0, 0.0], [0.0, 5.0], [0.0, 5.0]]
    table = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
    return ModelParams(layers), TableEmbedder(table, dimension=2)


@pytest.mark.parametrize(
    "leaves, bad_leaf, text",
    [
        (["z", "a", "b"], 2, "softmax: logits must be finite"),
        (["z", "b", "a"], 2, "softplus: input must be finite"),
        (["a b", "a"], 1, "softplus: input must be finite"),
        (["z", "z"], None, None),
    ],
)
def test_non_finite_heads_raise_the_first_bad_branchs_error(leaves, bad_leaf, text):
    params, embedder = _overflowing_heads()
    tree = _tree("t3", ["z", *leaves], [None] + [0] * len(leaves))
    with np.errstate(over="ignore", invalid="ignore"):
        if bad_leaf is None:
            tree_branch_outputs(params, tree, embedder)
            return
        with pytest.raises(InvalidInput) as info:
            ref.tree_branch_outputs(params, tree, embedder)
        assert str(info.value) == text
        with pytest.raises(InvalidInput) as info:
            tree_branch_outputs(params, tree, embedder)
    assert str(info.value) == f"tree t3, branch ending at tweet t3.{bad_leaf}: {text}"


@pytest.mark.parametrize(
    "layer, text", [("out.b", "softmax: logits must be finite"), ("var.b", "softplus: input must be finite")]
)
def test_inference_errors_name_the_tree_and_leaf(layer, text):
    params = init_params(8, 4, 1, 3, seed=0)
    params.layers[layer][:] = np.inf
    tree = _tree("t9", [f"word{i} sun" for i in range(6)], [None, 0, 1, 0, 3, 0])
    embedder = HashingEmbedder(dimension=8, seed=0)
    first_leaf = decompose_branches(tree)[0].tweets[-1].id
    with pytest.raises(InvalidInput) as info:
        bundle(params, tree, embedder, 3, 0.2, seed=1)
    assert str(info.value) == f"tree t9, branch ending at tweet {first_leaf}: {text}"
    with pytest.raises(InvalidInput) as info:
        timeline_report(params, tree, embedder, UncertaintyConfig(n_samples=3, dropout_rate=0.2, seed=1))
    # The first prefix is the root alone.
    assert str(info.value) == f"tree t9, branch ending at tweet t9.0: {text}"
