"""A tree pass does once per tree or once per shape what every pass used to repeat.

``pass_reference`` keeps the pass that worked everything out again on every
call. The library must give equal bundles and equal pass blocks, build the
same generators, and keep its per-tree and per-shape results where no
caller can change them.
"""

import dataclasses

import numpy as np
import pytest
from conftest import conversation_trees
from hypothesis import given, settings
from hypothesis import strategies as st

import pass_reference as ref
from veritas import ConversationTree, HashingEmbedder, Tweet, aleatoric_score, bundle, nn
from veritas import model as model_module
from veritas.data import decompose_branches
from veritas.errors import ConfigError, child_rng, make_rng
from veritas.model import ModelParams, PassOutput, init_params, tree_branch_outputs

FIELDS = ("logits", "var_pre", "variance", "probs")


@st.composite
def bundle_cases(draw):
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
    options = dict(
        n_samples=draw(st.integers(1, 4)),
        dropout_rate=draw(st.sampled_from([0.0, 0.2, 0.5])),
        seed=draw(st.integers(0, 2**20)),
        branch_level=draw(st.booleans()),
    )
    return params, tree, embedder, options


@settings(max_examples=200, deadline=None)
@given(bundle_cases())
def test_bundle_equals_the_pass_that_repeats_everything(case):
    params, tree, embedder, options = case
    want = ref.bundle(params, tree, embedder, **options)
    assert bundle(params, tree, embedder, **options) == want
    # Again on the same tree object, whose decomposition is now kept.
    assert bundle(params, tree, embedder, **options) == want


@settings(max_examples=200, deadline=None)
@given(bundle_cases())
def test_pass_blocks_equal_the_branch_at_a_time_reference(case):
    """One result per pass: each block is the reference's branch rows stacked, byte for byte."""
    params, tree, embedder, options = case
    rate, seed = options["dropout_rate"], options["seed"]
    rng, ref_rng = make_rng(seed), make_rng(seed)
    got = tree_branch_outputs(params, tree, embedder, rate, rng)
    want = ref.tree_branch_outputs(params, tree, embedder, rate, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert type(got) is PassOutput and "variance" not in vars(got)  # not worked out until read
    for name in FIELDS:
        block, expected = getattr(got, name), getattr(want, name)
        assert block.dtype == expected.dtype and block.shape == expected.shape, name
        assert block.tobytes() == expected.tobytes(), name
    assert got.variance is got.variance
    assert aleatoric_score(params, tree, embedder) == ref.aleatoric_score(params, tree, embedder)

    # Reading the variance draws nothing.
    unread, read = make_rng(seed), make_rng(seed)
    tree_branch_outputs(params, tree, embedder, rate, unread)
    assert tree_branch_outputs(params, tree, embedder, rate, read).variance.shape == got.var_pre.shape
    assert unread.bit_generator.state == read.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64), stream=st.lists(st.integers(0, 2**64), min_size=1, max_size=3))
def test_child_rng_is_default_rng_of_the_key(seed, stream):
    got = child_rng(seed, *stream)
    want = np.random.default_rng([seed, *stream])
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(3).tobytes() == want.random(3).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    hidden=st.integers(1, 8),
    n_relu=st.integers(0, 2),
    rate=st.sampled_from([0.0, 0.2, 0.5]),
    n_samples=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pass_by_pass_masks_are_one_block_draw(lengths, hidden, n_relu, rate, n_samples, seed):
    """S passes drawing in turn from one generator take the S slices of one ``random((S, end, H))`` block."""
    passes, block = make_rng(seed), make_rng(seed)
    got = [nn.branch_masks(lengths, hidden, n_relu, rate, passes) for _ in range(n_samples)]
    if rate == 0.0:
        assert got == [None] * n_samples
    else:
        rows, end = nn._mask_rows(tuple(lengths), n_relu)
        want = (block.random((n_samples, end, hidden))[:, rows] >= rate) / (1.0 - rate)
        assert np.stack(got).tobytes() == want.reshape(n_samples, len(lengths), n_relu + 1, hidden).tobytes()
    assert passes.bit_generator.state == block.bit_generator.state
    assert passes.random() == block.random()


@pytest.mark.parametrize("key", [(-1,), (5, -1), (2**40, 3, -7)])
def test_child_rng_refuses_negative_words(key):
    with pytest.raises(ConfigError, match="nonnegative"):
        child_rng(*key)


def _tree():
    """Five tweets, three branches of lengths 3, 3 and 2."""
    parents = [None, 0, 0, 1, 1]
    tweets = tuple(
        Tweet(id=f"t.{i}", parent_id=None if p is None else f"t.{p}", timestamp=i, text=text)
        for i, (text, p) in enumerate(zip(["r", "a", "b", "c", "d"], parents))
    )
    return ConversationTree(tree_id="t", event="e", label="true", tweets=tweets)


def test_branch_list_is_a_fresh_copy_of_frozen_branches():
    tree = _tree()
    first = decompose_branches(tree)
    assert first == ref.decompose_branches(tree)
    first.append(first[0])
    first.reverse()
    assert decompose_branches(tree) == ref.decompose_branches(tree)
    with pytest.raises(dataclasses.FrozenInstanceError):
        decompose_branches(tree)[0].tweets = ()
    # The tree keeps one decomposition: every call hands out the same branches.
    assert all(a is b for a, b in zip(decompose_branches(tree), decompose_branches(tree)))


def test_kept_decomposition_does_not_change_tree_equality_or_hash():
    tree, twin = _tree(), _tree()
    decompose_branches(tree)
    assert tree == twin and hash(tree) == hash(twin)
    assert dataclasses.replace(tree).tweets == tree.tweets


def test_shape_caches_hand_out_read_only_arrays():
    plan = nn._lockstep_plan((3, 1, 2))
    _, order, steps = plan
    rows, end = nn._mask_rows((3, 1, 2), 1)
    for array in (order, rows, model_module._last_rows((3, 1, 2))):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 99
    assert isinstance(plan, tuple) and isinstance(steps, tuple)
    assert nn._lockstep_plan((3, 1, 2)) is plan
    # One sequence runs in input order: no row order to keep.
    assert nn._lockstep_plan((4,))[1] is None
    assert end == 3 + 1 + 2 + 3 * 1


def test_writing_into_a_pass_result_does_not_change_the_next_pass():
    params = init_params(6, 4, 1, 3, seed=2)
    tree, embedder = _tree(), HashingEmbedder(dimension=6, seed=1)
    first = tree_branch_outputs(params, tree, embedder, 0.3, make_rng(4))
    expected = {name: getattr(first, name).copy() for name in FIELDS}
    for name in FIELDS:
        getattr(first, name)[:] = -1.0 if name == "probs" else np.nan
    masks = nn.branch_masks((3, 3, 2), 4, 1, 0.3, make_rng(4))
    masks[:] = 7.0
    again = tree_branch_outputs(params, tree, embedder, 0.3, make_rng(4))
    assert {name: getattr(again, name).tobytes() for name in FIELDS} == {
        name: block.tobytes() for name, block in expected.items()
    }
    assert not (nn.branch_masks((3, 3, 2), 4, 1, 0.3, make_rng(4)) == 7.0).any()


@pytest.mark.parametrize(
    "cached, args",
    [
        (nn._lockstep_plan, lambda i: (((i % 7) + 1, i + 1),)),
        (nn._mask_rows, lambda i: ((i + 1,), 2)),
        (model_module._last_rows, lambda i: ((i + 1, 2),)),
    ],
)
def test_caches_stay_bounded(cached, args):
    limit = cached.cache_info().maxsize
    assert limit is not None
    for i in range(limit + 50):
        cached(*args(i))
    assert cached.cache_info().currsize <= limit
