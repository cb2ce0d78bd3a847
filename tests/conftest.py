"""Shared test helpers: finite differences, record factories and random trees."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from veritas import ConversationTree, Tweet, UncertaintyBundle, make_record

WORDS = ("sun", "rain", "fog", "bright", "cold", "maybe", "http://x.y", "@who", "denied", "confirmed")


def numeric_grad(f, arrays: dict[str, np.ndarray], name: str, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of scalar f(arrays) w.r.t. arrays[name].

    Perturbs in place and restores, so f must rebuild its forward pass from
    the dict on every call.
    """
    base = arrays[name]
    grad = np.zeros_like(base)
    flat = base.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = f(arrays)
        flat[i] = orig - step
        f_minus = f(arrays)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-4) -> float:
    """Max absolute difference over the max magnitude (floored)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    scale = max(floor, float(np.abs(a).max(initial=0.0)), float(np.abs(n).max(initial=0.0)))
    return float(np.abs(a - n).max(initial=0.0)) / scale


def bundle_with(**overrides) -> UncertaintyBundle:
    """An UncertaintyBundle with benign defaults, selected fields overridden.

    The two prediction fields are derived from each other when only one is
    given: ``mean_probs`` is one-hot on ``predicted_class`` over three
    classes, and ``predicted_class`` is the argmax of ``mean_probs``.
    """
    fields = dict(
        variation_ratio=0.0,
        entropy=0.0,
        variance=0.0,
        aleatoric=0.0,
        softmax_lcs=1.0,
        softmax_margin=1.0,
        softmax_ratio=0.0,
        softmax_entropy=0.0,
    )
    fields.update(overrides)
    if "mean_probs" not in fields:
        fields["mean_probs"] = tuple(float(k == fields.get("predicted_class", 0)) for k in range(3))
    if "predicted_class" not in fields:
        fields["predicted_class"] = int(np.argmax(fields["mean_probs"]))
    return UncertaintyBundle(**fields)


def record_with(tree_id: str, gold: str = "true", pred: str = "true", fold: int = 0, **overrides):
    return make_record(tree_id, gold, pred, bundle_with(**overrides), fold)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@st.composite
def conversation_trees(draw, tree_id: str = "t", label: str = "true", max_tweets: int = 12):
    """A tree of 1 to ``max_tweets`` tweets; each reply's parent is a random earlier tweet.

    Timestamps follow the tweet order, so every parent precedes its replies.
    """
    n = draw(st.integers(1, max_tweets))
    tweets = []
    for i in range(n):
        parent = None if i == 0 else f"{tree_id}.{draw(st.integers(0, i - 1))}"
        text = " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4)))
        tweets.append(Tweet(id=f"{tree_id}.{i}", parent_id=parent, timestamp=i, text=text))
    return ConversationTree(tree_id=tree_id, event="e", label=label, tweets=tuple(tweets))
