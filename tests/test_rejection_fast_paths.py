"""The rejection stage's fast paths against the loops they replaced.

``rejection_reference`` keeps the slow versions. Every property here asks
for exact agreement: the same records in the same order, the same error
message, float-for-float equal reports and byte-equal forest scores.
"""

import numpy as np
import pytest
from conftest import bundle_with
from hypothesis import given, settings
from hypothesis import strategies as st

import rejection_reference as ref
from veritas import make_record
from veritas.errors import ConfigError, DataError
from veritas.metrics import evaluate
from veritas.rejection import (
    _fit_forest,
    _fit_linear_hinge,
    _forest_scores,
    per_fold_reject,
    random_reject,
    rejection_curve,
    unsupervised_reject,
)
from veritas.uncertainty import MEASURE_TABLE, MEASURES

CLASSES = ("true", "false", "unverified")
# Few distinct values and ids, so ties in the ranking key are common.
VALUES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0])


@st.composite
def record_lists(draw, max_size=30):
    n_folds = draw(st.integers(1, 6))
    n = draw(st.integers(0, max_size))
    records = []
    for _ in range(n):
        fields = {m.field: draw(VALUES) for m in MEASURE_TABLE}
        records.append(
            make_record(
                draw(st.sampled_from(["a", "b", "c", "d", "e"])),
                draw(st.sampled_from(CLASSES)),
                draw(st.sampled_from(CLASSES)),
                bundle_with(**fields),
                draw(st.integers(0, n_folds - 1)),
            )
        )
    return records


@st.composite
def decreasing_fractions(draw):
    rest = draw(st.lists(st.floats(0.001, 0.999), max_size=8, unique=True))
    return (1.0, *sorted(rest, reverse=True))


def ids(records):
    return [id(r) for r in records]


def curve_cells(curve):
    return [(p.retain_fraction, p.n_remaining, repr(p.accuracy), repr(p.macro_f), p.defined) for p in curve.points]


@settings(max_examples=300, deadline=None)
@given(record_lists(), st.sampled_from(MEASURES), decreasing_fractions(), st.booleans())
def test_curve_matches_per_fraction_resort(records, measure, fractions, per_fold):
    fast = rejection_curve(records, measure, CLASSES, fractions, per_fold=per_fold)
    slow = ref.rejection_curve(records, measure, CLASSES, fractions, per_fold=per_fold)
    assert fast.measure == slow.measure
    assert curve_cells(fast) == curve_cells(slow)


@settings(max_examples=300, deadline=None)
@given(record_lists(), st.sampled_from(MEASURES), st.floats(0.001, 1.0))
def test_cuts_match_reference(records, measure, fraction):
    for fast_cut, slow_cut in ((unsupervised_reject, ref.unsupervised_reject), (per_fold_reject, ref.per_fold_reject)):
        fast = fast_cut(records, measure, fraction)
        slow = slow_cut(records, measure, fraction)
        assert [ids(part) for part in fast] == [ids(part) for part in slow]


@settings(max_examples=100, deadline=None)
@given(record_lists(), st.floats(0.001, 1.0), st.integers(0, 2**31))
def test_random_reject_matches_reference(records, fraction, seed):
    fast = random_reject(records, fraction, seed=seed)
    slow = ref.random_reject(records, fraction, seed=seed)
    assert [ids(part) for part in fast] == [ids(part) for part in slow]


def test_cut_errors_match_reference():
    records = [make_record("a", "true", "true", bundle_with(), 0)]
    for recs in (records, []):
        for args in ((recs, "entropy", 0.0), (recs, "banana", 0.5), (recs, "banana", 1.5)):
            for fast_cut, slow_cut in ((unsupervised_reject, ref.unsupervised_reject), (per_fold_reject, ref.per_fold_reject)):
                with pytest.raises(ConfigError) as fast:
                    fast_cut(*args)
                with pytest.raises(ConfigError) as slow:
                    slow_cut(*args)
                assert str(fast.value) == str(slow.value)


LABELS = st.sampled_from(CLASSES + ("rumour", ""))


@st.composite
def evaluate_inputs(draw):
    items = []
    for _ in range(draw(st.integers(0, 40))):
        gold, pred = draw(LABELS), draw(LABELS)
        if draw(st.booleans()):
            items.append((gold, pred))
        else:
            items.append(make_record("t", gold, pred, bundle_with(), 0))
    classes = draw(st.sampled_from([CLASSES, CLASSES[:2], ("false",), CLASSES + ("rumour",)]))
    return items, classes


def outcome(fn, items, classes):
    try:
        return fn(items, classes)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(evaluate_inputs())
def test_evaluate_matches_three_pass_reference(case):
    items, classes = case
    assert outcome(evaluate, items, classes) == outcome(ref.evaluate, items, classes)


def test_evaluate_reports_first_bad_label_in_input_order():
    items = [("true", "true"), ("true", "x"), ("y", "true"), ("true", "x")]
    assert outcome(evaluate, items, CLASSES) == (DataError, f"predicted label 'x' not in class set {CLASSES}")


@st.composite
def forest_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n, d = draw(st.integers(2, 60)), draw(st.integers(1, 6))
    # values on a coarse grid, so that ties and x == threshold both occur
    X = rng.integers(0, 5, size=(n, d)) / 4.0
    y01 = (rng.random(n) < 0.5).astype(float)
    hp = {"n_trees": draw(st.integers(1, 20)), "max_depth": draw(st.integers(1, 6)), "bootstrap_fraction": 1.0}
    X_test = np.concatenate([X, rng.integers(0, 9, size=(draw(st.integers(1, 30)), d)) / 8.0])
    return X, y01, hp, draw(st.integers(0, 100)), X_test


@settings(max_examples=100, deadline=None)
@given(forest_cases())
def test_forest_scores_byte_equal_to_per_record_walk(case):
    X, y01, hp, seed, X_test = case
    state = _fit_forest(X, y01, hp, seed)
    assert _forest_scores(state, X_test).tobytes() == ref.forest_scores(state, X_test).tobytes()


@st.composite
def hinge_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n, d = draw(st.integers(2, 60)), draw(st.integers(1, 24))
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X[:, 0] = 1.0  # a constant column gets std 1
    y01 = (rng.random(n) < 0.5).astype(float)
    hp = {
        "l2": draw(st.sampled_from([0.0, 1e-3, 0.1])),
        "epochs": draw(st.integers(1, 5)),
        "learning_rate": draw(st.sampled_from([0.05, 0.3, 1.0])),
    }
    return X, y01, hp, draw(st.integers(0, 100))


@settings(max_examples=100, deadline=None)
@given(hinge_cases())
def test_hinge_state_equals_reference(case):
    X, y01, hp, seed = case
    assert _fit_linear_hinge(X, y01, hp, seed) == ref.fit_linear_hinge(X, y01, hp, seed)
