"""The rejection stage's fast paths against the loops they replaced.

``rejection_reference`` keeps the slow versions. Every property here asks
for exact agreement: the same records in the same order, the same error
message, float-for-float equal reports, byte-equal forests, byte-equal
forest scores and feature matrices, and equal records read from a CSV.
"""

import csv
import io
import json
from unittest import mock

import numpy as np
import pytest
from conftest import bundle_with
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rejection_reference as ref
from veritas import make_record, read_records_csv, write_records_csv
from veritas.errors import ConfigError, DataError
from veritas.metrics import evaluate
from veritas import rejection
from veritas.rejection import (
    ForestHyperparams,
    HingeHyperparams,
    _feature_matrix,
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
    # a fraction near 0 removes every record of every group
    fraction = st.one_of(st.floats(0.001, 0.999), st.sampled_from([1e-9, 0.999999]))
    rest = draw(st.lists(fraction, max_size=8, unique=True))
    return (1.0, *sorted(rest, reverse=True))


def ids(records):
    return [id(r) for r in records]


def curve_cells(curve):
    return [(p.retain_fraction, p.n_remaining, repr(p.accuracy), repr(p.macro_f), p.defined) for p in curve.points]


def curve_outcome(curve_fn, *args, **kwargs):
    try:
        curve = curve_fn(*args, **kwargs)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)
    return curve.measure, curve_cells(curve)


# Every class, then sets that miss a label the records use, hold a class
# no record uses, or are empty.
CURVE_CLASSES = st.sampled_from([CLASSES, CLASSES[:2], CLASSES + ("rumour",), ()])


@settings(max_examples=400, deadline=None)
@given(record_lists(), st.sampled_from(MEASURES), decreasing_fractions(), st.booleans(), CURVE_CLASSES)
@example([], "entropy", (1.0, 0.5), True, CLASSES)
@example([], "entropy", (1.0, 0.5), False, ())
def test_curve_matches_per_fraction_resort(records, measure, fractions, per_fold, classes):
    fast = curve_outcome(rejection_curve, records, measure, classes, fractions, per_fold=per_fold)
    assert fast == curve_outcome(ref.rejection_curve, records, measure, classes, fractions, per_fold=per_fold)


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
    # a repeated class counts once but still divides macro-F
    class_sets = [CLASSES, CLASSES[:2], ("false",), CLASSES + ("rumour",), ("true", "false", "true"), ()]
    classes = draw(st.sampled_from(class_sets))
    # evaluate takes any iterable, so one that can be read only once too
    return items, classes, draw(st.booleans())


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(evaluate_inputs())
def test_evaluate_matches_three_pass_reference(case):
    items, classes, once = case
    assert outcome(evaluate, iter(items) if once else items, classes) == outcome(ref.evaluate, items, classes)


def test_evaluate_reports_first_bad_label_in_input_order():
    items = [("true", "true"), ("true", "x"), ("y", "true"), ("true", "x")]
    assert outcome(evaluate, items, CLASSES) == (DataError, f"predicted label 'x' not in class set {CLASSES}")


@st.composite
def forest_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n, d = draw(st.integers(2, 60)), draw(st.integers(1, 6))
    # values on a coarse grid, so that ties and x == threshold both occur
    X = rng.integers(0, 5, size=(n, d)) / 4.0
    # one class only, or max_depth 0, gives single-leaf trees
    y01 = (rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))).astype(float)
    hp = {"n_trees": draw(st.integers(1, 20)), "max_depth": draw(st.integers(0, 6)), "bootstrap_fraction": 1.0}
    unseen = rng.integers(0, 9, size=(draw(st.integers(1, 30)), d)) / 8.0
    special = SPECIAL[rng.integers(0, len(SPECIAL), size=(draw(st.integers(0, 10)), d))]
    return X, y01, hp, draw(st.integers(0, 100)), np.concatenate([X, unseen, special])


@settings(max_examples=100, deadline=None)
@given(forest_cases())
def test_forest_scores_byte_equal_to_per_record_walk(case):
    X, y01, hp, seed, X_test = case
    state = _fit_forest(X, y01, ForestHyperparams(**hp), seed)
    assert _forest_scores(state, X_test).tobytes() == ref.forest_scores(state, X_test).tobytes()


BIG = float(np.finfo(float).max)
# values that stress the split search: ties, 0.0 against -0.0, adjacent
# doubles, a pair whose midpoint overflows, subnormals, NaN and infinities
SPECIAL = np.array(
    [0.0, -0.0, 0.3, float(np.nextafter(0.3, 1.0)), 1.0, -1.0, BIG, float(np.nextafter(BIG, 0.0)), -BIG,
     5e-324, -5e-324, np.nan, np.inf, -np.inf]
)


def feature_matrix(draw, rng, n, d):
    kind = draw(st.sampled_from(["grid", "special", "normal"]))
    if kind == "grid":
        X = rng.integers(0, 5, size=(n, d)) / 4.0
    elif kind == "special":
        X = SPECIAL[rng.integers(0, len(SPECIAL), size=(n, d))]
    else:
        X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X[:, rng.integers(d)] = X[0, 0]  # a constant column, NaN included
    return X


@st.composite
def grow_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # up to 12 features, the meta-feature width 4 + 2C for the CLI's largest class count C = 4
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 12))
    X = feature_matrix(draw, rng, n, d)
    y01 = (rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))).astype(float)
    hp = {
        "n_trees": draw(st.integers(1, 30)),
        "max_depth": draw(st.integers(0, 9)),
        "bootstrap_fraction": draw(st.floats(0.2, 3.0)),
    }
    # a small row cap splits even these steps into several batches, and a
    # small draw block makes trees refill their feature draws often
    cap = draw(st.sampled_from([1, 50, rejection._SPLIT_ROWS]))
    return X, y01, hp, draw(st.integers(0, 10**6)), cap, draw(st.sampled_from([1, 3, rejection._DRAW_BLOCK]))


@settings(max_examples=300, deadline=None)
@given(grow_cases())
def test_lockstep_forest_byte_equal_to_one_tree_at_a_time(case):
    X, y01, hp, seed, cap, block = case
    with mock.patch.object(rejection, "_SPLIT_ROWS", cap), mock.patch.object(rejection, "_DRAW_BLOCK", block):
        fast = _fit_forest(X, y01, ForestHyperparams(**hp), seed)
    assert json.dumps(fast) == json.dumps(ref.fit_forest(X, y01, hp, seed))


@st.composite
def draw_cases(draw):
    d = draw(st.integers(1, 64))
    k = draw(st.one_of(st.just(d), st.integers(1, d)))  # k = d: the first Floyd draw, in [0, 0], consumes nothing
    # an odd count of 32-bit draws before the block leaves half a 64-bit output buffered
    return d, k, draw(st.sampled_from([1, 3, 64])), draw(st.integers(0, 5)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(draw_cases())
@example((1, 1, 1, 1, 0))
@example((64, 64, 3, 1, 7))
def test_feature_draws_equal_successive_choice_calls(case):
    d, k, count, n_before, seed = case
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (fast, slow):
        rng.integers(0, 7, size=n_before)  # like a bootstrap draw, 32 bits per value
    block = rejection._feature_draws(fast, d, k, count)
    calls = np.stack([np.sort(slow.choice(d, size=k, replace=False)) for _ in range(count)])
    assert block.dtype == calls.dtype and block.tobytes() == calls.tobytes()
    # the generators are at the same place afterwards, buffered half included
    assert fast.integers(0, 7, size=3).tolist() == slow.integers(0, 7, size=3).tolist()
    assert fast.integers(0, 2**63) == slow.integers(0, 2**63)


@st.composite
def capped_cases(draw):
    """Inputs whose first step holds more rows than the module's row cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        n, n_trees, fraction = 1400, draw(st.integers(1, 2)), 3.0  # one root above the cap
    else:
        n, n_trees, fraction = 300, draw(st.integers(15, 30)), draw(st.floats(1.0, 3.0))
    X = feature_matrix(draw, rng, n, draw(st.integers(1, 10)))
    y01 = (rng.random(n) < 0.6).astype(float)
    hp = {"n_trees": n_trees, "max_depth": draw(st.integers(0, 9)), "bootstrap_fraction": fraction}
    return X, y01, hp, draw(st.integers(0, 10**6))


@settings(max_examples=8, deadline=None)
@given(capped_cases())
def test_lockstep_forest_byte_equal_across_the_row_cap(case):
    X, y01, hp, seed = case
    n_boot = round(hp["bootstrap_fraction"] * len(y01))
    assert hp["n_trees"] * n_boot > rejection._SPLIT_ROWS
    assert json.dumps(_fit_forest(X, y01, ForestHyperparams(**hp), seed)) == json.dumps(ref.fit_forest(X, y01, hp, seed))


@st.composite
def hinge_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    # up to about three blocks, so that cases cross block boundaries and end on a short block
    n, d = draw(st.integers(2, 200)), draw(st.integers(1, 24))
    if draw(st.booleans()):
        X = rng.normal(size=(n, d))
    else:
        # each column holds as many 1s as -1s, so it z-scores to itself and,
        # with l2 0 and learning rate 1, margins of exactly 1 are common
        n += n % 2
        X = rng.permuted(np.tile(np.repeat([-1.0, 1.0], n // 2)[:, None], (1, d)), axis=0)
    if draw(st.booleans()):
        X[:, 0] = 1.0  # a constant column gets std 1
    y01 = (rng.random(n) < 0.5).astype(float)
    hp = {
        "l2": draw(st.sampled_from([0.0, 1e-3, 0.1])),
        "epochs": draw(st.integers(1, 5)),
        "learning_rate": draw(st.sampled_from([0.05, 0.3, 1.0])),
    }
    return X, y01, hp, draw(st.integers(0, 100))


# a learning rate this large drives the fit to NaN within three epochs
DIVERGING_HINGE = (
    np.random.default_rng(0).normal(size=(100, 5)),
    np.tile([0.0, 1.0], 50),
    {"l2": 1e-3, "epochs": 3, "learning_rate": 1e100},
    0,
)


@settings(max_examples=100, deadline=None)
@given(hinge_cases())
@example(DIVERGING_HINGE)
def test_hinge_state_equals_reference(case):
    X, y01, hp, seed = case
    # json, so that a fit that diverges to NaN compares equal
    fast = _fit_linear_hinge(X, y01, HingeHyperparams(**hp), seed)
    assert json.dumps(fast) == json.dumps(ref.fit_linear_hinge(X, y01, hp, seed))


@st.composite
def bundles(draw, k):
    """A valid bundle over k classes; values include -0.0, subnormals and huge numbers."""
    value = st.sampled_from([0.0, -0.0, 0.25, 1.0, 5e-324, 1e-300, 1e300, -2.5, 0.1 + 0.2])
    fields = {m.field: draw(value) for m in MEASURE_TABLE}
    fields["variation_ratio"] = draw(st.sampled_from([0.0, 0.1 + 0.2, 1.0]))
    if draw(st.booleans()):
        probs = tuple([1.0 / k] * k)  # a tie: the lowest index is the argmax
    else:
        weights = [draw(st.integers(1, 9)) for _ in range(k)]
        probs = tuple(w / sum(weights) for w in weights)
    fields["mean_probs"] = probs
    fields["predicted_class"] = max(range(k), key=probs.__getitem__)
    return bundle_with(**fields)


TEXT = st.sampled_from(["t", "true", "a,b", 'say "x"', "ü", " pad "])


@st.composite
def same_class_records(draw):
    k = draw(st.integers(2, 4))
    return [
        make_record(draw(TEXT), draw(TEXT), draw(TEXT), draw(bundles(k)), draw(st.integers(-3, 10)))
        for _ in range(draw(st.integers(1, 12)))
    ]


@settings(max_examples=200, deadline=None)
@given(same_class_records())
def test_feature_matrix_byte_equal_to_stacked_rows(records):
    fast = _feature_matrix(records)
    slow = np.stack([ref.meta_features(r) for r in records])
    assert fast.dtype == slow.dtype and fast.shape == slow.shape
    assert fast.tobytes() == slow.tobytes()


# cells that are no finite number, or that the bundle refuses
BAD_CELLS = st.sampled_from(["x", "", "inf", "-inf", "nan", "1e999", "0x1", "-0.5", "2.0"])


@settings(max_examples=200, deadline=None)
@given(same_class_records(), st.booleans(), BAD_CELLS, st.data())
def test_records_reader_matches_per_cell_reader(tmp_path_factory, records, corrupt, bad, data):
    path = tmp_path_factory.mktemp("records") / "records.csv"
    write_records_csv(records, path)
    if corrupt:
        rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
        # a second bad cell, when drawn, checks that the first one is named
        for _ in range(data.draw(st.integers(1, 2))):
            row = data.draw(st.integers(1, len(rows) - 1))
            rows[row][data.draw(st.integers(3, len(rows[0]) - 2))] = bad
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        path.write_text(buf.getvalue(), encoding="utf-8")
    fast = outcome(read_records_csv, path)
    assert fast == outcome(ref.read_records_csv, path)
    if not corrupt:
        assert fast == records
    elif bad not in ("-0.5", "2.0"):
        assert fast[0] is DataError and "is not a finite number" in fast[1]
