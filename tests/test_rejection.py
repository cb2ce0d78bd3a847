"""Rejection strategies: quantile cuts, random baseline, meta-classifier."""

import functools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import bundle_with, record_with
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veritas import (
    MetaClassifier,
    make_record,
    per_fold_reject,
    random_reject,
    rejection_curve,
    supervised_reject,
    train_meta,
    unsupervised_reject,
)
from veritas.errors import ConfigError, DataError, DataWarning, InvalidInput, make_rng
from veritas.rejection import (
    DEFAULT_FRACTIONS,
    ForestHyperparams,
    _feature_matrix,
    _fit_forest,
    _forest_scores,
    _grow_trees,
    curve_to_csv,
)
from veritas.uncertainty import uncertainty_value


def records_with_uncertainty(values, correct=None, fold=0, measure="entropy"):
    """One record per value; record i is correct unless told otherwise."""
    out = []
    for i, v in enumerate(values):
        ok = True if correct is None else bool(correct[i])
        out.append(
            record_with(
                f"t{i:03d}",
                gold="true",
                pred="true" if ok else "false",
                fold=fold,
                **{{"entropy": "entropy", "variation_ratio": "variation_ratio"}[measure]: v},
            )
        )
    return out


class TestPredictionRecord:
    def test_make_record_derives_correct(self):
        r = make_record("x", "true", "true", bundle_with(), 2)
        assert r.correct and r.fold == 2


# ---------------------------------------------------------------------------
# unsupervised


class TestUnsupervisedReject:
    def test_fraction_one_removes_nothing(self):
        recs = records_with_uncertainty([0.1, 0.2, 0.3])
        retained, removed = unsupervised_reject(recs, "entropy", 1.0)
        assert retained == recs and removed == []

    def test_top_one_cut(self):
        recs = records_with_uncertainty([0.9, 0.1, 0.5])
        retained, removed = unsupervised_reject(recs, "entropy", 2 / 3)
        assert [r.bundle.entropy for r in removed] == [0.9]
        assert [r.bundle.entropy for r in retained] == [0.1, 0.5]

    def test_confidence_measures_cut_low_confidence_first(self):
        recs = [
            record_with("a", softmax_lcs=0.9),
            record_with("b", softmax_lcs=0.2),
            record_with("c", softmax_lcs=0.6),
        ]
        retained, removed = unsupervised_reject(recs, "lcs", 2 / 3)
        assert [r.tree_id for r in removed] == ["b"]

    def test_matches_sort_and_slice_oracle(self, rng):
        values = rng.random(100)
        recs = records_with_uncertainty(values)
        for f in (0.9, 0.75, 0.5, 0.25, 0.01):
            retained, removed = unsupervised_reject(recs, "entropy", f)
            n_remove = 100 - math.floor(Fraction(repr(f)) * 100)
            order = sorted(recs, key=lambda r: (-uncertainty_value(r.bundle, "entropy"), r.tree_id))
            expect_removed = set(r.tree_id for r in order[:n_remove])
            assert {r.tree_id for r in removed} == expect_removed
            assert len(retained) == 100 - n_remove
            # retained keeps the input order
            assert [r.tree_id for r in retained] == [
                r.tree_id for r in recs if r.tree_id not in expect_removed
            ]

    def test_partition_invariant(self, rng):
        recs = records_with_uncertainty(rng.random(31))
        retained, removed = unsupervised_reject(recs, "entropy", 0.69)
        assert len(retained) + len(removed) == 31
        assert {r.tree_id for r in retained}.isdisjoint(r.tree_id for r in removed)

    def test_tie_break_on_tree_id(self):
        recs = records_with_uncertainty([0.5, 0.5, 0.5])
        _, removed = unsupervised_reject(recs, "entropy", 2 / 3)
        assert [r.tree_id for r in removed] == ["t000"]

    def test_errors(self):
        recs = records_with_uncertainty([0.5])
        with pytest.raises(ConfigError):
            unsupervised_reject(recs, "entropy", 0.0)
        with pytest.raises(ConfigError):
            unsupervised_reject(recs, "banana", 0.5)

    def test_empty_input(self):
        assert unsupervised_reject([], "entropy", 0.5) == ([], [])

    @pytest.mark.parametrize("cut", [unsupervised_reject, per_fold_reject, random_reject])
    @pytest.mark.parametrize("bad", [True, np.True_, math.nan, "0.5"])
    def test_fraction_must_be_a_finite_number(self, cut, bad):
        recs = records_with_uncertainty([0.1, 0.2, 0.3])
        args = (recs, bad) if cut is random_reject else (recs, "entropy", bad)
        with pytest.raises(ConfigError, match=f"retain_fraction must be a finite number, got {bad!r}"):
            cut(*args)

    @pytest.mark.parametrize("bad", [2.5, 3.0, np.int64(3)])
    def test_fraction_above_one_refused(self, bad):
        with pytest.raises(ConfigError, match=rf"retain_fraction must be in \(0, 1\], got {bad}$"):
            unsupervised_reject(records_with_uncertainty([0.1]), "entropy", bad)

    @pytest.mark.parametrize("cut", [unsupervised_reject, per_fold_reject])
    def test_empty_input_still_checks_measure_and_fraction(self, cut):
        with pytest.raises(ConfigError, match="unknown measure 'banana'"):
            cut([], "banana", 0.5)
        with pytest.raises(ConfigError, match="retain_fraction must be in"):
            cut([], "entropy", 1.5)


class TestRandomReject:
    def test_fraction_one_keeps_all(self):
        recs = records_with_uncertainty([0.1, 0.2])
        retained, removed = random_reject(recs, 1.0, seed=0)
        assert retained == recs and removed == []

    def test_seed_determinism(self):
        recs = records_with_uncertainty(np.linspace(0, 1, 20))
        a, _ = random_reject(recs, 0.5, seed=3)
        b, _ = random_reject(recs, 0.5, seed=3)
        c, _ = random_reject(recs, 0.5, seed=4)
        assert [r.tree_id for r in a] == [r.tree_id for r in b]
        assert [r.tree_id for r in a] != [r.tree_id for r in c]

    def test_keeps_floor_of_fraction(self):
        recs = records_with_uncertainty(np.linspace(0, 1, 7))
        retained, removed = random_reject(recs, 0.5, seed=1)
        assert len(retained) == 3 and len(removed) == 4

    def test_mean_accuracy_unbiased_over_seeds(self, rng):
        # balanced synthetic records: 60% correct overall
        correct = [i % 5 != 0 and i % 3 != 0 for i in range(60)]
        recs = records_with_uncertainty(rng.random(60), correct=correct)
        full = sum(r.correct for r in recs) / len(recs)
        accs = []
        for seed in range(1000):
            kept, _ = random_reject(recs, 0.5, seed=seed)
            accs.append(sum(r.correct for r in kept) / len(kept))
        assert abs(np.mean(accs) - full) < 0.02


class TestPerFoldReject:
    def test_single_fold_matches_unsupervised(self, rng):
        recs = records_with_uncertainty(rng.random(12), fold=0)
        a = per_fold_reject(recs, "entropy", 0.5)
        b = unsupervised_reject(recs, "entropy", 0.5)
        assert [r.tree_id for r in a[0]] == [r.tree_id for r in b[0]]

    def test_disjoint_ranges_cut_both_folds(self):
        low = records_with_uncertainty([0.1, 0.2, 0.3, 0.4], fold=0)
        high = [
            record_with(f"h{i}", fold=1, entropy=v)
            for i, v in enumerate([1.1, 1.2, 1.3, 1.4])
        ]
        recs = low + high
        pooled_retained, pooled_removed = unsupervised_reject(recs, "entropy", 0.5)
        fold_retained, fold_removed = per_fold_reject(recs, "entropy", 0.5)
        assert {r.fold for r in pooled_removed} == {1}
        assert {r.fold for r in fold_removed} == {0, 1}
        assert len(fold_removed) == 4

    def test_matches_per_fold_oracle(self, rng):
        recs = []
        for fold in range(3):
            for i in range(10):
                recs.append(record_with(f"f{fold}t{i}", fold=fold, entropy=float(rng.random())))
        retained, removed = per_fold_reject(recs, "entropy", 0.7)
        expect_removed = set()
        for fold in range(3):
            fr = [r for r in recs if r.fold == fold]
            _, rem = unsupervised_reject(fr, "entropy", 0.7)
            expect_removed |= {r.tree_id for r in rem}
        assert {r.tree_id for r in removed} == expect_removed


# every k/100, largest first, as one curve's fractions
PERCENT_FRACTIONS = tuple(k / 100 for k in range(100, 0, -1))


@functools.cache
def distinct_bundles(n=3000):
    """n bundles whose entropies all differ."""
    return [bundle_with(entropy=(i * 7919 % n) / n) for i in range(n)]


def exact_kept(fraction, n):
    """floor of the exact decimal product of the fraction and n."""
    return math.floor(Fraction(repr(fraction)) * n)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3000),
    st.integers(1, 7),
    st.sampled_from(DEFAULT_FRACTIONS + PERCENT_FRACTIONS),
    st.integers(0, 2**31),
)
@example(100, 1, 0.95, 0)  # 1 - 0.95 rounds up: a cut of ceil((1-f)*n) keeps 94
@example(90, 1, 0.7, 0)  # 0.7 * 90 rounds down: floor(f*n) keeps 62
def test_every_cut_keeps_floor_of_the_decimal_product(n, n_folds, fraction, seed):
    records = [
        make_record(f"r{i:04d}", "true", "true" if i % 3 else "false", b, i % n_folds)
        for i, b in enumerate(distinct_bundles()[:n])
    ]
    sizes = [len(records[fold::n_folds]) for fold in range(n_folds)]
    kept = exact_kept(fraction, n)
    assert len(unsupervised_reject(records, "entropy", fraction)[0]) == kept
    assert len(random_reject(records, fraction, seed=seed)[0]) == kept
    retained = per_fold_reject(records, "entropy", fraction)[0]
    per_fold_kept = [sum(r.fold == fold for r in retained) for fold in range(n_folds)]
    assert per_fold_kept == [exact_kept(fraction, s) for s in sizes]
    for fractions in (DEFAULT_FRACTIONS, PERCENT_FRACTIONS):
        pooled = rejection_curve(records, "entropy", ("true", "false"), fractions)
        assert [p.n_remaining for p in pooled.points] == [exact_kept(f, n) for f in fractions]
        per_fold = rejection_curve(records, "entropy", ("true", "false"), fractions, per_fold=True)
        assert [p.n_remaining for p in per_fold.points] == [sum(exact_kept(f, s) for s in sizes) for f in fractions]


# ---------------------------------------------------------------------------
# curves


class TestRejectionCurve:
    def test_empty_records_still_check_measure(self):
        with pytest.raises(ConfigError, match="unknown measure 'banana'"):
            rejection_curve([], "banana", ("true", "false"))
        for per_fold in (False, True):
            curve = rejection_curve([], "entropy", ("true", "false"), (1.0, 0.5), per_fold=per_fold)
            assert [p.defined for p in curve.points] == [False, False]

    def test_all_correct_is_flat_one(self):
        recs = records_with_uncertainty([0.1, 0.5, 0.9], correct=[1, 1, 1])
        curve = rejection_curve(recs, "entropy", ("true", "false"), (1.0, 0.5))
        assert all(p.accuracy == 1.0 for p in curve.points)

    def test_perfect_ranking_reaches_one(self):
        correct = [True] * 8 + [False] * 4
        values = [0.0] * 8 + [1.0, 1.0, 1.0, 1.0]
        recs = records_with_uncertainty(values, correct=correct)
        curve = rejection_curve(
            recs, "entropy", ("true", "false"), (1.0, 0.9, 0.75, 8 / 12)
        )
        accs = [p.accuracy for p in curve.points]
        assert accs == sorted(accs)
        assert curve.points[-1].accuracy == 1.0

    def test_matches_independent_recomputation(self, rng):
        correct = rng.random(200) > 0.4
        noise = rng.normal(scale=0.05, size=200)
        values = np.clip((~correct) * 1.0 + noise, 0, None)
        recs = records_with_uncertainty(values, correct=correct)
        fractions = (1.0, 0.8, 0.6)
        curve = rejection_curve(recs, "entropy", ("true", "false"), fractions)
        for f, point in zip(fractions, curve.points):
            kept, _ = unsupervised_reject(recs, "entropy", f)
            assert point.n_remaining == len(kept)
            assert point.accuracy == pytest.approx(
                sum(r.correct for r in kept) / len(kept)
            )

    def test_empty_retained_set_flagged_not_raised(self):
        recs = records_with_uncertainty([0.5])
        curve = rejection_curve(recs, "entropy", ("true", "false"), (1.0, 0.01))
        last = curve.points[-1]
        assert last.n_remaining == 0 and not last.defined and math.isnan(last.accuracy)

    @pytest.mark.parametrize(
        "fractions, message",
        [
            ((True, 0.5), "fraction must be a finite number, got True"),
            ((1.0, "0.5"), "fraction must be a finite number, got '0.5'"),
            ((0.9, 0.5), "fractions must start at 1.0"),
            ((1.0, 0.5, 0.7), "fractions must be strictly decreasing"),
            ((1.0, 0.0), "fractions must lie in (0, 1]"),
        ],
        ids=repr,
    )
    def test_fraction_validation(self, fractions, message):
        recs = records_with_uncertainty([0.5] * 10)
        with pytest.raises(ConfigError) as info:
            rejection_curve(recs, "entropy", ("true", "false"), fractions)
        assert str(info.value) == message

    @pytest.mark.parametrize("fractions", [(np.float64(1.0), np.float64(0.5)), np.array([1.0, 0.5])], ids=repr)
    def test_numpy_fractions_give_the_float_curve(self, fractions):
        recs = records_with_uncertainty([0.5] * 10)
        curve = rejection_curve(recs, "entropy", ("true", "false"), fractions)
        assert curve_to_csv(curve) == curve_to_csv(rejection_curve(recs, "entropy", ("true", "false"), (1.0, 0.5)))

    def test_csv_shape(self):
        recs = records_with_uncertainty([0.2, 0.8], correct=[1, 0])
        curve = rejection_curve(recs, "entropy", ("true", "false"), (1.0, 0.5))
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "measure,retain_fraction,n_remaining,accuracy,macro_f"
        assert len(lines) == 3
        assert lines[1].startswith("entropy,1.0,2,")


# ---------------------------------------------------------------------------
# meta-classifier


def meta_training_records(n, rng, separation=3.0):
    """Records where high aleatoric means incorrect, low means correct."""
    recs = []
    for i in range(n):
        ok = bool(rng.random() < 0.5)
        aleatoric = float(rng.normal(loc=0.0 if ok else separation, scale=0.5))
        recs.append(
            record_with(
                f"m{i:04d}",
                gold="true",
                pred="true" if ok else "false",
                aleatoric=aleatoric,
                variance=float(rng.random() * 0.01),
            )
        )
    return recs


class TestTrainMeta:
    def test_all_correct_dev_warns_and_removes_nothing(self, rng):
        dev = records_with_uncertainty(rng.random(10), correct=[1] * 10)
        with pytest.warns(DataWarning, match="single-class"):
            meta = train_meta(dev, backend="linear_hinge")
        retained, removed, n_removed = supervised_reject(meta, dev)
        assert n_removed == 0 and removed == [] and len(retained) == 10

    def test_linear_hinge_separates_linear_features(self, rng):
        dev = meta_training_records(80, rng)
        meta = train_meta(dev, backend="linear_hinge", seed=0)
        scores = meta.scores(dev)
        preds = scores >= 0.5
        assert all(p == r.correct for p, r in zip(preds, dev))

    def test_forest_accuracy_on_informative_features(self, rng):
        dev = meta_training_records(500, rng, separation=2.0)
        meta = train_meta(dev, backend="random_forest", seed=1)
        preds = meta.scores(dev) >= 0.5
        acc = np.mean([p == r.correct for p, r in zip(preds, dev)])
        assert acc >= 0.9

    def test_unknown_backend_and_hyperparams(self, rng):
        dev = meta_training_records(10, rng)
        with pytest.raises(ConfigError, match="backend"):
            train_meta(dev, backend="svm")
        with pytest.raises(ConfigError, match="hyperparameter"):
            train_meta(dev, backend="linear_hinge", hyperparams={"kernel": "rbf"})
        for bad in ("many", None, float("nan"), True, 10**400):
            with pytest.raises(ConfigError) as exc:
                train_meta(dev, backend="linear_hinge", hyperparams={"epochs": bad})
            rule = "a finite number" if bad == 10**400 else "an integer"
            assert str(exc.value) == f"linear_hinge hyperparameter epochs must be {rule}, got {bad!r}"
        train_meta(dev, backend="linear_hinge", hyperparams={"epochs": np.int64(3), "l2": np.float32(0.01)})
        with pytest.raises(ConfigError):
            train_meta([], backend="linear_hinge")

    @pytest.mark.parametrize(
        "backend, key, bad, rule",
        [
            ("random_forest", "n_trees", 0, ">= 1"),
            ("random_forest", "n_trees", 2.7, "an integer"),
            ("random_forest", "max_depth", -1, ">= 0"),
            ("random_forest", "max_depth", 1.5, "an integer"),
            ("random_forest", "bootstrap_fraction", 0.0, "> 0"),
            ("linear_hinge", "epochs", -1, ">= 0"),
            ("linear_hinge", "epochs", 0.5, "an integer"),
            ("linear_hinge", "learning_rate", 0.0, "> 0"),
            ("linear_hinge", "l2", -1, ">= 0"),
        ],
    )
    def test_hyperparameter_out_of_range(self, rng, backend, key, bad, rule):
        dev = meta_training_records(10, rng)
        with pytest.raises(ConfigError) as exc:
            train_meta(dev, backend=backend, hyperparams={key: bad})
        assert str(exc.value) == f"{backend} hyperparameter {key} must be {rule}, got {bad!r}"

    def test_hyperparameter_range_edges_and_integral_floats(self, rng):
        """The edges of each range are accepted; an integral float is refused, as in every config."""
        dev = meta_training_records(10, rng)
        for backend, key in (("random_forest", "n_trees"), ("random_forest", "max_depth"), ("linear_hinge", "epochs")):
            with pytest.raises(ConfigError) as exc:
                train_meta(dev, backend=backend, hyperparams={key: 3.0})
            assert str(exc.value) == f"{backend} hyperparameter {key} must be an integer, got 3.0"
        forest = train_meta(dev, backend="random_forest", hyperparams={"n_trees": 3, "max_depth": 0, "bootstrap_fraction": 1e-9})
        # the forest that n_trees 3.0 and 3 both gave before 3.0 was refused
        assert forest.state["trees"] == [{"p": 1.0}, {"p": 0.0}, {"p": 0.0}]
        hinge = train_meta(dev, backend="linear_hinge", hyperparams={"epochs": 0, "l2": 0, "learning_rate": 1e-12})
        assert hinge.state["weights"] == [0.0] * hinge.n_features

    def test_diverged_hinge_fit_is_an_error(self, rng):
        dev = meta_training_records(40, rng)
        with pytest.raises(InvalidInput, match=r"linear_hinge fit diverged.*learning_rate \(got 1e\+100\)"):
            train_meta(dev, backend="linear_hinge", hyperparams={"learning_rate": 1e100})

    @pytest.mark.parametrize("backend", ["linear_hinge", "random_forest"])
    @pytest.mark.parametrize("feature, value", [("aleatoric", math.inf), ("variance", math.nan)])
    def test_non_finite_feature_names_the_tree_and_feature(self, rng, backend, feature, value):
        # The bundle refuses a non-finite meta feature, naming it, before any record reaches train_meta.
        with pytest.raises(InvalidInput) as exc:
            record_with("bad", pred="false", **{feature: value})
        assert str(exc.value) == f"{feature}: {value!r} is not a finite number"
        train_meta(meta_training_records(10, rng), backend=backend)

    def test_deterministic_in_seed(self, rng):
        dev = meta_training_records(60, rng)
        a = train_meta(dev, backend="random_forest", seed=5)
        b = train_meta(dev, backend="random_forest", seed=5)
        assert a.to_json() == b.to_json()

    def test_json_round_trip(self, rng):
        dev = meta_training_records(40, rng)
        for backend in ("linear_hinge", "random_forest"):
            meta = train_meta(dev, backend=backend, seed=2)
            again = MetaClassifier.from_json(meta.to_json())
            np.testing.assert_allclose(again.scores(dev), meta.scores(dev))

    def test_save_load(self, rng, tmp_path):
        dev = meta_training_records(30, rng)
        meta = train_meta(dev, backend="linear_hinge")
        path = tmp_path / "meta.json"
        meta.save(path)
        loaded = MetaClassifier.load(path)
        np.testing.assert_allclose(loaded.scores(dev), meta.scores(dev))

    def test_bad_json_rejected(self):
        with pytest.raises(DataError):
            MetaClassifier.from_json("{not json")


class TestSupervisedReject:
    def test_oracle_meta_gives_perfect_retained_accuracy(self, rng):
        recs = meta_training_records(100, rng, separation=6.0)
        meta = train_meta(recs, backend="linear_hinge", seed=0)
        retained, removed, n_removed = supervised_reject(meta, recs)
        assert n_removed == len(removed)
        assert retained and sum(r.correct for r in retained) / len(retained) == 1.0

    def test_precision_non_decreasing_in_threshold(self, rng):
        dev = meta_training_records(120, rng, separation=1.5)
        test = meta_training_records(120, rng, separation=1.5)
        meta = train_meta(dev, backend="linear_hinge", seed=0)
        last = 0.0
        for threshold in (0.0, 0.25, 0.5, 0.75, 0.9):
            retained, _, _ = supervised_reject(meta, test, threshold=threshold)
            if not retained:
                break
            precision = sum(r.correct for r in retained) / len(retained)
            assert precision >= last - 1e-12
            last = precision

    def test_retained_accuracy_equals_meta_precision(self, rng):
        dev = meta_training_records(100, rng, separation=1.0)
        test = meta_training_records(100, rng, separation=1.0)
        meta = train_meta(dev, backend="random_forest", seed=3)
        retained, _, _ = supervised_reject(meta, test, threshold=0.5)
        # precision of the "correct" call = accuracy of what is kept
        scores = meta.scores(test)
        called_correct = [r for r, s in zip(test, scores) if s >= 0.5]
        precision = sum(r.correct for r in called_correct) / len(called_correct)
        accuracy = sum(r.correct for r in retained) / len(retained)
        assert precision == pytest.approx(accuracy, abs=1e-15)

    @pytest.mark.parametrize("backend", ["linear_hinge", "random_forest"])
    def test_no_records_scores_and_rejects_nothing(self, rng, backend):
        meta = train_meta(meta_training_records(30, rng), backend=backend, seed=1)
        scores = meta.scores([])
        assert scores.shape == (0,) and scores.dtype == np.float64
        assert supervised_reject(meta, []) == ([], [], 0)

    def test_no_records_with_constant_meta(self, rng):
        dev = records_with_uncertainty(rng.random(5), correct=[0] * 5)
        with pytest.warns(DataWarning, match="single-class"):
            meta = train_meta(dev, backend="random_forest")
        assert meta.scores([]).shape == (0,)
        assert supervised_reject(meta, [], threshold=0.0) == ([], [], 0)

    def test_threshold_validation(self, rng):
        recs = meta_training_records(10, rng)
        meta = train_meta(recs, backend="linear_hinge")
        for bad in (1.5, "0.5", None, float("nan")):
            with pytest.raises(ConfigError, match="threshold"):
                supervised_reject(meta, recs, threshold=bad)
        assert supervised_reject(meta, recs, threshold=np.float32(0.5)) == supervised_reject(meta, recs, 0.5)

    def test_schema_mismatch_rejected(self, rng):
        dev = meta_training_records(20, rng)
        meta = train_meta(dev, backend="linear_hinge")
        four_class = [
            record_with("x", **{"mean_probs": (0.4, 0.3, 0.2, 0.1), "predicted_class": 0})
        ]
        with pytest.raises(ConfigError, match="features"):
            meta.scores(four_class)

    @pytest.mark.parametrize("backend", ["linear_hinge", "random_forest"])
    def test_mixed_class_counts_name_the_first_odd_record(self, rng, backend):
        recs = meta_training_records(20, rng)
        mixed = recs[:3] + [record_with("odd", mean_probs=(0.4, 0.3, 0.2, 0.1), predicted_class=0)] + recs[3:]
        message = "record odd has 4 classes but record m0000 has 3"
        with pytest.raises(ConfigError, match=message):
            train_meta(mixed, backend=backend)
        meta = train_meta(recs, backend=backend)
        with pytest.raises(ConfigError, match=message):
            meta.scores(mixed)


def test_meta_feature_order():
    b = bundle_with(
        aleatoric=1.5, variance=0.02, entropy=0.7, variation_ratio=0.25,
        mean_probs=(0.5, 0.3, 0.2), predicted_class=0,
    )
    r = make_record("t", "true", "true", b, 0)
    np.testing.assert_allclose(
        _feature_matrix([r])[0], [1.5, 0.02, 0.7, 0.25, 0.5, 0.3, 0.2, 1.0, 0.0, 0.0]
    )


class TestForestSplit:
    def adjacent_case(self):
        a = 0.3
        b = float(np.nextafter(a, 1.0))
        assert 0.5 * (a + b) == b  # the midpoint rounds up to the larger value
        X = np.array([[a], [b], [a], [b]])
        return a, X, np.array([0.0, 1.0, 0.0, 1.0])

    def test_adjacent_doubles_give_the_perfect_split(self):
        a, X, y = self.adjacent_case()
        tree = _grow_trees(X, y, [(np.arange(len(y)), make_rng(0))], 8, 1)[0]
        assert tree == {"f": 0, "t": a, "l": {"p": 0.0}, "r": {"p": 1.0}}

    def test_adjacent_doubles_leave_finite_leaves_and_scores(self):
        _, X, y = self.adjacent_case()
        state = _fit_forest(X, y, ForestHyperparams(n_trees=10, max_depth=8, bootstrap_fraction=1.0), 3)

        def leaves(node):
            return [node["p"]] if "f" not in node else leaves(node["l"]) + leaves(node["r"])

        assert all(math.isfinite(p) for tree in state["trees"] for p in leaves(tree))
        scores = _forest_scores(state, X)
        assert np.all(np.isfinite(scores))
        np.testing.assert_array_equal(scores >= 0.5, y == 1.0)

    def test_overflowing_midpoint_keeps_both_sides(self):
        hi = np.finfo(float).max
        lo = float(np.nextafter(hi, 0.0))
        X = np.array([[lo], [hi]])
        tree = _grow_trees(X, np.array([0.0, 1.0]), [(np.arange(2), make_rng(0))], 8, 1)[0]
        assert tree == {"f": 0, "t": lo, "l": {"p": 0.0}, "r": {"p": 1.0}}


def _saved(backend, mutate):
    """A trained meta-classifier's JSON document after ``mutate(doc)``."""
    dev = meta_training_records(40, np.random.default_rng(8))
    doc = json.loads(train_meta(dev, backend=backend, hyperparams={"n_trees": 3} if backend == "random_forest" else None, seed=1).to_json())
    mutate(doc)
    return json.dumps(doc)


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


def _deepest_split(doc):
    node = doc["state"]["trees"][2]
    while "f" in node["l"]:
        node = node["l"]
    return node


class TestMetaValidation:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (_set(("state", "weights"), [0.1] * 3), "linear_hinge: weights is not a list of 10 finite"),
            (_set(("state", "mean", 2), float("nan")), "linear_hinge: mean is not a list of 10 finite"),
            (_set(("state", "std", 0), float("inf")), "linear_hinge: std is not a list of 10 finite"),
            (_set(("state", "std", 4), 0.0), "linear_hinge: std has a value that is not positive"),
            (_set(("state", "bias"), "1"), "linear_hinge: bias '1' is not a finite number"),
            (_set(("state", "constant"), 1.5), "linear_hinge: constant 1.5 is not a number in"),
            (_set(("n_features",), 9), "linear_hinge: 9 features do not fit 3 classes"),
            (_set(("backend",), "svm"), "unknown backend 'svm'"),
        ],
    )
    def test_bad_linear_state(self, mutate, message):
        with pytest.raises(DataError, match=message):
            MetaClassifier.from_json(_saved("linear_hinge", mutate))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: _deepest_split(d).update(f=10), r"tree 2: feature 10 is not an integer in \[0, 10\)"),
            (lambda d: _deepest_split(d).update(f=-1), r"tree 2: feature -1 is not an integer"),
            (lambda d: _deepest_split(d).update(f=1.0), r"tree 2: feature 1.0 is not an integer"),
            (lambda d: _deepest_split(d).update(f=True), r"tree 2: feature True is not an integer"),
            (lambda d: _deepest_split(d).update(t=float("nan")), "tree 2: threshold nan is not a finite"),
            (lambda d: _deepest_split(d)["l"].update(p=1.5), r"tree 2: leaf value 1.5 is not a number in \[0, 1\]"),
            (lambda d: _deepest_split(d)["l"].update(p=float("nan")), "tree 2: leaf value nan"),
            (lambda d: _deepest_split(d).pop("r"), r"tree 2: node \['f', 'l', 't'\] is neither a leaf"),
            (lambda d: _deepest_split(d)["l"].update(extra=0), r"tree 2: node \['extra', 'p'\] is neither"),
            (lambda d: _deepest_split(d).update(l=[0.5]), "tree 2: node list is neither"),
            (_set(("state", "trees"), []), "random_forest: trees is not a nonempty list"),
            (_set(("state", "constant"), -0.1), "random_forest: constant -0.1 is not a number in"),
        ],
    )
    def test_bad_forest_state(self, mutate, message):
        with pytest.raises(DataError, match=message):
            MetaClassifier.from_json(_saved("random_forest", mutate))

    def test_load_names_a_file_that_is_no_json(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: bad meta-classifier JSON: "):
            MetaClassifier.load(path)

    def test_load_names_a_file_with_a_bad_tree(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text(_saved("random_forest", lambda d: _deepest_split(d).update(f=10)), encoding="utf-8")
        message = f"^{re.escape(str(path))}: meta-classifier random_forest: tree 2: feature 10 "
        with pytest.raises(DataError, match=message):
            MetaClassifier.load(path)

    def test_load_turns_an_unreadable_file_into_a_data_error(self, tmp_path):
        path = tmp_path / "missing.json"
        with pytest.raises(DataError, match=f"^cannot read meta-classifier {re.escape(str(path))}: "):
            MetaClassifier.load(path)

    def test_good_states_load(self):
        for backend in ("linear_hinge", "random_forest"):
            MetaClassifier.from_json(_saved(backend, lambda doc: None))
        MetaClassifier.from_json(_saved("linear_hinge", _set(("state",), {"constant": 1.0})))
