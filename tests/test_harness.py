"""Cross-validation, record CSVs and timeline reports."""

import csv
import io
import re
import warnings

import numpy as np
import pytest
from conftest import bundle_with, conversation_trees, record_with
from hypothesis import given, settings
from hypothesis import strategies as st

from veritas import (
    ConversationTree,
    HashingEmbedder,
    SyntheticSpec,
    TimelineSeries,
    TimelineStep,
    TrainingConfig,
    Tweet,
    UncertaintyConfig,
    bundle,
    cross_validate,
    evaluate,
    generate_synthetic,
    make_folds,
    make_record,
    min_uncertainty_prediction,
    read_records_csv,
    timeline_report,
    timeline_to_csv,
    write_history_csv,
    write_records_csv,
)
from veritas.data import CANONICAL_LABELS, timeline_prefixes
from veritas.harness import _LINE, _score_trees, records_header
from veritas.rejection import CurvePoint, RejectionCurve, curve_to_csv
from veritas.uncertainty import MEASURE_TABLE, UncertaintyBundle, UncertaintyConfig
from veritas.errors import ConfigError, DataError, DataWarning, InvalidInput, csv_line

CLASSES = ("true", "false", "unverified")


@pytest.fixture(scope="module")
def small_run():
    spec = SyntheticSpec(
        trees_per_class=8,
        ambiguity_max=0.3,
        tokens_per_tweet=(3, 6),
        branching_prob=0.5,
        seed=17,
    )
    trees = generate_synthetic(spec)
    folds = make_folds(trees, "k_fold", k=3, seed=2)
    cfg = TrainingConfig(
        hidden_size=6,
        num_relu_layers=1,
        dropout_rate_train=0.2,
        learning_rate=0.05,
        epochs=3,
        aleatoric_samples=3,
        seed=0,
    )
    emb = HashingEmbedder(dimension=32, seed=1)
    uq = UncertaintyConfig(n_samples=4, dropout_rate=0.3, seed=9)
    res = cross_validate(trees, folds, cfg, uq, emb)
    return dict(spec=spec, trees=trees, folds=folds, cfg=cfg, emb=emb, uq=uq, res=res)


class TestCrossValidate:
    def test_each_tree_predicted_exactly_once(self, small_run):
        res, trees, folds = small_run["res"], small_run["trees"], small_run["folds"]
        assert sorted(r.tree_id for r in res.records) == sorted(t.tree_id for t in trees)
        for r in res.records:
            assert r.fold == folds.assignments[r.tree_id]

    def test_records_sorted_by_fold_then_id(self, small_run):
        keys = [(r.fold, r.tree_id) for r in small_run["res"].records]
        assert keys == sorted(keys)

    def test_deterministic_rerun(self, small_run):
        again = cross_validate(
            small_run["trees"],
            small_run["folds"],
            small_run["cfg"],
            small_run["uq"],
            small_run["emb"],
        )
        assert again.records == small_run["res"].records

    def test_predictions_consistent_with_bundles(self, small_run):
        res = small_run["res"]
        for r in res.records:
            assert r.pred == res.classes[r.bundle.predicted_class]
            assert r.correct == (r.gold == r.pred)

    def test_histories_cover_every_epoch(self, small_run):
        res, cfg = small_run["res"], small_run["cfg"]
        for fold, history in res.histories.items():
            assert [h.epoch for h in history] == list(range(cfg.epochs))
            assert all(np.isfinite(h.loss_total) for h in history)

    def test_no_dev_fold_no_dev_records(self, small_run):
        assert small_run["folds"].dev_fold is None
        assert small_run["res"].dev_records == {}
        assert sorted(small_run["res"].models) == small_run["folds"].fold_ids()

    def test_with_dev_excludes_dev_fold(self, small_run):
        folds = make_folds(small_run["trees"], "k_fold", k=3, seed=2, dev_fold=0)
        res = cross_validate(
            small_run["trees"], folds, small_run["cfg"], small_run["uq"], small_run["emb"]
        )
        dev_ids = set(folds.trees_in(folds.dev_fold))
        assert not dev_ids & {r.tree_id for r in res.records}
        test_folds = [f for f in folds.fold_ids() if f != folds.dev_fold]
        assert sorted(res.dev_records) == test_folds
        for fold, dev_recs in res.dev_records.items():
            assert sorted(r.tree_id for r in dev_recs) == sorted(dev_ids)
            assert all(r.fold == fold for r in dev_recs)

    def test_unassigned_tree_rejected(self, small_run):
        stray = ConversationTree(
            tree_id="ghost",
            event="e",
            label="true",
            tweets=(Tweet(id="g0", parent_id=None, timestamp=1, text="c0w0", stance=None),),
        )
        extra = small_run["trees"] + [stray]
        with pytest.raises(ConfigError, match="fold"):
            cross_validate(
                extra, small_run["folds"], small_run["cfg"], small_run["uq"], small_run["emb"]
            )

    def test_separable_dataset_scores_high(self):
        spec = SyntheticSpec(
            trees_per_class=60,
            ambiguity_max=0.0,
            noise_rate=0.0,
            tokens_per_tweet=(6, 12),
            branching_prob=0.65,
            seed=21,
        )
        trees = generate_synthetic(spec)
        folds = make_folds(trees, "k_fold", k=5, seed=3)
        cfg = TrainingConfig(
            hidden_size=16,
            num_relu_layers=1,
            dropout_rate_train=0.2,
            learning_rate=0.03,
            epochs=15,
            aleatoric_samples=5,
            seed=0,
        )
        emb = HashingEmbedder(dimension=128, seed=1)
        uq = UncertaintyConfig(n_samples=5, dropout_rate=0.2, seed=5)
        res = cross_validate(trees, folds, cfg, uq, emb)
        assert evaluate(res.records, res.classes).accuracy >= 0.9


class TestRecordsCsv:
    def test_round_trip_exact(self, small_run, tmp_path):
        records = small_run["res"].records
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        loaded = read_records_csv(path)
        assert len(loaded) == len(records)
        for a, b in zip(loaded, records):
            assert (a.tree_id, a.gold, a.pred, a.fold) == (b.tree_id, b.gold, b.pred, b.fold)
            assert a.bundle == b.bundle

    def test_header_shape(self, small_run, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_run["res"].records, path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "tree_id,label,pred,vr,entropy,variance,aleatoric,lcs,margin,ratio,"
            "softmax_entropy,p_0,p_1,p_2,fold"
        )

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_records_csv([], tmp_path / "empty.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_records_csv(tmp_path / "nope.csv")

    def test_unexpected_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tree,gold\nx,true\n")
        with pytest.raises(DataError, match="columns"):
            read_records_csv(path)

    def test_header_without_two_probability_columns(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(",".join(records_header(1)) + "\n")
        with pytest.raises(DataError, match="columns"):
            read_records_csv(path)

    def test_short_row(self, small_run, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_run["res"].records, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1].rsplit(",", 1)[0]]) + "\n")
        with pytest.raises(DataError, match="fields"):
            read_records_csv(path)

    def test_bad_float(self, small_run, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(small_run["res"].records, path)
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[3] = "not-a-number"
        path.write_text("\n".join([lines[0], ",".join(parts)]) + "\n")
        with pytest.raises(DataError):
            read_records_csv(path)

    @pytest.mark.parametrize(
        "cells, column",
        [
            ({"vr": "nan"}, "column vr"),
            ({"p_1": "inf"}, "column p_1"),
            ({"p_0": "-0.1", "p_1": "0.8", "p_2": "0.3"}, "column p_0"),
            ({"p_0": "0.8", "p_1": "0.3", "p_2": "0.1"}, "columns p_0..p_2"),
            ({"vr": "1.5"}, "column vr"),
        ],
        ids=["nan_measure", "inf_probability", "negative_probability", "sum_not_one", "vr_above_one"],
    )
    def test_bad_value_names_file_line_and_column(self, tmp_path, cells, column):
        path = tmp_path / "records.csv"
        write_records_csv([record_with("a", mean_probs=(0.6, 0.3, 0.1)), record_with("b")], path)
        header, first, second = path.read_text().splitlines()
        row = dict(zip(header.split(","), second.split(",")))
        row.update(cells)
        path.write_text("\n".join([header, first, ",".join(row.values())]) + "\n")
        with pytest.raises(DataError, match=f"records.csv:3: {column}"):
            read_records_csv(path)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"variation_ratio": float("nan")}, "variation_ratio"),
        ({"aleatoric": float("inf")}, "aleatoric"),
        ({"mean_probs": (0.5, float("nan"), 0.5)}, "mean_probs[1]"),
    ],
    ids=["nan_measure", "inf_measure", "nan_probability"],
)
def test_writers_refuse_non_finite_cells(overrides, field):
    # The bundle refuses the value, so no record or timeline step can carry it to a writer.
    with pytest.raises(InvalidInput, match=rf"^{re.escape(field)}: "):
        record_with("b", **overrides)


def _valid_bundles(n_classes: int):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    weights = st.lists(st.floats(0.0, 1.0), min_size=n_classes, max_size=n_classes)

    def build(values, vr, raw):
        probs = tuple(float(w) for w in np.asarray(raw) / sum(raw))
        fields = {m.field: v for m, v in zip(MEASURE_TABLE, values)}
        fields["variation_ratio"] = vr
        return UncertaintyBundle(**fields, mean_probs=probs, predicted_class=int(np.argmax(probs)))

    values = st.lists(finite, min_size=len(MEASURE_TABLE), max_size=len(MEASURE_TABLE))
    return st.builds(build, values, st.floats(0.0, 1.0), weights.filter(lambda w: sum(w) > 0.0))


# Any text a UTF-8 file can hold: every character but the lone surrogates.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def _record_lists(draw):
    n_classes = draw(st.integers(2, 4))
    labels = st.sampled_from(CANONICAL_LABELS)
    ids = st.one_of(st.sampled_from(["t", "a\rb", "\r", "a\r\nb", 'x,"\r']), _TEXT)
    records = []
    for i in range(draw(st.integers(1, 4))):
        records.append(
            make_record(
                draw(ids), draw(labels), draw(labels), draw(_valid_bundles(n_classes)), draw(st.integers(0, 9))
            )
        )
    return records


@settings(max_examples=200, deadline=None)
@given(_record_lists())
def test_records_csv_round_trip_property(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("prop") / "records.csv"
    write_records_csv(records, path)
    assert read_records_csv(path) == records


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TEXT, st.integers(), st.floats().map(repr)), min_size=2, max_size=6))
def test_csv_line_is_the_csv_writers_line_but_quotes_a_lone_cr(cells):
    line = csv_line(cells)
    assert next(csv.reader(_LINE.findall(line))) == [str(c) for c in cells]
    if not any("\r" in str(c) for c in cells):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(cells)
        assert line == buf.getvalue()


def test_timeline_and_curve_csv_quote_a_lone_cr():
    step = TimelineStep(n_tweets=1, predicted_class=0, bundle=bundle_with(), added_stance="a\rb")
    rows = list(csv.reader(_LINE.findall(timeline_to_csv(TimelineSeries(tree_id="t", steps=(step,))))))
    assert len(rows) == 2 and rows[1][-1] == "a\rb"
    curve = RejectionCurve("m\r", (CurvePoint(1.0, 2, 0.5, 0.25),))
    assert list(csv.reader(_LINE.findall(curve_to_csv(curve))))[1] == ["m\r", "1.0", "2", "0.5", "0.25"]


def test_timeline_measure_columns_match_records_header():
    step = TimelineStep(n_tweets=1, predicted_class=0, bundle=bundle_with(), added_stance=None)
    header = timeline_to_csv(TimelineSeries(tree_id="t", steps=(step,))).splitlines()[0].split(",")
    assert header[3:-1] == records_header(3)[3:-1]


class TestHistoryCsv:
    def test_format(self, small_run, tmp_path):
        history = small_run["res"].histories[1]
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss_total,loss_ce,loss_sampled"
        assert len(lines) == 1 + len(history)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == history[0].loss_total


class TestTimeline:
    def test_final_step_equals_whole_tree_bundle(self, small_run):
        res, emb, uq = small_run["res"], small_run["emb"], small_run["uq"]
        record = small_run["res"].records[0]
        tree = next(t for t in small_run["trees"] if t.tree_id == record.tree_id)
        params = res.models[record.fold]
        series = timeline_report(params, tree, emb, uq)
        whole = bundle(
            params, tree, emb, uq.n_samples, uq.dropout_rate, seed=uq.seed,
            branch_level=uq.branch_level,
        )
        assert series.steps[-1].bundle == whole
        assert series.steps[-1].n_tweets == tree.size

    def test_last_step_equals_records_row_for_every_tree(self, small_run):
        res, emb, uq = small_run["res"], small_run["emb"], small_run["uq"]
        by_id = {t.tree_id: t for t in small_run["trees"]}
        for record in res.records:
            series = timeline_report(res.models[record.fold], by_id[record.tree_id], emb, uq)
            assert series.steps[-1].bundle == record.bundle, record.tree_id

    def test_branch_level_last_step_equals_scored_record(self, small_run):
        res, emb = small_run["res"], small_run["emb"]
        uq = UncertaintyConfig(n_samples=3, dropout_rate=0.3, seed=4, branch_level=True)
        trees = [t for t in small_run["trees"] if small_run["folds"].assignments[t.tree_id] == 1]
        for record in _score_trees(res.models[1], trees, emb, uq, res.classes, 1):
            tree = next(t for t in trees if t.tree_id == record.tree_id)
            series = timeline_report(res.models[1], tree, emb, uq)
            assert series.steps[-1].bundle == record.bundle, record.tree_id

    def test_steps_match_independent_prefix_scoring(self, small_run):
        res, emb, uq = small_run["res"], small_run["emb"], small_run["uq"]
        tree = max(small_run["trees"], key=lambda t: t.size)
        params = res.models[small_run["folds"].assignments[tree.tree_id]]
        series = timeline_report(params, tree, emb, uq)
        prefixes = timeline_prefixes(tree)
        assert [s.n_tweets for s in series.steps] == list(range(1, tree.size + 1))
        for step, prefix in zip(series.steps, prefixes):
            again = bundle(
                params, prefix, emb, uq.n_samples, uq.dropout_rate, seed=uq.seed,
                branch_level=uq.branch_level,
            )
            assert step.bundle == again
            assert step.predicted_class == again.predicted_class

    def test_single_tweet_tree(self, small_run):
        res, emb, uq = small_run["res"], small_run["emb"], small_run["uq"]
        params = res.models[1]
        tree = ConversationTree(
            tree_id="solo",
            event="e",
            label="true",
            tweets=(Tweet(id="s0", parent_id=None, timestamp=5, text="c0w1 c0w2", stance="support"),),
        )
        series = timeline_report(params, tree, emb, uq)
        assert len(series.steps) == 1
        whole = bundle(params, tree, emb, uq.n_samples, uq.dropout_rate, seed=uq.seed)
        assert series.steps[0].bundle == whole
        assert series.steps[0].added_stance == "support"

    def test_one_warning_per_reordered_tweet(self, small_run):
        res, emb, uq = small_run["res"], small_run["emb"], small_run["uq"]
        # b and c are timestamped before their parents, so both are reordered
        tree = ConversationTree(
            tree_id="late",
            event="e",
            label="true",
            tweets=(
                Tweet(id="r", parent_id=None, timestamp=0, text="c0w1", stance="support"),
                Tweet(id="a", parent_id="r", timestamp=5, text="c0w2", stance="deny"),
                Tweet(id="b", parent_id="a", timestamp=3, text="c1w1", stance="query"),
                Tweet(id="c", parent_id="b", timestamp=1, text="c2w1", stance="comment"),
            ),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series = timeline_report(res.models[1], tree, emb, uq)
        messages = [str(w.message) for w in caught if issubclass(w.category, DataWarning)]
        assert len(messages) == 2
        assert any("tweet b precedes" in m for m in messages)
        assert any("tweet c precedes" in m for m in messages)
        assert [s.added_stance for s in series.steps] == ["support", "deny", "query", "comment"]

    def test_prediction_changes_counts_transitions(self):
        steps = tuple(
            TimelineStep(n_tweets=i + 1, predicted_class=c, bundle=bundle_with(predicted_class=c),
                         added_stance=None)
            for i, c in enumerate([0, 0, 1, 1, 2, 1])
        )
        series = TimelineSeries(tree_id="t", steps=steps)
        assert series.prediction_changes() == 3


def series_from_uncertainties(values, preds=None):
    preds = preds if preds is not None else list(range(len(values)))
    steps = tuple(
        TimelineStep(
            n_tweets=i + 1,
            predicted_class=p,
            bundle=bundle_with(entropy=float(u), predicted_class=p),
            added_stance=None,
        )
        for i, (u, p) in enumerate(zip(values, preds))
    )
    return TimelineSeries(tree_id="t", steps=steps)


class TestMinUncertaintyPrediction:
    def test_decreasing_uncertainty_picks_final(self):
        series = series_from_uncertainties([0.9, 0.5, 0.2], preds=[0, 1, 2])
        assert min_uncertainty_prediction(series, "entropy") == 2

    def test_interior_minimum(self):
        series = series_from_uncertainties([0.9, 0.1, 0.4], preds=[0, 1, 2])
        assert min_uncertainty_prediction(series, "entropy") == 1

    def test_ties_pick_latest(self):
        series = series_from_uncertainties([0.3, 0.3, 0.7], preds=[0, 1, 2])
        assert min_uncertainty_prediction(series, "entropy") == 1

    def test_matches_argmin_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 12))
            values = [float(v) for v in rng.integers(0, 4, n) / 4.0]
            preds = [int(p) for p in rng.integers(0, 3, n)]
            series = series_from_uncertainties(values, preds)
            best = max(i for i, v in enumerate(values) if v == min(values))
            assert min_uncertainty_prediction(series, "entropy") == preds[best]

    def test_validation(self):
        with pytest.raises(ConfigError):
            min_uncertainty_prediction(TimelineSeries(tree_id="t", steps=()), "entropy")
        with pytest.raises(ConfigError):
            min_uncertainty_prediction(series_from_uncertainties([0.1]), "sigma")


class TestTimelineCsv:
    def test_shape(self, small_run):
        res, emb, uq = small_run["res"], small_run["emb"], small_run["uq"]
        tree = max(small_run["trees"], key=lambda t: t.size)
        params = res.models[small_run["folds"].assignments[tree.tree_id]]
        series = timeline_report(params, tree, emb, uq)
        lines = timeline_to_csv(series).splitlines()
        assert lines[0] == (
            "step,n_tweets,pred,vr,entropy,variance,aleatoric,lcs,margin,ratio,"
            "softmax_entropy,p_0,p_1,p_2,added_stance"
        )
        assert len(lines) == 1 + len(series.steps)

    def test_empty_series_rejected(self):
        with pytest.raises(ConfigError):
            timeline_to_csv(TimelineSeries(tree_id="t", steps=()))


# ---------------------------------------------------------------------------
# one path, one answer


@st.composite
def small_corpora(draw):
    labels = ("true", "false", "unverified")
    return [draw(conversation_trees(tree_id=f"c{i}", label=labels[i % 3], max_tweets=6)) for i in range(6)]


@settings(max_examples=20, deadline=None)
@given(small_corpora(), st.integers(0, 2**16), st.booleans())
def test_records_row_timeline_and_bundle_agree(trees, seed, branch_level):
    """The records row, the last timeline step and a library ``bundle`` call of a tree are equal."""
    folds = make_folds(trees, "k_fold", k=3, seed=seed, dev_fold=0)
    cfg = TrainingConfig(
        hidden_size=4, num_relu_layers=1, dropout_rate_train=0.2, learning_rate=0.05,
        epochs=1, aleatoric_samples=2, seed=seed,
    )
    uq = UncertaintyConfig(n_samples=3, dropout_rate=0.3, seed=seed, branch_level=branch_level)
    emb = HashingEmbedder(dimension=8, seed=seed % 4)
    res = cross_validate(trees, folds, cfg, uq, emb)
    by_id = {t.tree_id: t for t in trees}
    rows = res.records + [r for dev in res.dev_records.values() for r in dev]
    assert len(rows) == len(trees) + 2  # the two dev trees are scored by both test folds' models
    for record in rows:
        params, tree = res.models[record.fold], by_id[record.tree_id]
        library = bundle(params, tree, emb, uq.n_samples, uq.dropout_rate, seed=uq.seed, branch_level=branch_level)
        assert library == record.bundle, record.tree_id
        assert timeline_report(params, tree, emb, uq).steps[-1].bundle == record.bundle, record.tree_id


@pytest.fixture(scope="module")
def order_run(tmp_path_factory):
    spec = SyntheticSpec(trees_per_class=3, tokens_per_tweet=(3, 6), branching_prob=0.5, seed=23)
    trees = generate_synthetic(spec)
    folds = make_folds(trees, "k_fold", k=3, seed=5, dev_fold=0)
    cfg = TrainingConfig(
        hidden_size=4, num_relu_layers=1, dropout_rate_train=0.2, learning_rate=0.05,
        epochs=1, aleatoric_samples=2, seed=3,
    )
    uq = UncertaintyConfig(n_samples=3, dropout_rate=0.3, seed=9)
    emb = HashingEmbedder(dimension=8, seed=1)
    res = cross_validate(trees, folds, cfg, uq, emb)
    return trees, (folds, cfg, uq, emb), res, _csv_bytes(res, tmp_path_factory)


def _csv_bytes(res, tmp_path_factory):
    out = tmp_path_factory.mktemp("records")
    write_records_csv(res.records, out / "records.csv")
    for fold, dev in res.dev_records.items():
        write_records_csv(dev, out / f"dev{fold}.csv")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_cross_validate_does_not_depend_on_input_order(order_run, tmp_path_factory, random):
    trees, setup, expected, expected_csv = order_run
    shuffled = random.sample(trees, len(trees))
    res = cross_validate(shuffled, *setup)
    assert res.records == expected.records
    assert res.dev_records == expected.dev_records
    assert _csv_bytes(res, tmp_path_factory) == expected_csv
