"""Accuracy, per-class F1, macro-F and uncertainty grouping."""

import numpy as np
import pytest
from conftest import record_with

from veritas import evaluate, group_uncertainty_by, uncertainty_value
from veritas.errors import ConfigError, DataError


def f1_oracle(pairs, classes):
    """Independent confusion-matrix evaluation."""
    scores = {}
    for cls in classes:
        tp = sum(g == cls and p == cls for g, p in pairs)
        fp = sum(g != cls and p == cls for g, p in pairs)
        fn = sum(g == cls and p != cls for g, p in pairs)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        scores[cls] = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return scores


class TestEvaluate:
    def test_perfect_predictions(self):
        report = evaluate([("A", "A"), ("B", "B")], ("A", "B"))
        assert report.accuracy == 1.0
        assert report.macro_f == 1.0
        assert report.n_instances == 2

    def test_hand_confusion_case(self):
        report = evaluate([("A", "A"), ("A", "B"), ("B", "B")], ("A", "B"))
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.per_class_f1["A"] == pytest.approx(2 / 3)
        assert report.per_class_f1["B"] == pytest.approx(2 / 3)
        assert report.macro_f == pytest.approx(2 / 3)

    def test_collapsed_predictor_on_balanced_gold(self):
        pairs = [(g, "A") for g in ("A", "B", "C") * 4]
        report = evaluate(pairs, ("A", "B", "C"))
        assert report.accuracy == pytest.approx(1 / 3)
        # precision 1/3, recall 1 for A; B and C never predicted
        assert report.per_class_f1 == pytest.approx({"A": 0.5, "B": 0.0, "C": 0.0})
        assert report.macro_f == pytest.approx(1 / 6)

    def test_macro_f_counts_absent_classes(self):
        report = evaluate([("A", "A")], ("A", "B", "C"))
        assert report.per_class_f1["B"] == 0.0
        assert report.macro_f == pytest.approx(1 / 3)

    def test_matches_oracle_on_random_labels(self, rng):
        classes = ("true", "false", "unverified")
        for _ in range(50):
            n = int(rng.integers(1, 60))
            pairs = [
                (classes[int(g)], classes[int(p)])
                for g, p in zip(rng.integers(0, 3, n), rng.integers(0, 3, n))
            ]
            report = evaluate(pairs, classes)
            expect = f1_oracle(pairs, classes)
            assert report.per_class_f1 == pytest.approx(expect)
            assert report.macro_f == pytest.approx(sum(expect.values()) / 3)
            assert report.accuracy == pytest.approx(sum(g == p for g, p in pairs) / n)

    def test_permutation_invariant(self, rng):
        classes = ("A", "B")
        pairs = [
            (classes[int(g)], classes[int(p)])
            for g, p in zip(rng.integers(0, 2, 30), rng.integers(0, 2, 30))
        ]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        assert evaluate(pairs, classes) == evaluate(shuffled, classes)

    def test_accepts_prediction_records(self):
        records = [
            record_with("a", gold="true", pred="true"),
            record_with("b", gold="false", pred="true"),
        ]
        report = evaluate(records, ("true", "false"))
        assert report.accuracy == 0.5

    def test_validation(self):
        with pytest.raises(ConfigError):
            evaluate([], ("A",))
        with pytest.raises(ConfigError):
            evaluate([("A", "A")], ())
        with pytest.raises(DataError):
            evaluate([("Z", "A")], ("A", "B"))
        with pytest.raises(DataError):
            evaluate([("A", "Z")], ("A", "B"))


class TestGroupUncertainty:
    def test_single_class_single_group(self):
        records = [record_with(f"t{i}", gold="true", entropy=0.1 * i) for i in range(3)]
        groups = group_uncertainty_by(records, "class_label", measure="entropy")
        assert set(groups) == {"true"}
        assert groups["true"] == pytest.approx([0.0, 0.1, 0.2])

    def test_class_partition_matches_oracle(self, rng):
        classes = ("true", "false", "unverified")
        records = [
            record_with(f"t{i:03d}", gold=classes[int(g)], variation_ratio=float(u))
            for i, (g, u) in enumerate(zip(rng.integers(0, 3, 40), rng.random(40)))
        ]
        groups = group_uncertainty_by(records, "class_label", measure="variation_ratio")
        for cls in classes:
            expect = [
                uncertainty_value(r.bundle, "variation_ratio")
                for r in records
                if r.gold == cls
            ]
            assert sorted(groups.get(cls, [])) == pytest.approx(sorted(expect))

    def test_size_bins_split_twelve_into_three_fours(self):
        records = [record_with(f"t{i:02d}", entropy=float(i)) for i in range(12)]
        sizes = {f"t{i:02d}": i + 1 for i in range(12)}
        groups = group_uncertainty_by(
            records, "conversation_size", measure="entropy", n_bins=3, sizes=sizes
        )
        assert [len(g) for g in groups.values()] == [4, 4, 4]
        assert list(groups) == ["bin0_size_1_4", "bin1_size_5_8", "bin2_size_9_12"]
        assert groups["bin0_size_1_4"] == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_numpy_integer_bins_group_as_python_int(self):
        records = [record_with(f"t{i:02d}", entropy=float(i)) for i in range(12)]
        sizes = {f"t{i:02d}": i + 1 for i in range(12)}
        got = group_uncertainty_by(records, "conversation_size", measure="entropy", n_bins=np.int64(3), sizes=sizes)
        assert got == group_uncertainty_by(records, "conversation_size", measure="entropy", n_bins=3, sizes=sizes)

    def test_size_bins_match_sorted_chunk_oracle(self, rng):
        n = 17
        records = [record_with(f"t{i:02d}", variance=float(v)) for i, v in enumerate(rng.random(n))]
        sizes = {f"t{i:02d}": int(s) for i, s in enumerate(rng.integers(1, 9, n))}
        groups = group_uncertainty_by(
            records, "conversation_size", measure="variance", n_bins=4, sizes=sizes
        )
        ordered = sorted(records, key=lambda r: (sizes[r.tree_id], r.tree_id))
        chunks = np.array_split(np.arange(n), 4)
        flat = [v for g in groups.values() for v in g]
        expect = [uncertainty_value(r.bundle, "variance") for r in ordered]
        assert flat == pytest.approx(expect)
        assert [len(g) for g in groups.values()] == [len(c) for c in chunks]

    def test_validation(self):
        records = [record_with("a")]
        with pytest.raises(ConfigError):
            group_uncertainty_by([], "class_label")
        with pytest.raises(ConfigError):
            group_uncertainty_by(records, "stance")
        with pytest.raises(ConfigError):
            group_uncertainty_by(records, "conversation_size")
        with pytest.raises(ConfigError):
            group_uncertainty_by(records, "conversation_size", n_bins=0, sizes={"a": 1})
        for bad in (2.5, 3.0, True):
            with pytest.raises(ConfigError, match=f"n_bins must be an integer, got {bad!r}"):
                group_uncertainty_by(records, "conversation_size", n_bins=bad, sizes={"a": 1})
        with pytest.raises(DataError):
            group_uncertainty_by(records, "conversation_size", sizes={"other": 1})
