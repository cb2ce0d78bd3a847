"""Classification metrics and uncertainty grouping.

Macro-F averages F1 over the full declared class set, so classes absent
from a slice still pull the average down with an F1 of zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, check_value
from .uncertainty import uncertainty_value


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_f: float
    per_class_f1: dict[str, float]
    n_instances: int


def _gold_pred_pairs(records_or_pairs):
    for item in records_or_pairs:
        try:
            yield item.gold, item.pred
        except AttributeError:
            gold, pred = item
            yield gold, pred


def _class_index(classes: tuple[str, ...]) -> dict[str, int]:
    """Each class's index, the last one for a repeated class; an empty class set is a ConfigError."""
    if not classes:
        raise ConfigError("evaluate needs a nonempty class set")
    return {cls: i for i, cls in enumerate(classes)}


def _cells(pairs, index: dict[str, int], classes: tuple[str, ...]) -> dict:
    """The flat confusion cell (gold index * k + pred index) of each distinct pair, checked in the order given."""
    cells = {}
    for gold, pred in pairs:
        if gold not in index:
            raise DataError(f"gold label {gold!r} not in class set {classes}")
        if pred not in index:
            raise DataError(f"predicted label {pred!r} not in class set {classes}")
        cells[gold, pred] = index[gold] * len(classes) + index[pred]
    return cells


def _report(confusion: list[int], classes: tuple[str, ...]) -> MetricsReport:
    """Accuracy and macro-F of a nonempty confusion count laid out as ``_cells``; 0/0 := 0 in precision, recall, F1."""
    k = len(classes)
    index = _class_index(classes)
    per_class = {}
    for cls in classes:
        i = index[cls]
        tp = confusion[i * k + i]
        fp = sum(confusion[i::k]) - tp
        fn = sum(confusion[i * k : i * k + k]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[cls] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    n = sum(confusion)
    return MetricsReport(
        accuracy=sum(confusion[:: k + 1]) / n,
        macro_f=sum(per_class.values()) / k,
        per_class_f1=per_class,
        n_instances=n,
    )


def evaluate(records_or_pairs, classes: tuple[str, ...]) -> MetricsReport:
    """Accuracy and macro-F over (gold, pred) pairs or prediction records.

    Any label outside ``classes`` is an error; precision/recall/F1 all
    define 0/0 as 0.
    """
    index = _class_index(classes)
    counts = Counter(_gold_pred_pairs(records_or_pairs))
    if not counts:
        raise ConfigError("evaluate needs at least one instance")
    confusion = [0] * len(classes) ** 2
    # distinct pairs in order of first appearance: the first bad one is the input's first
    for pair, cell in _cells(counts, index, classes).items():
        confusion[cell] += counts[pair]
    return _report(confusion, classes)


def group_uncertainty_by(
    records,
    key: str,
    measure: str = "variation_ratio",
    n_bins: int = 3,
    sizes: dict[str, int] | None = None,
) -> dict[str, list[float]]:
    """Uncertainty values grouped for rank tests.

    ``class_label`` groups by gold label; ``conversation_size`` orders trees
    by size (ties by tree_id) and splits them into n_bins equal-count bins.
    """
    records = list(records)
    if not records:
        raise ConfigError("group_uncertainty_by needs at least one record")
    if key == "class_label":
        groups: dict[str, list[float]] = {}
        for r in sorted(records, key=lambda r: r.gold):
            groups.setdefault(r.gold, []).append(uncertainty_value(r.bundle, measure))
        return groups
    if key == "conversation_size":
        if sizes is None:
            raise ConfigError("conversation_size grouping needs a tree_id -> size mapping")
        check_value("n_bins", n_bins, "int", "[1, inf)")
        missing = [r.tree_id for r in records if r.tree_id not in sizes]
        if missing:
            raise DataError(f"no size for trees {missing[:5]}")
        ordered = sorted(records, key=lambda r: (sizes[r.tree_id], r.tree_id))
        groups = {}
        for b, chunk in enumerate(np.array_split(np.arange(len(ordered)), n_bins)):
            members = [ordered[int(i)] for i in chunk]
            if not members:
                continue
            lo = sizes[members[0].tree_id]
            hi = sizes[members[-1].tree_id]
            groups[f"bin{b}_size_{lo}_{hi}"] = [uncertainty_value(r.bundle, measure) for r in members]
        return groups
    raise ConfigError(f"unknown grouping key {key!r}")
