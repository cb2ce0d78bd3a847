"""Slow reference versions of the rejection stage's fast paths.

Each function here is the straightforward loop that the library replaced:
a fresh sort of every record for each cut, one Python walk per (record,
tree) pair when scoring a forest, three passes over the pairs per class in
``evaluate``, and the hinge loop that indexes numpy arrays on every step.
The library versions must give exactly the same results, so the property
tests compare them with ``==`` or byte equality, never a tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from veritas.errors import ConfigError, DataError
from veritas.metrics import MetricsReport
from veritas.nn import make_rng
from veritas.rejection import CurvePoint, RejectionCurve
from veritas.uncertainty import measure_spec, uncertainty_value


def _check_cut(measure, retain_fraction):
    """The cuts' up-front checks: the fraction, then the measure."""
    if not 0.0 < retain_fraction <= 1.0:
        raise ConfigError(f"retain_fraction must be in (0, 1], got {retain_fraction}")
    measure_spec(measure)


def unsupervised_reject(records, measure, retain_fraction):
    _check_cut(measure, retain_fraction)
    if not records:
        return [], []
    n_remove = math.ceil((1.0 - retain_fraction) * len(records))
    ranked = sorted(records, key=lambda r: (-uncertainty_value(r.bundle, measure), r.tree_id))
    removed = ranked[:n_remove]
    removed_ids = {id(r) for r in removed}
    retained = [r for r in records if id(r) not in removed_ids]
    return retained, removed


def random_reject(records, retain_fraction, seed=0):
    if not 0.0 < retain_fraction <= 1.0:
        raise ConfigError(f"retain_fraction must be in (0, 1], got {retain_fraction}")
    n = len(records)
    n_keep = math.floor(retain_fraction * n)
    keep = np.sort(make_rng(seed).choice(n, size=n_keep, replace=False))
    keep_set = set(int(i) for i in keep)
    retained = [r for i, r in enumerate(records) if i in keep_set]
    removed = [r for i, r in enumerate(records) if i not in keep_set]
    return retained, removed


def per_fold_reject(records, measure, retain_fraction):
    _check_cut(measure, retain_fraction)
    folds = sorted({r.fold for r in records})
    removed_ids: set[int] = set()
    for fold in folds:
        fold_records = [r for r in records if r.fold == fold]
        _, removed = unsupervised_reject(fold_records, measure, retain_fraction)
        removed_ids.update(id(r) for r in removed)
    retained = [r for r in records if id(r) not in removed_ids]
    removed_all = [r for r in records if id(r) in removed_ids]
    return retained, removed_all


def evaluate(records_or_pairs, classes):
    if not classes:
        raise ConfigError("evaluate needs a nonempty class set")
    pairs = []
    for item in records_or_pairs:
        if hasattr(item, "gold") and hasattr(item, "pred"):
            pairs.append((item.gold, item.pred))
        else:
            gold, pred = item
            pairs.append((gold, pred))
    if not pairs:
        raise ConfigError("evaluate needs at least one instance")
    class_set = set(classes)
    for gold, pred in pairs:
        if gold not in class_set:
            raise DataError(f"gold label {gold!r} not in class set {classes}")
        if pred not in class_set:
            raise DataError(f"predicted label {pred!r} not in class set {classes}")
    n = len(pairs)
    correct = sum(1 for gold, pred in pairs if gold == pred)
    per_class = {}
    for cls in classes:
        tp = sum(1 for g, p in pairs if g == cls and p == cls)
        fp = sum(1 for g, p in pairs if g != cls and p == cls)
        fn = sum(1 for g, p in pairs if g == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[cls] = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(
        accuracy=correct / n,
        macro_f=sum(per_class.values()) / len(classes),
        per_class_f1=per_class,
        n_instances=n,
    )


def rejection_curve(records, measure, classes, fractions, per_fold=False):
    """One fresh cut, and one three-pass evaluate, per fraction."""
    cut = per_fold_reject if per_fold else unsupervised_reject
    points = []
    for f in fractions:
        retained = cut(records, measure, f)[0]
        if not retained:
            points.append(CurvePoint(f, 0, float("nan"), float("nan"), False))
            continue
        report = evaluate(retained, classes)
        points.append(CurvePoint(f, len(retained), report.accuracy, report.macro_f, True))
    return RejectionCurve(measure=measure, points=tuple(points))


def _tree_prob(node, x):
    while "f" in node:
        node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
    return node["p"]


def forest_scores(state, X):
    return np.asarray([float(np.mean([_tree_prob(t, x) for t in state["trees"]])) for x in X])


def fit_linear_hinge(X, y01, hp, seed):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Z = (X - mean) / std
    y = np.where(y01 > 0, 1.0, -1.0)
    w = np.zeros(Z.shape[1])
    b = 0.0
    lr = float(hp["learning_rate"])
    lam = float(hp["l2"])
    rng = make_rng(seed)
    for _ in range(int(hp["epochs"])):
        for i in rng.permutation(len(y)):
            zi, yi = Z[int(i)], y[int(i)]
            if yi * (w @ zi + b) < 1.0:
                w = w - lr * (2.0 * lam * w - yi * zi)
                b = b + lr * yi
            else:
                w = w - lr * 2.0 * lam * w
    return {
        "weights": w.tolist(),
        "bias": float(b),
        "mean": mean.tolist(),
        "std": std.tolist(),
    }
