"""Slow reference versions of the rejection stage's fast paths.

Each function here is the straightforward loop that the library replaced:
a fresh sort of every record for each cut, one meta-feature row per
record, one Python walk per (record, tree) pair when scoring a forest, one
tree grown at a time with one Gini search per (node, feature) pair, three
passes over the pairs per class in ``evaluate``, the hinge fit's block
rule applied one record at a time, and a records CSV reader that checks
every cell on its own.
The library versions must give exactly the same results, so the property
tests compare them with ``==`` or byte equality, never a tolerance.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from veritas.errors import ConfigError, DataError, InvalidInput, child_rng, make_rng
from veritas.harness import _finite, records_header
from veritas.metrics import MetricsReport
from veritas.rejection import CurvePoint, RejectionCurve, make_record
from veritas.uncertainty import MEASURE_TABLE, UncertaintyBundle, measure_spec, uncertainty_value


def _check_cut(measure, retain_fraction):
    """The cuts' up-front checks: the fraction, then the measure."""
    if not 0.0 < retain_fraction <= 1.0:
        raise ConfigError(f"retain_fraction must be in (0, 1], got {retain_fraction}")
    measure_spec(measure)


def unsupervised_reject(records, measure, retain_fraction):
    _check_cut(measure, retain_fraction)
    if not records:
        return [], []
    n_remove = len(records) - math.floor(retain_fraction * len(records) + 1e-9)
    ranked = sorted(records, key=lambda r: (-uncertainty_value(r.bundle, measure), r.tree_id))
    removed = ranked[:n_remove]
    removed_ids = {id(r) for r in removed}
    retained = [r for r in records if id(r) not in removed_ids]
    return retained, removed


def random_reject(records, retain_fraction, seed=0):
    if not 0.0 < retain_fraction <= 1.0:
        raise ConfigError(f"retain_fraction must be in (0, 1], got {retain_fraction}")
    n = len(records)
    n_keep = math.floor(retain_fraction * n + 1e-9)
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
            points.append(CurvePoint(f, 0, float("nan"), float("nan")))
            continue
        report = evaluate(retained, classes)
        points.append(CurvePoint(f, len(retained), report.accuracy, report.macro_f))
    return RejectionCurve(measure=measure, points=tuple(points))


def meta_features(record):
    """One record's meta features: [aleatoric, variance, entropy, variation_ratio, probs..., one-hot pred]."""
    b = record.bundle
    one_hot = np.zeros(b.n_classes)
    one_hot[b.predicted_class] = 1.0
    return np.concatenate(
        [
            [b.aleatoric, b.variance, b.entropy, b.variation_ratio],
            list(b.mean_probs),
            one_hot,
        ]
    )


def _tree_prob(node, x):
    while "f" in node:
        node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
    return node["p"]


def forest_scores(state, X):
    return np.asarray([float(np.mean([_tree_prob(t, x) for t in state["trees"]])) for x in X])


def fit_linear_hinge(X, y01, hp, seed):
    """The block rule record by record.

    Record i's row is [y_i z_i, y_i], so the row times [w, b] is its
    margin. Each block of 64 records of the epoch's permutation takes its margins from
    one matrix-vector product under its starting [w, b], then adds its
    violators' rows one after another in permutation order, starting from
    zeros, and takes one step of lr times the block's summed per-record
    subgradients; the bias has no L2 penalty.
    """
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Z = (X - mean) / std
    y = np.where(y01 > 0, 1.0, -1.0)
    d = Z.shape[1]
    wb = np.zeros(d + 1)
    lr = float(hp["learning_rate"])
    penalty = np.array([2.0 * float(hp["l2"])] * d + [0.0])
    rng = make_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(hp["epochs"])):
            order = rng.permutation(len(y)).tolist()
            for start in range(0, len(y), 64):
                records = order[start : start + 64]
                block_rows = np.array([y[i] * np.append(Z[i], 1.0) for i in records])
                total = np.zeros(d + 1)
                for row, margin in zip(block_rows, block_rows @ wb):
                    if margin < 1.0:
                        total = total + row
                wb = wb - lr * (len(records) * penalty * wb - total)
    return {
        "weights": wb[:-1].tolist(),
        "bias": float(wb[-1]),
        "mean": mean.tolist(),
        "std": std.tolist(),
    }


def gini_best_split(x, y):
    """Best (threshold, weighted Gini) for one ordered feature, or None."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = len(ys)
    pos = np.cumsum(ys)
    total_pos = pos[-1]
    # split after position i: left = [0..i], right = [i+1..n-1]
    idx = np.nonzero(xs[:-1] < xs[1:])[0]
    if idx.size == 0:
        return None
    n_left = idx + 1.0
    n_right = n - n_left
    pos_left = pos[idx]
    pos_right = total_pos - pos_left
    p_l = pos_left / n_left
    p_r = pos_right / n_right
    gini = (n_left * 2.0 * p_l * (1.0 - p_l) + n_right * 2.0 * p_r * (1.0 - p_r)) / n
    best = int(np.argmin(gini))
    lo, hi = float(xs[idx[best]]), float(xs[idx[best] + 1])
    threshold = 0.5 * (lo + hi)
    if not threshold < hi:
        # adjacent doubles (or a sum that overflows): the midpoint is not
        # below hi, and x <= threshold would send both sides left
        threshold = lo
    return threshold, float(gini[best])


def grow_tree(X, y, rng, depth, max_depth, n_sub):
    n = len(y)
    mean = float(y.mean())
    if depth >= max_depth or n < 2 or mean in (0.0, 1.0):
        return {"p": mean}
    features = rng.choice(X.shape[1], size=n_sub, replace=False)
    best = None
    for f in sorted(int(f) for f in features):
        split = gini_best_split(X[:, f], y)
        if split is not None and (best is None or split[1] < best[2]):
            best = (f, split[0], split[1])
    if best is None:
        return {"p": mean}
    f, threshold, _ = best
    left = X[:, f] <= threshold
    return {
        "f": f,
        "t": threshold,
        "l": grow_tree(X[left], y[left], rng, depth + 1, max_depth, n_sub),
        "r": grow_tree(X[~left], y[~left], rng, depth + 1, max_depth, n_sub),
    }


def fit_forest(X, y01, hp, seed):
    """One tree after another, each grown depth first by recursion."""
    n = len(y01)
    n_boot = max(1, int(round(float(hp["bootstrap_fraction"]) * n)))
    n_sub = max(1, int(round(math.sqrt(X.shape[1]))))
    trees = []
    for i in range(int(hp["n_trees"])):
        rng = child_rng(seed, i)
        idx = rng.integers(0, n, size=n_boot)
        trees.append(grow_tree(X[idx], y01[idx], rng, 0, int(hp["max_depth"]), n_sub))
    return {"trees": trees}


def read_records_csv(path):
    """One finiteness check per cell, then np.argmax of the probabilities."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read records file {path}: {exc}") from exc
    if not rows:
        raise DataError(f"records file {path} is empty")
    header = rows[0]
    n_classes = sum(1 for col in header if col.startswith("p_"))
    if n_classes < 2 or header != records_header(n_classes):
        raise DataError(f"records file {path} has unexpected columns {header}")
    n_measures = len(MEASURE_TABLE)
    value_columns = header[3:-1]
    columns = {m.field: f"column {m.column}" for m in MEASURE_TABLE}
    columns.update({f"mean_probs[{k}]": f"column p_{k}" for k in range(n_classes)})
    columns["mean_probs"] = f"columns p_0..p_{n_classes - 1}"
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        values = [_finite(path, lineno, c, v) for c, v in zip(value_columns, row[3:-1])]
        probs = tuple(values[n_measures:])
        try:
            b = UncertaintyBundle(
                **{m.field: v for m, v in zip(MEASURE_TABLE, values)},
                mean_probs=probs,
                predicted_class=int(np.argmax(probs)),
            )
        except InvalidInput as exc:
            field, problem = str(exc).split(": ", 1)
            raise DataError(f"{path}:{lineno}: {columns[field]}: {problem}") from exc
        try:
            fold = int(row[-1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: column fold: {exc}") from exc
        records.append(make_record(row[0], row[1], row[2], b, fold))
    return records
