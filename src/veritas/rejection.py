"""Prediction rejection: keep the predictions worth trusting.

Unsupervised mode cuts the most uncertain fraction by a chosen measure.
Supervised mode trains a small meta-classifier (linear hinge or a
hand-rolled random forest) on development-set records to predict whether
the underlying prediction is correct, and drops the ones it flags. A
random baseline and a per-fold variant of the unsupervised cut round out
the options.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DataWarning
from .metrics import evaluate
from .nn import child_rng, make_rng, sigmoid
from .uncertainty import UncertaintyBundle, measure_spec

Array = np.ndarray


@dataclass(frozen=True)
class PredictionRecord:
    """One tree's gold label, prediction and uncertainty bundle."""

    tree_id: str
    gold: str
    pred: str
    correct: bool
    bundle: UncertaintyBundle
    fold: int

    def __post_init__(self) -> None:
        if self.correct != (self.gold == self.pred):
            raise DataError(
                f"record {self.tree_id}: correct={self.correct} contradicts "
                f"gold={self.gold!r} pred={self.pred!r}"
            )


def make_record(tree_id: str, gold: str, pred: str, bundle: UncertaintyBundle, fold: int) -> PredictionRecord:
    return PredictionRecord(
        tree_id=tree_id, gold=gold, pred=pred, correct=gold == pred, bundle=bundle, fold=fold
    )


# ---------------------------------------------------------------------------
# unsupervised / random


def _ranking(records: Sequence[PredictionRecord], measure: str, per_fold: bool) -> list[list[int]]:
    """Record positions from most to least uncertain, ties broken on tree_id.

    One list for all records, or one per fold in fold order when
    ``per_fold`` is set. A cut at fraction f removes the first
    ceil((1-f)*len) positions of every list. An unknown measure is a
    ConfigError even when there is nothing to rank.
    """
    spec = measure_spec(measure)
    if not records:
        return []
    keys = []
    for r in records:
        value = getattr(r.bundle, spec.field)
        u = 1.0 - value if spec.confidence else value
        keys.append((r.fold if per_fold else 0, -u, r.tree_id))
    order = sorted(range(len(records)), key=keys.__getitem__)
    return [list(group) for _, group in itertools.groupby(order, key=lambda i: keys[i][0])]


def _removed_positions(groups: list[list[int]], retain_fraction: float) -> list[list[int]]:
    return [g[: math.ceil((1.0 - retain_fraction) * len(g))] for g in groups]


def _split(
    records: Sequence[PredictionRecord], removed: list[list[int]]
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """(retained, removed), both in input order."""
    keep = [True] * len(records)
    for g in removed:
        for i in g:
            keep[i] = False
    return _partition(records, keep)


def _partition(
    records: Sequence[PredictionRecord], keep: Sequence[bool]
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """(records whose keep flag is set, the rest), both in input order."""
    return [r for r, k in zip(records, keep) if k], [r for r, k in zip(records, keep) if not k]


def _check_fraction(retain_fraction: float) -> None:
    if not 0.0 < retain_fraction <= 1.0:
        raise ConfigError(f"retain_fraction must be in (0, 1], got {retain_fraction}")


def unsupervised_reject(
    records: Sequence[PredictionRecord], measure: str, retain_fraction: float
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Remove the ceil((1-f)*n) most uncertain records by one measure.

    Ranking ties break on tree_id; the retained list keeps input order and
    the removed list is most uncertain first.
    """
    _check_fraction(retain_fraction)
    removed = _removed_positions(_ranking(records, measure, False), retain_fraction)
    retained, _ = _split(records, removed)
    return retained, [records[i] for g in removed for i in g]


def random_reject(
    records: Sequence[PredictionRecord], retain_fraction: float, seed: int = 0
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Keep a uniform floor(f*n) subsample, input order preserved."""
    _check_fraction(retain_fraction)
    n = len(records)
    keep = np.zeros(n, dtype=bool)
    keep[make_rng(seed).choice(n, size=math.floor(retain_fraction * n), replace=False)] = True
    return _partition(records, keep.tolist())


def per_fold_reject(
    records: Sequence[PredictionRecord], measure: str, retain_fraction: float
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Apply the unsupervised cut inside each fold, then pool.

    Both lists keep input order.
    """
    _check_fraction(retain_fraction)
    return _split(records, _removed_positions(_ranking(records, measure, True), retain_fraction))


# ---------------------------------------------------------------------------
# rejection curves


@dataclass(frozen=True)
class CurvePoint:
    retain_fraction: float
    n_remaining: int
    accuracy: float
    macro_f: float
    defined: bool


@dataclass(frozen=True)
class RejectionCurve:
    measure: str
    points: tuple[CurvePoint, ...]


DEFAULT_FRACTIONS = (1.0, 0.975, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5)


def curve_point(
    retain_fraction: float, retained: Sequence[PredictionRecord], classes: tuple[str, ...]
) -> CurvePoint:
    """Metrics over the retained records; an empty set is flagged undefined."""
    if not retained:
        return CurvePoint(retain_fraction, 0, float("nan"), float("nan"), False)
    report = evaluate(retained, classes)
    return CurvePoint(retain_fraction, len(retained), report.accuracy, report.macro_f, True)


def rejection_curve(
    records: Sequence[PredictionRecord],
    measure: str,
    classes: tuple[str, ...],
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    per_fold: bool = False,
) -> RejectionCurve:
    """Metrics over retained records at each retention fraction.

    Fractions must start at 1.0 and strictly decrease. An empty retained
    set yields a point flagged undefined rather than an error.
    """
    if not fractions or abs(fractions[0] - 1.0) > 1e-12:
        raise ConfigError("fractions must start at 1.0")
    if any(f2 >= f1 for f1, f2 in zip(fractions, fractions[1:])):
        raise ConfigError("fractions must be strictly decreasing")
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in (0, 1]")
    groups = _ranking(records, measure, per_fold)
    points = tuple(
        curve_point(f, _split(records, _removed_positions(groups, f))[0], classes) for f in fractions
    )
    return RejectionCurve(measure=measure, points=points)


def curve_to_csv(curve: RejectionCurve) -> str:
    lines = ["measure,retain_fraction,n_remaining,accuracy,macro_f"]
    for p in curve.points:
        acc = repr(p.accuracy) if p.defined else "nan"
        mf = repr(p.macro_f) if p.defined else "nan"
        lines.append(f"{curve.measure},{p.retain_fraction!r},{p.n_remaining},{acc},{mf}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# meta-classifier features


def meta_features(record: PredictionRecord) -> np.ndarray:
    """[aleatoric, variance, entropy, variation_ratio, probs..., one-hot pred]."""
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


def _feature_matrix(records: Sequence[PredictionRecord]) -> np.ndarray:
    return np.stack([meta_features(r) for r in records])


# ---------------------------------------------------------------------------
# linear hinge backend

LINEAR_DEFAULTS = {"l2": 1e-3, "epochs": 200, "learning_rate": 0.05}
FOREST_DEFAULTS = {"n_trees": 100, "max_depth": 8, "bootstrap_fraction": 1.0}


def _fit_linear_hinge(X: Array, y01: Array, hp: dict, seed: int) -> dict:
    """Subgradient descent on hinge loss with an L2 penalty.

    Features are z-scored with training-set statistics first.
    """
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Z = (X - mean) / std
    y = np.where(y01 > 0, 1.0, -1.0)
    w = np.zeros(Z.shape[1])
    b = 0.0
    lr = float(hp["learning_rate"])
    lam = float(hp["l2"])
    # Each scalar factor of the update is spread into a vector: a product
    # with a vector of c rounds like one with c but skips numpy's scalar
    # conversion. lr * 2.0 * lam is (lr * 2.0) * lam, as in w - lr*2.0*lam*w.
    # w.dot is the same BLAS dot as w @ z, with less call overhead.
    d = Z.shape[1]
    lr_v = np.full(d, lr)
    two_lam_v = np.full(d, 2.0 * lam)
    decay_v = np.full(d, lr * 2.0 * lam)
    rows = list(Z)
    signed_rows = list(y[:, None] * Z)
    labels = y.tolist()
    rng = make_rng(seed)
    for _ in range(int(hp["epochs"])):
        for i in rng.permutation(len(labels)).tolist():
            yi = labels[i]
            if yi * (w.dot(rows[i]) + b) < 1.0:
                w = w - lr_v * (two_lam_v * w - signed_rows[i])
                b = b + lr * yi
            else:
                w = w - decay_v * w
    return {
        "weights": w.tolist(),
        "bias": float(b),
        "mean": mean.tolist(),
        "std": std.tolist(),
    }


def _linear_scores(state: dict, X: Array) -> Array:
    w = np.asarray(state["weights"])
    mean = np.asarray(state["mean"])
    std = np.asarray(state["std"])
    margin = ((X - mean) / std) @ w + state["bias"]
    return np.asarray(sigmoid(margin), dtype=np.float64)


# ---------------------------------------------------------------------------
# random forest backend


def _gini_best_split(x: Array, y: Array) -> tuple[float, float] | None:
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


def _grow_tree(X: Array, y: Array, rng, depth: int, max_depth: int, n_sub: int):
    n = len(y)
    mean = float(y.mean())
    if depth >= max_depth or n < 2 or mean in (0.0, 1.0):
        return {"p": mean}
    features = rng.choice(X.shape[1], size=n_sub, replace=False)
    best = None
    for f in sorted(int(f) for f in features):
        split = _gini_best_split(X[:, f], y)
        if split is not None and (best is None or split[1] < best[2]):
            best = (f, split[0], split[1])
    if best is None:
        return {"p": mean}
    f, threshold, _ = best
    left = X[:, f] <= threshold
    return {
        "f": f,
        "t": threshold,
        "l": _grow_tree(X[left], y[left], rng, depth + 1, max_depth, n_sub),
        "r": _grow_tree(X[~left], y[~left], rng, depth + 1, max_depth, n_sub),
    }


def _fill_tree_probs(node: dict, X: Array, rows: Array, out: Array) -> None:
    """Write the leaf probability of each of X[rows] into out[rows]."""
    if "f" not in node:
        out[rows] = node["p"]
        return
    left = X[rows, node["f"]] <= node["t"]
    _fill_tree_probs(node["l"], X, rows[left], out)
    _fill_tree_probs(node["r"], X, rows[~left], out)


def _fit_forest(X: Array, y01: Array, hp: dict, seed: int) -> dict:
    """Bootstrap trees with Gini splits on raw (unscaled) features."""
    n = len(y01)
    n_boot = max(1, int(round(float(hp["bootstrap_fraction"]) * n)))
    n_sub = max(1, int(round(math.sqrt(X.shape[1]))))
    trees = []
    for i in range(int(hp["n_trees"])):
        rng = child_rng(seed, i)
        idx = rng.integers(0, n, size=n_boot)
        trees.append(_grow_tree(X[idx], y01[idx], rng, 0, int(hp["max_depth"]), n_sub))
    return {"trees": trees}


def _forest_scores(state: dict, X: Array) -> Array:
    """Mean leaf probability over the trees, one row of trees per record.

    Each row is contiguous, so its mean is the same pairwise sum that
    np.mean takes over one record's list of tree probabilities.
    """
    trees = state["trees"]
    probs = np.empty((len(X), len(trees)))
    rows = np.arange(len(X))
    for t, tree in enumerate(trees):
        _fill_tree_probs(tree, X, rows, probs[:, t])
    return probs.mean(axis=1)


# ---------------------------------------------------------------------------
# meta-classifier surface


@dataclass(frozen=True)
class MetaClassifier:
    """Predicts whether a base prediction is correct; score in [0, 1]."""

    backend: str
    state: dict
    n_classes: int
    n_features: int

    def scores(self, records: Sequence[PredictionRecord]) -> Array:
        if not records:
            return np.empty(0)
        X = _feature_matrix(records)
        if X.shape[1] != self.n_features:
            raise ConfigError(
                f"records have {X.shape[1]} features but the meta-classifier "
                f"was trained with {self.n_features} (class count mismatch?)"
            )
        if self.state.get("constant") is not None:
            return np.full(len(records), float(self.state["constant"]))
        if self.backend == "linear_hinge":
            return _linear_scores(self.state, X)
        return _forest_scores(self.state, X)

    def to_json(self) -> str:
        return json.dumps(
            {
                "backend": self.backend,
                "state": self.state,
                "n_classes": self.n_classes,
                "n_features": self.n_features,
            }
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_json(cls, text: str) -> "MetaClassifier":
        """Parse a saved meta-classifier; a state scores() cannot use is a DataError."""
        try:
            doc = json.loads(text)
            meta = cls(
                backend=str(doc["backend"]),
                state=doc["state"],
                n_classes=int(doc["n_classes"]),
                n_features=int(doc["n_features"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad meta-classifier JSON: {exc}") from exc
        _check_state(meta)
        return meta

    @classmethod
    def load(cls, path) -> "MetaClassifier":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _node_problem(root, n_features: int) -> str | None:
    """Why a forest tree is unusable, or None."""
    stack = [root]
    while stack:
        node = stack.pop()
        keys = set(node) if isinstance(node, dict) else None
        if keys == {"p"}:
            if not (_finite(node["p"]) and 0.0 <= node["p"] <= 1.0):
                return f"leaf value {node['p']!r} is not a number in [0, 1]"
        elif keys == {"f", "t", "l", "r"}:
            f = node["f"]
            if not (isinstance(f, int) and not isinstance(f, bool) and 0 <= f < n_features):
                return f"feature {f!r} is not an integer in [0, {n_features})"
            if not _finite(node["t"]):
                return f"threshold {node['t']!r} is not a finite number"
            stack += [node["l"], node["r"]]
        else:
            found = sorted(keys) if keys is not None else type(node).__name__
            return f"node {found} is neither a leaf {{p}} nor a split {{f, t, l, r}}"
    return None


def _check_state(meta: MetaClassifier) -> None:
    """Raise DataError unless the state fits the backend and n_features."""
    where = f"meta-classifier {meta.backend}"
    if meta.backend not in ("linear_hinge", "random_forest"):
        raise DataError(f"meta-classifier: unknown backend {meta.backend!r}")
    if meta.n_classes < 2 or meta.n_features != 4 + 2 * meta.n_classes:
        raise DataError(
            f"{where}: {meta.n_features} features do not fit {meta.n_classes} classes "
            "(4 measures, then probabilities and a one-hot prediction per class)"
        )
    state = meta.state
    if not isinstance(state, dict):
        raise DataError(f"{where}: state is not an object")
    if state.get("constant") is not None:
        if not (_finite(state["constant"]) and 0.0 <= state["constant"] <= 1.0):
            raise DataError(f"{where}: constant {state['constant']!r} is not a number in [0, 1]")
        return
    if meta.backend == "linear_hinge":
        for key in ("weights", "mean", "std"):
            values = state.get(key)
            if not (isinstance(values, list) and len(values) == meta.n_features and all(map(_finite, values))):
                raise DataError(f"{where}: {key} is not a list of {meta.n_features} finite numbers")
        if not all(v > 0 for v in state["std"]):
            raise DataError(f"{where}: std has a value that is not positive")
        if not _finite(state.get("bias")):
            raise DataError(f"{where}: bias {state.get('bias')!r} is not a finite number")
        return
    trees = state.get("trees")
    if not isinstance(trees, list) or not trees:
        raise DataError(f"{where}: trees is not a nonempty list")
    for i, tree in enumerate(trees):
        problem = _node_problem(tree, meta.n_features)
        if problem is not None:
            raise DataError(f"{where}: tree {i}: {problem}")


def train_meta(
    dev_records: Sequence[PredictionRecord],
    backend: str = "random_forest",
    hyperparams: dict | None = None,
    seed: int = 0,
) -> MetaClassifier:
    """Fit a correct-vs-incorrect meta-classifier on dev-set records.

    A single-class dev set degenerates to a constant predictor, with a
    warning.
    """
    if backend not in ("linear_hinge", "random_forest"):
        raise ConfigError(f"unknown meta backend {backend!r}")
    if not dev_records:
        raise ConfigError("train_meta needs at least one dev record")
    defaults = LINEAR_DEFAULTS if backend == "linear_hinge" else FOREST_DEFAULTS
    hp = dict(defaults)
    for key, value in (hyperparams or {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown {backend} hyperparameter {key!r}")
        if not _finite(value):
            raise ConfigError(f"{backend} hyperparameter {key!r} must be a finite number, got {value!r}")
        hp[key] = value
    X = _feature_matrix(dev_records)
    y01 = np.asarray([1.0 if r.correct else 0.0 for r in dev_records])
    if len(set(y01.tolist())) == 1:
        warnings.warn(
            "dev records are single-class; meta-classifier degenerates to a constant",
            DataWarning,
            stacklevel=2,
        )
        state = {"constant": float(y01[0])}
    elif backend == "linear_hinge":
        state = _fit_linear_hinge(X, y01, hp, seed)
    else:
        state = _fit_forest(X, y01, hp, seed)
    return MetaClassifier(
        backend=backend, state=state, n_classes=dev_records[0].bundle.n_classes, n_features=X.shape[1]
    )


def supervised_reject(
    meta: MetaClassifier, records: Sequence[PredictionRecord], threshold: float = 0.5
) -> tuple[list[PredictionRecord], list[PredictionRecord], int]:
    """Drop records the meta-classifier scores below the threshold."""
    if not (_finite(threshold) and 0.0 <= threshold <= 1.0):
        raise ConfigError(f"threshold must be a number in [0, 1], got {threshold!r}")
    retained, removed = _partition(records, (meta.scores(records) >= threshold).tolist())
    return retained, removed, len(removed)
