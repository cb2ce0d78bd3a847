"""Prediction rejection: keep the predictions worth trusting.

Unsupervised mode cuts the most uncertain fraction by a chosen measure.
Supervised mode trains a small meta-classifier (linear hinge or a
hand-rolled random forest) on development-set records to predict whether
the underlying prediction is correct, and drops the ones it flags. A
random baseline and a per-fold variant of the unsupervised cut round out
the options.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, DataWarning
from .metrics import evaluate
from .nn import child_rng, make_rng, sigmoid
from .uncertainty import UncertaintyBundle, uncertainty_value

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


def unsupervised_reject(
    records: Sequence[PredictionRecord], measure: str, retain_fraction: float
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Remove the ceil((1-f)*n) most uncertain records by one measure.

    Ranking ties break on tree_id; the retained list keeps input order.
    """
    if not 0.0 < retain_fraction <= 1.0:
        raise ConfigError(f"retain_fraction must be in (0, 1], got {retain_fraction}")
    if not records:
        return [], []
    n_remove = math.ceil((1.0 - retain_fraction) * len(records))
    ranked = sorted(records, key=lambda r: (-uncertainty_value(r.bundle, measure), r.tree_id))
    removed = ranked[:n_remove]
    removed_ids = {id(r) for r in removed}
    retained = [r for r in records if id(r) not in removed_ids]
    return retained, removed


def random_reject(
    records: Sequence[PredictionRecord], retain_fraction: float, seed: int = 0
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Keep a uniform floor(f*n) subsample, input order preserved."""
    if not 0.0 < retain_fraction <= 1.0:
        raise ConfigError(f"retain_fraction must be in (0, 1], got {retain_fraction}")
    n = len(records)
    n_keep = math.floor(retain_fraction * n)
    keep = np.sort(make_rng(seed).choice(n, size=n_keep, replace=False))
    keep_set = set(int(i) for i in keep)
    retained = [r for i, r in enumerate(records) if i in keep_set]
    removed = [r for i, r in enumerate(records) if i not in keep_set]
    return retained, removed


def per_fold_reject(
    records: Sequence[PredictionRecord], measure: str, retain_fraction: float
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Apply the unsupervised cut inside each fold, then pool."""
    folds = sorted({r.fold for r in records})
    removed_ids: set[int] = set()
    for fold in folds:
        fold_records = [r for r in records if r.fold == fold]
        _, removed = unsupervised_reject(fold_records, measure, retain_fraction)
        removed_ids.update(id(r) for r in removed)
    retained = [r for r in records if id(r) not in removed_ids]
    removed_all = [r for r in records if id(r) in removed_ids]
    return retained, removed_all


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
    cut = per_fold_reject if per_fold else unsupervised_reject
    points = tuple(curve_point(f, cut(records, measure, f)[0], classes) for f in fractions)
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
    threshold = 0.5 * (xs[idx[best]] + xs[idx[best] + 1])
    return float(threshold), float(gini[best])


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


def _tree_prob(node: dict, x: Array) -> float:
    while "f" in node:
        node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
    return node["p"]


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
    return np.asarray(
        [float(np.mean([_tree_prob(t, x) for t in state["trees"]])) for x in X]
    )


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
        try:
            doc = json.loads(text)
            return cls(
                backend=str(doc["backend"]),
                state=doc["state"],
                n_classes=int(doc["n_classes"]),
                n_features=int(doc["n_features"]),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad meta-classifier JSON: {exc}") from exc

    @classmethod
    def load(cls, path) -> "MetaClassifier":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


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
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    scores = meta.scores(records)
    retained = [r for r, s in zip(records, scores) if s >= threshold]
    removed = [r for r, s in zip(records, scores) if s < threshold]
    return retained, removed, len(removed)
