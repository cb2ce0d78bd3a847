"""Prediction rejection: keep the predictions worth trusting.

Unsupervised mode cuts the most uncertain fraction by a chosen measure.
Supervised mode trains a small meta-classifier (linear hinge or a
hand-rolled random forest) on development-set records to predict whether
the underlying prediction is correct, and drops the ones it flags. A
random baseline and a per-fold variant of the unsupervised cut round out
the options.

The forest grows its trees in lockstep. Each tree keeps its bootstrap,
its own generator and a depth-first stack of pending nodes. Every step
pops the next node of each unfinished tree, draws that node's features
from the tree's generator, and searches all the popped nodes for their
Gini-best split in one batch of array operations. Each generator makes
its draws in the same order as when one tree is grown at a time, and the
batched search computes each node's Gini values with the same elementwise
formula and breaks ties the same way. So the saved forest is byte for
byte the one a tree-at-a-time fit gives.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, DataWarning, InvalidInput
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
# the values each hyperparameter takes; an integral float such as 100.0 is an integer
_HYPERPARAM_RANGES = {
    "l2": ("a number >= 0", lambda v: v >= 0),
    "epochs": ("an integer >= 0", lambda v: v == int(v) and v >= 0),
    "learning_rate": ("a number > 0", lambda v: v > 0),
    "n_trees": ("an integer >= 1", lambda v: v == int(v) and v >= 1),
    "max_depth": ("an integer >= 0", lambda v: v == int(v) and v >= 0),
    "bootstrap_fraction": ("a number > 0", lambda v: v > 0),
}


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
    # a learning rate too large overflows; train_meta reports the result
    with np.errstate(over="ignore", invalid="ignore"):
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


# Node rows searched in one batched split step. A larger node is searched
# alone. The cap bounds the step's working arrays, never the result.
_SPLIT_ROWS = 2048


def _column_ranks(X: Array) -> Array:
    """Dense rank of every value within its column.

    Equal values share a rank (0.0 and -0.0 too) and NaN ranks last, so a
    stable sort on rank orders a column as a stable sort on value does.
    """
    ranks = np.empty(X.shape, dtype=np.int64)
    for c in range(X.shape[1]):
        ranks[:, c] = np.unique(X[:, c], return_inverse=True)[1]
    return ranks


def _stable_order(keys: Array) -> Array:
    """np.argsort(keys, kind="stable") for nonnegative int64 keys.

    Each key carries its position in its low bits, so all are distinct
    and one plain sort, much faster than a stable one, gives the order.
    Exact while the largest key times twice the length is below 2**63.
    """
    shift = len(keys).bit_length()
    return np.sort(keys << shift | np.arange(len(keys))) & ((1 << shift) - 1)


def _best_splits(X: Array, y01: Array, ranks: Array, node_rows: list, features: Array) -> list:
    """The Gini-best split of each node of one step, searched as one batch.

    Node k holds the rows node_rows[k] of X, in its own order, and searches
    the sorted features[k]. Each (node, feature) pair is a segment of
    values, and one stable sort on (segment, rank) sorts every segment as
    a per-node stable argsort would. Per node the result is None when no
    feature separates two values, else (feature, threshold, left rows,
    right rows, positives on the left), the children in node order. X and
    ranks are C-ordered; ranks is flat.
    """
    n_nodes, n_sub = features.shape
    values, d = X.ravel(), np.int64(X.shape[1])  # flat indices in int64 whatever the rows' type
    sizes = np.array([len(r) for r in node_rows])
    rows = np.concatenate(node_rows)
    # segment s = k * n_sub + j: node k's rows at its j-th feature
    seg_len = np.repeat(sizes, n_sub)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    seg = np.repeat(np.arange(len(seg_len)), seg_len)
    local = np.arange(seg_end[-1]) - np.repeat(seg_start, seg_len)
    at_row = np.repeat(np.repeat(np.cumsum(sizes) - sizes, n_sub), seg_len) + local
    flat = rows[at_row] * d + np.repeat(features.ravel(), seg_len)
    flat = flat[_stable_order(seg * (len(X) + 1) + ranks[flat])]
    xs, ys = values[flat], y01[flat // d]
    # a split after position i needs a larger value next in its segment;
    # the segment's first local[i] + 1 values go left
    valid = np.zeros(len(xs), dtype=bool)
    valid[:-1] = xs[:-1] < xs[1:]
    valid[seg_end - 1] = False
    at = np.flatnonzero(valid)
    s = seg[at]
    # positives before each segment and up to each split; exact for 0/1 labels
    cum = np.cumsum(ys)
    before = cum[seg_start] - ys[seg_start]
    n = seg_len[s]
    n_left = local[at] + 1.0
    n_right = n - n_left
    pos_left = cum[at] - before[s]
    pos_right = (cum[seg_end - 1] - before)[s] - pos_left
    p_l = pos_left / n_left
    p_r = pos_right / n_right
    gini = (n_left * 2.0 * p_l * (1.0 - p_l) + n_right * 2.0 * p_r * (1.0 - p_r)) / n
    # the first minimum of each node: its lowest sorted feature, then position
    counts = np.bincount(s // n_sub, minlength=n_nodes)
    starts = np.cumsum(counts) - counts
    split = counts > 0
    best = np.minimum.reduceat(np.append(gini, np.inf), starts)
    at_best = np.where(gini == np.repeat(best, counts), np.arange(len(gini)), len(gini))
    first = np.minimum.reduceat(np.append(at_best, len(gini)), starts)[split]
    lo, hi = xs[at[first]], xs[at[first] + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (lo + hi)
    # adjacent doubles (or a sum that overflows): the midpoint is not
    # below hi, and x <= midpoint would send both sides left
    feature = np.zeros(n_nodes, dtype=np.int64)
    feature[split] = flat[at[first]] % d
    threshold = np.zeros(n_nodes)
    threshold[split] = np.where(mid < hi, mid, lo)
    left_pos = np.zeros(n_nodes)
    left_pos[split] = pos_left[first]
    node = np.repeat(np.arange(n_nodes), sizes)
    side = 2 * node + ~(values[rows * d + feature[node]] <= threshold[node])
    ordered = rows[_stable_order(side)]
    ends = np.cumsum(np.bincount(side, minlength=2 * n_nodes)).tolist()
    children = [ordered[a:b].copy() for a, b in zip([0] + ends[:-1], ends)]
    return [
        (f, t, children[2 * k], children[2 * k + 1], int(p)) if has else None
        for k, (has, f, t, p) in enumerate(zip(split.tolist(), feature.tolist(), threshold.tolist(), left_pos.tolist()))
    ]


def _row_chunks(step: list):
    """Consecutive nodes of the step, at most _SPLIT_ROWS rows a chunk."""
    chunk, n_rows = [], 0
    for item in step:
        if chunk and n_rows + len(item[0]) > _SPLIT_ROWS:
            yield chunk
            chunk, n_rows = [], 0
        chunk.append(item)
        n_rows += len(item[0])
    if chunk:
        yield chunk


def _grow_trees(X: Array, y01: Array, jobs: Iterable, max_depth: int, n_sub: int) -> list:
    """One tree per (rows, rng) job, grown in lockstep.

    Each step pops every unfinished tree's next node in that tree's own
    depth-first preorder, left before right, draws its features from the
    tree's own generator, and searches all popped nodes in one batch. So
    each generator makes its draws in the order that growing one tree at
    a time by recursion makes them, and every tree comes out as it would
    alone. A node is a leaf at max_depth, below 2 rows, when pure, or when
    no feature splits it; its value is its share of positives. Only the
    stacks keep the jobs' rows, so a generator of jobs frees each root once
    it is split.
    """
    X = np.ascontiguousarray(X)
    ranks = _column_ranks(X).ravel()
    trees: list = []
    stacks, rngs = [], []
    for t, (rows, rng) in enumerate(jobs):
        trees.append(None)
        stacks.append([(rows, int(y01[rows].sum()), 0, trees, t)])
        rngs.append(rng)
    while True:
        step = []
        for stack, rng in zip(stacks, rngs):
            while stack:
                rows, pos, depth, parent, key = stack.pop()
                if depth >= max_depth or len(rows) < 2 or pos in (0, len(rows)):
                    parent[key] = {"p": pos / len(rows)}
                    continue
                features = np.sort(rng.choice(X.shape[1], size=n_sub, replace=False))
                step.append((rows, pos, depth, parent, key, stack, features))
                break
        if not step:
            return trees
        for chunk in _row_chunks(step):
            splits = _best_splits(X, y01, ranks, [item[0] for item in chunk], np.stack([item[6] for item in chunk]))
            for (rows, pos, depth, parent, key, stack, _), split in zip(chunk, splits):
                if split is None:
                    parent[key] = {"p": pos / len(rows)}
                    continue
                f, t, left, right, left_pos = split
                parent[key] = node = {"f": f, "t": t, "l": None, "r": None}
                stack.append((right, pos - left_pos, depth + 1, node, "r"))
                stack.append((left, left_pos, depth + 1, node, "l"))


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
    rngs = [child_rng(seed, i) for i in range(int(hp["n_trees"]))]
    # int32 rows halve the pending nodes' memory, which lockstep holds for every tree
    jobs = ((rng.integers(0, n, size=n_boot).astype(np.int32), rng) for rng in rngs)
    return {"trees": _grow_trees(X, y01, jobs, int(hp["max_depth"]), n_sub)}


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

    A hyperparameter outside its range is a ConfigError naming the backend
    and the key. A single-class dev set degenerates to a constant
    predictor, with a warning. A hinge fit that diverges to non-finite
    weights is an InvalidInput.
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
        rule, holds = _HYPERPARAM_RANGES[key]
        if not holds(value):
            raise ConfigError(f"{backend} hyperparameter {key!r} must be {rule}, got {value!r}")
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
        if not (all(map(_finite, state["weights"])) and _finite(state["bias"])):
            raise InvalidInput(
                "linear_hinge fit diverged: its weights or bias are not finite; "
                f"lower learning_rate (got {hp['learning_rate']!r})"
            )
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
