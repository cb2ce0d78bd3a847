"""Prediction rejection: keep the predictions worth trusting.

Unsupervised mode cuts the most uncertain fraction by a chosen measure.
Supervised mode trains a small meta-classifier (linear hinge or a
hand-rolled random forest) on development-set records to predict whether
the underlying prediction is correct, and drops the ones it flags. A
random baseline and a per-fold variant of the unsupervised cut round out
the options. Every cut keeps the count ``_kept`` gives.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DataWarning,
    InvalidInput,
    check_fields,
    check_value,
    child_rng,
    finite_number,
    is_integer,
    make_rng,
    read_text,
    write_text,
)
from .metrics import _cells, _class_index, _report, evaluate
from .nn import sigmoid
from .uncertainty import UncertaintyBundle, measure_spec

Array = np.ndarray


@dataclass(frozen=True)
class PredictionRecord:
    """One tree's gold label, prediction and uncertainty bundle."""

    tree_id: str
    gold: str
    pred: str
    bundle: UncertaintyBundle
    fold: int

    @property
    def correct(self) -> bool:
        return self.gold == self.pred


def make_record(tree_id: str, gold: str, pred: str, bundle: UncertaintyBundle, fold: int) -> PredictionRecord:
    return PredictionRecord(tree_id, gold, pred, bundle, fold)


# ---------------------------------------------------------------------------
# unsupervised / random


def _ranking(records: Sequence[PredictionRecord], measure: str, per_fold: bool) -> list[list[int]]:
    """Record positions from most to least uncertain, ties broken on tree_id.

    One list for all records, or one per fold in fold order when
    ``per_fold`` is set; a cut at fraction f removes the first
    ``len - _kept(len, f)`` positions of every list. An unknown measure is
    a ConfigError even when there is nothing to rank.
    """
    spec = measure_spec(measure)
    keys = [(r.fold if per_fold else 0, -spec.uncertainty(r.bundle), r.tree_id) for r in records]
    order = sorted(range(len(records)), key=keys.__getitem__)
    return [list(group) for _, group in itertools.groupby(order, key=lambda i: keys[i][0])]


def _kept(n: int, retain_fraction: float) -> int:
    """The one keep-count rule of every cut: floor(f*n) of n records.

    A product within 1e-9 of an integer counts as that integer, so 0.7 of
    90 keeps 63 although 0.7 * 90 is 62.99999999999999 in floats.
    """
    return math.floor(retain_fraction * n + 1e-9)


def _removed_positions(groups: list[list[int]], retain_fraction: float) -> list[list[int]]:
    return [g[: len(g) - _kept(len(g), retain_fraction)] for g in groups]


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
    check_value("retain_fraction", retain_fraction, "float", "(0, 1]")


def unsupervised_reject(
    records: Sequence[PredictionRecord], measure: str, retain_fraction: float
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Keep all but the most uncertain records by one measure, ``_kept(n, f)`` of n.

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
    """Keep a uniform subsample of ``_kept(n, f)`` records, input order preserved."""
    _check_fraction(retain_fraction)
    n = len(records)
    keep = np.zeros(n, dtype=bool)
    keep[make_rng(seed).choice(n, size=_kept(n, retain_fraction), replace=False)] = True
    return _partition(records, keep.tolist())


def per_fold_reject(
    records: Sequence[PredictionRecord], measure: str, retain_fraction: float
) -> tuple[list[PredictionRecord], list[PredictionRecord]]:
    """Apply the unsupervised cut inside each fold, then pool.

    Each fold of n records keeps ``_kept(n, f)``; both lists keep input order.
    """
    _check_fraction(retain_fraction)
    return _split(records, _removed_positions(_ranking(records, measure, True), retain_fraction))


# ---------------------------------------------------------------------------
# rejection curves


@dataclass(frozen=True)
class CurvePoint:
    """Metrics over the records a cut retains; NaN when it retains none."""

    retain_fraction: float
    n_remaining: int
    accuracy: float
    macro_f: float

    @property
    def defined(self) -> bool:
        return self.n_remaining > 0


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
        return CurvePoint(retain_fraction, 0, float("nan"), float("nan"))
    report = evaluate(retained, classes)
    return CurvePoint(retain_fraction, len(retained), report.accuracy, report.macro_f)


def rejection_curve(
    records: Sequence[PredictionRecord],
    measure: str,
    classes: tuple[str, ...],
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    per_fold: bool = False,
) -> RejectionCurve:
    """Metrics over retained records at each retention fraction.

    Fractions are real numbers, not bools or strings, and must start at 1.0
    and strictly decrease within (0, 1]. An empty retained
    set yields a point flagged undefined rather than an error. The records
    are ranked once and each one's (gold, pred) confusion cell counted at
    the first fraction whose cut removes it; what a cut retains is the
    total less the counts up to its fraction, which ``evaluate``'s report
    turns into metrics. A label outside ``classes`` is the DataError that
    ``evaluate`` raises on all the records.
    """
    for f in fractions:
        check_value("fraction", f, "float")
    fractions = [float(f) for f in fractions]  # a numpy float would reach curve_to_csv as "np.float64(…)"
    if not fractions or abs(fractions[0] - 1.0) > 1e-12:
        raise ConfigError("fractions must start at 1.0")
    if any(f2 >= f1 for f1, f2 in zip(fractions, fractions[1:])):
        raise ConfigError("fractions must be strictly decreasing")
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in (0, 1]")
    groups = _ranking(records, measure, per_fold)
    if not records:
        return RejectionCurve(measure, tuple(curve_point(f, [], classes) for f in fractions))
    n_cells = len(classes) ** 2
    pairs = [(r.gold, r.pred) for r in records]
    cell = _cells(dict.fromkeys(pairs), _class_index(classes), classes)
    codes = np.array([cell[pair] for pair in pairs])
    # the index of the first fraction whose cut reaches each record's rank
    leaves = np.empty(len(records), dtype=np.int64)
    for g in groups:
        leaves[g] = np.searchsorted([len(g) - _kept(len(g), f) for f in fractions], np.arange(len(g)), side="right")
    # row j: the confusion counts of the records that the cuts up to fraction j remove
    counts = np.bincount(leaves * n_cells + codes, minlength=(len(fractions) + 1) * n_cells)
    removed = counts.reshape(-1, n_cells).cumsum(axis=0)
    points = []
    for f, confusion in zip(fractions, (removed[-1] - removed[:-1]).tolist()):
        n = sum(confusion)
        if not n:
            points.append(curve_point(f, [], classes))
            continue
        report = _report(confusion, classes)
        points.append(CurvePoint(f, n, report.accuracy, report.macro_f))
    return RejectionCurve(measure=measure, points=tuple(points))


def curve_to_csv(curve: RejectionCurve) -> str:
    lines = ["measure,retain_fraction,n_remaining,accuracy,macro_f"]
    for p in curve.points:
        lines.append(f"{curve.measure},{p.retain_fraction!r},{p.n_remaining},{p.accuracy!r},{p.macro_f!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# meta-classifier features


def _n_features(n_classes: int) -> int:
    """The meta-feature count: 4 measures, then a probability and a one-hot prediction per class."""
    return 4 + 2 * n_classes


def _feature_matrix(records: Sequence[PredictionRecord]) -> np.ndarray:
    """The meta features of a nonempty list of records, one row each, filled by columns.

    A row is [aleatoric, variance, entropy, variation_ratio, mean_probs...,
    one-hot prediction...]; the class columns are the last 2k. A record
    whose class count differs from the first record's is a ConfigError.
    """
    bundles, k = [r.bundle for r in records], records[0].bundle.n_classes
    for r in records:
        if r.bundle.n_classes != k:
            raise ConfigError(
                f"record {r.tree_id} has {r.bundle.n_classes} classes but record {records[0].tree_id} has {k}"
            )
    X = np.zeros((len(bundles), _n_features(k)))
    X[:, : -2 * k] = [(b.aleatoric, b.variance, b.entropy, b.variation_ratio) for b in bundles]
    X[:, -2 * k : -k] = [b.mean_probs for b in bundles]
    X[np.arange(len(bundles)), [b.predicted_class - k for b in bundles]] = 1.0
    return X


# ---------------------------------------------------------------------------
# linear hinge backend

@dataclass(frozen=True)
class HingeHyperparams:
    l2: float = 1e-3
    epochs: int = 200
    learning_rate: float = 0.05

    def __post_init__(self) -> None:
        check_fields(self, l2="[0, inf)", epochs="[0, inf)", learning_rate="(0, inf)")


# records per subgradient step of the hinge fit: a constant, not a hyperparameter
_HINGE_BLOCK = 64


def _fit_linear_hinge(X: Array, y01: Array, hp: HingeHyperparams, seed: int) -> dict:
    """Subgradient descent on hinge loss with an L2 penalty, one step per block of records.

    Features are z-scored with training-set statistics first. Each epoch
    walks a permutation in blocks of _HINGE_BLOCK, the last maybe shorter. A
    block's step is the sum of its records' per-record steps, all taken from
    the block's starting (w, b).
    """
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Z = (X - mean) / std
    y = np.where(y01 > 0, 1.0, -1.0)
    lr = float(hp.learning_rate)
    # A record's row [y z, y] times [w, b] is its margin y (w.z + b). A
    # block's violator rows sum to both sums of its step, row after row, as
    # every row has at least two values. The bias has no L2 penalty.
    rows = y[:, None] * np.hstack([Z, np.ones((len(y), 1))])
    penalty = np.append(np.full(Z.shape[1], 2.0 * float(hp.l2)), 0.0)
    wb = np.zeros(Z.shape[1] + 1)
    rng = make_rng(seed)
    # a learning rate too large overflows; train_meta reports the result
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(hp.epochs)):
            shuffled = rows[rng.permutation(len(y))]
            for start in range(0, len(y), _HINGE_BLOCK):
                block = shuffled[start : start + _HINGE_BLOCK]
                wb = wb - lr * (len(block) * penalty * wb - block[block @ wb < 1.0].sum(axis=0))
    return {
        "weights": wb[:-1].tolist(),
        "bias": float(wb[-1]),
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
_SPLIT_ROWS = 4096


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


# sorted feature draws per refill of a tree's block: a constant, not a hyperparameter
_DRAW_BLOCK = 64


def _feature_draws(rng: np.random.Generator, d: int, k: int, count: int) -> Array:
    """Row i: the k of d, sorted, that the i-th of ``count`` successive ``rng.choice`` calls without replacement picks.

    Such a choice picks by Floyd's algorithm: for j = d-k ... d-1 a bounded
    draw in [0, j], or j if that value is already picked; then it shuffles
    the k picks with one bounded draw in [0, i] for i = k-1 ... 1. An
    array-bounded ``integers`` makes each draw with that bounded routine,
    rejections included, so the generator moves as the calls would move it;
    the sort makes the shuffle's order moot.
    """
    bounds = np.r_[np.arange(d - k, d), np.arange(k - 1, 0, -1)]
    picks = rng.integers(0, np.tile(bounds, count), endpoint=True).reshape(count, -1)[:, :k]
    for t in range(1, k):
        picks[(picks[:, :t] == picks[:, t : t + 1]).any(axis=1), t] = d - k + t
    return np.sort(picks, axis=1)


def _feature_rows(rng: np.random.Generator, d: int, k: int):
    """A tree's endless sorted feature draws, made _DRAW_BLOCK at a time."""
    while True:
        yield from _feature_draws(rng, d, k, _DRAW_BLOCK)


def _grow_trees(X: Array, y01: Array, jobs: Iterable, max_depth: int, n_sub: int) -> list:
    """One tree per (rows, rng) job, grown in lockstep.

    Each step pops every unfinished tree's next node in that tree's own
    depth-first preorder, left before right, takes its features from the
    tree's next sorted draw, and searches all popped nodes in one batch.
    The draws come _DRAW_BLOCK at a time from the tree's own generator,
    exactly as per-node ``choice`` calls would make them. So each tree
    gets the features that growing one tree at a time by recursion gives
    it, and comes out as it would alone. The last block may draw more than
    the tree uses, so a job's generator must serve nothing after. A node
    is a leaf at max_depth, below 2 rows, when pure, or when no feature
    splits it; its value is its share of positives. Only the
    stacks keep the jobs' rows, so a generator of jobs frees each root once
    it is split.
    """
    X = np.ascontiguousarray(X)
    ranks = _column_ranks(X).ravel()
    trees: list = []
    stacks, draws = [], []
    for t, (rows, rng) in enumerate(jobs):
        trees.append(None)
        stacks.append([(rows, int(y01[rows].sum()), 0, trees, t)])
        draws.append(_feature_rows(rng, X.shape[1], n_sub))
    while True:
        step = []
        for stack, tree_draws in zip(stacks, draws):
            while stack:
                rows, pos, depth, parent, key = stack.pop()
                if depth >= max_depth or len(rows) < 2 or pos in (0, len(rows)):
                    parent[key] = {"p": pos / len(rows)}
                    continue
                step.append((rows, pos, depth, parent, key, stack, next(tree_draws)))
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


@dataclass(frozen=True)
class ForestHyperparams:
    n_trees: int = 100
    max_depth: int = 8
    bootstrap_fraction: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, n_trees="[1, inf)", max_depth="[0, inf)", bootstrap_fraction="(0, inf)")


def _fit_forest(X: Array, y01: Array, hp: ForestHyperparams, seed: int) -> dict:
    """Bootstrap trees with Gini splits on raw (unscaled) features."""
    n = len(y01)
    n_boot = max(1, int(round(float(hp.bootstrap_fraction) * n)))
    n_sub = max(1, int(round(math.sqrt(X.shape[1]))))
    rngs = [child_rng(seed, i) for i in range(int(hp.n_trees))]
    # int32 rows halve the pending nodes' memory, which lockstep holds for every tree
    jobs = ((rng.integers(0, n, size=n_boot).astype(np.int32), rng) for rng in rngs)
    return {"trees": _grow_trees(X, y01, jobs, int(hp.max_depth), n_sub)}


def _node_arrays(tree: dict) -> tuple[Array, Array, Array, Array, Array, int]:
    """A tree's nodes in breadth-first order: feature, threshold, left, right, leaf value, and the tree's depth.

    Node i sends x to left[i] when x[feature[i]] <= threshold[i], else to
    right[i]. A leaf is both of its own children, so a walk that reaches it
    stays there.
    """
    nodes, table = [tree], []
    depth, level_end = 0, 1  # level_end: the index of the next level's first node
    for i, node in enumerate(nodes):
        if i == level_end:
            depth, level_end = depth + 1, len(nodes)
        if "f" in node:
            table.append((node["f"], node["t"], len(nodes), len(nodes) + 1, 0.0))
            nodes += (node["l"], node["r"])
        else:
            table.append((0, 0.0, i, i, node["p"]))
    feature, threshold, left, right, value = zip(*table)
    arrays = np.array(feature), np.array(threshold, dtype=float), np.array(left), np.array(right)
    return *arrays, np.array(value, dtype=float), depth


def _forest_scores(state: dict, X: Array) -> Array:
    """Mean leaf probability over the trees, one row of trees per record.

    Each tree moves all rows one level down per step. Each row of the
    probabilities is contiguous, so its mean is the same pairwise sum that
    np.mean takes over one record's list of tree probabilities.
    """
    trees = state["trees"]
    probs = np.empty((len(X), len(trees)))
    values, row_start = np.ascontiguousarray(X).ravel(), np.arange(len(X)) * X.shape[1]
    for t, tree in enumerate(trees):
        feature, threshold, left, right, value, depth = _node_arrays(tree)
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(depth):
            node = np.where(values[row_start + feature[node]] <= threshold[node], left[node], right[node])
        probs[:, t] = value[node]
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
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)})

    def save(self, path) -> None:
        write_text(path, self.to_json(), "meta-classifier")

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
        except (json.JSONDecodeError, RecursionError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"bad meta-classifier JSON: {exc}") from exc
        _check_state(meta)
        return meta

    @classmethod
    def load(cls, path) -> "MetaClassifier":
        """Read a saved meta-classifier; an unreadable or bad file is a DataError naming it."""
        text = read_text(path, "meta-classifier")
        try:
            return cls.from_json(text)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _node_problem(root, n_features: int) -> str | None:
    """Why a forest tree is unusable, or None."""
    stack = [root]
    while stack:
        node = stack.pop()
        keys = set(node) if isinstance(node, dict) else None
        if keys == {"p"}:
            if not (finite_number(node["p"]) and 0.0 <= node["p"] <= 1.0):
                return f"leaf value {node['p']!r} is not a number in [0, 1]"
        elif keys == {"f", "t", "l", "r"}:
            f = node["f"]
            if not (is_integer(f) and 0 <= f < n_features):
                return f"feature {f!r} is not an integer in [0, {n_features})"
            if not finite_number(node["t"]):
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
    if meta.n_classes < 2 or meta.n_features != _n_features(meta.n_classes):
        raise DataError(
            f"{where}: {meta.n_features} features do not fit {meta.n_classes} classes "
            "(4 measures, then probabilities and a one-hot prediction per class)"
        )
    state = meta.state
    if not isinstance(state, dict):
        raise DataError(f"{where}: state is not an object")
    if state.get("constant") is not None:
        if not (finite_number(state["constant"]) and 0.0 <= state["constant"] <= 1.0):
            raise DataError(f"{where}: constant {state['constant']!r} is not a number in [0, 1]")
        return
    if meta.backend == "linear_hinge":
        for key in ("weights", "mean", "std"):
            values = state.get(key)
            if not (isinstance(values, list) and len(values) == meta.n_features and all(map(finite_number, values))):
                raise DataError(f"{where}: {key} is not a list of {meta.n_features} finite numbers")
        if not all(v > 0 for v in state["std"]):
            raise DataError(f"{where}: std has a value that is not positive")
        if not finite_number(state.get("bias")):
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

    A hyperparameter that is unknown or breaks its ``HingeHyperparams`` or
    ``ForestHyperparams`` rule is a ConfigError naming the backend and the
    key. The meta features are finite, because a bundle is. A single-class
    dev set degenerates to a constant predictor, with a warning. A hinge fit
    that diverges to non-finite weights is an InvalidInput.
    """
    if backend not in ("linear_hinge", "random_forest"):
        raise ConfigError(f"unknown meta backend {backend!r}")
    if not dev_records:
        raise ConfigError("train_meta needs at least one dev record")
    kind = HingeHyperparams if backend == "linear_hinge" else ForestHyperparams
    for key in hyperparams or {}:
        if key not in {f.name for f in fields(kind)}:
            raise ConfigError(f"unknown {backend} hyperparameter {key!r}")
    try:
        hp = kind(**(hyperparams or {}))
    except ConfigError as exc:
        raise ConfigError(f"{backend} hyperparameter {exc}") from exc
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
        if not (all(map(finite_number, state["weights"])) and finite_number(state["bias"])):
            raise InvalidInput(
                "linear_hinge fit diverged: its weights or bias are not finite; "
                f"lower learning_rate (got {hp.learning_rate!r})"
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
    check_value("threshold", threshold, "float", "[0, 1]")
    retained, removed = _partition(records, (meta.scores(records) >= threshold).tolist())
    return retained, removed, len(removed)
