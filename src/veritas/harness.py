"""Experiment harness: cross-validation, prediction records, timelines.

Records aggregate deterministically (ordered by fold, then tree_id), and
every stochastic step derives its stream from explicit seeds, so a rerun
with the same inputs is byte-identical.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from typing import Sequence

from .data import ConversationTree, FoldSpec, HashingEmbedder, infer_classes, timeline_prefixes
from .errors import ConfigError, DataError, InvalidInput, csv_line, read_text, write_text
from .model import EpochStats, ModelParams, TrainingConfig, train
from .rejection import PredictionRecord, make_record
from .uncertainty import MEASURE_TABLE, UncertaintyBundle, UncertaintyConfig, bundle, uncertainty_value


@dataclass(frozen=True)
class CrossValResult:
    records: list[PredictionRecord]
    dev_records: dict[int, list[PredictionRecord]]
    models: dict[int, ModelParams]
    histories: dict[int, list[EpochStats]]
    classes: tuple[str, ...]


def _bundle(params: ModelParams, tree: ConversationTree, embedder, uq: UncertaintyConfig) -> UncertaintyBundle:
    """The tree's bundle under ``uq``: every scoring path of the harness runs this call."""
    return bundle(params, tree, embedder, uq.n_samples, uq.dropout_rate, seed=uq.seed, branch_level=uq.branch_level)


def _score_trees(
    params: ModelParams,
    trees: Sequence[ConversationTree],
    embedder,
    uq: UncertaintyConfig,
    classes: tuple[str, ...],
    fold: int,
) -> list[PredictionRecord]:
    records = []
    for tree in sorted(trees, key=lambda t: t.tree_id):
        b = _bundle(params, tree, embedder, uq)
        records.append(
            make_record(tree.tree_id, tree.label, classes[b.predicted_class], b, fold)
        )
    return records


def cross_validate(
    trees: Sequence[ConversationTree],
    folds: FoldSpec,
    config: TrainingConfig,
    uq: UncertaintyConfig | None = None,
    embedder=None,
    classes: tuple[str, ...] | None = None,
) -> CrossValResult:
    """Train and score one model per test fold.

    A dev fold named by ``folds`` joins neither training nor the test
    folds; instead each iteration's model also scores it, giving per-fold
    dev records for meta-classifier training.
    """
    if uq is None:
        uq = UncertaintyConfig()
    if embedder is None:
        embedder = HashingEmbedder()
    if classes is None:
        classes = infer_classes(trees)
    missing = [t.tree_id for t in trees if t.tree_id not in folds.assignments]
    if missing:
        raise ConfigError(f"trees without fold assignment: {missing[:5]}")

    by_fold: dict[int, list[ConversationTree]] = {}
    for tree in trees:
        by_fold.setdefault(folds.assignments[tree.tree_id], []).append(tree)

    dev_fold = folds.dev_fold
    test_folds = [f for f in folds.fold_ids() if f != dev_fold]
    records: list[PredictionRecord] = []
    dev_records: dict[int, list[PredictionRecord]] = {}
    models: dict[int, ModelParams] = {}
    histories: dict[int, list[EpochStats]] = {}
    for fold in test_folds:
        history: list[EpochStats] = []
        params = train(
            trees,
            folds,
            fold,
            config,
            embedder,
            dev_fold=dev_fold,
            classes=classes,
            history=history,
        )
        models[fold] = params
        histories[fold] = history
        records.extend(_score_trees(params, by_fold.get(fold, []), embedder, uq, classes, fold))
        if dev_fold is not None:
            dev_records[fold] = _score_trees(params, by_fold.get(dev_fold, []), embedder, uq, classes, fold)
    records.sort(key=lambda r: (r.fold, r.tree_id))
    return CrossValResult(
        records=records, dev_records=dev_records, models=models, histories=histories, classes=classes
    )


# ---------------------------------------------------------------------------
# records CSV


def _bundle_columns(n_classes: int) -> list[str]:
    """The measure columns, then one probability column per class."""
    return [m.column for m in MEASURE_TABLE] + [f"p_{i}" for i in range(n_classes)]


def _bundle_cells(b: UncertaintyBundle) -> list[str]:
    """Cells for _bundle_columns; repr keeps every float exact, and a bundle holds only finite ones."""
    return [repr(float(getattr(b, m.field))) for m in MEASURE_TABLE] + [repr(float(p)) for p in b.mean_probs]


def records_header(n_classes: int) -> list[str]:
    return ["tree_id", "label", "pred"] + _bundle_columns(n_classes) + ["fold"]


def write_records_csv(records: Sequence[PredictionRecord], path) -> None:
    if not records:
        raise ConfigError("write_records_csv needs at least one record")
    n_classes = records[0].bundle.n_classes
    lines = [csv_line(records_header(n_classes))]
    for r in records:
        if r.bundle.n_classes != n_classes:
            raise DataError(f"record {r.tree_id}: inconsistent class count")
        lines.append(csv_line([r.tree_id, r.gold, r.pred] + _bundle_cells(r.bundle) + [r.fold]))
    write_text(path, "".join(lines), "records file")


def _finite(path, lineno: int, column: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: column {column}: {cell!r} is not a finite number")
    return value


# One line of a file read with newline="": its text up to and with "\r\n", "\r" or "\n".
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def read_records_csv(path) -> list[PredictionRecord]:
    """Load a records CSV; a cell that is no finite number or a row that is no valid bundle is a DataError."""
    rows = list(csv.reader(_LINE.findall(read_text(path, "records file"))))
    if not rows:
        raise DataError(f"records file {path} is empty")
    header = rows[0]
    n_classes = sum(1 for col in header if col.startswith("p_"))
    if n_classes < 2 or header != records_header(n_classes):
        raise DataError(f"records file {path} has unexpected columns {header}")
    n_measures = len(MEASURE_TABLE)
    value_columns = header[3:-1]
    # UncertaintyBundle's InvalidInput starts with the field it refuses; name that field's column(s)
    columns = {m.field: f"column {m.column}" for m in MEASURE_TABLE}
    columns.update({f"mean_probs[{k}]": f"column p_{k}" for k in range(n_classes)})
    columns["mean_probs"] = f"columns p_0..p_{n_classes - 1}"
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        cells = row[3:-1]
        try:
            values = list(map(float, cells))
            finite = all(map(math.isfinite, values))
        except ValueError:
            finite = False
        if not finite:  # the per-cell check names the first bad cell
            values = [_finite(path, lineno, c, v) for c, v in zip(value_columns, cells)]
        probs = tuple(values[n_measures:])
        try:
            b = UncertaintyBundle(
                **{m.field: v for m, v in zip(MEASURE_TABLE, values)},
                mean_probs=probs,
                predicted_class=max(range(n_classes), key=probs.__getitem__),
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


def write_history_csv(history: Sequence[EpochStats], path) -> None:
    lines = ["epoch,loss_total,loss_ce,loss_sampled"]
    for row in history:
        lines.append(f"{row.epoch},{row.loss_total!r},{row.loss_ce!r},{row.loss_sampled!r}")
    write_text(path, "\n".join(lines) + "\n", "history file")


# ---------------------------------------------------------------------------
# timelines


@dataclass(frozen=True)
class TimelineStep:
    n_tweets: int
    predicted_class: int
    bundle: UncertaintyBundle
    added_stance: str | None


@dataclass(frozen=True)
class TimelineSeries:
    tree_id: str
    steps: tuple[TimelineStep, ...]

    def prediction_changes(self) -> int:
        preds = [s.predicted_class for s in self.steps]
        return sum(1 for a, b in zip(preds, preds[1:]) if a != b)


def timeline_report(
    params: ModelParams,
    tree: ConversationTree,
    embedder,
    uq: UncertaintyConfig | None = None,
) -> TimelineSeries:
    """Uncertainty bundle after each tweet arrives, in repaired time order.

    Every prefix keeps the tree's id and is scored with ``uq.seed``, so the
    final step equals the tree's whole-tree bundle and its records row.
    """
    if uq is None:
        uq = UncertaintyConfig()
    steps = []
    for prefix in timeline_prefixes(tree):
        b = _bundle(params, prefix, embedder, uq)
        steps.append(
            TimelineStep(
                n_tweets=prefix.size,
                predicted_class=b.predicted_class,
                bundle=b,
                added_stance=prefix.tweets[-1].stance,
            )
        )
    return TimelineSeries(tree_id=tree.tree_id, steps=tuple(steps))


def min_uncertainty_prediction(series: TimelineSeries, measure: str) -> int:
    """Class predicted at the least uncertain step; ties pick the latest."""
    if not series.steps:
        raise ConfigError("timeline series has no steps")
    best_idx = 0
    best_value = uncertainty_value(series.steps[0].bundle, measure)
    for i, step in enumerate(series.steps[1:], start=1):
        value = uncertainty_value(step.bundle, measure)
        if value <= best_value:
            best_idx, best_value = i, value
    return series.steps[best_idx].predicted_class


def timeline_to_csv(series: TimelineSeries) -> str:
    if not series.steps:
        raise ConfigError("timeline series has no steps")
    n_classes = series.steps[0].bundle.n_classes
    lines = [csv_line(["step", "n_tweets", "pred"] + _bundle_columns(n_classes) + ["added_stance"])]
    for i, step in enumerate(series.steps):
        stance = step.added_stance if step.added_stance is not None else ""
        lines.append(csv_line([i, step.n_tweets, step.predicted_class] + _bundle_cells(step.bundle) + [stance]))
    return "".join(lines)
