"""Experiment harness: cross-validation, prediction records, timelines.

Records aggregate deterministically (ordered by fold, then tree_id), and
every stochastic step derives its stream from explicit seeds, so a rerun
with the same inputs is byte-identical.
"""

from __future__ import annotations

import csv
import io
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import ConversationTree, FoldSpec, HashingEmbedder, infer_classes, repaired_order, timeline_prefixes
from .errors import ConfigError, DataError
from .model import EpochStats, ModelParams, TrainingConfig, train
from .rejection import PredictionRecord, make_record
from .uncertainty import MEASURE_TABLE, UncertaintyBundle, UncertaintyConfig, bundle, uncertainty_value


def _tree_seed(base_seed: int, tree_id: str) -> int:
    """Stable per-tree stream id; independent of processing order."""
    return (int(base_seed) << 32) + zlib.crc32(tree_id.encode("utf-8"))


@dataclass(frozen=True)
class CrossValResult:
    records: list[PredictionRecord]
    dev_records: dict[int, list[PredictionRecord]]
    models: dict[int, ModelParams]
    histories: dict[int, list[EpochStats]]
    classes: tuple[str, ...]


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
        b = bundle(
            params,
            tree,
            embedder,
            uq.n_samples,
            uq.dropout_rate,
            seed=_tree_seed(uq.seed, tree.tree_id),
            branch_level=uq.branch_level,
        )
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
    with_dev: bool = False,
    classes: tuple[str, ...] | None = None,
) -> CrossValResult:
    """Train and score one model per test fold.

    With ``with_dev`` the dev fold joins neither training nor the test
    folds; instead each iteration's model also scores it, giving per-fold
    dev records for meta-classifier training.
    """
    if uq is None:
        uq = UncertaintyConfig()
    if embedder is None:
        embedder = HashingEmbedder()
    if classes is None:
        classes = infer_classes(trees)
    if with_dev and folds.dev_fold is None:
        raise ConfigError("with_dev needs a fold file with a dev fold")
    missing = [t.tree_id for t in trees if t.tree_id not in folds.assignments]
    if missing:
        raise ConfigError(f"trees without fold assignment: {missing[:5]}")

    by_fold: dict[int, list[ConversationTree]] = {}
    for tree in trees:
        by_fold.setdefault(folds.assignments[tree.tree_id], []).append(tree)

    test_folds = [f for f in folds.fold_ids() if not (with_dev and f == folds.dev_fold)]
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
            dev_fold=folds.dev_fold if with_dev else None,
            classes=classes,
            history=history,
        )
        models[fold] = params
        histories[fold] = history
        records.extend(_score_trees(params, by_fold.get(fold, []), embedder, uq, classes, fold))
        if with_dev:
            dev_trees = by_fold.get(folds.dev_fold, [])
            dev_records[fold] = _score_trees(params, dev_trees, embedder, uq, classes, fold)
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
    """Cells for _bundle_columns; repr keeps every float exact."""
    return [repr(float(getattr(b, m.field))) for m in MEASURE_TABLE] + [
        repr(float(p)) for p in b.mean_probs
    ]


def records_header(n_classes: int) -> list[str]:
    return ["tree_id", "label", "pred"] + _bundle_columns(n_classes) + ["fold"]


def write_records_csv(records: Sequence[PredictionRecord], path) -> None:
    if not records:
        raise ConfigError("write_records_csv needs at least one record")
    n_classes = records[0].bundle.n_classes
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(records_header(n_classes))
    for r in records:
        if r.bundle.n_classes != n_classes:
            raise DataError(f"record {r.tree_id}: inconsistent class count")
        writer.writerow([r.tree_id, r.gold, r.pred] + _bundle_cells(r.bundle) + [r.fold])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _finite(path, lineno: int, column: str, cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"{path}:{lineno}: column {column}: {cell!r} is not a finite number")
    return value


def read_records_csv(path) -> list[PredictionRecord]:
    """Load a records CSV, rejecting non-finite values and non-probability rows."""
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
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        values = [_finite(path, lineno, c, v) for c, v in zip(value_columns, row[3:-1])]
        probs = tuple(values[n_measures:])
        for column, p in zip(value_columns[n_measures:], probs):
            if p < 0.0:
                raise DataError(f"{path}:{lineno}: column {column}: negative probability {p!r}")
        total = sum(probs)
        if abs(total - 1.0) > 1e-6:
            raise DataError(
                f"{path}:{lineno}: columns p_0..p_{n_classes - 1}: "
                f"probabilities sum to {total!r}, not 1"
            )
        try:
            fold = int(row[-1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: column fold: {exc}") from exc
        b = UncertaintyBundle(
            **{m.field: v for m, v in zip(MEASURE_TABLE, values)},
            mean_probs=probs,
            predicted_class=int(np.argmax(probs)),
        )
        records.append(make_record(row[0], row[1], row[2], b, fold))
    return records


def write_history_csv(history: Sequence[EpochStats], path) -> None:
    lines = ["epoch,loss_total,loss_ce,loss_sampled"]
    for row in history:
        lines.append(f"{row.epoch},{row.loss_total!r},{row.loss_ce!r},{row.loss_sampled!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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

    Every prefix is scored with the same seed, so the final step matches a
    whole-tree bundle computed with that seed exactly.
    """
    if uq is None:
        uq = UncertaintyConfig()
    order = repaired_order(tree)
    steps = []
    for k, prefix in enumerate(timeline_prefixes(tree)):
        b = bundle(
            params,
            prefix,
            embedder,
            uq.n_samples,
            uq.dropout_rate,
            seed=uq.seed,
            branch_level=uq.branch_level,
        )
        steps.append(
            TimelineStep(
                n_tweets=prefix.size,
                predicted_class=b.predicted_class,
                bundle=b,
                added_stance=order[k].stance,
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "n_tweets", "pred"] + _bundle_columns(n_classes) + ["added_stance"])
    for i, step in enumerate(series.steps):
        stance = step.added_stance if step.added_stance is not None else ""
        writer.writerow([i, step.n_tweets, step.predicted_class] + _bundle_cells(step.bundle) + [stance])
    return buf.getvalue()
