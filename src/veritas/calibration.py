"""Confidence calibration: expected calibration error and histogram binning.

Uncertainty values are first mapped to confidences in [0, 1]; the dev split
fixes any normalisation statistics and the binning map, and the test split
is scored before and after applying the map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataWarning, InvalidInput
from .rejection import PredictionRecord
from .uncertainty import UncertaintyBundle, measure_spec, uncertainty_value


@dataclass(frozen=True)
class ConfidenceRecord:
    confidence: float
    correct: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.confidence) or not 0.0 <= self.confidence <= 1.0:
            raise InvalidInput(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class NormalizationStats:
    """Dev-set min/max for measures without a fixed [0, 1] range."""

    lo: float
    hi: float


def aleatoric_stats(dev_records: Sequence[PredictionRecord]) -> NormalizationStats:
    values = [r.bundle.aleatoric for r in dev_records]
    if not values:
        raise ConfigError("aleatoric_stats needs at least one dev record")
    return NormalizationStats(lo=min(values), hi=max(values))


def to_confidence(
    bundle: UncertaintyBundle, measure: str, stats: NormalizationStats | None = None
) -> float:
    """Map one bundle's measure value to a confidence in [0, 1].

    The measure's ``confidence_map`` in MEASURE_TABLE picks the mapping.
    Confidences pass through; bounded uncertainties become 1 - value;
    entropies are scaled by their log(n_classes) ceiling first; the
    aleatoric variance is min-max normalised with dev stats (values clipped
    into the dev range). A degenerate dev range maps to 0.5 with a warning.
    """
    spec = measure_spec(measure)
    if spec.confidence_map == "clip":
        return float(min(1.0, max(0.0, getattr(bundle, spec.field))))
    u = uncertainty_value(bundle, measure)
    if spec.confidence_map == "dev_minmax":
        if stats is None:
            raise ConfigError(f"{measure} confidence needs dev-set normalisation stats")
        if stats.hi <= stats.lo:
            warnings.warn(
                f"degenerate {measure} dev range; confidence defaults to 0.5",
                DataWarning,
                stacklevel=2,
            )
            return 0.5
        u = (u - stats.lo) / (stats.hi - stats.lo)
    elif spec.confidence_map == "entropy":
        u = u / math.log(bundle.n_classes)
    return float(min(1.0, max(0.0, 1.0 - u)))


def confidence_records(
    records: Sequence[PredictionRecord],
    measure: str,
    stats: NormalizationStats | None = None,
) -> list[ConfidenceRecord]:
    return [
        ConfidenceRecord(confidence=to_confidence(r.bundle, measure, stats), correct=r.correct)
        for r in records
    ]


# ---------------------------------------------------------------------------
# binning


def bin_index(confidence: float, n_bins: int) -> int:
    """1-based bin of a confidence under right-inclusive equal-width bins.

    Bin m covers ((m-1)/M, m/M]; confidence 0 lands in bin 1.
    """
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    if confidence <= 0.0:
        return 1
    return min(n_bins, math.ceil(confidence * n_bins))


def ece(records: Sequence[ConfidenceRecord], n_bins: int = 10) -> float:
    """Expected calibration error: bin-weighted |accuracy - confidence|.

    Empty bins contribute zero.
    """
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    if not records:
        raise ConfigError("ece needs at least one record")
    total = 0.0
    n = len(records)
    grouped: dict[int, list[ConfidenceRecord]] = {}
    for r in records:
        grouped.setdefault(bin_index(r.confidence, n_bins), []).append(r)
    for members in grouped.values():
        acc = sum(1.0 for r in members if r.correct) / len(members)
        conf = sum(r.confidence for r in members) / len(members)
        total += (len(members) / n) * abs(acc - conf)
    return total


@dataclass(frozen=True)
class BinStats:
    count: int
    mean_confidence: float | None
    accuracy: float | None


def reliability_bins(records: Sequence[ConfidenceRecord], n_bins: int = 10) -> tuple[BinStats, ...]:
    """Per-bin count, mean confidence and accuracy; empty bins have None."""
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    grouped: dict[int, list[ConfidenceRecord]] = {}
    for r in records:
        grouped.setdefault(bin_index(r.confidence, n_bins), []).append(r)
    out = []
    for m in range(1, n_bins + 1):
        members = grouped.get(m)
        if not members:
            out.append(BinStats(0, None, None))
        else:
            out.append(
                BinStats(
                    count=len(members),
                    mean_confidence=sum(r.confidence for r in members) / len(members),
                    accuracy=sum(1.0 for r in members if r.correct) / len(members),
                )
            )
    return tuple(out)


@dataclass(frozen=True)
class CalibrationMap:
    """Histogram binning: bin -> calibrated confidence."""

    n_bins: int
    calibrated: tuple[float, ...]
    dev_counts: tuple[int, ...]


def fit_histogram_binning(dev_records: Sequence[ConfidenceRecord], n_bins: int = 10) -> CalibrationMap:
    """Calibrated value per bin = dev accuracy in that bin.

    Bins with no dev records fall back to the bin midpoint (identity).
    """
    if not dev_records:
        raise ConfigError("fit_histogram_binning needs a nonempty dev split")
    bins = reliability_bins(dev_records, n_bins)
    calibrated = []
    for m, stats in enumerate(bins, start=1):
        if stats.count == 0:
            calibrated.append((m - 0.5) / n_bins)
        else:
            calibrated.append(stats.accuracy)
    return CalibrationMap(n_bins=n_bins, calibrated=tuple(calibrated), dev_counts=tuple(b.count for b in bins))


def apply_calibration(cal_map: CalibrationMap, confidence) -> float | list[float]:
    """Calibrated confidence(s); accepts a scalar or an iterable."""
    if np.ndim(confidence) == 0:
        return cal_map.calibrated[bin_index(float(confidence), cal_map.n_bins) - 1]
    return [cal_map.calibrated[bin_index(float(c), cal_map.n_bins) - 1] for c in confidence]


def calibrate_records(cal_map: CalibrationMap, records: Sequence[ConfidenceRecord]) -> list[ConfidenceRecord]:
    return [
        ConfidenceRecord(confidence=apply_calibration(cal_map, r.confidence), correct=r.correct)
        for r in records
    ]


@dataclass(frozen=True)
class CalibrationReport:
    measure: str
    ece_before: float
    ece_after: float
    n_bins: int
    n_dev: int
    n_test: int

    def to_csv(self) -> str:
        return (
            "measure,ece_before,ece_after,n_bins,n_dev,n_test\n"
            f"{self.measure},{self.ece_before!r},{self.ece_after!r},"
            f"{self.n_bins},{self.n_dev},{self.n_test}\n"
        )


def calibration_report(
    dev_records: Sequence[PredictionRecord],
    test_records: Sequence[PredictionRecord],
    measure: str,
    n_bins: int = 10,
) -> CalibrationReport:
    """Fit binning on dev confidences, report test ECE before and after."""
    needs_stats = measure_spec(measure).confidence_map == "dev_minmax"
    stats = aleatoric_stats(dev_records) if needs_stats else None
    dev_conf = confidence_records(dev_records, measure, stats)
    test_conf = confidence_records(test_records, measure, stats)
    cal_map = fit_histogram_binning(dev_conf, n_bins)
    return CalibrationReport(
        measure=measure,
        ece_before=ece(test_conf, n_bins),
        ece_after=ece(calibrate_records(cal_map, test_conf), n_bins),
        n_bins=n_bins,
        n_dev=len(dev_conf),
        n_test=len(test_conf),
    )
