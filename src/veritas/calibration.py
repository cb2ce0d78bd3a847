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

from .errors import ConfigError, DataWarning, InvalidInput, check_value
from .rejection import PredictionRecord
from .uncertainty import UncertaintyBundle, measure_spec


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
    """Map one bundle's measure value to a confidence in [0, 1] by the measure's ``confidence_map``.

    The dev stats min-max scale a "dev_minmax" measure; a degenerate dev
    range maps to 0.5 with a warning.
    """
    return float(_confidences([bundle], measure, stats)[0])


def _clip01(x: np.ndarray) -> np.ndarray:
    """``min(1.0, max(0.0, x))`` elementwise: NaN and -0.0 become 0.0."""
    return np.where(x > 0.0, np.minimum(x, 1.0), 0.0)


def _confidences(
    bundles: Sequence[UncertaintyBundle], measure: str, stats: NormalizationStats | None
) -> np.ndarray:
    """``to_confidence`` of each bundle, mapped as one array.

    Each value gets the arithmetic a Python float would, and no warning:
    an inf or NaN it makes is clipped like any other value. The
    degenerate-range warning is given once per call, not per bundle.
    """
    spec = measure_spec(measure)
    values = np.array([getattr(b, spec.field) for b in bundles], dtype=np.float64)
    if spec.confidence_map == "clip":
        return _clip01(values)
    if spec.confidence_map == "dev_minmax":
        if stats is None:
            raise ConfigError(f"{measure} confidence needs dev-set normalisation stats")
        if stats.hi <= stats.lo:
            if len(bundles):
                warnings.warn(
                    f"degenerate {measure} dev range; confidence defaults to 0.5",
                    DataWarning,
                    stacklevel=3,
                )
            return np.full(len(bundles), 0.5)
        with np.errstate(all="ignore"):
            values = (values - stats.lo) / (stats.hi - stats.lo)
    elif spec.confidence_map == "entropy":
        ceilings = np.array([math.log(b.n_classes) for b in bundles])
        with np.errstate(all="ignore"):
            values = values / ceilings
    return _clip01(1.0 - values)


def confidence_records(
    records: Sequence[PredictionRecord],
    measure: str,
    stats: NormalizationStats | None = None,
) -> list[ConfidenceRecord]:
    conf = _confidences([r.bundle for r in records], measure, stats)
    return [ConfidenceRecord(confidence=float(c), correct=r.correct) for c, r in zip(conf, records)]


# ---------------------------------------------------------------------------
# binning


def bin_index(confidence: float, n_bins: int) -> int:
    """1-based bin of a confidence under right-inclusive equal-width bins.

    Bin m covers ((m-1)/M, m/M]; confidence 0 lands in bin 1. A
    confidence below 0 is in bin 1 and one above 1 in bin M; a non-finite
    one is an InvalidInput.
    """
    return int(_bin_numbers(np.array([confidence], dtype=np.float64), n_bins)[0])


def ece(records: Sequence[ConfidenceRecord], n_bins: int = 10) -> float:
    """Expected calibration error: sum of (count/n)·|accuracy - mean confidence|.

    The sum runs over ``reliability_bins`` in bin order; empty bins
    contribute zero. The result does not depend on the order of records.
    """
    return _ece(*_columns(records), n_bins)


@dataclass(frozen=True)
class BinStats:
    count: int
    mean_confidence: float | None
    accuracy: float | None


def reliability_bins(records: Sequence[ConfidenceRecord], n_bins: int = 10) -> tuple[BinStats, ...]:
    """Per-bin count, mean confidence and accuracy; empty bins have None.

    A bin's confidences are summed with ``math.fsum``, which rounds once,
    so no statistic depends on the order of records.
    """
    return _bin_stats(*_columns(records), n_bins)


def _columns(records: Sequence[ConfidenceRecord]) -> tuple[np.ndarray, np.ndarray]:
    conf = np.array([r.confidence for r in records], dtype=np.float64)
    return conf, np.array([r.correct for r in records], dtype=bool)


def _bin_numbers(conf: np.ndarray, n_bins: int) -> np.ndarray:
    """The one binning rule: ``bin_index`` of each confidence, ``ceil(conf * n_bins)`` within [1, n_bins]."""
    check_value("n_bins", n_bins, "int", "[1, inf)")
    if not np.isfinite(conf).all():
        raise InvalidInput(f"confidence must be a finite number, got {float(conf[~np.isfinite(conf)][0])!r}")
    return np.maximum(np.ceil(np.clip(conf, 0.0, 1.0) * n_bins), 1).astype(np.intp)


def _bin_stats(conf: np.ndarray, correct: np.ndarray, n_bins: int) -> tuple[BinStats, ...]:
    """``reliability_bins`` of confidences in [0, 1] and their correct flags."""
    bins = _bin_numbers(conf, n_bins)
    out = []
    for m in range(1, n_bins + 1):
        members = bins == m
        count = int(np.count_nonzero(members))
        if not count:
            out.append(BinStats(0, None, None))
        else:
            out.append(
                BinStats(
                    count=count,
                    mean_confidence=math.fsum(conf[members].tolist()) / count,
                    accuracy=int(np.count_nonzero(correct[members])) / count,
                )
            )
    return tuple(out)


def _ece(conf: np.ndarray, correct: np.ndarray, n_bins: int) -> float:
    bins = _bin_stats(conf, correct, n_bins)
    n = len(conf)
    if not n:
        raise ConfigError("ece needs at least one record")
    return sum((b.count / n) * abs(b.accuracy - b.mean_confidence) for b in bins if b.count)


@dataclass(frozen=True)
class CalibrationMap:
    """Histogram binning: bin m -> calibrated confidence ``calibrated[m - 1]``."""

    calibrated: tuple[float, ...]
    dev_counts: tuple[int, ...]

    @property
    def n_bins(self) -> int:
        return len(self.calibrated)


def fit_histogram_binning(dev_records: Sequence[ConfidenceRecord], n_bins: int = 10) -> CalibrationMap:
    """Calibrated value per bin = dev accuracy in that bin.

    Bins with no dev records fall back to the bin midpoint (identity).
    """
    return _fit(*_columns(dev_records), n_bins)


def _fit(conf: np.ndarray, correct: np.ndarray, n_bins: int) -> CalibrationMap:
    if not len(conf):
        raise ConfigError("fit_histogram_binning needs a nonempty dev split")
    bins = _bin_stats(conf, correct, n_bins)
    calibrated = []
    for m, stats in enumerate(bins, start=1):
        if stats.count == 0:
            calibrated.append((m - 0.5) / n_bins)
        else:
            calibrated.append(stats.accuracy)
    return CalibrationMap(calibrated=tuple(calibrated), dev_counts=tuple(b.count for b in bins))


def apply_calibration(cal_map: CalibrationMap, confidence) -> float | list[float]:
    """Calibrated confidence(s) of a scalar or a sequence, binned as ``bin_index`` bins them."""
    conf = np.asarray(confidence, dtype=np.float64)
    calibrated = np.array(cal_map.calibrated)[_bin_numbers(conf.reshape(-1), cal_map.n_bins) - 1]
    return float(calibrated[0]) if conf.ndim == 0 else calibrated.tolist()


def calibrate_records(cal_map: CalibrationMap, records: Sequence[ConfidenceRecord]) -> list[ConfidenceRecord]:
    calibrated = apply_calibration(cal_map, _columns(records)[0])
    return [ConfidenceRecord(confidence=c, correct=r.correct) for c, r in zip(calibrated, records)]


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
    """Fit binning on dev confidences, report test ECE before and after.

    Each record set is mapped and binned as arrays, with the arithmetic of
    ``to_confidence``, ``bin_index`` and ``reliability_bins``.
    """
    needs_stats = measure_spec(measure).confidence_map == "dev_minmax"
    stats = aleatoric_stats(dev_records) if needs_stats else None
    dev_conf = _confidences([r.bundle for r in dev_records], measure, stats)
    test_conf = _confidences([r.bundle for r in test_records], measure, stats)
    dev_correct = np.array([r.correct for r in dev_records], dtype=bool)
    test_correct = np.array([r.correct for r in test_records], dtype=bool)
    cal_map = _fit(dev_conf, dev_correct, n_bins)
    calibrated = np.array(cal_map.calibrated)[_bin_numbers(test_conf, n_bins) - 1]
    return CalibrationReport(
        measure=measure,
        ece_before=_ece(test_conf, test_correct, n_bins),
        ece_after=_ece(calibrated, test_correct, n_bins),
        n_bins=n_bins,
        n_dev=len(dev_conf),
        n_test=len(test_conf),
    )
