"""Confidence calibration: expected calibration error and histogram binning.

Uncertainty values are first mapped to confidences in [0, 1]; the dev split
fixes any normalisation statistics and the binning map, and the test split
is scored before and after applying the map. Confidences and their correct
flags are arrays throughout: ``ece``, ``reliability_bins`` and
``fit_histogram_binning`` take ``(confidence, correct, n_bins)``.
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
class NormalizationStats:
    """Dev-set min/max for measures without a fixed [0, 1] range."""

    lo: float
    hi: float


def aleatoric_stats(dev_records: Sequence[PredictionRecord]) -> NormalizationStats:
    values = [r.bundle.aleatoric for r in dev_records]
    if not values:
        raise ConfigError("aleatoric_stats needs at least one dev record")
    return NormalizationStats(lo=min(values), hi=max(values))


def _clip01(x: np.ndarray) -> np.ndarray:
    """``min(1.0, max(0.0, x))`` elementwise: NaN and -0.0 become 0.0."""
    return np.where(x > 0.0, np.minimum(x, 1.0), 0.0)


def confidences(
    bundles: Sequence[UncertaintyBundle], measure: str, stats: NormalizationStats | None = None
) -> np.ndarray:
    """Each bundle's measure value mapped to a confidence in [0, 1] by the measure's ``confidence_map``.

    The dev stats min-max scale a "dev_minmax" measure; a degenerate dev
    range maps every bundle to 0.5, with one warning per call. Each value
    gets the arithmetic a Python float would, and no warning: an inf or
    NaN it makes is clipped like any other value.
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
                warnings.warn(f"degenerate {measure} dev range; confidence defaults to 0.5", DataWarning, stacklevel=2)
            return np.full(len(bundles), 0.5)
        with np.errstate(all="ignore"):
            values = (values - stats.lo) / (stats.hi - stats.lo)
    elif spec.confidence_map == "entropy":
        ceilings = np.array([math.log(b.n_classes) for b in bundles])
        with np.errstate(all="ignore"):
            values = values / ceilings
    return _clip01(1.0 - values)


# ---------------------------------------------------------------------------
# binning


def _pairs(confidence, correct) -> tuple[np.ndarray, np.ndarray]:
    """Confidences and correct flags as two arrays of one length.

    A confidence that is no number, is non-finite or lies outside [0, 1],
    a flag that is not a bool, or a length mismatch is an InvalidInput.
    """
    conf, flags = np.asarray(confidence), np.asarray(correct)
    if conf.ndim != 1 or flags.shape != conf.shape:
        raise InvalidInput(f"confidence and correct must be 1-D and of one length, got {conf.shape} and {flags.shape}")
    if conf.size and conf.dtype.kind not in "biuf":
        raise InvalidInput(f"confidence must be numbers, got an array of {conf.dtype}")
    if flags.size and flags.dtype != np.bool_:
        raise InvalidInput(f"correct must hold bools, got an array of {flags.dtype}")
    conf = conf.astype(np.float64, copy=False)
    outside = ~((conf >= 0.0) & (conf <= 1.0))
    if outside.any():
        raise InvalidInput(f"confidence must be in [0, 1], got {conf[outside][0]}")
    return conf, flags


def _bin_numbers(conf: np.ndarray, n_bins: int) -> np.ndarray:
    """The one binning rule: the 1-based bin of each confidence under right-inclusive equal-width bins.

    Bin m covers ((m-1)/M, m/M], so a bin is ``ceil(conf * M)`` and
    confidence 0 lands in bin 1. A confidence below 0 is in bin 1 and one
    above 1 in bin M; a non-finite one is an InvalidInput.
    """
    check_value("n_bins", n_bins, "int", "[1, inf)")
    if not np.isfinite(conf).all():
        raise InvalidInput(f"confidence must be a finite number, got {float(conf[~np.isfinite(conf)][0])!r}")
    return np.maximum(np.ceil(np.clip(conf, 0.0, 1.0) * n_bins), 1).astype(np.intp)


@dataclass(frozen=True)
class BinStats:
    count: int
    mean_confidence: float | None
    accuracy: float | None


def reliability_bins(confidence, correct, n_bins: int = 10) -> tuple[BinStats, ...]:
    """Per-bin count, mean confidence and accuracy of confidences and their correct flags; empty bins have None.

    A bin's confidences are summed with ``math.fsum``, which rounds once,
    so no statistic depends on the order of the pairs.
    """
    conf, flags = _pairs(confidence, correct)
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
                    accuracy=int(np.count_nonzero(flags[members])) / count,
                )
            )
    return tuple(out)


def ece(confidence, correct, n_bins: int = 10) -> float:
    """Expected calibration error: sum of (count/n)·|accuracy - mean confidence|.

    The sum runs over ``reliability_bins`` in bin order; empty bins
    contribute zero. The result does not depend on the order of the pairs.
    """
    bins = reliability_bins(confidence, correct, n_bins)
    n = sum(b.count for b in bins)
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


def fit_histogram_binning(confidence, correct, n_bins: int = 10) -> CalibrationMap:
    """Calibrated value per bin = dev accuracy in that bin.

    Bins with no dev pairs fall back to the bin midpoint (identity).
    """
    bins = reliability_bins(confidence, correct, n_bins)
    if not any(b.count for b in bins):
        raise ConfigError("fit_histogram_binning needs a nonempty dev split")
    calibrated = tuple(b.accuracy if b.count else (m - 0.5) / n_bins for m, b in enumerate(bins, start=1))
    return CalibrationMap(calibrated=calibrated, dev_counts=tuple(b.count for b in bins))


def apply_calibration(cal_map: CalibrationMap, confidence) -> float | np.ndarray:
    """Calibrated confidence of a scalar, or a flat array of them for a sequence, by the binning rule.

    Any finite confidence is binned, one outside [0, 1] in the nearest end bin.
    """
    conf = np.asarray(confidence, dtype=np.float64)
    calibrated = np.array(cal_map.calibrated)[_bin_numbers(conf.reshape(-1), cal_map.n_bins) - 1]
    return float(calibrated[0]) if conf.ndim == 0 else calibrated


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
    dev_conf = confidences([r.bundle for r in dev_records], measure, stats)
    test_conf = confidences([r.bundle for r in test_records], measure, stats)
    test_correct = np.array([r.correct for r in test_records], dtype=bool)
    cal_map = fit_histogram_binning(dev_conf, np.array([r.correct for r in dev_records], dtype=bool), n_bins)
    return CalibrationReport(
        measure=measure,
        ece_before=ece(test_conf, test_correct, n_bins),
        ece_after=ece(apply_calibration(cal_map, test_conf), test_correct, n_bins),
        n_bins=n_bins,
        n_dev=len(dev_conf),
        n_test=len(test_conf),
    )
