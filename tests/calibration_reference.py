"""The calibration report as it was before it mapped and binned arrays.

``to_confidence`` maps one bundle with Python floats, ``confidence_records``
maps record by record, and ``reliability_bins``, ``ece``,
``fit_histogram_binning`` and ``calibrate_records`` bin one record at a
time with the scalar ``bin_index``: the per-record loops the library
replaced. The library must give the same bits, so the property tests
compare the ``repr`` of every float.
"""

from __future__ import annotations

import math
import warnings

from veritas.calibration import (
    BinStats,
    CalibrationMap,
    CalibrationReport,
    ConfidenceRecord,
    aleatoric_stats,
)
from veritas.errors import ConfigError, DataWarning
from veritas.uncertainty import measure_spec, uncertainty_value


def bin_index(confidence, n_bins):
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    if confidence <= 0.0:
        return 1
    return min(n_bins, math.ceil(confidence * n_bins))


def to_confidence(bundle, measure, stats=None):
    spec = measure_spec(measure)
    if spec.confidence_map == "clip":
        return float(min(1.0, max(0.0, getattr(bundle, spec.field))))
    u = uncertainty_value(bundle, measure)
    if spec.confidence_map == "dev_minmax":
        if stats is None:
            raise ConfigError(f"{measure} confidence needs dev-set normalisation stats")
        if stats.hi <= stats.lo:
            warnings.warn(f"degenerate {measure} dev range; confidence defaults to 0.5", DataWarning, stacklevel=2)
            return 0.5
        u = (u - stats.lo) / (stats.hi - stats.lo)
    elif spec.confidence_map == "entropy":
        u = u / math.log(bundle.n_classes)
    return float(min(1.0, max(0.0, 1.0 - u)))


def confidence_records(records, measure, stats=None):
    return [ConfidenceRecord(confidence=to_confidence(r.bundle, measure, stats), correct=r.correct) for r in records]


def reliability_bins(records, n_bins=10):
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    grouped = {}
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
                    mean_confidence=math.fsum(r.confidence for r in members) / len(members),
                    accuracy=sum(1.0 for r in members if r.correct) / len(members),
                )
            )
    return tuple(out)


def ece(records, n_bins=10):
    bins = reliability_bins(records, n_bins)
    if not records:
        raise ConfigError("ece needs at least one record")
    n = len(records)
    return sum((b.count / n) * abs(b.accuracy - b.mean_confidence) for b in bins if b.count)


def fit_histogram_binning(dev_records, n_bins=10):
    if not dev_records:
        raise ConfigError("fit_histogram_binning needs a nonempty dev split")
    bins = reliability_bins(dev_records, n_bins)
    calibrated = []
    for m, stats in enumerate(bins, start=1):
        if stats.count == 0:
            calibrated.append((m - 0.5) / n_bins)
        else:
            calibrated.append(stats.accuracy)
    return CalibrationMap(calibrated=tuple(calibrated), dev_counts=tuple(b.count for b in bins))


def calibrate_records(cal_map, records):
    return [
        ConfidenceRecord(confidence=cal_map.calibrated[bin_index(r.confidence, cal_map.n_bins) - 1], correct=r.correct)
        for r in records
    ]


def calibration_report(dev_records, test_records, measure, n_bins=10):
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
