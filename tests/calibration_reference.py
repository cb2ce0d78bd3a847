"""The calibration report as it was before it mapped and binned arrays.

``to_confidence`` maps one bundle with Python floats, ``confidences`` maps
bundle by bundle, and ``reliability_bins``, ``ece``,
``fit_histogram_binning`` and ``apply_calibration`` bin one
(confidence, correct) pair at a time with the scalar ``bin_index``: the
per-record loops the library replaced. They take the library's arguments.
The library must give the same bits, so the property tests compare the
``repr`` of every float.
"""

from __future__ import annotations

import math
import warnings

from veritas.calibration import BinStats, CalibrationMap, CalibrationReport, aleatoric_stats
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


def confidences(bundles, measure, stats=None):
    return [to_confidence(b, measure, stats) for b in bundles]


def reliability_bins(confidence, correct, n_bins=10):
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    grouped = {}
    for c, k in zip(confidence, correct):
        grouped.setdefault(bin_index(c, n_bins), []).append((c, k))
    out = []
    for m in range(1, n_bins + 1):
        members = grouped.get(m)
        if not members:
            out.append(BinStats(0, None, None))
        else:
            out.append(
                BinStats(
                    count=len(members),
                    mean_confidence=math.fsum(c for c, _ in members) / len(members),
                    accuracy=sum(1.0 for _, k in members if k) / len(members),
                )
            )
    return tuple(out)


def ece(confidence, correct, n_bins=10):
    bins = reliability_bins(confidence, correct, n_bins)
    if not confidence:
        raise ConfigError("ece needs at least one record")
    n = len(confidence)
    return sum((b.count / n) * abs(b.accuracy - b.mean_confidence) for b in bins if b.count)


def fit_histogram_binning(confidence, correct, n_bins=10):
    if not confidence:
        raise ConfigError("fit_histogram_binning needs a nonempty dev split")
    bins = reliability_bins(confidence, correct, n_bins)
    calibrated = []
    for m, stats in enumerate(bins, start=1):
        if stats.count == 0:
            calibrated.append((m - 0.5) / n_bins)
        else:
            calibrated.append(stats.accuracy)
    return CalibrationMap(calibrated=tuple(calibrated), dev_counts=tuple(b.count for b in bins))


def apply_calibration(cal_map, confidence):
    return [cal_map.calibrated[bin_index(c, cal_map.n_bins) - 1] for c in confidence]


def calibration_report(dev_records, test_records, measure, n_bins=10):
    needs_stats = measure_spec(measure).confidence_map == "dev_minmax"
    stats = aleatoric_stats(dev_records) if needs_stats else None
    dev_conf = confidences([r.bundle for r in dev_records], measure, stats)
    test_conf = confidences([r.bundle for r in test_records], measure, stats)
    test_correct = [r.correct for r in test_records]
    cal_map = fit_histogram_binning(dev_conf, [r.correct for r in dev_records], n_bins)
    return CalibrationReport(
        measure=measure,
        ece_before=ece(test_conf, test_correct, n_bins),
        ece_after=ece(apply_calibration(cal_map, test_conf), test_correct, n_bins),
        n_bins=n_bins,
        n_dev=len(dev_conf),
        n_test=len(test_conf),
    )
