"""The array calibration path against the per-record loops it replaced.

``calibration_reference`` keeps ``to_confidence`` on Python floats and
``calibration_report``, ``reliability_bins``, ``ece``,
``fit_histogram_binning`` and ``calibrate_records`` as per-record loops
over it and the scalar ``bin_index``.
The library maps and bins whole columns, and must give the same bits: the
properties compare ``repr`` of every float, which tells apart any two
doubles, -0.0 from 0.0 included.
"""

import warnings

import pytest
from conftest import bundle_with, record_with
from hypothesis import given, settings
from hypothesis import strategies as st

import calibration_reference as ref
from veritas import (
    MEASURES,
    CalibrationMap,
    ConfidenceRecord,
    NormalizationStats,
    apply_calibration,
    calibration_report,
    reliability_bins,
    to_confidence,
)
from veritas.calibration import bin_index, calibrate_records
from veritas.errors import DataWarning, InvalidInput
from veritas.uncertainty import measure_spec

# Bin edges, values just outside [0, 1], and plain values. A bundle holds
# only finite measures and a variation ratio in [0, 1].
EDGES = [k / d for d in (1, 3, 7, 10, 12) for k in range(d + 1)]
VALUES = st.one_of(
    st.sampled_from(EDGES + [-0.0, 1.0 + 2**-52, -1e-300]),
    st.floats(-0.5, 1.5),
    st.floats(0.0, 4.0),
)
RATIOS = st.one_of(st.sampled_from(EDGES + [-0.0]), st.floats(0.0, 1.0))


def values_of(measure):
    return RATIOS if measure == "variation_ratio" else VALUES


@st.composite
def record_sets(draw, measure):
    field = measure_spec(measure).field

    def records(prefix):
        n = draw(st.integers(1, 30))
        out = []
        for i in range(n):
            ok = draw(st.booleans())
            probs = (1.0,) + (0.0,) * draw(st.integers(1, 3))
            value = draw(values_of(measure))
            out.append(record_with(f"{prefix}{i}", pred="true" if ok else "false", mean_probs=probs, **{field: value}))
        return out

    return records("d"), records("t")


def float_bits(report):
    return (repr(report.ece_before), repr(report.ece_after), report.n_bins, report.n_dev, report.n_test)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(MEASURES), st.integers(1, 12))
def test_report_bits_equal_per_record_loop(data, measure, n_bins):
    dev, test = data.draw(record_sets(measure))
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        fast = calibration_report(dev, test, measure, n_bins=n_bins)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        slow = ref.calibration_report(dev, test, measure, n_bins=n_bins)
    assert fast.measure == slow.measure
    assert float_bits(fast) == float_bits(slow)
    assert bool(got) == bool(want)
    assert all(issubclass(w.category, DataWarning) for w in got)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(MEASURES), st.integers(2, 4), st.tuples(st.floats(-1.0, 5.0), st.floats(-1.0, 5.0)))
def test_to_confidence_bits_equal_python_floats(data, measure, n_classes, bounds):
    value = data.draw(values_of(measure))
    bundle = bundle_with(mean_probs=(1.0,) + (0.0,) * (n_classes - 1), **{measure_spec(measure).field: value})
    stats = NormalizationStats(*bounds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        assert repr(to_confidence(bundle, measure, stats)) == repr(ref.to_confidence(bundle, measure, stats))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(VALUES, st.floats(-1e300, 1e300))), st.integers(1, 12))
def test_binning_keeps_the_scalar_rule(confidences, n_bins):
    cal_map = CalibrationMap(tuple(m / n_bins for m in range(1, n_bins + 1)), (0,) * n_bins)
    want = [ref.bin_index(c, n_bins) for c in confidences]
    assert [bin_index(c, n_bins) for c in confidences] == want
    assert apply_calibration(cal_map, confidences) == [cal_map.calibrated[m - 1] for m in want]
    in_range = [ConfidenceRecord(min(1.0, max(0.0, c)), True) for c in confidences]
    assert calibrate_records(cal_map, in_range) == ref.calibrate_records(cal_map, in_range)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0)), st.booleans())), st.integers(1, 12))
def test_reliability_bins_equal_per_record_loop(pairs, n_bins):
    records = [ConfidenceRecord(confidence=c, correct=k) for c, k in pairs]
    assert repr(reliability_bins(records, n_bins)) == repr(ref.reliability_bins(records, n_bins))


def test_degenerate_dev_range_warns_and_maps_to_half():
    dev = [record_with(f"d{i}", aleatoric=2.0, pred="true" if i % 2 else "false") for i in range(4)]
    test = [record_with(f"t{i}", aleatoric=float(i)) for i in range(3)]
    with pytest.warns(DataWarning, match="degenerate aleatoric dev range"):
        fast = calibration_report(dev, test, "aleatoric", n_bins=10)
    with pytest.warns(DataWarning):
        slow = ref.calibration_report(dev, test, "aleatoric", n_bins=10)
    assert float_bits(fast) == float_bits(slow)


def test_entropy_of_a_one_class_bundle_is_an_error():
    # The entropy ceiling log(n_classes) would be 0; the bundle refuses one class before any mapping.
    with pytest.raises(InvalidInput, match="^mean_probs: needs at least two classes, got 1$"):
        record_with("r0", entropy=0.1, mean_probs=(1.0,))
