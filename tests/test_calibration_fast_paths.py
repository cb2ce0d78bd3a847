"""The array calibration path against the per-record loops it replaced.

``calibration_reference`` keeps ``to_confidence`` on Python floats and
``calibration_report``, ``reliability_bins``, ``ece``,
``fit_histogram_binning`` and ``apply_calibration`` as per-record loops
over it and the scalar ``bin_index``.
The library maps and bins whole columns, and must give the same bits: the
properties compare ``repr`` of every float, which tells apart any two
doubles, -0.0 from 0.0 included.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import bundle_with, record_with
from hypothesis import given, settings
from hypothesis import strategies as st

import calibration_reference as ref
from veritas import (
    MEASURES,
    CalibrationMap,
    NormalizationStats,
    apply_calibration,
    calibration_report,
    confidences,
    ece,
    fit_histogram_binning,
    reliability_bins,
)
from veritas.errors import ConfigError, DataWarning, InvalidInput
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
def test_confidences_bits_equal_python_floats(data, measure, n_classes, bounds):
    values = data.draw(st.lists(values_of(measure), max_size=5))
    field = measure_spec(measure).field
    bundles = [bundle_with(mean_probs=(1.0,) + (0.0,) * (n_classes - 1), **{field: v}) for v in values]
    stats = NormalizationStats(*bounds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        got = confidences(bundles, measure, stats)
        assert got.dtype == np.float64
        assert [repr(c) for c in got.tolist()] == [repr(c) for c in ref.confidences(bundles, measure, stats)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(VALUES, st.floats(-1e300, 1e300))), st.integers(1, 12))
def test_binning_keeps_the_scalar_rule(confidence, n_bins):
    cal_map = CalibrationMap(tuple(m / n_bins for m in range(1, n_bins + 1)), (0,) * n_bins)
    want = ref.apply_calibration(cal_map, confidence)
    assert apply_calibration(cal_map, confidence).tolist() == want
    assert [apply_calibration(cal_map, c) for c in confidence] == want


PAIRS = st.lists(st.tuples(st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0)), st.booleans()))


def outcome(fn, *args):
    """What a call gives: its ``repr``, or the type of the error it raises."""
    try:
        return repr(fn(*args))
    except ConfigError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(PAIRS, st.integers(1, 12))
def test_array_api_equals_per_record_loops(pairs, n_bins):
    """``reliability_bins``, ``ece`` and ``fit_histogram_binning`` on lists or arrays give the loops' bits."""
    confidence, correct = [c for c, _ in pairs], [k for _, k in pairs]
    as_arrays = np.array(confidence, dtype=np.float64), np.array(correct, dtype=bool)
    loops = ((reliability_bins, ref.reliability_bins), (ece, ref.ece), (fit_histogram_binning, ref.fit_histogram_binning))
    for fn, loop in loops:
        want = outcome(loop, confidence, correct, n_bins)
        assert outcome(fn, confidence, correct, n_bins) == want, fn.__name__
        assert outcome(fn, *as_arrays, n_bins) == want, fn.__name__


@settings(max_examples=300, deadline=None)
@given(PAIRS.filter(bool), st.integers(1, 12), st.sampled_from(["confidence", "length", "flag"]), st.data())
def test_refused_pairs_are_invalid_input(pairs, n_bins, fault, data):
    """A confidence that is non-finite or outside [0, 1], a length mismatch or a flag that is no bool."""
    confidence, correct = [c for c, _ in pairs], [k for _, k in pairs]
    i = data.draw(st.integers(0, len(pairs) - 1))
    if fault == "confidence":
        confidence[i] = data.draw(
            st.one_of(
                st.sampled_from([math.nan, math.inf, -math.inf, -2**-1074, 1.0 + 2**-52]),
                st.floats(max_value=-(2**-1074)),
                st.floats(min_value=1.0 + 2**-52),
            )
        )
    elif fault == "length":
        del correct[i]
    else:
        correct[i] = data.draw(st.sampled_from([0, 1, 1.0, None, "yes"]))
    for fn in (reliability_bins, ece, fit_histogram_binning):
        with pytest.raises(InvalidInput):
            fn(confidence, correct, n_bins)


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
