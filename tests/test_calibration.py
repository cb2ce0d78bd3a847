"""Confidence conversion, ECE, reliability bins and histogram binning."""

import math

import numpy as np
import pytest
from conftest import bundle_with, record_with

from veritas import (
    CalibrationMap,
    NormalizationStats,
    aleatoric_stats,
    apply_calibration,
    calibration_report,
    confidences,
    ece,
    fit_histogram_binning,
    reliability_bins,
)
from veritas.calibration import BinStats
from veritas.errors import ConfigError, DataWarning, InvalidInput


def columns(pairs):
    """(confidence, correct) pairs as the two arrays the calibration functions take."""
    return np.array([c for c, _ in pairs], dtype=np.float64), np.array([bool(k) for _, k in pairs], dtype=bool)


def bin_index(confidence, n_bins):
    """The binning rule as ``apply_calibration`` shows it, through a map whose bin m holds m."""
    return int(apply_calibration(CalibrationMap(tuple(map(float, range(1, n_bins + 1))), (0,) * n_bins), confidence))


def to_confidence(bundle, measure, stats=None):
    """One bundle's confidence."""
    return float(confidences([bundle], measure, stats)[0])


def calibrated_pair(rng, n=800):
    """Confidences c that are honest: P(correct) = c."""
    conf = rng.uniform(0.05, 0.95, n)
    return conf, rng.random(n) < conf


# ---------------------------------------------------------------------------
# confidence conversion


class TestConfidences:
    def test_variation_ratio_zero_is_full_confidence(self):
        assert to_confidence(bundle_with(variation_ratio=0.0), "variation_ratio") == 1.0

    def test_bounded_uncertainties_invert(self):
        b = bundle_with(variation_ratio=0.3, variance=0.25, softmax_ratio=0.4)
        assert to_confidence(b, "variation_ratio") == pytest.approx(0.7)
        assert to_confidence(b, "variance") == pytest.approx(0.75)
        assert to_confidence(b, "ratio") == pytest.approx(0.6)

    def test_lcs_and_margin_pass_through(self):
        b = bundle_with(softmax_lcs=0.8, softmax_margin=0.55)
        assert to_confidence(b, "lcs") == 0.8
        assert to_confidence(b, "margin") == 0.55

    def test_entropy_scaled_by_class_ceiling(self):
        # three classes: entropy ln3 is the floor of confidence
        b = bundle_with(entropy=math.log(3), softmax_entropy=0.5 * math.log(3))
        assert to_confidence(b, "entropy") == pytest.approx(0.0, abs=1e-12)
        assert to_confidence(b, "softmax_entropy") == pytest.approx(0.5, abs=1e-12)

    def test_aleatoric_min_max(self):
        stats = NormalizationStats(lo=1.0, hi=5.0)
        assert to_confidence(bundle_with(aleatoric=2.0), "aleatoric", stats) == pytest.approx(0.75)
        assert to_confidence(bundle_with(aleatoric=5.0), "aleatoric", stats) == 0.0
        assert to_confidence(bundle_with(aleatoric=1.0), "aleatoric", stats) == 1.0

    def test_aleatoric_clipped_outside_dev_range(self):
        stats = NormalizationStats(lo=1.0, hi=5.0)
        assert to_confidence(bundle_with(aleatoric=9.0), "aleatoric", stats) == 0.0
        assert to_confidence(bundle_with(aleatoric=0.0), "aleatoric", stats) == 1.0

    def test_aleatoric_requires_stats(self):
        with pytest.raises(ConfigError):
            to_confidence(bundle_with(aleatoric=1.0), "aleatoric")

    def test_degenerate_dev_range_warns_half(self):
        stats = NormalizationStats(lo=2.0, hi=2.0)
        with pytest.warns(DataWarning, match="degenerate"):
            assert to_confidence(bundle_with(aleatoric=2.0), "aleatoric", stats) == 0.5

    def test_aleatoric_stats_from_records(self):
        recs = [record_with(f"t{i}", aleatoric=v) for i, v in enumerate([3.0, 1.5, 2.2])]
        stats = aleatoric_stats(recs)
        assert (stats.lo, stats.hi) == (1.5, 3.0)
        with pytest.raises(ConfigError):
            aleatoric_stats([])

    def test_one_array_per_call(self):
        bundles = [bundle_with(softmax_lcs=0.9), bundle_with(softmax_lcs=0.4)]
        out = confidences(bundles, "lcs")
        assert out.dtype == np.float64 and out.tolist() == [0.9, 0.4]
        assert confidences([], "lcs").shape == (0,)

    def test_degenerate_dev_range_warns_once_per_call(self):
        stats = NormalizationStats(lo=2.0, hi=2.0)
        with pytest.warns(DataWarning) as got:
            out = confidences([bundle_with(aleatoric=2.0)] * 3, "aleatoric", stats)
        assert out.tolist() == [0.5] * 3 and len(got) == 1


class TestPairValidation:
    """Each function that takes confidences and correct flags refuses the pairs no record could hold."""

    FUNCTIONS = (reliability_bins, ece, fit_histogram_binning)

    @pytest.mark.parametrize("bad", [1.5, -0.25, math.nan, math.inf])
    def test_rejects_confidence_outside_unit_interval(self, bad):
        for fn in self.FUNCTIONS:
            with pytest.raises(InvalidInput, match=r"confidence must be in \[0, 1\], got"):
                fn([0.5, bad], [True, False], 10)

    def test_rejects_length_mismatch(self):
        for fn in self.FUNCTIONS:
            with pytest.raises(InvalidInput, match="one length"):
                fn([0.5, 0.7], [True], 10)
            with pytest.raises(InvalidInput, match="one length"):
                fn(0.5, True, 10)

    @pytest.mark.parametrize("bad", [[1, 0], [True, 1.0], [True, None], np.array([1, 0])], ids=repr)
    def test_rejects_flags_that_are_not_bools(self, bad):
        for fn in self.FUNCTIONS:
            with pytest.raises(InvalidInput, match="correct must hold bools"):
                fn([0.5, 0.7], bad, 10)

    def test_rejects_confidence_that_is_no_number(self):
        for fn in self.FUNCTIONS:
            with pytest.raises(InvalidInput, match="confidence must be numbers"):
                fn(["0.5"], [True], 10)

    def test_numpy_bools_and_lists_are_taken(self):
        assert ece([0.9, 0.6], [np.True_, False], 10) == ece(*columns([(0.9, 1), (0.6, 0)]), 10)


# ---------------------------------------------------------------------------
# binning rule


class TestBinningRule:
    def test_zero_goes_to_first_bin(self):
        assert bin_index(0.0, 10) == 1

    def test_hand_cases(self):
        assert bin_index(0.61, 10) == 7
        assert bin_index(0.6, 10) == 6
        assert bin_index(1.0, 10) == 10
        assert bin_index(0.05, 1) == 1

    def test_right_inclusive_edges(self):
        for m in range(1, 11):
            assert bin_index(m / 10, 10) == m

    def test_rejects_bad_bins(self):
        with pytest.raises(ConfigError):
            bin_index(0.5, 0)
        for fn in (reliability_bins, ece, fit_histogram_binning):
            with pytest.raises(ConfigError, match="n_bins must be >= 1, got 0"):
                fn([0.5], [True], 0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, np.True_])
    def test_rejects_non_integer_bins(self, bad):
        for fn in (reliability_bins, ece, fit_histogram_binning):
            with pytest.raises(ConfigError, match=f"n_bins must be an integer, got {bad!r}"):
                fn([0.5], [True], bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_confidence_is_invalid_input(self, bad):
        cal = CalibrationMap(calibrated=(0.25, 0.75), dev_counts=(1, 1))
        for call in (
            lambda: apply_calibration(cal, bad),
            lambda: apply_calibration(cal, [0.5, bad]),
        ):
            with pytest.raises(InvalidInput, match=rf"confidence must be a finite number, got {bad!r}"):
                call()


# ---------------------------------------------------------------------------
# ece


class TestEce:
    def test_perfect_records(self):
        assert ece(*columns([(1.0, 1), (1.0, 1)]), 10) == 0.0

    def test_hand_case(self):
        conf, correct = columns([(0.9, 1), (0.9, 0), (0.6, 1), (0.6, 0)])
        assert ece(conf, correct, 10) == pytest.approx(0.25, abs=1e-15)

    def test_single_bin_is_accuracy_gap(self, rng):
        conf, correct = rng.random(50), rng.random(50) > 0.4
        assert ece(conf, correct, 1) == pytest.approx(abs(correct.mean() - conf.mean()), abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pairs = [(float(c), bool(k)) for c, k in zip(rng.random(n), rng.random(n) > 0.5)]
            m = int(rng.integers(1, 15))
            bins = {}
            for c, k in pairs:
                b = 1 if c <= 0 else min(m, math.ceil(c * m))
                bins.setdefault(b, []).append((c, k))
            expect = sum(
                (len(mem) / n)
                * abs(sum(k for _, k in mem) / len(mem) - sum(c for c, _ in mem) / len(mem))
                for mem in bins.values()
            )
            assert ece(*columns(pairs), m) == pytest.approx(expect, abs=1e-12)

    def test_permutation_invariant(self, rng):
        for _ in range(50):
            conf, correct = rng.random(30), rng.random(30) > 0.5
            shuffled = rng.permutation(30)
            assert ece(conf, correct, 10) == ece(conf[shuffled], correct[shuffled], 10)

    def test_bounds_and_errors(self, rng):
        conf, correct = columns([(0.5, 1), (0.7, 0)])
        assert 0.0 <= ece(conf, correct, 10) <= 1.0
        with pytest.raises(ConfigError):
            ece([], [], 10)
        with pytest.raises(ConfigError):
            ece(conf, correct, 0)


# ---------------------------------------------------------------------------
# reliability bins


class TestReliabilityBins:
    def test_single_record(self):
        bins = reliability_bins([0.95], [True], 10)
        assert bins[9].count == 1 and bins[9].accuracy == 1.0
        assert bins[9].mean_confidence == pytest.approx(0.95)

    def test_empty_bins_marked(self):
        bins = reliability_bins([0.95], [True], 10)
        assert all(b.count == 0 and b.accuracy is None for b in bins[:9])

    def test_no_pairs_give_empty_bins(self):
        assert reliability_bins([], [], 3) == (BinStats(0, None, None),) * 3

    def test_calibrated_records_within_binomial_noise(self, rng):
        bins = reliability_bins(*calibrated_pair(rng, n=2000), 10)
        for b in bins:
            if b.count > 0:
                bound = 3 * math.sqrt(0.25 / b.count)
                assert abs(b.accuracy - b.mean_confidence) <= bound

    def test_counts_sum_to_total(self, rng):
        bins = reliability_bins(*calibrated_pair(rng, n=300), 7)
        assert sum(b.count for b in bins) == 300


# ---------------------------------------------------------------------------
# histogram binning


class TestHistogramBinning:
    def test_bin_maps_to_dev_accuracy(self):
        cal = fit_histogram_binning(*columns([(0.75, 1), (0.72, 1), (0.78, 0)]), 10)  # bin 8 accuracy 2/3
        assert apply_calibration(cal, 0.74) == pytest.approx(2 / 3)

    def test_empty_bins_fall_back_to_midpoint(self):
        cal = fit_histogram_binning([0.95], [True], 10)
        assert apply_calibration(cal, 0.05) == pytest.approx(0.05)
        assert apply_calibration(cal, 0.61) == pytest.approx(0.65)

    def test_all_correct_dev_maps_nonempty_bins_to_one(self):
        cal = fit_histogram_binning([0.3, 0.8], [True, True], 10)
        assert apply_calibration(cal, 0.3) == 1.0
        assert apply_calibration(cal, 0.8) == 1.0

    def test_calibrated_dev_set_keeps_identity_within_noise(self, rng):
        dev = calibrated_pair(rng, n=3000)
        cal = fit_histogram_binning(*dev, 10)
        bins = reliability_bins(*dev, 10)
        for m, b in enumerate(bins, start=1):
            if b.count >= 50:
                midpoint = (m - 0.5) / 10
                assert abs(cal.calibrated[m - 1] - midpoint) <= 3 * math.sqrt(0.25 / b.count) + 0.05

    def test_training_set_fixed_point(self, rng):
        conf, correct = calibrated_pair(rng, n=500)
        cal = fit_histogram_binning(conf, correct, 10)
        recal = apply_calibration(cal, conf)
        # within each original bin, calibrated confidence equals that bin's accuracy
        original_bins = reliability_bins(conf, correct, 10)
        for m, stats in enumerate(original_bins, start=1):
            if stats.count == 0:
                continue
            members = np.array([bin_index(c, 10) == m for c in conf])
            assert recal[members] == pytest.approx(correct[members].mean(), abs=1e-15)

    def test_batch_matches_elementwise(self, rng):
        conf, correct = calibrated_pair(rng, n=200)
        cal = fit_histogram_binning(conf, correct, 10)
        batch = apply_calibration(cal, conf[:20])
        assert batch.tolist() == [apply_calibration(cal, c) for c in conf[:20]]

    def test_empty_dev_rejected(self):
        with pytest.raises(ConfigError):
            fit_histogram_binning([], [], 10)

    def test_bin_count_is_the_calibrated_length(self):
        cal = CalibrationMap(calibrated=(0.2, 0.8), dev_counts=(1, 1))
        assert cal.n_bins == 2
        assert apply_calibration(cal, [0.1, 0.9]).tolist() == [0.2, 0.8]

    def test_clips_any_finite_confidence_into_the_end_bins(self):
        cal = CalibrationMap(calibrated=(0.2, 0.8), dev_counts=(1, 1))
        assert apply_calibration(cal, [-3.0, 7.5]).tolist() == [0.2, 0.8]

    def test_identity_map_is_noop(self):
        cal = CalibrationMap(
            calibrated=(0.125, 0.375, 0.625, 0.875), dev_counts=(1, 1, 1, 1)
        )
        for c in (0.1, 0.3, 0.6, 0.9):
            assert apply_calibration(cal, c) == pytest.approx((bin_index(c, 4) - 0.5) / 4)


# ---------------------------------------------------------------------------
# end-to-end report


def miscalibrated_records(rng, n):
    """Confidence c but true accuracy c^2: systematically overconfident."""
    out = []
    for _ in range(n):
        c = float(rng.uniform(0.0, 1.0))
        ok = bool(rng.random() < c * c)
        out.append(record_with(f"r{len(out)}", gold="true", pred="true" if ok else "false",
                               softmax_lcs=c))
    return out


class TestCalibrationReport:
    def test_overconfident_pair_improves(self, rng):
        dev = miscalibrated_records(rng, 1500)
        test = miscalibrated_records(rng, 1500)
        report = calibration_report(dev, test, "lcs", n_bins=10)
        assert report.ece_after < report.ece_before
        assert report.ece_after <= 0.05
        assert (report.n_dev, report.n_test) == (1500, 1500)

    def test_aleatoric_uses_dev_stats(self, rng):
        dev = [record_with(f"d{i}", aleatoric=float(v)) for i, v in enumerate(rng.uniform(0, 4, 50))]
        test = [record_with(f"t{i}", aleatoric=float(v)) for i, v in enumerate(rng.uniform(0, 4, 50))]
        report = calibration_report(dev, test, "aleatoric", n_bins=10)
        assert report.measure == "aleatoric"
        assert math.isfinite(report.ece_before) and math.isfinite(report.ece_after)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True])
    def test_non_integer_bins_refused(self, rng, bad):
        records = miscalibrated_records(rng, 40)
        with pytest.raises(ConfigError, match=f"n_bins must be an integer, got {bad!r}"):
            calibration_report(records, records, "lcs", n_bins=bad)

    def test_numpy_integer_bins_report_as_python_int(self, rng):
        dev, test = miscalibrated_records(rng, 40), miscalibrated_records(rng, 40)
        report = calibration_report(dev, test, "lcs", n_bins=np.int64(3))
        assert report.to_csv() == calibration_report(dev, test, "lcs", n_bins=3).to_csv()

    def test_csv_shape(self, rng):
        dev = miscalibrated_records(rng, 100)
        test = miscalibrated_records(rng, 100)
        report = calibration_report(dev, test, "lcs", n_bins=10)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "measure,ece_before,ece_after,n_bins,n_dev,n_test"
        assert lines[1].startswith("lcs,") and lines[1].endswith(",10,100,100")
