"""Kruskal-Wallis H and the chi-square tail it depends on."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from veritas.errors import ConfigError, InvalidInput
from veritas.stats import _average_ranks, chi2_sf, kruskal_wallis


class TestChiSquareTail:
    def test_matches_scipy_over_grid(self):
        rng = np.random.default_rng(42)
        xs = np.concatenate([[1e-9, 1e-3, 0.5], np.linspace(1.0, 1000.0, 100), rng.uniform(0, 1000, 50)])
        # every df from 1 to 200, so odd (erfc start) and even df both run
        for df in range(1, 201):
            got = [chi2_sf(float(x), df) for x in xs]
            np.testing.assert_allclose(got, sps.chi2.sf(xs, df), rtol=1e-11, atol=1e-12)

    def test_boundaries(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 3) == 1.0
        assert chi2_sf(1e6, 1) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decreasing_in_x(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = [chi2_sf(float(x), 4) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_df_validation(self):
        with pytest.raises(ConfigError):
            chi2_sf(1.0, 0)

    @pytest.mark.parametrize("df", [2.0, 2.5, "3", None])
    def test_non_integer_df_rejected(self, df):
        with pytest.raises(ConfigError):
            chi2_sf(1.0, df)

    @pytest.mark.parametrize("df", [True, np.True_], ids=repr)
    def test_bool_df_rejected(self, df):
        """A bool is no integer here, as in every config field."""
        with pytest.raises(ConfigError, match="chi2_sf needs an integer df >= 1"):
            chi2_sf(1.0, df)

    def test_numpy_integer_df_accepted(self):
        assert chi2_sf(3.0, np.int64(2)) == chi2_sf(3.0, 2)

    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_non_finite_x_rejected(self, x):
        with pytest.raises(InvalidInput):
            chi2_sf(x, 2)


class TestAverageRanks:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            # a small support forces runs of ties of every length
            st.one_of(st.sampled_from([-1.5, 0.0, 0.1, 0.25, 2.0, 1e9]), st.floats(-1e6, 1e6)),
            min_size=1,
            max_size=40,
        )
    )
    def test_midranks_and_tie_sum_match_references(self, values):
        data = np.asarray(values, dtype=np.float64)
        ranks, tie_sum = _average_ranks(data)
        np.testing.assert_array_equal(ranks, sps.rankdata(data))
        _, counts = np.unique(data, return_counts=True)
        assert tie_sum == float(np.sum(counts**3 - counts))


class TestKruskalWallis:
    def test_balanced_rank_sums_give_zero(self):
        h, p = kruskal_wallis([[1.0, 4.0], [2.0, 3.0]])
        assert h == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_fully_separated_groups(self):
        h, p = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        # rank sums 6 and 15: H = 12/(6*7) * (36/3 + 225/3) - 21
        assert h == pytest.approx(27.0 / 7.0, abs=1e-12)
        assert h == pytest.approx(3.857, abs=1e-3)
        assert p == pytest.approx(sps.chi2.sf(27.0 / 7.0, 1), abs=1e-10)

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            groups = [rng.normal(size=int(rng.integers(3, 12))).tolist() for _ in range(k)]
            h, p = kruskal_wallis(groups)
            ref = sps.kruskal(*groups)
            assert h == pytest.approx(ref.statistic, abs=1e-8)
            assert p == pytest.approx(ref.pvalue, abs=1e-8)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            # small integer support forces heavy ties
            groups = [
                rng.integers(0, 5, size=int(rng.integers(3, 12))).astype(float).tolist()
                for _ in range(k)
            ]
            if len({v for g in groups for v in g}) == 1:
                continue
            h, p = kruskal_wallis(groups)
            ref = sps.kruskal(*groups)
            assert h == pytest.approx(ref.statistic, abs=1e-8)
            assert p == pytest.approx(ref.pvalue, abs=1e-8)

    def test_all_identical_values(self):
        assert kruskal_wallis([[2.0, 2.0], [2.0, 2.0, 2.0]]) == (0.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                # coarse grid so the transform stays injective in floating point
                st.integers(-5000, 5000).map(lambda n: n / 100),
                min_size=2,
                max_size=8,
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_invariant_under_monotone_transform(self, groups):
        h1, p1 = kruskal_wallis(groups)
        transformed = [[math.atan(v) * 3 + 1 for v in g] for g in groups]
        h2, p2 = kruskal_wallis(transformed)
        assert h1 == pytest.approx(h2, abs=1e-9)
        assert p1 == pytest.approx(p2, abs=1e-9)

    def test_group_order_scales_symmetrically(self):
        a, b = [1.0, 5.0, 9.0], [2.0, 3.0, 8.0, 10.0]
        assert kruskal_wallis([a, b]) == pytest.approx(kruskal_wallis([b, a]))

    def test_null_simulation_rejection_rate(self):
        rng = np.random.default_rng(2024)
        rejections = 0
        trials = 1000
        for _ in range(trials):
            groups = [rng.normal(size=15).tolist() for _ in range(3)]
            _, p = kruskal_wallis(groups)
            rejections += p < 0.05
        assert 0.03 <= rejections / trials <= 0.07

    def test_validation(self):
        with pytest.raises(ConfigError):
            kruskal_wallis([[1.0, 2.0]])
        with pytest.raises(ConfigError):
            kruskal_wallis([[1.0], []])
        with pytest.raises(InvalidInput):
            kruskal_wallis([[1.0, float("inf")], [2.0, 3.0]])
