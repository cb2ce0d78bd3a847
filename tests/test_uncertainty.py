"""MC-dropout sampling, reductions, softmax scores and bundles."""

import math
import re

import numpy as np
import pytest
from conftest import bundle_with, pass_masks
from hypothesis import given, settings
from hypothesis import strategies as st
from test_model import chain_tree, separable_corpus

from veritas import (
    HashingEmbedder,
    SampleSet,
    TrainingConfig,
    UncertaintyConfig,
    bundle,
    forward_branch,
    make_folds,
    max_variance,
    mc_sample,
    mc_sample_branches,
    predict_tree,
    predictive_entropy,
    softmax_confidences,
    train,
    tree_probs,
    uncertainty_value,
    variation_ratio,
)
from veritas.data import branch_matrix, decompose_branches
from veritas.errors import ConfigError, InvalidInput, child_rng
from veritas.uncertainty import MEASURE_TABLE, MEASURES, aleatoric_score


def sample_set(rows):
    return SampleSet(np.asarray(rows, dtype=np.float64))


@pytest.fixture(scope="module")
def toy_model():
    trees = separable_corpus(per_class=4)
    folds = make_folds(trees, "k_fold", k=4, seed=7)
    emb = HashingEmbedder(dimension=24, seed=1)
    config = TrainingConfig(
        hidden_size=8, num_relu_layers=1, dropout_rate_train=0.2,
        learning_rate=0.05, epochs=10, aleatoric_samples=5, seed=0,
    )
    params = train(trees, folds, 0, config, emb)
    return params, trees, emb


# ---------------------------------------------------------------------------
# sampling


class TestMcSample:
    def test_rate_zero_rows_identical_to_deterministic(self, toy_model):
        params, trees, emb = toy_model
        det, _ = predict_tree(params, trees[0], emb)
        s = mc_sample(params, trees[0], emb, 8, 0.0, seed=3)
        for row in s.samples:
            np.testing.assert_array_equal(row, det)

    def test_seed_determinism(self, toy_model):
        params, trees, emb = toy_model
        a = mc_sample(params, trees[0], emb, 6, 0.3, seed=5)
        b = mc_sample(params, trees[0], emb, 6, 0.3, seed=5)
        c = mc_sample(params, trees[0], emb, 6, 0.3, seed=6)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_sample_i_independent_of_count(self, toy_model):
        # the samples draw in turn from one stream per tree: growing n_samples never changes earlier rows
        params, trees, emb = toy_model
        small = mc_sample(params, trees[0], emb, 3, 0.3, seed=9)
        big = mc_sample(params, trees[0], emb, 10, 0.3, seed=9)
        np.testing.assert_array_equal(big.samples[:3], small.samples)

    def test_row_means_converge_to_large_sample_oracle(self, toy_model):
        params, trees, emb = toy_model
        tree = trees[0]
        small = mc_sample(params, tree, emb, 25, 0.3, seed=1)
        oracle_rows = [
            tree_probs(params, tree, emb, pass_masks(params, tree, 0.3, child_rng(777, i)))
            for i in range(10000)
        ]
        oracle_mean = np.mean(oracle_rows, axis=0)
        assert np.abs(small.samples.mean(axis=0) - oracle_mean).max() < 0.05

    def test_rejects_bad_count(self, toy_model):
        params, trees, emb = toy_model
        with pytest.raises(ConfigError):
            mc_sample(params, trees[0], emb, 0, 0.3)

    @pytest.mark.parametrize("branch_level", [False, True])
    @pytest.mark.parametrize(
        "n_samples, message",
        [
            (2.5, "n_samples must be an integer, got 2.5"),
            (True, "n_samples must be an integer, got True"),
            ("3", "n_samples must be an integer, got '3'"),
            (0, "n_samples must be >= 1, got 0"),
        ],
        ids=repr,
    )
    def test_every_sampling_call_checks_the_count(self, toy_model, branch_level, n_samples, message):
        """bundle, mc_sample and mc_sample_branches share one rule, UncertaintyConfig's."""
        params, trees, emb = toy_model
        calls = [
            lambda: bundle(params, trees[0], emb, n_samples, 0.3, branch_level=branch_level),
            lambda: (mc_sample_branches if branch_level else mc_sample)(params, trees[0], emb, n_samples, 0.3),
        ]
        for call in calls:
            with pytest.raises(ConfigError) as info:
                call()
            assert str(info.value) == message

    def test_numpy_count_gives_the_same_samples(self, toy_model):
        params, trees, emb = toy_model
        a = mc_sample(params, trees[0], emb, np.int64(3), 0.3, seed=4)
        np.testing.assert_array_equal(a.samples, mc_sample(params, trees[0], emb, 3, 0.3, seed=4).samples)

    def test_branch_mode_shapes(self, toy_model):
        params, trees, emb = toy_model
        sets = mc_sample_branches(params, trees[0], emb, 4, 0.3, seed=2)
        assert len(sets) == len(decompose_branches(trees[0]))
        assert all(s.n_samples == 4 for s in sets)


class TestSampleSetValidation:
    def test_rejects_non_probability_rows(self):
        with pytest.raises(InvalidInput):
            sample_set([[0.9, 0.9]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            SampleSet(np.zeros((0, 3)))

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidInput):
            SampleSet(np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# epistemic reductions


class TestVariationRatio:
    def test_all_agree(self):
        assert variation_ratio(sample_set([[0.9, 0.1]] * 5)) == 0.0

    def test_three_two_split(self):
        rows = [[0.9, 0.1]] * 3 + [[0.2, 0.8]] * 2
        assert variation_ratio(sample_set(rows)) == pytest.approx(0.4, abs=1e-15)

    def test_two_rows_disagreeing_hit_the_bound(self):
        rows = [[1.0, 0.0], [0.0, 1.0]]
        assert variation_ratio(sample_set(rows)) == 0.5

    def test_zero_iff_unanimous(self, rng):
        for _ in range(50):
            raw = rng.random((6, 3)) + 1e-6
            s = sample_set(raw / raw.sum(axis=1, keepdims=True))
            votes = np.argmax(s.samples, axis=1)
            assert (variation_ratio(s) == 0.0) == bool(len(set(votes)) == 1)

    def test_matches_counting_oracle(self, rng):
        for _ in range(200):
            raw = rng.random((int(rng.integers(1, 12)), int(rng.integers(2, 5)))) + 1e-9
            s = sample_set(raw / raw.sum(axis=1, keepdims=True))
            votes = [int(np.argmax(row)) for row in s.samples]
            n_mode = max(votes.count(v) for v in set(votes))
            assert variation_ratio(s) == pytest.approx(1 - n_mode / len(votes), abs=1e-15)


class TestPredictiveEntropy:
    def test_one_hot_mean(self):
        assert predictive_entropy(sample_set([[1.0, 0.0], [1.0, 0.0]])) == 0.0

    def test_uniform_mean(self):
        rows = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert predictive_entropy(sample_set(rows)) == pytest.approx(math.log(3), abs=1e-12)

    def test_hand_case(self):
        s = sample_set([[0.5, 0.25, 0.25]])
        assert predictive_entropy(s) == pytest.approx(1.03972, abs=1e-5)

    def test_column_permutation_invariant(self, rng):
        raw = rng.random((5, 4)) + 1e-9
        rows = raw / raw.sum(axis=1, keepdims=True)
        perm = rng.permutation(4)
        a = predictive_entropy(sample_set(rows))
        b = predictive_entropy(sample_set(rows[:, perm]))
        assert a == pytest.approx(b, abs=1e-12)


class TestMaxVariance:
    def test_identical_rows(self):
        assert max_variance(sample_set([[0.3, 0.7]] * 4)) == 0.0

    def test_single_row_returns_zero(self):
        assert max_variance(sample_set([[0.3, 0.7]])) == 0.0

    def test_two_opposite_rows_hit_quarter(self):
        assert max_variance(sample_set([[1.0, 0.0], [0.0, 1.0]])) == 0.25

    def test_matches_two_pass_oracle(self, rng):
        raw = rng.random((10, 3)) + 1e-9
        rows = raw / raw.sum(axis=1, keepdims=True)
        s = sample_set(rows)
        best = 0.0
        for c in range(3):
            col = rows[:, c]
            mean = sum(col) / len(col)
            best = max(best, sum((x - mean) ** 2 for x in col) / len(col))
        assert max_variance(s) == pytest.approx(best, abs=1e-12)

    def test_zero_iff_rows_identical(self, rng):
        raw = rng.random((4, 3)) + 1e-9
        rows = raw / raw.sum(axis=1, keepdims=True)
        assert max_variance(sample_set(rows)) > 0
        assert max_variance(sample_set(np.tile(rows[:1], (4, 1)))) == 0.0


def test_duplicating_rows_changes_nothing(rng):
    raw = rng.random((6, 3)) + 1e-9
    rows = raw / raw.sum(axis=1, keepdims=True)
    once = sample_set(rows)
    twice = sample_set(np.vstack([rows, rows]))
    assert variation_ratio(twice) == pytest.approx(variation_ratio(once), abs=1e-15)
    assert predictive_entropy(twice) == pytest.approx(predictive_entropy(once), abs=1e-12)
    assert max_variance(twice) == pytest.approx(max_variance(once), abs=1e-12)


# ---------------------------------------------------------------------------
# softmax scores


class TestSoftmaxConfidences:
    def test_one_hot(self):
        c = softmax_confidences(np.array([0.0, 1.0, 0.0]))
        assert (c.lcs, c.margin, c.ratio, c.entropy) == (1.0, 1.0, 0.0, 0.0)

    def test_uniform_two_class(self):
        c = softmax_confidences(np.array([0.5, 0.5]))
        assert c.lcs == 0.5 and c.margin == 0.0 and c.ratio == 1.0
        assert c.entropy == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_case(self):
        c = softmax_confidences(np.array([0.6, 0.3, 0.1]))
        assert c.lcs == pytest.approx(0.6)
        assert c.margin == pytest.approx(0.3)
        assert c.ratio == pytest.approx(0.5)
        assert c.entropy == pytest.approx(0.89794, abs=1e-5)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            softmax_confidences(np.array([0.9, 0.9]))
        with pytest.raises(InvalidInput):
            softmax_confidences(np.array([1.0]))

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    @settings(max_examples=100, deadline=None)
    def test_two_class_identities(self, p):
        c = softmax_confidences(np.array([p, 1.0 - p]))
        assert c.margin == pytest.approx(2 * c.lcs - 1, abs=1e-12)
        assert c.ratio == pytest.approx((1 - c.lcs) / c.lcs, abs=1e-12)


# ---------------------------------------------------------------------------
# aleatoric


class TestAleatoricScore:
    def test_single_branch_equals_branch_sigma(self, toy_model):
        params, _, emb = toy_model
        tree = chain_tree("single", "true", ["one tweet", "a reply"])
        (branch,) = decompose_branches(tree)
        expected = float(np.mean(forward_branch(params, branch_matrix(branch, emb)).variance))
        assert aleatoric_score(params, tree, emb) == pytest.approx(expected, rel=1e-12)

    def test_zero_head_gives_softplus_bias(self, toy_model):
        _, trees, emb = toy_model
        from test_model import zero_params

        params = zero_params(input_dim=24, var_b=[-1.0])
        expected = math.log(1 + math.exp(-1.0))
        for tree in trees[:3]:
            assert aleatoric_score(params, tree, emb) == pytest.approx(expected, rel=1e-12)

    def test_multi_branch_hand_average(self, toy_model):
        params, _, emb = toy_model
        tree = ConversationTreeFactory.three_branches()
        sigmas = [
            float(np.mean(forward_branch(params, branch_matrix(b, emb)).variance))
            for b in decompose_branches(tree)
        ]
        assert len(sigmas) == 3
        assert aleatoric_score(params, tree, emb) == pytest.approx(
            sum(sigmas) / 3, rel=1e-12
        )


class ConversationTreeFactory:
    @staticmethod
    def three_branches():
        from veritas import ConversationTree, Tweet

        tweets = (
            Tweet(id="r", parent_id=None, timestamp=0, text="root claim here"),
            Tweet(id="a", parent_id="r", timestamp=1, text="first reply"),
            Tweet(id="b", parent_id="r", timestamp=2, text="second reply"),
            Tweet(id="c", parent_id="a", timestamp=3, text="nested answer"),
            Tweet(id="d", parent_id="r", timestamp=4, text="third reply"),
        )
        return ConversationTree(tree_id="t3", event="e", label="true", tweets=tweets)


# ---------------------------------------------------------------------------
# bundle


class TestBundle:
    def test_rate_zero(self, toy_model):
        params, trees, emb = toy_model
        b = bundle(params, trees[0], emb, 10, 0.0, seed=0)
        det, det_class = predict_tree(params, trees[0], emb)
        assert b.variation_ratio == 0.0 and b.variance == 0.0
        assert b.entropy == pytest.approx(softmax_confidences(det).entropy, abs=1e-12)
        assert b.predicted_class == det_class

    def test_compositional_oracle(self, toy_model):
        params, trees, emb = toy_model
        tree = trees[1]
        b = bundle(params, tree, emb, 12, 0.3, seed=4)

        s = mc_sample(params, tree, emb, 12, 0.3, seed=4)
        det, det_class = predict_tree(params, tree, emb)
        conf = softmax_confidences(det)
        assert b.variation_ratio == variation_ratio(s)
        assert b.entropy == predictive_entropy(s)
        assert b.variance == max_variance(s)
        assert b.aleatoric == aleatoric_score(params, tree, emb)
        assert (b.softmax_lcs, b.softmax_margin) == (conf.lcs, conf.margin)
        assert (b.softmax_ratio, b.softmax_entropy) == (conf.ratio, conf.entropy)
        np.testing.assert_array_equal(np.array(b.mean_probs), det)
        assert b.predicted_class == det_class

    def test_branch_level_mode_averages(self, toy_model):
        params, trees, emb = toy_model
        tree = trees[2]
        b = bundle(params, tree, emb, 6, 0.3, seed=8, branch_level=True)
        sets = mc_sample_branches(params, tree, emb, 6, 0.3, seed=8)
        assert b.variation_ratio == pytest.approx(
            np.mean([variation_ratio(s) for s in sets]), abs=1e-15
        )
        assert b.variance == pytest.approx(
            np.mean([max_variance(s) for s in sets]), abs=1e-15
        )

    @pytest.mark.parametrize("sampler", [bundle, mc_sample, mc_sample_branches], ids=lambda f: f.__name__)
    def test_negative_seed_names_the_callers_seed(self, toy_model, sampler):
        """The error names the seed given, not the per-tree stream key derived from it."""
        params, trees, emb = toy_model
        with pytest.raises(ConfigError) as info:
            sampler(params, trees[0], emb, 3, 0.3, seed=-1)
        assert str(info.value) == "random seeds must be nonnegative, got -1"

    @pytest.mark.parametrize("flag", ["no", 1, 0, None, np.True_], ids=repr)
    def test_branch_level_must_be_a_bool(self, toy_model, flag):
        """UncertaintyConfig.branch_level's rule: a truthy non-bool once sampled branch by branch silently."""
        params, trees, emb = toy_model
        with pytest.raises(ConfigError) as info:
            bundle(params, trees[0], emb, 3, 0.3, branch_level=flag)
        assert str(info.value) == f"branch_level must be a bool, got {flag!r}"

    def test_invariant_sweep(self, toy_model):
        params, trees, emb = toy_model
        for i, tree in enumerate(trees):
            b = bundle(params, tree, emb, 7, 0.3, seed=i)
            n = 7
            assert 0.0 <= b.variation_ratio <= 1.0 - 1.0 / n
            assert 0.0 <= b.entropy <= math.log(b.n_classes) + 1e-12
            assert 0.0 <= b.variance <= 0.25
            assert b.aleatoric >= 0.0
            assert abs(sum(b.mean_probs) - 1.0) < 1e-9
            assert b.predicted_class == int(np.argmax(b.mean_probs))


# Each case is a value no bundle may hold and the field its InvalidInput
# names. variation_ratio=nan is the record that once reached the rejection
# ranking: of four records with variation ratios 0.0, NaN, 0.2 and 0.3, a cut
# at retain 0.5 removed the NaN one and the most certain one.
INVALID_BUNDLES = [({m.field: v}, m.field) for m in MEASURE_TABLE for v in (math.nan, math.inf, -math.inf)] + [
    ({"variation_ratio": 1.5}, "variation_ratio"),
    ({"variation_ratio": -0.25}, "variation_ratio"),
    ({"mean_probs": (0.5, math.nan, 0.5)}, "mean_probs[1]"),
    ({"mean_probs": (math.inf, 0.0)}, "mean_probs[0]"),
    ({"mean_probs": (1.25, -0.25)}, "mean_probs[1]"),
    ({"mean_probs": (0.75, 0.5)}, "mean_probs"),
    ({"mean_probs": (1.0,)}, "mean_probs"),
    ({"mean_probs": (), "predicted_class": 0}, "mean_probs"),
    ({"mean_probs": (1.0, 0.0, 0.0), "predicted_class": 1}, "predicted_class"),
    ({"mean_probs": (0.25, 0.375, 0.375), "predicted_class": 2}, "predicted_class"),
]


@pytest.mark.parametrize(
    "overrides, field",
    INVALID_BUNDLES,
    ids=["-".join(f"{k}={v}" for k, v in o.items()) for o, _ in INVALID_BUNDLES],
)
def test_invalid_bundle_raises_naming_the_field(overrides, field):
    with pytest.raises(InvalidInput, match=rf"^{re.escape(field)}: "):
        bundle_with(**overrides)


def test_bundle_accepts_the_edges_of_each_rule():
    bundle_with(variation_ratio=0.0, mean_probs=(0.5, 0.5), predicted_class=0)
    bundle_with(variation_ratio=1.0, mean_probs=(0.0, 1.0 + 1e-7), predicted_class=1)
    bundle_with(mean_probs=(-0.0, 1.0 - 1e-7, 0.0), aleatoric=-1e300, entropy=1e300)


# ---------------------------------------------------------------------------
# measure ranking values


class TestUncertaintyValue:
    def _bundle(self, **kw):
        return bundle_with(**kw)

    def test_uncertainty_measures_pass_through(self):
        b = self._bundle(variation_ratio=0.4, entropy=0.9, variance=0.1, aleatoric=2.5)
        assert uncertainty_value(b, "variation_ratio") == 0.4
        assert uncertainty_value(b, "entropy") == 0.9
        assert uncertainty_value(b, "variance") == 0.1
        assert uncertainty_value(b, "aleatoric") == 2.5

    def test_confidence_measures_inverted(self):
        b = self._bundle(softmax_lcs=0.8, softmax_margin=0.6)
        assert uncertainty_value(b, "lcs") == pytest.approx(0.2)
        assert uncertainty_value(b, "margin") == pytest.approx(0.4)

    def test_ratio_and_softmax_entropy_pass_through(self):
        b = self._bundle(softmax_ratio=0.7, softmax_entropy=1.01)
        assert uncertainty_value(b, "ratio") == 0.7
        assert uncertainty_value(b, "softmax_entropy") == 1.01

    def test_unknown_measure(self):
        with pytest.raises(ConfigError, match="unknown measure"):
            uncertainty_value(self._bundle(), "sigma")

    def test_measure_list_is_fixed(self):
        assert MEASURES == (
            "variation_ratio", "entropy", "variance", "aleatoric",
            "lcs", "margin", "ratio", "softmax_entropy",
        )


class TestUncertaintyConfig:
    def test_defaults(self):
        cfg = UncertaintyConfig()
        assert cfg.n_samples == 25 and cfg.dropout_rate == 0.3

    def test_validation(self):
        with pytest.raises(ConfigError):
            UncertaintyConfig(n_samples=0)
        with pytest.raises(ConfigError):
            UncertaintyConfig(dropout_rate=1.0)
