"""Forward pass, losses, SGD training and tree-level prediction."""

import math

import numpy as np
import pytest
from test_nn import _lstm_scalar_oracle

from veritas import (
    ConversationTree,
    HashingEmbedder,
    ModelParams,
    TrainingConfig,
    Tweet,
    branch_matrix,
    decompose_branches,
    forward_branch,
    init_params,
    make_folds,
    predict_tree,
    train,
    training_instances,
    tree_probs,
)
from veritas import nn
from veritas.errors import ConfigError, InvalidInput, ShapeError
from veritas.model import input_rms


def zero_params(input_dim=3, hidden=4, n_classes=3, out_b=None, var_b=None):
    layers = {
        "lstm.wx": np.zeros((4 * hidden, input_dim)),
        "lstm.wh": np.zeros((4 * hidden, hidden)),
        "lstm.b": np.zeros(4 * hidden),
        "out.w": np.zeros((n_classes, hidden)),
        "out.b": np.zeros(n_classes) if out_b is None else np.asarray(out_b, dtype=float),
        "var.w": np.zeros((1, hidden)),
        "var.b": np.zeros(1) if var_b is None else np.asarray(var_b, dtype=float),
    }
    return ModelParams(layers)


def chain_tree(tree_id, label, texts, event="e"):
    tweets = []
    for i, text in enumerate(texts):
        parent = None if i == 0 else f"{tree_id}.{i - 1}"
        tweets.append(Tweet(id=f"{tree_id}.{i}", parent_id=parent, timestamp=i, text=text))
    return ConversationTree(tree_id=tree_id, event=event, label=label, tweets=tuple(tweets))


def separable_corpus(per_class=6):
    words = {"true": "sun bright day", "false": "rain cold night", "unverified": "fog grey maybe"}
    trees = []
    for label, text in words.items():
        for i in range(per_class):
            trees.append(chain_tree(f"{label}{i}", label, [text, f"{text} again"]))
    return trees


# ---------------------------------------------------------------------------
# forward pass


class TestForwardBranch:
    def test_zero_network_exposes_head_biases(self):
        params = zero_params(out_b=[0.5, -0.25, 0.0], var_b=[-3.0])
        out = forward_branch(params, np.ones((4, 3)))
        np.testing.assert_allclose(out.logits, [0.5, -0.25, 0.0])
        np.testing.assert_allclose(out.variance, [math.log(1.0 + math.exp(-3.0))])
        np.testing.assert_allclose(out.probs, nn.softmax(np.array([0.5, -0.25, 0.0])))

    def test_deterministic_without_dropout(self, rng):
        params = init_params(input_dim=5, hidden_size=6, num_relu_layers=2, n_classes=3, seed=4)
        X = rng.normal(size=(3, 5))
        a = forward_branch(params, X)
        b = forward_branch(params, X)
        np.testing.assert_array_equal(a.logits, b.logits)
        np.testing.assert_array_equal(a.variance, b.variance)

    def test_matches_scalar_composition(self, rng):
        params = init_params(input_dim=4, hidden_size=3, num_relu_layers=1, n_classes=3, seed=7)
        X = rng.normal(size=(5, 4))
        p = params.layers

        hs = _lstm_scalar_oracle(p["lstm.wx"], p["lstm.wh"], p["lstm.b"], X)
        u = hs[-1]
        u = np.maximum(p["relu0.w"] @ u + p["relu0.b"], 0.0)
        logits = p["out.w"] @ u + p["out.b"]
        variance = np.log1p(np.exp(p["var.w"] @ u + p["var.b"]))

        out = forward_branch(params, X)
        np.testing.assert_allclose(out.logits, logits, rtol=1e-10)
        np.testing.assert_allclose(out.variance, variance, rtol=1e-10)

    def test_probs_sum_to_one(self, rng):
        params = init_params(input_dim=3, hidden_size=4, num_relu_layers=0, n_classes=4, seed=1)
        out = forward_branch(params, rng.normal(size=(2, 3)))
        assert abs(out.probs.sum() - 1.0) < 1e-12

    def test_variance_value_is_mean(self):
        params = init_params(
            input_dim=3, hidden_size=4, num_relu_layers=0, n_classes=3, seed=0, variance_dim=3
        )
        out = forward_branch(params, np.ones((2, 3)))
        assert out.variance.shape == (3,)
        assert out.variance_value == pytest.approx(float(np.mean(out.variance)))

    def test_shape_errors(self):
        params = zero_params(input_dim=3)
        with pytest.raises(ShapeError):
            forward_branch(params, np.ones((2, 5)))
        with pytest.raises(ShapeError):
            forward_branch(params, np.ones((0, 3)))
        with pytest.raises(ShapeError):
            forward_branch(params, np.ones(3))


class TestInitParams:
    def test_bounds_and_zero_biases(self):
        params = init_params(input_dim=16, hidden_size=8, num_relu_layers=2, n_classes=3, seed=0)
        assert np.abs(params["lstm.wx"]).max() <= 1.0 / 4.0
        assert np.abs(params["lstm.wh"]).max() <= 1.0 / math.sqrt(8)
        for name in ("lstm.b", "relu0.b", "relu1.b", "out.b", "var.b"):
            np.testing.assert_array_equal(params[name], np.zeros_like(params[name]))
        assert params.hidden_size == 8
        assert params.input_dim == 16
        assert params.n_classes == 3
        assert params.num_relu_layers == 2
        assert params.variance_dim == 1

    def test_seed_determinism(self):
        a = init_params(input_dim=4, hidden_size=4, num_relu_layers=1, n_classes=3, seed=5)
        b = init_params(input_dim=4, hidden_size=4, num_relu_layers=1, n_classes=3, seed=5)
        c = init_params(input_dim=4, hidden_size=4, num_relu_layers=1, n_classes=3, seed=6)
        assert all(np.array_equal(a[k], b[k]) for k in a.layers)
        assert not np.array_equal(a["lstm.wx"], c["lstm.wx"])

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            init_params(input_dim=0, hidden_size=4, num_relu_layers=0, n_classes=3)


# ---------------------------------------------------------------------------
# losses: the nn ops train() combines


def _sampled(logits, variance, target, n_draws, seed):
    """nn.sampled_xent over n_draws standard-normal rows from make_rng(seed)."""
    eps = nn.make_rng(seed).standard_normal((n_draws, len(logits)))
    return float(nn.sampled_xent(logits, variance, target, eps))


class TestCrossEntropy:
    def test_uniform_three_way(self):
        assert float(nn.softmax_xent(np.zeros(3), np.array([1.0, 0, 0]))) == pytest.approx(
            math.log(3.0), abs=1e-12
        )

    def test_hand_case(self):
        logits = np.log(np.array([0.7, 0.2, 0.1]))
        target = np.array([0.0, 1.0, 0.0])
        assert float(nn.softmax_xent(logits, target)) == pytest.approx(-math.log(0.2), abs=1e-12)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.softmax_xent(np.array([1.0]), np.array([1.0, 0.0]))


class TestSampledCrossEntropy:
    def test_zero_variance_reduces_exactly(self, rng):
        for _ in range(20):
            logits = rng.normal(size=3) * 3
            target = np.zeros(3)
            target[rng.integers(3)] = 1.0
            got = _sampled(logits, np.zeros(1), target, 16, 0)
            assert got == float(nn.softmax_xent(logits, target))

    def test_single_draw_matches_direct_formula(self):
        logits = np.array([0.3, -0.1, 0.6])
        variance = np.array([0.49])
        target = np.array([0.0, 0.0, 1.0])
        eps = nn.make_rng(42).standard_normal((1, 3))
        expected = -math.log(nn.softmax(logits + 0.7 * eps[0])[2])
        got = _sampled(logits, variance, target, 1, 42)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_agrees_with_independent_estimate(self):
        logits = np.array([1.0, 0.0])
        variance = np.array([0.25])
        target = np.array([1.0, 0.0])
        n = 10000
        got = _sampled(logits, variance, target, n, 1)

        eps = nn.make_rng(999).standard_normal((n, 2))
        draws = np.array(
            [-math.log(nn.softmax(logits + 0.5 * e)[0]) for e in eps]
        )
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(got - draws.mean()) < 6 * se

    def test_noise_can_soften_a_confident_mistake(self):
        # gold logit 5 below the max: for some noise level and draw stream the
        # sampled estimate drops below the noiseless loss
        logits = np.array([5.0, 0.0, 0.0])
        target = np.array([0.0, 1.0, 0.0])
        plain = float(nn.softmax_xent(logits, target))
        sampled = [
            _sampled(logits, np.array([float(v)]), target, 2000, seed)
            for seed in range(10)
            for v in (0.5, 1, 2, 5, 10, 25, 50, 100)
        ]
        assert min(sampled) < plain

    def test_validation(self):
        logits = np.array([0.0, 0.0])
        target = np.array([1.0, 0.0])
        with pytest.raises(ShapeError):
            _sampled(logits, np.zeros(1), target, 0, 0)
        with pytest.raises(InvalidInput):
            _sampled(logits, np.array([-0.1]), target, 4, 0)
        with pytest.raises(ShapeError):
            _sampled(logits, np.zeros(3), target, 4, 0)


# ---------------------------------------------------------------------------
# config


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_size": 0},
            {"num_relu_layers": -1},
            {"dropout_rate_train": 1.0},
            {"dropout_rate_train": -0.1},
            {"learning_rate": 0.0},
            {"epochs": -1},
            {"aleatoric_samples": 0},
            {"ce_weight": -1.0},
            {"ce_weight": 0.0, "aleatoric_weight": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TrainingConfig(**kwargs)


# ---------------------------------------------------------------------------
# training


SMALL_CONFIG = TrainingConfig(
    hidden_size=8,
    num_relu_layers=1,
    dropout_rate_train=0.2,
    learning_rate=0.05,
    epochs=20,
    aleatoric_samples=5,
    seed=0,
)


class TestTrainingInstances:
    def test_one_instance_per_branch(self):
        trees = separable_corpus(per_class=2)
        emb = HashingEmbedder(dimension=8)
        instances = training_instances(trees, ("true", "false", "unverified"), emb)
        assert len(instances) == sum(len(decompose_branches(t)) for t in trees)
        X, y = instances[0]
        assert X.shape == (2, 8) and y == 0

    def test_unknown_label_rejected(self):
        trees = [chain_tree("t0", "true", ["hi"])]
        with pytest.raises(ConfigError, match="not in classes"):
            training_instances(trees, ("false", "unverified"), HashingEmbedder(dimension=4))


class TestTrain:
    def _setup(self, per_class=6, k=3, seed=11):
        trees = separable_corpus(per_class)
        folds = make_folds(trees, "k_fold", k=k, seed=seed)
        emb = HashingEmbedder(dimension=24, seed=1)
        return trees, folds, emb

    def test_zero_epochs_returns_seeded_init(self):
        trees, folds, emb = self._setup()
        config = TrainingConfig(
            hidden_size=8, num_relu_layers=1, epochs=0, learning_rate=0.05, seed=9
        )
        params = train(trees, folds, 0, config, emb)
        train_trees = [t for t in trees if folds.assignments[t.tree_id] != 0]
        scale = input_rms(
            training_instances(train_trees, ("true", "false", "unverified"), emb)
        )
        fresh = init_params(
            input_dim=24, hidden_size=8, num_relu_layers=1, n_classes=3, seed=9,
            input_scale=scale,
        )
        assert set(params.layers) == set(fresh.layers)
        assert all(np.array_equal(params[k], fresh[k]) for k in params.layers)

    def test_deterministic_in_seed(self):
        trees, folds, emb = self._setup(per_class=3)
        config = TrainingConfig(
            hidden_size=6, num_relu_layers=0, epochs=2, learning_rate=0.05,
            aleatoric_samples=3, seed=2,
        )
        a = train(trees, folds, 0, config, emb)
        b = train(trees, folds, 0, config, emb)
        assert all(np.array_equal(a[k], b[k]) for k in a.layers)

    def test_loss_decreases_on_memorizable_data(self):
        trees, folds, emb = self._setup(per_class=3)
        config = TrainingConfig(
            hidden_size=8, num_relu_layers=1, dropout_rate_train=0.0,
            learning_rate=0.05, epochs=12, aleatoric_samples=5, seed=0,
        )
        history = []
        train(trees, folds, 0, config, emb, history=history)
        assert len(history) == config.epochs
        assert history[-1].loss_ce < history[0].loss_ce

    def test_history_total_combines_parts(self):
        trees, folds, emb = self._setup(per_class=3)
        history = []
        config = TrainingConfig(
            hidden_size=6, num_relu_layers=0, epochs=3, learning_rate=0.05,
            aleatoric_samples=3, ce_weight=1.0, aleatoric_weight=0.2, seed=0,
        )
        train(trees, folds, 0, config, emb, history=history)
        for row in history:
            assert row.loss_total == pytest.approx(
                1.0 * row.loss_ce + 0.2 * row.loss_sampled, rel=1e-9
            )

    def test_learns_separable_classes(self):
        trees, folds, emb = self._setup()
        params = train(trees, folds, 0, SMALL_CONFIG, emb)
        train_trees = [t for t in trees if folds.assignments[t.tree_id] != 0]
        classes = ("true", "false", "unverified")
        hits = sum(
            classes[predict_tree(params, t, emb)[1]] == t.label for t in train_trees
        )
        assert hits / len(train_trees) >= 0.95

    def test_dev_fold_excluded_from_training(self):
        trees, folds, emb = self._setup(per_class=4)
        config = TrainingConfig(hidden_size=4, num_relu_layers=0, epochs=1, seed=0)
        # removing the dev fold changes the instance stream, so params differ
        with_dev = train(trees, folds, 0, config, emb, dev_fold=1)
        without = train(trees, folds, 0, config, emb)
        assert any(not np.array_equal(with_dev[k], without[k]) for k in with_dev.layers)

    def test_missing_assignment_rejected(self):
        trees, folds, emb = self._setup(per_class=2)
        orphan = chain_tree("orphan", "true", ["hi"])
        with pytest.raises(ConfigError, match="orphan"):
            train(trees + [orphan], folds, 0, SMALL_CONFIG, emb)

    def test_variance_per_logit_widens_head(self):
        trees, folds, emb = self._setup(per_class=2)
        config = TrainingConfig(
            hidden_size=4, num_relu_layers=0, epochs=1, variance_per_logit=True, seed=0
        )
        params = train(trees, folds, 0, config, emb)
        assert params.variance_dim == 3


# ---------------------------------------------------------------------------
# prediction


class TestPrediction:
    def test_uniform_tie_goes_to_first_class(self):
        params = zero_params()
        tree = chain_tree("t", "true", ["a", "b"])
        emb = HashingEmbedder(dimension=3)
        probs, cls = predict_tree(params, tree, emb)
        np.testing.assert_allclose(probs, np.full(3, 1 / 3))
        assert cls == 0

    def test_tree_probs_averages_branches(self, rng):
        params = init_params(input_dim=6, hidden_size=5, num_relu_layers=1, n_classes=3, seed=3)
        emb = HashingEmbedder(dimension=6, seed=2)
        tweets = [Tweet(id="r", parent_id=None, timestamp=0, text="root text")]
        for i in range(5):
            tweets.append(
                Tweet(id=f"l{i}", parent_id="r", timestamp=i + 1, text=f"reply number {i}")
            )
        tree = ConversationTree(tree_id="t", event="e", label="true", tweets=tuple(tweets))

        per_branch = [
            forward_branch(params, branch_matrix(b, emb)).probs
            for b in decompose_branches(tree)
        ]
        assert len(per_branch) == 5
        np.testing.assert_allclose(
            tree_probs(params, tree, emb), np.mean(per_branch, axis=0), rtol=1e-12
        )

    def test_predict_returns_argmax(self, rng):
        params = init_params(input_dim=4, hidden_size=4, num_relu_layers=0, n_classes=3, seed=8)
        tree = chain_tree("t", "true", ["some words here", "and a reply"])
        emb = HashingEmbedder(dimension=4, seed=5)
        probs, cls = predict_tree(params, tree, emb)
        assert cls == int(np.argmax(probs))


# ---------------------------------------------------------------------------
# checkpoints


class TestModelParamsIO:
    def test_save_load_round_trip(self, tmp_path):
        params = init_params(input_dim=5, hidden_size=4, num_relu_layers=2, n_classes=4, seed=1)
        path = tmp_path / "params.json"
        params.save(path)
        loaded = ModelParams.load(path)
        assert set(loaded.layers) == set(params.layers)
        assert all(np.array_equal(loaded[k], params[k]) for k in params.layers)

    def test_copy_is_independent(self):
        params = init_params(input_dim=3, hidden_size=3, num_relu_layers=0, n_classes=3, seed=0)
        dup = params.copy()
        dup.layers["out.b"][0] = 99.0
        assert params["out.b"][0] == 0.0
