"""Forward pass, losses, SGD training, tree-level prediction and checkpoints."""

import json
import math

import numpy as np
import pytest
from test_nn import _lstm_scalar_oracle

from veritas import (
    ConversationTree,
    HashingEmbedder,
    ModelParams,
    TableEmbedder,
    TrainingConfig,
    Tweet,
    aleatoric_score,
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
import veritas.model
from veritas import nn
from veritas.errors import ConfigError, DataError, InvalidInput, ShapeError, make_rng
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

    def test_aleatoric_score_of_one_branch_is_its_variance_mean(self):
        params = init_params(
            input_dim=3, hidden_size=4, num_relu_layers=0, n_classes=3, seed=0, variance_dim=3
        )
        out = forward_branch(params, np.ones((2, 3)))
        assert out.variance.shape == (3,)
        # Each tweet embeds as the all-ones row, so the tree's one branch is the matrix above.
        tree = chain_tree("t", "true", ["a", "a"])
        score = aleatoric_score(params, tree, TableEmbedder({"a": np.ones(3)}, dimension=3))
        assert score == pytest.approx(float(np.mean(out.variance)))

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hidden_size": 2.5}, "hidden_size must be an integer, got 2.5"),
            ({"hidden_size": 4.0}, "hidden_size must be an integer, got 4.0"),
            ({"num_relu_layers": 1.5}, "num_relu_layers must be an integer, got 1.5"),
            ({"input_dim": True}, "input_dim must be an integer, got True"),
            ({"n_classes": 0}, "n_classes must be >= 1, got 0"),
            ({"num_relu_layers": -1}, "num_relu_layers must be >= 0, got -1"),
            ({"input_scale": True}, "input_scale must be a finite number, got True"),
            ({"input_scale": math.nan}, "input_scale must be a finite number, got nan"),
            ({"input_scale": 0.0}, "input_scale must be > 0, got 0.0"),
        ],
    )
    def test_dimensions_and_scale_follow_the_config_rules(self, kwargs, message):
        args = {"input_dim": 32, "hidden_size": 4, "num_relu_layers": 1, "n_classes": 3, **kwargs}
        with pytest.raises(ConfigError) as info:
            init_params(**args)
        assert str(info.value) == message

    def test_numpy_dimensions_give_the_same_params(self):
        a = init_params(np.int64(4), np.int64(3), np.int64(1), np.int64(3), seed=2, input_scale=np.float64(0.5))
        b = init_params(4, 3, 1, 3, seed=2, input_scale=0.5)
        assert all(np.array_equal(a[k], b[k]) for k in b.layers)


# ---------------------------------------------------------------------------
# losses: the nn ops train() combines


def _sampled(logits, variance, target, n_draws, seed):
    """nn.sampled_xent over n_draws standard-normal rows from make_rng(seed)."""
    eps = make_rng(seed).standard_normal((n_draws, len(logits)))
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
        eps = make_rng(42).standard_normal((1, 3))
        expected = -math.log(nn.softmax(logits + 0.7 * eps[0])[2])
        got = _sampled(logits, variance, target, 1, 42)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_agrees_with_independent_estimate(self):
        logits = np.array([1.0, 0.0])
        variance = np.array([0.25])
        target = np.array([1.0, 0.0])
        n = 10000
        got = _sampled(logits, variance, target, n, 1)

        eps = make_rng(999).standard_normal((n, 2))
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
            {"aleatoric_weight": -0.5},
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

    def test_input_order_does_not_change_the_model(self):
        trees, folds, emb = self._setup(per_class=4)
        config = TrainingConfig(hidden_size=5, num_relu_layers=1, epochs=2, aleatoric_samples=3, seed=4)
        shuffled = [trees[int(i)] for i in np.random.default_rng(0).permutation(len(trees))]
        assert [t.tree_id for t in shuffled] != [t.tree_id for t in trees]
        runs = []
        for order in (trees, shuffled):
            history = []
            runs.append((train(order, folds, 0, config, emb, history=history), history))
        (a, history_a), (b, history_b) = runs
        assert history_a == history_b
        assert all(np.array_equal(a[k], b[k]) for k in a.layers)

    def test_train_calls_backward_and_sgd_step_per_branch_and_epoch(self, monkeypatch):
        trees, folds, emb = self._setup(per_class=3)
        # A second reply to each root: two branches per tree.
        forked = [
            ConversationTree(
                tree_id=t.tree_id, event=t.event, label=t.label,
                tweets=t.tweets + (Tweet(id=f"{t.tree_id}.x", parent_id=t.tweets[0].id, timestamp=9, text="and"),),
            )
            for t in trees
        ]
        calls = {"backward": 0, "sgd_step": 0}
        for name in calls:
            def spy(*args, _name=name, _original=getattr(nn, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(nn, name, spy)
        config = TrainingConfig(hidden_size=4, num_relu_layers=1, epochs=3, aleatoric_samples=2, seed=0)
        train(forked, folds, 0, config, emb)
        branches = sum(len(decompose_branches(t)) for t in forked if folds.assignments[t.tree_id] != 0)
        assert branches == 2 * sum(folds.assignments[t.tree_id] != 0 for t in forked)
        assert calls == {"backward": branches * config.epochs, "sgd_step": branches * config.epochs}

    def test_step_error_names_fold_epoch_and_tree(self, monkeypatch):
        trees, folds, emb = self._setup(per_class=3)
        embedded = []

        def counting_branch_matrix(branch, embedder):
            embedded.append(branch)
            return branch_matrix(branch, embedder)

        monkeypatch.setattr(veritas.model, "branch_matrix", counting_branch_matrix)
        # A learning rate this large overflows the logits within the first epoch.
        config = TrainingConfig(
            hidden_size=4, num_relu_layers=2, epochs=2, learning_rate=1e100, aleatoric_samples=3, seed=0
        )
        with np.errstate(all="ignore"), pytest.raises(InvalidInput) as info:
            train(trees, folds, 0, config, emb)
        assert str(info.value) == (
            "training with test fold 0, epoch 0, tree false1: softmax: logits must be finite"
        )
        assert folds.assignments["false1"] != 0
        assert isinstance(info.value.__cause__, InvalidInput)
        train_trees = [t for t in trees if folds.assignments[t.tree_id] != 0]
        assert len(embedded) == sum(len(decompose_branches(t)) for t in train_trees)

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
# parameter validation


def _layers(hidden=4, input_dim=5, n_classes=3, num_relu_layers=2, variance_dim=1):
    return dict(
        init_params(input_dim, hidden, num_relu_layers, n_classes, seed=0, variance_dim=variance_dim).layers
    )


class TestModelParamsValidation:
    @pytest.mark.parametrize("variance_dim", [1, 3])
    def test_valid_layers_and_relu_count(self, variance_dim):
        params = ModelParams(_layers(variance_dim=variance_dim))
        assert params.num_relu_layers == 2
        assert ModelParams(_layers(num_relu_layers=0)).num_relu_layers == 0

    @pytest.mark.parametrize(
        "name, shape, message",
        [
            ("lstm.wx", (12, 5), r"layer lstm\.wx: expected shape \(16, 5\), got \(12, 5\)"),
            ("lstm.wh", (16, 4, 1), r"layer lstm\.wh: expected a nonempty 2-D"),
            ("lstm.b", (15,), r"layer lstm\.b: expected shape \(16,\), got \(15,\)"),
            ("relu1.w", (4, 3), r"layer relu1\.w: expected shape \(4, 4\), got \(4, 3\)"),
            ("relu0.b", (5,), r"layer relu0\.b: expected shape \(4,\), got \(5,\)"),
            ("out.w", (3, 5), r"layer out\.w: expected shape \(3, 4\), got \(3, 5\)"),
            ("out.b", (2,), r"layer out\.b: expected shape \(3,\), got \(2,\)"),
            ("var.w", (2, 4), r"layer var\.w: expected shape \(1, 4\) or \(3, 4\), got \(2, 4\)"),
            ("var.b", (3,), r"layer var\.b: expected shape \(1,\), got \(3,\)"),
        ],
    )
    def test_shape_mismatch_names_layer_and_shapes(self, name, shape, message):
        layers = _layers()
        layers[name] = np.zeros(shape)
        with pytest.raises(ConfigError, match=message):
            ModelParams(layers)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("lstm.wh", r"model parameters have missing layers: \['lstm\.wh'\]$"),
            (
                "relu0.b",
                r"model parameters have missing layers: \['relu0\.b'\], "
                r"unknown layers: \['relu1\.b', 'relu1\.w'\]$",
            ),
            ("var.b", r"model parameters have missing layers: \['var\.b'\]$"),
        ],
    )
    def test_missing_layer_named(self, name, message):
        layers = _layers()
        del layers[name]
        with pytest.raises(ConfigError, match=message):
            ModelParams(layers)

    def test_relu_indices_must_be_contiguous(self):
        layers = _layers()
        layers["relu2.w"], layers["relu2.b"] = layers.pop("relu1.w"), layers.pop("relu1.b")
        message = (
            r"model parameters have missing layers: \['relu1\.w', 'relu1\.b'\], "
            r"unknown layers: \['relu2\.b', 'relu2\.w'\]$"
        )
        with pytest.raises(ConfigError, match=message):
            ModelParams(layers)

    def test_relu_bias_without_weights_rejected(self):
        layers = _layers(num_relu_layers=1)
        layers["relu1.b"] = np.zeros(4)
        with pytest.raises(ConfigError, match=r"unknown layers: \['relu1\.b'\]"):
            ModelParams(layers)


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

    def test_load_error_names_the_file(self, tmp_path):
        params = init_params(input_dim=5, hidden_size=4, num_relu_layers=1, n_classes=3, seed=1)
        path = tmp_path / "params.json"
        params.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["relu0.b"] = {"shape": [3], "values": [0.0, 0.0, 0.0]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=r"params\.json: layer relu0\.b: expected shape \(4,\), got \(3,\)"):
            ModelParams.load(path)

    def test_copy_is_independent(self):
        params = init_params(input_dim=3, hidden_size=3, num_relu_layers=0, n_classes=3, seed=0)
        dup = params.copy()
        dup.layers["out.b"][0] = 99.0
        assert params["out.b"][0] == 0.0


def _checkpoint_params(rng, out_b=None):
    """Random parameters for 3 inputs, 2 hidden units, one ReLU layer and 2 classes."""
    layers = {name: rng.normal(size=shape) for name, shape in nn.layer_shapes(3, 2, 1, 2, 1).items()}
    if out_b is not None:
        layers["out.b"] = np.asarray(out_b)
    return ModelParams(layers)


class TestCheckpoints:
    """The checkpoint file format that ``ModelParams.save`` writes and ``ModelParams.load`` reads."""

    def test_round_trip_lossless(self, tmp_path, rng):
        params = _checkpoint_params(rng)
        path = tmp_path / "ckpt.json"
        params.save(path)
        loaded = ModelParams.load(path)
        assert set(loaded.layers) == set(params.layers)
        for k in params.layers:
            np.testing.assert_array_equal(loaded[k], params[k])

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            ModelParams.load(path)

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"w": {"shape": [2, 2], "values": [1.0, 2.0]}}))
        with pytest.raises(DataError):
            ModelParams.load(path)

    def test_negative_shape(self, tmp_path):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"w": {"shape": [-1, -1], "values": [1.0]}}))
        with pytest.raises(DataError, match=r"negative\.json: layer 'w' has 1 values for shape \(-1, -1\)"):
            ModelParams.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ModelParams.load(tmp_path / "nope.json")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite(self, tmp_path, rng, bad):
        params = _checkpoint_params(rng, out_b=[0.5, bad])
        path = tmp_path / "ckpt.json"
        with pytest.raises(DataError, match=r"ckpt\.json: layer 'out\.b' has non-finite values"):
            params.save(path)
        assert not path.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_load_rejects_non_finite(self, tmp_path, token):
        path = tmp_path / "ckpt.json"
        path.write_text(
            '{"lstm.wx": {"shape": [2], "values": [0.0, 1.0]}, '
            f'"out.b": {{"shape": [2], "values": [0.5, {token}]}}}}'
        )
        with pytest.raises(DataError, match=r"ckpt\.json: layer 'out\.b' has non-finite values"):
            ModelParams.load(path)

    @pytest.mark.parametrize("shape, values", [("[1e400]", "[1.0]"), (f"[{2**70}, 0]", "[]")])
    def test_load_rejects_a_shape_numpy_cannot_hold(self, tmp_path, shape, values):
        path = tmp_path / "ckpt.json"
        path.write_text(f'{{"w": {{"shape": {shape}, "values": {values}}}}}')
        with pytest.raises(DataError, match=r"ckpt\.json: bad entry for layer 'w'"):
            ModelParams.load(path)

    @pytest.mark.parametrize("values", ['["abc"]', "[[1.0], [2.0, 3.0]]", '[{"a": 1}]'])
    def test_load_rejects_non_numeric_values(self, tmp_path, values):
        path = tmp_path / "ckpt.json"
        path.write_text(f'{{"w": {{"shape": [1], "values": {values}}}}}')
        with pytest.raises(DataError, match=r"ckpt\.json: bad entry for layer 'w'"):
            ModelParams.load(path)
