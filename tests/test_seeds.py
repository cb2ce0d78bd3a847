"""Every seed a caller can set is a nonnegative integer; a negative or non-integer one is a ConfigError naming it.

The other integer fields of the configs follow the seeds' rule, their real fields take finite
numbers and their bool fields only bools; a value of the wrong type is a ConfigError naming the field.
"""

import numpy as np
import pytest

from veritas import (
    HashingEmbedder,
    SyntheticSpec,
    TrainingConfig,
    UncertaintyConfig,
    generate_synthetic,
    make_folds,
)
from veritas.data import fnv1a_64
from veritas.errors import ConfigError
from veritas.nn import child_rng, make_rng
from veritas.uncertainty import _tree_seed


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: SyntheticSpec(trees_per_class=3, seed=-1), "seed must be >= 0, got -1"),
        (lambda: TrainingConfig(seed=-1), "seed must be >= 0, got -1"),
        (lambda: UncertaintyConfig(seed=-1), "seed must be >= 0, got -1"),
        (lambda: HashingEmbedder(seed=-1), "embedder seed must be in [0, 2**64), got -1"),
        (lambda: HashingEmbedder(seed=2**64), "embedder seed must be in [0, 2**64)"),
        (lambda: make_rng(-2), "random seeds must be nonnegative, got -2"),
    ],
)
def test_negative_seed_is_a_config_error(build, text):
    with pytest.raises(ConfigError) as info:
        build()
    assert text in str(info.value)


def test_negative_fold_seed_is_a_config_error():
    trees = generate_synthetic(SyntheticSpec(trees_per_class=2, seed=1))
    with pytest.raises(ConfigError, match="fold seed must be >= 0, got -1"):
        make_folds(trees, "k_fold", k=2, seed=-1)


def test_largest_embedder_seed_still_embeds():
    assert HashingEmbedder(dimension=4, seed=2**64 - 1).tweet_vector("a b").shape == (4,)


SEED_USES = {
    "make_rng": make_rng,
    "child_rng key": lambda seed: child_rng(seed, 0),
    "child_rng stream": lambda seed: child_rng(0, seed),
    "tree seed": lambda seed: _tree_seed(seed, "t"),
    "fnv1a_64": lambda seed: fnv1a_64("a", seed),
    "SyntheticSpec": lambda seed: SyntheticSpec(trees_per_class=3, seed=seed),
    "TrainingConfig": lambda seed: TrainingConfig(seed=seed),
    "UncertaintyConfig": lambda seed: UncertaintyConfig(seed=seed),
    "HashingEmbedder": lambda seed: HashingEmbedder(seed=seed),
}


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.True_, "1", None, np.array([3]), np.array(3.0)], ids=repr)
@pytest.mark.parametrize("use", SEED_USES.values(), ids=SEED_USES.keys())
def test_non_integer_seed_is_a_config_error(use, seed):
    with pytest.raises(ConfigError) as info:
        use(seed)
    assert str(info.value) == f"random seeds must be integers, got {seed!r}"


def test_numpy_integer_seeds_act_as_ints():
    assert make_rng(np.int64(3)).random() == make_rng(3).random()
    assert child_rng(np.uint32(3), np.int8(2)).random() == child_rng(3, 2).random()
    assert _tree_seed(np.int16(4), "t") == _tree_seed(4, "t")
    assert fnv1a_64("a", np.uint64(7)) == fnv1a_64("a", 7)
    assert TrainingConfig(seed=np.int64(2)).seed == 2


CONFIGS = {
    "TrainingConfig": (TrainingConfig, {}),
    "UncertaintyConfig": (UncertaintyConfig, {}),
    "HashingEmbedder": (HashingEmbedder, {}),
    "SyntheticSpec": (SyntheticSpec, {"trees_per_class": 2}),
}
FIELDS = [
    ("TrainingConfig", "hidden_size", "an integer"),
    ("TrainingConfig", "epochs", "an integer"),
    ("TrainingConfig", "learning_rate", "a finite number"),
    ("TrainingConfig", "aleatoric_weight", "a finite number"),
    ("TrainingConfig", "variance_per_logit", "a bool"),
    ("UncertaintyConfig", "n_samples", "an integer"),
    ("UncertaintyConfig", "dropout_rate", "a finite number"),
    ("UncertaintyConfig", "branch_level", "a bool"),
    ("HashingEmbedder", "dimension", "an integer"),
    ("SyntheticSpec", "trees_per_class", "an integer"),
    ("SyntheticSpec", "max_children", "an integer"),
    ("SyntheticSpec", "branching_prob", "a finite number"),
]
WRONG = {
    "an integer": [2.5, 4.0, True, np.True_, "3", None, np.array(3.0)],
    "a finite number": [True, float("nan"), float("inf"), -float("inf"), 10**400, "0.1", None],
    "a bool": ["no", "yes", 1, 0, None],
}


@pytest.mark.parametrize(
    "config, field, rule, value",
    [(c, f, rule, v) for c, f, rule in FIELDS for v in WRONG[rule]],
    ids=repr,
)
def test_config_field_of_wrong_type_is_a_config_error(config, field, rule, value):
    cls, base = CONFIGS[config]
    with pytest.raises(ConfigError) as info:
        cls(**{**base, field: value})
    assert str(info.value) == f"{field} must be {rule}, got {value!r}"


def test_config_fields_take_numpy_numbers():
    assert TrainingConfig(epochs=np.int64(3), hidden_size=np.uint8(4), learning_rate=np.float32(0.5)).epochs == 3
    assert UncertaintyConfig(n_samples=np.int32(2), dropout_rate=np.float64(0.1)).n_samples == 2
    assert SyntheticSpec(trees_per_class=np.int16(2), tokens_per_tweet=(np.int64(2), 4)).trees_per_class == 2


@pytest.mark.parametrize("tokens", [(2.5, 4), (2, 4.0), (True, 4), (2,), (1, 2, 3), "24", None], ids=repr)
def test_tokens_per_tweet_must_be_a_pair_of_integers(tokens):
    """The pair rule and the range rule share one message."""
    with pytest.raises(ConfigError, match="tokens_per_tweet must be integers 1 <= lo <= hi"):
        SyntheticSpec(trees_per_class=2, tokens_per_tweet=tokens)


def test_synthetic_classes_must_be_canonical_labels():
    with pytest.raises(ConfigError, match="classes must be among .*, got 'a'"):
        SyntheticSpec(trees_per_class=2, classes=("true", "a"))
    trees = generate_synthetic(SyntheticSpec(trees_per_class=2, classes=("false", "nonrumour")))
    assert {t.label for t in trees} == {"false", "nonrumour"}
