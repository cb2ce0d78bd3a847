"""Every seed a caller can set is a nonnegative integer; a negative or non-integer one is a ConfigError naming it."""

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
