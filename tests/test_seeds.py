"""Every seed a caller can set is a nonnegative integer; a negative one is a ConfigError naming it."""

import pytest

from veritas import (
    HashingEmbedder,
    SyntheticSpec,
    TrainingConfig,
    UncertaintyConfig,
    generate_synthetic,
    make_folds,
)
from veritas.errors import ConfigError
from veritas.nn import make_rng


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
