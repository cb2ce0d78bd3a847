"""Every seed a caller can set is a nonnegative integer; a negative or non-integer one is a ConfigError naming it.

Every field of every config follows one table: its integer fields take the seeds' integer rule (and
are finite as a float), its real fields finite numbers and its bool fields only bools, each within
its bound. A value of the wrong type or past a bound is a ConfigError whose text starts with the
field's name.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritas import (
    HashingEmbedder,
    SyntheticSpec,
    TableEmbedder,
    TrainingConfig,
    UncertaintyConfig,
    generate_synthetic,
    make_folds,
)
from veritas.data import fnv1a_64
from veritas.errors import ConfigError, child_rng, make_rng
from veritas.rejection import ForestHyperparams, HingeHyperparams
from veritas.uncertainty import _tree_seed


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: SyntheticSpec(trees_per_class=3, seed=-1), "seed must be >= 0, got -1"),
        (lambda: TrainingConfig(seed=-1), "seed must be >= 0, got -1"),
        (lambda: UncertaintyConfig(seed=-1), "seed must be >= 0, got -1"),
        (lambda: HashingEmbedder(seed=-1), "seed must be in [0, 2**64), got -1"),
        (lambda: HashingEmbedder(seed=2**64), f"seed must be in [0, 2**64), got {2**64}"),
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
    # compared as an int: as a float64, 2**64 - 1 rounds up to the bound 2**64
    assert HashingEmbedder(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


# A random-stream function says "random seeds"; a config names its seed field.
SEED_USES = {
    "make_rng": (make_rng, "random seeds must be integers"),
    "child_rng key": (lambda seed: child_rng(seed, 0), "random seeds must be integers"),
    "child_rng stream": (lambda seed: child_rng(0, seed), "random seeds must be integers"),
    "tree seed": (lambda seed: _tree_seed(seed, "t"), "random seeds must be integers"),
    "fnv1a_64": (lambda seed: fnv1a_64("a", seed), "random seeds must be integers"),
    "SyntheticSpec": (lambda seed: SyntheticSpec(trees_per_class=3, seed=seed), "seed must be an integer"),
    "TrainingConfig": (lambda seed: TrainingConfig(seed=seed), "seed must be an integer"),
    "UncertaintyConfig": (lambda seed: UncertaintyConfig(seed=seed), "seed must be an integer"),
    "HashingEmbedder": (lambda seed: HashingEmbedder(seed=seed), "seed must be an integer"),
}


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.True_, "1", None, np.array([3]), np.array(3.0)], ids=repr)
@pytest.mark.parametrize("use, rule", SEED_USES.values(), ids=SEED_USES.keys())
def test_non_integer_seed_is_a_config_error(use, rule, seed):
    with pytest.raises(ConfigError) as info:
        use(seed)
    assert str(info.value) == f"{rule}, got {seed!r}"


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
    "TableEmbedder": (TableEmbedder, {}),
    "SyntheticSpec": (SyntheticSpec, {"trees_per_class": 2}),
    "HingeHyperparams": (HingeHyperparams, {}),
    "ForestHyperparams": (ForestHyperparams, {}),
}
# Every field with a type rule: its kind, then its lower and upper end, each ("[", x) closed,
# ("(", x) open or None when absent. Restated here, not read from the library's declarations.
FIELDS = [
    ("TrainingConfig", "hidden_size", "int", ("[", 1), None),
    ("TrainingConfig", "num_relu_layers", "int", ("[", 0), None),
    ("TrainingConfig", "dropout_rate_train", "float", ("[", 0), (")", 1)),
    ("TrainingConfig", "learning_rate", "float", ("(", 0), None),
    ("TrainingConfig", "epochs", "int", ("[", 0), None),
    ("TrainingConfig", "aleatoric_samples", "int", ("[", 1), None),
    ("TrainingConfig", "ce_weight", "float", ("[", 0), None),
    ("TrainingConfig", "aleatoric_weight", "float", ("[", 0), None),
    ("TrainingConfig", "seed", "seed", ("[", 0), None),
    ("TrainingConfig", "variance_per_logit", "bool", None, None),
    ("UncertaintyConfig", "n_samples", "int", ("[", 1), None),
    ("UncertaintyConfig", "dropout_rate", "float", ("[", 0), (")", 1)),
    ("UncertaintyConfig", "seed", "seed", ("[", 0), None),
    ("UncertaintyConfig", "branch_level", "bool", None, None),
    ("HashingEmbedder", "dimension", "int", ("[", 1), None),
    ("HashingEmbedder", "seed", "seed", ("[", 0), (")", 2**64)),
    ("TableEmbedder", "dimension", "int", ("[", 1), None),
    ("SyntheticSpec", "trees_per_class", "int", ("[", 0), None),
    ("SyntheticSpec", "vocab_size_per_class", "int", ("[", 1), None),
    ("SyntheticSpec", "shared_vocab_size", "int", ("[", 0), None),
    ("SyntheticSpec", "ambiguity_max", "float", ("[", 0), ("]", 1)),
    ("SyntheticSpec", "branching_prob", "float", ("[", 0), (")", 1)),
    ("SyntheticSpec", "depth_cap", "int", ("[", 0), None),
    ("SyntheticSpec", "max_children", "int", ("[", 1), None),
    ("SyntheticSpec", "noise_rate", "float", ("[", 0), (")", 0.5)),
    ("SyntheticSpec", "n_events", "int", ("[", 1), None),
    ("SyntheticSpec", "seed", "seed", ("[", 0), None),
    ("HingeHyperparams", "l2", "float", ("[", 0), None),
    ("HingeHyperparams", "epochs", "int", ("[", 0), None),
    ("HingeHyperparams", "learning_rate", "float", ("(", 0), None),
    ("ForestHyperparams", "n_trees", "int", ("[", 1), None),
    ("ForestHyperparams", "max_depth", "int", ("[", 0), None),
    ("ForestHyperparams", "bootstrap_fraction", "float", ("(", 0), None),
]
# The fields whose rule is code of its own: values it refuses, then values it accepts.
OWN_RULES = {
    ("SyntheticSpec", "classes"): (
        [5, None, "true", ("true",), ("true", "true"), ("true", "a"), ("true", 5)],
        [("false", "nonrumour"), ["true", "false", "unverified", "nonrumour"]],
    ),
    ("SyntheticSpec", "tokens_per_tweet"): (
        [(2.5, 4), (2, 4.0), (True, 4), (2,), (1, 2, 3), "24", None, (0, 3), (4, 3)],
        [(1, 1), [2, 5], (np.int64(2), 4)],
    ),
    ("TableEmbedder", "table"): (
        ["x", None, 5, [("a", np.ones(32))], {"a": np.zeros(3)}, {"a": np.full(32, np.nan)}],
        [{}, {"a": np.ones(32)}],
    ),
}
RULE = {"int": "an integer", "seed": "an integer", "float": "a finite number", "bool": "a bool"}
WRONG = {
    "an integer": [2.5, 4.0, True, np.True_, "3", None, np.array(3.0)],
    "a finite number": [True, float("nan"), float("inf"), -float("inf"), 10**400, "0.1", None],
    "a bool": ["no", "yes", 1, 0, None],
}


def test_the_field_tables_cover_every_config_field():
    declared = {(c, f) for c, f, *_ in FIELDS} | set(OWN_RULES)
    assert declared == {(c, f.name) for c, (cls, _) in CONFIGS.items() for f in dataclasses.fields(cls)}


@pytest.mark.parametrize(
    "config, field, rule, value",
    [(c, f, RULE[kind], v) for c, f, kind, *_ in FIELDS for v in WRONG[RULE[kind]]],
    ids=repr,
)
def test_config_field_of_wrong_type_is_a_config_error(config, field, rule, value):
    cls, base = CONFIGS[config]
    with pytest.raises(ConfigError) as info:
        cls(**{**base, field: value})
    assert str(info.value) == f"{field} must be {rule}, got {value!r}"


def _wrong_type(kind):
    """Values that are not of the kind: a float for an integer, a bool for a number, and so on."""
    common = st.one_of(st.text(max_size=3), st.none(), st.just(np.True_), st.just([1]))
    if kind in ("int", "seed"):
        # 10**400 is an integer, but not finite as a float, which a count must be
        extra = st.sampled_from([10**400]) if kind == "int" else st.nothing()
        return st.one_of(common, st.booleans(), st.floats(), st.just(np.array(3.0)), st.just(np.float64(2.0)), extra)
    if kind == "float":
        return st.one_of(common, st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf, 10**400]))
    return st.one_of(common, st.integers(), st.floats())


def _past(kind, end, below):
    """Values beyond one end of a bound, the end itself when the end is open."""
    bracket, x = end
    if kind in ("int", "seed"):
        nearest, beyond = (x - 1, st.integers(max_value=x - 1)) if below else (x + 1, st.integers(min_value=x + 1))
    else:
        nearest = float(np.nextafter(x, -math.inf if below else math.inf))
        limits = {"max_value": x, "exclude_max": True} if below else {"min_value": x, "exclude_min": True}
        beyond = st.floats(allow_nan=False, allow_infinity=False, **limits)
    return st.one_of(st.just(nearest), beyond, st.just(x) if bracket in "()" else st.nothing())


@pytest.mark.parametrize("config, field, kind, lo, hi", FIELDS, ids=[f"{c}.{f}" for c, f, *_ in FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_field_refuses_a_wrong_type_and_values_past_its_bound(config, field, kind, lo, hi, data):
    """A ConfigError whose text starts with the field's name."""
    cls, base = CONFIGS[config]
    value = data.draw(st.one_of([_wrong_type(kind)] + [_past(kind, e, e is lo) for e in (lo, hi) if e]), label=field)
    with pytest.raises(ConfigError) as info:
        cls(**{**base, field: value})
    assert str(info.value).startswith(f"{field} must be ")


@pytest.mark.parametrize("config, field, kind, lo, hi", FIELDS, ids=[f"{c}.{f}" for c, f, *_ in FIELDS])
def test_config_field_accepts_a_closed_end_and_refuses_an_open_one(config, field, kind, lo, hi):
    cls, base = CONFIGS[config]
    for bracket, x in (end for end in (lo, hi) if end):
        value = x if kind in ("int", "seed") else float(x)
        if bracket in "[]":
            assert getattr(cls(**{**base, field: value}), field) == value
        else:
            with pytest.raises(ConfigError) as info:
                cls(**{**base, field: value})
            assert str(info.value).startswith(f"{field} must be ")


@pytest.mark.parametrize("config, field", OWN_RULES, ids=[f"{c}.{f}" for c, f in OWN_RULES])
def test_fields_with_rules_of_their_own(config, field):
    cls, base = CONFIGS[config]
    refused, accepted = OWN_RULES[config, field]
    for value in refused:
        with pytest.raises(ConfigError) as info:
            cls(**{**base, field: value})
        assert str(info.value).startswith(f"{field} ")
    for value in accepted:
        assert getattr(cls(**{**base, field: value}), field) is value


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
