"""Synthetic conversation-tree datasets for end-to-end checks.

Each tree belongs to a source class with its own token vocabulary (disjoint
across classes by construction). A per-tree ambiguity level mixes in tokens
from a shared, class-neutral vocabulary, which creates genuinely hard
instances, and an optional label-noise rate flips the final label to a
random other class. The root's first token always comes from the source
class vocabulary, so with zero noise a simple class-token counter can
recover every label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import CANONICAL_LABELS, ConversationTree, Tweet
from .errors import ConfigError, check_fields, is_integer, make_rng

_BASE_TIMESTAMP = 1_500_000_000_000


@dataclass(frozen=True)
class SyntheticSpec:
    trees_per_class: int
    classes: tuple[str, ...] = CANONICAL_LABELS[:3]
    vocab_size_per_class: int = 40
    shared_vocab_size: int = 30
    ambiguity_max: float = 0.0
    branching_prob: float = 0.5
    depth_cap: int = 3
    max_children: int = 3
    tokens_per_tweet: tuple[int, int] = (3, 8)
    noise_rate: float = 0.0
    n_events: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(
            self, trees_per_class="[0, inf)", vocab_size_per_class="[1, inf)", shared_vocab_size="[0, inf)",
            ambiguity_max="[0, 1]", branching_prob="[0, 1)", depth_cap="[0, inf)", max_children="[1, inf)",
            noise_rate="[0, 0.5)", n_events="[1, inf)", seed="[0, inf)",
        )
        if not (isinstance(self.classes, (tuple, list)) and len(set(self.classes)) == len(self.classes) >= 2):
            raise ConfigError("classes must be at least two distinct labels")
        unknown = [c for c in self.classes if c not in CANONICAL_LABELS]
        if unknown:
            raise ConfigError(f"classes must be among {list(CANONICAL_LABELS)}, got {unknown[0]!r}")
        tokens = self.tokens_per_tweet
        pair = isinstance(tokens, (tuple, list)) and len(tokens) == 2 and all(map(is_integer, tokens))
        if not (pair and 1 <= tokens[0] <= tokens[1]):
            raise ConfigError(f"tokens_per_tweet must be integers 1 <= lo <= hi, got {tokens!r}")


def class_vocabulary(spec: SyntheticSpec, class_index: int) -> list[str]:
    return [f"c{class_index}w{j}" for j in range(spec.vocab_size_per_class)]


def shared_vocabulary(spec: SyntheticSpec) -> list[str]:
    return [f"shared{j}" for j in range(spec.shared_vocab_size)]


def _tweet_text(rng, spec, class_vocab, shared_vocab, ambiguity, force_class_first):
    lo, hi = spec.tokens_per_tweet
    n_tokens = int(rng.integers(lo, hi + 1))
    tokens = []
    for j in range(n_tokens):
        if j == 0 and force_class_first:
            tokens.append(class_vocab[int(rng.integers(len(class_vocab)))])
        elif shared_vocab and rng.random() < ambiguity:
            tokens.append(shared_vocab[int(rng.integers(len(shared_vocab)))])
        else:
            tokens.append(class_vocab[int(rng.integers(len(class_vocab)))])
    return " ".join(tokens)


def generate_synthetic(spec: SyntheticSpec) -> list[ConversationTree]:
    """Deterministic dataset seeded by ``spec.seed``; trees_per_class per label."""
    rng = make_rng(spec.seed)
    shared_vocab = shared_vocabulary(spec)
    trees: list[ConversationTree] = []
    tree_counter = 0
    for class_index, label in enumerate(spec.classes):
        vocab = class_vocabulary(spec, class_index)
        for _ in range(spec.trees_per_class):
            tree_id = f"syn{tree_counter:05d}"
            ambiguity = float(rng.uniform(0.0, spec.ambiguity_max)) if spec.ambiguity_max > 0 else 0.0

            tweets = []
            root_ts = _BASE_TIMESTAMP + tree_counter * 100_000
            root = Tweet(
                id=f"{tree_id}_0",
                parent_id=None,
                timestamp=root_ts,
                text=_tweet_text(rng, spec, vocab, shared_vocab, ambiguity, True),
                stance=None,
            )
            tweets.append(root)
            # breadth-first expansion up to the depth cap
            frontier = [(root, 0)]
            counter = 1
            while frontier:
                parent, depth = frontier.pop(0)
                if depth >= spec.depth_cap:
                    continue
                n_children = 0
                while n_children < spec.max_children and rng.random() < spec.branching_prob:
                    child = Tweet(
                        id=f"{tree_id}_{counter}",
                        parent_id=parent.id,
                        timestamp=parent.timestamp + int(rng.integers(1, 1000)),
                        text=_tweet_text(rng, spec, vocab, shared_vocab, ambiguity, False),
                        stance=None,
                    )
                    tweets.append(child)
                    frontier.append((child, depth + 1))
                    counter += 1
                    n_children += 1

            final_label = label
            if spec.noise_rate > 0 and rng.random() < spec.noise_rate:
                others = [c for c in spec.classes if c != label]
                final_label = others[int(rng.integers(len(others)))]
            trees.append(
                ConversationTree(
                    tree_id=tree_id,
                    event=f"event{tree_counter % spec.n_events}",
                    label=final_label,
                    tweets=tuple(tweets),
                )
            )
            tree_counter += 1
    return trees
