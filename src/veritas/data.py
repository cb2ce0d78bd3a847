"""Conversation trees: loading, validation, branch decomposition, timeline
prefixes, cross-validation folds, tokenisation and tweet embedding.

A dataset file is JSON Lines with one conversation tree per line. Trees are
immutable once loaded, so a tree computes its branch decomposition once and
keeps it; every derived view a caller gets (a branch list, prefixes) is a
fresh object.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError, DataError, DataWarning, check_fields, check_value, make_rng, read_json, read_text, seed_int, write_text
)

CANONICAL_LABELS = ("true", "false", "unverified", "nonrumour")
STANCES = ("support", "deny", "query", "comment")


@dataclass(frozen=True)
class Tweet:
    id: str
    parent_id: str | None
    timestamp: int
    text: str
    stance: str | None = None


@dataclass(frozen=True, eq=False)
class ConversationTree:
    tree_id: str
    event: str
    label: str
    tweets: tuple[Tweet, ...]

    # Tweet storage order is whatever the source gave us, so equality is on
    # the tweet set, not the order.
    def __eq__(self, other) -> bool:
        if not isinstance(other, ConversationTree):
            return NotImplemented
        return (
            self.tree_id == other.tree_id
            and self.event == other.event
            and self.label == other.label
            and frozenset(self.tweets) == frozenset(other.tweets)
        )

    def __hash__(self) -> int:
        return hash((self.tree_id, self.event, self.label, frozenset(self.tweets)))

    @property
    def size(self) -> int:
        return len(self.tweets)

    @cached_property
    def _branches(self) -> tuple[Branch, ...]:
        """The branch decomposition, computed on first use and kept with the tree."""
        by_id = {tw.id: tw for tw in self.tweets}
        parents = {tw.parent_id for tw in self.tweets}
        leaves = sorted((tw for tw in self.tweets if tw.id not in parents), key=lambda t: (t.timestamp, t.id))
        branches = []
        for leaf in leaves:
            path = [leaf]
            node = leaf
            while node.parent_id is not None:
                node = by_id[node.parent_id]
                path.append(node)
            branches.append(Branch(tree_id=self.tree_id, tweets=tuple(reversed(path))))
        return tuple(branches)


def validate_tree(tree: ConversationTree) -> None:
    """Raise DataError naming the offending tree/tweet on any violation."""
    tid = tree.tree_id
    if tree.label not in CANONICAL_LABELS:
        raise DataError(f"tree {tid}: unknown label {tree.label!r}")
    if not tree.tweets:
        raise DataError(f"tree {tid}: has no tweets")
    by_id: dict[str, Tweet] = {}
    for tw in tree.tweets:
        if tw.id in by_id:
            raise DataError(f"tree {tid}: duplicate tweet id {tw.id!r}")
        if tw.stance is not None and tw.stance not in STANCES:
            raise DataError(f"tree {tid}: tweet {tw.id!r} has unknown stance {tw.stance!r}")
        by_id[tw.id] = tw
    roots = [t for t in tree.tweets if t.parent_id is None]
    if len(roots) != 1:
        raise DataError(f"tree {tid}: expected exactly one root, found {len(roots)}")
    for tw in tree.tweets:
        if tw.parent_id is not None and tw.parent_id not in by_id:
            raise DataError(f"tree {tid}: tweet {tw.id!r} has unresolved parent {tw.parent_id!r}")
    # Reachability from the root doubles as a cycle check.
    children: dict[str, list[str]] = {}
    for tw in tree.tweets:
        if tw.parent_id is not None:
            children.setdefault(tw.parent_id, []).append(tw.id)
    seen = {roots[0].id}
    frontier = [roots[0].id]
    while frontier:
        nxt = children.get(frontier.pop(), ())
        seen.update(nxt)
        frontier.extend(nxt)
    if len(seen) != len(tree.tweets):
        stray = sorted(set(by_id) - seen)
        raise DataError(f"tree {tid}: tweets {stray} are not reachable from the root (cycle?)")
    root_ts = roots[0].timestamp
    early = [tw.id for tw in tree.tweets if tw.timestamp < root_ts]
    if early:
        warnings.warn(
            f"tree {tid}: tweets {early} are timestamped before the root", DataWarning, stacklevel=2
        )


# ---------------------------------------------------------------------------
# dataset io


def _tree_from_payload(payload: dict, where: str) -> ConversationTree:
    try:
        tid = str(payload["tree_id"])
        event = str(payload["event"])
        label = str(payload["label"]).lower()
        raw_tweets = payload["tweets"]
    except (TypeError, KeyError) as exc:
        raise DataError(f"{where}: missing field {exc}") from exc
    if not isinstance(raw_tweets, list):
        raise DataError(f"{where}: tree {tid}: 'tweets' must be a list")
    tweets = []
    for entry in raw_tweets:
        try:
            tweets.append(
                Tweet(
                    id=str(entry["id"]),
                    parent_id=None if entry["parent_id"] is None else str(entry["parent_id"]),
                    timestamp=int(entry["timestamp"]),
                    text=str(entry["text"]),
                    stance=None if entry.get("stance") is None else str(entry["stance"]).lower(),
                )
            )
        except (TypeError, KeyError, ValueError, OverflowError) as exc:  # int() of an infinite timestamp
            raise DataError(f"{where}: tree {tid}: bad tweet entry ({exc})") from exc
    tree = ConversationTree(tree_id=tid, event=event, label=label, tweets=tuple(tweets))
    validate_tree(tree)
    return tree


def load_dataset(path) -> list[ConversationTree]:
    """Read a JSON Lines dataset; raises DataError naming the file, or the bad line and tree."""
    trees = []
    seen_ids: set[str] = set()
    # universal newlines: "\r\n", "\r" and "\n" each end a line
    for lineno, line in enumerate(re.split(r"\r\n?|\n", read_text(path, "dataset")), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        tree = _tree_from_payload(payload, f"{path}:{lineno}")
        if tree.tree_id in seen_ids:
            raise DataError(f"{path}:{lineno}: duplicate tree_id {tree.tree_id!r}")
        seen_ids.add(tree.tree_id)
        trees.append(tree)
    return trees


def write_dataset(trees, path) -> None:
    """One compact JSON line per tree, its fields and each tweet's in declaration order."""
    lines = [json.dumps(asdict(tree), separators=(",", ":")) + "\n" for tree in trees]
    write_text(path, "".join(lines), "dataset")


def infer_classes(trees) -> tuple[str, ...]:
    """Three-way label set unless any tree is a non-rumour, then four-way."""
    if any(t.label == "nonrumour" for t in trees):
        return CANONICAL_LABELS
    return CANONICAL_LABELS[:3]


# ---------------------------------------------------------------------------
# branches


@dataclass(frozen=True)
class Branch:
    tree_id: str
    tweets: tuple[Tweet, ...]

    def __len__(self) -> int:
        return len(self.tweets)


def decompose_branches(tree: ConversationTree) -> list[Branch]:
    """One root-to-leaf branch per leaf, ordered by (leaf timestamp, leaf id).

    The tree works the branches out on the first call and keeps them; every
    call returns a fresh list of the same frozen ``Branch`` objects.
    """
    return list(tree._branches)


# ---------------------------------------------------------------------------
# timeline prefixes


def repaired_order(tree: ConversationTree) -> list[Tweet]:
    """Tweets by (timestamp, id), with parent-before-child enforced.

    A tweet timestamped before its parent is deferred and inserted
    immediately after the parent, with a warning.
    """
    pending: dict[str, list[Tweet]] = {}
    placed: list[Tweet] = []
    placed_ids: set[str] = set()

    def place(tweet: Tweet) -> None:
        placed.append(tweet)
        placed_ids.add(tweet.id)
        for child in pending.pop(tweet.id, []):
            place(child)

    for tw in sorted(tree.tweets, key=lambda t: (t.timestamp, t.id)):
        if tw.parent_id is None or tw.parent_id in placed_ids:
            place(tw)
        else:
            warnings.warn(
                f"tree {tree.tree_id}: tweet {tw.id} precedes its parent "
                f"{tw.parent_id}; reordered to follow the parent",
                DataWarning,
                stacklevel=2,
            )
            pending.setdefault(tw.parent_id, []).append(tw)
    if pending:
        # validate_tree rejects unresolved parents, so this cannot trigger
        # on a validated tree.
        raise DataError(f"tree {tree.tree_id}: orphaned tweets {sorted(pending)}")
    return placed


def timeline_prefixes(tree: ConversationTree) -> list[ConversationTree]:
    """Growing prefixes of the repaired timeline; the last one is the tree."""
    order = repaired_order(tree)
    return [
        ConversationTree(tree.tree_id, tree.event, tree.label, tuple(order[: k + 1]))
        for k in range(len(order))
    ]


# ---------------------------------------------------------------------------
# folds


@dataclass(frozen=True)
class FoldSpec:
    scheme: str
    assignments: dict[str, int]
    dev_fold: int | None = None

    def __post_init__(self) -> None:
        if self.dev_fold is not None and self.dev_fold not in set(self.assignments.values()):
            raise ConfigError(f"dev fold {self.dev_fold} is not one of the assigned folds")

    def fold_ids(self) -> list[int]:
        return sorted(set(self.assignments.values()))

    def trees_in(self, fold: int) -> list[str]:
        return sorted(tid for tid, f in self.assignments.items() if f == fold)

    def save(self, path) -> None:
        doc = {
            "scheme": self.scheme,
            "assignments": {tid: int(f) for tid, f in sorted(self.assignments.items())},
            "dev_fold": self.dev_fold,
        }
        write_text(path, json.dumps(doc, indent=2) + "\n", "fold file")

    @classmethod
    def load(cls, path) -> "FoldSpec":
        doc = read_json(path, "fold file")
        try:
            if not isinstance(doc["assignments"], dict):
                raise DataError(f"fold file {path}: assignments must be an object of tree id to fold")
            for tid, fold in doc["assignments"].items():
                check_value(f"fold of tree {tid!r}", fold, "int")
            dev_fold = doc.get("dev_fold")
            if dev_fold is not None:
                check_value("dev_fold", dev_fold, "int")
            if not isinstance(doc["scheme"], str):
                raise DataError(f"fold file {path}: scheme must be a string, got {doc['scheme']!r}")
            return cls(
                scheme=doc["scheme"],
                assignments={str(k): int(v) for k, v in doc["assignments"].items()},
                dev_fold=None if dev_fold is None else int(dev_fold),
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"cannot read fold file {path}: {exc}") from exc
        except ConfigError as exc:
            raise DataError(f"fold file {path}: {exc}") from exc


def make_folds(trees, scheme: str, k: int | None = None, seed: int = 0, dev_fold: int | None = None) -> FoldSpec:
    """Partition trees into folds.

    ``leave_one_event_out`` gives one fold per event (fold index by sorted
    event name); ``k_fold`` shuffles tree ids with the seed and deals them
    round-robin. A seed or k that breaks its rule is a ConfigError.
    """
    check_value("fold seed", seed, "seed", "[0, inf)")
    if scheme == "leave_one_event_out":
        events = sorted({t.event for t in trees})
        if len(events) < 2:
            raise ConfigError("leave_one_event_out needs at least two distinct events")
        index = {e: i for i, e in enumerate(events)}
        assignments = {t.tree_id: index[t.event] for t in trees}
    elif scheme == "k_fold":
        check_value("k", k, "int", "[2, inf)")
        ids = sorted(t.tree_id for t in trees)
        perm = make_rng(seed).permutation(len(ids))
        assignments = {ids[int(p)]: i % k for i, p in enumerate(perm)}
    else:
        raise ConfigError(f"unknown fold scheme {scheme!r}")
    return FoldSpec(scheme=scheme, assignments=assignments, dev_fold=dev_fold)


# ---------------------------------------------------------------------------
# tokenisation and embedding

_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"<url>|<user>|[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase, map URLs/user mentions to placeholders, split the rest on
    whitespace and punctuation. Idempotent on its own output."""
    s = text.lower()
    s = _URL_RE.sub(" <url> ", s)
    s = _MENTION_RE.sub(" <user> ", s)
    return _TOKEN_RE.findall(s)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(token: str, seed: int = 0) -> int:
    """64-bit FNV-1a over the seed bytes then the token's UTF-8 bytes."""
    h = _FNV_OFFSET
    for b in seed_int(seed).to_bytes(8, "little", signed=False) + token.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h


# Most distinct tokens a HashingEmbedder keeps vectors for; tokens beyond
# it are hashed on every call, so memory stays bounded on any corpus.
_MEMO_TOKENS = 1 << 15
# Most tweet texts a HashingEmbedder keeps whole-tweet vectors for, oldest
# dropped first. Scoring re-embeds one tree's tweets on every pass and a
# timeline on every prefix, so a few hundred texts cover the reuse.
_MEMO_TEXTS = 256


@dataclass(frozen=True)
class HashingEmbedder:
    """Feature-hashing token vectors: one hot at hash(token) mod dimension,
    signed +-1/sqrt(dimension) by hash parity.

    Each instance keeps two memos of read-only vectors. Token vectors are
    kept for up to ``_MEMO_TOKENS`` distinct tokens, because the pure-Python
    FNV hash costs most of an embedding. Whole-tweet vectors (the mean that
    ``embed_tweet`` returns) are kept by text for the ``_MEMO_TEXTS`` most
    recently added texts, first in first out, so re-embedding a tweet skips
    tokenising too.
    """

    dimension: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, dimension="[1, inf)", seed="[0, 2**64)")
        object.__setattr__(self, "_vectors", {})
        object.__setattr__(self, "_texts", {})

    def tweet_vector(self, text: str) -> np.ndarray:
        """The read-only mean of the text's token vectors, memoised by text."""
        vec = self._texts.get(text)
        if vec is None:
            vec = _mean_token_vector(text, self)
            if len(self._texts) >= _MEMO_TEXTS:
                del self._texts[next(iter(self._texts))]
            self._texts[text] = vec
        return vec

    def token_vector(self, token: str) -> np.ndarray:
        vec = self._vectors.get(token)
        if vec is None:
            h = fnv1a_64(token, self.seed)
            vec = np.zeros(self.dimension)
            sign = 1.0 if h % 2 == 0 else -1.0
            vec[h % self.dimension] = sign / np.sqrt(self.dimension)
            vec.flags.writeable = False
            if len(self._vectors) < _MEMO_TOKENS:
                self._vectors[token] = vec
        return vec


@dataclass(frozen=True)
class TableEmbedder:
    """Lookup-table vectors; tokens missing from the table are skipped."""

    table: dict[str, np.ndarray] = field(default_factory=dict)
    dimension: int = 32

    def __post_init__(self) -> None:
        check_fields(self, dimension="[1, inf)")
        if not isinstance(self.table, dict):
            raise ConfigError(f"table must be a dict of token vectors, got {self.table!r}")
        for token, vec in self.table.items():
            if np.shape(vec) != (self.dimension,):
                raise ConfigError(f"table vector for {token!r} has shape {np.shape(vec)}")
            if not np.all(np.isfinite(vec)):
                raise ConfigError(f"table vector for {token!r} has non-finite values")

    def token_vector(self, token: str) -> np.ndarray | None:
        vec = self.table.get(token)
        return None if vec is None else np.asarray(vec, dtype=np.float64)


def embed_tweet(text: str, embedder) -> np.ndarray:
    """Mean of the token vectors; zero vector when nothing embeds.

    Always a read-only array: a ``HashingEmbedder`` returns the vector its
    text memo keeps, not a copy, so a caller that needs to write takes its
    own copy.
    """
    if isinstance(embedder, HashingEmbedder):
        return embedder.tweet_vector(text)
    return _mean_token_vector(text, embedder)


def _mean_token_vector(text: str, embedder) -> np.ndarray:
    """The read-only mean of the text's token vectors, or zeros when none embeds."""
    vectors = [v for v in (embedder.token_vector(tok) for tok in tokenize(text)) if v is not None]
    if vectors:
        # The same sum and division as np.mean, without its dispatch cost.
        vec = np.add.reduce(np.array(vectors), axis=0) / len(vectors)
    else:
        vec = np.zeros(embedder.dimension)
    vec.flags.writeable = False
    return vec


def branch_matrix(branch: Branch, embedder) -> np.ndarray:
    """(length, dimension) matrix of tweet embeddings, root first."""
    return np.stack([embed_tweet(tw.text, embedder) for tw in branch.tweets])
