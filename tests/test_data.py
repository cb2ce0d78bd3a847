"""Trees, branches, prefixes, folds, tokenisation and embeddings."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veritas import (
    Branch,
    ConversationTree,
    FoldSpec,
    HashingEmbedder,
    TableEmbedder,
    Tweet,
    branch_matrix,
    decompose_branches,
    embed_tweet,
    infer_classes,
    load_dataset,
    make_folds,
    repaired_order,
    timeline_prefixes,
    tokenize,
    validate_tree,
    write_dataset,
)
from veritas.data import _MEMO_TEXTS, fnv1a_64
from veritas.errors import ConfigError, DataError, DataWarning


def tw(tid, parent, ts, text="hello world", stance=None):
    return Tweet(id=tid, parent_id=parent, timestamp=ts, text=text, stance=stance)


def tree_of(tweets, tree_id="t1", event="e1", label="true"):
    return ConversationTree(tree_id=tree_id, event=event, label=label, tweets=tuple(tweets))


def write_jsonl(path, payloads):
    path.write_text("\n".join(json.dumps(p) for p in payloads) + "\n", encoding="utf-8")


def payload(tree):
    return {
        "tree_id": tree.tree_id,
        "event": tree.event,
        "label": tree.label,
        "tweets": [
            {"id": t.id, "parent_id": t.parent_id, "timestamp": t.timestamp, "text": t.text, "stance": t.stance}
            for t in tree.tweets
        ],
    }


# ---------------------------------------------------------------------------
# loading and validation


class TestLoadDataset:
    def test_single_tweet_tree(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [payload(tree_of([tw("a", None, 1)]))])
        trees = load_dataset(path)
        assert len(trees) == 1 and trees[0].size == 1

    def test_missing_parent_names_the_tweet(self, tmp_path):
        path = tmp_path / "d.jsonl"
        bad = tree_of([tw("a", None, 1), tw("b", "ghost", 2)])
        write_jsonl(path, [payload(bad)])
        with pytest.raises(DataError, match="'b'.*'ghost'"):
            load_dataset(path)

    def test_six_tweet_four_leaf_topology(self, tmp_path):
        # root with three direct replies, one reply itself has two replies
        tweets = [
            tw("r", None, 0),
            tw("a", "r", 1),
            tw("b", "r", 2),
            tw("c", "r", 3),
            tw("d", "a", 4),
            tw("e", "a", 5),
        ]
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [payload(tree_of(tweets))])
        (tree,) = load_dataset(path)
        assert tree.size == 6
        assert len(decompose_branches(tree)) == 4

    def test_duplicate_tree_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        t = tree_of([tw("a", None, 1)])
        write_jsonl(path, [payload(t), payload(t)])
        with pytest.raises(DataError, match="duplicate tree_id"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"tree_id": "x"}\nnot json\n')
        with pytest.raises(DataError, match=":1"):
            load_dataset(path)

    def test_round_trip_identity(self, tmp_path):
        trees = [
            tree_of([tw("a", None, 1, "first"), tw("b", "a", 2, "reply", "deny")], tree_id="t1"),
            tree_of([tw("c", None, 5, "root two")], tree_id="t2", label="unverified"),
        ]
        path = tmp_path / "out.jsonl"
        write_dataset(trees, path)
        assert load_dataset(path) == trees


class TestValidateTree:
    def test_unknown_label(self):
        with pytest.raises(DataError, match="label"):
            validate_tree(tree_of([tw("a", None, 1)], label="maybe"))

    def test_empty(self):
        with pytest.raises(DataError, match="no tweets"):
            validate_tree(tree_of([]))

    def test_duplicate_tweet_ids(self):
        with pytest.raises(DataError, match="duplicate"):
            validate_tree(tree_of([tw("a", None, 1), tw("a", "a", 2)]))

    def test_two_roots(self):
        with pytest.raises(DataError, match="root"):
            validate_tree(tree_of([tw("a", None, 1), tw("b", None, 2)]))

    def test_cycle_unreachable(self):
        cyc = tree_of([tw("r", None, 1), tw("a", "b", 2), tw("b", "a", 3)])
        with pytest.raises(DataError, match="reachable"):
            validate_tree(cyc)

    def test_bad_stance(self):
        with pytest.raises(DataError, match="stance"):
            validate_tree(tree_of([tw("a", None, 1, stance="agree")]))

    def test_early_child_warns(self):
        early = tree_of([tw("r", None, 100), tw("a", "r", 50)])
        with pytest.warns(DataWarning, match="before the root"):
            validate_tree(early)


def test_infer_classes():
    three = [tree_of([tw("a", None, 1)], label="true")]
    four = three + [tree_of([tw("b", None, 1)], tree_id="t2", label="nonrumour")]
    assert infer_classes(three) == ("true", "false", "unverified")
    assert infer_classes(four) == ("true", "false", "unverified", "nonrumour")


# ---------------------------------------------------------------------------
# branches


class TestBranches:
    def test_single_tweet(self):
        t = tree_of([tw("a", None, 1)])
        (branch,) = decompose_branches(t)
        assert [x.id for x in branch.tweets] == ["a"]

    def test_chain(self):
        t = tree_of([tw("r", None, 1), tw("a", "r", 2), tw("b", "a", 3)])
        (branch,) = decompose_branches(t)
        assert [x.id for x in branch.tweets] == ["r", "a", "b"]

    def test_branch_count_equals_leaf_count(self, rng):
        tweets = [tw("n0", None, 0)]
        for i in range(1, 20):
            parent = f"n{int(rng.integers(i))}"
            tweets.append(tw(f"n{i}", parent, i))
        t = tree_of(tweets)
        children = {x.parent_id for x in tweets if x.parent_id}
        leaves = [x for x in tweets if x.id not in children]
        assert len(decompose_branches(t)) == len(leaves)

    def test_matches_dfs_path_oracle(self, rng):
        tweets = [tw("n0", None, 0)]
        for i in range(1, 20):
            parent = f"n{int(rng.integers(i))}"
            tweets.append(tw(f"n{i}", parent, i))
        t = tree_of(tweets)

        kids = {}
        for x in tweets:
            if x.parent_id:
                kids.setdefault(x.parent_id, []).append(x.id)
        paths = set()

        def dfs(node, path):
            path = path + (node,)
            if node not in kids:
                paths.add(path)
                return
            for k in kids[node]:
                dfs(k, path)

        dfs("n0", ())
        got = {tuple(x.id for x in b.tweets) for b in decompose_branches(t)}
        assert got == paths


# ---------------------------------------------------------------------------
# timeline prefixes


class TestPrefixes:
    def test_single_tweet(self):
        t = tree_of([tw("a", None, 1)])
        assert timeline_prefixes(t) == [t]

    def test_chain_sizes(self):
        t = tree_of([tw("r", None, 1), tw("a", "r", 2), tw("b", "a", 3), tw("c", "b", 4)])
        sizes = [p.size for p in timeline_prefixes(t)]
        assert sizes == [1, 2, 3, 4]

    def test_nested_tree_hand_enumeration(self):
        # root, two direct replies, one nested reply under the first
        t = tree_of([tw("r", None, 0), tw("a", "r", 1), tw("b", "r", 3), tw("c", "a", 2)])
        prefixes = timeline_prefixes(t)
        assert [sorted(x.id for x in p.tweets) for p in prefixes] == [
            ["r"],
            ["a", "r"],
            ["a", "c", "r"],
            ["a", "b", "c", "r"],
        ]
        branch_sets = [
            {tuple(x.id for x in b.tweets) for b in decompose_branches(p)} for p in prefixes
        ]
        assert branch_sets == [
            {("r",)},
            {("r", "a")},
            {("r", "a", "c")},
            {("r", "a", "c"), ("r", "b")},
        ]

    def test_last_prefix_equals_tree(self):
        t = tree_of([tw("r", None, 0), tw("a", "r", 1), tw("b", "r", 2)])
        assert timeline_prefixes(t)[-1] == t

    def test_sizes_strictly_increase(self, rng):
        tweets = [tw("n0", None, 0)]
        for i in range(1, 12):
            tweets.append(tw(f"n{i}", f"n{int(rng.integers(i))}", int(rng.integers(1, 100))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            prefixes = timeline_prefixes(tree_of(tweets))
        assert [p.size for p in prefixes] == list(range(1, 13))

    def test_out_of_order_child_repaired_with_warning(self):
        t = tree_of([tw("r", None, 10), tw("a", "r", 5)])
        with pytest.warns(DataWarning, match="precedes its parent"):
            order = repaired_order(t)
        assert [x.id for x in order] == ["r", "a"]

    def test_repaired_order_keeps_parents_first(self, rng):
        tweets = [tw("n0", None, 50)]
        for i in range(1, 15):
            tweets.append(tw(f"n{i}", f"n{int(rng.integers(i))}", int(rng.integers(100))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            order = repaired_order(tree_of(tweets))
        seen = set()
        for x in order:
            assert x.parent_id is None or x.parent_id in seen
            seen.add(x.id)


# ---------------------------------------------------------------------------
# folds


class TestFolds:
    def _trees(self, n, events=("e",)):
        return [
            tree_of([tw(f"a{i}", None, i)], tree_id=f"t{i}", event=events[i % len(events)])
            for i in range(n)
        ]

    def test_one_fold_per_event(self):
        trees = self._trees(18, events=tuple(f"ev{i}" for i in range(9)))
        folds = make_folds(trees, "leave_one_event_out")
        assert len(folds.fold_ids()) == 9
        by_event = {}
        for t in trees:
            by_event.setdefault(t.event, set()).add(folds.assignments[t.tree_id])
        assert all(len(v) == 1 for v in by_event.values())

    def test_k_fold_even_sizes(self):
        folds = make_folds(self._trees(10), "k_fold", k=5, seed=3)
        sizes = [len(folds.trees_in(f)) for f in folds.fold_ids()]
        assert sizes == [2, 2, 2, 2, 2]

    def test_k_fold_deterministic(self):
        trees = self._trees(13)
        a = make_folds(trees, "k_fold", k=4, seed=9)
        b = make_folds(trees, "k_fold", k=4, seed=9)
        assert a.assignments == b.assignments

    def test_errors(self):
        trees = self._trees(4)
        with pytest.raises(ConfigError):
            make_folds(trees, "leave_one_event_out")
        with pytest.raises(ConfigError):
            make_folds(trees, "k_fold", k=1)
        with pytest.raises(ConfigError):
            make_folds(trees, "bogus")
        with pytest.raises(ConfigError):
            FoldSpec(scheme="k_fold", assignments={"t": 0}, dev_fold=5)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "3", None], ids=repr)
    def test_k_must_be_an_integer(self, k):
        """A float k once gave fold ids such as 0.5, which a fold file truncates into another partition."""
        with pytest.raises(ConfigError) as info:
            make_folds(self._trees(5), "k_fold", k=k)
        assert str(info.value) == f"k must be an integer, got {k!r}"

    def test_k_below_two(self):
        with pytest.raises(ConfigError, match=r"^k must be >= 2, got 1$"):
            make_folds(self._trees(4), "k_fold", k=1)

    @pytest.mark.parametrize("scheme", ["k_fold", "leave_one_event_out"])
    @pytest.mark.parametrize("seed", ["x", 1.5, True, None], ids=repr)
    def test_fold_seed_must_be_an_integer(self, scheme, seed):
        trees = self._trees(6, events=("e1", "e2"))
        with pytest.raises(ConfigError) as info:
            make_folds(trees, scheme, k=2, seed=seed)
        assert str(info.value) == f"fold seed must be an integer, got {seed!r}"

    def test_numpy_integer_k_keeps_the_partition(self, tmp_path):
        trees = self._trees(7)
        folds = make_folds(trees, "k_fold", k=np.int64(3), seed=2)
        assert folds.assignments == make_folds(trees, "k_fold", k=3, seed=2).assignments
        folds.save(tmp_path / "folds.json")
        assert FoldSpec.load(tmp_path / "folds.json").assignments == folds.assignments

    def test_save_load_round_trip(self, tmp_path):
        folds = make_folds(self._trees(10), "k_fold", k=5, seed=0, dev_fold=2)
        path = tmp_path / "folds.json"
        folds.save(path)
        loaded = FoldSpec.load(path)
        assert loaded == folds

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "folds.json"
        path.write_text("[]")
        with pytest.raises(DataError):
            FoldSpec.load(path)

    @pytest.mark.parametrize("scheme", [5, None, ["k_fold"]])
    def test_load_requires_a_string_scheme(self, tmp_path, scheme):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps({"scheme": scheme, "assignments": {"t0": 0, "t1": 1}}))
        with pytest.raises(DataError) as info:
            FoldSpec.load(path)
        assert str(info.value) == f"fold file {path}: scheme must be a string, got {scheme!r}"


# ---------------------------------------------------------------------------
# tokenisation


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_url_collapsed(self):
        assert tokenize("see https://x.co/a?b=1 now") == ["see", "<url>", "now"]
        assert tokenize("www.example.com rocks") == ["<url>", "rocks"]

    def test_mention_collapsed(self):
        assert tokenize("@Alice123 hi") == ["<user>", "hi"]

    def test_mixed(self):
        assert tokenize("RT @bob: look http://t.co/xyz #Breaking") == [
            "rt", "<user>", "look", "<url>", "breaking",
        ]

    @given(st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


# ---------------------------------------------------------------------------
# embeddings


class TestEmbedders:
    def test_empty_text_zero_vector(self):
        emb = HashingEmbedder(dimension=8)
        np.testing.assert_array_equal(embed_tweet("", emb), np.zeros(8))

    def test_single_token_is_its_vector(self):
        emb = HashingEmbedder(dimension=16)
        np.testing.assert_array_equal(embed_tweet("rumour", emb), emb.token_vector("rumour"))

    def test_table_mean(self):
        table = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        emb = TableEmbedder(table=table, dimension=2)
        np.testing.assert_allclose(embed_tweet("a b", emb), [0.5, 0.5])

    def test_table_skips_oov(self):
        table = {"a": np.array([1.0, 0.0])}
        emb = TableEmbedder(table=table, dimension=2)
        np.testing.assert_allclose(embed_tweet("a missing", emb), [1.0, 0.0])
        np.testing.assert_array_equal(embed_tweet("missing", emb), np.zeros(2))

    @pytest.mark.parametrize("text", ["a b", "a", "missing"])
    def test_table_vectors_are_read_only_and_leave_the_table_writable(self, text):
        table = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        vec = embed_tweet(text, TableEmbedder(table=table, dimension=2))
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 5.0
        table["a"][0] = 2.0
        assert vec[0] != 2.0

    def test_hashing_deterministic_and_seeded(self):
        a = HashingEmbedder(dimension=32, seed=0)
        b = HashingEmbedder(dimension=32, seed=1)
        np.testing.assert_array_equal(a.token_vector("x"), a.token_vector("x"))
        assert not np.array_equal(a.token_vector("x"), b.token_vector("x"))

    def test_hashing_unit_scale(self):
        emb = HashingEmbedder(dimension=25)
        vec = emb.token_vector("token")
        assert np.count_nonzero(vec) == 1
        assert abs(abs(vec).max() - 0.2) < 1e-12

    def test_branch_matrix_root_first(self):
        emb = HashingEmbedder(dimension=4)
        branch = Branch(tree_id="t", tweets=(tw("r", None, 0, "aa"), tw("x", "r", 1, "bb")))
        M = branch_matrix(branch, emb)
        assert M.shape == (2, 4)
        np.testing.assert_array_equal(M[0], embed_tweet("aa", emb))
        np.testing.assert_array_equal(M[1], embed_tweet("bb", emb))

    def test_memoised_vector_is_read_only(self):
        emb = HashingEmbedder(dimension=8, seed=3)
        vec = emb.token_vector("rumour")
        assert emb.token_vector("rumour") is vec
        with pytest.raises(ValueError):
            vec[0] = 1.0
        np.testing.assert_array_equal(vec, _unmemoised_token_vector("rumour", emb))

    def test_dimension_validation(self):
        with pytest.raises(ConfigError):
            HashingEmbedder(dimension=0)
        with pytest.raises(ConfigError):
            TableEmbedder(table={"a": np.zeros(3)}, dimension=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_table_rejects_non_finite_vector(self, bad):
        with pytest.raises(ConfigError, match="table vector for 'rumour' has non-finite values"):
            TableEmbedder(table={"ok": np.zeros(2), "rumour": np.array([0.5, bad])}, dimension=2)


def _unmemoised_token_vector(token, emb):
    h = fnv1a_64(token, emb.seed)
    vec = np.zeros(emb.dimension)
    vec[h % emb.dimension] = (1.0 if h % 2 == 0 else -1.0) / np.sqrt(emb.dimension)
    return vec


_SHARED_EMBEDDER = HashingEmbedder(dimension=16, seed=7)
_VOCAB = ["rumour", "false", "@bob", "http://t.co/x", "breaking", "it's", "news", "ok"]


@given(
    st.one_of(st.text(max_size=80), st.lists(st.sampled_from(_VOCAB), max_size=12).map(" ".join)),
    st.integers(1, 40),
)
@settings(max_examples=300, deadline=None)
def test_memoised_embedding_equals_unmemoised(text, dimension):
    """embed_tweet with memoised vectors equals the mean of freshly hashed ones, read-only."""
    for emb in (_SHARED_EMBEDDER, HashingEmbedder(dimension=dimension, seed=dimension)):
        vectors = [_unmemoised_token_vector(tok, emb) for tok in tokenize(text)]
        expected = np.mean(vectors, axis=0) if vectors else np.zeros(emb.dimension)
        got = embed_tweet(text, emb)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 1.0
        assert embed_tweet(text, emb).tobytes() == expected.tobytes()


@st.composite
def text_streams(draw):
    """More texts than the text memo holds, with repeats that hit and miss it."""
    n_distinct = draw(st.integers(_MEMO_TEXTS + 1, _MEMO_TEXTS + 60))
    words = draw(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=5))
    pool = [""] + [f"{' '.join(words)} {i}" for i in range(1, n_distinct)]
    order = draw(st.lists(st.integers(0, n_distinct - 1), min_size=n_distinct, max_size=3 * n_distinct))
    return [pool[i] for i in range(n_distinct)] + [pool[i] for i in order]


@given(text_streams(), st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_text_memo_is_bounded_and_returns_read_only_vectors(texts, dimension):
    """Past the bound the memo still gives a fresh embedder's bytes, never grows
    beyond _MEMO_TEXTS, and a caller cannot write to a vector it hands out."""
    emb = HashingEmbedder(dimension=dimension, seed=3)
    for text in texts:
        got = embed_tweet(text, emb)
        expected = embed_tweet(text, HashingEmbedder(dimension=dimension, seed=3))
        assert got.tobytes() == expected.tobytes()
        assert len(emb._texts) <= _MEMO_TEXTS
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got += 1.0
        assert embed_tweet(text, emb).tobytes() == expected.tobytes()
    assert len(emb._texts) == _MEMO_TEXTS
