import copy
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memscrub.audit import AuditLog, Blocklist, payload_digest
from memscrub.graph import Layer, UnknownNodeError
from memscrub.retrieval import (
    BLOCK_ROWS,
    HashingEmbedder,
    HybridIndex,
    HybridQuery,
    tokenize,
)
from memscrub.store import MemoryStore


def allow_all(_):
    return True


def keyword_score(query_tokens, doc_tokens) -> float:
    """Normalized token overlap: |query ∩ doc| / |query|."""
    if not query_tokens:
        return 0.0
    qset = set(query_tokens)
    return len(qset & set(doc_tokens)) / len(qset)


def oracle_search(docs, query, allowed, dim):
    """Scalar reference for ``HybridIndex.search`` over ``docs`` (live id -> text):
    one ``np.dot`` and one set overlap per entry, then a ``(-combined, id)`` sort."""
    qvec = reference_embed(query.text, dim)
    qtokens = tokenize(query.text)
    scored = []
    for node_id, text in docs.items():
        sem = float(np.dot(qvec, reference_embed(text, dim)))
        kw = keyword_score(qtokens, tokenize(text))
        scored.append((node_id, sem, kw, query.w_sem * sem + query.w_kw * kw))
    scored.sort(key=lambda h: (-h[3], h[0]))
    candidates = scored[: query.top_k * query.oversample_r]
    return [h for h in candidates if allowed(h[0])][: query.top_k]


@pytest.fixture()
def index():
    return HybridIndex(HashingEmbedder(64), tau=100)


class TestEmbedder:
    def test_identical_text_identical_vector(self):
        e = HashingEmbedder(128)
        a = e.embed("patient with fever and cough")
        b = e.embed("patient with fever and cough")
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        e = HashingEmbedder(128)
        for text in ("alpha", "a longer sentence with more words", ""):
            assert abs(np.linalg.norm(e.embed(text)) - 1.0) < 1e-9

    def test_self_cosine_is_one(self):
        e = HashingEmbedder(64)
        v = e.embed("some text here")
        assert abs(float(v @ v) - 1.0) < 1e-9

    def test_stable_across_instances(self):
        a = HashingEmbedder(64).embed("reproducible")
        b = HashingEmbedder(64).embed("reproducible")
        assert np.array_equal(a, b)


class TestKeywordScore:
    def test_overlap_fraction(self):
        assert keyword_score(tokenize("red blue green"), tokenize("blue GREEN! yellow")) == pytest.approx(2 / 3)

    def test_empty_query(self):
        assert keyword_score([], tokenize("anything")) == 0.0


class TestIndexMembership:
    def test_insert_remove_search(self, index):
        index.insert(1, "hello world")
        index.remove(1)
        assert index.search(HybridQuery("hello world", top_k=5), allow_all) == []

    def test_remove_unknown_id(self, index):
        with pytest.raises(UnknownNodeError):
            index.remove(42)

    def test_empty_index_returns_empty(self, index):
        assert index.search(HybridQuery("anything"), allow_all) == []

    def test_removed_entry_keeps_only_its_id(self, index):
        for i in range(3):
            index.insert(i, f"doc {i}")
        index.remove(1)
        assert 1 not in index and len(index) == 2 and index.live_ids() == [0, 2]
        hits = index.search(HybridQuery("doc 1", top_k=3, oversample_r=3), allow_all)
        assert [h.node_id for h in hits] == [0, 2]
        assert index.to_lines()[1:] == ['{"id":1}']
        with pytest.raises(UnknownNodeError):
            index.remove(1)
        # The dead row and its postings stay until a purge compacts them away.
        index.purge([])
        assert index._rows == 2 and index._ids[:2].tolist() == [0, 2]
        assert index._live.tolist() == [True, True] + [False] * (BLOCK_ROWS - 2)
        assert "1" not in index._postings
        assert {t: list(rows) for t, rows in index._postings.items()} == {
            "doc": [0, 1], "0": [0], "2": [1]}


class TestPersistence:
    def test_load_embeds_live_entries_only(self, index):
        contents = {i: f"doc {i} river" for i in range(6)}
        for i, text in contents.items():
            index.insert(i, text)
        index.remove(1)
        index.remove(4)
        asked, embedded = [], []

        class CountingEmbedder(HashingEmbedder):
            def embed(self, text):
                embedded.append(text)
                return super().embed(text)

        class Known(dict):
            def __contains__(self, node_id):
                asked.append(node_id)
                return super().__contains__(node_id)

        lines = index.to_lines()
        live = [(i, contents[i]) for i in index.live_ids()]
        reloaded = HybridIndex.from_lines(lines, CountingEmbedder(64), tau=100,
                                          live=live, known=Known(contents))
        assert asked == [1, 4]  # tombstones are checked against the graph
        assert embedded == [contents[i] for i in (0, 2, 3, 5)]
        assert reloaded.to_lines() == lines
        assert reloaded.live_ids() == index.live_ids()

    def test_unknown_tombstone_rejected_on_load(self, tmp_path):
        store = MemoryStore()
        store.write(Layer.EPISODIC, "alpha river")
        store.save(tmp_path)
        with open(tmp_path / "index.jsonl", "a", encoding="utf-8") as f:
            f.write('{"id":99}\n')
        with pytest.raises(ValueError, match="index.jsonl: malformed file"):
            MemoryStore.load(tmp_path)

    @pytest.mark.parametrize("tombstone", [False, True])
    def test_id_listed_twice_rejected_on_load(self, index, tombstone):
        """A tombstone may name neither a live entry nor an id already tombstoned."""
        index.insert(0, "alpha river")
        index.insert(1, "beta lake")
        index.remove(1)
        live = [(0, "alpha river")]
        lines = index.to_lines() + ['{"id":1}' if tombstone else '{"id":0}']
        with pytest.raises(ValueError, match="listed twice" if tombstone else "live entry"):
            HybridIndex.from_lines(lines, index.embedder, tau=100, live=live, known={0, 1})


class TestCopyAndPurge:
    def test_copy_shares_no_mutable_state(self, index):
        for i in range(6):
            index.insert(i, f"doc {i} river")
        index.remove(2)
        clone = copy.deepcopy(index)
        assert clone.to_lines() == index.to_lines()
        assert clone.live_ids() == index.live_ids()
        query = HybridQuery("doc 9 river", top_k=8, oversample_r=2)
        before = index.search(query, allow_all)
        assert clone.search(query, allow_all) == before

        clone.insert(9, "doc 9 river")  # into the copied partial block
        clone.remove(0)
        clone.purge([1])
        assert index.search(query, allow_all) == before
        assert index.live_ids() == [0, 1, 3, 4, 5]
        assert 2 not in index and index.generation == 0

        clone_before = clone.search(query, allow_all)
        sibling = copy.deepcopy(index)
        for mine, theirs in [(sibling._ids, index._ids), (sibling._live, index._live)] + [
                (a, b) for a in sibling._blocks for b in index._blocks]:
            assert not np.shares_memory(mine, theirs)
        assert sibling._postings == index._postings
        assert all(rows is not index._postings[t] for t, rows in sibling._postings.items())
        index.insert(7, "doc 9 river")  # into the partial block ``sibling`` copied
        sibling.insert(8, "lake")  # the same row on the other side
        assert [h.kw_score for h in sibling.search(query, allow_all) if h.node_id == 8] == [0.0]
        assert index.search(query, allow_all)[0].node_id == 7
        index.remove(3)
        index.purge([4])
        sibling.remove(8)
        assert clone.search(query, allow_all) == clone_before
        assert clone.live_ids() == [3, 4, 5, 9]
        assert sibling.search(query, allow_all) == before

    def test_purge_drops_ids_and_every_tombstone(self, index):
        for i in range(8):
            index.insert(i, f"doc {i} river")
        index.remove(1)
        index.remove(5)
        generation = index.generation
        index.purge([2, 3])
        assert index.live_ids() == [0, 4, 6, 7]
        assert len(index) == 4
        assert index.to_lines()[1:] == []  # no tombstone left
        assert index.generation == generation + 1
        hits = index.search(HybridQuery("doc river", top_k=8), allow_all)
        assert sorted(h.node_id for h in hits) == [0, 4, 6, 7]


class TestSearch:
    def test_weight_fusion_arithmetic(self, index):
        # Construct sem=1/kw=0 vs sem=0/kw=1 by querying with matching text.
        index.insert(1, "alpha beta")
        index.insert(2, "gamma delta")
        query = HybridQuery("alpha beta", top_k=2, oversample_r=2)
        hits = {h.node_id: h for h in index.search(query, allow_all)}
        a = hits[1]
        assert a.sem_score == pytest.approx(1.0)
        assert a.kw_score == pytest.approx(1.0)
        assert a.combined == pytest.approx(0.7 * a.sem_score + 0.3 * a.kw_score)
        b = hits[2]
        assert b.combined == pytest.approx(0.7 * b.sem_score + 0.3 * b.kw_score)
        assert index.search(query, allow_all)[0].node_id == 1

    def test_combined_recomputable(self, index):
        for i in range(10):
            index.insert(i, f"document number {i} about things")
        for hit in index.search(HybridQuery("document about things"), allow_all):
            assert abs(hit.combined - (0.7 * hit.sem_score + 0.3 * hit.kw_score)) < 1e-12

    def test_blocked_best_match_yields_second_best(self, index):
        for i in range(10):
            index.insert(i, f"note {i} filler text")
        index.insert(10, "exact query match wording")
        index.insert(11, "query match wording almost exact too")
        query = HybridQuery("exact query match wording", top_k=1, oversample_r=3)
        # Linear-scan oracle over every document.
        full = index.search(HybridQuery("exact query match wording",
                                        top_k=12, oversample_r=12), allow_all)
        best, second = full[0].node_id, full[1].node_id
        hits = index.search(query, lambda i: i != best)
        assert [h.node_id for h in hits] == [second]

    def test_matches_brute_force_with_full_oversampling(self, index):
        rng = np.random.default_rng(5)
        words = ["ache", "burn", "chill", "daze", "numb", "rash", "sore", "throb"]
        for i in range(30):
            text = " ".join(rng.choice(words, size=4))
            index.insert(i, text)
        query = HybridQuery("ache chill sore", top_k=5, oversample_r=30)
        hits = index.search(query, allow_all)
        scored = sorted(
            index.search(HybridQuery("ache chill sore", top_k=30, oversample_r=30), allow_all),
            key=lambda h: (-h.combined, h.node_id),
        )
        assert [h.node_id for h in hits] == [h.node_id for h in scored[:5]]

    def test_ties_broken_by_ascending_id(self, index):
        index.insert(4, "same words")
        index.insert(2, "same words")
        hits = index.search(HybridQuery("same words", top_k=2), allow_all)
        assert [h.node_id for h in hits] == [2, 4]


class TestQueryValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            HybridQuery("x", w_sem=0.8, w_kw=0.3)

    def test_top_k_positive(self):
        with pytest.raises(ValueError):
            HybridQuery("x", top_k=0)


class TestRebuild:
    def _blocked(self, n, generation=0):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block(range(n), log, index_generation=generation)
        return blocklist, log

    def test_at_threshold_no_rebuild(self, index):
        index.tau = 100
        blocklist, log = self._blocked(100)
        result = index.maybe_rebuild(blocklist, keep=allow_all, audit=log)
        assert not result.rebuilt
        assert index.generation == 0

    def test_above_threshold_rebuilds(self, index):
        index.tau = 100
        for i in range(150):
            index.insert(i, f"doc {i}")
        blocklist, log = self._blocked(101)
        result = index.maybe_rebuild(blocklist, keep=allow_all, audit=log)
        assert result.rebuilt
        assert index.generation == 1
        assert all(not blocklist.is_blocked(i) or i not in index for i in range(150))

    def test_rebuild_purges_and_preserves_results(self, index):
        rng = np.random.default_rng(11)
        words = ["fog", "mist", "rain", "hail", "snow", "wind", "heat", "cold"]
        texts = {i: " ".join(rng.choice(words, size=3)) for i in range(1000)}
        for i, text in texts.items():
            index.insert(i, text)
        for i in range(100):
            index.remove(i)
        blocklist, log = self._blocked(101)

        queries = [" ".join(rng.choice(words, size=2)) for _ in range(50)]
        before = [
            [h.node_id for h in index.search(HybridQuery(q), lambda i: not blocklist.is_blocked(i))]
            for q in queries
        ]
        result = index.maybe_rebuild(blocklist, keep=allow_all, audit=log)
        assert result.rebuilt
        assert len(index) == 1000 - 101
        after = [
            [h.node_id for h in index.search(HybridQuery(q), lambda i: not blocklist.is_blocked(i))]
            for q in queries
        ]
        assert before == after

    def test_rebuild_record_counts_tombstones_as_entries(self, index):
        for i in range(10):
            index.insert(i, f"doc {i}")
        for i in (0, 5, 7):
            index.remove(i)
        blocklist, log = self._blocked(3)
        blocklist.block([8], log)
        index.tau = 3
        index.maybe_rebuild(blocklist, keep=lambda i: i != 9, audit=log)
        rebuild = log.records[-2]
        # Every entry counts, live or tombstoned: 10 entries, 7 purged.
        expected = {"generation": 1, "purged": [0, 1, 2, 5, 7, 8, 9], "size": 3}
        assert rebuild.payload_digest == payload_digest(expected)
        assert index.live_ids() == [3, 4, 6]


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(st.text(alphabet="abcd ", min_size=1, max_size=12), min_size=1, max_size=15),
    blocked=st.sets(st.integers(min_value=0, max_value=14)),
    query=st.text(alphabet="abcd ", min_size=1, max_size=8),
)
def test_blocked_ids_never_returned(docs, blocked, query):
    index = HybridIndex(HashingEmbedder(32), tau=100)
    for i, doc in enumerate(docs):
        index.insert(i, doc)
    hits = index.search(HybridQuery(query, top_k=3), lambda i: i not in blocked)
    assert not {h.node_id for h in hits} & blocked


def reference_embed(text, dim):
    """The embedding without a cache: seeded token vectors summed in order, normalized."""
    vec = np.zeros(dim)
    for token in tokenize(text) or ["<empty>"]:
        seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
        vec += np.random.default_rng(seed).standard_normal(dim)
    return vec / np.linalg.norm(vec)


# A few recurring words plus random one-off tokens.
_words = st.sampled_from(["fever", "cough", "alder", "remedy", "topic001"]) | st.text(
    alphabet="abcdefghijklmnop0123456789", min_size=1, max_size=10)


class TestTokenCache:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(texts=st.lists(st.lists(_words, max_size=8).map(" ".join), min_size=1, max_size=6))
    def test_embeddings_exact_and_only_recurring_tokens_cached(self, texts):
        embedder = HashingEmbedder(32)
        for text in texts:
            assert np.array_equal(embedder.embed(text), reference_embed(text, 32))
        sightings = Counter(t for text in texts for t in tokenize(text) or ["<empty>"])
        assert set(embedder._token_cache) == {t for t, n in sightings.items() if n >= 2}

    def test_store_copy_shares_the_embedder(self):
        store = MemoryStore()
        store.write(Layer.EPISODIC, "fever and cough, fever again")
        clone = store.copy()
        assert clone.embedder is store.embedder
        assert clone.index.embedder is store.embedder
        assert clone.settings is store.settings
        assert clone.graph.audit is clone.audit and clone.audit is not store.audit


# Distinct token sets, so distinct texts never tie to the last bit; a text
# drawn twice gives the identical entries whose ties must break by id.
_POOL = ["fever cough", "alder", "remedy for cough", "topic001 fever alder",
         "cough cough remedy", "alder bark tea", "", "fever fever fever", "topic001"]
_QUERIES = ["fever cough", "alder remedy", "topic001 bark", "nothing in common"]
_ID = st.integers(min_value=0, max_value=4 * BLOCK_ROWS + 20)
_op = st.one_of(
    st.tuples(st.just("insert"), _ID, st.integers(0, len(_POOL) - 1)),
    st.tuples(st.just("remove"), _ID),
    st.tuples(st.just("purge"), st.sets(_ID, max_size=4)),
    st.tuples(st.just("copy"), st.booleans(), st.integers(0, len(_POOL) - 1)),
)


class TestScalarOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(prefill=st.integers(0, 4 * BLOCK_ROWS), seed=st.integers(0, 2 ** 16),
           ops=st.lists(_op, max_size=30))
    def test_search_matches_scalar_oracle(self, prefill, seed, ops):
        dim = 32
        index = HybridIndex(HashingEmbedder(dim), tau=100)
        docs = {}
        choices = np.random.default_rng(seed).integers(len(_POOL), size=prefill).tolist()
        for node_id, choice in enumerate(choices):
            index.insert(node_id, _POOL[choice])
            docs[node_id] = _POOL[choice]
        left = []  # each side a copy left behind, with its results at that moment
        for op in ops:
            if op[0] == "insert":
                index.insert(op[1], _POOL[op[2]])  # re-inserts a live id too
                docs[op[1]] = _POOL[op[2]]
            elif op[0] == "remove":
                if op[1] in docs:
                    index.remove(op[1])
                    del docs[op[1]]
                else:
                    with pytest.raises(UnknownNodeError):
                        index.remove(op[1])
            elif op[0] == "purge":
                index.purge(op[1])
                for node_id in op[1]:
                    docs.pop(node_id, None)
            else:
                clone = copy.deepcopy(index)
                kept, index = (index, clone) if op[1] else (clone, index)
                kept.insert(1000 + len(left), _POOL[op[2]])  # a row the other side writes too
                left.append((kept, self._results(kept)))
                docs = dict(docs)
        assert index.live_ids() == sorted(docs)

        for text in _QUERIES:
            for allowed in (allow_all, lambda i: i % 3 != 0):
                query = HybridQuery(text, top_k=5, oversample_r=3)
                hits = index.search(query, allowed)
                expected = oracle_search(docs, query, allowed, dim)
                assert [h.node_id for h in hits] == [e[0] for e in expected]
                for hit, (_, sem, kw, combined) in zip(hits, expected):
                    assert abs(hit.sem_score - sem) <= 1e-15
                    assert hit.kw_score == kw
                    assert abs(hit.combined - combined) <= 1e-15

            if docs:
                ranked = index.search(HybridQuery(text, top_k=len(docs), oversample_r=1), allow_all)
                by_text = {}
                for hit in ranked:
                    by_text.setdefault(docs[hit.node_id], []).append(hit)
                for same in by_text.values():
                    assert len({h.combined for h in same}) == 1  # bit-identical at any row
                    ids = [h.node_id for h in same]
                    assert ids == sorted(ids)
                    position = [ranked.index(h) for h in same]
                    assert position == list(range(position[0], position[0] + len(same)))
        for kept, results in left:
            assert self._results(kept) == results

    @staticmethod
    def _results(index):
        return [index.search(HybridQuery(text, top_k=5), allow_all) for text in _QUERIES]
