import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memscrub.audit import AuditLog, Blocklist
from memscrub.graph import UnknownNodeError
from memscrub.retrieval import (
    HashingEmbedder,
    HybridIndex,
    HybridQuery,
    keyword_score,
    tokenize,
)


def allow_all(_):
    return True


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


class TestCopyAndPurge:
    def test_copy_shares_no_mutable_state(self, index):
        for i in range(6):
            index.insert(i, f"doc {i} river")
        index.remove(2)
        clone = index.copy()
        assert clone.to_lines() == index.to_lines()
        assert clone.live_ids() == index.live_ids()

        clone.insert(9, "doc 9 river")
        clone.remove(0)
        clone.purge([1])
        assert index.live_ids() == [0, 1, 3, 4, 5]
        assert 2 not in index and index.generation == 0
        index.remove(3)
        assert clone.live_ids() == [3, 4, 5, 9]
        with pytest.raises(ValueError):
            clone._vectors[4][0] = 1.0  # stored vectors are read-only

    def test_purge_drops_ids_and_every_tombstone(self, index):
        for i in range(8):
            index.insert(i, f"doc {i} river")
        index.remove(1)
        index.remove(5)
        generation = index.generation
        index.purge([2, 3])
        assert index.live_ids() == [0, 4, 6, 7]
        assert len(index) == 4
        assert all('"tombstone":true' not in line for line in index.to_lines())
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
