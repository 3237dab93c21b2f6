import copy
import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from memscrub import corpus, retrieval
from memscrub.audit import AuditLog, AuditRecord, Blocklist, payload_digest
from memscrub.corpus import split_items, to_dataset
from memscrub.graph import ForgetRequest, Layer, UnknownNodeError
from memscrub.protocol import AgentState, run_protocol
from memscrub.retrieval import (
    BLOCK_ROWS,
    FLUSH_ROWS,
    HashingEmbedder,
    HybridIndex,
    RetrievalSettings,
    tokenize,
)
from memscrub.store import MemoryStore
from memscrub.training import UnlearnConfig

from conftest import live_ids


def allow_all(_):
    return True


def keyword_score(query_tokens, doc_tokens) -> float:
    """Normalized token overlap: |query ∩ doc| / |query|."""
    if not query_tokens:
        return 0.0
    qset = set(query_tokens)
    return len(qset & set(doc_tokens)) / len(qset)


def oracle_search(docs, text, allowed, dim, settings=RetrievalSettings()):
    """Scalar reference for ``HybridIndex.search`` over ``docs`` (live id -> text):
    one integer dot product over the norms and one set overlap per entry, then a
    ``(-combined, id)`` sort, filtered whole by ``allowed``."""
    qcounts = reference_embed(text, dim)
    qtokens = tokenize(text)
    scored = []
    for node_id, text in docs.items():
        counts = reference_embed(text, dim)
        dot = sum(q * c for q, c in zip(qcounts, counts))
        sem = dot / (reference_norm(counts) * reference_norm(qcounts))
        kw = keyword_score(qtokens, tokenize(text))
        scored.append((node_id, sem, kw, (1.0 - settings.w_kw) * sem + settings.w_kw * kw))
    scored.sort(key=lambda h: (-h[3], h[0]))
    return [h for h in scored if allowed(h[0])][: settings.top_k]


def full_ranking(index, text, allowed=allow_all):
    """``index.search`` with ``top_k`` the index's size: every allowed live entry, ranked."""
    settings = index.settings
    index.settings = replace(settings, top_k=len(index))
    try:
        return index.search(text, allowed)
    finally:
        index.settings = settings


@pytest.fixture()
def index():
    return HybridIndex(HashingEmbedder(64), RetrievalSettings())


class CountingEmbedder(HashingEmbedder):
    """Records every text it embeds, queries included, as its tokens joined by spaces."""

    def __init__(self, dim):
        super().__init__(dim)
        self.embedded = []

    def embed_many(self, token_lists):
        self.embedded.extend(map(" ".join, token_lists))
        return super().embed_many(token_lists)


def postings_of(index) -> dict:
    """The index's postings, each posting list ascending."""
    return {token: sorted(rows) for token, rows in index._postings.items()}


class TestEmbedder:
    def test_identical_text_identical_vector(self):
        e = HashingEmbedder(128)
        a = e.embed("patient with fever and cough")
        b = e.embed("patient with fever and cough")
        assert np.array_equal(a, b)

    def test_integer_counts_of_the_tokens_signs(self):
        e = HashingEmbedder(128)
        for text in ("alpha", "a longer sentence with more words", ""):
            v = e.embed(text)
            n = len(tokenize(text)) or 1
            assert v.dtype == np.int64 and v.shape == (128,)
            assert np.all(np.abs(v) <= n) and np.all((v - n) % 2 == 0)

    def test_self_cosine_is_one(self, index):
        index.insert(0, "some text here")
        (hit,) = index.search("some text here", allow_all)
        assert abs(hit.sem_score - 1.0) < 1e-9

    def test_all_zero_sum_takes_the_degenerate_signs(self):
        e = HashingEmbedder(1)
        first = {token: e.embed(token)[0] for token in ("a", "b", "c", "d", "e", "f")}
        up = next(t for t, s in first.items() if s == 1)
        down = next(t for t, s in first.items() if s == -1)
        assert e.embed(f"{up} {down}").tolist() == reference_signs("<degenerate>", 1)

    def test_stable_across_instances(self):
        a = HashingEmbedder(64).embed("reproducible")
        b = HashingEmbedder(64).embed("reproducible")
        assert np.array_equal(a, b)

    def test_independent_of_process(self):
        texts = ["fever and cough", "fever again", "", "topic001 remedy fever"]
        script = ("import sys\n"
                  "from memscrub.retrieval import HashingEmbedder\n"
                  "e = HashingEmbedder(64)\n"
                  "for text in sys.argv[1:]:\n"
                  "    print(e.embed(text).tobytes().hex())\n")
        embedder = HashingEmbedder(64)
        expected = "".join(embedder.embed(text).tobytes().hex() + "\n" for text in texts)
        src = str(Path(retrieval.__file__).parents[1])
        for hash_seed in ("0", "4242"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            result = subprocess.run([sys.executable, "-c", script, *texts], env=env,
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            assert result.stdout == expected


class TestKeywordScore:
    def test_overlap_fraction(self):
        assert keyword_score(tokenize("red blue green"), tokenize("blue GREEN! yellow")) == pytest.approx(2 / 3)

    def test_empty_query(self):
        assert keyword_score([], tokenize("anything")) == 0.0


class TestIndexMembership:
    def test_insert_remove_search(self, index):
        index.insert(1, "hello world")
        index.remove(1)
        assert index.search("hello world", allow_all) == []

    def test_remove_unknown_id(self, index):
        with pytest.raises(UnknownNodeError):
            index.remove(42)

    def test_empty_index_returns_empty(self, index):
        assert index.search("anything", allow_all) == []

    def test_removed_entry_keeps_only_its_id(self, index):
        for i in range(3):
            index.insert(i, f"doc {i}")
        assert index._blocks == [] and index._postings == {}  # an unsearched index holds neither
        query = "doc 1"
        index.search(query, allow_all)
        written = {"doc": [0, 1, 2], "0": [0], "1": [1], "2": [2]}
        assert len(index._blocks) == 1 and postings_of(index) == written
        index.remove(1)
        assert 1 not in index and len(index) == 2 and live_ids(index) == [0, 2]
        hits = index.search(query, allow_all)
        expected = oracle_search({0: "doc 0", 2: "doc 2"}, query, allow_all, 64)
        assert [h.node_id for h in hits] == [e[0] for e in expected]
        assert index.to_lines() == ['{"id":1}']
        with pytest.raises(UnknownNodeError):
            index.remove(1)
        # The dead row keeps its postings until a purge drops them and frees the row.
        assert postings_of(index) == written
        index.purge()
        assert index._rows == 3 and index._ids[[0, 2]].tolist() == [0, 2]
        assert index._live.tolist() == [True, False, True] + [False] * (BLOCK_ROWS - 3)
        assert postings_of(index) == {"doc": [0, 2], "0": [0], "2": [2]}
        index.insert(5, "doc 5")  # into the freed row, not the next one
        assert index._rows == 3 and len(index._blocks) == 1 and index._free == []
        assert index._ids[:3].tolist() == [0, 5, 2]
        assert index._live.tolist() == [True] * 3 + [False] * (BLOCK_ROWS - 3)
        assert postings_of(index) == {"doc": [0, 2], "0": [0], "2": [2]}  # until a search
        index.search(query, allow_all)
        assert postings_of(index) == {"doc": [0, 1, 2], "0": [0], "2": [2], "5": [1]}

    def test_purge_keeps_live_rows_and_reuses_freed_ones(self, index):
        n = 3 * BLOCK_ROWS
        for i in range(n):
            index.insert(i, f"doc {i} river")
        for i in [*range(0, n, 3), 1, BLOCK_ROWS + 1]:
            index.remove(i)
        index.purge()
        survivors = live_ids(index)
        rows = {i: index._row_of[i] for i in survivors}
        assert rows == {i: i for i in survivors}  # every entry kept its insert row
        assert index._ids[survivors].tolist() == survivors
        freed = sorted(set(range(n)) - set(survivors))
        for k in range(len(freed)):  # no new block's rows while a freed row remains
            index.insert(n + k, f"doc {n + k} lake")
            assert index._row_of[n + k] == freed[k]
            assert len(index._live) == n and index._rows == n
        assert {index._row_of[i] for i in survivors} == set(survivors)
        index.insert(2 * n, "doc lake")
        assert index._row_of[2 * n] == n and len(index._live) == n + BLOCK_ROWS
        assert index._blocks == []  # no search yet
        index.search("lake", allow_all)
        assert len(index._blocks) == 4


class TestPersistence:
    def test_load_embeds_live_entries_only(self, index):
        contents = {i: f"doc {i} river" for i in range(6)}
        for i, text in contents.items():
            index.insert(i, text)
        index.remove(1)
        index.remove(4)
        embedder = CountingEmbedder(64)
        embedded = embedder.embedded
        live = [(i, contents[i]) for i in live_ids(index)]
        reloaded = HybridIndex.restore(embedder, RetrievalSettings(), generation=3, live=live,
                                       tombstones=index.tombstones())
        assert embedded == []  # load embeds nothing; the first search embeds the live entries
        reloaded.search("lake", allow_all)
        assert sorted(embedded) == [contents[i] for i in (0, 2, 3, 5)] + ["lake"]
        del embedded[:]
        reloaded.search("lake", allow_all)
        assert embedded == ["lake"]  # the query alone
        assert reloaded.tombstones() == [1, 4] and reloaded.generation == 3
        assert live_ids(reloaded) == live_ids(index)


    def test_restored_index_rebuilds_as_the_one_it_restores(self):
        """A restored index appends the same REBUILD and COMPACT records as the index it
        was restored from, and leaves the same entries at the same generation."""
        contents = {i: f"doc {i} river" for i in range(6)}
        index = HybridIndex(HashingEmbedder(64), RetrievalSettings(tau=1))
        for i, text in contents.items():
            index.insert(i, text)
        for i in (1, 4):
            index.remove(i)
        restored = HybridIndex.restore(HashingEmbedder(64), RetrievalSettings(tau=1),
                                       generation=index.generation,
                                       live=[(i, contents[i]) for i in live_ids(index)],
                                       tombstones=index.tombstones())
        logs = []
        for each in (index, restored):
            blocklist, log = Blocklist(), AuditLog()
            blocklist.block([1, 4], log)
            assert each.maybe_rebuild(blocklist, log).rebuilt
            logs.append(log.to_lines())
        assert logs[0] == logs[1]
        assert restored.tombstones() == [] and restored.generation == index.generation == 1
        assert live_ids(restored) == live_ids(index) == [0, 2, 3, 5]
        query = "doc river"
        assert restored.search(query, allow_all) == index.search(query, allow_all)


class TestCopyAndPurge:
    def test_copy_shares_no_mutable_state(self, index):
        for i in range(6):
            index.insert(i, f"doc {i} river")
        index.remove(2)
        index.settings = RetrievalSettings(top_k=8)
        clone = copy.deepcopy(index)
        assert clone.to_lines() == index.to_lines()
        assert live_ids(clone) == live_ids(index)
        query = "doc 9 river"
        before = index.search(query, allow_all)
        assert clone.search(query, allow_all) == before

        clone.insert(9, "doc 9 river")  # into the copied partial block
        clone.remove(0)
        clone.remove(1)
        clone.purge()
        assert index.search(query, allow_all) == before
        assert live_ids(index) == [0, 1, 3, 4, 5]
        assert 2 not in index and index.generation == 0

        clone_before = clone.search(query, allow_all)
        sibling = copy.deepcopy(index)
        for mine, theirs in [(sibling._ids, index._ids), (sibling._live, index._live),
                             (sibling._norms, index._norms)] + [
                (a, b) for a in sibling._blocks for b in index._blocks]:
            assert not np.shares_memory(mine, theirs)
        assert sibling._postings == index._postings
        assert all(rows is not index._postings[t] for t, rows in sibling._postings.items())
        index.insert(7, "doc 9 river")  # into the partial block ``sibling`` copied
        sibling.insert(8, "lake")  # the same row on the other side
        assert [h.kw_score for h in sibling.search(query, allow_all) if h.node_id == 8] == [0.0]
        assert index.search(query, allow_all)[0].node_id == 7
        index.remove(3)
        index.remove(4)
        index.purge()
        sibling.remove(8)
        assert clone.search(query, allow_all) == clone_before
        assert live_ids(clone) == [3, 4, 5, 9]
        assert sibling.search(query, allow_all) == before

    def test_purge_drops_ids_and_every_tombstone(self, index):
        for i in range(8):
            index.insert(i, f"doc {i} river")
        for i in (1, 5, 2, 3):
            index.remove(i)
        generation = index.generation
        index.purge()
        assert live_ids(index) == [0, 4, 6, 7]
        assert len(index) == 4
        assert index.to_lines() == []  # no tombstone left
        assert index.generation == generation + 1
        hits = index.search("doc river", allow_all)
        assert sorted(h.node_id for h in hits) == [0, 4, 6, 7]


class TestSearch:
    def test_weight_fusion_arithmetic(self, index):
        # Construct sem=1/kw=0 vs sem=0/kw=1 by querying with matching text.
        index.insert(1, "alpha beta")
        index.insert(2, "gamma delta")
        query = "alpha beta"
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
        for hit in index.search("document about things", allow_all):
            assert abs(hit.combined - (0.7 * hit.sem_score + 0.3 * hit.kw_score)) < 1e-12

    def test_blocked_best_match_yields_second_best(self, index):
        for i in range(10):
            index.insert(i, f"note {i} filler text")
        index.insert(10, "exact query match wording")
        index.insert(11, "query match wording almost exact too")
        query = "exact query match wording"
        # Linear-scan oracle over every document.
        full = full_ranking(index, query)
        best, second = full[0].node_id, full[1].node_id
        index.settings = RetrievalSettings(top_k=1)
        hits = index.search(query, lambda i: i != best)
        assert [h.node_id for h in hits] == [second]

    def test_walk_stops_at_the_top_k_th_allowed_row(self, index):
        """``allowed`` sees the ranking in order, up to the ``top_k``-th row it accepts."""
        for i in range(40):
            index.insert(i, f"note {i} river" + " bank" * (i % 4))
        query = "river bank"
        full = full_ranking(index, query)
        ranking = [h.node_id for h in full]
        blocked, seen = set(ranking[:12]), []

        def allowed(node_id):
            seen.append(node_id)
            return node_id not in blocked

        assert index.search(query, allowed) == full[12:17]
        assert seen == ranking[:17]
        # Fewer hits than top_k only when fewer rows pass.
        assert index.search(query, lambda i: i in (ranking[3], ranking[30])) == [full[3], full[30]]

    def test_matches_brute_force_over_the_whole_ranking(self, index):
        rng = np.random.default_rng(5)
        words = ["ache", "burn", "chill", "daze", "numb", "rash", "sore", "throb"]
        for i in range(30):
            text = " ".join(rng.choice(words, size=4))
            index.insert(i, text)
        query = "ache chill sore"
        hits = index.search(query, allow_all)
        scored = sorted(
            full_ranking(index, query),
            key=lambda h: (-h.combined, h.node_id),
        )
        assert [h.node_id for h in hits] == [h.node_id for h in scored[:5]]

    def test_one_matmul_over_a_query_stack_matches_search(self):
        """Within the exactness bound, one matmul of each block against a stack of query
        counts gives every query the ``sem`` bits ``search`` gives it alone."""
        index = HybridIndex(HashingEmbedder(256), RetrievalSettings())
        rng = np.random.default_rng(3)
        words = ["fever", "cough", "alder", "remedy", "topic001", "bark", "tea", "rash"]
        for i in range(3 * BLOCK_ROWS + 5):
            tokens = [*rng.choice(words, size=rng.integers(1, 12)), f"note{i}"]
            index.insert(i, " ".join(tokens))
        queries = ["fever cough", "alder remedy tea", "topic001", "note7 bark rash fever",
                   "nothing in common", "cough " * 8]
        index.search(queries[0], allow_all)  # writes the rows a search reads
        counts = [index.embedder.embed(text) for text in queries]
        stack = np.stack(counts).astype(np.float32)
        norms = np.array([reference_norm(c.tolist()) for c in counts])
        sem = np.concatenate([np.matmul(block, stack.T) for block in index._blocks])
        sem = sem / (index._norms[:, None] * norms)
        for j, text in enumerate(queries):
            hits = full_ranking(index, text)
            assert len(hits) == len(index)
            assert [h.sem_score.hex() for h in hits] == [
                float(sem[index._row_of[h.node_id], j]).hex() for h in hits]

    def test_ties_broken_by_ascending_id(self, index):
        index.insert(4, "same words")
        index.insert(2, "same words")
        hits = index.search("same words", allow_all)
        assert [h.node_id for h in hits] == [2, 4]


class TestQueryValidation:
    @pytest.mark.parametrize("w_kw", [-0.3, 1.3, float("nan")])
    def test_keyword_weight_in_unit_interval(self, w_kw):
        with pytest.raises(ValueError, match="w_kw must lie in"):
            RetrievalSettings(w_kw=w_kw)

    def test_top_k_positive(self):
        with pytest.raises(ValueError):
            RetrievalSettings(top_k=0)


class TestRebuild:
    def _blocked(self, n):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block(range(n), log)
        return blocklist, log

    def test_at_threshold_no_rebuild(self, index):
        index.settings.tau = 100
        blocklist, log = self._blocked(100)
        result = index.maybe_rebuild(blocklist, log)
        assert not result.rebuilt
        assert index.generation == 0

    def test_above_threshold_rebuilds(self, index):
        index.settings.tau = 100
        for i in range(150):
            index.insert(i, f"doc {i}")
        blocklist, log = self._blocked(101)
        for i in range(101):  # a forget takes what it blocks out of the index
            index.remove(i)
        result = index.maybe_rebuild(blocklist, log)
        assert result.rebuilt
        assert index.generation == 1
        assert all(not blocklist.is_blocked(i) or i not in index for i in range(150))
        assert live_ids(index) == list(range(101, 150))
        assert len(blocklist) == 0 and blocklist.generation == 1

    def test_rebuild_purges_and_preserves_results(self, index):
        rng = np.random.default_rng(11)
        words = ["fog", "mist", "rain", "hail", "snow", "wind", "heat", "cold"]
        texts = {i: " ".join(rng.choice(words, size=3)) for i in range(1000)}
        for i, text in texts.items():
            index.insert(i, text)
        for i in range(101):
            index.remove(i)
        blocklist, log = self._blocked(101)

        queries = [" ".join(rng.choice(words, size=2)) for _ in range(50)]
        before = [
            [h.node_id for h in index.search(q, lambda i: not blocklist.is_blocked(i))]
            for q in queries
        ]
        result = index.maybe_rebuild(blocklist, log)
        assert result.rebuilt
        assert len(index) == 1000 - 101
        after = [
            [h.node_id for h in index.search(q, lambda i: not blocklist.is_blocked(i))]
            for q in queries
        ]
        assert before == after

    def test_rebuild_record_counts_tombstones_as_entries(self, index):
        for i in range(10):
            index.insert(i, f"doc {i}")
        # Tombstones of earlier deletions, the blocked targets 1, 2 and 8, and 9, outdated.
        for i in (0, 5, 7, 1, 2, 8, 9):
            index.remove(i)
        blocklist, log = self._blocked(3)
        blocklist.block([8], log)
        index.settings.tau = 3
        index.maybe_rebuild(blocklist, log)
        rebuild = AuditRecord.from_line(log.to_lines()[-2])
        # 10 entries: the 7 tombstones are purged and 3 stay live.
        expected = {"generation": 1, "purged": [0, 1, 2, 5, 7, 8, 9], "size": 3}
        assert rebuild.payload_digest == payload_digest(expected)
        assert live_ids(index) == [3, 4, 6]


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(st.text(alphabet="abcd ", min_size=1, max_size=12), min_size=1, max_size=15),
    blocked=st.sets(st.integers(min_value=0, max_value=14)),
    query=st.text(alphabet="abcd ", min_size=1, max_size=8),
)
def test_blocked_ids_never_returned(docs, blocked, query):
    index = HybridIndex(HashingEmbedder(32), RetrievalSettings(top_k=3))
    for i, doc in enumerate(docs):
        index.insert(i, doc)
    hits = index.search(query, lambda i: i not in blocked)
    assert not {h.node_id for h in hits} & blocked


def test_store_blocked_behind_its_back_still_returns_top_k():
    """Ids blocked without a forget stay live in the index; the boundary skips them
    and the search still returns ``top_k`` hits, the oracle's over the whole ranking."""
    store = MemoryStore()
    corpus.populate_store(store, corpus.generate_corpus(seed=0, n_topics=12))
    text = "what remedy eases a fever"
    ranking = full_ranking(store.index, text)
    blocked = [h.node_id for h in ranking[:12]]
    store.blocklist.block(blocked, store.audit)
    hits = store.search(text)
    docs = {i: store.content(i) for i in store.graph.active_view()}
    expected = oracle_search(docs, text, lambda i: i not in blocked, store.settings.embed_dim,
                             store.settings)
    assert len(hits) == store.settings.top_k == 5
    assert [(h.node_id, h.sem_score, h.kw_score, h.combined) for h in hits] == expected
    assert [h.node_id for h in hits] == [h.node_id for h in ranking[12:17]]


def reference_signs(token, dim):
    """A token's ±1 signs: the first ``dim`` bits of its ``shake_256`` digest, MSB first."""
    digest = hashlib.shake_256(token.encode("utf-8")).digest((dim + 7) // 8)
    return [1 if digest[i // 8] >> (7 - i % 8) & 1 else -1 for i in range(dim)]


def reference_embed(text, dim):
    """The embedding as Python ints: the tokens' signs summed, or the ``<degenerate>``
    token's signs if that sum is all zero."""
    counts = [0] * dim
    for token in tokenize(text) or ["<empty>"]:
        counts = [c + s for c, s in zip(counts, reference_signs(token, dim))]
    return counts if any(counts) else reference_signs("<degenerate>", dim)


def reference_norm(counts):
    return math.sqrt(sum(c * c for c in counts))


# A few recurring words plus random one-off tokens.
_words = st.sampled_from(["fever", "cough", "alder", "remedy", "topic001"]) | st.text(
    alphabet="abcdefghijklmnop0123456789", min_size=1, max_size=10)


class TestEmbedderState:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(texts=st.lists(st.lists(_words, max_size=8).map(" ".join), min_size=1, max_size=6),
           dim=st.sampled_from([29, 32]))
    def test_embeddings_exact_and_embedder_unchanged(self, texts, dim):
        embedder = HashingEmbedder(dim)
        state = dict(vars(embedder))
        for text in texts:
            assert embedder.embed(text).tolist() == reference_embed(text, dim)
        assert vars(embedder) == state

    def test_store_copy_shares_the_embedder(self):
        store = MemoryStore()
        store.write(Layer.EPISODIC, "fever and cough, fever again")
        clone = store.copy()
        assert clone.embedder is store.embedder
        assert clone.index.embedder is store.embedder
        assert clone.settings is store.settings
        assert clone.graph.audit is clone.audit and clone.audit is not store.audit


def _cancelling_pair(dim):
    """Two tokens whose signs cancel in every one of ``dim`` dimensions."""
    tokens = [f"w{k}" for k in range(4096)]
    signs = {tuple(reference_signs(t, dim)): t for t in tokens}
    for token in tokens:
        other = signs.get(tuple(-s for s in reference_signs(token, dim)))
        if other is not None:
            return f"{token} {other}"
    raise AssertionError(f"no cancelling pair at dim {dim}")


_CANCELLING = {dim: _cancelling_pair(dim) for dim in (1, 8)}
_text = st.one_of(
    st.lists(_words, max_size=8).map(" ".join),
    st.tuples(_words, st.integers(2, 5)).map(lambda p: " ".join([p[0]] * p[1])),
    st.just(""),
    st.just(_CANCELLING[1]),
    st.just(_CANCELLING[8]),
)


class TestEmbedMany:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(texts=st.lists(_text, max_size=2 * FLUSH_ROWS + 3), dim=st.sampled_from([1, 8, 29]))
    @example(texts=[_CANCELLING[1], "", "fever fever", _CANCELLING[1]], dim=1)
    @example(texts=[f"note{i} fever" for i in range(FLUSH_ROWS)] + [_CANCELLING[8]], dim=8)
    def test_rows_equal_embed_and_flushed_rows(self, texts, dim):
        """Row for row ``embed_many`` is ``embed``, and so is every row a flush writes,
        for any count of pending rows across the chunk boundaries."""
        embedder = HashingEmbedder(dim)
        many = embedder.embed_many([tokenize(text) for text in texts])
        assert many.dtype == np.int64 and many.shape == (len(texts), dim)
        for text, row in zip(texts, many):
            assert row.tolist() == embedder.embed(text).tolist() == reference_embed(text, dim)
        index = HybridIndex(embedder, RetrievalSettings())
        for i, text in enumerate(texts):
            index.insert(i, text)
        index.search("fever", allow_all)
        assert index._pending == {}
        for i, text in enumerate(texts):
            row = index._row_of[i]
            counts = index._blocks[row // BLOCK_ROWS][row % BLOCK_ROWS]
            assert counts.tolist() == reference_embed(text, dim)
            assert index._norms[row] == reference_norm(reference_embed(text, dim))


class TestDeferredEmbedding:
    def test_forgotten_before_any_search_is_never_embedded(self):
        embedder = CountingEmbedder(256)
        store = MemoryStore(embedder=embedder)
        kept = "kept note about alder bark tea"
        secret = "".join(["secret case ", "fever answer cedar"])  # one object, not a constant
        store.write(Layer.EPISODIC, kept)
        target = store.write(Layer.EPISODIC, secret)

        def index_holds(text):
            """Whether the index or a container it holds refers to ``text``. (A dict of
            ints and strings is not tracked by the collector, so ``gc.get_referrers``
            cannot see the pending map; ``gc.get_referents`` traverses it.)"""
            containers = [vars(store.index), *vars(store.index).values()]
            return any(ref is text for c in containers for ref in gc.get_referents(c))

        assert index_holds(secret)  # pending until a search
        store.forget(ForgetRequest.of("r1", [target]))
        assert not index_holds(secret)
        assert store.search("secret fever") and embedder.embedded == [kept, "secret fever"]
        posted = postings_of(store.index)
        assert sorted(posted) == sorted(set(tokenize(kept)))
        assert not posted.keys() & set(tokenize(secret))  # never posted

    def test_loaded_store_holds_no_index_memory_until_searched(self, fresh_agent, tmp_path):
        """Load and the ``unlearn`` path (block, prune, remove, rebuild, train) build no
        block and no postings; the first search builds them for the live entries alone."""
        agent, items, prov = fresh_agent
        agent.store.save(tmp_path)
        store = MemoryStore.load(tmp_path, settings=RetrievalSettings(tau=1))
        index = store.index
        assert index._blocks == [] and index._postings == {}
        assert len(index._pending) == len(index) == len(list(store.graph.active_view()))
        targets = sorted(prov.item_to_node[it.item_id] for it in split_items(items, "forget"))
        reloaded = AgentState(store=store, model=agent.model.copy(), feature_dim=agent.feature_dim)
        retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
        report = run_protocol(reloaded, ForgetRequest.of("r1", targets), retain,
                              UnlearnConfig(epochs=1))
        assert report.memory.rebuilt and store.index is index
        assert index._blocks == [] and index._postings == {}
        active = list(store.graph.active_view())
        assert sorted(index._pending.values()) == sorted(store.graph.node(i).content for i in active)
        store.search("what remedy suits topic001")
        assert index._pending == {} and len(index._blocks) * BLOCK_ROWS == len(index._live)
        rows = {index._row_of[i] for i in active}
        assert {row for posted in index._postings.values() for row in posted} == rows

    def test_failed_flush_leaves_unwritten_rows_pending(self):
        class FailsOnce(HashingEmbedder):
            calls = 0

            def embed_many(self, texts):
                FailsOnce.calls += 1
                if FailsOnce.calls == 2:
                    raise RuntimeError("embedding failed")
                return super().embed_many(texts)

        docs = {i: f"doc {i} river" + " bank" * (i % 3) for i in range(3 * FLUSH_ROWS + 5)}
        index = HybridIndex(FailsOnce(64), RetrievalSettings(top_k=8))
        for i, text in docs.items():
            index.insert(i, text)
        query = "doc 7 river bank"
        with pytest.raises(RuntimeError, match="embedding failed"):
            index.search(query, allow_all)
        assert len(index._pending) == len(docs) - FLUSH_ROWS
        fresh = HybridIndex(HashingEmbedder(64), index.settings)
        for i, text in docs.items():
            fresh.insert(i, text)
        hits, bits = index.search(query, allow_all), TestScalarOracle._bits
        assert bits(hits) == bits(fresh.search(query, allow_all))
        assert [(h.node_id, h.sem_score, h.kw_score, h.combined) for h in hits] == \
            oracle_search(docs, query, allow_all, 64, index.settings)

    def test_flush_heap_peak_stays_small(self):
        """Rows are embedded a chunk at a time, with no list of all pending rows."""
        store = MemoryStore()
        corpus.populate_store(store, corpus.generate_corpus(seed=0, n_topics=120))
        tracemalloc.start()
        try:
            store.search("what remedy suits topic001")
            kept, peak = tracemalloc.get_traced_memory()  # kept: the blocks and postings built
        finally:
            tracemalloc.stop()
        assert peak - kept <= 250_000


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
_search_op = st.tuples(st.just("search"), st.integers(0, len(_QUERIES) - 1))


class TestScalarOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(prefill=st.integers(0, 4 * BLOCK_ROWS), seed=st.integers(0, 2 ** 16),
           ops=st.lists(_op, max_size=30))
    def test_search_matches_scalar_oracle(self, prefill, seed, ops):
        self._check(prefill, seed, ops)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(prefill=st.integers(0, 4 * BLOCK_ROWS), seed=st.integers(0, 2 ** 16),
           ops=st.lists(_op | _search_op, max_size=30))
    def test_interleaved_searches_match_scalar_oracle(self, prefill, seed, ops):
        """A search between the other operations writes the rows pending at that point,
        so written and pending rows cross copies, purges and freed-row reuse."""
        self._check(prefill, seed, ops)

    def _check(self, prefill, seed, ops):
        dim = 32
        index = HybridIndex(HashingEmbedder(dim), RetrievalSettings())
        docs = {}
        choices = np.random.default_rng(seed).integers(len(_POOL), size=prefill).tolist()
        for node_id, choice in enumerate(choices):
            index.insert(node_id, _POOL[choice])
            docs[node_id] = _POOL[choice]
        left = []  # each side a copy left behind, with its results at that moment
        for op in ops:
            if op[0] == "insert":
                if op[1] not in docs:  # an index never re-inserts a live id
                    index.insert(op[1], _POOL[op[2]])
                    docs[op[1]] = _POOL[op[2]]
            elif op[0] == "remove":
                if op[1] in docs:
                    index.remove(op[1])
                    del docs[op[1]]
                else:
                    with pytest.raises(UnknownNodeError):
                        index.remove(op[1])
            elif op[0] == "purge":  # as a rebuild does after a forget removed its ids
                for node_id in sorted(op[1] & docs.keys()):
                    index.remove(node_id)
                    del docs[node_id]
                index.purge()
            elif op[0] == "search":
                query = _QUERIES[op[1]]
                hits = index.search(query, allow_all)
                assert [(h.node_id, h.sem_score, h.kw_score, h.combined) for h in hits] == \
                    oracle_search(docs, query, allow_all, dim)
            else:
                clone = copy.deepcopy(index)
                kept, index = (index, clone) if op[1] else (clone, index)
                kept.insert(1000 + len(left), _POOL[op[2]])  # a row the other side writes too
                left.append((kept, self._results(kept)))
                docs = dict(docs)
        assert live_ids(index) == sorted(docs)
        fresh = HybridIndex(HashingEmbedder(dim), RetrievalSettings())  # the survivors, rows in id order
        for node_id in sorted(docs):
            fresh.insert(node_id, docs[node_id])

        for text in _QUERIES:
            for allowed in (allow_all, lambda i: i % 3 != 0):
                hits = index.search(text, allowed)
                assert self._bits(hits) == self._bits(fresh.search(text, allowed))
                expected = oracle_search(docs, text, allowed, dim)
                assert [h.node_id for h in hits] == [e[0] for e in expected]
                for hit, (_, sem, kw, combined) in zip(hits, expected):
                    assert (hit.sem_score, hit.kw_score, hit.combined) == (sem, kw, combined)

            if docs:
                ranked = full_ranking(index, text)
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
    def _bits(hits):
        return [(h.node_id, h.sem_score.hex(), h.kw_score.hex(), h.combined.hex()) for h in hits]

    @staticmethod
    def _results(index):
        return [index.search(text, allow_all) for text in _QUERIES]
