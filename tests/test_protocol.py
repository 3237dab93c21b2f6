import dataclasses

import numpy as np
import pytest

from memscrub.audit import (AuditLog, AuditOp, AuditRecord, payload_digest, record_of,
                            verify_lines)
from memscrub.config import RunConfig, build_model
from memscrub.corpus import (CHOICES, choice_in, generate_corpus, populate_store, split_items,
                             to_dataset)
from memscrub.graph import ForgetRequest, GraphError, Layer, Status
from memscrub.protocol import AgentState, Channel, _exposing_hits, backflow_probe, run_protocol
from memscrub.retrieval import HybridIndex, tokenize
from memscrub.store import BlockedContentError, MemoryStore, RetrievalSettings
from memscrub.training import UnlearnConfig

from conftest import live_ids

FAST_CFG = UnlearnConfig(lambda_f=1.5, temperature=2.0, lr=0.5, epochs=30, seed=0)


def forget_targets(prov, items):
    return sorted(prov.item_to_node[it.item_id] for it in split_items(items, "forget"))


def strings_in(value) -> list:
    """Every string at any depth of ``value``: a dataclass is read through
    ``record_of``, a dict by its keys and values, a list or tuple by its items."""
    if dataclasses.is_dataclass(value):
        value = record_of(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, dict):
        return [s for pair in value.items() for part in pair for s in strings_in(part)]
    if isinstance(value, (list, tuple, set, frozenset)):
        return [s for part in value for s in strings_in(part)]
    return []


class TestAgentAnswers:
    def test_memory_grounded_answer(self, fresh_agent):
        agent, items, _ = fresh_agent
        item = split_items(items, "retain")[0]
        ans = agent.answer(item.question)
        assert ans.source == "memory"
        assert ans.answer_idx == item.answer_idx

    def test_parametric_fallback_when_memory_silent(self, fresh_agent):
        agent, items, prov = fresh_agent
        agent.store.forget(ForgetRequest.of("wipe", forget_targets(prov, items)))
        item = split_items(items, "forget")[0]
        ans = agent.answer(item.question)
        assert ans.source == "parametric"

    def test_punctuated_memory_is_read_with_the_index_tokenizer(self, pretrained_model):
        question = "what remedy suits topic001 presentation case1 case2 case3"
        store = MemoryStore()
        node = store.write(Layer.EPISODIC, f"{question}, answer: alder.")
        agent = AgentState(store=store, model=pretrained_model.copy(), feature_dim=256)
        assert _exposing_hits(agent, question, "alder") == {node}
        ans = agent.answer(question)
        assert (ans.source, ans.answer_idx) == ("memory", 0)


class TestMemoryPhase:
    def test_prune_counts(self, fresh_agent):
        agent, items, prov = fresh_agent
        report = agent.store.forget(
            ForgetRequest.of("req-1", forget_targets(prov, items)))
        # 3 forget topics x 6 episodes; summary+entity per topic unwind to zero
        # support; the per-topic reflection goes stale.
        assert report.prune.counts() == {
            "targets_deleted": 18, "reflections_outdated": 3,
            "shared_decremented": 0, "zero_ref_removed": 6,
        }
        assert report.closure_size == 9
        agent.store.graph.check_consistency()

    def test_non_episodic_target_rejected_before_its_block_record(self):
        store = MemoryStore(settings=RetrievalSettings(tau=0))
        first = store.write(Layer.EPISODIC, "alpha river stone")
        second = store.write(Layer.EPISODIC, "beta forest wind")
        summary = store.write(Layer.SEMANTIC, "summary of alpha and beta", [first, second])
        records = len(store.audit)
        with pytest.raises(GraphError, match=f"forget target {summary} is semantic, only episodic"):
            store.forget(ForgetRequest.of("bad", [summary]))
        assert len(store.audit) == records
        assert not store.blocklist.is_blocked(summary)
        assert store.forget(ForgetRequest.of("ok", [first])).rebuilt  # tau 0: every forget rebuilds
        hits = [h.node_id for h in store.search("summary of alpha and beta")]
        assert hits[0] == summary

    def test_idempotent(self, fresh_agent):
        agent, items, prov = fresh_agent
        request = ForgetRequest.of("req-1", forget_targets(prov, items))
        agent.store.forget(request)
        nodes = agent.store.graph.node_lines()
        index_lines = agent.store.index.to_lines()
        second = agent.store.forget(request)
        assert agent.store.graph.node_lines() == nodes
        assert agent.store.index.to_lines() == index_lines
        assert second.prune.counts()["targets_deleted"] == 0

    def test_forgotten_content_cleared_and_unretrievable(self, fresh_agent):
        agent, items, prov = fresh_agent
        targets = forget_targets(prov, items)
        agent.store.forget(ForgetRequest.of("req-1", targets))
        for t in targets:
            node = agent.store.graph.node(t)
            assert node.status is Status.DELETED
            assert node.content == ""
        for item in split_items(items, "forget"):
            for hit in agent.store.search(item.question):
                assert item.topic not in agent.store.content(hit.node_id)

    def test_retain_queries_unaffected(self, fresh_agent):
        agent, items, prov = fresh_agent
        retain = split_items(items, "retain")
        before = [[h.node_id for h in agent.store.search(it.question)] for it in retain]
        agent.store.forget(ForgetRequest.of("req-1", forget_targets(prov, items)))
        after = [[h.node_id for h in agent.store.search(it.question)] for it in retain]
        assert before == after

    def test_blocked_content_rewrite_rejected(self, fresh_agent):
        agent, items, prov = fresh_agent
        from memscrub.corpus import episodic_content
        from memscrub.graph import Layer

        item = split_items(items, "forget")[0]
        agent.store.forget(ForgetRequest.of("req-1", forget_targets(prov, items)))
        with pytest.raises(BlockedContentError):
            agent.store.write(Layer.EPISODIC, episodic_content(item))
        # A paraphrase carries a fresh digest and is accepted.
        agent.store.write(Layer.EPISODIC, episodic_content(item) + " paraphrased")

    def test_reload_indexes_exactly_the_active_nodes(self, fresh_agent, tmp_path):
        agent, items, prov = fresh_agent
        store = agent.store
        store.forget(ForgetRequest.of("req-6", forget_targets(prov, items)[:6]))
        assert store.index.to_lines()  # tombstones, not yet purged
        questions = [it.question for split in ("forget", "retain")
                     for it in split_items(items, split)[:3]]
        before = [store.search(q) for q in questions]
        store.save(tmp_path)
        reloaded = MemoryStore.load(tmp_path)
        assert live_ids(reloaded.index) == list(reloaded.graph.active_view())
        assert live_ids(reloaded.index) == live_ids(store.index)
        assert reloaded.index.to_lines() == store.index.to_lines()
        assert [reloaded.search(q) for q in questions] == before


class TestProtocolOrdering:
    def test_memory_records_precede_training_record(self, fresh_agent):
        agent, items, prov = fresh_agent
        retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
        run_protocol(agent, ForgetRequest.of("req-1", forget_targets(prov, items)),
                     retain, FAST_CFG)
        seqs = {}
        lines = agent.store.audit.to_lines()
        for seq, rec in enumerate(map(AuditRecord.from_line, lines)):
            seqs.setdefault(rec.op, []).append(seq)
        for op in (AuditOp.BLOCK, AuditOp.PRUNE, AuditOp.DELETE, AuditOp.ARCHIVE):
            assert op in seqs
            assert max(seqs[op]) < min(seqs[AuditOp.TRAIN])
        assert max(seqs[AuditOp.BLOCK]) < min(seqs[AuditOp.PRUNE])
        assert max(seqs[AuditOp.PRUNE]) < min(seqs[AuditOp.ARCHIVE])
        assert verify_lines(lines).ok

    def test_prune_and_delete_records_precede_their_mutations(self, fresh_agent, monkeypatch):
        agent, items, prov = fresh_agent
        store, targets = agent.store, forget_targets(prov, items)
        append, seen = AuditLog.append, []

        def spy(log, op, payload):
            if op is AuditOp.PRUNE:
                seen.append((op, {store.graph.node(t).status for t in targets}))
            elif op is AuditOp.DELETE:
                seen.append((op, {i in store.index for i in payload["ids"]}))
            return append(log, op, payload)

        monkeypatch.setattr(AuditLog, "append", spy)
        store.forget(ForgetRequest.of("req-1", targets))
        assert seen == [(AuditOp.PRUNE, {Status.ACTIVE}), (AuditOp.DELETE, {True})]

    def test_failed_index_removal_leaves_delete_as_last_record(self, monkeypatch):
        store = MemoryStore()
        m1 = store.write(Layer.EPISODIC, "alpha river stone")
        m2 = store.write(Layer.EPISODIC, "beta forest wind")
        s1 = store.write(Layer.SEMANTIC, "summary of alpha", [m1])
        r1 = store.write(Layer.REFLECTION, "thoughts on alpha and beta", [m1, m2])

        def boom(index, node_id):
            raise RuntimeError("storage failure")

        monkeypatch.setattr(HybridIndex, "remove", boom)
        with pytest.raises(RuntimeError):
            store.forget(ForgetRequest.of("req-f", [m1]))
        last = AuditRecord.from_line(store.audit.to_lines()[-1])
        assert last.op is AuditOp.DELETE
        assert last.payload_digest == payload_digest({"request_id": "req-f", "ids": [m1, s1, r1]})

    @pytest.mark.parametrize("phase", ["forget", "run_protocol"])
    def test_report_holds_no_forgotten_text(self, fresh_agent, phase):
        agent, items, prov = fresh_agent
        forget = split_items(items, "forget")
        topic = [it for it in forget if it.topic == forget[0].topic]
        request = ForgetRequest.of("req-1", [prov.item_to_node[it.item_id] for it in topic])
        if phase == "forget":
            report = agent.store.forget(request)
            prune = report.prune
        else:
            retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
            report = run_protocol(agent, request, retain, FAST_CFG)
            prune = report.memory.prune
        assert prune.targets_deleted == len(topic) == 6
        strings = strings_in(report) + [repr(prune)]
        for item in topic:
            assert not [s for s in strings if item.question in s]

    def test_no_plaintext_in_audit(self, fresh_agent):
        agent, items, prov = fresh_agent
        retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
        run_protocol(agent, ForgetRequest.of("req-1", forget_targets(prov, items)),
                     retain, FAST_CFG)
        blob = "\n".join(agent.store.audit.to_lines())
        for item in split_items(items, "forget"):
            assert item.question not in blob

    def test_training_reduces_forget_confidence(self, fresh_agent):
        agent, items, prov = fresh_agent
        retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
        item = split_items(items, "forget")[0]
        before = float(np.max(agent.parametric_distribution(item.question)))
        run_protocol(agent, ForgetRequest.of("req-1", forget_targets(prov, items)),
                     retain, FAST_CFG)
        after = float(np.max(agent.parametric_distribution(item.question)))
        assert after < before


class TestBackflowProbe:
    def test_memory_channel_before_any_deletion(self, fresh_agent):
        agent, items, _ = fresh_agent
        item = split_items(items, "forget")[0]
        result = backflow_probe(agent, item.question, item.answer_text)
        assert result.reexposed
        assert result.channel is Channel.MEMORY

    def test_memory_only_ablation_reexposes_via_parameter_channel(self, fresh_agent):
        # Memory wiped but the model untouched: the confident regeneration is
        # written back and resurfaces through retrieval.
        agent, items, prov = fresh_agent
        agent.store.forget(ForgetRequest.of("req-1", forget_targets(prov, items)))
        item = split_items(items, "forget")[0]
        result = backflow_probe(agent, item.question, item.answer_text)
        assert result.regenerated
        assert result.reexposed
        assert result.channel is Channel.PARAMETER
        assert result.written_node is not None

    @pytest.mark.parametrize("threshold, searches", [(1.0, 1), (0.0, 2)])
    def test_store_is_searched_again_only_after_a_write(self, fresh_agent, monkeypatch,
                                                        threshold, searches):
        """A model that is not confident writes nothing, so the store is searched once."""
        agent, items, prov = fresh_agent
        agent.store.forget(ForgetRequest.of("req-1", forget_targets(prov, items)))
        agent.confidence_threshold = threshold
        calls = []
        search = MemoryStore.search
        monkeypatch.setattr(MemoryStore, "search",
                            lambda store, text: calls.append(text) or search(store, text))
        item = split_items(items, "forget")[0]
        result = backflow_probe(agent, item.question, item.answer_text)
        assert calls == [item.question] * searches
        assert result.regenerated is (searches == 2)
        assert result.reexposed is (searches == 2)

    def test_full_protocol_blocks_backflow(self, fresh_agent):
        agent, items, prov = fresh_agent
        retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
        run_protocol(agent, ForgetRequest.of("req-1", forget_targets(prov, items)),
                     retain, FAST_CFG)
        for item in split_items(items, "forget")[:3]:
            result = backflow_probe(agent, item.question, item.answer_text)
            assert not result.reexposed
            assert result.channel is Channel.NONE

    def test_retain_facts_still_exposed_after_protocol(self, fresh_agent):
        agent, items, prov = fresh_agent
        retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
        run_protocol(agent, ForgetRequest.of("req-1", forget_targets(prov, items)),
                     retain, FAST_CFG)
        item = split_items(items, "retain")[0]
        ans = agent.answer(item.question)
        assert ans.source == "memory"
        assert ans.answer_idx == item.answer_idx


@pytest.mark.parametrize("seed, n_topics", [(0, 12), (1, 48)])
def test_every_written_record_names_at_most_one_choice(seed, n_topics):
    """Every record ``populate_store`` writes and every probe write-back holds at most
    one choice token, which ``choice_in`` reads, so reading a record's answer with
    ``choice_in`` or by looking for the true answer's token agree; and each episodic
    record carries its item's answer."""
    cfg = RunConfig(seed=seed, n_topics=n_topics)
    items = generate_corpus(seed=seed, n_topics=n_topics)
    store = MemoryStore(settings=cfg)
    prov = populate_store(store, items)

    def check(node_ids) -> None:
        for node_id in node_ids:
            content = store.content(node_id)
            named = [token for token in tokenize(content) if token in CHOICES]
            assert len(named) <= 1
            assert choice_in(content) == (CHOICES.index(named[0]) if named else None)

    check(store.graph.nodes)
    forget = split_items(items, "forget")
    stored = forget + split_items(items, "retain")
    for item in stored:
        assert choice_in(store.content(prov.item_to_node[item.item_id])) == item.answer_idx

    # Memory forgets, the model keeps its answers: the probes write back.
    agent = AgentState(store=store, model=build_model(cfg, to_dataset(stored, cfg.feature_dim)),
                       feature_dim=cfg.feature_dim, confidence_threshold=cfg.confidence_threshold)
    store.forget(ForgetRequest.of("forget", [prov.item_to_node[it.item_id] for it in forget]))
    written = [backflow_probe(agent, it.question, it.answer_text).written_node
               for _ in range(2) for it in forget]
    written = [node_id for node_id in written if node_id is not None]
    assert written
    check(written)


@pytest.mark.parametrize("seed, n_topics", [(0, 12), (1, 48)])
def test_a_probe_write_back_is_the_only_hit_that_can_expose(seed, n_topics):
    """In the memory-only arm of ``test_backflow.py``, a probe writes back only when
    no hit exposes the fact. The write changes no other entry's score or verdict, so
    the hits after it are the hits before it with the write-back ranked in, and only
    the write-back can expose the fact: the probe's parameter channel."""
    cfg = RunConfig(seed=seed, n_topics=n_topics)
    items = generate_corpus(seed=seed, n_topics=n_topics)
    store = MemoryStore(settings=cfg)
    prov = populate_store(store, items)
    forget = split_items(items, "forget")
    trained = to_dataset(forget + split_items(items, "retain"), cfg.feature_dim)
    agent = AgentState(store=store, model=build_model(cfg, trained), feature_dim=cfg.feature_dim,
                       confidence_threshold=cfg.confidence_threshold)
    store.forget(ForgetRequest.of("backflow", [prov.item_to_node[it.item_id] for it in forget]))

    exposed = 0
    for _ in range(2):
        for item in forget:
            before = [h.node_id for h in store.search(item.question)]
            written = backflow_probe(agent, item.question, item.answer_text).written_node
            if written is None:
                continue
            after = [h.node_id for h in store.search(item.question)]
            assert [i for i in after if i != written] == before[:len(after) - (written in after)]
            exposing = _exposing_hits(agent, item.question, item.answer_text)
            assert exposing <= {written}
            exposed += bool(exposing)
    assert exposed
