import numpy as np
import pytest

from memscrub.audit import AuditOp
from memscrub.corpus import split_items, to_dataset
from memscrub.graph import ForgetRequest, Status
from memscrub.protocol import Channel, backflow_probe, run_protocol
from memscrub.store import BlockedContentError, MemoryStore
from memscrub.training import UnlearnConfig

FAST_CFG = UnlearnConfig(lambda_f=1.5, temperature=2.0, lr=0.5, epochs=30, seed=0)


def forget_targets(prov, items):
    return sorted(prov.item_to_node[it.item_id] for it in split_items(items, "forget"))


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
        assert store.index.to_lines()[1:]  # tombstones, not yet purged
        questions = [it.question for split in ("forget", "retain")
                     for it in split_items(items, split)[:3]]
        before = [store.search(q) for q in questions]
        store.save(tmp_path)
        reloaded = MemoryStore.load(tmp_path)
        assert reloaded.index.live_ids() == list(reloaded.graph.active_view())
        assert reloaded.index.live_ids() == store.index.live_ids()
        assert reloaded.index.to_lines() == store.index.to_lines()
        assert [reloaded.search(q) for q in questions] == before


class TestProtocolOrdering:
    def test_memory_records_precede_training_record(self, fresh_agent):
        agent, items, prov = fresh_agent
        retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
        run_protocol(agent, ForgetRequest.of("req-1", forget_targets(prov, items)),
                     retain, FAST_CFG)
        seqs = {}
        for rec in agent.store.audit.records:
            seqs.setdefault(rec.op, []).append(rec.seq)
        for op in (AuditOp.BLOCK, AuditOp.PRUNE, AuditOp.DELETE, AuditOp.ARCHIVE):
            assert op in seqs
            assert max(seqs[op]) < min(seqs[AuditOp.TRAIN])
        assert max(seqs[AuditOp.BLOCK]) < min(seqs[AuditOp.PRUNE])
        assert max(seqs[AuditOp.PRUNE]) < min(seqs[AuditOp.ARCHIVE])
        assert agent.store.audit.verify().ok

    def test_ephemeral_buffer_wiped(self, fresh_agent):
        agent, items, prov = fresh_agent
        retain = to_dataset(split_items(items, "retain"), agent.feature_dim)
        report = run_protocol(agent, ForgetRequest.of("req-1", forget_targets(prov, items)),
                              retain, FAST_CFG)
        assert report.memory.captured == []

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
