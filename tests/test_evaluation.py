from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memscrub.corpus import (CHOICES, QAItem, episodic_content, populate_store, split_items,
                             to_dataset)
from memscrub.evaluation import (
    MethodReport,
    _naive_delete,
    accuracy,
    dangling_artifact_count,
    memory_accuracy,
    memory_baselines,
    memory_item_losses,
    mia,
    model_item_losses,
    pairwise_auc,
    run_agent_loop,
)
from memscrub.graph import ForgetRequest, Layer
from memscrub.protocol import AgentState
from memscrub.store import MemoryStore
from memscrub.training import UnlearnConfig, train_unlearn

from conftest import live_ids


def rankdata_average(values):
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def auc_by_ranks(members, nonmembers):
    """Mann-Whitney AUC from average ranks (lower member loss is positive)."""
    members = np.asarray(members, dtype=float)
    nonmembers = np.asarray(nonmembers, dtype=float)
    pooled = np.concatenate([members, nonmembers])
    ranks = rankdata_average(-pooled)  # negate: lower loss should rank higher
    r_members = ranks[: len(members)].sum()
    u = r_members - len(members) * (len(members) + 1) / 2.0
    return u / (len(members) * len(nonmembers))


# Finite losses drawn from a few values, so ties are common; -0.0 and 0.0 tie.
_loss = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.5]) | st.floats(allow_nan=False, allow_infinity=False)


class TestPairwiseAUC:
    def test_hand_example(self):
        # members {1,3} vs nonmembers {2,4}: wins are (1,2),(1,4),(3,4) of 4.
        assert pairwise_auc([1, 3], [2, 4]) == pytest.approx(0.75)
        assert mia([1, 3], [2, 4]).score == pytest.approx(0.5)

    def test_identical_distributions_auc_half(self):
        assert pairwise_auc([1.0, 2.0], [1.0, 2.0]) == pytest.approx(0.5)
        assert mia([1.0, 2.0], [1.0, 2.0]).score == pytest.approx(1.0)

    def test_fully_separated(self):
        assert pairwise_auc([0.1, 0.2], [0.8, 0.9]) == pytest.approx(1.0)
        assert pairwise_auc([0.8, 0.9], [0.1, 0.2]) == pytest.approx(0.0)
        assert mia([0.1, 0.2], [0.8, 0.9]).score == pytest.approx(0.0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=20), rng.normal(size=30)
        assert pairwise_auc(a, b) == pytest.approx(1.0 - pairwise_auc(b, a))

    def test_matches_rank_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.normal(size=rng.integers(2, 40))
            n = rng.normal(size=rng.integers(2, 40))
            if rng.integers(0, 2):
                m = np.round(m, 1)  # force ties
                n = np.round(n, 1)
            assert pairwise_auc(m, n) == pytest.approx(auc_by_ranks(m, n), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pairwise_auc([], [1.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(members=st.lists(_loss, min_size=1, max_size=30),
           nonmembers=st.lists(_loss, min_size=1, max_size=30))
    def test_equals_the_quadratic_formula(self, members, nonmembers):
        """The same float as counting over the full member x non-member matrix."""
        diff = np.asarray(members, dtype=float)[:, None] - np.asarray(nonmembers, dtype=float)
        wins = np.sum(diff < 0) + 0.5 * np.sum(diff == 0)
        assert pairwise_auc(members, nonmembers) == float(wins / diff.size)


class TestModelMIA:
    def test_memorizing_model_is_detectable(self, pretrained_model, corpus_items):
        forget = to_dataset(split_items(corpus_items, "forget"), 256)
        holdout = to_dataset(split_items(corpus_items, "forget_holdout"), 256)
        result = mia(model_item_losses(pretrained_model, forget),
                     model_item_losses(pretrained_model, holdout))
        assert result.auc > 0.5

    def test_unlearning_improves_mia_score(self, pretrained_model, corpus_items):
        retain = to_dataset(split_items(corpus_items, "retain"), 256)
        forget = to_dataset(split_items(corpus_items, "forget"), 256)
        holdout = to_dataset(split_items(corpus_items, "forget_holdout"), 256)

        def score(model):
            return mia(model_item_losses(model, forget),
                       model_item_losses(model, holdout)).score

        control = pretrained_model.copy()
        train_unlearn(retain, forget, control,
                      UnlearnConfig(lambda_f=0.0, temperature=2.0, lr=0.5, epochs=40, seed=0))
        unlearned = pretrained_model.copy()
        train_unlearn(retain, forget, unlearned,
                      UnlearnConfig(lambda_f=1.5, temperature=2.0, lr=0.5, epochs=40, seed=0))
        assert score(unlearned) > score(control)


class TestAccuracy:
    def test_perfect_predictor(self, corpus_items):
        items = split_items(corpus_items, "retain")
        assert accuracy(lambda it: it.answer_idx, items) == 1.0

    def test_constant_predictor(self, corpus_items):
        items = split_items(corpus_items, "retain")
        expected = sum(1 for it in items if it.answer_idx == 0) / len(items)
        assert accuracy(lambda it: 0, items) == pytest.approx(expected)


class TestMemoryAccuracy:
    def test_populated_store_answers_from_memory(self, fresh_agent):
        agent, items, _ = fresh_agent
        accs = memory_accuracy(agent, split_items(items, "forget"),
                               split_items(items, "retain"))
        assert accs["forget_acc"] == 1.0
        assert accs["retain_acc"] == 1.0


def test_item_loss_matches_the_topic_as_a_token():
    store = MemoryStore()
    store.write(Layer.EPISODIC, "what remedy suits topic1000 presentation answer alder")
    item = QAItem("topic100-i00", "forget", "topic100", "what remedy suits topic100 presentation", 0)
    assert memory_item_losses(store, [item]).tolist() == [1.0]


def test_item_loss_reads_the_best_hit_carrying_its_topic_and_answer(corpus_items):
    """A forget-holdout item scores ``1 - combined`` of its best hit among its topic's
    answer-bearing records (episodic records, summary, KG entity; not the reflection),
    and 1.0 once that topic's episodic records are forgotten."""
    store = MemoryStore()
    prov = populate_store(store, corpus_items)
    topic = split_items(corpus_items, "forget")[0].topic
    episodic = {prov.item_to_node[it.item_id] for it in split_items(corpus_items, "forget")
                if it.topic == topic}
    bearing = episodic | {i for i in store.graph.active_view()
                          if store.graph.nodes[i].layer in (Layer.SEMANTIC, Layer.KG_ENTITY)
                          and store.graph.episodic_ancestors(i) == episodic}
    assert len(bearing) == len(episodic) + 2
    holdout = [it for it in split_items(corpus_items, "forget_holdout") if it.topic == topic]
    for item in holdout:
        best = min(1.0 - h.combined for h in store.search(item.question) if h.node_id in bearing)
        assert best < 1.0
        assert memory_item_losses(store, [item]).tolist() == [best]
    store.forget(ForgetRequest.of("forget-topic", sorted(episodic)))
    assert memory_item_losses(store, holdout).tolist() == [1.0] * len(holdout)
    # A record of the question with another answer exposes nothing; with its own, it does.
    item = holdout[0]
    store.write(Layer.EPISODIC, episodic_content(
        replace(item, answer_idx=(item.answer_idx + 1) % len(CHOICES))))
    assert memory_item_losses(store, [item]).tolist() == [1.0]
    store.write(Layer.EPISODIC, episodic_content(item))
    assert memory_item_losses(store, [item]).tolist()[0] < 1.0


class TestAgentLoop:
    def test_timeline_shape(self, corpus_items):
        timeline = run_agent_loop(MemoryStore(), corpus_items)
        assert [s.stage for s in timeline.stages] == ["T1", "T2", "T3", "T4", "T5", "T6"]
        forget_rates = [s.forget_hit_rate for s in timeline.stages]
        retain_rates = [s.retain_hit_rate for s in timeline.stages]
        # Storing measures nothing; full recall before deletion, zero after, retain
        # untouched throughout.
        assert forget_rates == [None, None, 1.0, 0.0, 0.0, 0.0]
        assert retain_rates == [None, None, 1.0, 1.0, 1.0, 1.0]
        assert 0.0 < timeline.cleanup_ratio <= 1.0


@pytest.fixture(scope="module")
def reports(corpus_items, pretrained_model):
    store = MemoryStore()
    populate_store(store, corpus_items)
    agent = AgentState(store=store, model=pretrained_model.copy(), feature_dim=256)
    rows = memory_baselines(agent, corpus_items)
    return {r.method: r for r in rows}


class TestBaselines:
    def test_all_methods_present(self, reports):
        assert set(reports) == {"naive_deletion", "retraining_oracle", "ours"}

    def test_naive_leaves_dangling_artifacts(self, reports):
        assert reports["naive_deletion"].dangling_artifacts >= 1

    def test_ours_and_oracle_clean(self, reports):
        assert reports["ours"].dangling_artifacts == 0
        assert reports["retraining_oracle"].dangling_artifacts == 0

    def test_ours_forget_acc_not_above_naive_deletion(self, reports):
        assert reports["ours"].forget_acc <= reports["naive_deletion"].forget_acc

    def test_retain_acc_preserved_everywhere(self, reports):
        for r in reports.values():
            assert r.retain_acc == 1.0

    def test_input_store_is_left_as_it_was(self, corpus_items, pretrained_model):
        store = MemoryStore()
        populate_store(store, corpus_items)
        questions = [it.question for split in ("forget", "retain")
                     for it in split_items(corpus_items, split)[:3]]

        def state():
            return (store.graph.node_lines(), store.graph.edge_lines(),
                    store.blocklist.to_lines(), store.audit.to_lines(),
                    store.index.to_lines(), live_ids(store.index),
                    [store.search(q) for q in questions])

        before = state()
        agent = AgentState(store=store, model=pretrained_model.copy(), feature_dim=256)
        memory_baselines(agent, corpus_items)
        assert state() == before

    def test_dangling_count_matches_manual_scan(self, corpus_items, pretrained_model):
        from memscrub.graph import Status

        store = MemoryStore()
        prov = populate_store(store, corpus_items)
        targets = {prov.item_to_node[it.item_id]
                   for it in split_items(corpus_items, "forget")}
        _naive_delete(store, sorted(targets))
        expected = 0
        for node_id, node in store.graph.nodes.items():
            if node.status is not Status.ACTIVE or node.layer.value == "episodic":
                continue
            anc = store.graph.episodic_ancestors(node_id)
            if anc and anc <= targets:
                expected += 1
        assert expected >= 1
        assert dangling_artifact_count(store, targets) == expected


def reference_baselines(agent, items) -> list:
    """The three baselines computed the direct way, each on a store populated from ``items``:
    ``memory_accuracy`` and ``memory_item_losses`` each search every forget question on it."""
    forget, holdout, retain = (split_items(items, s) for s in ("forget", "forget_holdout", "retain"))

    def populated(stored):
        variant = MemoryStore(settings=agent.store.settings, embedder=agent.store.embedder)
        return variant, populate_store(variant, stored)

    naive, prov = populated(items)
    targets = sorted(prov.item_to_node[it.item_id] for it in forget)
    _naive_delete(naive, targets)
    oracle, _ = populated(retain)
    ours, _ = populated(items)
    ours.forget(ForgetRequest.of("baseline-ours", targets))
    reports = []
    for method, variant, dangling_targets in (("naive_deletion", naive, set(targets)),
                                              ("retraining_oracle", oracle, set()),
                                              ("ours", ours, set(targets))):
        accs = memory_accuracy(replace(agent, store=variant), forget, retain)
        result = mia(memory_item_losses(variant, forget), memory_item_losses(variant, holdout))
        reports.append(MethodReport(method, accs["forget_acc"], accs["retain_acc"], result.auc,
                                    result.score, dangling_artifact_count(variant, dangling_targets)))
    return reports


@pytest.mark.parametrize("forgotten", [0, 3], ids=["fresh", "three-forgotten"])
def test_baselines_equal_the_reference_with_one_search_per_question(
        corpus_items, pretrained_model, monkeypatch, forgotten):
    """Each arm searches each forget, holdout and retain question once, and the rows
    equal the reference's, which searches every forget question twice. The arms are
    built from the corpus, so after an earlier forget on the agent's store the rows
    equal those of the fresh store."""
    store = MemoryStore()
    prov = populate_store(store, corpus_items)
    agent = AgentState(store=store, model=pretrained_model.copy(), feature_dim=256)
    expected = reference_baselines(agent, corpus_items)  # on the fresh store
    forget = split_items(corpus_items, "forget")
    if forgotten:
        store.forget(ForgetRequest.of("earlier", [prov.item_to_node[it.item_id]
                                                  for it in forget[:forgotten]]))

    searched = []  # each store searched, once per search; held, so no id is reused
    search = MemoryStore.search

    def counting_search(self, text):
        searched.append(self)
        return search(self, text)

    monkeypatch.setattr(MemoryStore, "search", counting_search)
    assert memory_baselines(agent, corpus_items) == expected
    per_variant = len(forget) + sum(len(split_items(corpus_items, s))
                                    for s in ("forget_holdout", "retain"))
    variants = list(dict.fromkeys(map(id, searched)))
    assert len(variants) == 3 and id(store) not in variants
    assert [sum(id(v) == i for v in searched) for i in variants] == [per_variant] * 3
