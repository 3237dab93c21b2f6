import numpy as np
import pytest

from memscrub.corpus import populate_store, split_items, to_dataset
from memscrub.evaluation import (
    LoopScenario,
    accuracy,
    dangling_artifact_count,
    memory_accuracy,
    memory_baselines,
    mia,
    model_item_losses,
    pairwise_auc,
    run_agent_loop,
)
from memscrub.store import MemoryStore
from memscrub.training import UnlearnConfig, train_unlearn


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


class TestAgentLoop:
    def test_timeline_shape(self, corpus_items):
        store = MemoryStore()
        scenario = LoopScenario(
            forget_items=split_items(corpus_items, "forget"),
            retain_items=split_items(corpus_items, "retain"),
        )
        timeline = run_agent_loop(store, scenario)
        assert [s.stage for s in timeline.stages] == ["T1", "T2", "T3", "T4", "T5", "T6"]
        forget_rates = timeline.hit_rates("forget")
        retain_rates = timeline.hit_rates("retain")
        # Full recall before deletion, zero after, retain untouched throughout.
        assert forget_rates[0] == 1.0
        assert all(r == 0.0 for r in forget_rates[1:])
        assert all(r == 1.0 for r in retain_rates)
        assert 0.0 < timeline.cleanup_ratio <= 1.0

    def test_no_delete_control(self, corpus_items):
        store = MemoryStore()
        scenario = LoopScenario(
            forget_items=split_items(corpus_items, "forget"),
            retain_items=split_items(corpus_items, "retain"),
            delete=False,
        )
        timeline = run_agent_loop(store, scenario)
        assert all(r == 1.0 for r in timeline.hit_rates("forget"))
        assert timeline.cleanup_ratio == 0.0


@pytest.fixture(scope="module")
def reports(corpus_items, pretrained_model):
    store = MemoryStore()
    prov = populate_store(store, corpus_items)
    rows = memory_baselines(store, prov, corpus_items, pretrained_model.copy())
    return {r.method: r for r in rows}


class TestBaselines:
    def test_all_methods_present(self, reports):
        assert set(reports) == {"naive_deletion", "reindexing", "retraining_oracle", "ours"}

    def test_naive_leaves_dangling_artifacts(self, reports):
        assert reports["naive_deletion"].dangling_artifacts >= 1

    def test_ours_and_oracle_clean(self, reports):
        assert reports["ours"].dangling_artifacts == 0
        assert reports["retraining_oracle"].dangling_artifacts == 0

    def test_ours_forget_acc_not_above_reindexing(self, reports):
        assert reports["ours"].forget_acc <= reports["reindexing"].forget_acc

    def test_retain_acc_preserved_everywhere(self, reports):
        for r in reports.values():
            assert r.retain_acc == 1.0

    def test_input_store_is_left_as_it_was(self, corpus_items, pretrained_model):
        store = MemoryStore()
        prov = populate_store(store, corpus_items)
        questions = [it.question for split in ("forget", "retain")
                     for it in split_items(corpus_items, split)[:3]]

        def state():
            return (store.graph.node_lines(), store.graph.edge_lines(),
                    store.blocklist.to_lines(), store.audit.to_lines(),
                    store.index.to_lines(), store.index.live_ids(),
                    [store.search(q) for q in questions])

        before = state()
        memory_baselines(store, prov, corpus_items, pretrained_model.copy())
        assert state() == before

    def test_dangling_count_matches_manual_scan(self, corpus_items, pretrained_model):
        from memscrub.evaluation import _naive_delete
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
