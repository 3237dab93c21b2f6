import json

import numpy as np
import pytest

from memscrub.corpus import (
    CHOICES,
    SPLITS,
    Provenance,
    QAItem,
    choice_in,
    corpus_from_lines,
    corpus_lines,
    episodic_content,
    featurize,
    generate_corpus,
    populate_store,
    question_of,
    split_items,
    to_dataset,
)
from memscrub.graph import Layer
from memscrub.store import MemoryStore


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        assert generate_corpus(seed=3) == generate_corpus(seed=3)

    def test_different_seed_differs(self):
        assert generate_corpus(seed=1) != generate_corpus(seed=2)

    def test_split_sizes(self, corpus_items):
        # 12 topics, 3 forgettable; 6 trained + 4 held-out items each.
        sizes = {s: len(split_items(corpus_items, s)) for s in SPLITS}
        assert sizes == {"forget": 18, "forget_holdout": 12, "retain": 54, "test": 36}

    def test_splits_partition_items(self, corpus_items):
        assert sum(len(split_items(corpus_items, s)) for s in SPLITS) == len(corpus_items)
        assert len({it.item_id for it in corpus_items}) == len(corpus_items)

    def test_holdout_topics_match_forget_topics(self, corpus_items):
        forget_topics = {it.topic for it in split_items(corpus_items, "forget")}
        holdout_topics = {it.topic for it in split_items(corpus_items, "forget_holdout")}
        assert holdout_topics == forget_topics
        test_topics = {it.topic for it in split_items(corpus_items, "test")}
        assert not test_topics & forget_topics

    def test_answer_consistent_within_topic(self, corpus_items):
        by_topic = {}
        for it in corpus_items:
            by_topic.setdefault(it.topic, set()).add(it.answer_idx)
        assert all(len(v) == 1 for v in by_topic.values())

    def test_round_trip(self, corpus_items):
        assert corpus_from_lines(corpus_lines(corpus_items)) == corpus_items

    def test_item_id_listed_twice_rejected(self, corpus_items):
        lines = corpus_lines(corpus_items)
        twin = json.dumps({**json.loads(lines[1]), "item_id": corpus_items[0].item_id})
        with pytest.raises(ValueError, match="item_id 'topic000-i00' is listed twice"):
            corpus_from_lines(lines[:1] + [twin] + lines[2:])

    @pytest.mark.parametrize("seed, n_topics, items_per_topic, holdout_per_topic", [
        (0, 12, 6, 4), (1, 48, 6, 4), (3, 120, 6, 4), (4242, 48, 6, 4),
        (0, 12, 1, 0), (7, 48, 1, 0), (0, 12, 9, 7), (3, 120, 9, 7),
    ])
    def test_matches_one_draw_per_phrase_token(self, seed, n_topics, items_per_topic,
                                               holdout_per_topic):
        expected = reference_corpus(seed, n_topics, items_per_topic, holdout_per_topic)
        assert generate_corpus(seed=seed, n_topics=n_topics, items_per_topic=items_per_topic,
                               holdout_per_topic=holdout_per_topic) == expected


def reference_corpus(seed, n_topics, items_per_topic, holdout_per_topic, forget_fraction=0.25):
    """The corpus drawn one ``rng.integers`` call per phrase token, in item order."""
    rng = np.random.default_rng(seed)
    n_forget_topics = max(1, int(round(n_topics * forget_fraction)))
    items = []
    for t in range(n_topics):
        topic = f"topic{t:03d}"
        answer_idx = int(rng.integers(0, len(CHOICES)))
        forget_topic = t < n_forget_topics
        for letter, count, split in (
            ("i", items_per_topic, "forget" if forget_topic else "retain"),
            ("h", holdout_per_topic, "forget_holdout" if forget_topic else "test"),
        ):
            for i in range(count):
                phrases = " ".join(f"case{rng.integers(0, 10 ** 6):06d}" for _ in range(3))
                items.append(QAItem(item_id=f"{topic}-{letter}{i:02d}", split=split, topic=topic,
                                    question=f"what remedy suits {topic} presentation {phrases}",
                                    answer_idx=answer_idx))
    return items


class TestFeaturize:
    def test_unit_norm(self):
        v = featurize("some question text", 64)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_deterministic(self):
        assert np.array_equal(featurize("abc def", 128), featurize("abc def", 128))

    def test_empty_text_is_zero(self):
        assert not featurize("", 32).any()

    def test_dataset_shapes(self, corpus_items):
        ds = to_dataset(split_items(corpus_items, "forget"), 256)
        assert ds.x.shape == (18, 256)
        assert ds.y.shape == (18,)
        assert set(ds.y) <= set(range(len(CHOICES)))


class TestContentCodec:
    def test_question_round_trip(self, corpus_items):
        item = corpus_items[0]
        content = episodic_content(item)
        assert question_of(content) == item.question
        assert choice_in(content) == item.answer_idx

    def test_answer_idx_absent(self):
        assert choice_in("no marker here") is None


class TestPopulateStore:
    def test_node_counts(self, corpus_items):
        store = MemoryStore()
        prov = populate_store(store, corpus_items)
        stored = split_items(corpus_items, "forget") + split_items(corpus_items, "retain")
        # One episodic per stored item; summary + entity + reflection per topic.
        topics = {it.topic for it in stored}
        assert len(prov.item_to_node) == len(stored)
        assert len(store.graph.nodes) == len(stored) + 3 * len(topics)

    def test_holdout_items_never_stored(self, corpus_items):
        store = MemoryStore()
        prov = populate_store(store, corpus_items)
        excluded = {it.item_id for it in corpus_items
                    if it.split in ("forget_holdout", "test")}
        assert not excluded & set(prov.item_to_node)

    def test_summary_supported_by_all_topic_episodes(self, corpus_items):
        store = MemoryStore()
        populate_store(store, corpus_items)
        for node_id in store.graph.active_view():
            node = store.graph.nodes[node_id]
            if node.layer is Layer.SEMANTIC:
                assert store.graph.ref_count(node_id) == 6  # items_per_topic

    def test_provenance_round_trip(self, corpus_items):
        store = MemoryStore()
        prov = populate_store(store, corpus_items)
        reloaded = Provenance.from_lines(prov.to_lines())
        assert reloaded.item_to_node == prov.item_to_node
        assert reloaded.node_to_item == prov.node_to_item
        assert reloaded.checked(store.graph, corpus_items) is reloaded

    @pytest.mark.parametrize("twin, reason", [
        ('{"item_id":"topic000-i01","node_id":9999}', "item_id 'topic000-i01' is listed twice"),
        ('{"item_id":"topic000-h00","node_id":1}', "node_id 1 is listed twice"),
    ])
    def test_provenance_id_listed_twice_rejected(self, corpus_items, twin, reason):
        lines = populate_store(MemoryStore(), corpus_items).to_lines()
        assert json.loads(lines[1]) == {"item_id": "topic000-i01", "node_id": 1}
        with pytest.raises(ValueError, match=reason):
            Provenance.from_lines(lines + [twin])

    @pytest.mark.parametrize("damage, reason", [
        (lambda lines: lines[1:], "item_id 'topic000-i00' has no record"),
        (lambda lines: lines[:-1] + [with_node(lines[-1], 9999)], "node_id 9999 names no episodic node"),
        (lambda lines: lines[:-1] + [with_node(lines[-1], 6)], "node_id 6 names no episodic node"),
        (lambda lines: lines + ['{"item_id":"topic000-h00","node_id":9999}'],
         "node_id 9999 names no episodic node"),
    ])
    def test_provenance_checked_against_graph_and_corpus(self, corpus_items, damage, reason):
        store = MemoryStore()
        lines = populate_store(store, corpus_items).to_lines()
        assert store.graph.nodes[6].layer is Layer.SEMANTIC  # topic000's summary
        prov = Provenance.from_lines(damage(lines))
        with pytest.raises(ValueError, match=reason):
            prov.checked(store.graph, corpus_items)

    def test_provenance_of_an_unstored_item_rejected(self, corpus_items):
        store = MemoryStore()
        prov = populate_store(store, corpus_items)
        node_id = prov.item_to_node.pop("topic000-i00")
        prov.record("topic000-h00", node_id)  # a holdout item, never stored
        with pytest.raises(ValueError, match="item_id 'topic000-h00' names no stored corpus item"):
            prov.checked(store.graph, corpus_items)


def with_node(line, node_id):
    return json.dumps({**json.loads(line), "node_id": node_id})
