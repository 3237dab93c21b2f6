"""Synthetic desk-scale QA corpus with disjoint forget/retain/test splits.

Each topic has a fixed correct choice out of a small answer vocabulary.
Items within a topic share the topic term but carry item-specific phrase
tokens, so a classifier can both generalize by topic and memorize
individual items (the memorization gap is what the membership-inference
checks measure). Splits are disjoint by construction:

  forget          trained items whose topics are later unlearned
  forget_holdout  unseen items from forget topics (MIA non-members)
  retain          trained items that must survive unlearning
  test            unseen items from retain topics (generalization)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .audit import canonical_json, content_digest, from_record, json_record, record_of
from .graph import Layer, Status
from .retrieval import token_seed, tokenize
from .training import Dataset

CHOICES = ("alder", "briar", "cedar", "damson")

SPLITS = ("forget", "forget_holdout", "retain", "test")
STORED_SPLITS = ("forget", "retain")  # the splits written to memory and trained on


@dataclass(frozen=True)
class QAItem:
    item_id: str
    split: str
    topic: str
    question: str
    answer_idx: int

    @property
    def answer_text(self) -> str:
        return CHOICES[self.answer_idx]


def forget_topic_count(n_topics: int, forget_fraction: float) -> int:
    """How many of the corpus's first topics are forget topics: at least one."""
    return max(1, int(round(n_topics * forget_fraction)))


def generate_corpus(seed: int = 0, n_topics: int = 12, items_per_topic: int = 6,
                    forget_fraction: float = 0.25, holdout_per_topic: int = 4) -> list:
    """Deterministic corpus; the first ``forget_fraction`` of topics are forgettable."""
    rng = np.random.default_rng(seed)
    n_forget_topics = forget_topic_count(n_topics, forget_fraction)
    items: list[QAItem] = []
    for t in range(n_topics):
        topic = f"topic{t:03d}"
        answer_idx = int(rng.integers(0, len(CHOICES)))
        forget_topic = t < n_forget_topics
        # Three phrase codes per item, the topic's items first, then its holdouts.
        codes = iter(rng.integers(0, 10 ** 6, size=(items_per_topic + holdout_per_topic, 3)).tolist())
        for letter, count, split in (
            ("i", items_per_topic, "forget" if forget_topic else "retain"),
            ("h", holdout_per_topic, "forget_holdout" if forget_topic else "test"),
        ):
            for i in range(count):
                phrases = " ".join(f"case{code:06d}" for code in next(codes))
                items.append(QAItem(
                    item_id=f"{topic}-{letter}{i:02d}",
                    split=split,
                    topic=topic,
                    question=f"what remedy suits {topic} presentation {phrases}",
                    answer_idx=answer_idx,
                ))
    return items


def split_items(items: Iterable[QAItem], split: str) -> list:
    return [it for it in items if it.split == split]


# ---------------------------------------------------------------------------
# Featurization (token hashing, no vocabulary to maintain)
# ---------------------------------------------------------------------------

def featurize(text: str, dim: int) -> np.ndarray:
    vec = np.zeros(dim)
    for token in tokenize(text):
        vec[token_seed(token) % dim] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm else vec


def to_dataset(items: Iterable[QAItem], dim: int) -> Dataset:
    """Each item's question featurized into its own row of one matrix, so no
    per-row vector outlives its row."""
    items = list(items)
    x = np.zeros((len(items), dim))
    for row, it in zip(x, items):
        row[:] = featurize(it.question, dim)
    y = np.array([it.answer_idx for it in items], dtype=int)
    return Dataset(x=x, y=y)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def corpus_lines(items: Iterable[QAItem]) -> list:
    return [canonical_json(record_of(it)) for it in items]


def corpus_from_lines(lines: Iterable[str]) -> list:
    items, seen = [], set()
    for line in lines:
        item = from_record(QAItem, json.loads(line))
        if item.split not in SPLITS:
            raise ValueError(f"split {item.split!r} is not one of {', '.join(SPLITS)}")
        if item.answer_idx not in range(len(CHOICES)):
            raise ValueError(f"answer_idx {item.answer_idx} is not a choice index")
        if item.item_id in seen:
            raise ValueError(f"item_id {item.item_id!r} is listed twice")
        seen.add(item.item_id)
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# Store population
# ---------------------------------------------------------------------------

ANSWER_MARKER = " answer "


def episodic_content(item: QAItem) -> str:
    return f"{item.question}{ANSWER_MARKER}{item.answer_text}"


def question_of(content: str) -> str:
    """Inverse of episodic_content for the question part."""
    pos = content.rfind(ANSWER_MARKER)
    return content[:pos] if pos >= 0 else content


def choice_in(content: str):
    """The choice a memory record carries, or None; the only answer reader. The word
    after its last answer marker if that is a choice, else its first choice in ``CHOICES``."""
    pos = content.rfind(ANSWER_MARKER)
    if pos >= 0:
        word = content[pos + len(ANSWER_MARKER):].strip()
        if word in CHOICES:
            return CHOICES.index(word)
    tokens = tokenize(content)
    for i, choice in enumerate(CHOICES):
        if choice in tokens:
            return i
    return None


@dataclass
class Provenance:
    """Maps corpus items to their episodic node ids (and back)."""

    item_to_node: dict = field(default_factory=dict)
    node_to_item: dict = field(default_factory=dict)

    def record(self, item_id: str, node_id: int) -> None:
        self.item_to_node[item_id] = node_id
        self.node_to_item[node_id] = item_id

    def to_lines(self) -> list:
        return [
            canonical_json({"item_id": k, "node_id": v})
            for k, v in sorted(self.item_to_node.items())
        ]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Provenance":
        prov = cls()
        for line in lines:
            item_id, node_id = json_record(json.loads(line), {"item_id": str, "node_id": int})
            if item_id in prov.item_to_node:
                raise ValueError(f"item_id {item_id!r} is listed twice")
            if node_id in prov.node_to_item:
                raise ValueError(f"node_id {node_id} is listed twice")
            prov.record(item_id, node_id)
        return prov

    def checked(self, graph, items: Iterable[QAItem]) -> "Provenance":
        """Itself, if it maps the stored ``items`` one to one onto episodic nodes of
        ``graph``, each holding its item's record: as its content while Active, and
        as its blocked digest, the record's sha256, once forgotten."""
        for node_id in self.node_to_item:
            node = graph.nodes.get(node_id)
            if node is None or node.layer is not Layer.EPISODIC:
                raise ValueError(f"node_id {node_id} names no episodic node")
        stored = {it.item_id: it for it in items if it.split in STORED_SPLITS}
        item_id = min(stored.keys() ^ self.item_to_node.keys(), default=None)  # the first unmatched
        if item_id is not None:
            state = "has no record" if item_id in stored else "names no stored corpus item"
            raise ValueError(f"item_id {item_id!r} {state}")
        for item_id, node_id in self.item_to_node.items():
            node, record = graph.nodes[node_id], episodic_content(stored[item_id])
            if (node.content != record if node.status is Status.ACTIVE
                    else node.blocked_digest != content_digest(record)):
                raise ValueError(f"node_id {node_id} does not hold the record of item_id {item_id!r}")
        return self


def populate_store(store, items: Iterable[QAItem]) -> Provenance:
    """Write stored splits into the memory graph with derived artifacts.

    Per item: one episodic node. Per topic: a semantic summary derived
    from all its episodic nodes, a KG entity derived from the summary,
    and a reflection derived from the summary. Only the forget and retain
    splits are stored; holdout and test items never touch memory.
    """
    prov = Provenance()
    by_topic: dict[str, list[QAItem]] = {}
    for item in items:
        if item.split not in STORED_SPLITS:
            continue
        by_topic.setdefault(item.topic, []).append(item)
    for topic in sorted(by_topic):
        topic_items = by_topic[topic]
        episodic_ids = []
        for item in topic_items:
            node_id = store.write(Layer.EPISODIC, episodic_content(item))
            prov.record(item.item_id, node_id)
            episodic_ids.append(node_id)
        answer = topic_items[0].answer_text
        summary_id = store.write(
            Layer.SEMANTIC,
            f"summary for {topic} the standard remedy is {answer}",
            parents=episodic_ids,
        )
        store.write(Layer.KG_ENTITY, f"{topic} remedy {answer}", parents=[summary_id])
        store.write(Layer.REFLECTION, f"reflection {topic} guidance confirmed", parents=[summary_id])
    return prov
