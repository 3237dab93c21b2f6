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

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .graph import Layer
from .training import Dataset

CHOICES = ("alder", "briar", "cedar", "damson")

SPLITS = ("forget", "forget_holdout", "retain", "test")


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

    def to_record(self) -> dict:
        return {
            "item_id": self.item_id,
            "split": self.split,
            "topic": self.topic,
            "question": self.question,
            "answer_idx": self.answer_idx,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "QAItem":
        return cls(**rec)


def _phrase_tokens(rng: np.random.Generator, count: int = 3) -> list:
    return [f"case{rng.integers(0, 10 ** 6):06d}" for _ in range(count)]


def generate_corpus(seed: int = 0, n_topics: int = 12, items_per_topic: int = 6,
                    forget_fraction: float = 0.25, holdout_per_topic: int = 4) -> list:
    """Deterministic corpus; the first ``forget_fraction`` of topics are forgettable."""
    rng = np.random.default_rng(seed)
    n_forget_topics = max(1, int(round(n_topics * forget_fraction)))
    items: list[QAItem] = []
    for t in range(n_topics):
        topic = f"topic{t:03d}"
        answer_idx = int(rng.integers(0, len(CHOICES)))
        forget_topic = t < n_forget_topics
        for i in range(items_per_topic):
            phrases = " ".join(_phrase_tokens(rng))
            question = f"what remedy suits {topic} presentation {phrases}"
            split = "forget" if forget_topic else "retain"
            items.append(QAItem(
                item_id=f"{topic}-i{i:02d}",
                split=split,
                topic=topic,
                question=question,
                answer_idx=answer_idx,
            ))
        for i in range(holdout_per_topic):
            phrases = " ".join(_phrase_tokens(rng))
            question = f"what remedy suits {topic} presentation {phrases}"
            split = "forget_holdout" if forget_topic else "test"
            items.append(QAItem(
                item_id=f"{topic}-h{i:02d}",
                split=split,
                topic=topic,
                question=question,
                answer_idx=answer_idx,
            ))
    return items


def split_items(items: Iterable[QAItem], split: str) -> list:
    return [it for it in items if it.split == split]


# ---------------------------------------------------------------------------
# Featurization (token hashing, no vocabulary to maintain)
# ---------------------------------------------------------------------------

def _token_slot(token: str, dim: int) -> int:
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big") % dim


def featurize(text: str, dim: int = 256) -> np.ndarray:
    from .retrieval import tokenize

    vec = np.zeros(dim)
    for token in tokenize(text):
        vec[_token_slot(token, dim)] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm else vec


def to_dataset(items: Iterable[QAItem], dim: int = 256) -> Dataset:
    items = list(items)
    x = np.stack([featurize(it.question, dim) for it in items]) if items else np.zeros((0, dim))
    y = np.array([it.answer_idx for it in items], dtype=int)
    return Dataset(x=x, y=y)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def corpus_lines(items: Iterable[QAItem]) -> list:
    return [json.dumps(it.to_record(), sort_keys=True, separators=(",", ":")) for it in items]


def corpus_from_lines(lines: Iterable[str]) -> list:
    return [QAItem.from_record(json.loads(line)) for line in lines]


# ---------------------------------------------------------------------------
# Store population
# ---------------------------------------------------------------------------

def episodic_content(item: QAItem) -> str:
    return f"{item.question} answer {item.answer_text}"


def question_of(content: str) -> str:
    """Inverse of episodic_content for the question part."""
    marker = " answer "
    pos = content.rfind(marker)
    return content[:pos] if pos >= 0 else content


def answer_idx_of(content: str):
    marker = " answer "
    pos = content.rfind(marker)
    if pos < 0:
        return None
    word = content[pos + len(marker):].strip()
    return CHOICES.index(word) if word in CHOICES else None


def choice_in(content: str):
    """Choice a memory names: its answer marker, else the first choice token."""
    idx = answer_idx_of(content)
    if idx is not None:
        return idx
    tokens = content.lower().split()
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
            json.dumps({"item_id": k, "node_id": v}, sort_keys=True, separators=(",", ":"))
            for k, v in sorted(self.item_to_node.items())
        ]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Provenance":
        prov = cls()
        for line in lines:
            rec = json.loads(line)
            prov.record(rec["item_id"], rec["node_id"])
        return prov


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
        if item.split not in ("forget", "retain"):
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
