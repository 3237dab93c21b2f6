"""Evaluation harness: accuracy, membership inference, agent loop, baselines.

Each distinct memory state is measured once: the agent loop's T4-T6 share
one measurement, and the baselines are naive deletion, a retraining
oracle and ours. Membership inference uses the exact pairwise
(Mann-Whitney) AUC over per-item losses, members scored as the positive
class by lower loss, and the normalized score 1 - 2|auc - 0.5| (1.0 means
member and non-member losses are indistinguishable).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .corpus import QAItem, Provenance, choice_in, populate_store, split_items
from .graph import DERIVED_LAYERS, ForgetRequest, Layer, Status
from .protocol import AgentState
from .retrieval import tokenize
from .store import MemoryStore
from .training import Dataset, ModelState, temperature_softmax


@dataclass(frozen=True)
class MIAResult:
    auc: float
    score: float


def pairwise_auc(member_losses: Sequence[float], nonmember_losses: Sequence[float]) -> float:
    """Exact Mann-Whitney AUC; ties get half credit; lower member loss => higher AUC.

    Each member's wins (non-members with a higher loss) and ties are counted
    as integers by two binary searches in the sorted non-member losses, so
    no member x non-member matrix is built.
    """
    members = np.asarray(member_losses, dtype=float)
    nonmembers = np.sort(np.asarray(nonmember_losses, dtype=float))
    if members.size == 0 or nonmembers.size == 0:
        raise ValueError("member and nonmember loss lists must be nonempty")
    below = np.searchsorted(nonmembers, members, side="left")
    not_above = np.searchsorted(nonmembers, members, side="right")
    wins = int(np.sum(nonmembers.size - not_above))
    ties = int(np.sum(not_above - below))
    return float((wins + 0.5 * ties) / (members.size * nonmembers.size))


def mia(member_losses, nonmember_losses) -> MIAResult:
    auc = pairwise_auc(member_losses, nonmember_losses)
    return MIAResult(auc=auc, score=1.0 - 2.0 * abs(auc - 0.5))


def accuracy(predict: Callable[[QAItem], int], items: Iterable[QAItem]) -> float:
    items = list(items)
    if not items:
        raise ValueError("empty dataset")
    correct = sum(1 for it in items if predict(it) == it.answer_idx)
    return correct / len(items)


def model_item_losses(model: ModelState, ds: Dataset) -> np.ndarray:
    """Per-item cross-entropy of the model on the true answer."""
    p = temperature_softmax(model.logits(ds.x), 1.0)
    picked = p[np.arange(len(ds)), ds.y]
    return -np.log(np.clip(picked, 1e-300, None))


# ---------------------------------------------------------------------------
# Retrieval-grounded answering
# ---------------------------------------------------------------------------

def memory_accuracy(agent: AgentState, forget_items, retain_items) -> dict:
    """The agent's accuracy: answers from retrieved memory, else from the model."""

    def predict(item: QAItem) -> int:
        return agent.answer(item.question).answer_idx

    return {
        "forget_acc": accuracy(predict, forget_items),
        "retain_acc": accuracy(predict, retain_items),
    }


def memory_item_losses(store: MemoryStore, items: Iterable[QAItem]) -> np.ndarray:
    """Memory-side loss proxy: 1 - best combined score of an answer-bearing hit."""
    return np.asarray([_item_loss(store, item, store.search(item.question)) for item in items])


def _item_loss(store: MemoryStore, item: QAItem, hits) -> float:
    """``item``'s loss given ``hits``, the store's search hits for its question."""
    best = 1.0
    for hit in hits:
        content = store.content(hit.node_id)
        if item.topic in tokenize(content) and choice_in(content) == item.answer_idx:
            best = min(best, 1.0 - hit.combined)
    return best


# ---------------------------------------------------------------------------
# Agent loop (Store -> Query -> Delete -> Probe)
# ---------------------------------------------------------------------------

@dataclass
class StageReport:
    stage: str
    label: str
    forget_hit_rate: Optional[float] = None
    retain_hit_rate: Optional[float] = None


@dataclass
class LoopTimeline:
    stages: list = field(default_factory=list)
    summary_updates: int = 0
    cleanup_ratio: float = 0.0


def _hit_rate(store: MemoryStore, prov: Provenance, items) -> float:
    """Fraction of items whose retrieval surfaces a node tracing back to them."""
    if not items:
        return 0.0
    ancestors_of = functools.cache(store.graph.episodic_ancestors)  # search leaves the graph as is
    hits = 0
    for item in items:
        origin = prov.item_to_node[item.item_id]
        for hit in store.search(item.question):
            node_id = hit.node_id
            if node_id == origin or origin in ancestors_of(node_id):
                hits += 1
                break
    return hits / len(items)


def run_agent_loop(store: MemoryStore, items) -> LoopTimeline:
    """Store ``items``, query, delete the forget split, probe; T4-T6 share one
    measurement, as nothing writes after T4."""
    timeline = LoopTimeline()
    forget_items, retain_items = split_items(items, "forget"), split_items(items, "retain")

    # T1-T2: store the QA pairs (the forget and retain splits) plus derived artifacts.
    prov = populate_store(store, items)
    timeline.summary_updates = sum(
        1 for i in store.graph.active_view()
        if store.graph.nodes[i].layer is Layer.SEMANTIC
    )
    timeline.stages += [StageReport("T1", "store"), StageReport("T2", "store")]

    def measure(*stages) -> None:
        forget = _hit_rate(store, prov, forget_items)
        retain = _hit_rate(store, prov, retain_items)
        timeline.stages.extend(StageReport(stage, label, forget, retain) for stage, label in stages)

    # T3: query both sets.
    measure(("T3", "query"))

    # T4: deletion request over the forget items. Targets are never in their
    # closure, so every node removed inside it is a zero-ref removal. T5-T6
    # probe the state T4 left.
    targets = [prov.item_to_node[it.item_id] for it in forget_items]
    report = store.forget(ForgetRequest.of("loop-delete", targets))
    if report.closure_size:
        timeline.cleanup_ratio = report.prune.zero_ref_removed / report.closure_size
    measure(("T4", "delete"), ("T5", "probe"), ("T6", "probe"))
    return timeline


# ---------------------------------------------------------------------------
# Memory-side baselines
# ---------------------------------------------------------------------------

@dataclass
class MethodReport:
    method: str
    forget_acc: float
    retain_acc: float
    mia_auc: float
    mia_score: float
    dangling_artifacts: int  # active derived nodes supported only by the forget set


def dangling_artifact_count(store: MemoryStore, target_ids: set) -> int:
    """Active derived nodes whose episodic support lies entirely in the targets."""
    count = 0
    for node_id in store.graph.active_view():
        node = store.graph.nodes[node_id]
        if node.layer not in DERIVED_LAYERS:
            continue
        ancestors = store.graph.episodic_ancestors(node_id)
        if ancestors and ancestors <= target_ids:
            count += 1
    return count


def _naive_delete(store: MemoryStore, targets) -> None:
    # Removes target entries only: no blocklist, no closure, no audit ordering.
    for t in targets:
        node = store.graph.nodes[t]
        node.status = Status.DELETED
        node.content = ""
        store.index.remove(t)


def memory_baselines(agent: AgentState, items) -> list:
    """Compare Naive Deletion, Retraining Oracle and Ours, each on a store built from ``items``.

    Each arm is a new store with the agent store's settings and embedder,
    populated from the corpus and then given its deletion, so every arm
    starts from the pre-deletion state whatever the agent's store has
    served. Each is built, evaluated and released before the next, so at
    most one lives beside the agent's store. An arm searches each forget
    question once: its hits give both the answer and the item's loss.
    """
    forget_items = split_items(items, "forget")
    holdout_items = split_items(items, "forget_holdout")
    retain_items = split_items(items, "retain")

    def evaluate(method: str, stored: list, delete: Callable) -> MethodReport:
        variant = MemoryStore(settings=agent.store.settings, embedder=agent.store.embedder)
        prov = populate_store(variant, stored)
        targets = sorted(prov.item_to_node[it.item_id] for it in stored if it.split == "forget")
        delete(variant, targets)
        answerer = replace(agent, store=variant)
        member = []

        def forget_answer(item: QAItem) -> int:
            hits = variant.search(item.question)
            member.append(_item_loss(variant, item, hits))
            return answerer.answer(item.question, hits).answer_idx

        forget_acc = accuracy(forget_answer, forget_items)
        retain_acc = accuracy(lambda it: answerer.answer(it.question).answer_idx, retain_items)
        result = mia(member, memory_item_losses(variant, holdout_items))
        return MethodReport(
            method=method,
            forget_acc=forget_acc,
            retain_acc=retain_acc,
            mia_auc=result.auc,
            mia_score=result.score,
            dangling_artifacts=dangling_artifact_count(variant, set(targets)),
        )

    # Retraining oracle: a store built from the retain split only. It never
    # stored the forget items, so its forget-target set is empty by construction.
    return [
        evaluate("naive_deletion", items, _naive_delete),
        evaluate("retraining_oracle", retain_items, lambda variant, targets: None),
        evaluate("ours", items,
                 lambda variant, targets: variant.forget(ForgetRequest.of("baseline-ours", targets))),
    ]
