"""Evaluation harness: accuracy, membership inference, agent loop, baselines.

Membership inference uses the exact pairwise (Mann-Whitney) AUC over
per-item losses, members scored as the positive class by lower loss, and
the normalized score 1 - 2|auc - 0.5| (1.0 means member and non-member
losses are indistinguishable).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .corpus import QAItem, Provenance, populate_store, split_items
from .graph import DERIVED_LAYERS, ForgetRequest, Layer, Status
from .protocol import AgentState
from .store import MemoryStore
from .training import Dataset, ModelState, temperature_softmax


@dataclass(frozen=True)
class MIAResult:
    auc: float
    score: float


def pairwise_auc(member_losses: Sequence[float], nonmember_losses: Sequence[float]) -> float:
    """Exact Mann-Whitney AUC; ties get half credit; lower member loss => higher AUC."""
    members = np.asarray(member_losses, dtype=float)
    nonmembers = np.asarray(nonmember_losses, dtype=float)
    if members.size == 0 or nonmembers.size == 0:
        raise ValueError("member and nonmember loss lists must be nonempty")
    diff = members[:, None] - nonmembers[None, :]
    wins = np.sum(diff < 0) + 0.5 * np.sum(diff == 0)
    return float(wins / (members.size * nonmembers.size))


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
    losses = []
    for item in items:
        best = 1.0
        for hit in store.search(item.question):
            content = store.content(hit.node_id)
            if item.topic in content and item.answer_text in content.lower().split():
                best = min(best, 1.0 - hit.combined)
        losses.append(best)
    return np.asarray(losses)


# ---------------------------------------------------------------------------
# Agent loop (Store -> Query -> Delete -> Probe)
# ---------------------------------------------------------------------------

@dataclass
class LoopScenario:
    forget_items: list
    retain_items: list
    delete: bool = True


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

    def hit_rates(self, split: str) -> list:
        key = f"{split}_hit_rate"
        return [getattr(s, key) for s in self.stages if getattr(s, key) is not None]


def _hit_rate(store: MemoryStore, prov: Provenance, items) -> float:
    """Fraction of items whose retrieval surfaces a node tracing back to them."""
    if not items:
        return 0.0
    ancestors_of = functools.cache(store.graph.episodic_ancestors)  # search leaves the graph as is
    hits = 0
    for item in items:
        origin = prov.item_to_node.get(item.item_id)
        if origin is None:
            continue
        for hit in store.search(item.question):
            node_id = hit.node_id
            if node_id == origin or origin in ancestors_of(node_id):
                hits += 1
                break
    return hits / len(items)


def run_agent_loop(store: MemoryStore, scenario: LoopScenario) -> LoopTimeline:
    timeline = LoopTimeline()
    stored = scenario.forget_items + scenario.retain_items

    # T1-T2: store the QA pairs plus derived artifacts.
    prov = populate_store(store, stored)
    timeline.summary_updates = sum(
        1 for i in store.graph.active_view()
        if store.graph.nodes[i].layer is Layer.SEMANTIC
    )
    timeline.stages.append(StageReport(stage="T1", label="store"))
    timeline.stages.append(StageReport(stage="T2", label="store"))

    def measure(stage: str, label: str) -> None:
        timeline.stages.append(StageReport(
            stage=stage, label=label,
            forget_hit_rate=_hit_rate(store, prov, scenario.forget_items),
            retain_hit_rate=_hit_rate(store, prov, scenario.retain_items),
        ))

    # T3: query both sets.
    measure("T3", "query")

    # T4: deletion request over the forget items. Targets are never in their
    # closure, so every node removed inside it is a zero-ref removal.
    if scenario.delete:
        targets = [prov.item_to_node[it.item_id] for it in scenario.forget_items]
        report = store.forget(ForgetRequest.of("loop-delete", targets))
        if report.closure_size:
            timeline.cleanup_ratio = report.prune.zero_ref_removed / report.closure_size
    measure("T4", "delete")

    # T5-T6: probes.
    measure("T5", "probe")
    measure("T6", "probe")
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
        node.ref_count = 0
        if t in store.index:
            store.index.remove(t)
    for node_id, node in store.graph.nodes.items():
        if node.status is Status.ACTIVE:
            node.ref_count = sum(
                1 for pid in store.graph.parents_of(node_id)
                if store.graph.nodes[pid].status is Status.ACTIVE
            )


def memory_baselines(store: MemoryStore, prov: Provenance, items,
                     model: ModelState, feature_dim: int = 256) -> list:
    """Compare Naive Deletion, Re-indexing, Retraining Oracle and Ours.

    Each variant is built, evaluated and released before the next, so at
    most one lives beside ``store``.
    """
    forget_items = split_items(items, "forget")
    holdout_items = split_items(items, "forget_holdout")
    retain_items = split_items(items, "retain")
    targets = sorted(prov.item_to_node[it.item_id] for it in forget_items)
    target_set = set(targets)
    reports = []

    def evaluate(method: str, variant: MemoryStore, dangling_targets: set) -> None:
        agent = AgentState(store=variant, model=model, feature_dim=feature_dim)
        accs = memory_accuracy(agent, forget_items, retain_items)
        member = memory_item_losses(variant, forget_items)
        nonmember = memory_item_losses(variant, holdout_items)
        result = mia(member, nonmember)
        reports.append(MethodReport(
            method=method,
            forget_acc=accs["forget_acc"],
            retain_acc=accs["retain_acc"],
            mia_auc=result.auc,
            mia_score=result.score,
            dangling_artifacts=dangling_artifact_count(variant, dangling_targets),
        ))

    # Re-indexing is naive deletion followed by a purge of the index.
    variant = store.copy()
    _naive_delete(variant, targets)
    evaluate("naive_deletion", variant, target_set)
    variant.index.purge([i for i in variant.index.live_ids()
                         if variant.graph.nodes[i].status is not Status.ACTIVE])
    evaluate("reindexing", variant, target_set)

    del variant
    # Retraining oracle: a store rebuilt from the retain split only. Node ids
    # are store-local and the oracle never stored the forget items, so its
    # forget-target set is empty by construction.
    variant = MemoryStore(settings=store.settings, embedder=store.embedder)
    populate_store(variant, [it for it in items if it.split == "retain"])
    evaluate("retraining_oracle", variant, set())

    del variant
    variant = store.copy()
    variant.forget(ForgetRequest.of("baseline-ours", targets))
    evaluate("ours", variant, target_set)
    return reports
