"""Two-phase unlearning protocol and the backflow diagnostic.

Per deletion request the memory phase (block, closure prune, vector
removal, conditional rebuild, archive) runs strictly before the
parameter phase, so parameter training only ever sees the post-prune
retrieval context. A memory-phase failure aborts before any training; a
training failure leaves the memory effects committed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .audit import AuditOp
from .corpus import ANSWER_MARKER, CHOICES, choice_in, featurize, question_of
from .graph import ForgetRequest, Layer, Status
from .retrieval import tokenize
from .store import MemoryPhaseReport, MemoryStore
from .training import (
    Dataset,
    ModelState,
    UnlearnConfig,
    temperature_softmax,
    train_unlearn,
)


@dataclass
class AgentAnswer:
    answer_idx: int
    source: str  # "memory" or "parametric"
    hit_ids: list = field(default_factory=list)


@dataclass
class AgentState:
    """Desk-scale stub agent: hybrid retrieval over the store, small classifier behind it."""

    store: MemoryStore
    model: ModelState
    feature_dim: int
    confidence_threshold: float = 0.5

    def parametric_distribution(self, question: str) -> np.ndarray:
        x = featurize(question, self.feature_dim)[None, :]
        return temperature_softmax(self.model.logits(x), 1.0)[0]

    def answer(self, question: str, hits: Optional[list] = None) -> AgentAnswer:
        """Answer from retrieved memory when it names a choice, else parametrically.

        ``hits``, if given, are the store's search hits for ``question``, so a
        caller that needs them too searches once.
        """
        if hits is None:
            hits = self.store.search(question)
        hit_ids = [h.node_id for h in hits]
        for node_id in hit_ids:
            idx = _recalled(self.store.content(node_id), question)
            if idx is not None:
                return AgentAnswer(answer_idx=idx, source="memory", hit_ids=hit_ids)
        p = self.parametric_distribution(question)
        return AgentAnswer(answer_idx=int(np.argmax(p)), source="parametric", hit_ids=hit_ids)


@dataclass
class ProtocolReport:
    memory: MemoryPhaseReport
    training: list
    audit_head: str

    def to_record(self) -> dict:
        return {
            "memory": self.memory.to_record(),
            "training_epochs": len(self.training),
            "training_final": self.training[-1] if self.training else None,
            "audit_head": self.audit_head,
        }


def run_protocol(agent: AgentState, request: ForgetRequest, retain: Dataset,
                 cfg: UnlearnConfig) -> ProtocolReport:
    """Memory phase first, then mixed-batch parameter unlearning.

    The parameter phase's forget rows are featurized from the request's
    Active episodic records, read through ``forget_target`` as the memory
    phase reads them, before it deletes their text; no plaintext is logged.
    """
    store = agent.store
    active = [node for node in map(store.graph.forget_target, sorted(request.targets))
              if node.status is Status.ACTIVE]
    forget = Dataset(x=np.zeros((len(active), agent.feature_dim)), y=np.zeros(len(active), dtype=int))
    for i, node in enumerate(active):
        forget.x[i] = featurize(question_of(node.content), agent.feature_dim)
        idx = choice_in(node.content)
        forget.y[i] = idx if idx is not None else -1
    memory_report = store.forget(request)

    history = train_unlearn(retain, forget, agent.model, cfg)
    store.audit.append(AuditOp.TRAIN, {
        "request_id": request.request_id,
        "epochs": len(history),
        "final_retain_acc": history[-1]["retain_acc"] if history else None,
    })
    return ProtocolReport(memory=memory_report, training=history,
                          audit_head=store.audit.head_hash())


# ---------------------------------------------------------------------------
# Backflow diagnostic
# ---------------------------------------------------------------------------

class Channel(str, enum.Enum):
    MEMORY = "memory"
    PARAMETER = "parameter"
    NONE = "none"


@dataclass
class ProbeResult:
    reexposed: bool
    channel: Channel
    regenerated: bool = False
    written_node: Optional[int] = None


def backflow_probe(agent: AgentState, question: str, answer_text: str) -> ProbeResult:
    """Scripted interaction probing whether a forgotten fact resurfaces.

    The agent is asked about the fact; if memory still surfaces the answer
    that is a memory-channel exposure. Otherwise, a confidently-recalling
    model simulates parametric residue: the regenerated answer is written
    back through the normal write path (a paraphrase, so its digest is
    fresh). A write changes no other entry's score or verdict, so a follow-up
    hit that exposes the fact is the write-back: the Parameter->Memory loop.
    """
    exposing = _exposing_hits(agent, question, answer_text)
    if exposing:
        return ProbeResult(reexposed=True, channel=Channel.MEMORY)

    p = agent.parametric_distribution(question)
    if float(np.max(p)) <= agent.confidence_threshold:  # nothing written, nothing new to find
        return ProbeResult(reexposed=False, channel=Channel.NONE)
    recalled = CHOICES[int(np.argmax(p))]
    written_node = agent.store.write(
        Layer.EPISODIC, f"recalled during interaction {question}{ANSWER_MARKER}{recalled}"
    )

    exposing = _exposing_hits(agent, question, answer_text)
    return ProbeResult(reexposed=bool(exposing),
                       channel=Channel.PARAMETER if exposing else Channel.NONE,
                       regenerated=True, written_node=written_node)


def _exposing_hits(agent: AgentState, question: str, answer_text: str) -> set:
    answer_idx = CHOICES.index(answer_text)
    return {hit.node_id for hit in agent.store.search(question)
            if _recalled(agent.store.content(hit.node_id), question) == answer_idx}


def _recalled(content: str, question: str) -> Optional[int]:
    """``choice_in(content)`` if ``content`` holds a strict majority of the question's tokens,
    else None: stock phrasing every question shares does not tie a record to this one."""
    idx = choice_in(content)
    if idx is None:
        return None
    qtokens = set(tokenize(question))
    return idx if 2 * len(qtokens & set(tokenize(content))) > len(qtokens) else None
