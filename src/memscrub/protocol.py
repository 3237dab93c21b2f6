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
from .corpus import CHOICES, answer_idx_of, choice_in, featurize, question_of
from .graph import ForgetRequest, Layer
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

    def answer(self, question: str) -> AgentAnswer:
        """Answer from retrieved memory when it names a choice, else parametrically."""
        hit_ids = [h.node_id for h in self.store.search(question)]
        for node_id in hit_ids:
            content = self.store.content(node_id)
            idx = choice_in(content)
            if idx is not None and _mentions_question(content, question):
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

    Forget queries for the parameter phase are captured from the targeted
    episodic records before deletion into an ephemeral buffer, featurized,
    and wiped; their plaintext is never logged.
    """
    store = agent.store
    memory_report = store.forget(request)

    forget_x = []
    forget_y = []
    for _, content in memory_report.captured:
        forget_x.append(featurize(question_of(content), agent.feature_dim))
        idx = answer_idx_of(content)
        forget_y.append(idx if idx is not None else -1)
    if forget_x:
        forget = Dataset(x=np.stack(forget_x), y=np.array(forget_y, dtype=int))
    else:
        forget = Dataset(x=np.zeros((0, agent.feature_dim)), y=np.zeros(0, dtype=int))
    memory_report.captured = []  # ephemeral buffer wiped before training

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
    fresh), and the follow-up retrieval shows the Parameter->Memory loop.
    """
    exposing = _exposing_hits(agent, question, answer_text)
    if exposing:
        return ProbeResult(reexposed=True, channel=Channel.MEMORY)

    p = agent.parametric_distribution(question)
    confidence = float(np.max(p))
    written_node = None
    regenerated = False
    if confidence > agent.confidence_threshold:
        regenerated = True
        recalled = CHOICES[int(np.argmax(p))]
        written_node = agent.store.write(
            Layer.EPISODIC, f"recalled during interaction {question} answer {recalled}"
        )

    exposing = _exposing_hits(agent, question, answer_text)
    if exposing:
        channel = Channel.PARAMETER if written_node in exposing else Channel.MEMORY
        return ProbeResult(reexposed=True, channel=channel,
                           regenerated=regenerated, written_node=written_node)
    return ProbeResult(reexposed=False, channel=Channel.NONE, regenerated=regenerated,
                       written_node=written_node)


def _exposing_hits(agent: AgentState, question: str, answer_text: str) -> set:
    hits = agent.store.search(question)
    exposing = set()
    for hit in hits:
        content = agent.store.content(hit.node_id)
        if answer_text in content.lower().split() and _mentions_question(content, question):
            exposing.add(hit.node_id)
    return exposing


def _mentions_question(content: str, question: str) -> bool:
    qtokens = set(tokenize(question))
    ctokens = set(tokenize(content))
    # Strict majority: stock phrasing shared by every question is not
    # enough to tie a hit to this particular question.
    return 2 * len(qtokens & ctokens) > len(qtokens)
