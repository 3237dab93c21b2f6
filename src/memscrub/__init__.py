"""memscrub: dependency-consistent deletion for agent memory stores,
coupled with a small-model unlearning trainer and an evaluation harness.
"""

from .audit import AuditLog, AuditOp, AuditRecord, Blocklist, verify_lines
from .graph import (
    ForgetRequest,
    Layer,
    MemoryGraph,
    MemoryNode,
    PruneReport,
    Status,
)
from .protocol import AgentState, Channel, backflow_probe, run_protocol
from .retrieval import HashingEmbedder, HybridIndex, RetrievalSettings, ScoredHit
from .store import MemoryStore
from .training import (
    Dataset,
    LabeledBatch,
    ModelState,
    UnlearnConfig,
    grad_step,
    maybe_entropy_fallback,
    pretrain,
    temperature_softmax,
    train_unlearn,
)
from .evaluation import MIAResult, memory_accuracy, memory_baselines, mia, run_agent_loop

__all__ = [
    "AuditLog", "AuditOp", "AuditRecord", "Blocklist", "verify_lines",
    "ForgetRequest", "Layer", "MemoryGraph", "MemoryNode", "PruneReport", "Status",
    "AgentState", "Channel", "backflow_probe", "run_protocol",
    "HashingEmbedder", "HybridIndex", "RetrievalSettings", "ScoredHit",
    "MemoryStore",
    "Dataset", "LabeledBatch", "ModelState", "UnlearnConfig",
    "grad_step", "maybe_entropy_fallback", "pretrain",
    "temperature_softmax", "train_unlearn",
    "MIAResult", "memory_accuracy", "memory_baselines", "mia", "run_agent_loop",
]

__version__ = "0.1.0"
