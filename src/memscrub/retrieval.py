"""Hybrid dense+keyword retrieval with blocklist enforcement.

Candidates are scored exactly (cosine similarity fused with token
overlap), oversampled by a small factor, filtered against the blocklist
and node status at the boundary, and truncated to top-k. Removals are
logical tombstones until the index is rebuilt, which happens when the
blocklist outgrows a threshold.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .audit import AuditLog, AuditOp, Blocklist
from .graph import UnknownNodeError

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


def keyword_score(query_tokens, doc_tokens) -> float:
    """Normalized token overlap: |query ∩ doc| / |query|."""
    if not query_tokens:
        return 0.0
    qset = set(query_tokens)
    return len(qset & set(doc_tokens)) / len(qset)


class EmbeddingProvider(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


class HashingEmbedder:
    """Deterministic embedder: per-token SHA-seeded gaussian vectors, unit norm.

    Identical text always maps to the identical vector, independent of
    process or platform, which keeps stores byte-reproducible.
    """

    def __init__(self, dim: int = 256):
        self.dim = dim
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")
            vec = np.random.default_rng(seed).standard_normal(self.dim)
            self._token_cache[token] = vec
        return vec

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text) or ["<empty>"]
        vec = np.zeros(self.dim)
        for token in tokens:
            vec += self._token_vector(token)
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec = self._token_vector("<degenerate>").copy()
            norm = np.linalg.norm(vec)
        return vec / norm


@dataclass
class HybridQuery:
    text: str
    top_k: int = 5
    oversample_r: int = 3
    w_sem: float = 0.7
    w_kw: float = 0.3

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.oversample_r < 1:
            raise ValueError("oversample_r must be >= 1")
        if abs(self.w_sem + self.w_kw - 1.0) > 1e-9:
            raise ValueError("w_sem + w_kw must equal 1")


@dataclass(frozen=True)
class ScoredHit:
    node_id: int
    sem_score: float
    kw_score: float
    combined: float


@dataclass
class RebuildResult:
    rebuilt: bool
    generation: int
    purged: list = field(default_factory=list)


class HybridIndex:
    """Exact-scoring hybrid index over memory contents."""

    def __init__(self, embedder: EmbeddingProvider, tau: int = 100):
        self.embedder = embedder
        self.tau = tau
        self.generation = 0
        self._vectors: dict[int, np.ndarray] = {}
        self._tokens: dict[int, frozenset] = {}
        self._tombstones: set = set()

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._vectors and node_id not in self._tombstones

    def __len__(self) -> int:
        return len(self._vectors) - len(self._tombstones)

    def live_ids(self) -> list:
        return sorted(i for i in self._vectors if i not in self._tombstones)

    def copy(self) -> "HybridIndex":
        """Independent copy. Stored vectors are read-only, so copies share them."""
        clone = HybridIndex(self.embedder, tau=self.tau)
        clone.generation = self.generation
        clone._vectors = dict(self._vectors)
        clone._tokens = dict(self._tokens)
        clone._tombstones = set(self._tombstones)
        return clone

    def insert(self, node_id: int, text: str) -> None:
        vec = self.embedder.embed(text)
        vec.flags.writeable = False
        self._vectors[node_id] = vec
        self._tokens[node_id] = frozenset(tokenize(text))
        self._tombstones.discard(node_id)

    def remove(self, node_id: int) -> None:
        """Logical removal; the vector is physically purged at rebuild."""
        if node_id not in self._vectors or node_id in self._tombstones:
            raise UnknownNodeError(f"id {node_id} not in index")
        self._tombstones.add(node_id)

    def purge(self, ids) -> None:
        """Physically drop ``ids`` and every tombstoned entry; bumps the generation."""
        for node_id in set(ids) | self._tombstones:
            self._vectors.pop(node_id, None)
            self._tokens.pop(node_id, None)
        self._tombstones.clear()
        self.generation += 1

    def search(self, query: HybridQuery, allowed: Callable[[int], bool]) -> list:
        """Top-k allowed hits by combined score, ties broken by ascending id.

        ``allowed`` is the retrieval boundary: it must reject blocked ids
        and nodes that are not Active. Candidate generation fetches
        top_k * oversample_r before filtering; if fewer survive, the
        shorter list is returned.
        """
        live = self.live_ids()
        if not live:
            return []
        qvec = self.embedder.embed(query.text)
        qtokens = tokenize(query.text)
        scored = []
        for node_id in live:
            sem = float(np.dot(qvec, self._vectors[node_id]))
            kw = keyword_score(qtokens, self._tokens[node_id])
            combined = query.w_sem * sem + query.w_kw * kw
            scored.append(ScoredHit(node_id=node_id, sem_score=sem, kw_score=kw, combined=combined))
        scored.sort(key=lambda h: (-h.combined, h.node_id))
        candidates = scored[: query.top_k * query.oversample_r]
        survivors = [h for h in candidates if allowed(h.node_id)]
        return survivors[: query.top_k]

    def maybe_rebuild(self, blocklist: Blocklist, keep: Callable[[int], bool],
                      audit: AuditLog) -> RebuildResult:
        """Rebuild the index when |B| strictly exceeds tau.

        The rebuilt index holds only entries that are untombstoned,
        unblocked, and accepted by ``keep`` (Active in the store). Purged
        blocklist entries are handed to compaction afterwards.
        """
        if len(blocklist) <= self.tau:
            return RebuildResult(rebuilt=False, generation=self.generation)
        purged = sorted(
            i for i in self._vectors
            if i in self._tombstones or blocklist.is_blocked(i) or not keep(i)
        )
        audit.append(AuditOp.REBUILD, {
            "generation": self.generation + 1,
            "purged": purged,
            "size": len(self._vectors) - len(purged),
        })
        self.purge(purged)
        blocklist.compact(purged, self.generation, audit)
        return RebuildResult(rebuilt=True, generation=self.generation, purged=purged)

    # Persistence: membership only; vectors are recomputed from content on load.

    def to_lines(self) -> list:
        lines = [json.dumps({"generation": self.generation},
                            sort_keys=True, separators=(",", ":"))]
        for node_id in sorted(self._vectors):
            lines.append(json.dumps(
                {"id": node_id, "tombstone": node_id in self._tombstones},
                sort_keys=True, separators=(",", ":")))
        return lines

    @classmethod
    def from_lines(cls, lines, embedder: EmbeddingProvider, tau: int,
                   content_for: Callable[[int], str]) -> "HybridIndex":
        lines = list(lines)
        index = cls(embedder, tau=tau)
        index.generation = json.loads(lines[0])["generation"]
        for line in lines[1:]:
            rec = json.loads(line)
            index.insert(rec["id"], content_for(rec["id"]))
            if rec["tombstone"]:
                index._tombstones.add(rec["id"])
        return index
