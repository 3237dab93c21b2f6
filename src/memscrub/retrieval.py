"""Hybrid dense+keyword retrieval with blocklist enforcement.

Candidates are scored exactly (cosine similarity fused with token
overlap), oversampled by a small factor, filtered against the blocklist
and node status at the boundary, and truncated to top-k.

The index keeps vectors as rows of zero-filled blocks of ``BLOCK_ROWS``
rows, with a row -> id array, and keyword overlap as postings (token ->
rows). A search runs one mat-vec over each whole block, so every row
takes the same arithmetic and identical texts score bit-identically at
any row, and adds one at each row in the postings of each query token.
A removal takes the entry out of the live set at once and keeps its id
as a tombstone; its dead row and postings stay until the next purge,
which compacts blocks, ids and postings. The index is rebuilt (purged)
when the blocklist outgrows a threshold.
"""

from __future__ import annotations

import hashlib
import json
import re
from array import array
from dataclasses import dataclass
from typing import Callable, Container, Iterable

import numpy as np

from .audit import AuditLog, AuditOp, Blocklist, canonical_json
from .graph import UnknownNodeError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

BLOCK_ROWS = 64


def tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


def token_seed(token: str) -> int:
    """A token's 64-bit hash: its embedding's RNG seed, and its featurizer slot mod dim."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class HashingEmbedder:
    """Deterministic embedder: per-token SHA-seeded gaussian vectors, unit norm.

    Identical text always maps to the identical vector, independent of
    process or platform, which keeps stores byte-reproducible.

    A token's vector is cached from its second sighting on: most tokens
    of a store occur once, and a cached vector costs ``8 * dim`` bytes
    where a remembered seed costs an int.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._token_cache: dict[str, np.ndarray] = {}
        self._seen: set[int] = set()  # seeds of every token embedded so far

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            seed = token_seed(token)
            vec = np.random.default_rng(seed).standard_normal(self.dim)
            if seed in self._seen:
                self._token_cache[token] = vec
            else:
                self._seen.add(seed)
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


class HybridIndex:
    """Exact-scoring hybrid index over row blocks and token postings.

    Rows are only ever written into the last, partial block.
    """

    def __init__(self, embedder: HashingEmbedder, tau: int):
        self.embedder = embedder
        self.tau = tau
        self.generation = 0
        self._blocks: list = []  # (BLOCK_ROWS, dim) arrays
        self._ids = np.zeros(0, dtype=np.int64)  # row -> id
        self._live = np.zeros(0, dtype=bool)  # row holds its id's current entry
        self._rows = 0  # rows filled, dead ones included
        self._row_of: dict[int, int] = {}  # live id -> row
        self._postings: dict[str, array] = {}  # token -> rows, dead ones included
        self._tombstones: set = set()

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._row_of

    def __len__(self) -> int:
        return len(self._row_of)

    def live_ids(self) -> list:
        return sorted(self._row_of)

    def insert(self, node_id: int, text: str) -> None:
        vec = self.embedder.embed(text)
        old = self._row_of.get(node_id)
        if old is not None:
            self._live[old] = False
        row, slot = self._rows, self._rows % BLOCK_ROWS
        if slot == 0:
            self._grow()
        self._blocks[-1][slot] = vec
        self._rows += 1
        self._ids[row] = node_id
        self._live[row] = True
        self._row_of[node_id] = row
        self._tombstones.discard(node_id)
        for token in set(tokenize(text)):
            rows = self._postings.get(token)
            if rows is None:
                self._postings[token] = array("q", (row,))
            else:
                rows.append(row)

    def _grow(self) -> None:
        """Add a zero-filled block, with ids and live flags for its rows."""
        self._blocks.append(np.zeros((BLOCK_ROWS, self.embedder.dim)))
        self._ids = np.concatenate([self._ids, np.zeros(BLOCK_ROWS, dtype=np.int64)])
        self._live = np.concatenate([self._live, np.zeros(BLOCK_ROWS, dtype=bool)])

    def remove(self, node_id: int) -> None:
        """Take the entry out of the live set; its id stays a tombstone until purged."""
        row = self._row_of.pop(node_id, None)
        if row is None:
            raise UnknownNodeError(f"id {node_id} not in index")
        self._live[row] = False
        self._tombstones.add(node_id)

    def purge(self, ids) -> None:
        """Drop ``ids`` and every tombstone, compacting storage to the live rows.

        A block whose rows are all live is kept where it is, not copied;
        the live rows of the other blocks are packed into new blocks after
        those. Bumps the generation.
        """
        for node_id in ids:
            row = self._row_of.pop(node_id, None)
            if row is not None:
                self._live[row] = False
        keep = np.flatnonzero(self._live)
        bounds = np.searchsorted(keep, np.arange(len(self._blocks) + 1) * BLOCK_ROWS)
        whole = np.diff(bounds) == BLOCK_ROWS
        in_whole = whole[keep // BLOCK_ROWS]
        order = np.concatenate([keep[in_whole], keep[~in_whole]])  # old row of each new row
        n, filled, blocks, kept_ids = len(order), self._rows, self._blocks, self._ids[order]
        self._blocks = [block for block, kept in zip(blocks, whole) if kept]
        self._rows = len(self._blocks) * BLOCK_ROWS
        self._ids = np.zeros(self._rows, dtype=np.int64)
        self._live = np.zeros(self._rows, dtype=bool)
        # Pack the live rows of the other blocks after the kept ones.
        for b in np.flatnonzero(~whole).tolist():
            block, blocks[b] = blocks[b], None  # released once its live rows moved
            moved = block[keep[bounds[b]:bounds[b + 1]] - b * BLOCK_ROWS]
            while len(moved):
                slot = self._rows % BLOCK_ROWS
                if slot == 0:
                    self._grow()
                take = moved[:BLOCK_ROWS - slot]
                self._blocks[-1][slot:slot + len(take)] = take
                self._rows += len(take)
                moved = moved[len(take):]
        self._ids[:n] = kept_ids
        self._live[:n] = True
        new_row = np.full(filled, -1, dtype=np.int64)
        new_row[order] = np.arange(n)
        # Remap all postings at once, then cut them back into one array per token.
        lengths = np.fromiter(map(len, self._postings.values()), np.int64, len(self._postings))
        mapped = new_row[np.frombuffer(b"".join(self._postings.values()), dtype=np.int64)]
        ends = np.cumsum(mapped >= 0)[np.cumsum(lengths) - 1].tolist()
        data = mapped[mapped >= 0].tobytes()
        postings, start = {}, 0
        for token, end in zip(self._postings, ends):
            if end > start:
                postings[token] = array("q", data[start * 8:end * 8])
            start = end
        self._postings = postings
        self._row_of = dict(zip(kept_ids.tolist(), range(n)))
        self._tombstones.clear()
        self.generation += 1

    def search(self, query: HybridQuery, allowed: Callable[[int], bool]) -> list:
        """Top-k allowed hits by combined score, ties broken by ascending id.

        ``allowed`` is the retrieval boundary: it must reject blocked ids
        and nodes that are not Active. Candidate generation fetches
        top_k * oversample_r before filtering; if fewer survive, the
        shorter list is returned.
        """
        if not self._row_of:
            return []
        qvec = self.embedder.embed(query.text)
        qtokens = set(tokenize(query.text))
        sem = np.empty(len(self._live))
        for start, block in zip(range(0, len(sem), BLOCK_ROWS), self._blocks):
            np.matmul(block, qvec, out=sem[start:start + BLOCK_ROWS])
        kw = np.zeros(len(sem))
        for token in qtokens:
            rows = self._postings.get(token)
            if rows is not None:
                kw[np.frombuffer(rows, dtype=np.int64)] += 1.0
        if qtokens:
            kw /= len(qtokens)
        combined = query.w_sem * sem + query.w_kw * kw
        live = np.flatnonzero(self._live)
        ranked = live[np.lexsort((self._ids[live], -combined[live]))]
        candidates = ranked[: query.top_k * query.oversample_r].tolist()
        survivors = [
            ScoredHit(node_id=node_id, sem_score=float(sem[row]), kw_score=float(kw[row]),
                      combined=float(combined[row]))
            for row, node_id in zip(candidates, self._ids[candidates].tolist())
            if allowed(node_id)
        ]
        return survivors[: query.top_k]

    def maybe_rebuild(self, blocklist: Blocklist, keep: Callable[[int], bool],
                      audit: AuditLog) -> RebuildResult:
        """Rebuild the index when |B| strictly exceeds tau.

        The rebuilt index holds only entries that are untombstoned,
        unblocked, and accepted by ``keep`` (Active in the store). Purged
        blocklist entries are handed to compaction afterwards.
        """
        if len(blocklist) <= self.tau:
            return RebuildResult(rebuilt=False)
        purged = sorted(self._tombstones.union(
            i for i in self._row_of if blocklist.is_blocked(i) or not keep(i)))
        audit.append(AuditOp.REBUILD, {
            "generation": self.generation + 1,
            "purged": purged,
            "size": len(self._row_of) + len(self._tombstones) - len(purged),
        })
        self.purge(purged)
        blocklist.compact(purged, self.generation, audit)
        return RebuildResult(rebuilt=True)

    # Persistence: the generation and the tombstones. The live entries are
    # the store's Active nodes, whose vectors are recomputed from content on load.

    def to_lines(self) -> list:
        return [canonical_json({"generation": self.generation})] + [
            canonical_json({"id": node_id}) for node_id in sorted(self._tombstones)]

    @classmethod
    def from_lines(cls, lines, embedder: HashingEmbedder, tau: int,
                   live: Iterable[tuple], known: Container[int]) -> "HybridIndex":
        """The saved index over ``live``, the (id, content) of every live entry.

        Each tombstone must name an id in ``known`` that is not live, once.
        """
        lines = list(lines)
        index = cls(embedder, tau=tau)
        index.generation = json.loads(lines[0])["generation"]
        for node_id, content in live:
            index.insert(node_id, content)
        for line in lines[1:]:
            node_id = json.loads(line)["id"]
            if node_id not in known:
                raise UnknownNodeError(f"tombstone {node_id} names an unknown node")
            if node_id in index:
                raise ValueError(f"tombstone {node_id} names a live entry")
            if node_id in index._tombstones:
                raise ValueError(f"tombstone {node_id} is listed twice")
            index._tombstones.add(node_id)
        return index
