"""Hybrid dense+keyword retrieval with blocklist enforcement.

A text's vector is the normalized sum of its tokens' vectors; each token
vector is drawn from a PCG64 whose state is the token's SHA-256 digest.
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
which drops the dead rows' postings and frees their rows for reuse. A
live entry never moves, and blocks never shrink in process. The index is
rebuilt (purged) when the blocklist outgrows a threshold.
"""

from __future__ import annotations

import hashlib
import json
import re
from array import array
from dataclasses import dataclass
from typing import Callable, Container, Iterable

import numpy as np

from .audit import AuditLog, AuditOp, Blocklist, canonical_json, json_record
from .graph import UnknownNodeError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

BLOCK_ROWS = 64


def tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


def token_seed(token: str) -> int:
    """A token's 64-bit hash; the featurizer's slot for it is this mod dim."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class HashingEmbedder:
    """Deterministic embedder: per-token gaussian vectors summed, unit norm.

    A token's vector is ``dim`` standard normals drawn from a PCG64 whose
    state is the token's SHA-256 digest: the first 16 bytes are the
    128-bit state, the last 16 the increment, with its low bit set. Any
    such pair is a valid PCG64 stream, so the digest is set directly,
    without numpy's seed-spreading pass. Identical text therefore maps to
    the identical vector, independent of process or platform, which keeps
    stores byte-reproducible.

    One bit generator serves every draw, its state set before each one.
    That is safe because an embedder serves one single-threaded store
    writer (and its copies), so no two draws interleave.

    A token's vector is cached from its second sighting on: most tokens
    of a store occur once, and a cached vector costs ``8 * dim`` bytes
    where a remembered seed costs an int.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._token_cache: dict[str, np.ndarray] = {}
        self._seen: set[int] = set()  # token_seed of every token embedded so far
        self._bits = np.random.PCG64(0)  # its state is set before each draw
        self._rng = np.random.Generator(self._bits)

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            self._bits.state = {
                "bit_generator": "PCG64",
                "state": {"state": int.from_bytes(digest[:16], "big"),
                          "inc": int.from_bytes(digest[16:], "big") | 1},
                "has_uint32": 0,
                "uinteger": 0,
            }
            vec = self._rng.standard_normal(self.dim)
            seed = int.from_bytes(digest[:8], "big")  # token_seed(token)
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

    An entry keeps its row from insert to removal. A new entry takes the
    lowest row a purge freed, else the next row of the last block.
    """

    def __init__(self, embedder: HashingEmbedder, tau: int):
        self.embedder = embedder
        self.tau = tau
        self.generation = 0
        self._blocks: list = []  # (BLOCK_ROWS, dim) arrays
        self._ids = np.zeros(0, dtype=np.int64)  # row -> id
        self._live = np.zeros(0, dtype=bool)  # row holds its id's current entry
        self._rows = 0  # rows filled, dead and freed ones included
        self._free: list = []  # purged rows below _rows, highest first
        self._row_of: dict[int, int] = {}  # live id -> row
        self._postings: dict[str, array] = {}  # token -> rows, unpurged dead ones included
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
        if self._free:
            row = self._free.pop()
        else:
            row = self._rows
            if row % BLOCK_ROWS == 0:  # a zero-filled block, with ids and live flags for its rows
                self._blocks.append(np.zeros((BLOCK_ROWS, self.embedder.dim)))
                self._ids = np.concatenate([self._ids, np.zeros(BLOCK_ROWS, dtype=np.int64)])
                self._live = np.concatenate([self._live, np.zeros(BLOCK_ROWS, dtype=bool)])
            self._rows += 1
        self._blocks[row // BLOCK_ROWS][row % BLOCK_ROWS] = vec
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

    def remove(self, node_id: int) -> None:
        """Take the entry out of the live set; its id stays a tombstone until purged."""
        row = self._row_of.pop(node_id, None)
        if row is None:
            raise UnknownNodeError(f"id {node_id} not in index")
        self._live[row] = False
        self._tombstones.add(node_id)

    def purge(self) -> None:
        """Drop every tombstone and free every dead row for reuse.

        Live rows stay where they are. Bumps the generation.
        """
        # Drop dead rows from all postings at once, then cut them back into one array per token.
        lengths = np.fromiter(map(len, self._postings.values()), np.int64, len(self._postings))
        rows = np.frombuffer(b"".join(self._postings.values()), dtype=np.int64)
        kept = self._live[rows]
        ends = np.cumsum(kept)[np.cumsum(lengths) - 1].tolist()
        data = rows[kept].tobytes()
        postings, start = {}, 0
        for token, end in zip(self._postings, ends):
            if end > start:
                postings[token] = array("q", data[start * 8:end * 8])
            start = end
        self._postings = postings
        self._free = np.flatnonzero(~self._live[:self._rows])[::-1].tolist()
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

    def maybe_rebuild(self, blocklist: Blocklist, audit: AuditLog) -> RebuildResult:
        """Purge the tombstones when |B| strictly exceeds tau, then compact the blocklist.

        The caller removes every id it blocks or deletes, so the tombstones
        are exactly the entries to drop and the live entries are exactly the
        Active nodes; the REBUILD record's ``size`` is the live count.
        """
        if len(blocklist) <= self.tau:
            return RebuildResult(rebuilt=False)
        audit.append(AuditOp.REBUILD, {
            "generation": self.generation + 1,
            "purged": sorted(self._tombstones),
            "size": len(self._row_of),
        })
        self.purge()
        blocklist.compact(self.generation, audit)
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
        lines = iter(lines)
        index = cls(embedder, tau=tau)
        (index.generation,) = json_record(json.loads(next(lines)), {"generation": int})
        for node_id, content in live:
            index.insert(node_id, content)
        for line in lines:
            (node_id,) = json_record(json.loads(line), {"id": int})
            if node_id not in known:
                raise UnknownNodeError(f"tombstone {node_id} names an unknown node")
            if node_id in index:
                raise ValueError(f"tombstone {node_id} names a live entry")
            if node_id in index._tombstones:
                raise ValueError(f"tombstone {node_id} is listed twice")
            index._tombstones.add(node_id)
        return index
