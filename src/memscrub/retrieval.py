"""Hybrid dense+keyword retrieval through a caller's boundary filter.

A text's vector is the sum of its tokens' ±1 sign vectors, each read from
the token's ``shake_256`` digest, so every vector is a small integer
vector. Every live entry is scored exactly (cosine similarity fused with
token overlap by one weight), and the ranking is walked in order through
the caller's ``allowed`` filter (a store's: blocklist, status) until top-k pass.

The index keeps the integer vectors as float32 rows of zero-filled blocks
of ``BLOCK_ROWS`` rows, with a row -> id array, a row -> norm array, and
keyword overlap as postings (token -> rows). An insert takes only a row
and an id: its text waits in a pending map, and the next search first
grows the blocks to cover every row, then tokenizes each pending text
once for its vector and its postings, ``FLUSH_ROWS`` texts at a time. So
a store written or loaded and never searched (``memscrub store``,
``memscrub unlearn``) holds no block and no postings, and an entry
removed before any search is never embedded or posted. A search runs one
mat-vec over each whole block, whose integer dot products are exact (see
``HybridIndex.search``), so identical texts score bit-identically at any
row, and adds one at each row in the postings of each query token.
A removal takes the entry out of the live set at once and keeps its id
as a tombstone; its dead row and postings stay until the next purge,
which drops the dead rows' postings and frees their rows for reuse. A
live entry never moves, and blocks never shrink in process. The index is
rebuilt (purged) when the blocklist outgrows a threshold.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .audit import AuditLog, AuditOp, Blocklist, canonical_json
from .graph import UnknownNodeError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

BLOCK_ROWS = 64
FLUSH_ROWS = 16  # texts embedded together when a search writes the pending rows


def tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


def token_seed(token: str) -> int:
    """A token's 64-bit hash; the featurizer's slot for it is this mod dim."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class HashingEmbedder:
    """Deterministic embedder: per-token ±1 sign vectors summed into integer counts.

    A token's vector holds the first ``dim`` bits of the token's
    ``shake_256`` digest, most significant bit of each byte first, read as
    +1 for a set bit and -1 for a clear one: a Rademacher random projection
    (Achlioptas, *Database-friendly random projections*, JCSS 2003). A
    text's vector is the sum of its tokens' sign vectors, an int64 vector
    whose entries are at most the token count in magnitude. If that sum is
    all zero, the text takes the ``<degenerate>`` token's signs instead.
    Identical text therefore maps to the identical vector, independent of
    process or platform, which keeps stores byte-reproducible. The embedder
    keeps no state beyond ``dim``: each distinct token of a batch costs one
    hash and an unpack.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def _bits(self, tokens) -> np.ndarray:
        """(len(tokens), dim) uint8: each token's signs, 1 for +1 and 0 for -1."""
        size = (self.dim + 7) // 8
        digests = b"".join([hashlib.shake_256(token.encode("utf-8")).digest(size)
                            for token in tokens])
        return np.unpackbits(np.frombuffer(digests, dtype=np.uint8).reshape(-1, size),
                             axis=1, count=self.dim)

    def embed_many(self, token_lists) -> np.ndarray:
        """(len(token_lists), dim) int64: row ``i`` is the vector of the text
        whose ``tokenize`` is ``token_lists[i]``.

        Each distinct token is hashed once. One float32 matmul of the
        texts' token occurrence counts by the tokens' sign bits counts each
        text's +1 signs per dimension; every partial sum is an integer at
        most the text's token count, so the product is exact while a text
        has fewer than 2**24 tokens.
        """
        token_lists = [tokens or ["<empty>"] for tokens in token_lists]
        tokens = list(itertools.chain.from_iterable(token_lists))
        column = {token: j for j, token in enumerate(dict.fromkeys(tokens))}
        n, m = len(token_lists), len(column)
        lengths = np.fromiter(map(len, token_lists), np.int64, n)
        cells = np.fromiter(map(column.__getitem__, tokens), np.int64, len(tokens))
        cells += np.repeat(np.arange(n) * m, lengths)
        occurrences = np.bincount(cells, minlength=n * m).reshape(n, m).astype(np.float32)
        ones = occurrences @ self._bits(column).astype(np.float32)
        counts = 2 * ones.astype(np.int64) - lengths[:, None]
        nonzero = counts.any(axis=1)
        if not nonzero.all():
            counts[~nonzero] = 2 * self._bits(["<degenerate>"]).astype(np.int64) - 1
        return counts

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([tokenize(text)])[0]


def _norm(counts: np.ndarray) -> float:
    """The Euclidean norm of an integer count vector, from its exact squared sum."""
    return math.sqrt(int(counts @ counts))


@dataclass
class RetrievalSettings:
    """The memory pathway's config keys: search, rebuild and default-embedder settings."""

    top_k: int = 5
    w_kw: float = 0.3  # keyword weight; the semantic score weighs 1 - w_kw
    tau: int = 100
    embed_dim: int = 256

    def __post_init__(self):  # so a bad config fails when it is read
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not 0.0 <= self.w_kw <= 1.0:
            raise ValueError("w_kw must lie in [0, 1]")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")


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
    lowest row a purge freed, else the next row. Its counts, norm and
    postings are written by the first search after its insert, which
    embeds the pending texts ``FLUSH_ROWS`` at a time; until then the
    index holds for it only its id, its live flag and its text. The
    pending map holds only live entries' texts, so a removed entry's text
    leaves the index with it, and a row enters the postings only once
    written.
    """

    def __init__(self, embedder: HashingEmbedder, settings: RetrievalSettings):
        self.embedder = embedder
        self.settings = settings  # top_k and w_kw for each search, tau for each rebuild
        self.generation = 0
        self._blocks: list = []  # (BLOCK_ROWS, dim) float32 arrays of token counts, grown by a search
        self._ids = np.zeros(0, dtype=np.int64)  # row -> id
        self._norms = np.zeros(0)  # row of a block -> its counts' norm; 1.0 in a row never written, which scores 0
        self._live = np.zeros(0, dtype=bool)  # row holds its id's current entry
        self._rows = 0  # rows filled, dead and freed ones included
        self._free: list = []  # purged rows below _rows, highest first
        self._row_of: dict[int, int] = {}  # live id -> row
        self._pending: dict[int, str] = {}  # live row -> its text, until a search writes the row
        self._postings: dict[str, array] = {}  # token -> written rows, unpurged dead ones included
        self._tombstones: set = set()

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._row_of

    def __len__(self) -> int:
        return len(self._row_of)

    def tombstones(self) -> list:
        """Ids removed since the last purge, ascending."""
        return sorted(self._tombstones)

    def insert(self, node_id: int, text: str) -> None:
        """Add ``node_id``, an id the index has never held, with its ``text``."""
        if self._free:
            row = self._free.pop()
        else:
            row = self._rows
            if row % BLOCK_ROWS == 0:  # ids and live flags for the next block's rows
                self._ids = np.concatenate([self._ids, np.zeros(BLOCK_ROWS, dtype=np.int64)])
                self._live = np.concatenate([self._live, np.zeros(BLOCK_ROWS, dtype=bool)])
            self._rows += 1
        self._pending[row] = text
        self._ids[row] = node_id
        self._live[row] = True
        self._row_of[node_id] = row

    def remove(self, node_id: int) -> None:
        """Take the entry out of the live set; its id stays a tombstone until purged."""
        row = self._row_of.pop(node_id, None)
        if row is None:
            raise UnknownNodeError(f"id {node_id} not in index")
        self._live[row] = False
        self._pending.pop(row, None)
        self._tombstones.add(node_id)

    def _flush(self) -> None:
        """Cover every row with blocks, then write the counts, norm and postings
        of every pending row, ``FLUSH_ROWS`` texts at a time.

        Each text is tokenized once, for its vector and its postings. A chunk
        leaves the pending map before it is embedded and goes back if
        embedding raises, so a failed flush leaves every unwritten row
        pending and out of the postings.
        """
        missing = len(self._live) // BLOCK_ROWS - len(self._blocks)
        if missing:  # zero-filled blocks, with a norm of 1.0 for each of their rows
            self._blocks += [np.zeros((BLOCK_ROWS, self.embedder.dim), dtype=np.float32)
                             for _ in range(missing)]
            self._norms = np.concatenate([self._norms, np.ones(missing * BLOCK_ROWS)])
        pending, postings = self._pending, self._postings
        while pending:
            chunk = [pending.popitem() for _ in range(min(FLUSH_ROWS, len(pending)))]
            try:
                token_lists = [tokenize(text) for _, text in chunk]
                counts = self.embedder.embed_many(token_lists)
            except BaseException:
                pending.update(chunk)
                raise
            for (row, _), tokens, row_counts in zip(chunk, token_lists, counts):
                self._blocks[row // BLOCK_ROWS][row % BLOCK_ROWS] = row_counts
                self._norms[row] = _norm(row_counts)
                for token in set(tokens):
                    rows = postings.get(token)
                    if rows is None:
                        postings[token] = array("q", (row,))
                    else:
                        rows.append(row)
        self._pending = {}  # frees the table, which an emptied dict keeps

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

    def search(self, text: str, allowed: Callable[[int], bool]) -> list:
        """Top-k allowed hits for ``text`` by combined score, ties broken by ascending id.

        Every pending row is written first (``_flush``). A row's semantic
        score is ``(row · q) / (‖row‖ · ‖q‖)`` for the query's counts
        ``q``, each norm a float64 taken from the exact squared sum. The
        float32 dot product sums integers, each partial sum at most
        ``embed_dim · n_tokens(entry) · n_tokens(text)`` in magnitude, so
        while that bound is below 2**24 the dot is exact and the same in
        any summation order.

        ``allowed`` is the retrieval boundary: it must reject blocked ids
        and nodes that are not Active. The ranking of the live rows is
        walked in order through ``allowed`` until ``top_k`` rows pass, so
        fewer hits come back only when fewer live rows pass.
        """
        if not self._row_of:
            return []
        self._flush()
        qcounts = self.embedder.embed(text)
        qrow = qcounts.astype(np.float32)
        qtokens = set(tokenize(text))
        dots = np.empty(len(self._live), dtype=np.float32)
        for start, block in zip(range(0, len(dots), BLOCK_ROWS), self._blocks):
            np.matmul(block, qrow, out=dots[start:start + BLOCK_ROWS])
        sem = dots / (self._norms * _norm(qcounts))
        kw = np.zeros(len(sem))
        for token in qtokens:
            rows = self._postings.get(token)
            if rows is not None:
                kw[np.frombuffer(rows, dtype=np.int64)] += 1.0
        if qtokens:
            kw /= len(qtokens)
        w_kw = self.settings.w_kw
        combined = (1.0 - w_kw) * sem + w_kw * kw  # 1.0 - 0.3 is 0.7 exactly
        live = np.flatnonzero(self._live)
        ranked = live[np.lexsort((self._ids[live], -combined[live]))]
        accepted = (row for row in ranked if allowed(int(self._ids[row])))
        return [ScoredHit(int(self._ids[row]), float(sem[row]), float(kw[row]), float(combined[row]))
                for row in itertools.islice(accepted, self.settings.top_k)]

    def maybe_rebuild(self, blocklist: Blocklist, audit: AuditLog) -> RebuildResult:
        """Purge the tombstones when |B| strictly exceeds tau, then compact the blocklist.

        The caller removes every id it blocks or deletes, so the tombstones
        are exactly the entries to drop and the live entries are exactly the
        Active nodes; the REBUILD record's ``size`` is the live count. Only
        this purge runs in a store, after its REBUILD record, so the log's
        REBUILD count is the generation.
        """
        if len(blocklist) <= self.settings.tau:
            return RebuildResult(rebuilt=False)
        audit.append(AuditOp.REBUILD, {
            "generation": self.generation + 1,
            "purged": self.tombstones(),
            "size": len(self._row_of),
        })
        self.purge()
        blocklist.compact(self.generation, audit)
        return RebuildResult(rebuilt=True)

    # Persistence: none. A store's live entries are its Active nodes, whose
    # vectors the first search after load recomputes from content; its node
    # records and audit log give the tombstones and the generation.

    def to_lines(self) -> list:
        """The tombstones as ``{"id"}`` lines; only the benchmark's checkpoint and tests call it."""
        return [canonical_json({"id": node_id}) for node_id in self.tombstones()]

    @classmethod
    def restore(cls, embedder: HashingEmbedder, settings: RetrievalSettings, generation: int,
                live: Iterable[tuple], tombstones: Iterable[int]) -> "HybridIndex":
        """The index at ``generation`` over ``live``, the (id, content) of every live
        entry, with ``tombstones`` removed since its last purge."""
        index = cls(embedder, settings)
        index.generation = generation
        for node_id, content in live:
            index.insert(node_id, content)
        index._tombstones.update(tombstones)
        return index
