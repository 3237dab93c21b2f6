"""Memory store: graph + blocklist + audit log + hybrid index, one writer.

The store owns the retrieval boundary (blocklist and status filtering)
and the memory half of the unlearning protocol: block, closure prune,
vector removal, threshold-triggered rebuild, archive record.

This module also owns the store-directory layout: the line-delimited
files and their version headers, the model file and the lock. Reload
reproduces ref_counts, statuses and search behavior exactly: the nodes
file alone says which nodes are live, and the index file adds only its
generation and tombstones.
"""

from __future__ import annotations

import contextlib
import copy
import fcntl
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .audit import AuditLog, AuditOp, Blocklist, canonical_json, content_digest
from .graph import (
    ForgetRequest,
    Layer,
    MemoryGraph,
    PruneReport,
    Status,
)
from .retrieval import HashingEmbedder, HybridIndex, HybridQuery
from .training import ModelState

# The files MemoryStore.save writes, with their version headers, in the
# order MemoryStore.load unpacks them.
FILE_HEADERS = {
    "nodes.jsonl": "memscrub-nodes v2",
    "edges.jsonl": "memscrub-edges v1",
    "blocklist.jsonl": "memscrub-blocklist v1",
    "audit.jsonl": "memscrub-audit v1",
    "index.jsonl": "memscrub-index v2",
}
MODEL_HEADER = "memscrub-model v2"
PROVENANCE_HEADER = "memscrub-provenance v1"
CONFIG_HEADER = "# memscrub config v1"


def write_lines(path: Path, header, lines) -> None:
    """Write ``lines`` newline-terminated, after ``header`` unless it is None.

    Lines go to the open file one by one; with neither header nor lines
    the file is one bare newline.
    """
    body = itertools.chain([header] if header else [], lines)
    with open(path, "w", encoding="utf-8") as f:
        f.write(next(body, "") + "\n")
        f.writelines(line + "\n" for line in body)


def read_lines(path: Path, header=None) -> list:
    """Lines of a file; with ``header``, check and strip it (ValueError if wrong).

    The file is read line by line. With ``newline=""`` a line read ends in
    at most one CR, LF or CRLF, untranslated, so splitting each one gives
    the lines of ``read_text().splitlines()``. A file that is not UTF-8 is
    a ValueError naming it.
    """
    try:
        with open(path, encoding="utf-8", newline="") as f:
            lines = [s for chunk in f for s in chunk.splitlines()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    if header is None:
        return lines
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: missing or wrong version header")
    return lines[1:]


def parse_lines(build, *files):
    """``build(*lines)`` over the ``(path, header)`` pairs in ``files``.

    A wrong header, or a record ``build`` cannot parse, is a ValueError
    naming the file, which the CLI reports as ``error: <file>: …``.
    """
    lines = [read_lines(path, header) for path, header in files]
    try:
        return build(*lines)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        names = ", ".join(str(path) for path, _ in files)
        raise ValueError(f"{names}: malformed file: {exc!r}") from exc


def save_model(store_dir: Path, model: ModelState) -> None:
    write_lines(Path(store_dir) / "model.jsonl", MODEL_HEADER,
                [canonical_json(model.to_record())])


def load_model(store_dir: Path) -> ModelState:
    def build(lines):
        (line,) = lines
        return ModelState.from_record(json.loads(line))

    return parse_lines(build, (Path(store_dir) / "model.jsonl", MODEL_HEADER))


@contextlib.contextmanager
def store_lock(store_dir: Path):
    """Hold an exclusive flock on the store's lock file; SystemExit if another process holds it.

    The kernel drops the lock when its holder exits, killed or not. The
    empty file stays: unlinking a locked file would let the next two
    processes lock different inodes.
    """
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    with open(store_dir / "lock", "a") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SystemExit(f"store {store_dir} is locked by another process") from None
        yield


class BlockedContentError(ValueError):
    """Write rejected: content digest matches a blocked item."""


@dataclass
class RetrievalSettings:
    top_k: int = 5
    oversample_r: int = 3
    w_sem: float = 0.7
    w_kw: float = 0.3
    tau: int = 100
    embed_dim: int = 256

    def __post_init__(self):
        self.query("")  # HybridQuery checks the keys, so a bad config fails when it is read

    def query(self, text: str) -> HybridQuery:
        return HybridQuery(text, self.top_k, self.oversample_r, self.w_sem, self.w_kw)


@dataclass
class MemoryPhaseReport:
    request_id: str
    prune: PruneReport
    closure_size: int
    blocklist_size: int
    rebuilt: bool
    index_generation: int
    audit_head: str
    captured: list = field(default_factory=list)  # (node_id, content) of live targets, ephemeral

    def to_record(self) -> dict:
        return {
            "request_id": self.request_id,
            "prune": self.prune.counts(),
            "closure_size": self.closure_size,
            "blocklist_size": self.blocklist_size,
            "rebuilt": self.rebuilt,
            "index_generation": self.index_generation,
            "audit_head": self.audit_head,
        }


class MemoryStore:
    def __init__(self, settings: Optional[RetrievalSettings] = None, embedder=None):
        self.settings = settings or RetrievalSettings()
        self.audit = AuditLog()
        self.graph = MemoryGraph(audit=self.audit)
        self.blocklist = Blocklist()
        self.embedder = embedder or HashingEmbedder(self.settings.embed_dim)
        self.index = HybridIndex(self.embedder, tau=self.settings.tau)

    # ------------------------------------------------------------------
    # Write / read boundary
    # ------------------------------------------------------------------

    def write(self, layer: Layer, content: str, parents: Iterable[int] = ()) -> int:
        digest = content_digest(content)
        if self.blocklist.has_digest(digest):
            raise BlockedContentError("content matches a blocked item and cannot be rewritten")
        node_id = self.graph.add_memory(layer, content, parents)
        self.index.insert(node_id, content)
        return node_id

    def _allowed(self, node_id: int) -> bool:
        if self.blocklist.is_blocked(node_id):
            return False
        node = self.graph.nodes.get(node_id)
        return node is not None and node.status is Status.ACTIVE

    def search(self, text: str) -> list:
        return self.index.search(self.settings.query(text), allowed=self._allowed)

    def content(self, node_id: int) -> str:
        return self.graph.node(node_id).content

    # ------------------------------------------------------------------
    # Memory unlearning phase
    # ------------------------------------------------------------------

    def forget(self, request: ForgetRequest) -> MemoryPhaseReport:
        """Block -> closure prune -> vector removal -> conditional rebuild -> archive.

        Idempotent: repeating a processed request leaves graph, index and
        blocklist membership unchanged.
        """
        targets = sorted(request.targets)
        captured = []
        digests = []
        for t in targets:
            node = self.graph.node(t)
            if node.status is Status.ACTIVE:
                captured.append((t, node.content))
                digests.append(content_digest(node.content))

        self.blocklist.block(targets, self.audit, digests=digests,
                             index_generation=self.index.generation)
        closure = self.graph.dependency_closure(targets)
        report = self.graph.prune(request, closure, is_blocked=self.blocklist.is_blocked)
        self.audit.append(AuditOp.PRUNE, {
            "request_id": request.request_id,
            "counts": report.counts(),
        })
        removed = [i for i in report.removed_ids if i in self.index]
        for node_id in removed + [i for i in report.outdated_ids if i in self.index]:
            self.index.remove(node_id)
        if removed or report.outdated_ids:
            self.audit.append(AuditOp.DELETE, {
                "request_id": request.request_id,
                "ids": sorted(removed + report.outdated_ids),
            })
        rebuild = self.index.maybe_rebuild(
            self.blocklist,
            keep=lambda i: self.graph.nodes[i].status is Status.ACTIVE,
            audit=self.audit,
        )
        self.audit.append(AuditOp.ARCHIVE, {
            "request_id": request.request_id,
            "prune": report.counts(),
            "closure_size": len(closure),
            "rebuilt": rebuild.rebuilt,
        })
        return MemoryPhaseReport(
            request_id=request.request_id,
            prune=report,
            closure_size=len(closure),
            blocklist_size=len(self.blocklist),
            rebuilt=rebuild.rebuilt,
            index_generation=self.index.generation,
            audit_head=self.audit.head_hash(),
            captured=captured,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # One file's lines are built at a time, so at most one list is resident.
        payloads = {
            "nodes.jsonl": self.graph.node_lines,
            "edges.jsonl": self.graph.edge_lines,
            "blocklist.jsonl": self.blocklist.to_lines,
            "audit.jsonl": self.audit.to_lines,
            "index.jsonl": self.index.to_lines,
        }
        for name, to_lines in payloads.items():
            write_lines(directory / name, FILE_HEADERS[name], to_lines())

    @classmethod
    def load(cls, directory, settings: Optional[RetrievalSettings] = None) -> "MemoryStore":
        store = cls(settings=settings)
        nodes, edges, blocklist, audit, index = (
            (Path(directory) / name, header) for name, header in FILE_HEADERS.items())
        store.audit = parse_lines(AuditLog.from_lines, audit)
        store.graph = parse_lines(lambda node_lines, edge_lines: MemoryGraph.from_lines(
            node_lines, edge_lines, audit=store.audit), nodes, edges)
        store.blocklist = parse_lines(Blocklist.from_lines, blocklist)
        store.index = parse_lines(lambda lines: HybridIndex.from_lines(
            lines, store.embedder, tau=store.settings.tau,
            live=((i, store.graph.nodes[i].content) for i in store.graph.active_view()),
            known=store.graph.nodes,
        ), index)
        return store

    def copy(self) -> "MemoryStore":
        """Deep copy for baseline comparisons; shares only the settings and the embedder."""
        return copy.deepcopy(self, {id(self.settings): self.settings,
                                    id(self.embedder): self.embedder})
