"""Memory store: graph + blocklist + audit log + hybrid index, one writer.

The store owns the retrieval boundary (blocklist and status filtering)
and the memory half of the unlearning protocol: block, closure prune,
vector removal, threshold-triggered rebuild, archive record.

This module also owns the store-directory layout: the line-delimited
files and their version headers, the model file and the lock. Reload
reproduces ref_counts, statuses and search behavior exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .audit import AuditLog, AuditOp, Blocklist, content_digest
from .graph import (
    ForgetRequest,
    Layer,
    MemoryGraph,
    PruneReport,
    Status,
)
from .retrieval import HashingEmbedder, HybridIndex, HybridQuery
from .training import ModelState

# The files MemoryStore.save writes, with their version headers.
FILE_HEADERS = {
    "nodes.jsonl": "memscrub-nodes v1",
    "edges.jsonl": "memscrub-edges v1",
    "blocklist.jsonl": "memscrub-blocklist v1",
    "audit.jsonl": "memscrub-audit v1",
    "index.jsonl": "memscrub-index v1",
}
MODEL_HEADER = "memscrub-model v1"
PROVENANCE_HEADER = "memscrub-provenance v1"
CONFIG_HEADER = "# memscrub config v1"


def write_lines(path: Path, header, lines) -> None:
    """Write ``lines`` newline-terminated, after ``header`` unless it is None."""
    body = ([header] if header else []) + list(lines)
    Path(path).write_text("\n".join(body) + "\n", encoding="utf-8")


def read_lines(path: Path, header=None) -> list:
    """Lines of a file; with ``header``, check and strip it (ValueError if wrong)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if header is None:
        return lines
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: missing or wrong version header")
    return lines[1:]


def save_model(store_dir: Path, model: ModelState) -> None:
    line = json.dumps(model.to_record(), sort_keys=True, separators=(",", ":"))
    write_lines(Path(store_dir) / "model.jsonl", MODEL_HEADER, [line])


def load_model(store_dir: Path) -> ModelState:
    (line,) = read_lines(Path(store_dir) / "model.jsonl", MODEL_HEADER)
    return ModelState.from_record(json.loads(line))


@contextlib.contextmanager
def store_lock(store_dir: Path):
    """Hold the store directory's lock file; SystemExit if another process holds it."""
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    lock_path = store_dir / "lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise SystemExit(f"store {store_dir} is locked by another process "
                         f"(remove {lock_path} if stale)")
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        lock_path.unlink(missing_ok=True)


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

    def search(self, text: str, top_k: Optional[int] = None,
               oversample_r: Optional[int] = None) -> list:
        query = HybridQuery(
            text=text,
            top_k=top_k if top_k is not None else self.settings.top_k,
            oversample_r=oversample_r if oversample_r is not None else self.settings.oversample_r,
            w_sem=self.settings.w_sem,
            w_kw=self.settings.w_kw,
        )
        return self.index.search(query, allowed=self._allowed)

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
        for node_id in removed:
            self.index.remove(node_id)
        for node_id in report.outdated_ids:
            if node_id in self.index:
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
        payloads = {
            "nodes.jsonl": self.graph.node_lines(),
            "edges.jsonl": self.graph.edge_lines(),
            "blocklist.jsonl": self.blocklist.to_lines(),
            "audit.jsonl": self.audit.to_lines(),
            "index.jsonl": self.index.to_lines(),
        }
        for name, lines in payloads.items():
            write_lines(directory / name, FILE_HEADERS[name], lines)

    @classmethod
    def load(cls, directory, settings: Optional[RetrievalSettings] = None,
             embedder=None) -> "MemoryStore":
        directory = Path(directory)
        store = cls(settings=settings, embedder=embedder)

        def parse(names, build):
            # A truncated or inconsistent file is a ValueError naming the file.
            lines = [read_lines(directory / name, FILE_HEADERS[name]) for name in names]
            try:
                return build(*lines)
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                files = ", ".join(str(directory / name) for name in names)
                raise ValueError(f"{files}: malformed store file: {exc!r}") from exc

        store.audit = parse(["audit.jsonl"], AuditLog.from_lines)
        store.graph = parse(["nodes.jsonl", "edges.jsonl"], lambda nodes, edges:
                            MemoryGraph.from_lines(nodes, edges, audit=store.audit))
        store.blocklist = parse(["blocklist.jsonl"], Blocklist.from_lines)
        store.index = parse(["index.jsonl"], lambda index: HybridIndex.from_lines(
            index, store.embedder, tau=store.settings.tau,
            content_for=lambda i: store.graph.node(i).content,
        ))
        return store

    def copy(self) -> "MemoryStore":
        """Deep copy for baseline comparisons; shares nothing mutable."""
        clone = MemoryStore(settings=self.settings, embedder=self.embedder)
        clone.audit = AuditLog.from_lines(self.audit.to_lines())
        clone.graph = MemoryGraph.from_lines(self.graph.node_lines(),
                                             self.graph.edge_lines(), audit=clone.audit)
        clone.blocklist = Blocklist.from_lines(self.blocklist.to_lines())
        clone.index = self.index.copy()
        return clone
