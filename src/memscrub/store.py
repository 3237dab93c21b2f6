"""Memory store: graph + blocklist + audit log + hybrid index, one writer.

The store owns the retrieval boundary (blocklist and status filtering)
and the memory half of the unlearning protocol: block, closure prune,
vector removal, threshold-triggered rebuild, archive record.

This module also owns the store directory: it names every file there,
reads and writes each (the config snapshot for ``memscrub.config``) and
holds the lock; a file is replaced whole, through a temp sibling. Reload
reproduces statuses and reference counts (derived, not stored) and
search behavior exactly: the nodes file alone says which nodes exist,
what each derives from, which are live, which content digests are
blocked and in which index generation a forget removed each node; the
audit log's REBUILD count is the current generation, and the nodes
removed in it are the tombstones, whose episodic ids are the blocked
ids. Load checks each file against the code that writes it: the nodes
file through ``add_memory``'s own structural rules, then the graph's
``check_consistency`` and the audit log's WRITE count.
"""

from __future__ import annotations

import contextlib
import copy
import fcntl
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .audit import AuditLog, AuditOp, Blocklist, canonical_json, content_digest, record_of
from .corpus import CHOICES, Provenance, corpus_from_lines, corpus_lines
from .graph import (
    ForgetRequest,
    Layer,
    MemoryGraph,
    PruneReport,
    Status,
)
from .retrieval import HashingEmbedder, HybridIndex, RetrievalSettings
from .training import ModelState

# The files MemoryStore.save writes, with their version headers, in the order
# MemoryStore.load unpacks them; load derives the index and the blocklist from them.
FILE_HEADERS = {
    "nodes.jsonl": "memscrub-nodes v7",
    "audit.jsonl": "memscrub-audit v2",
}
MODEL_HEADER = "memscrub-model v2"
PROVENANCE_HEADER = "memscrub-provenance v1"
CONFIG_HEADER = "# memscrub config v1"


@contextlib.contextmanager
def _replacing(path):
    """A text file, the temp sibling ``.<name>.tmp``, that replaces ``path`` when the block ends;
    on any error it is deleted and ``path`` kept, and an OS error on it names ``path`` instead."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as f:
            yield f
        os.replace(temp, path)
    except OSError as exc:
        if exc.filename == str(temp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise
    finally:
        temp.unlink(missing_ok=True)


def write_lines(path: Path, header, lines) -> None:
    """Write ``lines`` newline-terminated, after ``header`` unless it is None.

    Lines go to the open file one by one; with neither header nor lines
    the file is one bare newline.
    """
    body = itertools.chain([header] if header else [], lines)
    with _replacing(path) as f:
        f.write(next(body, "") + "\n")
        f.writelines(line + "\n" for line in body)


class NotUTF8Error(ValueError):
    """A file that is not UTF-8 text; reported as it is, not as a malformed record."""


def _text_lines(f, path):
    """The lines of the open text file ``f``.

    With ``newline=""`` a line read ends in at most one CR, LF or CRLF,
    untranslated, so splitting each one gives the lines of
    ``read_text().splitlines()``.
    """
    try:
        for chunk in f:
            yield from chunk.splitlines()
    except UnicodeDecodeError as exc:
        raise NotUTF8Error(f"{path}: not UTF-8 text: {exc.reason}") from exc


def parse_lines(build, file):
    """``build(lines)`` over the ``(path, header)`` pair ``file``.

    The header, unless it is None, is checked first; ``build`` then gets an
    iterator over the remaining lines, read as it advances. A wrong
    header, a byte that is not UTF-8, or a record ``build`` cannot parse
    is a ValueError naming the file, which the CLI reports as
    ``error: <file>: …``.
    """
    path, header = file
    with open(path, encoding="utf-8", newline="") as f:
        lines = _text_lines(f, path)
        if header is not None and next(lines, None) != header:
            raise ValueError(f"{path}: missing or wrong version header")
        try:
            return build(lines)
        except NotUTF8Error:
            raise
        except (IndexError, KeyError, StopIteration, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed file: {exc!r}") from exc


def save_model(store_dir: Path, model: ModelState) -> None:
    """Write the model file: its header line, then the model's record on one line.

    The record goes to the open file one parameter row at a time, so no
    string holds a whole matrix.
    """
    with _replacing(Path(store_dir) / "model.jsonl") as f:
        f.write(MODEL_HEADER + "\n")
        f.writelines(model.record_pieces())
        f.write("\n")


def load_model(store_dir: Path, n_features: int) -> ModelState:
    """The store's model, whose ``w1`` must have one row per feature and
    whose ``b2`` one entry per answer choice."""
    def build(lines):
        (line,) = lines
        record = json.loads(line)
        del line  # released before from_record builds the arrays
        model = ModelState.from_record(record)
        rows = model.params["w1"].shape[0]
        if rows != n_features:
            raise ValueError(f"w1 has {rows} rows, not feature_dim {n_features}")
        if model.n_classes != len(CHOICES):
            raise ValueError(f"b2 has {model.n_classes} classes, not one per answer choice "
                             f"({len(CHOICES)})")
        return model

    return parse_lines(build, (Path(store_dir) / "model.jsonl", MODEL_HEADER))


def existing_store_dir(store_dir) -> Path:
    """``store_dir`` as a Path; a ValueError naming it unless it is a directory."""
    if not Path(store_dir).is_dir():
        raise ValueError(f"{store_dir}: no such store directory")
    return Path(store_dir)


def save_corpus(store_dir: Path, items, prov: Provenance) -> None:
    """Write the store's copy of the corpus ``items`` and their ``prov``enance."""
    write_lines(store_dir / "corpus.jsonl", None, corpus_lines(items))
    write_lines(store_dir / "provenance.jsonl", PROVENANCE_HEADER, prov.to_lines())


def load_corpus(store_dir: Path, graph: MemoryGraph):
    """The store's corpus items and their provenance, checked against ``graph``."""
    items = parse_lines(corpus_from_lines, (store_dir / "corpus.jsonl", None))
    return items, parse_lines(lambda lines: Provenance.from_lines(lines).checked(graph, items),
                              (store_dir / "provenance.jsonl", PROVENANCE_HEADER))


def write_metrics(store_dir: Path, name: str, records) -> list:
    """Write ``records`` as the store's ``metrics/<name>.jsonl``; returns the JSON lines."""
    lines = [canonical_json(r) for r in records]
    (store_dir / "metrics").mkdir(exist_ok=True)
    write_lines(store_dir / "metrics" / f"{name}.jsonl", None, lines)
    return lines


def audit_file(store_dir):
    """The ``(path, header)`` of the audit log of the existing store ``store_dir``."""
    return existing_store_dir(store_dir) / "audit.jsonl", FILE_HEADERS["audit.jsonl"]


def config_snapshot(store_dir) -> Path:
    """The path of the store's config snapshot, which ``memscrub.config`` reads and writes."""
    return Path(store_dir) / "config.cfg"


@contextlib.contextmanager
def store_lock(store_dir: Path):
    """Hold an exclusive flock on the store's lock file; SystemExit if another process holds it.

    The store directory must exist, so a mistyped path fails here, naming
    the directory, and creates nothing. The kernel drops the lock when its
    holder exits, killed or not. The empty file stays: unlinking a locked
    file would let the next two processes lock different inodes.
    """
    with open(existing_store_dir(store_dir) / "lock", "a") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise SystemExit(f"store {store_dir} is locked by another process") from None
        yield


class BlockedContentError(ValueError):
    """Write rejected: content digest matches a blocked item."""


@dataclass
class MemoryPhaseReport:
    request_id: str
    prune: PruneReport
    closure_size: int
    blocklist_size: int
    rebuilt: bool
    index_generation: int
    audit_head: str

    def to_record(self) -> dict:
        return {**record_of(self), "prune": self.prune.counts()}


class MemoryStore:
    def __init__(self, settings: Optional[RetrievalSettings] = None, embedder=None):
        self.settings = settings or RetrievalSettings()
        self.audit = AuditLog()
        self.graph = MemoryGraph(audit=self.audit)
        self.blocklist = Blocklist()
        self.embedder = embedder or HashingEmbedder(self.settings.embed_dim)
        self.index = HybridIndex(self.embedder, self.settings)

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
        return self.index.search(text, allowed=self._allowed)

    def content(self, node_id: int) -> str:
        return self.graph.node(node_id).content

    # ------------------------------------------------------------------
    # Memory unlearning phase
    # ------------------------------------------------------------------

    def forget(self, request: ForgetRequest) -> MemoryPhaseReport:
        """Block -> closure prune -> vector removal -> conditional rebuild -> archive.

        Only the Active targets and their content digests are blocked, and
        each is then taken out of the index, so the blocked ids stay the
        index's episodic tombstones. Repeating a processed request blocks
        nothing and leaves graph, index and generation unchanged.
        """
        targets = sorted(request.targets)
        digests = {}
        for t in targets:
            node = self.graph.forget_target(t)  # rejects the request before its BLOCK record
            if node.status is Status.ACTIVE:
                digests[t] = content_digest(node.content)

        self.blocklist.block(digests.keys(), self.audit, digests=digests.values())
        closure = self.graph.dependency_closure(targets)
        report = self.graph.prune(request, closure, self.blocklist.is_blocked, digests,
                                  generation=self.index.generation)
        # Every id a prune deletes or outdates was Active, so it is live in the index.
        gone = sorted(report.removed_ids + report.outdated_ids)
        if gone:
            self.audit.append(AuditOp.DELETE, {"request_id": request.request_id, "ids": gone})
        for node_id in gone:
            self.index.remove(node_id)
        rebuild = self.index.maybe_rebuild(self.blocklist, self.audit)
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
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # One file's lines are built at a time, so at most one list is resident.
        payloads = {"nodes.jsonl": self.graph.node_lines, "audit.jsonl": self.audit.to_lines}
        for name, to_lines in payloads.items():
            write_lines(directory / name, FILE_HEADERS[name], to_lines())

    @classmethod
    def load(cls, directory, settings: Optional[RetrievalSettings] = None) -> "MemoryStore":
        store = cls(settings=settings)
        directory = existing_store_dir(directory)
        nodes, audit = ((directory / name, header) for name, header in FILE_HEADERS.items())
        store.audit = parse_lines(AuditLog.from_lines, audit)
        generation = store.audit.count(AuditOp.REBUILD)
        store.graph = parse_lines(lambda lines: MemoryGraph.from_lines(
            lines, audit=store.audit, generation=generation), nodes)
        store.index = HybridIndex.restore(
            store.embedder, store.settings, generation=generation,
            live=((i, store.graph.nodes[i].content) for i in store.graph.active_view()),
            tombstones=(i for i, node in store.graph.nodes.items() if node.removed_in == generation))
        # An episodic tombstone names a Deleted node; only such a node keeps a blocked digest.
        store.blocklist = Blocklist(
            ids=(i for i in store.index.tombstones() if store.graph.nodes[i].layer is Layer.EPISODIC),
            digests=(node.blocked_digest for node in store.graph.nodes.values() if node.blocked_digest),
            generation=generation)
        return store

    def copy(self) -> "MemoryStore":
        """Deep copy for baseline comparisons; shares only the settings and the embedder."""
        return copy.deepcopy(self, {id(self.settings): self.settings,
                                    id(self.embedder): self.embedder})
