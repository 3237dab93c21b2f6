"""Blocklist and tamper-evident audit log.

Every deletion-related operation is appended to a hash-chained
write-ahead log before the corresponding state mutation becomes visible.
Records carry only digests of operation payloads, never memory content,
so the log cannot re-expose forgotten text.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
from dataclasses import dataclass, fields
from typing import Iterable, Optional

ZERO_HASH = "0" * 64
_fields_of = functools.cache(fields)  # per-record ``fields`` tuples pile up on the tuple free list


class AuditOp(str, enum.Enum):
    BLOCK = "block"
    PRUNE = "prune"
    DELETE = "delete"
    REBUILD = "rebuild"
    COMPACT = "compact"
    WRITE = "write"
    ARCHIVE = "archive"
    TRAIN = "train"


def content_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(value) -> str:
    """The one JSON form of store files, metrics and audit digests: sorted keys, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record_of(obj) -> dict:
    """A dataclass's fields as a dict, the schema of its stored record.

    No value is copied (``asdict`` deep-copies every value) and no
    ``__dict__`` is materialized on the instance (``vars`` does)."""
    return {f.name: getattr(obj, f.name) for f in _fields_of(type(obj))}


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _record_hash(seq: int, op: str, digest: str, prev_hash: str) -> str:
    # Length-prefixed field serialization keeps the hash unambiguous.
    h = hashlib.sha256()
    for part in (str(seq), op, digest, prev_hash):
        raw = part.encode("utf-8")
        h.update(len(raw).to_bytes(8, "big"))
        h.update(raw)
    return h.hexdigest()


@dataclass(frozen=True, slots=True)
class AuditRecord:
    seq: int
    op: AuditOp
    payload_digest: str
    prev_hash: str
    record_hash: str

    def to_line(self) -> str:
        return canonical_json(record_of(self))

    @classmethod
    def from_line(cls, line: str, head: str = ZERO_HASH) -> "AuditRecord":
        """The record of ``line``; a ``prev_hash`` equal to ``head`` is kept as ``head`` itself."""
        rec = json.loads(line)
        if rec.get("prev_hash") == head:
            rec["prev_hash"] = head
        return cls(**{**rec, "op": AuditOp(rec["op"])})


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    first_bad_index: Optional[int] = None


class AuditLog:
    """Append-only hash chain. The first record links to an all-zero sentinel."""

    def __init__(self):
        self.records: list[AuditRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def head_hash(self) -> str:
        return self.records[-1].record_hash if self.records else ZERO_HASH

    def append(self, op: AuditOp, payload: dict) -> AuditRecord:
        seq = len(self.records)
        digest = payload_digest(payload)
        prev = self.head_hash()
        record = AuditRecord(
            seq=seq,
            op=op,
            payload_digest=digest,
            prev_hash=prev,
            record_hash=_record_hash(seq, op.value, digest, prev),
        )
        self.records.append(record)
        return record

    def verify(self) -> VerifyResult:
        return verify_lines(self.to_lines())

    def to_lines(self) -> list:
        return [r.to_line() for r in self.records]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "AuditLog":
        log = cls()
        for line in lines:
            log.records.append(AuditRecord.from_line(line, log.head_hash()))
        return log


def verify_lines(lines) -> VerifyResult:
    """Verify serialized records; an unparseable line is the first bad index."""
    prev = ZERO_HASH
    for i, line in enumerate(lines):
        try:
            record = AuditRecord.from_line(line)
        except (ValueError, KeyError, TypeError):
            return VerifyResult(ok=False, first_bad_index=i)
        if record.seq != i or record.prev_hash != prev:
            return VerifyResult(ok=False, first_bad_index=i)
        expected = _record_hash(record.seq, record.op.value, record.payload_digest,
                                record.prev_hash)
        if record.record_hash != expected:
            return VerifyResult(ok=False, first_bad_index=i)
        prev = record.record_hash
    return VerifyResult(ok=True)


class Blocklist:
    """Persistent set of deleted node ids with O(1) membership.

    Each entry remembers the vector-index generation current when it was
    blocked; compaction may drop an entry only once the id is physically
    purged and the index generation postdates the block. Content digests
    of blocked items are kept so rewrites of forgotten text can be
    rejected without storing the text itself.
    """

    def __init__(self):
        self._entries: dict[int, int] = {}
        self.generation = 0
        self.digests: set = set()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def is_blocked(self, node_id: int) -> bool:
        return node_id in self._entries

    def entries(self) -> list:
        return sorted(self._entries)

    def block(self, targets: Iterable[int], audit: AuditLog,
              digests: Iterable[str] = (), index_generation: int = 0) -> int:
        """Add targets to the blocked set. The audit record is appended first."""
        targets = sorted(set(targets))
        digests = list(digests)
        audit.append(AuditOp.BLOCK, {"ids": targets, "index_generation": index_generation})
        # Undo exactly what this call may change, so no copy of the whole set is needed.
        prior = {t: self._entries[t] for t in targets if t in self._entries}
        added_digests = set(digests) - self.digests
        try:
            self._apply(targets, digests, index_generation)
        except Exception:
            for t in targets:
                self._entries.pop(t, None)
            self._entries.update(prior)
            self.digests -= added_digests
            raise
        return len(self._entries)

    def _apply(self, targets, digests, index_generation) -> None:
        for t in targets:
            self._entries.setdefault(t, index_generation)
        self.digests.update(digests)

    def has_digest(self, digest: str) -> bool:
        return digest in self.digests

    def compact(self, purged_ids: Iterable[int], index_generation: int, audit: AuditLog) -> list:
        """Drop entries whose storage is purged and whose block predates the index."""
        droppable = sorted(
            t for t in purged_ids
            if t in self._entries and self._entries[t] < index_generation
        )
        audit.append(AuditOp.COMPACT, {
            "dropped": droppable,
            "generation": self.generation + 1,
        })
        for t in droppable:
            del self._entries[t]
        self.generation += 1
        return droppable

    # Line-delimited persistence -------------------------------------------------

    def to_lines(self) -> list:
        lines = [canonical_json({"generation": self.generation})]
        for t in sorted(self._entries):
            lines.append(canonical_json({"id": t, "index_generation": self._entries[t]}))
        for d in sorted(self.digests):
            lines.append(canonical_json({"digest": d}))
        return lines

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Blocklist":
        blocklist = cls()
        lines = list(lines)
        blocklist.generation = json.loads(lines[0])["generation"]
        for line in lines[1:]:
            rec = json.loads(line)
            if "digest" in rec:
                if rec["digest"] in blocklist.digests:
                    raise ValueError(f"digest {rec['digest']} is listed twice")
                blocklist.digests.add(rec["digest"])
            elif rec["id"] in blocklist._entries:
                raise ValueError(f"id {rec['id']} is listed twice")
            else:
                blocklist._entries[rec["id"]] = rec["index_generation"]
        return blocklist
