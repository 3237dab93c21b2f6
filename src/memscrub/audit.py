"""Blocklist and tamper-evident audit log.

Every deletion-related operation is appended to a hash-chained log.
Every record is appended before the mutation it describes, and ARCHIVE
and TRAIN close their phase. Records carry only digests of operation
payloads, never memory content, so the log cannot re-expose forgotten
text.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import re
from dataclasses import dataclass
from typing import Iterable, Optional, get_type_hints

ZERO_HASH = "0" * 64
_schema_of = functools.cache(get_type_hints)  # a dataclass's {field: type}, resolved once per class


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


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value) -> str:
    """The one JSON form of store files, metrics and audit digests: sorted keys, no spaces.

    One encoder serves every call; ``json.dumps`` with these arguments
    builds a new one each time."""
    return _CANONICAL.encode(value)


def record_of(obj) -> dict:
    """A dataclass's fields as a dict, the schema of its stored record.

    No value is copied (``asdict`` deep-copies every value) and no
    ``__dict__`` is materialized on the instance (``vars`` does)."""
    return {name: getattr(obj, name) for name in _schema_of(type(obj))}


def json_record(value, schema: dict) -> list:
    """The values of the JSON object ``value``, in ``schema`` (key: type) order; ValueError
    unless its keys are the schema's and each value is exactly its type or a value of its enum."""
    if type(value) is not dict or value.keys() != schema.keys():
        raise ValueError(f"not a JSON object with exactly the keys {', '.join(schema)}")
    for key, kind in schema.items():  # exact types: a bool or a float is not an int
        if type(value[key]) is not kind and not issubclass(kind, enum.Enum):
            raise ValueError(f"{key} {value[key]!r:.40} is not a JSON {kind.__name__}")
    return [kind(value[key]) for key, kind in schema.items()]


def from_record(cls, value):
    """The dataclass ``cls`` read from its stored record: the inverse of ``record_of``."""
    return cls(*json_record(value, _schema_of(cls)))


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
    """One stored line. Its ``seq`` is its position and its ``prev_hash`` the
    previous record's hash; ``record_hash`` commits to both."""
    op: AuditOp
    payload_digest: str
    record_hash: str

    def to_line(self) -> str:
        return canonical_json(record_of(self))

    @classmethod
    def from_line(cls, line: str) -> "AuditRecord":
        return from_record(cls, json.loads(line))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    first_bad_index: Optional[int] = None


_OPS = tuple(AuditOp)
_OP_CODE = {op: code for code, op in enumerate(_OPS)}
_DIGEST = re.compile("[0-9a-f]{64}")


def _links(i: int, record: Optional[AuditRecord], prev: str) -> bool:
    """Whether ``record`` is record ``i`` of a chain whose record ``i - 1`` hashes to ``prev``.

    The one chain check. The record schema fixes the field types; this asks
    the rest of what ``AuditLog``'s packed columns can hold: the payload
    digest is 64 lowercase hex characters, and ``record_hash`` recomputes
    from ``i``, the record and ``prev`` (which makes it such a digest). None
    stands for a line that did not parse, its types included.
    """
    return (record is not None and _DIGEST.fullmatch(record.payload_digest) is not None
            and record.record_hash == _record_hash(i, record.op.value, record.payload_digest, prev))


def _parsed(lines):
    for line in lines:
        try:
            yield AuditRecord.from_line(line)
        except ValueError:
            yield None


def verify_lines(lines) -> VerifyResult:
    """Verify serialized records; an unparseable line is the first bad index.

    ``lines`` may be any iterable of lines. It is read once, one line at a
    time, and no further than the first bad index.
    """
    prev = ZERO_HASH
    for i, record in enumerate(_parsed(lines)):
        if not _links(i, record, prev):
            return VerifyResult(ok=False, first_bad_index=i)
        prev = record.record_hash
    return VerifyResult(ok=True)


class AuditLog:
    """Append-only hash chain. The first record links to an all-zero sentinel.

    The chain is two packed columns: one op byte per record, and 64 bytes
    per record holding its raw payload digest and raw record hash. A
    record's ``seq`` is its position and its ``prev_hash`` the previous
    record's hash, in memory as on disk. A log is built only by ``append``
    and by a load that checks every record, so it always verifies.
    """

    def __init__(self):
        self._ops = bytearray()
        self._hashes = bytearray()
        self._head = ZERO_HASH

    def __len__(self) -> int:
        return len(self._ops)

    def head_hash(self) -> str:
        return self._head

    def append(self, op: AuditOp, payload: dict) -> AuditRecord:
        digest = payload_digest(payload)
        record_hash = _record_hash(len(self._ops), op.value, digest, self._head)
        self._add(op, digest, record_hash)
        return AuditRecord(op, digest, record_hash)

    def _add(self, op: AuditOp, digest: str, record_hash: str) -> None:
        self._ops.append(_OP_CODE[op])
        self._hashes += bytes.fromhex(digest)
        self._hashes += bytes.fromhex(record_hash)
        self._head = record_hash

    def _record(self, i: int) -> AuditRecord:
        at = 64 * i
        return AuditRecord(_OPS[self._ops[i]], self._hashes[at:at + 32].hex(),
                           self._hashes[at + 32:at + 64].hex())

    def to_lines(self) -> list:
        return [self._record(i).to_line() for i in range(len(self))]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "AuditLog":
        """The log of serialized records; ValueError at the first record that does not verify."""
        log = cls()
        for i, record in enumerate(_parsed(lines)):
            if not _links(i, record, log._head):
                raise ValueError(f"audit record {i} does not verify")
            log._add(record.op, record.payload_digest, record.record_hash)
        return log


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
        lines = iter(lines)
        (blocklist.generation,) = json_record(json.loads(next(lines)), {"generation": int})
        for line in lines:
            rec = json.loads(line)
            if type(rec) is dict and "digest" in rec:
                (digest,) = json_record(rec, {"digest": str})
                if _DIGEST.fullmatch(digest) is None:
                    raise ValueError(f"digest {digest!r:.70} is not 64 lowercase hex characters")
                if digest in blocklist.digests:
                    raise ValueError(f"digest {digest} is listed twice")
                blocklist.digests.add(digest)
            else:
                node_id, index_generation = json_record(rec, {"id": int, "index_generation": int})
                if node_id in blocklist._entries:
                    raise ValueError(f"id {node_id} is listed twice")
                blocklist._entries[node_id] = index_generation
        return blocklist
