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


def content_digest(text: str) -> bytes:
    """The raw sha256 of ``text``. Digests are raw bytes in memory; a file or JSON holds their hex."""
    return hashlib.sha256(text.encode("utf-8")).digest()


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
    unless its keys are the schema's and each value is exactly its type (a list for a
    tuple) or a value of its enum."""
    if type(value) is not dict or value.keys() != schema.keys():
        raise ValueError(f"not a JSON object with exactly the keys {', '.join(schema)}")
    for key, kind in schema.items():  # exact types: a bool or a float is not an int
        json_type = list if kind is tuple else kind
        if type(value[key]) is not json_type and not issubclass(kind, enum.Enum):
            raise ValueError(f"{key} {value[key]!r:.40} is not a JSON {json_type.__name__}")
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


def is_digest(text: str) -> bool:
    """Whether ``text`` is a sha256 hex digest: 64 lowercase hex characters."""
    return _DIGEST.fullmatch(text) is not None


def _links(i: int, record: Optional[AuditRecord], prev: str) -> bool:
    """Whether ``record`` is record ``i`` of a chain whose record ``i - 1`` hashes to ``prev``.

    The one chain check. The record schema fixes the field types; this asks
    the rest of what ``AuditLog``'s packed columns can hold: the payload
    digest is 64 lowercase hex characters, and ``record_hash`` recomputes
    from ``i``, the record and ``prev`` (which makes it such a digest). None
    stands for a line that did not parse, its types included.
    """
    return (record is not None and is_digest(record.payload_digest)
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

    def count(self, op: AuditOp) -> int:
        """The number of ``op`` records in the chain."""
        return self._ops.count(_OP_CODE[op])

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
    """Set of blocked node ids with O(1) membership, plus blocked content digests.

    A forget blocks its Active targets and takes them out of the index, so
    the blocked ids are the index's episodic tombstones, and ``generation``
    is the index generation: a rebuild purges every tombstone, so its
    compaction drops every id. Digests (32 raw bytes each) outlive
    compaction, so rewrites of forgotten text are rejected without storing
    the text. No file holds a blocklist: a store's load takes the ids from
    the index, each digest from the forgotten node that keeps it and the
    generation from the audit log.
    """

    def __init__(self, ids: Iterable[int] = (), digests: Iterable[bytes] = (), generation: int = 0):
        self._ids: set = set(ids)
        self.generation = generation
        self.digests: set = set(digests)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._ids

    def is_blocked(self, node_id: int) -> bool:
        return node_id in self._ids

    def entries(self) -> list:
        return sorted(self._ids)

    def block(self, targets: Iterable[int], audit: AuditLog, digests: Iterable[bytes] = ()) -> int:
        """Add targets and their content digests. The audit record is appended first."""
        targets = sorted(set(targets))
        audit.append(AuditOp.BLOCK, {"ids": targets, "index_generation": self.generation})
        self.digests.update(digests)
        self._ids.update(targets)
        return len(self._ids)

    def has_digest(self, digest: bytes) -> bool:
        return digest in self.digests

    def compact(self, index_generation: int, audit: AuditLog) -> None:
        """Drop every id once a rebuild took the index to ``index_generation``."""
        audit.append(AuditOp.COMPACT, {"dropped": sorted(self._ids),
                                       "generation": index_generation})
        self._ids.clear()
        self.generation = index_generation

    def to_lines(self) -> list:
        """One ``{"digest"}`` line per blocked digest, in hex, sorted (hex order is byte order)."""
        return [canonical_json({"digest": d.hex()}) for d in sorted(self.digests)]
