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
from collections.abc import Sequence
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
    def from_line(cls, line: str) -> "AuditRecord":
        rec = json.loads(line)
        return cls(**{**rec, "op": AuditOp(rec["op"])})


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    first_bad_index: Optional[int] = None


_OPS = tuple(AuditOp)
_OP_CODE = {op: code for code, op in enumerate(_OPS)}
_UNPACKED = bytes(64)  # column filler for a record kept whole


def _packed(digest) -> Optional[bytes]:
    """The 32 raw bytes of ``digest`` if it is 64 lowercase hex characters, else None."""
    if type(digest) is not str or len(digest) != 64:
        return None
    try:
        raw = bytes.fromhex(digest)
    except ValueError:
        return None
    return raw if raw.hex() == digest else None


class AuditLog:
    """Append-only hash chain. The first record links to an all-zero sentinel.

    The chain is two packed columns: one op byte per record, and 64 bytes
    per record holding its raw payload digest and raw record hash. A
    record's ``seq`` is its position and its ``prev_hash`` the previous
    record's hash. A loaded record the columns cannot reproduce exactly (a
    tampered ``seq`` or ``prev_hash``, a digest that is not 64 lowercase
    hex characters) is kept whole, keyed by position, so a tampered log
    round-trips as it was.
    """

    def __init__(self):
        self._ops = bytearray()
        self._hashes = bytearray()
        self._whole: dict[int, AuditRecord] = {}
        self._head = ZERO_HASH

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def records(self) -> "AuditRecords":
        return AuditRecords(self)

    def head_hash(self) -> str:
        return self._head

    def append(self, op: AuditOp, payload: dict) -> AuditRecord:
        seq = len(self._ops)
        digest = payload_digest(payload)
        prev = self._head
        record_hash = _record_hash(seq, op.value, digest, prev)
        self._ops.append(_OP_CODE[op])
        self._hashes += bytes.fromhex(digest)
        self._hashes += bytes.fromhex(record_hash)
        self._head = record_hash
        return AuditRecord(seq, op, digest, prev, record_hash)

    def _add(self, record: AuditRecord) -> None:
        """Append a parsed record, packed if the columns reproduce it exactly."""
        seq = len(self._ops)
        digest, record_hash = _packed(record.payload_digest), _packed(record.record_hash)
        self._ops.append(_OP_CODE[record.op])
        if (type(record.seq) is int and record.seq == seq and type(record.prev_hash) is str
                and record.prev_hash == self._head and digest is not None and record_hash is not None):
            self._hashes += digest
            self._hashes += record_hash
        else:
            self._hashes += _UNPACKED
            self._whole[seq] = record
        self._head = record.record_hash

    def _hash_at(self, i: int) -> str:
        if i < 0:
            return ZERO_HASH
        whole = self._whole.get(i)
        return whole.record_hash if whole else self._hashes[64 * i + 32:64 * i + 64].hex()

    def _record(self, i: int) -> AuditRecord:
        whole = self._whole.get(i)
        if whole:
            return whole
        at = 64 * i
        return AuditRecord(i, _OPS[self._ops[i]], self._hashes[at:at + 32].hex(),
                           self._hash_at(i - 1), self._hashes[at + 32:at + 64].hex())

    def verify(self) -> VerifyResult:
        return _verify_chain(self.records)

    def to_lines(self) -> list:
        return [self._record(i).to_line() for i in range(len(self))]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "AuditLog":
        log = cls()
        for line in lines:
            log._add(AuditRecord.from_line(line))
        return log


class AuditRecords(Sequence):
    """The records of an ``AuditLog`` by position, each built on access."""

    __slots__ = ("_log",)

    def __init__(self, log: AuditLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, i: int) -> AuditRecord:
        return self._log._record(range(len(self._log))[i])


def _verify_chain(records) -> VerifyResult:
    """Check the chain of ``records``; None stands for a record that did not parse."""
    prev = ZERO_HASH
    for i, record in enumerate(records):
        if record is None or record.seq != i or record.prev_hash != prev:
            return VerifyResult(ok=False, first_bad_index=i)
        try:
            expected = _record_hash(record.seq, record.op.value, record.payload_digest,
                                    record.prev_hash)
        except (AttributeError, UnicodeEncodeError):  # a digest that is not encodable text
            return VerifyResult(ok=False, first_bad_index=i)
        if record.record_hash != expected:
            return VerifyResult(ok=False, first_bad_index=i)
        prev = record.record_hash
    return VerifyResult(ok=True)


def _parsed(lines):
    for line in lines:
        try:
            yield AuditRecord.from_line(line)
        except (ValueError, KeyError, TypeError):
            yield None


def verify_lines(lines) -> VerifyResult:
    """Verify serialized records; an unparseable line is the first bad index.

    ``lines`` may be any iterable of lines. It is read once, one line at a
    time, and no further than the first bad index.
    """
    return _verify_chain(_parsed(lines))


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
        blocklist.generation = json.loads(next(lines))["generation"]
        for line in lines:
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
