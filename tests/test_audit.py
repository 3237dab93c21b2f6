import dataclasses
import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from memscrub.audit import (
    ZERO_HASH,
    AuditLog,
    AuditOp,
    AuditRecord,
    Blocklist,
    VerifyResult,
    _record_hash,
    canonical_json,
    content_digest,
    payload_digest,
    verify_lines,
)

from conftest import forge_chain


class TestAuditChain:
    def test_genesis_links_to_zero_sentinel(self):
        log = AuditLog()
        record = log.append(AuditOp.BLOCK, {"ids": [1]})
        assert record.record_hash == _record_hash(0, "block", record.payload_digest, ZERO_HASH)

    def test_second_record_links_to_first(self):
        log = AuditLog()
        first = log.append(AuditOp.BLOCK, {"ids": [1]})
        second = log.append(AuditOp.PRUNE, {"count": 1})
        assert second.record_hash == _record_hash(1, "prune", second.payload_digest,
                                                  first.record_hash)

    def test_line_holds_only_the_op_and_the_two_digests(self):
        log = AuditLog()
        log.append(AuditOp.BLOCK, {"ids": [1]})
        record = log.append(AuditOp.PRUNE, {"count": 1})
        assert log.to_lines()[1] == canonical_json({
            "op": "prune", "payload_digest": record.payload_digest,
            "record_hash": record.record_hash})

    def test_empty_log_verifies(self):
        assert verify_lines(AuditLog().to_lines()).ok

    def test_untampered_100_records_verify(self):
        log = AuditLog()
        for i in range(100):
            log.append(AuditOp.WRITE, {"i": i})
        assert verify_lines(log.to_lines()).ok

    @pytest.mark.parametrize("bad_index", [0, 1, 42, 99])
    def test_tampered_payload_reports_first_bad_index(self, bad_index):
        log = AuditLog()
        for i in range(100):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        rec = json.loads(lines[bad_index])
        digest = rec["payload_digest"]
        rec["payload_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        lines[bad_index] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        result = verify_lines(lines)
        assert not result.ok
        assert result.first_bad_index == bad_index

    @pytest.mark.parametrize("bad_index", [0, 17, 39])
    def test_tampered_in_memory_record_reports_first_bad_index(self, bad_index):
        log = AuditLog()
        for i in range(40):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        record = AuditRecord.from_line(lines[bad_index])
        digest = record.payload_digest
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        lines[bad_index] = dataclasses.replace(record, payload_digest=flipped).to_line()
        assert verify_lines(lines) == VerifyResult(ok=False, first_bad_index=bad_index)
        with pytest.raises(ValueError, match=f"audit record {bad_index} does not verify"):
            AuditLog.from_lines(lines)

    @pytest.mark.parametrize("line", ["[1]", "5", '"op"', "null"])
    def test_line_that_is_not_an_object_is_the_first_bad_index(self, line):
        log = AuditLog()
        for i in range(3):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        lines[1] = line
        assert verify_lines(lines) == VerifyResult(ok=False, first_bad_index=1)
        with pytest.raises(ValueError, match="audit record 1 does not verify"):
            AuditLog.from_lines(lines)

    @pytest.mark.parametrize("bad_index", [None, 0, 2, 19])
    def test_generator_verifies_as_its_list(self, bad_index):
        log = AuditLog()
        for i in range(20):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        if bad_index is not None:
            lines[bad_index] = lines[bad_index].replace('"op":"write"', '"op":"block"')
        read = []

        def stream():
            for line in lines:
                read.append(line)
                yield line

        assert verify_lines(stream()) == verify_lines(lines)
        assert len(read) == (len(lines) if bad_index is None else bad_index + 1)

    def test_relinked_record_with_matching_hash_is_the_first_bad_index(self):
        log = AuditLog()
        for i in range(6):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        rec = json.loads(lines[3])
        rec["record_hash"] = _record_hash(3, rec["op"], rec["payload_digest"], "f" * 64)
        lines[3] = canonical_json(rec)
        assert verify_lines(lines) == VerifyResult(ok=False, first_bad_index=3)
        with pytest.raises(ValueError, match="audit record 3 does not verify"):
            AuditLog.from_lines(lines)

    @pytest.mark.parametrize("digest", [5, None, ["a"], "\ud800" * 64])
    def test_digest_that_is_not_text_is_the_first_bad_index(self, digest):
        log = AuditLog()
        for i in range(4):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        rec = json.loads(lines[1])
        rec["payload_digest"] = digest
        lines[1] = json.dumps(rec)
        assert verify_lines(lines) == VerifyResult(ok=False, first_bad_index=1)
        with pytest.raises(ValueError, match="audit record 1 does not verify"):
            AuditLog.from_lines(lines)

    @pytest.mark.parametrize("seq", [1.0, True])
    def test_seq_that_is_not_an_int_is_the_first_bad_index(self, seq):
        log = AuditLog()
        for i in range(3):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        lines[1] = canonical_json({**json.loads(lines[1]), "seq": seq})  # equal to 1, but no key of a line
        assert verify_lines(lines) == VerifyResult(ok=False, first_bad_index=1)
        with pytest.raises(ValueError, match="audit record 1 does not verify"):
            AuditLog.from_lines(lines)

    def test_line_that_stores_its_links_is_the_first_bad_index(self):
        # Its position and its predecessor's hash, both right: the hash already commits to them.
        log = AuditLog()
        for i in range(3):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        prev = json.loads(lines[0])["record_hash"]
        lines[1] = canonical_json({**json.loads(lines[1]), "seq": 1, "prev_hash": prev})
        assert verify_lines(lines) == VerifyResult(ok=False, first_bad_index=1)
        with pytest.raises(ValueError, match="audit record 1 does not verify"):
            AuditLog.from_lines(lines)

    @pytest.mark.parametrize("change", [
        pytest.param(lambda rec: {"payload_digest": rec["payload_digest"].upper()},
                     id="uppercase-digest"),
    ])
    def test_forged_self_consistent_chain_is_the_first_bad_index(self, change):
        log = AuditLog()
        for i in range(5):
            log.append(AuditOp.WRITE, {"i": i})
        lines = forge_chain(log.to_lines(), 1, change)
        assert verify_lines(lines) == VerifyResult(ok=False, first_bad_index=1)
        with pytest.raises(ValueError, match="audit record 1 does not verify"):
            AuditLog.from_lines(lines)

    def test_single_byte_flip_detected(self):
        log = AuditLog()
        for i in range(50):
            log.append(AuditOp.DELETE, {"i": i})
        lines = log.to_lines()
        blob = "\n".join(lines)
        # Flip one character somewhere inside record 7's line.
        offset = sum(len(line) + 1 for line in lines[:7]) + 10
        flipped = "x" if blob[offset] != "x" else "y"
        mutated = blob[:offset] + flipped + blob[offset + 1:]
        result = verify_lines(mutated.split("\n"))
        assert not result.ok
        assert result.first_bad_index == 7

    def test_head_hash_tracks_last_record(self):
        log = AuditLog()
        assert log.head_hash() == ZERO_HASH
        record = log.append(AuditOp.ARCHIVE, {"done": True})
        assert log.head_hash() == record.record_hash

    def test_round_trip(self):
        log = AuditLog()
        for i in range(10):
            log.append(AuditOp.COMPACT, {"i": i})
        reloaded = AuditLog.from_lines(log.to_lines())
        assert reloaded.to_lines() == log.to_lines()
        assert reloaded.head_hash() == log.head_hash()

    def test_loaded_chain_takes_at_most_100_bytes_per_record(self):
        log = AuditLog()
        for i in range(10_000):
            log.append(AuditOp.WRITE, {"i": i})
        lines = log.to_lines()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = AuditLog.from_lines(lines)
            gc.collect()
            resident = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(loaded) == 10_000
        assert resident <= 100 * 10_000

    def test_tampered_link_is_a_load_error_at_its_index(self):
        log = AuditLog()
        for i in range(6):
            log.append(AuditOp.COMPACT, {"i": i})
        lines = log.to_lines()
        rec = json.loads(lines[3])  # rehashed for position 4: its hash commits to its position
        rec["record_hash"] = _record_hash(4, rec["op"], rec["payload_digest"],
                                          json.loads(lines[2])["record_hash"])
        lines[3] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        assert verify_lines(lines) == VerifyResult(ok=False, first_bad_index=3)
        with pytest.raises(ValueError, match="audit record 3 does not verify"):
            AuditLog.from_lines(lines)



def _tamper(rec: dict, other: dict, data) -> None:
    """Change one field of the record ``rec``; ``other`` is another record of the chain."""
    kind = data.draw(st.sampled_from(["flip", "upper", "op", "record_hash"]))
    if kind in ("flip", "upper"):
        name = data.draw(st.sampled_from(["payload_digest", "record_hash"]))
        digest = rec[name]
        if kind == "upper":
            rec[name] = digest.upper()
        else:
            pos = data.draw(st.integers(0, len(digest) - 1))
            char = data.draw(st.sampled_from([c for c in "0123456789abcdefG " if c != digest[pos]]))
            rec[name] = digest[:pos] + char + digest[pos + 1:]
    elif kind == "op":
        rec["op"] = data.draw(st.sampled_from([op.value for op in AuditOp] + ["Write", 1]))
    else:
        rec[kind] = data.draw(st.sampled_from([ZERO_HASH, "f" * 64, other["record_hash"],
                                               other["payload_digest"]]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ops=st.lists(st.sampled_from(list(AuditOp)), min_size=1, max_size=12), data=st.data())
def test_tampered_chain_fails_to_load_where_it_fails_to_verify(ops, data):
    log = AuditLog()
    for i, op in enumerate(ops):
        log.append(op, {"i": i})
    lines = log.to_lines()
    at = data.draw(st.integers(0, len(lines) - 1))
    rec = json.loads(lines[at])
    _tamper(rec, json.loads(lines[data.draw(st.integers(0, len(lines) - 1))]), data)
    lines[at] = json.dumps(rec)
    result = verify_lines(lines)
    if result.ok:  # the tamper rewrote a field to its own value
        assert AuditLog.from_lines(lines).to_lines() == log.to_lines()
    else:
        with pytest.raises(ValueError, match=f"audit record {result.first_bad_index} does not"):
            AuditLog.from_lines(lines)


class TestBlocklist:
    def test_block_empty_keeps_size(self):
        blocklist, log = Blocklist(), AuditLog()
        assert blocklist.block([], log) == 0

    def test_block_twice_is_set_union(self):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([7], log)
        assert blocklist.block([7], log) == 1

    def test_membership(self):
        blocklist, log = Blocklist(), AuditLog()
        assert not blocklist.is_blocked(3)
        blocklist.block([3], log)
        assert blocklist.is_blocked(3)

    def test_150_blocks_exceed_default_threshold(self):
        blocklist, log = Blocklist(), AuditLog()
        for i in range(150):
            blocklist.block([i], log)
        assert len(blocklist) == 150
        assert len(blocklist) > 100

    def test_audit_record_written_before_mutation(self):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([1], log)
        assert len(log) == 1
        assert AuditRecord.from_line(log.to_lines()[0]).op is AuditOp.BLOCK

    def test_fault_between_audit_and_mutation_preserves_state(self):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([1], log, digests=[content_digest("d1")])
        before = (blocklist.entries(), blocklist.to_lines())

        def digests():  # a fault once the BLOCK record is appended
            raise RuntimeError("storage failure")
            yield

        with pytest.raises(RuntimeError):
            blocklist.block([2], log, digests=digests())
        # The attempted operation is evidenced in the log, but state is the
        # pre-call set and the chain still verifies.
        assert (blocklist.entries(), blocklist.to_lines()) == before
        assert len(log) == 2
        assert verify_lines(log.to_lines()).ok

    def test_compaction_drops_every_id_and_takes_the_index_generation(self):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([1, 2], log)
        blocklist.block([3], log)
        blocklist.compact(4, log)
        assert blocklist.entries() == [] and blocklist.generation == 4
        blocklist.block([5], log)  # a later block records the index generation
        compact, block = (AuditRecord.from_line(line) for line in log.to_lines()[-2:])
        assert compact.payload_digest == payload_digest({"dropped": [1, 2, 3], "generation": 4})
        assert block.payload_digest == payload_digest({"ids": [5], "index_generation": 4})

    def test_digests_survive_compaction(self):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([1], log, digests=[content_digest("abc")])
        blocklist.compact(1, log)
        assert blocklist.has_digest(content_digest("abc"))

    def test_round_trip(self):
        # No file holds a blocklist: a store's loader builds it from its episodic tombstones,
        # the digests its forgotten nodes keep and the log's REBUILD count.
        blocklist, log = Blocklist(), AuditLog()
        digest = content_digest("d1")
        assert type(digest) is bytes and len(digest) == 32
        blocklist.block([9, 5], log, digests=[digest])
        assert blocklist.to_lines() == [f'{{"digest":"{digest.hex()}"}}']
        reloaded = Blocklist(ids=blocklist.entries(), digests=[digest], generation=blocklist.generation)
        assert reloaded.entries() == [5, 9] and reloaded.generation == 0
        assert reloaded.has_digest(digest)
        assert reloaded.to_lines() == blocklist.to_lines()
