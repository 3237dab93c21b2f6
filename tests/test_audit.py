import dataclasses
import json

import pytest

from memscrub.audit import (
    ZERO_HASH,
    AuditLog,
    AuditOp,
    Blocklist,
    verify_lines,
)


class TestAuditChain:
    def test_genesis_links_to_zero_sentinel(self):
        log = AuditLog()
        record = log.append(AuditOp.BLOCK, {"ids": [1]})
        assert record.prev_hash == ZERO_HASH
        assert record.seq == 0

    def test_second_record_links_to_first(self):
        log = AuditLog()
        first = log.append(AuditOp.BLOCK, {"ids": [1]})
        second = log.append(AuditOp.PRUNE, {"count": 1})
        assert second.prev_hash == first.record_hash

    def test_empty_log_verifies(self):
        assert AuditLog().verify().ok

    def test_untampered_100_records_verify(self):
        log = AuditLog()
        for i in range(100):
            log.append(AuditOp.WRITE, {"i": i})
        assert log.verify().ok
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
        record = log.records[bad_index]
        digest = record.payload_digest
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        log.records[bad_index] = dataclasses.replace(record, payload_digest=flipped)
        result = log.verify()
        assert not result.ok
        assert result.first_bad_index == bad_index

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
        assert reloaded.verify().ok


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
        assert log.records[0].op is AuditOp.BLOCK

    def test_fault_between_audit_and_mutation_preserves_state(self, monkeypatch):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([1], log)

        def boom(*a, **k):
            raise RuntimeError("storage failure")

        monkeypatch.setattr(blocklist, "_apply", boom)
        with pytest.raises(RuntimeError):
            blocklist.block([2], log)
        # The attempted operation is evidenced in the log, but state is the
        # pre-call set and the chain still verifies.
        assert blocklist.entries() == [1]
        assert len(log) == 2
        assert log.verify().ok

    def test_compaction_respects_generation_gate(self):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([1, 2], log, index_generation=0)
        blocklist.block([3], log, index_generation=1)
        # Rebuild produced generation 1: only ids blocked before it may drop.
        dropped = blocklist.compact([1, 2, 3], index_generation=1, audit=log)
        assert dropped == [1, 2]
        assert blocklist.entries() == [3]
        assert blocklist.generation == 1

    def test_digests_survive_compaction(self):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([1], log, digests=["abc"], index_generation=0)
        blocklist.compact([1], index_generation=1, audit=log)
        assert blocklist.has_digest("abc")

    def test_round_trip(self):
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block([5, 9], log, digests=["d1"], index_generation=2)
        reloaded = Blocklist.from_lines(blocklist.to_lines())
        assert reloaded.entries() == [5, 9]
        assert reloaded.has_digest("d1")
        assert reloaded.to_lines() == blocklist.to_lines()
