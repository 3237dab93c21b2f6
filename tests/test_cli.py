import contextlib
import fcntl
import gc
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from memscrub import cli
from memscrub.audit import AuditLog, AuditOp, canonical_json
from memscrub.cli import main
from memscrub.config import RunConfig, load_config
from memscrub.graph import Layer
from memscrub.store import FILE_HEADERS, MODEL_HEADER, MemoryStore, load_model, write_lines

from conftest import forge_chain


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-corpus + store, shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    store = root / "store"
    assert main(["gen-corpus", "--out", str(corpus), "--seed", "0"]) == 0
    assert main(["store", "--corpus", str(corpus), "--store", str(store)]) == 0
    return corpus, store


def load_context(store):
    items = [json.loads(l) for l in (store / "corpus.jsonl").read_text().splitlines()]
    prov = {}
    for line in (store / "provenance.jsonl").read_text().splitlines()[1:]:
        rec = json.loads(line)
        prov[rec["item_id"]] = rec["node_id"]
    return items, prov


def with_fields(line, **fields):
    """The JSON record ``line`` with ``fields`` set."""
    return json.dumps({**json.loads(line), **fields})


# Corpus records that parse as JSON but name no valid item.
BAD_CORPUS_FIELDS = {
    "answer-idx-out-of-range": {"answer_idx": 9},
    "answer-idx-bool": {"answer_idx": True},
    "unknown-split": {"split": "retian"},
}


def set_to(**fields):
    return lambda rec: {**rec, **fields}


def without(key):
    return lambda rec: {k: v for k, v in rec.items() if k != key}


def in_params(change):
    return lambda rec: {**rec, "params": change(rec["params"])}


# A line of each kind of stored record in the `unlearned` store (line 0 of a file with a
# header is the header), and the record's int field; an audit record and a blocked digest
# have none, so theirs is a string. A node's derivation edges are its `parents` list, so
# the edge kind is a derived node's record (line 7 is summary 6, on parents 0-5) and its
# `parents` field; a blocked digest is kept by a forgotten node (line 1 is target 0).
RECORD_LINES = {
    "audit": ("audit.jsonl", 1, "op"),
    "node": ("nodes.jsonl", 1, "id"),
    "edge": ("nodes.jsonl", 7, "parents"),
    "blocked-digest": ("nodes.jsonl", 1, "blocked_digest"),
    "model": ("model.jsonl", 1, "ref_seed"),
    "provenance": ("provenance.jsonl", 1, "node_id"),
    "corpus": ("corpus.jsonl", 0, "answer_idx"),
}
RECORD_DAMAGE = {
    "unknown-key": lambda key: set_to(note="x"),
    "missing-key": without,
    "json-list": lambda key: lambda rec: list(rec.values()),
    "bool-for-int": lambda key: set_to(**{key: True}),
}
RECORD_FILES = sorted({name for name, _, _ in RECORD_LINES.values()})
HEX_DIGEST = "ab" * 32
FUZZ_VALUES = [-1, 0, True, 1.5, "x", None, [], {}]
# The files `forgot_six` holds besides its lock: each one that a command's load reads.
FORGOT_SIX_FILES = ["audit.jsonl", "config.cfg", "corpus.jsonl", "model.jsonl", "nodes.jsonl",
                    "provenance.jsonl"]


def flip_field(line, key="payload_digest"):
    """The audit record ``line`` with the first character of its ``key`` changed."""
    rec = json.loads(line)
    rec[key] = ("0" if rec[key][0] != "0" else "1") + rec[key][1:]
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def write_request(path, items, prov, request_id="req-cli"):
    targets = [prov[it["item_id"]] for it in items if it["split"] == "forget"]
    path.write_text(json.dumps({"request_id": request_id, "targets": targets}))
    return targets


class TestGenCorpus:
    def test_writes_items(self, pipeline, capsys):
        corpus, _ = pipeline
        lines = corpus.read_text().splitlines()
        assert len(lines) == 120
        assert json.loads(lines[0])["split"] == "forget"

    def test_closed_stdout_ends_quietly(self, tmp_path):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        src = str(Path(cli.__file__).parents[1])
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "memscrub.cli", "gen-corpus", "--out", str(tmp_path / "c")],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src})
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")
        assert (tmp_path / "c").exists()  # the command ran; only its report was lost

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-corpus", "--out", str(a), "--seed", "1"])
        main(["gen-corpus", "--out", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()


class TestStore:
    def test_expected_files(self, pipeline):
        _, store = pipeline
        for name in ("nodes.jsonl", "audit.jsonl", "model.jsonl", "corpus.jsonl",
                     "provenance.jsonl", "config.cfg"):
            assert (store / name).exists(), name
        for name in ("blocklist.jsonl", "index.jsonl"):  # load derives the blocklist and the index
            assert not (store / name).exists(), name

    def test_model_file_is_the_canonical_record_of_its_model(self, pipeline):
        """The golden tests leave the model's bytes out (they depend on the BLAS build);
        this pins the file's form: the header, then the reloaded model's canonical record."""
        _, store = pipeline
        model = load_model(store, RunConfig().feature_dim)
        record = {"params": {k: v.tolist() for k, v in model.params.items()},
                  "ref_seed": model.ref_seed}
        assert (store / "model.jsonl").read_bytes() == (
            MODEL_HEADER + "\n" + canonical_json(record) + "\n").encode("utf-8")

    def test_lock_released(self, pipeline):
        _, store = pipeline
        with open(store / "lock", "a") as f:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)

    def test_locked_store_refused(self, pipeline, tmp_path):
        corpus, store = pipeline
        with open(store / "lock", "a") as f:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(SystemExit, match="is locked by another process"):
                main(["store", "--corpus", str(corpus), "--store", str(store)])

    def test_locked_store_refuses_eval(self, pipeline, tmp_path):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        with open(copy / "lock", "a") as f:
            fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(SystemExit, match="is locked by another process"):
                main(["eval", "--store", str(copy)])
        assert not (copy / "metrics" / "eval.jsonl").exists()

    @pytest.mark.parametrize("command", ["unlearn", "eval", "query", "probe",
                                         "audit-verify"])
    def test_missing_store_is_not_created(self, tmp_path, capsys, command):
        request = tmp_path / "request.json"
        request.write_text('{"request_id":"r","targets":[0]}')
        store = tmp_path / "nostore" / "typo"
        argv = [command, "--store", str(store)] + {
            "unlearn": ["--request", str(request)], "query": ["--text", "what remedy"],
            "probe": ["--id", "0"]}.get(command, [])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {store}: no such store directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["request.json"]

    def test_killed_writer_leaves_no_stale_lock(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        holder = ("import sys, time\n"
                  "from memscrub.store import store_lock\n"
                  "with store_lock(sys.argv[1]):\n"
                  "    print('locked', flush=True)\n"
                  "    time.sleep(60)\n")
        src = str(Path(cli.__file__).parents[1])
        with subprocess.Popen([sys.executable, "-c", holder, str(copy)], stdout=subprocess.PIPE,
                              text=True, env={**os.environ, "PYTHONPATH": src}) as proc:
            assert proc.stdout.readline() == "locked\n"
            proc.send_signal(signal.SIGKILL)
            assert proc.wait() == -signal.SIGKILL
        items, prov = load_context(copy)
        request = tmp_path / "request.json"
        write_request(request, items, prov)
        code = main(["unlearn", "--store", str(copy), "--request", str(request), "--epochs", "1"])
        capsys.readouterr()
        assert code == 0

    def test_featurizes_trained_split_once(self, pipeline, tmp_path, monkeypatch, capsys):
        corpus, _ = pipeline
        calls = []
        featurize = cli.to_dataset

        def counting(items, dim):
            calls.append(len(items))
            return featurize(items, dim)

        monkeypatch.setattr(cli, "to_dataset", counting)
        code, rows = run_cli(capsys, "store", "--corpus", str(corpus),
                             "--store", str(tmp_path / "store"))
        assert code == 0 and rows[0]["train_acc"] == 1.0
        assert calls == [72]


class TestQuery:
    def test_retain_question_hits(self, pipeline, capsys):
        _, store = pipeline
        items, _ = load_context(store)
        question = next(it["question"] for it in items if it["split"] == "retain")
        code, rows = run_cli(capsys, "query", "--store", str(store), "--text", question)
        assert code == 0
        assert rows
        assert all({"id", "combined", "content"} <= set(r) for r in rows)

    def test_top_k_flag_limits_hits(self, pipeline, capsys):
        _, store = pipeline
        items, _ = load_context(store)
        question = next(it["question"] for it in items if it["split"] == "retain")
        code, rows = run_cli(capsys, "query", "--store", str(store), "--text", question,
                             "--top-k", "2")
        assert code == 0
        assert len(rows) == 2 and all("id" in r for r in rows)

    def test_no_hits_emits_empty_marker(self, tmp_path, pipeline, capsys):
        _, store = pipeline
        code, rows = run_cli(capsys, "query", "--store", str(store),
                             "--text", "zzz qqq", "--top-k", "1")
        assert code == 0


class TestAuditVerify:
    def test_clean_store(self, pipeline, capsys):
        _, store = pipeline
        code, rows = run_cli(capsys, "audit-verify", "--store", str(store))
        assert code == 0
        assert rows[-1]["ok"] is True

    @pytest.mark.parametrize("flag", [["--config", "missing.cfg"], ["--seed", "1"],
                                      ["--tau", "5"]], ids=["config", "seed", "tau"])
    def test_config_flags_are_a_usage_error(self, pipeline, capsys, flag):
        """It reads no config, so a config flag is refused, not silently ignored."""
        _, store = pipeline
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["audit-verify", "--store", str(store), *flag])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {flag[0]}" in err

    def test_tampered_log_fails(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        audit = copy / "audit.jsonl"
        lines = audit.read_text().splitlines()
        lines[3] = flip_field(lines[3])
        audit.write_text("\n".join(lines) + "\n")
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert code == 1
        assert rows[-1]["ok"] is False
        assert rows[-1]["first_bad_index"] == 2  # header line excluded

    def test_extra_key_is_tamper(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        audit = copy / "audit.jsonl"
        lines = audit.read_text().splitlines()
        lines[3] = lines[3][:-1] + ',"x":1}'
        audit.write_text("\n".join(lines) + "\n")
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert code == 1
        assert rows[-1]["ok"] is False
        assert rows[-1]["first_bad_index"] == 2  # header line excluded

    def test_bad_header_fails(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        audit = copy / "audit.jsonl"
        audit.write_text("wrong header\n" + audit.read_text())
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert code == 1

    def test_non_utf8_log_is_bad_header(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        with open(copy / "audit.jsonl", "ab") as f:
            f.write(b"\xff\xfe")
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert code == 1
        assert rows[-1]["reason"] == "bad header"

    def test_records_counts_every_line_past_the_first_bad_index(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        audit = copy / "audit.jsonl"
        lines = audit.read_text().splitlines()
        lines[3] = lines[3].replace('"op":"write"', '"op":"block"')
        audit.write_text("\n".join(lines) + "\n")
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert code == 1
        assert rows == [{"command": "audit-verify", "ok": False, "first_bad_index": 2,
                         "records": len(lines) - 1}]

    # Record 5 is a WRITE record. The forged line copies the last record with another op and
    # payload digest; index -1 stands for it.
    @pytest.mark.parametrize("damage, bad_index", [
        pytest.param(lambda recs: recs[:5] + [flip_field(recs[5], "op")] + recs[6:], 5,
                     id="flipped-op"),
        pytest.param(lambda recs: recs[:5] + [flip_field(recs[5], "payload_digest")] + recs[6:], 5,
                     id="flipped-payload-digest"),
        pytest.param(lambda recs: recs[:5] + [flip_field(recs[5], "record_hash")] + recs[6:], 5,
                     id="flipped-record-hash"),
        pytest.param(lambda recs: recs[:5] + recs[6:], 5, id="deleted-line"),
        pytest.param(lambda recs: recs[:5] + [recs[6], recs[5]] + recs[7:], 5, id="swapped-lines"),
        pytest.param(lambda recs: recs + [with_fields(recs[-1], op="archive", payload_digest=HEX_DIGEST)],
                     -1, id="forged-line-appended"),
    ])
    def test_damage_is_reported_at_its_record(self, pipeline, tmp_path, capsys, damage, bad_index):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        audit = copy / "audit.jsonl"
        header, *records = audit.read_text().splitlines()
        records = damage(records)
        audit.write_text("\n".join([header, *records]) + "\n")
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert code == 1
        assert rows == [{"command": "audit-verify", "ok": False,
                         "first_bad_index": bad_index % len(records), "records": len(records)}]

    def test_v1_log_is_bad_header_and_does_not_load(self, pipeline, tmp_path, capsys):
        # The same chain in the v1 form, whose lines also store their position and their
        # predecessor's hash.
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        audit = copy / "audit.jsonl"
        _, *records = audit.read_text().splitlines()
        prevs = ["0" * 64] + [json.loads(line)["record_hash"] for line in records[:-1]]
        audit.write_text("\n".join(["memscrub-audit v1"] + [
            canonical_json({**json.loads(line), "seq": seq, "prev_hash": prev})
            for seq, (line, prev) in enumerate(zip(records, prevs))]) + "\n")
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert (code, rows) == (1, [{"command": "audit-verify", "ok": False, "first_bad_index": 0,
                                     "reason": "bad header"}])
        assert main(["query", "--store", str(copy), "--text", "what remedy"]) == 1
        assert capsys.readouterr().err == f"error: {audit}: missing or wrong version header\n"

    def test_non_utf8_byte_mid_log_is_bad_header(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        audit = copy / "audit.jsonl"
        data = audit.read_bytes()
        middle = data.index(b"\n", len(data) // 2) + 1
        audit.write_bytes(data[:middle] + b"\xff" + data[middle:])
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert code == 1
        assert rows == [{"command": "audit-verify", "ok": False, "first_bad_index": 0,
                         "reason": "bad header"}]

    def test_holds_one_record_at_a_time(self, tmp_path, capsys):
        log = AuditLog()
        for i in range(10_000):
            log.append(AuditOp.WRITE, {"i": i})
        write_lines(tmp_path / "audit.jsonl", FILE_HEADERS["audit.jsonl"], log.to_lines())
        size = (tmp_path / "audit.jsonl").stat().st_size
        del log
        main(["audit-verify", "--store", str(tmp_path)])  # fills one-time caches (argparse, re)
        capsys.readouterr()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            code = main(["audit-verify", "--store", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["records"] == 10_000
        assert peak < size / 10


class TestDamagedStore:
    @pytest.mark.parametrize("name, damage", [
        pytest.param("nodes.jsonl", lambda lines: lines[:-1] + [with_fields(lines[-1], parents=[9999])],
                     id="nodes.jsonl-unknown-parent"),
        ("model.jsonl", lambda lines: ["memscrub-model v0"] + lines[1:]),
        pytest.param("corpus.jsonl", lambda lines: ['{"item_id":"x"}'] + lines[1:],
                     id="corpus.jsonl-missing-fields"),
        pytest.param("provenance.jsonl", lambda lines: lines + ['{"item_id":"x"}'],
                     id="provenance.jsonl-no-node-id"),
        pytest.param("model.jsonl", lambda lines: lines[:1] + ['{"params":{},"ref_params":{}}'],
                     id="model.jsonl-no-w1"),
        pytest.param("nodes.jsonl", lambda lines: lines[:2] + [lines[2][:-1] + ',"x":1}'] + lines[3:],
                     id="nodes.jsonl-extra-key"),
        pytest.param("nodes.jsonl", lambda lines: lines + lines[2:3],
                     id="nodes.jsonl-duplicate-id"),
        pytest.param("nodes.jsonl", lambda lines: ["memscrub-nodes v1"] + lines[1:],
                     id="nodes.jsonl-v1-header"),
        pytest.param("nodes.jsonl", lambda lines: ["memscrub-nodes v2"] + lines[1:],
                     id="nodes.jsonl-v2-header"),
        # Digests must be JSON strings; line 1 of nodes.jsonl is target 0.
        pytest.param("nodes.jsonl", lambda lines: lines[:1] + [with_fields(lines[1], blocked_digest=5)]
                     + lines[2:], id="nodes.jsonl-number-blocked-digest"),
        # Node ids and parents must be JSON integers, contents strings.
        # The last node record is node 107, an Active reflection; line 7 is summary 6, on
        # parents 0-5.
        pytest.param("nodes.jsonl", lambda lines: lines[:-1] + [with_fields(lines[-1], id=107.0)],
                     id="nodes.jsonl-float-id"),
        pytest.param("nodes.jsonl", lambda lines: lines[:7]
                     + [with_fields(lines[7], parents=[False, 1, 2, 3, 4, 5])] + lines[8:],
                     id="nodes.jsonl-bool-parent"),
        pytest.param("provenance.jsonl", lambda lines: lines[:1] + [with_fields(lines[1], node_id="3")]
                     + lines[2:], id="provenance.jsonl-string-node-id"),
        *[pytest.param("corpus.jsonl", lambda lines, bad=bad: [with_fields(lines[0], **bad)] + lines[1:],
                       id=f"corpus.jsonl-{name}") for name, bad in BAD_CORPUS_FIELDS.items()],
        pytest.param("corpus.jsonl", lambda lines: lines + lines[:1], id="corpus.jsonl-duplicate-item-id"),
        # Provenance line 1 maps topic000-i00 to node 0; each stored item has one record,
        # on an episodic node.
        pytest.param("provenance.jsonl", lambda lines: lines + [with_fields(lines[1], node_id=9999)],
                     id="provenance.jsonl-duplicate-item-id"),
        pytest.param("provenance.jsonl", lambda lines: lines + [with_fields(lines[1], item_id="topic000-h00")],
                     id="provenance.jsonl-duplicate-node-id"),
        pytest.param("provenance.jsonl", lambda lines: lines[:1] + lines[2:],
                     id="provenance.jsonl-missing-record"),
        pytest.param("provenance.jsonl", lambda lines: lines[:1] + [with_fields(lines[1], node_id=9999)]
                     + lines[2:], id="provenance.jsonl-unknown-node"),
        pytest.param("provenance.jsonl", lambda lines: lines[:1] + [with_fields(lines[1], node_id=107)]
                     + lines[2:], id="provenance.jsonl-non-episodic-node"),
    ])
    def test_load_error_names_the_file(self, unlearned, tmp_path, capsys, name, damage):
        store, _, _ = unlearned
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / name
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize("command, damage, reason", [
        (["eval"], lambda lines: lines[:1] + lines[2:], "item_id 'topic000-i00' has no record"),
        (["probe", "--id", "9999"], lambda lines: lines[:1] + [with_fields(lines[1], node_id=9999)]
         + lines[2:], "node_id 9999 names no episodic node"),
    ], ids=["eval-missing-record", "probe-unknown-node"])
    def test_provenance_is_checked_on_load(self, pipeline, tmp_path, capsys, command, damage, reason):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / "provenance.jsonl"
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
        code = main([*command, "--store", str(copy)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: malformed file: ") and reason in err
        assert not (copy / "metrics").exists()

    @pytest.mark.parametrize("name, damage", [
        pytest.param("audit.jsonl", lambda lines: lines[:3] + [flip_field(lines[3])] + lines[4:],
                     id="audit.jsonl-flipped-digest"),
        pytest.param("audit.jsonl", lambda lines: lines[:1] + forge_chain(
            lines[1:], 2, lambda rec: {"payload_digest": rec["payload_digest"].upper()}),
                     id="audit.jsonl-forged-uppercase-digest"),
        # This store has forgotten nothing, so node 0 is Active and removed in no generation.
        pytest.param("nodes.jsonl", lambda lines: lines[:1] + [with_fields(lines[1], removed_in="-1")]
                     + lines[2:], id="nodes.jsonl-string-removed-in"),
        pytest.param("nodes.jsonl", lambda lines: lines[:1] + [with_fields(lines[1], blocked_digest=5)]
                     + lines[2:], id="nodes.jsonl-number-blocked-digest"),
        pytest.param("nodes.jsonl", lambda lines: lines[:1] + [with_fields(lines[1], blocked_digest=HEX_DIGEST)]
                     + lines[2:], id="nodes.jsonl-live-node-with-blocked-digest"),
    ])
    def test_damaged_store_is_refused_before_it_is_touched(self, pipeline, tmp_path, capsys,
                                                           name, damage):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / name
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
        items, prov = load_context(copy)
        request = tmp_path / "request.json"
        write_request(request, items, prov)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        for argv in (["query", "--store", str(copy), "--text", "what remedy"],
                     ["unlearn", "--store", str(copy), "--request", str(request), "--epochs", "1"]):
            code = main(argv)
            assert code == 1
            assert capsys.readouterr().err.startswith(f"error: {path}: malformed file: ")
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    def test_record_keys_load_in_any_order(self, unlearned, tmp_path, capsys):
        store, _, _ = unlearned
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        for name in RECORD_FILES:
            path = copy / name
            lines = path.read_text().splitlines()
            at = 0 if name == "corpus.jsonl" else 1  # the first record, after any header
            path.write_text("\n".join(lines[:at] + [json.dumps(dict(reversed(json.loads(line).items())))
                                                     for line in lines[at:]]) + "\n")
        assert (copy / "nodes.jsonl").read_text().splitlines()[7] == (
            '{"status": "deleted", "removed_in": 0, "parents": [0, 1, 2, 3, 4, 5], "layer": "semantic", '
            '"id": 6, "content": "", "blocked_digest": ""}')
        MemoryStore.load(copy).save(tmp_path / "resaved")
        for name in FILE_HEADERS:
            assert (tmp_path / "resaved" / name).read_bytes() == (store / name).read_bytes(), name
        feature_dim = RunConfig().feature_dim
        assert ("".join(load_model(copy, feature_dim).record_pieces())
                == "".join(load_model(store, feature_dim).record_pieces()))
        outputs = []
        for path in (store, copy):
            assert main(["query", "--store", str(path), "--text", "what remedy suits topic001"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_mutated_record_is_refused_or_loads(self, unlearned, tmp_path):
        """One value replaced, one key dropped or one key added in one record of one file."""
        store, _, _ = unlearned
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        files = {name: (copy / name).read_text() for name in RECORD_FILES}

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            name = data.draw(st.sampled_from(RECORD_FILES))
            lines = files[name].splitlines()
            at = data.draw(st.integers(0 if name == "corpus.jsonl" else 1, len(lines) - 1))
            record = json.loads(lines[at])
            how = data.draw(st.sampled_from(["replace", "drop", "add"]))
            key = "x" if how == "add" else data.draw(st.sampled_from(sorted(record)))
            if how == "drop":
                del record[key]
            else:
                record[key] = data.draw(st.sampled_from(FUZZ_VALUES))
            (copy / name).write_text("\n".join(lines[:at] + [json.dumps(record)] + lines[at + 1:]) + "\n")
            err = io.StringIO()
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(["query", "--store", str(copy), "--text", "what remedy"])
            finally:
                (copy / name).write_text(files[name])
            err = err.getvalue()
            assert "TypeError(" not in err and "KeyError(" not in err
            assert (code, err) == (0, "") or code == 1 and err.startswith("error: ")
            # Provenance is checked against the corpus, so a renamed stored item is
            # reported at the provenance record left without its item.
            named = ("corpus.jsonl", "provenance.jsonl") if name == "corpus.jsonl" else (name,)
            assert code == 0 or any(n in err for n in named)

        check()

    def test_non_utf8_file_is_named(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        with open(copy / "nodes.jsonl", "ab") as f:
            f.write(b"\xff\xfe")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {copy / 'nodes.jsonl'}: not UTF-8 text")

    @pytest.mark.parametrize("body", [
        pytest.param("", id="empty"),
        pytest.param("5", id="not-an-object"),
        pytest.param('{"request_id":"r","targets":5}', id="targets-number"),
        pytest.param('{"request_id":"empty","targets":[]}', id="targets-empty"),
        pytest.param('{"request_id":"r","targets":["a"]}', id="targets-not-ids"),
        pytest.param('{"request_id":"r","targets":"12"}', id="targets-string"),
        pytest.param('{"request_id":"r","targets":[0.9,true,"2"]}', id="targets-coercible"),
        pytest.param('{"request_id":"r","targets":[0.0]}', id="targets-float"),
        pytest.param('{"request_id":"r","targets":[true]}', id="targets-bool"),
        pytest.param('{"request_id":"r","targets":["2"]}', id="targets-digit-string"),
        pytest.param('{"request_id":"a/b","targets":[0]}', id="request-id-slash"),
        pytest.param('{"request_id":"a\\\\b","targets":[0]}', id="request-id-backslash"),
        pytest.param('{"request_id":"a\\u0000b","targets":[0]}', id="request-id-nul"),
        pytest.param('{"request_id":".","targets":[0]}', id="request-id-dot"),
        pytest.param('{"request_id":"..","targets":[0]}', id="request-id-dotdot"),
        pytest.param('{"request_id":"","targets":[0]}', id="request-id-empty"),
        pytest.param('{"request_id":7,"targets":[0]}', id="request-id-number"),
        pytest.param('{"request_id":true,"targets":[0]}', id="request-id-bool"),
        pytest.param('{"request_id":"r","targets":[0],"note":"x"}', id="unknown-key"),
        pytest.param('{"targets":[0]}', id="missing-key"),
        pytest.param('["r",[0]]', id="json-list"),
    ])
    def test_bad_request_names_the_file(self, pipeline, tmp_path, capsys, body):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        request = tmp_path / "request.json"
        request.write_text(body)
        code = main(["unlearn", "--store", str(copy), "--request", str(request)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {request}: malformed file")
        assert "TypeError(" not in err and "KeyError(" not in err
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    @pytest.mark.parametrize("name, line, change", [
        pytest.param("model.jsonl", 1, set_to(ref_seed=-1), id="ref-seed-negative"),
        pytest.param("model.jsonl", 1, set_to(ref_seed=True), id="ref-seed-bool"),
        pytest.param("model.jsonl", 1, set_to(ref_seed=7919.0), id="ref-seed-float"),
        pytest.param("model.jsonl", 1, set_to(ref_seed="7919"), id="ref-seed-string"),
        pytest.param("nodes.jsonl", 1, set_to(layer="procedural"), id="layer-procedural"),
        pytest.param("nodes.jsonl", 1, set_to(layer="external"), id="layer-external"),
        # Every record kind: its keys are exactly its schema's, each of its JSON type.
        *[pytest.param(name, line, damage(key), id=f"{kind}-{how}")
          for kind, (name, line, key) in RECORD_LINES.items()
          for how, damage in RECORD_DAMAGE.items()],
        pytest.param("model.jsonl", 1, in_params(set_to(w9=[])), id="params-unknown-key"),
        pytest.param("model.jsonl", 1, in_params(without("w1")), id="params-missing-key"),
        pytest.param("model.jsonl", 1, in_params(lambda params: list(params.values())),
                     id="params-json-list"),
        pytest.param("model.jsonl", 1, in_params(set_to(b1=True)), id="params-bool-for-list"),
        pytest.param("model.jsonl", 1, in_params(set_to(b1=[])), id="params-b1-empty"),
        pytest.param("model.jsonl", 1, in_params(set_to(w2=[[0.0]])), id="params-w2-shape"),
        pytest.param("model.jsonl", 1, in_params(set_to(b1=[{}])), id="params-b1-object"),
        pytest.param("model.jsonl", 1,
                     in_params(lambda params: {**params, "b1": [str(x) for x in params["b1"]]}),
                     id="params-b1-strings"),
        # `w1` must have one row per feature (config `feature_dim`), not just fit `b1` and `w2`.
        pytest.param("model.jsonl", 1, in_params(lambda params: {**params, "w1": params["w1"][:1]}),
                     id="params-w1-one-row"),
        # Reference counts are derived from the parents; a stored one is an unknown key.
        pytest.param("nodes.jsonl", -1, set_to(ref_count=1), id="node-with-ref-count"),
        # What a type cannot say. Line i + 1 is node i: node 0 is a Deleted target, node 1 an
        # episodic one, node 6 the Deleted summary on parents 0-5 (its edge 0 -> 6 the one each
        # edge case damages), node 8 an Outdated reflection, node 27 an Active episodic node,
        # node 33 the Active summary that is KG entity 34's only parent and the last node (107)
        # an Active reflection. A node has a blocked digest exactly when it is a Deleted
        # episodic node, a forget's target; the digest is 64 lowercase hex characters.
        pytest.param("nodes.jsonl", 1, set_to(content="restored"), id="deleted-node-with-content"),
        pytest.param("nodes.jsonl", 28, set_to(status="outdated"), id="outdated-episodic-node"),
        pytest.param("nodes.jsonl", 34, set_to(status="deleted", content=""),
                     id="summary-deleted-under-entity"),
        pytest.param("nodes.jsonl", 35, set_to(parents=[0]), id="entity-on-deleted-parent"),
        pytest.param("nodes.jsonl", 7, set_to(parents=[1, 2, 3, 4, 5, 6]), id="self-edge"),
        pytest.param("nodes.jsonl", 1, set_to(parents=[6]), id="reversed-edge"),
        pytest.param("nodes.jsonl", 7, set_to(parents=[1, 2, 3, 4, 5, 7]), id="edge-from-later-node"),
        pytest.param("nodes.jsonl", 2, set_to(parents=[0]), id="edge-to-episodic-node"),
        pytest.param("nodes.jsonl", 7, set_to(parents=[0, 0, 2, 3, 4, 5]), id="edge-listed-twice"),
        pytest.param("nodes.jsonl", 7, set_to(parents=[1, 0, 2, 3, 4, 5]), id="parents-out-of-order"),
        pytest.param("nodes.jsonl", 9, set_to(parents=[]), id="outdated-reflection-without-parent"),
        pytest.param("nodes.jsonl", 1, set_to(blocked_digest=5), id="number-digest"),
        pytest.param("nodes.jsonl", 1, set_to(blocked_digest="ab"), id="short-digest"),
        pytest.param("nodes.jsonl", 1, set_to(blocked_digest=HEX_DIGEST.upper()), id="uppercase-digest"),
        pytest.param("nodes.jsonl", 1, set_to(blocked_digest=""), id="forgotten-node-digest-blanked"),
        pytest.param("nodes.jsonl", 28, set_to(blocked_digest=HEX_DIGEST), id="active-node-with-digest"),
        pytest.param("nodes.jsonl", 7, set_to(blocked_digest=HEX_DIGEST), id="deleted-summary-with-digest"),
        pytest.param("nodes.jsonl", 9, set_to(blocked_digest=HEX_DIGEST),
                     id="outdated-reflection-with-digest"),
    ])
    def test_bad_field_is_malformed(self, unlearned, tmp_path, capsys, name, line, change):
        store, _, _ = unlearned
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / name
        lines = path.read_text().splitlines()
        lines[line] = json.dumps(change(json.loads(lines[line])))
        path.write_text("\n".join(lines) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: malformed file: ")
        assert "TypeError(" not in err and "KeyError(" not in err

    # Line i + 1 is node i: node 0 is a Deleted target, node 8 an Outdated reflection and
    # node 27 an Active episodic node. A node's `removed_in` is the index generation in which
    # a forget took it out: a JSON int, -1 exactly while the node is Active, and never above
    # the log's REBUILD count, 0 here since the store never rebuilt. None drops the key.
    @pytest.mark.parametrize("line, value", [
        pytest.param(1, "0", id="string"),
        pytest.param(1, False, id="bool"),
        pytest.param(1, 0.0, id="float"),
        pytest.param(28, 0, id="active-node-removed"),
        pytest.param(1, -1, id="deleted-node-never-removed"),
        pytest.param(9, -1, id="outdated-reflection-never-removed"),
        pytest.param(1, 1, id="removed-after-the-last-rebuild"),
        pytest.param(1, None, id="missing"),
    ])
    def test_bad_removed_in_is_malformed(self, unlearned, tmp_path, capsys, line, value):
        store, _, _ = unlearned
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / "nodes.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[line])
        record.pop("removed_in")
        lines[line] = json.dumps(record if value is None else {**record, "removed_in": value})
        path.write_text("\n".join(lines) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: malformed file: ") and "removed_in" in err

    # Line i + 1 is node i; two notes make nodes 108 and 109, which have no children.
    @pytest.mark.parametrize("damage, reason", [
        pytest.param(lambda lines: lines[:109] + lines[110:], "node 109 is not the next node id 108",
                     id="childless-node-line-dropped"),
        pytest.param(lambda lines: lines[:50] + [lines[51], lines[50]] + lines[52:],
                     "node 50 is not the next node id 49", id="node-lines-out-of-order"),
    ])
    def test_node_lines_are_the_ids_in_order(self, unlearned, tmp_path, capsys, damage, reason):
        store, _, _ = unlearned
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        noted = MemoryStore.load(copy)
        for text in ("first note", "second note"):
            noted.write(Layer.EPISODIC, text)
        noted.save(copy)
        path = copy / "nodes.jsonl"
        path.write_text("\n".join(damage(path.read_text().splitlines())) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: malformed file: ") and reason in err

    @pytest.mark.parametrize("name", FORGOT_SIX_FILES)
    def test_no_file_cut_unblocks_an_id(self, forgot_six, tmp_path, capsys, name):
        """Each file of the store, cut to its header (a header-less one to nothing), is
        refused naming a store file, or loads with every forgotten id still blocked."""
        files = sorted(p.name for p in forgot_six.iterdir() if p.is_file())
        assert files == sorted(FORGOT_SIX_FILES + ["lock"])
        copy = tmp_path / "store"
        shutil.copytree(forgot_six, copy)
        path = copy / name
        header = path.read_text().splitlines()[0]
        path.write_text("" if header.startswith("{") else header + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        if code == 0:
            assert MemoryStore.load(copy).blocklist.entries() == [0, 1, 2, 3, 4, 5]
        else:
            assert code == 1 and any(err.startswith(f"error: {copy / n}: ") for n in FORGOT_SIX_FILES), err

    # Every node was written by one WRITE record, and nothing else writes one: 108 nodes here.
    @pytest.mark.parametrize("name, cut", [
        pytest.param("nodes.jsonl", lambda lines: lines[:-1], id="last-node-line-dropped"),
        pytest.param("audit.jsonl", lambda lines: lines[:1 + 49], id="audit-cut-to-49-records"),
    ])
    def test_nodes_and_write_records_must_match(self, forgot_six, tmp_path, capsys, name, cut):
        copy = tmp_path / "store"
        shutil.copytree(forgot_six, copy)
        path = copy / name
        path.write_text("\n".join(cut(path.read_text().splitlines())) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {copy / 'nodes.jsonl'}: malformed file: ")
        assert "WRITE records" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_model_parameter_is_malformed(self, pipeline, tmp_path, capsys, value):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / "model.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["params"]["w1"][3][5] = value
        path.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: malformed file: ")
        assert "model parameters must be finite" in err

    def test_model_without_a_class_per_choice_is_malformed(self, pipeline, tmp_path, capsys):
        """A model cut to three classes fits its own shapes, but not the four answer choices."""
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / "model.jsonl"
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["params"]["w2"] = [row[:3] for row in record["params"]["w2"]]
        record["params"]["b2"] = record["params"]["b2"][:3]
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        request = tmp_path / "request.json"
        write_request(request, *load_context(copy))
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        for argv in (["query", "--text", "what remedy"], ["probe", "--id", "0"], ["eval"],
                     ["unlearn", "--request", str(request)]):
            assert main([argv[0], "--store", str(copy), *argv[1:]]) == 1, argv
            assert capsys.readouterr().err == (
                f"error: {path}: malformed file: "
                "ValueError('b2 has 3 classes, not one per answer choice (4)')\n"), argv
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    def test_v1_model_file_is_rejected(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / "model.jsonl"
        params = json.loads(path.read_text().splitlines()[1])["params"]
        path.write_text("memscrub-model v1\n"
                        + json.dumps({"params": params, "ref_params": params}) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: missing or wrong version header\n"

    @pytest.mark.parametrize("header, dropped", [
        # v5 nodes kept no removal generation, and v4 nodes no blocked digest either.
        pytest.param("memscrub-nodes v5", {"removed_in"}, id="v5-nodes"),
        pytest.param("memscrub-nodes v4", {"blocked_digest", "removed_in"}, id="v4-nodes"),
    ])
    def test_old_format_is_rejected(self, unlearned, tmp_path, capsys, header, dropped):
        store, _, _ = unlearned
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / "nodes.jsonl"
        _, *records = path.read_text().splitlines()
        records = [canonical_json({k: v for k, v in json.loads(line).items() if k not in dropped})
                   for line in records]
        path.write_text("\n".join([header, *records]) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: missing or wrong version header\n"

    def test_store_rejects_malformed_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"item_id":"x"}\n')
        code = main(["store", "--corpus", str(corpus), "--store", str(tmp_path / "store")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "corpus.jsonl" in err

    def test_store_rejects_item_id_listed_twice(self, pipeline, tmp_path, capsys):
        source, _ = pipeline
        corpus = tmp_path / "corpus.jsonl"
        lines = source.read_text().splitlines()
        corpus.write_text("\n".join(lines[:1] + [with_fields(lines[1], item_id="topic000-i00")]
                                    + lines[2:]) + "\n")
        code = main(["store", "--corpus", str(corpus), "--store", str(tmp_path / "store")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}: malformed file: ")
        assert "item_id 'topic000-i00' is listed twice" in err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("bad", BAD_CORPUS_FIELDS.values(), ids=BAD_CORPUS_FIELDS.keys())
    def test_store_rejects_bad_corpus_record(self, pipeline, tmp_path, capsys, bad):
        source, _ = pipeline
        corpus = tmp_path / "corpus.jsonl"
        lines = source.read_text().splitlines()
        corpus.write_text("\n".join([with_fields(lines[0], **bad)] + lines[1:]) + "\n")
        code = main(["store", "--corpus", str(corpus), "--store", str(tmp_path / "store")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {corpus}: malformed file: ")
        assert not (tmp_path / "store").exists()


@pytest.fixture(scope="module")
def unlearned(tmp_path_factory):
    root = tmp_path_factory.mktemp("unlearn")
    corpus = root / "corpus.jsonl"
    store = root / "store"
    main(["gen-corpus", "--out", str(corpus), "--seed", "0"])
    main(["store", "--corpus", str(corpus), "--store", str(store)])
    items, prov = load_context(store)
    request = root / "request.json"
    targets = write_request(request, items, prov)
    code = main(["unlearn", "--store", str(store), "--request", str(request),
                 "--epochs", "30"])
    assert code == 0
    return store, items, targets


@pytest.fixture(scope="module")
def forgot_six(pipeline, tmp_path_factory):
    """The seed-0 store after one request forgets episodic ids 0-5, the first forget topic."""
    _, source = pipeline
    store = tmp_path_factory.mktemp("forgot-six") / "store"
    shutil.copytree(source, store)
    request = store.parent / "request.json"
    request.write_text(json.dumps({"request_id": "req6", "targets": list(range(6))}))
    assert main(["unlearn", "--store", str(store), "--request", str(request), "--epochs", "1"]) == 0
    return store


class TestUnlearnPipeline:
    def test_metrics_written(self, unlearned):
        store, _, _ = unlearned
        metrics = (store / "metrics" / "unlearn_req-cli.jsonl").read_text().splitlines()
        assert len(metrics) == 30
        assert json.loads(metrics[-1])["retain_acc"] >= 0.95

    def test_forget_question_no_longer_retrieved(self, unlearned, capsys):
        store, items, _ = unlearned
        question = next(it["question"] for it in items if it["split"] == "forget")
        topic = next(it["topic"] for it in items if it["split"] == "forget")
        code, rows = run_cli(capsys, "query", "--store", str(store), "--text", question)
        assert code == 0
        assert all(topic not in r.get("content", "") for r in rows)

    def test_audit_verifies_after_unlearn(self, unlearned, capsys):
        store, _, _ = unlearned
        code, _ = run_cli(capsys, "audit-verify", "--store", str(store))
        assert code == 0

    @pytest.mark.parametrize("node_id", [9999, 6], ids=["unknown-node", "summary"])
    def test_probe_of_an_unmapped_id_is_an_error(self, unlearned, capsys, node_id):
        store, _, _ = unlearned
        assert main(["probe", "--store", str(store), "--id", str(node_id)]) == 1
        assert capsys.readouterr() == ("", f"error: node {node_id} does not map to a corpus item\n")

    def test_probe_reports_no_reexposure(self, unlearned, capsys):
        store, _, targets = unlearned
        code, rows = run_cli(capsys, "probe", "--store", str(store),
                             "--id", str(targets[0]))
        assert code == 0
        assert rows[-1]["reexposed"] is False

    def test_eval_rows(self, unlearned, capsys):
        store, _, _ = unlearned
        code, rows = run_cli(capsys, "eval", "--store", str(store))
        assert code == 0
        methods = [r["method"] for r in rows]
        assert methods == ["parameter_model", "memory_grounded", "naive_deletion",
                           "retraining_oracle", "ours"]
        assert (store / "metrics" / "eval.jsonl").exists()

    def test_store_heap_peak_stays_small(self, tmp_path, capsys):
        """At (seed 1, 48 topics) `store` peaks at ~1.31 MB of traced heap: the pretraining
        feature matrix is gone before the store is populated. Built beside the store, it
        peaked at ~1.57 MB."""
        cfg, corpus = tmp_path / "run.cfg", tmp_path / "corpus.jsonl"
        cfg.write_text("n_topics = 48\nseed = 1\n")
        assert main(["gen-corpus", "--out", str(corpus), "--config", str(cfg)]) == 0
        store = ["store", "--corpus", str(corpus), "--config", str(cfg), "--store"]
        assert main([*store, str(tmp_path / "warm")]) == 0  # fills one-time caches (argparse, re)
        capsys.readouterr()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            code = main([*store, str(tmp_path / "store")])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert code == 0
        assert json.loads(capsys.readouterr().out)["nodes"] == 432
        assert peak <= 1_450_000

    def test_eval_heap_peak_stays_small(self, tmp_path, capsys):
        """At (seed 1, 48 topics), after a 6-id unlearn, `eval` peaks at ~1.81 MB of traced
        heap. Each split's feature matrix is gone before the memory rows, and the baseline
        arms run before the first search of the loaded store, so its index rows are not
        built beside theirs; with the arms run after that search it peaked at ~2.44 MB."""
        cfg, corpus, store = tmp_path / "run.cfg", tmp_path / "corpus.jsonl", tmp_path / "store"
        cfg.write_text("n_topics = 48\nseed = 1\n")
        request = tmp_path / "request.json"
        request.write_text(json.dumps({"request_id": "r6", "targets": list(range(6))}))
        assert main(["gen-corpus", "--out", str(corpus), "--config", str(cfg)]) == 0
        assert main(["store", "--corpus", str(corpus), "--store", str(store),
                     "--config", str(cfg)]) == 0
        assert main(["unlearn", "--store", str(store), "--request", str(request)]) == 0
        main(["eval", "--store", str(store)])  # fills one-time caches (argparse, re)
        capsys.readouterr()
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            code = main(["eval", "--store", str(store)])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 5
        assert peak <= 2_100_000


class TestRunLoop:
    def test_stage_output(self, capsys):
        code, rows = run_cli(capsys, "run-loop", "--seed", "0")
        assert code == 0
        assert [r.get("stage") for r in rows[:6]] == ["T1", "T2", "T3", "T4", "T5", "T6"]
        assert "cleanup_ratio" in rows[-1]


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg == RunConfig()

    def test_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nlambda_f = 2.5\ntau = 50\nentropy_fallback = off\n")
        cfg = load_config(path)
        assert cfg.lambda_f == 2.5
        assert cfg.tau == 50
        assert cfg.entropy_fallback is False

    def test_flags_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lambda_f = 2.5\n")
        cfg = load_config(path, {"lambda_f": 0.5})
        assert cfg.lambda_f == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mystery = 1\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_zero_temperature_in_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("temperature = 0\n")
        with pytest.raises(ValueError, match="temperature"):
            load_config(path)

    @pytest.mark.parametrize("line, key", [
        ("top_k = 0", "top_k"),
        ("w_kw = 1.3", "w_kw must lie in"),
        ("w_kw = -0.3", "w_kw must lie in"),
        ("oversample_r = 0", "unknown config key 'oversample_r'"),
        ("w_sem = 0.7", "unknown config key 'w_sem'"),
    ])
    def test_bad_retrieval_key_in_file_rejected(self, tmp_path, line, key):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=key):
            load_config(path)

    def test_snapshot_missing_a_key_is_refused(self, pipeline, tmp_path, capsys):
        """A store's snapshot sets every key, so a cut one cannot load a default the store
        was not built with; a ``--config`` file may still set only some keys."""
        corpus, _ = pipeline
        store = tmp_path / "store"
        assert main(["store", "--corpus", str(corpus), "--store", str(store), "--tau", "2"]) == 0
        snapshot = store / "config.cfg"
        lines = snapshot.read_text().splitlines()
        assert "tau = 2" in lines
        snapshot.write_text("\n".join(line for line in lines if line != "tau = 2") + "\n")
        capsys.readouterr()
        assert main(["query", "--store", str(store), "--text", "what remedy"]) == 1
        assert capsys.readouterr().err == f"error: {snapshot}: missing config keys: tau\n"
        partial = tmp_path / "run.cfg"
        partial.write_text("tau = 2\n")
        assert main(["query", "--store", str(store), "--text", "what remedy",
                     "--config", str(partial)]) == 0

    def test_config_file_layers_over_the_snapshot(self, pipeline, tmp_path, capsys):
        """A ``--config`` file that leaves ``tau`` unset keeps the store's own ``tau = 2``,
        so the forget crosses it and rebuilds, as it does with no ``--config``."""
        corpus, _ = pipeline
        store = tmp_path / "store"
        assert main(["store", "--corpus", str(corpus), "--store", str(store), "--tau", "2"]) == 0
        layered = tmp_path / "layered"
        shutil.copytree(store, layered)
        request = tmp_path / "request.json"
        request.write_text(json.dumps({"request_id": "r3", "targets": [0, 1, 2]}))
        partial = tmp_path / "run.cfg"
        partial.write_text("seed = 0\n")
        capsys.readouterr()
        reports = []
        for argv in (["--store", str(store)], ["--store", str(layered), "--config", str(partial)]):
            code, rows = run_cli(capsys, "unlearn", "--request", str(request), *argv)
            assert code == 0
            reports.append(rows[-1]["memory"])
        assert reports[0]["rebuilt"] is True and reports[0]["index_generation"] == 1
        assert reports[1] == reports[0]

    def test_snapshot_and_config_file_together_must_set_every_key(
            self, pipeline, tmp_path, capsys):
        """The every-key rule covers the snapshot and the ``--config`` file together: a file
        that does not set the key cut from the snapshot is refused, naming the snapshot."""
        corpus, _ = pipeline
        store = tmp_path / "store"
        assert main(["store", "--corpus", str(corpus), "--store", str(store), "--tau", "2"]) == 0
        snapshot = store / "config.cfg"
        lines = snapshot.read_text().splitlines()
        snapshot.write_text("\n".join(line for line in lines if line != "tau = 2") + "\n")
        partial = tmp_path / "run.cfg"
        partial.write_text("seed = 0\n")
        capsys.readouterr()
        assert main(["query", "--store", str(store), "--text", "what remedy",
                     "--config", str(partial)]) == 1
        assert capsys.readouterr() == ("", f"error: {snapshot}: missing config keys: tau\n")

    def test_config_changing_feature_dim_on_a_store_writes_nothing(
            self, pipeline, tmp_path, capsys):
        """``feature_dim`` is fixed by the stored model, whose load refuses another value
        before ``unlearn`` writes anything."""
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        names = ["nodes.jsonl", "audit.jsonl", "model.jsonl"]
        before = {name: (copy / name).read_bytes() for name in names}
        request = tmp_path / "request.json"
        request.write_text(json.dumps({"request_id": "r", "targets": [0]}))
        path = tmp_path / "run.cfg"
        path.write_text("feature_dim = 128\n")
        capsys.readouterr()
        assert main(["unlearn", "--store", str(copy), "--request", str(request),
                     "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {copy / 'model.jsonl'}: malformed file: "
                                           "ValueError('w1 has 256 rows, not feature_dim 128')\n")
        assert {name: (copy / name).read_bytes() for name in names} == before
        assert not (copy / "metrics").exists()

    def test_config_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = 0\n\xff\n")
        out = tmp_path / "corpus.jsonl"
        assert main(["gen-corpus", "--out", str(out), "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: not UTF-8 text: invalid start byte\n")
        assert not out.exists()

    def test_store_with_zero_top_k_creates_no_store(self, pipeline, tmp_path, capsys):
        corpus, _ = pipeline
        path = tmp_path / "run.cfg"
        path.write_text("top_k = 0\n")
        store = tmp_path / "store"
        code = main(["store", "--corpus", str(corpus), "--store", str(store),
                     "--config", str(path)])
        assert code == 1
        assert capsys.readouterr().err == "error: top_k must be >= 1\n"
        assert not store.exists()

    @pytest.mark.parametrize("line, message", [
        ("batch_size = -16", "batch_size must be >= 1"),
        ("batch_size = 0", "batch_size must be >= 1"),
        ("pretrain_epochs = -1", "pretrain_epochs and pretrain_lr must be >= 0"),
        ("pretrain_lr = -0.5", "pretrain_epochs and pretrain_lr must be >= 0"),
        # Each of these once passed: `store` wrote a model.jsonl that every later command
        # refused, or gen-corpus exited 0.
        ("pretrain_lr = nan", "pretrain_lr must be finite"),
        ("lr = inf", "lr must be finite"),
        ("lambda_f = nan", "lambda_f must be finite"),
        ("temperature = inf", "temperature must be finite"),
    ])
    def test_bad_training_key_stops_every_command_before_it_writes(
            self, pipeline, tmp_path, capsys, line, message):
        self.check_config_stops_commands(pipeline, tmp_path, capsys, line, message)

    # Each of these once passed load_config. `store` then raised a traceback after creating the
    # store (feature_dim, hidden_dim), or wrote a store that later commands failed on (h_min)
    # or scored every query 0 on (embed_dim); gen-corpus wrote an empty or broken corpus.
    @pytest.mark.parametrize("line, message", [
        ("h_min = 5", "h_min must lie in (0, ln(n_classes))"),
        ("h_min = 0", "h_min must lie in (0, ln(n_classes))"),
        ("feature_dim = 0", "feature_dim must be >= 1"),
        ("hidden_dim = 0", "hidden_dim must be >= 1"),
        ("embed_dim = 0", "embed_dim must be >= 1"),
        ("tau = -1", "tau must be >= 0"),
        ("n_topics = 0", "n_topics must be >= 1"),
        ("items_per_topic = 0", "items_per_topic must be >= 1"),
        ("holdout_per_topic = -1", "holdout_per_topic must be >= 0"),
        ("forget_fraction = 1.5", "forget_fraction must lie in [0, 1]"),
        ("confidence_threshold = 5", "confidence_threshold must lie in [0, 1]"),
        ("confidence_threshold = -1", "confidence_threshold must lie in [0, 1]"),
        # These left a split empty: every eval, or every unlearn and eval, then failed.
        ("holdout_per_topic = 0", "holdout_per_topic = 0 leaves the forget_holdout and test "
                                  "splits empty"),
        ("n_topics = 1", "n_topics = 1 and forget_fraction = 0.25 leave no retain topic"),
        ("forget_fraction = 1.0", "n_topics = 12 and forget_fraction = 1.0 leave no retain topic"),
    ])
    def test_bad_model_retrieval_or_corpus_key_stops_every_command_before_it_writes(
            self, pipeline, tmp_path, capsys, line, message):
        self.check_config_stops_commands(pipeline, tmp_path, capsys, line, message)

    @staticmethod
    def check_config_stops_commands(pipeline, tmp_path, capsys, line, message):
        corpus, _ = pipeline
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        out, store = tmp_path / "corpus.jsonl", tmp_path / "store"
        for argv in (["gen-corpus", "--out", str(out)],
                     ["store", "--corpus", str(corpus), "--store", str(store)]):
            assert main(argv + ["--config", str(path)]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists() and not store.exists()

    @pytest.mark.parametrize("line, expected", [
        ("entropy_fallback = maybe", "a boolean, got 'maybe'"),
        ("tau = 1.5", "an integer, got '1.5'"),
        ("h_min = x", "a number, got 'x'"),
        ("lambda_f = 1,5", "a number, got '1,5'"),
    ], ids=["boolean", "integer", "h-min", "float"])
    def test_value_that_is_not_a_boolean_stops_the_command(self, tmp_path, capsys, line, expected):
        """A value that does not parse as its key's type is an error naming the key."""
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        out = tmp_path / "corpus.jsonl"
        assert main(["gen-corpus", "--out", str(out), "--config", str(path)]) == 1
        key = line.partition(" ")[0]
        assert capsys.readouterr() == ("", f"error: config key {key}: expected {expected}\n")
        assert not out.exists()

    def test_key_set_twice_stops_the_command(self, tmp_path, capsys):
        """A repeated key is refused, not silently last-wins."""
        path = tmp_path / "run.cfg"
        path.write_text("seed = 0\n# a comment\nseed = 5\n")
        out = tmp_path / "corpus.jsonl"
        assert main(["gen-corpus", "--out", str(out), "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}:3: config key 'seed' is set twice\n")
        assert not out.exists()

    def test_negative_epochs_flag_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            load_config(None, {"epochs": -1})

    def test_snapshot_round_trip(self, tmp_path):
        from memscrub.config import save_config_snapshot

        cfg = RunConfig(lambda_f=3.0, tau=42, h_min=None)
        save_config_snapshot(tmp_path, cfg)
        assert load_config(tmp_path / "config.cfg") == cfg
