import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from memscrub import cli
from memscrub.cli import main
from memscrub.config import RunConfig, load_config


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

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["gen-corpus", "--out", str(a), "--seed", "1"])
        main(["gen-corpus", "--out", str(b), "--seed", "2"])
        assert a.read_text() != b.read_text()


class TestStore:
    def test_expected_files(self, pipeline):
        _, store = pipeline
        for name in ("nodes.jsonl", "edges.jsonl", "blocklist.jsonl", "audit.jsonl",
                     "index.jsonl", "model.jsonl", "corpus.jsonl", "provenance.jsonl",
                     "config.cfg"):
            assert (store / name).exists(), name

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

    def test_tampered_log_fails(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        audit = store / "audit.jsonl"
        original = audit.read_text()
        lines = original.splitlines()
        rec = json.loads(lines[3])
        rec["payload_digest"] = ("0" if rec["payload_digest"][0] != "0" else "1") + rec["payload_digest"][1:]
        lines[3] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        audit.write_text("\n".join(lines) + "\n")
        try:
            code, rows = run_cli(capsys, "audit-verify", "--store", str(store))
            assert code == 1
            assert rows[-1]["ok"] is False
            assert rows[-1]["first_bad_index"] == 2  # header line excluded
        finally:
            audit.write_text(original)

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

    def test_bad_header_fails(self, pipeline, capsys):
        _, store = pipeline
        audit = store / "audit.jsonl"
        original = audit.read_text()
        audit.write_text("wrong header\n" + original)
        try:
            code, rows = run_cli(capsys, "audit-verify", "--store", str(store))
            assert code == 1
        finally:
            audit.write_text(original)

    def test_non_utf8_log_is_bad_header(self, pipeline, tmp_path, capsys):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        with open(copy / "audit.jsonl", "ab") as f:
            f.write(b"\xff\xfe")
        code, rows = run_cli(capsys, "audit-verify", "--store", str(copy))
        assert code == 1
        assert rows[-1]["reason"] == "bad header"


class TestDamagedStore:
    @pytest.mark.parametrize("name, damage", [
        ("blocklist.jsonl", lambda lines: lines[:1]),
        ("index.jsonl", lambda lines: lines[:1]),
        ("edges.jsonl", lambda lines: lines + ['{"child":9999,"parent":0}']),
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
        pytest.param("blocklist.jsonl", lambda lines: lines + [
            '{"id":0,"index_generation":0}', '{"id":0,"index_generation":7}'],
                     id="blocklist.jsonl-duplicate-id"),
        pytest.param("blocklist.jsonl", lambda lines: lines + ['{"digest":"ab"}'] * 2,
                     id="blocklist.jsonl-duplicate-digest"),
        # The store has forgotten the forget split, so its index holds tombstones.
        pytest.param("index.jsonl", lambda lines: lines + ['{"id":107}'],  # an Active reflection
                     id="index.jsonl-tombstone-names-active-node"),
        pytest.param("index.jsonl", lambda lines: lines + ['{"id":9999}'],
                     id="index.jsonl-tombstone-names-unknown-node"),
        pytest.param("index.jsonl", lambda lines: lines + lines[2:3],
                     id="index.jsonl-duplicate-tombstone"),
        pytest.param("nodes.jsonl", lambda lines: ["memscrub-nodes v1"] + lines[1:],
                     id="nodes.jsonl-v1-header"),
        pytest.param("index.jsonl", lambda lines: ["memscrub-index v1"] + lines[1:],
                     id="index.jsonl-v1-header"),
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
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    @pytest.mark.parametrize("name, field, value", [
        pytest.param("model.jsonl", "ref_seed", -1, id="ref-seed-negative"),
        pytest.param("model.jsonl", "ref_seed", True, id="ref-seed-bool"),
        pytest.param("model.jsonl", "ref_seed", 7919.0, id="ref-seed-float"),
        pytest.param("model.jsonl", "ref_seed", "7919", id="ref-seed-string"),
        pytest.param("nodes.jsonl", "layer", "procedural", id="layer-procedural"),
        pytest.param("nodes.jsonl", "layer", "external", id="layer-external"),
    ])
    def test_bad_field_is_malformed(self, pipeline, tmp_path, capsys, name, field, value):
        _, store = pipeline
        copy = tmp_path / "store"
        shutil.copytree(store, copy)
        path = copy / name
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: value})
        path.write_text("\n".join(lines) + "\n")
        code = main(["query", "--store", str(copy), "--text", "what remedy"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}") and ": malformed file: " in err

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
        code = main(["train", "--store", str(copy), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: malformed file: ")
        assert "model parameters must be finite" in err

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

    def test_store_rejects_malformed_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"item_id":"x"}\n')
        code = main(["store", "--corpus", str(corpus), "--store", str(tmp_path / "store")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "corpus.jsonl" in err


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
                           "reindexing", "retraining_oracle", "ours"]
        assert (store / "metrics" / "eval.jsonl").exists()


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
        ("oversample_r = 0", "oversample_r"),
        ("w_sem = 0.5", "w_sem"),
    ])
    def test_bad_retrieval_key_in_file_rejected(self, tmp_path, line, key):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=key):
            load_config(path)

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
    ])
    def test_bad_training_key_stops_every_command_before_it_writes(
            self, pipeline, tmp_path, capsys, line, message):
        corpus, _ = pipeline
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        out, store = tmp_path / "corpus.jsonl", tmp_path / "store"
        for argv in (["gen-corpus", "--out", str(out)],
                     ["store", "--corpus", str(corpus), "--store", str(store)]):
            assert main(argv + ["--config", str(path)]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists() and not store.exists()

    def test_negative_epochs_flag_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            load_config(None, {"epochs": -1})

    def test_snapshot_round_trip(self, tmp_path):
        from memscrub.config import save_config_snapshot

        cfg = RunConfig(lambda_f=3.0, tau=42, h_min=None)
        save_config_snapshot(tmp_path, cfg)
        assert load_config(tmp_path / "config.cfg") == cfg
