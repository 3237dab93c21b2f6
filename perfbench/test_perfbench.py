"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from memscrub.audit import AuditLog  # noqa: E402
from memscrub.store import MemoryStore  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COMMON = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p95": "ms",
          "peak_rss_mb": "MB", "error_rate": "ratio"}
NAMED = {
    "serve": {"answer_ms_p50": "ms", "answer_ms_p99": "ms", "write_ms_p50": "ms",
              "forget_ms_p50": "ms", **COMMON},
    "churn": {"write_ms_p50": "ms", "forget_ms_p50": "ms", "forget_ms_p99": "ms",
              "save_ms": "ms", "load_ms": "ms", "verify_ms": "ms", **COMMON},
    "unlearn-eval": {"unlearn_s": "s", "eval_s": "s", "loop_s": "s", **COMMON},
}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _tagged(lines, tag):
    (line,) = [x for x in lines if x.startswith(f"# {tag} ")]
    return json.loads(line[len(tag) + 3:])


@pytest.mark.parametrize("workload", sorted(NAMED))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
                  "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    e2e = _tagged(lines, "e2e")
    assert {k: v["unit"] for k, v in e2e.items()} == NAMED[workload]
    assert e2e["error_rate"]["value"] == 0
    env = _tagged(lines, "env")
    assert {"nproc", "python", "numpy", "blas", "loadavg"} <= set(env)

    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    if trace == "1":
        layers = _tagged(lines, "layers")
        assert set(expected) <= set(layers)
        assert "trace.overhead_pct" in layers
    else:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "serve", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tampered_audit_log_counts_as_error(tmp_path, monkeypatch):
    save = MemoryStore.save

    def save_then_tamper(self, directory):
        save(self, directory)
        path = Path(directory) / "audit.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3].replace('"op":"write"', '"op":"block"')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    monkeypatch.setattr(MemoryStore, "save", save_then_tamper)
    result = workloads.run_churn(5, workloads.ChurnScale.tiny(), NullTracer(), tmp_path, setups=1)
    assert result.failed > 0


def test_injected_blocked_hit_counts_as_error(tmp_path, monkeypatch):
    search = MemoryStore.search

    def search_leaking_a_blocked_hit(self, text, *args, **kwargs):
        hits = search(self, text, *args, **kwargs)
        if hits:  # block a returned hit behind the boundary's back
            self.blocklist.block([hits[0].node_id], AuditLog())
        return hits

    monkeypatch.setattr(MemoryStore, "search", search_leaking_a_blocked_hit)
    result = workloads.run_serve(5, workloads.ServeScale.tiny(), NullTracer(), tmp_path, setups=1)
    assert result.failed > 0


def test_span_counts_match_independent_counts(tmp_path):
    with Tracer() as tracer:
        result = workloads.run_churn(5, workloads.ChurnScale.tiny(), tracer, tmp_path,
                                     setups=1, trace_setup=True)
    store = result.store
    writes = tracer.spans["store.write"]
    # Set-up and timed phase are traced from an empty store; rejected rewrites raise.
    assert writes.calls - writes.raised == len(store.graph.nodes)
    assert writes.raised == workloads.ChurnScale.tiny().rounds
    assert tracer.spans["audit.append"].calls == len(store.audit)
    assert tracer.spans["store.forget"].calls == workloads.ChurnScale.tiny().rounds
    assert tracer.counts["retrieval.rebuild.count"] == store.index.generation
    assert tracer.spans["audit.blocklist.compact"].calls == store.blocklist.generation


def test_serve_spans_match_the_generated_operations(tmp_path):
    scale = workloads.ServeScale.tiny()
    with Tracer() as tracer:
        result = workloads.run_serve(5, scale, tracer, tmp_path, setups=1)
    _, items, prov = workloads._serve_setup(5, scale)
    ops = workloads.serve_ops(5, items, prov, scale)
    kinds = [op[0] for op in ops]
    assert result.failed == 0
    assert tracer.spans["protocol.answer"].calls == kinds.count("answer")
    assert tracer.spans["store.forget"].calls == kinds.count("forget")
    assert tracer.spans["store.write"].calls == kinds.count("write")
    assert tracer.spans["retrieval.search"].calls == kinds.count("answer")


def test_tracer_restores_every_patched_callable():
    from memscrub import cli, protocol, training

    before = (MemoryStore.__dict__["load"], training.grad_step, cli.run_protocol,
              protocol.train_unlearn)
    with Tracer():
        assert cli.run_protocol is protocol.run_protocol
        assert protocol.train_unlearn is training.train_unlearn is cli.train_unlearn
        assert training.grad_step is not before[1]
    after = (MemoryStore.__dict__["load"], training.grad_step, cli.run_protocol,
             protocol.train_unlearn)
    assert after == before
