"""The benchmark's three workloads.

Each workload is a single-process closed loop with one client: the next
operation starts only after the previous one returned. Inputs are
generated from the seed; the program sees only those inputs. Work per run
is fixed by the scale (derived from ``--seconds`` at a fixed nominal rate),
never by a clock, so two commits always do identical work.

Every workload returns a ``RunResult`` holding its set-up times, the
latency of each timed operation, the named end-to-end metrics and the
attempted/failed counts. Correctness checks run after each timer stops.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from memscrub import cli, corpus, evaluation, training
from memscrub.config import RunConfig
from memscrub.graph import ForgetRequest, Layer, Status
from memscrub.protocol import AgentState
from memscrub.store import BlockedContentError, MemoryStore

SUB_RUNS = 5  # serve and churn; unlearn-eval uses one sub-run per pass


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)
    sub_runs: list = field(default_factory=list)  # latency (ms) of each timed op, per sub-run
    named: dict = field(default_factory=dict)  # end-to-end metrics by name: (value, unit)
    attempted: int = 0
    failed: int = 0
    store: object = None  # final store, for the benchmark's own tests

    def add_latency(self, ms: float, sub: int) -> None:
        while len(self.sub_runs) <= sub:
            self.sub_runs.append([])
        self.sub_runs[sub].append(ms)

    def record(self, ok: bool, ms: float, sub: int) -> None:
        self.attempted += 1
        if ok:
            self.add_latency(ms, sub)
        else:
            self.failed += 1

    @property
    def op_ms(self) -> list:
        return [ms for sub in self.sub_runs for ms in sub]

    @property
    def busy_s(self) -> float:
        return sum(self.op_ms) / 1e3

    def op_metrics(self) -> dict:
        """Throughput and latency quantiles, each the median over the sub-runs.

        A burst of interference from other tenants of the machine then moves
        at most the sub-runs it hits, not the reported value.
        """
        subs = [sub for sub in self.sub_runs if sub]
        if not subs:
            return {"ops_per_s": (0.0, "1/s"), "op_ms_p50": (0.0, "ms"), "op_ms_p95": (0.0, "ms")}
        return {
            "ops_per_s": (statistics.median(len(sub) * 1e3 / sum(sub) for sub in subs), "1/s"),
            "op_ms_p50": (statistics.median(pct(sub, 50) for sub in subs), "ms"),
            "op_ms_p95": (statistics.median(pct(sub, 95) for sub in subs), "ms"),
        }


def pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _report_failure(what: str) -> None:
    sys.stderr.write(f"perfbench: {what} failed\n{traceback.format_exc()}")


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def run_cli(argv):
    """One in-process CLI command; returns (exit code, stdout lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]


def _hits_allowed(store: MemoryStore, hit_ids) -> bool:
    """No returned hit is blocklisted or non-Active."""
    for node_id in hit_ids:
        node = store.graph.nodes.get(node_id)
        if node_id in store.blocklist or node is None or node.status is not Status.ACTIVE:
            return False
    return True


def _set_up(result: RunResult, tracer, make, count: int, first: int = 0,
            trace_last: bool = False):
    """Run ``make(i)`` for ``count`` indices from ``first``, timing each.

    Each repetition starts from a collected heap with the previous result
    released, so the garbage collector's state does not vary between them.
    Only the last repetition may be traced. Returns the last result.
    """
    out = None
    for i in range(first, first + count):
        out = None
        gc.collect()
        traced = trace_last and i == first + count - 1
        with contextlib.nullcontext() if traced else tracer.paused():
            t0 = time.perf_counter()
            out = make(i)
            result.setup_s.append(time.perf_counter() - t0)
    return out


def _split(setups: int):
    """Set-ups to run before and after the timed phase.

    Sampling both ends of a run steadies the median set-up time when the
    machine's speed drifts during the run.
    """
    return (setups + 1) // 2, setups // 2


def _zipf_topics(rng, topics, size, exponent=1.1):
    ranks = np.arange(1, len(topics) + 1, dtype=float)
    weights = ranks ** -exponent
    order = rng.permutation(len(topics))
    draws = rng.choice(len(topics), size=size, p=weights / weights.sum())
    return [topics[order[d]] for d in draws]


def _note(rng, topic: str) -> str:
    a, b = rng.integers(0, 10 ** 6, size=2)
    return f"note on {topic} visit case{a:06d} followup case{b:06d} observed"


# ---------------------------------------------------------------------------
# serve: answer-heavy traffic on a fixed-size store
# ---------------------------------------------------------------------------

@dataclass
class ServeScale:
    n_topics: int = 120
    extra_notes: int = 200  # 120 topics give 1 080 nodes; notes bring the store to 1 280
    n_ops: int = 1500
    max_forgets: int = 90  # stays below tau=100, so no rebuild runs
    setups: int = 5

    @classmethod
    def for_seconds(cls, seconds: int) -> "ServeScale":
        return cls(n_ops=100 * seconds)  # nominal 10 ms per operation

    @classmethod
    def tiny(cls) -> "ServeScale":
        return cls(n_topics=6, extra_notes=10, n_ops=60, max_forgets=5)


def _serve_setup(seed: int, scale: ServeScale):
    cfg = RunConfig(seed=seed)
    rng = np.random.default_rng([seed, 1])
    items = corpus.generate_corpus(seed=seed, n_topics=scale.n_topics)
    store = MemoryStore(settings=cfg.retrieval_settings())
    prov = corpus.populate_store(store, items)
    topics = sorted({it.topic for it in items})
    for i in range(scale.extra_notes):
        store.write(Layer.EPISODIC, _note(rng, topics[i % len(topics)]))
    model = training.ModelState.init(cfg.feature_dim, cfg.hidden_dim, len(corpus.CHOICES),
                                     seed=seed, ref_seed=seed + 7919)
    trained = corpus.split_items(items, "forget") + corpus.split_items(items, "retain")
    training.pretrain(corpus.to_dataset(trained, cfg.feature_dim), model, cfg.pretrain_config())
    agent = AgentState(store=store, model=model, feature_dim=cfg.feature_dim,
                       confidence_threshold=cfg.confidence_threshold)
    return agent, items, prov


def serve_ops(seed: int, items, prov, scale: ServeScale) -> list:
    """~85 % answers, ~13 % note writes, ~2 % single-item forgets, Zipf topics.

    Answers ask about stored items, unseen (holdout/test) items and items
    already forgotten earlier in the sequence.
    """
    rng = np.random.default_rng([seed, 2])
    topics = sorted({it.topic for it in items})
    stored = {t: [] for t in topics}
    unseen = {t: [] for t in topics}
    for it in items:
        (stored if it.split in ("forget", "retain") else unseen)[it.topic].append(it)
    forgotten: list = []
    ops = []
    for topic in _zipf_topics(rng, topics, scale.n_ops):
        u = rng.random()
        live = [it for it in stored[topic] if it not in forgotten]
        if u >= 0.98 and live and len(forgotten) < scale.max_forgets:
            item = live[rng.integers(len(live))]
            forgotten.append(item)
            ops.append(("forget", prov.item_to_node[item.item_id]))
        elif 0.85 <= u < 0.98:
            ops.append(("write", _note(rng, topic)))
        else:
            v = rng.random()
            if v < 0.15 and forgotten:
                pool = forgotten
            elif v < 0.40:
                pool = unseen[topic]
            else:
                pool = stored[topic]
            ops.append(("answer", pool[rng.integers(len(pool))].question))
    return ops


def run_serve(seed: int, scale: ServeScale, tracer, workdir: Path, setups=None,
              trace_setup=False) -> RunResult:
    del workdir  # serve keeps everything in memory
    result = RunResult()
    before, after = _split(setups or scale.setups)

    def make(i):
        return _serve_setup(seed, scale)

    agent, items, prov = _set_up(result, tracer, make, before, trace_last=trace_setup)
    store = agent.store
    ops = serve_ops(seed, items, prov, scale)
    latency = {"answer": [], "write": [], "forget": []}
    for n, op in enumerate(ops):
        kind = op[0]
        ok = False
        ms = 0.0
        t0 = time.perf_counter()
        try:
            if kind == "answer":
                out = agent.answer(op[1])
            elif kind == "write":
                out = store.write(Layer.EPISODIC, op[1])
            else:
                out = store.forget(ForgetRequest.of(f"serve-{n}", [op[1]]))
            ms = _ms_since(t0)
            with tracer.paused():
                if kind == "answer":
                    ok = _hits_allowed(store, out.hit_ids)
                elif kind == "write":
                    ok = store.graph.nodes[out].status is Status.ACTIVE and out in store.index
                else:
                    ok = (out.prune.targets_deleted == 1
                          and store.graph.nodes[op[1]].status is Status.DELETED
                          and op[1] not in store.index)
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            _report_failure(f"serve op {n} ({kind})")
        result.record(ok, ms, n * SUB_RUNS // len(ops))
        if ok:
            latency[kind].append(ms)
    result.named = {
        "answer_ms_p50": (pct(latency["answer"], 50), "ms"),
        "answer_ms_p99": (pct(latency["answer"], 99), "ms"),
        "write_ms_p50": (pct(latency["write"], 50), "ms"),
        "forget_ms_p50": (pct(latency["forget"], 50), "ms"),
    }
    if after:
        del agent, store  # released, so later set-ups do not raise the peak RSS
        _set_up(result, tracer, make, after, first=before)
    else:
        result.store = store
    return result


# ---------------------------------------------------------------------------
# churn: a growing store under writes, forget requests and checkpoints
# ---------------------------------------------------------------------------

@dataclass
class ChurnScale:
    n_topics: int = 120
    rounds: int = 1000  # a forget p99 needs at least 1 000 requests
    notes_per_round: int = 7  # plus one two-parent summary: 8 writes per round
    forget_size: int = 6  # 100 / 6: the blocklist crosses tau every ~17 requests
    # Probes (1 %) and checkpoints (2 %) together stay under 5 % of rounds, so
    # the p95 round falls among rounds that rebuild the index (~6 %).
    probe_every: int = 100
    checkpoint_every: int = 50
    setups: int = 11  # a set-up takes ~0.15 s; more repeats steady its median

    @classmethod
    def for_seconds(cls, seconds: int) -> "ChurnScale":
        return cls(rounds=50 * seconds)  # nominal ~20 ms per round

    @classmethod
    def tiny(cls) -> "ChurnScale":
        return cls(n_topics=6, rounds=40, probe_every=5, checkpoint_every=10)


def _churn_setup(seed: int, scale: ChurnScale):
    cfg = RunConfig(seed=seed)
    items = corpus.generate_corpus(seed=seed, n_topics=scale.n_topics)
    store = MemoryStore(settings=cfg.retrieval_settings())
    prov = corpus.populate_store(store, items)
    return cfg, items, prov, store


def _checkpoint(store: MemoryStore, directory: Path, cfg, result: RunResult, latency,
                tracer) -> MemoryStore:
    """save -> load -> ``memscrub audit-verify`` of the saved directory.

    Returns the reloaded store, on which the run goes on.
    """
    ok = False
    reloaded = store
    t0 = time.perf_counter()
    try:
        store.save(directory)
        save_ms = _ms_since(t0)
        t1 = time.perf_counter()
        reloaded = MemoryStore.load(directory, settings=cfg.retrieval_settings())
        load_ms = _ms_since(t1)
        t2 = time.perf_counter()
        code, rows = run_cli(["audit-verify", "--store", directory])
        verify_ms = _ms_since(t2)
        with tracer.paused():
            ok = (code == 0 and rows[-1]["ok"] is True
                  and rows[-1]["records"] == len(store.audit)
                  and reloaded.graph.node_lines() == store.graph.node_lines()
                  and reloaded.graph.edge_lines() == store.graph.edge_lines()
                  and reloaded.blocklist.to_lines() == store.blocklist.to_lines()
                  and reloaded.index.to_lines() == store.index.to_lines())
            if ok:
                reloaded.graph.check_consistency()
        if ok:
            latency["save"].append(save_ms)
            latency["load"].append(load_ms)
            latency["verify"].append(verify_ms)
    except Exception:  # noqa: BLE001 - counted as a failed checkpoint
        _report_failure("churn checkpoint")
        ok = False
    result.attempted += 1
    result.failed += not ok
    return reloaded if ok else store


def run_churn(seed: int, scale: ChurnScale, tracer, workdir: Path, setups=None,
              trace_setup=False) -> RunResult:
    result = RunResult()
    before, after = _split(setups or scale.setups)

    def make(i):
        return _churn_setup(seed, scale)

    cfg, items, prov, store = _set_up(result, tracer, make, before, trace_last=trace_setup)
    rng = np.random.default_rng([seed, 3])
    topics = sorted({it.topic for it in items})
    by_id = {it.item_id: it for it in items}
    # The client's own view: the episodic records it wrote and their text.
    texts = {node_id: corpus.episodic_content(by_id[item_id])
             for item_id, node_id in prov.item_to_node.items()}
    live = sorted(texts)
    ckpt_dir = workdir / "churn-store"
    latency = {"write": [], "forget": [], "save": [], "load": [], "verify": []}

    round_ms, round_ok = 0.0, True

    def op(fn, check, bucket=None):
        """One timed call, added to the round; returns its output, or None if it failed."""
        nonlocal round_ms, round_ok
        t0 = time.perf_counter()
        out, ok = None, False
        try:
            out = fn()
            ms = _ms_since(t0)
            with tracer.paused():
                ok = check(out)
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            _report_failure("churn op")
        result.attempted += 1
        result.failed += not ok
        round_ok &= ok
        if not ok:
            return None
        round_ms += ms
        if bucket is not None:
            latency[bucket].append(ms)
        return out

    def written(node_id):
        return store.graph.nodes[node_id].status is Status.ACTIVE and node_id in store.index

    def rewrite_rejected(text):
        try:
            store.write(Layer.EPISODIC, text)
        except BlockedContentError:
            return True
        return False

    for r in range(scale.rounds):
        round_ms, round_ok = 0.0, True
        topic = topics[rng.integers(len(topics))]
        for _ in range(scale.notes_per_round):
            text = _note(rng, topic)
            node_id = op(lambda: store.write(Layer.EPISODIC, text), written, "write")
            if node_id is not None:
                texts[node_id] = text
                live.append(node_id)
        parents = sorted(rng.choice(live, size=2, replace=False).tolist())
        summary = f"summary of {topic} cases {parents[0]} and {parents[1]} reviewed"
        op(lambda: store.write(Layer.SEMANTIC, summary, parents=parents), written, "write")

        picks = rng.choice(len(live), size=scale.forget_size, replace=False)
        targets = sorted(live[i] for i in picks)
        gone = set(targets)
        live = [n for n in live if n not in gone]
        request = ForgetRequest.of(f"churn-{r}", targets)
        op(lambda: store.forget(request),
           lambda report: all(store.graph.nodes[t].status is Status.DELETED
                              and t not in store.index for t in targets),
           "forget")
        op(lambda: rewrite_rejected(texts[targets[0]]), bool)

        if r % scale.probe_every == scale.probe_every // 2:
            # A probe: what retrieval returns for a corpus question, and the
            # memory-side loss (the membership-inference signal) of its item.
            item = items[rng.integers(len(items))]
            op(lambda: store.search(item.question),
               lambda hits: _hits_allowed(store, [h.node_id for h in hits]))
            op(lambda: evaluation.memory_item_losses(store, [item]),
               lambda losses: len(losses) == 1 and 0.0 <= losses[0] <= 1.0)

        if r % scale.checkpoint_every == scale.checkpoint_every - 1:
            saves = len(latency["save"])
            store = _checkpoint(store, ckpt_dir, cfg, result, latency, tracer)
            if len(latency["save"]) > saves:
                round_ms += latency["save"][-1] + latency["load"][-1] + latency["verify"][-1]
            else:
                round_ok = False
        # The request unit of the end-to-end op metrics is one round.
        if round_ok:
            result.add_latency(round_ms, r * SUB_RUNS // scale.rounds)

    def med(name):
        return statistics.median(latency[name]) if latency[name] else 0.0

    result.named = {
        "write_ms_p50": (pct(latency["write"], 50), "ms"),
        "forget_ms_p50": (pct(latency["forget"], 50), "ms"),
        "forget_ms_p99": (pct(latency["forget"], 99), "ms"),
        "save_ms": (med("save"), "ms"),
        "load_ms": (med("load"), "ms"),
        "verify_ms": (med("verify"), "ms"),
    }
    if after:
        del store  # released, so later set-ups do not raise the peak RSS
        _set_up(result, tracer, make, after, first=before)
    else:
        result.store = store
    return result


# ---------------------------------------------------------------------------
# unlearn-eval: the CLI product pipeline, in-process
# ---------------------------------------------------------------------------

@dataclass
class UnlearnScale:
    n_topics: int = 48
    unlearns: int = 5  # one forget topic each, out of n_topics / 4
    passes: int = 2
    setups: int = 5

    @classmethod
    def for_seconds(cls, seconds: int) -> "UnlearnScale":
        return cls(passes=max(1, seconds // 10))  # nominal 10 s per pass

    @classmethod
    def tiny(cls) -> "UnlearnScale":
        return cls(n_topics=8, unlearns=2, passes=1)


def _unlearn_setup(seed: int, scale: UnlearnScale, directory: Path) -> Path:
    directory.mkdir(parents=True)
    config = directory / "run.cfg"
    config.write_text(f"n_topics = {scale.n_topics}\nseed = {seed}\n", encoding="utf-8")
    code_a, _ = run_cli(["gen-corpus", "--config", config, "--out", directory / "corpus.jsonl"])
    code_b, out = run_cli(["store", "--config", config, "--corpus", directory / "corpus.jsonl",
                           "--store", directory / "store"])
    if code_a or code_b or out[-1].get("command") != "store":
        raise RuntimeError("unlearn-eval set-up failed")
    return directory


def _unlearn_requests(seed: int, setup_dir: Path, scale: UnlearnScale) -> list:
    store_dir = setup_dir / "store"
    lines = (store_dir / "provenance.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    prov = corpus.Provenance.from_lines(lines)
    items = corpus.corpus_from_lines(
        (store_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines())
    forget_topics = sorted({it.topic for it in corpus.split_items(items, "forget")})
    rng = np.random.default_rng([seed, 4])
    chosen = rng.choice(len(forget_topics), size=min(scale.unlearns, len(forget_topics)),
                        replace=False)
    paths = []
    for k, t in enumerate(sorted(chosen)):
        topic = forget_topics[t]
        targets = sorted(node for item_id, node in prov.item_to_node.items()
                         if item_id.startswith(topic + "-"))
        path = setup_dir / f"request-{k}.json"
        path.write_text(json.dumps({"request_id": f"forget-{topic}", "targets": targets}),
                        encoding="utf-8")
        paths.append((path, len(targets)))
    return paths


def _eval_ok(rows) -> bool:
    by_method = {row.get("method"): row for row in rows}
    return all(by_method.get(m, {}).get("dangling_artifacts") == 0
               for m in ("ours", "retraining_oracle"))


def _loop_ok(rows) -> bool:
    stages = {row["stage"]: row for row in rows if "stage" in row}
    t3, t4 = stages.get("T3"), stages.get("T4")
    return (t3 is not None and t4 is not None and t4["forget_hit_rate"] == 0
            and t4["retain_hit_rate"] == t3["retain_hit_rate"])


def run_unlearn_eval(seed: int, scale: UnlearnScale, tracer, workdir: Path,
                     setups=None, trace_setup=False) -> RunResult:
    result = RunResult()
    before, after = _split(setups or scale.setups)

    def make(i):
        return _unlearn_setup(seed, scale, workdir / f"setup-{i}")

    setup_dir = _set_up(result, tracer, make, before, trace_last=trace_setup)
    requests = _unlearn_requests(seed, setup_dir, scale)
    config = setup_dir / "run.cfg"
    latency = {"unlearn": [], "eval": [], "run-loop": [], "audit-verify": []}

    def command(kind, argv, check, sub):
        t0 = time.perf_counter()
        ok = False
        try:
            code, rows = run_cli(argv)
            ms = _ms_since(t0)
            ok = code == 0 and check(rows)
        except (Exception, SystemExit):  # noqa: BLE001 - a failed command is counted
            _report_failure(f"command {kind}")
        result.record(ok, ms if ok else 0.0, sub)
        if ok:
            latency[kind].append(ms)

    for p in range(scale.passes):
        store_dir = workdir / f"pass-{p}"
        shutil.copytree(setup_dir / "store", store_dir)
        for path, n_targets in requests:
            command("unlearn", ["unlearn", "--store", store_dir, "--request", path],
                    lambda rows, n=n_targets: rows[-1]["memory"]["prune"]["targets_deleted"] == n,
                    p)
        command("eval", ["eval", "--store", store_dir], _eval_ok, p)
        command("run-loop", ["run-loop", "--config", config], _loop_ok, p)
        command("audit-verify", ["audit-verify", "--store", store_dir],
                lambda rows: rows[-1]["ok"] is True, p)

    def med_s(kind):
        return statistics.median(latency[kind]) / 1e3 if latency[kind] else 0.0

    result.named = {
        "unlearn_s": (med_s("unlearn"), "s"),
        "eval_s": (med_s("eval"), "s"),
        "loop_s": (med_s("run-loop"), "s"),
    }
    _set_up(result, tracer, make, after, first=before)
    return result


WORKLOADS = {
    "serve": (run_serve, ServeScale),
    "churn": (run_churn, ChurnScale),
    "unlearn-eval": (run_unlearn_eval, UnlearnScale),
}
