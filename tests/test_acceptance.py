"""Acceptance suite: one test per shipped guarantee.

Each test asserts a single externally stated property end to end, with
tolerances pinned in the assertions. Slow-path budgets are enforced with
wall-clock checks where the guarantee includes a runtime bound.
"""

import filecmp
import json
import time
from pathlib import Path

import numpy as np
import pytest

from memscrub.audit import AuditLog, AuditOp, verify_lines
from memscrub.cli import main as cli_main
from memscrub.corpus import populate_store, split_items, to_dataset
from memscrub.evaluation import (
    memory_baselines,
    memory_item_losses,
    mia,
    model_item_losses,
    pairwise_auc,
    run_agent_loop,
)
from memscrub.graph import ForgetRequest, Layer, MemoryGraph, Status
from memscrub.protocol import AgentState, Channel, backflow_probe, run_protocol
from memscrub.retrieval import HashingEmbedder, HybridIndex
from memscrub.store import MemoryStore, RetrievalSettings
from memscrub.training import (
    LabeledBatch,
    ModelState,
    UnlearnConfig,
    loss_and_grads,
    mean_forget_entropy,
    model_accuracy,
    train_unlearn,
)

from conftest import brute_force_closure, build_random_dag

UNLEARN_CFG = UnlearnConfig(lambda_f=1.5, temperature=2.0, lr=0.5, epochs=40, seed=0)
CONTROL_CFG = UnlearnConfig(lambda_f=0.0, temperature=2.0, lr=0.5, epochs=40, seed=0)


def test_01_blocking_completeness():
    """No retrieval result ever names a blocked id, over 1000 random sequences."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    words = ["ash", "bole", "crag", "dell", "elm", "fen", "gale", "holt"]
    for trial in range(1000):
        store = MemoryStore(settings=RetrievalSettings(embed_dim=32))
        ids = []
        blocked = set()
        for op in range(int(rng.integers(3, 12))):
            action = rng.integers(0, 3)
            if action == 0 or not ids:
                text = " ".join(rng.choice(words, size=3))
                try:
                    ids.append(store.write(Layer.EPISODIC, text))
                except ValueError:
                    pass  # digest collision with an earlier blocked write
            elif action == 1:
                victim = int(rng.choice(ids))
                store.blocklist.block([victim], store.audit)
                blocked.add(victim)
            else:
                query = " ".join(rng.choice(words, size=2))
                hits = store.search(query)
                assert not {h.node_id for h in hits} & blocked
        query = " ".join(rng.choice(words, size=2))
        assert not {h.node_id for h in store.search(query)} & blocked
    assert time.monotonic() - start < 60.0


def test_02_dependency_consistency_and_closure_oracle():
    """Random prunes keep every Active derived node supported; closure == brute force."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for trial in range(30):
        n = int(rng.integers(10, 201))
        graph, edges, episodic = build_random_dag(rng, n_nodes=n)
        k = int(rng.integers(1, len(episodic) + 1))
        targets = sorted(int(t) for t in rng.choice(episodic, size=k, replace=False))
        expected = brute_force_closure(edges, targets, lambda v: graph.node(v).layer)
        closure = graph.dependency_closure(targets)
        assert closure == expected
        report = graph.prune(ForgetRequest.of(f"a2-{trial}", targets), closure, lambda _: True)
        assert {v: graph.ref_count(v) for v in report.ref_counts} == report.ref_counts
        graph.check_consistency()
        for node_id in graph.active_view():
            node = graph.node(node_id)
            if node.layer is not Layer.EPISODIC:
                alive = [a for a in graph.episodic_ancestors(node_id)
                         if graph.node(a).status is Status.ACTIVE]
                assert alive
    assert time.monotonic() - start < 60.0


def test_03_shared_artifact_preservation():
    """Diamond: one parent deleted keeps the summary at ref 1; both deleted removes it."""
    graph = MemoryGraph()
    m1 = graph.add_memory(Layer.EPISODIC, "episode one")
    m2 = graph.add_memory(Layer.EPISODIC, "episode two")
    s1 = graph.add_memory(Layer.SEMANTIC, "shared summary", [m1, m2])
    graph.prune(ForgetRequest.of("a3-one", [m1]), graph.dependency_closure([m1]),
                lambda _: True)
    assert graph.node(s1).status is Status.ACTIVE
    assert graph.ref_count(s1) == 1
    graph.prune(ForgetRequest.of("a3-two", [m2]), graph.dependency_closure([m2]),
                lambda _: True)
    assert graph.node(s1).status is Status.DELETED


def test_04_audit_tamper_detection():
    """Single-byte mutations of a 1000-record log are caught with the right index.

    Coverage is a dense random sample of byte positions (every record is
    hit at least once) plus the first and last byte of the log; exhaustive
    byte x value enumeration is quadratic in log size for no extra signal.
    """
    log = AuditLog()
    for i in range(1000):
        log.append(AuditOp.WRITE, {"i": i, "digest": f"{i:064d}"})
    lines = log.to_lines()
    assert verify_lines(lines).ok

    rng = np.random.default_rng(404)
    offsets = [0, len(lines[-1]) - 1]
    positions = [(0, 0), (999, len(lines[999]) - 1)]
    for rec_idx in range(1000):
        positions.append((rec_idx, int(rng.integers(0, len(lines[rec_idx])))))
    for _ in range(500):
        rec_idx = int(rng.integers(0, 1000))
        positions.append((rec_idx, int(rng.integers(0, len(lines[rec_idx])))))

    for rec_idx, char_idx in positions:
        line = lines[rec_idx]
        original = line[char_idx]
        replacement = "x" if original != "x" else "y"
        mutated = list(lines)
        mutated[rec_idx] = line[:char_idx] + replacement + line[char_idx + 1:]
        result = verify_lines(mutated)
        assert not result.ok, (rec_idx, char_idx)
        assert result.first_bad_index == rec_idx, (rec_idx, char_idx)


def test_05_gradient_correctness():
    """Analytic gradients match central differences; KL vanishes at the reference."""
    rng = np.random.default_rng(505)
    h = 1e-6
    checked = 0
    for trial in range(100):
        nf, nh, nc = 5, 4, 3
        state = ModelState.init(nf, nh, nc, seed=trial, ref_seed=trial + 2000)
        cfg = UnlearnConfig(
            lambda_f=float(rng.uniform(0.2, 3.0)),
            temperature=float(rng.uniform(0.5, 3.0)),
            entropy_fallback=bool(rng.integers(0, 2)),
        )
        batch = LabeledBatch.of(
            rng.normal(size=(2, nf)), rng.integers(0, nc, 2),
            rng.normal(size=(2, nf)), n_features=nf)
        report, grads = loss_and_grads(batch, state, cfg)
        residual = report.total - (report.ce_part +
                                   cfg.lambda_f * cfg.temperature ** 2 * report.kl_part)
        assert abs(residual) < 1e-12
        for key in ("w1", "b1", "w2", "b2"):
            flat = state.params[key].reshape(-1)
            for idx in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss_and_grads(batch, state, cfg)[0].total
                flat[idx] = orig - h
                lm = loss_and_grads(batch, state, cfg)[0].total
                flat[idx] = orig
                numeric = (lp - lm) / (2 * h)
                analytic = grads[key].reshape(-1)[idx]
                denom = max(1e-6, abs(numeric), abs(analytic))
                assert abs(numeric - analytic) / denom < 1e-4
                checked += 1
    assert checked >= 100

    state = ModelState.init(5, 4, 3, seed=0, ref_seed=0)
    state.params = {k: v.copy() for k, v in state.ref_params.items()}
    batch = LabeledBatch.of(forget_x=rng.normal(size=(4, 5)), n_features=5)
    cfg = UnlearnConfig(entropy_fallback=False)
    assert loss_and_grads(batch, state, cfg)[0].kl_part == pytest.approx(0.0, abs=1e-12)


def test_06_unlearning_direction(corpus_items, pretrained_model):
    """Forget accuracy drops >= 10 points vs control, retain within 2; entropy rises."""
    start = time.monotonic()
    retain = to_dataset(split_items(corpus_items, "retain"), 256)
    forget = to_dataset(split_items(corpus_items, "forget"), 256)

    control = pretrained_model.copy()
    train_unlearn(retain, forget, control, CONTROL_CFG)
    unlearned = pretrained_model.copy()
    entropy_start = mean_forget_entropy(unlearned, forget.x)
    train_unlearn(retain, forget, unlearned, UNLEARN_CFG)
    entropy_end = mean_forget_entropy(unlearned, forget.x)

    assert model_accuracy(unlearned, forget) <= model_accuracy(control, forget) - 0.10
    assert abs(model_accuracy(unlearned, retain) -
               model_accuracy(control, retain)) <= 0.02
    assert entropy_end > entropy_start
    assert time.monotonic() - start < 300.0


def test_07_mia_oracle(corpus_items, pretrained_model):
    """Pairwise AUC matches the rank identity; scale anchors; directional MIA gain."""
    from test_evaluation import auc_by_ranks

    rng = np.random.default_rng(707)
    members = rng.normal(size=40)
    nonmembers = np.round(rng.normal(size=25), 1)  # ties included
    assert members.size * nonmembers.size == 1000
    assert pairwise_auc(members, nonmembers) == pytest.approx(
        auc_by_ranks(members, nonmembers), abs=1e-9)
    assert mia([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).score == pytest.approx(1.0)
    assert mia([0.1, 0.2], [0.8, 0.9]).score == pytest.approx(0.0)

    retain = to_dataset(split_items(corpus_items, "retain"), 256)
    forget = to_dataset(split_items(corpus_items, "forget"), 256)
    holdout = to_dataset(split_items(corpus_items, "forget_holdout"), 256)

    def score(model):
        return mia(model_item_losses(model, forget),
                   model_item_losses(model, holdout)).score

    control = pretrained_model.copy()
    train_unlearn(retain, forget, control, CONTROL_CFG)
    unlearned = pretrained_model.copy()
    train_unlearn(retain, forget, unlearned, UNLEARN_CFG)
    assert score(unlearned) > score(control)


def test_08_agent_loop_shape(corpus_items):
    """Forget hit rate 100% before deletion and 0% after; retain 100%; cleanup < 1."""
    timeline = run_agent_loop(MemoryStore(), corpus_items)
    measured = timeline.stages[2:]  # T3 before the deletion, T4-T6 after it
    assert measured[0].forget_hit_rate == 1.0
    assert all(s.forget_hit_rate == 0.0 for s in measured[1:])
    assert all(s.retain_hit_rate == 1.0 for s in measured)
    # Shared-dependency scenario: reflections are tombstoned, not removed,
    # so physical cleanup of the closure stays below 1.
    assert 0.0 < timeline.cleanup_ratio < 1.0


def test_09_backflow_channel(corpus_items, pretrained_model):
    """Memory-only ablation re-exposes through the parameter channel; full run doesn't."""

    def seeded_agent():
        store = MemoryStore(settings=RetrievalSettings())
        prov = populate_store(store, corpus_items)
        agent = AgentState(store=store, model=pretrained_model.copy(), feature_dim=256)
        return agent, prov

    item = split_items(corpus_items, "forget")[0]
    targets = lambda prov: sorted(
        prov.item_to_node[it.item_id] for it in split_items(corpus_items, "forget"))

    ablation, prov = seeded_agent()
    ablation.store.forget(ForgetRequest.of("a9-ablation", targets(prov)))
    result = backflow_probe(ablation, item.question, item.answer_text)
    assert result.reexposed
    assert result.channel is Channel.PARAMETER

    full, prov = seeded_agent()
    retain = to_dataset(split_items(corpus_items, "retain"), 256)
    run_protocol(full, ForgetRequest.of("a9-full", targets(prov)), retain, UNLEARN_CFG)
    result = backflow_probe(full, item.question, item.answer_text)
    assert not result.reexposed
    assert result.channel is Channel.NONE


def test_10_rebuild_semantics():
    """Rebuild fires strictly above tau; results invariant over 50 paired queries."""
    rng = np.random.default_rng(1010)
    words = ["oak", "yew", "fir", "ash", "elm", "box", "bay", "ivy"]

    def build(n_blocked):
        from memscrub.audit import Blocklist

        index = HybridIndex(HashingEmbedder(64), RetrievalSettings())
        for i in range(400):
            index.insert(i, " ".join(rng.choice(words, size=3)))
        blocklist, log = Blocklist(), AuditLog()
        blocklist.block(range(n_blocked), log)
        return index, blocklist, log

    index, blocklist, log = build(100)
    assert not index.maybe_rebuild(blocklist, log).rebuilt
    assert index.generation == 0

    index, blocklist, log = build(101)
    queries = [" ".join(rng.choice(words, size=2)) for _ in range(50)]
    allowed = lambda i: not blocklist.is_blocked(i)
    before = [[h.node_id for h in index.search(q, allowed)] for q in queries]
    for i in blocklist.entries():  # a forget takes what it blocks out of the index
        index.remove(i)
    assert index.maybe_rebuild(blocklist, log).rebuilt
    assert index.generation == 1
    after = [[h.node_id for h in index.search(q, allowed)] for q in queries]
    assert before == after


def test_11_memory_baseline_ordering(corpus_items, pretrained_model):
    """Naive deletion strands artifacts; ours and the oracle are clean; ours <= naive deletion."""
    store = MemoryStore()
    populate_store(store, corpus_items)
    agent = AgentState(store=store, model=pretrained_model.copy(), feature_dim=256)
    rows = {r.method: r for r in memory_baselines(agent, corpus_items)}
    assert rows["naive_deletion"].dangling_artifacts >= 1
    assert rows["ours"].dangling_artifacts == 0
    assert rows["retraining_oracle"].dangling_artifacts == 0
    assert rows["ours"].forget_acc <= rows["naive_deletion"].forget_acc


def test_12_cli_determinism(tmp_path):
    """Two identical end-to-end CLI runs leave byte-identical stores and metrics."""

    def pipeline(root: Path):
        corpus = root / "corpus.jsonl"
        store = root / "store"
        assert cli_main(["gen-corpus", "--out", str(corpus), "--seed", "0"]) == 0
        assert cli_main(["store", "--corpus", str(corpus), "--store", str(store)]) == 0
        prov = {}
        for line in (store / "provenance.jsonl").read_text().splitlines()[1:]:
            rec = json.loads(line)
            prov[rec["item_id"]] = rec["node_id"]
        items = [json.loads(l) for l in (store / "corpus.jsonl").read_text().splitlines()]
        targets = [prov[it["item_id"]] for it in items if it["split"] == "forget"]
        request = root / "request.json"
        request.write_text(json.dumps({"request_id": "a12", "targets": targets}))
        assert cli_main(["unlearn", "--store", str(store), "--request", str(request)]) == 0
        assert cli_main(["eval", "--store", str(store)]) == 0
        return store

    store_a = pipeline(tmp_path / "run_a")
    store_b = pipeline(tmp_path / "run_b")

    files_a = sorted(p.relative_to(store_a) for p in store_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(store_b) for p in store_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert filecmp.cmp(store_a / rel, store_b / rel, shallow=False), str(rel)
