"""Command-line front end covering the full lifecycle.

Subcommands: gen-corpus, store, query, unlearn, probe, audit-verify,
eval, run-loop. All output is machine-parseable line-delimited
JSON; exit status is nonzero on error or tamper detection. The store's own
files, every header and the lock belong to ``memscrub.store``; this module
names ``corpus.jsonl``, ``provenance.jsonl`` and ``metrics/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import corpus as corpus_mod
from .audit import canonical_json, json_record, record_of, verify_lines
from .config import RunConfig, load_config, save_config_snapshot
from .corpus import Provenance, split_items, to_dataset
from .evaluation import (
    LoopScenario,
    memory_accuracy,
    memory_baselines,
    mia,
    model_item_losses,
    run_agent_loop,
)
from .graph import ForgetRequest
from .protocol import AgentState, backflow_probe, run_protocol
from .store import (
    FILE_HEADERS,
    PROVENANCE_HEADER,
    MemoryStore,
    existing_store_dir,
    load_model,
    parse_lines,
    save_model,
    store_lock,
    write_lines,
)
from .training import ModelState, model_accuracy, pretrain, train_unlearn

# `train_unlearn` is re-exported, no longer called here: perfbench's tracer test
# checks that patching it reaches this module too.
__all__ = ["main", "train_unlearn"]


def _emit(record: dict) -> None:
    sys.stdout.write(canonical_json(record) + "\n")


# ---------------------------------------------------------------------------
# Store-directory context
# ---------------------------------------------------------------------------

def _resolve_config(args) -> RunConfig:
    # The config-key flags given; one left unset, or that the subcommand lacks, reads None.
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    return load_config(args.config, overrides, getattr(args, "store", None))


def _load_store_context(store_dir: Path, cfg: RunConfig):
    store = MemoryStore.load(store_dir, settings=cfg)
    model = load_model(store_dir, cfg.feature_dim)
    items = parse_lines(corpus_mod.corpus_from_lines, (store_dir / "corpus.jsonl", None))
    prov = parse_lines(lambda lines: Provenance.from_lines(lines).checked(store.graph, items),
                       (store_dir / "provenance.jsonl", PROVENANCE_HEADER))
    agent = AgentState(store=store, model=model, feature_dim=cfg.feature_dim,
                       confidence_threshold=cfg.confidence_threshold)
    return agent, items, prov


def _write_metrics(store_dir: Path, name: str, records) -> list:
    """Write ``records`` as ``metrics/<name>`` in the store; returns the JSON lines."""
    lines = [canonical_json(r) for r in records]
    metrics_dir = store_dir / "metrics"
    metrics_dir.mkdir(exist_ok=True)
    write_lines(metrics_dir / name, None, lines)
    return lines


def _generate_corpus(cfg: RunConfig) -> list:
    return corpus_mod.generate_corpus(
        seed=cfg.seed, n_topics=cfg.n_topics, items_per_topic=cfg.items_per_topic,
        forget_fraction=cfg.forget_fraction, holdout_per_topic=cfg.holdout_per_topic,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_corpus(args) -> int:
    items = _generate_corpus(_resolve_config(args))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_lines(out, None, corpus_mod.corpus_lines(items))
    _emit({"command": "gen-corpus", "items": len(items), "out": str(args.out)})
    return 0


def cmd_store(args) -> int:
    cfg = _resolve_config(args)
    store_dir = Path(args.store)
    items = parse_lines(corpus_mod.corpus_from_lines, (args.corpus, None))
    store_dir.mkdir(parents=True, exist_ok=True)
    with store_lock(store_dir):
        model = ModelState.init(cfg.feature_dim, cfg.hidden_dim, len(corpus_mod.CHOICES),
                                seed=cfg.seed, ref_seed=cfg.seed + 7919)
        trained = to_dataset(split_items(items, "forget") + split_items(items, "retain"),
                             cfg.feature_dim)
        pretrain(trained, model, cfg.pretrain_config())
        train_acc = model_accuracy(model, trained)
        del trained  # the feature matrix is gone before the store is built
        store = MemoryStore(settings=cfg)
        prov = corpus_mod.populate_store(store, items)
        store.save(store_dir)
        save_model(store_dir, model)
        write_lines(store_dir / "corpus.jsonl", None, corpus_mod.corpus_lines(items))
        write_lines(store_dir / "provenance.jsonl", PROVENANCE_HEADER, prov.to_lines())
        save_config_snapshot(store_dir, cfg)
    _emit({
        "command": "store",
        "nodes": len(store.graph.nodes),
        "train_acc": train_acc,
    })
    return 0


def cmd_query(args) -> int:
    cfg = _resolve_config(args)
    agent, _, _ = _load_store_context(Path(args.store), cfg)
    hits = agent.store.search(args.text)
    for hit in hits:
        _emit({
            "id": hit.node_id,
            "sem_score": hit.sem_score,
            "kw_score": hit.kw_score,
            "combined": hit.combined,
            "content": agent.store.content(hit.node_id),
        })
    if not hits:
        _emit({"command": "query", "hits": 0})
    return 0


def _read_request(path: Path) -> ForgetRequest:
    def build(lines):
        rec = json.loads("\n".join(lines))
        request_id, targets = json_record(rec, {"request_id": str, "targets": list})
        if request_id in ("", ".", "..") or set(request_id) & set("/\\\0"):
            raise ValueError("'request_id' must be a non-empty string naming a plain file")
        if not targets or any(type(t) is not int for t in targets):
            raise ValueError("'targets' must be a non-empty JSON list of integer node ids")
        return ForgetRequest.of(request_id, targets)

    return parse_lines(build, (path, None))


def cmd_unlearn(args) -> int:
    cfg = _resolve_config(args)
    store_dir = Path(args.store)
    request = _read_request(Path(args.request))
    with store_lock(store_dir):
        agent, items, _ = _load_store_context(store_dir, cfg)
        retain = to_dataset(split_items(items, "retain"), cfg.feature_dim)
        report = run_protocol(agent, request, retain, cfg)
        agent.store.save(store_dir)
        save_model(store_dir, agent.model)
        _write_metrics(store_dir, f"unlearn_{request.request_id}.jsonl", report.training)
    _emit({"command": "unlearn", **report.to_record()})
    return 0


def cmd_probe(args) -> int:
    cfg = _resolve_config(args)
    agent, items, prov = _load_store_context(Path(args.store), cfg)
    item_id = prov.node_to_item.get(args.id)
    item = next((it for it in items if it.item_id == item_id), None)
    if item is None:
        raise ValueError(f"node {args.id} does not map to a corpus item")
    result = backflow_probe(agent, item.question, item.answer_text)
    _emit({
        "command": "probe",
        "id": args.id,
        "reexposed": result.reexposed,
        "channel": result.channel.value,
        "regenerated": result.regenerated,
    })
    return 0


class _CountedLines:
    """A stream of lines, read once; ``len`` reads the rest of it and counts every line.

    So the count is whole even after a reader stopped at a bad record.
    """

    def __init__(self, lines):
        self._lines = iter(lines)
        self._count = 0

    def __iter__(self):
        for line in self._lines:
            self._count += 1
            yield line

    def __len__(self) -> int:
        self._count += sum(1 for _ in self._lines)
        return self._count


def cmd_audit_verify(args) -> int:
    def verify(lines):
        lines = _CountedLines(lines)
        return verify_lines(lines), len(lines)

    path = existing_store_dir(args.store) / "audit.jsonl"
    try:
        result, records = parse_lines(verify, (path, FILE_HEADERS["audit.jsonl"]))
    except ValueError:  # a wrong header, or a byte anywhere that is not UTF-8
        _emit({"command": "audit-verify", "ok": False, "first_bad_index": 0,
               "reason": "bad header"})
        return 1
    _emit({"command": "audit-verify", "ok": result.ok,
           "first_bad_index": result.first_bad_index, "records": records})
    return 0 if result.ok else 1


def _parameter_row(model: ModelState, items, feature_dim: int) -> dict:
    """The model's ``eval`` row; each split's feature matrix lives only while it is scored."""
    def dataset(split):
        return to_dataset(split_items(items, split), feature_dim)

    forget = dataset("forget")
    member, forget_acc = model_item_losses(model, forget), model_accuracy(model, forget)
    del forget
    param_mia = mia(member, model_item_losses(model, dataset("forget_holdout")))
    return {
        "method": "parameter_model",
        "forget_acc": forget_acc,
        "retain_acc": model_accuracy(model, dataset("retain")),
        "test_acc": model_accuracy(model, dataset("test")),
        "mia_auc": param_mia.auc,
        "mia_score": param_mia.score,
    }


def cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    store_dir = Path(args.store)
    with store_lock(store_dir):
        agent, items, _ = _load_store_context(store_dir, cfg)
        rows = [_parameter_row(agent.model, items, cfg.feature_dim)]
        # The baseline arms run before the first search of the loaded store, so its index
        # rows are not built while theirs are.
        baselines = [record_of(report) for report in memory_baselines(agent, items)]
        mem = memory_accuracy(agent, split_items(items, "forget"), split_items(items, "retain"))
        rows += [{"method": "memory_grounded", **mem}, *baselines]
        lines = _write_metrics(store_dir, "eval.jsonl", rows)
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0


def cmd_run_loop(args) -> int:
    cfg = _resolve_config(args)
    items = _generate_corpus(cfg)
    store = MemoryStore(settings=cfg)
    scenario = LoopScenario(
        forget_items=split_items(items, "forget"),
        retain_items=split_items(items, "retain"),
    )
    timeline = run_agent_loop(store, scenario)
    for stage in timeline.stages:
        _emit(record_of(stage))
    _emit({
        "summary_updates": timeline.summary_updates,
        "cleanup_ratio": timeline.cleanup_ratio,
    })
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memscrub")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--epochs", type=int, default=None)
    common.add_argument("--lambda-f", dest="lambda_f", type=float, default=None)
    common.add_argument("--temperature", type=float, default=None)
    common.add_argument("--tau", type=int, default=None)

    store_arg = argparse.ArgumentParser(add_help=False)
    store_arg.add_argument("--store", type=Path, required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", parents=[common])
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("store", parents=[common, store_arg])
    p.add_argument("--corpus", type=Path, required=True)
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("query", parents=[common, store_arg])
    p.add_argument("--text", required=True)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("unlearn", parents=[common, store_arg])
    p.add_argument("--request", type=Path, required=True)
    p.set_defaults(func=cmd_unlearn)

    p = sub.add_parser("probe", parents=[common, store_arg])
    p.add_argument("--id", type=int, required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("audit-verify", parents=[store_arg])  # reads no config
    p.set_defaults(func=cmd_audit_verify)

    p = sub.add_parser("eval", parents=[common, store_arg])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run-loop", parents=[common])
    p.set_defaults(func=cmd_run_loop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a reader that is gone shows here, not at exit
        return code
    except (ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:  # the rest of the buffer goes to /dev/null, so the exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
