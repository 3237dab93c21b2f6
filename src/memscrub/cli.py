"""Command-line front end covering the full lifecycle.

Subcommands: gen-corpus, store, query, unlearn, probe, audit-verify, eval,
run-loop. Output is line-delimited JSON; an error, OS errors included, is one
``error:`` line and exit 1, and a detected tamper exits 1 too. A command takes
a config-key flag only if it can change what the command prints or writes, so
another is a usage error (exit 2); a ``--config`` file may still set any key.
``memscrub.store`` names every file of a store directory and reads and writes
each one; this module names none. The commands that write a store (``store``,
``unlearn``, ``probe``, ``eval``) hold its lock.
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
from .config import RunConfig, build_model, load_config, save_config_snapshot
from .corpus import split_items, to_dataset
from .evaluation import (
    memory_accuracy,
    memory_baselines,
    mia,
    model_item_losses,
    run_agent_loop,
)
from .graph import ForgetRequest
from .protocol import AgentState, backflow_probe, run_protocol
from .store import (
    MemoryStore,
    audit_file,
    load_corpus,
    load_model,
    parse_lines,
    save_corpus,
    save_model,
    store_lock,
    write_lines,
    write_metrics,
)
from .training import ModelState, model_accuracy, train_unlearn

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
    agent = AgentState(store=store, model=load_model(store_dir, cfg.feature_dim),
                       feature_dim=cfg.feature_dim, confidence_threshold=cfg.confidence_threshold)
    return (agent, *load_corpus(store_dir, store.graph))  # items, provenance


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
    for split in corpus_mod.SPLITS:  # eval scores all four, pretrain and unlearn two
        if not split_items(items, split):
            raise ValueError(f"{args.corpus}: split {split!r} holds no item")
    store_dir.mkdir(parents=True, exist_ok=True)
    with store_lock(store_dir):
        trained = to_dataset(split_items(items, "forget") + split_items(items, "retain"),
                             cfg.feature_dim)
        model = build_model(cfg, trained)
        train_acc = model_accuracy(model, trained)
        del trained  # the feature matrix is gone before the store is built
        store = MemoryStore(settings=cfg)
        prov = corpus_mod.populate_store(store, items)
        store.save(store_dir)
        save_model(store_dir, model)
        save_corpus(store_dir, items, prov)
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
        write_metrics(store_dir, f"unlearn_{request.request_id}", report.training)
    _emit({"command": "unlearn", **report.to_record()})
    return 0


def cmd_probe(args) -> int:
    cfg = _resolve_config(args)
    store_dir = Path(args.store)
    with store_lock(store_dir):
        agent, items, prov = _load_store_context(store_dir, cfg)
        item_id = prov.node_to_item.get(args.id)
        item = next((it for it in items if it.item_id == item_id), None)
        if item is None:
            raise ValueError(f"node {args.id} does not map to a corpus item")
        result = backflow_probe(agent, item.question, item.answer_text)
        if result.written_node is not None:  # the write-back lands, for a later command to find
            agent.store.save(store_dir)
    _emit({"command": "probe", "id": args.id, **record_of(result)})
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

    audit = audit_file(args.store)  # a missing store is an error, not a bad header
    try:
        result, records = parse_lines(verify, audit)
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
        lines = write_metrics(store_dir, "eval", rows)
    for line in lines:
        sys.stdout.write(line + "\n")
    return 0


def cmd_run_loop(args) -> int:
    cfg = _resolve_config(args)
    items = _generate_corpus(cfg)
    timeline = run_agent_loop(MemoryStore(settings=cfg), items)
    for stage in timeline.stages:
        _emit(record_of(stage))
    summary = record_of(timeline)
    del summary["stages"]
    _emit(summary)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memscrub")
    # Nested parents: each command takes the smallest whose flags can change its output.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", type=Path, help="flat key=value config file")
    seeded = argparse.ArgumentParser(add_help=False, parents=[config])
    seeded.add_argument("--seed", type=int)
    training = argparse.ArgumentParser(add_help=False, parents=[seeded])
    training.add_argument("--epochs", type=int)
    training.add_argument("--lambda-f", dest="lambda_f", type=float)
    training.add_argument("--temperature", type=float)
    training.add_argument("--tau", type=int)

    store_arg = argparse.ArgumentParser(add_help=False)
    store_arg.add_argument("--store", type=Path, required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *parents):
        p = sub.add_parser(name, parents=list(parents))
        p.set_defaults(func=func, parser=p)  # main reports a leftover flag with p's usage
        return p

    p = command("gen-corpus", cmd_gen_corpus, seeded)
    p.add_argument("--out", type=Path, required=True)
    p = command("store", cmd_store, training, store_arg)
    p.add_argument("--corpus", type=Path, required=True)
    p = command("query", cmd_query, config, store_arg)
    p.add_argument("--text", required=True)
    p.add_argument("--top-k", dest="top_k", type=int)
    p = command("unlearn", cmd_unlearn, training, store_arg)
    p.add_argument("--request", type=Path, required=True)
    p = command("probe", cmd_probe, config, store_arg)
    p.add_argument("--id", type=int, required=True)
    command("audit-verify", cmd_audit_verify, store_arg)  # reads no config
    command("eval", cmd_eval, config, store_arg)
    command("run-loop", cmd_run_loop, seeded)
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a reader that is gone shows here, not at exit
        return code
    except BrokenPipeError:  # the rest of the buffer goes to /dev/null, so the exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # after BrokenPipeError, which is an OSError
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
