"""Per-layer tracing from outside the program.

The tracer replaces public callables of the ``memscrub`` modules with
wrappers that record spans (calls, total and self time) or bare call
counts, and restores the originals on exit. Functions are replaced in
every ``memscrub`` module that imported them by name, so a call through
``cli.run_protocol`` is traced like one through ``protocol.run_protocol``.
Self time is a span's duration minus the time covered by its child spans.
Hot predicates (``Blocklist.is_blocked`` and the ``allowed`` callback of
``HybridIndex.search``) are counted, not spanned.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# Spans whose store searches count towards ``evaluation.searches_per_item``.
EVAL_ITEM_SPANS = ("evaluation.memory_accuracy", "evaluation.memory_item_losses",
                   "evaluation.hit_rate")


@dataclass
class SpanStat:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span and count wrappers over the ``memscrub`` package."""

    def __init__(self):
        self.spans: dict[str, SpanStat] = defaultdict(SpanStat)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list = []  # [span name, seconds covered by child spans]
        self._paused = 0
        self._undo: list = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Call through without recording (used around correctness checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _spanned(self, name, fn, observe=None, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                stat = self.spans[name]
                stat.calls += 1
                stat.raised += raised
                stat.total_s += dt
                stat.self_s += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._paused:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _in_eval_item_span(self) -> bool:
        return any(frame[0] in EVAL_ITEM_SPANS for frame in self._stack)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(cls, attr, replacement)
        self._undo.append((cls, attr, original))

    def _patch_function(self, module, attr, make):
        """Replace ``module.attr`` in every memscrub module that bound it by name."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "memscrub":
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, replacement)
                self._undo.append((mod, attr, original))

    def install(self):
        from memscrub import (audit, cli, corpus, evaluation, graph, protocol, retrieval, store,
                              training)

        span = self._spanned
        method = self._patch_method
        function = self._patch_function

        # retrieval
        def before_search(args, kwargs):
            index = args[0]
            self.counts["retrieval.search.scored"] += len(index)
            allowed = kwargs.pop("allowed", None) or args[2]

            def counted_allowed(node_id):
                ok = allowed(node_id)
                if not self._paused:
                    self.counts["retrieval.boundary.calls"] += 1
                    self.counts["retrieval.boundary.rejects"] += not ok
                return ok

            return (index, args[1], counted_allowed), kwargs

        method(retrieval.HybridIndex, "search",
               lambda f: span("retrieval.search", f, before=before_search))
        method(retrieval.HashingEmbedder, "embed", lambda f: span("retrieval.embed", f))
        method(retrieval.HybridIndex, "insert", lambda f: span("retrieval.insert", f))
        method(retrieval.HybridIndex, "remove", lambda f: span("retrieval.remove", f))

        def observe_rebuild(args, result):
            self.counts["retrieval.rebuild.count"] += result.rebuilt

        method(retrieval.HybridIndex, "maybe_rebuild",
               lambda f: span("retrieval.rebuild", f, observe=observe_rebuild))

        # graph
        def observe_closure(args, result):
            self.counts["graph.closure.size"] += len(result)

        def observe_prune(args, report):
            self.counts["graph.prune.removed"] += len(report.removed_ids)
            self.counts["graph.prune.outdated"] += len(report.outdated_ids)
            self.counts["graph.prune.decremented"] += report.shared_decremented

        method(graph.MemoryGraph, "add_memory", lambda f: span("graph.add_memory", f))
        method(graph.MemoryGraph, "dependency_closure",
               lambda f: span("graph.closure", f, observe=observe_closure))
        method(graph.MemoryGraph, "prune", lambda f: span("graph.prune", f, observe=observe_prune))
        method(graph.MemoryGraph, "episodic_ancestors", lambda f: span("graph.ancestors", f))

        # audit
        def observe_verify(args, result):
            self.counts["audit.records"] += len(args[0])

        def observe_block(args, size):
            self.maxima["audit.blocklist.size_max"] = max(
                self.maxima["audit.blocklist.size_max"], size)

        method(audit.AuditLog, "append", lambda f: span("audit.append", f))
        function(audit, "verify_lines", lambda f: span("audit.verify", f, observe=observe_verify))
        method(audit.Blocklist, "block",
               lambda f: span("audit.blocklist.block", f, observe=observe_block))
        method(audit.Blocklist, "compact", lambda f: span("audit.blocklist.compact", f))
        method(audit.Blocklist, "is_blocked",
               lambda f: self._counted("audit.blocklist.is_blocked.calls", f))

        # store
        def before_store_search(args, kwargs):
            if self._in_eval_item_span():
                self.counts["evaluation.searches"] += 1
            return args, kwargs

        def observe_save(args, result):
            mem, directory = args[0], Path(args[1])
            disk = sum((directory / name).stat().st_size for name in store.FILE_HEADERS)
            content = sum(len(n.content.encode("utf-8")) for n in mem.graph.nodes.values())
            self.counts["store.bytes_on_disk"] += disk
            self.counts["store.content_bytes"] += content

        method(store.MemoryStore, "write", lambda f: span("store.write", f))
        method(store.MemoryStore, "search",
               lambda f: span("store.search", f, before=before_store_search))
        method(store.MemoryStore, "forget", lambda f: span("store.forget", f))
        method(store.MemoryStore, "save", lambda f: span("store.save", f, observe=observe_save))
        method(store.MemoryStore, "load", lambda f: span("store.load", f))
        method(store.MemoryStore, "copy", lambda f: span("store.copy", f))

        # training
        def observe_step(args, report):
            self.counts["training.aborted_steps"] += report.aborted

        function(training, "pretrain", lambda f: span("training.pretrain", f))
        function(training, "train_unlearn", lambda f: span("training.train_unlearn", f))
        function(training, "grad_step",
                 lambda f: span("training.grad_step", f, observe=observe_step))
        function(training, "model_accuracy", lambda f: span("training.model_accuracy", f))

        # protocol
        def observe_answer(args, answer):
            self.counts["protocol.answer.memory"] += answer.source == "memory"

        method(protocol.AgentState, "answer",
               lambda f: span("protocol.answer", f, observe=observe_answer))
        function(protocol, "run_protocol", lambda f: span("protocol.run_protocol", f))

        # evaluation
        def items_arg(position):
            def before(args, kwargs):
                self.counts["evaluation.items"] += sum(len(a) for a in args[position])
                return args, kwargs
            return before

        function(evaluation, "memory_baselines", lambda f: span("evaluation.memory_baselines", f))
        function(evaluation, "memory_accuracy",
                 lambda f: span("evaluation.memory_accuracy", f, before=items_arg(slice(1, 3))))
        function(evaluation, "memory_item_losses",
                 lambda f: span("evaluation.memory_item_losses", f, before=items_arg(slice(1, 2))))
        function(evaluation, "_hit_rate",
                 lambda f: span("evaluation.hit_rate", f, before=items_arg(slice(2, 3))))
        function(evaluation, "run_agent_loop", lambda f: span("evaluation.run_agent_loop", f))

        # corpus
        function(corpus, "populate_store", lambda f: span("corpus.populate", f))
        function(corpus, "to_dataset", lambda f: span("corpus.to_dataset", f))

        # cli
        function(cli, "load_model", lambda f: span("cli.load_model", f))
        function(cli, "save_model", lambda f: span("cli.save_model", f))
        function(cli, "main", lambda f: span("cli.command", f))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        s = self.spans
        c = self.counts

        def ms(name):
            return (s[name].self_s * 1e3, "ms")

        def sec(name):
            return (s[name].self_s, "s")

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "retrieval.search.calls": (s["retrieval.search"].calls, "count"),
            "retrieval.search.self_ms": ms("retrieval.search"),
            "retrieval.search.scored_per_call": (
                ratio(c["retrieval.search.scored"], s["retrieval.search"].calls), "entries"),
            "retrieval.boundary.calls": (c["retrieval.boundary.calls"], "count"),
            "retrieval.boundary.reject_ratio": (
                ratio(c["retrieval.boundary.rejects"], c["retrieval.boundary.calls"]), "ratio"),
            "retrieval.embed.calls": (s["retrieval.embed"].calls, "count"),
            "retrieval.embed.self_ms": ms("retrieval.embed"),
            "retrieval.insert.self_ms": ms("retrieval.insert"),
            "retrieval.remove.calls": (s["retrieval.remove"].calls, "count"),
            "retrieval.rebuild.count": (c["retrieval.rebuild.count"], "count"),
            "retrieval.rebuild.self_ms": ms("retrieval.rebuild"),
            "graph.add_memory.self_ms": ms("graph.add_memory"),
            "graph.closure.self_ms": ms("graph.closure"),
            "graph.closure.size": (c["graph.closure.size"], "count"),
            "graph.prune.self_ms": ms("graph.prune"),
            "graph.prune.removed": (c["graph.prune.removed"], "count"),
            "graph.prune.outdated": (c["graph.prune.outdated"], "count"),
            "graph.prune.decremented": (c["graph.prune.decremented"], "count"),
            "graph.ancestors.calls": (s["graph.ancestors"].calls, "count"),
            "graph.ancestors.self_s": sec("graph.ancestors"),
            "audit.append.calls": (s["audit.append"].calls, "count"),
            "audit.append.self_ms": ms("audit.append"),
            "audit.verify.self_ms": ms("audit.verify"),
            "audit.records": (ratio(c["audit.records"], s["audit.verify"].calls), "records"),
            "audit.blocklist.block.self_ms": ms("audit.blocklist.block"),
            "audit.blocklist.size_max": (self.maxima["audit.blocklist.size_max"], "count"),
            "audit.blocklist.compact.count": (s["audit.blocklist.compact"].calls, "count"),
            "audit.blocklist.is_blocked.calls": (c["audit.blocklist.is_blocked.calls"], "count"),
            "store.write.self_ms": ms("store.write"),
            "store.search.self_ms": ms("store.search"),
            "store.forget.self_ms": ms("store.forget"),
            "store.save.self_ms": ms("store.save"),
            "store.load.self_ms": ms("store.load"),
            "store.bytes_per_content_byte": (
                ratio(c["store.bytes_on_disk"], c["store.content_bytes"]), "ratio"),
            "store.copy.calls": (s["store.copy"].calls, "count"),
            "store.copy.self_s": sec("store.copy"),
            "training.pretrain.s": (s["training.pretrain"].total_s, "s"),
            "training.train_unlearn.s": (s["training.train_unlearn"].total_s, "s"),
            "training.grad_step.calls": (s["training.grad_step"].calls, "count"),
            "training.grad_step.self_ms": ms("training.grad_step"),
            "training.model_accuracy.self_s": sec("training.model_accuracy"),
            "training.aborted_steps": (c["training.aborted_steps"], "count"),
            "protocol.answer.self_ms": ms("protocol.answer"),
            "protocol.answer.memory_ratio": (
                ratio(c["protocol.answer.memory"], s["protocol.answer"].calls), "ratio"),
            "protocol.run_protocol.self_s": sec("protocol.run_protocol"),
            "evaluation.memory_baselines.self_s": sec("evaluation.memory_baselines"),
            "evaluation.memory_accuracy.self_s": sec("evaluation.memory_accuracy"),
            "evaluation.memory_item_losses.self_s": sec("evaluation.memory_item_losses"),
            "evaluation.searches_per_item": (
                ratio(c["evaluation.searches"], c["evaluation.items"]), "ratio"),
            "evaluation.run_agent_loop.self_s": sec("evaluation.run_agent_loop"),
            "corpus.populate.self_s": sec("corpus.populate"),
            "corpus.to_dataset.self_s": sec("corpus.to_dataset"),
            "cli.load_model.self_ms": ms("cli.load_model"),
            "cli.save_model.self_ms": ms("cli.save_model"),
            "cli.command.self_s": sec("cli.command"),
        }


class NullTracer:
    """Stand-in for untraced runs: nothing is installed or recorded."""

    @contextlib.contextmanager
    def paused(self):
        yield
