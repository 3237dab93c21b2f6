"""Layered memory store as a dependency graph with reference counting.

Memories live in layers (episodic sources plus derived summaries,
reflections and knowledge-graph entities). Each node records the parents
it was written with; the derivation edges run from those parents to it.
A node's reference count is derived from its parents, never stored: the
number of them that are still active. It lets a deletion tell
exclusively-supported artifacts from shared ones.

One rule set shapes the graph, checked when a node is written and again
when it is loaded: node ``i`` is the ``i``-th node, and its parents are
ascending ids below ``i``, present exactly when its layer is derived.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, get_type_hints

from .audit import AuditOp, canonical_json, content_digest, is_digest, json_record, record_of


class Layer(str, enum.Enum):
    EPISODIC = "episodic"
    SEMANTIC = "semantic"
    REFLECTION = "reflection"
    KG_ENTITY = "kg_entity"


# Layers that may appear as derivation targets (children); any layer may be a parent.
DERIVED_LAYERS = frozenset({Layer.SEMANTIC, Layer.REFLECTION, Layer.KG_ENTITY})


class Status(str, enum.Enum):
    ACTIVE = "active"
    OUTDATED = "outdated"
    DELETED = "deleted"


class GraphError(ValueError):
    """Base class for memory-graph violations."""


class UnknownNodeError(GraphError):
    pass


class EdgeViolationError(GraphError):
    """Edge would violate the layer rules or create a cycle."""


class ProtocolOrderError(GraphError):
    """A prune was attempted before its Active targets were blocklisted."""


@dataclass(slots=True)
class MemoryNode:
    id: int
    layer: Layer
    content: str
    parents: tuple  # ascending ids; () for an episodic node
    status: Status
    blocked_digest: bytes = b""  # raw sha256 of what a forget deleted; b"" unless Deleted and episodic
    removed_in: int = -1  # the index generation in which a forget took it out; -1 while Active


# A node's stored record: the blocked digest is hex on disk, raw bytes in memory.
_NODE_RECORD = {**get_type_hints(MemoryNode), "blocked_digest": str}


@dataclass(frozen=True)
class ForgetRequest:
    request_id: str
    targets: frozenset

    @classmethod
    def of(cls, request_id: str, targets: Iterable[int]) -> "ForgetRequest":
        return cls(request_id=request_id, targets=frozenset(int(t) for t in targets))


@dataclass
class PruneReport:
    """The plan of a prune, computed before any node changes."""

    targets_deleted: int
    removed_ids: list  # ascending: the Active targets, then the zero-ref summaries and entities
    outdated_ids: list  # ascending: the Active reflections of the closure
    ref_counts: dict  # each decremented node's count of Active parents after the prune

    @property
    def reflections_outdated(self) -> int:
        return len(self.outdated_ids)

    @property
    def zero_ref_removed(self) -> int:
        return len(self.removed_ids) - self.targets_deleted

    @property
    def shared_decremented(self) -> int:
        """Decremented nodes that stay Active."""
        return len(self.ref_counts.keys() - set(self.removed_ids))

    def counts(self) -> dict:
        return {
            "targets_deleted": self.targets_deleted,
            "reflections_outdated": self.reflections_outdated,
            "shared_decremented": self.shared_decremented,
            "zero_ref_removed": self.zero_ref_removed,
        }


class MemoryGraph:
    """Single-writer dependency graph over memory nodes.

    ``ref_count(node_id)`` is the number of the node's direct parents that
    are still Active; a derived node whose count hits zero has lost every
    supporting source and is batch-removed during pruning. Every derived
    node has a parent and every parent precedes its children. Only nodes
    with children have a ``_children`` entry.
    """

    def __init__(self, audit=None):
        self.nodes: dict[int, MemoryNode] = {}  # node i is the i-th entry
        self._children: dict[int, list[int]] = {}
        self.audit = audit

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def add_memory(self, layer: Layer, content: str, parents: Iterable[int] = ()) -> int:
        node = MemoryNode(len(self.nodes), layer, content, tuple(sorted({int(p) for p in parents})),
                          Status.ACTIVE)
        for pid in node.parents:
            parent = self.nodes.get(pid)
            if parent is None:
                raise UnknownNodeError(f"unknown parent id {pid}")
            if parent.status is not Status.ACTIVE:
                raise EdgeViolationError(f"parent {pid} is {parent.status.value}, not active")
        self._check_next(node)

        if self.audit is not None:
            self.audit.append(AuditOp.WRITE, {
                "id": node.id,
                "layer": layer.value,
                "content_digest": content_digest(content).hex(),
                "parents": node.parents,
            })
        self._link(node)
        return node.id

    def _check_next(self, node: MemoryNode) -> None:
        """GraphError unless ``node`` may be the next node: the structural rules
        that ``add_memory`` and ``from_lines`` share.

        It takes the next id, so node ``i`` is the ``i``-th node. Its parents are
        ints from 0 up, strictly ascending and below its id, so each names an
        earlier node, no edge repeats and the graph has no cycle. It has
        parents exactly when its layer is derived.
        """
        if node.id != len(self.nodes):
            raise GraphError(f"node {node.id} is not the next node id {len(self.nodes)}")
        last = -1
        for pid in (*node.parents, node.id):
            if type(pid) is not int or pid <= last:
                raise EdgeViolationError(
                    f"parents of node {node.id} are not distinct ascending ids below it: {list(node.parents)}")
            last = pid
        if bool(node.parents) != (node.layer in DERIVED_LAYERS):
            raise EdgeViolationError(f"{node.layer.value} node {node.id} " + (
                "cannot have derivation parents" if node.parents else "needs a derivation parent"))

    def _link(self, node: MemoryNode) -> None:
        self.nodes[node.id] = node
        for pid in node.parents:
            self._children.setdefault(pid, []).append(node.id)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> MemoryNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id}") from None

    def forget_target(self, node_id: int) -> MemoryNode:
        """The node ``node_id`` if a forget request may target it; GraphError unless episodic."""
        node = self.node(node_id)
        if node.layer is not Layer.EPISODIC:
            raise GraphError(f"forget target {node_id} is {node.layer.value}, only episodic nodes may be targeted")
        return node

    def ref_count(self, node_id: int) -> int:
        """The number of the node's direct parents that are Active."""
        return sum(self.nodes[p].status is Status.ACTIVE for p in self.node(node_id).parents)

    def active_view(self) -> Iterator[int]:
        """Ids of Active nodes, ascending. Outdated and Deleted are excluded."""
        for node_id in sorted(self.nodes):
            if self.nodes[node_id].status is Status.ACTIVE:
                yield node_id

    def _reach(self, starts: Iterable[int], edges: Callable[[int], Iterable[int]]) -> set:
        """Nodes reachable from ``starts`` along ``edges(node)`` (BFS), excluding the starts."""
        starts = set(starts)
        for start in starts:
            self.node(start)
        seen = set(starts)
        queue = deque(starts)
        while queue:
            for nxt in edges(queue.popleft()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen - starts

    def dependency_closure(self, targets: Iterable[int]) -> set:
        """Derived artifacts reachable from any target, excluding the targets."""
        return {v for v in self._reach(targets, lambda v: self._children.get(v, ()))
                if self.nodes[v].layer in DERIVED_LAYERS}

    def episodic_ancestors(self, node_id: int) -> set:
        """Episodic sources this node transitively derives from."""
        return {v for v in self._reach([node_id], lambda v: self.nodes[v].parents)
                if self.nodes[v].layer is Layer.EPISODIC}

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def prune(self, request: ForgetRequest, closure: set, is_blocked: Callable[[int], bool],
              digests: Optional[dict] = None, generation: int = 0) -> PruneReport:
        """Delete the request targets and propagate through the closure.

        Each Active target must be blocked already, and keeps the digest of
        its content (``digests[target]`` if given) as ``blocked_digest``; a
        Deleted one is left as it is. Reflections in the closure are
        tombstoned as Outdated; summaries and KG entities lose one reference
        per parent deleted here and are removed at zero. Nodes still supported
        by a retained Active parent survive. Each node deleted or outdated
        keeps the index ``generation`` it leaves as ``removed_in``. The whole
        outcome is planned, then logged as a PRUNE record, then applied.
        """
        removed = [t for t in sorted(request.targets) if self.forget_target(t).status is Status.ACTIVE]
        for t in removed:
            if not is_blocked(t):
                raise ProtocolOrderError(f"target {t} is not blocklisted; block before pruning")

        # Any reflection in the closure is stale once a source is gone,
        # shared support or not.
        outdated = [v for v in sorted(closure) if self.nodes[v].layer is Layer.REFLECTION
                    and self.nodes[v].status is Status.ACTIVE]
        ref_counts: dict = {}
        gone = set(removed + outdated)
        queue = deque(gone)
        while queue:
            for child in self._children.get(queue.popleft(), ()):
                cnode = self.nodes[child]
                if child in gone or cnode.status is not Status.ACTIVE:
                    continue
                # No status has changed yet, so the first count is the parents' own.
                count = ref_counts[child] = ref_counts.get(child, self.ref_count(child)) - 1
                if count == 0 and cnode.layer in (Layer.SEMANTIC, Layer.KG_ENTITY):
                    gone.add(child)
                    queue.append(child)
        report = PruneReport(len(removed), sorted(gone.difference(outdated)), outdated, ref_counts)

        if self.audit is not None:
            self.audit.append(AuditOp.PRUNE, {"request_id": request.request_id, "counts": report.counts()})
        for node_id in report.removed_ids:
            node = self.nodes[node_id]
            if node.layer is Layer.EPISODIC:  # a target: no episodic node is derived
                node.blocked_digest = digests[node_id] if digests else content_digest(node.content)
            node.status, node.content, node.removed_in = Status.DELETED, "", generation
        for node_id in outdated:
            node = self.nodes[node_id]
            node.status, node.removed_in = Status.OUTDATED, generation
        return report

    # ------------------------------------------------------------------
    # Consistency checks
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Raise GraphError unless every Active derived node has an Active parent.

        Parents precede their children, so by induction on the id this
        local rule gives every Active derived node an Active episodic
        ancestor along a path of Active nodes."""
        for node_id, node in self.nodes.items():
            if node.status is Status.ACTIVE and node.layer in DERIVED_LAYERS and not self.ref_count(node_id):
                raise GraphError(f"active derived node {node_id} has no active parent")

    # ------------------------------------------------------------------
    # Persistence (line-delimited, stable field order)
    # ------------------------------------------------------------------

    def node_lines(self) -> list:
        """One line per node, by id: line ``i`` is node ``i``."""
        return [canonical_json({**record_of(node), "blocked_digest": node.blocked_digest.hex()})
                for node in self.nodes.values()]

    def edge_lines(self) -> list:
        """One ``{"child","parent"}`` line per derivation edge, by child, then parent."""
        return [canonical_json({"child": node.id, "parent": pid})
                for node in self.nodes.values() for pid in node.parents]

    @classmethod
    def from_lines(cls, node_lines: Iterable[str], audit=None, generation: int = 0) -> "MemoryGraph":
        """The graph saved as ``node_lines`` at index ``generation``; ValueError unless
        every node passes ``add_memory``'s structural rules in turn, each status is
        one a prune leaves, a node has a blocked digest exactly when a prune deleted
        it as a target and a ``removed_in`` in [0, ``generation``] exactly when it is
        not Active (-1 if it is), the whole passes ``check_consistency`` and
        ``audit``, if given, holds one WRITE record per node."""
        graph = cls(audit=audit)
        for line in node_lines:
            node = MemoryNode(*json_record(json.loads(line), _NODE_RECORD))
            graph._check_next(node)
            if node.status is Status.DELETED and node.content:
                raise ValueError(f"deleted node {node.id} keeps its content")
            if node.status is Status.OUTDATED and node.layer is not Layer.REFLECTION:
                raise ValueError(f"{node.layer.value} node {node.id} is outdated; only reflections go stale")
            forgotten = node.status is Status.DELETED and node.layer is Layer.EPISODIC
            if not (is_digest(node.blocked_digest) if forgotten else node.blocked_digest == ""):
                expected = "a sha256 digest" if forgotten else "empty"
                raise ValueError(f"{node.status.value} {node.layer.value} node {node.id}: "
                                 f"blocked digest {node.blocked_digest!r:.70} is not {expected}")
            node.blocked_digest = bytes.fromhex(node.blocked_digest)
            active = node.status is Status.ACTIVE
            if not (node.removed_in == -1 if active else 0 <= node.removed_in <= generation):
                expected = "-1" if active else f"between 0 and the index generation {generation}"
                raise ValueError(f"{node.status.value} node {node.id}: "
                                 f"removed_in {node.removed_in} is not {expected}")
            graph._link(node)
        graph.check_consistency()
        if audit is not None and audit.count(AuditOp.WRITE) != len(graph.nodes):
            raise ValueError(f"{len(graph.nodes)} nodes but {audit.count(AuditOp.WRITE)} WRITE records")
        return graph
