"""Layered memory store as a dependency graph with reference counting.

Memories live in layers (episodic sources plus derived summaries,
reflections and knowledge-graph entities). Derivation edges point from a
source node to the artifact built on top of it, and each node's
``ref_count`` tracks how many of its direct parents are still active, so
a deletion can tell exclusively-supported artifacts from shared ones.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .audit import AuditOp, canonical_json, content_digest, record_of


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
    """A prune was attempted before its targets were blocklisted."""


@dataclass(slots=True)
class MemoryNode:
    id: int
    layer: Layer
    content: str
    ref_count: int
    status: Status

    @classmethod
    def from_record(cls, rec: dict) -> "MemoryNode":
        return cls(**{**rec, "layer": Layer(rec["layer"]), "status": Status(rec["status"])})


@dataclass(frozen=True)
class ForgetRequest:
    request_id: str
    targets: frozenset

    @classmethod
    def of(cls, request_id: str, targets: Iterable[int]) -> "ForgetRequest":
        return cls(request_id=request_id, targets=frozenset(int(t) for t in targets))


@dataclass
class PruneReport:
    targets_deleted: int = 0
    reflections_outdated: int = 0
    shared_decremented: int = 0
    zero_ref_removed: int = 0
    removed_ids: list = field(default_factory=list)
    outdated_ids: list = field(default_factory=list)

    def counts(self) -> dict:
        return {
            "targets_deleted": self.targets_deleted,
            "reflections_outdated": self.reflections_outdated,
            "shared_decremented": self.shared_decremented,
            "zero_ref_removed": self.zero_ref_removed,
        }


class MemoryGraph:
    """Single-writer dependency graph over memory nodes.

    ``ref_count`` of a node is the number of its direct parents that are
    still Active; a derived node whose count hits zero has lost every
    supporting source and is batch-removed during pruning. Only nodes with
    edges have adjacency lists; a missing entry means no edges.
    """

    def __init__(self, audit=None):
        self.nodes: dict[int, MemoryNode] = {}
        self._children: dict[int, list[int]] = {}
        self._parents: dict[int, list[int]] = {}
        self._next_id = 0
        self.audit = audit

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def add_memory(self, layer: Layer, content: str, parents: Iterable[int] = ()) -> int:
        parent_ids = sorted({int(p) for p in parents})
        for pid in parent_ids:
            node = self.nodes.get(pid)
            if node is None:
                raise UnknownNodeError(f"unknown parent id {pid}")
            if node.status is not Status.ACTIVE:
                raise EdgeViolationError(f"parent {pid} is {node.status.value}, not active")
        if parent_ids and layer not in DERIVED_LAYERS:
            raise EdgeViolationError(f"layer {layer.value} cannot have derivation parents")

        node_id = self._next_id
        self._next_id += 1

        if self.audit is not None:
            self.audit.append(AuditOp.WRITE, {
                "id": node_id,
                "layer": layer.value,
                "content_digest": content_digest(content),
                "parents": parent_ids,
            })

        self.nodes[node_id] = MemoryNode(
            id=node_id,
            layer=layer,
            content=content,
            ref_count=len(parent_ids),
            status=Status.ACTIVE,
        )
        if parent_ids:
            self._parents[node_id] = parent_ids
        for pid in parent_ids:
            self._children.setdefault(pid, []).append(node_id)
        return node_id

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> MemoryNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id}") from None

    def parents_of(self, node_id: int) -> list:
        self.node(node_id)
        return list(self._parents.get(node_id, ()))

    def active_view(self) -> Iterator[int]:
        """Ids of Active nodes, ascending. Outdated and Deleted are excluded."""
        for node_id in sorted(self.nodes):
            if self.nodes[node_id].status is Status.ACTIVE:
                yield node_id

    def _reach(self, starts: Iterable[int], edges: dict) -> set:
        """Nodes reachable from ``starts`` along ``edges`` (BFS), excluding the starts."""
        starts = set(starts)
        for start in starts:
            self.node(start)
        seen = set(starts)
        queue = deque(starts)
        while queue:
            for nxt in edges.get(queue.popleft(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen - starts

    def dependency_closure(self, targets: Iterable[int]) -> set:
        """Derived artifacts reachable from any target, excluding the targets."""
        return {v for v in self._reach(targets, self._children)
                if self.nodes[v].layer in DERIVED_LAYERS}

    def episodic_ancestors(self, node_id: int) -> set:
        """Episodic sources this node transitively derives from."""
        return {v for v in self._reach([node_id], self._parents)
                if self.nodes[v].layer is Layer.EPISODIC}

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------

    def prune(self, request: ForgetRequest, closure: set, is_blocked: Callable[[int], bool]) -> PruneReport:
        """Delete the request targets and propagate through the closure.

        Reflections in the closure are tombstoned as Outdated; summaries
        and KG entities lose one reference per parent deleted here and are
        removed at zero. Nodes still supported by a retained Active parent
        survive.
        """
        targets = sorted(set(request.targets))
        for t in targets:
            node = self.node(t)
            if node.layer is not Layer.EPISODIC:
                raise GraphError(f"forget target {t} is {node.layer.value}, only episodic nodes may be targeted")
            if not is_blocked(t):
                raise ProtocolOrderError(f"target {t} is not blocklisted; block before pruning")

        report = PruneReport()
        newly_gone: list = []

        for t in targets:
            node = self.nodes[t]
            if node.status is Status.ACTIVE:
                node.status = Status.DELETED
                node.content = ""
                report.targets_deleted += 1
                report.removed_ids.append(t)
                newly_gone.append(t)

        # Any reflection in the closure is stale once a source is gone,
        # shared support or not.
        for v in sorted(closure):
            node = self.nodes[v]
            if node.layer is Layer.REFLECTION and node.status is Status.ACTIVE:
                node.status = Status.OUTDATED
                report.reflections_outdated += 1
                report.outdated_ids.append(v)
                newly_gone.append(v)

        decremented: set = set()
        queue = deque(newly_gone)
        while queue:
            gone = queue.popleft()
            for child in sorted(self._children.get(gone, ())):
                cnode = self.nodes[child]
                if cnode.status is not Status.ACTIVE:
                    continue
                cnode.ref_count -= 1
                decremented.add(child)
                if cnode.ref_count == 0 and cnode.layer in (Layer.SEMANTIC, Layer.KG_ENTITY):
                    cnode.status = Status.DELETED
                    cnode.content = ""
                    report.zero_ref_removed += 1
                    report.removed_ids.append(child)
                    queue.append(child)

        report.shared_decremented = sum(
            1 for v in decremented if self.nodes[v].status is Status.ACTIVE
        )
        report.removed_ids.sort()
        report.outdated_ids.sort()
        return report

    # ------------------------------------------------------------------
    # Consistency checks
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        for node_id, node in self.nodes.items():
            if node.status is not Status.ACTIVE:
                continue
            active_parents = sum(
                1 for pid in self._parents.get(node_id, ())
                if self.nodes[pid].status is Status.ACTIVE
            )
            assert node.ref_count == active_parents, (
                f"node {node_id}: ref_count {node.ref_count} != active parents {active_parents}"
            )
            if node.layer in DERIVED_LAYERS:
                ancestors = self.episodic_ancestors(node_id)
                alive = [a for a in ancestors if self.nodes[a].status is Status.ACTIVE]
                assert alive, f"active derived node {node_id} has no active episodic ancestor"
        total = sum(
            n.ref_count for n in self.nodes.values() if n.status is Status.ACTIVE
        )
        live_edges = sum(
            1
            for child, parents in self._parents.items()
            if self.nodes[child].status is Status.ACTIVE
            for pid in parents
            if self.nodes[pid].status is Status.ACTIVE
        )
        assert total == live_edges, f"ref_count sum {total} != live edge count {live_edges}"

    # ------------------------------------------------------------------
    # Persistence (line-delimited, stable field order)
    # ------------------------------------------------------------------

    def node_lines(self) -> list:
        return [
            canonical_json(record_of(self.nodes[i]))
            for i in sorted(self.nodes)
        ]

    def edge_lines(self) -> list:
        lines = []
        for child in sorted(self._parents):
            for parent in self._parents[child]:
                lines.append(canonical_json({"child": child, "parent": parent}))
        return lines

    @classmethod
    def from_lines(cls, node_lines: Iterable[str], edge_lines: Iterable[str], audit=None) -> "MemoryGraph":
        graph = cls(audit=audit)
        for line in node_lines:
            node = MemoryNode.from_record(json.loads(line))
            if node.id in graph.nodes:
                raise ValueError(f"node {node.id} is listed twice")
            graph.nodes[node.id] = node
        for line in edge_lines:
            rec = json.loads(line)
            child, parent = rec["child"], rec["parent"]
            if child not in graph.nodes or parent not in graph.nodes:
                raise UnknownNodeError(f"edge {parent} -> {child} names an unknown node")
            graph._parents.setdefault(child, []).append(parent)
            graph._children.setdefault(parent, []).append(child)
        for adjacency in (graph._parents, graph._children):
            for ids in adjacency.values():
                ids.sort()
        if graph.nodes:
            graph._next_id = max(graph.nodes) + 1
        return graph
