import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memscrub.audit import canonical_json, content_digest
from memscrub.graph import (
    EdgeViolationError,
    ForgetRequest,
    GraphError,
    Layer,
    MemoryGraph,
    ProtocolOrderError,
    Status,
    UnknownNodeError,
)

from conftest import brute_force_closure, build_random_dag


def always_blocked(_):
    return True


def random_pruned_graph(data):
    """A graph of up to 40 nodes built by ``add_memory``, then pruned by up to 3 random requests."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g, _, episodic = build_random_dag(rng, n_nodes=data.draw(st.integers(1, 40)))
    for r in range(data.draw(st.integers(0, 3))):
        targets = data.draw(st.lists(st.sampled_from(episodic), max_size=4, unique=True))
        g.prune(ForgetRequest.of(f"r{r}", targets), g.dependency_closure(targets), always_blocked)
    return g


def replays(lines) -> bool:
    """Whether ``add_memory``, called on each node record in turn, writes exactly those
    records, and their statuses then pass ``check_consistency``. Every parent is Active
    when its child is written, as it was when the child was first written."""
    g = MemoryGraph()
    try:
        for record in map(json.loads, lines):
            node = g.node(g.add_memory(Layer(record["layer"]), record["content"], record["parents"]))
            if canonical_json(node.parents) != canonical_json(record["parents"]):
                return False  # add_memory sorts, dedupes and casts to int what it is given
        for record in map(json.loads, lines):
            g.node(record["id"]).status = Status(record["status"])
        g.check_consistency()
    except GraphError:
        return False
    return True


def make_chain():
    """m1 -> s1, single support."""
    g = MemoryGraph()
    m1 = g.add_memory(Layer.EPISODIC, "episode one")
    s1 = g.add_memory(Layer.SEMANTIC, "summary one", [m1])
    return g, m1, s1


def make_diamond():
    """m1 -> s1 <- m2, shared summary."""
    g = MemoryGraph()
    m1 = g.add_memory(Layer.EPISODIC, "episode one")
    m2 = g.add_memory(Layer.EPISODIC, "episode two")
    s1 = g.add_memory(Layer.SEMANTIC, "shared summary", [m1, m2])
    return g, m1, m2, s1


class TestAddMemory:
    def test_source_node_has_no_refs(self):
        g = MemoryGraph()
        m = g.add_memory(Layer.EPISODIC, "hello")
        assert g.node(m).status is Status.ACTIVE
        assert g.ref_count(m) == 0

    def test_summary_counts_its_supports(self):
        g, m1, m2, s1 = make_diamond()
        assert g.ref_count(s1) == 2
        g.check_consistency()

    def test_six_node_fixture_matches_edge_scan(self):
        g = MemoryGraph()
        m = [g.add_memory(Layer.EPISODIC, f"ep {i}") for i in range(3)]
        s1 = g.add_memory(Layer.SEMANTIC, "sum a", [m[0], m[1]])
        s2 = g.add_memory(Layer.SEMANTIC, "sum b", [m[1], m[2]])
        k1 = g.add_memory(Layer.KG_ENTITY, "entity", [s1, s2])
        # Independent oracle: count active parents by scanning every edge.
        edges = [(p, c) for c in g.nodes for p in g.node(c).parents]
        for node_id in g.nodes:
            expected = sum(
                1 for p, c in edges
                if c == node_id and g.node(p).status is Status.ACTIVE
            )
            assert g.ref_count(node_id) == expected

    def test_unknown_parent_rejected(self):
        g = MemoryGraph()
        with pytest.raises(UnknownNodeError):
            g.add_memory(Layer.SEMANTIC, "orphan", [99])

    def test_deleted_parent_rejected(self):
        g, m1, s1 = make_chain()
        g.node(m1).status = Status.DELETED
        with pytest.raises(EdgeViolationError):
            g.add_memory(Layer.SEMANTIC, "late", [m1])

    def test_episodic_cannot_have_parents(self):
        g, m1, s1 = make_chain()
        with pytest.raises(EdgeViolationError):
            g.add_memory(Layer.EPISODIC, "derived episode", [m1])

    @pytest.mark.parametrize("layer", [Layer.SEMANTIC, Layer.REFLECTION, Layer.KG_ENTITY])
    def test_derived_node_needs_a_parent(self, layer):
        g = MemoryGraph()
        with pytest.raises(EdgeViolationError, match="needs a derivation parent"):
            g.add_memory(layer, "orphan")
        assert not g.nodes


class TestDependencyClosure:
    def test_empty_targets(self):
        g, m1, s1 = make_chain()
        assert g.dependency_closure([]) == set()

    def test_chain(self):
        g = MemoryGraph()
        m1 = g.add_memory(Layer.EPISODIC, "m1")
        s1 = g.add_memory(Layer.SEMANTIC, "s1", [m1])
        k1 = g.add_memory(Layer.KG_ENTITY, "k1", [s1])
        assert g.dependency_closure([m1]) == {s1, k1}

    def test_diamond_includes_shared_summary(self):
        g, m1, m2, s1 = make_diamond()
        assert g.dependency_closure([m1]) == {s1}

    def test_unknown_id(self):
        g = MemoryGraph()
        with pytest.raises(UnknownNodeError):
            g.dependency_closure([5])

    def test_matches_brute_force_on_random_dags(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(5, 200))
            g, edges, episodic = build_random_dag(rng, n_nodes=n)
            k = int(rng.integers(1, len(episodic) + 1))
            targets = list(rng.choice(episodic, size=k, replace=False))
            expected = brute_force_closure(edges, targets, lambda v: g.node(v).layer)
            assert g.dependency_closure(targets) == expected


class TestPrune:
    def test_lone_chain_removed(self):
        g, m1, s1 = make_chain()
        req = ForgetRequest.of("r", [m1])
        report = g.prune(req, g.dependency_closure([m1]), always_blocked)
        assert report.counts() == {
            "targets_deleted": 1, "reflections_outdated": 0,
            "shared_decremented": 0, "zero_ref_removed": 1,
        }
        assert g.node(s1).status is Status.DELETED
        g.check_consistency()

    def test_diamond_shared_summary_survives(self):
        g, m1, m2, s1 = make_diamond()
        req = ForgetRequest.of("r", [m1])
        report = g.prune(req, g.dependency_closure([m1]), always_blocked)
        assert report.counts() == {
            "targets_deleted": 1, "reflections_outdated": 0,
            "shared_decremented": 1, "zero_ref_removed": 0,
        }
        assert g.node(s1).status is Status.ACTIVE
        assert g.ref_count(s1) == 1
        g.check_consistency()

    def test_diamond_both_parents_removes_summary(self):
        g, m1, m2, s1 = make_diamond()
        req = ForgetRequest.of("r", [m1, m2])
        g.prune(req, g.dependency_closure([m1, m2]), always_blocked)
        assert g.node(s1).status is Status.DELETED

    def test_empty_request_no_change(self):
        g, m1, s1 = make_chain()
        report = g.prune(ForgetRequest.of("r", []), set(), always_blocked)
        assert report.counts() == {
            "targets_deleted": 0, "reflections_outdated": 0,
            "shared_decremented": 0, "zero_ref_removed": 0,
        }
        assert g.node(m1).status is Status.ACTIVE

    def test_reflection_marked_outdated(self):
        g = MemoryGraph()
        m1 = g.add_memory(Layer.EPISODIC, "m1")
        m2 = g.add_memory(Layer.EPISODIC, "m2")
        r1 = g.add_memory(Layer.REFLECTION, "refl", [m1, m2])
        req = ForgetRequest.of("r", [m1])
        report = g.prune(req, g.dependency_closure([m1]), always_blocked)
        # Reflections go stale on any lost source, even with shared support.
        assert g.node(r1).status is Status.OUTDATED
        assert report.reflections_outdated == 1
        g.check_consistency()

    def test_outdated_reflection_cascades_support_loss(self):
        g = MemoryGraph()
        m1 = g.add_memory(Layer.EPISODIC, "m1")
        r1 = g.add_memory(Layer.REFLECTION, "refl", [m1])
        s1 = g.add_memory(Layer.SEMANTIC, "from refl", [r1])
        req = ForgetRequest.of("r", [m1])
        g.prune(req, g.dependency_closure([m1]), always_blocked)
        assert g.node(r1).status is Status.OUTDATED
        assert g.node(s1).status is Status.DELETED
        g.check_consistency()

    def test_target_must_be_blocked_first(self):
        g, m1, s1 = make_chain()
        with pytest.raises(ProtocolOrderError):
            g.prune(ForgetRequest.of("r", [m1]), set(), lambda _: False)

    def test_target_must_be_episodic(self):
        g, m1, s1 = make_chain()
        with pytest.raises(ValueError):
            g.prune(ForgetRequest.of("r", [s1]), set(), always_blocked)

    def test_idempotent(self):
        g, m1, m2, s1 = make_diamond()
        req = ForgetRequest.of("r", [m1])
        closure = g.dependency_closure([m1])
        g.prune(req, closure, always_blocked)
        snapshot = g.node_lines()
        report = g.prune(req, g.dependency_closure([m1]), always_blocked)
        assert g.node_lines() == snapshot
        assert report.counts() == {
            "targets_deleted": 0, "reflections_outdated": 0,
            "shared_decremented": 0, "zero_ref_removed": 0,
        }

    def test_random_prunes_preserve_invariants(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            g, edges, episodic = build_random_dag(rng, n_nodes=int(rng.integers(10, 120)))
            k = int(rng.integers(1, len(episodic) + 1))
            targets = sorted(rng.choice(episodic, size=k, replace=False))
            req = ForgetRequest.of(f"r{trial}", targets)
            g.prune(req, g.dependency_closure(targets), always_blocked)
            g.check_consistency()
            # No surviving derived node may be supported solely by the targets.
            for node_id in g.active_view():
                node = g.node(node_id)
                if node.layer is not Layer.EPISODIC:
                    ancestors = g.episodic_ancestors(node_id)
                    assert not (ancestors and ancestors <= set(targets))


class TestActiveView:
    def test_fresh_store(self):
        g = MemoryGraph()
        ids = [g.add_memory(Layer.EPISODIC, f"e{i}") for i in range(3)]
        assert list(g.active_view()) == ids

    def test_after_diamond_prune(self):
        g, m1, m2, s1 = make_diamond()
        g.prune(ForgetRequest.of("r", [m1]), g.dependency_closure([m1]), always_blocked)
        assert list(g.active_view()) == [m2, s1]

    def test_outdated_excluded(self):
        g = MemoryGraph()
        m1 = g.add_memory(Layer.EPISODIC, "m1")
        r1 = g.add_memory(Layer.REFLECTION, "refl", [m1])
        g.node(r1).status = Status.OUTDATED
        assert list(g.active_view()) == [m1]


class TestPersistence:
    def test_round_trip_preserves_counts_and_statuses(self):
        rng = np.random.default_rng(3)
        g, edges, episodic = build_random_dag(rng, n_nodes=40)
        targets = sorted(rng.choice(episodic, size=3, replace=False))
        g.prune(ForgetRequest.of("r", targets), g.dependency_closure(targets), always_blocked)
        reloaded = MemoryGraph.from_lines(g.node_lines())
        assert reloaded.node_lines() == g.node_lines()
        assert reloaded.edge_lines() == g.edge_lines()
        for node_id in g.nodes:
            assert reloaded.ref_count(node_id) == g.ref_count(node_id)
            assert reloaded.node(node_id).status == g.node(node_id).status
        reloaded.check_consistency()

    def test_deleted_target_keeps_the_digest_of_its_content(self):
        """Given the digests its caller blocked, a prune keeps those very objects, raw in
        memory and hex in the node's line."""
        g, m1, s1 = make_chain()
        m2 = g.add_memory(Layer.EPISODIC, "episode two")
        blocked = content_digest("episode two")
        g.prune(ForgetRequest.of("r1", [m1]), g.dependency_closure([m1]), always_blocked)
        g.prune(ForgetRequest.of("r2", [m2]), set(), always_blocked, digests={m2: blocked})
        assert [g.node(i).blocked_digest for i in (m1, s1)] == [content_digest("episode one"), b""]
        assert g.node(m2).blocked_digest is blocked
        assert [json.loads(line)["blocked_digest"] for line in g.node_lines()[m1:m2 + 1]] == [
            content_digest("episode one").hex(), "", blocked.hex()]
        reloaded = MemoryGraph.from_lines(g.node_lines())
        assert [reloaded.node(i).blocked_digest for i in (m1, s1, m2)] == [
            content_digest("episode one"), b"", blocked]
        assert reloaded.node_lines() == g.node_lines()

    def test_removed_nodes_keep_the_generation_they_left(self):
        g = MemoryGraph()
        m1, m2 = (g.add_memory(Layer.EPISODIC, f"m{i}") for i in range(2))
        r1 = g.add_memory(Layer.REFLECTION, "r1", [m1, m2])
        s1 = g.add_memory(Layer.SEMANTIC, "s1", [m1])
        g.prune(ForgetRequest.of("r", [m1]), g.dependency_closure([m1]), always_blocked, generation=2)
        assert [g.node(i).removed_in for i in (m1, m2, r1, s1)] == [2, -1, 2, 2]
        assert MemoryGraph.from_lines(g.node_lines(), generation=2).node_lines() == g.node_lines()
        with pytest.raises(ValueError, match=f"deleted node {m1}: removed_in 2 is not between 0 and "
                                             "the index generation 1"):
            MemoryGraph.from_lines(g.node_lines(), generation=1)

    def test_a_later_prune_keeps_the_generation_a_node_left(self):
        """A prune stamps only the nodes it takes out; a node removed earlier keeps its generation."""
        g = MemoryGraph()
        m1, m2 = (g.add_memory(Layer.EPISODIC, f"m{i}") for i in range(2))
        r1 = g.add_memory(Layer.REFLECTION, "r1", [m1, m2])
        s2 = g.add_memory(Layer.SEMANTIC, "s2", [m2])
        g.prune(ForgetRequest.of("r1", [m1]), g.dependency_closure([m1]), always_blocked, generation=0)
        g.prune(ForgetRequest.of("r2", [m1, m2]), g.dependency_closure([m1, m2]), always_blocked,
                generation=1)
        assert [(g.node(i).status, g.node(i).removed_in) for i in (m1, m2, r1, s2)] == [
            (Status.DELETED, 0), (Status.DELETED, 1), (Status.OUTDATED, 0), (Status.DELETED, 1)]
        assert MemoryGraph.from_lines(g.node_lines(), generation=1).node_lines() == g.node_lines()

    def test_active_derived_node_without_active_parent_does_not_load(self):
        g, m1, s1 = make_chain()
        g.node(m1).status = Status.DELETED  # a node edit that no prune makes
        g.node(m1).content = ""
        g.node(m1).blocked_digest = content_digest("episode one")
        g.node(m1).removed_in = 0
        with pytest.raises(GraphError, match=f"active derived node {s1} has no active parent"):
            g.check_consistency()
        with pytest.raises(GraphError, match=f"active derived node {s1} has no active parent"):
            MemoryGraph.from_lines(g.node_lines())

    @pytest.mark.parametrize("layer", list(Layer))
    def test_only_a_reflection_loads_outdated(self, layer):
        g = MemoryGraph()
        m1 = g.add_memory(Layer.EPISODIC, "m1")
        node = g.node(m1 if layer is Layer.EPISODIC else g.add_memory(layer, "d", [m1]))
        node.status, node.removed_in = Status.OUTDATED, 0  # a prune outdates reflections only
        if layer is Layer.REFLECTION:
            assert MemoryGraph.from_lines(g.node_lines()).node_lines() == g.node_lines()
        else:
            with pytest.raises(ValueError, match=f"{layer.value} node {node.id} is outdated"):
                MemoryGraph.from_lines(g.node_lines())

    def test_adjacency_only_for_nodes_with_edges(self):
        g = MemoryGraph()
        m1, m2, lone = (g.add_memory(Layer.EPISODIC, f"m{i}") for i in range(3))
        s1 = g.add_memory(Layer.SEMANTIC, "s1", [m1, m2])
        reloaded = MemoryGraph.from_lines(g.node_lines())
        for graph in (g, reloaded):
            assert [graph.node(i).parents for i in (m1, m2, lone, s1)] == [(), (), (), (m1, m2)]
            assert graph._children == {m1: [s1], m2: [s1]}
            assert graph.dependency_closure([lone]) == set()
            assert graph.episodic_ancestors(s1) == {m1, m2}
            report = graph.prune(ForgetRequest.of("r", [lone, m1]),
                                 graph.dependency_closure([lone, m1]), always_blocked)
            assert report.removed_ids == [m1, lone] and report.shared_decremented == 1
            graph.check_consistency()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_graphs_round_trip(self, data):
        g = random_pruned_graph(data)
        reloaded = MemoryGraph.from_lines(g.node_lines())
        assert reloaded.node_lines() == g.node_lines()
        assert reloaded.edge_lines() == g.edge_lines()
        for node_id in g.nodes:
            assert reloaded.ref_count(node_id) == g.ref_count(node_id)
            assert reloaded.dependency_closure([node_id]) == g.dependency_closure([node_id])
            assert reloaded.episodic_ancestors(node_id) == g.episodic_ancestors(node_id)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_changed_parents_load_exactly_when_add_memory_writes_them(self, data):
        g = random_pruned_graph(data)
        lines = g.node_lines()
        at = data.draw(st.integers(0, len(lines) - 1))
        parents = data.draw(st.one_of(
            st.lists(st.integers(0, max(at - 1, 0)), max_size=4, unique=True).map(sorted),
            st.lists(st.one_of(st.integers(-1, len(lines)), st.booleans()), max_size=4)))
        lines[at] = canonical_json({**json.loads(lines[at]), "parents": parents})
        try:
            loaded = MemoryGraph.from_lines(lines).node_lines()
        except GraphError:
            loaded = None
        assert (loaded == lines) if replays(lines) else (loaded is None)

    def test_removed_layer_is_a_malformed_record(self):
        g = MemoryGraph()
        g.add_memory(Layer.EPISODIC, "m1")
        line = g.node_lines()[0].replace('"episodic"', '"procedural"')
        with pytest.raises(ValueError):
            MemoryGraph.from_lines([line])
