import json

import numpy as np
import pytest

from memscrub.audit import ZERO_HASH, _record_hash, canonical_json
from memscrub.config import RunConfig, build_model
from memscrub.corpus import generate_corpus, populate_store, split_items, to_dataset
from memscrub.store import MemoryStore, RetrievalSettings

FEATURE_DIM = 256


def build_random_dag(rng, n_nodes=60, episodic_fraction=0.4):
    """Random layered DAG in a fresh graph; returns (graph, edges, episodic_ids)."""
    from memscrub.graph import Layer, MemoryGraph

    graph = MemoryGraph()
    edges = []
    episodic = []
    derived_layers = [Layer.SEMANTIC, Layer.REFLECTION, Layer.KG_ENTITY]
    n_episodic = max(1, int(n_nodes * episodic_fraction))
    for i in range(n_episodic):
        episodic.append(graph.add_memory(Layer.EPISODIC, f"episode {i}"))
    all_ids = list(episodic)
    for i in range(n_nodes - n_episodic):
        k = int(rng.integers(1, min(4, len(all_ids)) + 1))
        parents = list(rng.choice(all_ids, size=k, replace=False))
        layer = derived_layers[int(rng.integers(0, len(derived_layers)))]
        node_id = graph.add_memory(layer, f"derived {i}", parents)
        for p in parents:
            edges.append((p, node_id))
        all_ids.append(node_id)
    return graph, edges, episodic


def brute_force_closure(edges, targets, layer_of):
    """Reachability by repeated edge relaxation, restricted to derived layers."""
    from memscrub.graph import DERIVED_LAYERS

    reach = set(targets)
    changed = True
    while changed:
        changed = False
        for parent, child in edges:
            if parent in reach and child not in reach:
                reach.add(child)
                changed = True
    return {v for v in reach - set(targets) if layer_of(v) in DERIVED_LAYERS}


def live_ids(index, candidates=range(2000)) -> list:
    """The ids ``index`` holds live, ascending, found by membership among ``candidates``."""
    ids = [i for i in candidates if i in index]
    assert len(ids) == len(index), "a live id lies outside the candidates"
    return ids


def forge_chain(lines: list, at: int, change) -> list:
    """Audit ``lines`` with record ``at`` updated by ``change(record)``, rehashed and relinked onward.

    The result is a self-consistent chain: every ``record_hash`` recomputes
    from the fields as they are written, the line's position and the
    previous line's ``record_hash``.
    """
    forged = lines[:at]
    prev = json.loads(lines[at - 1])["record_hash"] if at else ZERO_HASH
    for i in range(at, len(lines)):
        rec = json.loads(lines[i])
        rec.update(change(rec) if i == at else {})
        rec["record_hash"] = prev = _record_hash(i, rec["op"], rec["payload_digest"], prev)
        forged.append(canonical_json(rec))
    return forged


@pytest.fixture(scope="session")
def corpus_items():
    return generate_corpus(seed=0)


@pytest.fixture(scope="session")
def pretrained_model(corpus_items):
    """The seed-0 model ``memscrub store`` builds: pretrained on the forget and retain splits."""
    trained = split_items(corpus_items, "forget") + split_items(corpus_items, "retain")
    return build_model(RunConfig(), to_dataset(trained, FEATURE_DIM))


@pytest.fixture()
def fresh_agent(corpus_items, pretrained_model):
    """A populated store plus a copy of the pretrained model, safe to mutate."""
    from memscrub.protocol import AgentState

    store = MemoryStore(settings=RetrievalSettings())
    prov = populate_store(store, corpus_items)
    agent = AgentState(store=store, model=pretrained_model.copy(),
                       feature_dim=FEATURE_DIM)
    return agent, corpus_items, prov
