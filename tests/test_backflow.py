"""Backflow by arm: the channel through which each forget item is re-exposed.

Each arm gets its own store and a model from ``build_model``, the function
``memscrub store`` builds its model with, and one request over the whole
forget split. Then ``backflow_probe`` runs on every forget item in corpus
order, twice over, so the probes' own write-backs take part: the second
round sees what the first wrote back. The exact arm forgets in memory and
swaps in a model pretrained on the retain split only, from the same seeds:
the exact-unlearning reference.

The counts come from the model, whose floats depend on the BLAS build
(``test_golden.py`` leaves its bytes out for that reason).
"""

from collections import Counter

import pytest

from memscrub.config import RunConfig, build_model
from memscrub.corpus import generate_corpus, populate_store, split_items, to_dataset
from memscrub.graph import ForgetRequest
from memscrub.protocol import AgentState, backflow_probe, run_protocol
from memscrub.store import MemoryStore
from memscrub.training import train_unlearn

BACKFLOW = {  # (seed, n_topics): arm: (round 1, round 2): channel: forget items re-exposed
    (0, 12): {
        "none": ({"memory": 18}, {"memory": 18}),
        "memory": ({"parameter": 5, "memory": 13}, {"memory": 18}),
        "parameter": ({"memory": 18}, {"memory": 18}),
        "both": ({"none": 18}, {"none": 18}),
        "exact": ({"none": 12, "parameter": 2, "memory": 4}, {"memory": 11, "none": 7}),
    },
    (1, 48): {
        "none": ({"memory": 72}, {"memory": 72}),
        "memory": ({"parameter": 19, "memory": 53}, {"memory": 72}),
        "parameter": ({"memory": 72}, {"memory": 72}),
        "both": ({"none": 67, "parameter": 1, "memory": 4}, {"none": 67, "memory": 5}),
        "exact": ({"none": 22, "parameter": 15, "memory": 35}, {"memory": 66, "none": 6}),
    },
}


def no_unlearning(agent, request, forget, retain, cfg) -> None:
    pass


def memory_only(agent, request, forget, retain, cfg) -> None:
    agent.store.forget(request)


def parameter_only(agent, request, forget, retain, cfg) -> None:
    train_unlearn(retain, to_dataset(forget, cfg.feature_dim), agent.model, cfg)


def both(agent, request, forget, retain, cfg) -> None:
    run_protocol(agent, request, retain, cfg)


ARMS = {"none": (no_unlearning, ("forget", "retain")),
        "memory": (memory_only, ("forget", "retain")),
        "parameter": (parameter_only, ("forget", "retain")),
        "both": (both, ("forget", "retain")),
        "exact": (memory_only, ("retain",))}  # the model never saw the forget split


@pytest.mark.parametrize("arm", list(ARMS))
@pytest.mark.parametrize("size", list(BACKFLOW), ids=[f"seed{s}-{n}topics" for s, n in BACKFLOW])
def test_backflow_channel_counts(size, arm):
    seed, n_topics = size
    unlearn, pretrained_on = ARMS[arm]
    cfg = RunConfig(seed=seed, n_topics=n_topics)
    items = generate_corpus(seed=seed, n_topics=n_topics)
    store = MemoryStore(settings=cfg)
    prov = populate_store(store, items)
    trained = [it for split in pretrained_on for it in split_items(items, split)]
    model = build_model(cfg, to_dataset(trained, cfg.feature_dim))
    agent = AgentState(store=store, model=model, feature_dim=cfg.feature_dim,
                       confidence_threshold=cfg.confidence_threshold)

    forget = split_items(items, "forget")
    request = ForgetRequest.of("backflow", [prov.item_to_node[it.item_id] for it in forget])
    unlearn(agent, request, forget, to_dataset(split_items(items, "retain"), cfg.feature_dim),
            cfg)
    rounds = tuple(Counter(backflow_probe(agent, it.question, it.answer_text).channel.value
                           for it in forget) for _ in range(2))
    assert rounds == BACKFLOW[size][arm]
