"""Memory unlearning is exact: a differential oracle for ``MemoryStore.forget``.

After a forget, the store answers every query as a store populated without
the forgotten items does, hit for hit and score for score. The one designed
difference is the reflection of each touched topic: a forget marks it
Outdated, while the rebuilt store, which never saw the forgotten items,
keeps it Active. So the rebuilt store's search leaves those reflections out.

Forget sets are drawn at random: whole topics or part of one, sent as one
request or as two, with a rebuild threshold τ the blocklist crosses or not.
Each store is checked again after save → load.
"""

import tempfile

from hypothesis import example, given, settings, strategies as st

from memscrub.corpus import generate_corpus, populate_store
from memscrub.graph import ForgetRequest, Layer
from memscrub.store import MemoryStore, RetrievalSettings

ITEMS_PER_TOPIC = 6  # generate_corpus's default: items i00-i05 of each topic are stored


@st.composite
def forget_plans(draw, n_topics: int):
    """(requests, tau): the forgotten item ids as one or two requests, and τ."""
    topics = draw(st.lists(st.integers(0, n_topics - 1), min_size=1, max_size=3, unique=True))
    forgotten = []
    for t in topics:
        whole = draw(st.booleans())
        picks = (range(ITEMS_PER_TOPIC) if whole else
                 draw(st.lists(st.integers(0, ITEMS_PER_TOPIC - 1), min_size=1,
                               max_size=ITEMS_PER_TOPIC - 1, unique=True)))
        forgotten += [f"topic{t:03d}-i{i:02d}" for i in picks]
    forgotten = draw(st.permutations(forgotten))
    cut = draw(st.integers(0, len(forgotten) - 1))  # 0: one request
    requests = [part for part in (forgotten[:cut], forgotten[cut:]) if part]
    return requests, draw(st.integers(0, len(forgotten)))  # τ < |forgotten| crosses it


def hits(search, store, queries) -> list:
    """Each query's hits as (content, combined, sem_score, kw_score)."""
    return [[(store.content(h.node_id), h.combined, h.sem_score, h.kw_score) for h in search(q)]
            for q in queries]


def check_exact(n_topics: int, requests: list, tau: int) -> None:
    items = generate_corpus(seed=0, n_topics=n_topics)
    queries = [it.question for it in items] + sorted({it.topic for it in items})
    forgotten = {item_id for request in requests for item_id in request}
    touched = {item_id.split("-")[0] for item_id in forgotten}

    store = MemoryStore(settings=RetrievalSettings(tau=tau))
    prov = populate_store(store, items)
    for n, request in enumerate(requests):
        store.forget(ForgetRequest.of(f"req-{n}", [prov.item_to_node[i] for i in request]))

    rebuilt = MemoryStore()
    populate_store(rebuilt, [it for it in items if it.item_id not in forgotten])
    excluded = {i for i in rebuilt.graph.active_view()
                if rebuilt.graph.nodes[i].layer is Layer.REFLECTION
                and rebuilt.content(i).split()[1] in touched}
    expected_live = sorted(rebuilt.content(i) for i in rebuilt.graph.active_view()
                           if i not in excluded)
    expected = hits(lambda q: rebuilt.index.search(q, lambda i: i not in excluded), rebuilt, queries)

    def check(candidate: MemoryStore) -> None:
        assert sorted(map(candidate.content, candidate.graph.active_view())) == expected_live
        indexed = [i for i in candidate.graph.nodes if i in candidate.index]
        assert sorted(map(candidate.content, indexed)) == expected_live
        assert hits(candidate.search, candidate, queries) == expected

    check(store)
    with tempfile.TemporaryDirectory() as directory:
        store.save(directory)
        check(MemoryStore.load(directory, settings=RetrievalSettings(tau=tau)))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(plan=forget_plans(12))
@example(plan=([["topic000-i00", "topic000-i01", "topic000-i02",
                 "topic000-i03", "topic000-i04", "topic000-i05"]], 100))  # one whole topic
@example(plan=([["topic004-i03"], ["topic004-i01", "topic007-i05"]], 0))  # parts, two requests
def test_forget_is_exact_at_12_topics(plan):
    check_exact(12, *plan)


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(plan=forget_plans(48))
def test_forget_is_exact_at_48_topics(plan):
    check_exact(48, *plan)
