"""Walk through a closure prune on a small hand-built memory graph.

Builds three episodes supporting two summaries and a reflection, then
deletes one episode and prints what happened to each derived artifact:
the exclusively-supported summary disappears, the shared one survives
with a decremented support count, and the reflection goes stale.
"""

from memscrub import ForgetRequest, Layer, MemoryGraph


def show(graph, label):
    print(f"\n{label}")
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        print(f"  [{node_id}] {node.layer.value:10s} {node.status.value:8s} "
              f"refs={graph.ref_count(node_id)}  {node.content!r}")


def main():
    graph = MemoryGraph()
    m1 = graph.add_memory(Layer.EPISODIC, "patient A reported night cough")
    m2 = graph.add_memory(Layer.EPISODIC, "patient A reported wheeze")
    m3 = graph.add_memory(Layer.EPISODIC, "patient B reported rash")
    s_shared = graph.add_memory(Layer.SEMANTIC, "patient A has airway symptoms", [m1, m2])
    s_lone = graph.add_memory(Layer.SEMANTIC, "night cough cluster", [m1])
    r1 = graph.add_memory(Layer.REFLECTION, "follow up on patient A", [s_shared])
    show(graph, "before: three episodes, two summaries, one reflection")

    targets = [m1]
    closure = graph.dependency_closure(targets)
    print(f"\ndeleting episode {m1}; dependency closure = {sorted(closure)}")

    report = graph.prune(ForgetRequest.of("demo-1", targets), closure,
                         is_blocked=lambda _: True)
    print(f"prune report: {report.counts()}")
    show(graph, "after: shared summary kept at refs=1, lone summary removed")
    graph.check_consistency()
    print("\nconsistency check passed")


if __name__ == "__main__":
    main()
