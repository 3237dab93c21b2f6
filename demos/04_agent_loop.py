"""Run the full store -> query -> delete -> probe loop in one process.

Populates a memory store with the synthetic corpus, pretrains the
classifier behind it, runs the two-phase deletion protocol on the forget
split, and probes for backflow afterwards. Also shows the failure mode:
skipping the parameter phase lets the still-confident model regenerate
the deleted fact straight back into memory.
"""

from memscrub import AgentState, ForgetRequest, MemoryStore, UnlearnConfig
from memscrub import backflow_probe, run_protocol, verify_lines
from memscrub.config import RunConfig, build_model
from memscrub.corpus import generate_corpus, populate_store, split_items, to_dataset

CFG = RunConfig()  # the defaults, seed 0
DIM = CFG.feature_dim


def build_agent(items):
    store = MemoryStore()
    prov = populate_store(store, items)
    trained = to_dataset(split_items(items, "forget") + split_items(items, "retain"), DIM)
    model = build_model(CFG, trained)  # the model `memscrub store` builds
    return AgentState(store=store, model=model, feature_dim=DIM), prov


def main():
    items = generate_corpus(seed=0)
    probe_item = split_items(items, "forget")[0]
    retain = to_dataset(split_items(items, "retain"), DIM)

    agent, prov = build_agent(items)
    targets = sorted(prov.item_to_node[it.item_id]
                     for it in split_items(items, "forget"))
    print(f"probe before deletion: "
          f"{backflow_probe(agent, probe_item.question, probe_item.answer_text)}")

    # Failure mode: memory phase only, parameters untouched.
    ablation, prov2 = build_agent(items)
    targets2 = sorted(prov2.item_to_node[it.item_id]
                      for it in split_items(items, "forget"))
    ablation.store.forget(ForgetRequest.of("demo-ablation", targets2))
    print(f"probe after memory-only deletion: "
          f"{backflow_probe(ablation, probe_item.question, probe_item.answer_text)}")

    # Full protocol: memory phase strictly before parameter unlearning.
    report = run_protocol(agent, ForgetRequest.of("demo-full", targets), retain,
                          UnlearnConfig(lambda_f=1.5, temperature=2.0,
                                        lr=0.5, epochs=40, seed=0))
    print(f"\nmemory phase: {report.memory.to_record()}")
    print(f"probe after full protocol: "
          f"{backflow_probe(agent, probe_item.question, probe_item.answer_text)}")

    retain_item = split_items(items, "retain")[0]
    answer = agent.answer(retain_item.question)
    print(f"\nretain question still answered from {answer.source}: "
          f"choice {answer.answer_idx} (truth {retain_item.answer_idx})")
    print(f"audit verifies: {verify_lines(agent.store.audit.to_lines()).ok}")


if __name__ == "__main__":
    main()
