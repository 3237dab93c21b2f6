"""Train the small classifier, then unlearn one slice of it.

Pretrains on the full synthetic QA corpus, runs the mixed-batch
unlearning loop (cross-entropy on retain, temperature-scaled KL toward a
frozen random reference on forget), and prints how forget accuracy,
retain accuracy, and forget-set entropy move epoch by epoch, next to a
lambda_f=0 control that only sees the retain loss.
"""

from memscrub import UnlearnConfig, train_unlearn
from memscrub.config import RunConfig, build_model
from memscrub.corpus import generate_corpus, split_items, to_dataset
from memscrub.training import mean_forget_entropy, model_accuracy

DIM = RunConfig().feature_dim


def main():
    items = generate_corpus(seed=0)
    retain = to_dataset(split_items(items, "retain"), DIM)
    forget = to_dataset(split_items(items, "forget"), DIM)
    test = to_dataset(split_items(items, "test"), DIM)
    trained = to_dataset(split_items(items, "forget") + split_items(items, "retain"), DIM)

    model = build_model(RunConfig(), trained)  # seeds 0 and 7919, 120 pretrain epochs at lr 0.5
    print(f"pretrained: forget={model_accuracy(model, forget):.3f} "
          f"retain={model_accuracy(model, retain):.3f} "
          f"test={model_accuracy(model, test):.3f} "
          f"forget_entropy={mean_forget_entropy(model, forget.x):.3f}")

    control = model.copy()
    train_unlearn(retain, forget, control,
                  UnlearnConfig(lambda_f=0.0, temperature=2.0, lr=0.5, epochs=40, seed=0))

    unlearned = model.copy()
    history = train_unlearn(retain, forget, unlearned,
                            UnlearnConfig(lambda_f=1.5, temperature=2.0,
                                          lr=0.5, epochs=40, seed=0))
    print("\nunlearning (lambda_f=1.5, T=2.0):")
    for m in history[::8] + [history[-1]]:
        print(f"  epoch {m['epoch']:2d}: forget={m['forget_acc']:.3f} "
              f"retain={m['retain_acc']:.3f} entropy={m['forget_entropy']:.3f}")

    print(f"\ncontrol (lambda_f=0): forget={model_accuracy(control, forget):.3f} "
          f"retain={model_accuracy(control, retain):.3f}")
    print(f"unlearned:            forget={model_accuracy(unlearned, forget):.3f} "
          f"retain={model_accuracy(unlearned, retain):.3f} "
          f"test={model_accuracy(unlearned, test):.3f}")


if __name__ == "__main__":
    main()
