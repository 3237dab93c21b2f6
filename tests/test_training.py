import math
import warnings

import numpy as np
import pytest

from memscrub import training
from memscrub.corpus import generate_corpus, split_items, to_dataset
from memscrub.training import (
    PARAM_KEYS,
    Dataset,
    LabeledBatch,
    LossReport,
    ModelState,
    TrainingError,
    UnlearnConfig,
    entropy,
    grad_step,
    loss_and_grads,
    loss_weight,
    maybe_entropy_fallback,
    mean_forget_entropy,
    model_accuracy,
    pretrain,
    _forget_targets,
    temperature_softmax,
    train_unlearn,
)


def tiny_state(seed=0, nf=6, nh=5, nc=3):
    return ModelState.init(nf, nh, nc, seed=seed, ref_seed=seed + 100)


class TestTemperatureSoftmax:
    def test_symmetric_logits(self):
        for T in (0.5, 1.0, 4.0):
            p = temperature_softmax(np.zeros(3), T)
            assert np.allclose(p, 1 / 3)

    def test_closed_form(self):
        p = temperature_softmax(np.array([math.log(2), 0.0]), 1.0)
        assert np.allclose(p, [2 / 3, 1 / 3])

    def test_temperature_scaling(self):
        p = temperature_softmax(np.array([2.0, 0.0]), 2.0)
        e = math.e
        assert np.allclose(p, [e / (e + 1), 1 / (e + 1)])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(8, 5)) * 10
        p = temperature_softmax(z, 0.7)
        assert np.all(p > 0)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(TrainingError):
            temperature_softmax(np.zeros(2), 0.0)


class TestEntropyFallback:
    def test_uniform_unchanged(self):
        cfg = UnlearnConfig()
        p = np.full(4, 0.25)
        assert np.array_equal(maybe_entropy_fallback(p, cfg), p)

    def test_one_hot_replaced_by_uniform(self):
        cfg = UnlearnConfig()
        p = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(maybe_entropy_fallback(p, cfg), 0.25)

    def test_boundary_entropy_unchanged(self):
        # A distribution sitting exactly at the threshold is left alone.
        cfg = UnlearnConfig(h_min=None)
        n = 4
        target_h = 0.5 * math.log(n)

        def h(eps):
            p = np.array([1 - 3 * eps, eps, eps, eps])
            return float(entropy(p))

        lo, hi = 1e-9, 1 / 3
        for _ in range(200):
            mid = (lo + hi) / 2
            if h(mid) < target_h:
                lo = mid
            else:
                hi = mid
        p = np.array([1 - 3 * hi, hi, hi, hi])
        assert entropy(p) >= target_h
        assert np.array_equal(maybe_entropy_fallback(p, cfg), p)

    def test_fallback_off_passes_through(self):
        cfg = UnlearnConfig(entropy_fallback=False)
        p = np.array([1.0, 0.0])
        assert np.array_equal(maybe_entropy_fallback(p, cfg), p)


class TestLossWeight:
    def test_forget_only_with_student_equal_reference(self):
        state = tiny_state()
        state.params = {k: v.copy() for k, v in state.ref_params.items()}
        cfg = UnlearnConfig(lambda_f=1.5, temperature=2.0, entropy_fallback=False)
        batch = LabeledBatch.of(forget_x=np.random.default_rng(0).normal(size=(4, 6)),
                                n_features=6)
        report = loss_weight(batch, state, cfg)
        assert report.kl_part == pytest.approx(0.0, abs=1e-12)
        assert report.total == pytest.approx(0.0, abs=1e-12)

    def test_multiplier_at_reported_optimum(self):
        cfg = UnlearnConfig(lambda_f=1.5, temperature=2.0)
        assert cfg.lambda_f * cfg.temperature ** 2 == pytest.approx(6.0)

    def test_two_class_kl_scalar_oracle(self):
        # KL((0.9,0.1) || (0.5,0.5)) computed by hand.
        expected = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        p = np.array([0.9, 0.1])
        q = np.array([0.5, 0.5])
        kl = float(np.sum(p * (np.log(p) - np.log(q))))
        assert kl == pytest.approx(expected, abs=1e-12)

    def test_decomposition_residual(self):
        state = tiny_state(seed=2)
        cfg = UnlearnConfig(lambda_f=1.5, temperature=2.0)
        rng = np.random.default_rng(3)
        batch = LabeledBatch.of(rng.normal(size=(3, 6)), rng.integers(0, 3, 3),
                                rng.normal(size=(2, 6)), n_features=6)
        report = loss_weight(batch, state, cfg)
        residual = report.total - (report.ce_part + 1.5 * 2.0 ** 2 * report.kl_part)
        assert abs(residual) < 1e-12

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(9)
        cfg = UnlearnConfig()
        for trial in range(30):
            state = tiny_state(seed=trial)
            batch = LabeledBatch.of(forget_x=rng.normal(size=(3, 6)), n_features=6)
            assert loss_weight(batch, state, cfg).kl_part >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(TrainingError):
            loss_weight(LabeledBatch.of(n_features=6), tiny_state(), UnlearnConfig())


class TestGradStep:
    def test_zero_learning_rate_keeps_params(self):
        state = tiny_state()
        before = {k: v.copy() for k, v in state.params.items()}
        cfg = UnlearnConfig(lr=0.0)
        batch = LabeledBatch.of(np.ones((1, 6)), np.array([0]), n_features=6)
        grad_step(batch, state, cfg)
        for key in PARAM_KEYS:
            assert np.array_equal(state.params[key], before[key])

    def test_linear_model_ce_gradient_closed_form(self):
        # With w1=0 the hidden layer is constant, so the output layer sees a
        # plain softmax regression: dL/db2 = p - onehot(y).
        state = tiny_state()
        state.params["w1"][:] = 0.0
        state.params["b1"][:] = 0.0
        x = np.ones((1, 6))
        y = np.array([1])
        z = state.logits(x)[0]
        p = temperature_softmax(z, 1.0)
        expected = p.copy()
        expected[1] -= 1.0
        _, grads = loss_and_grads(
            LabeledBatch.of(x, y, n_features=6), state, UnlearnConfig())
        assert np.allclose(grads["b2"], expected, atol=1e-6)

    def test_forget_gradient_zero_at_reference(self):
        state = tiny_state()
        state.params = {k: v.copy() for k, v in state.ref_params.items()}
        cfg = UnlearnConfig(entropy_fallback=False, lr=0.5)
        batch = LabeledBatch.of(forget_x=np.random.default_rng(1).normal(size=(3, 6)),
                                n_features=6)
        before = {k: v.copy() for k, v in state.params.items()}
        grad_step(batch, state, cfg)
        for key in PARAM_KEYS:
            assert np.allclose(state.params[key], before[key], atol=1e-12)

    def test_reference_never_updated(self):
        state = tiny_state()
        ref_hash = state.ref_hash()
        cfg = UnlearnConfig(lr=1.0)
        rng = np.random.default_rng(2)
        for _ in range(5):
            batch = LabeledBatch.of(rng.normal(size=(2, 6)), rng.integers(0, 3, 2),
                                    rng.normal(size=(2, 6)), n_features=6)
            grad_step(batch, state, cfg)
        assert state.ref_hash() == ref_hash

    def test_nonfinite_loss_aborts(self):
        state = tiny_state()
        state.params["b2"][:] = np.inf
        batch = LabeledBatch.of(np.ones((1, 6)), np.array([0]), n_features=6)
        before_b1 = state.params["b1"].copy()
        step = grad_step(batch, state, UnlearnConfig())
        assert step.aborted
        assert np.array_equal(state.params["b1"], before_b1)

    def test_overflowing_gradient_aborts_without_warning(self):
        # The loss stays finite (~690.78) but x.T @ dpre overflows in w1's gradient.
        state = ModelState.init(6, 4, 3)
        state.params["w1"][:] = 1e-300
        state.params["w2"][:] = 1e10
        state.params["w2"][:, 0] = -1e10
        x = np.zeros((1, 6))
        x[0, 0] = 1e300
        batch = LabeledBatch.of(x, np.array([0]), n_features=6)
        before = {k: v.copy() for k, v in state.params.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, grads = loss_and_grads(batch, state, UnlearnConfig())
            step = grad_step(batch, state, UnlearnConfig())
        assert math.isfinite(report.total)
        assert not np.isfinite(grads["w1"]).all()
        assert step.aborted
        for key in PARAM_KEYS:
            assert np.array_equal(state.params[key], before[key])


class TestFiniteDifferences:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for trial in range(100):
            nf, nh, nc = 5, 4, 3
            state = ModelState.init(nf, nh, nc, seed=trial, ref_seed=trial + 1000)
            cfg = UnlearnConfig(
                lambda_f=float(rng.uniform(0.2, 3.0)),
                temperature=float(rng.uniform(0.5, 3.0)),
                entropy_fallback=bool(rng.integers(0, 2)),
            )
            batch = LabeledBatch.of(
                rng.normal(size=(2, nf)), rng.integers(0, nc, 2),
                rng.normal(size=(2, nf)), n_features=nf)
            _, grads = loss_and_grads(batch, state, cfg)
            # Spot-check a handful of coordinates per parameter tensor.
            for key in PARAM_KEYS:
                p = state.params[key]
                flat = p.reshape(-1)
                for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp = loss_weight(batch, state, cfg).total
                    flat[idx] = orig - h
                    lm = loss_weight(batch, state, cfg).total
                    flat[idx] = orig
                    numeric = (lp - lm) / (2 * h)
                    analytic = grads[key].reshape(-1)[idx]
                    denom = max(1e-6, abs(numeric), abs(analytic))
                    assert abs(numeric - analytic) / denom < 1e-4


@pytest.fixture(scope="module")
def task():
    items = generate_corpus(seed=0)
    dim = 256
    data = {
        "forget": to_dataset(split_items(items, "forget"), dim),
        "retain": to_dataset(split_items(items, "retain"), dim),
        "test": to_dataset(split_items(items, "test"), dim),
    }
    model = ModelState.init(dim, 64, 4, seed=0, ref_seed=7919)
    cfg = UnlearnConfig(lambda_f=0.0, temperature=1.0, lr=0.5, epochs=120, seed=0)
    trained = Dataset(
        x=np.vstack([data["forget"].x, data["retain"].x]),
        y=np.concatenate([data["forget"].y, data["retain"].y]),
    )
    pretrain(trained, model, cfg)
    return data, model


class TestTrainUnlearn:
    def test_lambda_zero_matches_retain_only_control(self, task):
        data, model = task
        a, b = model.copy(), model.copy()
        cfg0 = UnlearnConfig(lambda_f=0.0, temperature=2.0, lr=0.5, epochs=10, seed=1)
        train_unlearn(data["retain"], data["forget"], a, cfg0)
        train_unlearn(data["retain"], Dataset(np.zeros((0, 256)), np.zeros(0, dtype=int)),
                      b, cfg0)
        assert abs(model_accuracy(a, data["forget"]) - model_accuracy(b, data["forget"])) <= 0.06

    def test_unlearning_direction(self, task):
        data, model = task
        control, unlearned = model.copy(), model.copy()
        train_unlearn(data["retain"], data["forget"], control,
                      UnlearnConfig(lambda_f=0.0, temperature=2.0, lr=0.5, epochs=40, seed=0))
        history = train_unlearn(data["retain"], data["forget"], unlearned,
                                UnlearnConfig(lambda_f=1.5, temperature=2.0, lr=0.5,
                                              epochs=40, seed=0))
        assert model_accuracy(unlearned, data["forget"]) <= model_accuracy(control, data["forget"]) - 0.10
        assert abs(model_accuracy(unlearned, data["retain"]) -
                   model_accuracy(control, data["retain"])) <= 0.02
        assert history[-1]["forget_entropy"] > history[0]["forget_entropy"]

    def test_initial_kl_zero_when_student_is_reference(self):
        state = tiny_state()
        state.params = {k: v.copy() for k, v in state.ref_params.items()}
        cfg = UnlearnConfig(entropy_fallback=False)
        batch = LabeledBatch.of(forget_x=np.ones((1, 6)), n_features=6)
        assert loss_weight(batch, state, cfg).kl_part == pytest.approx(0.0, abs=1e-12)

    def test_reference_frozen_through_training(self, task):
        data, model = task
        state = model.copy()
        ref_hash = state.ref_hash()
        train_unlearn(data["retain"], data["forget"], state,
                      UnlearnConfig(epochs=5, seed=0))
        assert state.ref_hash() == ref_hash

    def test_empty_retain_rejected(self):
        with pytest.raises(TrainingError):
            train_unlearn(Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int)),
                          Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int)),
                          tiny_state(), UnlearnConfig())


# ---------------------------------------------------------------------------
# Reference trainer: the original step and loops, kept as a bitwise oracle
# ---------------------------------------------------------------------------

def reference_loss_and_grads(batch, state, cfg):
    """Loss and gradients with zero-filled buffers and a recomputed forward pass."""
    grads = {k: np.zeros_like(v) for k, v in state.params.items()}
    ce_part = 0.0
    kl_part = 0.0

    def backprop(x, dz):
        p = state.params
        pre = x @ p["w1"] + p["b1"]
        hidden = np.tanh(pre)
        grads["w2"] += hidden.T @ dz
        grads["b2"] += dz.sum(axis=0)
        dhidden = dz @ p["w2"].T
        dpre = dhidden * (1.0 - hidden ** 2)
        grads["w1"] += x.T @ dpre
        grads["b1"] += dpre.sum(axis=0)

    if batch.n_retain:
        z = state.logits(batch.retain_x)
        p = temperature_softmax(z, 1.0)
        picked = p[np.arange(batch.n_retain), batch.retain_y]
        ce_part = float(np.mean(-np.log(np.clip(picked, 1e-300, None))))
        dz = p.copy()
        dz[np.arange(batch.n_retain), batch.retain_y] -= 1.0
        backprop(batch.retain_x, dz / batch.n_retain)

    if batch.n_forget:
        T = cfg.temperature
        z = state.logits(batch.forget_x)
        p = temperature_softmax(z, T)
        q = _forget_targets(state, batch.forget_x, cfg)
        log_ratio = np.log(np.clip(p, 1e-300, None)) - np.log(np.clip(q, 1e-300, None))
        kl_rows = np.sum(p * log_ratio, axis=-1)
        kl_part = float(np.mean(kl_rows))
        dz = p * (log_ratio - kl_rows[:, None]) / T
        backprop(batch.forget_x, dz * (cfg.lambda_f * T ** 2 / batch.n_forget))

    total = ce_part + cfg.lambda_f * cfg.temperature ** 2 * kl_part
    return LossReport(total=total, ce_part=ce_part, kl_part=kl_part), grads


def reference_step(batch, state, cfg) -> bool:
    """One reference update in place; returns whether the step aborted."""
    report, grads = reference_loss_and_grads(batch, state, cfg)
    finite = math.isfinite(report.total) and all(np.all(np.isfinite(g)) for g in grads.values())
    if not finite:
        return True
    for key in PARAM_KEYS:
        state.params[key] -= cfg.lr * grads[key]
    return False


def reference_pretrain(retain, state, cfg):
    rng = np.random.default_rng(cfg.seed)
    n = len(retain)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = LabeledBatch.of(retain_x=retain.x[idx], retain_y=retain.y[idx],
                                    n_features=retain.x.shape[1])
            if reference_step(batch, state, cfg):
                return


def reference_train_unlearn(retain, forget, state, cfg):
    rng = np.random.default_rng(cfg.seed)
    half = max(1, cfg.batch_size // 2)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(retain))
        forget_order = (
            rng.permutation(len(forget)) if len(forget) else np.zeros(0, dtype=int)
        )
        fpos = 0
        snapshot = {k: v.copy() for k, v in state.params.items()}
        for start in range(0, len(retain), half):
            idx = order[start:start + half]
            forget_x = None
            if len(forget):
                fidx = [forget_order[(fpos + j) % len(forget)] for j in range(len(idx))]
                fpos += len(idx)
                forget_x = forget.x[fidx]
            batch = LabeledBatch.of(retain_x=retain.x[idx], retain_y=retain.y[idx],
                                    forget_x=forget_x, n_features=retain.x.shape[1])
            if reference_step(batch, state, cfg):
                state.params = snapshot
                return


def assert_params_equal(a: ModelState, b: ModelState):
    for key in PARAM_KEYS:
        assert np.array_equal(a.params[key], b.params[key]), key


class TestBitwiseOracle:
    @pytest.mark.parametrize("fallback", [True, False])
    @pytest.mark.parametrize("n_retain,n_forget", [(7, 0), (0, 5), (8, 8)])
    def test_step_matches_reference(self, n_retain, n_forget, fallback):
        rng = np.random.default_rng(100 * n_retain + n_forget + fallback)
        cfg = UnlearnConfig(lambda_f=1.5, temperature=2.0, lr=0.5, entropy_fallback=fallback)
        for trial in range(20):
            state = ModelState.init(12, 8, 4, seed=trial, ref_seed=trial + 500)
            batch = LabeledBatch.of(
                rng.normal(size=(n_retain, 12)) if n_retain else None,
                rng.integers(0, 4, n_retain) if n_retain else None,
                rng.normal(size=(n_forget, 12)) * 3 if n_forget else None,
                n_features=12)
            report, grads = loss_and_grads(batch, state, cfg)
            ref_report, ref_grads = reference_loss_and_grads(batch, state, cfg)
            assert report == ref_report
            for key in PARAM_KEYS:
                assert np.array_equal(grads[key], ref_grads[key]), key
            expected = state.copy()
            assert not reference_step(batch, expected, cfg)
            assert not grad_step(batch, state, cfg).aborted
            assert_params_equal(state, expected)

    def test_training_matches_reference_loops(self, task):
        data, _ = task
        trained = Dataset(
            x=np.vstack([data["forget"].x, data["retain"].x]),
            y=np.concatenate([data["forget"].y, data["retain"].y]),
        )
        state = ModelState.init(256, 64, 4, seed=0, ref_seed=7919)
        expected = state.copy()
        cfg = UnlearnConfig(lambda_f=0.0, temperature=1.0, lr=0.5, epochs=30, seed=0)
        pretrain(trained, state, cfg)
        reference_pretrain(trained, expected, cfg)
        assert_params_equal(state, expected)

        # 54 retain rows in half-batches of 8 leave a short last batch, and
        # the 18 forget rows wrap around twice inside every epoch.
        cfg = UnlearnConfig(epochs=6, seed=3)
        train_unlearn(data["retain"], data["forget"], state, cfg)
        reference_train_unlearn(data["retain"], data["forget"], expected, cfg)
        assert_params_equal(state, expected)


class TestGradStepCalls:
    """Every step goes through the module-level grad_step, so wrapping it counts them."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counted = []
        step = training.grad_step

        def counting(*args):
            counted.append(1)
            return step(*args)

        monkeypatch.setattr(training, "grad_step", counting)
        return counted

    def test_pretrain_calls(self, task, calls):
        data, model = task
        cfg = UnlearnConfig(lambda_f=0.0, temperature=1.0, epochs=3, batch_size=16)
        pretrain(data["retain"], model.copy(), cfg)
        assert len(calls) == 3 * math.ceil(len(data["retain"]) / 16)

    def test_train_unlearn_calls(self, task, calls):
        data, model = task
        cfg = UnlearnConfig(epochs=2, batch_size=16)
        train_unlearn(data["retain"], data["forget"], model.copy(), cfg)
        assert len(calls) == 2 * math.ceil(len(data["retain"]) / 8)
