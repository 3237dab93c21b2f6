import json
import math
import warnings

import numpy as np
import pytest

from memscrub import training
from memscrub.corpus import split_items, to_dataset
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


def stored_record(state):
    """The record the model file holds for ``state``, parsed back from its JSON text."""
    return json.loads("".join(state.record_pieces()))


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
        report = loss_and_grads(batch, state, cfg)[0]
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
        report = loss_and_grads(batch, state, cfg)[0]
        residual = report.total - (report.ce_part + 1.5 * 2.0 ** 2 * report.kl_part)
        assert abs(residual) < 1e-12

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(9)
        cfg = UnlearnConfig()
        for trial in range(30):
            state = tiny_state(seed=trial)
            batch = LabeledBatch.of(forget_x=rng.normal(size=(3, 6)), n_features=6)
            assert loss_and_grads(batch, state, cfg)[0].kl_part >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(TrainingError):
            loss_and_grads(LabeledBatch.of(n_features=6), tiny_state(), UnlearnConfig())


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

    def test_forward_overflow_still_warns(self):
        # Only the backprop is silenced: an overflow in the forward pass surfaces.
        state = ModelState.init(6, 4, 3)
        state.params["w1"][:] = 1e200
        batch = LabeledBatch.of(np.full((2, 6), 1e200), np.array([0, 1]), n_features=6)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grad_step(batch, state, UnlearnConfig())
        assert [str(w.message) for w in caught] == ["overflow encountered in matmul"]
        assert all(w.category is RuntimeWarning for w in caught)

    def test_successive_calls_share_no_gradient_memory(self):
        state = tiny_state()
        rng = np.random.default_rng(4)
        batch = LabeledBatch.of(rng.normal(size=(3, 6)), rng.integers(0, 3, 3),
                                rng.normal(size=(2, 6)), n_features=6)
        _, first = loss_and_grads(batch, state, UnlearnConfig())
        _, second = loss_and_grads(batch, state, UnlearnConfig())
        for a in first.values():
            for b in second.values():
                assert not np.shares_memory(a, b)


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
                    lp = loss_and_grads(batch, state, cfg)[0].total
                    flat[idx] = orig - h
                    lm = loss_and_grads(batch, state, cfg)[0].total
                    flat[idx] = orig
                    numeric = (lp - lm) / (2 * h)
                    analytic = grads[key].reshape(-1)[idx]
                    denom = max(1e-6, abs(numeric), abs(analytic))
                    assert abs(numeric - analytic) / denom < 1e-4


@pytest.fixture(scope="module")
def task(corpus_items, pretrained_model):
    """The seed-0 splits as datasets, and the model ``memscrub store`` builds from them."""
    data = {split: to_dataset(split_items(corpus_items, split), 256)
            for split in ("forget", "retain", "test")}
    return data, pretrained_model


def poison_step(monkeypatch, at):
    """Make grad_step call ``at`` (from 1) non-finite by setting ``b2`` to inf before it runs.

    Returns the parameters each call found, one copy per call."""
    seen = []
    step = training.grad_step

    def poisoned(batch, state, cfg):
        seen.append({k: v.copy() for k, v in state.params.items()})
        if len(seen) == at:
            state.params["b2"][:] = np.inf
        report = step(batch, state, cfg)
        assert report.aborted == (len(seen) == at)
        return report

    monkeypatch.setattr(training, "grad_step", poisoned)
    return seen


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
        assert loss_and_grads(batch, state, cfg)[0].kl_part == pytest.approx(0.0, abs=1e-12)

    def test_reference_frozen_through_training(self, task):
        data, model = task
        state = model.copy()
        ref_hash = state.ref_hash()
        train_unlearn(data["retain"], data["forget"], state,
                      UnlearnConfig(epochs=5, seed=0))
        assert state.ref_hash() == ref_hash

    def test_divergence_restores_the_epoch_snapshot_and_stops(self, task, monkeypatch):
        data, model = task
        cfg = UnlearnConfig(epochs=4, seed=3)
        after_first_epoch = model.copy()
        first = train_unlearn(data["retain"], data["forget"], after_first_epoch,
                              UnlearnConfig(epochs=1, seed=3))
        steps_per_epoch = math.ceil(len(data["retain"]) / (cfg.batch_size // 2))
        seen = poison_step(monkeypatch, at=steps_per_epoch + 3)
        state = model.copy()
        history = train_unlearn(data["retain"], data["forget"], state, cfg)
        assert len(seen) == steps_per_epoch + 3  # no step after the aborted one
        assert history[0] == first[0]
        assert history[1]["diverged"] is True and len(history) == 2
        assert history[1]["retain_acc"] == first[0]["retain_acc"]
        assert_params_identical(state, after_first_epoch)

    def test_pretrain_returns_at_an_aborted_step(self, task, monkeypatch):
        data, model = task
        seen = poison_step(monkeypatch, at=5)
        state = model.copy()
        pretrain(data["retain"], state, UnlearnConfig(lambda_f=0.0, temperature=1.0, epochs=3))
        assert len(seen) == 5  # of the 3 epochs' 12 steps
        for key in ("w1", "b1", "w2"):  # the aborted step changed nothing
            assert np.array_equal(state.params[key], seen[-1][key])
        assert np.isinf(state.params["b2"]).all()

    def test_empty_retain_rejected(self):
        with pytest.raises(TrainingError):
            train_unlearn(Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int)),
                          Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int)),
                          tiny_state(), UnlearnConfig())


class TestReference:
    def test_record_holds_the_seed_and_reloads_bit_for_bit(self):
        state = tiny_state(seed=4)
        grad_step(LabeledBatch.of(np.ones((1, 6)), [1], np.ones((1, 6)), n_features=6),
                  state, UnlearnConfig())
        record = stored_record(state)
        assert sorted(record) == ["params", "ref_seed"] and record["ref_seed"] == 104
        loaded = ModelState.from_record(record)
        fresh = tiny_state(seed=4)
        for key in PARAM_KEYS:
            assert np.array_equal(loaded.params[key], state.params[key])
            assert np.array_equal(loaded.ref_params[key], fresh.ref_params[key])
            assert loaded.ref_params[key].dtype == fresh.ref_params[key].dtype
        assert loaded.ref_hash() == fresh.ref_hash()

    @pytest.mark.parametrize("ref_seed", [-1, True, 7.0, "7", None])
    def test_bad_ref_seed_rejected(self, ref_seed):
        record = {**stored_record(tiny_state()), "ref_seed": ref_seed}
        with pytest.raises(ValueError, match="ref_seed"):
            ModelState.from_record(record)

    @pytest.mark.parametrize("element", [True, 1, "0.5", {}, None, [0.5]])
    def test_parameter_element_that_is_not_a_json_float_rejected(self, element):
        record = stored_record(tiny_state())
        record["params"]["b1"][0] = element
        with pytest.raises(ValueError, match="JSON floats"):
            ModelState.from_record(record)

    def test_reference_is_read_only(self):
        state = tiny_state()
        with pytest.raises(ValueError):
            state.ref_params["w1"][0, 0] = 1.0
        with pytest.raises(ValueError):
            state.ref_params["b2"] += 1.0

    def test_copy_shares_the_reference_only(self):
        state = tiny_state()
        clone = state.copy()
        assert clone.ref_seed == state.ref_seed
        for key in PARAM_KEYS:
            assert clone.ref_params[key] is state.ref_params[key]
            assert clone.params[key] is not state.params[key]
        before = {k: v.copy() for k, v in state.params.items()}
        grad_step(LabeledBatch.of(np.ones((2, 6)), [0, 2], n_features=6), clone, UnlearnConfig())
        assert_params_equal(state, ModelState(params=before, ref_seed=state.ref_seed))


# ---------------------------------------------------------------------------
# Reference trainer: plain numpy steps and loops, kept as a bitwise oracle
# ---------------------------------------------------------------------------

def reference_loss_and_grads(batch, state, cfg, dense=False):
    """Loss and gradients with zero-filled buffers and a recomputed forward pass.

    Layer 1 runs on the batch's active columns, those nonzero in some retain or
    forget row, as the trainer's does: the same products in the same shapes, which
    any one BLAS kernel rounds alike. With ``dense``, it runs on every column,
    an independent check of the gathered math that agrees only up to rounding.
    The forget rows' targets are ``batch.forget_targets`` when given.
    """
    params = state.params
    x_all = np.vstack([batch.retain_x, batch.forget_x])
    cols = np.arange(x_all.shape[1]) if dense else np.flatnonzero(x_all.any(axis=0))
    w1 = params["w1"][cols]
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    ce_part = 0.0
    kl_part = 0.0

    def forward(x):
        hidden = np.tanh(x[:, cols] @ w1 + params["b1"])
        return hidden, hidden @ params["w2"] + params["b2"]

    def backprop(x, dz):
        hidden, _ = forward(x)
        grads["w2"] += hidden.T @ dz
        grads["b2"] += dz.sum(axis=0)
        dhidden = dz @ params["w2"].T
        dpre = dhidden * (1.0 - hidden ** 2)
        grads["w1"][cols] += x[:, cols].T @ dpre
        grads["b1"] += dpre.sum(axis=0)

    if batch.n_retain:
        _, z = forward(batch.retain_x)
        p = temperature_softmax(z, 1.0)
        picked = p[np.arange(batch.n_retain), batch.retain_y]
        ce_part = float(np.mean(-np.log(np.clip(picked, 1e-300, None))))
        dz = p.copy()
        dz[np.arange(batch.n_retain), batch.retain_y] -= 1.0
        backprop(batch.retain_x, dz / batch.n_retain)

    if batch.n_forget:
        T = cfg.temperature
        _, z = forward(batch.forget_x)
        p = temperature_softmax(z, T)
        q = (_forget_targets(state, batch.forget_x, cfg) if batch.forget_targets is None
             else batch.forget_targets)
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
    # The frozen reference's targets for the whole forget set, computed once.
    targets = _forget_targets(state, forget.x, cfg) if len(forget) else None
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
            if len(forget):
                batch.forget_targets = targets[fidx]
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


# ---------------------------------------------------------------------------
# The oracle on real inputs: hashed bags of words with a few nonzeros per row
# ---------------------------------------------------------------------------

def active_columns(*parts):
    return set(np.flatnonzero(np.vstack(parts).any(axis=0)))


def rows_of(data, split, idx):
    return data[split].x[idx], data[split].y[idx]


def assert_params_identical(a: ModelState, b: ModelState):
    for key in PARAM_KEYS:
        assert a.params[key].tobytes() == b.params[key].tobytes(), key


class TestSparseOracle:
    """Layer 1 runs on the batch's active columns, in the trainer and in the reference alike,
    so the two agree bit for bit on every BLAS kernel. Each single step is also checked
    against the dense math, which a kernel may round differently, within a tolerance."""

    CFG = UnlearnConfig(lambda_f=1.5, temperature=2.0, lr=0.5)

    @pytest.fixture()
    def states(self, task):
        _, pretrained = task
        return [pretrained.copy()] + [ModelState.init(256, 64, 4, seed=s, ref_seed=s + 7919)
                                      for s in (1, 2)]

    def check_step(self, batch, state, cfg=CFG):
        report, grads = loss_and_grads(batch, state, cfg)
        ref_report, ref_grads = reference_loss_and_grads(batch, state, cfg)
        assert report == ref_report
        for key in PARAM_KEYS:
            assert grads[key].shape == ref_grads[key].shape
            assert np.array_equal(grads[key], ref_grads[key]), key
        # Under the SkylakeX, Haswell, Nehalem and Prescott OpenBLAS kernels, these steps came
        # within 3.6e-14 of each gradient's largest entry, and each loss part within
        # 3.9e-13 * max(|dense part|, 1e-3), of the dense math: the bounds hold 25 times that.
        dense_report, dense_grads = reference_loss_and_grads(batch, state, cfg, dense=True)
        for part in ("total", "ce_part", "kl_part"):
            dense = getattr(dense_report, part)
            assert abs(getattr(report, part) - dense) <= 1e-11 * max(abs(dense), 1e-3), part
        for key in PARAM_KEYS:
            error = np.abs(grads[key] - dense_grads[key]).max()
            assert error <= 1e-12 * np.abs(dense_grads[key]).max(), key
        expected = state.copy()
        before = state.params["w1"].copy()
        assert not reference_step(batch, expected, cfg)
        assert not grad_step(batch, state, cfg).aborted
        assert_params_equal(state, expected)
        inactive = sorted(set(range(256)) - active_columns(batch.retain_x, batch.forget_x))
        assert inactive
        assert state.params["w1"][inactive].tobytes() == before[inactive].tobytes()

    def test_retain_batches_of_16(self, task, states):
        data, _ = task
        rng = np.random.default_rng(11)
        for state in states:
            for _ in range(10):
                x, y = rows_of(data, "retain", rng.choice(len(data["retain"]), 16, replace=False))
                self.check_step(LabeledBatch.of(x, y, n_features=256), state)

    @pytest.mark.parametrize("fallback", [True, False])
    def test_forget_only_batches(self, task, states, fallback):
        data, _ = task
        cfg = UnlearnConfig(lambda_f=1.5, temperature=2.0, lr=0.5, entropy_fallback=fallback)
        rng = np.random.default_rng(12)
        for state in states:
            for n in range(2, 10):
                x, _ = rows_of(data, "forget", rng.choice(len(data["forget"]), n, replace=False))
                self.check_step(LabeledBatch.of(forget_x=x, n_features=256), state, cfg)

    def test_mixed_batches_with_different_active_columns(self, task, states):
        data, _ = task
        rng = np.random.default_rng(13)
        for state in states:
            for _ in range(10):
                rx, ry = rows_of(data, "retain", rng.choice(len(data["retain"]), 8, replace=False))
                fx, _ = rows_of(data, "forget", rng.choice(len(data["forget"]), 8, replace=False))
                retain_cols, forget_cols = active_columns(rx), active_columns(fx)
                assert retain_cols - forget_cols and forget_cols - retain_cols
                self.check_step(LabeledBatch.of(rx, ry, fx, n_features=256), state)

    @pytest.mark.parametrize("n_retain,n_forget", [(1, 0), (0, 1), (1, 1), (1, 8), (8, 1)])
    def test_one_row_parts(self, task, states, n_retain, n_forget):
        data, _ = task
        rng = np.random.default_rng(14)
        for state in states:
            for _ in range(10):
                rx, ry = rows_of(data, "retain", rng.choice(len(data["retain"]), n_retain,
                                                            replace=False))
                fx, _ = rows_of(data, "forget", rng.choice(len(data["forget"]), n_forget,
                                                           replace=False))
                self.check_step(LabeledBatch.of(rx if n_retain else None, ry if n_retain else None,
                                                fx if n_forget else None, n_features=256), state)

    @staticmethod
    def check_pretrain(data, n_rows, last):
        trained = Dataset(
            x=np.vstack([data["forget"].x, data["retain"].x])[:n_rows],
            y=np.concatenate([data["forget"].y, data["retain"].y])[:n_rows],
        )
        assert len(trained) % 16 == last
        cfg = UnlearnConfig(lambda_f=0.0, temperature=1.0, lr=0.5, epochs=20, seed=5)
        state = ModelState.init(256, 64, 4, seed=5, ref_seed=5 + 7919)
        expected = state.copy()
        pretrain(trained, state, cfg)
        reference_pretrain(trained, expected, cfg)
        assert_params_identical(state, expected)

    def test_pretrain_with_a_short_last_batch(self, task):
        self.check_pretrain(task[0], 72, last=8)

    def test_pretrain_with_a_one_row_last_batch(self, task):
        self.check_pretrain(task[0], 65, last=1)

    @pytest.mark.parametrize("n_retain,n_forget", [(17, 18), (17, 2), (9, 1), (54, 1)])
    def test_unlearning_with_one_row_parts(self, task, n_retain, n_forget):
        # 17 and 9 retain rows in half-batches of 8 end in a one-row part.
        data, pretrained = task
        retain = Dataset(data["retain"].x[:n_retain], data["retain"].y[:n_retain])
        forget = Dataset(data["forget"].x[:n_forget], data["forget"].y[:n_forget])
        state, expected = pretrained.copy(), pretrained.copy()
        cfg = UnlearnConfig(epochs=4, seed=6)
        train_unlearn(retain, forget, state, cfg)
        reference_train_unlearn(retain, forget, expected, cfg)
        assert_params_identical(state, expected)

    @pytest.mark.parametrize("n_retain,n_forget,rows", [
        (54, 18, [18]),  # once, for the whole forget set
        (17, 18, [18]),  # an epoch's one-row part takes its row's target from it
        (54, 1, [1]),    # and so does every part of a one-row set
    ])
    def test_reference_targets_once_per_forget_set(self, task, monkeypatch,
                                                   n_retain, n_forget, rows):
        data, pretrained = task
        counted = []
        targets = training._forget_targets

        def counting(*args):
            counted.append(len(args[1]))
            return targets(*args)

        monkeypatch.setattr(training, "_forget_targets", counting)
        retain = Dataset(data["retain"].x[:n_retain], data["retain"].y[:n_retain])
        forget = Dataset(data["forget"].x[:n_forget], data["forget"].y[:n_forget])
        train_unlearn(retain, forget, pretrained.copy(), UnlearnConfig(epochs=3, seed=6))
        assert counted == rows


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
