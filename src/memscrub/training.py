"""Parameter pathway: mixed-batch trainer for a small classifier.

Retain items contribute standard cross-entropy; forget items contribute
temperature-scaled KL divergence from the student's distribution to a
frozen, randomly initialized reference (or a uniform target when the
reference is too confident and the entropy fallback is on). The total is

    total = ce_retain + lambda_f * T^2 * kl_forget

optimized by plain gradient descent so analytic gradients can be checked
against central finite differences exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class TrainingError(ValueError):
    pass


@dataclass
class UnlearnConfig:
    lambda_f: float = 1.5
    temperature: float = 2.0
    lr: float = 0.5
    epochs: int = 40
    entropy_fallback: bool = True
    h_min: Optional[float] = None  # default 0.5 * ln(n_classes), resolved per model
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.lambda_f < 0:
            raise TrainingError("lambda_f must be >= 0")
        if self.temperature <= 0:
            raise TrainingError("temperature must be > 0")
        if self.epochs < 0 or self.lr < 0:
            raise TrainingError("epochs and lr must be >= 0")

    def h_min_for(self, n_classes: int) -> float:
        if self.h_min is not None:
            if not 0.0 < self.h_min < math.log(n_classes):
                raise TrainingError("h_min must lie in (0, ln(n_classes))")
            return self.h_min
        return 0.5 * math.log(n_classes)


@dataclass
class Dataset:
    x: np.ndarray  # (n, features)
    y: np.ndarray  # (n,) int labels

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class LabeledBatch:
    """Mixed batch: retain items carry labels, forget items need none."""

    retain_x: np.ndarray
    retain_y: np.ndarray
    forget_x: np.ndarray

    @classmethod
    def of(cls, retain_x=None, retain_y=None, forget_x=None, n_features: int = 0):
        empty_x = np.zeros((0, n_features))
        return cls(
            retain_x=empty_x if retain_x is None else np.atleast_2d(retain_x),
            retain_y=np.zeros(0, dtype=int) if retain_y is None else np.atleast_1d(retain_y),
            forget_x=empty_x if forget_x is None else np.atleast_2d(forget_x),
        )

    @property
    def n_retain(self) -> int:
        return self.retain_x.shape[0]

    @property
    def n_forget(self) -> int:
        return self.forget_x.shape[0]

    def __len__(self) -> int:
        return self.n_retain + self.n_forget


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

PARAM_KEYS = ("w1", "b1", "w2", "b2")


def _init_params(n_features: int, n_hidden: int, n_classes: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    scale1 = 1.0 / math.sqrt(n_features)
    scale2 = 1.0 / math.sqrt(n_hidden)
    return {
        "w1": rng.normal(0.0, scale1, size=(n_features, n_hidden)),
        "b1": np.zeros(n_hidden),
        "w2": rng.normal(0.0, scale2, size=(n_hidden, n_classes)),
        "b2": np.zeros(n_classes),
    }


def _forward(p: dict, x: np.ndarray):
    """Hidden activations and logits of x under parameters p."""
    hidden = np.tanh(x @ p["w1"] + p["b1"])
    return hidden, hidden @ p["w2"] + p["b2"]


def _backprop(p: dict, x: np.ndarray, hidden: np.ndarray, dz: np.ndarray) -> dict:
    """Parameter gradients from the logit gradient dz of rows x."""
    dpre = (dz @ p["w2"].T) * (1.0 - hidden ** 2)
    return {"w1": x.T @ dpre, "b1": dpre.sum(axis=0),
            "w2": hidden.T @ dz, "b2": dz.sum(axis=0)}


@dataclass
class ModelState:
    """Student parameters plus the frozen random reference.

    The reference is never touched by optimizer steps; ``ref_hash`` lets
    callers assert bitwise frozenness.
    """

    params: dict
    ref_params: dict

    @classmethod
    def init(cls, n_features: int, n_hidden: int, n_classes: int,
             seed: int = 0, ref_seed: int = 7919) -> "ModelState":
        return cls(
            params=_init_params(n_features, n_hidden, n_classes, seed),
            ref_params=_init_params(n_features, n_hidden, n_classes, ref_seed),
        )

    @property
    def n_classes(self) -> int:
        return self.params["b2"].shape[0]

    def logits(self, x: np.ndarray, reference: bool = False) -> np.ndarray:
        return _forward(self.ref_params if reference else self.params, x)[1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=-1)

    def ref_hash(self) -> str:
        h = hashlib.sha256()
        for key in PARAM_KEYS:
            h.update(np.ascontiguousarray(self.ref_params[key]).tobytes())
        return h.hexdigest()

    def copy(self) -> "ModelState":
        return ModelState(
            params={k: v.copy() for k, v in self.params.items()},
            ref_params={k: v.copy() for k, v in self.ref_params.items()},
        )

    def to_record(self) -> dict:
        return {
            "params": {k: self.params[k].tolist() for k in PARAM_KEYS},
            "ref_params": {k: self.ref_params[k].tolist() for k in PARAM_KEYS},
        }

    @classmethod
    def from_record(cls, rec: dict) -> "ModelState":
        return cls(
            params={k: np.array(rec["params"][k], dtype=float) for k in PARAM_KEYS},
            ref_params={k: np.array(rec["ref_params"][k], dtype=float) for k in PARAM_KEYS},
        )


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def temperature_softmax(z: np.ndarray, temperature: float) -> np.ndarray:
    """Row-wise softmax of z / T, numerically stabilized."""
    if temperature <= 0:
        raise TrainingError("temperature must be > 0")
    with np.errstate(invalid="ignore"):
        scaled = np.asarray(z, dtype=float) / temperature
        scaled = scaled - np.max(scaled, axis=-1, keepdims=True)
        exp = np.exp(scaled)
        return exp / np.sum(exp, axis=-1, keepdims=True)


def entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats, row-wise; 0*log(0) treated as 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -np.sum(terms, axis=-1)


def maybe_entropy_fallback(p_ref: np.ndarray, cfg: UnlearnConfig) -> np.ndarray:
    """Uniform target when the reference is too confident (strictly below h_min)."""
    p_ref = np.asarray(p_ref, dtype=float)
    single = p_ref.ndim == 1
    rows = np.atleast_2d(p_ref)
    n_classes = rows.shape[-1]
    if not cfg.entropy_fallback:
        return p_ref
    h_min = cfg.h_min_for(n_classes)
    low = entropy(rows) < h_min
    out = rows.copy()
    out[low] = 1.0 / n_classes
    return out[0] if single else out


@dataclass
class LossReport:
    total: float
    ce_part: float
    kl_part: float


def _forget_targets(state: ModelState, forget_x: np.ndarray, cfg: UnlearnConfig) -> np.ndarray:
    z_ref = state.logits(forget_x, reference=True)
    p_ref = temperature_softmax(z_ref, cfg.temperature)
    return maybe_entropy_fallback(p_ref, cfg)


def loss_weight(batch: LabeledBatch, state: ModelState, cfg: UnlearnConfig) -> LossReport:
    report, _ = _loss_and_grads(batch, state, cfg, want_grads=False)
    return report


def loss_and_grads(batch: LabeledBatch, state: ModelState, cfg: UnlearnConfig):
    return _loss_and_grads(batch, state, cfg, want_grads=True)


def _loss_and_grads(batch: LabeledBatch, state: ModelState, cfg: UnlearnConfig,
                    want_grads: bool):
    if len(batch) == 0:
        raise TrainingError("empty batch")

    params = state.params
    parts = []  # (rows, hidden, weighted dz) of each batch part
    ce_part = 0.0
    kl_part = 0.0

    if batch.n_retain:
        hidden, z = _forward(params, batch.retain_x)
        p = temperature_softmax(z, 1.0)
        rows = np.arange(batch.n_retain)
        picked = p[rows, batch.retain_y]
        ce_part = float(np.mean(-np.log(np.clip(picked, 1e-300, None))))
        if want_grads:
            p[rows, batch.retain_y] -= 1.0
            parts.append((batch.retain_x, hidden, p / batch.n_retain))

    if batch.n_forget:
        T = cfg.temperature
        hidden, z = _forward(params, batch.forget_x)
        p = temperature_softmax(z, T)
        q = _forget_targets(state, batch.forget_x, cfg)
        log_ratio = np.log(np.clip(p, 1e-300, None)) - np.log(np.clip(q, 1e-300, None))
        kl_rows = np.sum(p * log_ratio, axis=-1)
        kl_part = float(np.mean(kl_rows))
        if want_grads:
            # d KL / d z = p * (log_ratio - KL) / T, scaled by the batch weight.
            dz = p * (log_ratio - kl_rows[:, None]) / T
            parts.append((batch.forget_x, hidden, dz * (cfg.lambda_f * T ** 2 / batch.n_forget)))

    total = ce_part + cfg.lambda_f * cfg.temperature ** 2 * kl_part
    grads = None
    if want_grads:
        # Large rows or weights can overflow a gradient while the loss stays
        # finite; grad_step's finiteness check aborts such a step.
        with np.errstate(over="ignore", invalid="ignore"):
            grads = _backprop(params, *parts[0])
            for part in parts[1:]:
                for key, g in _backprop(params, *part).items():
                    grads[key] += g
    return LossReport(total=total, ce_part=ce_part, kl_part=kl_part), grads


@dataclass
class StepReport:
    loss: LossReport
    aborted: bool = False


def grad_step(batch: LabeledBatch, state: ModelState, cfg: UnlearnConfig) -> StepReport:
    """One gradient-descent step in place. A non-finite loss or gradient aborts the step."""
    report, grads = loss_and_grads(batch, state, cfg)
    finite = math.isfinite(report.total) and all(np.isfinite(g).all() for g in grads.values())
    if not finite:
        return StepReport(loss=report, aborted=True)
    for key in PARAM_KEYS:
        g = grads[key]
        g *= cfg.lr
        state.params[key] -= g
    return StepReport(loss=report)


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

def model_accuracy(state: ModelState, ds: Dataset) -> float:
    if len(ds) == 0:
        raise TrainingError("empty dataset")
    return float(np.mean(state.predict(ds.x) == ds.y))


def mean_forget_entropy(state: ModelState, forget_x: np.ndarray) -> float:
    p = temperature_softmax(state.logits(forget_x), 1.0)
    return float(np.mean(entropy(p)))


def pretrain(retain: Dataset, state: ModelState, cfg: UnlearnConfig) -> None:
    """Plain cross-entropy fitting, used to build the pre-unlearning agent."""
    rng = np.random.default_rng(cfg.seed)
    n = len(retain)
    no_forget = np.zeros((0, retain.x.shape[1]))
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            step = grad_step(LabeledBatch(retain.x[idx], retain.y[idx], no_forget), state, cfg)
            if step.aborted:
                return


def train_unlearn(retain: Dataset, forget: Dataset, state: ModelState,
                  cfg: UnlearnConfig) -> list:
    """Mixed-batch unlearning over cfg.epochs; returns per-epoch metrics.

    Batches pair retain and forget draws 1:1 (forget items are cycled when
    the forget set is smaller). On divergence the last finite state wins.
    """
    if len(retain) == 0:
        raise TrainingError("retain set must be nonempty")
    rng = np.random.default_rng(cfg.seed)
    no_forget = np.zeros((0, retain.x.shape[1]))
    history = []
    half = max(1, cfg.batch_size // 2)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(retain))
        # The forget draw paired with retain position i, cycling the forget order.
        forget_cycle = (
            rng.permutation(len(forget))[np.arange(len(retain)) % len(forget)]
            if len(forget) else None
        )
        snapshot = {k: v.copy() for k, v in state.params.items()}
        diverged = False
        for start in range(0, len(retain), half):
            idx = order[start:start + half]
            forget_x = (no_forget if forget_cycle is None
                        else forget.x[forget_cycle[start:start + half]])
            step = grad_step(LabeledBatch(retain.x[idx], retain.y[idx], forget_x), state, cfg)
            if step.aborted:
                state.params = snapshot
                diverged = True
                break
        metrics = {
            "epoch": epoch,
            "retain_acc": model_accuracy(state, retain),
            "forget_acc": model_accuracy(state, forget) if len(forget) else None,
            "forget_entropy": mean_forget_entropy(state, forget.x) if len(forget) else None,
            "diverged": diverged,
        }
        history.append(metrics)
        if diverged:
            break
    return history
