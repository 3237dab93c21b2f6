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

import copy
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .audit import canonical_json, json_record


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
        for key in ("lr", "lambda_f", "temperature"):
            if not math.isfinite(getattr(self, key)):
                raise TrainingError(f"{key} must be finite")
        if self.lambda_f < 0:
            raise TrainingError("lambda_f must be >= 0")
        if self.temperature <= 0:
            raise TrainingError("temperature must be > 0")
        if self.epochs < 0 or self.lr < 0:
            raise TrainingError("epochs and lr must be >= 0")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.seed < 0:
            raise TrainingError("seed must be >= 0")

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
    """Mixed batch: retain items carry labels, forget items need none.

    ``forget_targets`` may carry the forget rows' reference targets when
    the caller already has them; otherwise the step computes them.
    """

    retain_x: np.ndarray
    retain_y: np.ndarray
    forget_x: np.ndarray
    forget_targets: Optional[np.ndarray] = None

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
    hidden = x @ p["w1"]
    hidden += p["b1"]
    np.tanh(hidden, out=hidden)
    z = hidden @ p["w2"]
    z += p["b2"]
    return hidden, z


def _backprop(p: dict, x: np.ndarray, hidden: np.ndarray, dz: np.ndarray):
    """Parameter gradients from the logit gradient dz of rows x.

    Returns one new flat buffer and its views shaped like p; ``hidden``
    is overwritten.
    """
    flat = np.empty(sum(v.size for v in p.values()))
    grads, start = {}, 0
    for key in PARAM_KEYS:
        grads[key] = flat[start:start + p[key].size].reshape(p[key].shape)
        start += p[key].size
    np.matmul(hidden.T, dz, out=grads["w2"])
    np.add.reduce(dz, axis=0, out=grads["b2"])
    dpre = dz @ p["w2"].T
    hidden *= hidden
    np.subtract(1.0, hidden, out=hidden)
    dpre *= hidden
    np.matmul(x.T, dpre, out=grads["w1"])
    np.add.reduce(dpre, axis=0, out=grads["b1"])
    return flat, grads


@dataclass
class ModelState:
    """Student parameters plus the frozen random reference.

    The reference is drawn from ``ref_seed`` in the student's shapes and
    is read-only, so no optimizer step can write it and copies share it;
    ``ref_hash`` lets callers assert bitwise frozenness.
    """

    params: dict
    ref_seed: int
    ref_params: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_features, n_hidden = self.params["w1"].shape
        self.ref_params = _init_params(n_features, n_hidden, self.n_classes, self.ref_seed)
        for value in self.ref_params.values():
            value.flags.writeable = False

    @classmethod
    def init(cls, n_features: int, n_hidden: int, n_classes: int,
             seed: int = 0, ref_seed: int = 7919) -> "ModelState":
        return cls(params=_init_params(n_features, n_hidden, n_classes, seed), ref_seed=ref_seed)

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
        clone = copy.copy(self)
        clone.params = {k: v.copy() for k, v in self.params.items()}
        return clone

    def record_pieces(self):
        """The model's record as canonical JSON text, in pieces of at most one parameter row.

        Joined, the pieces are ``canonical_json`` of ``{"params": {k: v.tolist()},
        "ref_seed": ref_seed}``, the record ``from_record`` reads: the frame's keys
        sorted, each 1-D parameter and each row of a 2-D one encoded on its own,
        so no piece holds a whole matrix.
        """
        yield '{"params":{'
        for i, key in enumerate(sorted(PARAM_KEYS)):
            value = self.params[key]
            yield ("," if i else "") + canonical_json(key) + ":"
            if value.ndim == 1:
                yield canonical_json(value.tolist())
                continue
            yield "["
            for j, row in enumerate(value):
                yield ("," if j else "") + canonical_json(row.tolist())
            yield "]"
        yield '},"ref_seed":' + canonical_json(self.ref_seed) + "}"

    @classmethod
    def from_record(cls, rec) -> "ModelState":
        params, ref_seed = json_record(rec, {"params": dict, "ref_seed": int})
        if ref_seed < 0:
            raise ValueError(f"ref_seed must be a non-negative integer, not {ref_seed!r}")
        params = {k: _float_array(v)
                  for k, v in zip(PARAM_KEYS, json_record(params, dict.fromkeys(PARAM_KEYS, list)))}
        # A step runs layer 1 on its batch's columns only, so a non-finite
        # w1 row would poison only the batches that use its column.
        if not all(np.isfinite(v).all() for v in params.values()):
            raise ValueError("model parameters must be finite")
        w1, b1, w2, b2 = (params[k] for k in PARAM_KEYS)
        if (w1.ndim != 2 or b1.shape != (w1.shape[1],) or b2.ndim != 1
                or w2.shape != (w1.shape[1], b2.size)):
            raise ValueError("model parameter shapes do not fit: "
                             + ", ".join(f"{k} {params[k].shape}" for k in PARAM_KEYS))
        return cls(params=params, ref_seed=ref_seed)


def _float_array(value: list) -> np.ndarray:
    """The parsed JSON list ``value`` as a float array; a ValueError unless its
    leaves, at any depth, are JSON floats in rectangular lists."""
    bad = ValueError("model parameters must be rectangular lists of JSON floats")
    pending = [value]
    while pending:
        for x in pending.pop():
            if type(x) is list:
                pending.append(x)
            elif type(x) is not float:
                raise bad
    try:
        return np.array(value, dtype=float)
    except ValueError:  # ragged, or deeper than numpy's dimension limit
        raise bad from None


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def temperature_softmax(z: np.ndarray, temperature: float) -> np.ndarray:
    """Row-wise softmax of z / T, numerically stabilized."""
    if temperature <= 0:
        raise TrainingError("temperature must be > 0")
    with np.errstate(invalid="ignore"):
        return _softmax_in_place(np.asarray(z, dtype=float) / temperature)


def _softmax_in_place(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of z, written into z."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats, row-wise; 0*log(0) treated as 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -np.sum(terms, axis=-1)


def maybe_entropy_fallback(p_ref: np.ndarray, cfg: UnlearnConfig) -> np.ndarray:
    """Uniform target when the reference is too confident (strictly below h_min)."""
    p_ref = np.asarray(p_ref, dtype=float)
    if not cfg.entropy_fallback:
        return p_ref
    n_classes = p_ref.shape[-1]
    low = entropy(p_ref) < cfg.h_min_for(n_classes)  # one row gives a 0-d mask: all or nothing
    out = p_ref.copy()
    out[low] = 1.0 / n_classes
    return out


@dataclass
class LossReport:
    total: float
    ce_part: float
    kl_part: float


def _forget_targets(state: ModelState, forget_x: np.ndarray, cfg: UnlearnConfig) -> np.ndarray:
    z_ref = state.logits(forget_x, reference=True)
    p_ref = temperature_softmax(z_ref, cfg.temperature)
    return maybe_entropy_fallback(p_ref, cfg)


def loss_and_grads(batch: LabeledBatch, state: ModelState, cfg: UnlearnConfig):
    """Loss report and full-shape gradients by parameter."""
    report, _, grads, cols, _ = _loss_and_flat_grads(batch, state, cfg)
    w1 = np.zeros_like(state.params["w1"])
    w1[cols] = grads["w1"]
    return report, {**grads, "w1": w1}


def _loss_and_flat_grads(batch: LabeledBatch, state: ModelState, cfg: UnlearnConfig):
    """Loss report, the gradient as one flat buffer, its views by parameter,
    the batch's active feature columns, and a copy of their ``w1`` rows.

    Layer 1 runs on the active columns only (those nonzero in some retain
    or forget row), so the ``w1`` view holds just their rows. The gathered
    products equal the dense ones up to rounding: a BLAS kernel may sum a
    shorter product in another order.
    """
    if len(batch) == 0:
        raise TrainingError("empty batch")

    used = np.logical_or.reduce(batch.retain_x, axis=0)
    if batch.n_forget:
        used |= np.logical_or.reduce(batch.forget_x, axis=0)
    cols = used.nonzero()[0]
    active = {**state.params, "w1": state.params["w1"].take(cols, axis=0)}
    T = cfg.temperature
    ce_part = 0.0
    kl_part = 0.0
    flat = grads = None

    # The forward passes (the student's, and the reference's for forget
    # rows) run outside the errstate blocks, so an overflow there still
    # warns. Past them, large rows or weights can overflow a gradient while
    # the loss stays finite; grad_step's finiteness check aborts such a step.
    if batch.n_retain:
        n = batch.n_retain
        x = batch.retain_x.take(cols, axis=1)
        hidden, p = _forward(active, x)
        with np.errstate(over="ignore", invalid="ignore"):
            _softmax_in_place(p)  # at T = 1, whose division is exact and so skipped
            rows, y = np.arange(n), batch.retain_y
            ce_part = float(np.add.reduce(-np.log(np.maximum(p[rows, y], 1e-300))) / n)
            p[rows, y] -= 1.0
            p /= n
            flat, grads = _backprop(active, x, hidden, p)

    if batch.n_forget:
        n = batch.n_forget
        x = batch.forget_x.take(cols, axis=1)
        hidden, p = _forward(active, x)
        p /= T
        q = (_forget_targets(state, batch.forget_x, cfg) if batch.forget_targets is None
             else batch.forget_targets)
        with np.errstate(over="ignore", invalid="ignore"):
            _softmax_in_place(p)
            dz = np.log(np.maximum(p, 1e-300))
            dz -= np.log(np.maximum(q, 1e-300))  # log_ratio, turned into dz below
            kl_rows = np.add.reduce(p * dz, axis=-1)
            kl_part = float(np.add.reduce(kl_rows) / n)
            # d KL / d z = p * (log_ratio - KL) / T, scaled by the batch weight.
            dz -= kl_rows[:, None]
            dz *= p
            dz /= T
            dz *= cfg.lambda_f * T ** 2 / n
            forget_flat, forget_grads = _backprop(active, x, hidden, dz)
            if flat is None:
                flat, grads = forget_flat, forget_grads
            else:
                flat += forget_flat

    total = ce_part + cfg.lambda_f * T ** 2 * kl_part
    report = LossReport(total=total, ce_part=ce_part, kl_part=kl_part)
    return report, flat, grads, cols, active["w1"]


@dataclass
class StepReport:
    loss: LossReport
    aborted: bool = False


def grad_step(batch: LabeledBatch, state: ModelState, cfg: UnlearnConfig) -> StepReport:
    """One gradient-descent step in place. A non-finite loss or gradient aborts the step.

    Only the ``w1`` rows of the batch's active columns change. An inactive
    row's dense gradient is zero unless some ``dpre`` entry is not finite,
    and then the ``b1`` gradient is not finite either, so checking the
    active rows aborts exactly the steps a dense check would.
    """
    report, flat, grads, cols, rows = _loss_and_flat_grads(batch, state, cfg)
    if not (math.isfinite(report.total) and np.isfinite(flat).all()):
        return StepReport(loss=report, aborted=True)
    flat *= cfg.lr
    rows -= grads["w1"]
    state.params["w1"][cols] = rows
    for key in ("b1", "w2", "b2"):
        state.params[key] -= grads[key]
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
    # The reference is frozen, so its targets are computed once.
    targets = _forget_targets(state, forget.x, cfg)
    history = []
    half = max(1, cfg.batch_size // 2)
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(retain))
        # The forget draw paired with retain position i, cycling the forget order.
        forget_cycle = (
            rng.permutation(len(forget))[np.arange(len(retain)) % len(forget)]
            if len(forget) else np.zeros(0, dtype=int)
        )
        snapshot = {k: v.copy() for k, v in state.params.items()}
        diverged = False
        for start in range(0, len(retain), half):
            idx, fidx = order[start:start + half], forget_cycle[start:start + half]
            step = grad_step(LabeledBatch(retain.x[idx], retain.y[idx], forget.x[fidx],
                                          targets[fidx]), state, cfg)
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
