"""Flat key-value configuration with documented defaults.

The config keys are the fields of ``RetrievalSettings`` (memory pathway)
and ``UnlearnConfig`` (parameter pathway), declared once there, plus the
model, corpus and agent keys declared here. Every command layers its
config: the defaults, then the named store's config snapshot if it
exists, then the ``--config`` file, then command-line flags. The file
may set any subset of the keys; with a snapshot, the two together must
set every key, so a cut snapshot cannot load a default. Only ``store``
writes the snapshot: on a store, ``feature_dim`` must match the stored
model, and any other key a command reads applies to that run only.
Unknown keys and keys set twice in a config file are rejected, and so
are invalid values (a non-finite rate, weight or temperature among them):
``UnlearnConfig``, ``RetrievalSettings`` and ``RunConfig`` each check
their own keys when the config is read, before a command writes
anything. All randomness in a run flows from the single ``seed`` key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .audit import record_of
from .corpus import CHOICES, forget_topic_count
from .store import CONFIG_HEADER, RetrievalSettings, config_snapshot, write_lines
from .training import Dataset, ModelState, TrainingError, UnlearnConfig, pretrain


@dataclass
class RunConfig(UnlearnConfig, RetrievalSettings):
    # Fields: RetrievalSettings', UnlearnConfig's, then model / corpus / agent (snapshot order)
    feature_dim: int = 256
    hidden_dim: int = 64
    pretrain_epochs: int = 120
    pretrain_lr: float = 0.5
    n_topics: int = 12
    items_per_topic: int = 6
    forget_fraction: float = 0.25
    holdout_per_topic: int = 4
    confidence_threshold: float = 0.5

    def __post_init__(self):
        # A dataclass calls only the first __post_init__ in the MRO.
        UnlearnConfig.__post_init__(self)
        RetrievalSettings.__post_init__(self)
        if not math.isfinite(self.pretrain_lr):
            raise TrainingError("pretrain_lr must be finite")
        if self.pretrain_epochs < 0 or self.pretrain_lr < 0:
            raise TrainingError("pretrain_epochs and pretrain_lr must be >= 0")
        self.h_min_for(len(CHOICES))  # the model has one class per answer choice
        for key in ("feature_dim", "hidden_dim", "n_topics", "items_per_topic"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if self.holdout_per_topic < 0:
            raise ValueError("holdout_per_topic must be >= 0")
        if not 0.0 <= self.forget_fraction <= 1.0:
            raise ValueError("forget_fraction must lie in [0, 1]")
        # Every split must hold items: eval scores all four, unlearn trains on retain.
        if self.holdout_per_topic == 0:
            raise ValueError("holdout_per_topic = 0 leaves the forget_holdout and test splits empty")
        if forget_topic_count(self.n_topics, self.forget_fraction) >= self.n_topics:
            raise ValueError(f"n_topics = {self.n_topics} and forget_fraction = "
                             f"{self.forget_fraction} leave no retain topic")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must lie in [0, 1]")

    def retrieval_settings(self) -> RetrievalSettings:
        return self  # kept for perfbench/workloads.py; a RunConfig is its RetrievalSettings

    def pretrain_config(self) -> UnlearnConfig:
        return UnlearnConfig(
            lambda_f=0.0,
            temperature=1.0,
            lr=self.pretrain_lr,
            epochs=self.pretrain_epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )


def build_model(cfg: RunConfig, trained: Dataset) -> ModelState:
    """The model ``memscrub store`` builds: drawn from ``cfg.seed``, its frozen reference
    from ``cfg.seed + 7919``, then pretrained on ``trained`` (the forget and retain
    splits; the retain split alone gives the exact-unlearning reference)."""
    model = ModelState.init(cfg.feature_dim, cfg.hidden_dim, len(CHOICES),
                            seed=cfg.seed, ref_seed=cfg.seed + 7919)
    pretrain(trained, model, cfg.pretrain_config())
    return model


_KEYS = tuple(f.name for f in fields(RunConfig))  # in snapshot order
_BOOLEANS = dict.fromkeys(("true", "1", "yes", "on"), True) | dict.fromkeys(("false", "0", "no", "off"), False)
_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number"}


def _coerce(key: str, raw: str):
    if key == "h_min" and raw.lower() in ("none", ""):
        return None
    kind = float if key == "h_min" else type(getattr(RunConfig(), key))
    try:
        return _BOOLEANS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ValueError(f"config key {key}: expected {_EXPECTED[kind]}, got {raw!r}") from None


def _read_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is set twice")
        values[key] = _coerce(key, raw.strip())
    return values


def load_config(path=None, overrides: Optional[dict] = None, store_dir=None) -> RunConfig:
    """Build a RunConfig from the defaults, then ``store_dir``'s snapshot if it has one,
    then the file at ``path``, then flag ``overrides``."""
    snapshot = None if store_dir is None else config_snapshot(store_dir)
    has_snapshot = snapshot is not None and snapshot.exists()
    values = _read_config(snapshot) if has_snapshot else {}
    if path is not None:
        values |= _read_config(path)
    missing = [key for key in _KEYS if key not in values]
    if has_snapshot and missing:
        raise ValueError(f"{snapshot}: missing config keys: {', '.join(missing)}")
    return RunConfig(**values | (overrides or {}))


def save_config_snapshot(store_dir, cfg: RunConfig) -> None:
    """Write every key of ``cfg`` to ``store_dir``'s snapshot in load_config's format."""
    lines = [f"{key} = {'none' if value is None else value}"
             for key, value in record_of(cfg).items()]
    write_lines(config_snapshot(store_dir), CONFIG_HEADER, lines)
