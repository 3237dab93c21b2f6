"""Flat key-value configuration with documented defaults.

Precedence: command-line flags > one config file > defaults. The CLI
reads the ``--config`` file if one is given and otherwise the store's
``config.cfg`` snapshot: a ``--config`` file replaces the snapshot, it
does not layer over it. Unknown keys in a config file are rejected. All
randomness in a run flows from the single ``seed`` key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .store import CONFIG_HEADER, RetrievalSettings, write_lines
from .training import UnlearnConfig


@dataclass
class RunConfig:
    # Retrieval
    top_k: int = 5
    oversample_r: int = 3
    w_sem: float = 0.7
    w_kw: float = 0.3
    tau: int = 100
    embed_dim: int = 256
    # Parameter unlearning
    lambda_f: float = 1.5
    temperature: float = 2.0
    lr: float = 0.5
    epochs: int = 40
    entropy_fallback: bool = True
    h_min: Optional[float] = None
    batch_size: int = 16
    # Model / corpus
    feature_dim: int = 256
    hidden_dim: int = 64
    pretrain_epochs: int = 120
    pretrain_lr: float = 0.5
    n_topics: int = 12
    items_per_topic: int = 6
    forget_fraction: float = 0.25
    holdout_per_topic: int = 4
    confidence_threshold: float = 0.5
    seed: int = 0

    def retrieval_settings(self) -> RetrievalSettings:
        return RetrievalSettings(
            top_k=self.top_k,
            oversample_r=self.oversample_r,
            w_sem=self.w_sem,
            w_kw=self.w_kw,
            tau=self.tau,
            embed_dim=self.embed_dim,
        )

    def unlearn_config(self) -> UnlearnConfig:
        return UnlearnConfig(
            lambda_f=self.lambda_f,
            temperature=self.temperature,
            lr=self.lr,
            epochs=self.epochs,
            entropy_fallback=self.entropy_fallback,
            h_min=self.h_min,
            batch_size=self.batch_size,
            seed=self.seed,
        )

    def pretrain_config(self) -> UnlearnConfig:
        return UnlearnConfig(
            lambda_f=0.0,
            temperature=1.0,
            lr=self.pretrain_lr,
            epochs=self.pretrain_epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    default = getattr(RunConfig(), key)
    if key == "h_min":
        return None if raw.lower() in ("none", "") else float(raw)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def load_config(path=None, overrides: Optional[dict] = None) -> RunConfig:
    """Build a RunConfig from an optional file plus flag overrides."""
    values: dict = {}
    if path is not None:
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, raw.strip())
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = value
    return RunConfig(**values)


def save_config_snapshot(store_dir, cfg: RunConfig) -> None:
    """Write every key of ``cfg`` to ``store_dir/config.cfg`` in load_config's format."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        lines.append(f"{f.name} = {'none' if value is None else value}")
    write_lines(Path(store_dir) / "config.cfg", CONFIG_HEADER, lines)
