"""Run configuration and metric persistence.

Config files are JSON (string keys, scalar or list values). Unknown keys
are rejected by name; an empty file means "all defaults". Metrics go to
an append-safe CSV with a fixed header and floats at 6 significant
digits, so identical runs write identical values in every column except
the wall-clock ``tokens_per_s``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError

CSV_HEADER = ("run_id", "model", "task", "seed", "step", "loss",
              "accuracy", "tokens_per_s")

ENV_OUT = "PRISM_LAB_OUT"


@dataclass
class RunConfig:
    model: str = "prism"
    task: str = "mqar"
    d: int = 16
    l: int = 2
    v: int = 64
    n: int = 128
    steps: int = 10_000
    batch: int = 32
    lr: float = 1e-3
    seeds: list = field(default_factory=lambda: [1, 2, 3])
    precision: str = "f32"
    out_dir: str = "runs"

    def __post_init__(self):
        for name in ("d", "l", "v", "n", "batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"config field '{name}' must be positive")
        if self.steps < 0:
            raise ConfigError("config field 'steps' must be >= 0")
        if self.lr <= 0:
            raise ConfigError("config field 'lr' must be positive")
        if self.precision not in ("f32", "f64"):
            raise ConfigError("config field 'precision' must be 'f32' or 'f64'")
        if not self.seeds or any(int(s) != s for s in self.seeds):
            raise ConfigError("config field 'seeds' must be a non-empty int list")
        self.seeds = [int(s) for s in self.seeds]

    def dtype(self):
        import numpy as np
        return np.float32 if self.precision == "f32" else np.float64

    def resolve_out_dir(self):
        return os.environ.get(ENV_OUT, self.out_dir)


def load_config(path) -> RunConfig:
    """Parse a JSON config file, applying defaults for absent keys."""
    with open(path) as fh:
        text = fh.read()
    if not text.strip():
        return RunConfig()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    return RunConfig(**raw)


def save_config(cfg: RunConfig, path):
    with open(path, "w") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class MetricRecord:
    run_id: str
    model: str
    task: str
    seed: int
    step: int
    loss: float
    accuracy: float
    tokens_per_s: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise ConfigError(f"accuracy {self.accuracy} outside [0, 1]")
        import math
        if not math.isfinite(self.loss):
            raise ConfigError("loss must be finite")

    def to_row(self):
        return (f"{self.run_id},{self.model},{self.task},{self.seed},"
                f"{self.step},{self.loss:.6g},{self.accuracy:.6g},"
                f"{self.tokens_per_s:.6g}")

    @classmethod
    def from_row(cls, row):
        parts = row.strip().split(",")
        if len(parts) != len(CSV_HEADER):
            raise ConfigError(f"bad metrics row: {row!r}")
        return cls(run_id=parts[0], model=parts[1], task=parts[2],
                   seed=int(parts[3]), step=int(parts[4]), loss=float(parts[5]),
                   accuracy=float(parts[6]), tokens_per_s=float(parts[7]))


def write_metrics(records, path):
    """Append records, creating the header only for a new/empty file."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a") as fh:
        if fresh:
            fh.write(",".join(CSV_HEADER) + "\n")
        for rec in records:
            fh.write(rec.to_row() + "\n")


def read_metrics(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        return []
    if lines[0] != ",".join(CSV_HEADER):
        raise ConfigError(f"{path}: unexpected CSV header")
    return [MetricRecord.from_row(ln) for ln in lines[1:]]
