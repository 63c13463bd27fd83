"""Run configuration and metric persistence.

Config files are JSON (string keys, scalar or list values). Unknown keys
are rejected by name; an empty file means "all defaults". Metrics go to
an append-safe CSV whose columns are ``MetricRecord``'s fields, in order,
with floats at 6 significant digits, so identical runs write identical
values in every column except the wall-clock ``tokens_per_s``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError

# The Python types a RunConfig field accepts, by its annotation.
_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "list": list}

# How a metrics-row column is parsed and formatted, by its field's annotation.
_COLUMNS = {"str": (str, ""), "int": (int, ""), "float": (float, ".6g")}


def is_a(value, kind):
    """``isinstance``, except that a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_int(name, value, low):
    """``value`` as an int; ConfigError unless it is an int (not a bool) >= ``low``."""
    if not is_a(value, numbers.Integral):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return int(value)


def seed_list(seed):
    """A seed (an int, or a list or tuple of ints) as a list of ints >= 0.
    numpy integers count as ints; a float or bool element is refused, not
    truncated."""
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    if not all(is_a(s, numbers.Integral) for s in seeds):
        raise ConfigError(f"seed must be an int or a list of ints, got {seed!r}")
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seed must be non-negative, got {seed!r}")
    return [int(s) for s in seeds]


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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_a(value, _KINDS[f.type]):
                raise ConfigError(f"config field '{f.name}' must be {f.type}, "
                                  f"got {value!r}")
        # numpy scalars are stored as Python numbers, so that save_config
        # can write them.
        for name, low in (("d", 1), ("l", 1), ("v", 1), ("n", 1), ("batch", 1), ("steps", 0)):
            setattr(self, name, check_int(f"config field '{name}'", getattr(self, name), low))
        if not 0 < self.lr < math.inf:  # also refuses NaN
            raise ConfigError(f"config field 'lr' must be positive and finite, "
                              f"got {self.lr!r}")
        self.lr = float(self.lr)
        if self.precision not in ("f32", "f64"):
            raise ConfigError("config field 'precision' must be 'f32' or 'f64'")
        try:
            seeds = seed_list(self.seeds)
        except ConfigError:
            seeds = []
        if not seeds:
            raise ConfigError(f"config field 'seeds' must be a non-empty list of "
                              f"non-negative ints, got {self.seeds!r}")
        self.seeds = seeds

    def dtype(self):
        import numpy as np
        return np.float32 if self.precision == "f32" else np.float64


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
        if not math.isfinite(self.loss):
            raise ConfigError("loss must be finite")

    def to_row(self):
        return ",".join(format(getattr(self, f.name), _COLUMNS[f.type][1])
                        for f in fields(self))

    @classmethod
    def from_row(cls, row):
        parts = row.strip().split(",")
        if len(parts) != len(CSV_HEADER):
            raise ConfigError(f"bad metrics row: {row!r}")
        try:
            return cls(**{f.name: _COLUMNS[f.type][0](p) for f, p in zip(fields(cls), parts)})
        except ValueError:  # a field that does not parse as its type
            raise ConfigError(f"bad metrics row: {row!r}") from None


CSV_HEADER = tuple(f.name for f in fields(MetricRecord))


def write_metrics(records, path):
    """Append records, creating the header only for a new/empty file."""
    with open(path, "a") as fh:
        if fh.tell() == 0:
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
