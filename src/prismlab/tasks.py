"""Synthetic mechanistic probing tasks.

Nine tasks covering associative memory (MQAR, poly-recall, variable
tracking), local non-linear logic (XOR, parity, modulo addition,
palindrome), and gating control (silence gate, MUX). The vocabulary is
partitioned into disjoint noise / data / control ranges so payload tokens
can never be confused with background noise, and every sample is solvable
with accuracy exactly 1.0 by the rule-based oracle in ``tests/oracles.py``.

One table, ``_TASKS``, maps each ``TaskKind`` to its seed stream id (1..9),
the sizes of its payload groups and its payload rule
``fill(rng, layout, tokens, place) -> (query_positions, targets)``: the rule
makes its draws, calls ``place()`` for the group starts and writes its
groups over ``tokens``. ``generate_sample`` does the shared work once.
Sample ``index`` under ``seed`` draws its payload from the generator seeded
``seed_list(seed) + [stream, index, 0x5EED]`` and its noise background from
``... 0x4015E``, so it is a pure function of (kind, cfg, seed, index).

Layout conventions:
  * payload tokens form contiguous groups separated by at least one noise
    token, so parsing is unambiguous;
  * a query-marker control token precedes each query occurrence; the
    prediction is read at the last token of the query group;
  * logic-task operands sit immediately before their query cue, inside
    the receptive field of a width-4 convolution;
  * binary labels and arithmetic results are encoded as the first tokens
    of the data range.
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .config import check_int, is_a
from .errors import ConfigError, DataError

NAMED_TOKENS = ("QUERY", "TOK_XOR", "ON", "OFF", "NULL",
                "SEL0", "SEL1", "CTX_A", "CTX_B")

KV_PAIRS = 4      # MQAR key-value pairs, each queried once
CHAIN_LEN = 3     # variable-tracking assignments
MODULUS = 10      # modulo addition
PARITY_BITS = 3   # parity block length


@dataclass(frozen=True)
class VocabLayout:
    v: int
    noise: range
    data: range
    control: range
    named: dict

    def token(self, name):
        return self.named[name]


@functools.lru_cache(maxsize=None)
def vocab_partition(v):
    """Split the vocabulary into disjoint noise / data / control ranges.

    The split is a pure function of V: data takes V//2 tokens, control
    takes the larger of V - V//4 - V//2 and the named-token count, noise
    takes the rest. For V=64 this is [0,16) noise, [16,48) data, [48,64)
    control.
    """
    v = check_int("vocabulary", v, 32)
    data_n = v // 2
    control_n = max(v - v // 4 - data_n, len(NAMED_TOKENS))
    noise_n = v - data_n - control_n
    if noise_n < 1:
        raise ConfigError(f"vocabulary {v} cannot host {len(NAMED_TOKENS)} control tokens")
    noise = range(0, noise_n)
    data = range(noise_n, noise_n + data_n)
    control = range(noise_n + data_n, v)
    named = {name: control[i] for i, name in enumerate(NAMED_TOKENS)}
    return VocabLayout(v=v, noise=noise, data=data, control=control, named=named)


class TaskKind(enum.Enum):
    MQAR = "mqar"
    POLY_RECALL = "poly_recall"
    VAR_TRACKING = "var_tracking"
    LOCAL_XOR = "local_xor"
    PARITY = "parity"
    MODULO_ADD = "modulo_add"
    PALINDROME = "palindrome"
    SILENCE_GATE = "silence_gate"
    MUX = "mux"

    @classmethod
    def parse(cls, name):
        try:
            return cls(name.strip().lower().replace("-", "_"))
        except (AttributeError, ValueError):  # not a string, or no such task
            raise ConfigError(f"unknown task kind: {name!r}") from None


@dataclass
class TaskConfig:
    n: int = 128
    v: int = 64

    def __post_init__(self):
        check_int("TaskConfig.n", self.n, 8)
        vocab_partition(self.v)  # raises ConfigError for a bad vocabulary

    def layout(self):
        return vocab_partition(self.v)


@dataclass
class TaskSample:
    tokens: np.ndarray            # (N,) int
    query_positions: np.ndarray   # strictly increasing, within [0, N)
    targets: np.ndarray           # aligned with query_positions


def _place_groups(rng, n, sizes):
    """Uniformly random non-overlapping starts for ordered groups.

    Consecutive groups keep at least one gap token between them, so
    contiguous payload groups can never merge. Raises DataError when the
    payload cannot fit.
    """
    m = len(sizes)
    need = sum(sizes) + (m - 1)
    free = n - need
    if free < 0:
        raise DataError(f"payload of {need} tokens does not fit in N={n}")
    # cuts[i] is the number of free tokens before group i plus its i
    # earlier gaps, so group i starts at cuts[i] plus the earlier sizes.
    cuts = np.sort(rng.choice(free + m, size=m, replace=False))
    return cuts + np.cumsum((0,) + tuple(sizes[:-1]))


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


def _write(tokens, start, group):
    tokens[start:start + len(group)] = group


def _bit_token(layout, bit):
    return layout.data.start + int(bit)


# One payload rule per task: fill(rng, layout, tokens, place) -> (query_positions, targets).

def _mqar(rng, layout, tokens, place):
    """K key-value pairs at random positions; each key is re-queried."""
    k, data = KV_PAIRS, np.asarray(layout.data)
    keys = rng.choice(data, size=k, replace=False)
    vals = rng.choice(data, size=k, replace=True)
    stmt_order = rng.permutation(k)
    query_order = rng.permutation(k)
    starts = place()
    for slot, pair in enumerate(stmt_order):
        _write(tokens, starts[slot], [keys[pair], vals[pair]])
    for slot, pair in enumerate(query_order):
        _write(tokens, starts[k + slot], [layout.token("QUERY"), keys[pair]])
    return [s + 1 for s in starts[k:]], vals[query_order]


def _poly_recall(rng, layout, tokens, place):
    """One key mapped to different values under two context markers."""
    data = np.asarray(layout.data)
    key = rng.choice(data)
    values = rng.choice(data, size=2, replace=False)
    ctx = [layout.token("CTX_A"), layout.token("CTX_B")]
    stmt_order = rng.permutation(2)
    starts = place()
    for slot, which in enumerate(stmt_order):
        _write(tokens, starts[slot], [ctx[which], key, values[which]])
    pick = int(rng.integers(0, 2))
    s = starts[2]
    _write(tokens, s, [layout.token("QUERY"), ctx[pick], key])
    return [s + 2], [values[pick]]


def _var_tracking(rng, layout, tokens, place):
    """Assignment chain a=val, b=a, c=b placed in causal order; query c."""
    m = CHAIN_LEN
    picks = rng.choice(np.asarray(layout.data), size=m + 1, replace=False)
    chain, value = picks[:m], picks[m]
    starts = place()
    _write(tokens, starts[0], [chain[0], value])
    for i in range(1, m):
        _write(tokens, starts[i], [chain[i], chain[i - 1]])
    s = starts[m]
    _write(tokens, s, [layout.token("QUERY"), chain[m - 1]])
    return [s + 1], [value]


def _local_xor(rng, layout, tokens, place):
    """[a, b, TOK_XOR]; label 1 iff parities of a and b differ."""
    a, b = rng.choice(np.asarray(layout.data), size=2, replace=True)
    (s,) = place()
    _write(tokens, s, [a, b, layout.token("TOK_XOR")])
    return [s + 2], [_bit_token(layout, (a % 2) != (b % 2))]


def _parity(rng, layout, tokens, place):
    """Contiguous n-bit block; label is the bit-sum parity."""
    bits = rng.integers(0, 2, size=PARITY_BITS)
    (s,) = place()
    _write(tokens, s, [_bit_token(layout, b) for b in bits] + [layout.token("QUERY")])
    return [s + PARITY_BITS], [_bit_token(layout, bits.sum() % 2)]


def _modulo_add(rng, layout, tokens, place):
    """[a, b]; label (a + b) mod M, all encoded in the data range."""
    a, b = rng.integers(0, MODULUS, size=2)
    (s,) = place()
    _write(tokens, s, [layout.data.start + a, layout.data.start + b,
                       layout.token("QUERY")])
    return [s + 2], [layout.data.start + int((a + b) % MODULUS)]


def _palindrome(rng, layout, tokens, place):
    """[a, b, c]; label 1 iff a == c. Labels are balanced by construction."""
    data = np.asarray(layout.data)
    a, b = rng.choice(data, size=2, replace=True)
    c = a if rng.integers(0, 2) else rng.choice(data[data != a])
    (s,) = place()
    _write(tokens, s, [a, b, c, layout.token("QUERY")])
    return [s + 3], [_bit_token(layout, a == c)]


def _silence_gate(rng, layout, tokens, place):
    """[T, k, v] with trigger ON/OFF; query k answers v or NULL."""
    on = bool(rng.integers(0, 2))
    trig = layout.token("ON") if on else layout.token("OFF")
    key, val = rng.choice(np.asarray(layout.data), size=2, replace=False)
    starts = place()
    _write(tokens, starts[0], [trig, key, val])
    s = starts[1]
    _write(tokens, s, [layout.token("QUERY"), key])
    return [s + 1], [val if on else layout.token("NULL")]


def _mux(rng, layout, tokens, place):
    """[S, ch0, ch1]; the selector picks which channel is the answer."""
    sel = int(rng.integers(0, 2))
    ch = rng.choice(np.asarray(layout.data), size=2, replace=True)
    (s,) = place()
    sel_tok = layout.token("SEL1") if sel else layout.token("SEL0")
    _write(tokens, s, [sel_tok, ch[0], ch[1], layout.token("QUERY")])
    return [s + 3], [ch[sel]]


# kind -> (seed stream id, sizes of the payload groups in placement order, rule)
_TASKS = {
    TaskKind.MQAR: (1, (2,) * (2 * KV_PAIRS), _mqar),
    TaskKind.POLY_RECALL: (2, (3, 3, 3), _poly_recall),
    TaskKind.VAR_TRACKING: (3, (2,) * (CHAIN_LEN + 1), _var_tracking),
    TaskKind.LOCAL_XOR: (4, (3,), _local_xor),
    TaskKind.PARITY: (5, (PARITY_BITS + 1,), _parity),
    TaskKind.MODULO_ADD: (6, (3,), _modulo_add),
    TaskKind.PALINDROME: (7, (4,), _palindrome),
    TaskKind.SILENCE_GATE: (8, (3, 2), _silence_gate),
    TaskKind.MUX: (9, (4,), _mux),
}


def _task(kind):
    """The table row of ``kind``; ConfigError unless it is a TaskKind."""
    try:
        return _TASKS[kind]
    except (KeyError, TypeError):
        raise ConfigError(f"task kind must be a TaskKind, got {kind!r}") from None


def queries_per_sample(kind: TaskKind) -> int:
    _task(kind)
    return KV_PAIRS if kind is TaskKind.MQAR else 1


def min_length(kind: TaskKind) -> int:
    """Shortest N that holds the task's payload groups with one gap token
    between consecutive groups."""
    _, sizes, _ = _task(kind)
    return sum(sizes) + len(sizes) - 1


def generate_sample(kind: TaskKind, cfg: TaskConfig, seed, index=0) -> TaskSample:
    """Sample ``index`` of ``kind`` under ``seed`` (an int, or a list of
    ints), drawn from the two seed streams of the module docstring."""
    stream, sizes, fill = _task(kind)
    base = seed_list(seed) + [stream, index]
    payload = np.random.default_rng(base + [0x5EED])
    noise = np.random.default_rng(base + [0x4015E])
    layout = cfg.layout()
    tokens = noise.integers(layout.noise.start, layout.noise.stop, size=cfg.n)
    qpos, tgt = fill(payload, layout, tokens,
                     lambda: _place_groups(payload, cfg.n, sizes))
    return TaskSample(tokens, np.asarray(qpos), np.asarray(tgt))


def generate_batch(kind: TaskKind, cfg: TaskConfig, batch: int, seed: int):
    """Deterministic batch whose row i is ``generate_sample(kind, cfg,
    seed, index=i)``.

    Returns (tokens (B, N), query_positions (B, Q), targets (B, Q)).
    Raises ConfigError unless ``batch`` is an int >= 0.
    """
    check_int("batch", batch, 0)
    seed = seed_list(seed)
    q = queries_per_sample(kind)
    tokens = np.empty((batch, cfg.n), dtype=np.int64)
    qpos = np.empty((batch, q), dtype=np.int64)
    tgt = np.empty((batch, q), dtype=np.int64)
    for i in range(batch):
        s = generate_sample(kind, cfg, seed, index=i)
        tokens[i] = s.tokens
        qpos[i] = s.query_positions
        tgt[i] = s.targets
    return tokens, qpos, tgt
