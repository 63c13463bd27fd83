"""Synthetic mechanistic probing tasks.

Nine generators covering associative memory (MQAR, poly-recall, variable
tracking), local non-linear logic (XOR, parity, modulo addition,
palindrome), and gating control (silence gate, MUX). The vocabulary is
partitioned into disjoint noise / data / control ranges so payload tokens
can never be confused with background noise, and every sample is solvable
with accuracy exactly 1.0 by the rule-based oracle in ``tests/oracles.py``.

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
from dataclasses import dataclass, replace

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
    if v < 32:
        raise ConfigError(f"vocabulary too small: {v} < 32")
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
        name = name.strip().lower().replace("-", "_")
        for kind in cls:
            if kind.value == name:
                return kind
        raise ConfigError(f"unknown task kind: {name!r}")


@dataclass
class TaskConfig:
    n: int = 128
    v: int = 64
    seed: int = 0

    def __post_init__(self):
        check_int("TaskConfig.n", self.n, 8)
        check_int("TaskConfig.v", self.v, 1)
        vocab_partition(self.v)  # raises ConfigError for a vocabulary too small

    def layout(self):
        return vocab_partition(self.v)


@dataclass
class TaskSample:
    tokens: np.ndarray            # (N,) int
    query_positions: np.ndarray   # strictly increasing, within [0, N)
    targets: np.ndarray           # aligned with query_positions


def queries_per_sample(kind: TaskKind) -> int:
    return KV_PAIRS if kind is TaskKind.MQAR else 1


# Sizes of the contiguous payload groups each generator places, in order.
_GROUP_SIZES = {
    TaskKind.MQAR: [2] * (2 * KV_PAIRS),
    TaskKind.POLY_RECALL: [3, 3, 3],
    TaskKind.VAR_TRACKING: [2] * (CHAIN_LEN + 1),
    TaskKind.LOCAL_XOR: [3],
    TaskKind.PARITY: [PARITY_BITS + 1],
    TaskKind.MODULO_ADD: [3],
    TaskKind.PALINDROME: [4],
    TaskKind.SILENCE_GATE: [3, 2],
    TaskKind.MUX: [4],
}


def min_length(kind: TaskKind) -> int:
    """Shortest N that holds the task's payload groups with one gap token
    between consecutive groups."""
    sizes = _GROUP_SIZES[kind]
    return sum(sizes) + len(sizes) - 1


# --------------------------------------------------------------------------
# placement
# --------------------------------------------------------------------------

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
    cuts = np.sort(rng.choice(free + m, size=m, replace=False))
    slacks = np.diff(np.concatenate([[-1], cuts])) - 1
    starts = []
    pos = 0
    for i in range(m):
        pos += slacks[i]
        starts.append(pos)
        pos += sizes[i] + 1
    return starts


def _base_sequence(cfg, rng_noise, layout):
    lo, hi = layout.noise.start, layout.noise.stop
    return rng_noise.integers(lo, hi, size=cfg.n).astype(np.int64)


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


def _rngs(cfg, task_id, index=0):
    payload = np.random.default_rng(seed_list(cfg.seed) + [task_id, index, 0x5EED])
    noise = np.random.default_rng(seed_list(cfg.seed) + [task_id, index, 0x4015E])
    return payload, noise


def _write(tokens, start, group):
    tokens[start:start + len(group)] = group


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def gen_mqar(cfg: TaskConfig, index=0) -> TaskSample:
    """K key-value pairs at random positions; each key is re-queried."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 1, index)
    tokens = _base_sequence(cfg, noise, layout)
    k = KV_PAIRS
    keys = payload.choice(np.asarray(layout.data), size=k, replace=False)
    vals = payload.choice(np.asarray(layout.data), size=k, replace=True)
    stmt_order = payload.permutation(k)
    query_order = payload.permutation(k)
    starts = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.MQAR])
    for slot, pair in enumerate(stmt_order):
        _write(tokens, starts[slot], [keys[pair], vals[pair]])
    qpos, tgt = [], []
    for slot, pair in enumerate(query_order):
        s = starts[k + slot]
        _write(tokens, s, [layout.token("QUERY"), keys[pair]])
        qpos.append(s + 1)
        tgt.append(vals[pair])
    return TaskSample(tokens, np.asarray(qpos), np.asarray(tgt))


def gen_poly_recall(cfg: TaskConfig, index=0) -> TaskSample:
    """One key mapped to different values under two context markers."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 2, index)
    tokens = _base_sequence(cfg, noise, layout)
    key = payload.choice(np.asarray(layout.data))
    v1, v2 = payload.choice(np.asarray(layout.data), size=2, replace=False)
    ctx = [layout.token("CTX_A"), layout.token("CTX_B")]
    stmt_order = payload.permutation(2)
    starts = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.POLY_RECALL])
    values = [v1, v2]
    for slot, which in enumerate(stmt_order):
        _write(tokens, starts[slot], [ctx[which], key, values[which]])
    pick = int(payload.integers(0, 2))
    s = starts[2]
    _write(tokens, s, [layout.token("QUERY"), ctx[pick], key])
    return TaskSample(tokens, np.asarray([s + 2]), np.asarray([values[pick]]))


def gen_var_tracking(cfg: TaskConfig, index=0) -> TaskSample:
    """Assignment chain a=val, b=a, c=b placed in causal order; query c."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 3, index)
    tokens = _base_sequence(cfg, noise, layout)
    m = CHAIN_LEN
    picks = payload.choice(np.asarray(layout.data), size=m + 1, replace=False)
    chain, value = picks[:m], picks[m]
    starts = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.VAR_TRACKING])
    _write(tokens, starts[0], [chain[0], value])
    for i in range(1, m):
        _write(tokens, starts[i], [chain[i], chain[i - 1]])
    s = starts[m]
    _write(tokens, s, [layout.token("QUERY"), chain[m - 1]])
    return TaskSample(tokens, np.asarray([s + 1]), np.asarray([value]))


def _bit_token(layout, bit):
    return layout.data.start + int(bit)


def gen_local_xor(cfg: TaskConfig, index=0) -> TaskSample:
    """[a, b, TOK_XOR]; label 1 iff parities of a and b differ."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 4, index)
    tokens = _base_sequence(cfg, noise, layout)
    a, b = payload.choice(np.asarray(layout.data), size=2, replace=True)
    (s,) = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.LOCAL_XOR])
    _write(tokens, s, [a, b, layout.token("TOK_XOR")])
    label = int((a % 2) != (b % 2))
    return TaskSample(tokens, np.asarray([s + 2]),
                      np.asarray([_bit_token(layout, label)]))


def gen_parity(cfg: TaskConfig, index=0) -> TaskSample:
    """Contiguous n-bit block; label is the bit-sum parity."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 5, index)
    tokens = _base_sequence(cfg, noise, layout)
    bits = payload.integers(0, 2, size=PARITY_BITS)
    (s,) = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.PARITY])
    group = [_bit_token(layout, b) for b in bits] + [layout.token("QUERY")]
    _write(tokens, s, group)
    label = int(bits.sum() % 2)
    return TaskSample(tokens, np.asarray([s + PARITY_BITS]),
                      np.asarray([_bit_token(layout, label)]))


def gen_modulo_add(cfg: TaskConfig, index=0) -> TaskSample:
    """[a, b]; label (a + b) mod M, all encoded in the data range."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 6, index)
    tokens = _base_sequence(cfg, noise, layout)
    m = MODULUS
    a, b = payload.integers(0, m, size=2)
    (s,) = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.MODULO_ADD])
    _write(tokens, s, [layout.data.start + a, layout.data.start + b,
                       layout.token("QUERY")])
    return TaskSample(tokens, np.asarray([s + 2]),
                      np.asarray([layout.data.start + int((a + b) % m)]))


def gen_palindrome(cfg: TaskConfig, index=0) -> TaskSample:
    """[a, b, c]; label 1 iff a == c. Labels are balanced by construction."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 7, index)
    tokens = _base_sequence(cfg, noise, layout)
    data = np.asarray(layout.data)
    a, b = payload.choice(data, size=2, replace=True)
    same = bool(payload.integers(0, 2))
    if same:
        c = a
    else:
        c = payload.choice(data[data != a])
    (s,) = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.PALINDROME])
    _write(tokens, s, [a, b, c, layout.token("QUERY")])
    return TaskSample(tokens, np.asarray([s + 3]),
                      np.asarray([_bit_token(layout, int(a == c))]))


def gen_silence_gate(cfg: TaskConfig, index=0) -> TaskSample:
    """[T, k, v] with trigger ON/OFF; query k answers v or NULL."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 8, index)
    tokens = _base_sequence(cfg, noise, layout)
    on = bool(payload.integers(0, 2))
    trig = layout.token("ON") if on else layout.token("OFF")
    key, val = payload.choice(np.asarray(layout.data), size=2, replace=False)
    starts = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.SILENCE_GATE])
    _write(tokens, starts[0], [trig, key, val])
    s = starts[1]
    _write(tokens, s, [layout.token("QUERY"), key])
    target = val if on else layout.token("NULL")
    return TaskSample(tokens, np.asarray([s + 1]), np.asarray([target]))


def gen_mux(cfg: TaskConfig, index=0) -> TaskSample:
    """[S, ch0, ch1]; the selector picks which channel is the answer."""
    layout = cfg.layout()
    payload, noise = _rngs(cfg, 9, index)
    tokens = _base_sequence(cfg, noise, layout)
    sel = int(payload.integers(0, 2))
    ch = payload.choice(np.asarray(layout.data), size=2, replace=True)
    (s,) = _place_groups(payload, cfg.n, _GROUP_SIZES[TaskKind.MUX])
    sel_tok = layout.token("SEL1") if sel else layout.token("SEL0")
    _write(tokens, s, [sel_tok, ch[0], ch[1], layout.token("QUERY")])
    return TaskSample(tokens, np.asarray([s + 3]), np.asarray([ch[sel]]))


_GENERATORS = {
    TaskKind.MQAR: gen_mqar,
    TaskKind.POLY_RECALL: gen_poly_recall,
    TaskKind.VAR_TRACKING: gen_var_tracking,
    TaskKind.LOCAL_XOR: gen_local_xor,
    TaskKind.PARITY: gen_parity,
    TaskKind.MODULO_ADD: gen_modulo_add,
    TaskKind.PALINDROME: gen_palindrome,
    TaskKind.SILENCE_GATE: gen_silence_gate,
    TaskKind.MUX: gen_mux,
}


def generate_sample(kind: TaskKind, cfg: TaskConfig, index=0) -> TaskSample:
    return _GENERATORS[kind](cfg, index=index)


def generate_batch(kind: TaskKind, cfg: TaskConfig, batch: int, seed: int):
    """Deterministic batch: pure function of (kind, cfg, batch, seed).

    Returns (tokens (B, N), query_positions (B, Q), targets (B, Q)).
    Raises ConfigError unless ``batch`` is an int >= 0.
    """
    check_int("batch", batch, 0)
    cfg = replace(cfg, seed=seed)
    q = queries_per_sample(kind)
    tokens = np.empty((batch, cfg.n), dtype=np.int64)
    qpos = np.empty((batch, q), dtype=np.int64)
    tgt = np.empty((batch, q), dtype=np.int64)
    for i in range(batch):
        s = generate_sample(kind, cfg, index=i)
        tokens[i] = s.tokens
        qpos[i] = s.query_positions
        tgt[i] = s.targets
    return tokens, qpos, tgt
