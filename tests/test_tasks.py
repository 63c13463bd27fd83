"""Probe task generators: oracle solvability, vocabulary separation,
balance, determinism, serialization."""

import numpy as np
import pytest

from prismlab.errors import ConfigError, DataError
from prismlab.tasks import (TaskConfig, TaskKind, TaskSample, generate_batch,
                            generate_sample, queries_per_sample,
                            sample_from_line, sample_to_line, task_oracle,
                            vocab_partition)

ALL_KINDS = list(TaskKind)


def cfg64(**kw):
    return TaskConfig(n=128, v=64, **kw)


# ---------------------------------------------------------------- vocab

def test_vocab_partition_v64_ranges():
    lay = vocab_partition(64)
    assert lay.noise == range(0, 16)
    assert lay.data == range(16, 48)
    assert lay.control == range(48, 64)


def test_vocab_partition_disjoint_cover():
    for v in (36, 48, 64, 128):
        lay = vocab_partition(v)
        ids = list(lay.noise) + list(lay.data) + list(lay.control)
        assert len(ids) == len(set(ids)) <= v
        for tok in lay.named.values():
            assert tok in lay.control


def test_vocab_partition_deterministic():
    a = vocab_partition(64)
    b = vocab_partition(64)
    assert a == b


def test_vocab_partition_too_small():
    with pytest.raises(ConfigError):
        vocab_partition(16)


# ---------------------------------------------------------------- paper examples

def _lay():
    return vocab_partition(64)


def test_example_mqar_pair_retrieval():
    # k -> v then re-presenting k yields v.
    lay = _lay()
    toks = np.zeros(32, dtype=np.int64)
    k, v = 21, 25  # stand-ins for k=5, v=9 in the data range
    toks[4], toks[5] = k, v
    toks[20], toks[21] = lay.token("QUERY"), k
    s = TaskSample(toks, np.asarray([21]), np.asarray([v]))
    assert task_oracle(TaskKind.MQAR, s, cfg64())[0] == v


def test_example_poly_recall_contextual():
    lay = _lay()
    toks = np.zeros(40, dtype=np.int64)
    key, v1, v2 = 20, 30, 31
    toks[3:6] = [lay.token("CTX_A"), key, v1]
    toks[10:13] = [lay.token("CTX_B"), key, v2]
    toks[20:23] = [lay.token("QUERY"), lay.token("CTX_A"), key]
    s = TaskSample(toks, np.asarray([22]), np.asarray([v1]))
    assert task_oracle(TaskKind.POLY_RECALL, s, cfg64())[0] == v1


def test_example_var_tracking_chain():
    lay = _lay()
    toks = np.zeros(40, dtype=np.int64)
    a, b, c, val = 20, 21, 22, 39
    toks[2:4] = [a, val]   # a = 7
    toks[10:12] = [b, a]   # b = a
    toks[20:22] = [c, b]   # c = b
    toks[30:32] = [lay.token("QUERY"), c]
    s = TaskSample(toks, np.asarray([31]), np.asarray([val]))
    assert task_oracle(TaskKind.VAR_TRACKING, s, cfg64())[0] == val


def test_example_local_xor_odd_even():
    # odd(5) != even(8) -> 1. Data tokens keep the integer parity.
    lay = _lay()
    toks = np.zeros(16, dtype=np.int64)
    a, b = 21, 24  # odd, even ids
    toks[5:8] = [a, b, lay.token("TOK_XOR")]
    s = TaskSample(toks, np.asarray([7]), np.asarray([lay.data.start + 1]))
    assert task_oracle(TaskKind.LOCAL_XOR, s, cfg64())[0] == lay.data.start + 1


def test_example_parity_three_ones():
    lay = _lay()
    one = lay.data.start + 1
    toks = np.zeros(16, dtype=np.int64)
    toks[4:8] = [one, one, one, lay.token("QUERY")]
    s = TaskSample(toks, np.asarray([7]), np.asarray([one]))
    assert task_oracle(TaskKind.PARITY, s, cfg64())[0] == one  # 1+1+1 odd


def test_example_modulo_add_wraps():
    lay = _lay()
    toks = np.zeros(16, dtype=np.int64)
    toks[3:6] = [lay.data.start + 8, lay.data.start + 4, lay.token("QUERY")]
    s = TaskSample(toks, np.asarray([5]), np.asarray([lay.data.start + 2]))
    got = task_oracle(TaskKind.MODULO_ADD, s, cfg64(modulus=10))
    assert got[0] == lay.data.start + 2  # (8+4) mod 10


def test_example_palindrome_match():
    lay = _lay()
    toks = np.zeros(16, dtype=np.int64)
    toks[2:6] = [20, 25, 20, lay.token("QUERY")]
    s = TaskSample(toks, np.asarray([5]), np.asarray([lay.data.start + 1]))
    assert task_oracle(TaskKind.PALINDROME, s, cfg64())[0] == lay.data.start + 1


def test_example_silence_gate_off_is_null():
    lay = _lay()
    toks = np.zeros(24, dtype=np.int64)
    k, v = 20, 30
    toks[2:5] = [lay.token("OFF"), k, v]
    toks[10:12] = [lay.token("QUERY"), k]
    s = TaskSample(toks, np.asarray([11]), np.asarray([lay.token("NULL")]))
    assert task_oracle(TaskKind.SILENCE_GATE, s, cfg64())[0] == lay.token("NULL")


def test_example_mux_picks_channel_one():
    lay = _lay()
    toks = np.zeros(16, dtype=np.int64)
    ch0, ch1 = 19, 24
    toks[4:8] = [lay.token("SEL1"), ch0, ch1, lay.token("QUERY")]
    s = TaskSample(toks, np.asarray([7]), np.asarray([ch1]))
    assert task_oracle(TaskKind.MUX, s, cfg64())[0] == ch1


# ---------------------------------------------------------------- solvability

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_accuracy_exactly_one(kind):
    cfg = cfg64()
    for i in range(200):
        s = generate_sample(kind, cfg, index=i)
        got = task_oracle(kind, s, cfg)
        np.testing.assert_array_equal(got, s.targets, err_msg=f"{kind} sample {i}")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sample_structure(kind):
    cfg = cfg64()
    lay = cfg.layout()
    for i in range(50):
        s = generate_sample(kind, cfg, index=i)
        assert s.tokens.shape == (cfg.n,)
        assert np.all((s.tokens >= 0) & (s.tokens < cfg.v))
        qp = s.query_positions
        assert np.all(np.diff(qp) > 0) if len(qp) > 1 else True
        assert np.all((qp >= 0) & (qp < cfg.n))
        assert np.all(s.targets < cfg.v)
        assert len(qp) == queries_per_sample(kind, cfg)
        # payload token at each query position is never noise
        for p in qp:
            assert int(s.tokens[p]) not in lay.noise


@pytest.mark.parametrize("kind", [TaskKind.LOCAL_XOR, TaskKind.PARITY,
                                  TaskKind.MODULO_ADD, TaskKind.PALINDROME,
                                  TaskKind.MUX])
def test_logic_operands_contiguous(kind):
    # Operands sit immediately before the query cue, inside a width-4 window.
    cfg = cfg64()
    lay = cfg.layout()
    span = {TaskKind.LOCAL_XOR: 3, TaskKind.PARITY: cfg.bits + 1,
            TaskKind.MODULO_ADD: 3, TaskKind.PALINDROME: 4, TaskKind.MUX: 4}[kind]
    for i in range(50):
        s = generate_sample(kind, cfg, index=i)
        p = int(s.query_positions[0])
        window = s.tokens[p - span + 1: p + 1]
        assert all(int(t) not in lay.noise for t in window)


def test_binary_label_balance():
    # Module invariant: binary label frequency within 45..55% over 10k samples.
    cfg = cfg64()
    for kind in (TaskKind.PARITY, TaskKind.LOCAL_XOR, TaskKind.PALINDROME):
        lay = cfg.layout()
        ones = 0
        n = 10_000
        for i in range(n):
            s = generate_sample(kind, cfg, index=i)
            ones += int(s.targets[0]) == lay.data.start + 1
        assert 0.45 <= ones / n <= 0.55, kind


def test_silence_gate_trigger_balance():
    cfg = cfg64()
    lay = cfg.layout()
    nulls = sum(int(generate_sample(TaskKind.SILENCE_GATE, cfg, index=i)
                    .targets[0]) == lay.token("NULL") for i in range(2000))
    assert 0.45 <= nulls / 2000 <= 0.55


# ---------------------------------------------------------------- batches

def test_generate_batch_deterministic():
    cfg = cfg64()
    a = generate_batch(TaskKind.MQAR, cfg, 8, seed=42)
    b = generate_batch(TaskKind.MQAR, cfg, 8, seed=42)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = generate_batch(TaskKind.MQAR, cfg, 8, seed=43)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_generate_batch_shapes():
    cfg = cfg64()
    tokens, qpos, tgt = generate_batch(TaskKind.MQAR, cfg, 5, seed=0)
    assert tokens.shape == (5, 128)
    assert qpos.shape == (5, cfg.kv_pairs)
    assert tgt.shape == (5, cfg.kv_pairs)


def test_noise_seed_changes_only_noise():
    cfg_a = cfg64(seed=7, noise_seed=100)
    cfg_b = cfg64(seed=7, noise_seed=200)
    sa = generate_sample(TaskKind.MQAR, cfg_a, index=0)
    sb = generate_sample(TaskKind.MQAR, cfg_b, index=0)
    np.testing.assert_array_equal(sa.query_positions, sb.query_positions)
    np.testing.assert_array_equal(sa.targets, sb.targets)
    lay = cfg_a.layout()
    payload_a = [(i, t) for i, t in enumerate(sa.tokens) if int(t) not in lay.noise]
    payload_b = [(i, t) for i, t in enumerate(sb.tokens) if int(t) not in lay.noise]
    assert payload_a == payload_b
    assert not np.array_equal(sa.tokens, sb.tokens)


def test_payload_overflow_raises():
    with pytest.raises(DataError):
        generate_sample(TaskKind.MQAR, TaskConfig(n=12, v=64, kv_pairs=8))


# ---------------------------------------------------------------- serialization

def test_sample_line_round_trip():
    cfg = cfg64()
    for kind in ALL_KINDS:
        s = generate_sample(kind, cfg, index=3)
        s2 = sample_from_line(sample_to_line(s))
        np.testing.assert_array_equal(s.tokens, s2.tokens)
        np.testing.assert_array_equal(s.query_positions, s2.query_positions)
        np.testing.assert_array_equal(s.targets, s2.targets)


def test_sample_line_rejects_garbage():
    with pytest.raises(DataError):
        sample_from_line("1 2 3 | 0")


def test_task_kind_parse():
    assert TaskKind.parse("local-xor") is TaskKind.LOCAL_XOR
    with pytest.raises(ConfigError):
        TaskKind.parse("nope")
