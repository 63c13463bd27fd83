"""Probe task generators: oracle solvability, vocabulary separation,
balance, determinism."""

import hashlib

import numpy as np
import pytest

from oracles import task_oracle
from prismlab import train
from prismlab.errors import ConfigError, DataError
from prismlab.models import ModelKind, build_model
from prismlab.tasks import (KV_PAIRS, PARITY_BITS, TaskConfig, TaskKind, TaskSample,
                            generate_batch, generate_sample, min_length,
                            queries_per_sample, vocab_partition)

ALL_KINDS = list(TaskKind)


def cfg64():
    return TaskConfig(n=128, v=64)


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


@pytest.mark.parametrize("v", [64.0, "64"], ids=["float", "str"])
def test_vocab_partition_non_integer_raises_config_error(v):
    with pytest.raises(ConfigError, match="vocabulary must be an int"):
        vocab_partition(v)


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
    got = task_oracle(TaskKind.MODULO_ADD, s, cfg64())
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
        s = generate_sample(kind, cfg, 0, index=i)
        got = task_oracle(kind, s, cfg)
        np.testing.assert_array_equal(got, s.targets, err_msg=f"{kind} sample {i}")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sample_structure(kind):
    cfg = cfg64()
    lay = cfg.layout()
    for i in range(50):
        s = generate_sample(kind, cfg, 0, index=i)
        assert s.tokens.shape == (cfg.n,)
        assert np.all((s.tokens >= 0) & (s.tokens < cfg.v))
        qp = s.query_positions
        assert np.all(np.diff(qp) > 0) if len(qp) > 1 else True
        assert np.all((qp >= 0) & (qp < cfg.n))
        assert np.all(s.targets < cfg.v)
        assert len(qp) == queries_per_sample(kind)
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
    span = {TaskKind.LOCAL_XOR: 3, TaskKind.PARITY: PARITY_BITS + 1,
            TaskKind.MODULO_ADD: 3, TaskKind.PALINDROME: 4, TaskKind.MUX: 4}[kind]
    for i in range(50):
        s = generate_sample(kind, cfg, 0, index=i)
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
            s = generate_sample(kind, cfg, 0, index=i)
            ones += int(s.targets[0]) == lay.data.start + 1
        assert 0.45 <= ones / n <= 0.55, kind


def test_silence_gate_trigger_balance():
    cfg = cfg64()
    lay = cfg.layout()
    nulls = sum(int(generate_sample(TaskKind.SILENCE_GATE, cfg, 0, index=i)
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


# sha256 of the int64 bytes of (tokens, query_positions, targets) of
# generate_batch(kind, TaskConfig(n=64), 4, seed=[1, 2]).
PINNED_DIGESTS = {
    "mqar": "9066c19eba42383f3aafc215152a21d0c96939d3da529bc27b31c919e81c0378",
    "poly_recall": "556d3c5bd40dbf4c03f3c758e70554ff39bfb6ac0126d5045fb7698618aaf419",
    "var_tracking": "e37cd49b0cf90dd36683164ea253d10108040ba1ae69790fc2c39bf99a44e627",
    "local_xor": "924b81f3349f54b0befcb6e5dc8457461ee2758b94e5375990222651370a405b",
    "parity": "2d60ac6e0d1e66b5e3660fb1851fc4c62be9c4d6871d454dbf2c05be5e2a1f38",
    "modulo_add": "cc29629de93327807992943c4d3086bef369faea89a07e46c678b7346f89526a",
    "palindrome": "6dbf84336f1b57f439bb3d2480ce70102f1297afd8f3819a2be60f25edc08613",
    "silence_gate": "44d5272adc90817b4d5bd237b343cae498d9b077df2bd20efecdfdcda011f5c4",
    "mux": "705f9d09604949ca84963116be68f85a13951665aedd977217059c360369049a",
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_batches_match_pinned_digests(kind):
    """Every task's batches stay bit-identical: the seed streams, the order
    of the draws and the layout rules are all pinned. A numpy upgrade that
    changes the streams of ``np.random.Generator`` also trips this test;
    then the data, and every result trained on it, has changed too."""
    h = hashlib.sha256()
    for a in generate_batch(kind, TaskConfig(n=64), 4, seed=[1, 2]):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    assert h.hexdigest() == PINNED_DIGESTS[kind.value]


def test_generate_batch_shapes():
    cfg = cfg64()
    tokens, qpos, tgt = generate_batch(TaskKind.MQAR, cfg, 5, seed=0)
    assert tokens.shape == (5, 128)
    assert qpos.shape == (5, KV_PAIRS)
    assert tgt.shape == (5, KV_PAIRS)


@pytest.mark.parametrize("kwargs", [{"n": 8.5}, {"v": 64.0}, {"n": True}],
                         ids=["float-n", "float-v", "bool-n"])
def test_non_integer_task_config_raises_config_error(kwargs):
    with pytest.raises(ConfigError, match="must be an int"):
        TaskConfig(**kwargs)


@pytest.mark.parametrize("batch", [-1, 2.0])
def test_bad_batch_size_raises_config_error(batch):
    with pytest.raises(ConfigError, match="batch must be"):
        generate_batch(TaskKind.MQAR, cfg64(), batch, seed=0)


def test_payload_overflow_raises():
    with pytest.raises(DataError):
        generate_sample(TaskKind.MQAR, TaskConfig(n=12, v=64), 0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_min_length_is_tight(kind):
    # TaskConfig itself needs N >= 8, so shorter payloads are only checked
    # to fit at N 8.
    need = min_length(kind)
    for index in range(3):
        generate_sample(kind, TaskConfig(n=max(need, 8), v=64), 0, index=index)
    if need > 8:
        with pytest.raises(DataError):
            generate_sample(kind, TaskConfig(n=need - 1, v=64), 0)


@pytest.mark.parametrize("seed", [-5, [1, -2]])
def test_negative_seed_raises_config_error(seed):
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        generate_batch(TaskKind.MQAR, TaskConfig(n=32), 2, seed=seed)


@pytest.mark.parametrize("seed", [1.7, 1.0, True, [1, 2.5], [np.int64(1), False]],
                         ids=["float", "integral-float", "bool", "list-float", "list-bool"])
def test_non_integer_seed_raises_config_error(seed):
    # int() would truncate 1.7 to 1 and hand back seed 1's batch.
    with pytest.raises(ConfigError, match="seed must be an int"):
        generate_batch(TaskKind.MQAR, TaskConfig(n=32), 2, seed=seed)


@pytest.mark.parametrize("index", [-1, 1.5, True], ids=["negative", "float", "bool"])
def test_bad_sample_index_raises_config_error(index):
    # True would be taken as index 1 and draw that sample.
    with pytest.raises(ConfigError, match="index must be"):
        generate_sample(TaskKind.MQAR, TaskConfig(n=32), 0, index=index)


def test_numpy_integer_seeds_are_ints():
    cfg = TaskConfig(n=32)
    for seed, same in ((np.int64(3), 3), ([np.int32(3), np.uint8(4)], [3, 4])):
        for a, b in zip(generate_batch(TaskKind.MQAR, cfg, 2, seed=seed),
                        generate_batch(TaskKind.MQAR, cfg, 2, seed=same)):
            np.testing.assert_array_equal(a, b)


def test_task_kind_parse():
    assert TaskKind.parse("local-xor") is TaskKind.LOCAL_XOR
    with pytest.raises(ConfigError):
        TaskKind.parse("nope")


def test_task_kind_parse_rejects_non_string():
    with pytest.raises(ConfigError, match="unknown task kind: 3"):
        TaskKind.parse(3)


@pytest.mark.parametrize("call", [
    lambda kind: generate_batch(kind, TaskConfig(n=32), 2, seed=0),
    min_length,
    queries_per_sample,
    lambda kind: train.evaluate(build_model(ModelKind.LINEAR_ATTENTION, d=8, n_ctx=32),
                                kind, TaskConfig(n=32), seed=0, n_samples=2),
], ids=["generate_batch", "min_length", "queries_per_sample", "evaluate"])
def test_task_name_in_place_of_kind_raises_config_error(call):
    # queries_per_sample("mqar") used to answer 1 where MQAR has 4 queries.
    with pytest.raises(ConfigError, match="must be a TaskKind"):
        call("mqar")
