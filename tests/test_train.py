"""The training loop: snapshots, timing, numeric failure, determinism."""

import signal
import time

import numpy as np
import pytest

from oracles import full_logit_evaluate
from prismlab import tensor as T
from prismlab import train
from prismlab.config import RunConfig
from prismlab.models import ModelKind, build_model
from prismlab.tasks import TaskConfig, TaskKind
from prismlab.errors import ConfigError, DataError, NumericError, ShapeError


def small(**kw):
    return RunConfig(**{"d": 8, "n": 32, "batch": 4, "steps": 2, **kw})


def test_zero_steps_gives_one_snapshot():
    res = train.run_training(small(model="la", steps=0), 1, eval_samples=8)
    assert len(res.history) == 1
    assert res.final.step == 0
    assert res.final.tokens_per_s == 0


def test_short_n_raises_config_error_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called before the length check")

    monkeypatch.setattr(train, "build_model", refuse)
    monkeypatch.setattr(train, "generate_batch", refuse)
    with pytest.raises(ConfigError, match="task 'mqar' needs n >= 23"):
        train.run_training(small(model="la", n=16), 1)


@pytest.mark.parametrize("arg", ["eval_every", "eval_samples"])
def test_eval_argument_below_one_raises_before_any_work(monkeypatch, arg):
    def refuse(*args, **kwargs):
        raise AssertionError("called before the argument check")

    monkeypatch.setattr(train, "build_model", refuse)
    with pytest.raises(ConfigError, match=f"{arg} must be >= 1, got 0"):
        train.run_training(small(model="la"), 1, **{arg: 0})


@pytest.mark.parametrize("arg", ["eval_every", "eval_samples"])
def test_non_integer_eval_argument_raises_before_any_work(monkeypatch, arg):
    def refuse(*args, **kwargs):
        raise AssertionError("called before the argument check")

    monkeypatch.setattr(train, "build_model", refuse)
    with pytest.raises(ConfigError, match=f"{arg} must be an int, got 2.5"):
        train.run_training(small(model="la"), 1, **{arg: 2.5})


def test_evaluate_needs_an_int_sample_count():
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, n_ctx=32)
    with pytest.raises(ConfigError, match="n_samples must be an int, got 2.5"):
        train.evaluate(model, TaskKind.MQAR, TaskConfig(n=32), seed=[1], n_samples=2.5)


def test_evaluate_needs_a_sample():
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, n_ctx=32)
    tcfg = TaskConfig(n=32)
    with pytest.raises(ConfigError, match="n_samples must be >= 1, got 0"):
        train.evaluate(model, TaskKind.MQAR, tcfg, seed=[1], n_samples=0)


def test_evaluate_takes_an_int_seed_as_generate_batch_does():
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, n_ctx=32)
    tcfg = TaskConfig(n=32)
    assert (train.evaluate(model, TaskKind.MQAR, tcfg, seed=3, n_samples=4)
            == train.evaluate(model, TaskKind.MQAR, tcfg, seed=[3], n_samples=4))


@pytest.mark.parametrize("task", [TaskKind.MQAR, TaskKind.PARITY], ids=lambda t: t.value)
@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_evaluate_equals_full_logit_scoring(kind, task):
    # Two batches, EVAL_BATCH samples and 3.
    model = build_model(kind, d=8, n_ctx=32, seed=[4, 0])
    tcfg, n_samples = TaskConfig(n=32), train.EVAL_BATCH + 3
    assert (train.evaluate(model, task, tcfg, seed=[4, 2], n_samples=n_samples)
            == full_logit_evaluate(model, task, tcfg, [4, 2], n_samples))


def test_evaluate_runs_the_top_of_the_network_at_the_query_rows_only(monkeypatch):
    # MQAR: Q = 4 queries in each of B = 5 samples of N = 32 tokens.
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, n_ctx=32)
    norm_rows, head_rows = [], []

    def spy(fn, seen, keep=lambda *args: True):
        def wrapped(*args, **kwargs):
            if keep(*args):
                seen.append(args[0].shape)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(T, "layernorm", spy(T.layernorm, norm_rows))
    monkeypatch.setattr(T, "matmul", spy(T.matmul, head_rows, lambda a, b: b is model.head))
    train.evaluate(model, TaskKind.MQAR, TaskConfig(n=32), seed=[1], n_samples=5)
    # LN1, LN2 and LN1 of the blocks before the last residual add, then the
    # last block's LN2 and the final layernorm.
    assert norm_rows == [(5, 32, 8)] * 3 + [(5 * 4, 8)] * 2
    assert head_rows == [(5 * 4, 8)]


def test_negative_seed_raises_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called before the seed check")

    monkeypatch.setattr(train, "build_model", refuse)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        train.run_training(small(model="la"), -1)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, [1]])
def test_non_integer_seed_raises_before_any_work(monkeypatch, seed):
    # default_rng would raise a bare TypeError for 1.5 once the model is built.
    def refuse(*args, **kwargs):
        raise AssertionError("called before the seed check")

    monkeypatch.setattr(train, "build_model", refuse)
    with pytest.raises(ConfigError, match="seed must be an int"):
        train.run_training(small(model="la"), seed)


def test_numpy_integer_seed_trains_as_the_int():
    cfg = small(model="la", steps=1)
    want = train.run_training(cfg, 2, eval_samples=4).final
    got = train.run_training(cfg, np.int64(2), eval_samples=4).final
    assert (got.loss, got.accuracy, got.run_id) == (want.loss, want.accuracy, want.run_id)
    assert type(got.seed) is int


@pytest.mark.parametrize("shape", [(4,), (1, 4)], ids=["1-d", "1x4"])
def test_query_loss_of_targets_of_another_shape_raises_shape_error(shape):
    # As many targets as rows: flattening both would score them.
    rows = T.Tensor(np.random.default_rng(3).standard_normal((2, 2, 5)))
    with pytest.raises(ShapeError, match=r"targets \(.*\) must have the shape \(2, 2\)"):
        train.query_loss(rows, np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("targets", [np.zeros((2, 2)), np.zeros((2, 2), dtype=bool),
                                     np.full((2, 2), "0")], ids=["float", "bool", "str"])
def test_query_loss_of_non_integer_targets_raises_data_error(targets):
    # Float and bool targets raised a bare IndexError, strings UFuncTypeError.
    rows = T.Tensor(np.random.default_rng(3).standard_normal((2, 2, 5)))
    with pytest.raises(DataError, match=f"targets must be integers, got dtype {targets.dtype}"):
        train.query_loss(rows, targets)


def test_non_finite_loss_raises_with_step():
    with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
        train.run_training(small(model="la", lr=1e38, steps=4), 1, eval_samples=8)
    assert exc.value.step == 2


def test_same_seed_same_history():
    def history():
        res = train.run_training(small(model="prism", l=1, steps=3), 5,
                                 eval_every=1, eval_samples=16)
        return [(r.step, r.loss, r.accuracy) for r in res.history]

    first = history()
    assert len(first) == 3
    assert history() == first


def test_tokens_per_s_times_only_training(monkeypatch):
    pause = 0.2

    def slow(fn):
        def wrapped(*args, **kwargs):
            time.sleep(pause)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(train, "evaluate", slow(train.evaluate))
    monkeypatch.setattr(train, "generate_batch", slow(train.generate_batch))
    cfg = small(model="la")
    res = train.run_training(cfg, 1, eval_every=1, eval_samples=8)
    tokens = cfg.steps * cfg.batch * cfg.n
    # Counting even one pause would cap the rate at tokens / pause.
    assert res.final.tokens_per_s > tokens / pause


def test_snapshot_round_trip_of_trained_model(tmp_path):
    cfg = small(model="prism", l=1)
    res = train.run_training(cfg, 3, eval_samples=8)
    path = tmp_path / "snap.npz"
    train.save_snapshot(res.model, path)
    fresh = build_model(ModelKind.PRISM, d=cfg.d, vocab=res.model.vocab,
                        n_ctx=res.model.n_ctx, L=1, seed=99)
    with np.load(path) as state:
        fresh.load_state_dict(state)
    tokens = np.random.default_rng(4).integers(0, res.model.vocab, (2, cfg.n))
    np.testing.assert_array_equal(fresh.forward(tokens).data,
                                  res.model.forward(tokens).data)


def test_probe_sweep_names_its_cells_by_kind():
    # "LA" used to key the cell ("LA", "parity"), which has no band, so a
    # near-zero median passed; the run id read "LA-parity-s1".
    records, table = train.run_probe_sweep(small(steps=0, seeds=[1]), ["LA"], ["parity"])
    assert [(r.run_id, r.model, r.task) for r in records] == [("la-parity-s1", "la", "parity")]
    assert list(table) == [("la", "parity")]
    cell = table[("la", "parity")]
    assert cell["accs"] == [records[0].accuracy]
    assert cell["median"] == records[0].accuracy < 0.35
    assert cell["band"] == (0.35, 0.65)
    assert cell["pass"] is False
    csv = train.probe_table_csv(table, train.PROBE_MODEL_ORDER, train.PROBE_TASK_ORDER)
    want = ["task,transformer,la,mom,prism"] + [
        f"{task},,{cell['median']:.6g},," if task == "parity" else f"{task},,,,"
        for task in train.PROBE_TASK_ORDER]
    assert csv == "\n".join(want) + "\n"


def test_probe_sweep_on_two_workers_equals_one():
    # The pool path: spawned workers, records in the order of the cells.
    def hung(signum, frame):
        raise TimeoutError("the worker pool did not finish within 120 s")

    cfg, lines = small(steps=0, seeds=[1, 2]), []
    one = train.run_probe_sweep(cfg, ["la"], ["parity"], workers=1)
    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        two = train.run_probe_sweep(cfg, ["la"], ["parity"], workers=2, log=lines.append)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert two == one
    assert [r.seed for r in two[0]] == [1, 2]
    assert len(lines) == 2 and lines[0].startswith("cell done: la/parity seed 1")


@pytest.mark.parametrize("kwargs", [{"workers": "2"}, {"workers": 0}, {"workers": 1.5},
                                    {"workers": True}, {"models": ["gpt"]},
                                    {"tasks": ["sorting"]}],
                         ids=["str", "zero", "float", "bool", "model", "task"])
def test_probe_sweep_checks_its_arguments_before_any_cell(monkeypatch, kwargs):
    # workers="2" raised a bare TypeError.
    def refuse(*args, **kw):
        raise AssertionError("a cell ran before the argument check")

    monkeypatch.setattr(train, "run_training", refuse)
    args = {"models": ["la"], "tasks": ["parity"], **kwargs}
    with pytest.raises(ConfigError, match="workers|unknown"):
        train.run_probe_sweep(small(steps=0, seeds=[1]), **args)


def test_probe_table_csv_reads_the_canonical_cell_of_any_spelling():
    # An "LA" column used to look up ("LA", "Parity") and print an empty cell.
    table = {("la", "parity"): {"median": 0.5}}
    assert train.probe_table_csv(table, ["LA"], ["Parity"]) == "task,la\nparity,0.5\n"
