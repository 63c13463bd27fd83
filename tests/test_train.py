"""The training loop: snapshots, timing, numeric failure, determinism."""

import time

import numpy as np
import pytest

from prismlab import train
from prismlab.config import RunConfig
from prismlab.errors import NumericError


def small(**kw):
    return RunConfig(**{"d": 8, "n": 32, "batch": 4, "steps": 2, **kw})


def test_zero_steps_gives_one_snapshot():
    res = train.run_training(small(model="la", steps=0), 1, eval_samples=8)
    assert len(res.history) == 1
    assert res.final.step == 0
    assert res.final.tokens_per_s == 0


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
