"""Training loop, evaluation, and probe sweep.

One run is fully determined by (config, seed): model init, the fresh
batch drawn at every step, and the held-out evaluation set all derive
from disjoint seed streams. Loss and accuracy are computed only at query
positions; accuracy is the exact-argmax match fraction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import MetricRecord, RunConfig
from .errors import NumericError
from .models import ModelKind, build_model
from .optim import Adam
from .tasks import TaskConfig, TaskKind, generate_batch

EVAL_EVERY = 1000
EVAL_SAMPLES = 1024
EVAL_BATCH = 128


def query_loss(logits, qpos, targets):
    """Mean cross entropy over query positions only."""
    picked = T.take_time(logits, qpos)
    bsz, q, vocab = picked.shape
    flat = T.reshape(picked, (bsz * q, vocab))
    return T.softmax_cross_entropy(flat, np.asarray(targets).reshape(-1))


def query_accuracy(logits_data, qpos, targets):
    """Exact argmax match fraction over query positions."""
    rows = np.arange(logits_data.shape[0])[:, None]
    picked = logits_data[rows, qpos]
    pred = picked.argmax(axis=-1)
    return float((pred == targets).mean())


def evaluate(model, kind: TaskKind, tcfg: TaskConfig, seed, n_samples=EVAL_SAMPLES):
    """Held-out evaluation on freshly generated samples."""
    total_loss = 0.0
    total_acc = 0.0
    done = 0
    with T.no_grad():
        while done < n_samples:
            b = min(EVAL_BATCH, n_samples - done)
            tokens, qpos, tgt = generate_batch(kind, tcfg, b, seed=list(seed) + [done])
            logits = model.forward(tokens)
            loss = query_loss(logits, qpos, tgt)
            total_loss += loss.item() * b
            total_acc += query_accuracy(logits.data, qpos, tgt) * b
            done += b
    return total_loss / n_samples, total_acc / n_samples


@dataclass
class TrainResult:
    final: MetricRecord
    history: list
    model: object


def run_training(cfg: RunConfig, seed: int, log=None, eval_every=EVAL_EVERY,
                 eval_samples=EVAL_SAMPLES) -> TrainResult:
    """Train one (model, task, seed) cell and return its metric history.

    steps=0 evaluates the random initialization. A non-finite loss aborts
    with the failing step index. ``tokens_per_s`` times only the forward
    pass, the backward pass and the update: batch generation and the
    evaluations behind each snapshot are left out.
    """
    kind = ModelKind.parse(cfg.model)
    task = TaskKind.parse(cfg.task)
    dtype = cfg.dtype()
    model = build_model(kind, d=cfg.d, vocab=cfg.v, n_ctx=cfg.n, L=cfg.l,
                        seed=[seed, 0], dtype=dtype)
    tcfg = TaskConfig(n=cfg.n, v=cfg.v)
    opt = Adam(list(model.params()), lr=cfg.lr)
    run_id = f"{cfg.model}-{cfg.task}-s{seed}"
    history = []
    tokens_seen = 0
    train_s = 0.0

    def snapshot(step, train_loss):
        ev_loss, ev_acc = evaluate(model, task, tcfg, seed=[seed, 2],
                                   n_samples=eval_samples)
        rec = MetricRecord(run_id=run_id, model=cfg.model, task=cfg.task,
                           seed=seed, step=step,
                           loss=ev_loss if train_loss is None else train_loss,
                           accuracy=ev_acc,
                           tokens_per_s=tokens_seen / max(train_s, 1e-9))
        history.append(rec)
        if log:
            log(f"{run_id} step {step:>6} loss {rec.loss:.4f} "
                f"acc {ev_acc:.3f} tok/s {rec.tokens_per_s:,.0f}")
        return rec

    last_loss = None
    for step in range(1, cfg.steps + 1):
        tokens, qpos, tgt = generate_batch(task, tcfg, cfg.batch,
                                           seed=[seed, 1, step])
        t0 = time.perf_counter()
        logits = model.forward(tokens)
        loss = query_loss(logits, qpos, tgt)
        last_loss = loss.item()
        if not np.isfinite(last_loss):
            raise NumericError(f"{run_id}: loss became non-finite at step {step}",
                               step=step)
        T.backward(loss)
        opt.step()
        train_s += time.perf_counter() - t0
        tokens_seen += cfg.batch * cfg.n
        if step % eval_every == 0 and step < cfg.steps:
            snapshot(step, last_loss)
    final = snapshot(cfg.steps, last_loss)
    return TrainResult(final=final, history=history, model=model)


def save_snapshot(model, path):
    np.savez(path, **model.state_dict())


# --------------------------------------------------------------------------
# probe sweep
# --------------------------------------------------------------------------

PROBE_TASK_ORDER = ("mqar", "poly_recall", "var_tracking", "parity",
                    "local_xor", "modulo_add", "palindrome", "mux",
                    "silence_gate")
PROBE_MODEL_ORDER = ("transformer", "la", "mom", "prism")

# Acceptance bands for the desk-scale probing table (median over seeds):
# (model, task) -> (low, high) inclusive.
PROBE_THRESHOLDS = {
    ("prism", "parity"): (0.95, 1.0),
    ("prism", "local_xor"): (0.95, 1.0),
    ("prism", "palindrome"): (0.90, 1.0),
    ("prism", "mqar"): (0.90, 1.0),
    ("prism", "modulo_add"): (0.30, 1.0),
    ("la", "mqar"): (0.90, 1.0),
    ("la", "parity"): (0.35, 0.65),
    ("la", "local_xor"): (0.35, 0.65),
    ("mom", "parity"): (0.35, 0.65),
    ("mom", "local_xor"): (0.35, 0.65),
}


def _probe_cell(args):
    cfg_dict, model, task, seed = args
    cfg = RunConfig(**{**cfg_dict, "model": model, "task": task})
    result = run_training(cfg, seed)
    return model, task, seed, result.final


def run_probe_sweep(cfg: RunConfig, models, tasks, workers=1, log=None):
    """Train every (model, task, seed) cell; median accuracy per cell.

    Independent cells may run on parallel worker processes; each run is
    single-threaded and deterministic, and results are merged in a fixed
    order afterwards.
    """
    jobs = []
    base = {k: v for k, v in cfg.__dict__.items()}
    for model in models:
        for task in tasks:
            for seed in cfg.seeds:
                jobs.append((base, model, task, seed))
    if workers > 1 and len(jobs) > 1:
        import multiprocessing as mp
        ctx = mp.get_context("spawn")
        with ctx.Pool(processes=workers) as pool:
            outs = pool.map(_probe_cell, jobs)
    else:
        outs = []
        for job in jobs:
            outs.append(_probe_cell(job))
            if log:
                m, t, s, rec = outs[-1]
                log(f"cell done: {m}/{t} seed {s} acc {rec.accuracy:.3f}")
    records = [rec for (_, _, _, rec) in outs]
    cells = {}
    for model, task, seed, rec in outs:
        cells.setdefault((model, task), []).append(rec.accuracy)
    table = {}
    for (model, task), accs in cells.items():
        med = float(np.median(accs))
        band = PROBE_THRESHOLDS.get((model, task))
        ok = band is None or (band[0] <= med <= band[1])
        table[(model, task)] = {"median": med, "accs": sorted(accs),
                                "band": band, "pass": ok}
    return records, table


def probe_table_csv(table, models, tasks):
    """Paper-layout table: one row per task, one column per model."""
    lines = ["task," + ",".join(models)]
    for task in tasks:
        row = [task]
        for model in models:
            cell = table.get((model, task))
            row.append(f"{cell['median']:.6g}" if cell else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
