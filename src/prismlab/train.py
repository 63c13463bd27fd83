"""Training loop, evaluation, and probe sweep.

One run is fully determined by (config, seed): model init, the fresh
batch drawn at every step, and the held-out evaluation set all derive
from disjoint seed streams. Loss and accuracy are computed only at query
positions: ``query_loss`` scores the (B, Q, V) logit rows gathered there,
and accuracy is the exact-argmax match fraction of the same rows.
``SequenceModel.forward(tokens, at=qpos)`` is the one check of the query
positions; it raises ShapeError or DataError for positions that do not fit
the batch.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .config import MetricRecord, RunConfig, check_int, seed_list
from .errors import ConfigError, NumericError, ShapeError
from .models import ModelKind, build_model
from .optim import Adam
from .tasks import TaskConfig, TaskKind, generate_batch, min_length

EVAL_EVERY = 1000
EVAL_SAMPLES = 1024
EVAL_BATCH = 128


def query_loss(rows, targets):
    """Mean cross entropy of (..., V) logit rows against the integer
    ``targets``, one per row; ShapeError unless ``targets`` has the shape
    ``rows.shape[:-1]``."""
    targets = np.asarray(targets)
    if targets.shape != rows.shape[:-1]:
        raise ShapeError(f"targets {targets.shape} must have the shape "
                         f"{rows.shape[:-1]} of the logit rows {rows.shape}")
    flat = T.reshape(rows, (targets.size, rows.shape[-1]))
    return T.softmax_cross_entropy(flat, targets.reshape(-1))


def evaluate(model, kind: TaskKind, tcfg: TaskConfig, seed, n_samples=EVAL_SAMPLES):
    """Held-out evaluation on freshly generated samples. ``seed`` is an
    int or a list of ints, as in ``generate_batch``.

    Only the query rows are scored, so the top of the network (the last
    block's MLP, the final layernorm and the head) runs at the B*Q query
    positions through ``model.forward(tokens, at=qpos)``, not at all B*N.
    ``query_loss`` scores those (B, Q, V) rows as they come, and accuracy
    is the exact-argmax match fraction of the same rows. The result equals
    scoring the full logits' query rows bit for bit whenever a batch holds
    two or more query rows.
    """
    n_samples = check_int("n_samples", n_samples, 1)
    total_loss = 0.0
    total_acc = 0.0
    done = 0
    with T.no_grad():
        while done < n_samples:
            b = min(EVAL_BATCH, n_samples - done)
            tokens, qpos, tgt = generate_batch(kind, tcfg, b, seed=seed_list(seed) + [done])
            rows = model.forward(tokens, at=qpos)
            total_loss += query_loss(rows, tgt).item() * b
            total_acc += float((rows.data.argmax(axis=-1) == tgt).mean()) * b
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

    steps=0 evaluates the random initialization. An ``n`` too short for
    the task's payload, an ``eval_every`` or ``eval_samples`` that is not
    an int >= 1, or a ``seed`` that is not an int >= 0 raises ConfigError
    before the model is built. A non-finite loss aborts with the failing
    step index.
    ``tokens_per_s`` times only the forward pass, the backward pass and the
    update: batch generation and the evaluations behind each snapshot are
    left out.
    """
    kind = ModelKind.parse(cfg.model)
    task = TaskKind.parse(cfg.task)
    tcfg = TaskConfig(n=cfg.n, v=cfg.v)
    need = min_length(task)
    if cfg.n < need:
        raise ConfigError(f"task {task.value!r} needs n >= {need}, got n = {cfg.n}")
    for name, value in (("eval_every", eval_every), ("eval_samples", eval_samples)):
        check_int(name, value, 1)
    seed = check_int("seed", seed, 0)
    dtype = cfg.dtype()
    model = build_model(kind, d=cfg.d, vocab=cfg.v, n_ctx=cfg.n, L=cfg.l,
                        seed=[seed, 0], dtype=dtype)
    opt = Adam(list(model.params()), lr=cfg.lr)
    run_id = f"{kind.value}-{task.value}-s{seed}"
    history = []
    tokens_seen = 0
    train_s = 0.0

    def snapshot(step, train_loss):
        ev_loss, ev_acc = evaluate(model, task, tcfg, seed=[seed, 2],
                                   n_samples=eval_samples)
        rec = MetricRecord(run_id=run_id, model=kind.value, task=task.value,
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
        loss = query_loss(logits[np.arange(cfg.batch)[:, None], qpos], tgt)
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


def _probe_cell(job):
    cfg, seed = job
    return run_training(cfg, seed).final


def run_probe_sweep(cfg: RunConfig, models, tasks, workers=1, log=None):
    """Train every (model, task, seed) cell; median accuracy per cell.

    ConfigError, before any cell runs, unless ``workers`` is an int >= 1
    and every name parses. Cells are keyed by canonical names (``"LA"``
    becomes ``"la"``). With ``workers`` > 1 they run on a spawn pool. Either
    way records arrive, and are logged, in cell order, and each run is
    deterministic. The BLAS thread count of a run follows the environment.
    """
    workers = check_int("workers", workers, 1)
    models = [ModelKind.parse(m).value for m in models]
    tasks = [TaskKind.parse(t).value for t in tasks]
    jobs = [(replace(cfg, model=model, task=task), seed)
            for model in models for task in tasks for seed in cfg.seeds]
    records, cells = [], {}
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            import multiprocessing  # here, so that importing train stays cheap
            run = stack.enter_context(multiprocessing.get_context("spawn").Pool(workers)).imap
        for rec in run(_probe_cell, jobs):
            records.append(rec)
            cells.setdefault((rec.model, rec.task), []).append(rec.accuracy)
            if log:
                log(f"cell done: {rec.model}/{rec.task} seed {rec.seed} "
                    f"acc {rec.accuracy:.3f}")
    table = {}
    for key, accs in cells.items():
        med = float(np.median(accs))
        band = PROBE_THRESHOLDS.get(key)
        table[key] = {"median": med, "accs": sorted(accs), "band": band,
                      "pass": band is None or band[0] <= med <= band[1]}
    return records, table


def probe_table_csv(table, models, tasks):
    """Paper-layout table: one row per task, one column per model, each
    named and looked up by its canonical name."""
    models = [ModelKind.parse(m).value for m in models]
    tasks = [TaskKind.parse(t).value for t in tasks]
    lines = ["task," + ",".join(models)]
    for task in tasks:
        row = [task]
        for model in models:
            cell = table.get((model, task))
            row.append(f"{cell['median']:.6g}" if cell else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
