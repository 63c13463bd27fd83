"""Reference implementations that the tests check prismlab against.

Nothing here is called by training, evaluation or the benchmark, so it
lives with the tests rather than in the package:

  * the reference activations on raw arrays: GELU and its derivative
    through scipy's erf, and the logistic function in its two-branch
    ``np.where`` form;
  * the analysis update rules (plain numpy, no tape): simple linear
    attention, the delta rule, the state-dependent ideal solver it
    approximates, and the closed-form degenerate optimum for purely linear
    key/value maps;
  * PRISM's per-step transition pairs (A_t, B_t) in dense form, and their
    associative composition;
  * the rule-based task oracle, which recovers every probe task's targets
    from the token stream alone;
  * causal softmax attention and masked linear attention composed of
    elementary taped ops, the references for the fused score nodes;
  * ``grad_check``: taped gradients against central differences, and
    ``assert_same_bits``;
  * ``assert_chunked_scan_matches_serial``: ``chunked_scan`` against its
    serial oracle ``scan_core``, in outputs and every gradient;
  * ``full_logit_evaluate``: ``train.evaluate`` scored on the full logits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from prismlab import tensor as T
from prismlab import train
from prismlab.cell import StepTerms, chunked_scan, scan_core
from prismlab.config import seed_list
from prismlab.errors import ConfigError, NumericError, ShapeError
from prismlab.tasks import (MODULUS, PARITY_BITS, TaskConfig, TaskKind, TaskSample, _bit_token,
                            generate_batch)

_COND_LIMIT = 1e10  # degenerate_closed_form refuses a W_k this ill-conditioned
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


# --------------------------------------------------------------------------
# reference activations
# --------------------------------------------------------------------------

def gelu_fn(x):
    """Exact Gaussian-CDF GELU on a raw array: x * Phi(x)."""
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_deriv_fn(x):
    """GELU'(x) = Phi(x) + x phi(x)."""
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * phi


def sigmoid_where(x):
    """The logistic function, one branch per sign of x through
    ``np.where``, with exp only of -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# --------------------------------------------------------------------------
# analysis update rules
# --------------------------------------------------------------------------

class Activation(enum.Enum):
    IDENTITY = "identity"
    TANH = "tanh"
    GELU = "gelu"

    def f(self, x):
        if self is Activation.IDENTITY:
            return x
        if self is Activation.TANH:
            return np.tanh(x)
        return gelu_fn(x)

    def fprime(self, x):
        if self is Activation.IDENTITY:
            return np.ones_like(x)
        if self is Activation.TANH:
            t = np.tanh(x)
            return 1.0 - t * t
        return gelu_deriv_fn(x)


def linear_attention_step(s, k, v):
    """Hebbian accumulation: S' = S + v k^T."""
    return s + np.outer(v, k)


def delta_rule_step(s, k, v, beta):
    """Error-correcting rank-1 update: S' = S + beta (v - S k) k^T."""
    resid = v - s @ k
    return s + beta * np.outer(resid, k)


def ideal_solver_step(s, k, v, act: Activation, beta=1.0):
    """One gradient step on 0.5 ||act(S k) - v||^2 in S.

    S' = S + beta * (act'(S k) * (v - act(S k))) k^T. State-dependent,
    hence strictly serial. With the identity activation this reduces,
    operation for operation, to the delta rule.
    """
    z = s @ k
    resid = v - act.f(z)
    update = act.fprime(z) * resid
    return s + beta * np.outer(update, k)


def degenerate_closed_form(w_k, w_v):
    """Sequence-independent optimum for linear maps: S* = W_v W_k^{-1}.

    Raises NumericError when the condition number of W_k is >= 1e10, where
    the residual guarantee no longer holds at float64.
    """
    w_k = np.asarray(w_k, dtype=np.float64)
    w_v = np.asarray(w_v, dtype=np.float64)
    cond = np.linalg.cond(w_k)
    if not cond < _COND_LIMIT:
        raise NumericError(f"W_k is numerically singular (condition ~ {cond:.3e})")
    return w_v @ np.linalg.inv(w_k)


# --------------------------------------------------------------------------
# dense transition pairs
# --------------------------------------------------------------------------

@dataclass
class TransitionPair:
    """One step of the linear recurrence, structurally and densely.

    Structured form: A = alpha * (I - beta * k k^T). The dense form is
    materialized on demand, for analysis; no rollout composes it.
    """

    a: np.ndarray                 # (d, d)
    b: np.ndarray                 # (d, d)
    alpha: float | None = None
    beta: float | None = None
    k: np.ndarray | None = None

    @classmethod
    def from_structured(cls, alpha, beta, k, b):
        k = np.asarray(k, dtype=np.float64)
        d = k.shape[0]
        a = alpha * (np.eye(d) - beta * np.outer(k, k))
        return cls(a=a, b=np.asarray(b, dtype=np.float64),
                   alpha=float(alpha), beta=float(beta), k=k)

    @classmethod
    def identity(cls, d):
        return cls(a=np.eye(d), b=np.zeros((d, d)))

    def structured_eigenvalues(self):
        """Analytic spectrum: alpha with multiplicity d-1, plus
        alpha * (1 - beta ||k||^2)."""
        if self.alpha is None:
            raise ShapeError("dense-only pair has no structured spectrum")
        lam = self.alpha * (1.0 - self.beta * float(self.k @ self.k))
        return np.concatenate([np.full(self.k.shape[0] - 1, self.alpha), [lam]])

    def apply(self, s):
        return s @ self.a + self.b


def compose_transitions(pair_a: TransitionPair, pair_b: TransitionPair) -> TransitionPair:
    """Associative composition: first ``pair_a``, then ``pair_b``.

    (A_a, B_a) o (A_b, B_b) = (A_a A_b, B_a A_b + B_b), matching
    S'' = (S A_a + B_a) A_b + B_b. Associative but not commutative.
    """
    return TransitionPair(a=pair_a.a @ pair_b.a,
                          b=pair_a.b @ pair_b.a + pair_b.b)


def dense_transitions(terms: StepTerms, cols):
    """Dense per-step (A, B) arrays, shape (B, N, d, d) each.

    The injection B_t = sum_l c_l (x) k_l is formed here only: the package
    carries it as its factors, the (B, N, L, d) stacks ``cols`` and
    ``terms.k``.
    """
    keys, cols = terms.k.data, cols.data
    k = keys[..., 0, :]
    kk = k[..., :, None] * k[..., None, :]
    eye = np.eye(k.shape[-1], dtype=k.dtype)
    a = terms.alpha.data[..., None, None] * (eye - terms.beta.data[..., 0, None, None] * kk)
    b = np.zeros_like(a)
    for l in range(keys.shape[-2]):
        b += cols[..., l, :, None] * keys[..., l, None, :]
    return a, b


def build_transition(terms: StepTerms, cols, batch=0, t=0) -> TransitionPair:
    """Materialize the transition pair of step ``t``."""
    _, b = dense_transitions(terms, cols)
    return TransitionPair.from_structured(
        alpha=float(terms.alpha.data[batch, t]),
        beta=float(terms.beta.data[batch, t, 0]),
        k=terms.k.data[batch, t, 0],
        b=b[batch, t],
    )


# --------------------------------------------------------------------------
# rule-based task oracle
# --------------------------------------------------------------------------

def _payload_groups(tokens, layout):
    """Contiguous runs of non-noise tokens, as (start, run) pairs."""
    mask = np.asarray([t not in layout.noise for t in tokens])
    groups = []
    i = 0
    n = len(tokens)
    while i < n:
        if mask[i]:
            j = i
            while j < n and mask[j]:
                j += 1
            groups.append((i, list(tokens[i:j])))
            i = j
        else:
            i += 1
    return groups


def task_oracle(kind: TaskKind, sample: TaskSample, cfg: TaskConfig) -> np.ndarray:
    """Recover the targets from the token stream alone, by the task rule."""
    layout = cfg.layout()
    toks = sample.tokens
    query = layout.token("QUERY")

    if kind is TaskKind.MQAR:
        pairs = {}
        answers = {}
        for start, grp in _payload_groups(toks, layout):
            if grp[0] == query:
                answers[start + 1] = grp[1]
            else:
                pairs[grp[0]] = grp[1]
        return np.asarray([pairs[answers[p]] for p in sample.query_positions])

    if kind is TaskKind.POLY_RECALL:
        table = {}
        q = None
        for start, grp in _payload_groups(toks, layout):
            if grp[0] == query:
                q = (grp[1], grp[2])
            else:
                table[(grp[0], grp[1])] = grp[2]
        return np.asarray([table[q]])

    if kind is TaskKind.VAR_TRACKING:
        env = {}
        q = None
        for start, grp in _payload_groups(toks, layout):
            if grp[0] == query:
                q = grp[1]
            else:
                env[grp[0]] = grp[1]
        while q in env:
            q = env[q]
        return np.asarray([q])

    if kind is TaskKind.LOCAL_XOR:
        pos = sample.query_positions[0]
        a, b = toks[pos - 2], toks[pos - 1]
        return np.asarray([_bit_token(layout, int((a % 2) != (b % 2)))])

    if kind is TaskKind.PARITY:
        pos = sample.query_positions[0]
        bits = toks[pos - PARITY_BITS:pos] - layout.data.start
        return np.asarray([_bit_token(layout, int(bits.sum() % 2))])

    if kind is TaskKind.MODULO_ADD:
        pos = sample.query_positions[0]
        a = toks[pos - 2] - layout.data.start
        b = toks[pos - 1] - layout.data.start
        return np.asarray([layout.data.start + int((a + b) % MODULUS)])

    if kind is TaskKind.PALINDROME:
        pos = sample.query_positions[0]
        a, c = toks[pos - 3], toks[pos - 1]
        return np.asarray([_bit_token(layout, int(a == c))])

    if kind is TaskKind.SILENCE_GATE:
        on_tok, off_tok = layout.token("ON"), layout.token("OFF")
        stmt = None
        for start, grp in _payload_groups(toks, layout):
            if grp[0] in (on_tok, off_tok):
                stmt = grp
        if stmt[0] == on_tok:
            return np.asarray([stmt[2]])
        return np.asarray([layout.token("NULL")])

    if kind is TaskKind.MUX:
        pos = sample.query_positions[0]
        sel = toks[pos - 3]
        pick = toks[pos - 1] if sel == layout.token("SEL1") else toks[pos - 2]
        return np.asarray([pick])

    raise ConfigError(f"no oracle for {kind}")


# --------------------------------------------------------------------------
# composed score mixers
# --------------------------------------------------------------------------

def _transposed(k):
    """k^T over the last two axes, as a taped transpose."""
    axes = tuple(range(k.data.ndim))
    return T.transpose(k, axes[:-2] + (axes[-1], axes[-2]))


def composed_softmax_attention(q, k, v):
    """Causal softmax attention of (..., N, e) heads from elementary taped
    ops: q k^T, the scale 1 / sqrt(e), the additive mask (finfo.min / 4
    above the diagonal), softmax, and P v."""
    n, e = q.data.shape[-2:]
    dtype = q.data.dtype
    scores = (q @ _transposed(k)) * (1.0 / np.sqrt(e))
    mask = np.triu(np.full((n, n), np.finfo(dtype).min / 4.0, dtype=dtype), k=1)
    return T.softmax(scores + T.Tensor(mask), axis=-1) @ v


def composed_linear_attention(q, k, v):
    """Causally masked linear attention of (..., N, e) inputs from
    elementary taped ops: q k^T times the 0/1 lower triangle, then @ v."""
    n = q.data.shape[-2]
    mask = T.Tensor(np.tril(np.ones((n, n), dtype=q.data.dtype)))
    return ((q @ _transposed(k)) * mask) @ v


# --------------------------------------------------------------------------
# gradient check
# --------------------------------------------------------------------------

def grad_check(f, x, h=1e-5):
    """Max relative error between taped and central-difference gradients.

    ``f`` must map the float64 tensor ``x`` to a scalar tensor. Returns
    max over coordinates of |g_ad - g_fd| / max(1, |g_fd|). A tensor the
    loss never touches yields an exactly-zero taped gradient.
    """
    x.grad = None
    out = f(x)
    T.backward(out)
    g_ad = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    g_fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd_flat = g_fd.reshape(-1)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(x).item()
            flat[i] = orig - h
            fm = f(x).item()
            flat[i] = orig
            fd_flat[i] = (fp - fm) / (2.0 * h)
    err = np.abs(g_ad - g_fd) / np.maximum(1.0, np.abs(g_fd))
    return float(err.max()) if err.size else 0.0


def assert_same_bits(got, want):
    """``got`` has ``want``'s dtype and bits: -0.0 differs from 0.0."""
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    uint = f"u{want.dtype.itemsize}"
    np.testing.assert_array_equal(got.view(uint), want.view(uint))


# --------------------------------------------------------------------------
# scan equivalence
# --------------------------------------------------------------------------

def run_scan(scan, a):
    """``scan`` on the tensors ``a`` by name: alpha, beta1, q, the
    (B, N, L, d) key and column stacks k and c, and an optional start
    state s0, either (B, d, d) or one (d, d) state broadcast over the
    batch by a taped add (zeros when absent). Returns (out, s_n)."""
    bsz, _, d = a["q"].shape
    s0 = T.zeros((bsz, d, d))
    if "s0" in a:
        s0 = a["s0"] + s0
    return scan(a["alpha"], a["beta1"], a["k"], a["c"], a["q"], s0)


def assert_chunked_scan_matches_serial(arrays, chunk):
    """``chunked_scan``'s readouts, end state and the gradients of a fixed
    linear loss with respect to every array of ``run_scan``'s inputs, s0's
    included, equal ``scan_core``'s to 1e-10 (float64)."""
    rng = np.random.default_rng(0)
    bsz, n, d = arrays["q"].shape
    w_out = T.Tensor(rng.standard_normal((bsz, n, d)))
    w_sn = T.Tensor(rng.standard_normal((bsz, d, d)))
    runs = []
    for scan in (scan_core, lambda *args: chunked_scan(*args, chunk=chunk)):
        ts = {name: T.Tensor(a, requires_grad=True) for name, a in arrays.items()}
        out, s_n = run_scan(scan, ts)
        T.backward((out * w_out).sum() + (s_n * w_sn).sum())
        runs.append({"out": out.data, "s_n": s_n.data,
                     **{name: t.grad for name, t in ts.items()}})
    want, got = runs
    for name, w in want.items():
        assert np.isfinite(got[name]).all(), name
        np.testing.assert_allclose(got[name], w, rtol=1e-10, atol=1e-10, err_msg=name)


# --------------------------------------------------------------------------
# evaluation on the full logits
# --------------------------------------------------------------------------

def full_logit_evaluate(model, kind: TaskKind, tcfg: TaskConfig, seed, n_samples):
    """(loss, accuracy) of ``train.evaluate`` on the same batches, scored on
    the full (B, N, V) logits: every position runs through the last block's
    MLP, the final layernorm and the head. The query rows are then gathered
    out of them, one gather for the loss and one for the argmax; the loss
    reshapes its rows to (B*Q, V) for ``softmax_cross_entropy``."""
    total_loss = total_acc = 0.0
    with T.no_grad():
        for done in range(0, n_samples, train.EVAL_BATCH):
            b = min(train.EVAL_BATCH, n_samples - done)
            tokens, qpos, tgt = generate_batch(kind, tcfg, b, seed=seed_list(seed) + [done])
            logits = model.forward(tokens)
            rows = np.arange(b)[:, None]
            picked = logits[rows, qpos]
            flat = T.reshape(picked, (tgt.size, picked.shape[-1]))
            total_loss += T.softmax_cross_entropy(flat, tgt.reshape(-1)).item() * b
            pred = logits.data[rows, qpos].argmax(axis=-1)
            total_acc += float((pred == tgt).mean()) * b
    return total_loss / n_samples, total_acc / n_samples
