"""The PRISM layer: input-anchored terms, rank-L accumulation, and the
decoupled linear recurrence.

The state update is right-multiplicative,

    S_t = alpha_t * (S_{t-1} - beta1_t (S_{t-1} k1_t) (x) k1_t) + C_t K_t,
    y_t = OutProj(S_t q_t),

with the injection C_t K_t = sum_l c^(l)_t (x) k^(l)_t of rank at most L
carried as its factors, never as a dense (d, d) matrix: the keys and
columns of the L pairs are (B, N, L, d) stacks, forget pair first. Every
transition operator depends only on the input prefix, never on the running
state, which is what makes the chunked scan legal.

Both rollouts take a (B, N, d) batch, run every sequence from a zero
state, and return (y (B, N, d), S_N (B, d, d)). They share the anchor, the
step terms and the fused rank-L injection, and differ in the recurrence,
one fused tape node with a hand-derived backward each:

  * ``chunked_forward`` trains and evaluates. Its ``chunked_scan`` solves
    each chunk of ``PrismConfig.chunk`` steps in WY form (chunkwise
    DeltaNet with a scalar decay) and loops only over chunk boundaries.
    ``chunked_scan_forward`` is the same rollout without the tape.
  * ``serial_forward`` steps ``scan_core`` through all N steps. It is the
    oracle the chunked path is tested against, in outputs and gradients.
    Its forward runs in transition form, S_t = S_{t-1} A_t + C_t K_t with
    A_t = alpha_t (I - beta1_t k1_t k1_t^T): every C_t K_t comes from one
    batched product, the A_t are formed a block of steps at a time, and a
    step is one (d x d) product and one add.

Both scans raise ShapeError for misfit or mixed-dtype inputs. They and
``models.blocked_gated_scan`` run their forwards under ``np.errstate`` and
report a non-finite rollout through ``non_finite_step``: NumericError at
the first step whose readout is not finite, else at the last step of the
first stored state that is not. ``scale_into_unit_ball`` and
``rank_accumulate`` warn nothing either, so a non-finite weight upstream
of the scan reaches that report.

This module holds the layer only. In a model, PRISM is one more mixer of
``models.MixerBlockParams``, the pre-norm residual block every model uses:
the block runs ``chunked_forward`` and mixes with its y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import check_int
from .errors import NumericError, ShapeError
from .tensor import Tensor


@dataclass
class PrismConfig:
    d: int = 16
    L: int = 2
    w: int = 4
    chunk: int = 16

    def __post_init__(self):
        for name in ("d", "L", "w", "chunk"):
            check_int(f"PrismConfig.{name}", getattr(self, name), 1)


@dataclass
class PrismParams(T.Params):
    """Learnable weights of one PRISM layer (all stored for right
    multiplication: projected = row_vector @ W). Column l of w_beta, and
    column block l of w_k and of w_p, belong to pair l; block l is the l-th
    (d, d) matrix its group draws."""

    conv: Tensor          # (w, d) depthwise causal kernel
    w_q: Tensor           # (d, d)
    w_v: Tensor           # (d, d)
    w_alpha: Tensor       # (d, 1) -> scalar gate pre-activation
    w_k: Tensor           # (d, L*d)
    w_p: Tensor           # (d, L*d)
    w_beta: Tensor        # (d, L)
    w_o: Tensor           # (d, d) output projection

    @classmethod
    def init(cls, rng, cfg: PrismConfig, dtype=np.float64):
        d, w = cfg.d, cfg.w
        kern = rng.standard_normal((w, d)) * (0.5 / w)
        kern[-1] += 1.0  # start near the identity tap: u ~ silu(x)
        return cls(
            conv=T.Tensor(kern.astype(dtype), requires_grad=True),
            w_q=T.randn(rng, (d, d), dtype), w_v=T.randn(rng, (d, d), dtype),
            w_alpha=T.zeros((d, 1), dtype=dtype, requires_grad=True),
            w_k=T.randn(rng, (d, d), dtype, cfg.L), w_p=T.randn(rng, (d, d), dtype, cfg.L),
            w_beta=T.zeros((d, cfg.L), dtype=dtype, requires_grad=True),
            w_o=T.randn(rng, (d, d), dtype),
        )


@dataclass
class StepTerms:
    """Per-step quantities of one sequence (leading batch axis).

    u, q, v: (B, N, d); alpha: (B, N); the L pairs, stacked on axis 2:
    k, p: (B, N, L, d), beta: (B, N, L). Gates are post-sigmoid, in (0, 1);
    the forget key k[:, :, 0] is rescaled into the unit ball.
    """

    u: Tensor
    q: Tensor
    v: Tensor
    alpha: Tensor
    k: Tensor
    p: Tensor
    beta: Tensor


# --------------------------------------------------------------------------
# term computation
# --------------------------------------------------------------------------

def compute_anchor(x: Tensor, params: PrismParams) -> Tensor:
    """Input anchor u = SiLU(causal depthwise conv of x). Causal by
    construction."""
    return T.silu(T.causal_depthwise_conv1d(x, params.conv))


def scale_into_unit_ball(k: Tensor) -> Tensor:
    """Rescale the forget key k[..., 0, :] of a (..., L, d) key stack by
    1 / max(1, ||k[..., 0, :]||_2). The other keys pass unchanged.
    ``fmax`` gives a NaN norm scale 1, so a NaN entry does not spread over
    its row. The forward warns nothing for a non-finite key, which the
    scan then reports at its step."""
    kd = k.data
    k1 = kd[..., 0, :]
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.sqrt((k1 * k1).sum(axis=-1, keepdims=True))
        big = n > 1.0
        scale = 1.0 / np.fmax(n, 1.0)
        out_data = kd.copy()
        out1 = out_data[..., 0, :]
        out1 *= scale

    def back(g):
        # Inside the ball the map is the identity; outside it is k / ||k||,
        # whose Jacobian is (I - uu^T)/||k|| with u the unit output row.
        g1 = g[..., 0, :]
        inner = (g1 * out1).sum(axis=-1, keepdims=True)
        g_k = g.copy()
        g_k[..., 0, :] = np.where(big, (g1 - out1 * inner) * scale, g1)
        return (g_k,)

    return T.custom_op(out_data, (k,), back)


def compute_step_terms(u: Tensor, params: PrismParams, cfg: PrismConfig) -> StepTerms:
    """Project the anchor into all per-step quantities, one product each.

    alpha_t = sigmoid(u_t . w_alpha); beta^(l)_t = sigmoid(u_t . w_beta^(l));
    k, p, q, v are plain linear maps of u. k^(1) is pulled into the unit
    ball, satisfying the spectrum bound's hypothesis.
    """
    steps = u.data.shape[:-1]
    pairs = steps + (cfg.L, cfg.d)
    return StepTerms(u=u, q=u @ params.w_q, v=u @ params.w_v,
                     alpha=T.reshape(T.sigmoid(u @ params.w_alpha), steps),
                     k=scale_into_unit_ball(T.reshape(u @ params.w_k, pairs)),
                     p=T.reshape(u @ params.w_p, pairs),
                     beta=T.sigmoid(u @ params.w_beta))


# --------------------------------------------------------------------------
# fused rank-L accumulation
# --------------------------------------------------------------------------

def rank_accumulate(terms: StepTerms):
    """The L columns of the injection, by anchored residual refinement.

    r^(1) = v - u; per pair l < L (the size of p's pair axis): delta =
    GELU(p^(l) * r^(l)), c^(l) = beta^(l) delta, r^(l+1) = r^(l) - delta.
    The injection sum_l c^(l) (x) k^(l) stays factored: no key is an input.

    Returns (cols, residuals): the (B, N, L, d) columns as one fused tape
    node, and r^(1) .. r^(L+1) as one untaped (L+1, B, N, d) tensor. The
    forward keeps Phi(z) of each pair; GELU' is formed from it only when
    the backward runs, so a call without the tape never forms it. The
    forward warns nothing for a non-finite input, which the scan then
    reports at its step.
    """
    v, u, p, beta = terms.v, terms.u, terms.p, terms.beta
    pd, bd = p.data, beta.data
    n_l = pd.shape[-2]
    res = np.empty((n_l + 1,) + v.data.shape, dtype=pd.dtype)
    # Phi(z) and delta stay numpy's own arrays: preallocated stacks were slower.
    cdfs, deltas = [], []
    cols = np.empty_like(pd)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(v.data, u.data, out=res[0])
        for l in range(n_l):
            delta = pd[..., l, :] * res[l]
            cdfs.append(T.normal_cdf(delta))
            delta *= cdfs[l]
            deltas.append(delta)
            np.subtract(res[l], delta, out=res[l + 1])
            np.multiply(bd[..., l, None], delta, out=cols[..., l, :])

    def back(g):
        grad = np.zeros_like(res[0])  # d loss / d r^(l+1); residuals are untaped
        g_p, g_beta = np.empty_like(pd), np.empty_like(bd)
        for l in range(n_l - 1, -1, -1):
            # Pair slices are strided rows, read twice: numpy pays per row.
            p_l, g_l = np.ascontiguousarray(pd[..., l, :]), np.ascontiguousarray(g[..., l, :])
            g_beta[..., l] = (g_l * deltas[l]).sum(axis=-1)
            gder = T.gelu_slope(p_l * res[l], cdfs[l])
            t_l = (bd[..., l, None] * g_l - grad) * gder
            g_p[..., l, :] = t_l * res[l]
            grad = grad + t_l * p_l
        return grad, -grad, g_p, g_beta

    return T.custom_op(cols, (v, u, p, beta), back), Tensor(res)


# --------------------------------------------------------------------------
# rollouts
# --------------------------------------------------------------------------

def _check_scan_args(alpha, beta1, k, cols, q, s0):
    """ShapeError unless the scan inputs share one dtype and fit together:
    q (B, N, d), alpha and beta1 (B, N), the pairs k, cols (B, N, L, d), s0 (B, d, d)."""
    dtypes = [str(t.data.dtype) for t in (alpha, beta1, k, cols, q, s0)]
    if len(set(dtypes)) > 1:
        raise ShapeError(f"scan needs alpha, beta1, k, cols, q, s0 of one dtype, got {dtypes}")
    ks, qs = k.data.shape, q.data.shape
    if ks != cols.data.shape:
        raise ShapeError(f"injection keys {ks} and columns {cols.data.shape} differ")
    if len(qs) != 3:
        raise ShapeError(f"readout queries q {qs} are not (B, N, d)")
    bsz, n, d = qs
    for name, shape, want in (("alpha", alpha.data.shape, (bsz, n)),
                              ("beta1", beta1.data.shape, (bsz, n)),
                              ("k", ks, (bsz, n) + ks[2:3] + (d,)),
                              ("s0", s0.data.shape, (bsz, d, d))):
        if shape != want:
            raise ShapeError(f"scan input {name} is {shape}, expected {want} for q {qs}")


_BLOCK = 64  # steps whose transitions scan_core forms at once, in one reused buffer


def scan_core(alpha: Tensor, beta1: Tensor, k: Tensor, cols: Tensor, q: Tensor,
              s0: Tensor):
    """Differentiable serial rollout (one fused tape node).

    alpha, beta1: (B, N); q: (B, N, d); s0: (B, d, d); k, cols: the
    (B, N, L, d) pair stacks, k[:, :, 0] the forget key k1. Step t adds the
    injection as C_t K_t, with the columns cols[:, t] in C_t (d x L) and
    the keys k[:, t] as the rows of K_t. Returns (readout (B, N, d), s_n
    (B, d, d)) with readout_t = S_t q_t.

    The forward runs in transition form, S_t = S_{t-1} A_t + C_t K_t with
    A_t = alpha_t (I - beta1_t k1_t k1_t^T). One batched product writes
    every C_t K_t into the state history; the A_t are formed ``_BLOCK``
    steps at a time into one reused buffer; each step is then one (d x d)
    product and one add. The readouts come from one product over the
    history after the loop, and so does the backward's m_t = S_{t-1} k1_t,
    formed only when the backward runs.

    Raises ShapeError for misfit or mixed-dtype inputs, NumericError whose
    ``step`` is the first step with a non-finite readout, else with a
    non-finite state (a BLAS may skip a zero query entry of a bad state).
    """
    _check_scan_args(alpha, beta1, k, cols, q, s0)
    ad, bd, kmat, cmat, qd, s0d = (t.data for t in (alpha, beta1, k, cols, q, s0))
    bsz, n, d = qd.shape
    # Step-major: every step's (B, d, d) state, and every transition, is
    # one contiguous block, which the step loop's small products need.
    k1 = kmat[:, :, 0].swapaxes(0, 1)
    s_hist = np.empty((n + 1, bsz, d, d), dtype=s0d.dtype)
    s_hist[0] = s0d
    blk = min(_BLOCK, n)
    # A flat buffer, so that the diagonals of its transitions are one view.
    a_flat = np.empty((blk, bsz, d * d), dtype=s0d.dtype)
    a_blk = a_flat.reshape(blk, bsz, d, d)
    tmp = np.empty((bsz, d, d), dtype=s0d.dtype)
    out = np.empty((bsz, n, d), dtype=s0d.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(_swap(cmat).swapaxes(0, 1), kmat.swapaxes(0, 1), out=s_hist[1:])
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            a, ab = a_blk[:hi - lo], ad[:, lo:hi].T
            np.multiply(k1[lo:hi, :, :, None], k1[lo:hi, :, None, :], out=a)
            a *= (-ab * bd[:, lo:hi].T)[:, :, None, None]
            a_flat[:hi - lo, :, ::d + 1] += ab[:, :, None]
            for t in range(lo, hi):
                np.matmul(s_hist[t], a[t - lo], out=tmp)
                s_hist[t + 1] += tmp
        np.matmul(s_hist[1:], qd.swapaxes(0, 1)[..., None], out=out.swapaxes(0, 1)[..., None])
        step = non_finite_step(out.swapaxes(0, 1), s_hist[1:])
    if step is not None:
        raise NumericError(f"readout or state became non-finite at step {step}", step=step)

    def back(g_out, g_sn):
        m_hist = (s_hist[:-1] @ k1[..., None])[..., 0]
        grad_s = g_sn.copy()
        g_a, g_b1, g_q = np.empty_like(ad), np.empty_like(bd), np.empty_like(qd)
        g_k, g_c = np.empty_like(kmat), np.empty_like(cmat)
        for t in range(n - 1, -1, -1):
            kt = kmat[:, t, 0]
            m = m_hist[t]
            s_prev = s_hist[t]
            st = s_hist[t + 1]
            go = g_out[:, t]
            # readout_t = S_t q_t
            grad_s += go[:, :, None] * qd[:, t][:, None, :]
            g_q[:, t] = (np.swapaxes(st, 1, 2) @ go[:, :, None])[:, :, 0]
            # S_t = a * (S_prev - b1 * m (x) k1) + C_t K_t
            g_c[:, t] = kmat[:, t] @ np.swapaxes(grad_s, 1, 2)       # (G K^T)^T
            g_k[:, t] = cmat[:, t] @ grad_s                          # C^T G
            decayed = s_prev - bd[:, t, None, None] * (m[:, :, None] * kt[:, None, :])
            g_a[:, t] = (grad_s * decayed).sum(axis=(1, 2))
            at = ad[:, t, None]
            w2 = g_c[:, t, 0]                                         # G k1
            w1 = (np.swapaxes(grad_s, 1, 2) @ m[:, :, None])[:, :, 0]  # G^T m
            g_b1[:, t] = -(ad[:, t]) * (m * w2).sum(axis=1)
            g_k[:, t, 0] -= (at * bd[:, t, None]) * (
                (np.swapaxes(s_prev, 1, 2) @ w2[:, :, None])[:, :, 0] + w1)
            # G_{t-1} = a * (G - b1 * (G k1) (x) k1)
            grad_s = ad[:, t, None, None] * (
                grad_s - bd[:, t, None, None] * (w2[:, :, None] * kt[:, None, :]))
        return g_a, g_b1, g_k, g_c, g_q, grad_s

    return T.custom_op_multi((out, s_hist[n].copy()), (alpha, beta1, k, cols, q, s0),
                             back)


def _swap(a):
    return np.swapaxes(a, -1, -2)


def _unit_lower_inverse(m):
    """(I + M)^-1 for strictly lower triangular M of shape (..., c, c), by
    forward substitution, one row per step. The Neumann series of the same
    inverse has terms up to C(c-1, c/2) in size when beta1 is near 1 and
    the keys are aligned unit vectors, which float32 cannot sum.
    ``np.linalg.inv(I + M)`` is 6-9x slower at the training shapes (float32,
    one BLAS thread): 6.3 ms against 0.74 ms at (4, 128, 16, 16), and 1.8 ms
    against 0.29 ms at (32, 8, 16, 16)."""
    c = m.shape[-1]
    inv = np.zeros_like(m)
    inv[..., range(c), range(c)] = 1.0
    for t in range(1, c):
        inv[..., t, :t] = -(m[..., t, None, :t] @ inv[..., :t, :t])[..., 0, :]
    return inv


def flush_subnormals(g):
    """Zero, in place, every subnormal value of g (0 < |g| < tiny). Other
    values, signed zeros included, keep their bits."""
    g *= np.abs(g) >= np.finfo(g.dtype).tiny


def non_finite_step(readout, states=None, span=1):
    """The step a non-finite rollout reports, or None: the first t with ``readout[t]`` not
    finite, else min((j + 1) span, len(readout)) - 1 for the first such ``states[j]``."""
    def first_bad(a):
        return int(np.isfinite(a).all(axis=tuple(range(1, a.ndim))).argmin())
    if not np.isfinite(readout).all():
        return first_bad(readout)
    if states is not None and not np.isfinite(states).all():
        return min((first_bad(states) + 1) * span, len(readout)) - 1
    return None


def _fold(x, c):
    """Sum the blocks of width c along the last axis: the L write pairs."""
    return x.reshape(x.shape[:-1] + (x.shape[-1] // c, c)).sum(axis=-2)


def _chunked(arr, c):
    """(B, N, ...) -> (B, ceil(N / c), c, ...), padded with zero steps."""
    bsz, n = arr.shape[:2]
    pad = -n % c
    if pad:
        arr = np.concatenate([arr, np.zeros((bsz, pad) + arr.shape[2:], arr.dtype)],
                             axis=1)
    return arr.reshape((bsz, (n + pad) // c, c) + arr.shape[2:])


def _wy_inputs(la, b, k, cols, q, c):
    """Scan inputs as raw (B, N, ...) arrays, cut into M chunks of c steps.

    The L injection pairs only widen the write side: the (B, N, L, d) keys
    and columns become one (B, M, L c, d) block each, pair-major inside a
    chunk (row l c + s is pair l at step s), so the forget keys are its
    first c rows. Padded steps are identity steps (log alpha 0, all else 0).
    """
    def wide(a):
        chunks = _chunked(a, c)                     # (B, M, c, L, d)
        bsz, n_ch, _, n_l, d = chunks.shape
        return chunks.swapaxes(2, 3).reshape(bsz, n_ch, n_l * c, d)
    return _chunked(la, c), _chunked(b, c), wide(k), wide(cols), _chunked(q, c)


@dataclass
class _Chunks:
    """The parts of every chunk that do not depend on its start state S0.

    With t a step of the chunk and (l, s) a write, pair l at step s (index l c + s):
    e (B, M, c+1, c+1) holds the decay ratios e[t, s] = alpha_{s+1} ...
    alpha_t for s <= t and zeros above the diagonal, index 0 being the
    chunk start; gram and qk (B, M, c, L c) hold k1_t . k_l,s and
    q_t . k_l,s; m and p (B, M, c, L c) hold beta1_t e[t, s] k1_t . k_l,s
    for s < t and e[t, s] q_t . k_l,s for s <= t; tinv (B, M, c, c) is
    (I + m_0)^-1, m_0 the block of the forget key. The erases are
    W = u S0^T + tinv m C and the write values V = C - [W; 0] =
    v_c - [u S0^T; 0]; with dk = diag(e[c, s]) K, the chunk's end state is
    S0 a_ch + v_c^T dk. u is (B, M, c, d), v_c and dk (B, M, L c, d).

    ``_chunk_terms`` returns v_c = C - [tinv m C; 0]. Once the start states
    are known, ``_wy_forward`` subtracts [u S0^T; 0] in place, so v_c holds
    V from then on, which is what the backward reads.
    """

    e: np.ndarray
    gram: np.ndarray
    qk: np.ndarray
    m: np.ndarray
    p: np.ndarray
    tinv: np.ndarray
    u: np.ndarray
    v_c: np.ndarray
    dk: np.ndarray
    a_ch: np.ndarray


def _chunk_terms(la, b, kw, cw, q) -> _Chunks:
    """la, b: (B, M, c) log alpha and beta1; kw, cw: (B, M, L c, d) write
    keys and columns; q: (B, M, c, d)."""
    bsz, n_ch, c = la.shape
    g = np.concatenate([np.zeros((bsz, n_ch, 1), la.dtype),
                        np.cumsum(la, axis=-1)], axis=-1)
    # Ratios as exp of differences of cumulative log alpha; the mask goes
    # in before exp, so no entry above the diagonal overflows.
    e = np.exp(np.where(np.tri(c + 1, dtype=bool),
                        g[..., :, None] - g[..., None, :], -np.inf))
    ei = e[..., 1:, 1:]
    wide = (bsz, n_ch, c, kw.shape[2] // c, c)  # (t, l, s)
    k1 = kw[:, :, :c]
    gram = k1 @ _swap(kw)
    qk = q @ _swap(kw)
    strict = ei * np.tri(c, k=-1, dtype=ei.dtype)
    m = (strict * b[..., None])[..., None, :] * gram.reshape(wide)
    tinv = _unit_lower_inverse(m[..., 0, :])
    m = m.reshape(gram.shape)
    u = tinv @ ((b * e[..., 1:, 0])[..., None] * k1)
    v_c = cw.copy()
    v_c[:, :, :c] -= tinv @ (m @ cw)
    dk = np.tile(e[..., c, 1:], kw.shape[2] // c)[..., None] * kw
    a_ch = (e[..., c, 0, None, None] * np.eye(q.shape[-1], dtype=q.dtype)
            - _swap(u) @ dk[:, :, :c])
    return _Chunks(e=e, gram=gram, qk=qk, m=m,
                   p=(ei[..., None, :] * qk.reshape(wide)).reshape(qk.shape),
                   tinv=tinv, u=u, v_c=v_c, dk=dk, a_ch=a_ch)


def _wy_forward(la, b, kw, cw, q, s0):
    """Readouts (B, M, c, d), the M+1 chunk-boundary states (B, M+1, d, d)
    and the ``_Chunks`` they were built from, whose v_c then holds the write
    values V; see ``chunked_scan`` for the algebra."""
    n_ch, c = la.shape[1:]
    ch = _chunk_terms(la, b, kw, cw, q)
    b_ch = _swap(ch.v_c) @ ch.dk
    bounds = np.empty((s0.shape[0], n_ch + 1) + s0.shape[1:], dtype=s0.dtype)
    bounds[:, 0] = s0
    for j in range(n_ch):
        bounds[:, j + 1] = bounds[:, j] @ ch.a_ch[:, j] + b_ch[:, j]
    s_t = _swap(bounds[:, :n_ch])
    ch.v_c[:, :, :c] -= ch.u @ s_t
    return ch.e[..., 1:, 0, None] * (q @ s_t) + ch.p @ ch.v_c, bounds, ch


def _serial_step(raw, bounds, c, step):
    """The step a chunked rollout reports for a bad readout at ``step``: the masked products
    spread a bad input over its chunk (0 * inf), so that chunk is rerun one step per chunk."""
    lo = step - step % c
    out, _, _ = _wy_forward(*_wy_inputs(*(a[:, lo:lo + c] for a in raw), 1), bounds[:, lo // c])
    bad = non_finite_step(out[:, :, 0].swapaxes(0, 1))
    return step if bad is None else lo + bad


def chunked_scan(alpha: Tensor, beta1: Tensor, k: Tensor, cols: Tensor, q: Tensor,
                 s0: Tensor, chunk: int):
    """Differentiable chunked rollout in WY form (one fused tape node).

    Takes the arguments of ``scan_core`` and computes what it computes,
    ``chunk`` steps at a time. alpha must be >= 0 (it is a sigmoid gate).

    Inside a chunk with start state S0 and decay ratios e[t, s] =
    alpha_{s+1} ... alpha_t, the erase of step t is w_t = alpha_t beta1_t
    S_{t-1} k1_t, and S_t = e[t, 0] S0 + sum_{s <= t} e[t, s]
    (sum_l c_l,s (x) k_l,s - w_s (x) k1_s). The erases of a chunk solve
    one unit lower triangular system (I + m_0) W = diag(beta1 e[:, 0])
    K1 S0^T + sum_l m_l C_l, whose matrix depends only on the inputs. The
    readouts and the end state are then masked (c x c) and (c x d)
    products, affine in S0, so only the chunk-boundary states run in a
    sequential loop. Ratios are exp of differences of cumulative log alpha;
    alpha = 0 enters as the smallest normal float.

    The backward is hand-derived. Between the passes a taped call keeps
    the (B, N/c + 1, d, d) boundary states and the ``_Chunks`` its forward
    built, and the backward reads the inside of every chunk from them
    instead of rebuilding it. That costs about B N (4 L c + 2 L d + 2 c +
    d + d^2 / c) floats, 256 per token at d 16, L 2, c 16 (8 MB per call
    in float32 at B 4, N 2048). An untaped call keeps nothing.

    With alpha near 0.5 the state gradient halves at every step back in
    time, so float32 gradients pass through the subnormal range, where
    every product takes a slow path. The backward zeroes subnormal values
    where they arise: in the boundary-state gradients, before the products
    of the chunk interiors, and in every gradient it returns. Float64
    values this small do not occur in practice.

    Raises ShapeError for misfit or mixed-dtype inputs, ConfigError
    unless ``chunk`` is an int >= 1, and NumericError whose ``step`` is the
    first step with a non-finite readout, or, if every readout is finite,
    the last step of the first chunk whose end state is not.
    """
    _check_scan_args(alpha, beta1, k, cols, q, s0)
    chunk = check_int("chunk", chunk, 1)
    bsz, n, d = q.data.shape
    c = min(chunk, max(n, 1))
    raw = (np.log(np.maximum(alpha.data, np.finfo(q.data.dtype).tiny)), beta1.data,
           k.data, cols.data, q.data)
    la, b, kw, cw, qm = _wy_inputs(*raw, c)
    n_ch = la.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        out, bounds, ch = _wy_forward(la, b, kw, cw, qm, s0.data)
        readout = out.reshape(bsz, n_ch * c, d)[:, :n]
        step = non_finite_step(readout.swapaxes(0, 1), bounds[:, 1:].swapaxes(0, 1), c)
        if step is not None:
            if not np.isfinite(readout[:, step]).all():  # a readout, not a chunk end
                step = _serial_step(raw, bounds, c, step)
            raise NumericError(f"readout or state became non-finite at step {step}", step=step)

    def back(g_out, g_sn):
        e, gram, qk, m, p, tinv, u, v, dk = (
            ch.e, ch.gram, ch.qk, ch.m, ch.p, ch.tinv, ch.u, ch.v_c, ch.dk)
        n_l = kw.shape[2] // c
        wide = (bsz, n_ch, c, n_l, c)
        gam, ei = e[..., 1:, 0], e[..., 1:, 1:]
        k1 = kw[:, :, :c]
        s_start = bounds[:, :n_ch]
        s_t = _swap(s_start)
        w = cw[:, :, :c] - v[:, :, :c]
        d_o = _chunked(g_out, c)

        # Gradients of the boundary states, one (d x d) step per chunk:
        # G_j = G_{j+1} a_ch^T + dO^T (gam Q - p_0 u).
        g_bound = _swap(d_o) @ (gam[..., None] * qm - p[..., :c] @ u)
        g_end = np.empty_like(bounds[:, 1:])
        grad = g_sn
        for j in range(n_ch - 1, -1, -1):
            g_end[:, j] = grad
            grad = grad @ _swap(ch.a_ch[:, j]) + g_bound[:, j]
        flush_subnormals(g_end)

        # out = diag(gam) Q S0^T + p V
        d_gam = (d_o * (qm @ s_t)).sum(axis=-1)
        d_q = gam[..., None] * (d_o @ s_start)
        d_p = d_o @ _swap(v)
        d_v = _swap(p) @ d_o
        # end = e[c, 0] S0 + V^T dk, dk = diag(e[c, s]) K
        d_gc = (g_end * s_start).sum(axis=(-1, -2))
        d_v += dk @ _swap(g_end)
        vg = v @ g_end
        d_k = np.tile(e[..., c, 1:], n_l)[..., None] * vg
        d_dlt = _fold((vg * kw).sum(axis=-1), c)
        # V = C - [W; 0], W = tinv X, X = diag(beta1 gam) K1 S0^T + m C
        d_x = _swap(tinv) @ -d_v[:, :, :c]
        d_bg = (d_x * (k1 @ s_t)).sum(axis=-1)
        d_b, d_gam = d_bg * gam, d_gam + d_bg * b
        d_k[:, :, :c] += (b * gam)[..., None] * (d_x @ s_start)
        d_m = d_x @ _swap(cw)
        d_m[..., :c] -= d_x @ _swap(w)                # through tinv
        d_c = d_v + _swap(m) @ d_x
        # m = beta1_t e[t, s] gram (s < t), p = e[t, s] qk (s <= t)
        strict = ei * np.tri(c, k=-1, dtype=ei.dtype)
        dm_g = _fold(d_m * gram, c)
        d_b += (dm_g * strict).sum(axis=-1)
        d_gram = d_m.reshape(wide) * (strict * b[..., None])[..., None, :]
        d_gram = d_gram.reshape(gram.shape)
        d_qk = (d_p.reshape(wide) * ei[..., None, :]).reshape(qk.shape)
        d_k[:, :, :c] += d_gram @ kw
        d_k += _swap(d_gram) @ k1 + _swap(d_qk) @ qm
        d_q += d_qk @ kw
        # d e[t, s] / d alpha_j = e[t, j] e[j-1, s] for s < j <= t: no
        # division by alpha, so alpha = 0 has its true gradient. Entries of
        # d_e on and above the diagonal meet zeros of e.
        d_e = np.zeros_like(e)
        d_e[..., 1:, 1:] = b[..., None] * dm_g + _fold(d_p * qk, c)
        d_e[..., 1:, 0] += d_gam
        d_e[..., c, 1:] += d_dlt
        d_e[..., c, 0] += d_gc
        d_a = ((_swap(e) @ d_e)[..., 1:, :] * e[..., :-1, :]).sum(axis=-1)

        def unchunk(arr):
            return arr.reshape((bsz, n_ch * c) + arr.shape[3:])[:, :n]

        def pairs(arr):
            return unchunk(arr.reshape(bsz, n_ch, n_l, c, d).swapaxes(2, 3))

        grads = (unchunk(d_a), unchunk(d_b), pairs(d_k), pairs(d_c), unchunk(d_q), grad)
        for g in grads:
            flush_subnormals(g)
        return grads

    return T.custom_op_multi((readout, bounds[:, n_ch]),
                             (alpha, beta1, k, cols, q, s0), back)


def _rollout(x: Tensor, params: PrismParams, cfg: PrismConfig, scan):
    """Anchor, terms, rank-L injection, then ``scan`` from a zero state and
    the projected readout: (y, s_n)."""
    if x.data.ndim != 3 or x.data.shape[2] != cfg.d:
        raise ShapeError(f"input {x.data.shape} is not (B, N, config d = {cfg.d})")
    bsz, _, d = x.data.shape
    u = compute_anchor(x, params)
    terms = compute_step_terms(u, params, cfg)
    cols, _ = rank_accumulate(terms)
    readout, s_n = scan(terms.alpha, terms.beta[:, :, 0], terms.k, cols, terms.q,
                        T.zeros((bsz, d, d), dtype=x.data.dtype))
    return readout @ params.w_o, s_n


def serial_forward(x: Tensor, params: PrismParams, cfg: PrismConfig):
    """Differentiable PRISM rollout through the N-step ``scan_core``: the
    test oracle of ``chunked_forward``."""
    return _rollout(x, params, cfg, scan_core)


def chunked_forward(x: Tensor, params: PrismParams, cfg: PrismConfig):
    """Differentiable PRISM rollout through ``chunked_scan`` with chunks of
    ``cfg.chunk`` steps: the path that trains and evaluates. Agrees with
    ``serial_forward`` in outputs, final state and every gradient to float
    tolerance."""
    return _rollout(x, params, cfg, lambda *args: chunked_scan(*args, chunk=cfg.chunk))


def chunked_scan_forward(x: Tensor, params: PrismParams, cfg: PrismConfig):
    """``chunked_forward`` without the tape: records no node and carries no
    gradient, even when the parameters require one."""
    with T.no_grad():
        return chunked_forward(x, params, cfg)

