"""The PRISM layer: input-anchored terms, rank-L accumulation, and the
decoupled linear recurrence.

The state update is right-multiplicative,

    S_t = alpha_t * (S_{t-1} - beta1_t (S_{t-1} k1_t) (x) k1_t) + C_t K_t,
    y_t = OutProj(S_t q_t),

with the injection C_t K_t = sum_l c^(l)_t (x) k^(l)_t of rank at most L
carried as its L factor pairs (only ``dense_transitions`` forms it
densely). Every transition operator depends only on the input prefix,
never on the running state, which is what makes the chunked scan legal.

Two forward paths are provided: ``serial_forward`` (differentiable; the
injection and the recurrence each run as one fused tape node with a
hand-derived backward) and ``chunked_scan_forward`` (forward-only;
per-chunk local composition plus a sequential cross-chunk combine). They
agree to float tolerance and are tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericError, ShapeError
from .tensor import Tensor


@dataclass
class PrismConfig:
    d: int = 16
    L: int = 2
    w: int = 4
    chunk: int = 16

    def __post_init__(self):
        for name in ("d", "L", "w", "chunk"):
            if getattr(self, name) < 1:
                raise ConfigError(f"PrismConfig.{name} must be >= 1")


@dataclass
class PrismParams:
    """Learnable weights of one PRISM layer (all stored for right
    multiplication: projected = row_vector @ W)."""

    conv: Tensor          # (w, d) depthwise causal kernel
    w_q: Tensor           # (d, d)
    w_v: Tensor           # (d, d)
    w_alpha: Tensor       # (d,) -> scalar gate pre-activation
    w_k: list             # L x (d, d)
    w_p: list             # L x (d, d)
    w_beta: list          # L x (d,)
    w_o: Tensor           # (d, d) output projection

    @classmethod
    def init(cls, rng, cfg: PrismConfig, dtype=np.float64):
        d, w = cfg.d, cfg.w
        sd = 1.0 / np.sqrt(d)

        def mat():
            return T.Tensor((rng.standard_normal((d, d)) * sd).astype(dtype),
                            requires_grad=True)

        kern = rng.standard_normal((w, d)) * (0.5 / w)
        kern[-1] += 1.0  # start near the identity tap: u ~ silu(x)
        return cls(
            conv=T.Tensor(kern.astype(dtype), requires_grad=True),
            w_q=mat(), w_v=mat(),
            w_alpha=T.Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
            w_k=[mat() for _ in range(cfg.L)],
            w_p=[mat() for _ in range(cfg.L)],
            w_beta=[T.Tensor(np.zeros(d, dtype=dtype), requires_grad=True)
                    for _ in range(cfg.L)],
            w_o=mat(),
        )

    def params(self):
        yield self.conv
        yield self.w_q
        yield self.w_v
        yield self.w_alpha
        yield from self.w_k
        yield from self.w_p
        yield from self.w_beta
        yield self.w_o


@dataclass
class StepTerms:
    """Per-step quantities of one sequence (leading batch axis).

    u, q, v: (B, N, d); alpha: (B, N); per layer l: k[l], p[l]: (B, N, d)
    and beta[l]: (B, N). Gates are post-sigmoid, so alpha and beta lie in
    (0, 1); k[0] is rescaled into the unit ball.
    """

    u: Tensor
    q: Tensor
    v: Tensor
    alpha: Tensor
    k: list = field(default_factory=list)
    p: list = field(default_factory=list)
    beta: list = field(default_factory=list)


@dataclass
class TransitionPair:
    """One step of the linear recurrence, structurally and densely.

    Structured form: A = alpha * (I - beta * k k^T). The dense form is
    materialized on demand and is what the scan composes.
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


# --------------------------------------------------------------------------
# term computation
# --------------------------------------------------------------------------

def _batched(x: Tensor):
    if x.data.ndim == 2:
        return T.reshape(x, (1,) + x.data.shape), False
    if x.data.ndim == 3:
        return x, True
    raise ShapeError(f"expected (N, d) or (B, N, d) input, got {x.data.shape}")


def _initial_state(s0, bsz, d, dtype) -> Tensor:
    """The rollout's starting state as (B, d, d): zeros when ``s0`` is None,
    broadcast over the batch when it is one shared (d, d) state. The
    broadcast is a taped add, so a shared state's gradient sums back to
    (d, d)."""
    if s0 is None:
        return T.zeros((bsz, d, d), dtype=dtype)
    if s0.data.shape not in ((d, d), (bsz, d, d)):
        raise ShapeError(f"initial state {s0.data.shape} is neither (d, d) "
                         f"nor (B, d, d) = {(bsz, d, d)}")
    if s0.data.ndim == 2:
        return s0 + T.zeros((bsz, d, d), dtype=s0.data.dtype)
    return s0


def compute_anchor(x: Tensor, params: PrismParams) -> Tensor:
    """Input anchor u = SiLU(causal depthwise conv of x). Causal by
    construction."""
    return T.silu(T.causal_depthwise_conv1d(x, params.conv))


def scale_into_unit_ball(k: Tensor) -> Tensor:
    """Rescale each row vector by 1 / max(1, ||row||_2)."""
    kd = k.data
    n = np.sqrt((kd * kd).sum(axis=-1, keepdims=True))
    big = n > 1.0
    scale = np.where(big, 1.0 / np.maximum(n, 1e-300), 1.0)
    out_data = kd * scale

    def back(g):
        # Inside the ball the map is the identity; outside it is k / ||k||,
        # whose Jacobian is (I - uu^T)/||k|| with u the unit output row.
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        g_out = (g - out_data * inner) * scale
        return (np.where(big, g_out, g),)

    return T.custom_op(out_data, (k,), back)


def compute_step_terms(u: Tensor, params: PrismParams, cfg: PrismConfig) -> StepTerms:
    """Project the anchor into all per-step quantities.

    alpha_t = sigmoid(u_t . w_alpha); beta^(l)_t = sigmoid(u_t . w_beta^(l));
    k, p, q, v are plain linear maps of u. k^(1) is pulled into the unit
    ball, satisfying the spectrum bound's hypothesis.
    """
    ub, _ = _batched(u)
    alpha = T.sigmoid(ub @ params.w_alpha)
    terms = StepTerms(u=ub, q=ub @ params.w_q, v=ub @ params.w_v, alpha=alpha)
    for l in range(cfg.L):
        k_l = ub @ params.w_k[l]
        if l == 0:
            k_l = scale_into_unit_ball(k_l)
        terms.k.append(k_l)
        terms.p.append(ub @ params.w_p[l])
        terms.beta.append(T.sigmoid(ub @ params.w_beta[l]))
    return terms


# --------------------------------------------------------------------------
# fused rank-L accumulation
# --------------------------------------------------------------------------

def rank_accumulate(terms: StepTerms, v: Tensor, u: Tensor, cfg: PrismConfig):
    """The L columns of the injection, by anchored residual refinement.

    r^(1) = v - u; per layer: delta = GELU(p^(l) * r^(l)),
    c^(l) = beta^(l) delta, r^(l+1) = r^(l) - delta. The injection
    B = sum_l c^(l) (x) k^(l) stays factored, so the keys are no input here.

    Returns (cs, residuals): the L columns, each (..., N, d), as one fused
    tape node, and the L+1 residuals r^(1) .. r^(L+1), untaped.
    """
    L = cfg.L
    ps, bs = terms.p[:L], terms.beta[:L]
    pd, bd = [t.data for t in ps], [t.data for t in bs]
    r = v.data - u.data
    residuals, deltas, gders = [r], [], []
    for l in range(L):
        z = pd[l] * r
        deltas.append(T.gelu_fn(z).astype(r.dtype, copy=False))
        gders.append(T.gelu_deriv_fn(z).astype(r.dtype, copy=False))
        r = r - deltas[l]
        residuals.append(r)
    cs = [bd[l][..., None] * deltas[l] for l in range(L)]

    def back(*g_cs):
        grad = np.zeros_like(r)  # d loss / d r^(l+1); residuals are untaped
        g_ps, g_bs = [None] * L, [None] * L
        for l in range(L - 1, -1, -1):
            g_bs[l] = (g_cs[l] * deltas[l]).sum(axis=-1)
            t_l = (bd[l][..., None] * g_cs[l] - grad) * gders[l]
            g_ps[l] = t_l * residuals[l]
            grad = grad + t_l * pd[l]
        return (grad, -grad, *g_ps, *g_bs)

    cs = T.custom_op_multi(cs, (v, u, *ps, *bs), back)
    return list(cs), [Tensor(res) for res in residuals]


# --------------------------------------------------------------------------
# transitions and rollouts
# --------------------------------------------------------------------------

def dense_transitions(terms: StepTerms, cs):
    """Dense per-step (A, B) arrays, shape (B, N, d, d) each.

    The only place the injection B_t = sum_l c_l (x) k_l is formed: the
    training path carries it as the L factor pairs (``cs``, ``terms.k``).
    """
    k = terms.k[0].data
    kk = k[..., :, None] * k[..., None, :]
    eye = np.eye(k.shape[-1], dtype=k.dtype)
    a = terms.alpha.data[..., None, None] * (eye - terms.beta[0].data[..., None, None] * kk)
    b = np.zeros_like(a)
    for c, k_l in zip(cs, terms.k):
        b += c.data[..., :, None] * k_l.data[..., None, :]
    return a, b


def build_transition(terms: StepTerms, cs, batch=0, t=0) -> TransitionPair:
    """Materialize the transition pair of step ``t`` (analysis path)."""
    _, b = dense_transitions(terms, cs)
    return TransitionPair.from_structured(
        alpha=float(terms.alpha.data[batch, t]),
        beta=float(terms.beta[0].data[batch, t]),
        k=terms.k[0].data[batch, t],
        b=b[batch, t],
    )


def scan_core(alpha: Tensor, beta1: Tensor, ks: list, cs: list, q: Tensor,
              s0: Tensor):
    """Differentiable serial rollout (one fused tape node).

    alpha, beta1: (B, N); q and every ks[l], cs[l]: (B, N, d); s0: (B, d, d).
    ks[0] is the forget key k1. Step t adds the injection as C_t K_t, with
    the columns c_l in C_t (d x L) and the keys k_l as the rows of K_t.
    Returns (readout (B, N, d), s_n (B, d, d)) with readout_t = S_t q_t.
    Raises NumericError (with the step index) if the state goes non-finite.
    """
    if len(ks) != len(cs):
        raise ShapeError(f"{len(ks)} injection keys for {len(cs)} columns")
    ad, bd, qd, s0d = alpha.data, beta1.data, q.data, s0.data
    kmat = np.stack([k.data for k in ks], axis=-2)   # (B, N, L, d)
    cmat = np.stack([c.data for c in cs], axis=-1)   # (B, N, d, L)
    bsz, n, d = qd.shape
    s_hist = np.empty((bsz, n + 1, d, d), dtype=s0d.dtype)
    m_hist = np.empty((bsz, n, d), dtype=s0d.dtype)
    out = np.empty((bsz, n, d), dtype=s0d.dtype)
    s = s0d.copy()
    s_hist[:, 0] = s
    for t in range(n):
        kt = kmat[:, t, 0]
        m = (s @ kt[:, :, None])[:, :, 0]
        m_hist[:, t] = m
        s = ad[:, t, None, None] * (s - bd[:, t, None, None]
                                    * (m[:, :, None] * kt[:, None, :]))
        s += cmat[:, t] @ kmat[:, t]
        if not np.isfinite(s).all():
            raise NumericError(f"state became non-finite at step {t}", step=t)
        s_hist[:, t + 1] = s
        out[:, t] = (s @ qd[:, t, :, None])[:, :, 0]

    def back(g_out, g_sn):
        grad_s = g_sn.copy()
        g_a, g_b1, g_q = np.empty_like(ad), np.empty_like(bd), np.empty_like(qd)
        g_kmat, g_cmat = np.empty_like(kmat), np.empty_like(cmat)
        for t in range(n - 1, -1, -1):
            kt = kmat[:, t, 0]
            m = m_hist[:, t]
            s_prev = s_hist[:, t]
            st = s_hist[:, t + 1]
            go = g_out[:, t]
            # readout_t = S_t q_t
            grad_s += go[:, :, None] * qd[:, t][:, None, :]
            g_q[:, t] = (np.swapaxes(st, 1, 2) @ go[:, :, None])[:, :, 0]
            # S_t = a * (S_prev - b1 * m (x) k1) + C_t K_t
            g_cmat[:, t] = grad_s @ np.swapaxes(kmat[:, t], 1, 2)    # G K^T
            g_kmat[:, t] = np.swapaxes(cmat[:, t], 1, 2) @ grad_s    # C^T G
            decayed = s_prev - bd[:, t, None, None] * (m[:, :, None] * kt[:, None, :])
            g_a[:, t] = (grad_s * decayed).sum(axis=(1, 2))
            at = ad[:, t, None]
            w2 = g_cmat[:, t, :, 0]                                  # G k1
            w1 = (np.swapaxes(grad_s, 1, 2) @ m[:, :, None])[:, :, 0]  # G^T m
            g_b1[:, t] = -(ad[:, t]) * (m * w2).sum(axis=1)
            g_kmat[:, t, 0] -= (at * bd[:, t, None]) * (
                (np.swapaxes(s_prev, 1, 2) @ w2[:, :, None])[:, :, 0] + w1)
            # G_{t-1} = a * (G - b1 * (G k1) (x) k1)
            grad_s = ad[:, t, None, None] * (
                grad_s - bd[:, t, None, None] * (w2[:, :, None] * kt[:, None, :]))
        return (g_a, g_b1, *np.moveaxis(g_kmat, 2, 0), *np.moveaxis(g_cmat, 3, 0),
                g_q, grad_s)

    return T.custom_op_multi((out, s), (alpha, beta1, *ks, *cs, q, s0), back)


def serial_forward(x: Tensor, params: PrismParams, cfg: PrismConfig,
                   s0: Tensor | None = None):
    """Differentiable PRISM rollout: anchor, terms, rank-L injection,
    serial state recurrence, projected readout.

    Returns (y, s_n); y matches the batched-ness of ``x``.
    """
    xb, batched = _batched(x)
    bsz, n, d = xb.data.shape
    if d != cfg.d:
        raise ShapeError(f"input channel {d} != config d {cfg.d}")
    s0 = _initial_state(s0, bsz, d, xb.data.dtype)
    u = compute_anchor(xb, params)
    terms = compute_step_terms(u, params, cfg)
    cs, _ = rank_accumulate(terms, terms.v, u, cfg)
    readout, s_n = scan_core(terms.alpha, terms.beta[0], terms.k, cs, terms.q, s0)
    y = readout @ params.w_o
    if not batched:
        y = T.reshape(y, (n, d))
        s_n = T.reshape(s_n, (d, d))
    return y, s_n


def chunked_scan_forward(x: Tensor, params: PrismParams, cfg: PrismConfig,
                         s0: Tensor | None = None):
    """Forward-only rollout via chunked prefix composition.

    Per-step pairs are computed state-free, composed locally inside each
    chunk (vectorized across chunks), combined sequentially across chunk
    boundaries, then applied within chunks. Matches ``serial_forward`` to
    float tolerance; carries no gradient.
    """
    with T.no_grad():
        xb, batched = _batched(x)
        bsz, n, d = xb.data.shape
        if d != cfg.d:
            raise ShapeError(f"input channel {d} != config d {cfg.d}")
        s0d = _initial_state(s0, bsz, d, xb.data.dtype).data
        u = compute_anchor(xb, params)
        terms = compute_step_terms(u, params, cfg)
        cs, _ = rank_accumulate(terms, terms.v, u, cfg)
        a_all, b_all = dense_transitions(terms, cs)

        c = cfg.chunk
        n_chunks = (n + c - 1) // c
        pad = n_chunks * c - n

        def chunked(arr, fill):
            # (B, N, ...) -> (B, n_chunks, c, ...); padded steps are ``fill``.
            if pad:
                tail = np.broadcast_to(fill, (bsz, pad) + arr.shape[2:])
                arr = np.concatenate([arr, tail.astype(arr.dtype)], axis=1)
            return arr.reshape((bsz, n_chunks, c) + arr.shape[2:])

        a_ch, b_ch = chunked(a_all, np.eye(d)), chunked(b_all, 0.0)
        q_ch = chunked(terms.q.data, 0.0)

        # Local composition inside every chunk, all chunks at once.
        pa = np.broadcast_to(np.eye(d, dtype=a_all.dtype),
                             (bsz, n_chunks, d, d)).copy()
        pb = np.zeros((bsz, n_chunks, d, d), dtype=a_all.dtype)
        for s in range(c):
            a_s = a_ch[:, :, s]
            pa = pa @ a_s
            pb = pb @ a_s + b_ch[:, :, s]

        # Sequential combine across chunk boundaries (order preserved).
        bounds = np.empty((bsz, n_chunks + 1, d, d), dtype=a_all.dtype)
        bounds[:, 0] = s0d
        run = s0d
        for ci in range(n_chunks):
            run = run @ pa[:, ci] + pb[:, ci]
            if not np.isfinite(run).all():
                raise NumericError(
                    f"state became non-finite in chunk {ci}", step=ci * c)
            bounds[:, ci + 1] = run

        # Apply steps inside each chunk from its boundary state.
        out = np.empty((bsz, n_chunks, c, d), dtype=a_all.dtype)
        s_run = bounds[:, :n_chunks].copy()
        for s in range(c):
            s_run = s_run @ a_ch[:, :, s] + b_ch[:, :, s]
            out[:, :, s] = (s_run @ q_ch[:, :, s, :, None])[..., 0]
        y = out.reshape(bsz, n_chunks * c, d)[:, :n] @ params.w_o.data
        s_n = bounds[:, n_chunks]
        if not batched:
            y = y[0]
            s_n = s_n[0]
        return Tensor(y), Tensor(s_n)


# --------------------------------------------------------------------------
# residual block
# --------------------------------------------------------------------------

@dataclass
class PrismBlockParams:
    ln1_g: Tensor
    ln1_b: Tensor
    prism: PrismParams
    ln2_g: Tensor
    ln2_b: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor

    @classmethod
    def init(cls, rng, cfg: PrismConfig, dtype=np.float64):
        d = cfg.d
        h = 4 * d
        return cls(
            ln1_g=T.ones(d, dtype=dtype, requires_grad=True),
            ln1_b=T.zeros(d, dtype=dtype, requires_grad=True),
            prism=PrismParams.init(rng, cfg, dtype=dtype),
            ln2_g=T.ones(d, dtype=dtype, requires_grad=True),
            ln2_b=T.zeros(d, dtype=dtype, requires_grad=True),
            mlp_w1=T.Tensor((rng.standard_normal((d, h)) / np.sqrt(d)).astype(dtype),
                            requires_grad=True),
            mlp_b1=T.zeros(h, dtype=dtype, requires_grad=True),
            mlp_w2=T.Tensor((rng.standard_normal((h, d)) / np.sqrt(h)).astype(dtype),
                            requires_grad=True),
            mlp_b2=T.zeros(d, dtype=dtype, requires_grad=True),
        )

    def params(self):
        yield self.ln1_g
        yield self.ln1_b
        yield from self.prism.params()
        yield self.ln2_g
        yield self.ln2_b
        yield self.mlp_w1
        yield self.mlp_b1
        yield self.mlp_w2
        yield self.mlp_b2


def prism_block_forward(x: Tensor, block: PrismBlockParams, cfg: PrismConfig) -> Tensor:
    """Pre-normalized residual block: mixer then a gelu MLP (hidden 4d)."""
    mixed, _ = serial_forward(T.layernorm(x, block.ln1_g, block.ln1_b),
                              block.prism, cfg)
    h = x + mixed
    z = T.layernorm(h, block.ln2_g, block.ln2_b)
    z = T.gelu(z @ block.mlp_w1 + block.mlp_b1)
    return h + (z @ block.mlp_w2 + block.mlp_b2)
