"""Reference update rules and the trainable model zoo.

Analysis rules (plain numpy, no tape): simple linear attention, the delta
rule, the state-dependent ideal solver it approximates, and the
closed-form degenerate optimum for purely linear key/value maps.

Trainable models share one body -- embedding, two pre-norm mixer blocks,
final layernorm, untied output head -- and differ only in the mixer:
PRISM, masked linear attention, a 4-expert mixture of gated
linear-attention memories with soft routing, or 2-head causal softmax
attention (the full-rank upper bound). Only the transformer receives
positional embeddings; the recurrent mixers get order from their scans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .cell import PrismBlockParams, PrismConfig, prism_block_forward
from .errors import ConfigError, ShapeError
from .linalg import matrix_inverse
from .tensor import Tensor

N_BLOCKS = 2     # mixer blocks per model
N_EXPERTS = 4    # memories in the MoM mixer
N_HEADS = 2      # heads of the transformer's attention


# --------------------------------------------------------------------------
# activation specs for the ideal solver
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
        return T.gelu_fn(x)

    def fprime(self, x):
        if self is Activation.IDENTITY:
            return np.ones_like(x)
        if self is Activation.TANH:
            t = np.tanh(x)
            return 1.0 - t * t
        return T.gelu_deriv_fn(x)


# --------------------------------------------------------------------------
# serial update rules (verification oracles)
# --------------------------------------------------------------------------

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

    Raises SingularMatrixError when W_k is not invertible enough for the
    residual guarantee to hold.
    """
    w_k = np.asarray(w_k, dtype=np.float64)
    w_v = np.asarray(w_v, dtype=np.float64)
    return w_v @ matrix_inverse(w_k)


def gated_la_scan(gate: Tensor, k: Tensor, v: Tensor, q: Tensor):
    """Fused gated linear-attention rollout (one tape node).

    S_t = S_{t-1} * diag(gate_t) + v_t (x) k_t;  out_t = S_t q_t.
    All inputs (B, N, d); decay acts per key channel.
    """
    gd, kd, vd, qd = gate.data, k.data, v.data, q.data
    bsz, n, d = kd.shape
    s_hist = np.empty((bsz, n + 1, d, d), dtype=kd.dtype)
    out = np.empty((bsz, n, d), dtype=kd.dtype)
    s = np.zeros((bsz, d, d), dtype=kd.dtype)
    s_hist[:, 0] = s
    for t in range(n):
        s = s * gd[:, t, None, :] + vd[:, t, :, None] * kd[:, t, None, :]
        s_hist[:, t + 1] = s
        out[:, t] = (s @ qd[:, t, :, None])[:, :, 0]

    def back(g_out):
        grad_s = np.zeros_like(s)
        g_g = np.empty_like(gd)
        g_k = np.empty_like(kd)
        g_v = np.empty_like(vd)
        g_q = np.empty_like(qd)
        for t in range(n - 1, -1, -1):
            st = s_hist[:, t + 1]
            go = g_out[:, t]
            grad_s += go[:, :, None] * qd[:, t, None, :]
            g_q[:, t] = (np.swapaxes(st, 1, 2) @ go[:, :, None])[:, :, 0]
            g_v[:, t] = (grad_s @ kd[:, t, :, None])[:, :, 0]
            g_k[:, t] = (np.swapaxes(grad_s, 1, 2) @ vd[:, t, :, None])[:, :, 0]
            g_g[:, t] = (grad_s * s_hist[:, t]).sum(axis=1)
            grad_s = grad_s * gd[:, t, None, :]
        return g_g, g_k, g_v, g_q

    return T.custom_op(out, (gate, k, v, q), back)


# --------------------------------------------------------------------------
# mixer parameter containers
# --------------------------------------------------------------------------

def _mat(rng, shape, dtype, scale=None):
    scale = scale if scale is not None else 1.0 / np.sqrt(shape[0])
    return T.Tensor((rng.standard_normal(shape) * scale).astype(dtype),
                    requires_grad=True)


@dataclass
class LAParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor

    @classmethod
    def init(cls, rng, d, dtype):
        return cls(*(_mat(rng, (d, d), dtype) for _ in range(4)))

    def params(self):
        yield from (self.w_q, self.w_k, self.w_v, self.w_o)


def la_mixer_forward(x: Tensor, p: LAParams) -> Tensor:
    """Un-gated linear attention via its masked parallel form.

    y_t = sum_{i<=t} (q_t . k_i) v_i, identical to rolling
    S_t = S_{t-1} + v_t k_t^T with readout S_t q_t.
    """
    n = x.data.shape[-2]
    q, k, v = x @ p.w_q, x @ p.w_k, x @ p.w_v
    mask = T.tensor(np.tril(np.ones((n, n), dtype=x.data.dtype)), dtype=x.data.dtype)
    scores = q @ T.transpose(k, (0, 2, 1) if x.data.ndim == 3 else (1, 0))
    return ((scores * mask) @ v) @ p.w_o


@dataclass
class MoMParams:
    """4 independent gated linear-attention memories behind a soft router."""

    w_router: Tensor   # (d, E)
    b_router: Tensor   # (E,)
    w_g: list          # E x (d, d) decay-gate pre-activations
    w_k: list
    w_v: list
    w_q: list
    w_o: Tensor

    @classmethod
    def init(cls, rng, d, dtype):
        return cls(
            w_router=_mat(rng, (d, N_EXPERTS), dtype),
            b_router=T.zeros(N_EXPERTS, dtype=dtype, requires_grad=True),
            w_g=[_mat(rng, (d, d), dtype) for _ in range(N_EXPERTS)],
            w_k=[_mat(rng, (d, d), dtype) for _ in range(N_EXPERTS)],
            w_v=[_mat(rng, (d, d), dtype) for _ in range(N_EXPERTS)],
            w_q=[_mat(rng, (d, d), dtype) for _ in range(N_EXPERTS)],
            w_o=_mat(rng, (d, d), dtype),
        )

    def params(self):
        yield self.w_router
        yield self.b_router
        for group in (self.w_g, self.w_k, self.w_v, self.w_q):
            yield from group
        yield self.w_o


def mom_forward(x: Tensor, p: MoMParams) -> Tensor:
    """Soft-routed mixture of gated linear-attention memories.

    Each expert runs its own diagonal-decay recurrence; the output blends
    expert readouts with per-token softmax weights, so routing stays fully
    differentiable.
    """
    squeeze = x.data.ndim == 2
    if squeeze:
        x = T.reshape(x, (1,) + x.data.shape)
    bsz, n, d = x.data.shape
    weights = T.softmax(x @ p.w_router + p.b_router, axis=-1)  # (B, N, E)
    blended = None
    for i in range(len(p.w_g)):
        gate = T.sigmoid(x @ p.w_g[i])
        out_i = gated_la_scan(gate, x @ p.w_k[i], x @ p.w_v[i], x @ p.w_q[i])
        w_i = T.reshape(weights[:, :, i], (bsz, n, 1))
        term = out_i * w_i
        blended = term if blended is None else blended + term
    y = blended @ p.w_o
    return T.reshape(y, (n, d)) if squeeze else y


@dataclass
class AttnParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor

    @classmethod
    def init(cls, rng, d, dtype):
        if d % N_HEADS:
            raise ConfigError(f"heads {N_HEADS} must divide d {d}")
        return cls(*(_mat(rng, (d, d), dtype) for _ in range(4)))

    def params(self):
        yield from (self.w_q, self.w_k, self.w_v, self.w_o)


def causal_attention(x: Tensor, p: AttnParams, return_weights=False):
    """Multi-head softmax attention under a strict causal mask."""
    squeeze = x.data.ndim == 2
    if squeeze:
        x = T.reshape(x, (1,) + x.data.shape)
    bsz, n, d = x.data.shape
    h = N_HEADS
    hd = d // h

    def split(t):
        return T.transpose(T.reshape(t, (bsz, n, h, hd)), (0, 2, 1, 3))

    q, k, v = split(x @ p.w_q), split(x @ p.w_k), split(x @ p.w_v)
    scores = (q @ T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    neg = np.finfo(x.data.dtype).min / 4.0
    mask = np.triu(np.full((n, n), neg, dtype=x.data.dtype), k=1)
    att = T.softmax(scores + T.tensor(mask, dtype=x.data.dtype), axis=-1)
    ctx = att @ v
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (bsz, n, d))
    y = ctx @ p.w_o
    if squeeze:
        y = T.reshape(y, (n, d))
    if return_weights:
        return y, att
    return y


# --------------------------------------------------------------------------
# blocks and full models
# --------------------------------------------------------------------------

@dataclass
class MixerBlockParams:
    """Pre-norm residual block around an arbitrary mixer."""

    ln1_g: Tensor
    ln1_b: Tensor
    mixer: object
    mixer_fn: object
    ln2_g: Tensor
    ln2_b: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor

    @classmethod
    def init(cls, rng, d, mixer, mixer_fn, dtype):
        h = 4 * d
        return cls(
            ln1_g=T.ones(d, dtype=dtype, requires_grad=True),
            ln1_b=T.zeros(d, dtype=dtype, requires_grad=True),
            mixer=mixer, mixer_fn=mixer_fn,
            ln2_g=T.ones(d, dtype=dtype, requires_grad=True),
            ln2_b=T.zeros(d, dtype=dtype, requires_grad=True),
            mlp_w1=_mat(rng, (d, h), dtype),
            mlp_b1=T.zeros(h, dtype=dtype, requires_grad=True),
            mlp_w2=_mat(rng, (h, d), dtype),
            mlp_b2=T.zeros(d, dtype=dtype, requires_grad=True),
        )

    def params(self):
        yield self.ln1_g
        yield self.ln1_b
        yield from self.mixer.params()
        yield self.ln2_g
        yield self.ln2_b
        yield from (self.mlp_w1, self.mlp_b1, self.mlp_w2, self.mlp_b2)

    def forward(self, x):
        h = x + self.mixer_fn(T.layernorm(x, self.ln1_g, self.ln1_b), self.mixer)
        z = T.layernorm(h, self.ln2_g, self.ln2_b)
        z = T.gelu(z @ self.mlp_w1 + self.mlp_b1)
        return h + (z @ self.mlp_w2 + self.mlp_b2)


class ModelKind(enum.Enum):
    PRISM = "prism"
    LINEAR_ATTENTION = "la"
    MOM = "mom"
    TRANSFORMER = "transformer"

    @classmethod
    def parse(cls, name):
        name = name.strip().lower()
        aliases = {"prism": cls.PRISM, "la": cls.LINEAR_ATTENTION,
                   "linear_attention": cls.LINEAR_ATTENTION, "mom": cls.MOM,
                   "transformer": cls.TRANSFORMER, "trans": cls.TRANSFORMER}
        if name not in aliases:
            raise ConfigError(f"unknown model kind: {name!r}")
        return aliases[name]


class SequenceModel:
    """Embedding -> 2 mixer blocks -> final layernorm -> untied head."""

    def __init__(self, kind: ModelKind, d=16, vocab=64, n_ctx=128, L=2,
                 seed=0, dtype=np.float32):
        self.kind = kind
        self.d = d
        self.vocab = vocab
        self.n_ctx = n_ctx
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.embedding = T.Tensor((rng.standard_normal((vocab, d)) * 0.5).astype(dtype),
                                  requires_grad=True)
        self.pos = None
        if kind is ModelKind.TRANSFORMER:
            self.pos = T.Tensor((rng.standard_normal((n_ctx, d)) * 0.5).astype(dtype),
                                requires_grad=True)
        self.cfg = PrismConfig(d=d, L=L) if kind is ModelKind.PRISM else None
        self.blocks = []
        for _ in range(N_BLOCKS):
            if kind is ModelKind.PRISM:
                blk = PrismBlockParams.init(rng, self.cfg, dtype=dtype)
            elif kind is ModelKind.LINEAR_ATTENTION:
                blk = MixerBlockParams.init(rng, d, LAParams.init(rng, d, dtype),
                                            la_mixer_forward, dtype)
            elif kind is ModelKind.MOM:
                blk = MixerBlockParams.init(rng, d, MoMParams.init(rng, d, dtype),
                                            mom_forward, dtype)
            else:
                blk = MixerBlockParams.init(rng, d, AttnParams.init(rng, d, dtype),
                                            causal_attention, dtype)
            self.blocks.append(blk)
        self.lnf_g = T.ones(d, dtype=dtype, requires_grad=True)
        self.lnf_b = T.zeros(d, dtype=dtype, requires_grad=True)
        self.head = _mat(rng, (d, vocab), dtype)

    def params(self):
        yield self.embedding
        if self.pos is not None:
            yield self.pos
        for blk in self.blocks:
            yield from blk.params()
        yield self.lnf_g
        yield self.lnf_b
        yield self.head

    def param_count(self):
        return sum(p.data.size for p in self.params())

    def forward(self, tokens):
        """tokens: (B, N) integer ids -> logits (B, N, V)."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be (B, N), got {tokens.shape}")
        n = tokens.shape[1]
        if n > self.n_ctx and self.pos is not None:
            raise ShapeError(f"sequence {n} exceeds context {self.n_ctx}")
        x = T.embedding(self.embedding, tokens)
        if self.pos is not None:
            x = x + self.pos[:n]
        for blk in self.blocks:
            if self.kind is ModelKind.PRISM:
                x = prism_block_forward(x, blk, self.cfg)
            else:
                x = blk.forward(x)
        x = T.layernorm(x, self.lnf_g, self.lnf_b)
        return x @ self.head

    # -- persistence ----------------------------------------------------
    def state_dict(self):
        return {f"p{idx}": p.data for idx, p in enumerate(self.params())}

    def load_state_dict(self, state):
        for idx, p in enumerate(self.params()):
            arr = state[f"p{idx}"]
            if arr.shape != p.data.shape:
                raise ShapeError(f"checkpoint shape mismatch at p{idx}")
            p.data = arr.astype(p.data.dtype)


def build_model(kind: ModelKind, d=16, vocab=64, n_ctx=128, L=2,
                seed=0, dtype=np.float32) -> SequenceModel:
    """Construct a trainable model of the requested kind."""
    return SequenceModel(kind, d=d, vocab=vocab, n_ctx=n_ctx, L=L,
                         seed=seed, dtype=dtype)
