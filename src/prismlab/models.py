"""The trainable model zoo.

All models share one body -- embedding, two pre-norm mixer blocks,
final layernorm, untied output head -- and differ only in the mixer:
PRISM, masked linear attention, a 4-expert mixture of gated
linear-attention memories with soft routing (MoM), or 2-head causal softmax
attention (the full-rank upper bound). Every mixer maps a (B, N, d) batch
to (B, N, d). Only the transformer receives positional embeddings; the
recurrent mixers get order from their scans.

MoM stacks its experts: each of its gate, key, value and query projections
is one (d, 4d) matrix whose column block i belongs to expert i, and the
B*4 memories of a batch run through one ``blocked_gated_scan`` call. That
scan works time-major, SCAN_BLOCK steps at a time, and keeps only the
block-boundary states for its backward, which recomputes each block's
states from its boundary: one (d, d) state per memory every SCAN_BLOCK
steps instead of every step, for a second pass over the states.
``gated_la_scan``, which keeps every state, is its step-by-step oracle.
With gates near 0.5 its backward halves a state gradient at every step
back in time, so float32 values pass through the subnormal range, where
arithmetic is slow, before they reach 0. The backward zeroes subnormals
where the decay makes them, in the carried state gradient and that block's
state gradients, and in the four gradients it returns, so none leaves it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .cell import PrismBlockParams, PrismConfig, flush_subnormals, prism_block_forward
from .config import check_int
from .errors import ConfigError, DataError, NumericError, ShapeError
from .tensor import Tensor

N_BLOCKS = 2     # mixer blocks per model
N_EXPERTS = 4    # memories in the MoM mixer
N_HEADS = 2      # heads of the transformer's attention


def gated_la_scan(gate: Tensor, k: Tensor, v: Tensor, q: Tensor):
    """Fused gated linear-attention rollout (one tape node): the step-by-step
    reference for ``blocked_gated_scan``.

    S_t = S_{t-1} * diag(gate_t) + v_t (x) k_t;  out_t = S_t q_t.
    All inputs (B, N, d); decay acts per key channel. Keeps the whole
    (B, N + 1, d, d) state history for its backward.
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


SCAN_BLOCK = 16  # steps per block of blocked_gated_scan; one state kept per block


def _gate_rows(g):
    """(c, M, d) key-channel gates -> (c, M, d, d), g_t copied into every row.

    The copy lets the step loop multiply contiguous arrays. Multiplying by
    a broadcast g_t[:, None, :] instead is slower per step (float32, one
    thread, 2-core VM): 25.6 us at M 128 against 19.2 us for the copy
    amortised over a 16-step block (11.7 us) plus the contiguous multiply
    (7.5 us), and 7.2 us against 4.3 us at M 16.
    """
    return np.repeat(g[:, :, None, :], g.shape[-1], axis=2)


def _block_states(s, gates, v, k, out):
    """One block of S_t = S_{t-1} * diag(g_t) + v_t (x) k_t, from S = ``s``.

    ``gates`` is ``_gate_rows`` of the block's gates, ``v`` and ``k`` its
    (c, M, d) inputs; the (c, M, d, d) states S_t are written to ``out``,
    which is returned. The writes v_t (x) k_t are batched over the block, so
    the step loop only multiplies and adds contiguous slices.
    """
    np.einsum("tmi,tmj->tmij", v, k, out=out)
    decayed = np.empty_like(s)
    for st, gt in zip(out, gates):
        st += np.multiply(s, gt, out=decayed)
        s = st
    return out


def blocked_gated_scan(gate: Tensor, k: Tensor, v: Tensor, q: Tensor):
    """``gated_la_scan`` on a time-major layout, in blocks (one tape node).

    Inputs (N, M, d): step t of memory m. Each memory runs
    S_t = S_{t-1} * diag(gate_t) + v_t (x) k_t from S_0 = 0, and the
    readouts S_t q_t are returned as (N, M, d). The M memories run together,
    SCAN_BLOCK steps at a time. Between forward and backward only the
    N/SCAN_BLOCK + 1 block-boundary states are kept; the backward
    recomputes each block's states from its boundary. The backward returns
    no subnormal value: ``cell.flush_subnormals`` zeroes them in the four
    gradients it returns and, for a block whose state-gradient carry holds
    any, in that carry and the block's state gradients. A returned gradient
    thus moves by less than tiny, plus tiny times the sum of the key, value
    or state entries that multiply the zeroed state gradients.

    Raises NumericError whose ``step`` is the first step with a non-finite
    readout, or, if every readout is finite, the last step of the first
    block whose end state is not.
    """
    gd, kd, vd, qd = (t.data for t in (gate, k, v, q))
    if qd.ndim != 3 or any(a.shape != qd.shape for a in (gd, kd, vd)):
        raise ShapeError(f"gated scan needs four equal (N, M, d) inputs, got "
                         f"{[a.shape for a in (gd, kd, vd, qd)]}")
    if any(a.dtype != qd.dtype for a in (gd, kd, vd)):
        raise ShapeError(f"gated scan needs four inputs of one dtype, got "
                         f"{[str(a.dtype) for a in (gd, kd, vd, qd)]}")
    n, m, d = qd.shape
    blocks = [slice(t0, t0 + SCAN_BLOCK) for t0 in range(0, n, SCAN_BLOCK)]
    bounds = np.zeros((len(blocks) + 1, m, d, d), dtype=qd.dtype)
    out = np.empty_like(qd)
    for j, blk in enumerate(blocks):
        gates = _gate_rows(gd[blk])
        states = _block_states(bounds[j], gates, vd[blk], kd[blk], np.empty_like(gates))
        out[blk] = (states @ qd[blk, :, :, None])[..., 0]
        bounds[j + 1] = states[-1]
    if not (np.isfinite(out).all() and np.isfinite(bounds).all()):
        bad = ~np.isfinite(out).all(axis=(1, 2))
        ends = ~np.isfinite(bounds[1:]).all(axis=(1, 2, 3))
        step = (int(bad.argmax()) if bad.any()
                else min((int(ends.argmax()) + 1) * SCAN_BLOCK, n) - 1)
        raise NumericError(f"readout or state became non-finite at step {step}", step=step)

    def back(g_out):
        g_g, g_k, g_v, g_q = (np.empty_like(a) for a in (gd, kd, vd, qd))
        carry = np.zeros((m, d, d), dtype=qd.dtype)  # dL/dS_t * gate_t, from later steps
        tiny = np.finfo(qd.dtype).tiny
        for j in reversed(range(len(blocks))):
            blk = blocks[j]
            gates = _gate_rows(gd[blk])
            hist = np.empty((len(gates) + 1, m, d, d), dtype=qd.dtype)
            hist[0] = bounds[j]
            _block_states(bounds[j], gates, vd[blk], kd[blk], hist[1:])
            grad_s = np.einsum("tmi,tmj->tmij", g_out[blk], qd[blk])
            for i in reversed(range(len(gates))):
                grad_s[i] += carry
                np.multiply(grad_s[i], gates[i], out=carry)
            # The decay makes its subnormals in the carry. Zeroing them there
            # and in the block's state gradients keeps them out of the
            # products below; a block whose carry holds none skips the pass.
            if ((carry != 0) & (np.abs(carry) < tiny)).any():
                flush_subnormals(carry)
                flush_subnormals(grad_s)
            g_q[blk] = (g_out[blk, :, None, :] @ hist[1:])[:, :, 0]
            g_v[blk] = (grad_s @ kd[blk, :, :, None])[..., 0]
            g_k[blk] = (vd[blk, :, None, :] @ grad_s)[:, :, 0]
            g_g[blk] = np.einsum("tmij,tmij->tmj", grad_s, hist[:-1])
        for g in (g_g, g_k, g_v, g_q):
            flush_subnormals(g)
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
    n = x.data.shape[1]
    q, k, v = x @ p.w_q, x @ p.w_k, x @ p.w_v
    mask = T.Tensor(np.tril(np.ones((n, n), dtype=x.data.dtype)))
    scores = q @ T.transpose(k, (0, 2, 1))
    return ((scores * mask) @ v) @ p.w_o


@dataclass
class MoMParams:
    """N_EXPERTS gated linear-attention memories behind a soft router.

    The experts' projections are stacked: column block i (columns
    i*d to (i+1)*d) of w_g, w_k, w_v and w_q belongs to expert i, so one
    product per projection serves every expert. Block i is drawn as the
    i-th (d, d) matrix of its group, in the order the per-expert layout
    drew them, so a seed gives the same weights in either layout.
    """

    w_router: Tensor   # (d, E)
    b_router: Tensor   # (E,)
    w_g: Tensor        # (d, E*d) decay-gate pre-activations
    w_k: Tensor        # (d, E*d)
    w_v: Tensor        # (d, E*d)
    w_q: Tensor        # (d, E*d)
    w_o: Tensor        # (d, d)

    @classmethod
    def init(cls, rng, d, dtype):
        def stacked():
            return T.Tensor(np.concatenate([_mat(rng, (d, d), dtype).data
                                            for _ in range(N_EXPERTS)], axis=1),
                            requires_grad=True)
        return cls(
            w_router=_mat(rng, (d, N_EXPERTS), dtype),
            b_router=T.zeros(N_EXPERTS, dtype=dtype, requires_grad=True),
            w_g=stacked(), w_k=stacked(), w_v=stacked(), w_q=stacked(),
            w_o=_mat(rng, (d, d), dtype),
        )

    def params(self):
        yield from (self.w_router, self.b_router, self.w_g, self.w_k, self.w_v,
                    self.w_q, self.w_o)


def mom_forward(x: Tensor, p: MoMParams) -> Tensor:
    """Soft-routed mixture of gated linear-attention memories.

    Each expert runs its own diagonal-decay recurrence; the output blends
    expert readouts with per-token softmax weights, so routing stays fully
    differentiable. The tokens are laid out time-major, as rows (t, b), so
    that each projection is one product whose (N, B*E, d) view is the
    input of one ``blocked_gated_scan`` over every sample's experts.
    """
    bsz, n, d = x.data.shape
    rows = T.reshape(T.transpose(x, (1, 0, 2)), (n * bsz, d))
    mems = (n, bsz * N_EXPERTS, d)
    out = blocked_gated_scan(T.reshape(T.sigmoid(rows @ p.w_g), mems),
                             T.reshape(rows @ p.w_k, mems), T.reshape(rows @ p.w_v, mems),
                             T.reshape(rows @ p.w_q, mems))
    weights = T.softmax(rows @ p.w_router + p.b_router, axis=-1)  # (N*B, E)
    blended = T.tsum(T.reshape(out, (n * bsz, N_EXPERTS, d))
                     * T.reshape(weights, (n * bsz, N_EXPERTS, 1)), axis=1)
    return T.transpose(T.reshape(blended @ p.w_o, (n, bsz, d)), (1, 0, 2))


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


def causal_attention(x: Tensor, p: AttnParams) -> Tensor:
    """Multi-head softmax attention under a strict causal mask."""
    bsz, n, d = x.data.shape
    h = N_HEADS
    hd = d // h

    def split(t):
        return T.transpose(T.reshape(t, (bsz, n, h, hd)), (0, 2, 1, 3))

    q, k, v = split(x @ p.w_q), split(x @ p.w_k), split(x @ p.w_v)
    scores = (q @ T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    neg = np.finfo(x.data.dtype).min / 4.0
    mask = np.triu(np.full((n, n), neg, dtype=x.data.dtype), k=1)
    att = T.softmax(scores + T.Tensor(mask), axis=-1)
    ctx = att @ v
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (bsz, n, d))
    return ctx @ p.w_o


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
        if not isinstance(name, str):
            raise ConfigError(f"model kind must be a name, got {name!r}")
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
        if not isinstance(kind, ModelKind):
            raise ConfigError(f"model kind must be a ModelKind, got {kind!r}")
        for name, value in (("d", d), ("vocab", vocab), ("n_ctx", n_ctx), ("L", L)):
            check_int(f"model {name}", value, 1)
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

    def forward(self, tokens):
        """tokens: (B, N) integer ids in [0, vocab), N >= 1 -> logits (B, N, V)."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be (B, N), got {tokens.shape}")
        n = tokens.shape[1]
        if n < 1:
            raise ShapeError(f"tokens must hold at least one step, got {tokens.shape}")
        if n > self.n_ctx and self.pos is not None:
            raise ShapeError(f"sequence {n} exceeds context {self.n_ctx}")
        if not np.issubdtype(tokens.dtype, np.integer):
            raise DataError(f"token ids must be integers, got dtype {tokens.dtype}")
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.vocab):
            raise DataError(f"token id out of range [0, {self.vocab})")
        x = self.embedding[tokens]
        if self.pos is not None:
            x = x + self.pos[:n]
        for idx, blk in enumerate(self.blocks):
            try:
                if self.kind is ModelKind.PRISM:
                    x = prism_block_forward(x, blk, self.cfg)
                else:
                    x = blk.forward(x)
            except NumericError as exc:
                exc.block = idx
                raise
        x = T.layernorm(x, self.lnf_g, self.lnf_b)
        return x @ self.head

    # -- persistence ----------------------------------------------------
    def state_dict(self):
        return {f"p{idx}": p.data for idx, p in enumerate(self.params())}

    def load_state_dict(self, state):
        params = list(self.params())
        want, got = {f"p{idx}" for idx in range(len(params))}, set(state)
        if got != want:
            raise ShapeError(f"checkpoint keys differ from the model's: missing "
                             f"{sorted(want - got)}, unexpected {sorted(got - want)}")
        for idx, p in enumerate(params):
            arr = state[f"p{idx}"]
            if arr.shape != p.data.shape:
                raise ShapeError(f"checkpoint shape mismatch at p{idx}")
            p.data = arr.astype(p.data.dtype)


def build_model(kind: ModelKind, d=16, vocab=64, n_ctx=128, L=2,
                seed=0, dtype=np.float32) -> SequenceModel:
    """Construct a trainable model of the requested kind."""
    return SequenceModel(kind, d=d, vocab=vocab, n_ctx=n_ctx, L=L,
                         seed=seed, dtype=dtype)
