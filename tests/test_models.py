"""Reference update rules and model zoo tests."""

import hashlib
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (Activation, assert_same_bits, composed_linear_attention,
                     composed_softmax_attention, degenerate_closed_form, delta_rule_step,
                     grad_check, ideal_solver_step, linear_attention_step)
from prismlab import tensor as T
from prismlab import train
from prismlab.errors import ConfigError, DataError, NumericError, ShapeError
from prismlab.models import (N_EXPERTS, N_HEADS, MixerBlockParams, ModelKind, MoMParams,
                             QKVOParams, SequenceModel,
                             blocked_gated_scan, build_model, causal_attention,
                             gated_la_scan, la_mixer_forward, masked_linear_attention,
                             mom_forward, softmax_attention)
from prismlab.tasks import TaskConfig, TaskKind, generate_batch


# ---------------------------------------------------------------- LA step

def test_la_step_zero_value():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((4, 4))
    got = linear_attention_step(s, rng.standard_normal(4), np.zeros(4))
    np.testing.assert_array_equal(got, s)


def test_la_step_from_zero():
    rng = np.random.default_rng(1)
    k, v = rng.standard_normal(4), rng.standard_normal(4)
    np.testing.assert_array_equal(linear_attention_step(np.zeros((4, 4)), k, v),
                                  np.outer(v, k))


def test_la_rollout_is_sum_of_outers():
    rng = np.random.default_rng(2)
    ks = rng.standard_normal((10, 4))
    vs = rng.standard_normal((10, 4))
    s = np.zeros((4, 4))
    for k, v in zip(ks, vs):
        s = linear_attention_step(s, k, v)
    want = sum(np.outer(v, k) for k, v in zip(ks, vs))
    np.testing.assert_allclose(s, want, atol=1e-12)


# ---------------------------------------------------------------- delta rule

def test_delta_beta_zero():
    rng = np.random.default_rng(3)
    s = rng.standard_normal((4, 4))
    got = delta_rule_step(s, rng.standard_normal(4), rng.standard_normal(4), 0.0)
    np.testing.assert_array_equal(got, s)


def test_delta_fixed_point():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((4, 4))
    k = rng.standard_normal(4)
    v = s @ k  # zero residual
    got = delta_rule_step(s, k, v, 0.7)
    np.testing.assert_allclose(got, s, atol=1e-15)


def test_delta_full_write_unit_key():
    # S' k = S k + (v - S k) ||k||^2; with beta=1 and ||k||=1 this is v.
    rng = np.random.default_rng(5)
    s = rng.standard_normal((4, 4))
    k = rng.standard_normal(4)
    k /= np.linalg.norm(k)
    v = rng.standard_normal(4)
    s2 = delta_rule_step(s, k, v, 1.0)
    np.testing.assert_allclose(s2 @ k, v, atol=1e-12)


# ---------------------------------------------------------------- ideal solver

def test_ideal_identity_reduces_to_delta_bitwise():
    rng = np.random.default_rng(6)
    s = rng.standard_normal((8, 8))
    for _ in range(20):
        k = rng.standard_normal(8)
        v = rng.standard_normal(8)
        beta = rng.uniform(0.0, 1.0)
        a = delta_rule_step(s, k, v, beta)
        b = ideal_solver_step(s, k, v, Activation.IDENTITY, beta)
        assert np.array_equal(a, b)  # bit-for-bit
        s = a


def test_ideal_tanh_saturation_suppresses_update():
    rng = np.random.default_rng(7)
    d = 4
    s = 50.0 * np.ones((d, d))  # S k deep in tanh saturation
    k = np.ones(d)
    v = rng.standard_normal(d)
    s2 = ideal_solver_step(s, k, v, Activation.TANH, 1.0)
    assert np.linalg.norm(s2 - s) < 1e-6 * np.linalg.norm(v)


def test_ideal_step_matches_fd_gradient_direction():
    # Finite-difference gradient of 0.5 ||act(S k) - v||^2 with respect to S.
    rng = np.random.default_rng(8)
    d = 4
    s = rng.standard_normal((d, d))
    k = rng.standard_normal(d)
    v = rng.standard_normal(d)
    act = Activation.TANH

    def loss(mat):
        r = act.f(mat @ k) - v
        return 0.5 * float(r @ r)

    h = 1e-6
    fd = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            sp = s.copy()
            sp[i, j] += h
            sm = s.copy()
            sm[i, j] -= h
            fd[i, j] = (loss(sp) - loss(sm)) / (2 * h)
    beta = 0.3
    update = ideal_solver_step(s, k, v, act, beta) - s
    np.testing.assert_allclose(update, -beta * fd, rtol=1e-5, atol=1e-7)


def test_ideal_rollout_monotone_on_fixed_pair():
    rng = np.random.default_rng(9)
    d = 6
    s = np.zeros((d, d))
    k = rng.standard_normal(d)
    v = rng.standard_normal(d) * 0.8
    act = Activation.TANH
    prev = np.linalg.norm(act.f(s @ k) - v)
    for _ in range(200):
        s = ideal_solver_step(s, k, v, act, beta=0.1)
        cur = np.linalg.norm(act.f(s @ k) - v)
        assert cur <= prev + 1e-12
        prev = cur


def test_activation_derivatives_match_central_differences():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(50)
    h = 1e-6
    for act in Activation:
        fd = (act.f(x + h) - act.f(x - h)) / (2 * h)
        rel = np.abs(act.fprime(x) - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() < 1e-6, act


# ---------------------------------------------------------------- degeneracy

def test_degenerate_identity_key_map():
    rng = np.random.default_rng(11)
    w_v = rng.standard_normal((5, 5))
    np.testing.assert_allclose(degenerate_closed_form(np.eye(5), w_v), w_v, atol=1e-10)


def test_degenerate_equal_maps_give_identity():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((5, 5)) + 2.0 * np.eye(5)
    np.testing.assert_allclose(degenerate_closed_form(w, w), np.eye(5), atol=1e-8)


def test_degenerate_residual_on_random_streams():
    rng = np.random.default_rng(13)
    d = 6
    w_k = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
    w_v = rng.standard_normal((d, d))
    s_star = degenerate_closed_form(w_k, w_v)
    for _ in range(100):
        x = rng.standard_normal(d)
        lhs = s_star @ (w_k @ x)
        rhs = w_v @ x
        assert np.linalg.norm(lhs - rhs) < 1e-8 * max(np.linalg.norm(rhs), 1e-12)


def test_degenerate_rejects_singular():
    w_k = np.zeros((3, 3))
    with pytest.raises(NumericError, match="numerically singular"):
        degenerate_closed_form(w_k, np.eye(3))


def test_degenerate_beats_every_delta_iterate():
    # On linearly generated data the closed form attains (numerically) zero
    # reconstruction loss, below any recurrent iterate's loss.
    rng = np.random.default_rng(14)
    d = 6
    w_k = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
    w_v = rng.standard_normal((d, d))
    xs = rng.standard_normal((64, d))
    ks = xs @ w_k.T
    vs = xs @ w_v.T

    def stream_loss(s):
        r = ks @ s.T - vs
        return float((r * r).sum() / len(ks))

    s_star = degenerate_closed_form(w_k, w_v)
    star_loss = stream_loss(s_star)
    s = np.zeros((d, d))
    for k, v in zip(ks, vs):
        s = delta_rule_step(s, k, v, beta=0.2)
        assert star_loss <= stream_loss(s)
    assert star_loss < 1e-16


# ---------------------------------------------------------------- gated LA scan

def test_gated_la_scan_matches_loop():
    rng = np.random.default_rng(15)
    bsz, n, d = 2, 12, 5
    g = rng.uniform(0.2, 1.0, (bsz, n, d))
    k = rng.standard_normal((bsz, n, d))
    v = rng.standard_normal((bsz, n, d))
    q = rng.standard_normal((bsz, n, d))
    out = gated_la_scan(T.Tensor(g), T.Tensor(k), T.Tensor(v), T.Tensor(q)).data
    for b in range(bsz):
        s = np.zeros((d, d))
        for t in range(n):
            s = s * g[b, t][None, :] + np.outer(v[b, t], k[b, t])
            np.testing.assert_allclose(out[b, t], s @ q[b, t], atol=1e-12)


def test_gated_la_scan_gradients():
    rng = np.random.default_rng(16)
    bsz, n, d = 1, 5, 3
    arrays = {
        "g": rng.uniform(0.3, 0.9, (bsz, n, d)),
        "k": rng.standard_normal((bsz, n, d)),
        "v": rng.standard_normal((bsz, n, d)),
        "q": rng.standard_normal((bsz, n, d)),
    }
    for which in arrays:
        def f(x):
            vals = {m: T.Tensor(a) for m, a in arrays.items()}
            vals[which] = x
            return gated_la_scan(vals["g"], vals["k"], vals["v"], vals["q"]).sum()
        xt = T.Tensor(arrays[which], requires_grad=True)
        assert grad_check(f, xt) < 1e-4, which


# ---------------------------------------------------------------- MoM mixer

def test_mom_collapsed_router_equals_single_expert():
    rng = np.random.default_rng(17)
    d = 6
    p = MoMParams.init(rng, d, np.float64)
    p.b_router.data[:] = np.array([0.0, -1e9, -1e9, -1e9])
    p.w_router.data[:] = 0.0
    x = T.Tensor(rng.standard_normal((1, 9, d)))
    full = mom_forward(x, p).data
    gate = T.sigmoid(x @ p.w_g[:, :d])
    solo = gated_la_scan(gate, x @ p.w_k[:, :d], x @ p.w_v[:, :d], x @ p.w_q[:, :d])
    want = (solo @ p.w_o).data
    np.testing.assert_allclose(full, want, atol=1e-12)


def test_mom_uniform_router_identical_experts():
    rng = np.random.default_rng(18)
    d = 4
    p = MoMParams.init(rng, d, np.float64)
    p.w_router.data[:] = 0.0
    p.b_router.data[:] = 0.0
    for group in (p.w_g, p.w_k, p.w_v, p.w_q):
        for i in range(1, 4):
            group.data[:, i * d:(i + 1) * d] = group.data[:, :d]
    x = T.Tensor(rng.standard_normal((1, 7, d)))
    full = mom_forward(x, p).data
    gate = T.sigmoid(x @ p.w_g[:, :d])
    solo = gated_la_scan(gate, x @ p.w_k[:, :d], x @ p.w_v[:, :d], x @ p.w_q[:, :d])
    want = (solo @ p.w_o).data
    np.testing.assert_allclose(full, want, atol=1e-10)


def test_mom_causality():
    rng = np.random.default_rng(19)
    d = 5
    p = MoMParams.init(rng, d, np.float64)
    x = rng.standard_normal((1, 11, d))
    y0 = mom_forward(T.Tensor(x), p).data
    x2 = x.copy()
    x2[0, 6] += 2.0
    y1 = mom_forward(T.Tensor(x2), p).data
    np.testing.assert_array_equal(y0[0, :6], y1[0, :6])


def _per_expert_mom(x, p):
    """The MoM mixer with one gated_la_scan call per expert, on column
    block i of the stacked weights: the layout before the experts were
    stacked, as the reference for mom_forward."""
    d = x.data.shape[-1]
    weights = T.softmax(x @ p.w_router + p.b_router, axis=-1)
    blended = None
    for i in range(N_EXPERTS):
        cols = slice(i * d, (i + 1) * d)
        out_i = gated_la_scan(T.sigmoid(x @ p.w_g[:, cols]), x @ p.w_k[:, cols],
                              x @ p.w_v[:, cols], x @ p.w_q[:, cols])
        term = out_i * T.reshape(weights[:, :, i], weights.shape[:2] + (1,))
        blended = term if blended is None else blended + term
    return blended @ p.w_o


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mom_logits_equal_per_expert_form(dtype):
    model = build_model(ModelKind.MOM, n_ctx=40, seed=[1, 0], dtype=dtype)
    tokens = np.random.default_rng(1).integers(0, 64, (3, 40))
    stacked = model.forward(tokens).data
    for blk in model.blocks:
        blk.mixer_fn = _per_expert_mom
    np.testing.assert_array_equal(stacked, model.forward(tokens).data)


def test_mom_stacked_init_draws_per_expert_order():
    d = 5
    p = MoMParams.init(np.random.default_rng(3), d, np.float64)
    rng = np.random.default_rng(3)
    scale = 1.0 / np.sqrt(d)
    np.testing.assert_array_equal(p.w_router.data,
                                  rng.standard_normal((d, N_EXPERTS)) * scale)
    for group in (p.w_g, p.w_k, p.w_v, p.w_q):
        blocks = [rng.standard_normal((d, d)) * scale for _ in range(N_EXPERTS)]
        np.testing.assert_array_equal(group.data, np.concatenate(blocks, axis=1))
    np.testing.assert_array_equal(p.w_o.data, rng.standard_normal((d, d)) * scale)


@pytest.mark.parametrize("step", [16, 21])
def test_mom_numeric_error_names_block_and_step(step):
    model = build_model(ModelKind.MOM, d=8, vocab=16, n_ctx=40, seed=7)

    def poisoned(x, p):
        data = x.data.copy()
        data[1, step, 0] = np.inf
        return mom_forward(T.Tensor(data, dtype=data.dtype), p)

    model.blocks[1].mixer_fn = poisoned
    tokens = np.random.default_rng(8).integers(0, 16, (2, 40))
    with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
        model.forward(tokens)
    assert exc.value.block == 1
    assert exc.value.step == step


@pytest.mark.parametrize("block", [0, 1])
def test_mom_numeric_error_names_block_and_step_under_warnings_as_errors(block):
    # The twin of the test above with warnings as errors and no errstate:
    # MoM's scan forward warns nothing, so its NumericError is what surfaces.
    model = build_model(ModelKind.MOM, d=8, vocab=16, n_ctx=8, seed=7)
    model.blocks[block].mixer.w_v.data[0, 0] = np.inf
    tokens = np.random.default_rng(8).integers(0, 16, (2, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as exc:
            model.forward(tokens)
    assert exc.value.block == block
    assert exc.value.step == 0


@pytest.mark.parametrize("weight", ["w_k", "w_v", "w_q"])
def test_prism_numeric_error_names_block_and_step_under_warnings_as_errors(weight):
    # An infinite weight upstream of the scan: the forget-key scaling and the
    # rank-L refinement warn nothing, so the scan's NumericError surfaces.
    model = build_model(ModelKind.PRISM, d=8, vocab=16, n_ctx=8, seed=7)
    getattr(model.blocks[0].mixer, weight).data[0, 0] = np.inf
    tokens = np.random.default_rng(8).integers(0, 16, (2, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as exc:
            model.forward(tokens)
    assert exc.value.block == 0
    assert exc.value.step == 0


def test_blocked_gated_scan_rejects_unequal_shapes():
    a = T.Tensor(np.zeros((3, 2, 4)))
    with pytest.raises(ShapeError):
        blocked_gated_scan(a, a, a, T.Tensor(np.zeros((3, 1, 4))))
    with pytest.raises(ShapeError):
        blocked_gated_scan(*(T.Tensor(np.zeros((1, 3, 2, 4))),) * 4)


def test_blocked_gated_scan_rejects_mixed_dtypes():
    a = T.Tensor(np.zeros((3, 2, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="dtype"):
        blocked_gated_scan(a, a, a, T.Tensor(np.zeros((3, 2, 4))))


def test_blocked_gated_scan_returns_no_subnormal_gradients(monkeypatch):
    # Gates of 0.5 halve the state gradient at every step back in time, so a
    # readout gradient at the last step alone reaches the subnormal range
    # about 126 steps earlier. The blocked backward zeroes those values and
    # otherwise agrees with gated_la_scan's, which keeps them. A returned
    # gradient sums d products of a state gradient with a key, value or
    # state entry; with entries below 1 / d in magnitude, zeroing state
    # gradients below tiny moves it by less than tiny, and zeroing it by
    # less than tiny again.
    rng = np.random.default_rng(50)
    n, m, d = 300, 2, 4
    tiny = np.finfo(np.float32).tiny
    arrays = [np.full((n, m, d), 0.5)] + [rng.uniform(-0.25, 0.25, (n, m, d)) for _ in range(3)]
    g_out = np.zeros((n, m, d), dtype=np.float32)
    g_out[-1] = rng.standard_normal((m, d))
    backs = []
    monkeypatch.setattr(T, "_record", lambda out, inputs, back: backs.append(back))

    def taped(layout):
        return [T.Tensor(layout(a).astype(np.float32), requires_grad=True) for a in arrays]

    def by_memory(a):
        return np.ascontiguousarray(a.transpose(1, 0, 2))

    blocked_gated_scan(*taped(lambda a: a))
    got = backs.pop()(g_out)
    gated_la_scan(*taped(by_memory))
    want = [g.transpose(1, 0, 2) for g in backs.pop()(by_memory(g_out))]
    assert any(((g != 0) & (np.abs(g) < tiny)).any() for g in want)
    for i, (w, g) in enumerate(zip(want, got)):
        assert g.dtype == np.float32, i
        assert np.count_nonzero((g != 0) & (np.abs(g) < tiny)) == 0, i
        np.testing.assert_allclose(g, w, rtol=1e-4, atol=2 * tiny, err_msg=str(i))


# ---------------------------------------------------------------- attention

def test_attention_rows_sum_to_one():
    # Channel 0 of x is 1 everywhere and w_v reads only that channel, so
    # every position has the same value v and each output is
    # (sum of its attention row) * v @ w_o.
    rng = np.random.default_rng(20)
    d = 8
    p = QKVOParams.init(rng, d, np.float64)
    x = rng.standard_normal((2, 10, d))
    x[..., 0] = 1.0
    p.w_v.data[1:] = 0.0
    y = causal_attention(T.Tensor(x), p).data
    want = p.w_v.data[0] @ p.w_o.data
    np.testing.assert_allclose(y, np.broadcast_to(want, y.shape), atol=1e-12)


def test_attention_single_token_self_only():
    rng = np.random.default_rng(21)
    d = 4
    p = QKVOParams.init(rng, d, np.float64)
    x = rng.standard_normal((2, 1, d))
    y = causal_attention(T.Tensor(x), p).data
    np.testing.assert_allclose(y, x @ p.w_v.data @ p.w_o.data, atol=1e-12)


def test_attention_strictly_causal_weights():
    # A change at position t leaves every earlier output bit-identical and
    # reaches the output at t itself.
    rng = np.random.default_rng(22)
    d = 4
    p = QKVOParams.init(rng, d, np.float64)
    x = rng.standard_normal((1, 6, d))
    y0 = causal_attention(T.Tensor(x), p).data
    for t in range(6):
        x2 = x.copy()
        x2[0, t] += 1.0
        y1 = causal_attention(T.Tensor(x2), p).data
        np.testing.assert_array_equal(y1[0, :t], y0[0, :t])
        assert np.abs(y1[0, t] - y0[0, t]).max() > 0


def test_transformer_block_zero_values_reduces_to_mlp():
    rng = np.random.default_rng(23)
    d = 6
    mix = QKVOParams.init(rng, d, np.float64)
    mix.w_v.data[:] = 0.0
    blk = MixerBlockParams.init(rng, d, mix, causal_attention, np.float64)
    x = rng.standard_normal((1, 8, d))
    y = blk.forward(T.Tensor(x)).data
    z = T.layernorm(T.Tensor(x), blk.ln2_g, blk.ln2_b)
    z = T.gelu(z @ blk.mlp_w1 + blk.mlp_b1)
    want = (T.Tensor(x) + (z @ blk.mlp_w2 + blk.mlp_b2)).data
    np.testing.assert_allclose(y, want, atol=1e-12)


# ---------------------------------------------------------------- fused score nodes

# (fused node, its composed reference, head axes of its inputs)
SCORE_NODES = [
    pytest.param(softmax_attention, composed_softmax_attention, (N_HEADS,), id="softmax"),
    pytest.param(masked_linear_attention, composed_linear_attention, (), id="linear"),
]


def _score_inputs(rng, heads, n, dtype):
    """q, k, v of shape (2, *heads, n, 3). With heads they are strided
    views of (2, n, h, 3) arrays, as causal_attention's split makes them."""
    return [np.moveaxis(rng.standard_normal((2, n, *heads, 3)).astype(dtype), 1, -2)
            for _ in range(3)]


@pytest.mark.parametrize("n", [1, 7, 128])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("fused,composed,heads", SCORE_NODES)
def test_score_node_matches_composed_ops_bit_for_bit(fused, composed, heads, dtype, n):
    rng = np.random.default_rng(30)
    qkv = _score_inputs(rng, heads, n, dtype)
    g = T.Tensor(rng.standard_normal(qkv[2].shape).astype(dtype))
    runs = []
    for mixer in (composed, fused):
        ts = [T.Tensor(a, requires_grad=True) for a in qkv]
        out = mixer(*ts)
        T.backward((out * g).sum())
        runs.append([out.data] + [t.grad for t in ts])
    for want, got in zip(*runs):  # out, then the gradients of q, k and v
        assert_same_bits(got, want)


@pytest.mark.parametrize("which", [0, 1, 2], ids=["q", "k", "v"])
@pytest.mark.parametrize("fused,composed,heads", SCORE_NODES)
def test_score_node_grad_check(fused, composed, heads, which):
    rng = np.random.default_rng(31)
    qkv = [T.Tensor(rng.standard_normal((2, *heads, 5, 3)), requires_grad=True)
           for _ in range(3)]
    w = T.Tensor(rng.standard_normal(qkv[0].shape))

    def f(x):
        args = list(qkv)
        args[which] = x
        return (fused(*args) * w).sum()
    assert grad_check(f, qkv[which]) < 1e-6


@pytest.mark.parametrize("fused,composed,heads", SCORE_NODES)
def test_score_node_records_one_node(fused, composed, heads, monkeypatch):
    nodes = []
    monkeypatch.setattr(T, "_record", lambda *node: nodes.append(node))
    qkv = _score_inputs(np.random.default_rng(32), heads, 6, np.float64)
    ts = [T.Tensor(a, requires_grad=True) for a in qkv]
    out = fused(*ts)
    assert out.requires_grad
    assert len(nodes) == 1
    assert nodes[0][0] == (out,) and all(a is b for a, b in zip(nodes[0][1], ts))
    nodes.clear()
    with T.no_grad():
        assert not fused(*ts).requires_grad
    assert not fused(*(T.Tensor(a) for a in qkv)).requires_grad
    assert nodes == []


@pytest.mark.parametrize("fused,composed,heads", SCORE_NODES)
def test_score_node_leaves_untaped_inputs_without_grad(fused, composed, heads):
    # The node's backward returns dq, dk and dv; only q asked for one.
    q, k, v = _score_inputs(np.random.default_rng(35), heads, 5, np.float64)
    q, k, v = T.Tensor(q, requires_grad=True), T.Tensor(k), T.Tensor(v)
    T.backward(fused(q, k, v).sum())
    assert q.grad is not None
    assert k.grad is None and v.grad is None


@pytest.mark.parametrize("fused,composed,heads", SCORE_NODES)
def test_score_node_rejects_mismatched_inputs(fused, composed, heads):
    q, k, v = (T.Tensor(a) for a in _score_inputs(np.random.default_rng(34), heads, 4,
                                                     np.float64))
    for args in ((q, T.Tensor(k.data.astype(np.float32)), v), (q, k, v[..., :2]),
                 (T.Tensor(np.ones(3)),) * 3):
        with pytest.raises(ShapeError):
            fused(*args)


@pytest.mark.parametrize("mixer,params,heads", [
    pytest.param(causal_attention, QKVOParams, N_HEADS, id="attention"),
    pytest.param(la_mixer_forward, QKVOParams, 1, id="la"),
])
def test_taped_mixer_keeps_less_than_two_score_arrays(mixer, params, heads):
    # After one taped call (float32, B 4, N 256), the arrays the call left
    # alive -- its output and what its tape nodes keep -- hold fewer bytes
    # than two (B, h, N, N) score arrays: the scores are kept once, as the
    # weights the backward needs.
    bsz, n, d = 4, 256, 16
    rng = np.random.default_rng(33)
    p = params.init(rng, d, np.float32)
    x = T.Tensor(rng.standard_normal((bsz, n, d)).astype(np.float32))
    tracemalloc.start()
    try:
        y = mixer(x, p)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        T.backward(y.sum())
    assert kept < 2 * bsz * heads * n * n * 4


# ---------------------------------------------------------------- full models

@pytest.mark.parametrize("kind", list(ModelKind))
def test_models_produce_logits(kind):
    model = build_model(kind, d=16, vocab=64, n_ctx=32, seed=1)
    tokens = np.random.default_rng(0).integers(0, 64, (2, 32))
    logits = model.forward(tokens)
    assert logits.shape == (2, 32, 64)
    assert np.isfinite(logits.data).all()


# sha256 over the parameter bytes of build_model(kind, seed=[5, 0]) at d 16.
INIT_DIGESTS = {
    ("prism", "float32"): "f722e7aefd4602a505923482fff4f20fade36aa11aedf124d4923530bb1a972e",
    ("prism", "float64"): "ad80daf696681dfc3c9ee442ea8b9802e2c6a863100827de49da0ab62b96b846",
    ("la", "float32"): "ef6790a7ce9035d1c177ec301cde91e966bd50df50fbeed6412a923c1b6795b0",
    ("la", "float64"): "b526c030bfaa7ddc86b0434de67e92da5217720f3fe00ad3d79a7a18be09399f",
    ("mom", "float32"): "cb8f15d1d3ff522edefa7346ad70957e54d7e63914274f07f540b62b046d7049",
    ("mom", "float64"): "0f04d22add6e43a1e6797ad3a87a4472a75cbf166c5a4ffe9bc3fc29a3fcf334",
    ("transformer", "float32"):
        "0a55d6ea88149785aeb6c0c655cf840516339aebb9baa203fbf6b5ba91561faa",
    ("transformer", "float64"):
        "39b375b963cb08a8765947fc69b7239974091c745b84c85a12abdd32cd167bc0",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_init_matches_pinned_digests(kind, dtype):
    """Every parameter of a fresh model stays bit-identical: the draws keep
    their order and their scaling. Init uses only rng draws and elementwise
    scaling, no BLAS, so the digest does not depend on the machine."""
    h = hashlib.sha256()
    for p in build_model(kind, seed=[5, 0], dtype=dtype).params():
        h.update(p.data.tobytes())
    assert h.hexdigest() == INIT_DIGESTS[kind.value, np.dtype(dtype).name]

def test_prism_param_count_matches_hand_sum():
    # Named for PRISM, its first case; it covers every kind, one hand sum each.
    d, v, n_ctx, l, w, e = 16, 64, 128, 2, 4, N_EXPERTS
    body = v * d + 2 * d + d * v                                  # embedding, final norm, head
    around = 2 * 2 * d + (d * 4 * d + 4 * d + 4 * d * d + d)      # a block's norms and MLP
    mixers = {
        ModelKind.PRISM: w * d + 2 * d * d + d + l * (2 * d * d + d) + d * d,
        ModelKind.LINEAR_ATTENTION: 4 * d * d,
        ModelKind.MOM: d * e + e + 4 * e * d * d + d * d,
        ModelKind.TRANSFORMER: 4 * d * d,
    }
    want = {kind: body + 2 * (around + mixer) for kind, mixer in mixers.items()}
    want[ModelKind.TRANSFORMER] += n_ctx * d                      # positional embeddings
    assert {k.value: n for k, n in want.items()} == {
        "prism": 10_272, "la": 8_512, "mom": 15_304, "transformer": 10_560}
    for kind in ModelKind:
        model = build_model(kind, d=d, vocab=v, n_ctx=n_ctx, L=l)
        assert sum(p.data.size for p in model.params()) == want[kind], kind


@pytest.mark.parametrize("kind", list(ModelKind))
def test_empty_sequence_raises_shape_error(kind):
    model = build_model(kind, d=8, vocab=16, n_ctx=8)
    with pytest.raises(ShapeError, match="at least one step"):
        model.forward(np.zeros((2, 0), dtype=np.int64))


@pytest.mark.parametrize("tokens", [np.zeros((2, 8)) + 0.5, np.zeros((2, 8), dtype=bool)],
                         ids=["float", "bool"])
def test_non_integer_tokens_raise_data_error(tokens):
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, vocab=16, n_ctx=8)
    with pytest.raises(DataError, match="integers"):
        model.forward(tokens)


@pytest.mark.parametrize("bad", [-1, 16])
def test_token_id_out_of_range_raises_data_error(bad):
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, vocab=16, n_ctx=8)
    tokens = np.zeros((2, 8), dtype=np.int64)
    tokens[1, 3] = bad
    with pytest.raises(DataError, match="out of range"):
        model.forward(tokens)


def _queries(task, dtype, kind, bsz=3, n=32):
    """A model of ``kind`` and a (tokens, query positions, targets) batch
    of ``task``: parity has one query per sample, MQAR four."""
    model = build_model(kind, d=8, vocab=64, n_ctx=n, seed=[6, 0], dtype=dtype)
    return model, generate_batch(task, TaskConfig(n=n), bsz, seed=[6, 1])


QUERY_TASKS = [pytest.param(TaskKind.PARITY, id="q1-parity"),
               pytest.param(TaskKind.MQAR, id="q4-mqar")]


@pytest.mark.parametrize("task", QUERY_TASKS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_forward_at_equals_full_logits_at_the_rows(kind, dtype, task):
    model, (tokens, qpos, _) = _queries(task, dtype, kind)
    full = model.forward(tokens).data
    got = model.forward(tokens, at=qpos).data
    assert got.shape == qpos.shape + (model.vocab,)
    assert_same_bits(got, full[np.arange(len(qpos))[:, None], qpos])


@pytest.mark.parametrize("task", QUERY_TASKS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_forward_at_gives_the_full_logits_gradients(kind, dtype, task):
    # The same query loss, through the full logits and through the rows:
    # the gradients differ only by the order in which zeros are summed in.
    model, (tokens, qpos, tgt) = _queries(task, dtype, kind)
    grads = []
    for at in (None, qpos):
        for p in model.params():
            p.grad = None
        logits = model.forward(tokens, at=at)
        rows = logits[np.arange(len(qpos))[:, None], qpos] if at is None else logits
        T.backward(train.query_loss(rows, tgt))
        grads.append([p.grad for p in model.params()])
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for want, got in zip(*grads):
        assert got is not None and got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


@pytest.mark.parametrize("pos", [-1, 32], ids=["negative", "past-end"])
def test_forward_at_out_of_range_raises_data_error(pos):
    # A negative position must not wrap to N - 1.
    model, (tokens, qpos, _) = _queries(TaskKind.MQAR, np.float32, ModelKind.LINEAR_ATTENTION)
    qpos[1, 2] = pos
    with pytest.raises(DataError, match=r"out of range \[0, 32\)"):
        model.forward(tokens, at=qpos)


def test_forward_non_integer_at_raises_data_error():
    model, (tokens, qpos, _) = _queries(TaskKind.MQAR, np.float32, ModelKind.LINEAR_ATTENTION)
    with pytest.raises(DataError, match="must be integers"):
        model.forward(tokens, at=qpos.astype(np.float64))


@pytest.mark.parametrize("shape", [(2, 4), (3,), (3, 4, 1)], ids=["other-B", "1-d", "3-d"])
def test_forward_at_of_another_shape_raises_shape_error(shape):
    model, (tokens, _, _) = _queries(TaskKind.MQAR, np.float32, ModelKind.LINEAR_ATTENTION)
    with pytest.raises(ShapeError, match=r"must be \(B, Q\) with B = 3"):
        model.forward(tokens, at=np.zeros(shape, dtype=np.int64))


def test_models_deterministic_under_seed():
    rng = np.random.default_rng(2)
    tokens = rng.integers(0, 64, (2, 16))
    a = build_model(ModelKind.PRISM, d=16, vocab=64, n_ctx=16, seed=7)
    b = build_model(ModelKind.PRISM, d=16, vocab=64, n_ctx=16, seed=7)
    la = a.forward(tokens)
    lb = b.forward(tokens)
    assert np.array_equal(la.data, lb.data)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_all_mixers_causal(kind):
    model = build_model(kind, d=16, vocab=64, n_ctx=24, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    tokens = rng.integers(0, 64, (1, 24))
    base = model.forward(tokens).data
    tokens2 = tokens.copy()
    tokens2[0, 15] = (tokens2[0, 15] + 7) % 64
    pert = model.forward(tokens2).data
    np.testing.assert_array_equal(base[0, :15], pert[0, :15])
    assert np.abs(base[0, 15:] - pert[0, 15:]).max() > 0


def test_oracle_kinds_not_trainable():
    with pytest.raises(ConfigError):
        ModelKind.parse("delta")


@pytest.mark.parametrize("name", ["trans", "linear_attention"])
def test_model_kind_parse_accepts_only_the_kind_values(name):
    with pytest.raises(ConfigError, match="unknown model kind"):
        ModelKind.parse(name)
    assert [ModelKind.parse(f" {k.value.upper()}") for k in ModelKind] == list(ModelKind)


def test_model_kind_parse_rejects_non_string():
    with pytest.raises(ConfigError, match="model kind must be a name"):
        ModelKind.parse(None)


@pytest.mark.parametrize("kind", ["prism", "la", None])
def test_non_model_kind_raises_config_error(kind):
    # A name is not a ModelKind: build_model("prism") used to build causal
    # attention without positional embeddings.
    with pytest.raises(ConfigError, match="must be a ModelKind"):
        build_model(kind)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_model_pickle_round_trip(kind):
    model = build_model(kind, d=8, vocab=16, n_ctx=8, seed=9)
    tokens = np.random.default_rng(10).integers(0, 16, (2, 8))
    copy = pickle.loads(pickle.dumps(model))
    np.testing.assert_array_equal(copy.forward(tokens).data, model.forward(tokens).data)


def test_state_dict_round_trip():
    model = build_model(ModelKind.MOM, d=8, vocab=16, n_ctx=8, seed=5)
    state = {k: v.copy() for k, v in model.state_dict().items()}
    other = build_model(ModelKind.MOM, d=8, vocab=16, n_ctx=8, seed=99)
    other.load_state_dict(state)
    tokens = np.random.default_rng(6).integers(0, 16, (1, 8))
    np.testing.assert_array_equal(model.forward(tokens).data,
                                  other.forward(tokens).data)


def test_load_state_dict_rejects_other_keys():
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, vocab=16, n_ctx=8, seed=5)
    state = dict(model.state_dict())
    missing = {k: v for k, v in state.items() if k != "p3"}
    with pytest.raises(ShapeError, match=r"missing \['p3'\]"):
        model.load_state_dict(missing)
    with pytest.raises(ShapeError, match=r"unexpected \['extra'\]"):
        model.load_state_dict({**state, "extra": np.zeros(1)})


def test_load_state_dict_rejects_per_expert_mom_layout():
    model = build_model(ModelKind.MOM, d=8, vocab=16, n_ctx=8, seed=5)
    stacked = {id(t) for blk in model.blocks
               for t in (blk.mixer.w_g, blk.mixer.w_k, blk.mixer.w_v, blk.mixer.w_q)}
    arrays = []
    for p in model.params():
        arrays += np.split(p.data, N_EXPERTS, axis=1) if id(p) in stacked else [p.data]
    with pytest.raises(ShapeError):
        model.load_state_dict({f"p{i}": a for i, a in enumerate(arrays)})


def test_load_state_dict_rejects_per_pair_prism_layout():
    # The layout before the L pairs were stacked: w_alpha (d,), and one
    # (d, d) w_k and w_p block and one (d,) w_beta column per pair.
    model = build_model(ModelKind.PRISM, d=8, vocab=16, n_ctx=8, L=2, seed=5)
    old = {}
    for prism in (blk.mixer for blk in model.blocks):
        old[id(prism.w_alpha)] = [prism.w_alpha.data[:, 0]]
        old[id(prism.w_k)] = np.split(prism.w_k.data, 2, axis=1)
        old[id(prism.w_p)] = np.split(prism.w_p.data, 2, axis=1)
        old[id(prism.w_beta)] = list(prism.w_beta.data.T)
    arrays = [a for p in model.params() for a in old.get(id(p), [p.data])]
    with pytest.raises(ShapeError):
        model.load_state_dict({f"p{i}": a for i, a in enumerate(arrays)})


@pytest.mark.parametrize("kind", [ModelKind.PRISM, ModelKind.LINEAR_ATTENTION])
def test_non_integer_size_raises_config_error(kind):
    with pytest.raises(ConfigError, match="model d must be an int, got 2.0"):
        build_model(kind, d=2.0)


def test_transformer_heads_must_divide_d():
    with pytest.raises(ConfigError, match=f"heads {N_HEADS} must divide d 15"):
        build_model(ModelKind.TRANSFORMER, d=15)
    for kind in (ModelKind.PRISM, ModelKind.LINEAR_ATTENTION, ModelKind.MOM):
        assert build_model(kind, d=15, vocab=16, n_ctx=8).d == 15


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.complex128, np.dtype("int8"), None,
                                   "float32", 1.5],
                         ids=["int64", "float16", "complex128", "int8-dtype", "none", "name",
                              "number"])
def test_non_float_dtype_raises_config_error(dtype):
    with pytest.raises(ConfigError, match="dtype must be float32 or float64"):
        build_model(ModelKind.LINEAR_ATTENTION, d=8, vocab=16, n_ctx=8, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.dtype("float32"),
                                   np.dtype("float64")],
                         ids=["float32", "float64", "float32-dtype", "float64-dtype"])
def test_float_dtype_is_the_model_and_logits_dtype(dtype):
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, vocab=16, n_ctx=8, dtype=dtype)
    logits = model.forward(np.zeros((1, 8), dtype=np.int64))
    assert model.dtype is np.dtype(dtype).type
    assert logits.data.dtype == np.dtype(dtype)


@pytest.mark.parametrize("seed", [-1, 1.5, True, [1, -2]], ids=str)
def test_bad_seed_raises_config_error(seed):
    with pytest.raises(ConfigError, match="seed must be"):
        build_model(ModelKind.PRISM, d=8, vocab=16, n_ctx=8, seed=seed)


def test_load_state_dict_takes_lists():
    model = build_model(ModelKind.PRISM, d=8, vocab=16, n_ctx=8, seed=5)
    other = build_model(ModelKind.PRISM, d=8, vocab=16, n_ctx=8, seed=6)
    other.load_state_dict({k: v.tolist() for k, v in model.state_dict().items()})
    for a, b in zip(model.params(), other.params()):
        assert b.data.dtype == np.float32
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("value, error, match", [
    ([[1.0, 2.0], [3.0]], ShapeError, "p1 is ragged"),
    (np.full((8,), "a"), DataError, "p1 is not numbers")], ids=["ragged", "strings"])
def test_load_state_dict_names_the_key_of_a_value_that_is_not_numbers(value, error, match):
    model = build_model(ModelKind.LINEAR_ATTENTION, d=8, vocab=16, n_ctx=8, seed=5)
    state = model.state_dict()
    state["p1"] = value
    with pytest.raises(error, match=match):
        model.load_state_dict(state)


@pytest.mark.parametrize("block", [0, 1])
def test_numeric_error_names_block_and_step(block):
    model = build_model(ModelKind.PRISM, d=8, vocab=16, n_ctx=8, seed=7)
    model.blocks[block].mixer.w_v.data[0, 0] = np.inf
    tokens = np.random.default_rng(8).integers(0, 16, (2, 8))
    with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
        model.forward(tokens)
    assert exc.value.block == block
    assert exc.value.step == 0


def test_la_mixer_matches_recurrence():
    rng = np.random.default_rng(24)
    d = 5
    p = QKVOParams.init(rng, d, np.float64)
    x = rng.standard_normal((1, 9, d))
    y = la_mixer_forward(T.Tensor(x), p).data
    q = x @ p.w_q.data
    k = x @ p.w_k.data
    v = x @ p.w_v.data
    s = np.zeros((d, d))
    for t in range(9):
        s = linear_attention_step(s, k[0, t], v[0, t])
        want = (s @ q[0, t]) @ p.w_o.data
        np.testing.assert_allclose(y[0, t], want, atol=1e-10)
