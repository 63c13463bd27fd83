"""Reference update rules and model zoo tests."""

import numpy as np
import pytest

from prismlab import tensor as T
from prismlab.errors import ConfigError, SingularMatrixError
from prismlab.models import (Activation, AttnParams, LAParams, MixerBlockParams,
                             ModelKind, MoMParams, SequenceModel, build_model,
                             causal_attention, degenerate_closed_form,
                             delta_rule_step, gated_la_scan, ideal_solver_step,
                             la_mixer_forward, linear_attention_step,
                             mom_forward)


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
    with pytest.raises(SingularMatrixError):
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
    out = gated_la_scan(T.tensor(g), T.tensor(k), T.tensor(v), T.tensor(q)).data
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
            vals = {m: T.tensor(a) for m, a in arrays.items()}
            vals[which] = x
            return gated_la_scan(vals["g"], vals["k"], vals["v"], vals["q"]).sum()
        xt = T.Tensor(arrays[which], requires_grad=True)
        assert T.grad_check(f, xt) < 1e-4, which


# ---------------------------------------------------------------- MoM mixer

def test_mom_collapsed_router_equals_single_expert():
    rng = np.random.default_rng(17)
    d = 6
    p = MoMParams.init(rng, d, np.float64)
    p.b_router.data[:] = np.array([0.0, -1e9, -1e9, -1e9])
    p.w_router.data[:] = 0.0
    x = T.tensor(rng.standard_normal((1, 9, d)))
    full = mom_forward(x, p).data
    gate = T.sigmoid(x @ p.w_g[0])
    solo = gated_la_scan(gate, x @ p.w_k[0], x @ p.w_v[0], x @ p.w_q[0])
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
            group[i].data[:] = group[0].data
    x = T.tensor(rng.standard_normal((1, 7, d)))
    full = mom_forward(x, p).data
    gate = T.sigmoid(x @ p.w_g[0])
    solo = gated_la_scan(gate, x @ p.w_k[0], x @ p.w_v[0], x @ p.w_q[0])
    want = (solo @ p.w_o).data
    np.testing.assert_allclose(full, want, atol=1e-10)


def test_mom_causality():
    rng = np.random.default_rng(19)
    d = 5
    p = MoMParams.init(rng, d, np.float64)
    x = rng.standard_normal((1, 11, d))
    y0 = mom_forward(T.tensor(x), p).data
    x2 = x.copy()
    x2[0, 6] += 2.0
    y1 = mom_forward(T.tensor(x2), p).data
    np.testing.assert_array_equal(y0[0, :6], y1[0, :6])


# ---------------------------------------------------------------- attention

def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(20)
    d = 8
    p = AttnParams.init(rng, d, np.float64)
    x = T.tensor(rng.standard_normal((1, 10, d)))
    _, att = causal_attention(x, p, return_weights=True)
    sums = att.data.sum(axis=-1)
    np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


def test_attention_single_token_self_only():
    rng = np.random.default_rng(21)
    d = 4
    p = AttnParams.init(rng, d, np.float64)
    x = T.tensor(rng.standard_normal((1, 1, d)))
    _, att = causal_attention(x, p, return_weights=True)
    np.testing.assert_allclose(att.data, np.ones_like(att.data))


def test_attention_strictly_causal_weights():
    rng = np.random.default_rng(22)
    d = 4
    p = AttnParams.init(rng, d, np.float64)
    x = T.tensor(rng.standard_normal((1, 6, d)))
    _, att = causal_attention(x, p, return_weights=True)
    upper = np.triu(np.ones((6, 6)), k=1).astype(bool)
    assert np.abs(att.data[0, :, upper]).max() == 0.0


def test_transformer_block_zero_values_reduces_to_mlp():
    rng = np.random.default_rng(23)
    d = 6
    mix = AttnParams.init(rng, d, np.float64)
    mix.w_v.data[:] = 0.0
    blk = MixerBlockParams.init(rng, d, mix, causal_attention, np.float64)
    x = rng.standard_normal((1, 8, d))
    y = blk.forward(T.tensor(x)).data
    z = T.layernorm(T.tensor(x), blk.ln2_g, blk.ln2_b)
    z = T.gelu(z @ blk.mlp_w1 + blk.mlp_b1)
    want = (T.tensor(x) + (z @ blk.mlp_w2 + blk.mlp_b2)).data
    np.testing.assert_allclose(y, want, atol=1e-12)


# ---------------------------------------------------------------- full models

@pytest.mark.parametrize("kind", list(ModelKind))
def test_models_produce_logits(kind):
    model = build_model(kind, d=16, vocab=64, n_ctx=32, seed=1)
    tokens = np.random.default_rng(0).integers(0, 64, (2, 32))
    logits = model.forward(tokens)
    assert logits.shape == (2, 32, 64)
    assert np.isfinite(logits.data).all()


def test_prism_param_count_matches_hand_sum():
    model = build_model(ModelKind.PRISM, d=16, vocab=64, n_ctx=128, L=2)
    d, v, l, w = 16, 64, 2, 4
    emb = v * d
    prism = w * d + 2 * d * d + d + l * (2 * d * d + d) + d * d
    block = 2 * 2 * d + prism + (d * 4 * d + 4 * d + 4 * d * d + d)
    want = emb + 2 * block + 2 * d + d * v
    assert model.param_count() == want


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


def test_state_dict_round_trip():
    model = build_model(ModelKind.MOM, d=8, vocab=16, n_ctx=8, seed=5)
    state = {k: v.copy() for k, v in model.state_dict().items()}
    other = build_model(ModelKind.MOM, d=8, vocab=16, n_ctx=8, seed=99)
    other.load_state_dict(state)
    tokens = np.random.default_rng(6).integers(0, 16, (1, 8))
    np.testing.assert_array_equal(model.forward(tokens).data,
                                  other.forward(tokens).data)


def test_la_mixer_matches_recurrence():
    rng = np.random.default_rng(24)
    d = 5
    p = LAParams.init(rng, d, np.float64)
    x = rng.standard_normal((1, 9, d))
    y = la_mixer_forward(T.tensor(x), p).data
    q = x @ p.w_q.data
    k = x @ p.w_k.data
    v = x @ p.w_v.data
    s = np.zeros((d, d))
    for t in range(9):
        s = linear_attention_step(s, k[0, t], v[0, t])
        want = (s @ q[0, t]) @ p.w_o.data
        np.testing.assert_allclose(y[0, t], want, atol=1e-10)
