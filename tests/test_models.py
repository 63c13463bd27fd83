"""Reference update rules and model zoo tests."""

import numpy as np
import pytest

from oracles import (Activation, degenerate_closed_form, delta_rule_step,
                     grad_check, ideal_solver_step, linear_attention_step)
from prismlab import tensor as T
from prismlab.errors import ConfigError, DataError, NumericError, ShapeError
from prismlab.models import (N_EXPERTS, AttnParams, LAParams, MixerBlockParams,
                             ModelKind, MoMParams, SequenceModel,
                             blocked_gated_scan, build_model, causal_attention,
                             gated_la_scan, la_mixer_forward, mom_forward)


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
    p = AttnParams.init(rng, d, np.float64)
    x = rng.standard_normal((2, 10, d))
    x[..., 0] = 1.0
    p.w_v.data[1:] = 0.0
    y = causal_attention(T.Tensor(x), p).data
    want = p.w_v.data[0] @ p.w_o.data
    np.testing.assert_allclose(y, np.broadcast_to(want, y.shape), atol=1e-12)


def test_attention_single_token_self_only():
    rng = np.random.default_rng(21)
    d = 4
    p = AttnParams.init(rng, d, np.float64)
    x = rng.standard_normal((2, 1, d))
    y = causal_attention(T.Tensor(x), p).data
    np.testing.assert_allclose(y, x @ p.w_v.data @ p.w_o.data, atol=1e-12)


def test_attention_strictly_causal_weights():
    # A change at position t leaves every earlier output bit-identical and
    # reaches the output at t itself.
    rng = np.random.default_rng(22)
    d = 4
    p = AttnParams.init(rng, d, np.float64)
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
    mix = AttnParams.init(rng, d, np.float64)
    mix.w_v.data[:] = 0.0
    blk = MixerBlockParams.init(rng, d, mix, causal_attention, np.float64)
    x = rng.standard_normal((1, 8, d))
    y = blk.forward(T.Tensor(x)).data
    z = T.layernorm(T.Tensor(x), blk.ln2_g, blk.ln2_b)
    z = T.gelu(z @ blk.mlp_w1 + blk.mlp_b1)
    want = (T.Tensor(x) + (z @ blk.mlp_w2 + blk.mlp_b2)).data
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
    assert sum(p.data.size for p in model.params()) == want


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


def test_model_kind_parse_rejects_non_string():
    with pytest.raises(ConfigError, match="model kind must be a name"):
        ModelKind.parse(None)


@pytest.mark.parametrize("kind", ["prism", "la", None])
def test_non_model_kind_raises_config_error(kind):
    # A name is not a ModelKind: build_model("prism") used to build causal
    # attention without positional embeddings.
    with pytest.raises(ConfigError, match="must be a ModelKind"):
        build_model(kind)


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
    for prism in (blk.prism for blk in model.blocks):
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


@pytest.mark.parametrize("block", [0, 1])
def test_numeric_error_names_block_and_step(block):
    model = build_model(ModelKind.PRISM, d=8, vocab=16, n_ctx=8, seed=7)
    model.blocks[block].prism.w_v.data[0, 0] = np.inf
    tokens = np.random.default_rng(8).integers(0, 16, (2, 8))
    with np.errstate(all="ignore"), pytest.raises(NumericError) as exc:
        model.forward(tokens)
    assert exc.value.block == block
    assert exc.value.step == 0


def test_la_mixer_matches_recurrence():
    rng = np.random.default_rng(24)
    d = 5
    p = LAParams.init(rng, d, np.float64)
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
