"""PRISM cell tests: naive rollout oracle, scan equivalence, transition
algebra, spectrum and rank structure, loop stability."""

import math

import numpy as np
import pytest

from prismlab import tensor as T
from prismlab.cell import (PrismBlockParams, PrismConfig, PrismParams,
                           StepTerms, TransitionPair, build_transition,
                           chunked_scan_forward, compose_transitions,
                           compute_anchor, compute_step_terms,
                           dense_transitions, prism_block_forward,
                           rank_accumulate, scale_into_unit_ball, scan_core,
                           serial_forward)
from prismlab.errors import ConfigError, NumericError, ShapeError
from prismlab.linalg import singular_values
from prismlab.tensor import Tensor


def make(cfg_kwargs=None, seed=0, dtype=np.float64):
    cfg = PrismConfig(**(cfg_kwargs or {}))
    rng = np.random.default_rng(seed)
    params = PrismParams.init(rng, cfg, dtype=dtype)
    return cfg, params, rng


# ---------------------------------------------------------------- oracle

def _sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def _gelu(x):
    from scipy.special import erf
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def naive_prism_rollout(x, params, cfg, s0=None):
    """Independent per-element re-implementation of the PRISM forward."""
    n, d = x.shape
    w = cfg.w
    kern = params.conv.data
    xp = np.vstack([np.zeros((w - 1, d)), x])
    u = np.zeros((n, d))
    for t in range(n):
        for j in range(w):
            u[t] += kern[j] * xp[t + j]
    u = u * _sigmoid(u)

    s = np.zeros((d, d)) if s0 is None else s0.copy()
    y = np.zeros((n, d))
    for t in range(n):
        ut = u[t]
        alpha = _sigmoid(ut @ params.w_alpha.data)
        q = ut @ params.w_q.data
        v = ut @ params.w_v.data
        ks, ps, bs = [], [], []
        for l in range(cfg.L):
            kl = ut @ params.w_k[l].data
            if l == 0:
                kl = kl / max(1.0, float(np.linalg.norm(kl)))
            ks.append(kl)
            ps.append(ut @ params.w_p[l].data)
            bs.append(_sigmoid(ut @ params.w_beta[l].data))
        r = v - ut
        b_t = np.zeros((d, d))
        for l in range(cfg.L):
            delta = _gelu(ps[l] * r)
            b_t += bs[l] * np.outer(delta, ks[l])
            r = r - delta
        s = alpha * (s @ (np.eye(d) - bs[0] * np.outer(ks[0], ks[0]))) + b_t
        y[t] = (s @ q) @ params.w_o.data
    return y, s


# ---------------------------------------------------------------- anchor

def test_anchor_zero_input():
    cfg, params, _ = make()
    u = compute_anchor(T.tensor(np.zeros((5, cfg.d))), params)
    np.testing.assert_array_equal(u.data, np.zeros((5, cfg.d)))


def test_anchor_w1_unit_kernel_is_silu():
    cfg = PrismConfig(d=4, L=1, w=1)
    rng = np.random.default_rng(1)
    params = PrismParams.init(rng, cfg)
    params.conv.data[:] = 1.0
    x = rng.standard_normal((6, 4))
    u = compute_anchor(T.tensor(x), params)
    np.testing.assert_allclose(u.data, T.silu(T.tensor(x)).data, rtol=1e-14)


def test_anchor_causality_perturbation():
    cfg, params, rng = make()
    x = rng.standard_normal((10, cfg.d))
    u0 = compute_anchor(T.tensor(x), params).data
    x2 = x.copy()
    x2[5] += 3.0
    u1 = compute_anchor(T.tensor(x2), params).data
    np.testing.assert_array_equal(u0[:5], u1[:5])
    assert np.abs(u0[5:] - u1[5:]).max() > 0


# ---------------------------------------------------------------- terms

def test_terms_zero_anchor():
    cfg, params, _ = make()
    u = T.tensor(np.zeros((1, 3, cfg.d)))
    terms = compute_step_terms(u, params, cfg)
    np.testing.assert_array_equal(terms.alpha.data, np.full((1, 3), 0.5))
    for l in range(cfg.L):
        np.testing.assert_array_equal(terms.beta[l].data, np.full((1, 3), 0.5))
        np.testing.assert_array_equal(terms.k[l].data, np.zeros((1, 3, cfg.d)))
        np.testing.assert_array_equal(terms.p[l].data, np.zeros((1, 3, cfg.d)))
    np.testing.assert_array_equal(terms.q.data, np.zeros((1, 3, cfg.d)))
    np.testing.assert_array_equal(terms.v.data, np.zeros((1, 3, cfg.d)))


def test_normalize_k_projects_onto_ball():
    rng = np.random.default_rng(2)
    k = rng.standard_normal((4, 6)) * 10.0
    out = scale_into_unit_ball(T.tensor(k)).data
    norms = np.linalg.norm(out, axis=-1)
    np.testing.assert_allclose(norms, np.ones(4), rtol=1e-12)
    small = rng.standard_normal((4, 6)) * 0.01
    np.testing.assert_array_equal(scale_into_unit_ball(T.tensor(small)).data, small)


def test_terms_match_per_formula_oracle():
    cfg, params, rng = make(seed=3)
    u = rng.standard_normal((1, 4, cfg.d))
    terms = compute_step_terms(T.tensor(u), params, cfg)
    for t in range(4):
        ut = u[0, t]
        np.testing.assert_allclose(terms.alpha.data[0, t],
                                   _sigmoid(ut @ params.w_alpha.data), rtol=1e-12)
        np.testing.assert_allclose(terms.q.data[0, t], ut @ params.w_q.data, rtol=1e-12)
        np.testing.assert_allclose(terms.v.data[0, t], ut @ params.w_v.data, rtol=1e-12)
        for l in range(cfg.L):
            kl = ut @ params.w_k[l].data
            if l == 0:
                kl = kl / max(1.0, float(np.linalg.norm(kl)))
            np.testing.assert_allclose(terms.k[l].data[0, t], kl, rtol=1e-12)
            np.testing.assert_allclose(terms.p[l].data[0, t],
                                       ut @ params.w_p[l].data, rtol=1e-12)
            np.testing.assert_allclose(terms.beta[l].data[0, t],
                                       _sigmoid(ut @ params.w_beta[l].data), rtol=1e-12)


def test_scale_into_unit_ball_gradient():
    rng = np.random.default_rng(4)
    for scale in (0.3, 3.0):
        x = T.Tensor(rng.standard_normal((3, 5)) * scale, requires_grad=True)
        w = T.tensor(rng.standard_normal((3, 5)))
        err = T.grad_check(lambda t: (scale_into_unit_ball(t) * w).sum(), x)
        assert err < 1e-4


# ---------------------------------------------------------------- rank accumulate

def _terms_from_arrays(k, p, beta, u, v):
    def wrap(a):
        return a if isinstance(a, Tensor) else T.tensor(a)

    u, v = wrap(u), wrap(v)
    t = StepTerms(u=u, q=T.tensor(np.zeros(u.shape)), v=v,
                  alpha=T.tensor(np.full(u.shape[:-1], 0.5)))
    for l in range(len(k)):
        t.k.append(wrap(k[l]))
        t.p.append(wrap(p[l]))
        t.beta.append(wrap(beta[l]))
    return t


def test_rank_accumulate_zero_predictor():
    cfg = PrismConfig(d=4, L=2)
    rng = np.random.default_rng(5)
    shape = (1, 3, 4)
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    k = [rng.standard_normal(shape) for _ in range(2)]
    p = [np.zeros(shape) for _ in range(2)]
    beta = [np.full(shape[:2], 0.7) for _ in range(2)]
    terms = _terms_from_arrays(k, p, beta, u, v)
    b, res = rank_accumulate(terms, terms.v, terms.u, cfg)
    np.testing.assert_array_equal(b.data, np.zeros(shape[:2] + (4, 4)))
    for r in res:
        np.testing.assert_array_equal(r.data, v - u)


def test_rank_accumulate_asymptotic_linearity():
    # With large positive p*r, gelu behaves like identity, so the L=1
    # injection approaches beta * outer(p * r, k).
    cfg = PrismConfig(d=3, L=1)
    u = np.zeros((1, 1, 3))
    v = np.array([[[4.0, 5.0, 6.0]]])
    p = [np.array([[[30.0, 30.0, 30.0]]])]
    k = [np.array([[[1.0, -1.0, 0.5]]])]
    beta = [np.array([[0.25]])]
    terms = _terms_from_arrays(k, p, beta, u, v)
    b, _ = rank_accumulate(terms, terms.v, terms.u, cfg)
    want = 0.25 * np.outer(p[0][0, 0] * v[0, 0], k[0][0, 0])
    np.testing.assert_allclose(b.data[0, 0], want, rtol=1e-9)


def test_rank_accumulate_scalar_loop_oracle():
    cfg = PrismConfig(d=4, L=2)
    rng = np.random.default_rng(6)
    shape = (1, 2, 4)
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    k = [rng.standard_normal(shape) for _ in range(2)]
    p = [rng.standard_normal(shape) for _ in range(2)]
    beta = [rng.uniform(0.1, 0.9, shape[:2]) for _ in range(2)]
    terms = _terms_from_arrays(k, p, beta, u, v)
    b, res = rank_accumulate(terms, terms.v, terms.u, cfg)
    for t in range(2):
        r = v[0, t] - u[0, t]
        want_b = np.zeros((4, 4))
        for l in range(2):
            delta = np.array([_gelu(p[l][0, t, i] * r[i]) for i in range(4)])
            for i in range(4):
                for j in range(4):
                    want_b[i, j] += beta[l][0, t] * delta[i] * k[l][0, t, j]
            r = r - delta
        np.testing.assert_array_equal(b.data[0, t], want_b)
        np.testing.assert_array_equal(res[-1].data[0, t], r)


def test_rank_accumulate_gradients():
    cfg = PrismConfig(d=3, L=2)
    rng = np.random.default_rng(7)
    shape = (1, 2, 3)
    arrays = {name: rng.standard_normal(shape) for name in ("u", "v", "k0", "k1", "p0", "p1")}
    betas = [rng.uniform(0.2, 0.8, shape[:2]) for _ in range(2)]
    w = rng.standard_normal(shape[:2] + (3, 3))

    def build_loss(which):
        def f(x):
            vals = {n: T.tensor(a) for n, a in arrays.items()}
            vals[which] = x
            terms = _terms_from_arrays([vals["k0"], vals["k1"]],
                                       [vals["p0"], vals["p1"]],
                                       betas, np.zeros(shape), np.zeros(shape))
            terms.u = vals["u"]
            terms.v = vals["v"]
            b, res = rank_accumulate(terms, terms.v, terms.u, cfg)
            return (b * T.tensor(w)).sum() + (res[-1] * res[-1]).sum()
        return f

    for which in arrays:
        x = T.Tensor(arrays[which], requires_grad=True)
        assert T.grad_check(build_loss(which), x) < 1e-4, which


# ---------------------------------------------------------------- transitions

def test_build_transition_beta_zero_is_scaled_identity():
    pair = TransitionPair.from_structured(0.8, 0.0, np.array([1.0, 2.0]), np.zeros((2, 2)))
    np.testing.assert_allclose(pair.a, 0.8 * np.eye(2))


def test_build_transition_annihilates_key_direction():
    k = np.array([0.6, 0.8])  # unit norm
    pair = TransitionPair.from_structured(1.0, 1.0, k, np.zeros((2, 2)))
    np.testing.assert_allclose(pair.a @ k, np.zeros(2), atol=1e-15)


def test_dense_matches_structured_application():
    rng = np.random.default_rng(8)
    k = rng.standard_normal(5)
    k /= np.linalg.norm(k) * 1.5
    pair = TransitionPair.from_structured(0.9, 0.7, k, rng.standard_normal((5, 5)))
    s = rng.standard_normal((5, 5))
    dense = s @ pair.a + pair.b
    structured = 0.9 * (s - 0.7 * np.outer(s @ k, k)) + pair.b
    assert np.abs(dense - structured).max() < 1e-12


def test_compose_identity_element():
    rng = np.random.default_rng(9)
    d = 4
    theta = TransitionPair(a=rng.standard_normal((d, d)), b=rng.standard_normal((d, d)))
    ident = TransitionPair.identity(d)
    left = compose_transitions(ident, theta)
    right = compose_transitions(theta, ident)
    for got in (left, right):
        np.testing.assert_allclose(got.a, theta.a, atol=1e-15)
        np.testing.assert_allclose(got.b, theta.b, atol=1e-15)


def test_compose_associativity():
    rng = np.random.default_rng(10)
    d = 4
    pairs = [TransitionPair(a=rng.standard_normal((d, d)),
                            b=rng.standard_normal((d, d))) for _ in range(3)]
    lhs = compose_transitions(compose_transitions(pairs[0], pairs[1]), pairs[2])
    rhs = compose_transitions(pairs[0], compose_transitions(pairs[1], pairs[2]))
    assert np.abs(lhs.a - rhs.a).max() < 1e-12
    assert np.abs(lhs.b - rhs.b).max() < 1e-12


def test_compose_matches_sequential_steps():
    rng = np.random.default_rng(11)
    d = 4
    p1 = TransitionPair(a=rng.standard_normal((d, d)), b=rng.standard_normal((d, d)))
    p2 = TransitionPair(a=rng.standard_normal((d, d)), b=rng.standard_normal((d, d)))
    s0 = rng.standard_normal((d, d))
    seq = p2.apply(p1.apply(s0))
    np.testing.assert_allclose(compose_transitions(p1, p2).apply(s0), seq, atol=1e-12)


# ---------------------------------------------------------------- serial rollout

def test_scan_core_frozen_state():
    # alpha = 1, beta = 0, B = 0 freezes the state for every step.
    rng = np.random.default_rng(12)
    bsz, n, d = 2, 6, 4
    s0 = T.tensor(rng.standard_normal((bsz, d, d)))
    out, s_n = scan_core(T.tensor(np.ones((bsz, n))), T.tensor(np.zeros((bsz, n))),
                         T.tensor(rng.standard_normal((bsz, n, d))),
                         T.tensor(np.zeros((bsz, n, d, d))),
                         T.tensor(rng.standard_normal((bsz, n, d))), s0)
    np.testing.assert_array_equal(s_n.data, s0.data)


def test_serial_single_step_equals_transition():
    cfg, params, rng = make({"d": 5, "L": 2}, seed=13)
    x = rng.standard_normal((1, 5))
    s0 = rng.standard_normal((5, 5))
    y, s1 = serial_forward(T.tensor(x), params, cfg, s0=T.tensor(s0))
    u = compute_anchor(T.tensor(x.reshape(1, 1, 5)), params)
    terms = compute_step_terms(u, params, cfg)
    b, _ = rank_accumulate(terms, terms.v, u, cfg)
    pair = build_transition(terms, b)
    want_s1 = pair.apply(s0)
    np.testing.assert_allclose(s1.data, want_s1, atol=1e-12)
    want_y = (want_s1 @ terms.q.data[0, 0]) @ params.w_o.data
    np.testing.assert_allclose(y.data[0], want_y, atol=1e-12)


def test_serial_forward_matches_naive_oracle():
    cfg, params, rng = make({"d": 8, "L": 2}, seed=14)
    x = rng.standard_normal((32, 8))
    y, s_n = serial_forward(T.tensor(x), params, cfg)
    want_y, want_s = naive_prism_rollout(x, params, cfg)
    assert np.abs(y.data - want_y).max() < 1e-10
    assert np.abs(s_n.data - want_s).max() < 1e-10


def test_serial_forward_nan_reports_step():
    cfg, params, rng = make({"d": 3, "L": 1}, seed=15)
    bsz, n, d = 1, 4, 3
    alpha = np.ones((bsz, n))
    beta = np.zeros((bsz, n))
    k = rng.standard_normal((bsz, n, d))
    b = np.zeros((bsz, n, d, d))
    b[0, 2] = np.inf
    q = rng.standard_normal((bsz, n, d))
    with pytest.raises(NumericError) as exc:
        scan_core(T.tensor(alpha), T.tensor(beta), T.tensor(k), T.tensor(b),
                  T.tensor(q), T.tensor(np.zeros((bsz, d, d))))
    assert exc.value.step == 2


def test_config_validation():
    with pytest.raises(ConfigError):
        PrismConfig(d=0)
    with pytest.raises(ConfigError):
        PrismConfig(w=0)


# ---------------------------------------------------------------- chunked scan

def test_chunk_one_degenerates_to_serial():
    cfg, params, rng = make({"d": 6, "chunk": 1}, seed=16)
    x = T.tensor(rng.standard_normal((17, 6)))
    y1, s1 = serial_forward(x, params, cfg)
    y2, s2 = chunked_scan_forward(x, params, cfg)
    assert np.abs(y1.data - y2.data).max() < 1e-12
    assert np.abs(s1.data - s2.data).max() < 1e-12


def test_chunk_full_sequence_single_chunk():
    cfg, params, rng = make({"d": 6, "chunk": 64}, seed=17)
    x = T.tensor(rng.standard_normal((16, 6)))
    y1, s1 = serial_forward(x, params, cfg)
    y2, s2 = chunked_scan_forward(x, params, cfg)
    assert np.abs(y1.data - y2.data).max() < 1e-12


@pytest.mark.parametrize("chunk", [4, 16, 64])
def test_scan_equivalence_chunks(chunk):
    cfg = PrismConfig(d=16, L=2, chunk=chunk)
    rng = np.random.default_rng(100 + chunk)
    params = PrismParams.init(rng, cfg)
    x = T.tensor(rng.standard_normal((256, 16)))
    y1, s1 = serial_forward(x, params, cfg)
    y2, s2 = chunked_scan_forward(x, params, cfg)
    assert np.abs(y1.data - y2.data).max() < 1e-9
    assert np.abs(s1.data - s2.data).max() < 1e-9


def test_scan_equivalence_float32():
    cfg = PrismConfig(d=16, L=2, chunk=16)
    rng = np.random.default_rng(18)
    params = PrismParams.init(rng, cfg, dtype=np.float32)
    x = T.tensor(rng.standard_normal((256, 16)), dtype=np.float32)
    y1, _ = serial_forward(x, params, cfg)
    y2, _ = chunked_scan_forward(x, params, cfg)
    assert np.abs(y1.data - y2.data).max() < 1e-4


def test_chunked_carries_no_gradient():
    cfg, params, rng = make({"d": 4}, seed=19)
    x = T.Tensor(rng.standard_normal((8, 4)), requires_grad=True)
    y, _ = chunked_scan_forward(x, params, cfg)
    assert not y.requires_grad


def test_shared_initial_state_serial_matches_chunked():
    cfg, params, rng = make({"d": 4, "chunk": 4}, seed=40)
    x = T.tensor(rng.standard_normal((3, 10, 4)))
    s0 = rng.standard_normal((4, 4))
    y1, s1 = serial_forward(x, params, cfg, s0=T.tensor(s0))
    y2, s2 = chunked_scan_forward(x, params, cfg, s0=T.tensor(s0))
    assert np.abs(y1.data - y2.data).max() < 1e-12
    assert np.abs(s1.data - s2.data).max() < 1e-12
    per_sample = T.tensor(np.broadcast_to(s0, (3, 4, 4)).copy())
    y3, _ = serial_forward(x, params, cfg, s0=per_sample)
    np.testing.assert_array_equal(y1.data, y3.data)


def test_shared_initial_state_gradient():
    cfg, params, rng = make({"d": 3, "L": 1}, seed=41)
    x = T.tensor(rng.standard_normal((2, 5, 3)))
    w = T.tensor(rng.standard_normal((2, 5, 3)))
    s0 = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    err = T.grad_check(lambda t: (serial_forward(x, params, cfg, s0=t)[0] * w).sum(), s0)
    assert err < 1e-6


@pytest.mark.parametrize("forward", [serial_forward, chunked_scan_forward])
def test_bad_shapes_raise_shape_error(forward):
    cfg, params, rng = make({"d": 4}, seed=42)
    with pytest.raises(ShapeError, match="config d"):
        forward(T.tensor(rng.standard_normal((2, 8, 5))), params, cfg)
    with pytest.raises(ShapeError, match="initial state"):
        forward(T.tensor(rng.standard_normal((3, 8, 4))), params, cfg,
                s0=T.tensor(np.zeros((2, 4, 4))))


def test_state_independence_of_transition_pairs():
    # Definition-level check: the per-step pairs never consult the state,
    # so changing S0 changes the rollout but not one (A_t, B_t).
    cfg, params, rng = make({"d": 5}, seed=20)
    x = T.tensor(rng.standard_normal((1, 10, 5)))
    u = compute_anchor(x, params)
    terms = compute_step_terms(u, params, cfg)
    b, _ = rank_accumulate(terms, terms.v, u, cfg)
    a1, b1 = dense_transitions(terms, b)

    s0a = T.tensor(np.zeros((1, 5, 5)))
    s0b = T.tensor(rng.standard_normal((1, 5, 5)))
    y_a, _ = serial_forward(x, params, cfg, s0=s0a)
    y_b, _ = serial_forward(x, params, cfg, s0=s0b)
    assert np.abs(y_a.data - y_b.data).max() > 1e-8  # rollout differs

    u2 = compute_anchor(x, params)
    terms2 = compute_step_terms(u2, params, cfg)
    b2, _ = rank_accumulate(terms2, terms2.v, u2, cfg)
    a2, b2d = dense_transitions(terms2, b2)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2d)


def test_output_causality():
    cfg, params, rng = make(seed=21)
    n = 24
    x = rng.standard_normal((n, cfg.d))
    y0, _ = serial_forward(T.tensor(x), params, cfg)
    for pos in rng.choice(n, size=5, replace=False):
        x2 = x.copy()
        x2[pos] += 1.7
        y1, _ = serial_forward(T.tensor(x2), params, cfg)
        np.testing.assert_array_equal(y0.data[:pos], y1.data[:pos])


# ---------------------------------------------------------------- spectrum / rank

def rollout_terms(cfg, params, n, rng):
    x = T.tensor(rng.standard_normal((1, n, cfg.d)))
    u = compute_anchor(x, params)
    terms = compute_step_terms(u, params, cfg)
    b, _ = rank_accumulate(terms, terms.v, u, cfg)
    return terms, b


def test_spectrum_analytic_and_numeric():
    cfg, params, rng = make(seed=22)
    terms, b = rollout_terms(cfg, params, 50, rng)
    a_dense, _ = dense_transitions(terms, b)
    for t in range(50):
        pair = build_transition(terms, b, t=t)
        analytic = np.sort(pair.structured_eigenvalues())
        numeric = np.sort(np.linalg.eigvalsh(a_dense[0, t]))
        np.testing.assert_allclose(analytic, numeric, atol=1e-8)
        assert analytic.min() >= -1e-8
        assert analytic.max() <= 1.0 + 1e-8


def test_rank_bound_and_typical_rank():
    cfg, params, rng = make(seed=23)  # d=16, L=2
    _, b = rollout_terms(cfg, params, 60, rng)
    full = 0
    for t in range(60):
        s = singular_values(b.data[0, t])
        numrank = int((s > 1e-8 * s[0]).sum()) if s[0] > 0 else 0
        assert numrank <= cfg.L
        full += numrank == cfg.L
    assert full >= 0.95 * 60


def test_state_norm_stays_bounded():
    cfg, params, rng = make(seed=24)
    x = T.tensor(rng.standard_normal((512, cfg.d)))
    _, s_n = serial_forward(x, params, cfg)
    assert np.linalg.norm(s_n.data) < 1e3


# ---------------------------------------------------------------- loop stability

def test_refinement_lipschitz_bound():
    # L_phi is derived numerically from GELU' on a fine grid first.
    grid = np.linspace(-12.0, 12.0, 2_000_001)
    l_phi = float(T.gelu_deriv_fn(grid).max())
    assert l_phi <= 1.13
    rng = np.random.default_rng(25)
    for _ in range(100):
        d = 16
        p = rng.standard_normal(d) * rng.uniform(0.5, 3.0)
        r = rng.standard_normal(d)
        eps = rng.standard_normal(d)
        eps *= rng.uniform(1e-6, 1e-1) / np.linalg.norm(eps)
        d0 = T.gelu_fn(p * r)
        d1 = T.gelu_fn(p * (r + eps))
        lhs = np.linalg.norm(d1 - d0)
        rhs = l_phi * np.abs(p).max() * np.linalg.norm(eps)
        assert lhs <= rhs * (1.0 + 1e-9)


# ---------------------------------------------------------------- block

def test_block_zero_output_projections_identity():
    cfg, _, rng = make({"d": 6}, seed=26)
    block = PrismBlockParams.init(rng, cfg)
    block.prism.w_o.data[:] = 0.0
    block.mlp_w2.data[:] = 0.0
    x = rng.standard_normal((9, 6))
    y = prism_block_forward(T.tensor(x), block, cfg)
    np.testing.assert_array_equal(y.data, x)


def test_block_shape_preserved_and_grad_reaches_conv():
    cfg, _, rng = make({"d": 6}, seed=27)
    block = PrismBlockParams.init(rng, cfg)
    x = T.Tensor(rng.standard_normal((7, 6)), requires_grad=True)
    y = prism_block_forward(x, block, cfg)
    assert y.shape == (7, 6)
    T.backward((y * y).sum())
    assert block.prism.conv.grad is not None
    assert np.abs(block.prism.conv.grad).max() > 0


def test_block_gradcheck_small():
    cfg = PrismConfig(d=3, L=2, w=2, chunk=2)
    rng = np.random.default_rng(28)
    block = PrismBlockParams.init(rng, cfg)
    x = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    err = T.grad_check(lambda t: prism_block_forward(t, block, cfg).sum(), x)
    assert err < 1e-4
