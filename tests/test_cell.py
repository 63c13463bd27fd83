"""PRISM cell tests: naive rollout oracle, scan equivalence, transition
algebra, spectrum and rank structure, loop stability."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from oracles import (TransitionPair, assert_chunked_scan_matches_serial,
                     build_transition, compose_transitions, dense_transitions,
                     assert_same_bits, gelu_deriv_fn, gelu_fn, grad_check,
                     sigmoid_where)
from prismlab import cell
from prismlab import tensor as T
from prismlab.cell import (PrismBlockParams, PrismConfig, PrismParams,
                           StepTerms, chunked_forward, chunked_scan,
                           chunked_scan_forward, compute_anchor,
                           compute_step_terms, prism_block_forward,
                           rank_accumulate, scale_into_unit_ball, scan_core,
                           serial_forward)
from prismlab.errors import ConfigError, NumericError, ShapeError
from prismlab.tensor import Tensor


def make(cfg_kwargs=None, seed=0, dtype=np.float64):
    cfg = PrismConfig(**(cfg_kwargs or {}))
    rng = np.random.default_rng(seed)
    params = PrismParams.init(rng, cfg, dtype=dtype)
    return cfg, params, rng


# ---------------------------------------------------------------- oracle

def naive_prism_rollout(x, params, cfg):
    """Independent per-element re-implementation of the PRISM forward of
    one (N, d) sequence from a zero state."""
    n, d = x.shape
    w = cfg.w
    kern = params.conv.data
    xp = np.vstack([np.zeros((w - 1, d)), x])
    u = np.zeros((n, d))
    for t in range(n):
        for j in range(w):
            u[t] += kern[j] * xp[t + j]
    u = u * sigmoid_where(u)

    s = np.zeros((d, d))
    y = np.zeros((n, d))
    for t in range(n):
        ut = u[t]
        alpha = sigmoid_where(ut @ params.w_alpha.data[:, 0])
        q = ut @ params.w_q.data
        v = ut @ params.w_v.data
        ks, ps, bs = [], [], []
        for l in range(cfg.L):
            block = slice(l * d, (l + 1) * d)
            kl = ut @ params.w_k.data[:, block]
            if l == 0:
                kl = kl / max(1.0, float(np.linalg.norm(kl)))
            ks.append(kl)
            ps.append(ut @ params.w_p.data[:, block])
            bs.append(sigmoid_where(ut @ params.w_beta.data[:, l]))
        r = v - ut
        b_t = np.zeros((d, d))
        for l in range(cfg.L):
            delta = gelu_fn(ps[l] * r)
            b_t += bs[l] * np.outer(delta, ks[l])
            r = r - delta
        s = alpha * (s @ (np.eye(d) - bs[0] * np.outer(ks[0], ks[0]))) + b_t
        y[t] = (s @ q) @ params.w_o.data
    return y, s


# ---------------------------------------------------------------- anchor

def test_anchor_zero_input():
    cfg, params, _ = make()
    u = compute_anchor(T.Tensor(np.zeros((5, cfg.d))), params)
    np.testing.assert_array_equal(u.data, np.zeros((5, cfg.d)))


def test_anchor_w1_unit_kernel_is_silu():
    cfg = PrismConfig(d=4, L=1, w=1)
    rng = np.random.default_rng(1)
    params = PrismParams.init(rng, cfg)
    params.conv.data[:] = 1.0
    x = rng.standard_normal((6, 4))
    u = compute_anchor(T.Tensor(x), params)
    np.testing.assert_allclose(u.data, T.silu(T.Tensor(x)).data, rtol=1e-14)


def test_anchor_causality_perturbation():
    cfg, params, rng = make()
    x = rng.standard_normal((10, cfg.d))
    u0 = compute_anchor(T.Tensor(x), params).data
    x2 = x.copy()
    x2[5] += 3.0
    u1 = compute_anchor(T.Tensor(x2), params).data
    np.testing.assert_array_equal(u0[:5], u1[:5])
    assert np.abs(u0[5:] - u1[5:]).max() > 0


# ---------------------------------------------------------------- terms

def test_terms_zero_anchor():
    cfg, params, _ = make()
    u = T.Tensor(np.zeros((1, 3, cfg.d)))
    terms = compute_step_terms(u, params, cfg)
    np.testing.assert_array_equal(terms.alpha.data, np.full((1, 3), 0.5))
    np.testing.assert_array_equal(terms.beta.data, np.full((1, 3, cfg.L), 0.5))
    np.testing.assert_array_equal(terms.k.data, np.zeros((1, 3, cfg.L, cfg.d)))
    np.testing.assert_array_equal(terms.p.data, np.zeros((1, 3, cfg.L, cfg.d)))
    np.testing.assert_array_equal(terms.q.data, np.zeros((1, 3, cfg.d)))
    np.testing.assert_array_equal(terms.v.data, np.zeros((1, 3, cfg.d)))


def test_normalize_k_projects_onto_ball():
    # Only the forget key, pair 0 of the (..., L, d) stack, is rescaled.
    rng = np.random.default_rng(2)
    k = rng.standard_normal((4, 2, 6)) * 10.0
    out = scale_into_unit_ball(T.Tensor(k)).data
    norms = np.linalg.norm(out[:, 0], axis=-1)
    np.testing.assert_allclose(norms, np.ones(4), rtol=1e-12)
    np.testing.assert_array_equal(out[:, 1], k[:, 1])
    small = rng.standard_normal((4, 2, 6)) * 0.01
    np.testing.assert_array_equal(scale_into_unit_ball(T.Tensor(small)).data, small)


def test_terms_match_per_formula_oracle():
    cfg, params, rng = make(seed=3)
    u = rng.standard_normal((1, 4, cfg.d))
    terms = compute_step_terms(T.Tensor(u), params, cfg)
    for t in range(4):
        ut = u[0, t]
        np.testing.assert_allclose(terms.alpha.data[0, t],
                                   sigmoid_where(ut @ params.w_alpha.data[:, 0]), rtol=1e-12)
        np.testing.assert_allclose(terms.q.data[0, t], ut @ params.w_q.data, rtol=1e-12)
        np.testing.assert_allclose(terms.v.data[0, t], ut @ params.w_v.data, rtol=1e-12)
        for l in range(cfg.L):
            block = slice(l * cfg.d, (l + 1) * cfg.d)
            kl = ut @ params.w_k.data[:, block]
            if l == 0:
                kl = kl / max(1.0, float(np.linalg.norm(kl)))
            np.testing.assert_allclose(terms.k.data[0, t, l], kl, rtol=1e-12)
            np.testing.assert_allclose(terms.p.data[0, t, l],
                                       ut @ params.w_p.data[:, block], rtol=1e-12)
            np.testing.assert_allclose(terms.beta.data[0, t, l],
                                       sigmoid_where(ut @ params.w_beta.data[:, l]), rtol=1e-12)


def test_prism_stacked_init_draws_per_pair_order():
    cfg = PrismConfig(d=5, L=3, w=2)
    p = PrismParams.init(np.random.default_rng(3), cfg)
    rng = np.random.default_rng(3)
    sd = 1.0 / np.sqrt(cfg.d)
    rng.standard_normal((cfg.w, cfg.d))  # the conv kernel
    assert p.w_k.shape == p.w_p.shape == (cfg.d, cfg.L * cfg.d)
    for stacked in (p.w_q, p.w_v, p.w_k, p.w_p, p.w_o):
        blocks = [rng.standard_normal((cfg.d, cfg.d)) * sd
                  for _ in range(stacked.shape[1] // cfg.d)]
        np.testing.assert_array_equal(stacked.data, np.concatenate(blocks, axis=1))
    np.testing.assert_array_equal(p.w_alpha.data, np.zeros((cfg.d, 1)))
    np.testing.assert_array_equal(p.w_beta.data, np.zeros((cfg.d, cfg.L)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_step_terms_equal_per_pair_products(dtype):
    # One product per projection gives, bit for bit, the product of each
    # pair's column block.
    cfg, params, rng = make({"d": 6, "L": 3}, seed=29, dtype=dtype)
    u = rng.standard_normal((2, 7, cfg.d)).astype(dtype)
    terms = compute_step_terms(T.Tensor(u), params, cfg)
    assert terms.k.shape == terms.p.shape == (2, 7, cfg.L, cfg.d)
    assert terms.beta.shape == (2, 7, cfg.L)
    for l in range(cfg.L):
        block = slice(l * cfg.d, (l + 1) * cfg.d)
        k = u @ np.ascontiguousarray(params.w_k.data[:, block])
        if l == 0:
            n = np.sqrt((k * k).sum(axis=-1, keepdims=True))
            k = k * np.where(n > 1.0, 1.0 / np.maximum(n, 1e-300), 1.0)
        assert_same_bits(terms.k.data[:, :, l], k)
        assert_same_bits(terms.p.data[:, :, l],
                         u @ np.ascontiguousarray(params.w_p.data[:, block]))
        beta = T.sigmoid_fn(u @ np.ascontiguousarray(params.w_beta.data[:, l:l + 1]))
        assert_same_bits(terms.beta.data[:, :, l], beta[..., 0])


def test_scale_into_unit_ball_gradient():
    rng = np.random.default_rng(4)
    for scale in (0.3, 3.0):
        x = T.Tensor(rng.standard_normal((3, 2, 5)) * scale, requires_grad=True)
        w = T.Tensor(rng.standard_normal((3, 2, 5)))
        err = grad_check(lambda t: (scale_into_unit_ball(t) * w).sum(), x)
        assert err < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scale_into_unit_ball_zero_key_warns_nothing(dtype):
    # A zero forget key, and a zero input to the whole layer, warn nothing
    # in either dtype: a norm guard as small as 1e-300 is 0 in float32.
    cfg, params, _ = make({"d": 4, "chunk": 4}, seed=5, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = scale_into_unit_ball(T.Tensor(np.zeros((3, 2, 4), dtype=dtype))).data
        y, _ = chunked_forward(T.Tensor(np.zeros((2, 6, 4), dtype=dtype)), params, cfg)
    assert_same_bits(out, np.zeros((3, 2, 4), dtype=dtype))
    assert np.isfinite(y.data).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scale_into_unit_ball_bits_equal_guarded_division(dtype):
    # 1 / fmax(n, 1) is 1 inside the ball and 1 / n outside: the scale of
    # the guarded division where(n > 1, 1 / max(n, 1e-300), 1), bit for
    # bit, rows of norm 0, 1, NaN and inf included.
    rng = np.random.default_rng(6)
    k = (rng.standard_normal((64, 2, 5)) * rng.uniform(0.0, 3.0, (64, 1, 1))).astype(dtype)
    k[0, 0] = 0.0
    k[1, 0] = np.eye(5, dtype=dtype)[2]
    k[2, 0, 3] = np.nan
    k[3, 0, 1] = np.inf
    k1 = k[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.sqrt((k1 * k1).sum(axis=-1, keepdims=True))
        want = k.copy()
        want[:, 0] *= np.where(n > 1.0, 1.0 / np.maximum(n, 1e-300), 1.0)
        got = scale_into_unit_ball(T.Tensor(k)).data
    assert_same_bits(got, want)


# ---------------------------------------------------------------- rank accumulate

def _stacked(draw, count=2):
    """``count`` per-pair arrays, drawn in turn, stacked on the pair axis."""
    return np.stack([draw() for _ in range(count)], axis=2)


def _terms_from_arrays(k, p, beta, u, v):
    """Step terms of stacked k, p (B, N, L, d), beta (B, N, L) and u, v
    (B, N, d), each an array or a tensor."""
    def wrap(a):
        return a if isinstance(a, Tensor) else T.Tensor(a)

    u = wrap(u)
    return StepTerms(u=u, q=T.Tensor(np.zeros(u.shape)), v=wrap(v),
                     alpha=T.Tensor(np.full(u.shape[:-1], 0.5)),
                     k=wrap(k), p=wrap(p), beta=wrap(beta))


def test_rank_accumulate_zero_predictor():
    rng = np.random.default_rng(5)
    shape = (1, 3, 4)
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    k = _stacked(lambda: rng.standard_normal(shape))
    p = np.zeros((1, 3, 2, 4))
    beta = np.full((1, 3, 2), 0.7)
    terms = _terms_from_arrays(k, p, beta, u, v)
    cols, res = rank_accumulate(terms)
    np.testing.assert_array_equal(cols.data, np.zeros((1, 3, 2, 4)))
    np.testing.assert_array_equal(dense_transitions(terms, cols)[1],
                                  np.zeros(shape[:2] + (4, 4)))
    for l in range(3):
        np.testing.assert_array_equal(res.data[l], v - u)


def test_rank_accumulate_asymptotic_linearity():
    # With large positive p*r, gelu behaves like identity, so the L=1
    # injection approaches beta * outer(p * r, k).
    u = np.zeros((1, 1, 3))
    v = np.array([[[4.0, 5.0, 6.0]]])
    p = np.array([[[[30.0, 30.0, 30.0]]]])
    k = np.array([[[[1.0, -1.0, 0.5]]]])
    beta = np.array([[[0.25]]])
    terms = _terms_from_arrays(k, p, beta, u, v)
    cols, _ = rank_accumulate(terms)
    np.testing.assert_allclose(cols.data[0, 0, 0], 0.25 * p[0, 0, 0] * v[0, 0], rtol=1e-9)
    want = 0.25 * np.outer(p[0, 0, 0] * v[0, 0], k[0, 0, 0])
    np.testing.assert_allclose(dense_transitions(terms, cols)[1][0, 0], want, rtol=1e-9)


def test_rank_accumulate_scalar_loop_oracle():
    rng = np.random.default_rng(6)
    shape = (1, 2, 4)
    u = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    k = _stacked(lambda: rng.standard_normal(shape))
    p = _stacked(lambda: rng.standard_normal(shape))
    beta = _stacked(lambda: rng.uniform(0.1, 0.9, shape[:2]))
    terms = _terms_from_arrays(k, p, beta, u, v)
    cols, res = rank_accumulate(terms)
    _, b_dense = dense_transitions(terms, cols)
    for t in range(2):
        r = v[0, t] - u[0, t]
        want_b = np.zeros((4, 4))
        got_b = np.zeros((4, 4))
        for l in range(2):
            delta = np.array([gelu_fn(p[0, t, l, i] * r[i]) for i in range(4)])
            for i in range(4):
                for j in range(4):
                    want_b[i, j] += beta[0, t, l] * delta[i] * k[0, t, l, j]
                    got_b[i, j] += cols.data[0, t, l, i] * k[0, t, l, j]
            r = r - delta
        np.testing.assert_array_equal(got_b, want_b)
        np.testing.assert_array_equal(b_dense[0, t], want_b)
        np.testing.assert_array_equal(res.data[-1, 0, t], r)


def test_rank_accumulate_gradients():
    rng = np.random.default_rng(7)
    shape = (1, 2, 3)
    arrays = {name: rng.standard_normal(shape) for name in ("u", "v")}
    arrays["p"] = _stacked(lambda: rng.standard_normal(shape))
    arrays["beta"] = _stacked(lambda: rng.uniform(0.2, 0.8, shape[:2]))
    w = T.Tensor(_stacked(lambda: rng.standard_normal(shape)))

    def build_loss(which):
        def f(x):
            vals = {n: T.Tensor(a) for n, a in arrays.items()}
            vals[which] = x
            terms = _terms_from_arrays(np.zeros((1, 2, 2, 3)), vals["p"], vals["beta"],
                                       vals["u"], vals["v"])
            cols, _ = rank_accumulate(terms)
            return (cols * w).sum()
        return f

    for which in arrays:
        x = T.Tensor(arrays[which], requires_grad=True)
        assert grad_check(build_loss(which), x) < 1e-4, which


def test_rank_accumulate_residuals_are_untaped():
    cfg, params, rng = make({"d": 4, "L": 2}, seed=43)
    x = T.Tensor(rng.standard_normal((2, 5, 4)))
    terms = compute_step_terms(compute_anchor(x, params), params, cfg)
    cols, res = rank_accumulate(terms)
    assert cols.requires_grad
    assert not res.requires_grad
    np.testing.assert_array_equal(res.data[0], terms.v.data - terms.u.data)


def _rank_inputs(dtype):
    cfg, params, rng = make({"d": 4, "L": 2}, seed=47, dtype=dtype)
    x = T.Tensor(rng.standard_normal((2, 9, 4)), dtype=dtype)
    terms = compute_step_terms(compute_anchor(x, params), params, cfg)
    g_cols = _stacked(lambda: rng.standard_normal((2, 9, 4)).astype(dtype), cfg.L)
    return terms, g_cols


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rank_accumulate_without_tape_matches_taped(dtype, monkeypatch):
    # Under no_grad the columns and residuals equal the taped call's bit
    # for bit; no node is recorded and GELU' is never formed.
    terms, _ = _rank_inputs(dtype)
    cols, res = rank_accumulate(terms)
    assert cols.requires_grad

    def refuse(*args):
        raise AssertionError("GELU' formed without a tape")

    recorded = []
    monkeypatch.setattr(T, "_record", lambda *node: recorded.append(node))
    monkeypatch.setattr(T, "gelu_slope", refuse)
    with T.no_grad():
        cols_free, res_free = rank_accumulate(terms)
    assert recorded == []
    for want, got in ((cols, cols_free), (res, res_free)):
        assert not got.requires_grad
        assert_same_bits(got.data, want.data)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rank_accumulate_backward_runs_from_an_untaped_call(dtype, monkeypatch):
    # The backward handed to custom_op needs no taping: the benchmark's
    # traced run replays it on a call whose inputs carry no gradient, and
    # it must give the taped call's gradients bit for bit.
    terms, g_cols = _rank_inputs(dtype)
    backs = []
    monkeypatch.setattr(T, "_record", lambda out, inputs, back: backs.append(back))
    rank_accumulate(terms)
    assert len(backs) == 1
    want = backs.pop()(g_cols)

    def untaped(out_data, inputs, back):
        backs.append(back)
        return Tensor(out_data)

    monkeypatch.setattr(T, "custom_op", untaped)
    bare = StepTerms(u=Tensor(terms.u.data), q=terms.q, v=Tensor(terms.v.data),
                     alpha=terms.alpha, k=terms.k, p=Tensor(terms.p.data),
                     beta=Tensor(terms.beta.data))
    rank_accumulate(bare)
    got = backs.pop()(g_cols)
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert_same_bits(g, w)


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
    # alpha = 1, beta = 0, c = 0 freezes the state for every step.
    rng = np.random.default_rng(12)
    bsz, n, d = 2, 6, 4
    s0 = T.Tensor(rng.standard_normal((bsz, d, d)))
    k = T.Tensor(_stacked(lambda: rng.standard_normal((bsz, n, d))))
    cols = T.Tensor(np.zeros((bsz, n, 2, d)))
    out, s_n = scan_core(T.Tensor(np.ones((bsz, n))), T.Tensor(np.zeros((bsz, n))),
                         k, cols, T.Tensor(rng.standard_normal((bsz, n, d))), s0)
    np.testing.assert_array_equal(s_n.data, s0.data)


def test_scan_core_rejects_unpaired_factors():
    k, cols = T.Tensor(np.zeros((1, 3, 2, 2))), T.Tensor(np.zeros((1, 3, 1, 2)))
    args = (T.Tensor(np.ones((1, 3))), T.Tensor(np.zeros((1, 3))), k, cols,
            T.Tensor(np.zeros((1, 3, 2))), T.Tensor(np.zeros((1, 2, 2))))
    for scan in (scan_core, lambda *a: chunked_scan(*a, chunk=2)):
        with pytest.raises(ShapeError, match=r"keys \(1, 3, 2, 2\) and columns \(1, 3, 1, 2\)"):
            scan(*args)


# Scan inputs that fit (B 1, N 3, d 2, L 2), and misfits the check must catch.
_FIT = {"alpha": (1, 3), "beta1": (1, 3), "k": (1, 3, 2, 2), "c": (1, 3, 2, 2),
        "q": (1, 3, 2), "s0": (1, 2, 2)}
_MISFITS = {"s0_d": {"s0": (1, 3, 3)}, "q_d": {"q": (1, 3, 3)},
            "short_alpha": {"alpha": (1, 2)}, "short_beta1": {"beta1": (1, 2)},
            "batch_s0": {"s0": (2, 2, 2)}, "flat_k": {"k": (1, 3, 2), "c": (1, 3, 2)},
            "q_2d": {"q": (3, 2)}}


def _shaped_args(**shapes):
    """Scan inputs of 0.5s in the shapes of ``_FIT``, those named replaced."""
    shapes = {**_FIT, **shapes}
    return [T.Tensor(np.full(shapes[name], 0.5)) for name in _FIT]


@pytest.mark.parametrize("scan", [scan_core, lambda *a: chunked_scan(*a, chunk=2)],
                         ids=["scan_core", "chunked_scan"])
@pytest.mark.parametrize("part", list(_MISFITS))
def test_scan_rejects_misfit_inputs(scan, part):
    with pytest.raises(ShapeError):
        scan(*_shaped_args(**_MISFITS[part]))


@pytest.mark.parametrize("chunk", [0, -3, 2.5, True], ids=["zero", "negative", "float", "bool"])
def test_chunked_scan_rejects_bad_chunk(chunk):
    with pytest.raises(ConfigError, match="chunk"):
        chunked_scan(*_shaped_args(), chunk=chunk)


def _scan_arrays(rng, bsz, n, d, L):
    arrays = {"alpha": rng.uniform(0.5, 1.0, (bsz, n)),
              "beta1": rng.uniform(0.1, 0.9, (bsz, n)),
              "q": rng.standard_normal((bsz, n, d)),
              "s0": rng.standard_normal((bsz, d, d))}
    # Drawn pair by pair, then stacked on the pair axis.
    draws = [(rng.standard_normal((bsz, n, d)) * 0.5, rng.standard_normal((bsz, n, d)))
             for _ in range(L)]
    arrays["k"], arrays["c"] = (np.stack(a, axis=2) for a in zip(*draws))
    return arrays


def test_scan_core_gradients_every_input():
    rng = np.random.default_rng(44)
    bsz, n, d = 2, 4, 3
    arrays = _scan_arrays(rng, bsz, n, d, 2)
    w_out = T.Tensor(rng.standard_normal((bsz, n, d)))
    w_sn = T.Tensor(rng.standard_normal((bsz, d, d)))

    def build_loss(which):
        def f(x):
            a = {name: T.Tensor(v) for name, v in arrays.items()}
            a[which] = x
            out, s_n = scan_core(a["alpha"], a["beta1"], a["k"], a["c"], a["q"], a["s0"])
            return (out * w_out).sum() + (s_n * w_sn).sum()
        return f

    for which in arrays:
        x = T.Tensor(arrays[which], requires_grad=True)
        assert grad_check(build_loss(which), x) < 1e-6, which


def _taped_shapes(monkeypatch, forward, cfg, params, x):
    """Shapes of every tape input and output of one forward pass, and of
    every gradient its backward returns."""
    seen = []
    record = T._record

    def watch(out, inputs, back):
        outs = out if isinstance(out, tuple) else (out,)
        seen.extend(t.data.shape for t in outs + tuple(inputs))

        def watched(*gs):
            grads = back(*gs)
            seen.extend(g.shape for g in grads if g is not None)
            return grads
        record(out, inputs, watched)

    monkeypatch.setattr(T, "_record", watch)
    for p in params.params():
        p.grad = None
    y, _ = forward(T.Tensor(x), params, cfg)
    T.backward((y * y).sum())
    assert params.w_p.grad[:, cfg.d:].any()  # the second pair's block
    return seen


def test_serial_forward_tapes_no_dense_injection(monkeypatch):
    # The injection travels as L factor pairs: no tape node takes or gives
    # a (B, N, d, d) array, and no backward returns one.
    cfg, params, rng = make({"d": 4, "L": 2}, seed=45)
    bsz, n, d = 2, 5, 4
    seen = _taped_shapes(monkeypatch, serial_forward, cfg, params,
                         rng.standard_normal((bsz, n, d)))
    assert seen and (bsz, n, d, d) not in seen


def test_chunked_forward_tapes_no_state_history(monkeypatch):
    # Neither the per-step injection nor a per-step state history
    # (B, N+1, d, d) passes through the tape of the chunked path.
    cfg, params, rng = make({"d": 4, "L": 2, "chunk": 4}, seed=45)
    bsz, n, d = 2, 10, 4
    seen = _taped_shapes(monkeypatch, chunked_forward, cfg, params,
                         rng.standard_normal((bsz, n, d)))
    assert seen
    assert (bsz, n, d, d) not in seen and (bsz, n + 1, d, d) not in seen


def test_chunked_scan_forward_records_no_tape(monkeypatch):
    cfg, params, rng = make({"d": 4, "chunk": 4}, seed=46)
    assert all(p.requires_grad for p in params.params())
    recorded = []
    monkeypatch.setattr(T, "_record", lambda *node: recorded.append(node))
    y, s_n = chunked_scan_forward(T.Tensor(rng.standard_normal((2, 9, 4))), params, cfg)
    assert recorded == []
    assert not (y.requires_grad or s_n.requires_grad)


def cell_terms(x, params, cfg):
    """The step terms and the injection columns of the cell on x."""
    u = compute_anchor(x, params)
    terms = compute_step_terms(u, params, cfg)
    cols, _ = rank_accumulate(terms)
    return terms, cols


def scan_from(terms, cols, s0):
    """scan_core over the cell's terms from the (B, d, d) array s0."""
    return scan_core(terms.alpha, terms.beta[:, :, 0], terms.k, cols, terms.q, T.Tensor(s0))


def test_serial_single_step_equals_transition():
    cfg, params, rng = make({"d": 5, "L": 2}, seed=13)
    x = rng.standard_normal((1, 1, 5))
    s0 = rng.standard_normal((5, 5))
    terms, cs = cell_terms(T.Tensor(x), params, cfg)
    readout, s1 = scan_from(terms, cs, s0[None])
    pair = build_transition(terms, cs)
    want_s1 = pair.apply(s0)
    np.testing.assert_allclose(s1.data[0], want_s1, atol=1e-12)
    want_y = (want_s1 @ terms.q.data[0, 0]) @ params.w_o.data
    np.testing.assert_allclose((readout @ params.w_o).data[0, 0], want_y, atol=1e-12)


def test_serial_forward_matches_naive_oracle():
    cfg, params, rng = make({"d": 8, "L": 2}, seed=14)
    x = rng.standard_normal((2, 32, 8))
    y, s_n = serial_forward(T.Tensor(x), params, cfg)
    for b in range(2):
        want_y, want_s = naive_prism_rollout(x[b], params, cfg)
        assert np.abs(y.data[b] - want_y).max() < 1e-10
        assert np.abs(s_n.data[b] - want_s).max() < 1e-10


def _nan_scan_inputs(rng, n, d, bad_step):
    alpha = np.ones((1, n))
    beta = np.zeros((1, n))
    k = rng.standard_normal((1, n, 1, d))
    c = np.zeros((1, n, 1, d))
    c[0, bad_step] = np.inf
    return alpha, beta, k, c, rng.standard_normal((1, n, d))


def test_serial_forward_nan_reports_step():
    cfg, params, rng = make({"d": 3, "L": 1}, seed=15)
    alpha, beta, k, c, q = _nan_scan_inputs(rng, 4, 3, 2)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
        scan_core(T.Tensor(alpha), T.Tensor(beta), T.Tensor(k), T.Tensor(c),
                  T.Tensor(q), T.Tensor(np.zeros((1, 3, 3))))
    assert exc.value.step == 2


def test_scan_core_blocks_equal_dense_transition_loop():
    # S_t = S_{t-1} A_t + B_t, one dense (d x d) step at a time, over an N
    # that spans four transition blocks and ends inside the last.
    rng = np.random.default_rng(16)
    bsz, n, d = 2, 3 * cell._BLOCK + 5, 5
    a = _scan_arrays(rng, bsz, n, d, 2)
    terms = StepTerms(u=None, q=T.Tensor(a["q"]), v=None, alpha=T.Tensor(a["alpha"]),
                      k=T.Tensor(a["k"]), p=None, beta=T.Tensor(a["beta1"][..., None]))
    a_dense, b_dense = dense_transitions(terms, T.Tensor(a["c"]))
    s = a["s0"]
    want = np.empty((bsz, n, d))
    for t in range(n):
        s = s @ a_dense[:, t] + b_dense[:, t]
        want[:, t] = (s @ a["q"][:, t, :, None])[..., 0]
    out, s_n = scan_core(*(T.Tensor(a[name]) for name in _FIT))
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(s_n.data, s, rtol=1e-12, atol=1e-12)


def test_scan_core_nan_in_later_block_reports_step():
    # The whole history is checked once after the loop: the first
    # non-finite state is reported, and the steps after it warn nothing.
    rng = np.random.default_rng(17)
    n, bad = 3 * cell._BLOCK + 5, 2 * cell._BLOCK + 7
    alpha, beta, k, c, q = _nan_scan_inputs(rng, n, 3, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as exc:
            scan_core(T.Tensor(alpha), T.Tensor(beta), T.Tensor(k), T.Tensor(c),
                      T.Tensor(q), T.Tensor(np.zeros((1, 3, 3))))
    assert exc.value.step == bad


def test_chunked_scan_nan_reports_step():
    # Step 6 is inside the second chunk of 4: the masked products spread
    # the infinite column over the readouts of steps 4 and 5 as well.
    rng = np.random.default_rng(15)
    alpha, beta, k, c, q = _nan_scan_inputs(rng, 10, 3, 6)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as exc:
        chunked_scan(T.Tensor(alpha), T.Tensor(beta), T.Tensor(k), T.Tensor(c),
                     T.Tensor(q), T.Tensor(np.zeros((1, 3, 3))), chunk=4)
    assert exc.value.step == 6


def test_chunked_scan_nan_reports_step_and_warns_nothing():
    # The inputs above with warnings as errors: the products that the
    # infinite column reaches warn nothing, and the step is still reported.
    rng = np.random.default_rng(15)
    alpha, beta, k, c, q = _nan_scan_inputs(rng, 10, 3, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as exc:
            chunked_scan(T.Tensor(alpha), T.Tensor(beta), T.Tensor(k), T.Tensor(c),
                         T.Tensor(q), T.Tensor(np.zeros((1, 3, 3))), chunk=4)
    assert exc.value.step == 6


def test_chunked_scan_state_overflow_reports_chunk_end():
    # At step 5 the injection c k^T = 1e400 overflows while every readout
    # S_t q_t = c (k . q) = 1e200 stays finite: the chunk's last step is
    # reported. The serial oracle, which checks the state, reports step 5.
    n, d = 8, 2
    alpha, beta, q = np.ones((1, n)), np.zeros((1, n)), np.zeros((1, n, d))
    k, cols = np.zeros((1, n, 2, d)), np.zeros((1, n, 2, d))
    k[0, 5, 1, 0] = cols[0, 5, 1, 0] = 1e200
    q[0, :, 0] = 1e-200
    args = [T.Tensor(alpha), T.Tensor(beta), T.Tensor(k), T.Tensor(cols), T.Tensor(q),
            T.Tensor(np.zeros((1, d, d)))]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as exc:
            chunked_scan(*args, chunk=4)
        assert exc.value.step == 7
        with pytest.raises(NumericError) as exc:
            scan_core(*args)
        assert exc.value.step == 5


def test_chunked_scan_alpha_zero_matches_serial():
    # log 0 must not turn into NaN, and the gradient at alpha = 0 is the
    # serial one, <G_t, S_{t-1} - beta1 m k1^T>, not a 0 / 0.
    arrays = _scan_arrays(np.random.default_rng(47), 2, 10, 3, 2)
    arrays["alpha"][:, 5] = 0.0       # inside a chunk
    arrays["alpha"][0, 8] = 0.0       # at a chunk start
    assert_chunked_scan_matches_serial(arrays, chunk=4)


def test_chunked_scan_unit_erase_matches_serial():
    # beta1 = 1 with unit, nearly aligned forget keys: each step erases the
    # key direction completely, and the chunk's triangular system is as far
    # from the identity as it gets.
    rng = np.random.default_rng(48)
    arrays = _scan_arrays(rng, 2, 16, 4, 2)
    k1 = rng.standard_normal(4) + 0.05 * rng.standard_normal((2, 16, 4))
    arrays["k"][:, :, 0] = k1 / np.linalg.norm(k1, axis=-1, keepdims=True)
    arrays["beta1"][:] = 1.0
    arrays["alpha"][:] = rng.uniform(0.95, 1.0, (2, 16))
    assert_chunked_scan_matches_serial(arrays, chunk=8)


def test_config_validation():
    with pytest.raises(ConfigError):
        PrismConfig(d=0)
    with pytest.raises(ConfigError):
        PrismConfig(w=0)


@pytest.mark.parametrize("kwargs", [{"L": 1.5}, {"L": True}, {"d": "4"}],
                         ids=["float", "bool", "str"])
def test_non_integer_config_raises_config_error(kwargs):
    with pytest.raises(ConfigError, match="must be an int, got"):
        PrismConfig(**kwargs)


# ---------------------------------------------------------------- chunked scan

def test_chunk_one_degenerates_to_serial():
    cfg, params, rng = make({"d": 6, "chunk": 1}, seed=16)
    x = T.Tensor(rng.standard_normal((1, 17, 6)))
    y1, s1 = serial_forward(x, params, cfg)
    y2, s2 = chunked_scan_forward(x, params, cfg)
    assert np.abs(y1.data - y2.data).max() < 1e-12
    assert np.abs(s1.data - s2.data).max() < 1e-12


def test_chunk_full_sequence_single_chunk():
    cfg, params, rng = make({"d": 6, "chunk": 64}, seed=17)
    x = T.Tensor(rng.standard_normal((1, 16, 6)))
    y1, s1 = serial_forward(x, params, cfg)
    y2, s2 = chunked_scan_forward(x, params, cfg)
    assert np.abs(y1.data - y2.data).max() < 1e-12


@pytest.mark.parametrize("chunk", [4, 16, 64])
def test_scan_equivalence_chunks(chunk):
    cfg = PrismConfig(d=16, L=2, chunk=chunk)
    rng = np.random.default_rng(100 + chunk)
    params = PrismParams.init(rng, cfg)
    x = T.Tensor(rng.standard_normal((1, 256, 16)))
    y1, s1 = serial_forward(x, params, cfg)
    y2, s2 = chunked_scan_forward(x, params, cfg)
    assert np.abs(y1.data - y2.data).max() < 1e-9
    assert np.abs(s1.data - s2.data).max() < 1e-9


def test_scan_equivalence_float32():
    cfg = PrismConfig(d=16, L=2, chunk=16)
    rng = np.random.default_rng(18)
    params = PrismParams.init(rng, cfg, dtype=np.float32)
    x = T.Tensor(rng.standard_normal((1, 256, 16)), dtype=np.float32)
    y1, _ = serial_forward(x, params, cfg)
    y2, _ = chunked_scan_forward(x, params, cfg)
    assert np.abs(y1.data - y2.data).max() < 1e-4


@pytest.mark.parametrize("scan", [scan_core, lambda *a: chunked_scan(*a, chunk=4)],
                         ids=["scan_core", "chunked_scan"])
def test_float32_scan_keeps_float32(scan, monkeypatch):
    # Every output, and every gradient the fused node's backward returns,
    # the start state's included, stays in the inputs' float32.
    rng = np.random.default_rng(48)
    bsz, n, d, L = 2, 10, 4, 2

    def f32(a):
        return T.Tensor(np.asarray(a, dtype=np.float32), requires_grad=True)

    args = (f32(rng.uniform(0.3, 1.0, (bsz, n))), f32(rng.uniform(0.1, 0.9, (bsz, n))),
            f32(_stacked(lambda: rng.standard_normal((bsz, n, d)) * 0.5, L)),
            f32(_stacked(lambda: rng.standard_normal((bsz, n, d)), L)),
            f32(rng.standard_normal((bsz, n, d))), f32(rng.standard_normal((bsz, d, d))))
    backs = []
    monkeypatch.setattr(T, "_record", lambda out, inputs, back: backs.append(back))
    out, s_n = scan(*args)
    assert out.dtype == s_n.dtype == np.float32
    grads = backs.pop()(np.ones_like(out.data), np.ones_like(s_n.data))
    assert len(grads) == len(args)
    assert [g.dtype for g in grads] == [np.float32] * len(grads)


def test_chunked_carries_no_gradient():
    cfg, params, rng = make({"d": 4}, seed=19)
    x = T.Tensor(rng.standard_normal((1, 8, 4)), requires_grad=True)
    y, _ = chunked_scan_forward(x, params, cfg)
    assert not y.requires_grad


def test_chunked_scan_returns_no_subnormal_gradients(monkeypatch):
    # alpha 0.5 halves the state gradient at every step back in time, so a
    # readout gradient at the last step alone reaches the subnormal range
    # about 126 steps earlier. The chunked backward zeroes those values and
    # otherwise agrees with scan_core's, which keeps them.
    rng = np.random.default_rng(49)
    bsz, n, d, L = 2, 300, 4, 2
    tiny = np.finfo(np.float32).tiny

    def f32(a):
        return T.Tensor(np.asarray(a, dtype=np.float32), requires_grad=True)

    args = (f32(np.full((bsz, n), 0.5)), f32(np.zeros((bsz, n))),
            f32(_stacked(lambda: rng.standard_normal((bsz, n, d)) * 0.5, L)),
            f32(_stacked(lambda: rng.standard_normal((bsz, n, d)), L)),
            f32(rng.standard_normal((bsz, n, d))), f32(rng.standard_normal((bsz, d, d))))
    g_out = np.zeros((bsz, n, d), dtype=np.float32)
    g_out[:, -1] = rng.standard_normal((bsz, d))
    backs = []
    monkeypatch.setattr(T, "_record", lambda out, inputs, back: backs.append(back))
    grads = {}
    for name, scan in (("serial", scan_core), ("chunked", lambda *a: chunked_scan(*a, chunk=16))):
        _, s_n = scan(*args)
        grads[name] = backs.pop()(g_out, np.zeros_like(s_n.data))
    assert any(((g != 0) & (np.abs(g) < tiny)).any() for g in grads["serial"])
    for i, (want, got) in enumerate(zip(grads["serial"], grads["chunked"])):
        assert np.count_nonzero((got != 0) & (np.abs(got) < tiny)) == 0, i
        # Zeroing a value below tiny moves a gradient by less than tiny.
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=2 * tiny, err_msg=str(i))


def test_chunked_scan_builds_its_chunk_terms_once(monkeypatch):
    # A taped call keeps the chunk terms its forward built, and its backward
    # reuses them; an untaped call keeps nothing once it returns.
    built = []
    chunk_terms = cell._chunk_terms

    def counted(*args):
        ch = chunk_terms(*args)
        built.append(weakref.ref(ch))
        return ch

    monkeypatch.setattr(cell, "_chunk_terms", counted)
    cfg, params, rng = make({"d": 4, "chunk": 4}, seed=50)
    x = T.Tensor(rng.standard_normal((2, 10, 4)))
    y, _ = chunked_forward(x, params, cfg)
    T.backward((y * y).sum())
    assert len(built) == 1
    assert params.w_alpha.grad is not None
    chunked_scan_forward(x, params, cfg)
    gc.collect()
    assert len(built) == 2 and built[1]() is None


@pytest.mark.parametrize("forward", [serial_forward, chunked_scan_forward])
def test_bad_shapes_raise_shape_error(forward):
    cfg, params, rng = make({"d": 4}, seed=42)
    with pytest.raises(ShapeError, match="config d"):
        forward(T.Tensor(rng.standard_normal((2, 8, 5))), params, cfg)
    with pytest.raises(ShapeError, match=r"\(8, 4\) is not \(B, N, config d"):
        forward(T.Tensor(rng.standard_normal((8, 4))), params, cfg)


def test_state_independence_of_transition_pairs():
    # Definition-level check: the per-step pairs never consult the state,
    # so changing S0 changes the rollout but not one (A_t, B_t).
    cfg, params, rng = make({"d": 5}, seed=20)
    x = T.Tensor(rng.standard_normal((1, 10, 5)))
    terms, cs = cell_terms(x, params, cfg)
    a1, b1 = dense_transitions(terms, cs)

    y_a, _ = scan_from(terms, cs, np.zeros((1, 5, 5)))
    y_b, _ = scan_from(terms, cs, rng.standard_normal((1, 5, 5)))
    assert np.abs(y_a.data - y_b.data).max() > 1e-8  # rollout differs

    a2, b2d = dense_transitions(*cell_terms(x, params, cfg))
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_array_equal(b1, b2d)


def test_output_causality():
    cfg, params, rng = make(seed=21)
    n = 24
    x = rng.standard_normal((1, n, cfg.d))
    y0, _ = serial_forward(T.Tensor(x), params, cfg)
    for pos in rng.choice(n, size=5, replace=False):
        x2 = x.copy()
        x2[0, pos] += 1.7
        y1, _ = serial_forward(T.Tensor(x2), params, cfg)
        np.testing.assert_array_equal(y0.data[:, :pos], y1.data[:, :pos])


# ---------------------------------------------------------------- spectrum / rank

def rollout_terms(cfg, params, n, rng):
    return cell_terms(T.Tensor(rng.standard_normal((1, n, cfg.d))), params, cfg)


def test_spectrum_analytic_and_numeric():
    cfg, params, rng = make(seed=22)
    terms, cs = rollout_terms(cfg, params, 50, rng)
    a_dense, _ = dense_transitions(terms, cs)
    for t in range(50):
        pair = build_transition(terms, cs, t=t)
        analytic = np.sort(pair.structured_eigenvalues())
        numeric = np.sort(np.linalg.eigvalsh(a_dense[0, t]))
        np.testing.assert_allclose(analytic, numeric, atol=1e-8)
        assert analytic.min() >= -1e-8
        assert analytic.max() <= 1.0 + 1e-8


def test_rank_bound_and_typical_rank():
    cfg, params, rng = make(seed=23)  # d=16, L=2
    _, b = dense_transitions(*rollout_terms(cfg, params, 60, rng))
    full = 0
    for t in range(60):
        s = np.linalg.svd(b[0, t], compute_uv=False)
        numrank = int((s > 1e-8 * s[0]).sum()) if s[0] > 0 else 0
        assert numrank <= cfg.L
        full += numrank == cfg.L
    assert full >= 0.95 * 60


def test_state_norm_stays_bounded():
    cfg, params, rng = make(seed=24)
    x = T.Tensor(rng.standard_normal((1, 512, cfg.d)))
    _, s_n = serial_forward(x, params, cfg)
    assert np.linalg.norm(s_n.data) < 1e3


# ---------------------------------------------------------------- loop stability

def test_refinement_lipschitz_bound():
    # L_phi is derived numerically from GELU' on a fine grid first.
    grid = np.linspace(-12.0, 12.0, 2_000_001)
    l_phi = float(gelu_deriv_fn(grid).max())
    assert l_phi <= 1.13
    rng = np.random.default_rng(25)
    for _ in range(100):
        d = 16
        p = rng.standard_normal(d) * rng.uniform(0.5, 3.0)
        r = rng.standard_normal(d)
        eps = rng.standard_normal(d)
        eps *= rng.uniform(1e-6, 1e-1) / np.linalg.norm(eps)
        d0 = gelu_fn(p * r)
        d1 = gelu_fn(p * (r + eps))
        lhs = np.linalg.norm(d1 - d0)
        rhs = l_phi * np.abs(p).max() * np.linalg.norm(eps)
        assert lhs <= rhs * (1.0 + 1e-9)


# ---------------------------------------------------------------- block

def test_block_zero_output_projections_identity():
    cfg, _, rng = make({"d": 6}, seed=26)
    block = PrismBlockParams.init(rng, cfg)
    block.prism.w_o.data[:] = 0.0
    block.mlp_w2.data[:] = 0.0
    x = rng.standard_normal((1, 9, 6))
    y = prism_block_forward(T.Tensor(x), block, cfg)
    np.testing.assert_array_equal(y.data, x)


def test_block_shape_preserved_and_grad_reaches_conv():
    cfg, _, rng = make({"d": 6}, seed=27)
    block = PrismBlockParams.init(rng, cfg)
    x = T.Tensor(rng.standard_normal((1, 7, 6)), requires_grad=True)
    y = prism_block_forward(x, block, cfg)
    assert y.shape == (1, 7, 6)
    T.backward((y * y).sum())
    assert block.prism.conv.grad is not None
    assert np.abs(block.prism.conv.grad).max() > 0


def test_block_gradcheck_small():
    cfg = PrismConfig(d=3, L=2, w=2, chunk=2)
    rng = np.random.default_rng(28)
    block = PrismBlockParams.init(rng, cfg)
    x = T.Tensor(rng.standard_normal((1, 4, 3)), requires_grad=True)
    err = grad_check(lambda t: prism_block_forward(t, block, cfg).sum(), x)
    assert err < 1e-4
