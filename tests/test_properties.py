"""Property tests of the PRISM cell over batch, length, chunk, L and dtype:
the serial and chunked rollouts agree in outputs and in every gradient, and
so do their two scans from a random start state; the fused nodes match
finite differences, and outputs are causal. The blocked gated scan of the
MoM mixer agrees with its step-by-step oracle in the same way."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_chunked_scan_matches_serial, grad_check, run_scan
from prismlab import tensor as T
from prismlab.cell import (PrismConfig, PrismParams, StepTerms,
                           chunked_forward, chunked_scan, chunked_scan_forward,
                           rank_accumulate, scan_core, serial_forward)
from prismlab.models import SCAN_BLOCK, blocked_gated_scan, gated_la_scan

# Derandomized so that every run draws the same examples; small bounds keep the
# finite-difference checks to a few seconds.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

DTYPE_TOL = {np.float32: 1e-4, np.float64: 1e-10}


def _cell(rng, cfg, bsz, n, dtype):
    params = PrismParams.init(rng, cfg, dtype=dtype)
    return cfg, params, rng.standard_normal((bsz, n, cfg.d)).astype(dtype)


@st.composite
def cells(draw, dtypes=(np.float32, np.float64)):
    cfg = PrismConfig(d=draw(st.integers(2, 4)), L=draw(st.integers(1, 3)),
                      w=draw(st.integers(1, 3)), chunk=draw(st.integers(1, 8)))
    bsz, n = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    dtype = draw(st.sampled_from(dtypes))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return _cell(rng, cfg, bsz, n, dtype)


def _run(forward, cfg, params, x):
    y, s_n = forward(T.Tensor(x, dtype=x.dtype), params, cfg)
    return y.data, s_n.data


@PROPERTY
@given(cells())
def test_serial_equals_chunked(cell):
    cfg, params, x = cell
    y1, s1 = _run(serial_forward, cfg, params, x)
    y2, s2 = _run(chunked_scan_forward, cfg, params, x)
    tol = DTYPE_TOL[x.dtype.type]
    np.testing.assert_allclose(y2, y1, rtol=tol, atol=tol)
    np.testing.assert_allclose(s2, s1, rtol=tol, atol=tol)


def _gated_scan_arrays(rng, n, m, d):
    """gate, k, v, q of shape (N, M, d); about a fifth of the gates are
    exactly 0 and a fifth exactly 1."""
    r = rng.random((n, m, d))
    gate = np.where(r < 0.2, 0.0, np.where(r > 0.8, 1.0, rng.random(r.shape)))
    return [gate] + [rng.standard_normal((n, m, d)) for _ in range(3)]


def _assert_blocked_matches_oracle(n, m, d, seed):
    """Readouts and the gradients of gate, k, v and q of blocked_gated_scan
    on (N, M, d) equal those of gated_la_scan on the (M, N, d) transposes
    (float64)."""
    rng = np.random.default_rng(seed)
    arrays = _gated_scan_arrays(rng, n, m, d)
    g_out = rng.standard_normal((n, m, d))
    ins = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = blocked_gated_scan(*ins)
    T.backward((out * T.Tensor(g_out)).sum())
    ref = [T.Tensor(np.ascontiguousarray(a.transpose(1, 0, 2)), requires_grad=True)
           for a in arrays]
    out_ref = gated_la_scan(*ref)
    T.backward((out_ref * T.Tensor(g_out.transpose(1, 0, 2))).sum())
    pairs = [(out.data, out_ref.data)] + [(x.grad, r.grad) for x, r in zip(ins, ref)]
    for j, (got, want) in enumerate(pairs):
        np.testing.assert_allclose(got, want.transpose(1, 0, 2), rtol=1e-12, atol=1e-12,
                                   err_msg=str(j))


@PROPERTY
@given(st.integers(0, 2 * SCAN_BLOCK + 8), st.integers(1, 6), st.integers(1, 4),
       st.integers(0, 2**16))
def test_blocked_gated_scan_equals_oracle(n, m, d, seed):
    _assert_blocked_matches_oracle(n, m, d, seed)


@pytest.mark.parametrize("n, m, d", [
    (37, 6, 4), (9, 4, 3), (1, 6, 3), (48, 4, 2), (0, 4, 3)],
    ids=["n-not-multiple", "n-under-block", "n-1", "n-multiple", "empty"])
def test_blocked_gated_scan_equals_oracle_cases(n, m, d):
    _assert_blocked_matches_oracle(n, m, d, seed=n)


def _outputs_and_gradients(forward, cfg, params, x):
    """y, s_n and the gradients of a fixed linear loss of both with respect
    to x and every parameter."""
    rng = np.random.default_rng(0)
    for p in params.params():
        p.grad = None
    xt = T.Tensor(x, requires_grad=True)
    y, s_n = forward(xt, params, cfg)
    T.backward((y * T.Tensor(rng.standard_normal(y.shape))).sum()
               + (s_n * T.Tensor(rng.standard_normal(s_n.shape))).sum())
    return [y.data, s_n.data, xt.grad] + [p.grad for p in params.params()]


def _assert_gradients_agree(cfg, params, x):
    want = _outputs_and_gradients(serial_forward, cfg, params, x)
    got = _outputs_and_gradients(chunked_forward, cfg, params, x)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-10, err_msg=str(i))


@PROPERTY
@given(cells(dtypes=(np.float64,)))
def test_serial_equals_chunked_gradients(cell):
    _assert_gradients_agree(*cell)


@pytest.mark.parametrize("s0_kind", [None, "shared", "batched"])
@pytest.mark.parametrize("n, chunk", [(7, 1), (5, 8), (10, 4), (0, 4)],
                         ids=["chunk-1", "chunk-over-n", "n-not-multiple", "empty"])
def test_serial_equals_chunked_gradients_cases(n, chunk, s0_kind):
    # None: the rollouts, which take no start state. Otherwise their scans
    # from a random start state, one (d, d) shared by the batch or one per
    # sample.
    if s0_kind is None:
        cfg = PrismConfig(d=3, L=2, w=2, chunk=chunk)
        _assert_gradients_agree(*_cell(np.random.default_rng(n), cfg, 2, n, np.float64))
    else:
        arrays = _scan_arrays(np.random.default_rng(n), 2, n, 3, 2, s0_kind)
        assert_chunked_scan_matches_serial(arrays, chunk)


@PROPERTY
@given(cells(), st.data())
def test_outputs_are_causal(cell, data):
    cfg, params, x = cell
    t = data.draw(st.integers(0, x.shape[1] - 1))
    x2 = x.copy()
    x2[:, t] += 1.5
    for forward in (serial_forward, chunked_scan_forward):
        y1, _ = _run(forward, cfg, params, x)
        y2, _ = _run(forward, cfg, params, x2)
        np.testing.assert_array_equal(y2[:, :t], y1[:, :t])


def _grad_check_all(loss, arrays):
    for name, a in arrays.items():
        x = T.Tensor(a, requires_grad=True)

        def f(x, name=name):
            return loss({**{k: T.Tensor(v) for k, v in arrays.items()}, name: x})
        assert grad_check(f, x) < 1e-6, name


@PROPERTY
@given(st.integers(1, 2), st.integers(1, 4), st.integers(2, 3), st.integers(1, 3),
       st.integers(0, 2**16))
def test_rank_accumulate_gradients(bsz, n, d, L, seed):
    rng = np.random.default_rng(seed)
    arrays = {"u": rng.standard_normal((bsz, n, d)),
              "v": rng.standard_normal((bsz, n, d))}
    # Drawn pair by pair, then stacked on the pair axis.
    draws = [(rng.standard_normal((bsz, n, d)), rng.uniform(0.1, 0.9, (bsz, n)))
             for _ in range(L)]
    arrays["p"], arrays["beta"] = (np.stack(a, axis=2) for a in zip(*draws))
    weights = T.Tensor(np.stack([rng.standard_normal((bsz, n, d)) for _ in range(L)], axis=2))

    def loss(a):
        terms = StepTerms(u=a["u"], q=None, v=a["v"], alpha=None, k=None,
                          p=a["p"], beta=a["beta"])
        cols, _ = rank_accumulate(terms)
        return (cols * weights).sum()

    _grad_check_all(loss, arrays)


def _scan_arrays(rng, bsz, n, d, L, s0_kind):
    """Inputs of scan_core by name; the start state "s0" is (d, d) when
    ``s0_kind`` is "shared", (B, d, d) when "batched", absent when "none"."""
    arrays = {"alpha": rng.uniform(0.3, 1.0, (bsz, n)),
              "beta1": rng.uniform(0.1, 0.9, (bsz, n)),
              "q": rng.standard_normal((bsz, n, d))}
    if s0_kind != "none":
        shape = (d, d) if s0_kind == "shared" else (bsz, d, d)
        arrays["s0"] = rng.standard_normal(shape)
    # Drawn pair by pair, then stacked on the pair axis.
    draws = [(rng.standard_normal((bsz, n, d)) * 0.5, rng.standard_normal((bsz, n, d)))
             for _ in range(L)]
    arrays["k"], arrays["c"] = (np.stack(a, axis=2) for a in zip(*draws))
    return arrays


def _check_scan_gradients(scan, bsz, n, d, L, s0_kind, seed):
    rng = np.random.default_rng(seed)
    arrays = _scan_arrays(rng, bsz, n, d, L, s0_kind)
    w_out = T.Tensor(rng.standard_normal((bsz, n, d)))
    w_sn = T.Tensor(rng.standard_normal((bsz, d, d)))

    def loss(a):
        out, s_n = run_scan(scan, a)
        return (out * w_out).sum() + (s_n * w_sn).sum()

    _grad_check_all(loss, arrays)


@PROPERTY
@given(st.integers(1, 3), st.integers(0, 12), st.integers(2, 4), st.integers(1, 3),
       st.integers(1, 8), st.sampled_from(["shared", "batched"]), st.integers(0, 2**16))
def test_scan_core_equals_chunked_scan_from_random_state(bsz, n, d, L, chunk, s0_kind,
                                                         seed):
    arrays = _scan_arrays(np.random.default_rng(seed), bsz, n, d, L, s0_kind)
    assert_chunked_scan_matches_serial(arrays, chunk)


@PROPERTY
@given(st.integers(1, 2), st.integers(1, 4), st.integers(2, 3), st.integers(1, 3),
       st.sampled_from(["none", "shared", "batched"]), st.integers(0, 2**16))
def test_scan_core_gradients(bsz, n, d, L, s0_kind, seed):
    _check_scan_gradients(scan_core, bsz, n, d, L, s0_kind, seed)


@PROPERTY
@given(st.integers(1, 2), st.integers(1, 6), st.integers(2, 3), st.integers(1, 3),
       st.integers(1, 4), st.sampled_from(["none", "shared", "batched"]),
       st.integers(0, 2**16))
def test_chunked_scan_gradients(bsz, n, d, L, chunk, s0_kind, seed):
    def scan(*args):
        return chunked_scan(*args, chunk=chunk)
    _check_scan_gradients(scan, bsz, n, d, L, s0_kind, seed)


def test_blocked_gated_scan_gradients():
    rng = np.random.default_rng(31)
    n, m, d = SCAN_BLOCK + 3, 2, 2
    arrays = dict(zip(("gate", "k", "v", "q"), _gated_scan_arrays(rng, n, m, d)))
    w_out = T.Tensor(rng.standard_normal((n, m, d)))

    def loss(a):
        return (blocked_gated_scan(a["gate"], a["k"], a["v"], a["q"]) * w_out).sum()

    _grad_check_all(loss, arrays)
