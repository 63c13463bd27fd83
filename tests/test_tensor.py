"""Tensor engine tests: forward values against independent oracles,
gradients against central differences."""

import math
import weakref
import zlib

import numpy as np
import pytest
from scipy.special import erf

from oracles import assert_same_bits, gelu_deriv_fn, gelu_fn, grad_check, sigmoid_where
from prismlab import tensor as T
from prismlab.errors import DataError, ShapeError, UsageError
from prismlab.optim import Adam


def rt(rng, shape, requires_grad=True, dtype=np.float64, scale=1.0):
    return T.Tensor(rng.standard_normal(shape) * scale, dtype=dtype,
                    requires_grad=requires_grad)


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal((a @ b).data, b.data)


def test_matmul_projector():
    p = T.Tensor([[1.0, 0.0], [0.0, 0.0]])
    m = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal((p @ m).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = (T.Tensor(a) @ T.Tensor(b)).data
    assert np.abs(got - want).max() < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))


def test_matmul_refuses_a_vector_left_operand():
    with pytest.raises(ShapeError, match="left operand of 2 or more dims"):
        T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))


def test_matmul_refuses_a_vector_right_operand():
    with pytest.raises(ShapeError, match="a right one likewise"):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones(3)))


@pytest.mark.parametrize("op", [T.add, T.mul], ids=["add", "mul"])
def test_unbroadcastable_operands_raise_shape_error(op):
    with pytest.raises(ShapeError, match=r"shapes \(2, 3\) and \(4,\) do not broadcast"):
        op(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones(4)))


def test_reshape_to_another_size_raises_shape_error():
    with pytest.raises(ShapeError, match=r"cannot reshape \(2, 3\) to \(4,\)"):
        T.reshape(T.Tensor(np.ones((2, 3))), (4,))


@pytest.mark.parametrize("axes", [(0, 0), (0, 2), (0,)], ids=["repeated", "out-of-range", "short"])
def test_transpose_with_bad_axes_raises_shape_error(axes):
    with pytest.raises(ShapeError, match="not a permutation"):
        T.transpose(T.Tensor(np.ones((2, 3))), axes)


@pytest.mark.parametrize("op", [T.tsum, T.softmax], ids=["tsum", "softmax"])
def test_axis_out_of_range_raises_shape_error(op):
    # numpy raised its AxisError.
    with pytest.raises(ShapeError, match=r"axis 2 is out of range for \(2, 3\)"):
        op(T.Tensor(np.ones((2, 3))), axis=2)


@pytest.mark.parametrize("key", [3, (slice(None), 3), (np.array([[0], [1]]), np.array([[1], [3]]))],
                         ids=["row", "column", "rows-at"])
def test_take_slice_out_of_range_raises_shape_error(key):
    # numpy raised a bare IndexError.
    with pytest.raises(ShapeError, match=r"out of bounds .* in a tensor of shape \(2, 3\)"):
        T.take_slice(T.Tensor(np.ones((2, 3))), key)


@pytest.mark.parametrize("gain,bias", [(4, 3), (3, 4), (1, 3)], ids=["gain", "bias", "size-1-gain"])
def test_layernorm_affine_of_the_wrong_size_raises_shape_error(gain, bias):
    # A (4,) gain raised numpy's broadcast ValueError; a (1,) gain broadcast
    # silently over every channel.
    with pytest.raises(ShapeError, match=r"must both be \(3,\) for input \(2, 3\)"):
        T.layernorm(T.Tensor(np.ones((2, 3))), T.ones(gain), T.zeros(bias))


def test_matmul_dtype_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 2)), dtype=np.float32),
                 T.Tensor(np.ones((2, 2)), dtype=np.float64))


# ---------------------------------------------------------------- activations

def test_gelu_zero_and_asymptote():
    x = T.Tensor([0.0, 10.0])
    y = T.gelu(x).data
    assert y[0] == 0.0
    assert abs(y[1] - 10.0) < 1e-6


def test_gelu_one_against_mpmath():
    # High-precision erf oracle for gelu(1) = 0.5 * (1 + erf(1/sqrt(2))).
    from mpmath import mp
    mp.dps = 40
    want = float(mp.mpf("0.5") * (1 + mp.erf(1 / mp.sqrt(2))))
    got = T.gelu(T.Tensor([1.0])).data[0]
    assert abs(got - want) < 1e-14


def test_silu_values():
    x = np.array([0.0, 25.0, -0.7, 1.3])
    y = T.silu(T.Tensor(x)).data
    assert y[0] == 0.0
    assert abs(y[1] - 25.0) < 1e-6
    direct = x / (1.0 + np.exp(-x))
    np.testing.assert_allclose(y, direct, rtol=1e-12)


def test_sigmoid_stable_and_symmetric():
    x = np.array([-50.0, -3.0, 0.0, 3.0, 50.0])
    s = T.sigmoid(T.Tensor(x)).data
    assert s[2] == 0.5
    # No overflow at +-50; values are the correctly rounded images of
    # numbers in (0, 1). (sigmoid(50) itself rounds to 1.0 at float64.)
    assert np.isfinite(s).all()
    assert np.all(s > 0.0) and np.all(s <= 1.0)
    assert 0.0 < s[0] < 1e-20
    direct = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                      np.exp(x) / (1.0 + np.exp(x)))
    np.testing.assert_array_equal(s, direct)
    np.testing.assert_allclose(s, 1.0 - s[::-1], atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bit_identical_to_the_two_branch_form(dtype):
    rng = np.random.default_rng(16)
    edges = [0.0, -0.0, np.inf, -np.inf, 1e-30, -1e-30,
             88.72, -88.72, 88.73, -88.73, 103.98, -103.98, 104.0, -104.0,
             709.78, -709.78, 709.79, -709.79, 745.2, -745.2, 746.0, -746.0]
    x = np.concatenate([rng.standard_normal(1_000_000) * 8.0,
                        rng.uniform(-800.0, 800.0, 1_000_000), edges]).astype(dtype)
    assert_same_bits(T.sigmoid_fn(x), sigmoid_where(x))
    assert np.isnan(T.sigmoid_fn(np.array([np.nan, -np.nan], dtype=dtype))).all()


# ---------------------------------------------------------------- erf

def _erf_grid():
    """Dense on [-6, 6], plus log grids of both signs down to 1e-30."""
    tiny = np.geomspace(1e-30, 1.0, 200_001)
    return np.concatenate([np.linspace(-6.0, 6.0, 1_200_001), tiny, -tiny]
                          ).astype(np.float32)


def test_erf_float32_within_four_ulps_of_float64():
    x = _erf_grid()
    got = T._erf(x)
    assert got.dtype == np.float32
    want = erf(x.astype(np.float64))
    _, exponent = np.frexp(want)
    ulp = np.ldexp(1.0, exponent - 24)  # float32 spacing in want's binade
    assert (np.abs(got - want) / ulp).max() <= 4.0


def test_erf_float32_is_odd_bit_for_bit():
    x = _erf_grid()
    assert_same_bits(T._erf(-x), -T._erf(x))


def test_erf_float32_saturates_exactly_and_keeps_nan():
    x = np.concatenate([np.linspace(4.0, 6.0, 20_001), [1e30, np.inf]]).astype(np.float32)
    with np.errstate(all="raise"):  # large inputs overflow nothing on the way
        assert (T._erf(x) == 1.0).all()
        assert (T._erf(-x) == -1.0).all()
    assert np.isnan(T._erf(np.array([np.nan], dtype=np.float32))).all()


def test_gelu_float32_tracks_float64():
    x = np.linspace(-12.0, 12.0, 2_400_001).astype(np.float32)
    got = T.gelu(T.Tensor(x)).data
    assert got.dtype == np.float32
    want = gelu_fn(x.astype(np.float64))
    assert (np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(x))).all()


def test_gelu_float64_is_the_scipy_form_bit_for_bit():
    rng = np.random.default_rng(17)
    x = np.concatenate([rng.standard_normal(100_000) * 4.0, [0.0, -0.0, 40.0, -40.0]])
    t = T.Tensor(x, requires_grad=True)
    y = T.gelu(t)
    T.backward(y.sum())
    assert_same_bits(y.data, gelu_fn(x))
    assert_same_bits(t.grad, gelu_deriv_fn(x))


# ---------------------------------------------------------------- conv

def test_conv_w1_identity():
    rng = np.random.default_rng(1)
    x = rt(rng, (6, 3), False)
    k = T.Tensor(np.ones((1, 3)))
    np.testing.assert_array_equal(T.causal_depthwise_conv1d(x, k).data, x.data)


def test_conv_one_hot_taps():
    # A one-hot kernel reproduces x delayed by (w-1 - tap) positions.
    rng = np.random.default_rng(2)
    x = rt(rng, (8, 2), False)
    w = 4
    k = np.zeros((w, 2))
    k[w - 1] = 1.0  # current-token tap: identity
    np.testing.assert_array_equal(
        T.causal_depthwise_conv1d(x, T.Tensor(k)).data, x.data)
    k = np.zeros((w, 2))
    k[0] = 1.0  # earliest tap: delay line by w-1
    got = T.causal_depthwise_conv1d(x, T.Tensor(k)).data
    np.testing.assert_array_equal(got[w - 1:], x.data[: 8 - (w - 1)])
    np.testing.assert_array_equal(got[: w - 1], np.zeros((w - 1, 2)))


def test_conv_against_double_loop():
    rng = np.random.default_rng(3)
    n, d, w = 8, 2, 4
    x = rng.standard_normal((n, d))
    k = rng.standard_normal((w, d))
    xp = np.vstack([np.zeros((w - 1, d)), x])
    want = np.zeros((n, d))
    for t in range(n):
        for j in range(w):
            want[t] += k[j] * xp[t + j]
    got = T.causal_depthwise_conv1d(T.Tensor(x), T.Tensor(k)).data
    np.testing.assert_array_equal(got, want)


def test_conv_causality_bit_identical():
    rng = np.random.default_rng(4)
    n, d, w = 12, 3, 5
    x = rng.standard_normal((n, d))
    k = T.Tensor(rng.standard_normal((w, d)))
    full = T.causal_depthwise_conv1d(T.Tensor(x), k).data
    for t in range(n):
        prefix = T.causal_depthwise_conv1d(T.Tensor(x[: t + 1]), k).data
        assert np.array_equal(prefix[t], full[t])


def test_conv_width_larger_than_sequence():
    rng = np.random.default_rng(5)
    x = rt(rng, (2, 3), False)
    k = rt(rng, (6, 3), False)
    out = T.causal_depthwise_conv1d(x, k)
    assert out.shape == (2, 3)


def test_conv_bad_width():
    with pytest.raises(ShapeError):
        T.causal_depthwise_conv1d(T.Tensor(np.ones((4, 2))),
                                  T.Tensor(np.ones((0, 2))))


# ---------------------------------------------------------------- layernorm

def test_layernorm_constant_vector_gives_bias():
    x = T.Tensor(np.full((3, 4), 2.5))
    gain = T.Tensor(np.ones(4) * 3.0)
    bias = T.Tensor([1.0, 2.0, 3.0, 4.0])
    got = T.layernorm(x, gain, bias).data
    np.testing.assert_allclose(got, np.broadcast_to(bias.data, (3, 4)), atol=1e-6)


def test_layernorm_standardized_passthrough():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 64))
    x = (x - x.mean()) / x.std()
    got = T.layernorm(T.Tensor(x), T.Tensor(np.ones(64)), T.Tensor(np.zeros(64))).data
    np.testing.assert_allclose(got, x, atol=1e-4)


# ---------------------------------------------------------------- cross entropy

def test_cross_entropy_uniform_logits():
    logits = T.Tensor(np.zeros((5, 64)))
    loss = T.softmax_cross_entropy(logits, np.arange(5))
    assert abs(loss.item() - math.log(64)) < 1e-12


def test_cross_entropy_confident_hit():
    logits = np.zeros((1, 8))
    logits[0, 3] = 30.0
    loss = T.softmax_cross_entropy(T.Tensor(logits), np.array([3]))
    assert loss.item() < 1e-9


def test_cross_entropy_target_out_of_range():
    with pytest.raises(DataError):
        T.softmax_cross_entropy(T.Tensor(np.zeros((2, 4))), np.array([0, 4]))


# ---------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    rng = np.random.default_rng(8)
    x = rt(rng, 5)
    T.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-14)


def test_backward_rejects_nonscalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError):
        T.backward(x * 2.0)


def test_backward_graph_consumed_once():
    x = T.Tensor(np.ones(3), requires_grad=True)
    loss = (x * x).sum()
    T.backward(loss)
    with pytest.raises(UsageError):
        T.backward(loss)


def test_backward_drops_each_node_once_its_backward_has_run():
    # What a later node's backward holds is freed before any earlier
    # node's backward runs, not when the whole sweep returns.
    class Saved:
        pass

    seen = []

    def first_back(g):
        seen.append(ref())
        return (g * 2.0,)

    x = T.Tensor(np.ones(3), requires_grad=True)
    first = T.custom_op(x.data * 2.0, (x,), first_back)
    saved = Saved()
    ref = weakref.ref(saved)
    second = T.custom_op(first.data + 1.0, (first,), lambda g, saved=saved: (g,))
    del saved
    T.backward(second.sum())
    assert seen == [None]
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_gradient_accumulates_across_uses():
    x = T.Tensor([2.0], requires_grad=True)
    y = (x * 3.0 + x * x).sum()
    T.backward(y)
    np.testing.assert_allclose(x.grad, [3.0 + 2.0 * 2.0])


# ---------------------------------------------------------------- grad_check

def test_grad_check_linear_is_exact():
    rng = np.random.default_rng(9)
    w = rng.standard_normal(6)
    x = rt(rng, 6)
    err = grad_check(lambda t: (t * T.Tensor(w)).sum(), x)
    assert err < 1e-9


def test_grad_check_gelu_chain():
    rng = np.random.default_rng(10)
    w = T.Tensor(rng.standard_normal((4, 4)))
    x = rt(rng, (3, 4))
    err = grad_check(lambda t: T.gelu(t @ w).sum(), x)
    assert err < 1e-4


def test_grad_check_disconnected_input():
    rng = np.random.default_rng(11)
    x = rt(rng, 4)
    y = rt(rng, 4)
    x.grad = None
    loss = (y * y).sum()
    T.backward(loss)
    assert x.grad is None  # exactly zero contribution


# Output weights of the primitives checked through a weighted sum, so that
# every output coordinate carries its own gradient.
_WEIGHT_SHAPES = {"softmax": (3, 5), "mul": (4, 3), "tsum_axis": (3, 2),
                  "reshape": (2, 6), "transpose": (4, 2, 3), "take_slice": (3, 3),
                  "take_slice_ids": (2, 5, 3), "take_slice_rows": (3, 2, 4)}

# Token ids with repeats, so that the gather's scatter-add backward sums
# several rows into one; and a query gather x[rows, qpos] as in train.
_IDS = np.array([[1, 4, 1, 0, 4], [5, 1, 2, 1, 3]])
_ROWS = np.arange(3)[:, None]
_QPOS = np.array([[1, 3], [0, 4], [4, 4]])


def _case(index, name, fn, shape):
    # The id keeps the entry's index from when it was added (``shapeN``),
    # so that removing a primitive renames no other case.
    return pytest.param(name, fn, shape, id=f"{name}-<lambda>-shape{index}")


@pytest.mark.parametrize("name,fn,shape", [
    _case(0, "matmul", lambda x, aux: (x @ aux).sum(), (4, 4)),
    # (3, 1, 4) + (2, 4): both the size-1 axis and the missing leading axis
    # of x are summed back.
    _case(1, "add", lambda x, aux: (T.add(x, aux[0]) * aux[1]).sum(), (3, 1, 4)),
    _case(2, "gelu", lambda x, aux: T.gelu(x).sum(), (7,)),
    _case(3, "silu", lambda x, aux: T.silu(x).sum(), (7,)),
    _case(4, "sigmoid", lambda x, aux: T.sigmoid(x).sum(), (7,)),
    _case(6, "softmax", lambda x, aux: (T.softmax(x) * aux).sum(), (3, 5)),
    _case(7, "conv", lambda x, aux: T.causal_depthwise_conv1d(x, aux).sum(), (6, 2)),
    _case(8, "layernorm", lambda x, aux: T.layernorm(x, aux[0], aux[1]).sum(), (3, 4)),
    _case(9, "mul", lambda x, aux: (x * aux).sum(), (4, 3)),
    _case(11, "tsum_axis", lambda x, aux: (T.tsum(x, axis=1) * aux).sum(), (3, 4, 2)),
    _case(12, "reshape", lambda x, aux: (T.reshape(x, (2, 6)) * aux).sum(), (3, 4)),
    _case(13, "transpose", lambda x, aux: (T.transpose(x, (2, 0, 1)) * aux).sum(),
          (2, 3, 4)),
    _case(14, "take_slice", lambda x, aux: (x[1:4] * aux).sum(), (5, 3)),
    _case(15, "take_slice_ids", lambda x, aux: (x[_IDS] * aux).sum(), (6, 3)),
    _case(16, "take_slice_rows", lambda x, aux: (x[_ROWS, _QPOS] * aux).sum(), (3, 5, 4)),
])
def test_grad_check_every_primitive(name, fn, shape):
    # Module invariant: every differentiable primitive passes grad_check
    # at 10 random float64 points.
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(10):
        x = rt(rng, shape)
        if name == "matmul":
            aux = T.Tensor(rng.standard_normal((shape[-1], 3)))
        elif name == "add":
            aux = (T.Tensor(rng.standard_normal((2, 4))),
                   T.Tensor(rng.standard_normal((3, 2, 4))))
        elif name in _WEIGHT_SHAPES:
            aux = T.Tensor(rng.standard_normal(_WEIGHT_SHAPES[name]))
        elif name == "conv":
            aux = T.Tensor(rng.standard_normal((3, shape[-1])))
        elif name == "layernorm":
            aux = (T.Tensor(rng.standard_normal(shape[-1])),
                   T.Tensor(rng.standard_normal(shape[-1])))
        else:
            aux = None
        assert grad_check(lambda t: fn(t, aux), x) < 1e-4, f"{name} trial {trial}"


def test_grad_check_cross_entropy():
    rng = np.random.default_rng(12)
    tgt = rng.integers(0, 5, size=4)
    for _ in range(10):
        x = rt(rng, (4, 5))
        err = grad_check(lambda t: T.softmax_cross_entropy(t, tgt), x)
        assert err < 1e-4


# ---------------------------------------------------------------- adam

def test_adam_zero_gradient_keeps_params():
    p = T.Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam([p])
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_missing_gradient_raises():
    p = T.Tensor([1.0], requires_grad=True)
    opt = Adam([p])
    with pytest.raises(UsageError):
        opt.step()


def test_adam_monotone_descent():
    p = T.Tensor([0.0], requires_grad=True)
    opt = Adam([p], lr=1e-2)
    prev = 0.0
    for _ in range(50):
        p.grad = np.array([1.0])  # constant positive gradient
        opt.step()
        assert p.data[0] < prev
        prev = p.data[0]


def test_adam_single_step_closed_form():
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    g = 0.37
    p = T.Tensor([1.5], requires_grad=True)
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    p.grad = np.array([g])
    opt.step()
    m_hat = ((1 - b1) * g) / (1 - b1)
    v_hat = ((1 - b2) * g * g) / (1 - b2)
    want = 1.5 - lr * m_hat / (math.sqrt(v_hat) + eps)
    np.testing.assert_allclose(p.data, [want], rtol=1e-12)
    assert p.grad is None  # gradients cleared after the step
    assert opt.t == 1


def test_adam_moment_shapes_match_params():
    rng = np.random.default_rng(14)
    params = [rt(rng, (3, 4)), rt(rng, 7)]
    opt = Adam(params)
    for p, m, v in zip(params, opt.m, opt.v):
        assert m.shape == p.data.shape and v.shape == p.data.shape


# ---------------------------------------------------------------- misc

def test_no_grad_blocks_taping():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = (x * x).sum()
    assert not y.requires_grad


# Each primitive of test_grad_check_every_primitive alone, on an input of
# its shape there and untaped operands, plus the loss and a Python scalar.
@pytest.mark.parametrize("op,shape", [
    pytest.param(lambda x: x @ T.Tensor(np.ones((4, 3))), (4, 4), id="matmul"),
    pytest.param(lambda x: T.add(x, T.Tensor(np.ones((2, 4)))), (3, 1, 4), id="add"),
    pytest.param(T.gelu, (7,), id="gelu"),
    pytest.param(T.silu, (7,), id="silu"),
    pytest.param(T.sigmoid, (7,), id="sigmoid"),
    pytest.param(T.softmax, (3, 5), id="softmax"),
    pytest.param(lambda x: T.causal_depthwise_conv1d(x, T.Tensor(np.ones((3, 2)))), (6, 2),
                 id="conv"),
    pytest.param(lambda x: T.layernorm(x, T.ones(4), T.zeros(4)), (3, 4), id="layernorm"),
    pytest.param(lambda x: x * T.Tensor(np.ones((4, 3))), (4, 3), id="mul"),
    pytest.param(lambda x: 0.25 * x, (4, 3), id="mul_float"),
    pytest.param(lambda x: T.tsum(x, axis=1), (3, 4, 2), id="tsum_axis"),
    pytest.param(lambda x: x.sum(), (3, 4), id="tsum"),
    pytest.param(lambda x: T.reshape(x, (2, 6)), (3, 4), id="reshape"),
    pytest.param(lambda x: T.transpose(x, (2, 0, 1)), (2, 3, 4), id="transpose"),
    pytest.param(lambda x: x[1:4], (5, 3), id="take_slice"),
    pytest.param(lambda x: x[_IDS], (6, 3), id="take_slice_ids"),
    pytest.param(lambda x: x[_ROWS, _QPOS], (3, 5, 4), id="take_slice_rows"),
    pytest.param(lambda x: T.softmax_cross_entropy(x, np.array([0, 4, 2])), (3, 5),
                 id="softmax_cross_entropy"),
])
def test_each_primitive_records_one_node(op, shape, monkeypatch):
    # A taped input gives one node, whose output is the op's and needs
    # grad; no_grad or untaped inputs give none.
    nodes = []
    monkeypatch.setattr(T, "_record", lambda *node: nodes.append(node))
    data = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
    x = T.Tensor(data, requires_grad=True)
    out = op(x)
    assert out.requires_grad
    assert len(nodes) == 1
    assert nodes[0][0] == (out,) and any(inp is x for inp in nodes[0][1])
    nodes.clear()
    with T.no_grad():
        assert not op(x).requires_grad
    assert not op(T.Tensor(data)).requires_grad
    assert nodes == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mul_by_python_float_keeps_dtype_and_bits(dtype):
    # The composed attention reference in oracles scales its scores by the
    # Python float 1 / sqrt(e): value and gradient equal, bit for bit, those
    # of the constant cast to the tensor's dtype first (1 / sqrt(3) is not a
    # float32).
    rng = np.random.default_rng(21)
    c = 1.0 / math.sqrt(3.0)
    xd, g = (rng.standard_normal((4, 5)).astype(dtype) for _ in range(2))
    for y_of in (lambda x: x * c, lambda x: c * x):
        x = T.Tensor(xd, requires_grad=True)
        y = y_of(x)
        T.backward((y * T.Tensor(g)).sum())
        assert_same_bits(y.data, xd * np.asarray(c, dtype))
        assert_same_bits(x.grad, g * np.asarray(c, dtype))


def test_determinism_same_seed_same_result():
    def run():
        rng = np.random.default_rng(99)
        a = rt(rng, (4, 4), False)
        b = rt(rng, (4, 4), False)
        return T.gelu(a @ b).data
    assert np.array_equal(run(), run())


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(15)
    x = rt(rng, (5, 4), False, scale=30.0)
    for fn in (T.gelu, T.silu, T.sigmoid):
        assert np.isfinite(fn(x).data).all()
