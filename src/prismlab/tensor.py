"""Dense tensors on numpy buffers with taped reverse-mode autodiff.

The ops are the ones the models run: ``Tensor`` (``+``, ``*``, ``@``,
``x[key]``, ``.sum``), ``zeros``, ``ones``, ``add``, ``mul``, ``matmul``,
``gelu``, ``sigmoid``, ``silu``, ``softmax``, ``causal_depthwise_conv1d``,
``layernorm``, ``softmax_cross_entropy``, ``take_slice`` (every gather),
``reshape``, ``transpose``, ``tsum``, and ``custom_op`` and
``custom_op_multi`` for fused kernels with a hand-derived backward.

Every op, elementary or fused, builds its node through ``custom_op`` (or
``custom_op_multi`` for several outputs): it computes its output array and
a backward closure on raw arrays, and ``custom_op`` decides whether to tape.
The graph is a flat tape: every differentiable operation appends one node
in execution order, and ``backward`` walks the tape strictly in reverse,
accumulating (summing) gradients into every tensor that contributed.
A tape is consumable exactly once; the next recorded operation starts a
fresh one. The tape and the ``no_grad`` switch are module state, one per
process: graphs are built and consumed one at a time, and parallel work
runs in separate processes. Gradients are first-order only: backward
functions work on raw numpy arrays and are never themselves taped.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import DataError, ShapeError, UsageError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_tape = []          # (out, inputs, backward_fn) nodes in execution order
_grad_enabled = True


class no_grad:
    """Context manager that disables taping inside its scope."""

    def __enter__(self):
        global _grad_enabled
        self._prev, _grad_enabled = _grad_enabled, False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _record(out, inputs, backward_fn):
    """Append one tape node. ``backward_fn(g)`` returns one gradient
    array (or None) per input, aligned with ``inputs``."""
    _tape.append((out, inputs, backward_fn))


class Tensor:
    """A dense n-d array (float32 or float64) with optional grad tracking."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, dtype=None, requires_grad=False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- operators -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take_slice(self, key)

    def sum(self, axis=None):
        return tsum(self, axis=axis)


def _as_tensor(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_dtypes(a, b, opname):
    if a.dtype != b.dtype:
        raise ShapeError(f"{opname}: dtype mismatch {a.dtype} vs {b.dtype}")


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _wants_grad(*tensors):
    return _grad_enabled and any(t.requires_grad for t in tensors)


# -- constructors -------------------------------------------------------

def zeros(shape, dtype=np.float64, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=np.float64, requires_grad=False):
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


# -- arithmetic ---------------------------------------------------------

def add(a, b):
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "add")
    na, nb = a.requires_grad, b.requires_grad
    return custom_op(a.data + b.data, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape) if na else None,
        _unbroadcast(g, b.data.shape) if nb else None))


def mul(a, b):
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "mul")
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad
    return custom_op(ad * bd, (a, b), lambda g: (
        _unbroadcast(g * bd, ad.shape) if na else None,
        _unbroadcast(g * ad, bd.shape) if nb else None))


def matmul(a, b):
    """Matrix product with numpy batch broadcasting.

    Both operands have 2 or more dims. Gradients follow d/da = g @ b^T and
    d/db = a^T @ g (batch dims summed back where broadcast).
    """
    _check_dtypes(a, b, "matmul")
    if min(a.data.ndim, b.data.ndim) < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: needs a left operand of 2 or more dims, a right one likewise "
                         f"and agreeing inner dimensions, got {a.data.shape} x {b.data.shape}")
    ad, bd = a.data, b.data
    na, nb = a.requires_grad, b.requires_grad
    return custom_op(ad @ bd, (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape) if na else None,
        _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape) if nb else None))


# -- activations --------------------------------------------------------

# float32 erf(x) = tanh(x P(x^2)) on |x| <= 4, P of degree 7 in x^2. The
# coefficients come from a least-squares fit of atanh(erf(x)) / x on
# [0, 4], reweighted (Lawson) towards the minimax error measured in
# float32 ulps of erf, then rounded to float32. Measured against float64
# scipy.special.erf, in float32 spacings of the exact value's binade: at
# most 3.6 ulps over every 7th positive normal float32 below 4.5 (153M
# values), 3.1 over the test grid. erf is odd and so is every step here,
# bit for bit. Inputs are clipped to [-4, 4], where erf rounds to +-1 in
# float32 and x P(x^2) reaches 10.47, beyond which numpy's float32 tanh
# returns exactly 1; NaN passes through. Each pass runs over a block of
# _ERF_BLOCK values, which stays in cache. Every other dtype, float64 in
# particular, is evaluated by scipy.special.erf.
_ERF32_COEFS = tuple(np.float32(c) for c in (
    1.1283792, 0.10276974, -1.9445723e-04, -6.159910e-04,
    8.521990e-05, -4.9477253e-06, 4.455619e-08, 4.7388116e-09))
_ERF32_CLIP = 4.0
_ERF_BLOCK = 1 << 16


def _erf(x):
    """erf on a raw array, in its dtype: the float32 polynomial above or,
    for any other dtype, scipy.special.erf."""
    if x.dtype != np.float32:
        return erf(x)
    out = np.empty(x.shape, np.float32)
    flat, out_flat = np.ascontiguousarray(x).reshape(-1), out.reshape(-1)
    t = np.empty(min(flat.size, _ERF_BLOCK), np.float32)
    p = np.empty_like(t)
    *rest, c_top = _ERF32_COEFS
    for lo in range(0, flat.size, _ERF_BLOCK):
        xb = out_flat[lo:lo + _ERF_BLOCK]
        tb, pb = t[:xb.size], p[:xb.size]
        np.clip(flat[lo:lo + _ERF_BLOCK], -_ERF32_CLIP, _ERF32_CLIP, out=xb)
        np.multiply(xb, xb, out=tb)
        np.multiply(tb, c_top, out=pb)
        for c in reversed(rest[1:]):
            pb += c
            pb *= tb
        pb += rest[0]
        pb *= xb
        np.tanh(pb, out=xb)
    return out


def normal_cdf(x):
    """Gaussian CDF Phi(x) = (1 + erf(x / sqrt 2)) / 2 on a raw array."""
    cdf = _erf(x * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def gelu_slope(x, cdf):
    """GELU'(x) = Phi(x) + x phi(x) on a raw array, given cdf = Phi(x)."""
    return cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI)


def gelu(x):
    xd = x.data
    cdf = normal_cdf(xd)  # reused by backward
    return custom_op(xd * cdf, (x,), lambda g: (g * gelu_slope(xd, cdf),))


def sigmoid_fn(x):
    """Numerically stable logistic function on a raw array: exp only ever
    sees min(x, 0) and -|x|, so it cannot overflow. Branch-free; with
    e = exp(-|x|) it is 1 / (1 + e) for x >= 0 and e / (1 + e) below."""
    return np.exp(np.minimum(x, 0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(x):
    s = sigmoid_fn(x.data)
    return custom_op(s, (x,), lambda g: (g * s * (1.0 - s),))


def silu(x):
    xd = x.data
    s = sigmoid_fn(xd)
    return custom_op(xd * s, (x,), lambda g: (g * (s + xd * s * (1.0 - s)),))


def softmax(x, axis=-1):
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    e = np.exp(xd - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)
    return custom_op(s, (x,), back)


# -- structured ops ------------------------------------------------------

def causal_depthwise_conv1d(x, kernel):
    """Depthwise causal convolution along the second-to-last axis.

    x: (..., N, d), kernel: (w, d). Position t mixes x[t-w+1 .. t] per
    channel, with implicit zero padding on the left, so the output at t
    never sees inputs after t.
    """
    kd = kernel.data
    if kd.ndim != 2:
        raise ShapeError(f"conv kernel must be (w, d), got {kd.shape}")
    w, d = kd.shape
    if w < 1:
        raise ShapeError("conv kernel width must be >= 1")
    if x.data.shape[-1] != d:
        raise ShapeError(f"conv channel mismatch: x has {x.data.shape[-1]}, kernel has {d}")
    _check_dtypes(x, kernel, "conv")
    xd = x.data
    n = xd.shape[-2]
    pad = [(0, 0)] * (xd.ndim - 2) + [(w - 1, 0), (0, 0)]
    xp = np.pad(xd, pad)
    # Taps summed in ascending order: position t sees x[t-w+1 .. t].
    out_data = kd[0] * xp[..., 0:n, :]
    for j in range(1, w):
        out_data += kd[j] * xp[..., j:j + n, :]

    def back(g):
        gk = np.empty_like(kd)
        for j in range(w):
            sl = xp[..., j:j + n, :]
            gk[j] = (g * sl).reshape(-1, d).sum(axis=0)
        gpad = [(0, 0)] * (g.ndim - 2) + [(0, w - 1), (0, 0)]
        gp = np.pad(g, gpad)
        gx = np.zeros_like(xd)
        for j in range(w):
            gx += kd[j] * gp[..., (w - 1 - j):(w - 1 - j) + n, :]
        return gx, gk
    return custom_op(out_data, (x, kernel), back)


def layernorm(x, gain, bias, eps=1e-5):
    """Standardize over the last axis, then apply the affine (gain, bias)."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=xd.dtype))
    xhat = xc * inv
    d, gd = xd.shape[-1], gain.data

    def back(g):
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        gh = g * gd
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return gx, ggain, gbias
    return custom_op(xhat * gd + bias.data, (x, gain, bias), back)


def softmax_cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer targets under the logits.

    logits: (M, V); targets: (M,) ints in [0, V). Log-sum-exp is computed
    against the row max so large logits cannot overflow.
    """
    ld = logits.data
    if ld.ndim != 2:
        raise ShapeError(f"cross entropy expects (M, V) logits, got {ld.shape}")
    tgt = np.asarray(targets)
    if tgt.ndim != 1 or tgt.shape[0] != ld.shape[0]:
        raise ShapeError(f"targets shape {tgt.shape} does not match logits {ld.shape}")
    v = ld.shape[1]
    if tgt.size and (tgt.min() < 0 or tgt.max() >= v):
        raise DataError(f"target id out of range [0, {v})")
    m = ld.max(axis=1, keepdims=True)
    z = ld - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    picked = ld[np.arange(ld.shape[0]), tgt]
    loss_val = (lse - picked).mean()

    def back(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(ld.shape[0]), tgt] -= 1.0
        return (p * (g / ld.shape[0]).astype(ld.dtype),)
    return custom_op(np.asarray(loss_val, dtype=ld.dtype), (logits,), back)


def take_slice(x, key):
    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        return (gx,)
    return custom_op(x.data[key], (x,), back)


def reshape(x, shape):
    return custom_op(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


def transpose(x, axes=None):
    return custom_op(np.transpose(x.data, axes), (x,), lambda g: (
        np.transpose(g, None if axes is None else np.argsort(axes)),))


def tsum(x, axis=None):
    def back(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False),)
        g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)
    return custom_op(np.asarray(x.data.sum(axis=axis)), (x,), back)


def custom_op(out_data, inputs, backward_fn):
    """Wrap ``out_data`` in a Tensor and tape it when any input wants grad.

    ``backward_fn(g)`` must return one array (or None) per input tensor.
    Every single-output op builds its node here: the elementary ops above
    and the fused scan kernels, whose hand-derived backward passes replace
    dozens of per-step elementary nodes. Without a tape the closure is
    dropped unrun.
    """
    out = Tensor(out_data, requires_grad=_wants_grad(*inputs))
    if out.requires_grad:
        _record(out, tuple(inputs), backward_fn)
    return out


def custom_op_multi(out_datas, inputs, backward_fn):
    """Like ``custom_op`` for kernels with several outputs.

    ``backward_fn(*gs)`` receives one gradient array per output (zeros when
    an output was unused) and returns one array/None per input.
    """
    req = _wants_grad(*inputs)
    outs = tuple(Tensor(d, requires_grad=req) for d in out_datas)
    if req:
        _record(outs, tuple(inputs), backward_fn)
    return outs


def backward(loss):
    """Reverse-sweep the active tape from a scalar loss.

    Every tensor with ``requires_grad`` that contributed to ``loss``
    receives (accumulates) its gradient. The tape is then consumed: each
    node, with the arrays its backward holds, is dropped once that has run.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    global _tape
    nodes, _tape = _tape, []
    if not nodes:
        if loss.requires_grad:
            raise UsageError("graph already consumed; rerun the forward pass")
        # Loss is disconnected from any tape (e.g. pure-constant graph).
        return
    loss.grad = np.ones_like(loss.data)
    while nodes:
        out, inputs, back = nodes.pop()
        if isinstance(out, tuple):
            gs = [o.grad for o in out]
            if all(g is None for g in gs):
                continue
            gs = [np.zeros_like(o.data) if g is None else g
                  for o, g in zip(out, gs)]
            grads = back(*gs)
        else:
            g = out.grad
            if g is None:
                continue
            grads = back(g)
        for inp, gi in zip(inputs, grads):
            if gi is None:
                continue
            if gi.dtype != inp.data.dtype:
                gi = gi.astype(inp.data.dtype)
            if inp.grad is None:
                # Stored by reference; accumulation below never mutates it
                # in place, so sharing with a sibling gradient is safe.
                inp.grad = gi
            else:
                inp.grad = inp.grad + gi
