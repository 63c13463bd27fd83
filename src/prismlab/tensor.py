"""Dense tensors on numpy buffers with taped reverse-mode autodiff.

The graph is a flat tape: every differentiable operation appends one node
in execution order, and ``backward`` walks the tape strictly in reverse,
accumulating (summing) gradients into every tensor that contributed.
A tape is consumable exactly once; the next recorded operation starts a
fresh one. Tapes are thread-local, so independent graphs may run on
separate threads with no shared mutable state.

Only first-order gradients are supported: backward functions work on raw
numpy arrays and are never themselves taped.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import erf

from .errors import DataError, ShapeError, UsageError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

_tls = threading.local()


def _ensure_state():
    if not hasattr(_tls, "graph"):
        _tls.graph = None
        _tls.grad_enabled = True
    return _tls


class GradGraph:
    """Ordered record of executed differentiable operations (a tape)."""

    __slots__ = ("nodes", "consumed")

    def __init__(self):
        self.nodes = []
        self.consumed = False


class no_grad:
    """Context manager that disables taping inside its scope."""

    def __enter__(self):
        state = _ensure_state()
        self._prev = state.grad_enabled
        state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _ensure_state().grad_enabled = self._prev
        return False


def grad_enabled():
    return _ensure_state().grad_enabled


def _record(out, inputs, backward_fn):
    """Append one tape node. ``backward_fn(g)`` returns one gradient
    array (or None) per input, aligned with ``inputs``."""
    state = _ensure_state()
    if state.graph is None or state.graph.consumed:
        state.graph = GradGraph()
    state.graph.nodes.append((out, inputs, backward_fn))


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

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def numpy(self):
        return self.data

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def copy(self):
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # -- operators -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, 1.0 / other)
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take_slice(self, key)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self):
        return mean(self)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)


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
    return grad_enabled() and any(t.requires_grad for t in tensors)


# -- constructors -------------------------------------------------------

def tensor(data, dtype=np.float64, requires_grad=False):
    return Tensor(data, dtype=dtype, requires_grad=requires_grad)


def zeros(shape, dtype=np.float64, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=np.float64, requires_grad=False):
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


# -- arithmetic ---------------------------------------------------------

def add(a, b):
    if not isinstance(a, Tensor):
        a = _as_tensor(a, b.dtype)
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "add")
    out = Tensor(a.data + b.data, requires_grad=_wants_grad(a, b))
    if out.requires_grad:
        na, nb = a.requires_grad, b.requires_grad
        _record(out, (a, b), lambda g: (
            _unbroadcast(g, a.data.shape) if na else None,
            _unbroadcast(g, b.data.shape) if nb else None))
    return out


def sub(a, b):
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "sub")
    out = Tensor(a.data - b.data, requires_grad=_wants_grad(a, b))
    if out.requires_grad:
        na, nb = a.requires_grad, b.requires_grad
        _record(out, (a, b), lambda g: (
            _unbroadcast(g, a.data.shape) if na else None,
            _unbroadcast(-g, b.data.shape) if nb else None))
    return out


def mul(a, b):
    if isinstance(b, (int, float)):
        c = a.data.dtype.type(b)
        out = Tensor(a.data * c, requires_grad=_wants_grad(a))
        if out.requires_grad:
            _record(out, (a,), lambda g: (g * c,))
        return out
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "mul")
    out = Tensor(a.data * b.data, requires_grad=_wants_grad(a, b))
    if out.requires_grad:
        ad, bd = a.data, b.data
        na, nb = a.requires_grad, b.requires_grad
        _record(out, (a, b), lambda g: (
            _unbroadcast(g * bd, ad.shape) if na else None,
            _unbroadcast(g * ad, bd.shape) if nb else None))
    return out


def div(a, b):
    b = _as_tensor(b, a.dtype)
    _check_dtypes(a, b, "div")
    out = Tensor(a.data / b.data, requires_grad=_wants_grad(a, b))
    if out.requires_grad:
        ad, bd = a.data, b.data
        na, nb = a.requires_grad, b.requires_grad
        _record(out, (a, b), lambda g: (
            _unbroadcast(g / bd, ad.shape) if na else None,
            _unbroadcast(-g * ad / (bd * bd), bd.shape) if nb else None))
    return out


def matmul(a, b):
    """Matrix product with numpy batch broadcasting.

    Gradients follow d/da = g @ b^T and d/db = a^T @ g (batch dims summed
    back where broadcast).
    """
    _check_dtypes(a, b, "matmul")
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeError(
            f"matmul: inner dimensions disagree {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data, requires_grad=_wants_grad(a, b))
    if out.requires_grad:
        ad, bd = a.data, b.data
        na, nb = a.requires_grad, b.requires_grad

        def back(g):
            ga = gb = None
            if bd.ndim == 1:
                if na:
                    ga = np.multiply.outer(g, bd) if ad.ndim > 1 else np.outer(g, bd)
                    ga = _unbroadcast(ga, ad.shape)
                if nb:
                    gb = (_unbroadcast((ad * g[..., None]).reshape(-1, ad.shape[-1]).sum(0),
                                       bd.shape) if ad.ndim > 1 else ad.T @ g)
                return ga, gb
            if ad.ndim == 1:
                return (g @ np.swapaxes(bd, -1, -2) if na else None,
                        np.outer(ad, g) if nb else None)
            if na:
                ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
            if nb:
                gb = np.swapaxes(ad, -1, -2) @ g
                if gb.shape != bd.shape:
                    gb = _unbroadcast(gb, bd.shape)
            return ga, gb

        _record(out, (a, b), back)
    return out


def outer(u, w):
    """Rank-1 outer product of two length-d vectors: out[i, j] = u[i] w[j]."""
    if u.data.ndim != 1 or w.data.ndim != 1 or u.data.shape != w.data.shape:
        raise ShapeError(f"outer: need equal-length vectors, got {u.data.shape} and {w.data.shape}")
    _check_dtypes(u, w, "outer")
    out = Tensor(np.outer(u.data, w.data), requires_grad=_wants_grad(u, w))
    if out.requires_grad:
        ud, wd = u.data, w.data
        _record(out, (u, w), lambda g: (g @ wd, ud @ g))
    return out


# -- activations --------------------------------------------------------

def gelu_fn(x):
    """Exact Gaussian-CDF GELU on a raw array: x * Phi(x)."""
    return 0.5 * x * (1.0 + erf(x * _INV_SQRT2))


def gelu_deriv_fn(x):
    """GELU'(x) = Phi(x) + x phi(x)."""
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return 0.5 * (1.0 + erf(x * _INV_SQRT2)) + x * phi


def gelu(x):
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))  # Phi(x), reused by backward
    out = Tensor(xd * cdf, requires_grad=_wants_grad(x))
    if out.requires_grad:
        def back(g):
            pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT2PI
            return (g * (cdf + xd * pdf),)
        _record(out, (x,), back)
    return out


def sigmoid_fn(x):
    """Numerically stable logistic function on a raw array."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x):
    s = sigmoid_fn(x.data)
    out = Tensor(s, requires_grad=_wants_grad(x))
    if out.requires_grad:
        _record(out, (x,), lambda g: (g * s * (1.0 - s),))
    return out


def silu(x):
    s = sigmoid_fn(x.data)
    out = Tensor(x.data * s, requires_grad=_wants_grad(x))
    if out.requires_grad:
        xd = x.data
        _record(out, (x,), lambda g: (g * (s + xd * s * (1.0 - s)),))
    return out


def tanh(x):
    t = np.tanh(x.data)
    out = Tensor(t, requires_grad=_wants_grad(x))
    if out.requires_grad:
        _record(out, (x,), lambda g: (g * (1.0 - t * t),))
    return out


def softmax(x, axis=-1):
    xd = x.data
    m = xd.max(axis=axis, keepdims=True)
    e = np.exp(xd - m)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(s, requires_grad=_wants_grad(x))
    if out.requires_grad:
        def back(g):
            dot = (g * s).sum(axis=axis, keepdims=True)
            return ((g - dot) * s,)
        _record(out, (x,), back)
    return out


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
    out = Tensor(out_data, requires_grad=_wants_grad(x, kernel))
    if out.requires_grad:
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
        _record(out, (x, kernel), back)
    return out


def layernorm(x, gain, bias, eps=1e-5):
    """Standardize over the last axis, then apply the affine (gain, bias)."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=xd.dtype))
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data, requires_grad=_wants_grad(x, gain, bias))
    if out.requires_grad:
        d = xd.shape[-1]
        gd = gain.data

        def back(g):
            ggain = (g * xhat).reshape(-1, d).sum(axis=0)
            gbias = g.reshape(-1, d).sum(axis=0)
            gh = g * gd
            gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                        - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
            return gx, ggain, gbias
        _record(out, (x, gain, bias), back)
    return out


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
    out = Tensor(np.asarray(loss_val, dtype=ld.dtype), requires_grad=_wants_grad(logits))
    if out.requires_grad:
        def back(g):
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(ld.shape[0]), tgt] -= 1.0
            return (p * (g / ld.shape[0]).astype(ld.dtype),)
        _record(out, (logits,), back)
    return out


def embedding(table, ids):
    """Row lookup into a (V, D) table; gradient scatter-adds per id."""
    ids = np.asarray(ids)
    td = table.data
    if ids.size and (ids.min() < 0 or ids.max() >= td.shape[0]):
        raise DataError("embedding id out of range")
    out = Tensor(td[ids], requires_grad=_wants_grad(table))
    if out.requires_grad:
        def back(g):
            gt = np.zeros_like(td)
            np.add.at(gt, ids, g)
            return (gt,)
        _record(out, (table,), back)
    return out


def take_time(x, idx):
    """Gather positions along axis 1: x (B, N, D), idx (B, K) -> (B, K, D)."""
    xd = x.data
    idx = np.asarray(idx)
    rows = np.arange(xd.shape[0])[:, None]
    out = Tensor(xd[rows, idx], requires_grad=_wants_grad(x))
    if out.requires_grad:
        def back(g):
            gx = np.zeros_like(xd)
            np.add.at(gx, (rows, idx), g)
            return (gx,)
        _record(out, (x,), back)
    return out


def take_slice(x, key):
    out = Tensor(x.data[key], requires_grad=_wants_grad(x))
    if out.requires_grad:
        def back(g):
            gx = np.zeros_like(x.data)
            np.add.at(gx, key, g)
            return (gx,)
        _record(out, (x,), back)
    return out


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape), requires_grad=_wants_grad(x))
    if out.requires_grad:
        _record(out, (x,), lambda g: (g.reshape(x.data.shape),))
    return out


def transpose(x, axes=None):
    out = Tensor(np.transpose(x.data, axes), requires_grad=_wants_grad(x))
    if out.requires_grad:
        inv = None if axes is None else np.argsort(axes)
        _record(out, (x,), lambda g: (np.transpose(g, inv),))
    return out


def tsum(x, axis=None):
    out = Tensor(np.asarray(x.data.sum(axis=axis)), requires_grad=_wants_grad(x))
    if out.requires_grad:
        def back(g):
            if axis is None:
                return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype, copy=False),)
            g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, x.data.shape).copy(),)
        _record(out, (x,), back)
    return out


def mean(x):
    n = x.data.size
    out = Tensor(np.asarray(x.data.mean()), requires_grad=_wants_grad(x))
    if out.requires_grad:
        _record(out, (x,), lambda g: (np.full_like(x.data, g / n),))
    return out


def custom_op(out_data, inputs, backward_fn):
    """Register a fused kernel on the tape.

    ``backward_fn(g)`` must return one array (or None) per input tensor.
    Used by the scan kernels, whose hand-derived backward passes replace
    dozens of per-step elementary nodes.
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
    receives (accumulates) its gradient. The tape is then consumed.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    state = _ensure_state()
    graph = state.graph
    if graph is None or graph.consumed:
        if loss.requires_grad:
            raise UsageError("graph already consumed; rerun the forward pass")
        # Loss is disconnected from any tape (e.g. pure-constant graph).
        return
    graph.consumed = True
    loss.grad = np.ones_like(loss.data)
    for out, inputs, back in reversed(graph.nodes):
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
    graph.nodes.clear()
    state.graph = None


def zero_grad(params):
    for p in params:
        p.grad = None


def grad_check(f, x, h=1e-5):
    """Max relative error between taped and central-difference gradients.

    ``f`` must map the float64 tensor ``x`` to a scalar tensor. Returns
    max over coordinates of |g_ad - g_fd| / max(1, |g_fd|). A tensor the
    loss never touches yields an exactly-zero taped gradient.
    """
    x.grad = None
    out = f(x)
    backward(out)
    g_ad = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    g_fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd_flat = g_fd.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(x).item()
            flat[i] = orig - h
            fm = f(x).item()
            flat[i] = orig
            fd_flat[i] = (fp - fm) / (2.0 * h)
    err = np.abs(g_ad - g_fd) / np.maximum(1.0, np.abs(g_fd))
    return float(err.max()) if err.size else 0.0
