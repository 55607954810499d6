"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small tape: each op records its parents and a closure that
accumulates vector-Jacobian products into ``parent.grad``. Everything the
trainable blocks need is built from the primitives here, so one
finite-difference test per primitive certifies gradients for every network.

Ops preserve the dtype of their inputs; training runs float32, gradient
checking float64. An op none of whose inputs requires grad returns a plain
tape-free Tensor that keeps no parents and no closure, so inference through
frozen parameters (loaded checkpoints, see ``layers.Module.freeze``) holds
no graph alive.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        topo, seen = [], set()

        def visit(t):
            if id(t) in seen or not t.requires_grad:
                return
            seen.add(id(t))
            for p in t._parents:
                visit(p)
            topo.append(t)

        visit(self)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._vjp is not None:
                t._vjp(t.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def _make(data, parents, vjp):
    if not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def vjp(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), vjp)


def neg(a):
    a = as_tensor(a)

    def vjp(g):
        if a.requires_grad:
            a._accum(-g)

    return _make(-a.data, (a,), vjp)


def sub(a, b):
    return add(a, neg(as_tensor(b)))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def vjp(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), vjp)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def vjp(g):
        if a.requires_grad:
            a._accum(g * out_data)

    return _make(out_data, (a,), vjp)


def log(a):
    a = as_tensor(a)

    def vjp(g):
        if a.requires_grad:
            a._accum(g / a.data)

    return _make(np.log(a.data), (a,), vjp)


# ---------------------------------------------------------------------------
# shape
# ---------------------------------------------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    old = a.data.shape

    def vjp(g):
        if a.requires_grad:
            a._accum(g.reshape(old))

    return _make(a.data.reshape(shape), (a,), vjp)


def transpose(a, axes):
    a = as_tensor(a)
    inv = np.argsort(axes)

    def vjp(g):
        if a.requires_grad:
            a._accum(g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), vjp)


def concat(parts, axis: int):
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            if p.requires_grad:
                p._accum(piece)

    return _make(np.concatenate([p.data for p in parts], axis=axis),
                 parts, vjp)


def sum_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(np.broadcast_to(g, a.data.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), vjp)


def mean_(a, axis=None, keepdims=False):
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims),
               np.asarray(1.0 / n, dtype=a.data.dtype))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    out_data = a.data @ b.data

    def vjp(g):
        if a.requires_grad:
            ga = g @ b.data.swapaxes(-1, -2)
            a._accum(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = a.data.swapaxes(-1, -2) @ g
            b._accum(_unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), vjp)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def relu(a):
    a = as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        if a.requires_grad:
            a._accum(g * mask)

    return _make(a.data * mask, (a,), vjp)


def _sigmoid(x):
    # single exp of -|x| keeps it overflow-free and vectorized
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a):
    a = as_tensor(a)
    s = _sigmoid(a.data)

    def vjp(g):
        if a.requires_grad:
            a._accum(g * s * (1.0 - s))

    return _make(s, (a,), vjp)


def silu(a):
    """x * sigmoid(x)."""
    a = as_tensor(a)
    s = _sigmoid(a.data)
    out_data = a.data * s

    def vjp(g):
        if a.requires_grad:
            a._accum(g * (s + a.data * s * (1.0 - s)))

    return _make(out_data, (a,), vjp)


def group_norm(x, gamma, beta, groups: int, eps: float = 1e-5):
    """Normalize an NCHW tensor over channel groups, then scale and shift.

    Fused primitive (single tape node) with the standard normalization
    backward; gamma/beta are per-channel vectors.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    n, c, h, w = x.data.shape
    if c % groups:
        raise ValueError(f"{c} channels not divisible into {groups} groups")
    xg = x.data.reshape(n, groups, -1)
    mu = xg.mean(axis=2, keepdims=True)
    xc = xg - mu
    var = np.mean(xc * xc, axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = (xc * inv).reshape(n, c, h, w)
    out_data = xhat * gamma.data.reshape(1, c, 1, 1) \
        + beta.data.reshape(1, c, 1, 1)

    def vjp(g):
        if beta.requires_grad:
            beta._accum(g.sum(axis=(0, 2, 3)))
        if gamma.requires_grad:
            gamma._accum((g * xhat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dxhat = (g * gamma.data.reshape(1, c, 1, 1)).reshape(n, groups, -1)
            xh = xhat.reshape(n, groups, -1)
            m1 = dxhat.mean(axis=2, keepdims=True)
            m2 = (dxhat * xh).mean(axis=2, keepdims=True)
            dx = inv * (dxhat - m1 - xh * m2)
            x._accum(dx.reshape(n, c, h, w))

    return _make(out_data, (x, gamma, beta), vjp)


def softmax(a, axis: int = -1):
    a = as_tensor(a)
    # reduce over a copied leading axis: numpy's max over a short trailing
    # axis (the 8 conditioning tokens) is ~10x slower; max is exact, so the
    # result is the same either way
    row_max = np.moveaxis(a.data, axis, 0).copy().max(axis=0)
    shifted = a.data - np.expand_dims(row_max, axis)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        if a.requires_grad:
            a._accum(s * (g - (g * s).sum(axis=axis, keepdims=True)))

    return _make(s, (a,), vjp)


# ---------------------------------------------------------------------------
# 2-D convolution and resampling (NCHW layout)
# ---------------------------------------------------------------------------

def _im2col(x, kh, kw, pad):
    n, c, h, w = x.shape
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
        x = xp
    oh = x.shape[2] - kh + 1
    ow = x.shape[3] - kw + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _conv_forward(x, w, pad):
    n, c = x.shape[:2]
    f, _, kh, kw = w.shape
    if kh == 1 and kw == 1 and pad == 0:
        out = np.matmul(w.reshape(f, c), x.reshape(n, c, -1))
        return out.reshape(n, f, x.shape[2], x.shape[3])
    cols, oh, ow = _im2col(x, kh, kw, pad)
    return np.matmul(w.reshape(f, c * kh * kw), cols).reshape(n, f, oh, ow)


def conv2d(x, w, b=None, pad: int = 1):
    """Stride-1 convolution, NCHW input, (F, C, KH, KW) kernel.

    Output spatial size is H - KH + 1 + 2*pad (pad = k//2 keeps it "same").
    The backward-data pass runs as a convolution with the flipped transposed
    kernel; the backward-weights pass regenerates the column matrix rather
    than keeping it alive in the graph.
    """
    x, w = as_tensor(x), as_tensor(w)
    n, c, h, wd = x.data.shape
    f, c2, kh, kw = w.data.shape
    if c != c2:
        raise ValueError(f"conv2d channels mismatch: {c} vs {c2}")
    out_data = _conv_forward(x.data, w.data, pad)
    oh, ow = out_data.shape[2], out_data.shape[3]
    parents = [x, w]
    if b is not None:
        b = as_tensor(b)
        out_data += b.data.reshape(1, f, 1, 1)
        parents.append(b)

    def vjp(g):
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            g3 = g.reshape(n, f, oh * ow)
            if kh == 1 and kw == 1 and pad == 0:
                cols = x.data.reshape(n, c, oh * ow)
            else:
                cols, _, _ = _im2col(x.data, kh, kw, pad)
            gw = np.matmul(g3, cols.swapaxes(1, 2)).sum(axis=0)
            w._accum(gw.reshape(w.data.shape))
        if x.requires_grad:
            if kh == 1 and kw == 1 and pad == 0:
                dx = np.matmul(w.data.reshape(f, c).T,
                               g.reshape(n, f, -1)).reshape(x.data.shape)
            else:
                wt = np.ascontiguousarray(
                    w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
                dx = _conv_forward(g, wt, pad=kh - 1 - pad)
            x._accum(dx)

    return _make(out_data, parents, vjp)


def avg_pool2(x):
    x = as_tensor(x)
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError("avg_pool2 needs even spatial dims")
    out_data = x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def vjp(g):
        if x.requires_grad:
            gx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * \
                np.asarray(0.25, dtype=g.dtype)
            x._accum(gx)

    return _make(out_data, (x,), vjp)


def max_pool2(x):
    """2x2 max pooling; ties route to the first maximum (deterministic)."""
    x = as_tensor(x)
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError("max_pool2 needs even spatial dims")
    win = x.data.reshape(n, c, h // 2, 2, w // 2, 2) \
        .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    out_data = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        if not x.requires_grad:
            return
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        gx = dwin.reshape(n, c, h // 2, w // 2, 2, 2) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        x._accum(np.ascontiguousarray(gx))

    return _make(out_data, (x,), vjp)


def upsample2_matrices(h: int, w: int, dtype=np.float64):
    """Bilinear x2 interpolation matrices (2h x h), (2w x w)."""
    from .grayio import resize_matrix
    return (resize_matrix(h, 2 * h).astype(dtype),
            resize_matrix(w, 2 * w).astype(dtype))


def apply_rows(x, m):
    """Multiply a constant matrix along the H axis of an NCHW tensor."""
    mt = Tensor(np.asarray(m).T)
    t = transpose(x, (0, 1, 3, 2))
    t = matmul(t, mt)
    return transpose(t, (0, 1, 3, 2))


def apply_cols(x, m):
    """Multiply a constant matrix along the W axis of an NCHW tensor."""
    return matmul(x, Tensor(np.asarray(m).T))


def upsample2_bilinear(x, uh, uw):
    return apply_cols(apply_rows(x, uh), uw)
