"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small tape: each op records its parents and a closure that
accumulates vector-Jacobian products into ``parent.grad``. Everything the
trainable blocks need is built from the primitives here, so one
finite-difference test per primitive certifies gradients for every network.

Ops preserve the dtype of their inputs. The models' parameters are float32,
set in one place (``layers.Module.register``); gradient tests cast them to
float64. An op none of whose inputs requires grad returns a plain
tape-free Tensor that keeps no parents and no closure, so inference through
frozen parameters (loaded checkpoints, see ``layers.Module.freeze``) holds
no graph alive.

Code that runs per op avoids two numpy slow paths that do no arithmetic
(float32, one BLAS thread, 2-core x86 host): ``_sigmoid`` selects its
branch through ``np.minimum``, not a three-operand ``np.where``, which
cut a (4, 16, 16, 16) call from ~113 to ~32 us; ``_im2col`` builds its
window with ``as_strided`` in ~3.5 us, where ``sliding_window_view``
spends ~11 us of Python.

Two kernels reorder work and keep every output bit: ``_im2col``'s row
runs equal the window of the input zero-padded by k // 2, signed zeros,
infinities and NaNs included, and softmax's ``_row_sum`` keeps numpy's
pairwise order for 8 <= n <= 128 on a contiguous last axis, in the
forward and the VJP. A numpy that changes that order fails the
bit-oracle tests.
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
        # iterative post-order DFS (parents in order, then the node): a
        # recursive closure would reference itself, and that cycle would
        # keep the whole graph alive until the cyclic garbage collector ran
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                topo.append(t)
            elif id(t) not in seen and t.requires_grad:
                seen.add(id(t))
                stack.append((t, True))
                stack.extend((p, False) for p in reversed(t._parents))
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._vjp is not None:
                t._vjp(t.grad)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _make(data, parents, vjp):
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, _parents=tuple(parents),
                          _vjp=vjp)
    return Tensor(data)


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

    def vjp(g):
        if a.requires_grad:
            a._accum(g.transpose(np.argsort(axes)))

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
    # exp(min(x, 0)) / (1 + exp(-|x|)): no exp overflows, and the numerator
    # is exp(-|x|) for x < 0 and exactly 1 for x >= 0, so it equals the
    # two-branch where(x >= 0, 1/d, e/d) bit for bit without a masked select
    d = np.exp(-np.abs(x))
    d += 1.0
    s = np.exp(np.minimum(x, 0))
    s /= d
    return s


def silu(a):
    """x * sigmoid(x)."""
    a = as_tensor(a)
    s = _sigmoid(a.data)
    out_data = a.data * s

    def vjp(g):
        if a.requires_grad:
            a._accum(g * (s + a.data * s * (1.0 - s)))

    return _make(out_data, (a,), vjp)


GROUP_NORM_EPS = 1e-5  # added to each group's variance


def group_norm(x, gamma, beta, groups: int):
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
    inv = 1.0 / np.sqrt(var + np.asarray(GROUP_NORM_EPS, dtype=x.dtype))
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


def _row_sum(x, axis):
    """``x.sum(axis=axis, keepdims=True)``, bit for bit.

    numpy sums a contiguous row of 8 <= n <= 128 elements as eight running
    block sums, the tree ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    leftover elements in order, all added to a zero. Over a short trailing
    axis it pays that loop's set-up once per row; here each step is one
    vectorized op over all rows. Any other axis or length keeps ``x.sum``.
    """
    n = x.shape[axis]
    if axis not in (-1, x.ndim - 1) or not 8 <= n <= 128 \
            or not x.flags.c_contiguous:
        return x.sum(axis=axis, keepdims=True)
    m = n - n % 8
    r = x[..., :8]
    for i in range(8, m, 8):
        r = r + x[..., i:i + 8]
    r = r[..., 0::2] + r[..., 1::2]   # r0+r1, r2+r3, r4+r5, r6+r7
    r = r[..., 0::2] + r[..., 1::2]
    s = r[..., :1] + r[..., 1:]
    for i in range(m, n):
        s += x[..., i:i + 1]
    s += 0  # the zero numpy starts from: a -0.0 sum becomes +0.0
    return s


def softmax(a, axis: int = -1):
    a = as_tensor(a)
    # reduce over a copied leading axis: numpy's max over a short trailing
    # axis (the 8 conditioning tokens) is ~10x slower; max is exact, so the
    # result is the same either way
    row_max = np.moveaxis(a.data, axis, 0).copy().max(axis=0)
    shifted = a.data - np.expand_dims(row_max, axis)
    e = np.exp(shifted)
    s = e / _row_sum(e, axis)

    def vjp(g):
        if a.requires_grad:
            a._accum(s * (g - _row_sum(g * s, axis)))

    return _make(s, (a,), vjp)


# ---------------------------------------------------------------------------
# 2-D convolution and pooling (NCHW layout)
# ---------------------------------------------------------------------------

def _im2col(x, k):
    """Column matrix (N, C*k*k, H*W) of ``x`` zero-padded by k // 2.

    Each (n, c) plane is padded above and below only, as one flat frame
    with k // 2 guard elements at each end, so tap (i, j) is the run of
    H*W frame elements starting at i*W + j. Copying whole runs is the
    padded window, except where a row's run wraps across the row edge:
    tap column j, shifted d = j - k // 2, reads the neighbouring row in
    its first -d (d < 0) or last d (d > 0) output columns, which are then
    zeroed.
    """
    n, c, h, w = x.shape
    if k == 1:  # the column matrix is x itself
        return x.reshape(n, c, h * w)
    pad = k // 2
    lead = pad * w + pad
    fr = np.zeros((n, c, h * w + 2 * lead), dtype=x.dtype)
    fr[:, :, lead:lead + h * w] = x.reshape(n, c, h * w)
    sn, sc, se = fr.strides
    win = np.lib.stride_tricks.as_strided(
        fr, (n, c, k, k, h * w), (sn, sc, w * se, se, se), writeable=False)
    cols = np.ascontiguousarray(win)
    rows = cols.reshape(n, c, k, k, h, w)
    for j in range(k):
        d = j - pad
        if d < 0:
            rows[:, :, :, j, :, :-d] = 0
        elif d > 0:
            rows[:, :, :, j, :, max(w - d, 0):] = 0
    return cols.reshape(n, c * k * k, h * w)


def _narrow(w_shape):
    """True when a conv is cheaper expanded on its output side (kn2row).

    im2col copies the input into a KH*KW*C x H*W column matrix per image;
    when F < C the KH*KW*F rows of the tap-stacked output are the smaller
    expansion. 1x1 kernels expand nothing and keep the plain matmul.
    """
    f, c, kh, kw = w_shape
    return f < c and kh * kw > 1


def _frame(x, pad):
    """Channel-major zero-padded copy of NCHW ``x``: (C, N, H+2p, W+2p)."""
    n, c, h, w = x.shape
    fr = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    fr[:, :, pad:pad + h, pad:pad + w] = x.transpose(1, 0, 2, 3)
    return fr


def _taps(w):
    """Kernel taps stacked tap-major: row (i*kw + j)*F + f is w[f, :, i, j]."""
    f, c, kh, kw = w.shape
    return w.transpose(2, 3, 0, 1).reshape(kh * kw * f, c)


def _offsets(kh, kw, wp):
    """Flat frame offset of each tap, in the row order of ``_taps``."""
    return [i * wp + j for i in range(kh) for j in range(kw)]


def _narrow_forward(x, w):
    # one GEMM of every tap against the flattened frame, then the kh*kw row
    # blocks summed at their tap offsets; sums that run across a row or an
    # image edge land only in the cropped-off border
    f, c, kh, kw = w.shape
    fr = _frame(x, kh // 2)
    _, n, hp, wp = fr.shape
    y = (_taps(w) @ fr.reshape(c, -1)).reshape(kh * kw, f, -1)
    offs = _offsets(kh, kw, wp)
    m = y.shape[2] - offs[-1]
    acc = y[0]
    for t in range(1, kh * kw):
        acc[:, :m] += y[t, :, offs[t]:offs[t] + m]
    acc = acc.reshape(f, n, hp, wp)[:, :, :hp - kh + 1, :wp - kw + 1]
    return np.ascontiguousarray(acc.transpose(1, 0, 2, 3))


def _narrow_backward(g, x, w, need_dx, need_dw):
    # g placed in the frame and shifted once per tap: row block t holds
    # g moved by tap t's offset, so both gradients are one GEMM each
    f, c, kh, kw = w.shape
    n, _, h, wd = g.shape
    pad = kh // 2
    hp, wp = h + 2 * pad, wd + 2 * pad
    size = n * hp * wp
    gexp = np.zeros((kh * kw, f, size), dtype=g.dtype)
    # tap (0, 0) has offset 0: its block is g in the frame itself
    gexp[0].reshape(f, n, hp, wp)[:, :, :h, :wd] = g.transpose(1, 0, 2, 3)
    for t, off in enumerate(_offsets(kh, kw, wp)[1:], 1):
        gexp[t, :, off:] = gexp[0, :, :size - off]
    gexp = gexp.reshape(kh * kw * f, size)
    dx = dw = None
    if need_dw:
        dw = gexp @ _frame(x, pad).reshape(c, size).T
        dw = dw.reshape(kh, kw, f, c).transpose(2, 3, 0, 1)
    if need_dx:
        dfr = (_taps(w).T @ gexp).reshape(c, n, hp, wp)
        dx = np.ascontiguousarray(
            dfr[:, :, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3))
    return dx, dw


def _conv_forward(x, w):
    if _narrow(w.shape):
        return _narrow_forward(x, w)
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    return np.matmul(w.reshape(f, c * k * k), _im2col(x, k)) \
        .reshape(n, f, h, wd)


def conv2d(x, w, b=None):
    """Stride-1 "same" convolution, NCHW input, (F, C, K, K) kernel.

    K must be odd: the input is zero-padded by K // 2 on every side, so the
    output keeps the input's H x W.

    The layout follows the narrow side, chosen from the kernel shape alone.
    With F >= C (or a 1x1 kernel) the input is expanded into an im2col
    column matrix, K*K*C rows (a 1x1 kernel's is the input itself):
    forward and weight gradient each build it, and the data gradient is the
    "same" convolution of ``g`` with the flipped, transposed kernel (which
    has C outputs, so it takes the other layout when C < F). With F < C
    that column matrix would be the wide side, so the output is expanded
    instead (kn2row): one GEMM of the K*K*F stacked taps against the
    zero-padded input, summed at each tap's offset; backward expands ``g``
    once into K*K*F shifted rows, which give the weight gradient against
    the padded input and the data gradient against the taps, one GEMM each.
    Nothing is kept alive in the graph beyond ``x`` and ``w``.
    """
    x, w = as_tensor(x), as_tensor(w)
    n, c, h, wd = x.data.shape
    f, c2, kh, kw = w.data.shape
    if c != c2:
        raise ValueError(f"conv2d channels mismatch: {c} vs {c2}")
    if kh != kw or kh % 2 == 0:
        raise ValueError("conv2d needs a square kernel of odd size, "
                         f"got {kh}x{kw}")
    narrow = _narrow(w.data.shape)
    out_data = _conv_forward(x.data, w.data)
    parents = [x, w]
    if b is not None:
        b = as_tensor(b)
        out_data += b.data.reshape(1, f, 1, 1)
        parents.append(b)

    def vjp(g):
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=(0, 2, 3)))
        if narrow:
            if x.requires_grad or w.requires_grad:
                dx, dw = _narrow_backward(g, x.data, w.data,
                                          x.requires_grad, w.requires_grad)
                if w.requires_grad:
                    w._accum(dw)
                if x.requires_grad:
                    x._accum(dx)
            return
        if w.requires_grad:
            gw = np.matmul(g.reshape(n, f, h * wd),
                           _im2col(x.data, kh).swapaxes(1, 2)).sum(axis=0)
            w._accum(gw.reshape(w.data.shape))
        if x.requires_grad:
            wt = np.ascontiguousarray(
                w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
            x._accum(_conv_forward(g, wt))

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
