import gc
import weakref

import numpy as np
import pytest

from oatdar import autodiff as ad
from oatdar.layers import upsample2


def fd_check(build, arrays, n_coords=8, h=1e-5, tol=1e-6, seed=0):
    """Central finite differences vs backward() on sampled coordinates."""
    rng = np.random.default_rng(seed)
    tensors = {k: ad.Tensor(v.copy(), requires_grad=True)
               for k, v in arrays.items()}
    loss = build(tensors)
    loss.backward()

    def value(arrs):
        ts = {k: ad.Tensor(v) for k, v in arrs.items()}
        return float(build(ts).data)

    for name, arr in arrays.items():
        grad = tensors[name].grad
        assert grad is not None, f"no grad for {name}"
        assert grad.shape == arr.shape
        flat_idx = rng.choice(arr.size, size=min(n_coords, arr.size),
                              replace=False)
        for idx in flat_idx:
            plus = {k: v.copy() for k, v in arrays.items()}
            minus = {k: v.copy() for k, v in arrays.items()}
            plus[name].ravel()[idx] += h
            minus[name].ravel()[idx] -= h
            fd = (value(plus) - value(minus)) / (2 * h)
            ana = grad.ravel()[idx]
            err = abs(ana - fd) / max(abs(ana), abs(fd), 1e-8)
            assert err <= tol, f"{name}[{idx}]: ana={ana} fd={fd} err={err}"


def _r(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


def test_add_broadcast():
    fd_check(lambda t: ad.sum_(ad.mul(ad.add(t["a"], t["b"]), t["a"])),
             {"a": _r((3, 4), 1), "b": _r((4,), 2)})


def test_sub_neg():
    fd_check(lambda t: ad.sum_(ad.mul(ad.sub(t["a"], t["b"]), t["c"])),
             {"a": _r((2, 3), 3), "b": _r((2, 3), 4),
              "c": _r((2, 3), 5, lo=0.5, hi=2.0)})


def test_reshape_transpose_concat():
    def build(t):
        x = ad.reshape(t["a"], (2, 6))
        y = ad.transpose(t["b"], (1, 0))
        return ad.sum_(ad.mul(ad.concat([x, y], axis=0), t["c"]))

    fd_check(build, {"a": _r((3, 4), 9), "b": _r((6, 2), 10),
                     "c": _r((4, 6), 11)})


def test_sum_mean_axes():
    fd_check(lambda t: ad.sum_(ad.mean_(t["a"], axis=1, keepdims=True)),
             {"a": _r((3, 5), 12)})
    fd_check(lambda t: ad.mean_(ad.sum_(t["a"], axis=0)), {"a": _r((3, 5), 13)})


def test_matmul_2d():
    fd_check(lambda t: ad.sum_(ad.matmul(t["a"], t["b"])),
             {"a": _r((3, 4), 14), "b": _r((4, 2), 15)})


def test_matmul_batched_and_broadcast():
    fd_check(lambda t: ad.sum_(ad.matmul(t["a"], t["b"])),
             {"a": _r((2, 3, 4), 16), "b": _r((2, 4, 5), 17)})
    # 2-D rhs broadcast over a 3-D batch
    fd_check(lambda t: ad.sum_(ad.matmul(t["a"], t["b"])),
             {"a": _r((2, 3, 4), 18), "b": _r((4, 5), 19)})


def _sigmoid_reference(x):
    # the two-branch form ad._sigmoid replaced, kept as its bit oracle
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -88.0,
                  700.0, -700.0, 1e-45, -1e-45]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_identical_to_where_form(dtype):
    x = np.random.default_rng(60).normal(0.0, 20.0, 100_000)
    x = np.concatenate([x, _SIGMOID_EDGES]).astype(dtype)
    got, want = ad._sigmoid(x), _sigmoid_reference(x)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want, equal_nan=True)
    ok = ~np.isnan(want)  # same bits, so also the same sign of zero
    assert np.array_equal(got[ok].view(f"u{got.itemsize}"),
                          want[ok].view(f"u{want.itemsize}"))


def test_silu_forward_and_vjp_bit_identical_to_where_form():
    rng = np.random.default_rng(61)
    x = (rng.standard_normal((4, 16, 16, 16)) * 3).astype(np.float32)
    g = rng.standard_normal(x.shape).astype(np.float32)
    a = ad.Tensor(x.copy(), requires_grad=True)
    out = ad.silu(a)
    s = _sigmoid_reference(x)
    assert out.dtype == np.float32 and np.array_equal(out.data, x * s)
    out._vjp(g)
    assert np.array_equal(a.grad, g * (s + x * s * (1.0 - s)))


def test_relu_silu_sigmoid():
    # keep points away from the relu kink
    a = _r((4, 4), 20)
    a[np.abs(a) < 0.05] = 0.5
    fd_check(lambda t: ad.sum_(ad.relu(t["a"])), {"a": a})
    fd_check(lambda t: ad.sum_(ad.silu(t["a"])), {"a": _r((4, 4), 21)})


def test_softmax():
    fd_check(lambda t: ad.sum_(ad.mul(ad.softmax(t["a"], axis=-1), t["w"])),
             {"a": _r((3, 5), 23), "w": _r((3, 5), 24)})


def test_softmax_rows_sum_to_one():
    s = ad.softmax(ad.Tensor(_r((6, 9), 25) * 10), axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(s.data >= 0)


def test_conv2d():
    fd_check(lambda t: ad.sum_(ad.mul(
        ad.conv2d(t["x"], t["w"], t["b"]), t["m"])),
        {"x": _r((2, 3, 5, 5), 26), "w": _r((4, 3, 3, 3), 27),
         "b": _r((4,), 28), "m": _r((2, 4, 5, 5), 29)}, n_coords=6)


def _conv_oracle(x, w, g):
    """Direct-loop output, dx and dW of a stride-1 conv for output grad g,
    the input zero-padded by half the kernel."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    pad = kh // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = np.zeros((n, f, oh, ow))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for i in range(oh):
        for j in range(ow):
            win = xp[:, :, i:i + kh, j:j + kw]
            out[:, :, i, j] = np.einsum("ncab,fcab->nf", win, w)
            dw += np.einsum("nf,ncab->fcab", g[:, :, i, j], win)
            dxp[:, :, i:i + kh, j:j + kw] += np.einsum(
                "nf,fcab->ncab", g[:, :, i, j], w)
    return out, dxp[:, :, pad:pad + h, pad:pad + wd], dw


def _conv_and_grads(x, w, g):
    xt, wt = ad.Tensor(x, requires_grad=True), ad.Tensor(w, requires_grad=True)
    out = ad.conv2d(xt, wt)
    ad.sum_(ad.mul(out, ad.Tensor(g))).backward()
    return out.data, xt.grad, wt.grad


def test_conv2d_matches_direct_loop():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((1, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w)).data
    want, _, _ = _conv_oracle(x, w, np.zeros((1, 3, 4, 4)))
    assert np.allclose(out, want, atol=1e-12)


# (C, F): F < C takes the output-side (kn2row) layout, F >= C im2col
@pytest.mark.parametrize("c,f", [(6, 2), (5, 1), (3, 3), (2, 5), (1, 4)])
@pytest.mark.parametrize("k", [1, 3, 5])
# input grown by `grow` rows and shrunk by `grow` columns: tall, wide, odd
# and even frames, some narrower than a 5x5 kernel
@pytest.mark.parametrize("grow", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 3])
def test_conv2d_grads_match_direct_loop(c, f, k, grow, n):
    rng = np.random.default_rng(100 * c + 10 * f + k + grow + n)
    x = rng.standard_normal((n, c, 4 + grow, 7 - grow))
    w = rng.standard_normal((f, c, k, k))
    g = rng.standard_normal((n, f, 4 + grow, 7 - grow))
    got = _conv_and_grads(x, w, g)
    for name, a, b in zip(("out", "dx", "dw"), got, _conv_oracle(x, w, g)):
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= 1e-12, name


def test_conv2d_narrow():
    fd_check(lambda t: ad.sum_(ad.mul(
        ad.conv2d(t["x"], t["w"], t["b"]), t["m"])),
        {"x": _r((2, 5, 5, 4), 50), "w": _r((2, 5, 3, 3), 51),
         "b": _r((2,), 52), "m": _r((2, 2, 5, 4), 53)}, n_coords=6)


@pytest.mark.parametrize("c,f", [(32, 10), (16, 32)])
def test_conv2d_float32_close_to_float64(c, f):
    rng = np.random.default_rng(c + f)
    x = rng.standard_normal((4, c, 16, 16))
    w = rng.standard_normal((f, c, 3, 3)) / np.sqrt(9 * c)
    g = rng.standard_normal((4, f, 16, 16))
    ref = _conv_oracle(x, w, g)
    got = _conv_and_grads(*(a.astype(np.float32) for a in (x, w, g)))
    for name, a, b in zip(("out", "dx", "dw"), got, ref):
        assert a.dtype == np.float32, name
        assert np.max(np.abs(a - b)) <= 2e-6 * np.max(np.abs(b)), name


def _im2col_forward_reference(x, w, pad):
    n, c = x.shape[:2]
    f, _, kh, kw = w.shape
    if kh == 1 and kw == 1 and pad == 0:
        cols = x.reshape(n, c, -1)
        out = np.matmul(w.reshape(f, c), cols)
        return out.reshape(n, f, *x.shape[2:]), cols
    cols, oh, ow = _im2col_reference(x, kh, kw, pad)
    out = np.matmul(w.reshape(f, c * kh * kw), cols)
    return out.reshape(n, f, oh, ow), cols


def _im2col_conv_reference(x, w, pad, g):
    """The im2col conv and its gradients; dx is the flipped-kernel conv,
    itself im2col."""
    n, c = x.shape[:2]
    f, _, kh, kw = w.shape
    out, cols = _im2col_forward_reference(x, w, pad)
    dw = np.matmul(g.reshape(n, f, -1), cols.swapaxes(1, 2)).sum(axis=0)
    if kh == 1 and kw == 1 and pad == 0:
        dx = np.matmul(w.reshape(f, c).T, g.reshape(n, f, -1))
    else:
        wt = np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        dx, _ = _im2col_forward_reference(g, wt, kh - 1 - pad)
    return out, dx.reshape(x.shape), dw.reshape(w.shape)


# pad is the reference's zero padding, k // 2
@pytest.mark.parametrize("c,f,k,pad", [(3, 3, 3, 1), (4, 4, 5, 2),
                                       (2, 6, 3, 1), (6, 2, 1, 0),
                                       (2, 6, 1, 0), (3, 3, 1, 0)])
def test_conv2d_im2col_layout_bit_identical(c, f, k, pad):
    rng = np.random.default_rng(c * f + k)
    x = rng.standard_normal((3, c, 8, 6)).astype(np.float32)
    w = rng.standard_normal((f, c, k, k)).astype(np.float32)
    g = rng.standard_normal((3, f, 8, 6)).astype(np.float32)
    out, dx, dw = _conv_and_grads(x, w, g)
    want_out, want_dx, want_dw = _im2col_conv_reference(x, w, pad, g)
    assert np.array_equal(out, want_out) and np.array_equal(dw, want_dw)
    if f == c or k == 1:  # else dx is a conv with C < F outputs: narrow
        assert np.array_equal(dx, want_dx)


@pytest.mark.parametrize("c,f", [(6, 2), (2, 6)])
def test_conv2d_no_grad_for_frozen_operand(c, f):
    x = _r((2, c, 5, 5), 60)
    w = _r((f, c, 3, 3), 61)
    xt, wt = ad.Tensor(x, requires_grad=True), ad.Tensor(w)
    ad.sum_(ad.conv2d(xt, wt)).backward()
    assert wt.grad is None and xt.grad.shape == x.shape
    xt, wt = ad.Tensor(x), ad.Tensor(w, requires_grad=True)
    ad.sum_(ad.conv2d(xt, wt)).backward()
    assert xt.grad is None and wt.grad.shape == w.shape


def test_avg_and_max_pool():
    fd_check(lambda t: ad.sum_(ad.mul(ad.avg_pool2(t["x"]), t["m"])),
             {"x": _r((2, 3, 4, 4), 31), "m": _r((2, 3, 2, 2), 32)})
    # distinct values keep argmax stable under the fd step
    x = np.arange(2 * 2 * 4 * 4, dtype=np.float64).reshape(2, 2, 4, 4)
    x += _r((2, 2, 4, 4), 33) * 0.1
    fd_check(lambda t: ad.sum_(ad.mul(ad.max_pool2(t["x"]), t["m"])),
             {"x": x, "m": _r((2, 2, 2, 2), 34)})


def test_max_pool_values():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    assert ad.max_pool2(ad.Tensor(x)).data[0, 0, 0, 0] == 4.0


def test_upsample_bilinear():
    fd_check(lambda t: ad.sum_(ad.mul(upsample2(t["x"]), t["m"])),
             {"x": _r((2, 2, 3, 4), 35), "m": _r((2, 2, 6, 8), 36)})


def test_upsample_shapes_and_values():
    x = ad.Tensor(np.array([[[[0.0, 1.0], [2.0, 3.0]]]]))
    up = upsample2(x).data
    assert up.shape == (1, 1, 4, 4)
    assert up[0, 0, 0, 0] == 0.0 and up[0, 0, 3, 3] == 3.0
    # interior interpolated between neighbors
    assert 0.0 < up[0, 0, 1, 1] < 3.0


def test_grad_accumulates_on_reuse():
    a = ad.Tensor(np.array([2.0]), requires_grad=True)
    loss = ad.sum_(ad.mul(a, a))
    loss.backward()
    assert a.grad[0] == pytest.approx(4.0)


def test_no_tape_without_requires_grad():
    a = ad.Tensor(np.ones((2, 2)))
    b = ad.Tensor(np.ones((2, 2)))
    out = ad.mul(a, b)
    assert out._vjp is None and not out.requires_grad


def test_tape_free_op_keeps_no_parents():
    w = ad.Tensor(np.ones((2, 2)))
    out = ad.matmul(ad.Tensor(np.ones((3, 2))), w)
    assert out._parents == () and out._vjp is None
    w.requires_grad = True
    out = ad.matmul(ad.Tensor(np.ones((3, 2))), w)
    assert out._parents[1] is w and out._vjp is not None


def test_backward_frees_graph_without_cycle_collector():
    # a graph kept alive by a reference cycle waits for gc; training holds
    # one graph per batch, so that showed as peak RSS
    gc.disable()
    try:
        x = ad.Tensor(np.ones((3, 3)), requires_grad=True)
        h = ad.mul(x, x)
        ref = weakref.ref(h.data)
        ad.sum_(h).backward()
        del h
        assert ref() is None
    finally:
        gc.enable()


def _softmax_reference(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# softmax sums rows of 8 <= n <= 128 on the last axis in numpy's pairwise
# order by hand: lengths on both sides of each bound and of a block of 8,
# and with one and with seven leftover elements
_SOFTMAX_LENGTHS = [1, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 256]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [-1, 1])
@pytest.mark.parametrize("length", _SOFTMAX_LENGTHS)
def test_softmax_bit_identical_to_reference(dtype, axis, length):
    shape = [2, 3, 5, 4]
    shape[axis] = length
    x = (np.random.default_rng(length).standard_normal(shape) * 6) \
        .astype(dtype)
    # numpy sums the last-axis rows of a Fortran-ordered array in another
    # order; over axis 1 softmax's exp of such an array is laid out unlike
    # the reference's, and numpy's e.sum then differs in the last bit
    for x in [x, np.asfortranarray(x)] if axis == -1 else [x]:
        got = ad.softmax(ad.Tensor(x), axis=axis).data
        want = _softmax_reference(x, axis)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [-1, 1])
@pytest.mark.parametrize("length", _SOFTMAX_LENGTHS)
def test_softmax_vjp_row_sum_bit_identical(dtype, axis, length):
    shape = [2, 3, 5, 4]
    shape[axis] = length
    rng = np.random.default_rng(length + 1)
    x = (rng.standard_normal(shape) * 6).astype(dtype)
    g = (rng.standard_normal(shape) * 3).astype(dtype)
    # one row of -0.0: numpy's row sum of it is +0.0, so the gradient
    # keeps g's signed zeros there only if the sum starts from zero too
    np.moveaxis(g, axis, -1)[0, 0, 0] = -0.0
    a = ad.Tensor(x, requires_grad=True)
    s = ad.softmax(a, axis=axis)
    ad.sum_(ad.mul(s, g)).backward()
    want = s.data * (g - (g * s.data).sum(axis=axis, keepdims=True))
    assert np.array_equal(a.grad, want)
    assert np.array_equal(np.signbit(a.grad), np.signbit(want))


def _window_reference(x, kh, kw, pad):
    """(N, C, KH, KW, OH, OW) view of ``x`` padded by ``np.pad``."""
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return win.transpose(0, 1, 4, 5, 2, 3)


def _im2col_reference(x, kh, kw, pad):
    win = _window_reference(x, kh, kw, pad)
    n, c, _, _, oh, ow = win.shape
    return win.reshape(n, c * kh * kw, oh * ow), oh, ow


@pytest.mark.parametrize("odd", [0, 1])  # an even or an odd input width
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_im2col_bit_identical_to_np_pad(odd, k):
    rng = np.random.default_rng(k + odd)
    # non-square frames, and frames 1 or 2 pixels wide or high, where
    # k // 2 reaches past the whole row
    for shape in [(2, 3, 6, 4 + odd), (2, 3, 5, 1 + odd), (1, 2, 1 + odd, 7)]:
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal(shape).astype(dtype)
            x.flat[0::5] = -0.0
            x.flat[1::7] = np.inf
            x.flat[2::9] = -np.inf
            x.flat[3::11] = np.nan
            cols = ad._im2col(x, k)
            want, oh, ow = _im2col_reference(x, k, k, k // 2)
            assert (oh, ow) == x.shape[2:]
            assert cols.dtype == dtype and cols.shape == want.shape
            assert np.array_equal(cols, want, equal_nan=True)
            assert np.array_equal(np.signbit(cols), np.signbit(want))


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("hw", [4, 16, 32])
@pytest.mark.parametrize("c", [1, 16, 64])
@pytest.mark.parametrize("n", [4, 16])
def test_im2col_desk_shapes_bit_identical(n, c, hw, k):
    x = np.random.default_rng(n + c + hw + k) \
        .standard_normal((n, c, hw, hw)).astype(np.float32)
    cols = ad._im2col(x, k)
    assert cols.shape == (n, c * k * k, hw * hw) and cols.dtype == np.float32
    # compared as the 6-D window, so the reference stays a view
    assert np.array_equal(cols.reshape(n, c, k, k, hw, hw),
                          _window_reference(x, k, k, k // 2))
    if k > 1:  # a copy: writing the columns must never reach x
        assert not np.shares_memory(cols, x)


@pytest.mark.parametrize("shape", [(2, 3, 2, 2), (2, 3, 3, 1), (2, 3, 1, 3),
                                   (2, 3, 4, 4)])
def test_conv2d_rejects_even_or_non_square_kernel(shape):
    x = ad.Tensor(np.ones((1, 3, 5, 5)))
    with pytest.raises(ValueError, match="square kernel of odd size"):
        ad.conv2d(x, ad.Tensor(np.ones(shape)))


def test_dtype_preserved():
    x = ad.Tensor(np.ones((1, 1, 4, 4), dtype=np.float32), requires_grad=True)
    w = ad.Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = ad.silu(ad.conv2d(x, w))
    assert out.dtype == np.float32
    ad.sum_(out).backward()
    assert x.grad.dtype == np.float32


def test_group_norm():
    fd_check(lambda t: ad.sum_(ad.mul(
        ad.group_norm(t["x"], t["g"], t["b"], groups=2), t["m"])),
        {"x": _r((2, 4, 3, 3), 40), "g": _r((4,), 41, lo=0.5, hi=1.5),
         "b": _r((4,), 42), "m": _r((2, 4, 3, 3), 43)}, n_coords=6, tol=5e-6)


def test_group_norm_statistics():
    x = ad.Tensor(np.random.default_rng(44).standard_normal((3, 8, 5, 5)) * 4)
    out = ad.group_norm(x, ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)),
                        groups=4).data
    grouped = out.reshape(3, 4, -1)
    assert np.allclose(grouped.mean(axis=2), 0.0, atol=1e-9)
    assert np.allclose(grouped.std(axis=2), 1.0, atol=1e-5)
