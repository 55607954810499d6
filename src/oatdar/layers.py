"""Trainable building blocks on top of the autodiff tape.

Modules register parameters by name so checkpoints and optimizer state key
off stable dotted paths, which :func:`load_parameters`, the one checkpoint
loader, checks. :meth:`Module.register` is also the one place that sets the
parameter dtype: it casts every parameter to :data:`PARAM_DTYPE` (float32),
so no layer or model takes a dtype. Construction order is fixed and every
weight draw comes from the module's own Generator, so two models built with
the same seed are bit-identical.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .grayio import resize_matrix

PARAM_DTYPE = np.float32
NORM_GROUPS = 8  # groups of every GroupNorm, fewer where they do not divide


class Module:
    """Named parameters plus child modules.

    Parameters register trainable (``requires_grad``). :meth:`freeze` turns
    that off for inference, and the checkpoint loaders return frozen models:
    every op on frozen parameters and plain inputs then returns a tape-free
    Tensor that keeps no parents and no closure (see ``autodiff``).
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register(self, name: str, array: np.ndarray) -> Tensor:
        t = Tensor(np.asarray(array, dtype=PARAM_DTYPE), requires_grad=True)
        self._params[name] = t
        return t

    def add_child(self, name: str, module: "Module") -> "Module":
        self._children[name] = module
        return module

    def named_parameters(self, prefix: str = ""):
        for n, t in self._params.items():
            yield prefix + n, t
        for cn, child in self._children.items():
            yield from child.named_parameters(prefix + cn + ".")

    def parameters(self) -> dict:
        return dict(self.named_parameters())

    def freeze(self) -> "Module":
        """Stop every parameter from requiring grad (inference only)."""
        for _, t in self.named_parameters():
            t.requires_grad = False
        return self


def load_parameters(params: dict, arrays: dict, source):
    """Copy ``arrays`` into the ``{name: Tensor}`` dict ``params``, cast to
    each tensor's dtype; raises :class:`ConfigError` naming ``source`` when
    names or shapes differ."""
    bad = sorted(set(params) ^ set(arrays)) or [
        k for k, t in params.items() if arrays[k].shape != t.data.shape]
    if bad:
        raise ConfigError(f"{source}: its parameters do not fit the model "
                          f"(first mismatch: {bad[0]})")
    for k, t in params.items():
        t.data = arrays[k].astype(t.data.dtype, copy=True)


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        self.add_child(str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def __len__(self):
        return len(self._items)


def he_init(rng, shape, fan_in):
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def glorot_init(rng, shape, fan_in, fan_out):
    return rng.standard_normal(shape) * np.sqrt(2.0 / (fan_in + fan_out))


class Linear(Module):
    def __init__(self, d_in, d_out, rng):
        super().__init__()
        self.w = self.register("w", he_init(rng, (d_in, d_out), d_in))
        self.b = self.register("b", np.zeros(d_out))

    def __call__(self, x):
        return ad.add(ad.matmul(x, self.w), self.b)


class Conv2d(Module):
    """k x k "same" convolution; k is odd (see ``autodiff.conv2d``)."""

    def __init__(self, c_in, c_out, k, rng):
        super().__init__()
        self.w = self.register("w", he_init(rng, (c_out, c_in, k, k),
                                            c_in * k * k))
        self.b = self.register("b", np.zeros(c_out))

    def __call__(self, x):
        return ad.conv2d(x, self.w, self.b)


class GroupNorm(Module):
    def __init__(self, channels):
        super().__init__()
        g = min(NORM_GROUPS, channels)
        while channels % g:
            g -= 1
        self.groups = g
        self.gamma = self.register("gamma", np.ones(channels))
        self.beta = self.register("beta", np.zeros(channels))

    def __call__(self, x):
        return ad.group_norm(x, self.gamma, self.beta, self.groups)


@functools.lru_cache(maxsize=None)
def _upsample2_matrix_t(n: int, dtype) -> np.ndarray:
    """Transposed (n x 2n) bilinear x2 matrix in ``dtype``; read-only, as
    every model in the process shares it."""
    m = resize_matrix(n, 2 * n).T.astype(dtype)
    m.setflags(write=False)
    return m


def upsample2(x):
    """Bilinear x2 upsampling of an NCHW tensor in its own dtype: the H axis,
    then the W axis, each one matmul with a cached interpolation matrix."""
    h, w = x.data.shape[2:]
    dtype = x.data.dtype
    t = ad.matmul(ad.transpose(x, (0, 1, 3, 2)), _upsample2_matrix_t(h, dtype))
    t = ad.transpose(t, (0, 1, 3, 2))
    return ad.matmul(t, _upsample2_matrix_t(w, dtype))


# ---------------------------------------------------------------------------
# multi-head cross-attention
# ---------------------------------------------------------------------------

def cross_attention(q_tokens, cond_tokens, heads: int, params: dict,
                    return_weights: bool = False):
    """softmax(QK^T / sqrt(d_head)) V per head, concatenated, output
    projected, and residually added to ``q_tokens``.

    Q projects from the spatial feature tokens (N, L, C); K and V project
    from the conditioning tokens (N, M, D). ``params`` holds wq (C, C),
    wk/wv (D, C) and wo (C, C).
    """
    q_tokens = ad.as_tensor(q_tokens)
    cond_tokens = ad.as_tensor(cond_tokens)
    n, l, c = q_tokens.data.shape
    m = cond_tokens.data.shape[1]
    if c % heads:
        raise ValueError(f"model width {c} not divisible by {heads} heads")
    dh = c // heads

    def split(t, length):
        return ad.transpose(ad.reshape(t, (n, length, heads, dh)),
                            (0, 2, 1, 3))

    q = split(ad.matmul(q_tokens, params["wq"]), l)
    k = split(ad.matmul(cond_tokens, params["wk"]), m)
    v = split(ad.matmul(cond_tokens, params["wv"]), m)
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))),
                    np.asarray(1.0 / np.sqrt(dh), dtype=q_tokens.dtype))
    attn = ad.softmax(scores, axis=-1)                  # (n, heads, l, m)
    ctx = ad.matmul(attn, v)                            # (n, heads, l, dh)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (n, l, c))
    out = ad.add(q_tokens, ad.matmul(ctx, params["wo"]))
    if return_weights:
        return out, attn.data
    return out


class CrossAttentionBlock(Module):
    """Spatial feature map attends to conditioning tokens (NCHW in/out)."""

    def __init__(self, channels, cond_token_dim, heads, rng):
        super().__init__()
        self.heads = heads
        self.wq = self.register("wq", glorot_init(
            rng, (channels, channels), channels, channels))
        self.wk = self.register("wk", glorot_init(
            rng, (cond_token_dim, channels), cond_token_dim, channels))
        self.wv = self.register("wv", glorot_init(
            rng, (cond_token_dim, channels), cond_token_dim, channels))
        self.wo = self.register("wo", glorot_init(
            rng, (channels, channels), channels, channels))

    def attn_params(self) -> dict:
        return {"wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo}

    def __call__(self, x, cond_tokens):
        n, c, h, w = x.data.shape
        tokens = ad.transpose(ad.reshape(x, (n, c, h * w)), (0, 2, 1))
        out = cross_attention(tokens, cond_tokens, self.heads,
                              self.attn_params())
        return ad.reshape(ad.transpose(out, (0, 2, 1)), (n, c, h, w))


class ResBlock(Module):
    """norm - silu - conv, time-embedding bias, norm - silu - conv, skip."""

    def __init__(self, c_in, c_out, temb_dim, rng):
        super().__init__()
        self.norm1 = GroupNorm(c_in)
        self.conv1 = Conv2d(c_in, c_out, 3, rng)
        self.time_proj = Linear(temb_dim, c_out, rng)
        self.norm2 = GroupNorm(c_out)
        self.conv2 = Conv2d(c_out, c_out, 3, rng)
        self.skip = None if c_in == c_out else Conv2d(c_in, c_out, 1, rng)

    def __call__(self, x, temb):
        h = self.conv1(ad.silu(self.norm1(x)))
        tb = self.time_proj(ad.silu(temb))
        n, c = tb.data.shape
        h = ad.add(h, ad.reshape(tb, (n, c, 1, 1)))
        h = self.conv2(ad.silu(self.norm2(h)))
        s = x if self.skip is None else self.skip(x)
        return ad.add(h, s)
