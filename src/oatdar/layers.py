"""Trainable building blocks on top of the autodiff tape.

Modules register parameters by name so checkpoints and optimizer state key
off stable dotted paths, which :func:`load_parameters`, the one checkpoint
loader, checks. Construction order is fixed and every weight draw comes from
the module's own Generator, so two models built with the same seed are
bit-identical.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError


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
        t = Tensor(np.asarray(array), requires_grad=True)
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


def he_init(rng, shape, fan_in, dtype):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def glorot_init(rng, shape, fan_in, fan_out, dtype):
    s = np.sqrt(2.0 / (fan_in + fan_out))
    return (rng.standard_normal(shape) * s).astype(dtype)


class Linear(Module):
    def __init__(self, d_in, d_out, rng, dtype=np.float32):
        super().__init__()
        self.w = self.register("w", he_init(rng, (d_in, d_out), d_in, dtype))
        self.b = self.register("b", np.zeros(d_out, dtype=dtype))

    def __call__(self, x):
        return ad.add(ad.matmul(x, self.w), self.b)


class Conv2d(Module):
    """k x k convolution padded by k // 2: odd kernels keep the size."""

    def __init__(self, c_in, c_out, k, rng, dtype=np.float32):
        super().__init__()
        self.pad = k // 2
        fan_in = c_in * k * k
        self.w = self.register("w", he_init(rng, (c_out, c_in, k, k),
                                            fan_in, dtype))
        self.b = self.register("b", np.zeros(c_out, dtype=dtype))

    def __call__(self, x):
        return ad.conv2d(x, self.w, self.b, pad=self.pad)


def _norm_groups(channels: int, groups: int) -> int:
    g = min(groups, channels)
    while channels % g:
        g -= 1
    return g


class GroupNorm(Module):
    def __init__(self, channels, groups=8, eps=1e-5, dtype=np.float32):
        super().__init__()
        self.groups = _norm_groups(channels, groups)
        self.eps = eps
        self.gamma = self.register("gamma", np.ones(channels, dtype=dtype))
        self.beta = self.register("beta", np.zeros(channels, dtype=dtype))

    def __call__(self, x):
        return ad.group_norm(x, self.gamma, self.beta, self.groups, self.eps)


@functools.lru_cache(maxsize=None)
def _upsample2_matrices(h: int, w: int, dtype):
    mats = ad.upsample2_matrices(h, w, dtype=dtype)
    for m in mats:
        m.setflags(write=False)      # shared by every model in the process
    return mats


def upsample2(x):
    """Bilinear x2 upsampling of an NCHW tensor; the interpolation matrices
    are built once per (H, W, dtype)."""
    h, w = x.data.shape[2:]
    return ad.upsample2_bilinear(x, *_upsample2_matrices(h, w, x.data.dtype))


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

    def __init__(self, channels, cond_token_dim, heads, rng,
                 dtype=np.float32):
        super().__init__()
        self.heads = heads
        self.wq = self.register("wq", glorot_init(
            rng, (channels, channels), channels, channels, dtype))
        self.wk = self.register("wk", glorot_init(
            rng, (cond_token_dim, channels), cond_token_dim, channels, dtype))
        self.wv = self.register("wv", glorot_init(
            rng, (cond_token_dim, channels), cond_token_dim, channels, dtype))
        self.wo = self.register("wo", glorot_init(
            rng, (channels, channels), channels, channels, dtype))

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

    def __init__(self, c_in, c_out, temb_dim, rng, groups=8, dtype=np.float32):
        super().__init__()
        self.norm1 = GroupNorm(c_in, groups, dtype=dtype)
        self.conv1 = Conv2d(c_in, c_out, 3, rng, dtype=dtype)
        self.time_proj = Linear(temb_dim, c_out, rng, dtype=dtype)
        self.norm2 = GroupNorm(c_out, groups, dtype=dtype)
        self.conv2 = Conv2d(c_out, c_out, 3, rng, dtype=dtype)
        self.skip = None if c_in == c_out else Conv2d(c_in, c_out, 1, rng,
                                                      dtype=dtype)

    def __call__(self, x, temb):
        h = self.conv1(ad.silu(self.norm1(x)))
        tb = self.time_proj(ad.silu(temb))
        n, c = tb.data.shape
        h = ad.add(h, ad.reshape(tb, (n, c, 1, 1)))
        h = self.conv2(ad.silu(self.norm2(h)))
        s = x if self.skip is None else self.skip(x)
        return ad.add(h, s)
