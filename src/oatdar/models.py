"""The three trainable blocks: initial-reconstruction enhancer, conditioning
encoder, and the conditional noise-prediction UNet.

All models are plain compositions of the layers module, built determin-
istically from a seed, with a single parameter set shared across timesteps
(the step index enters the denoiser only through its sinusoidal embedding).
The three inference entry points take batches only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, NumericalError, ShapeError
from .layers import (PARAM_DTYPE, Conv2d, CrossAttentionBlock, GroupNorm,
                     Linear, Module, ModuleList, ResBlock, upsample2)

FDUNET_SEED = 100     # initial-weight seed of the enhancer
CIP_SEED = 200        # ... of the conditioning autoencoder
CIP_LAYERS = 3        # linear layers of the conditioning encoder
DENOISER_SEED = 300   # ... of the denoiser
ATTENTION_HEADS = 4   # heads of every denoiser cross-attention block

# ---------------------------------------------------------------------------
# sinusoidal time embedding
# ---------------------------------------------------------------------------


MAX_PERIOD = 10000.0


def time_embed(t, dim: int) -> np.ndarray:
    """Embed integer steps as [sin(t w_i)..., cos(t w_i)...] with
    w_i = MAX_PERIOD**(-2i/dim) and an even ``dim``. Accepts a scalar or a
    1-D batch."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("timesteps must be >= 0")
    half = dim // 2
    freqs = MAX_PERIOD ** (-2.0 * np.arange(half) / dim)
    ang = t[..., None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


# ---------------------------------------------------------------------------
# conditioning encoder (kept from an autoencoder after pretraining)
# ---------------------------------------------------------------------------


def check_layer_dims(layer_dims) -> tuple:
    """The encoder's widths: at least two, strictly decreasing to >= 1."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or dims[-1] < 1 or any(
            a <= b for a, b in zip(dims, dims[1:])):
        raise ConfigError(f"CIP widths must strictly decrease to >= 1: {dims}")
    return dims


class CIPEncoder(Module):
    """Strictly narrowing MLP with rectified-linear hidden activations."""

    def __init__(self, layer_dims, rng):
        super().__init__()
        self.layer_dims = dims = check_layer_dims(layer_dims)
        self.layers = ModuleList(
            Linear(a, b, rng) for a, b in zip(dims, dims[1:]))

    def __call__(self, x):
        for lin in self.layers:
            x = ad.relu(lin(x))
        return x


class CIPAutoencoder(Module):
    """Mirror-image decoder ``dec`` used only during pretraining; the encoder
    ``enc`` is the deliverable. The child names are the checkpoint's
    ``enc.``/``dec.`` prefixes."""

    def __init__(self, layer_dims):
        super().__init__()
        rng = np.random.default_rng(CIP_SEED)
        self.enc = CIPEncoder(layer_dims, rng)
        dims = self.enc.layer_dims[::-1]
        self.dec = ModuleList(
            Linear(a, b, rng) for a, b in zip(dims, dims[1:]))

    def __call__(self, x):
        z = self.enc(x)
        for i, lin in enumerate(self.dec):
            z = lin(z)
            if i < len(self.dec) - 1:
                z = ad.relu(z)
        return z


def cip_encode(encoder: CIPEncoder, patches: np.ndarray) -> np.ndarray:
    """Encode ``(N, D)`` flattened patches to ``(N, layer_dims[-1])``
    conditioning vectors."""
    x = np.asarray(patches)
    if x.shape[1:] != encoder.layer_dims[:1]:
        raise ValueError(f"patches {x.shape} do not match encoder input "
                         f"(N, {encoder.layer_dims[0]})")
    return encoder(Tensor(x.astype(PARAM_DTYPE))).data


# ---------------------------------------------------------------------------
# conditional noise-prediction UNet
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenoiserConfig:
    scales: tuple = (128, 256, 512, 1024)
    resblocks_per_scale: int = 2
    cond_dim: int = 1024
    cond_tokens: int = 16
    time_embed_dim: int = 64

    def __post_init__(self):
        if not self.scales or min(*self.scales, self.resblocks_per_scale,
                                  self.cond_tokens) < 1:
            raise ConfigError("denoiser scales (one or more) and counts "
                              "must be >= 1")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2:
            raise ConfigError("time_embed_dim must be even and >= 2")
        if self.cond_dim % self.cond_tokens:
            raise ConfigError("cond_dim must split evenly into cond_tokens")
        for c in self.scales:
            if c % ATTENTION_HEADS:
                raise ConfigError(f"channel width {c} not divisible by "
                                  f"{ATTENTION_HEADS} heads")

    @property
    def token_dim(self) -> int:
        return self.cond_dim // self.cond_tokens

    @classmethod
    def from_dict(cls, d):
        return cls(**{**d, "scales": tuple(d["scales"])})


class ConditionalDenoiser(Module):
    """UNet predicting the corrupting noise of a patch, conditioned at every
    scale of both paths through cross-attention over the encoded initial
    reconstruction, with the timestep injected through resblock biases."""

    def __init__(self, cfg: DenoiserConfig):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(DENOISER_SEED)
        ch = cfg.scales
        td = cfg.time_embed_dim
        self.time_mlp1 = Linear(td, td, rng)
        self.time_mlp2 = Linear(td, td, rng)
        self.conv_in = Conv2d(1, ch[0], 3, rng)

        def res(a, b):
            return ResBlock(a, b, td, rng)

        def attn(c):
            return CrossAttentionBlock(c, cfg.token_dim, ATTENTION_HEADS, rng)

        self.down_res = ModuleList()
        self.down_attn = ModuleList()
        prev = ch[0]
        for c in ch:
            stage = ModuleList()
            for r in range(cfg.resblocks_per_scale):
                stage.append(res(prev if r == 0 else c, c))
            prev = c
            self.down_res.append(stage)
            self.down_attn.append(attn(c))
        self.mid_res1 = res(ch[-1], ch[-1])
        self.mid_attn = attn(ch[-1])
        self.mid_res2 = res(ch[-1], ch[-1])
        self.up_res = ModuleList()
        self.up_attn = ModuleList()
        for i in reversed(range(len(ch) - 1)):
            stage = ModuleList()
            for r in range(cfg.resblocks_per_scale):
                stage.append(res(ch[i + 1] + ch[i] if r == 0 else ch[i], ch[i]))
            self.up_res.append(stage)
            self.up_attn.append(attn(ch[i]))
        self.norm_out = GroupNorm(ch[0])
        self.conv_out = Conv2d(ch[0], 1, 3, rng)

    def _cond_tokens(self, cond):
        cond = ad.as_tensor(cond)
        n = cond.data.shape[0]
        if cond.data.shape[1] != self.cfg.cond_dim:
            raise ValueError(f"conditioning dim {cond.data.shape[1]} != "
                             f"{self.cfg.cond_dim}")
        return ad.reshape(cond, (n, self.cfg.cond_tokens, self.cfg.token_dim))

    def __call__(self, x, cond, t_batch):
        """x: (N, 1, H, W) Tensor/array; cond: (N, cond_dim); t: (N,) ints."""
        x = ad.as_tensor(x)
        n = x.data.shape[0]
        temb_np = time_embed(np.asarray(t_batch), self.cfg.time_embed_dim)
        temb = self.time_mlp2(ad.silu(self.time_mlp1(
            Tensor(temb_np.astype(PARAM_DTYPE)))))
        cond_tokens = self._cond_tokens(cond)

        h = self.conv_in(x)
        skips = []
        n_scales = len(self.cfg.scales)
        for i in range(n_scales):
            for block in self.down_res[i]:
                h = block(h, temb)
            h = self.down_attn[i](h, cond_tokens)
            skips.append(h)
            if i < n_scales - 1:
                h = ad.avg_pool2(h)
        h = self.mid_res1(h, temb)
        h = self.mid_attn(h, cond_tokens)
        h = self.mid_res2(h, temb)
        for j, i in enumerate(reversed(range(n_scales - 1))):
            h = upsample2(h)
            h = ad.concat([h, skips[i]], axis=1)
            for block in self.up_res[j]:
                h = block(h, temb)
            h = self.up_attn[j](h, cond_tokens)
        return self.conv_out(ad.silu(self.norm_out(h)))


def denoise_predict(model: ConditionalDenoiser, x_t, cond,
                    t: int) -> np.ndarray:
    """Inference-mode noise prediction for ``(N, H, W)`` patches at one step
    ``t``, conditioned on ``(N, cond_dim)`` vectors; returns ``(N, H, W)``."""
    x = np.asarray(x_t, dtype=PARAM_DTYPE)
    if x.ndim != 3:
        raise ShapeError(f"patches must be (N, H, W), got {x.shape}")
    return model(Tensor(x[:, None]), Tensor(np.asarray(cond, PARAM_DTYPE)),
                 np.full(x.shape[0], int(t))).data[:, 0]


# ---------------------------------------------------------------------------
# dense-skip enhancement UNet for the initial reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FDUNetConfig:
    scales: tuple = (16, 32, 64)
    growth: int = 16
    layers_per_block: int = 4

    def __post_init__(self):
        if (not self.scales or min(*self.scales, self.growth) < 1
                or self.layers_per_block < 0):
            raise ConfigError("fd_unet scales (one or more) and growth must "
                              "be >= 1, layers_per_block >= 0")

    @classmethod
    def from_dict(cls, d):
        return cls(**{**d, "scales": tuple(d["scales"])})


class DenseBlock(Module):
    """Each layer convolves the concatenation of everything before it."""

    def __init__(self, c_in, growth, layers, rng):
        super().__init__()
        self.convs = ModuleList()
        c = c_in
        for _ in range(layers):
            self.convs.append(Conv2d(c, growth, 3, rng))
            c += growth
        self.out_channels = c

    def __call__(self, x):
        feats = x
        for conv in self.convs:
            y = ad.relu(conv(feats))
            feats = ad.concat([feats, y], axis=1)
        return feats


class FDUNet(Module):
    """Multi-scale dense-block UNet: max-pool down, bilinear up, dense skip
    connections inside every block, 1x1 transitions, 1x1 output head."""

    def __init__(self, cfg: FDUNetConfig):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(FDUNET_SEED)
        ch = cfg.scales
        self.conv_in = Conv2d(1, ch[0], 3, rng)
        self.enc_blocks = ModuleList()
        self.enc_trans = ModuleList()
        prev = ch[0]
        for c in ch:
            db = DenseBlock(prev, cfg.growth, cfg.layers_per_block, rng)
            self.enc_blocks.append(db)
            self.enc_trans.append(Conv2d(db.out_channels, c, 1, rng))
            prev = c
        self.dec_blocks = ModuleList()
        self.dec_trans = ModuleList()
        for i in reversed(range(len(ch) - 1)):
            c_in = ch[i + 1] + ch[i]
            db = DenseBlock(c_in, cfg.growth, cfg.layers_per_block, rng)
            self.dec_blocks.append(db)
            self.dec_trans.append(Conv2d(db.out_channels, ch[i], 1, rng))
        self.head = Conv2d(ch[0], 1, 1, rng)

    def __call__(self, x):
        x = ad.as_tensor(x)
        h = ad.relu(self.conv_in(x))
        skips = []
        n_scales = len(self.cfg.scales)
        for i in range(n_scales):
            h = ad.relu(self.enc_trans[i](self.enc_blocks[i](h)))
            skips.append(h)
            if i < n_scales - 1:
                h = ad.max_pool2(h)
        for j, i in enumerate(reversed(range(n_scales - 1))):
            h = upsample2(h)
            h = ad.concat([h, skips[i]], axis=1)
            h = ad.relu(self.dec_trans[j](self.dec_blocks[j](h)))
        return self.head(h)


def fd_unet_forward(model: FDUNet, images: np.ndarray) -> np.ndarray:
    """Inference-mode enhancement of ``(N, H, W)`` images; raises
    :class:`NumericalError` rather than return a non-finite output."""
    x = np.asarray(images, dtype=PARAM_DTYPE)
    if x.ndim != 3:
        raise ShapeError(f"images must be (N, H, W), got {x.shape}")
    out = model(Tensor(x[:, None])).data[:, 0]
    if not np.all(np.isfinite(out)):
        raise NumericalError("enhancer produced non-finite values")
    return out
