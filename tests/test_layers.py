import numpy as np
import pytest

from oatdar import autodiff as ad
from oatdar.autodiff import Tensor
from oatdar.errors import ConfigError
from oatdar.layers import (Conv2d, CrossAttentionBlock, GroupNorm, Linear,
                           Module, ResBlock, cross_attention, glorot_init,
                           load_parameters)

from conftest import as_float64
from test_autodiff import fd_check


def test_module_parameter_registry():
    class Net(Module):
        def __init__(self):
            super().__init__()
            rng = np.random.default_rng(0)
            self.fc1 = Linear(4, 3, rng)
            self.fc2 = Linear(3, 2, rng)

    net = Net()
    names = sorted(net.parameters())
    assert names == ["fc1.b", "fc1.w", "fc2.b", "fc2.w"]
    assert sum(t.data.size for t in net.parameters().values()) == \
        4 * 3 + 3 + 3 * 2 + 2


def test_state_roundtrip_and_mismatch():
    rng = np.random.default_rng(1)
    a = Linear(5, 4, rng)
    b = Linear(5, 4, np.random.default_rng(2))
    assert not np.array_equal(a.w.data, b.w.data)
    load_parameters(b.parameters(), {"w": a.w.data, "b": a.b.data},
                    "a.ckpt")
    assert np.array_equal(a.w.data, b.w.data)
    with pytest.raises(ConfigError, match="a.ckpt"):
        load_parameters(b.parameters(), {"w": np.zeros((5, 4))}, "a.ckpt")
    with pytest.raises(ConfigError, match="a.ckpt"):
        load_parameters(b.parameters(), {"w": np.zeros((9, 9)),
                                         "b": np.zeros(4)}, "a.ckpt")


def test_construction_deterministic():
    a = Conv2d(3, 5, 3, np.random.default_rng(7))
    b = Conv2d(3, 5, 3, np.random.default_rng(7))
    assert np.array_equal(a.w.data, b.w.data)


# ---------------------------------------------------------------------------
# cross-attention
# ---------------------------------------------------------------------------


def _attn_params(c, d, seed):
    rng = np.random.default_rng(seed)
    return {"wq": Tensor(glorot_init(rng, (c, c), c, c)),
            "wk": Tensor(glorot_init(rng, (d, c), d, c)),
            "wv": Tensor(glorot_init(rng, (d, c), d, c)),
            "wo": Tensor(glorot_init(rng, (c, c), c, c))}


def test_attention_single_cond_token():
    rng = np.random.default_rng(3)
    q = Tensor(rng.standard_normal((2, 5, 4)))
    cond = Tensor(rng.standard_normal((2, 1, 6)))
    params = _attn_params(4, 6, 4)
    out, weights = cross_attention(q, cond, heads=2, params=params,
                                   return_weights=True)
    # a single key gets all the attention, for every query and head
    assert np.allclose(weights, 1.0)
    # pre-residual context is that token's V-projection for every query
    v = cond.data @ params["wv"].data    # (2, 1, 4)
    pre_residual = out.data - q.data - \
        np.zeros_like(out.data)  # residual added inside; recover context @ wo
    want = np.broadcast_to(v @ params["wo"].data, out.data.shape)
    assert np.allclose(out.data, q.data + want, atol=1e-12)


def test_attention_uniform_when_logits_equal():
    rng = np.random.default_rng(5)
    q = Tensor(np.zeros((1, 3, 4)))     # zero queries -> zero logits
    cond = Tensor(rng.standard_normal((1, 7, 6)))
    params = _attn_params(4, 6, 6)
    out, weights = cross_attention(q, cond, heads=1, params=params,
                                   return_weights=True)
    assert np.allclose(weights, 1.0 / 7)


def test_attention_weights_row_stochastic():
    rng = np.random.default_rng(7)
    q = Tensor(rng.standard_normal((3, 6, 8)))
    cond = Tensor(rng.standard_normal((3, 4, 10)))
    out, weights = cross_attention(q, cond, heads=4,
                                   params=_attn_params(8, 10, 8),
                                   return_weights=True)
    assert np.all(weights >= 0)
    assert np.abs(weights.sum(axis=-1) - 1.0).max() <= 1e-6


def test_attention_matches_bruteforce_oracle():
    # 3 queries, 2 conditioning tokens, 1 head
    rng = np.random.default_rng(9)
    q = rng.standard_normal((1, 3, 4))
    cond = rng.standard_normal((1, 2, 5))
    params = _attn_params(4, 5, 10)
    out = cross_attention(Tensor(q), Tensor(cond), heads=1,
                          params=params).data

    wq, wk, wv, wo = (params[k].data for k in ("wq", "wk", "wv", "wo"))
    want = np.empty((1, 3, 4))
    for i in range(3):
        qi = q[0, i] @ wq
        logits = []
        for j in range(2):
            kj = cond[0, j] @ wk
            logits.append(float(qi @ kj) / np.sqrt(4.0))
        e = np.exp(logits - max(logits))
        w = e / e.sum()
        ctx = sum(w[j] * (cond[0, j] @ wv) for j in range(2))
        want[0, i] = q[0, i] + ctx @ wo
    assert np.allclose(out, want, atol=1e-6)


def test_attention_rejects_bad_heads():
    q = Tensor(np.zeros((1, 2, 6)))
    cond = Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(ValueError):
        cross_attention(q, cond, heads=4, params=_attn_params(6, 4, 0))


def test_attention_gradients():
    def build(t):
        params = {k: t[k] for k in ("wq", "wk", "wv", "wo")}
        out = cross_attention(t["q"], t["cond"], heads=2, params=params)
        return ad.sum_(ad.mul(out, out))

    rng = np.random.default_rng(11)
    fd_check(build, {
        "q": rng.standard_normal((2, 3, 4)),
        "cond": rng.standard_normal((2, 2, 6)),
        "wq": rng.standard_normal((4, 4)) * 0.5,
        "wk": rng.standard_normal((6, 4)) * 0.5,
        "wv": rng.standard_normal((6, 4)) * 0.5,
        "wo": rng.standard_normal((4, 4)) * 0.5,
    }, n_coords=6, tol=5e-6)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_groupnorm_handles_non_divisible_request():
    gn = GroupNorm(channels=12)   # 8 groups do not divide 12: falls back to 6
    assert gn.groups == 6
    x = Tensor(np.random.default_rng(12).standard_normal((2, 12, 4, 4)))
    assert gn(x).data.shape == (2, 12, 4, 4)


def test_resblock_shapes_and_skip():
    rng = np.random.default_rng(13)
    blk = as_float64(ResBlock(c_in=4, c_out=8, temb_dim=6, rng=rng))
    x = Tensor(rng.standard_normal((2, 4, 8, 8)))
    temb = Tensor(rng.standard_normal((2, 6)))
    out = blk(x, temb)
    assert out.data.shape == (2, 8, 8, 8)
    same = ResBlock(c_in=8, c_out=8, temb_dim=6, rng=rng)
    assert same.skip is None


def test_cross_attention_block_roundtrip_shape():
    rng = np.random.default_rng(14)
    blk = as_float64(CrossAttentionBlock(channels=8, cond_token_dim=4,
                                         heads=2, rng=rng))
    x = Tensor(rng.standard_normal((2, 8, 4, 4)))
    cond = Tensor(rng.standard_normal((2, 3, 4)))
    assert blk(x, cond).data.shape == (2, 8, 4, 4)
