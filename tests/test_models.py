import numpy as np
import pytest

from oatdar import autodiff as ad
from oatdar.autodiff import Tensor
from oatdar.errors import ConfigError, ShapeError
from oatdar.layers import Module
from conftest import as_float64
from oatdar.models import (CIPAutoencoder, CIPEncoder, ConditionalDenoiser,
                           DenoiserConfig, FDUNet, FDUNetConfig, cip_encode,
                           denoise_predict, fd_unet_forward, time_embed)

TINY_DENOISER = DenoiserConfig(scales=(8, 16), resblocks_per_scale=1,
                               cond_dim=16, cond_tokens=4, time_embed_dim=8)
TINY_FDUNET = FDUNetConfig(scales=(4, 8), growth=4, layers_per_block=2)


def model_grad_check(model, build_loss, n_coords=20, h=1e-4, tol=1e-3,
                     seed=0):
    """Analytic gradient vs central finite differences on randomly sampled
    parameter coordinates (float64 models only).

    ReLU and max-pool make the models only piecewise smooth, and a ±h probe
    of one parameter can move a pre-activation across zero or change a pool
    argmax; the central difference then averages two linear pieces. So each
    coordinate first forms both one-sided quotients ``fr = (L(θ+h) - L(θ))/h``
    and ``fl = (L(θ) - L(θ-h))/h``. If ``|fr - fl| > tol * max(|fr|, |fl|,
    1e-6)`` the probe straddles a kink: the coordinate is rejected, does not
    count toward ``n_coords``, and another is drawn. Every accepted coordinate
    must match the central difference ``(fr + fl)/2`` within ``tol``; there
    the one-sided quotients agree within ``tol``, so a wrong analytic
    gradient still fails. More than ``n_coords`` rejections before
    ``n_coords`` acceptances fail the check, so it cannot pass by rejecting
    everything."""
    params = model.parameters()
    for t in params.values():
        t.grad = None
    loss = build_loss()
    loss.backward()
    l0 = float(loss.data)
    grads = {k: (t.grad.copy() if t.grad is not None else
                 np.zeros_like(t.data)) for k, t in params.items()}
    rng = np.random.default_rng(seed)
    names = sorted(params)
    checked = 0
    kinks = []
    while checked < n_coords:
        name = names[int(rng.integers(len(names)))]
        t = params[name]
        idx = int(rng.integers(t.data.size))
        orig = t.data.ravel()[idx]
        t.data.ravel()[idx] = orig + h
        lp = float(build_loss().data)
        t.data.ravel()[idx] = orig - h
        lm = float(build_loss().data)
        t.data.ravel()[idx] = orig
        fr = (lp - l0) / h
        fl = (l0 - lm) / h
        if abs(fr - fl) > tol * max(abs(fr), abs(fl), 1e-6):
            kinks.append(f"{name}[{idx}]: fl={fl} fr={fr}")
            assert len(kinks) <= n_coords, (
                f"{len(kinks)} coordinates rejected as kinks with only "
                f"{checked} accepted: " + "; ".join(kinks))
            continue
        fd = (fr + fl) / 2.0
        ana = grads[name].ravel()[idx]
        rel = abs(ana - fd) / max(abs(ana), abs(fd), 1e-6)
        assert rel <= tol, f"{name}[{idx}]: ana={ana} fd={fd} rel={rel}"
        checked += 1


def test_grad_check_rejects_only_so_many_kinks():
    class AtKink(Module):
        def __init__(self):
            super().__init__()
            self.p = self.register("p", np.zeros(8))

    model = AtKink()
    with pytest.raises(AssertionError, match="rejected as kinks"):
        model_grad_check(model, lambda: ad.sum_(ad.relu(model.p)))


# ---------------------------------------------------------------------------
# time embedding
# ---------------------------------------------------------------------------


def test_time_embed_zero():
    e = time_embed(0, 16)
    assert np.array_equal(e[:8], np.zeros(8))
    assert np.array_equal(e[8:], np.ones(8))


def test_time_embed_bounded_and_shaped():
    for t in (1, 57, 999):
        e = time_embed(t, 64)
        assert e.shape == (64,)
        assert np.all(np.abs(e) <= 1.0)
    batch = time_embed(np.arange(5), 64)
    assert batch.shape == (5, 64)


def test_time_embed_distinct_over_thousand_steps():
    emb = time_embed(np.arange(1, 1001), 64)
    # min pairwise distance strictly positive
    d2 = np.sum((emb[None] - emb[:, None]) ** 2, axis=-1)
    d2 += np.eye(1000) * 1e9
    assert d2.min() > 0


def test_time_embed_validation():
    for dim in (7, 0):
        with pytest.raises(ConfigError, match="time_embed_dim"):
            DenoiserConfig(scales=(8, 16), cond_dim=16, cond_tokens=4,
                           time_embed_dim=dim)
    with pytest.raises(ValueError):
        time_embed(-1, 8)


# ---------------------------------------------------------------------------
# conditioning encoder
# ---------------------------------------------------------------------------


def test_cip_paper_scale_dims():
    enc = CIPEncoder((4096, 3072, 2048, 1024), np.random.default_rng(0))
    out = cip_encode(enc, np.random.default_rng(1).random((1, 4096)))
    assert out.shape == (1, 1024)


def test_cip_desk_scale_dims():
    enc = CIPEncoder((256, 192, 128, 64), np.random.default_rng(0))
    out = cip_encode(enc, np.zeros((3, 256)))
    assert out.shape == (3, 64)


def test_cip_zero_weights_zero_output():
    enc = CIPEncoder((16, 8, 4), np.random.default_rng(0))
    for _, t in enc.named_parameters():
        t.data[...] = 0.0
    out = cip_encode(enc, np.random.default_rng(2).random((2, 16)))
    assert not np.any(out)


def test_cip_rejects_nonmonotone_dims():
    with pytest.raises(ConfigError):
        CIPEncoder((16, 16, 8), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        CIPEncoder((16,), np.random.default_rng(0))


def test_cip_rejects_wrong_patch_length():
    enc = CIPEncoder((16, 8, 4), np.random.default_rng(0))
    with pytest.raises(ValueError):
        cip_encode(enc, np.zeros((1, 17)))


def test_cip_autoencoder_gradients():
    ae = as_float64(CIPAutoencoder((36, 24, 12)))
    rng = np.random.default_rng(4)
    x = rng.random((4, 36))

    def loss():
        rec = ae(Tensor(x))
        d = ad.sub(rec, Tensor(x))
        return ad.mean_(ad.mul(d, d))

    model_grad_check(ae, loss, n_coords=20)


# ---------------------------------------------------------------------------
# conditional denoiser
# ---------------------------------------------------------------------------


def test_denoiser_output_shape_and_determinism():
    model = ConditionalDenoiser(TINY_DENOISER)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 8, 8)).astype(np.float32)
    cond = rng.standard_normal((3, 16)).astype(np.float32)
    a = denoise_predict(model, x, cond, 7)
    b = denoise_predict(model, x, cond, 7)
    assert a.shape == (3, 8, 8)
    assert np.array_equal(a, b)
    # one step for the batch is the network at that step for every item
    ref = model(Tensor(x[:, None]), Tensor(cond), np.full(3, 7)).data[:, 0]
    assert np.array_equal(a, ref)


def test_entry_points_take_batches_only():
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError):
        denoise_predict(ConditionalDenoiser(TINY_DENOISER),
                        rng.standard_normal((8, 8)), rng.standard_normal(16),
                        5)
    with pytest.raises(ShapeError):
        fd_unet_forward(FDUNet(TINY_FDUNET), rng.random((16, 16)))
    with pytest.raises(ValueError):
        cip_encode(CIPEncoder((16, 8, 4), rng), rng.random(16))


def test_denoiser_conditioning_sensitivity():
    model = ConditionalDenoiser(TINY_DENOISER)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 8, 8)).astype(np.float32)
    c1 = rng.standard_normal((1, 16)).astype(np.float32)
    c2 = c1 + rng.standard_normal((1, 16)).astype(np.float32)
    a = denoise_predict(model, x, c1, 3)
    b = denoise_predict(model, x, c2, 3)
    assert np.linalg.norm(a - b) > 0


def test_denoiser_time_sensitivity_shared_params():
    model = ConditionalDenoiser(TINY_DENOISER)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 8, 8)).astype(np.float32)
    c = rng.standard_normal((1, 16)).astype(np.float32)
    before = {k: t.data.copy() for k, t in model.parameters().items()}
    a = denoise_predict(model, x, c, 1)
    b = denoise_predict(model, x, c, 16)
    # the step index changes the output through the embedding alone
    assert np.linalg.norm(a - b) > 0
    for k, t in model.parameters().items():
        assert np.array_equal(before[k], t.data)


def test_denoiser_rejects_bad_cond_dim():
    model = ConditionalDenoiser(TINY_DENOISER)
    with pytest.raises(ValueError):
        denoise_predict(model, np.zeros((1, 8, 8)), np.zeros((1, 7)), 1)


def test_denoiser_config_validation():
    with pytest.raises(ConfigError):   # 6 is not divisible by 4 heads
        DenoiserConfig(scales=(6, 12), cond_dim=16, cond_tokens=4)
    with pytest.raises(ConfigError):
        DenoiserConfig(scales=(8, 16), cond_dim=15, cond_tokens=4)


def test_denoiser_gradients():
    model = as_float64(ConditionalDenoiser(TINY_DENOISER))
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 1, 8, 8))
    cond = rng.standard_normal((2, 16))
    eps = rng.standard_normal((2, 1, 8, 8))
    t = np.array([3, 11])

    def loss():
        pred = model(Tensor(x), Tensor(cond), t)
        d = ad.sub(pred, Tensor(eps))
        return ad.mean_(ad.mul(d, d))

    model_grad_check(model, loss, n_coords=20)


# ---------------------------------------------------------------------------
# enhancement net
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [32, 16])
def test_fdunet_preserves_shape(size):
    model = FDUNet(TINY_FDUNET)
    rng = np.random.default_rng(10)
    img = rng.random((1, size, size)).astype(np.float32)
    out = fd_unet_forward(model, img)
    assert out.shape == (1, size, size)
    assert np.all(np.isfinite(out))


def test_fdunet_deterministic_inference():
    model = FDUNet(TINY_FDUNET)
    rng = np.random.default_rng(11)
    batch = rng.random((3, 16, 16)).astype(np.float32)
    a = fd_unet_forward(model, batch)
    b = fd_unet_forward(model, batch)
    assert np.array_equal(a, b)


def _fdunet_loss():
    model = as_float64(FDUNet(TINY_FDUNET))
    rng = np.random.default_rng(12)
    x = rng.random((2, 1, 16, 16))
    y = rng.random((2, 1, 16, 16))

    def loss():
        pred = model(Tensor(x))
        d = ad.sub(pred, Tensor(y))
        return ad.mean_(ad.mul(d, d))

    return model, loss


def test_fdunet_gradients():
    model_grad_check(*_fdunet_loss(), n_coords=20)


# ---------------------------------------------------------------------------
# float32 end to end
# ---------------------------------------------------------------------------


def test_entry_points_return_float32():
    # float64 inputs: each entry point casts them to the parameter dtype
    rng = np.random.default_rng(13)
    assert fd_unet_forward(FDUNet(TINY_FDUNET),
                           rng.random((2, 16, 16))).dtype == np.float32
    assert denoise_predict(ConditionalDenoiser(TINY_DENOISER),
                           rng.standard_normal((2, 8, 8)),
                           rng.standard_normal((2, 16)), 4).dtype == np.float32
    assert cip_encode(CIPEncoder((16, 8, 4), rng),
                      rng.random((2, 16))).dtype == np.float32


def _fdunet_train_loss(rng):
    model = FDUNet(TINY_FDUNET)
    x = rng.random((2, 1, 16, 16), dtype=np.float32)
    return model, model(Tensor(x)), rng.random(x.shape, dtype=np.float32)


def _cip_train_loss(rng):
    model = CIPAutoencoder((16, 8, 4))
    x = rng.random((3, 16), dtype=np.float32)
    return model, model(Tensor(x)), x


def _denoiser_train_loss(rng):
    model = ConditionalDenoiser(TINY_DENOISER)
    x = rng.standard_normal((2, 1, 8, 8), dtype=np.float32)
    cond = rng.standard_normal((2, 16), dtype=np.float32)
    eps = rng.standard_normal(x.shape, dtype=np.float32)
    return model, model(Tensor(x), Tensor(cond), np.array([2, 9])), eps


@pytest.mark.parametrize("build", [_fdunet_train_loss, _cip_train_loss,
                                   _denoiser_train_loss])
def test_training_step_stays_float32(build):
    model, pred, target = build(np.random.default_rng(14))
    d = ad.sub(pred, Tensor(target))
    loss = ad.mean_(ad.mul(d, d))
    assert loss.dtype == np.float32
    loss.backward()
    grads = {k: t.grad for k, t in model.parameters().items()}
    assert grads and {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


# What a deliberately wrong backward pass adds to each op's true gradient.
WRONG_EXTRA_GRAD = {
    "relu": lambda a: ad.mul(a, Tensor(np.where(a.data > 0, 0.0, 0.01))),
    "max_pool2": lambda x: ad.mul(ad.avg_pool2(x), 0.25),
}


@pytest.mark.parametrize("op", sorted(WRONG_EXTRA_GRAD))
def test_grad_check_catches_wrong_backward(monkeypatch, op):
    true_op, extra = getattr(ad, op), WRONG_EXTRA_GRAD[op]

    def wrong(x):
        # extra - extra is exactly zero, so only the backward pass changes
        x = ad.as_tensor(x)
        e = extra(x)
        return ad.add(true_op(x), ad.sub(e, Tensor(e.data)))

    monkeypatch.setattr(ad, op, wrong)
    # an accepted coordinate must fail the comparison, not the rejection cap
    with pytest.raises(AssertionError, match=r"ana=.* fd=.* rel="):
        model_grad_check(*_fdunet_loss(), n_coords=20)
