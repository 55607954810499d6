"""Each trainable block learns: ``training.fit``, the epoch loop every trainer
shares, run for a few Adam steps on one fixed tiny batch, leaves each
block's loss on that batch at most half its trivial predictor's. The
gradient oracles check each op; only this checks that the loop, Adam and
the parameter sets the trainers hand it lower a loss."""

import numpy as np
import pytest

from oatdar import training
from oatdar.autodiff import Tensor
from oatdar.diffusion import make_linear_schedule, q_sample, scale_to_model
from oatdar.models import CIPAutoencoder, FDUNet, FDUNetConfig
from oatdar.patches import PatchGrid, split_patches
from oatdar.phantoms import PhantomParams, generate_phantom

LEARNING_RATE = 1e-3  # ten times the profiles' value: learns in few steps
MARGIN = 0.5          # final loss / trivial predictor's loss must not exceed
# Adam steps per block, about 1.4x the count at which each first passes
# MARGIN (11, 143 and 33 steps); the ratios end near 0.36, 0.36 and 0.37.
STEPS = {"fdunet": 15, "cip_lbp": 200, "denoiser_lbp": 45}


@pytest.fixture(scope="module")
def images():
    """Four 16x16 vessel phantoms, float32."""
    return np.stack([generate_phantom(PhantomParams(seed=s), 16, 16).data
                     for s in range(4)]).astype(np.float32)


@pytest.fixture(scope="module")
def patches(images):
    """Their sixteen 8x8 patches, flattened: (16, 64)."""
    grid = PatchGrid.for_image(images.shape[1:], 8, 8)
    return split_patches(images, grid).reshape(-1, 64).astype(np.float32)


def _final_loss(tmp_path, stage, params, loss):
    """``loss()`` of the fixed batch after ``STEPS[stage]`` Adam steps on it:
    one epoch of that many one-item batches, each of which is the batch."""
    cfg = {"training": {"learning_rate": LEARNING_RATE, "epochs": 1,
                        "batch_size": 1},
           "dataset": {"master_seed": 0}}
    training.fit(cfg, tmp_path, stage, params, STEPS[stage],
                 lambda idx, rng: loss(), "fixed batch")
    return float(loss().data)


def test_fdunet_learns_past_zeros(tmp_path, images):
    y = images[:, None]
    # a blurred, noisy copy of each phantom stands in for its LBP
    blur = (y + np.roll(y, 1, 2) + np.roll(y, -1, 2)
            + np.roll(y, 1, 3) + np.roll(y, -1, 3)) / 5
    x = (blur + 0.1 * np.random.default_rng(0).standard_normal(y.shape)) \
        .astype(np.float32)
    model = FDUNet(FDUNetConfig(scales=(12, 24, 48), growth=10,
                                layers_per_block=3))   # the desk enhancer
    final = _final_loss(
        tmp_path, "fdunet", model.parameters(),
        lambda: training._mse(model(Tensor(x)), Tensor(y)))
    assert final <= MARGIN * np.mean(y * y)


def test_cip_learns_past_the_mean_patch(tmp_path, patches):
    ae = CIPAutoencoder([64, 32, 16])
    final = _final_loss(
        tmp_path, "cip_lbp", ae.parameters(),
        lambda: training._mse(ae(Tensor(patches)), Tensor(patches)))
    assert final <= MARGIN * np.mean((patches - patches.mean(axis=0)) ** 2)


def test_denoiser_learns_past_zero_noise(tmp_path, patches):
    n = len(patches)
    # the stage's model: the denoiser and the encoder it tunes, whose widths
    # narrow the 8x8 patch to cond_dim
    joint = training.build_model({"patch": {"h": 8, "w": 8}, "denoiser": {
        "scales": [8, 16], "resblocks_per_scale": 1, "cond_dim": 16,
        "cond_tokens": 2, "time_embed_dim": 16}}, "denoiser_lbp")
    sched = make_linear_schedule(20, 1e-4, 0.02)
    # the batch is fixed: each patch keeps one step and one noise draw
    t = 1 + np.arange(n) % sched.T
    eps = np.random.default_rng(1).standard_normal((n, 1, 8, 8)) \
        .astype(np.float32)
    xt = q_sample(scale_to_model(patches.reshape(n, 1, 8, 8)), t, eps, sched)
    cond = Tensor(patches)
    final = _final_loss(
        tmp_path, "denoiser_lbp", joint.parameters(),
        lambda: training._mse(joint.den(Tensor(xt), joint.cip(cond), t),
                              Tensor(eps)))
    assert final <= MARGIN * np.mean(eps * eps)   # predicting eps = 0
