"""Optoacoustic tomography reconstruction toolkit: model-based forward
simulation, classical inversions, and diffusion-assisted enhancement."""

__version__ = "0.1.0"

from .geometry import ImagingGeometry, Image, Sinogram
from .operator import (ForwardOperator, add_noise, apply_adjoint,
                       apply_forward, build_forward_operator, tikhonov_solve)
from .phantoms import PhantomParams, generate_phantom
from .patches import PatchGrid, merge_patches, split_patches
from .diffusion import (NoiseSchedule, ddim_step, make_inference_timesteps,
                        make_linear_schedule, q_sample, sample_batch)
from .metrics import MetricReport, psnr, ssim
from .optim import OptimizerState, adam_update

__all__ = [
    "ImagingGeometry", "Image", "Sinogram", "ForwardOperator",
    "build_forward_operator", "apply_forward", "apply_adjoint", "add_noise",
    "tikhonov_solve", "PhantomParams", "generate_phantom",
    "PatchGrid", "split_patches", "merge_patches", "NoiseSchedule",
    "make_linear_schedule", "q_sample", "ddim_step",
    "make_inference_timesteps", "sample_batch",
    "MetricReport", "psnr", "ssim", "OptimizerState", "adam_update",
]
