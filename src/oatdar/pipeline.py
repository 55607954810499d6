"""End-to-end reconstruction paths and the full-evaluation driver.

``METHODS`` names every reconstruction; the CLI and :func:`evaluate_methods`
reach them all through :func:`load_method_models` and :func:`reconstruct`.
Every reconstruction is reported min-max scaled to [0, 1] by
:func:`grayio.normalize01`.

``INITIAL`` maps the name of an initial reconstruction (``lbp``, and the
enhancer's ``fdunet``, which refines the LBP) to its function; the methods
of the same names and DAR's conditioning input both come from it.

The enhancement-assisted pipeline (DAR): take the initial reconstruction it
conditions on (``DAR_INITIAL``), split it into patches, encode each patch
into its conditioning vector, sample each patch with the reduced-step
reverse process (per-patch noise streams derived from (image seed, patch
index)), reassemble, and min-max normalize to [0, 1].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import config_hash, geometry_from_config
from .dataset import DatasetManifest, derive_seed
from .diffusion import (check_eta, make_inference_timesteps, sample_batch,
                        scale_from_model)
from .errors import ConfigError, NumericalError, PrerequisiteError
from .geometry import Image, ImagingGeometry, Sinogram
from .grayio import normalize01, write_pgm
from .metrics import MetricRecord, MetricReport, Stopwatch, psnr, ssim
from .models import cip_encode, denoise_predict, fd_unet_forward
from .operator import (add_noise, apply_adjoint, apply_forward,
                       build_forward_operator, check_snr, tikhonov_solve)
from .patches import PatchGrid, merge_patches, split_patches
from .tensorfile import read_tensor, write_tensor
from .training import CONDITIONS, checkpoint, load_denoiser, load_fdunet

log = logging.getLogger(__name__)

# each DAR variant -> the initial reconstruction it conditions on
DAR_INITIAL = dict(zip(("dar", "dar_lbp"), CONDITIONS))
METHODS = ("lbp", "tikhonov", "fdunet", *DAR_INITIAL)


@dataclass
class ModelBundle:
    """The trainable blocks a reconstruction variant needs, plus schedule;
    the fields after ``fdunet`` are in :func:`load_denoiser`'s return order."""

    fdunet: object = None
    denoiser: object = None
    encoder: object = None
    schedule: object = None
    patch: tuple | None = None


def load_models(run_dir, condition_on: str = "fdunet") -> ModelBundle:
    """The checkpoints of DAR conditioned on ``condition_on``: the denoiser
    with its encoder, plus the enhancer when DAR conditions on it."""
    return ModelBundle(
        load_fdunet(checkpoint(run_dir, "fdunet"))
        if condition_on == "fdunet" else None,
        *load_denoiser(checkpoint(run_dir, f"denoiser_{condition_on}")))


def check_method(method: str):
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; "
                          f"choose from {', '.join(METHODS)}")


def load_method_models(run_dir, method: str) -> ModelBundle | None:
    """The checkpoints ``method`` needs (``None`` for lbp and tikhonov)."""
    check_method(method)
    if method in DAR_INITIAL:
        return load_models(run_dir, DAR_INITIAL[method])
    if method == "fdunet":
        return ModelBundle(fdunet=load_fdunet(checkpoint(run_dir, "fdunet")))
    return None


# ---------------------------------------------------------------------------
# single-method reconstructions (all return images min-max scaled to [0, 1])
# ---------------------------------------------------------------------------


def reconstruct_lbp(rec_op, sino: Sinogram) -> Image:
    return Image(normalize01(apply_adjoint(rec_op, sino).data))


def reconstruct_tikhonov(rec_op, sino: Sinogram, lam: float, max_iters: int,
                         tol: float) -> Image:
    res = tikhonov_solve(rec_op, sino, lam, max_iters=max_iters, tol=tol)
    return Image(normalize01(res.image.data))


def reconstruct_fdunet(rec_op, fdunet, sino: Sinogram) -> Image:
    lbp = reconstruct_lbp(rec_op, sino).data
    (enhanced,) = fd_unet_forward(fdunet, lbp[None])
    return Image(normalize01(enhanced.astype(np.float64)))


# initial reconstruction name -> (rec_op, sino, models) -> Image
INITIAL = {
    "lbp": lambda rec_op, sino, models: reconstruct_lbp(rec_op, sino),
    "fdunet": lambda rec_op, sino, models: reconstruct_fdunet(
        rec_op, models.fdunet, sino),
}


def reconstruct_dar(sino: Sinogram, models: ModelBundle,
                    geometry: ImagingGeometry, nis: int, eta: float,
                    seed: int, condition_on: str = "fdunet", *,
                    rec_op) -> Image:
    """Full enhancement pipeline for one sinogram on ``geometry``'s grid;
    deterministic given ``seed`` (per-patch streams derive from (seed, patch
    index))."""
    if condition_on not in CONDITIONS:
        raise ValueError(f"condition_on must be one of {CONDITIONS}")
    init = INITIAL[condition_on](rec_op, sino, models).data
    ph, pw = models.patch
    grid = PatchGrid.for_image(geometry.image_shape, ph, pw)
    conds = cip_encode(models.encoder,
                       split_patches(init, grid).reshape(grid.n_patches, -1))
    seeds = [derive_seed(int(seed), b) for b in range(grid.n_patches)]

    def denoiser_fn(x_batch, cond_batch, t):
        return denoise_predict(models.denoiser, x_batch, cond_batch,
                               t).astype(np.float64)

    out = sample_batch(denoiser_fn, conds, (ph, pw), models.schedule,
                       nis=nis, eta=eta, seeds=seeds)
    merged = merge_patches(scale_from_model(out), grid)
    return Image(normalize01(merged))


def reconstruct(method: str, cfg: dict, rec_op, sino: Sinogram,
                models: ModelBundle | None, nis: int, eta: float,
                seed: int) -> Image:
    """Reconstruct ``sino`` with one of ``METHODS``; ``models`` comes from
    :func:`load_method_models`, and ``nis``/``eta``/``seed`` drive DAR."""
    if method in INITIAL:
        return INITIAL[method](rec_op, sino, models)
    if method == "tikhonov":
        ev = cfg["eval"]
        return reconstruct_tikhonov(rec_op, sino, ev["tikhonov_lambda"],
                                    ev["tikhonov_iters"], ev["tikhonov_tol"])
    check_method(method)
    return reconstruct_dar(sino, models, rec_op.geometry, nis=nis, eta=eta,
                           seed=seed, condition_on=DAR_INITIAL[method],
                           rec_op=rec_op)


def check_dar_steps(cfg: dict, nis_list, eta: float):
    """Refuse each DAR step count in ``nis_list`` and ``eta`` before a model
    loads or an operator builds; the ranges are those of
    :func:`make_inference_timesteps` (against ``cfg``'s schedule T) and
    :func:`check_eta`."""
    for nis in nis_list:
        make_inference_timesteps(cfg["schedule"]["T"], nis)
    check_eta(eta)


def export_image(img: Image, path) -> Path:
    """Write an image as a 16-bit graymap if ``path`` ends in ``.pgm``, and
    as lossless tensor data otherwise."""
    path = Path(path)
    if not np.all(np.isfinite(img.data)):
        raise NumericalError("refusing to export non-finite image")
    if path.suffix == ".pgm":
        return write_pgm(path, img.data)
    return write_tensor(path, img.data)


# ---------------------------------------------------------------------------
# evaluation driver
# ---------------------------------------------------------------------------


def evaluate_methods(cfg: dict, run_dir, manifest: DatasetManifest,
                     methods, nis_list=(), snr_list=None,
                     split: str = "test") -> MetricReport:
    """Reconstruct every image of a split with every method variant.

    ``methods`` is a non-empty iterable of names from ``METHODS``; the DAR
    methods expand over ``nis_list``. When ``snr_list`` is given
    the stored sinograms are replaced by fresh simulations renoised at each
    requested SNR (seeds derived from the dataset master seed). An unknown
    method, a bad SNR, a DAR step count outside the schedule or an entry
    listed twice raises :class:`ConfigError` before any work.
    """
    methods = list(methods)
    if not methods:
        raise ConfigError("no method to evaluate")
    for m in methods:
        check_method(m)
    for snr in snr_list or ():
        check_snr(snr)
    for what, values in (("method", methods), ("nis", list(nis_list)),
                         ("SNR", list(snr_list or ()))):
        if len(set(values)) < len(values):
            raise ConfigError(f"each {what} may be listed once, got {values}")
    inf = cfg["inference"]
    dar_steps = list(nis_list) or [inf["nis"]]
    if any(m in DAR_INITIAL for m in methods):
        check_dar_steps(cfg, dar_steps, inf["eta"])
    run_dir = Path(run_dir)
    data_dir = run_dir / "dataset"
    models = {m: load_method_models(run_dir, m) for m in methods}
    entries = manifest.split(split)
    if not entries:
        raise PrerequisiteError(f"no entries in split {split!r}")
    geometry = geometry_from_config(cfg)
    rec_op = build_forward_operator(geometry, jittered=False)

    sim_op = None
    if snr_list is not None:
        sim_op = build_forward_operator(geometry, jittered=True)

    master = manifest.master_seed
    records = []

    def run_variants(entry, sino, snr_db):
        gt = read_tensor(data_dir / entry.phantom)
        image_seed = derive_seed(inf["seed"], entry.index)
        for m in methods:
            for nis in dar_steps if m in DAR_INITIAL else [0]:
                with Stopwatch() as sw:
                    rec = reconstruct(m, cfg, rec_op, sino, models[m], nis,
                                      inf["eta"], image_seed)
                records.append(MetricRecord(
                    entry_index=entry.index, method=m, nis=nis,
                    snr_db=snr_db, psnr=psnr(rec.data, gt),
                    ssim=ssim(rec.data, gt), wall_time=sw.elapsed))

    for entry in entries:
        if snr_list is None:
            sino = Sinogram(read_tensor(data_dir / entry.sinogram))
            run_variants(entry, sino, entry.snr_db)
        else:
            phantom = Image(read_tensor(data_dir / entry.phantom))
            clean = apply_forward(sim_op, phantom)
            for snr in snr_list:
                sino = clean
                if snr != np.inf:
                    seed = derive_seed(master, entry.index, 3,
                                       int(round(snr * 1000)))
                    sino = add_noise(clean, snr, seed)
                run_variants(entry, sino, float(snr))
    return MetricReport(records=records, config_hash=config_hash(cfg))


def simulate_sinogram(cfg: dict, phantom: Image, snr_db: float,
                      seed: int) -> Sinogram:
    check_snr(snr_db)
    geometry = geometry_from_config(cfg)
    sim_op = build_forward_operator(geometry, jittered=True)
    return add_noise(apply_forward(sim_op, phantom), snr_db, seed)
