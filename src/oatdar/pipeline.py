"""End-to-end reconstruction paths and the full-evaluation driver.

``METHODS`` names every reconstruction. ``oatdar reconstruct``, ``oatdar
eval`` and ``run-all`` run them in one order: :func:`check_methods` refuses
a bad method, DAR step count or eta and returns the ``(method, nis)``
variants to run; :func:`load_method_models` loads and freezes the models
each method needs, if trained under the run's models and, in ``eval``, on
its dataset; the reconstruction operator is built; and :func:`reconstruct`
runs each variant. Every reconstruction is reported min-max scaled to
[0, 1] by :func:`grayio.normalize01`.

:func:`evaluate_methods` is one loop: for each entry of a split it reads the
phantom once and builds the entry's ``(snr_db, sinogram)`` cases (the stored
sinogram, or the clean simulation re-noised at each SNR of a sweep), then
scores every variant on every case. Its report's summary groups by variant
and, for a sweep, by SNR (:class:`metrics.MetricReport`).

The enhancement-assisted pipeline (DAR): take the initial reconstruction it
conditions on (``DAR_INITIAL``: the LBP, or the enhancer's refinement of
it), split it into patches, encode each patch into its conditioning vector,
sample each patch with the reduced-step reverse process (per-patch noise
streams derived from (image seed, patch index)), reassemble, and min-max
normalize to [0, 1].
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import config_hash, geometry_from_config
from .dataset import (DatasetManifest, derive_seed, entry_file,
                      reading_dataset)
from .diffusion import (check_eta, make_inference_timesteps, sample_batch,
                        scale_from_model, schedule_from_config)
from .errors import ConfigError, NumericalError, PrerequisiteError
from .geometry import (Image, ImagingGeometry, Sinogram, check_image,
                       check_sinogram)
from .grayio import normalize01, write_pgm
from .metrics import MetricRecord, MetricReport, psnr, ssim
from .models import cip_encode, denoise_predict, fd_unet_forward
from .operator import (add_noise, apply_forward, build_forward_operator,
                       check_snr, reconstruct_lbp, tikhonov_solve)
from .patches import PatchGrid, merge_patches, split_patches
from .tensorfile import read_tensor, write_tensor
from .training import CONDITIONS, load_model, stage_data_sha256

log = logging.getLogger(__name__)

# each DAR variant -> the initial reconstruction it conditions on
DAR_INITIAL = dict(zip(("dar", "dar_lbp"), CONDITIONS))
METHODS = ("lbp", "tikhonov", "fdunet", *DAR_INITIAL)
# eval's default: what a run directory with only the enhancer chain scores
DEFAULT_EVAL_METHODS = ("lbp", "fdunet", "dar")


@dataclass
class ModelBundle:
    """The trained blocks a reconstruction variant needs, frozen, plus the
    denoiser's schedule and patch size ``(h, w)``."""

    fdunet: object = None
    denoiser: object = None
    encoder: object = None
    schedule: object = None
    patch: tuple | None = None


def load_models(run_dir, condition_on: str, cfg: dict | None = None,
                data_sha256=None) -> ModelBundle:
    """The frozen models of DAR conditioned on ``condition_on``: the denoiser
    with its encoder, plus the enhancer when DAR conditions on it. Given
    the dataset's ``data_sha256``, the denoiser must have trained on
    :func:`training.stage_data_sha256`."""
    fdunet = (load_model(run_dir, "fdunet", cfg, data_sha256)[0].freeze()
              if condition_on == "fdunet" else None)
    joint, stored = load_model(
        run_dir, f"denoiser_{condition_on}", cfg,
        data_sha256 and stage_data_sha256(run_dir, data_sha256, condition_on))
    joint.freeze()
    return ModelBundle(fdunet=fdunet, denoiser=joint.den, encoder=joint.cip,
                       schedule=schedule_from_config(stored),
                       patch=(stored["patch"]["h"], stored["patch"]["w"]))


def _listed_once(what: str, values: list):
    if len(set(values)) < len(values):
        raise ConfigError(f"each {what} may be listed once, got {values}")


def check_methods(cfg: dict, methods, nis_list=()) -> list[tuple[str, int]]:
    """The ``(method, nis)`` variants to run, in ``methods`` order: each DAR
    method once per step count of ``nis_list`` (default: the config's),
    every other method once with nis 0. Raises :class:`ConfigError` on an
    empty list, an unknown or repeated method, a repeated step count and,
    when a DAR method is listed, a step count outside the config's schedule
    or a bad config eta, before anything is read."""
    methods, nis_list = list(methods), list(nis_list)
    if not methods:
        raise ConfigError("no method to evaluate")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; "
                              f"choose from {', '.join(METHODS)}")
    _listed_once("method", methods)
    _listed_once("nis", nis_list)
    if not any(m in DAR_INITIAL for m in methods):
        return [(m, 0) for m in methods]
    inf = cfg["inference"]
    dar_steps = nis_list or [inf["nis"]]
    for nis in dar_steps:
        make_inference_timesteps(cfg["schedule"]["T"], nis)
    check_eta(inf["eta"])
    return [(m, nis) for m in methods
            for nis in (dar_steps if m in DAR_INITIAL else [0])]


def load_method_models(cfg: dict, run_dir, method: str,
                       data_sha256=None) -> ModelBundle | None:
    """The checkpoints ``method`` (checked by :func:`check_methods`) needs,
    trained under ``cfg`` (and on ``data_sha256``); None for lbp, tikhonov."""
    if method == "fdunet":
        model, _ = load_model(run_dir, "fdunet", cfg, data_sha256)
        return ModelBundle(fdunet=model.freeze())
    if method not in DAR_INITIAL:
        return None
    return load_models(run_dir, DAR_INITIAL[method], cfg, data_sha256)


# ---------------------------------------------------------------------------
# single-method reconstructions (all return images min-max scaled to [0, 1])
# ---------------------------------------------------------------------------


def reconstruct_tikhonov(rec_op, sino: Sinogram, lam: float, max_iters: int,
                         tol: float) -> Image:
    res = tikhonov_solve(rec_op, sino, lam, max_iters=max_iters, tol=tol)
    if not res.converged:
        log.warning("Tikhonov CG %s after %d iterations: relative residual "
                    "%.3e, tol %g", "diverged" if res.diverged else
                    "stopped unconverged", res.iterations, res.residual, tol)
    return Image(normalize01(res.image.data))


def reconstruct_fdunet(rec_op, fdunet, sino: Sinogram) -> Image:
    lbp = reconstruct_lbp(rec_op, sino).data
    (enhanced,) = fd_unet_forward(fdunet, lbp[None])
    return Image(normalize01(enhanced.astype(np.float64)))


def reconstruct_dar(sino: Sinogram, models: ModelBundle,
                    geometry: ImagingGeometry, nis: int, eta: float,
                    seed: int, condition_on: str, *, rec_op) -> Image:
    """Full enhancement pipeline for one sinogram on ``geometry``'s grid;
    deterministic given ``seed`` (per-patch streams derive from (seed, patch
    index))."""
    if condition_on not in CONDITIONS:
        raise ValueError(f"condition_on must be one of {CONDITIONS}")
    init = (reconstruct_lbp(rec_op, sino) if condition_on == "lbp"
            else reconstruct_fdunet(rec_op, models.fdunet, sino)).data
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
                models: ModelBundle | None, nis: int, seed: int) -> Image:
    """Reconstruct ``sino`` with a method :func:`check_methods` passed;
    ``models`` comes from :func:`load_method_models`, and ``nis``, ``seed``
    and the config's eta drive DAR.

    :func:`evaluate_methods` seeds dataset entry *i* with
    ``derive_seed(inference.seed, i)``, while ``oatdar reconstruct`` passes
    ``inference.seed`` itself; so ``oatdar reconstruct`` with ``--set
    inference.seed=<derive_seed(inference.seed, i)>`` on entry *i*'s stored
    sinogram reproduces the DAR image ``eval`` scored for it."""
    if method == "lbp":
        return reconstruct_lbp(rec_op, sino)
    if method == "fdunet":
        return reconstruct_fdunet(rec_op, models.fdunet, sino)
    if method == "tikhonov":
        ev = cfg["eval"]
        return reconstruct_tikhonov(rec_op, sino, ev["tikhonov_lambda"],
                                    ev["tikhonov_iters"], ev["tikhonov_tol"])
    return reconstruct_dar(sino, models, rec_op.geometry, nis,
                           cfg["inference"]["eta"], seed, DAR_INITIAL[method],
                           rec_op=rec_op)


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
    """Score every ``(method, nis)`` variant of :func:`check_methods` on
    every case of every entry of a split.

    An entry's cases are its stored sinogram at its stored SNR or, when
    ``snr_list`` is given, the clean jittered simulation of its phantom
    re-noised at each requested SNR (seeds derived from the dataset master
    seed). A bad method, step count or SNR raises :class:`ConfigError`
    before any work.
    """
    methods = list(methods)
    variants = check_methods(cfg, methods, nis_list)
    for snr in snr_list or ():
        check_snr(snr)
    _listed_once("SNR", list(snr_list or ()))
    data_dir = Path(run_dir) / "dataset"
    models = {m: load_method_models(cfg, run_dir, m, manifest.data_sha256)
              for m in methods if m != "fdunet" or "dar" not in methods}
    if "dar" in methods:  # its bundle holds the enhancer: fdunet shares it
        models["fdunet"] = models["dar"]
    entries = manifest.split(split)
    if not entries:
        raise PrerequisiteError(f"no entries in split {split!r}")
    geometry = geometry_from_config(cfg)
    rec_op = build_forward_operator(geometry, jittered=False)
    if snr_list is not None:
        sim_op = build_forward_operator(geometry, jittered=True)

    records = []
    for entry in entries:
        with reading_dataset():
            gt = check_image(geometry, Image(read_tensor(
                entry_file(data_dir, "phantom", entry.index)))).data
            if snr_list is None:
                cases = [(entry.snr_db, check_sinogram(geometry, Sinogram(
                    read_tensor(entry_file(data_dir, "sinogram",
                                           entry.index)))))]
        if snr_list is not None:
            clean = apply_forward(sim_op, Image(gt))
            cases = [(float(snr), clean if snr == np.inf else add_noise(
                clean, snr, derive_seed(manifest.master_seed, entry.index, 3,
                                        int(round(snr * 1000)))))
                     for snr in snr_list]
        image_seed = derive_seed(cfg["inference"]["seed"], entry.index)
        for snr_db, sino in cases:
            for m, nis in variants:
                t0 = time.perf_counter()
                rec = reconstruct(m, cfg, rec_op, sino, models[m], nis,
                                  image_seed).data
                wall_time = time.perf_counter() - t0
                records.append(MetricRecord(
                    entry.index, m, nis, snr_db, psnr(rec, gt), ssim(rec, gt),
                    wall_time))
    return MetricReport(records=records, config_hash=config_hash(cfg),
                        by_snr=snr_list is not None)


def simulate_sinogram(cfg: dict, phantom: Image, snr_db: float,
                      seed: int) -> Sinogram:
    check_snr(snr_db)
    geometry = geometry_from_config(cfg)
    sim_op = build_forward_operator(geometry, jittered=True)
    return add_noise(apply_forward(sim_op, phantom), snr_db, seed)
