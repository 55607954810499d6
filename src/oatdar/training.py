"""Training for the three trainable blocks through one resumable epoch loop.

A stage's one name is its checkpoint's stem (``fdunet``, ``cip_<cond>``,
``denoiser_<cond>``); it also names its rng stream, loss log and ``train``
command. Each trainer hands the model :func:`build_model` builds, its data
and a per-batch loss to :func:`fit`, which owns batching, Adam, the
non-finite-loss abort, per-epoch checkpoints and the loss log.
:func:`load_model` is the one loader of a trained stage (trainable; its
inference readers freeze it), and :func:`checkpoint` the one lookup of a
checkpoint a later stage reads.

A checkpoint's meta holds ``config``, the config its stage trained under,
the ``data_sha256`` of its training data (:func:`stage_data_sha256`) and
the resume state (``epoch``, ``losses``, ``opt_step``, ``rng_state``,
``aborted``); its model is built from ``config``. :func:`load_checkpoint`
is the one rule: a bad meta exits 2, and a config other than the run's in
``config.MODEL_SECTIONS`` (for a resume also ``training``, but epochs, and
``dataset``) or other data than the run's dataset exits 3.

All stochasticity in a stage (shuffles, timestep draws, corruption noise)
comes from a single generator whose state is checkpointed after every epoch
together with the parameters and Adam moments, so for every stage (enhancer,
conditioning autoencoder, denoiser) interrupt + resume reproduces the
uninterrupted run bit for bit, as long as both run at the same BLAS thread
count (``OPENBLAS_NUM_THREADS`` set before the process starts; GEMM sums
split differently across threads). Stage streams derive from the dataset
master seed.
"""

from __future__ import annotations

import hashlib
import logging
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import (MODEL_SECTIONS, checked_config, cip_widths,
                     geometry_from_config)
from .dataset import DatasetManifest, entry_file, load_images
from .diffusion import q_sample, scale_to_model, schedule_from_config
from .errors import ConfigError, NumericalError, PrerequisiteError, blame
from .geometry import Image, Sinogram, check_image
from .grayio import normalize01
from .layers import PARAM_DTYPE, Module, load_parameters
from .models import (CIPAutoencoder, ConditionalDenoiser, DenoiserConfig,
                     FDUNet, FDUNetConfig, fd_unet_forward)
from .operator import build_forward_operator, reconstruct_lbp
from .optim import OptimizerState, adam_update
from .patches import PatchGrid, split_patches
from .tensorfile import (bundle_file, check_replaceable, read_bundle,
                         write_bundle, write_tensor)

log = logging.getLogger(__name__)

# the initial reconstructions a conditioning encoder and denoiser train on
CONDITIONS = ("fdunet", "lbp")
_STAGE_IDS = {"fdunet": 11, "cip_fdunet": 12, "denoiser_fdunet": 13,
              "cip_lbp": 14, "denoiser_lbp": 15}
# a stage's block -> the ``train`` command's block argument
_TRAIN_BLOCKS = {"fdunet": "fdunet", "cip": "cip", "denoiser": "diffusion"}
# the form of the resume state fit saves with every checkpoint
_RESUME_FORM = {"epoch": 0, "losses": [], "opt_step": 0,
                "rng_state": np.random.default_rng(0).bit_generator.state}


def stage_rng(master_seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, 10_000 + _STAGE_IDS[stage])))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: dict, opt: OptimizerState, meta: dict,
                    rng: np.random.Generator):
    arrays = {f"p.{k}": np.asarray(v) for k, v in params.items()}
    arrays.update({f"o.{k}": v for k, v in opt.state_arrays().items()})
    meta = {**meta, "opt_step": opt.step, "rng_state": rng.bit_generator.state}
    with blame(path):
        write_bundle(path, arrays, meta)
    return Path(path)


def load_checkpoint(path, cfg: dict | None = None, data_sha256=None,
                    resume: bool = False):
    """(parameters, Adam arrays, meta) of the checkpoint of stage
    ``path.stem``, by the module's one rule: :class:`ConfigError` naming the
    command that rewrites it if it is corrupt or its config or resume state
    is bad, :class:`NumericalError` if its run aborted and, given the run's
    ``cfg`` (and ``data_sha256``), :class:`PrerequisiteError` naming the
    first difference and the command that retrains it."""
    stages = [Path(path).stem]
    with blame(path, f"; run '{_train_command(stages[0])}' to rewrite it"):
        arrays, meta = read_bundle(path)
        meta["config"] = checked_config(meta.get("config"), complete=True)
        if not _same_form(_RESUME_FORM, {k: meta.get(k)
                                         for k in _RESUME_FORM}):
            raise ConfigError("its meta holds no epoch, losses, opt_step "
                              "and PCG64 rng_state")
        rng = meta["rng_state"]
        if not (all(0 <= v < 2**128 for v in rng["state"].values())
                and 0 <= rng["uinteger"] < 2**32
                and rng["has_uint32"] in (0, 1)):
            raise ConfigError("its rng_state is out of PCG64's range")
    if meta.get("aborted"):
        raise NumericalError(f"{path} was saved by a run aborted on a "
                             "non-finite loss; retrain it without --resume")
    sections = MODEL_SECTIONS + (("training", "dataset") if resume else ())
    diffs = [] if cfg is None else [
        (f"{s}.{k}", meta["config"][s][k], v) for s in sections
        for k, v in cfg[s].items() if (s, k) != ("training", "epochs")]
    if data_sha256 is not None:
        diffs.append(("data_sha256", meta.get("data_sha256"), data_sha256))
    for where, saved, run in diffs:
        if saved != run:
            block, _, cond = stages[0].partition("_")
            if where == "data_sha256" and block == "denoiser":
                # the CIP it was tuned from trained on the same data
                stages.insert(0, f"cip_{cond}")
            commands = "' and then '".join(map(_train_command, stages))
            raise PrerequisiteError(
                f"{path} was trained with {where}={saved}, this run has "
                f"{where}={run}; run '{commands}' first")
    params = {k[2:]: v for k, v in arrays.items() if k.startswith("p.")}
    opt_arrays = {k[2:]: v for k, v in arrays.items() if k.startswith("o.")}
    return params, opt_arrays, meta


def _train_command(stage: str) -> str:
    """The ``train`` command that writes ``stage``'s checkpoint."""
    block, _, cond = stage.partition("_")
    flag = f" --condition-on {cond}" if cond else ""
    return f"train {_TRAIN_BLOCKS[block]}{flag}"


def _ckpt_path(run_dir, stage: str) -> Path:
    return Path(run_dir) / "checkpoints" / f"{stage}.ckpt"


def checkpoint(run_dir, stage: str) -> Path:
    """``run_dir/checkpoints/<stage>.ckpt``; raises :class:`PrerequisiteError`
    naming the ``train`` command that writes it when it is missing."""
    path = _ckpt_path(run_dir, stage)
    if not path.exists():
        raise PrerequisiteError(
            f"{path} is missing; run '{_train_command(stage)}' first")
    return path


def _same_form(own, saved) -> bool:
    """Whether ``saved`` has the keys of dict ``own`` at every level, a value
    of ``own``'s type at each leaf, and ``own``'s strings."""
    if isinstance(own, dict):
        return (isinstance(saved, dict) and saved.keys() == own.keys()
                and all(_same_form(v, saved[k]) for k, v in own.items()))
    return type(saved) is type(own) and (type(own) is not str or saved == own)


def _write_loss_log(run_dir, stage, losses):
    logs = Path(run_dir) / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    lines = ["epoch\tloss"] + [f"{i}\t{v!r}" for i, v in enumerate(losses)]
    (logs / f"{stage}_loss.tsv").write_text("\n".join(lines) + "\n")


def _epoch_batches(rng, n, batch_size):
    perm = rng.permutation(n)
    for s in range(0, n, batch_size):
        yield perm[s:s + batch_size]


def _mse(pred: Tensor, target: Tensor) -> Tensor:
    d = ad.sub(pred, target)
    return ad.mean_(ad.mul(d, d))


def fit(cfg: dict, run_dir, stage: str, params: dict, n: int, batch_loss,
        data_sha256: str, resume: bool = False) -> Path:
    """The epoch loop every trainer shares; returns ``stage``'s checkpoint.

    ``params`` maps checkpoint names to the trainable tensors;
    ``batch_loss(idx, rng)`` returns the scalar loss Tensor of the training
    items ``idx`` of dataset ``data_sha256`` and may draw from the stage
    generator ``rng``. Every epoch ends with a checkpoint of the parameters,
    Adam moments, generator state and losses; ``resume`` continues from it
    if it matches the run. A non-finite epoch loss saves an ``aborted``
    checkpoint and raises :class:`NumericalError`, and so does
    :func:`load_checkpoint` on such a checkpoint, on resume as in every
    loader. A checkpoint path that the first save could not replace is
    refused before the first batch.
    """
    run_dir = Path(run_dir)
    ckpt = _ckpt_path(run_dir, stage)
    tr = cfg["training"]
    opt = OptimizerState(tr["learning_rate"])
    rng = stage_rng(cfg["dataset"]["master_seed"], stage)
    start_epoch, losses = 0, []
    resumed = resume and ckpt.exists()
    if resumed:
        saved, opt_arrays, m = load_checkpoint(ckpt, cfg, data_sha256,
                                               resume=True)
        load_parameters(params, saved, ckpt)
        opt.load_state_arrays(opt_arrays, m["opt_step"])
        rng.bit_generator.state = m["rng_state"]
        start_epoch = m["epoch"] + 1
        losses = list(m["losses"])
    with blame(ckpt):
        check_replaceable(ckpt)

    def arrays():
        return {k: t.data for k, t in params.items()}

    def save(epoch, **aborted):
        save_checkpoint(ckpt, arrays(), opt,
                        {"config": cfg, "data_sha256": data_sha256,
                         "epoch": epoch, "losses": losses, **aborted}, rng)

    for epoch in range(start_epoch, tr["epochs"]):
        batch_losses = []
        for idx in _epoch_batches(rng, n, tr["batch_size"]):
            for t in params.values():
                t.grad = None
            loss = batch_loss(idx, rng)
            loss.backward()
            adam_update(arrays(), {k: t.grad for k, t in params.items()}, opt)
            batch_losses.append(float(loss.data))
        epoch_loss = float(np.mean(batch_losses))
        if not np.isfinite(epoch_loss):
            save(epoch, aborted=True)
            raise NumericalError(f"{stage}: non-finite loss {epoch_loss}; "
                                 f"checkpoint saved to {ckpt}")
        losses.append(epoch_loss)
        log.info("%s epoch %d/%d loss %.3e", stage, epoch + 1, tr["epochs"],
                 epoch_loss)
        save(epoch)
    if tr["epochs"] == 0 and not resumed:   # the initial weights
        save(-1)
    _write_loss_log(run_dir, stage, losses)
    return ckpt


def build_model(cfg: dict, stage: str) -> Module:
    """``stage``'s untrained model under ``cfg``; the denoiser stage's has
    children ``den`` and ``cip``, the denoiser and the encoder it tunes."""
    if stage == "fdunet":
        return FDUNet(FDUNetConfig.from_dict(cfg["fd_unet"]))
    ae = CIPAutoencoder(cip_widths(cfg))
    if stage.startswith("cip_"):
        return ae
    joint = Module()
    joint.den = ConditionalDenoiser(DenoiserConfig.from_dict(cfg["denoiser"]))
    joint.cip = ae.enc
    return joint


def load_model(run_dir, stage: str, cfg: dict | None = None,
               data_sha256=None) -> tuple[Module, dict]:
    """``stage``'s trained model, still trainable, and its stored config,
    read by :func:`load_checkpoint`'s rule."""
    ckpt = checkpoint(run_dir, stage)
    params, _, meta = load_checkpoint(ckpt, cfg, data_sha256)
    model = build_model(meta["config"], stage)
    load_parameters(model.parameters(), params, ckpt)
    return model, meta["config"]


# ---------------------------------------------------------------------------
# initial-reconstruction enhancer
# ---------------------------------------------------------------------------


def initial_images(cfg: dict, manifest: DatasetManifest, data_dir, kind: str,
                   split: str | None = None) -> np.ndarray:
    """Min-max scaled initial images ``kind`` of a split (or all entries):
    ``reconstruct_lbp`` of each stored sinogram, or the enhancer outputs."""
    if kind != "lbp":
        return normalize01(load_images(manifest, data_dir, kind, split))
    rec_op = build_forward_operator(geometry_from_config(cfg), jittered=False)
    return load_images(manifest, data_dir, "sinogram", split,
                       lambda s: reconstruct_lbp(rec_op, Sinogram(s)).data)


def _train_phantoms(cfg: dict, manifest: DatasetManifest, data_dir):
    """The train split's phantoms, on the config's grid as the LBPs are."""
    geometry = geometry_from_config(cfg)
    return load_images(manifest, data_dir, "phantom", "train",
                       lambda p: check_image(geometry, Image(p)).data)


def train_fdunet(cfg: dict, run_dir, manifest: DatasetManifest,
                 resume: bool = False) -> Path:
    data_dir = Path(run_dir) / "dataset"
    model = build_model(cfg, "fdunet")
    lbp = initial_images(cfg, manifest, data_dir, "lbp", "train")
    gt = _train_phantoms(cfg, manifest, data_dir)
    x_all = lbp[:, None].astype(PARAM_DTYPE)
    y_all = gt[:, None].astype(PARAM_DTYPE)

    def batch_loss(idx, rng):
        return _mse(model(Tensor(x_all[idx])), Tensor(y_all[idx]))

    return fit(cfg, run_dir, "fdunet", model.parameters(), x_all.shape[0],
               batch_loss, manifest.data_sha256, resume)


_EMIT_BATCH = 64  # images per enhancer forward in emit_fdunet_outputs


def emit_fdunet_outputs(cfg: dict, run_dir,
                        manifest: DatasetManifest) -> DatasetManifest:
    """Run the trained enhancer over every entry; once every output is
    computed, replace the stored ``fdunet`` arrays with them. Returns
    ``manifest`` unchanged."""
    model, _ = load_model(run_dir, "fdunet", cfg, manifest.data_sha256)
    model.freeze()
    data_dir = Path(run_dir) / "dataset"
    lbp = initial_images(cfg, manifest, data_dir, "lbp")
    outs = np.concatenate([fd_unet_forward(model, lbp[s:s + _EMIT_BATCH])
                           for s in range(0, lbp.shape[0], _EMIT_BATCH)])
    for old in data_dir.glob("fdunet_*.oatd"):
        old.unlink()
    for e, out in zip(manifest.entries, outs):
        write_tensor(entry_file(data_dir, "fdunet", e.index), out)
    return manifest


# ---------------------------------------------------------------------------
# conditioning autoencoder
# ---------------------------------------------------------------------------


def stage_data_sha256(run_dir, data_sha256: str, condition_on: str) -> str:
    """The ``data_sha256`` a stage conditioned on ``condition_on`` trains
    on, and its readers check: the dataset's ``data_sha256`` and, for the
    enhancer's outputs, also the bytes of ``fdunet.ckpt``, which wrote them."""
    if condition_on == "lbp":
        return data_sha256
    digest = hashlib.sha256(data_sha256.encode())
    digest.update(bundle_file(checkpoint(run_dir, "fdunet")).read_bytes())
    return digest.hexdigest()


def _cond_patches(cfg, run_dir, manifest, condition_on):
    """Flattened float32 training patches ``(N * P, ph * pw)``, grid and
    :func:`stage_data_sha256`. The stored enhancer outputs are read only if
    ``fdunet.ckpt``, which wrote them, matches the run
    (:func:`load_checkpoint`)."""
    if condition_on not in CONDITIONS:
        raise ValueError(f"condition_on must be one of {CONDITIONS}")
    if condition_on == "fdunet":
        load_checkpoint(checkpoint(run_dir, "fdunet"), cfg,
                        manifest.data_sha256)
    imgs = initial_images(cfg, manifest, Path(run_dir) / "dataset",
                          condition_on, "train")
    grid = PatchGrid.for_image(imgs.shape[1:], cfg["patch"]["h"],
                               cfg["patch"]["w"])
    flat = split_patches(imgs, grid).reshape(-1, grid.patch_h * grid.patch_w)
    return (flat.astype(PARAM_DTYPE), grid,
            stage_data_sha256(run_dir, manifest.data_sha256, condition_on))


def train_cip(cfg: dict, run_dir, manifest: DatasetManifest,
              condition_on: str, resume: bool = False) -> Path:
    stage = f"cip_{condition_on}"
    ae = build_model(cfg, stage)
    x_all, _, data_sha256 = _cond_patches(cfg, run_dir, manifest,
                                          condition_on)

    def batch_loss(idx, rng):
        xb = Tensor(x_all[idx])
        return _mse(ae(xb), xb)

    # the decoder is pretraining scaffolding, checkpointed so resume works
    return fit(cfg, run_dir, stage, ae.parameters(), x_all.shape[0],
               batch_loss, data_sha256, resume)


# ---------------------------------------------------------------------------
# conditional denoiser (joint with the conditioning encoder)
# ---------------------------------------------------------------------------


def train_diffusion(cfg: dict, run_dir, manifest: DatasetManifest,
                    condition_on: str, resume: bool = False) -> Path:
    data_dir = Path(run_dir) / "dataset"
    checkpoint(run_dir, f"cip_{condition_on}")   # before any data is read
    stage = f"denoiser_{condition_on}"
    sched = schedule_from_config(cfg)
    model = build_model(cfg, stage)
    cond_flat, grid, data_sha256 = _cond_patches(cfg, run_dir, manifest,
                                                 condition_on)
    model.cip = load_model(run_dir, f"cip_{condition_on}", cfg,
                           data_sha256)[0].enc
    gt = _train_phantoms(cfg, manifest, data_dir)
    x0_all = scale_to_model(split_patches(gt, grid).reshape(
        -1, 1, grid.patch_h, grid.patch_w).astype(PARAM_DTYPE))

    def batch_loss(idx, rng):
        t_batch = rng.integers(1, sched.T + 1, size=idx.size)
        eps = rng.standard_normal((idx.size, 1, grid.patch_h, grid.patch_w),
                                  dtype=PARAM_DTYPE)
        xt = q_sample(x0_all[idx], t_batch, eps, sched)
        cond_vec = model.cip(Tensor(cond_flat[idx]))
        return _mse(model.den(Tensor(xt), cond_vec, t_batch), Tensor(eps))

    return fit(cfg, run_dir, stage, model.parameters(), x0_all.shape[0],
               batch_loss, data_sha256, resume)
