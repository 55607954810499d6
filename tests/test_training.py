"""The shared epoch loop: resuming a stage reproduces the uninterrupted run
bit for bit, never from the temp file a crash left mid-write, and the CLI
hands ``--resume`` to every block; a stage's one name is its checkpoint's,
its loss log's and its ``train`` command's; every inference reader freezes
what it loads; the enhancer's outputs replace the stored ones without a
rewrite of the manifest."""

import json
import logging
import shutil

import numpy as np
import pytest

from oatdar import autodiff as ad
from oatdar import cli, pipeline, tensorfile, training
from oatdar.errors import ConfigError, NumericalError
from oatdar.config import geometry_from_config, load_config
from oatdar.dataset import MANIFEST_NAME, build_dataset, entry_file
from oatdar.geometry import Sinogram
from oatdar.grayio import normalize01
from oatdar.layers import Module, load_parameters
from oatdar.models import fd_unet_forward
from oatdar.operator import build_forward_operator, reconstruct_lbp
from oatdar.optim import OptimizerState
from oatdar.patches import PatchGrid, split_patches
from oatdar.tensorfile import (bundle_file, read_bundle, read_tensor,
                               write_bundle, write_tensor)

TINY = {"profile": "desk", "dataset": {"train": 3, "val": 0, "test": 0},
        "schedule": {"T": 20}, "inference": {"nis": 5},
        "training": {"batch_size": 2}}


# the data_sha256 the probe checkpoints of ``training.fit`` record
PROBE_DATA = "probe data"


def _cfg(epochs):
    return load_config(None, {**TINY, "training": {**TINY["training"],
                                                   "epochs": epochs}})


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    """A dataset plus the lbp-conditioned autoencoder the denoiser needs."""
    run = tmp_path_factory.mktemp("base")
    cfg = _cfg(1)
    manifest = build_dataset(cfg, run)
    training.train_cip(cfg, run, manifest, "lbp")
    return run, manifest


def _copy_run(base, dest):
    shutil.copytree(base / "dataset", dest / "dataset")
    (dest / "checkpoints").mkdir()
    shutil.copytree(base / "checkpoints" / "cip_lbp.ckpt",
                    dest / "checkpoints" / "cip_lbp.ckpt")
    return dest


# block -> (its stage, which names its checkpoint and loss log, trainer)
TRAINERS = {
    "fdunet": ("fdunet", lambda cfg, run, m, resume: training.train_fdunet(
        cfg, run, m, resume=resume)),
    "cip": ("cip_lbp", lambda cfg, run, m, resume: training.train_cip(
        cfg, run, m, "lbp", resume=resume)),
    "diffusion": ("denoiser_lbp", lambda cfg, run, m, resume:
                  training.train_diffusion(cfg, run, m, "lbp",
                                           resume=resume)),
}


@pytest.mark.parametrize("block, stops", [
    *(pytest.param(b, (1,), id=b) for b in sorted(TRAINERS)),
    # a resume at zero epochs leaves the trained checkpoint as it is
    pytest.param("fdunet", (1, 0), id="fdunet-zero-epoch-resume"),
])
def test_resume_reproduces_uninterrupted_training(base_run, tmp_path, block,
                                                  stops):
    """Training to each of ``stops`` epochs in turn, resuming after the
    first, then resuming to 2 epochs equals training 2 epochs straight."""
    base, manifest = base_run
    stage, train = TRAINERS[block]
    straight = _copy_run(base, tmp_path / "straight")
    resumed = _copy_run(base, tmp_path / "resumed")
    ckpt_a = train(_cfg(2), straight, manifest, False)
    for i, epochs in enumerate(stops):
        train(_cfg(epochs), resumed, manifest, i > 0)
    ckpt_b = train(_cfg(2), resumed, manifest, True)

    arrays_a, meta_a = read_bundle(ckpt_a)
    arrays_b, meta_b = read_bundle(ckpt_b)
    assert meta_a["epoch"] == 1 and len(meta_a["losses"]) == 2
    assert sorted(meta_a) == ["config", "data_sha256", "epoch", "losses",
                              "opt_step", "rng_state"]
    assert meta_a["config"] == _cfg(2)
    assert meta_a["data_sha256"] == manifest.data_sha256
    assert meta_a == meta_b
    assert sorted(arrays_a) == sorted(arrays_b)
    assert any(k.startswith("o.") for k in arrays_a)
    for k in arrays_a:
        assert np.array_equal(arrays_a[k], arrays_b[k]), k
    log = f"logs/{stage}_loss.tsv"
    assert (straight / log).read_text() == (resumed / log).read_text()


def test_non_finite_loss_saves_aborted_checkpoint(tmp_path):
    w = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)

    def batch_loss(idx, rng):   # finite gradient, infinite loss
        return ad.add(ad.sum_(w), np.float32(np.inf))

    with pytest.raises(NumericalError, match="non-finite loss"):
        training.fit(_cfg(2), tmp_path, "fdunet", {"w": w}, 4, batch_loss,
                     PROBE_DATA)
    arrays, meta = read_bundle(tmp_path / "checkpoints" / "fdunet.ckpt")
    assert meta["aborted"] and meta["epoch"] == 0 and meta["losses"] == []
    assert np.array_equal(arrays["p.w"], w.data)
    assert "o.m.w" in arrays


def test_resume_refuses_an_aborted_checkpoint(tmp_path):
    w = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(NumericalError, match="non-finite loss"):
        training.fit(_cfg(2), tmp_path, "fdunet", {"w": w}, 4,
                     lambda idx, rng: ad.add(ad.sum_(w), np.float32(np.inf)),
                     PROBE_DATA)
    ckpt = bundle_file(tmp_path / "checkpoints" / "fdunet.ckpt")
    saved = ckpt.read_bytes()
    with pytest.raises(NumericalError, match="without --resume"):
        training.fit(_cfg(2), tmp_path, "fdunet", {"w": w}, 4,
                     lambda idx, rng: ad.sum_(w), PROBE_DATA, resume=True)
    assert ckpt.read_bytes() == saved


def test_resume_rejects_a_checkpoint_of_another_model(tmp_path):
    w = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    training.save_checkpoint(tmp_path / "checkpoints" / "fdunet.ckpt",
                             {"v": w.data}, OptimizerState(),
                             {"config": _cfg(2), "data_sha256": PROBE_DATA,
                              "epoch": 0, "losses": []},
                             np.random.default_rng(0))
    with pytest.raises(ConfigError, match="do not fit the model"):
        training.fit(_cfg(2), tmp_path, "fdunet", {"w": w}, 4,
                     lambda idx, rng: ad.sum_(w), PROBE_DATA, resume=True)


def _stale_tmp(ckpt, monkeypatch):
    """The temp file a process killed while saving ``ckpt`` leaves: a
    complete bundle file of another epoch."""
    arrays, meta = read_bundle(ckpt)
    monkeypatch.setattr(tensorfile.os, "replace", lambda src, dst: None)
    write_bundle(ckpt, arrays, {**meta, "epoch": 7, "losses": [0.0] * 8})
    monkeypatch.undo()
    assert len(list(ckpt.iterdir())) == 2


def test_resume_ignores_a_stale_tmp(tmp_path, caplog, monkeypatch):
    """Resume continues from the checkpoint, not from the temp file a crash
    left beside it, and the next save replaces that file."""
    w = ad.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)

    def run(epochs, resume):
        return training.fit(_cfg(epochs), tmp_path, "fdunet", {"w": w}, 4,
                            lambda idx, rng: ad.sum_(w), PROBE_DATA,
                            resume=resume)

    ckpt = run(2, False)
    saved = read_bundle(ckpt)[1]["losses"]
    _stale_tmp(ckpt, monkeypatch)
    with caplog.at_level(logging.INFO, logger="oatdar.training"):
        run(3, True)
    assert [r.getMessage().split(" loss")[0] for r in caplog.records
            if " epoch " in r.getMessage()] == ["fdunet epoch 3/3"]
    meta = read_bundle(ckpt)[1]
    assert meta["epoch"] == 2 and meta["losses"][:2] == saved
    assert list(ckpt.iterdir()) == [bundle_file(ckpt)]


def test_checkpoint_lookup_ignores_a_stale_tmp(tmp_path, monkeypatch):
    """A temp file without its checkpoint file is not taken for it: the
    checkpoint reads as damaged, naming the command that rewrites it."""
    path = write_bundle(tmp_path / "checkpoints" / "fdunet.ckpt",
                        {"w": np.ones(3)}, {"epoch": 0})
    assert training.checkpoint(tmp_path, "fdunet") == path
    _stale_tmp(path, monkeypatch)
    bundle_file(path).unlink()
    with pytest.raises(ConfigError, match="cannot read.*'train fdunet'"):
        training.load_model(tmp_path, "fdunet")


@pytest.mark.parametrize("block", sorted(TRAINERS))
def test_loader_names_parameters_as_the_trainer_saved_them(
        base_run, tmp_path, monkeypatch, block):
    base, manifest = base_run
    run = _copy_run(base, tmp_path / "run")
    ckpt = TRAINERS[block][1](_cfg(0), run, manifest, False)
    loaded = []

    def record(params, arrays, source):
        loaded.append(list(params))
        load_parameters(params, arrays, source)

    monkeypatch.setattr(training, "load_parameters", record)
    training.load_model(run, TRAINERS[block][0])
    saved = [k[2:] for k in read_bundle(ckpt)[0] if k.startswith("p.")]
    assert loaded == [saved]


def test_trainers_backproject_the_stored_sinograms(base_run):
    """The trainers' LBP stack is inference's ``reconstruct_lbp`` of each
    stored sinogram, bit for bit, and pipeline calls that same function."""
    base, manifest = base_run
    cfg, data_dir = _cfg(1), base / "dataset"
    rec_op = build_forward_operator(geometry_from_config(cfg), jittered=False)
    stack = training.initial_images(cfg, manifest, data_dir, "lbp", "train")
    entries = manifest.split("train")
    assert stack.shape[0] == len(entries)
    for img, e in zip(stack, entries):
        sino = Sinogram(read_tensor(entry_file(data_dir, "sinogram",
                                               e.index)))
        assert np.array_equal(img, reconstruct_lbp(rec_op, sino).data)
    assert pipeline.reconstruct_lbp is training.reconstruct_lbp


def test_cip_checkpoint_still_loads_as_encoder(base_run):
    base, _ = base_run
    enc = training.load_model(base, "cip_lbp")[0].enc
    arrays, _ = read_bundle(base / "checkpoints" / "cip_lbp.ckpt")
    for k, t in enc.parameters().items():
        assert np.array_equal(t.data, arrays[f"p.enc.{k}"])


@pytest.mark.parametrize("block", ["fdunet", "cip", "diffusion"])
def test_cli_train_passes_resume(base_run, tmp_path, monkeypatch, block):
    base, _ = base_run
    calls = []

    def record(*args, **kwargs):
        calls.append(kwargs)
        return base / "checkpoints" / "stub.ckpt"

    monkeypatch.setattr(training, f"train_{block}", record)
    monkeypatch.setattr(training, "emit_fdunet_outputs",
                        lambda *args, **kwargs: None)
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    assert cli.main(["train", block, "--config", str(cfg_path),
                     "--run-dir", str(base), "--resume"]) == 0
    assert calls == [{**({} if block == "fdunet"
                         else {"condition_on": "fdunet"}), "resume": True}]


def test_train_diffusion_tunes_the_cip_encoder(base_run, tmp_path):
    base, manifest = base_run
    run = _copy_run(base, tmp_path / "run")
    ckpt = training.train_diffusion(_cfg(1), run, manifest, "lbp")
    pretrained, _ = read_bundle(base / "checkpoints" / "cip_lbp.ckpt")
    tuned, _ = read_bundle(ckpt)
    enc_keys = [k for k in pretrained if k.startswith("p.enc.")]
    assert enc_keys
    for k in enc_keys:
        assert not np.array_equal(tuned["p.cip." + k[6:]], pretrained[k]), k


@pytest.fixture(scope="module")
def trained_run(base_run, tmp_path_factory):
    """``base_run`` plus every other stage, trained for zero epochs."""
    base, manifest = base_run
    run = tmp_path_factory.mktemp("trained") / "run"
    shutil.copytree(base, run)
    cfg = _cfg(0)
    training.train_fdunet(cfg, run, manifest)
    training.emit_fdunet_outputs(cfg, run, manifest)
    training.train_cip(cfg, run, manifest, "fdunet")
    for cond in training.CONDITIONS:
        training.train_diffusion(cfg, run, manifest, cond)
    return run, manifest


def test_each_checkpoint_has_the_loss_log_of_its_name(trained_run):
    run, _ = trained_run
    ckpts = sorted(p.name.removesuffix(".ckpt")
                   for p in (run / "checkpoints").iterdir())
    assert ckpts == sorted(training._STAGE_IDS)
    assert sorted(p.name.removesuffix("_loss.tsv")
                  for p in (run / "logs").iterdir()) == ckpts


@pytest.mark.parametrize("stage", sorted(training._STAGE_IDS))
def test_cli_accepts_each_stage_train_command(stage):
    args = cli.build_parser().parse_args(
        training._train_command(stage).split())
    assert args.fn is cli.cmd_train


def test_loaded_checkpoints_run_without_a_tape(trained_run, monkeypatch):
    """Every inference reader freezes what it loads: the enhancer
    ``emit_fdunet_outputs`` runs and every model of a method's bundle, which
    ``eval`` and ``reconstruct`` run."""
    run, manifest = trained_run
    cfg = _cfg(0)
    emitted = []

    def record(model, images):
        emitted.append(model)
        return fd_unet_forward(model, images)

    monkeypatch.setattr(training, "fd_unet_forward", record)
    training.emit_fdunet_outputs(cfg, run, manifest)
    bundles = [pipeline.load_method_models(cfg, run, m)
               for m in ("fdunet", *pipeline.DAR_INITIAL)]
    models = emitted + [m for b in bundles for m in vars(b).values()
                        if isinstance(m, Module)]
    assert len(models) == 1 + 1 + 3 + 2
    for model in models:
        assert not any(t.requires_grad for t in model.parameters().values())
    dar = bundles[1]
    n = cfg["geometry"]["grid_nx"]
    img = np.random.default_rng(0).random((2, 1, n, n), dtype=np.float32)
    patches = split_patches(img[0, 0], PatchGrid.for_image(
        (n, n), *dar.patch))[:, None]
    cond = dar.encoder(ad.Tensor(patches.reshape(len(patches), -1)))
    outs = [dar.fdunet(ad.Tensor(img)), cond,
            dar.denoiser(ad.Tensor(patches), cond, np.full(len(patches), 3))]
    for out in outs:
        assert out._vjp is None and out._parents == ()
    # the encoder the denoiser stage tunes is still loaded trainable
    pretrained = training.load_model(run, "cip_lbp")[0].enc
    assert all(t.requires_grad for t in pretrained.parameters().values())


def test_train_refuses_an_unreplaceable_checkpoint_before_a_batch(
        base_run, tmp_path, monkeypatch, caplog):
    """A checkpoint path the first save could not replace, here a checkpoint
    directory of the older format, exits 2 naming it once, before any batch
    runs or any loss log is written."""
    base, _ = base_run
    run = _copy_run(base, tmp_path / "run")
    old = run / "checkpoints" / "fdunet.ckpt"
    old.mkdir()
    (old / "bundle.json").write_text("{}")
    batches = []
    monkeypatch.setattr(training, "adam_update",
                        lambda *args: batches.append(args))
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["train", "fdunet", "--config", str(cfg_path),
                         "--run-dir", str(run)]) == 2
    assert caplog.text.count(str(old)) == 1
    assert "exists and is not a bundle" in caplog.text
    assert batches == []
    assert not (run / "logs").exists()


def test_emit_refuses_a_non_finite_enhancer(base_run, tmp_path):
    base, manifest = base_run
    run = _copy_run(base, tmp_path / "run")
    cfg = _cfg(0)
    ckpt = training.train_fdunet(cfg, run, manifest)
    arrays, meta = read_bundle(ckpt)
    arrays["p.head.w"][0, 0, 0, 0] = np.nan
    write_bundle(ckpt, arrays, meta)
    with pytest.raises(NumericalError):
        training.emit_fdunet_outputs(cfg, run, manifest)
    assert not list((run / "dataset").glob("fdunet_*"))


def test_emit_replaces_every_output_and_leaves_the_manifest(base_run,
                                                           tmp_path):
    """The outputs go to one path per entry; an output of an entry the
    dataset no longer has is removed, and the manifest is not rewritten."""
    base, manifest = base_run
    run = _copy_run(base, tmp_path / "run")
    data_dir = run / "dataset"
    stale = entry_file(data_dir, "fdunet", 99)
    write_tensor(stale, np.zeros((2, 2), dtype=np.float32))
    before = (data_dir / MANIFEST_NAME).read_bytes()
    cfg = _cfg(0)
    training.train_fdunet(cfg, run, manifest)
    assert training.emit_fdunet_outputs(cfg, run, manifest) is manifest
    assert (data_dir / MANIFEST_NAME).read_bytes() == before
    assert sorted(data_dir.glob("fdunet_*")) == [
        entry_file(data_dir, "fdunet", e.index) for e in manifest.entries]
    stored = training.initial_images(cfg, manifest, data_dir, "fdunet")
    lbp = training.initial_images(cfg, manifest, data_dir, "lbp")
    model, _ = training.load_model(run, "fdunet")
    assert np.array_equal(stored, normalize01(fd_unet_forward(model, lbp)))
