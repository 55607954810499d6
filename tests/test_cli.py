"""One method dispatch: ``oatdar reconstruct`` and ``oatdar eval`` agree on
every method, and bad methods, step counts, eta, list flags, geometries,
grids too small for a phantom, input files, all-zero phantoms to add noise
to and checkpoints that do not fit their model exit with a config error, and
a misspelt ``eval --split`` with the parser's usage error (also 2); a
missing checkpoint, an empty train split or a missing enhancer output exits
with a prerequisite error, as does a CIP checkpoint of other widths; a
non-finite enhancer or an aborted checkpoint exits with a numerical error;
``run-all`` is bit-reproducible."""

import json
import logging
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oatdar import cli, pipeline
from oatdar.config import geometry_from_config, load_config
from oatdar.dataset import DatasetManifest, derive_seed
from oatdar.metrics import psnr
from oatdar.operator import build_forward_operator
from oatdar.pipeline import METHODS
from oatdar.tensorfile import (read_bundle, read_tensor, write_bundle,
                               write_tensor)

T = 20
TINY = {"profile": "desk", "dataset": {"train": 2, "val": 0, "test": 1},
        "training": {"epochs": 0}, "schedule": {"T": T},
        "inference": {"nis": 2}}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """run-all on the seeded initial weights, then eval of every method."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    run = root / "run"
    common = ["--config", str(cfg_path), "--run-dir", str(run)]
    assert cli.main(["run-all", *common]) == 0
    assert cli.main(["eval", *common, "--methods", ",".join(METHODS),
                     "--out", str(root / "report")]) == 0
    (entry,) = DatasetManifest.read(run / "dataset").split("test")
    # the per-image DAR seed evaluate_methods derives from the config seed
    seed = derive_seed(load_config(cfg_path)["inference"]["seed"], entry.index)
    # (method, nis, psnr) of each records.tsv line after the three headers
    lines = (root / "report" / "records.tsv").read_text().splitlines()[3:]
    records = [(f[1], int(f[2]), float(f[4]))
               for f in (line.split("\t") for line in lines)]
    return common, run / "dataset", entry, seed, records


@pytest.mark.parametrize("method", METHODS)
def test_reconstruct_scores_as_eval(tiny_run, tmp_path, method):
    common, data_dir, entry, seed, records = tiny_run
    out = tmp_path / f"{method}.oatd"
    assert cli.main(["reconstruct", method, *common,
                     "--sino", str(data_dir / entry.sinogram),
                     "--out", str(out), "--seed", str(seed)]) == 0
    ((nis, rec_psnr),) = [(n, p) for m, n, p in records if m == method]
    assert nis == (2 if method in pipeline.DAR_INITIAL else 0)
    gt = read_tensor(data_dir / entry.phantom)
    assert psnr(read_tensor(out), gt) == rec_psnr


def test_reconstruct_dar_without_checkpoints_exits_3(tiny_run, tmp_path):
    common, data_dir, entry, *_ = tiny_run
    out = tmp_path / "dar.oatd"
    assert cli.main(["reconstruct", "dar", common[0], common[1],
                     "--run-dir", str(tmp_path / "empty"),
                     "--sino", str(data_dir / entry.sinogram),
                     "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("argv, ckpt, command", [
    pytest.param(["train", "diffusion", "--condition-on", "lbp"],
                 "cip_lbp.ckpt", "train cip --condition-on lbp",
                 id="train-diffusion"),
    pytest.param(["reconstruct", "fdunet"], "fdunet.ckpt", "train fdunet",
                 id="reconstruct-fdunet"),
    pytest.param(["reconstruct", "dar_lbp"], "denoiser_lbp.ckpt",
                 "train diffusion --condition-on lbp",
                 id="reconstruct-dar_lbp"),
])
def test_missing_checkpoint_exits_3_naming_its_command(
        tiny_run, tmp_path, caplog, argv, ckpt, command):
    common, data_dir, entry, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir, run / "dataset")
    out = tmp_path / "out.oatd"
    io = (["--sino", str(data_dir / entry.sinogram), "--out", str(out)]
          if argv[0] == "reconstruct" else [])
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main([*argv, *common[:2], "--run-dir", str(run),
                         *io]) == 3
    assert str(run / "checkpoints" / ckpt) in caplog.text
    assert f"'{command}'" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reconstruct", "fdunet"],
    ["train", "fdunet", "--resume", "--set", "fd_unet.growth=8"],
], ids=["reconstruct", "resume"])
def test_checkpoint_not_matching_its_model_exits_2(tiny_run, tmp_path, argv):
    """The enhancer checkpoint's meta says growth 8, its arrays growth 10;
    resuming configures growth 8 too."""
    common, data_dir, entry, *_ = tiny_run
    arrays, meta = read_bundle(data_dir.parent / "checkpoints" / "fdunet.ckpt")
    meta["model_config"]["growth"] = 8
    run = tmp_path / "run"
    ckpt = write_bundle(run / "checkpoints" / "fdunet.ckpt", arrays, meta)
    shutil.copytree(data_dir, run / "dataset")
    saved = {f.name: f.read_bytes() for f in ckpt.iterdir()}
    out = tmp_path / "out.oatd"
    io = (["--sino", str(data_dir / entry.sinogram), "--out", str(out)]
          if argv[0] == "reconstruct" else [])
    assert cli.main([*argv, *common[:2], "--run-dir", str(run), *io]) == 2
    assert {f.name: f.read_bytes() for f in ckpt.iterdir()} == saved
    assert not out.exists()


@pytest.mark.parametrize("block", ["fdunet", "cip", "diffusion"])
def test_empty_train_split_exits_3(tiny_run, tmp_path, block):
    common, data_dir, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    manifest = DatasetManifest.read(data_dir)
    manifest.entries = [replace(e, split="val") if e.split == "train" else e
                        for e in manifest.entries]
    manifest.write(run / "dataset")
    assert cli.main(["train", block, "--condition-on", "lbp", *common[:2],
                     "--run-dir", str(run)]) == 3


def test_train_cip_before_the_enhancer_exits_3(tmp_path, caplog):
    """Conditioning on the enhancer needs its outputs in the dataset."""
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    common = ["--config", str(cfg_path), "--run-dir", str(tmp_path / "run")]
    assert cli.main(["dataset", "build", *common]) == 0
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["train", "cip", *common]) == 3
    assert "'train fdunet'" in caplog.text


@pytest.mark.parametrize("argv", [
    ["eval", "--methods", "lbp,foo"],
    ["eval", "--methods", "dar", "--nis", "0"],
    ["eval", "--methods", "dar_lbp", "--nis", str(T + 1)],
    ["reconstruct", "dar", "--nis", "0"],
    ["reconstruct", "dar_lbp", "--nis", str(T + 1)],
    ["reconstruct", "dar", "--eta", "2"],
    ["reconstruct", "dar_lbp", "--eta", "nan"],
    ["eval", "--methods", "dar", "--nis", "2,x"],
    ["eval", "--methods", "lbp", "--snr", "abc"],
])
def test_bad_method_nis_or_eta_exits_2(tiny_run, tmp_path, monkeypatch,
                                      argv):
    """Each bad value is refused before a model loads or an operator
    builds."""
    common, data_dir, entry, *_ = tiny_run

    def work(*args, **kwargs):
        raise AssertionError("work started before the value check")

    monkeypatch.setattr(pipeline, "load_method_models", work)
    monkeypatch.setattr(pipeline, "build_forward_operator", work)
    monkeypatch.setattr(cli, "build_forward_operator", work)
    out = tmp_path / "out"
    io = (["--sino", str(data_dir / entry.sinogram)]
          if argv[0] == "reconstruct" else [])
    assert cli.main([*argv, *common, *io, "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_method_fails_before_reading_data(tiny_run, tmp_path,
                                                  monkeypatch):
    common, *_ = tiny_run

    def read_tensor(*args):
        raise AssertionError("data read before the method check")

    monkeypatch.setattr(pipeline, "read_tensor", read_tensor)
    assert cli.main(["eval", *common, "--methods", "foo",
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("lists", [
    ["--methods", ","], ["--methods", "lbp,lbp"],
    ["--methods", "dar", "--nis", "2,2"], ["--methods", "lbp", "--snr", "20,20"],
], ids=["empty-method", "repeated-method", "repeated-nis", "repeated-snr"])
def test_empty_or_repeated_eval_entry_exits_2_before_any_work(
        tiny_run, tmp_path, monkeypatch, lists):
    """An empty or repeated entry would write an empty or double-counted
    report; it is refused before a model loads or an operator builds."""
    common, *_ = tiny_run

    def work(*args, **kwargs):
        raise AssertionError("work started before the list check")

    monkeypatch.setattr(pipeline, "load_method_models", work)
    monkeypatch.setattr(pipeline, "build_forward_operator", work)
    out = tmp_path / "out"
    assert cli.main(["eval", *common, *lists, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("jittered", [False, True],
                         ids=["nominal", "jittered"])
def test_operator_exports_the_built_csr(tmp_path, jittered):
    out = tmp_path / "op"
    flags = ["--jittered"] if jittered else []
    assert cli.main(["operator", "--out", str(out), *flags]) == 0
    arrays, meta = read_bundle(out)
    op = build_forward_operator(geometry_from_config(load_config()),
                                jittered=jittered)
    assert np.array_equal(arrays["row_offsets"], op.indptr)
    assert np.array_equal(arrays["col_indices"], op.indices)
    assert np.array_equal(arrays["values"], op.values)
    assert meta["jittered"] is jittered
    assert meta["output_scale"] == op.output_scale


def test_eval_split_typo_exits_2(tiny_run, tmp_path, capsys):
    common, *_ = tiny_run
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", *common, "--split", "tset", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'tset'" in capsys.readouterr().err
    assert not out.exists()


def _run_cli(*argv):
    """``python -m oatdar.cli argv`` in a child process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "oatdar.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})


# an 8x8 grid every config rule accepts (the patch tiles it and the CIP
# codes fit the denoiser); only the phantom renderer needs 16x16
SMALL_GRID = ["--set", "geometry.grid_nx=8", "--set", "geometry.grid_ny=8",
              "--set", "patch.h=8", "--set", "patch.w=8",
              "--set", "cip.layer_dims=[64,32]", "--set", "denoiser.cond_dim=32"]


def test_phantom_on_a_too_small_grid_exits_2(tmp_path):
    out = tmp_path / "p.oatd"
    proc = _run_cli("phantom", *SMALL_GRID, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "at least 16x16" in proc.stderr
    assert not out.exists()


def test_simulate_noise_on_an_all_zero_phantom_exits_2(tmp_path):
    phantom, out = tmp_path / "zero.oatd", tmp_path / "s.oatd"
    write_tensor(phantom, np.zeros((32, 32)))
    proc = _run_cli("simulate", "--phantom", str(phantom), "--snr", "20",
                    "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "all-zero sinogram" in proc.stderr
    assert not out.exists()


def test_run_all_is_bit_reproducible(tmp_path):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(
        {**TINY, "training": {"epochs": 1, "batch_size": 2}}))
    records = []
    for name in ("a", "b"):
        run = tmp_path / name
        assert cli.main(["run-all", "--config", str(cfg_path),
                         "--run-dir", str(run)]) == 0
        records.append((run / "reports" / "records.tsv").read_bytes())
    assert records[0] == records[1]


@pytest.mark.parametrize("setting", ["geometry.time_samples=16",
                                     "geometry.dt=-1",
                                     "geometry.ring_radius=0.001"])
def test_bad_geometry_exits_2(tmp_path, setting):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    assert cli.main(["dataset", "build", "--config", str(cfg_path),
                     "--run-dir", str(tmp_path / "run"),
                     "--set", setting]) == 2


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
@pytest.mark.parametrize("bad", ["missing", "shape"])
def test_bad_input_file_exits_2(tiny_run, tmp_path, caplog, command, bad):
    common, *_ = tiny_run
    path = tmp_path / "in.oatd"
    if bad == "shape":
        write_tensor(path, np.zeros((3, 3)))
    flag = "--phantom" if command == "simulate" else "--sino"
    argv = (["simulate", *common[:2]] if command == "simulate"
            else ["reconstruct", "lbp", *common])
    out = tmp_path / "out.oatd"
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main([*argv, flag, str(path), "--out", str(out)]) == 2
    assert flag in caplog.text
    assert not out.exists()


def test_non_finite_enhancer_exits_4(tiny_run, tmp_path):
    common, data_dir, entry, *_ = tiny_run
    arrays, meta = read_bundle(data_dir.parent / "checkpoints" / "fdunet.ckpt")
    arrays["p.head.w"][0, 0, 0, 0] = np.nan
    run = tmp_path / "run"
    write_bundle(run / "checkpoints" / "fdunet.ckpt", arrays, meta)
    out = tmp_path / "out.oatd"
    assert cli.main(["reconstruct", "fdunet", *common[:2],
                     "--run-dir", str(run),
                     "--sino", str(data_dir / entry.sinogram),
                     "--out", str(out)]) == 4
    assert not out.exists()


def test_aborted_checkpoint_exits_4(tiny_run, tmp_path):
    common, data_dir, entry, *_ = tiny_run
    arrays, meta = read_bundle(data_dir.parent / "checkpoints" / "fdunet.ckpt")
    run = tmp_path / "run"
    write_bundle(run / "checkpoints" / "fdunet.ckpt", arrays,
                 {**meta, "aborted": True})
    out = tmp_path / "out.oatd"
    assert cli.main(["reconstruct", "fdunet", *common[:2],
                     "--run-dir", str(run),
                     "--sino", str(data_dir / entry.sinogram),
                     "--out", str(out)]) == 4
    assert not out.exists()


def test_cip_checkpoint_of_other_layer_dims_exits_3(tiny_run, tmp_path,
                                                     caplog):
    """A valid config whose CIP widths differ from the checkpoint's."""
    common, data_dir, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["train", "diffusion", "--condition-on", "lbp",
                         *common[:2], "--run-dir", str(run),
                         "--set", "patch.h=16", "--set", "patch.w=8",
                         "--set", "cip.layer_dims=[128,64]"]) == 3
    assert "'train cip --condition-on lbp'" in caplog.text
