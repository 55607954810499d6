"""One method dispatch: ``oatdar reconstruct`` and ``oatdar eval`` agree on
every method, and bad methods, step counts, eta, list flags, geometries,
grids too small for a phantom, unbounded branch depths, input files,
all-zero phantoms to add noise to and checkpoints that do not fit their
model exit with a config error, and a misspelt ``eval --split`` with the
parser's usage error (also 2); a missing dataset or checkpoint, an empty
train split or a missing enhancer output exits with a prerequisite error
(3), and so does a checkpoint of another model config than the run's (a
denoiser of another schedule, a CIP checkpoint of other widths, the
enhancer that wrote the outputs a conditioned stage reads) or of other
data than the run's dataset, and a resume under other training or
dataset values; a non-finite enhancer or an aborted checkpoint exits with
a numerical error; ``run-all`` is bit-reproducible. A checkpoint whose
config holds a key the config no longer has, or that the config rules
refuse, an output flag or report path that cannot be written, a corrupt
dataset file read by ``train`` or ``eval`` and a corrupt checkpoint exit
with a config error too."""

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

from conftest import set_bundle_header
from oatdar import cli, pipeline, training
from oatdar.config import geometry_from_config, load_config
from oatdar.dataset import DatasetManifest, derive_seed, entry_file
from oatdar.errors import PrerequisiteError
from oatdar.metrics import psnr
from oatdar.operator import build_forward_operator
from oatdar.pipeline import METHODS
from oatdar.tensorfile import (bundle_file, read_bundle, read_tensor,
                               write_bundle, write_tensor)

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


def _sino(data_dir, entry) -> str:
    """The path of ``entry``'s stored sinogram."""
    return str(entry_file(data_dir, "sinogram", entry.index))


@pytest.mark.parametrize("method", METHODS)
def test_reconstruct_scores_as_eval(tiny_run, tmp_path, method):
    common, data_dir, entry, seed, records = tiny_run
    out = tmp_path / f"{method}.oatd"
    assert cli.main(["reconstruct", method, *common,
                     "--sino", _sino(data_dir, entry),
                     "--out", str(out),
                     "--set", f"inference.seed={seed}"]) == 0
    ((nis, rec_psnr),) = [(n, p) for m, n, p in records if m == method]
    assert nis == (2 if method in pipeline.DAR_INITIAL else 0)
    gt = read_tensor(entry_file(data_dir, "phantom", entry.index))
    assert psnr(read_tensor(out), gt) == rec_psnr


def test_eval_reads_the_enhancer_checkpoint_once(tiny_run, monkeypatch):
    """fdunet and dar share one copy of the enhancer."""
    common, data_dir, *_ = tiny_run
    calls = []

    def load_model(run_dir, stage, *run):
        calls.append(stage)
        return training.load_model(run_dir, stage, *run)

    monkeypatch.setattr(pipeline, "load_model", load_model)
    report = pipeline.evaluate_methods(
        load_config(common[1]), data_dir.parent,
        DatasetManifest.read(data_dir), ["fdunet", "dar"])
    assert calls == ["fdunet", "denoiser_fdunet"]
    assert [r.method for r in report.records] == ["fdunet", "dar"]


def test_reconstruct_dar_without_checkpoints_exits_3(tiny_run, tmp_path):
    common, data_dir, entry, *_ = tiny_run
    out = tmp_path / "dar.oatd"
    assert cli.main(["reconstruct", "dar", common[0], common[1],
                     "--run-dir", str(tmp_path / "empty"),
                     "--sino", _sino(data_dir, entry),
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
    io = (["--sino", _sino(data_dir, entry), "--out", str(out)]
          if argv[0] == "reconstruct" else [])
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main([*argv, *common[:2], "--run-dir", str(run),
                         *io]) == 3
    assert str(run / "checkpoints" / ckpt) in caplog.text
    assert f"'{command}'" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["reconstruct", "fdunet"], ["train", "fdunet", "--resume"],
], ids=["reconstruct", "resume"])
def test_checkpoint_not_matching_its_model_exits_2(tiny_run, tmp_path, argv):
    """The enhancer checkpoint's config says growth 8, its arrays growth 10;
    the run configures growth 8 too."""
    common, data_dir, entry, *_ = tiny_run
    arrays, meta = read_bundle(data_dir.parent / "checkpoints" / "fdunet.ckpt")
    meta["config"]["fd_unet"]["growth"] = 8
    run = tmp_path / "run"
    ckpt = bundle_file(write_bundle(run / "checkpoints" / "fdunet.ckpt",
                                    arrays, meta))
    shutil.copytree(data_dir, run / "dataset")
    saved = ckpt.read_bytes()
    out = tmp_path / "out.oatd"
    io = (["--sino", _sino(data_dir, entry), "--out", str(out)]
          if argv[0] == "reconstruct" else [])
    assert cli.main([*argv, *common[:2], "--run-dir", str(run), *io,
                     "--set", "fd_unet.growth=8"]) == 2
    assert ckpt.read_bytes() == saved
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
    """Conditioning on the enhancer needs its outputs in the dataset, and
    a forced rebuild deletes them."""
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    common = ["--config", str(cfg_path), "--run-dir", str(tmp_path / "run")]
    for build in (["dataset", "build"], ["dataset", "build", "--force"]):
        assert cli.main([*build, *common]) == 0
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="oatdar"):
            assert cli.main(["train", "cip", *common]) == 3
        assert "'train fdunet'" in caplog.text
        assert cli.main(["train", "fdunet", *common]) == 0
        assert cli.main(["train", "cip", *common]) == 0


def test_enhancer_outputs_of_another_config_exit_3(tiny_run, tmp_path,
                                                   caplog):
    """The stored enhancer outputs are fdunet.ckpt's: after 'train fdunet'
    under another enhancer, the stages conditioned on them refuse them
    under the run's config, naming the difference and 'train fdunet'. After
    'train fdunet' under other training values, which the model check leaves
    out, the CIP and denoiser trained on the old enhancer's outputs hold
    another data_sha256 (it covers fdunet.ckpt's bytes), so the stages that
    read them name 'train cip --condition-on fdunet'."""
    common, data_dir, *_ = tiny_run
    cases = [
        ("fd_unet.growth=8", [["train", "cip"], ["train", "diffusion"]],
         ["was trained with fd_unet.growth=8, this run has "
          "fd_unet.growth=10; run 'train fdunet' first"]),
        ("training.epochs=1",
         [["eval", "--methods", "dar", "--out", str(tmp_path / "report")],
          ["train", "diffusion"]],
         ["_fdunet.ckpt was trained with data_sha256=",
          "; run 'train cip --condition-on fdunet'"]),
    ]
    for i, (setting, stages, texts) in enumerate(cases):
        run = tmp_path / f"run{i}"
        shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
        shutil.copytree(data_dir, run / "dataset")
        argv = [*common[:2], "--run-dir", str(run)]
        assert cli.main(["train", "fdunet", *argv, "--set", setting]) == 0
        for stage in stages:
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="oatdar"):
                assert cli.main([*stage, *argv]) == 3
            assert all(text in caplog.text for text in texts)
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--methods", "lbp,foo"],
    ["eval", "--methods", "dar", "--nis", "0"],
    ["eval", "--methods", "dar_lbp", "--nis", str(T + 1)],
    ["reconstruct", "dar", "--set", "inference.nis=0"],
    ["reconstruct", "dar_lbp", "--set", f"inference.nis={T + 1}"],
    ["reconstruct", "dar", "--set", "inference.eta=2"],
    ["reconstruct", "dar_lbp", "--set", "inference.eta=NaN"],
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
    io = (["--sino", _sino(data_dir, entry)]
          if argv[0] == "reconstruct" else [])
    assert cli.main([*argv, *common, *io, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "reconstruct"])
def test_denoiser_of_another_schedule_exits_3(tiny_run, tmp_path, caplog,
                                              command):
    """The denoisers were trained at T = 20; a config at T = 40 would sample
    with the checkpoint's schedule under the config's hash. dar_lbp reads
    only its denoiser; dar would first refuse the enhancer, also T = 20."""
    common, data_dir, entry, *_ = tiny_run
    sino = _sino(data_dir, entry)
    argv = (["eval", "--methods", "dar_lbp", "--nis", "10"]
            if command == "eval" else
            ["reconstruct", "dar_lbp", "--sino", sino,
             "--set", "inference.nis=10"])
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main([*argv, *common, "--set", f"schedule.T={2 * T}",
                         "--out", str(out)]) == 3
    assert (f"denoiser_lbp.ckpt was trained with schedule.T={T}, this run "
            f"has schedule.T={2 * T}") in caplog.text
    assert "'train diffusion --condition-on lbp'" in caplog.text
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
# narrows its 64 pixels to the denoiser's 32); only the phantom renderer
# needs 16x16
SMALL_GRID = ["--set", "geometry.grid_nx=8", "--set", "geometry.grid_ny=8",
              "--set", "patch.h=8", "--set", "patch.w=8",
              "--set", "denoiser.cond_dim=32"]


def test_phantom_on_a_too_small_grid_exits_2(tmp_path):
    out = tmp_path / "p.oatd"
    proc = _run_cli("phantom", *SMALL_GRID, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "at least 16x16" in proc.stderr
    assert not out.exists()


def test_phantom_with_an_unbounded_branch_depth_exits_2(tmp_path):
    out = tmp_path / "p.oatd"
    proc = _run_cli("phantom", "--set", "phantom.branch_depth=[2,40]",
                    "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "branch_depth" in proc.stderr
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
                     "--sino", _sino(data_dir, entry),
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
                     "--sino", _sino(data_dir, entry),
                     "--out", str(out)]) == 4
    assert not out.exists()


def test_cip_checkpoint_of_other_layer_dims_exits_3(tiny_run, tmp_path,
                                                     caplog):
    """A valid config whose patch, and so CIP widths, differ from the
    checkpoint's."""
    common, data_dir, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["train", "diffusion", "--condition-on", "lbp",
                         *common[:2], "--run-dir", str(run),
                         "--set", "patch.h=16", "--set", "patch.w=8"]) == 3
    assert "'train cip --condition-on lbp'" in caplog.text


@pytest.mark.parametrize("sets, key", [
    (["training.learning_rate=1e-2", "training.batch_size=2"],
     "training.learning_rate"),
    (["dataset.snr_db_range=[10.0,80.0]"], "dataset.snr_db_range"),
], ids=["learning-rate-and-batch-size", "dataset"])
def test_resume_under_another_config_exits_3(tiny_run, tmp_path, caplog,
                                             sets, key):
    """A resume continues the run its checkpoint holds: under other
    training values (but epochs) or dataset values it would mix two runs in
    one checkpoint, so it leaves the checkpoint as it is."""
    common, data_dir, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    ckpt = run / "checkpoints" / "fdunet.ckpt"
    saved = bundle_file(ckpt).read_bytes()
    flags = [arg for kv in sets for arg in ("--set", kv)]
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["train", "fdunet", "--resume", *common[:2],
                         "--run-dir", str(run), *flags]) == 3
    assert f"{ckpt} was trained with {key}=" in caplog.text
    assert "'train fdunet'" in caplog.text
    assert bundle_file(ckpt).read_bytes() == saved


@pytest.mark.parametrize("stage, ckpt, command", [
    ("eval", "fdunet.ckpt", "train fdunet"),
    ("emit", "fdunet.ckpt", "train fdunet"),
    ("train-diffusion", "cip_lbp.ckpt", "train cip --condition-on lbp"),
])
def test_checkpoint_of_other_data_exits_3(tiny_run, tmp_path, caplog, stage,
                                          ckpt, command):
    """After a rebuild on another seed the checkpoints hold models of data
    the run no longer has: each stage that reads one with the dataset
    refuses it, naming both data hashes and the command to rerun."""
    common, data_dir, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    argv = [*common[:2], "--run-dir", str(run),
            "--set", "dataset.master_seed=8"]
    assert cli.main(["dataset", "build", "--force", *argv]) == 0
    old = DatasetManifest.read(data_dir).data_sha256
    manifest = DatasetManifest.read(run / "dataset")
    out = tmp_path / "report"
    if stage == "emit":
        cfg = load_config(common[1], {"dataset": {"master_seed": 8}})
        with pytest.raises(PrerequisiteError) as exc:
            training.emit_fdunet_outputs(cfg, run, manifest)
        text = str(exc.value)
    else:
        stage_argv = (["eval", "--methods", "fdunet", "--out", str(out)]
                      if stage == "eval" else
                      ["train", "diffusion", "--condition-on", "lbp"])
        with caplog.at_level(logging.ERROR, logger="oatdar"):
            assert cli.main([*stage_argv, *argv]) == 3
        text = caplog.text
    assert (f"{run / 'checkpoints' / ckpt} was trained with data_sha256={old}"
            f", this run has data_sha256={manifest.data_sha256}") in text
    assert f"'{command}'" in text
    assert not out.exists()
    assert not list((run / "dataset").glob("fdunet_*"))


@pytest.mark.parametrize("ckpt, section, key, command", [
    pytest.param("fdunet.ckpt", "fd_unet", "seed", "train fdunet",
                 id="fdunet"),
    pytest.param("denoiser_fdunet.ckpt", "denoiser", "norm_groups",
                 "train diffusion --condition-on fdunet", id="denoiser"),
])
def test_checkpoint_of_a_removed_model_key_exits_2(tiny_run, tmp_path, caplog,
                                                   ckpt, section, key,
                                                   command):
    """A checkpoint written while its model config still held a key that is
    now a constant names itself and the command that rewrites it."""
    common, data_dir, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    bundle = run / "checkpoints" / ckpt
    arrays, meta = read_bundle(bundle)
    meta["config"][section][key] = 100
    write_bundle(bundle, arrays, meta)
    out = tmp_path / "report"
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["eval", *common[:2], "--run-dir", str(run),
                         "--out", str(out)]) == 2
    assert str(run / "checkpoints" / ckpt) in caplog.text
    assert f"unknown config key: {section}.{key}" in caplog.text
    assert f"'{command}'" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["phantom", "operator", "simulate",
                                     "dataset"])
def test_output_that_cannot_be_written_exits_2(tmp_path, caplog, command):
    """A write to the path an output flag names that fails (a missing
    parent directory, a directory that is not a bundle, a file where the
    run directory goes) is a config error naming the flag."""
    missing = str(tmp_path / "missing" / "x.oatd")
    not_a_bundle = tmp_path / "notes"
    not_a_bundle.mkdir()
    (not_a_bundle / "keep.txt").write_text("not a bundle")
    a_file = tmp_path / "file"
    a_file.write_text("")
    phantom = tmp_path / "p.oatd"
    write_tensor(phantom, np.random.default_rng(0).random((32, 32)))
    argv, flag = {
        "phantom": (["phantom", "--out", str(tmp_path / "missing" / "x.pgm")],
                    "--out"),
        "operator": (["operator", "--out", str(not_a_bundle)], "--out"),
        "simulate": (["simulate", "--phantom", str(phantom),
                      "--out", missing], "--out"),
        "dataset": (["dataset", "build", "--run-dir", str(a_file)],
                    "--run-dir"),
    }[command]
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(argv) == 2
    assert f"config error: {flag}: " in caplog.text
    assert not (tmp_path / "missing").exists()
    assert [f.name for f in not_a_bundle.iterdir()] == ["keep.txt"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_corrupt_dataset_file_exits_2(tiny_run, tmp_path, caplog, command):
    """train backprojects the train split's sinograms and eval reads the
    test entry's phantom; either one replaced with junk fails as the
    dataset build's validation does."""
    common, data_dir, entry, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    (train_entry,) = DatasetManifest.read(data_dir).split("train")[:1]
    junk = (entry_file(run / "dataset", "sinogram", train_entry.index)
            if command == "train"
            else entry_file(run / "dataset", "phantom", entry.index))
    junk.write_bytes(b"junk")
    argv = (["train", "fdunet"] if command == "train"
            else ["eval", "--methods", "lbp", "--out", str(tmp_path / "r")])
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main([*argv, *common[:2], "--run-dir", str(run)]) == 2
    assert "dataset failed validation" in caplog.text
    assert str(junk) in caplog.text


def _corrupt(bundle, junk):
    """Corrupt the checkpoint ``bundle``: ``junk`` bytes replace its header
    JSON, or a name says how the bytes of its file are changed."""
    if isinstance(junk, bytes):
        set_bundle_header(bundle, junk)
        return
    raw = bytearray(bundle_file(bundle).read_bytes())
    if junk == "directory":    # the older format, one file per array
        shutil.rmtree(bundle)
        bundle.mkdir()
        (bundle / "a0000.oatd").write_bytes(raw)
        (bundle / "bundle.json").write_text(json.dumps(
            {"format": "oatdar-bundle", "arrays": {"w": "a0000.oatd"},
             "meta": {}}))
        return
    if junk == "payload-crc":  # the last payload byte of the last record
        raw[-5] ^= 1
    elif junk == "truncated":
        del raw[-10:]
    else:                      # trailing bytes
        raw += b"\0"
    bundle_file(bundle).write_bytes(bytes(raw))


@pytest.mark.parametrize("argv, ckpt, junk, command", [
    pytest.param(["eval", "--methods", "fdunet"], "fdunet.ckpt",
                 "payload-crc", "train fdunet", id="eval"),
    pytest.param(["reconstruct", "dar_lbp"], "denoiser_lbp.ckpt",
                 "payload-crc", "train diffusion --condition-on lbp",
                 id="reconstruct"),
    pytest.param(["train", "fdunet", "--resume"], "fdunet.ckpt",
                 b"\xffjunk", "train fdunet", id="train-resume"),
    pytest.param(["train", "diffusion"], "cip_fdunet.ckpt", b"\xffjunk",
                 "train cip --condition-on fdunet", id="train-diffusion"),
    pytest.param(["eval", "--methods", "fdunet"], "fdunet.ckpt", b"[]",
                 "train fdunet", id="eval-header-list"),
    pytest.param(["eval", "--methods", "fdunet"], "fdunet.ckpt",
                 "directory", "train fdunet", id="eval-directory-format"),
    pytest.param(["train", "fdunet", "--resume"], "fdunet.ckpt",
                 "directory", "train fdunet",
                 id="train-resume-directory-format"),
    pytest.param(["eval", "--methods", "dar_lbp"], "denoiser_lbp.ckpt",
                 "truncated", "train diffusion --condition-on lbp",
                 id="eval-truncated"),
    pytest.param(["reconstruct", "fdunet"], "fdunet.ckpt", "trailing",
                 "train fdunet", id="reconstruct-trailing-bytes"),
    # a dict sets the checkpoint's meta value at each dotted key; None
    # deletes the key
    pytest.param(["eval", "--methods", "fdunet"], "fdunet.ckpt",
                 {"config": None, "data_sha256": None}, "train fdunet",
                 id="eval-old-format"),
    pytest.param(["eval", "--methods", "fdunet"], "fdunet.ckpt",
                 {"config.fd_unet": None}, "train fdunet",
                 id="eval-no-model-config"),
    pytest.param(["eval", "--methods", "fdunet"], "fdunet.ckpt",
                 {"config.fd_unet.scales": 3}, "train fdunet",
                 id="eval-scalar-fd-unet-scales"),
    pytest.param(["eval", "--methods", "dar_lbp"], "denoiser_lbp.ckpt",
                 {"config.patch": None}, "train diffusion --condition-on lbp",
                 id="eval-no-patch"),
    pytest.param(["eval", "--methods", "dar_lbp"], "denoiser_lbp.ckpt",
                 {"config.patch": {}}, "train diffusion --condition-on lbp",
                 id="eval-empty-patch"),
    pytest.param(["eval", "--methods", "dar_lbp"], "denoiser_lbp.ckpt",
                 {"config.schedule": None}, "train diffusion --condition-on lbp",
                 id="eval-no-schedule"),
    pytest.param(["eval", "--methods", "dar_lbp"], "denoiser_lbp.ckpt",
                 {"config.schedule.T": None},
                 "train diffusion --condition-on lbp",
                 id="eval-schedule-without-T"),
    # the CIP widths are computed: a stored cip section is an unknown key
    pytest.param(["train", "diffusion", "--condition-on", "lbp"],
                 "cip_lbp.ckpt",
                 {"config.cip": {"layer_dims": [256, 192, 128, 64]}},
                 "train cip --condition-on lbp",
                 id="train-diffusion-stored-cip-section"),
    pytest.param(["train", "fdunet", "--resume"], "fdunet.ckpt",
                 {"opt_step": None}, "train fdunet",
                 id="train-resume-no-opt-step"),
    pytest.param(["train", "fdunet", "--resume"], "fdunet.ckpt",
                 {"rng_state": 3}, "train fdunet",
                 id="train-resume-bad-rng-state"),
    pytest.param(["train", "fdunet", "--resume"], "fdunet.ckpt",
                 {"rng_state": {}}, "train fdunet",
                 id="train-resume-empty-rng-state"),
    pytest.param(["train", "fdunet", "--resume"], "fdunet.ckpt",
                 {"rng_state.state.state": -1}, "train fdunet",
                 id="train-resume-negative-rng-state"),
    pytest.param(["train", "fdunet", "--resume"], "fdunet.ckpt",
                 {"rng_state.uinteger": 2**32}, "train fdunet",
                 id="train-resume-over-range-rng-uinteger"),
    pytest.param(["train", "fdunet", "--resume"], "fdunet.ckpt",
                 {"rng_state.has_uint32": 2}, "train fdunet",
                 id="train-resume-rng-has-uint32-not-0-or-1"),
])
def test_corrupt_checkpoint_exits_2(tiny_run, tmp_path, caplog, argv, ckpt,
                                   junk, command):
    """A bad payload CRC, a header that is not UTF-8 or of the wrong shape,
    a truncated file or one with trailing bytes, a checkpoint of the older
    directory format, a meta without a config or with one the config rules
    refuse, or a resume state of other types or out of the generator's
    range, in a checkpoint names the checkpoint and the command that
    rewrites it."""
    common, data_dir, entry, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    bundle = run / "checkpoints" / ckpt
    if isinstance(junk, dict):
        arrays, meta = read_bundle(bundle)
        for dotted, value in junk.items():
            *path, key = dotted.split(".")
            node = meta
            for k in path:
                node = node[k]
            if value is None:
                node.pop(key)
            else:
                node[key] = value
        write_bundle(bundle, arrays, meta)
    else:
        _corrupt(bundle, junk)
    out = tmp_path / "out"
    io = {"eval": ["--out", str(out)], "train": [],
          "reconstruct": ["--sino", _sino(data_dir, entry), "--out",
                          str(out)]}[argv[0]]
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main([*argv, *common[:2], "--run-dir", str(run),
                         *io]) == 2
    # named once, as the fault's source
    assert caplog.text.count(f"{run / 'checkpoints' / ckpt}: ") == 1
    assert f"run '{command}' to rewrite it" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("setting, stored", [
    (["geometry.grid_nx=48", "geometry.grid_ny=48"], "image shape"),
    (["geometry.detector_count=15"], "sinogram shape"),
], ids=["grid", "detectors"])
def test_dataset_of_another_geometry_exits_2(tiny_run, tmp_path, caplog,
                                             command, setting, stored):
    """train and eval compute the LBP from the stored sinograms on the
    config's geometry: a stored phantom or sinogram that does not fit it
    fails the dataset's validation."""
    common, data_dir, *_ = tiny_run
    run = tmp_path / "run"
    shutil.copytree(data_dir.parent / "checkpoints", run / "checkpoints")
    shutil.copytree(data_dir, run / "dataset")
    argv = (["train", "fdunet"] if command == "train"
            else ["eval", "--methods", "lbp", "--out", str(tmp_path / "r")])
    sets = [arg for kv in setting for arg in ("--set", kv)]
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main([*argv, *common[:2], "--run-dir", str(run),
                         *sets]) == 2
    assert f"dataset failed validation: {stored}" in caplog.text


@pytest.mark.parametrize("command", ["train", "eval"])
def test_missing_dataset_exits_3(tiny_run, tmp_path, caplog, command):
    """A run directory without a dataset is a missing prerequisite, and
    train creates nothing before it finds that out."""
    common, *_ = tiny_run
    run = tmp_path / "fresh"
    argv = (["train", "fdunet"] if command == "train"
            else ["eval", "--methods", "lbp"])
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main([*argv, *common[:2], "--run-dir", str(run)]) == 3
    assert "run 'dataset build' first" in caplog.text
    assert not run.exists()


def test_run_all_report_that_cannot_be_written_exits_2(tmp_path, caplog):
    """run-all writes its report as eval does: a reports path that is a
    file is a config error naming --run-dir."""
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    run = tmp_path / "run"
    run.mkdir()
    (run / "reports").write_text("")
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["run-all", "--config", str(cfg_path),
                         "--run-dir", str(run)]) == 2
    assert "config error: --run-dir: " in caplog.text
