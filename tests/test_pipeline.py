import json
import logging

import numpy as np
import pytest

from oatdar import cli
from oatdar.config import geometry_from_config, load_config
from oatdar.dataset import DatasetManifest, entry_file
from oatdar.errors import ConfigError
from oatdar.geometry import Image, Sinogram
from oatdar.metrics import psnr
from oatdar.operator import apply_forward, build_forward_operator
from oatdar.pipeline import (ModelBundle, check_methods, evaluate_methods,
                             export_image, reconstruct_dar, reconstruct_lbp,
                             reconstruct_tikhonov)
from oatdar.tensorfile import read_tensor

TINY = {"profile": "desk", "dataset": {"train": 1, "val": 0, "test": 1}}


def test_evaluate_without_a_method_raises_before_any_work(tmp_path):
    # neither the config, the run directory nor the manifest is read
    with pytest.raises(ConfigError, match="no method"):
        evaluate_methods({}, tmp_path / "missing", None, [])


def test_check_methods_expands_dar_over_the_step_counts():
    cfg = load_config()
    assert check_methods(cfg, ["dar_lbp", "lbp", "dar"], [1, 3]) == [
        ("dar_lbp", 1), ("dar_lbp", 3), ("lbp", 0), ("dar", 1), ("dar", 3)]
    assert check_methods(cfg, ["dar"]) == [("dar", cfg["inference"]["nis"])]
    # without a DAR method neither the step counts nor the config are read
    assert check_methods({}, ["tikhonov", "fdunet"], [0]) == [
        ("tikhonov", 0), ("fdunet", 0)]


def test_eval_snr_inf_scores_the_clean_simulation(tmp_path):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    run = tmp_path / "run"
    common = ["--config", str(cfg_path), "--run-dir", str(run)]
    assert cli.main(["dataset", "build", *common]) == 0
    assert cli.main(["eval", *common, "--methods", "lbp", "--snr", "inf,30",
                     "--out", str(tmp_path / "report")]) == 0
    rows = (tmp_path / "report" / "records.tsv").read_text().splitlines()
    assert [r.split("\t")[3] for r in rows[3:]] == ["inf", "30.0"]
    # one summary row per SNR of the sweep, not one pooling both
    summary = (tmp_path / "report" / "summary.txt").read_text().splitlines()
    assert [row.split()[:2] for row in summary[1:]] == [["lbp@snr=inf", "1"],
                                                         ["lbp@snr=30", "1"]]
    assert cli.main(["eval", *common, "--methods", "lbp", "--snr=-inf",
                     "--out", str(tmp_path / "bad")]) == 2

    cfg = load_config(cfg_path)
    manifest = DatasetManifest.read(run / "dataset")
    report = evaluate_methods(cfg, run, manifest, ["lbp"], snr_list=[np.inf])
    (rec,) = report.records
    (entry,) = manifest.split("test")
    gt = read_tensor(entry_file(run / "dataset", "phantom", entry.index))
    geom = geometry_from_config(cfg)
    clean = apply_forward(build_forward_operator(geom, jittered=True),
                          Image(gt))
    want = reconstruct_lbp(build_forward_operator(geom), clean)
    assert rec.snr_db == np.inf
    assert rec.psnr == psnr(want.data, gt)


def test_simulate_rejects_non_finite_snr(tmp_path):
    phantom = tmp_path / "phantom.oatd"
    assert cli.main(["phantom", "--out", str(phantom)]) == 0
    common = ["simulate", "--phantom", str(phantom)]
    for snr in ("-inf", "nan"):
        out = tmp_path / f"sino_{snr}.oatd"
        assert cli.main([*common, f"--snr={snr}", "--out", str(out)]) == 2
        assert not out.exists()
    clean = tmp_path / "clean.oatd"
    assert cli.main([*common, "--snr=inf", "--out", str(clean)]) == 0
    assert np.all(np.isfinite(read_tensor(clean)))


@pytest.mark.parametrize("name", ["img.pgm", "img.oatd", "img.bin", "img"])
def test_export_format_follows_the_suffix(tmp_path, name):
    data = np.random.default_rng(3).random((6, 9))
    path = export_image(Image(data), tmp_path / name)
    if name.endswith(".pgm"):
        assert path.read_bytes().startswith(b"P5\n9 6\n65535\n")
    else:
        assert np.array_equal(read_tensor(path), data)


def test_dar_rejects_an_unknown_initial_reconstruction():
    geom = geometry_from_config(load_config())
    with pytest.raises(ValueError, match="condition_on"):
        reconstruct_dar(None, ModelBundle(), geom, nis=1, eta=0.0, seed=0,
                        condition_on="tikhonov", rec_op=None)


def test_unconverged_tikhonov_warns_with_its_cg_record(tik_geometry, caplog):
    op = build_forward_operator(tik_geometry)
    sino = Sinogram(np.random.default_rng(13)
                    .standard_normal(tik_geometry.sinogram_shape))
    with caplog.at_level(logging.WARNING, logger="oatdar.pipeline"):
        reconstruct_tikhonov(op, sino, 1e-2, max_iters=1, tol=1e-12)
    (warning,) = caplog.records
    assert warning.levelno == logging.WARNING
    assert "stopped unconverged after 1 iterations" in warning.getMessage()
    assert "relative residual" in warning.getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="oatdar.pipeline"):
        reconstruct_tikhonov(op, sino, 1e-2, max_iters=2000, tol=1e-6)
    assert not caplog.records
