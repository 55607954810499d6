"""Config values keep the type of the profile default."""

import json
import logging
from pathlib import Path

import pytest

from oatdar import cli
from oatdar.config import (MODEL_SECTIONS, cip_widths, config_hash,
                           desk_config, load_config, paper_config)
from oatdar.errors import ConfigError


@pytest.mark.parametrize("assignment", ['geometry.grid_nx="abc"',
                                        'eval.tikhonov_iters="x"'])
def test_set_of_the_wrong_type_exits_2(tmp_path, assignment):
    out = tmp_path / "phantom.oatd"
    assert cli.main(["phantom", "--out", str(out), "--set", assignment]) == 2
    assert not out.exists()


@pytest.mark.parametrize("text, sets", [
    (b"{}", ["geometry.grid_nx=32", "geometry.grid_nx.foo=1"]),
    (b'{"profile": ["desk"]}', []),
    (b'{"profile": {"desk": 1}}', []),
    (b'{"profile": "d\xe9sk"}', []),
], ids=["set-inside-a-value", "list-profile", "object-profile", "not-utf8"])
def test_malformed_config_input_exits_2(tmp_path, text, sets):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(text)
    out = tmp_path / "phantom.oatd"
    assert cli.main(["phantom", "--config", str(cfg_path), "--out", str(out),
                     *[arg for kv in sets for arg in ("--set", kv)]]) == 2
    assert not out.exists()


def test_an_int_stands_in_for_a_float():
    cfg = load_config(None, {"training": {"learning_rate": 1},
                             "dataset": {"snr_db_range": [20, 80]}})
    assert cfg["training"]["learning_rate"] == 1
    assert cfg["dataset"]["snr_db_range"] == [20, 80]


@pytest.mark.parametrize("override", [
    {"training": {"epochs": True}},          # a bool is not an int
    {"training": {"learning_rate": False}},
    {"dataset": {"train": 2.0}},             # a float is not an int
    {"eval": {"tikhonov_lambda": "0.1"}},
    {"fd_unet": {"scales": [12, "24", 48]}},
    {"dataset": {"snr_db_range": 20.0}},
])
def test_values_of_another_type_are_rejected(override):
    with pytest.raises(ConfigError):
        load_config(None, override)


def test_schedule_sigma_mode_is_an_unknown_key(tmp_path):
    """The reverse step is DDIM alone, so there is no ancestral noise scale
    to choose; a config that still sets one exits 2."""
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text('{"schedule": {"T": 20, "sigma_mode": "beta"}}')
    out = tmp_path / "phantom.oatd"
    assert cli.main(["phantom", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("setting", ["geometry.detector_angles=[0.0]",
                                     "geometry.voxel_volume=1e-12"])
def test_computed_geometry_values_are_unknown_keys(tmp_path, caplog, setting):
    """The detector angles (2*pi*l/L) and the voxel volume (pitch**3) are
    computed, so no config sets either."""
    out = tmp_path / "phantom.oatd"
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["phantom", "--out", str(out), "--set", setting]) == 2
    assert f"unknown config key: {setting.split('=')[0]}" in caplog.text
    assert not out.exists()


# each of these settings had one value in every profile and is a constant of
# the module that uses it; a config that still sets one exits 2
REMOVED_KEYS = {
    "training.adam_beta1": 0.9, "training.adam_beta2": 0.999,
    "fd_unet.seed": 100, "cip.seed": 200, "denoiser.seed": 300,
    "denoiser.attention_heads": 4, "denoiser.norm_groups": 8,
    "phantom.max_attempts": 20,
}
# the key the error names where the whole section is gone
REPORTED_KEY = {"cip.seed": "cip"}


@pytest.mark.parametrize("key", REMOVED_KEYS)
@pytest.mark.parametrize("given", ["file", "set"])
def test_constant_settings_are_unknown_keys(tmp_path, caplog, key, given):
    section, name = key.split(".")
    value = REMOVED_KEYS[key]
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps(
        {section: {name: value}} if given == "file" else {}))
    out = tmp_path / "phantom.oatd"
    with caplog.at_level(logging.ERROR, logger="oatdar"):
        assert cli.main(["phantom", "--config", str(cfg_path),
                         "--out", str(out)]
                        + (["--set", f"{key}={value}"] if given == "set"
                           else [])) == 2
    assert (f"unknown config key: {REPORTED_KEY.get(key, key)}\n"
            in caplog.text)
    assert not out.exists()


@pytest.mark.parametrize("assignment", [
    "denoiser.scales=[]", "patch.h=0", "dataset.snr_db_range=[20.0]",
    "denoiser.cond_dim=256", "denoiser.time_embed_dim=7",
    "denoiser.cond_tokens=7", "denoiser.attention_heads=3",
    "denoiser.norm_groups=0", "denoiser.cond_dim=512",
    "fd_unet.growth=0", "fd_unet.scales=[4,4,4,4,4,4,4]",
    "phantom.n_trees=[2]", "phantom.max_attempts=0",
    "eval.tikhonov_lambda=-1", "eval.tikhonov_lambda=Infinity",
    "eval.tikhonov_iters=0", "eval.tikhonov_tol=0",
    "geometry.jitter_seed=-1", "fd_unet.seed=-1", "cip.seed=-1",
    "denoiser.seed=-1", "dataset.master_seed=-1", "inference.seed=-1",
    "training.learning_rate=NaN", "training.adam_beta1=2.0",
    "training.adam_beta2=-1.0", "schedule.beta1=1e-20",
    "dataset.snr_db_range=[20.0,Infinity]",
    "dataset.snr_db_range=[-Infinity,20.0]",
])
def test_bad_model_config_exits_2_before_any_work(tmp_path, assignment):
    """Every rule of a model section is checked when the config loads, so
    run-all neither crashes in validation nor trains earlier stages first."""
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text('{"dataset": {"train": 1, "val": 0, "test": 1}, '
                        '"training": {"epochs": 0}}')
    run = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(cfg_path), "--run-dir",
                     str(run), "--set", assignment]) == 2
    assert not run.exists()


def test_config_error_is_a_value_error():
    """A direct caller of a function that checks its config value catches
    the ValueError it expects for a bad argument."""
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("argv", [
    ["phantom", "--seed", "-3"],
    ["simulate", "--phantom", "p.oatd", "--seed", "-1"],
])
def test_negative_seed_flag_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.oatd"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "--seed: must be an integer >= 0" in capsys.readouterr().err


def test_profile_hashes_are_pinned():
    """The paper profile is the desk one plus its differences."""
    assert config_hash(desk_config()) == "c055c59eca0dd573"
    assert config_hash(paper_config()) == "62cc18ce6f0df366"


def test_cip_widths_narrow_the_patch_to_the_conditioning_width():
    """Both profiles narrow a patch's pixels to ``denoiser.cond_dim`` in
    three equal steps; a conditioning width that leaves no strictly
    narrowing CIP for the desk's 256-pixel patch is refused."""
    assert cip_widths(desk_config()) == (256, 192, 128, 64)
    assert cip_widths(paper_config()) == (4096, 3072, 2048, 1024)
    for cond_dim in (256, 512):
        with pytest.raises(ConfigError, match="CIP widths must strictly"):
            load_config(None, {"denoiser": {"cond_dim": cond_dim}})


def test_paper_geometry_config_has_the_desk_networks():
    """configs/paper_geometry.json: the paper's geometry and data with the
    desk models, for testing the claim at the paper's geometry."""
    root = Path(__file__).resolve().parents[1]
    cfg = load_config(root / "configs" / "paper_geometry.json")
    desk, paper = desk_config(), paper_config()
    for section in MODEL_SECTIONS:
        assert cfg[section] == (paper if section == "geometry" else desk)[
            section], section
    assert {k: v for k, v in cfg.items() if k not in MODEL_SECTIONS} == {
        k: v for k, v in paper.items() if k not in MODEL_SECTIONS}
    assert cip_widths(cfg) == (256, 192, 128, 64)
