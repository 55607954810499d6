"""Config values keep the type of the profile default."""

import pytest

from oatdar import cli
from oatdar.config import load_config
from oatdar.errors import ConfigError


@pytest.mark.parametrize("assignment", ['geometry.grid_nx="abc"',
                                        'eval.tikhonov_iters="x"'])
def test_set_of_the_wrong_type_exits_2(tmp_path, assignment):
    out = tmp_path / "phantom.oatd"
    assert cli.main(["phantom", "--out", str(out), "--set", assignment]) == 2
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
