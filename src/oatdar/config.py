"""Pipeline configuration: one structured JSON file, strict validation,
profile defaults, and a canonical content hash logged by every run.

Two built-in profiles: ``desk`` (32x32 grid, 16 detectors, 256 samples,
T=200 — the whole pipeline trains in about an hour on a CPU) and ``paper``
(the full-scale reference geometry and model sizes; provided for
completeness, not exercised by the test suite).

A value the program sets one way is a constant where it is used, not a key:
``optim.ADAM_BETA1``/``ADAM_BETA2``, ``models.FDUNET_SEED``/``CIP_SEED``/
``DENOISER_SEED``/``ATTENTION_HEADS``/``CIP_LAYERS``, ``layers.NORM_GROUPS``
and ``phantoms.MAX_ATTEMPTS``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

from .diffusion import (check_eta, make_inference_timesteps,
                        schedule_from_config)
from .errors import ConfigError, blame
from .geometry import ImagingGeometry
from .models import CIP_LAYERS, DenoiserConfig, FDUNetConfig, check_layer_dims
from .operator import check_tikhonov
from .optim import OptimizerState
from .phantoms import PhantomParams


def desk_config() -> dict:
    return {
        "profile": "desk",
        "geometry": {
            "grid_nx": 32, "grid_ny": 32, "pixel_pitch": 110e-6,
            "detector_count": 16, "ring_radius": 11e-3,
            "position_jitter_frac": 1e-3, "sound_speed": 1490.0,
            "dt": 1.0 / 24.4e6, "time_samples": 256,
            "sir_subelements": 4, "sensor_diameter": 3e-3, "jitter_seed": 0,
        },
        "phantom": {
            "n_trees": [2, 5], "branch_depth": [2, 4],
            "segment_curvature": [0.08, 0.35], "vessel_width_px": [1.2, 3.5],
            "intensity_range": [0.4, 1.0], "fill_fraction_target": [0.03, 0.16],
        },
        "schedule": {"T": 200, "beta1": 1e-4, "betaT": 0.02},
        "patch": {"h": 16, "w": 16},
        "fd_unet": {"scales": [12, 24, 48], "growth": 10,
                    "layers_per_block": 3},
        "denoiser": {"scales": [16, 32, 64], "resblocks_per_scale": 1,
                     "cond_dim": 64, "cond_tokens": 8, "time_embed_dim": 64},
        "training": {"learning_rate": 1e-4, "epochs": 20, "batch_size": 16},
        "dataset": {"train": 2000, "val": 50, "test": 50,
                    "snr_db_range": [20.0, 80.0], "master_seed": 7},
        "inference": {"nis": 25, "eta": 0.0, "seed": 1234},
        "eval": {"tikhonov_lambda": 1e-2, "tikhonov_iters": 100,
                 "tikhonov_tol": 1e-8},
    }


def paper_config() -> dict:
    """The desk profile with the reference geometry, model sizes and
    dataset; every other value is the desk one.

    It runs end to end at 4 training images (``run-all`` in 146 s), but its
    learned half cannot train on a 2-core, 8 GB machine: the denoiser and
    its encoder hold 130 M parameters, a step at batch 4 takes ~12 s and
    peaks at 6.0 GB, so one epoch over 64 000 images would take ~9 days.
    ``configs/paper_geometry.json`` pairs this geometry with the desk
    networks instead."""
    return _merge_checked(desk_config(), {
        "profile": "paper",
        "geometry": {"grid_nx": 128, "grid_ny": 128, "detector_count": 36,
                     "ring_radius": 44e-3, "time_samples": 1024,
                     "sir_subelements": 8, "sensor_diameter": 13e-3},
        "schedule": {"T": 1000},
        "patch": {"h": 64, "w": 64},
        "fd_unet": {"scales": [64, 128, 256], "growth": 16,
                    "layers_per_block": 4},
        "denoiser": {"scales": [128, 256, 512, 1024],
                     "resblocks_per_scale": 2, "cond_dim": 1024,
                     "cond_tokens": 16, "time_embed_dim": 128},
        "training": {"epochs": 200},
        "dataset": {"train": 64000, "val": 10000, "test": 600},
    })


_PROFILES = {"desk": desk_config, "paper": paper_config}
# the sections that define a checkpoint's model: a run reads a checkpoint
# only if its config equals the checkpoint's in these
MODEL_SECTIONS = ("geometry", "schedule", "patch", "fd_unet", "denoiser")
# the sections a dataset build reads: the manifest's config hash covers them
DATA_SECTIONS = ("geometry", "phantom", "dataset")


def _same_type(default, val) -> bool:
    """Whether ``val`` may replace ``default``: an int may stand in for a
    float, a bool is not an int, and list items match the default's first."""
    if isinstance(default, list):
        return isinstance(val, list) and all(_same_type(default[0], v)
                                             for v in val)
    if isinstance(default, float) and type(val) is int:
        return True
    return type(val) is type(default)


def _merge_checked(base, override, path="", complete=False):
    """``base`` overridden; ``complete``: ``override`` must set every key."""
    missing = sorted(base.keys() - override.keys()) if complete else []
    if missing:
        raise ConfigError("missing config key: "
                          + (f"{path}.{missing[0]}" if path else missing[0]))
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where} must be a section")
            out[key] = _merge_checked(base[key], val, where, complete)
        elif not _same_type(base[key], val):
            raise ConfigError(f"{where} must be of the type of "
                              f"{base[key]!r}, got {val!r}")
        else:
            out[key] = val
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    """The effective config: profile defaults <- file ``path`` <-
    ``overrides``, checked by :func:`checked_config`."""
    file_cfg = {}
    if path is not None:
        with blame(f"config {path}"):
            file_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    return checked_config(file_cfg, overrides)


def checked_config(cfg, overrides=None, complete=False) -> dict:
    """``cfg`` merged onto its profile's defaults, then ``overrides``, and
    validated: a key the profile lacks, a value of another type and, if
    ``complete`` (a config stored in full), a key ``cfg`` lacks are refused."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be an object, got "
                          + type(cfg).__name__)
    profile = cfg.get("profile", "desk")
    if not isinstance(profile, str) or profile not in _PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    cfg = _merge_checked(_PROFILES[profile](), cfg, complete=complete)
    if overrides:
        cfg = _merge_checked(cfg, overrides)
    validate_config(cfg)
    return cfg


def apply_flag_overrides(cfg_overrides: dict, assignments: list):
    """Parse repeated ``--set section.key=value`` flags (values are JSON)."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        if len(keys) < 2:
            raise ConfigError(f"--set key must be dotted (section.key): {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg_overrides
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {item!r}: {k} is not a section")
        node[keys[-1]] = value
    return cfg_overrides


def validate_config(cfg: dict):
    """Raise :class:`ConfigError` for a config the pipeline cannot run; each
    section is checked by the code that uses its values."""
    geom = geometry_from_config(cfg)          # raises GeometryError on junk
    ph, pw = cfg["patch"]["h"], cfg["patch"]["w"]
    if min(ph, pw) < 1 or geom.grid_ny % ph or geom.grid_nx % pw:
        raise ConfigError(f"patch {ph}x{pw} does not tile the "
                          f"{geom.grid_ny}x{geom.grid_nx} grid")
    PhantomParams.from_dict({**cfg["phantom"], "seed": 0})
    den = DenoiserConfig.from_dict(cfg["denoiser"])
    fd = FDUNetConfig.from_dict(cfg["fd_unet"])
    check_layer_dims(cip_widths(cfg))
    # each UNet halves its input once per scale after the first
    for block, (h, w), n in (("denoiser", (ph, pw), len(den.scales)),
                             ("fd_unet", geom.image_shape, len(fd.scales))):
        if h % (1 << (n - 1)) or w % (1 << (n - 1)):
            raise ConfigError(f"{block} input {h}x{w} cannot be pooled "
                              f"through {n} scales")
    make_inference_timesteps(schedule_from_config(cfg).T,
                             cfg["inference"]["nis"])
    check_eta(cfg["inference"]["eta"])
    ev = cfg["eval"]
    check_tikhonov(ev["tikhonov_lambda"], ev["tikhonov_iters"],
                   ev["tikhonov_tol"])
    tr = cfg["training"]
    OptimizerState(tr["learning_rate"])
    ds = cfg["dataset"]
    if min(ds["train"], ds["val"], ds["test"]) < 0 or ds["train"] < 1:
        raise ConfigError("dataset split sizes invalid")
    snr = ds["snr_db_range"]
    if len(snr) != 2 or not -math.inf < snr[0] <= snr[1] < math.inf:
        raise ConfigError("snr_db_range must be a finite, ordered [lo, hi]")
    if tr["epochs"] < 0 or tr["batch_size"] < 1:
        raise ConfigError("training section invalid")
    seeds = {f"{section}.{key}": val for section, values in cfg.items()
             if isinstance(values, dict)
             for key, val in values.items() if key.endswith("seed")}
    for where, seed in seeds.items():
        if seed < 0:
            raise ConfigError(f"{where} must be >= 0, got {seed}")


def cip_widths(cfg: dict) -> tuple:
    """The CIP's widths: a patch's pixels narrowed to ``denoiser.cond_dim``."""
    p, c = cfg["patch"]["h"] * cfg["patch"]["w"], cfg["denoiser"]["cond_dim"]
    return tuple(p - i * (p - c) // CIP_LAYERS for i in range(CIP_LAYERS + 1))


def geometry_from_config(cfg: dict) -> ImagingGeometry:
    return ImagingGeometry.from_dict(cfg["geometry"])


def phantom_params_from_config(cfg: dict, seed: int) -> PhantomParams:
    return PhantomParams.from_dict({**cfg["phantom"], "seed": seed})


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
