"""Procedural vessel-like phantoms.

Phantoms are branching trees of tapered capsule segments rasterized with
subpixel-exact distances. Coverage is binary: a pixel is foreground iff its
center lies within a segment's half-width, and it then carries exactly the
vessel's intensity (max-composited across overlaps). Background is exactly
zero. Generation is bit-deterministic given the parameter seed.

That promise fixes the draw order. Attempt a draws from
``default_rng(SeedSequence((seed, a)))``: the tree count, then per tree
its depth, intensity, width, start point (one uniform of size 2) and
angle, then per branch, last pushed first, its curvature, step count,
step length, the step count's turns (one ``normal`` call of that size,
the same draws as that many scalar calls) and, for an inner branch, the
spread and each child's width. :func:`_grow_tree` runs on Python floats
with ``math.cos``/``math.sin`` and draws a uniform on [lo, hi) as
``lo + (hi - lo) * rng.random()``, which is what ``Generator.uniform``
computes from the same draw, bit for bit. ``tests/test_phantoms.py``
keeps the form on numpy scalars as its oracle.

Each attempt grows its trees into one segment list and hands it to
:func:`kernels.render_capsules`, which rasterizes all segments in one
vectorized pass (in chunks of at most ``kernels._RASTER_CHUNK`` bounding-box
pixels) and writes only the pixels a segment covers; the attempt starts from
zeros, so every other pixel stays exactly zero.

A user-supplied phantom does not pass through here: it enters as tensor data
through ``oatdar simulate --phantom``, at exactly the configured grid shape,
and PGM is only ever written (``pipeline.export_image``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError
from .geometry import Image

log = logging.getLogger(__name__)

MAX_ATTEMPTS = 20  # phantom draws per seed before the closest one is kept


def _check_range(name, rng_pair, lo=None, hi=None):
    if len(rng_pair) != 2:
        raise ConfigError(f"{name} must be a [lo, hi] pair, got {rng_pair}")
    a, b = rng_pair
    if not a <= b:
        raise ConfigError(f"{name} range {rng_pair} is not ordered")
    if lo is not None and a < lo:
        raise ConfigError(f"{name} range {rng_pair} below {lo}")
    if hi is not None and b > hi:
        raise ConfigError(f"{name} range {rng_pair} above {hi}")


@dataclass(frozen=True)
class PhantomParams:
    seed: int = 0
    n_trees: tuple = (2, 5)
    branch_depth: tuple = (2, 4)
    segment_curvature: tuple = (0.08, 0.35)    # radians per step
    vessel_width_px: tuple = (1.2, 3.5)
    intensity_range: tuple = (0.4, 1.0)
    fill_fraction_target: tuple = (0.03, 0.16)

    def __post_init__(self):
        _check_range("n_trees", self.n_trees, lo=1)
        # a tree has 2**(depth + 1) - 1 branches: depth 12 is 8191 of them
        _check_range("branch_depth", self.branch_depth, lo=0, hi=12)
        _check_range("segment_curvature", self.segment_curvature, lo=0.0)
        _check_range("vessel_width_px", self.vessel_width_px, lo=0.0)
        if not self.vessel_width_px[1] > 0:
            raise ConfigError("vessel_width_px must allow positive widths")
        _check_range("intensity_range", self.intensity_range, lo=0.0, hi=1.0)
        _check_range("fill_fraction_target", self.fill_fraction_target)
        lo, hi = self.fill_fraction_target
        if not (0.0 < lo and hi < 0.5):
            raise ConfigError("fill_fraction_target must sit inside (0, 0.5)")

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomParams":
        kw = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
        return cls(**kw)


def _uniform(rng, lo, hi):
    # ``Generator.uniform(lo, hi)`` returns exactly this, from the same draw
    return lo + (hi - lo) * rng.random()


def _grow_tree(rng, params: PhantomParams, nx: int, ny: int, segs, vals):
    scale = min(nx, ny)
    depth = int(rng.integers(params.branch_depth[0], params.branch_depth[1] + 1))
    intensity = _uniform(rng, *params.intensity_range)
    width = _uniform(rng, *params.vessel_width_px)
    x, y = (rng.uniform(0.15, 0.85, size=2) * (nx, ny)).tolist()
    angle = _uniform(rng, 0.0, 2.0 * math.pi)
    stack = [(x, y, angle, width, depth)]
    while stack:
        x, y, ang, w, d = stack.pop()
        curv = _uniform(rng, *params.segment_curvature)
        n_steps = int(rng.integers(3, 7))
        step = _uniform(rng, 0.05, 0.10) * scale
        for turn in rng.normal(0.0, curv, size=n_steps).tolist():
            ang += turn
            x2 = x + step * math.cos(ang)
            y2 = y + step * math.sin(ang)
            segs.append((x, y, x2, y2, max(w, 0.35) / 2.0))
            vals.append(intensity)
            x, y = x2, y2
            w *= 0.93
        if d > 0:
            spread = _uniform(rng, 0.35, 0.95)
            for sign in (-1.0, 1.0):
                child_w = w * _uniform(rng, 0.6, 0.9)
                stack.append((x, y, ang + sign * spread, child_w, d - 1))


def _render_attempt(params: PhantomParams, nx: int, ny: int, attempt: int):
    rng = np.random.default_rng(np.random.SeedSequence((params.seed, attempt)))
    segs, vals = [], []
    n_trees = int(rng.integers(params.n_trees[0], params.n_trees[1] + 1))
    for _ in range(n_trees):
        _grow_tree(rng, params, nx, ny, segs, vals)
    img = np.zeros((ny, nx))
    kernels.render_capsules(img, np.asarray(segs), np.asarray(vals))
    return img


def generate_phantom(params: PhantomParams, nx: int, ny: int) -> Image:
    """Render a vessel phantom whose foreground fill fraction falls inside
    ``params.fill_fraction_target`` (resampling up to ``MAX_ATTEMPTS`` times;
    the closest attempt is returned, with a warning, if none lands inside)."""
    if nx < 16 or ny < 16:
        raise ConfigError("phantom grids must be at least 16x16")
    lo, hi = params.fill_fraction_target
    best_img, best_dist = None, np.inf
    for attempt in range(MAX_ATTEMPTS):
        img = _render_attempt(params, nx, ny, attempt)
        fill = np.count_nonzero(img) / img.size
        if lo <= fill <= hi:
            return Image(data=img)
        dist = lo - fill if fill < lo else fill - hi
        if dist < best_dist:
            best_img, best_dist = img, dist
    log.warning("phantom seed %d: fill fraction missed %s after %d attempts "
                "(closest miss %.4f)", params.seed, (lo, hi),
                MAX_ATTEMPTS, best_dist)
    return Image(data=best_img)
