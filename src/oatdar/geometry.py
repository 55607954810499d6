"""Imaging geometry: detector ring, pixel grid, timing, acoustic constants.

Conventions used everywhere downstream:

* the grid is centered on the origin; pixel (row i, col j) sits at
  ``x = (j - (nx-1)/2) * pitch``, ``y = (i - (ny-1)/2) * pitch``;
* images are ``[ny, nx]`` arrays flattened row-major, sinograms are
  ``[n_detectors, n_time_samples]``;
* time sample k is at ``t = k * dt`` (acquisition starts at the laser pulse);
* detector l of L sits nominally at angle ``2*pi*l/L`` on a ring of
  radius ``ring_radius``. Jittered positions perturb radius by
  ``ring_radius * u1 * position_jitter_frac`` and angle by
  ``u2 * position_jitter_frac`` (u uniform in [-1, 1]), drawn once from
  ``jitter_seed``. Simulation uses jittered positions, reconstruction the
  nominal ones, so the model mismatch seen on real hardware is present in
  synthetic data too.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import GeometryError, ShapeError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ImagingGeometry:
    grid_nx: int = 128
    grid_ny: int = 128
    pixel_pitch: float = 110e-6
    detector_count: int = 36
    ring_radius: float = 44e-3
    position_jitter_frac: float = 1e-3
    sound_speed: float = 1490.0
    dt: float = 1.0 / 24.4e6
    time_samples: int = 1024
    sir_subelements: int = 1
    sensor_diameter: float = 13e-3
    jitter_seed: int = 0

    def __post_init__(self):
        if self.detector_count < 1:
            raise GeometryError("detector_count must be >= 1")
        if self.time_samples < 2:
            raise GeometryError("time_samples must be >= 2")
        if self.grid_nx < 1 or self.grid_ny < 1:
            raise GeometryError("grid must have at least one pixel")
        for name in ("pixel_pitch", "ring_radius", "sound_speed", "dt"):
            if not getattr(self, name) > 0:
                raise GeometryError(f"{name} must be positive")
        if self.position_jitter_frac < 0:
            raise GeometryError("position_jitter_frac must be >= 0")
        if self.sir_subelements < 1:
            raise GeometryError("sir_subelements must be >= 1")
        if self.sir_subelements > 1 and not self.sensor_diameter > 0:
            raise GeometryError(
                "sensor_diameter must be positive when sir_subelements > 1")

    # -- derived geometry ---------------------------------------------------

    @property
    def n_pixels(self) -> int:
        return self.grid_nx * self.grid_ny

    @property
    def image_shape(self) -> tuple:
        return (self.grid_ny, self.grid_nx)

    @property
    def sinogram_shape(self) -> tuple:
        return (self.detector_count, self.time_samples)

    @property
    def detector_angles(self) -> np.ndarray:
        """Nominal detector angles ``2*pi*l/L`` in radians."""
        return np.arange(self.detector_count) * (TWO_PI / self.detector_count)

    @property
    def voxel_volume(self) -> float:
        """A unit-pitch slice: ``pixel_pitch**3``."""
        return float(self.pixel_pitch) ** 3

    def half_diagonal(self) -> float:
        w = self.grid_nx * self.pixel_pitch
        h = self.grid_ny * self.pixel_pitch
        return 0.5 * float(np.hypot(w, h))

    def pixel_coords(self):
        """Flattened (row-major) pixel center coordinates (px, py)."""
        jj = np.arange(self.grid_nx) - (self.grid_nx - 1) / 2.0
        ii = np.arange(self.grid_ny) - (self.grid_ny - 1) / 2.0
        px = np.tile(jj * self.pixel_pitch, self.grid_ny)
        py = np.repeat(ii * self.pixel_pitch, self.grid_nx)
        return px, py

    def subelement_positions(self, jittered: bool = False):
        """Point sub-detector coordinates (dsx, dsy), each (detector_count, S).

        Sub-elements sample a chord of length ``sensor_diameter`` oriented
        tangentially to the ring; S == 1 degenerates exactly to the center.
        Nominal positions are the jittered ones at zero jitter: the draws
        are scaled by 0, which leaves radius and angle bit for bit.
        """
        frac = self.position_jitter_frac if jittered else 0.0
        rng = np.random.default_rng(self.jitter_seed)
        u = rng.uniform(-1.0, 1.0, size=(self.detector_count, 2))
        radii = self.ring_radius * (1.0 + u[:, 0] * frac)
        angles = self.detector_angles + u[:, 1] * frac
        half, s = self.sensor_diameter / 2.0, self.sir_subelements
        offsets = np.linspace(-half, half, s) if s > 1 else np.zeros(1)
        r = radii[:, None]
        cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
        return r * cos - offsets * sin, r * sin + offsets * cos

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ImagingGeometry":
        return cls(**d)


@dataclass
class Image:
    """Initial-pressure image on the geometry grid, [ny, nx] float array."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 2:
            raise ShapeError(f"image must be 2-D, got shape {self.data.shape}")

    @property
    def shape(self):
        return self.data.shape


@dataclass
class Sinogram:
    """Measured pressure traces, [n_detectors, n_time_samples]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 2:
            raise ShapeError(f"sinogram must be 2-D, got shape {self.data.shape}")

    @property
    def shape(self):
        return self.data.shape


def check_image(geometry: ImagingGeometry, img: Image) -> Image:
    if img.data.shape != geometry.image_shape:
        raise ShapeError(
            f"image shape {img.data.shape} != geometry grid {geometry.image_shape}")
    return img


def check_sinogram(geometry: ImagingGeometry, sino: Sinogram) -> Sinogram:
    if sino.data.shape != geometry.sinogram_shape:
        raise ShapeError(
            f"sinogram shape {sino.data.shape} != geometry {geometry.sinogram_shape}")
    return sino
