import numpy as np
import pytest

from oatdar.errors import GeometryError, ShapeError
from oatdar.geometry import ImagingGeometry, Image, Sinogram, check_image


def test_defaults_match_reference_setup():
    g = ImagingGeometry()
    assert g.grid_nx == g.grid_ny == 128
    assert g.pixel_pitch == pytest.approx(110e-6)
    assert g.detector_count == 36
    assert g.ring_radius == pytest.approx(44e-3)
    assert g.sound_speed == pytest.approx(1490.0)
    assert g.dt == pytest.approx(1.0 / 24.4e6)
    assert g.time_samples == 1024
    assert g.position_jitter_frac == pytest.approx(1e-3)
    assert g.sensor_diameter == pytest.approx(13e-3)


def test_uniform_angles_strictly_increasing():
    g = ImagingGeometry(detector_count=5, grid_nx=8, grid_ny=8)
    a = np.asarray(g.detector_angles)
    assert a.shape == (5,)
    assert np.all(np.diff(a) > 0)
    assert a[0] == 0.0 and a[-1] < 2 * np.pi
    assert np.allclose(np.diff(a), 2 * np.pi / 5)


@pytest.mark.parametrize("kw", [
    dict(detector_count=0),
    dict(time_samples=1),
    dict(grid_nx=0),
    dict(pixel_pitch=0.0),
    dict(ring_radius=-1.0),
    dict(sound_speed=0.0),
    dict(position_jitter_frac=-0.1),
    dict(sir_subelements=0),
    dict(sir_subelements=4, sensor_diameter=0.0),
])
def test_invalid_geometry_rejected(kw):
    with pytest.raises(GeometryError):
        ImagingGeometry(**kw)


def _ring_centers(g):
    """Nominal detector centers on the ring, shape (detector_count, 2)."""
    a = np.asarray(g.detector_angles)
    return g.ring_radius * np.stack([np.cos(a), np.sin(a)], axis=1)


def test_jitter_bound_and_determinism():
    g = ImagingGeometry(position_jitter_frac=1e-3, jitter_seed=42)
    pos = np.stack(g.subelement_positions(jittered=True))
    radii = np.linalg.norm(pos, axis=0)
    assert np.all(np.abs(radii - g.ring_radius) <= 1e-3 * g.ring_radius + 1e-15)
    pos2 = np.stack(g.subelement_positions(jittered=True))
    assert np.array_equal(pos, pos2)
    g3 = ImagingGeometry(position_jitter_frac=1e-3, jitter_seed=43)
    pos3 = np.stack(g3.subelement_positions(jittered=True))
    assert not np.array_equal(pos, pos3)


def test_nominal_positions_unjittered():
    g = ImagingGeometry(position_jitter_frac=1e-3)
    pos = np.stack(g.subelement_positions(jittered=False))
    assert np.allclose(np.linalg.norm(pos, axis=0), g.ring_radius)


def test_subelements_single_reduces_to_center():
    g = ImagingGeometry(sir_subelements=1)
    dsx, dsy = g.subelement_positions()
    centers = _ring_centers(g)
    assert np.array_equal(dsx[:, 0], centers[:, 0])
    assert np.array_equal(dsy[:, 0], centers[:, 1])


def test_subelements_span_chord():
    g = ImagingGeometry(sir_subelements=5, sensor_diameter=13e-3)
    dsx, dsy = g.subelement_positions()
    # chord endpoints are sensor_diameter apart, tangential to the ring
    span = np.hypot(dsx[:, -1] - dsx[:, 0], dsy[:, -1] - dsy[:, 0])
    assert np.allclose(span, 13e-3)
    centers = _ring_centers(g)
    mid = np.stack([dsx[:, 2], dsy[:, 2]], axis=1)
    assert np.allclose(mid, centers)


def test_pixel_coords_row_major_centered():
    g = ImagingGeometry(grid_nx=3, grid_ny=2, pixel_pitch=1.0,
                        ring_radius=10.0, time_samples=1024)
    px, py = g.pixel_coords()
    assert px.shape == (6,)
    # flat index i*nx + j
    assert np.array_equal(px, [-1, 0, 1, -1, 0, 1])
    assert np.array_equal(py, [-0.5, -0.5, -0.5, 0.5, 0.5, 0.5])


def test_dict_roundtrip():
    g = ImagingGeometry(grid_nx=32, grid_ny=32, detector_count=16,
                        time_samples=256, ring_radius=11e-3)
    g2 = ImagingGeometry.from_dict(g.to_dict())
    assert g2 == g


def test_angles_and_voxel_volume_are_computed():
    g = ImagingGeometry(detector_count=7, pixel_pitch=2e-4)
    assert np.array_equal(g.detector_angles, np.arange(7) * (2 * np.pi / 7))
    assert g.voxel_volume == 2e-4 ** 3
    assert not {"detector_angles", "voxel_volume"} & g.to_dict().keys()
    with pytest.raises(TypeError):
        ImagingGeometry(detector_angles=(0.0,))


def test_wrappers_validate_dims():
    with pytest.raises(ShapeError):
        Image(np.zeros(5))
    with pytest.raises(ShapeError):
        Sinogram(np.zeros((2, 3, 4)))
    g = ImagingGeometry(grid_nx=4, grid_ny=4, ring_radius=10e-3)
    with pytest.raises(ShapeError):
        check_image(g, Image(np.zeros((5, 4))))
