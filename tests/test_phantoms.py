import logging
import warnings

import numpy as np
import pytest

from oatdar import kernels, phantoms
from oatdar.errors import ConfigError
from oatdar.phantoms import PhantomParams, generate_phantom

from conftest import render_capsules_loop


def test_deterministic_given_seed():
    p = PhantomParams(seed=11)
    a = generate_phantom(p, 64, 64)
    b = generate_phantom(p, 64, 64)
    assert np.array_equal(a.data, b.data)
    c = generate_phantom(PhantomParams(seed=12), 64, 64)
    assert not np.array_equal(a.data, c.data)


def test_degenerate_intensity_all_ones():
    p = PhantomParams(seed=5, intensity_range=(1.0, 1.0))
    img = generate_phantom(p, 64, 64).data
    fg = img[img > 0]
    assert fg.size > 0
    assert np.all(fg == 1.0)


def test_background_exactly_zero_and_range():
    for seed in range(10):
        img = generate_phantom(PhantomParams(seed=seed), 48, 48).data
        assert img.min() == 0.0
        assert img.max() <= 1.0
        lo, hi = PhantomParams().intensity_range
        fg = img[img > 0]
        assert np.all((fg >= lo) & (fg <= hi))


def test_mean_fill_fraction_in_target():
    p0 = PhantomParams()
    lo, hi = p0.fill_fraction_target
    fills = []
    for seed in range(300):
        img = generate_phantom(PhantomParams(seed=seed), 128, 128).data
        fills.append(np.count_nonzero(img) / img.size)
    assert lo <= np.mean(fills) <= hi


def test_unreachable_fill_warns_and_returns_closest(caplog):
    p = PhantomParams(seed=1, n_trees=(1, 1), branch_depth=(0, 0),
                      vessel_width_px=(0.5, 0.6),
                      fill_fraction_target=(0.45, 0.49), max_attempts=3)
    with caplog.at_level(logging.WARNING, logger="oatdar.phantoms"):
        img = generate_phantom(p, 64, 64)
    assert img.data is not None
    assert any("fill fraction missed" in r.message for r in caplog.records)


def test_degenerate_ranges_rejected():
    with pytest.raises(ConfigError):
        PhantomParams(n_trees=(3, 1))
    with pytest.raises(ConfigError):
        PhantomParams(intensity_range=(0.2, 1.2))
    with pytest.raises(ConfigError):
        PhantomParams(fill_fraction_target=(0.0, 0.2))
    with pytest.raises(ConfigError):
        PhantomParams(fill_fraction_target=(0.1, 0.6))


def test_too_small_grid_rejected():
    with pytest.raises(ValueError):
        generate_phantom(PhantomParams(), 8, 8)


# ---------------------------------------------------------------------------
# the vectorized rasterizer against the per-segment loop
# ---------------------------------------------------------------------------

def _assert_matches_loop(segs, vals, shape=None, start=None):
    start = np.zeros(shape) if start is None else start
    want = render_capsules_loop(start.copy(), segs, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.render_capsules(start.copy(), segs, vals)
    assert np.array_equal(got, want)


def _attempt_segments(monkeypatch, seed, n):
    """The segment list ``_render_attempt`` rasterizes for ``seed``."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(kernels, "render_capsules",
                  lambda img, segs, vals: seen.append((segs, vals)))
        phantoms._render_attempt(PhantomParams(seed=seed), n, n, 0)
    return seen[0]


@pytest.mark.parametrize("n, seeds", [(32, range(50)), (128, range(10))])
def test_rasterizer_matches_loop_on_phantom_segments(monkeypatch, n, seeds):
    for seed in seeds:
        segs, vals = _attempt_segments(monkeypatch, seed, n)
        _assert_matches_loop(segs, vals, shape=(n, n))


# (x0, y0, x1, y1, r) on a 20 x 30 (ny x nx) grid
EDGE_SEGMENTS = np.array([
    [5.3, 7.7, 5.3, 7.7, 2.2],          # zero length
    [12.0, 4.0, 12.0, 4.0, 0.0],        # r = 0 on a pixel centre
    [3.0, 15.0, 9.5, 15.0, 0.0],        # r = 0 along a pixel row
    [-9.0, -9.0, -4.0, -6.0, 1.5],      # off-grid
    [40.0, 5.0, 45.0, 9.0, 2.0],        # off-grid
    [-3.0, 10.0, 4.0, 11.0, 1.7],       # crosses the left edge
    [26.0, 2.0, 33.0, 6.0, 2.5],        # crosses the right edge
    [14.0, -4.0, 16.0, 3.0, 1.2],       # crosses the top edge
    [20.0, 17.0, 22.5, 26.0, 3.1],      # crosses the bottom edge
    [-5.0, 10.0, 35.0, 10.0, 0.6],      # crosses the whole grid
    [8.0, 3.0, 18.0, 12.0, 2.0],        # overlaps the next with a
    [9.0, 12.0, 17.0, 2.0, 2.5],        # different value
])
EDGE_VALUES = np.linspace(0.3, 1.0, len(EDGE_SEGMENTS))[::-1].copy()


@pytest.mark.parametrize("chunk", [1, 64, kernels._RASTER_CHUNK])
def test_rasterizer_matches_loop_on_edge_cases(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "_RASTER_CHUNK", chunk)
    _assert_matches_loop(EDGE_SEGMENTS, EDGE_VALUES, shape=(20, 30))
    _assert_matches_loop(EDGE_SEGMENTS[::-1], EDGE_VALUES[::-1],
                         shape=(20, 30))
    for m in range(len(EDGE_SEGMENTS)):
        _assert_matches_loop(EDGE_SEGMENTS[m:m + 1], EDGE_VALUES[m:m + 1],
                             shape=(20, 30))
    start = np.random.default_rng(3).uniform(0.0, 1.2, (20, 30))
    _assert_matches_loop(EDGE_SEGMENTS, EDGE_VALUES, start=start)
    segs, vals = _attempt_segments(monkeypatch, 4, 128)
    _assert_matches_loop(segs, vals, shape=(128, 128))


def test_rasterizer_takes_an_empty_segment_list():
    _assert_matches_loop(np.asarray([]), np.asarray([]), shape=(16, 16))
    _assert_matches_loop(np.empty((0, 5)), np.empty(0), shape=(16, 16))


def test_rasterizer_writes_only_covered_pixels():
    """Unlike the loop, which raised a box's uncovered pixels to 0."""
    start = np.full((20, 30), -1.0)
    img = kernels.render_capsules(start.copy(), EDGE_SEGMENTS, EDGE_VALUES)
    covered = render_capsules_loop(np.zeros((20, 30)), EDGE_SEGMENTS,
                                   EDGE_VALUES) > 0
    assert covered.any() and not covered.all()
    assert np.all(img[~covered] == -1.0)
    assert np.array_equal(img[covered],
                          render_capsules_loop(start.copy(), EDGE_SEGMENTS,
                                               EDGE_VALUES)[covered])
