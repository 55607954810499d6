import logging

import numpy as np
import pytest

from oatdar.errors import ConfigError
from oatdar.grayio import resize_matrix, write_pgm
from oatdar.phantoms import PhantomParams, generate_phantom


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
# graymap export and the bilinear resampling matrix
# ---------------------------------------------------------------------------

def test_ramp_resample_matches_direct_interpolation():
    src = np.add.outer(np.linspace(0, 1, 256), np.linspace(0, 2, 256))
    got = resize_matrix(256, 128) @ src @ resize_matrix(256, 128).T

    # independent bilinear oracle: loop output pixels
    want = np.empty((128, 128))
    for i in range(128):
        for j in range(128):
            sy = min(max((i + 0.5) * 2.0 - 0.5, 0.0), 255.0)
            sx = min(max((j + 0.5) * 2.0 - 0.5, 0.0), 255.0)
            y0, x0 = int(sy), int(sx)
            y1, x1 = min(y0 + 1, 255), min(x0 + 1, 255)
            fy, fx = sy - y0, sx - x0
            want[i, j] = (src[y0, x0] * (1 - fy) * (1 - fx)
                          + src[y0, x1] * (1 - fy) * fx
                          + src[y1, x0] * fy * (1 - fx)
                          + src[y1, x1] * fy * fx)
    assert np.allclose(got, want, atol=1e-6)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    data = rng.uniform(0.0, 1.0, (24, 40))
    raw = write_pgm(tmp_path / "img.pgm", data).read_bytes()
    header = b"P5\n40 24\n65535\n"
    assert raw[:len(header)] == header
    back = np.frombuffer(raw[len(header):], dtype=">u2").reshape(24, 40)
    # 16-bit quantization of a min-max-scaled image
    lo, hi = data.min(), data.max()
    assert np.abs(back / 65535 - (data - lo) / (hi - lo)).max() \
        <= 0.5 / 65535 + 1e-12


def test_same_size_resize_is_identity():
    rng = np.random.default_rng(8)
    img = rng.standard_normal((17, 23))
    assert np.array_equal(resize_matrix(17, 17) @ img
                          @ resize_matrix(23, 23).T, img)
