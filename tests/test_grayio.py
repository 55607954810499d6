"""grayio: the one min-max rule (each image of a stack maps to [0, 1] on its
own), the bilinear resampling matrix and graymap export."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oatdar.grayio import normalize01, resize_matrix, write_pgm


def _per_image(img):
    lo, hi = img.min(), img.max()
    return np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stack_equals_per_image_reference(dtype):
    rng = np.random.default_rng(0)
    stack = (rng.standard_normal((3, 8, 12)) * [[[1.0]], [[50.0]], [[0.0]]]
             + [[[0.0]], [[-7.0]], [[3.5]]]).astype(dtype)
    out = normalize01(stack)
    assert out.dtype == dtype
    assert not np.any(out[2])                       # the constant image
    want = np.stack([_per_image(im) for im in stack])
    assert np.array_equal(out, want)
    assert np.array_equal(normalize01(stack[1]), want[1])


def _stacks(dtype):
    # bounded so that hi - lo cannot overflow
    width = np.dtype(dtype).itemsize * 8
    return arrays(dtype, st.tuples(st.integers(1, 3), st.integers(1, 6),
                                   st.integers(1, 6)),
                  elements=st.floats(-2.0**100, 2.0**100, width=width))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(_stacks))
def test_output_lies_in_unit_interval(stack):
    """(x - lo) <= (hi - lo) survives rounding, so no clip is needed."""
    out = normalize01(stack)
    assert out.dtype == stack.dtype
    assert out.min() >= 0.0 and out.max() <= 1.0


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
