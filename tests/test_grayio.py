"""The one min-max rule: each image of a stack maps to [0, 1] on its own."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oatdar.grayio import normalize01


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
