import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oatdar.errors import ShapeError
from oatdar.patches import PatchGrid, merge_patches, split_patches


def test_quarters_of_128():
    grid = PatchGrid.for_image((128, 128), 64, 64)
    assert grid.n_patches == 4
    img = np.random.default_rng(0).standard_normal((128, 128))
    parts = split_patches(img, grid)
    assert len(parts) == 4
    assert np.array_equal(parts[0], img[:64, :64])
    assert np.array_equal(parts[3], img[64:, 64:])


def test_single_patch_identity():
    grid = PatchGrid.for_image((64, 64), 64, 64)
    img = np.random.default_rng(1).standard_normal((64, 64))
    (only,) = split_patches(img, grid)
    assert np.array_equal(only, img)


def test_merge_constant_quadrants():
    grid = PatchGrid(2, 2, 2, 2)
    parts = [np.full((2, 2), v) for v in (1.0, 2.0, 3.0, 4.0)]
    img = merge_patches(parts, grid)
    assert np.array_equal(img, np.block([[np.full((2, 2), 1), np.full((2, 2), 2)],
                                         [np.full((2, 2), 3), np.full((2, 2), 4)]]))


def test_roundtrip_many_random():
    rng = np.random.default_rng(2)
    grid = PatchGrid.for_image((128, 128), 64, 64)
    for _ in range(100):
        img = rng.standard_normal((128, 128))
        assert np.array_equal(merge_patches(split_patches(img, grid), grid), img)


def test_permuted_order_differs():
    rng = np.random.default_rng(3)
    grid = PatchGrid.for_image((32, 32), 16, 16)
    img = rng.standard_normal((32, 32))
    parts = split_patches(img, grid)
    shuffled = [parts[1], parts[0], parts[3], parts[2]]
    assert not np.array_equal(merge_patches(shuffled, grid), img)


def test_split_is_permutation_of_data():
    rng = np.random.default_rng(4)
    grid = PatchGrid.for_image((24, 36), 8, 12)
    img = rng.standard_normal((24, 36))
    parts = split_patches(img, grid)
    assert np.array_equal(np.sort(np.concatenate([p.ravel() for p in parts])),
                          np.sort(img.ravel()))


def test_nondivisible_rejected():
    with pytest.raises(ShapeError):
        PatchGrid.for_image((100, 100), 64, 64)
    grid = PatchGrid(3, 3, 2, 2)
    with pytest.raises(ShapeError):
        split_patches(np.zeros((7, 6)), grid)
    with pytest.raises(ShapeError):
        merge_patches([np.zeros((3, 3))] * 3, grid)
    with pytest.raises(ShapeError):
        merge_patches([np.zeros((3, 4))] * 4, grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2 ** 31 - 1))
def test_roundtrip_property(ph, pw, rows, cols, seed):
    grid = PatchGrid(ph, pw, rows, cols)
    img = np.random.default_rng(seed).standard_normal(grid.image_shape)
    back = merge_patches(split_patches(img, grid), grid)
    assert np.array_equal(back, img)


def test_stack_split_and_merge_equal_per_image_calls():
    rng = np.random.default_rng(5)
    grid = PatchGrid.for_image((24, 36), 8, 12)
    imgs = rng.standard_normal((2, 3, 24, 36))
    parts = split_patches(imgs, grid)
    assert parts.shape == (2, 3, grid.n_patches, 8, 12)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(parts[i, j], split_patches(imgs[i, j], grid))
            assert np.array_equal(merge_patches(parts[i, j], grid),
                                  imgs[i, j])
    assert np.array_equal(merge_patches(parts, grid), imgs)


@pytest.mark.parametrize("grid", [PatchGrid(4, 6, 2, 3), PatchGrid(1, 6, 3, 1),
                                  PatchGrid(4, 6, 1, 1)])
def test_split_and_merge_never_share_memory(grid):
    imgs = np.random.default_rng(6).standard_normal((2,) + grid.image_shape)
    parts = split_patches(imgs, grid)
    assert not np.shares_memory(parts, imgs)
    assert not np.shares_memory(merge_patches(parts, grid), parts)
