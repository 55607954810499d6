"""Exact, non-overlapping image patching and reassembly.

Patches tile the image with no padding and no blending; split followed by
merge is a bit-exact identity. Patch order is row-major over the grid.
Both directions work on whole stacks: any leading axes are carried through,
so a batch of images splits into one ``(N, P, ph, pw)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class PatchGrid:
    patch_h: int
    patch_w: int
    rows: int
    cols: int

    def __post_init__(self):
        if min(self.patch_h, self.patch_w, self.rows, self.cols) < 1:
            raise ValueError("all PatchGrid fields must be >= 1")

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols

    @property
    def image_shape(self) -> tuple:
        return (self.rows * self.patch_h, self.cols * self.patch_w)

    @classmethod
    def for_image(cls, image_shape, patch_h: int, patch_w: int) -> "PatchGrid":
        h, w = image_shape
        if h % patch_h or w % patch_w:
            raise ShapeError(
                f"patch {patch_h}x{patch_w} does not tile image {h}x{w}")
        return cls(patch_h, patch_w, h // patch_h, w // patch_w)


def split_patches(imgs: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Split an image or a stack ``(..., H, W)`` into ``(..., P, ph, pw)``.

    P = grid.rows * grid.cols patches per image, in row-major grid order.
    The result is a new array; it never shares memory with ``imgs``.
    """
    imgs = np.asarray(imgs)
    if imgs.shape[-2:] != grid.image_shape:
        raise ShapeError(f"image {imgs.shape} does not match grid "
                         f"{grid.image_shape}")
    lead = imgs.shape[:-2]
    tiles = imgs.reshape(lead + (grid.rows, grid.patch_h,
                                 grid.cols, grid.patch_w)).swapaxes(-3, -2)
    # ndarray.copy is C-ordered, so the reshape below is a view of the copy
    return tiles.copy().reshape(lead + (grid.n_patches, grid.patch_h,
                                        grid.patch_w))


def merge_patches(patches, grid: PatchGrid) -> np.ndarray:
    """Inverse of :func:`split_patches`: ``(..., P, ph, pw)`` ->
    ``(..., H, W)``, as a new array."""
    patches = np.asarray(patches)
    want = (grid.n_patches, grid.patch_h, grid.patch_w)
    if patches.shape[-3:] != want:
        raise ShapeError(f"patches {patches.shape} do not match grid "
                         f"{want}")
    lead = patches.shape[:-3]
    tiles = patches.reshape(lead + (grid.rows, grid.cols, grid.patch_h,
                                    grid.patch_w)).swapaxes(-3, -2)
    return tiles.copy().reshape(lead + grid.image_shape)
