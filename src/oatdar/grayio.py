"""Image value mapping, graymap export, the bilinear resampling matrix.

:func:`normalize01` is the one min-max rule of the package: training inputs,
reported reconstructions and graymap export all map an image (or each image
of a stack) to [0, 1] through it.

PGM is write-only: :func:`write_pgm` writes a 16-bit P5 graymap (samples
big-endian per the netpbm convention) for visual inspection, and nothing
reads one back. A user image or sinogram enters only as tensor data, through
``oatdar simulate --phantom`` or ``oatdar reconstruct --sino``, at exactly
the configured shape.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def normalize01(imgs: np.ndarray) -> np.ndarray:
    """Min-max rescale each image of ``(..., H, W)`` of floats to [0, 1] over
    its last two axes; a constant finite image goes to zeros."""
    lo = imgs.min(axis=(-2, -1), keepdims=True)
    span = imgs.max(axis=(-2, -1), keepdims=True) - lo
    out = imgs - lo
    # x - lo is exactly 0 throughout a constant image, so dividing it by 1
    # leaves the zeros
    out /= np.where(span == 0, 1, span)
    return out


def write_pgm(path, img: np.ndarray) -> Path:
    """Write a min-max scaled 16-bit binary graymap."""
    path = Path(path)
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM export needs a 2-D array")
    if not np.all(np.isfinite(img)):
        raise ValueError("PGM export needs finite values")
    q = np.rint(normalize01(img) * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode())
        fh.write(q.tobytes())
    return path


def resize_matrix(n_src: int, n_dst: int) -> np.ndarray:
    """1-D bilinear resampling matrix (half-pixel centers, edge clamped).

    Exactly the identity when ``n_src == n_dst``.
    """
    m = np.zeros((n_dst, n_src))
    scale = n_src / n_dst
    for i in range(n_dst):
        src = (i + 0.5) * scale - 0.5
        src = min(max(src, 0.0), n_src - 1.0)
        i0 = int(np.floor(src))
        i1 = min(i0 + 1, n_src - 1)
        f = src - i0
        m[i, i0] += 1.0 - f
        m[i, i1] += f
    return m
