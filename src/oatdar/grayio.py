"""Image value mapping, portable graymap import/export, bilinear resampling.

:func:`normalize01` is the one min-max rule of the package: training inputs,
reported reconstructions, graymap export and normalized ingestion all map
an image (or each image of a stack) to [0, 1] through it.

PGM is the only raster format supported: P2 ascii or P5 binary with 8- or
16-bit samples is read, 16-bit P5 is written (16-bit samples big-endian per
the netpbm convention). It exists for visual inspection; the lossless path is
always the tensor container.
"""

from __future__ import annotations

import re
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


def read_pgm(path) -> np.ndarray:
    """Read P2/P5 into floats scaled to [0, 1] by the file's maxval."""
    raw = Path(path).read_bytes()
    if raw[:2] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a PGM file")
    binary = raw[:2] == b"P5"
    # header: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        m = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", raw[pos:])
        if not m:
            raise ValueError(f"{path}: malformed PGM header")
        tokens.append(int(m.group(1)))
        pos += m.end()
    width, height, maxval = tokens
    if binary:
        pos += 1  # single whitespace after maxval
        dtype = ">u2" if maxval > 255 else "u1"
        count = width * height
        data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
        if data.size != count:
            raise ValueError(f"{path}: truncated PGM payload")
    else:
        data = np.array(raw[pos:].split(), dtype=np.float64)
        if data.size != width * height:
            raise ValueError(f"{path}: wrong sample count in ascii PGM")
    return data.reshape(height, width).astype(np.float64) / maxval


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


def bilinear_resize(img: np.ndarray, ny: int, nx: int) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    return resize_matrix(h, ny) @ img @ resize_matrix(w, nx).T
