import struct
import zlib

import numpy as np
import pytest

from oatdar.geometry import ImagingGeometry
from oatdar.operator import entry_scale
from oatdar.tensorfile import bundle_file


def as_float64(module):
    """Cast a model's float32 parameters to float64 in place, for finite-
    difference gradient checks; returns the model."""
    for _, t in module.named_parameters():
        t.data = t.data.astype(np.float64)
    return module


@pytest.fixture(scope="session")
def toy_geometry():
    """16x16 grid, 8 detectors, 128 time samples, 2 sub-elements, no jitter."""
    return ImagingGeometry(
        grid_nx=16, grid_ny=16, pixel_pitch=110e-6,
        detector_count=8, ring_radius=5e-3,
        position_jitter_frac=0.0, sound_speed=1490.0,
        dt=1.0 / 24.4e6, time_samples=128,
        sir_subelements=2, sensor_diameter=2e-3, jitter_seed=1)


@pytest.fixture(scope="session")
def tik_geometry():
    """12x12 grid used by the dense Tikhonov cross-check."""
    return ImagingGeometry(
        grid_nx=12, grid_ny=12, pixel_pitch=110e-6,
        detector_count=6, ring_radius=4e-3,
        position_jitter_frac=0.0, sound_speed=1490.0,
        dt=1.0 / 24.4e6, time_samples=96,
        sir_subelements=1, jitter_seed=1)


def dense_spreading_oracle(geom, jittered=False):
    """Brute-force spreading matrix: test every (detector, time, pixel) cell
    against the travel-time window, summing sub-elements in order."""
    px, py = geom.pixel_coords()
    dsx, dsy = geom.subelement_positions(jittered=jittered)
    nd, nt, n = geom.detector_count, geom.time_samples, geom.n_pixels
    base = entry_scale(geom)
    dt, vs = geom.dt, geom.sound_speed
    tk = np.arange(nt) * dt
    a = np.zeros((nd * nt, n))
    for l in range(nd):
        for j in range(n):
            for s in range(geom.sir_subelements):
                dx = px[j] - dsx[l, s]
                dy = py[j] - dsy[l, s]
                dist = np.sqrt(dx * dx + dy * dy)
                hit = np.abs(tk - dist / vs) < 0.5 * dt
                a[l * nt + np.flatnonzero(hit), j] += base / dist
    return a


def mask_forward_entries(px, py, dsx, dsy, vs, dt, nt, base):
    """Reference entry generation: the boolean-mask formulation of
    ``kernels.forward_entries`` (same window test, same emission order:
    detector, sub-element, kf before kf+1, pixel), without its window
    check."""
    n_det, n_sub = dsx.shape
    rows_out, cols_out, vals_out = [], [], []
    half = 0.5 * dt
    cols = np.arange(px.shape[0], dtype=np.int64)
    for l in range(n_det):
        for s in range(n_sub):
            dx = px - dsx[l, s]
            dy = py - dsy[l, s]
            dist = np.sqrt(dx * dx + dy * dy)
            tau = dist / vs
            kf = np.floor(tau / dt).astype(np.int64)
            for kc in (kf, kf + 1):
                mask = (kc >= 0) & (kc < nt) & (np.abs(kc * dt - tau) < half)
                if mask.any():
                    rows_out.append(l * nt + kc[mask])
                    cols_out.append(cols[mask])
                    vals_out.append(base / dist[mask])
    return (np.concatenate(rows_out), np.concatenate(cols_out),
            np.concatenate(vals_out))


def spreading_dense(op):
    """Dense copy of an operator's CSR spreading matrix (toy sizes only)."""
    out = np.zeros((op.n_rows, op.n_cols))
    for r in range(op.n_rows):
        lo, hi = op.indptr[r], op.indptr[r + 1]
        out[r, op.indices[lo:hi]] = op.values[lo:hi]
    return out


def dense_derivative_oracle(nt, dt):
    """Explicit dense time-derivative matrix (central + one-sided ends)."""
    d = np.zeros((nt, nt))
    d[0, 0], d[0, 1] = -1.0 / dt, 1.0 / dt
    d[nt - 1, nt - 2] += -1.0 / dt
    d[nt - 1, nt - 1] += 1.0 / dt
    for m in range(1, nt - 1):
        d[m, m - 1] += -0.5 / dt
        d[m, m + 1] += 0.5 / dt
    return d


def dense_full_oracle(geom, jittered=False):
    """Dense full operator: block time derivative times spreading matrix."""
    a_s = dense_spreading_oracle(geom, jittered=jittered)
    d = dense_derivative_oracle(geom.time_samples, geom.dt)
    nd, nt = geom.detector_count, geom.time_samples
    out = np.empty_like(a_s)
    for l in range(nd):
        out[l * nt:(l + 1) * nt] = d @ a_s[l * nt:(l + 1) * nt]
    return out


def render_capsules_loop(img, segs, vals):
    """Reference rasterizer: one segment at a time, over its clipped
    bounding box, max-compositing ``where(inside, v, 0)`` into the box (so
    it also raises the box's uncovered pixels to at least 0)."""
    segs = np.ascontiguousarray(segs, dtype=np.float64)
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    ny, nx = img.shape
    for m in range(segs.shape[0]):
        x0, y0, x1, y1, r = segs[m]
        v = vals[m]
        lo_i = max(int(np.floor(min(y0, y1) - r)), 0)
        hi_i = min(int(np.ceil(max(y0, y1) + r)) + 1, ny)
        lo_j = max(int(np.floor(min(x0, x1) - r)), 0)
        hi_j = min(int(np.ceil(max(x0, x1) + r)) + 1, nx)
        if lo_i >= hi_i or lo_j >= hi_j:
            continue
        jj, ii = np.meshgrid(np.arange(lo_j, hi_j), np.arange(lo_i, hi_i))
        wx = jj - x0
        wy = ii - y0
        ex = x1 - x0
        ey = y1 - y0
        ee = ex * ex + ey * ey
        t = np.clip((wx * ex + wy * ey) / ee, 0.0, 1.0) if ee > 0.0 else 0.0
        cx = wx - t * ex
        cy = wy - t * ey
        inside = cx * cx + cy * cy <= r * r
        sub = img[lo_i:hi_i, lo_j:hi_j]
        np.maximum(sub, np.where(inside, v, 0.0), out=sub)
    return img


def set_bundle_header(path, text: bytes):
    """Replace the header JSON of the bundle at ``path`` with ``text``,
    with the length and CRC that match it, and keep its records."""
    path = bundle_file(path)
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 6)
    path.write_bytes(raw[:6] + struct.pack("<I", len(text)) + text
                     + struct.pack("<I", zlib.crc32(text)) + raw[14 + n:])
