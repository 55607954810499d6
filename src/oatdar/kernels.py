"""Hot numeric kernels, one numpy/scipy lane.

* :func:`forward_entries` emits one detector's block of the spreading
  matrix as COO triplets (row = time index), one vectorized pass per
  sub-element. The operator calls it once per detector.
* :func:`assemble_csr` orders a block's triplets by two stable sorts,
  column then row, which together equal ``np.lexsort((cols, rows))``, and
  sums duplicates into a CSR matrix with int32 offsets and column indices.
* :func:`csr_matvec` / :func:`csr_rmatvec` apply that matrix and its
  transpose. They call scipy's compiled ``csr_matvec`` and ``csc_matvec``
  routines (``scipy.sparse._sparsetools``) directly, writing into a zeroed
  float64 output, with no per-call matrix object: at desk size, building
  one cost as much as the product. ``csr_matrix @ x`` runs the same
  ``csr_matvec`` on the same arrays, and ``.T @ y`` the same ``csc_matvec``
  (a CSR matrix's transpose is the CSC matrix of its three arrays), so
  every product has the bits the matrix objects gave. The operator's
  apply, adjoint and spectral-gain power iteration all run through these
  two products.
* :func:`render_capsules` rasterizes phantom vessels: every segment's
  clipped bounding box in one vectorized pass (in chunks of at most
  ``_RASTER_CHUNK`` box pixels), composited by ``np.maximum.at``. It
  writes only covered pixels.

The CSR arrays are int32, half the index bytes of int64 (the compiled
routines take either); :func:`check_index_count` therefore refuses
matrices whose row, column or entry count does not fit in int32.

Nothing here is threaded or uses fused/reordered arithmetic: the CSR
product sums each row in stored order and the transpose product scatters
rows in stored order, so results are a fixed function of the inputs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from .errors import GeometryError, SignalWindowError

INDEX_DTYPE = np.int32
_INDEX_MAX = int(np.iinfo(INDEX_DTYPE).max)


def check_index_count(count, what):
    """Refuse ``count`` rows, columns or entries that int32 cannot index."""
    if count > _INDEX_MAX:
        raise GeometryError(
            f"operator has {count} {what}; CSR indices are int32, so it "
            f"must have fewer than 2**31")


# ---------------------------------------------------------------------------
# Forward-operator entry generation.
#
# For pixel j at (px, py), sub-detector (l, s) at (dsx, dsy):
#   dist = sqrt(dx*dx + dy*dy), tau = dist / vs
#   entry at time index k iff |k*dt - tau| < dt/2, value = base / dist
# with base = voxel_volume / (4 pi vs^2 dt^2) / n_subelements.
# At most one k can satisfy the strict window, so only floor(tau/dt) and its
# successor need testing. This is the one statement of the travel-time
# window: an arrival past the last sample's window (the complement of the
# test at k = nt-1) would silently drop its pixel, so it raises instead.
# ---------------------------------------------------------------------------


def forward_entries(px, py, dsx, dsy, vs, dt, nt, base, detector):
    """COO triplets (row = time index, col = pixel, value) of one detector,
    whose sub-elements sit at ``dsx``/``dsy`` (each of shape (S,)).

    Raises :class:`SignalWindowError`, naming ``detector``, when an arrival
    lies past the last time sample's window, i.e. farther than
    ``(nt - 1/2) * dt * vs``.
    """
    px = np.ascontiguousarray(px, dtype=np.float64)
    py = np.ascontiguousarray(py, dtype=np.float64)
    dsx = np.ascontiguousarray(dsx, dtype=np.float64)
    dsy = np.ascontiguousarray(dsy, dtype=np.float64)
    vs, dt, nt, base = float(vs), float(dt), int(nt), float(base)
    rows_out, cols_out, vals_out = [], [], []
    half = 0.5 * dt
    for sx, sy in zip(dsx, dsy):
        dx = px - sx
        dy = py - sy
        dist = np.sqrt(dx * dx + dy * dy)
        tau = dist / vs
        if tau.max() - (nt - 1) * dt >= half:
            raise SignalWindowError(
                f"time window covers {(nt - 0.5) * dt * vs:g} m but "
                f"detector {detector}'s farthest pixel is "
                f"{dist.max():g} m away; increase time_samples or dt")
        kf = np.floor(tau / dt).astype(np.int64)
        for kc in (kf, kf + 1):
            # the hit pixels' indices are their columns
            idx = np.flatnonzero(
                (kc >= 0) & (kc < nt) & (np.abs(kc * dt - tau) < half))
            if idx.size:
                rows_out.append(kc[idx])
                cols_out.append(idx)
                vals_out.append(base / dist[idx])
    if not rows_out:
        empty = np.zeros(0)
        return empty.astype(np.int64), empty.astype(np.int64), empty
    return (np.concatenate(rows_out), np.concatenate(cols_out),
            np.concatenate(vals_out))


def assemble_csr(rows, cols, vals, n_rows, n_cols):
    """Sort COO triplets into CSR, summing duplicates in stable order.

    Two stable argsorts order the triplets, least-significant key first:
    by column, then by row. Stable passes compose, so the permutation
    equals ``np.lexsort((cols, rows))`` whatever stable sort each pass
    uses, and each duplicate run is summed (``np.add.reduceat``) in input
    order. The row pass casts rows to ``np.min_scalar_type(n_rows - 1)``,
    which numpy radix-sorts up to 16 bits. The column pass sorts the
    columns as given: :func:`forward_entries` emits them in ascending
    runs, one per (sub-element, candidate) pass, and numpy's timsort
    merges those about three times faster than its radix sort at paper
    scale.

    Returns int32 ``indptr``/``indices`` and ``data`` in ``vals``' dtype.
    Raises ``ValueError`` before sorting when a row lies outside
    ``[0, n_rows)`` or a column outside ``[0, n_cols)``, and
    :class:`GeometryError` before sorting when the column count exceeds
    int32, and after summing, before ``indptr`` is allocated, when the
    entry or row count does.
    """
    n_rows, n_cols = int(n_rows), int(n_cols)
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.size and not (0 <= rows.min() and rows.max() < n_rows
                          and 0 <= cols.min() and cols.max() < n_cols):
        raise ValueError(
            f"COO indices outside the {n_rows} x {n_cols} operator")
    check_index_count(n_cols, "columns")
    rows = rows.astype(np.min_scalar_type(n_rows - 1))
    order = np.argsort(cols, kind="stable")
    order = order[np.argsort(rows[order], kind="stable")]
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        new = np.empty(rows.size, dtype=bool)
        new[0] = True
        np.not_equal(rows[1:], rows[:-1], out=new[1:])
        new[1:] |= cols[1:] != cols[:-1]
        starts = np.flatnonzero(new)
        vals = np.add.reduceat(vals, starts)
        rows, cols = rows[starts], cols[starts]
    check_index_count(vals.size, "entries")
    check_index_count(n_rows, "rows")
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))  # rows are sorted
    return indptr.astype(INDEX_DTYPE), cols.astype(INDEX_DTYPE), vals


# ---------------------------------------------------------------------------
# CSR apply / adjoint.
# ---------------------------------------------------------------------------


def csr_matvec(indptr, indices, data, x):
    """``A @ x`` for the CSR matrix ``A`` with ``x.size`` columns."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.zeros(indptr.size - 1)
    _sparsetools.csr_matvec(out.size, x.size, indptr, indices, data, x, out)
    return out


def csr_rmatvec(indptr, indices, data, y, n_cols):
    """``A.T @ y``: the CSR arrays read as the CSC arrays of ``A.T``."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.size != indptr.size - 1:
        raise ValueError(f"y has {y.size} entries, the matrix "
                         f"{indptr.size - 1} rows")
    out = np.zeros(int(n_cols))
    _sparsetools.csc_matvec(out.size, y.size, indptr, indices, data, y, out)
    return out


# ---------------------------------------------------------------------------
# Phantom rasterization: max-composite capsules (thick line segments) onto a
# grid. Coverage is binary (inside iff distance to segment <= radius) so that
# every foreground pixel carries exactly its vessel's intensity.
# ---------------------------------------------------------------------------

# Most bounding-box pixels one vectorized pass holds at once. Each pixel
# costs about 110 bytes of temporaries, so one pass peaks near 0.11 GB.
_RASTER_CHUNK = 2 ** 20


def render_capsules(img, segs, vals):
    """Composite capsule segments into ``img`` (in place, max blend).

    Segment m is ``segs[m] = (x0, y0, x1, y1, r)`` in pixel units; pixel
    (i, j) is covered iff its distance to the segment is at most r, and then
    ``img[i, j]`` becomes ``max(img[i, j], vals[m])``. The segments are
    rasterized together: each one's bounding box, clipped to the grid, is
    expanded into one ragged list of pixels, the distance test runs on the
    whole list, and ``np.maximum.at`` composites the covered pixels, so the
    result does not depend on segment order. Consecutive segments go in
    chunks whose boxes hold at most ``_RASTER_CHUNK`` pixels together (a
    larger box goes alone), which bounds the memory of one pass.

    Only covered pixels are written: an uncovered pixel keeps its value,
    negative or not.
    """
    segs = np.ascontiguousarray(segs, dtype=np.float64).reshape(-1, 5)
    vals = np.ascontiguousarray(vals, dtype=np.float64).reshape(-1)
    ny, nx = img.shape
    x0, y0, x1, y1, r = segs.T
    lo_i = np.clip(np.floor(np.minimum(y0, y1) - r), 0, ny).astype(np.intp)
    hi_i = np.clip(np.ceil(np.maximum(y0, y1) + r) + 1, 0, ny).astype(np.intp)
    lo_j = np.clip(np.floor(np.minimum(x0, x1) - r), 0, nx).astype(np.intp)
    hi_j = np.clip(np.ceil(np.maximum(x0, x1) + r) + 1, 0, nx).astype(np.intp)
    count = np.maximum(hi_i - lo_i, 0) * np.maximum(hi_j - lo_j, 0)
    keep = np.flatnonzero(count)
    segs, vals, count = segs[keep], vals[keep], count[keep]
    lo_i, lo_j, w = lo_i[keep], lo_j[keep], (hi_j - lo_j)[keep]
    end = np.cumsum(count)
    a = 0
    while a < keep.size:
        b = max(int(np.searchsorted(end, end[a] - count[a] + _RASTER_CHUNK,
                                    side="right")), a + 1)
        ii, jj, m = _covered_pixels(segs[a:b], lo_i[a:b], lo_j[a:b], w[a:b],
                                    count[a:b])
        np.maximum.at(img, (ii, jj), vals[a:b][m])
        a = b
    return img


def _covered_pixels(segs, lo_i, lo_j, w, count):
    """Rows, columns and segment indices of the pixels the segments cover.

    Segment m's box has ``count[m]`` pixels in rows of ``w[m]`` from
    (``lo_i[m]``, ``lo_j[m]``). Every box pixel is tested with a per-segment
    loop's expressions, in the same form and order, so coverage is the same
    bit for bit."""
    x0, y0, x1, y1, r = segs.T
    ex = x1 - x0
    ey = y1 - y0
    ee = ex * ex + ey * ey
    rr = r * r
    m = np.repeat(np.arange(count.size), count)
    ii, jj = np.divmod(np.arange(m.size) - np.repeat(np.cumsum(count) - count,
                                                     count), w[m])
    ii += lo_i[m]
    jj += lo_j[m]
    wx = jj - x0[m]
    wy = ii - y0[m]
    ex, ey, ee = ex[m], ey[m], ee[m]
    t = np.zeros_like(ee)
    np.divide(wx * ex + wy * ey, ee, out=t, where=ee > 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    cx = wx - t * ex
    cy = wy - t * ey
    inside = cx * cx + cy * cy <= rr[m]
    return ii[inside], jj[inside], m[inside]
