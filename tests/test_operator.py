import numpy as np
import pytest
import scipy.sparse as sp

from oatdar import kernels
from oatdar.config import desk_config, geometry_from_config, paper_config
from oatdar.errors import (ConfigError, GeometryError, NumericalError,
                           ShapeError, SignalWindowError)
from oatdar.geometry import ImagingGeometry, Image, Sinogram
from oatdar.operator import (add_noise, apply_adjoint, apply_forward,
                             build_forward_operator, entry_scale,
                             tikhonov_solve, time_derivative,
                             time_derivative_adjoint)
from oatdar.tensorfile import read_bundle

from conftest import (dense_derivative_oracle, dense_full_oracle,
                      dense_spreading_oracle, mask_forward_entries,
                      spreading_dense)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_single_pixel_single_detector_entries():
    # one pixel at the grid center, one detector at exactly the ring radius
    g = ImagingGeometry(grid_nx=1, grid_ny=1, pixel_pitch=110e-6,
                        detector_count=1, ring_radius=5e-3,
                        position_jitter_frac=0.0, time_samples=128,
                        sir_subelements=1)
    op = build_forward_operator(g)
    dense = spreading_dense(op)
    dist = g.ring_radius
    tau = dist / g.sound_speed
    expected_val = entry_scale(g) / dist
    hits = np.flatnonzero(dense[:, 0])
    predicted = [k for k in range(g.time_samples)
                 if abs(k * g.dt - tau) < 0.5 * g.dt]
    assert list(hits) == predicted
    assert len(hits) >= 1
    assert np.all(dense[hits, 0] == expected_val)


def test_midway_distance_yields_at_most_one_entry():
    # place the detector so the travel time falls exactly midway between
    # two samples: the strict window admits at most a single time index
    vs, dt = 1490.0, 1.0 / 24.4e6
    ring = vs * dt * 60.5
    g = ImagingGeometry(grid_nx=1, grid_ny=1, pixel_pitch=110e-6,
                        detector_count=1, ring_radius=ring,
                        position_jitter_frac=0.0, sound_speed=vs, dt=dt,
                        time_samples=128, sir_subelements=1)
    op = build_forward_operator(g)
    dense = spreading_dense(op)
    hits = np.flatnonzero(dense[:, 0])
    tau = ring / vs
    predicted = [k for k in range(g.time_samples) if abs(k * dt - tau) < 0.5 * dt]
    assert len(hits) <= 1
    assert list(hits) == predicted


def test_materialized_matches_bruteforce_exactly(toy_geometry):
    op = build_forward_operator(toy_geometry)
    dense = spreading_dense(op)
    oracle = dense_spreading_oracle(toy_geometry)
    assert np.array_equal(dense, oracle)


def test_entries_nonnegative(toy_geometry):
    op = build_forward_operator(toy_geometry)
    assert np.all(op.values > 0)


def test_support_matches_travel_time_window(toy_geometry):
    g = toy_geometry
    op = build_forward_operator(g)
    px, py = g.pixel_coords()
    dsx, dsy = g.subelement_positions()
    for r in range(op.n_rows):
        l, k = divmod(r, g.time_samples)
        for j in op.indices[op.indptr[r]:op.indptr[r + 1]]:
            ok = False
            for s in range(g.sir_subelements):
                dist = np.sqrt((px[j] - dsx[l, s]) ** 2 + (py[j] - dsy[l, s]) ** 2)
                if abs(k * g.dt - dist / g.sound_speed) < 0.5 * g.dt:
                    ok = True
            assert ok


def test_point_detector_limit(toy_geometry):
    g1 = ImagingGeometry(**{**toy_geometry.to_dict(), "sir_subelements": 1})
    d = toy_geometry.to_dict()
    d.update(sir_subelements=1, sensor_diameter=0.0)
    g2 = ImagingGeometry.from_dict(d)
    op1 = build_forward_operator(g1)
    op2 = build_forward_operator(g2)
    assert np.array_equal(op1.values, op2.values)
    assert np.array_equal(op1.indices, op2.indices)


def test_rejects_detectors_inside_grid():
    with pytest.raises(GeometryError):
        build_forward_operator(ImagingGeometry(
            grid_nx=64, grid_ny=64, pixel_pitch=110e-6, ring_radius=3e-3))


def test_rejects_truncating_time_window():
    with pytest.raises(SignalWindowError):
        build_forward_operator(ImagingGeometry(
            grid_nx=16, grid_ny=16, ring_radius=8e-3, time_samples=64))


# 8 detectors at 2*pi*l/8 around a 16 x 16 grid of 0.1 mm pixels
_WINDOW = dict(grid_nx=16, grid_ny=16, pixel_pitch=1e-4, detector_count=8,
               ring_radius=3.065e-3, position_jitter_frac=0.0,
               sir_subelements=1, sound_speed=1500.0, dt=1e-7)


def test_window_is_the_kernels_arrival_rule():
    # a diagonal detector's farthest pixel lies 4.1257 mm away: past the
    # last of 28 sample windows (4.125 mm at 1500 m/s, dt 1e-7) but inside
    # the 29th, where every pixel gets one entry per detector
    with pytest.raises(SignalWindowError, match="0.004125 m"):
        build_forward_operator(ImagingGeometry(**_WINDOW, time_samples=28))
    op = build_forward_operator(ImagingGeometry(**_WINDOW, time_samples=29))
    assert np.array_equal(np.bincount(op.indices, minlength=op.n_cols),
                          np.full(op.n_cols, 8))


def test_window_error_names_the_truncating_detector():
    # detector 0 (angle 0) has its farthest pixel 3.89 mm away, inside the
    # 28 windows; detector 1 (angle pi/4) is the first past them
    with pytest.raises(SignalWindowError, match="detector 1's farthest"):
        build_forward_operator(ImagingGeometry(**_WINDOW, time_samples=28))


def test_build_refuses_more_entries_than_int32_in_total(monkeypatch):
    # 2 detectors x 256 pixels, one sub-element: each block holds 256
    # entries and the operator 512, so only the stitched count overflows
    geom = ImagingGeometry(
        grid_nx=16, grid_ny=16, pixel_pitch=1e-4, detector_count=2,
        ring_radius=3.065e-3, position_jitter_frac=0.0, sir_subelements=1,
        sound_speed=1500.0, dt=1e-7, time_samples=64)
    op = build_forward_operator(geom)
    assert op.indptr[geom.time_samples] == 256 and op.indptr[-1] == 512
    monkeypatch.setattr(kernels, "_INDEX_MAX", 300)
    with pytest.raises(GeometryError, match="512 entries.*int32"):
        build_forward_operator(geom)


def test_operator_bundle_roundtrip(tmp_path, toy_geometry):
    op = build_forward_operator(toy_geometry)
    op.to_bundle(tmp_path / "op")
    arrays, meta = read_bundle(tmp_path / "op")
    assert op.indptr.dtype == op.indices.dtype == kernels.INDEX_DTYPE
    assert np.array_equal(arrays["row_offsets"], op.indptr)
    assert np.array_equal(arrays["col_indices"], op.indices)
    assert np.array_equal(arrays["values"], op.values)
    assert meta["kind"] == "forward_operator" and meta["jittered"] is False
    assert meta["output_scale"] == op.output_scale
    assert ImagingGeometry.from_dict(meta["geometry"]) == op.geometry


def test_assemble_csr_int32_and_limit(monkeypatch):
    rows = np.array([2, 0, 2, 0], dtype=np.int64)
    cols = np.array([1, 3, 1, 0], dtype=np.int64)
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    indptr, indices, data = kernels.assemble_csr(rows, cols, vals, 3, 4)
    assert indptr.dtype == indices.dtype == np.int32
    assert indptr.tolist() == [0, 2, 2, 3]
    assert indices.tolist() == [0, 3, 1]
    assert data.tolist() == [4.0, 2.0, 4.0]
    monkeypatch.setattr(kernels, "_INDEX_MAX", 2)
    with pytest.raises(GeometryError, match="4 columns.*int32"):
        kernels.assemble_csr(rows, cols, vals, 3, 4)
    with pytest.raises(GeometryError, match="3 entries.*int32"):
        kernels.assemble_csr(rows, cols % 2, vals, 3, 2)


@pytest.mark.parametrize("row,col", [(0, 3), (0, -1), (2, 0), (-1, 0)])
def test_assemble_csr_refuses_indices_outside_the_shape(row, col):
    # on a 2 x 3 shape, (0, 3) has the key of (1, 0) and (0, -1) that of
    # (-1, 2): the key alone would file them in the wrong cell
    rows, cols = np.array([1, row]), np.array([2, col])
    with pytest.raises(ValueError, match="outside the 2 x 3"):
        kernels.assemble_csr(rows, cols, np.ones(2), 2, 3)


def test_assemble_csr_refuses_too_many_rows_before_allocating():
    # 2**40 rows of 2**30 columns: int32 cannot index the rows, and an
    # indptr of 2**40 + 1 int32 offsets would not fit in memory
    rows = np.array([0, 5, 2**40 - 1], dtype=np.int64)
    cols = np.array([1, 0, 2**30 - 1], dtype=np.int64)
    with pytest.raises(GeometryError, match="1099511627776 rows.*int32"):
        kernels.assemble_csr(rows, cols, np.ones(3), 2**40, 2**30)
    with pytest.raises(GeometryError, match="int32"):
        kernels.assemble_csr(rows, cols, np.ones(3), 2**40, 2**31)


def lexsort_csr_reference(rows, cols, vals, n_rows):
    """CSR assembly by a lexicographic (row, col) sort, duplicates summed
    by ``np.add.reduceat`` over each run in input order."""
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        new = np.empty(rows.size, dtype=bool)
        new[0] = True
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new)
        vals = np.add.reduceat(vals, starts)
        rows, cols = rows[starts], cols[starts]
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr, cols.astype(np.int32), vals


def assert_same_csr(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.parametrize("seed,n_rows,n_cols", [
    (0, 37, 29), (1, 37, 29), (2, 37, 29), (3, 2, 70001), (4, 70001, 2)],
    ids=["0", "1", "2", "3-wide", "4-tall"])
def test_assemble_csr_sums_duplicates_in_input_order(seed, n_rows, n_cols):
    # every (row, col) cell gets a run of 1..12 duplicates, shuffled, so
    # runs are longer than reduceat's 8-wide block; with 1e16 and -1e16
    # among the values each run's float sum depends on its order. The
    # wide and tall shapes number 17-bit columns and rows; 17-bit rows
    # are past numpy's 16-bit radix sort.
    rng = np.random.default_rng(seed)
    runs = rng.integers(1, 13, size=n_rows * n_cols)
    runs[:12] = np.arange(1, 13)
    cells = np.repeat(rng.permutation(n_rows * n_cols), runs)
    order = rng.permutation(cells.size)
    rows, cols = np.divmod(cells[order], n_cols)
    vals = rng.choice([1e16, 1.0, -1e16, 0.5, 3.0], size=cells.size)
    got = kernels.assemble_csr(rows, cols, vals, n_rows, n_cols)
    want = lexsort_csr_reference(rows, cols, vals, n_rows)
    assert_same_csr(got, want)
    # the values really are order-sensitive: summing each cell's run in
    # sorted-value order changes some sums
    resorted = np.lexsort((vals, cols, rows))
    assert not np.array_equal(
        kernels.assemble_csr(rows[resorted], cols[resorted],
                             vals[resorted], n_rows, n_cols)[2], got[2])


def test_assemble_csr_empty_input():
    empty = np.zeros(0, dtype=np.int64)
    got = kernels.assemble_csr(empty, empty, np.zeros(0), 4, 3)
    assert_same_csr(got, lexsort_csr_reference(empty, empty, np.zeros(0), 4))
    assert got[0].tolist() == [0, 0, 0, 0, 0]


def _entries_both_ways(geom, jittered):
    """Every detector's ``forward_entries`` block, rows offset by
    ``l * nt`` and stacked, and the mask reference over all detectors."""
    px, py = geom.pixel_coords()
    dsx, dsy = geom.subelement_positions(jittered=jittered)
    nt = geom.time_samples
    args = (geom.sound_speed, geom.dt, nt, entry_scale(geom))
    blocks = [kernels.forward_entries(px, py, dsx[l], dsy[l], *args,
                                      detector=l)
              for l in range(geom.detector_count)]
    rows, cols, vals = zip(*blocks)
    got = (np.concatenate([r + l * nt for l, r in enumerate(rows)]),
           np.concatenate(cols), np.concatenate(vals))
    return got, mask_forward_entries(px, py, dsx, dsy, *args)


_DUPLICATING = ImagingGeometry(
    grid_nx=20, grid_ny=20, pixel_pitch=110e-6, detector_count=5,
    ring_radius=4e-3, position_jitter_frac=2e-3, time_samples=128,
    sir_subelements=3, sensor_diameter=2e-6, jitter_seed=3)


@pytest.mark.parametrize("case", ["toy", "toy_jittered", "duplicating"])
def test_forward_entries_match_mask_reference_in_order(case, toy_geometry):
    geom = _DUPLICATING if case == "duplicating" else toy_geometry
    got, want = _entries_both_ways(geom, jittered=case != "toy")
    for g, w, dtype in zip(got, want, (np.int64, np.int64, np.float64)):
        assert g.dtype == w.dtype == dtype
        assert np.array_equal(g, w)
    if case == "duplicating":
        # the kf+1 candidate fires for some pixels (tau/dt rounds up) ...
        px, py = geom.pixel_coords()
        dsx, dsy = geom.subelement_positions(jittered=True)
        tau_dt = np.hypot(px - dsx[0, 0], py - dsy[0, 0]) \
            / geom.sound_speed / geom.dt
        assert np.any(tau_dt - np.floor(tau_dt) > 0.5)
        # ... and sub-elements within 2 um hit the same (row, pixel) cells
        rows, cols, _ = got
        assert np.unique(rows * geom.n_pixels + cols).size < rows.size


@pytest.mark.parametrize("jittered", [False, True],
                         ids=["nominal", "jittered"])
@pytest.mark.parametrize("geom", [
    geometry_from_config(desk_config()), geometry_from_config(paper_config()),
    _DUPLICATING], ids=["desk", "paper", "duplicating"])
def test_build_matches_reference_assembly_bit_for_bit(geom, jittered):
    # one lexsort over every detector's entries; the per-detector blocks
    # sort time samples as uint8 (desk, duplicating) or uint16 (paper)
    # keys, and the duplicating geometry sums runs of tied cells
    op = build_forward_operator(geom, jittered=jittered)
    _, (rows, cols, vals) = _entries_both_ways(geom, jittered=jittered)
    want = lexsort_csr_reference(rows, cols, vals, geom.detector_count
                                 * geom.time_samples)
    assert_same_csr((op.indptr, op.indices, op.values), want)


# ---------------------------------------------------------------------------
# apply / adjoint
# ---------------------------------------------------------------------------

def test_zero_image_zero_sinogram(toy_geometry):
    op = build_forward_operator(toy_geometry)
    sino = apply_forward(op, Image(np.zeros(toy_geometry.image_shape)))
    assert not np.any(sino.data)


def test_linearity(toy_geometry):
    op = build_forward_operator(toy_geometry)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(toy_geometry.image_shape)
    y = rng.standard_normal(toy_geometry.image_shape)
    lhs = apply_forward(op, Image(2.5 * x - 1.25 * y)).data
    rhs = 2.5 * apply_forward(op, Image(x)).data \
        - 1.25 * apply_forward(op, Image(y)).data
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_apply_matches_dense_oracle(toy_geometry):
    op = build_forward_operator(toy_geometry)
    full = dense_full_oracle(toy_geometry)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(toy_geometry.n_pixels)
    got = op.apply_vec(x)
    want = op.output_scale * (full @ x)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_adjoint_matches_dense_oracle(toy_geometry):
    op = build_forward_operator(toy_geometry)
    full = dense_full_oracle(toy_geometry)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(op.n_rows)
    got = op.adjoint_vec(y)
    want = op.output_scale * (full.T @ y)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_zero_sinogram_zero_image(toy_geometry):
    op = build_forward_operator(toy_geometry)
    img = apply_adjoint(op, Sinogram(np.zeros(toy_geometry.sinogram_shape)))
    assert not np.any(img.data)


def test_adjoint_identity(toy_geometry):
    op = build_forward_operator(toy_geometry)
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = rng.standard_normal(op.n_cols)
        y = rng.standard_normal(op.n_rows)
        ax = op.apply_vec(x)
        aty = op.adjoint_vec(y)
        lhs = ax @ y
        rhs = x @ aty
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)


def test_output_scale_matches_dense_power_iteration(toy_geometry):
    op = build_forward_operator(toy_geometry)
    full = dense_full_oracle(toy_geometry)
    v = np.full(op.n_cols, 1.0 / np.sqrt(op.n_cols))
    for _ in range(30):
        w = full @ v
        sigma = np.linalg.norm(w)
        v = full.T @ w
        v /= np.linalg.norm(v)
    assert abs(op.output_scale * sigma - 1.0) <= 1e-12


def test_csr_products_match_bincount_reference(toy_geometry):
    op = build_forward_operator(toy_geometry)
    indptr, indices, data = op.indptr, op.indices, op.values
    rng = np.random.default_rng(8)
    x = rng.standard_normal(op.n_cols)
    y = rng.standard_normal(op.n_rows)
    row_ids = np.repeat(np.arange(op.n_rows), np.diff(indptr))
    want_ax = np.bincount(row_ids, weights=data * x[indices],
                          minlength=op.n_rows)
    want_aty = np.bincount(indices, weights=data * y[row_ids],
                           minlength=op.n_cols)
    assert np.array_equal(kernels.csr_matvec(indptr, indices, data, x),
                          want_ax)
    assert np.array_equal(
        kernels.csr_rmatvec(indptr, indices, data, y, op.n_cols), want_aty)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("geom", ["toy", "desk"])
def test_csr_products_equal_scipy_matrix_products(toy_geometry, geom,
                                                  index_dtype):
    # the kernels call scipy's private compiled routines; a scipy release
    # that changes them must fail here, not shift every operator bit
    geometry = (toy_geometry if geom == "toy"
                else geometry_from_config(desk_config()))
    op = build_forward_operator(geometry, jittered=True)
    indptr = op.indptr.astype(index_dtype)
    indices = op.indices.astype(index_dtype)
    a = sp.csr_matrix((op.values, indices, indptr),
                      shape=(op.n_rows, op.n_cols))
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(op.n_cols)
        y = rng.standard_normal(op.n_rows)
        ax = kernels.csr_matvec(indptr, indices, op.values, x)
        aty = kernels.csr_rmatvec(indptr, indices, op.values, y, op.n_cols)
        assert ax.dtype == aty.dtype == np.float64
        assert np.array_equal(ax, a @ x)
        assert np.array_equal(aty, a.T @ y)


def test_csr_rmatvec_refuses_a_vector_of_another_length(toy_geometry):
    op = build_forward_operator(toy_geometry)
    with pytest.raises(ValueError, match="rows"):
        kernels.csr_rmatvec(op.indptr, op.indices, op.values,
                            np.ones(op.n_rows - 1), op.n_cols)


def test_shape_mismatch_rejected(toy_geometry):
    op = build_forward_operator(toy_geometry)
    with pytest.raises(ShapeError):
        apply_forward(op, Image(np.zeros((4, 4))))
    with pytest.raises(ShapeError):
        apply_adjoint(op, Sinogram(np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# time-derivative stencil
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nt", [2, 3, 4, 5, 17])
def test_derivative_matches_dense(nt):
    dt = 0.5
    d = dense_derivative_oracle(nt, dt)
    rng = np.random.default_rng(nt)
    s = rng.standard_normal((3, nt))
    assert np.allclose(time_derivative(s, dt), s @ d.T, rtol=1e-14, atol=1e-14)
    y = rng.standard_normal((3, nt))
    assert np.allclose(time_derivative_adjoint(y, dt), y @ d, rtol=1e-14,
                       atol=1e-14)


# ---------------------------------------------------------------------------
# Tikhonov
# ---------------------------------------------------------------------------

class _IdentityOp:
    """Unit-diagonal stand-in with the ForwardOperator vector interface."""

    def __init__(self, g):
        self.geometry = g
        self.n_cols = g.n_pixels
        self.n_rows = g.detector_count * g.time_samples

    def apply_vec(self, x):
        y = np.zeros(self.n_rows)
        y[:x.size] = x
        return y

    def adjoint_vec(self, y):
        return y[:self.n_cols].copy()

    def normal_vec(self, x, lam):
        return self.adjoint_vec(self.apply_vec(x)) + lam * x


def test_tikhonov_identity_halves(tik_geometry):
    g = tik_geometry
    op = _IdentityOp(g)
    rng = np.random.default_rng(9)
    pd = np.zeros(g.sinogram_shape)
    pd.ravel()[:g.n_pixels] = rng.standard_normal(g.n_pixels)
    res = tikhonov_solve(op, Sinogram(pd), lam=1.0, max_iters=50, tol=1e-12)
    assert res.converged
    want = pd.ravel()[:g.n_pixels].reshape(g.image_shape) / 2.0
    assert np.allclose(res.image.data, want, rtol=1e-10, atol=1e-12)


def test_tikhonov_huge_lambda_shrinks_to_zero(tik_geometry):
    op = build_forward_operator(tik_geometry)
    rng = np.random.default_rng(10)
    pd = rng.standard_normal(tik_geometry.sinogram_shape)
    lam = 1e8
    res = tikhonov_solve(op, Sinogram(pd), lam=lam, max_iters=100, tol=1e-10)
    b = op.adjoint_vec(pd.ravel())
    assert np.linalg.norm(res.image.data) <= np.linalg.norm(b) / lam * 1.0001


def test_tikhonov_matches_dense_solve(tik_geometry):
    op = build_forward_operator(tik_geometry)
    full = build_forward_operator(tik_geometry).output_scale \
        * dense_full_oracle(tik_geometry)
    rng = np.random.default_rng(11)
    pd = rng.standard_normal(tik_geometry.sinogram_shape)
    lam = 1e-2
    res = tikhonov_solve(op, Sinogram(pd), lam=lam, max_iters=2000, tol=1e-12)
    n = tik_geometry.n_pixels
    direct = np.linalg.solve(full.T @ full + lam * np.eye(n),
                             full.T @ pd.ravel())
    err = np.linalg.norm(res.image.data.ravel() - direct) / np.linalg.norm(direct)
    assert err <= 1e-6


def test_tikhonov_norm_monotone_in_lambda(tik_geometry):
    op = build_forward_operator(tik_geometry)
    rng = np.random.default_rng(12)
    pd = rng.standard_normal(tik_geometry.sinogram_shape)
    norms = []
    for lam in (1e-4, 1e-2, 1.0):
        res = tikhonov_solve(op, Sinogram(pd), lam=lam, max_iters=2000, tol=1e-12)
        norms.append(np.linalg.norm(res.image.data))
    assert norms[0] >= norms[1] >= norms[2]


def test_tikhonov_rejects_bad_args(tik_geometry):
    op = build_forward_operator(tik_geometry)
    sino = Sinogram(np.ones(tik_geometry.sinogram_shape))
    with pytest.raises(ValueError):
        tikhonov_solve(op, sino, lam=-1.0, max_iters=100, tol=1e-8)
    with pytest.raises(ValueError):
        tikhonov_solve(op, sino, lam=0.1, max_iters=0, tol=1e-8)
    with pytest.raises(ValueError):
        tikhonov_solve(op, sino, lam=0.1, max_iters=100, tol=0.0)
    for lam in (np.inf, np.nan):
        with pytest.raises(ConfigError):
            tikhonov_solve(op, sino, lam=lam, max_iters=100, tol=1e-8)
    bad = np.ones(tik_geometry.sinogram_shape)
    bad[0, 0] = np.nan
    with pytest.raises(NumericalError):
        tikhonov_solve(op, Sinogram(bad), lam=0.1, max_iters=100, tol=1e-8)


# ---------------------------------------------------------------------------
# noise injection
# ---------------------------------------------------------------------------

def test_noise_clean_sentinel(toy_geometry):
    sino = Sinogram(np.ones(toy_geometry.sinogram_shape))
    out = add_noise(sino, np.inf, seed=0)
    assert np.array_equal(out.data, sino.data)


def test_noise_deterministic(toy_geometry):
    rng = np.random.default_rng(13)
    sino = Sinogram(rng.standard_normal(toy_geometry.sinogram_shape))
    a = add_noise(sino, 20.0, seed=99)
    b = add_noise(sino, 20.0, seed=99)
    assert np.array_equal(a.data, b.data)
    c = add_noise(sino, 20.0, seed=100)
    assert not np.array_equal(a.data, c.data)


def test_noise_power_at_20db():
    rng = np.random.default_rng(14)
    data = rng.standard_normal((100, 1000))  # 1e5 samples
    sino = Sinogram(data)
    noisy = add_noise(sino, 20.0, seed=7)
    noise = noisy.data - data
    target = np.mean(data ** 2) / 100.0
    n = data.size
    # variance of the sample mean of squares: ~ 2 sigma^4 / n for gaussians
    se = np.sqrt(2.0 / n) * target
    assert abs(np.mean(noise ** 2) - target) <= 3 * se


def test_noise_rejects_zero_signal(toy_geometry):
    with pytest.raises(ValueError):
        add_noise(Sinogram(np.zeros(toy_geometry.sinogram_shape)), 20.0, 0)
    with pytest.raises(ValueError):
        add_noise(Sinogram(np.ones(toy_geometry.sinogram_shape)), np.nan, 0)
