"""Discretized forward operator, its adjoint, and the classical inversions.

The full map image -> sinogram factors as a time-derivative stencil applied
after a purely geometric spreading matrix: for pixel j at ``r_j`` and
sub-detector position ``r_s`` of detector l, the spreading matrix has

    value = voxel_volume / (4 pi vs^2 dt^2 S) / |r_s - r_j|

at the one time row whose sample window holds the travel time (S =
sub-element count; finite apertures average S point sub-detectors along a
tangential chord). That window rule, and the refusal of a geometry whose
arrivals outrun the last sample, are stated once, in
:func:`kernels.forward_entries`. The spreading matrix is assembled once as
:mod:`kernels`' two-block CSR (one column block per half of the image),
one detector at a time: detector l owns the contiguous row block
``l*nt .. (l+1)*nt - 1``, so assembling each block on its own and
stacking the blocks (:func:`kernels.stack_csr`) gives the same arrays as
one sort over all entries. Every product with it (apply, adjoint, and the
power iteration below) goes through :func:`kernels.csr_matvec` /
:func:`kernels.csr_rmatvec`, which run a paper-size matrix on two threads
with the bits of one.

The derivative along the time axis uses a central difference in the interior
and one-sided first-order differences at both ends; the adjoint applies the
exact transpose, so ``apply_forward``/``apply_adjoint`` pass the dot-product
test at float64 round-off.

The assembled map is normalized by a scalar gain ``output_scale`` chosen so
its spectral norm is ~1, estimated by a fixed 30-step power iteration from
an all-ones start on the assembled CSR. Without it the 1/dt in the
derivative dominates every other scale, quadratic-penalty weights lose
meaning, and the normal equations become numerically rank deficient. The
gain multiplies the whole map, so it cancels anywhere reconstructions are
range-normalized. An exported operator (``oatdar operator``) stores the
gain with its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import ConfigError, GeometryError, NumericalError
from .geometry import (ImagingGeometry, Image, Sinogram, check_image,
                       check_sinogram)
from .grayio import normalize01
from .tensorfile import write_bundle


@dataclass
class ForwardOperator:
    """Linear map image -> sinogram with an exact adjoint.

    The spreading matrix is held as :mod:`kernels`' two-block CSR arrays.
    Immutable after construction; safe for concurrent read-only use. It
    holds only arrays and plain values, so it pickles: the worker thread
    that a large operator's products use belongs to :mod:`kernels`, never
    to the operator.
    """

    geometry: ImagingGeometry
    jittered: bool
    indptr: np.ndarray               # (2, n_rows + 1) block offsets (int32)
    indices: np.ndarray
    values: np.ndarray
    output_scale: float = 1.0

    @property
    def n_rows(self) -> int:
        return math.prod(self.geometry.sinogram_shape)

    @property
    def n_cols(self) -> int:
        return self.geometry.n_pixels

    # -- raw vector interface (float64, flattened) ---------------------------

    def apply_vec(self, x: np.ndarray) -> np.ndarray:
        ps = kernels.csr_matvec(self.indptr, self.indices, self.values, x)
        ps = ps.reshape(self.geometry.sinogram_shape)
        return self.output_scale * time_derivative(ps, self.geometry.dt).ravel()

    def adjoint_vec(self, y: np.ndarray) -> np.ndarray:
        y = self.output_scale * np.asarray(y, dtype=np.float64)
        y = y.reshape(self.geometry.sinogram_shape)
        s = time_derivative_adjoint(y, self.geometry.dt)
        return kernels.csr_rmatvec(self.indptr, self.indices, self.values,
                                   s.ravel(), self.n_cols)

    def normal_vec(self, x: np.ndarray, lam: float) -> np.ndarray:
        return self.adjoint_vec(self.apply_vec(x)) + lam * x

    # -- persistence ----------------------------------------------------------

    def to_bundle(self, path):
        """Write the one-block CSR of the spreading matrix and the gain as
        the bundle ``path``."""
        indptr, indices, values = kernels.plain_csr(self.indptr, self.indices,
                                                    self.values)
        # the container is float-only; offsets/indices are exact below 2**53
        arrays = {"row_offsets": indptr.astype(np.float64),
                  "col_indices": indices.astype(np.float64),
                  "values": values}
        meta = {"kind": "forward_operator", "jittered": self.jittered,
                "output_scale": self.output_scale,
                "geometry": self.geometry.to_dict()}
        return write_bundle(path, arrays, meta)


def entry_scale(geometry: ImagingGeometry) -> float:
    """Scale factor multiplying 1/distance in every spreading entry."""
    g = geometry
    return g.voxel_volume / (4.0 * np.pi * g.sound_speed ** 2 * g.dt ** 2) \
        / g.sir_subelements


def build_forward_operator(geometry: ImagingGeometry,
                           jittered: bool = False) -> ForwardOperator:
    """Construct the forward operator for ``geometry``.

    ``jittered=True`` uses the perturbed detector positions (simulation
    operator); ``False`` uses nominal positions (reconstruction operator).
    """
    if geometry.ring_radius <= geometry.half_diagonal():
        raise GeometryError(
            f"ring_radius {geometry.ring_radius:g} m must exceed the grid "
            f"half-diagonal {geometry.half_diagonal():g} m")
    g = geometry
    nt, n_rows = g.time_samples, math.prod(g.sinogram_shape)
    kernels.check_index_count(n_rows, "rows")
    px, py = g.pixel_coords()
    dsx, dsy = g.subelement_positions(jittered=jittered)
    blocks = []
    for l in range(len(dsx)):
        rows, cols, vals = kernels.forward_entries(
            px, py, dsx[l], dsy[l], g.sound_speed, g.dt, nt, entry_scale(g),
            detector=l)
        blocks.append(kernels.assemble_csr(rows, cols, vals, nt, g.n_pixels))
    op = ForwardOperator(geometry, jittered, *kernels.stack_csr(blocks))
    op.output_scale = _spectral_gain(op)
    return op


_GAIN_ITERS = 30  # power-iteration steps of _spectral_gain


def _spectral_gain(op: ForwardOperator) -> float:
    """1 / (power-iteration estimate of the unnormalized spectral norm).

    A fixed all-ones start and step count make the gain a deterministic
    function of the assembled matrix. The iteration runs the operator's own
    products at unit gain (multiplying by 1.0 is exact).
    """
    op = replace(op, output_scale=1.0)
    v = np.full(op.n_cols, 1.0 / np.sqrt(op.n_cols))
    sigma = 0.0
    for _ in range(_GAIN_ITERS):
        w = op.apply_vec(v)
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 1.0
        v = op.adjoint_vec(w)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return 1.0
        v /= nv
    return 1.0 / sigma


# ---------------------------------------------------------------------------
# Time-derivative stencil and its exact transpose.
# ---------------------------------------------------------------------------


def time_derivative(s: np.ndarray, dt: float) -> np.ndarray:
    """Central difference along the last axis, one-sided at both ends."""
    d = np.empty_like(s)
    d[..., 1:-1] = (s[..., 2:] - s[..., :-2]) / (2.0 * dt)
    d[..., 0] = (s[..., 1] - s[..., 0]) / dt
    d[..., -1] = (s[..., -1] - s[..., -2]) / dt
    return d


def time_derivative_adjoint(y: np.ndarray, dt: float) -> np.ndarray:
    """Transpose of :func:`time_derivative` along the last axis."""
    x = np.zeros_like(y)
    half = 0.5 / dt
    n = y.shape[-1]
    if n > 2:
        x[..., 0:n - 2] -= y[..., 1:n - 1] * half
        x[..., 2:n] += y[..., 1:n - 1] * half
    x[..., 0] -= y[..., 0] / dt
    x[..., 1] += y[..., 0] / dt
    x[..., n - 2] -= y[..., n - 1] / dt
    x[..., n - 1] += y[..., n - 1] / dt
    return x


# ---------------------------------------------------------------------------
# Public operations on Image / Sinogram wrappers.
# ---------------------------------------------------------------------------


def apply_forward(op: ForwardOperator, img: Image) -> Sinogram:
    """Simulate the sinogram for an initial-pressure image."""
    check_image(op.geometry, img)
    y = op.apply_vec(img.data.astype(np.float64).ravel())
    return Sinogram(data=y.reshape(op.geometry.sinogram_shape))


def apply_adjoint(op: ForwardOperator, sino: Sinogram) -> Image:
    """Linear backprojection: apply the exact transpose of the forward map."""
    check_sinogram(op.geometry, sino)
    x = op.adjoint_vec(sino.data.astype(np.float64).ravel())
    return Image(data=x.reshape(op.geometry.image_shape))


def reconstruct_lbp(rec_op: ForwardOperator, sino: Sinogram) -> Image:
    """The initial reconstruction: the adjoint of ``sino``, min-max scaled."""
    return Image(normalize01(apply_adjoint(rec_op, sino).data))


def check_snr(snr_db: float):
    """An SNR is a finite dB value or +inf, the "clean" sentinel."""
    if not (np.isfinite(snr_db) or snr_db == np.inf):
        raise ConfigError(f"SNR must be finite or inf, got {snr_db}")


def add_noise(sino: Sinogram, snr_db: float, seed: int) -> Sinogram:
    """Add white Gaussian noise at the requested SNR (dB).

    Per-sample noise variance is ``mean(sino**2) / 10**(snr_db/10)``.
    ``snr_db = inf`` is the explicit "clean" sentinel and returns the data
    unchanged. Deterministic given ``seed``.
    """
    check_snr(snr_db)
    data = np.asarray(sino.data, dtype=np.float64)
    if snr_db == np.inf:
        return Sinogram(data=data.copy())
    power = float(np.mean(data ** 2))
    if power == 0.0:
        raise ConfigError("SNR is undefined for an all-zero sinogram")
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noisy = data + sigma * rng.standard_normal(data.shape)
    return Sinogram(data=noisy)


@dataclass
class TikhonovResult:
    image: Image
    iterations: int
    residual: float       # relative normal-equation residual at exit
    converged: bool
    diverged: bool = False


def check_tikhonov(lam: float, max_iters: int, tol: float):
    """A finite penalty ``lam >= 0``, ``max_iters >= 1`` and ``tol > 0``."""
    if not (0.0 <= lam < math.inf and max_iters >= 1 and tol > 0):
        raise ConfigError("Tikhonov needs a finite lam >= 0, max_iters >= 1 "
                          f"and tol > 0, got {lam}, {max_iters}, {tol}")


def tikhonov_solve(op: ForwardOperator, sino: Sinogram, lam: float,
                   max_iters: int, tol: float) -> TikhonovResult:
    """Quadratic-penalty inversion by conjugate gradient.

    Solves ``(A^T A + lam I) p = A^T p_d`` and stops when the relative
    residual drops below ``tol`` or ``max_iters`` is reached. Ten consecutive
    iterations of residual growth flag divergence; the partial iterate is
    still returned.
    """
    check_tikhonov(lam, max_iters, tol)
    check_sinogram(op.geometry, sino)
    if not np.all(np.isfinite(sino.data)):
        raise NumericalError("sinogram contains non-finite values")

    b = op.adjoint_vec(sino.data.astype(np.float64).ravel())
    b_norm = float(np.linalg.norm(b))
    shape = op.geometry.image_shape
    if b_norm == 0.0:
        return TikhonovResult(Image(np.zeros(shape)), 0, 0.0, True)

    x = np.zeros(op.n_cols)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    prev_rel = np.sqrt(rr) / b_norm
    growth = 0
    it = 0
    for it in range(1, max_iters + 1):
        q = op.normal_vec(p, lam)
        alpha = rr / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rr_new = float(r @ r)
        rel = np.sqrt(rr_new) / b_norm
        if rel <= tol:
            return TikhonovResult(Image(x.reshape(shape)), it, rel, True)
        growth = growth + 1 if rel > prev_rel else 0
        prev_rel = rel
        if growth >= 10:
            return TikhonovResult(Image(x.reshape(shape)), it, rel,
                                  False, diverged=True)
        beta = rr_new / rr
        p = r + beta * p
        rr = rr_new
    return TikhonovResult(Image(x.reshape(shape)), it,
                          np.sqrt(rr) / b_norm, False)
