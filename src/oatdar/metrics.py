"""Image-quality metrics and multi-method comparison reports.

A :class:`MetricReport` holds one record per (entry, SNR, variant) case.
Its summary has one row per grouping key: the variant (``method``, or
``method-nis`` for a DAR step count) and, in the report of an SNR sweep,
the SNR.

Both metrics score images on the [0, 1] intensity range (a data range of
1). PSNR uses a declared cap of 99 dB (identical images would otherwise be
infinite and poison aggregates). SSIM follows the standard windowed
formulation: 11x11 Gaussian weights with sigma 1.5, K1 = 0.01, K2 = 0.03,
averaged over windows fully inside the image.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeError

PSNR_CAP = 99.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ShapeError(f"psnr shapes differ: {x.shape} vs {ref.shape}")
    mse = float(np.mean((x - ref) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(float(10.0 * np.log10(1.0 / mse)), PSNR_CAP)


def _gaussian_kernel():
    half = SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * SSIM_SIGMA ** 2))
    k = np.outer(g, g)
    return k / k.sum()


_KERNEL = _gaussian_kernel()


def _windowed(img: np.ndarray) -> np.ndarray:
    """Gaussian-weighted local means over all fully interior windows."""
    win = np.lib.stride_tricks.sliding_window_view(
        img, (SSIM_WINDOW, SSIM_WINDOW))
    return np.tensordot(win, _KERNEL, axes=([2, 3], [0, 1]))


def ssim(x: np.ndarray, ref: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ShapeError(f"ssim shapes differ: {x.shape} vs {ref.shape}")
    if min(x.shape) < SSIM_WINDOW:
        raise ShapeError(f"image {x.shape} smaller than the "
                         f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    mu_x = _windowed(x)
    mu_y = _windowed(ref)
    exx = _windowed(x * x)
    eyy = _windowed(ref * ref)
    exy = _windowed(x * ref)
    var_x = exx - mu_x * mu_x
    var_y = eyy - mu_y * mu_y
    cov = exy - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricRecord:
    entry_index: int
    method: str          # e.g. lbp / tikhonov / fdunet / dar / dar_lbp
    nis: int             # 0 for non-diffusion methods
    snr_db: float
    psnr: float
    ssim: float
    wall_time: float


@dataclass
class MetricReport:
    records: list
    config_hash: str = ""
    by_snr: bool = False     # a sweep's report: one summary row per SNR too

    def group_key(self, r: MetricRecord) -> str:
        """The summary row ``r`` counts in: ``dar-25``, or ``dar-25@snr=20``
        in a sweep's report."""
        name = f"{r.method}-{r.nis}" if r.nis else r.method
        return f"{name}@snr={r.snr_db:g}" if self.by_snr else name

    def compute_aggregates(self) -> dict:
        groups = {}
        for r in self.records:
            groups.setdefault(self.group_key(r), []).append(r)
        out = {}
        for name, rs in groups.items():
            ps = np.array([r.psnr for r in rs])
            ss = np.array([r.ssim for r in rs])
            ts = np.array([r.wall_time for r in rs])
            out[name] = {
                "count": len(rs),
                "psnr_mean": float(ps.mean()),
                "psnr_std": float(ps.std(ddof=1)) if len(rs) > 1 else 0.0,
                "psnr_median": float(np.median(ps)),
                "ssim_mean": float(ss.mean()),
                "ssim_std": float(ss.std(ddof=1)) if len(rs) > 1 else 0.0,
                "ssim_median": float(np.median(ss)),
                "wall_time_mean": float(ts.mean()),
            }
        return out

    def write(self, directory) -> Path:
        """records.tsv carries only deterministic columns (it is the
        artifact reproducibility is checked against); wall-clock times go
        to timings.tsv alongside."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        lines = ["#oatdar-report v1", f"#config_hash={self.config_hash}",
                 "index\tmethod\tnis\tsnr_db\tpsnr\tssim"]
        times = ["index\tmethod\tnis\twall_time"]
        for r in self.records:
            lines.append(f"{r.entry_index}\t{r.method}\t{r.nis}\t"
                         f"{r.snr_db!r}\t{r.psnr!r}\t{r.ssim!r}")
            times.append(f"{r.entry_index}\t{r.method}\t{r.nis}\t"
                         f"{r.wall_time!r}")
        (directory / "records.tsv").write_text("\n".join(lines) + "\n")
        (directory / "timings.tsv").write_text("\n".join(times) + "\n")
        w = 18 if self.by_snr else 14     # room for an ``@snr=<snr>`` label
        rows = [f"{'variant':<{w}}{'n':>5}{'PSNR mean':>12}{'+-':>8}"
                f"{'median':>10}{'SSIM mean':>12}{'+-':>8}{'median':>10}"
                f"{'sec/img':>10}"]
        for name, a in self.compute_aggregates().items():
            rows.append(f"{name:<{w}}{a['count']:>5}{a['psnr_mean']:>12.3f}"
                        f"{a['psnr_std']:>8.3f}{a['psnr_median']:>10.3f}"
                        f"{a['ssim_mean']:>12.4f}{a['ssim_std']:>8.4f}"
                        f"{a['ssim_median']:>10.4f}"
                        f"{a['wall_time_mean']:>10.3f}")
        (directory / "summary.txt").write_text("\n".join(rows) + "\n")
        return directory / "records.tsv"

    def content_hash(self, directory) -> str:
        path = Path(directory) / "records.tsv"
        return hashlib.sha256(path.read_bytes()).hexdigest()
