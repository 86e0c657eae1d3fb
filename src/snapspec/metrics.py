"""Reconstruction quality metrics: PSNR, spectral angle, SSIM, edge-crop protocol.

All three metrics compare a reconstructed cube against a reference of the
same shape.  ``evaluate`` bundles them behind the shared protocol of
cropping a fixed border before measuring, since boundary pixels carry
wrap-around artifacts that say nothing about reconstruction quality.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
import scipy.fft

from .errors import DegenerateMetricError, DimensionError, Domain, ParameterError

PSNR_CAP_DB = 100.0

# pixels whose spectrum norm falls below this are excluded from the angle mean
SAM_NORM_FLOOR = 1e-12

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
DEFAULT_CROP = 20
CROP = Domain(0)


def _check_pair(x: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise DimensionError("shape mismatch: %r vs %r" % (x.shape, ref.shape))
    if x.ndim != 3:
        raise DimensionError("expected (H, W, bands) cubes, got shape %r" % (x.shape,))
    return x, ref


def psnr(x: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB over all voxels of two (H, W, bands)
    cubes for peak 1, capped at 100 dB."""
    x, ref = _check_pair(x, ref)
    diff = np.subtract(x, ref)
    diff *= diff
    mse = float(np.mean(diff))
    if mse < 1e-10:
        return PSNR_CAP_DB
    return 10.0 * float(np.log10(1.0 / mse))


def sam(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean per-pixel angle between spectra, in radians.

    Pixels where either spectrum has norm below ``SAM_NORM_FLOOR`` carry no
    direction and are skipped; if every pixel is degenerate the metric is
    undefined and an error is raised.  The norms are ``np.linalg.norm``'s,
    and they and the dot products are summed from one product buffer.
    """
    x, ref = _check_pair(x, ref)
    products = np.multiply(x, x)
    nx = np.sqrt(np.add.reduce(products, axis=2))
    nr = np.sqrt(np.add.reduce(np.multiply(ref, ref, out=products), axis=2))
    valid = (nx >= SAM_NORM_FLOOR) & (nr >= SAM_NORM_FLOOR)
    if not np.any(valid):
        raise DegenerateMetricError("all pixel spectra are degenerate; angle undefined")
    dots = np.add.reduce(np.multiply(x, ref, out=products), axis=2)
    cos = np.clip(dots[valid] / (nx[valid] * nr[valid]), -1.0, 1.0)
    return float(np.mean(np.arccos(cos)))


def _ssim_window() -> np.ndarray:
    half = SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * SSIM_SIGMA**2))
    win = np.outer(g, g)
    return win / win.sum()


def ssim(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean structural similarity of two (H, W, bands) cubes, computed per
    band and averaged.

    Single-scale SSIM with an 11 x 11 Gaussian window (sigma 1.5) and, for
    peak 1, stability constants 0.01^2 and 0.03^2.  Local statistics use
    only fully-supported windows, so both spatial extents must be at least
    the window size.  Each local mean is an FFT linear convolution (zero
    padded, through ``scipy.fft``) cut to those windows: equal, bit for bit,
    to ``fftconvolve(img, window, mode="valid")``, with the window's spectrum
    taken once per call.  The squares and cross products go through one
    band buffer, and the map is evaluated in the local means' own arrays,
    in the order the SSIM expression rounds.
    """
    x, ref = _check_pair(x, ref)
    if x.shape[0] < SSIM_WINDOW or x.shape[1] < SSIM_WINDOW:
        raise DimensionError(
            "image extent %r smaller than the %d-pixel window"
            % (x.shape[:2], SSIM_WINDOW)
        )
    c1 = 0.01**2
    c2 = 0.03**2
    # linear, not circular: pad each axis to hold the full convolution
    fshape = [scipy.fft.next_fast_len(n + SSIM_WINDOW - 1, True) for n in x.shape[:2]]
    win_f = scipy.fft.rfftn(_ssim_window(), fshape)
    valid = (slice(SSIM_WINDOW - 1, x.shape[0]), slice(SSIM_WINDOW - 1, x.shape[1]))

    def local_mean(img: np.ndarray) -> np.ndarray:
        spec = scipy.fft.rfftn(img, fshape)
        spec *= win_f
        return scipy.fft.irfftn(spec, fshape, overwrite_x=True)[valid]

    products = np.empty(x.shape[:2])
    scores = []
    for band in range(x.shape[2]):
        a = x[:, :, band]
        b = ref[:, :, band]
        mu_a = local_mean(a)
        mu_b = local_mean(b)
        # den = (mu_a^2 + mu_b^2 + c1) * (var_a + var_b + c2), into sq_a
        sq_a = mu_a * mu_a
        sq_b = mu_b * mu_b
        var_a = local_mean(np.multiply(a, a, out=products))
        var_a -= sq_a
        var_b = local_mean(np.multiply(b, b, out=products))
        var_b -= sq_b
        sq_a += sq_b
        sq_a += c1
        var_a += var_b
        var_a += c2
        sq_a *= var_a
        # num = (2 mu_a mu_b + c1) * (2 cov + c2), into mu_a
        cov = local_mean(np.multiply(a, b, out=products))
        cov -= np.multiply(mu_a, mu_b, out=sq_b)
        cov *= 2.0
        cov += c2
        mu_a *= 2.0
        mu_a *= mu_b
        mu_a += c1
        mu_a *= cov
        # a contiguous quotient, so the mean sums in the order it always has
        scores.append(np.mean(np.divide(mu_a, sq_a)))
    return float(np.mean(scores))


@dataclass(frozen=True)
class MetricReport:
    """PSNR (dB), mean spectral angle (radians), SSIM, and the crop applied."""

    psnr_db: float
    sam_rad: float
    ssim: float
    crop: int

    @property
    def sam_deg(self) -> float:
        return float(np.degrees(self.sam_rad))

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def evaluate(recon: np.ndarray, gt: np.ndarray, crop: int = DEFAULT_CROP) -> MetricReport:
    """Crop ``crop`` pixels from every edge of both cubes, then measure.

    The default border of 20 pixels discards boundary-condition artifacts.
    What is left must span the SSIM window in both spatial extents.
    """
    recon, gt = _check_pair(recon, gt)
    CROP.check_count(crop, "crop")
    if min(recon.shape[0], recon.shape[1]) - 2 * crop < SSIM_WINDOW:
        raise ParameterError(
            "crop %d on extent %r leaves less than the %d-pixel SSIM window"
            % (crop, recon.shape[:2], SSIM_WINDOW)
        )
    if crop:
        recon = recon[crop:-crop, crop:-crop]
        gt = gt[crop:-crop, crop:-crop]
    return MetricReport(
        psnr_db=psnr(recon, gt),
        sam_rad=sam(recon, gt),
        ssim=ssim(recon, gt),
        crop=int(crop),
    )
