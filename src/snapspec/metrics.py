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

from .errors import DegenerateMetricError, DimensionError, Domain, ParameterError, ValidationError

PSNR_CAP_DB = 100.0

# pixels whose spectrum norm falls below this are excluded from the angle mean
SAM_NORM_FLOOR = 1e-12

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
DEFAULT_CROP = 20
CROP = Domain(0)


def _check_shapes(x: np.ndarray, ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise DimensionError("shape mismatch: %r vs %r" % (x.shape, ref.shape))
    if x.ndim != 3:
        raise DimensionError("expected (H, W, bands) cubes, got shape %r" % (x.shape,))
    return x, ref


def _check_pair(x: np.ndarray, ref: np.ndarray,
                names: tuple[str, str] = ("x", "ref")) -> tuple[np.ndarray, np.ndarray]:
    """Both cubes as float64 (H, W, bands) arrays of one shape, every value
    finite; a non-finite value names its argument by ``names``."""
    x, ref = _check_shapes(x, ref)
    # a NaN reads as a NaN metric, or drops out of SAM's mean unseen
    for name, cube in zip(names, (x, ref)):
        if not np.all(np.isfinite(cube)):
            raise ValidationError("%s must be finite" % name)
    return x, ref


def psnr(x: np.ndarray, ref: np.ndarray, *, check_finite: bool = True) -> float:
    """Peak signal-to-noise ratio in dB over all voxels of two (H, W, bands)
    cubes for peak 1, capped at 100 dB.  ``check_finite=False`` skips the
    finiteness check, for a pair already checked."""
    x, ref = (_check_pair if check_finite else _check_shapes)(x, ref)
    mse = float(np.mean((x - ref) ** 2))
    if mse < 1e-10:
        return PSNR_CAP_DB
    return 10.0 * float(np.log10(1.0 / mse))


def sam(x: np.ndarray, ref: np.ndarray, *, check_finite: bool = True) -> float:
    """Mean per-pixel angle between spectra, in radians.

    Pixels where either spectrum has norm below ``SAM_NORM_FLOOR`` carry no
    direction and are skipped; if every pixel is degenerate the metric is
    undefined and an error is raised.  ``check_finite`` is as in :func:`psnr`.
    """
    x, ref = (_check_pair if check_finite else _check_shapes)(x, ref)
    nx = np.linalg.norm(x, axis=2)
    nr = np.linalg.norm(ref, axis=2)
    valid = (nx >= SAM_NORM_FLOOR) & (nr >= SAM_NORM_FLOOR)
    if not np.any(valid):
        raise DegenerateMetricError("all pixel spectra are degenerate; angle undefined")
    dots = np.sum(x * ref, axis=2)
    cos = np.clip(dots[valid] / (nx[valid] * nr[valid]), -1.0, 1.0)
    return float(np.mean(np.arccos(cos)))


def _ssim_window() -> np.ndarray:
    half = SSIM_WINDOW // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * SSIM_SIGMA**2))
    win = np.outer(g, g)
    return win / win.sum()


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth length (2^a 3^b 5^c) at least ``n`` >= 1, the
    sizes the real FFT runs fastest on, as scipy's ``next_fast_len(n, real=True)``."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def ssim(x: np.ndarray, ref: np.ndarray, *, check_finite: bool = True) -> float:
    """Mean structural similarity of two (H, W, bands) cubes, computed per
    band and averaged.

    Single-scale SSIM with an 11 x 11 Gaussian window (sigma 1.5) and, for
    peak 1, stability constants 0.01^2 and 0.03^2.  Local statistics use
    only fully-supported windows, so both spatial extents must be at least
    the window size.  Each local mean is an FFT linear convolution, zero
    padded to 5-smooth extents (f0, f1), cut to those windows: equal, bit
    for bit, to ``fftconvolve(img, window, mode="valid")``, with the
    window's spectrum taken once per call.  The forward transform is
    ``rfft2``'s two passes.  ``fftconvolve``'s inverse scales once, by
    1 / (f0 f1) after its row pass; numpy's scales each pass by its own
    length, so both passes here run unscaled (``norm="forward"``) and the
    valid window is then multiplied by ``1.0 / (f0 * f1)``, a double equal
    to the factor scipy rounds from long double for every such extent up
    to 1e12.  The inverse row pass runs only on the valid rows.
    ``check_finite`` is as in :func:`psnr`.
    """
    x, ref = (_check_pair if check_finite else _check_shapes)(x, ref)
    if x.shape[0] < SSIM_WINDOW or x.shape[1] < SSIM_WINDOW:
        raise DimensionError(
            "image extent %r smaller than the %d-pixel window"
            % (x.shape[:2], SSIM_WINDOW)
        )
    c1 = 0.01**2
    c2 = 0.03**2
    height, width = x.shape[:2]
    # linear, not circular: pad each axis to hold the full convolution; the
    # padding stays zero, as every image fills the same top-left corner
    f0, f1 = (_next_fast_len(n + SSIM_WINDOW - 1) for n in (height, width))
    padded = np.zeros((f0, f1))
    spectrum = np.empty((f0, f1 // 2 + 1), dtype=np.complex128)
    rows = slice(SSIM_WINDOW - 1, height)
    scale = 1.0 / (f0 * f1)

    def transform(img: np.ndarray) -> np.ndarray:
        padded[:img.shape[0], :img.shape[1]] = img
        np.fft.rfft(padded, axis=1, out=spectrum)
        return np.fft.fft(spectrum, axis=0, out=spectrum)

    win_f = transform(_ssim_window()).copy()

    def local_mean(img: np.ndarray) -> np.ndarray:
        np.multiply(transform(img), win_f, out=spectrum)
        np.fft.ifft(spectrum, axis=0, norm="forward", out=spectrum)
        full = np.fft.irfft(spectrum[rows], f1, axis=1, norm="forward")
        return np.multiply(full[:, SSIM_WINDOW - 1:width], scale)

    # a band's planes are freed when its score returns, before the next band's
    def score(a: np.ndarray, b: np.ndarray) -> np.float64:
        mu_a = local_mean(a)
        mu_b = local_mean(b)
        var_a = local_mean(a * a) - mu_a * mu_a
        var_b = local_mean(b * b) - mu_b * mu_b
        cov = local_mean(a * b) - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        return np.mean(num / den)

    return float(np.mean([score(x[:, :, band], ref[:, :, band])
                          for band in range(x.shape[2])]))


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
    What is left must span the SSIM window in both spatial extents, and hold
    only finite values: a NaN or inf there raises ``ValidationError`` naming
    ``recon`` or ``gt``, while one in the border is never measured.
    """
    recon, gt = _check_shapes(recon, gt)
    CROP.check_count(crop, "crop")
    if min(recon.shape[0], recon.shape[1]) - 2 * crop < SSIM_WINDOW:
        raise ParameterError(
            "crop %d on extent %r leaves less than the %d-pixel SSIM window"
            % (crop, recon.shape[:2], SSIM_WINDOW)
        )
    cut = slice(crop, -crop or None)
    recon, gt = recon[cut, cut], gt[cut, cut]
    # one finiteness check of the pair, not one more in each metric
    recon, gt = _check_pair(recon, gt, ("recon", "gt"))
    return MetricReport(
        psnr_db=psnr(recon, gt, check_finite=False),
        sam_rad=sam(recon, gt, check_finite=False),
        ssim=ssim(recon, gt, check_finite=False),
        crop=int(crop),
    )
