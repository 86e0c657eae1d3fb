"""Deterministic synthetic inputs: smooth scenes, rotating PSF stacks, responses.

Nothing here is calibrated against hardware; these generators exist so
tests, demos, and benchmarks can build self-contained problem instances
with realistic structure (spatially and spectrally smooth scenes, PSFs
whose shape varies monotonically with wavelength, overlapping response
curves).
"""

from __future__ import annotations

import numpy as np

from .errors import SEED, Domain, ParameterError
from .optics import OpticalSystem, gaussian_kernel, row_strips

BANDS = Domain(1)  # the band counts every generator takes


def smooth_cube(height: int, width: int, n_bands: int, seed: int = 0) -> np.ndarray:
    """Random spectral cube in [0, 1], smooth in space and across bands.

    White noise is low-passed with a wrap-around spatial Gaussian (so the
    scene has no seam under circular boundary handling) and a mild spectral
    blur, then min-max normalized.  Deterministic per seed.

    The filter is ``ndimage.gaussian_filter(mode="wrap")``'s: its kernel
    per axis (radius ``int(4 sigma + 0.5)``, unit sum), wrapped onto the
    axis, applied to axes 0, 1 and then the bands in that order.  Each axis
    is filtered through the FFT, a strip of :func:`optics.row_strips` of
    whole lines at a time, so the result matches the direct sums to
    roundoff.  The noise is filtered and normalized in its own array, which
    is returned: the working memory is about the one cube.
    """
    for name, value, domain in (("height", height, Domain(4)), ("width", width, Domain(4)),
                                ("n_bands", n_bands, BANDS), ("seed", seed, SEED)):
        domain.check_count(value, name)
    rng = np.random.default_rng(seed)
    cube = rng.standard_normal((height, width, n_bands))
    spatial = max(2.0, min(height, width) / 12.0)
    for axis, sigma in enumerate((spatial, spatial, 1.0)):
        n = cube.shape[axis]
        shape = [1, 1, 1]
        shape[axis] = n // 2 + 1
        transfer = _periodic_gaussian(n, sigma).reshape(shape)
        # strips across the columns for axis 0, across the rows otherwise;
        # a strip's lines, their half spectra and the inverse fit the budget
        across = 1 if axis == 0 else 0
        for s0, s1 in row_strips(cube.shape[across], 4 * cube.size // cube.shape[across]):
            strip = cube[:, s0:s1] if across else cube[s0:s1]
            spectra = np.fft.rfft(strip, axis=axis)
            spectra *= transfer
            np.fft.irfft(spectra, n, axis=axis, out=strip)
    lo = cube.min()
    hi = cube.max()
    if hi - lo < 1e-12:
        cube.fill(0.5)
        return cube
    cube -= lo
    cube /= hi - lo
    return cube


def _periodic_gaussian(n: int, sigma: float) -> np.ndarray:
    """The real half spectrum (n // 2 + 1) of ndimage's Gaussian kernel of
    ``sigma`` folded modulo ``n`` onto one period, so that a kernel longer
    than the axis wraps as ``mode="wrap"`` does."""
    kernel = gaussian_kernel(sigma)
    radius = kernel.shape[0] // 2
    period = np.zeros(n)
    np.add.at(period, np.arange(-radius, radius + 1) % n, kernel)
    return np.fft.rfft(period).real


def rotating_psf_stack(n_bands: int, kernel_size: int, radius: float | None = None,
                       spot_std: float | None = None) -> np.ndarray:
    """Unit-sum PSF stack whose two lobes rotate with band index.

    Each kernel is a pair of Gaussian spots placed symmetrically about the
    center at an angle that sweeps 150 degrees across the bands, the kind
    of wavelength-coded blur a rotating-lobe diffractive element produces.
    Returns shape (n_bands, kernel_size, kernel_size).
    """
    BANDS.check_count(n_bands, "n_bands")
    Domain(3).check_count(kernel_size, "kernel_size")
    if kernel_size % 2 == 0:
        raise ParameterError("kernel_size: must be odd, got %r" % kernel_size)
    half = kernel_size // 2
    if radius is None:
        radius = 0.55 * half
    if spot_std is None:
        spot_std = max(0.7, 0.12 * kernel_size)
    yy, xx = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    stack = np.empty((n_bands, kernel_size, kernel_size))
    for i, theta in enumerate(np.linspace(0.0, 5.0 * np.pi / 6.0, n_bands)):
        cy = radius * np.sin(theta)
        cx = radius * np.cos(theta)
        lobe_a = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * spot_std**2)))
        lobe_b = np.exp(-(((yy + cy) ** 2 + (xx + cx) ** 2) / (2.0 * spot_std**2)))
        kernel = lobe_a + lobe_b
        stack[i] = kernel / kernel.sum()
    return stack


def band_wavelengths(n_bands: int) -> np.ndarray:
    """Evenly spaced band-center wavelengths from 450 to 650 nanometers."""
    BANDS.check_count(n_bands, "n_bands")
    return np.linspace(450.0, 650.0, n_bands)


def rgb_response(n_bands: int) -> np.ndarray:
    """Overlapping non-negative response curves, rows ordered r, g, b.

    Gaussian bumps centered at 3/4, 1/2, and 1/4 of the band axis with a
    flat baseline of 0.02 so every band reaches every channel, which keeps
    synthetic systems well-conditioned.  Shape (3, n_bands).
    """
    BANDS.check_count(n_bands, "n_bands")
    pos = np.linspace(0.0, 1.0, n_bands) if n_bands > 1 else np.array([0.5])
    width = 0.18
    centers = np.array([0.75, 0.5, 0.25])
    response = np.exp(-((pos[None, :] - centers[:, None]) ** 2) / (2.0 * width**2))
    return response + 0.02


def synthetic_system(n_bands: int = 8, kernel_size: int = 9) -> OpticalSystem:
    """Convenience bundle: rotating PSF stack plus overlapping RGB response."""
    return OpticalSystem(
        psfs=rotating_psf_stack(n_bands, kernel_size),
        response=rgb_response(n_bands),
    )
