"""Optical system model: PSF stacks, spectral response, the coded-image
forward operator and sensor noise.

A scene cube I (H, W, bands) is encoded into an RGB image by convolving each
band with its wavelength-dependent PSF and weighting by the sensor response:

    J[x, y, c] = sum_i (I[:, :, i] * p_i)[x, y] * response[c, i]

Under circular boundary conditions this operator diagonalizes per spatial
frequency into a 3 x bands complex matrix H_f[c, i] = response[c, i] P_i(f),
where P_i, the DFT of band i's PSF, is its OTF (optical transfer function).
:class:`FrequencyOperator` stores these two factors and nothing else: the
solver's Gram planes, their largest entry and ``lipschitz`` are derived on
first use.  The solver and :func:`forward_encode`, which simulates a frame,
apply that one operator, so the model has one implementation.

Kernels, cubes and images are real, so every spectrum is Hermitian and only
the non-negative half of the last axis is kept (``rfft2``).  This module
owns that layout: :func:`to_spectrum` maps an (H, W, depth) array to its
band-major (depth, H, W // 2 + 1) half spectra, checking the grid shape on
the way, and :func:`from_spectrum` maps back to the full extent (H, W), so
odd widths round-trip.  Every transform of a cube or a coded image, either
way, goes through these two helpers; the package's other transforms, the
kernels' OTFs in :func:`build_frequency_operator`, the Gaussian-window
convolutions of ``metrics.ssim`` and the scene filter of
``synth.smooth_cube``, call ``scipy.fft`` themselves.  The
helpers run the row and column passes of the 2-D transform on every band
at once, the rows a strip of :func:`row_strips` at a time, with the bits
of ``rfft2`` and numpy's ``irfft2``.  The inverse consumes the spectra it
is handed, as its column pass is made in their bytes: a caller that reads
them again passes a copy.  A cube from :func:`empty_cube` has its rows
padded to 2 (W // 2 + 1) floats, so its half spectra fit in its own bytes
(:func:`cube_spectrum`): a solve needs no spectrum of its own, and its
transforms there and back hold one strip.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import SEED, DimensionError, Domain, ParameterError, ValidationError, check_params

PSF_SUM_TOL = 1e-9

# Default sensor noise profile (calibrated shot + read noise).
DEFAULT_GAUSSIAN_SIGMA = 7e-5
DEFAULT_POISSON_BITS = 14


@dataclass(frozen=True)
class OpticalSystem:
    """Normalized per-band PSFs plus the sensor's spectral response.

    ``psfs`` has shape (bands, k, k) with k odd and each kernel summing to 1.
    ``response`` has shape (3, bands) with finite, non-negative entries.
    """

    psfs: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        psfs = np.ascontiguousarray(self.psfs, dtype=np.float64)
        response = np.ascontiguousarray(self.response, dtype=np.float64)
        if psfs.ndim != 3 or psfs.shape[1] != psfs.shape[2]:
            raise DimensionError("psfs must have shape (bands, k, k), got %r" % (psfs.shape,))
        if psfs.shape[1] % 2 != 1:
            raise ValidationError("kernel size must be odd, got %d" % psfs.shape[1])
        if response.shape != (3, psfs.shape[0]):
            raise DimensionError(
                "response shape %r does not match %d bands" % (response.shape, psfs.shape[0])
            )
        # each check states what must hold, so that a NaN fails it
        if not np.all(np.isfinite(response) & (response >= 0)):
            raise ValidationError("spectral response must be finite and non-negative")
        sums = psfs.sum(axis=(1, 2))
        if not np.all(np.abs(sums - 1.0) <= PSF_SUM_TOL):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ValidationError(
                "psf %d sums to %.12g, expected 1 within %g" % (worst, sums[worst], PSF_SUM_TOL)
            )
        object.__setattr__(self, "psfs", psfs)
        object.__setattr__(self, "response", response)

    @property
    def n_bands(self) -> int:
        return self.psfs.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.psfs.shape[1]


# plane of entry (a, b) of a symmetric 3 x 3 in the layout of FrequencyOperator.gram
GRAM_PLANES = ((0, 1, 2), (1, 3, 4), (2, 4, 5))


@dataclass(frozen=True)
class FrequencyOperator:
    """The coded-image forward operator as its two per-frequency factors.

    ``transfer[i, u, v]`` is the 2-D real-input DFT (``rfft2``, unnormalized
    forward transform) of band i's PSF, zero-embedded into the image grid
    with the kernel center at index (0, 0): the band's OTF.  The kernels are
    real, so the spectrum is Hermitian and only its non-negative half along
    the last axis is stored: the shape is (bands, height, width // 2 + 1).
    A unit-sum kernel has ``transfer[i, 0, 0] == 1``.
    ``response`` is the sensor's (3, bands) real spectral response; omitted,
    it is all ones (a monochrome sensor summing the bands in each channel).

    The 3 x bands transfer matrix of bin f is
    ``H_f[c, i] = response[c, i] * transfer[i, f]``; it is never stored.
    Its gain-independent Gram H_f H_f^* is real and symmetric, with entries
    ``sum_i response[a, i] response[b, i] |transfer[i, u, v]|^2``.  ``gram``
    holds its 6 distinct entries as planes, derived on first use and kept:
    shape (6, height, width // 2 + 1), plane p holding entry (a, b) for the
    upper-triangle pairs (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)
    (the order of ``np.triu_indices(3)``; ``GRAM_PLANES`` maps them back).
    """

    transfer: np.ndarray
    height: int
    width: int
    response: np.ndarray | None = None

    def __post_init__(self):
        if self.response is None:
            object.__setattr__(self, "response", np.ones((3, self.n_bands)))
        expected = (self.height, self.width // 2 + 1)
        if self.response.shape != (3, self.n_bands) or self.transfer.shape[1:] != expected:
            raise DimensionError(
                "response shape %r and transfer shape %r, expected (3, bands) and (bands,) + %r"
                % (self.response.shape, self.transfer.shape, expected)
            )

    @property
    def n_bands(self) -> int:
        return self.transfer.shape[0]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        # the planes first: the power planes, freed last, leave no hole under them
        gram = np.empty((6,) + self.transfer.shape[1:])
        # |transfer|^2 plane by plane, a Gram plane the scratch until the product
        power = np.empty(self.transfer.shape, dtype=self.transfer.real.dtype)
        for t, plane in zip(self.transfer, power):
            np.square(t.real, out=plane)
            plane += np.square(t.imag, out=gram[0])
        rows, cols = np.triu_indices(3)
        np.dot(self.response[rows] * self.response[cols], power.reshape(self.n_bands, -1),
               out=gram.reshape(6, -1))
        return gram

    @functools.cached_property
    def lipschitz(self) -> float:
        """||A||^2, the largest eigenvalue of any bin's Gram H_f H_f^*; computed
        on first use, as the sweep costs more than an exact solve."""
        gram = np.moveaxis(self.gram[np.array(GRAM_PLANES)], (0, 1), (-2, -1))
        return float(np.linalg.eigvalsh(gram)[..., -1].max())

    @functools.cached_property
    def gram_max(self) -> float:
        """The largest Gram entry of any bin: a diagonal one, as every entry
        is bounded by its row's and column's (Cauchy-Schwarz); taken plane by plane."""
        return max(float(self.gram[p].max()) for p in (0, 3, 5))


@dataclass(frozen=True)
class NoiseModel:
    """Sensor noise: photon shot noise against a full well of ``2**poisson_bits``
    counts, followed by additive Gaussian read noise.

    ``poisson_bits = 0`` disables the Poisson stage, and a read noise above the unit
    peak is no sensor's (``params`` holds both ranges); sampling is deterministic per ``seed``.
    """

    gaussian_sigma: float = DEFAULT_GAUSSIAN_SIGMA
    poisson_bits: int = DEFAULT_POISSON_BITS
    seed: int = 0
    params = {"gaussian": ("gaussian_sigma", float, Domain(0.0, 1.0)),
              "poisson_bits": ("poisson_bits", int, Domain(8, 16, off=0))}

    def __post_init__(self):
        check_params(self, "noise spec", **vars(self))
        SEED.check_count(self.seed, "noise seed")


def embed_kernel(kernel: np.ndarray, height: int, width: int) -> np.ndarray:
    """Zero-embed a k x k kernel into (height, width) with its center at (0, 0)."""
    k = kernel.shape[-1]
    if k > height or k > width:
        raise DimensionError("kernel size %d exceeds image extent (%d, %d)" % (k, height, width))
    emb = np.zeros(kernel.shape[:-2] + (height, width), dtype=np.float64)
    emb[..., :k, :k] = kernel
    return np.roll(emb, (-(k // 2), -(k // 2)), axis=(-2, -1))


def forward_encode(cube: np.ndarray, system: OpticalSystem) -> np.ndarray:
    """Encode a spectral cube (H, W, bands) into a coded RGB image (H, W, 3).

    Indices wrap (circular boundary): this is :func:`apply_forward_frequency`
    with the operator of ``system`` on the cube's grid, the model that
    reconstruction inverts.  The boundary-free interior is this output with
    (k - 1) / 2 pixels cropped per edge.  No noise is added here.
    """
    cube = np.asarray(cube, dtype=np.float64)
    if cube.ndim != 3 or cube.shape[2] != system.n_bands:
        raise DimensionError(
            "cube shape %r does not match %d bands" % (cube.shape, system.n_bands)
        )
    height, width = cube.shape[:2]
    return apply_forward_frequency(build_frequency_operator(system, height, width), cube)


def build_frequency_operator(system: OpticalSystem, height: int, width: int) -> FrequencyOperator:
    """The system's response and per-band OTFs on an (height, width) grid.

    Each band's kernel is embedded and transformed on its own into the
    operator's ``transfer``, about one cube of the grid and the whole working
    memory (1.26 cubes at 8 bands): the Gram waits for its first use.
    """
    transfer = np.empty((system.n_bands, height, width // 2 + 1), dtype=np.complex128)
    for spectrum, psf in zip(transfer, system.psfs):
        spectrum[...] = scipy.fft.rfft2(embed_kernel(psf, height, width))
    return FrequencyOperator(
        response=system.response, transfer=transfer, height=height, width=width
    )


def to_spectrum(op: FrequencyOperator, x: np.ndarray, depth: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """Half spectra (depth, H, W // 2 + 1) of an (H, W, depth) array on the
    operator's grid: the ``rfft2`` of each band or channel.

    Raises DimensionError unless ``x`` has shape (op.height, op.width, depth).
    The spectra go into ``out``, a complex128 array of the result's shape,
    or into a new one when ``out`` is None; either is returned.  The two
    passes of ``rfft2`` run on every band at once: the rows a strip of
    :func:`row_strips` at a time into ``out``, then the columns in place,
    so the transient is one strip, and the bits are those of ``rfft2``
    whatever the memory layout of ``x``.  A strip's rows are transformed
    before they are written, so ``out`` may be :func:`cube_spectrum` of
    ``x`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_grid(op, x, depth)
    if out is None:
        out = np.empty((depth, op.height, op.width // 2 + 1), dtype=np.complex128)
    bands = x.transpose(2, 0, 1)
    for r0, r1 in row_strips(op.height, depth * out.shape[2]):
        out[:, r0:r1] = scipy.fft.rfft(bands[:, r0:r1], axis=-1)
    _columns_in_place(scipy.fft.fft, out)
    return out


def from_spectrum(op: FrequencyOperator, spectra: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The (H, W, depth) real array whose half spectra are ``spectra``
    (depth, H, W // 2 + 1): the inverse of :func:`to_spectrum`.  It
    consumes ``spectra``: pass a copy to keep them.

    The result goes into ``out``, an (H, W, depth) float64 array, or into a
    new band-major array when ``out`` is None; either is returned.  The two
    passes of numpy's ``irfft2`` run on every band at once: the columns in
    place in ``spectra``, then the rows a strip of :func:`row_strips` at a
    time into ``out``, so the transient is one strip.  numpy's ``irfft``,
    not scipy's, takes the rows: scipy's is no faster and differs in the
    last bit on small odd grids, which would move every output; scipy's
    column pass has numpy's bits.  ``spectra`` may be :func:`cube_spectrum`
    of ``out``; a read-only ``spectra`` raises ValueError and keeps its
    bytes.
    """
    depth = spectra.shape[0]
    if out is None:
        out = np.empty((depth, op.height, op.width)).transpose(1, 2, 0)
    _check_grid(op, out, depth)
    bands = out.transpose(2, 0, 1)
    _columns_in_place(scipy.fft.ifft, spectra)
    for r0, r1 in row_strips(op.height, depth * spectra.shape[2]):
        np.fft.irfft(spectra[:, r0:r1], n=op.width, axis=-1, out=bands[:, r0:r1])
    return out


def _columns_in_place(transform, spectra: np.ndarray) -> None:
    """``transform`` (scipy's ``fft`` or ``ifft``) of the columns of
    ``spectra`` (depth, H, W // 2 + 1), left in ``spectra``.  scipy promises
    only that ``overwrite_x`` may destroy the input; a result in other
    bytes (an unaligned or byte-swapped input, another backend) is copied
    back."""
    result = transform(spectra, axis=1, overwrite_x=True)
    if (result.ctypes.data, result.strides) != (spectra.ctypes.data, spectra.strides):
        spectra[...] = result


def _check_grid(op: FrequencyOperator, x: np.ndarray, depth: int) -> None:
    expected = (op.height, op.width, depth)
    if x.shape != expected:
        raise DimensionError("array shape %r does not match operator grid %r"
                             % (x.shape, expected))


def empty_cube(op: FrequencyOperator) -> np.ndarray:
    """An uninitialized (H, W, bands) cube that is a view of band-major
    memory whose rows are padded to hold their half spectrum.

    Each band is (H, 2 (W // 2 + 1)) float64 of which the cube sees the
    first W columns: in those bytes a row of W reals and its W // 2 + 1
    complex bins take the same room (the in-place real-to-complex layout of
    FFTW), so :func:`cube_spectrum` can transform the cube into itself.
    """
    padded = np.empty((op.n_bands, op.height, 2 * (op.width // 2 + 1)))
    return padded[:, :, :op.width].transpose(1, 2, 0)


def cube_spectrum(op: FrequencyOperator, cube: np.ndarray) -> np.ndarray:
    """The complex (bands, H, W // 2 + 1) view of the bytes of an
    :func:`empty_cube` ``cube``: the room its half spectra fill.

    Raises DimensionError for any other array, a view of part of one
    included, since its bytes cannot hold the spectra.
    """
    padded = getattr(cube, "base", None)
    if (isinstance(padded, np.ndarray) and padded.dtype == np.float64
            and padded.flags.c_contiguous
            and padded.shape == (op.n_bands, op.height, 2 * (op.width // 2 + 1))
            and cube.shape == (op.height, op.width, op.n_bands)
            and cube.strides == tuple(padded.strides[i] for i in (1, 2, 0))
            and cube.ctypes.data == padded.ctypes.data):
        return padded.view(np.complex128)
    raise DimensionError("an array of shape %r and strides %r is not an empty_cube on "
                         "grid %r, the layout whose rows hold their half spectra"
                         % (np.shape(cube), getattr(cube, "strides", None),
                            (op.height, op.width, op.n_bands)))


def apply_forward_frequency(op: FrequencyOperator, cube: np.ndarray) -> np.ndarray:
    """Apply the forward operator: per bin, J_f = response (P_f * X_f).

    The cube's spectra are multiplied by the OTFs in place and dropped once
    mixed into the channel spectra, which the inverse consumes, so one
    cube-sized spectrum is alive at a time.  The transfer stays the first
    operand, as in :func:`forward_project`: ``spectra *= op.transfer``
    rounds some complex products differently.
    """
    spectra = to_spectrum(op, cube, op.n_bands)
    np.multiply(op.transfer, spectra, out=spectra)
    channels = _mix(op.response, spectra)
    del spectra
    return from_spectrum(op, channels)


def apply_adjoint(op: FrequencyOperator, image: np.ndarray) -> np.ndarray:
    """Apply the adjoint of the forward operator to a coded image.

    Per frequency this multiplies by the conjugate transpose (bands x 3)
    matrix, so the inner-product identity <A x, y> == <x, A^T y> holds.
    """
    return from_spectrum(op, back_project(op, to_spectrum(op, image, 3)))


def _mix(weights: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """Real (m, k) ``weights`` applied across the leading axis of complex
    ``spectra`` (k, ...), as one real matrix product over the interleaved
    real and imaginary parts; returns complex (m, ...)."""
    spectra = np.ascontiguousarray(spectra)
    flat = spectra.view(np.float64).reshape(spectra.shape[0], -1)
    return (weights @ flat).view(np.complex128).reshape((len(weights),) + spectra.shape[1:])


def forward_project(op: FrequencyOperator, spectra: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Per-bin H_f x_f = response (P_f * x_f) for band spectra of shape
    (bands, n, W//2+1) on the bin rows ``rows`` (all H by default); returns
    channel spectra of shape (3, n, W//2+1)."""
    return _mix(op.response, op.transfer[:, rows] * spectra)


def back_project(op: FrequencyOperator, spectra: np.ndarray, rows=slice(None)) -> np.ndarray:
    """Per-bin H_f^* y_f = conj(P_f) * (response^T y_f) for channel spectra
    of shape (3, n, W//2+1) on the bin rows ``rows`` (all H by default);
    returns band spectra of shape (bands, n, W//2+1)."""
    bands = _mix(op.response.T, spectra)
    # conj(P) y == conj(P conj(y)): conjugating in place spares a conj(P) copy
    np.conjugate(bands, out=bands)
    bands *= op.transfer[:, rows]
    return np.conjugate(bands, out=bands)


# elements per strip of the cache-sized row sweeps (the exact solve's bins,
# the transforms' row passes, TV, the stage loop's anchor and multiplier
# sweeps): 2^15 float64 (256 KiB)
# or complex (512 KiB) values keep a strip's rows of every array it touches
# in a per-core L2 cache; at 512 x 512 x 8, 8 cube rows or 15 spectrum rows
_STRIP_ELEMENTS = 1 << 15


def row_strips(height: int, row_elements: int) -> list[tuple[int, int]]:
    """Strips (r0, r1) of whole rows that cover rows 0..height-1 once, in
    order: as many rows of ``row_elements`` as fit in _STRIP_ELEMENTS, or
    one if a row is larger; the last strip may be shorter."""
    rows = max(1, min(height, _STRIP_ELEMENTS // row_elements))
    return [(r0, min(r0 + rows, height)) for r0 in range(0, height, rows)]


# the largest Poisson rate numpy samples: about 9.22e18 counts, an intensity
# of 5.6e14 at the default 14 bits
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def add_noise(image: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Apply the sensor noise model: Poisson (shot) first, then Gaussian (read).

    Negative intensities are clamped to zero before Poisson sampling, and a
    peak above what the sampler takes raises ParameterError.  The image is
    copied once into the float64 result, and each stage works in it: the
    working memory is the result plus one image of Poisson counts or of
    read noise.  With ``gaussian_sigma == 0`` and ``poisson_bits == 0`` the
    result equals the image.
    """
    out = np.array(image, dtype=np.float64, order="C")
    rng = np.random.default_rng(model.seed)
    if model.poisson_bits:
        full_well = float(2 ** model.poisson_bits)
        peak, most = out.max(initial=0.0), _POISSON_LAM_MAX / full_well
        if not peak <= most:
            raise ParameterError(
                "noise spec: poisson_bits: a peak intensity of %g exceeds %.4g, the most "
                "Poisson sampling takes at %d bits; scale the image down or set "
                "poisson_bits=0" % (peak, most, model.poisson_bits))
        np.clip(out, 0.0, None, out=out)
        out *= full_well
        np.divide(rng.poisson(out), full_well, out=out)
    if model.gaussian_sigma > 0:
        out += rng.normal(0.0, model.gaussian_sigma, size=out.shape)
    return out
