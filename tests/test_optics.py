"""Forward-model tests: encoder, frequency operator, noise."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from snapspec import (
    FidelityProblem,
    FrequencyOperator,
    NoiseModel,
    OpticalSystem,
    add_noise,
    apply_adjoint,
    apply_forward_frequency,
    build_frequency_operator,
    forward_encode,
)
from snapspec import optics
from snapspec.errors import DimensionError, ParameterError, ValidationError
from snapspec.optics import (cube_spectrum, embed_kernel, empty_cube, forward_project,
                             from_spectrum, row_strips, to_spectrum)
from snapspec.synth import (band_wavelengths, rgb_response, rotating_psf_stack, smooth_cube,
                            synthetic_system)

from reference_impls import (add_noise_whole_array, direct_circular_encode, direct_dft2,
                             gram_whole_array, smooth_cube_whole_array, transfer_batched)


def _random_system(rng, n_bands, kernel_size):
    psfs = rng.uniform(size=(n_bands, kernel_size, kernel_size))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(size=(3, n_bands))
    return OpticalSystem(psfs=psfs, response=response)


def _identity_system(n_bands):
    psfs = np.zeros((n_bands, 1, 1))
    psfs[:, 0, 0] = 1.0
    response = np.zeros((3, n_bands))
    for c in range(3):
        response[c, c] = 1.0
    return OpticalSystem(psfs=psfs, response=response)


def _channel_transfer(op):
    """The per-bin 3 x bands matrices H_f[c, i] = response[c, i] * P_i(f)."""
    return op.response[:, :, None, None] * op.transfer[None]


def test_forward_matches_nested_loop_reference():
    rng = np.random.default_rng(11)
    system = _random_system(rng, 5, 3)
    cube = rng.standard_normal((4, 4, 5))
    fast = forward_encode(cube, system)
    slow = direct_circular_encode(cube, system.psfs, system.response)
    assert fast.shape == (4, 4, 3)
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_identity_optics_copies_first_bands():
    system = _identity_system(5)
    cube = np.random.default_rng(0).uniform(size=(6, 6, 5))
    coded = forward_encode(cube, system)
    assert np.allclose(coded, cube[:, :, :3], atol=1e-14)


def test_flat_field_scaled_by_response_sums():
    rng = np.random.default_rng(7)
    system = _random_system(rng, 6, 5)
    cube = np.ones((8, 8, 6))
    coded = forward_encode(cube, system)
    # unit-sum kernels pass constants through, so each channel is sum_i omega[c,i]
    expected = system.response.sum(axis=1)
    for c in range(3):
        assert np.allclose(coded[:, :, c], expected[c], atol=1e-12)


def test_forward_linearity():
    rng = np.random.default_rng(13)
    system = _random_system(rng, 4, 3)
    a = rng.standard_normal((5, 5, 4))
    b = rng.standard_normal((5, 5, 4))
    lhs = forward_encode(2.5 * a - 1.5 * b, system)
    rhs = 2.5 * forward_encode(a, system) - 1.5 * forward_encode(b, system)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_forward_non_square_odd_width():
    # odd width: the half spectrum alone does not determine W, so the
    # inverse transform must be told the extent
    rng = np.random.default_rng(79)
    system = _random_system(rng, 4, 3)
    cube = rng.standard_normal((7, 9, 4))
    coded = forward_encode(cube, system)
    slow = direct_circular_encode(cube, system.psfs, system.response)
    assert coded.shape == (7, 9, 3)
    assert np.max(np.abs(coded - slow)) < 1e-12


def test_embed_kernel_centers_at_origin():
    kernel = np.arange(9.0).reshape(3, 3)
    embedded = embed_kernel(kernel, 6, 6)
    assert embedded.shape == (6, 6)
    # center tap lands at (0,0); upper-left tap wraps to (-1,-1)
    assert embedded[0, 0] == kernel[1, 1]
    assert embedded[-1, -1] == kernel[0, 0]
    assert embedded[1, 1] == kernel[2, 2]
    assert embedded.sum() == kernel.sum()


def test_embed_kernel_too_large_rejected():
    with pytest.raises(DimensionError):
        embed_kernel(np.ones((5, 5)) / 25.0, 4, 6)


def test_transfer_dc_equals_response():
    rng = np.random.default_rng(3)
    system = _random_system(rng, 6, 3)
    op = build_frequency_operator(system, 8, 8)
    # per-band OTFs of a Hermitian spectrum: only W // 2 + 1 columns are stored
    assert op.transfer.shape == (6, 8, 5)
    assert np.max(np.abs(_channel_transfer(op)[:, :, 0, 0] - system.response)) < 1e-12
    full = np.fft.fft2(embed_kernel(system.psfs, 8, 8))
    with pytest.raises(DimensionError):
        FrequencyOperator(response=system.response, transfer=full, height=8, width=8)


def test_operator_without_response_sums_bands():
    rng = np.random.default_rng(4)
    system = _random_system(rng, 4, 3)
    otfs = build_frequency_operator(system, 6, 7).transfer
    op = FrequencyOperator(transfer=otfs, height=6, width=7)
    assert op.response.shape == (3, 4) and np.all(op.response == 1.0)
    cube = rng.standard_normal((6, 7, 4))
    slow = direct_circular_encode(cube, system.psfs, np.ones((3, 4)))
    assert np.max(np.abs(apply_forward_frequency(op, cube) - slow)) < 1e-12


@pytest.mark.parametrize("shape", [(512, 512, 8), (128, 128, 31), (7, 9, 4), (8, 6, 5),
                                   (1, 16, 1), (16, 1, 2), (33, 17, 3), (8, 8, 31),
                                   (513, 7, 3), (513, 7, 1), (64, 65, 1)])
def test_strip_transforms_match_rfft2_and_irfft2(shape):
    # the rows go a strip of every band at a time (at 8 x 8 x 31 one strip
    # holds every band), the columns in place; the bits must be those of
    # scipy's rfft2 and numpy's irfft2 for a pixel-major array (the coded
    # image's layout at depth 3) and a band-major one alike, and whether
    # the result is new, a given array or the cube's own bytes.  The
    # inverse consumes its spectra, so each call is handed a copy
    height, width, depth = shape
    rng = np.random.default_rng(5)
    op = FrequencyOperator(transfer=np.ones((depth, height, width // 2 + 1), complex),
                           height=height, width=width)
    band_major = empty_cube(op)
    band_major[...] = rng.standard_normal(shape)
    pixel_major = np.ascontiguousarray(band_major)
    spectra = scipy.fft.rfft2(pixel_major.transpose(2, 0, 1))
    batched = np.fft.irfft2(spectra, s=(height, width)).transpose(1, 2, 0)
    for x in (pixel_major, band_major):
        assert np.array_equal(to_spectrum(op, x, depth), spectra)
        given = np.full_like(spectra, np.nan)
        assert to_spectrum(op, x, depth, out=given) is given
        assert np.array_equal(given, spectra)
        assert np.array_equal(from_spectrum(op, spectra.copy()), batched)
        out = np.full_like(x, np.nan)
        assert from_spectrum(op, spectra.copy(), out) is out
        assert np.array_equal(out, batched)
    # the naive solve hands over a transposed view of bin-major spectra
    bin_major = spectra.transpose(1, 2, 0).copy()
    assert np.array_equal(from_spectrum(op, bin_major.transpose(2, 0, 1)), batched)
    # an empty_cube holds its own half spectra: it is transformed into its
    # padded rows and back in place, with the same bits
    own = cube_spectrum(op, band_major)
    assert to_spectrum(op, band_major, depth, out=own) is own
    assert np.array_equal(own, spectra)
    assert from_spectrum(op, own, band_major) is band_major
    assert np.array_equal(band_major, batched)


def test_column_pass_made_in_other_bytes_is_kept():
    # the column passes run in place: spectra in byte-swapped or unaligned
    # bytes must still hold their result, either way
    height, width, depth = 13, 10, 3
    op = FrequencyOperator(transfer=np.ones((depth, height, width // 2 + 1), complex),
                           height=height, width=width)
    cube = empty_cube(op)
    cube[...] = np.random.default_rng(7).standard_normal((height, width, depth))
    spectra = scipy.fft.rfft2(cube.transpose(2, 0, 1))
    batched = np.fft.irfft2(spectra, s=(height, width)).transpose(1, 2, 0)
    swapped = np.empty(spectra.shape, dtype=">c16")
    unaligned = np.zeros(spectra.nbytes + 1, np.uint8)[1:].view(complex).reshape(spectra.shape)
    for out in (swapped, unaligned):
        assert to_spectrum(op, cube, depth, out=out) is out
        assert np.array_equal(out, spectra)
        # and the inverse's column pass, in place in those bytes
        assert np.array_equal(from_spectrum(op, out), batched)


@pytest.mark.parametrize("shape", [(256, 256, 8), (128, 128, 31), (64, 4000, 3)])
def test_transforms_hold_one_strip(shape):
    # a cube's transforms into and out of its own bytes, and the inverse of
    # other spectra, which it consumes, hold one strip (about 0.51 MB
    # measured at each grid; numpy's iterator buffer is allowed on top)
    height, width, depth = shape
    op = FrequencyOperator(transfer=np.ones((depth, height, width // 2 + 1), complex),
                           height=height, width=width)
    cube = empty_cube(op)
    cube[...] = np.random.default_rng(6).standard_normal(shape)
    own = cube_spectrum(op, cube)
    spectra = to_spectrum(op, cube, depth)
    strip = (optics._STRIP_ELEMENTS + np.getbufsize()) * 16
    for call in (lambda: to_spectrum(op, cube, depth, out=own),
                 lambda: from_spectrum(op, own, cube),
                 lambda: from_spectrum(op, spectra, cube)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= strip


def test_cube_spectrum_only_of_an_empty_cube():
    op = FrequencyOperator(transfer=np.ones((2, 4, 3), complex), height=4, width=5)
    cube = empty_cube(op)
    spectra = cube_spectrum(op, cube)
    assert spectra.shape == (2, 4, 3) and spectra.dtype == np.complex128
    assert np.shares_memory(spectra, cube)
    other = FrequencyOperator(transfer=np.ones((2, 4, 3), complex), height=4, width=4)
    for foreign in (np.empty((4, 5, 2)), np.empty((2, 4, 5)).transpose(1, 2, 0),
                    cube[:, :, :1], cube[1:], cube.copy(), empty_cube(other)):
        with pytest.raises(DimensionError, match="empty_cube"):
            cube_spectrum(op, foreign)


def test_from_spectrum_rejects_misshapen_out():
    op = FrequencyOperator(transfer=np.ones((2, 4, 3), complex), height=4, width=5)
    with pytest.raises(DimensionError, match="does not match operator grid"):
        from_spectrum(op, np.zeros((2, 4, 3), complex), np.empty((4, 5, 3)))


def test_delta_psf_gives_flat_transfer():
    system = _identity_system(4)
    op = build_frequency_operator(system, 7, 5)
    for c in range(3):
        assert np.allclose(_channel_transfer(op)[c, c], 1.0, atol=1e-14)


def test_shifted_delta_gives_phase_ramp():
    # PSF = delta at offset (+1,+1) from center -> transfer exp(-2i pi (fy+fx)/n)
    psfs = np.zeros((1, 3, 3))
    psfs[0, 2, 2] = 1.0
    response = np.ones((3, 1))
    system = OpticalSystem(psfs=psfs, response=response)
    n = 6
    op = build_frequency_operator(system, n, n)
    fy, fx = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    expected = np.exp(-2j * np.pi * (fy + fx) / n)
    assert np.max(np.abs(_channel_transfer(op)[0, 0] - expected[:, : n // 2 + 1])) < 1e-12


def test_transfer_matches_direct_dft():
    rng = np.random.default_rng(17)
    system = _random_system(rng, 3, 3)
    op = build_frequency_operator(system, 5, 4)
    half = 4 // 2 + 1
    transfer = _channel_transfer(op)
    for c in range(3):
        for i in range(3):
            embedded = embed_kernel(system.response[c, i] * system.psfs[i], 5, 4)
            assert np.max(np.abs(transfer[c, i] - direct_dft2(embedded)[:, :half])) < 1e-12
    # the cached Gram is H_f H_f^* per stored bin, real and symmetric, kept
    # as the planes of its entries (0,0), (0,1), (0,2), (1,1), (1,2), (2,2)
    gram = np.einsum("aihw,bihw->abhw", transfer, np.conj(transfer))
    assert op.gram.shape == (6, 5, half)
    assert op.gram.dtype == np.float64
    assert np.max(np.abs(gram - np.swapaxes(gram, 0, 1))) < 1e-12
    upper = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert np.max(np.abs(op.gram - np.array([gram[a, b] for a, b in upper]))) < 1e-12


@pytest.mark.parametrize("size", [4, 8, 16])
def test_frequency_forward_matches_spatial(size):
    # both production paths share the PSF spectra, so each is checked
    # against the nested-loop spatial reference rather than the other
    rng = np.random.default_rng(size)
    system = _random_system(rng, 5, 3)
    cube = rng.standard_normal((size, size, 5))
    spatial = direct_circular_encode(cube, system.psfs, system.response)
    op = build_frequency_operator(system, size, size)
    freq = apply_forward_frequency(op, cube)
    assert np.max(np.abs(freq - spatial)) < 1e-10
    assert np.max(np.abs(forward_encode(cube, system) - spatial)) < 1e-10


@pytest.mark.parametrize("width", [64, 63])
def test_forward_in_place_product_matches_forward_project(width):
    # the forward transform multiplies its own spectra in place; with the
    # transfer as the first operand its bits are those of forward_project,
    # which ``spectra *= transfer`` (the operands swapped) does not keep
    rng = np.random.default_rng(width)
    op = build_frequency_operator(_random_system(rng, 8, 5), 48, width)
    cube = rng.standard_normal((48, width, 8))
    ref = from_spectrum(op, forward_project(op, to_spectrum(op, cube, op.n_bands)))
    assert np.array_equal(apply_forward_frequency(op, cube), ref)


@pytest.mark.parametrize("height, row_elements, rows", [
    (512, 8 * 257, 15), (128, 31 * 65, 16),  # solve bin rows at 512^2 x 8 and 128^2 x 31
    (512, 512 * 8, 8), (128, 128 * 31, 8),  # cube rows: TV and the stage loop's sweeps
    (5, 3 << 12, 2),  # a short last strip
    (7, (1 << 15) + 1, 1),  # a row wider than the budget
    (5, 1, 5),  # a budget above the whole height: one strip
])
def test_row_strips_cover_each_row_once(height, row_elements, rows):
    strips = row_strips(height, row_elements)
    assert [r for r0, r1 in strips for r in range(r0, r1)] == list(range(height))
    assert all(r1 - r0 == rows for r0, r1 in strips[:-1])
    assert 0 < strips[-1][1] - strips[-1][0] <= rows


# the set-up functions work in their output buffers; every bit stays that of
# the whole-array forms, but the scene, whose filter sums through the FFT
# where the reference sums ndimage's taps directly

_GRIDS = pytest.mark.parametrize("height, width, n_bands", [(64, 64, 8), (17, 15, 5)],
                                 ids=["even", "odd"])

SCENE_TOL = 1e-13  # largest seen: 1.2e-14, a 4 x 4 x 1 scene's narrow range scaled to [0, 1]


@_GRIDS
def test_setup_matches_whole_array_forms(height, width, n_bands):
    cube = smooth_cube(height, width, n_bands, seed=3)
    assert np.max(np.abs(cube - smooth_cube_whole_array(height, width, n_bands, seed=3))) \
        <= SCENE_TOL
    # random kernels: the synthetic ones are point-symmetric, with real OTFs
    system = _random_system(np.random.default_rng(width), n_bands, 7)
    op = build_frequency_operator(system, height, width)
    transfer = transfer_batched(system.psfs, height, width)
    assert np.array_equal(op.transfer, transfer)
    assert np.array_equal(op.gram, gram_whole_array(transfer, system.response))


@pytest.mark.parametrize("height, width, n_bands", [
    (16, 16, 4),  # 17 spatial taps on 16 samples
    (4, 4, 1),  # every kernel longer than its axis, one band
    (5, 40, 2),  # 17 taps on 5 rows, 9 band taps on 2 bands
    (17, 15, 5),
    (12, 20, 31),  # 31 bands; both spatial axes shorter than the kernel
])
def test_scene_filter_wraps_long_kernels(height, width, n_bands):
    # a kernel longer than its axis folds onto it more than once, as
    # ndimage's mode="wrap" sums it
    for seed in (0, 7):
        cube = smooth_cube(height, width, n_bands, seed=seed)
        ref = smooth_cube_whole_array(height, width, n_bands, seed=seed)
        assert np.max(np.abs(cube - ref)) <= SCENE_TOL


def test_only_the_solver_derives_the_gram(monkeypatch):
    # the operator stores its two factors; the Gram planes are the solver's,
    # derived on first use with the bits of the whole-array form
    assert [f.name for f in dataclasses.fields(FrequencyOperator)] == [
        "transfer", "height", "width", "response"]
    rng = np.random.default_rng(5)
    system = _random_system(rng, 5, 7)
    cube, image = rng.uniform(size=(17, 15, 5)), rng.uniform(size=(17, 15, 3))
    built = []
    build = optics.build_frequency_operator

    def spy(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(optics, "build_frequency_operator", spy)
    forward_encode(cube, system)
    assert len(built) == 1 and "gram" not in vars(built[0])
    op = build(system, 17, 15)
    apply_forward_frequency(op, cube)
    apply_adjoint(op, image)
    assert "gram" not in vars(op)
    FidelityProblem.from_coded_image(op, image, 1.0)
    assert "gram" in vars(op)
    assert np.array_equal(op.gram, gram_whole_array(op.transfer, system.response))


@_GRIDS
@pytest.mark.parametrize("model", [NoiseModel(seed=6), NoiseModel(poisson_bits=0, seed=6),
                                   NoiseModel(gaussian_sigma=0.0, seed=6)],
                         ids=["poisson-gaussian", "gaussian", "poisson"])
def test_add_noise_matches_whole_array_form(height, width, n_bands, model):
    # negative pixels exercise the clamp; a float32 Fortran-ordered copy
    # draws the same numbers into the same pixels
    image = np.random.default_rng(height).uniform(-0.1, 1.0, size=(height, width, 3))
    assert np.array_equal(add_noise(image, model), add_noise_whole_array(image, model))
    single = np.asfortranarray(image.astype(np.float32))
    assert np.array_equal(add_noise(single, model), add_noise_whole_array(single, model))


def _peak_cubes(apply, x):
    """tracemalloc peak of ``apply(op, x)`` at 256^2 x 8, in cubes."""
    op = build_frequency_operator(synthetic_system(n_bands=8, kernel_size=9), 256, 256)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        apply(op, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (256 * 256 * 8 * 8)


def test_forward_holds_one_spectrum():
    # one cube-sized spectrum, then the channel spectra, inverted in place
    # into the image: 1.39 cubes measured at 256^2 x 8 (1.89 when the
    # inverse copied the channel spectra, 2.39 with a second spectrum for
    # the product)
    assert _peak_cubes(apply_forward_frequency, smooth_cube(256, 256, 8)) <= 1.45


def test_adjoint_inverts_its_band_spectra_in_place():
    # the channel spectra, the back-projected band spectra and the cube:
    # 2.01 cubes measured at 256^2 x 8 (2.13 when the inverse copied the
    # band spectra)
    assert _peak_cubes(apply_adjoint, smooth_cube(256, 256, 3)) <= 2.05


@pytest.mark.parametrize("size", [4, 8, 16])
@pytest.mark.parametrize("n_bands", [3, 5, 8])
def test_adjoint_identity(size, n_bands):
    rng = np.random.default_rng(size * 31 + n_bands)
    system = _random_system(rng, n_bands, 3)
    op = build_frequency_operator(system, size, size)
    cube = rng.standard_normal((size, size, n_bands))
    image = rng.standard_normal((size, size, 3))
    lhs = np.sum(apply_forward_frequency(op, cube) * image)
    rhs = np.sum(cube * apply_adjoint(op, image))
    assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-12


def test_kernel_larger_than_image_rejected():
    system = _random_system(np.random.default_rng(0), 3, 5)
    with pytest.raises(DimensionError):
        build_frequency_operator(system, 4, 8)


# OpticalSystem validation


def test_even_kernel_rejected():
    psfs = np.ones((2, 4, 4)) / 16.0
    with pytest.raises(ValidationError, match="odd"):
        OpticalSystem(psfs=psfs, response=np.ones((3, 2)))


def test_unnormalized_psf_rejected():
    psfs = np.ones((2, 3, 3)) / 9.0
    psfs[1] *= 1.01
    with pytest.raises(ValidationError, match="sum"):
        OpticalSystem(psfs=psfs, response=np.ones((3, 2)))


def test_psf_sum_tolerance_accepted():
    psfs = np.ones((1, 3, 3)) / 9.0
    psfs[0, 0, 0] += 5e-10
    OpticalSystem(psfs=psfs, response=np.ones((3, 1)))


def test_negative_response_rejected():
    psfs = np.ones((2, 3, 3)) / 9.0
    response = np.ones((3, 2))
    response[1, 0] = -0.5
    with pytest.raises(ValidationError, match="negative"):
        OpticalSystem(psfs=psfs, response=response)


@pytest.mark.parametrize("tap, entry, match", [
    (np.nan, 1.0, "psf 1 sums to nan"),
    (0.0, np.nan, "finite and non-negative"),
    (0.0, np.inf, "finite and non-negative"),
], ids=["psf-nan", "response-nan", "response-inf"])
def test_non_finite_system_rejected(tap, entry, match):
    psfs = np.ones((2, 3, 3)) / 9.0
    psfs[1, 1, 2] += tap
    response = np.ones((3, 2))
    response[2, 1] = entry
    with pytest.raises(ValidationError, match=match):
        OpticalSystem(psfs=psfs, response=response)


def test_response_band_mismatch_rejected():
    psfs = np.ones((2, 3, 3)) / 9.0
    with pytest.raises(DimensionError):
        OpticalSystem(psfs=psfs, response=np.ones((3, 4)))


def test_two_dimensional_psfs_rejected():
    # one kernel without its band axis; the CLI refuses a 2-D --psf tensor
    # before it gets here (test_refused_system_file_exit_2_naming_it)
    with pytest.raises(DimensionError, match=re.escape("psfs must have shape (bands, k, k), "
                                                       "got (3, 3)")):
        OpticalSystem(psfs=np.ones((3, 3)) / 9.0, response=np.ones((3, 3)))


# noise model


def test_noise_disabled_is_identity():
    img = np.random.default_rng(0).uniform(size=(16, 16, 3))
    model = NoiseModel(gaussian_sigma=0.0, poisson_bits=0)
    assert np.array_equal(add_noise(img, model), img)


def test_noise_deterministic_per_seed():
    img = np.random.default_rng(1).uniform(size=(16, 16, 3))
    a = add_noise(img, NoiseModel(seed=42))
    b = add_noise(img, NoiseModel(seed=42))
    c = add_noise(img, NoiseModel(seed=43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_shot_noise_variance():
    # constant 0.25 field at 14 bits: per-pixel variance 0.25 / 2^14
    img = np.full((500, 500, 3), 0.25)
    noised = add_noise(img, NoiseModel(gaussian_sigma=0.0, poisson_bits=14, seed=9))
    sample_var = noised.var()
    expected = 0.25 / 2**14
    n = img.size
    standard_error = expected * np.sqrt(2.0 / n)
    assert abs(sample_var - expected) < 3 * standard_error


def test_negative_values_clamped_before_poisson():
    img = np.full((8, 8, 3), -0.5)
    noised = add_noise(img, NoiseModel(gaussian_sigma=0.0, poisson_bits=14, seed=0))
    assert np.array_equal(noised, np.zeros_like(img))


def test_noise_model_validation():
    with pytest.raises(ValidationError):
        NoiseModel(gaussian_sigma=-1e-3)
    with pytest.raises(ValidationError):
        NoiseModel(poisson_bits=5)
    with pytest.raises(ValidationError):
        NoiseModel(poisson_bits=17)
    with pytest.raises(ValidationError):
        NoiseModel(gaussian_sigma=2.0)
    # a seed numpy's generator refuses is refused here, naming the seed
    for seed in (-1, 1.5, None, True):
        with pytest.raises(ValidationError, match="seed"):
            NoiseModel(seed=seed)
    NoiseModel(poisson_bits=0)
    NoiseModel(poisson_bits=8)
    NoiseModel(poisson_bits=16)
    NoiseModel(seed=np.int64(2**62))


def test_poisson_bits_is_off_or_in_its_range():
    # the gap between off (0) and 8 bits is declared, not checked by hand
    assert str(NoiseModel.params["poisson_bits"][2]) == "0 or [8, 16]"
    for bits in (0, *range(8, 17), np.int64(12)):
        assert NoiseModel(poisson_bits=bits).poisson_bits == bits
    for bits in (*range(1, 8), 17, -1, 8.5):
        with pytest.raises(ParameterError, match="noise spec: poisson_bits: must be "):
            NoiseModel(poisson_bits=bits)


def test_poisson_peak_beyond_sampler_raises_naming_bits():
    # numpy samples rates up to about 9.22e18 counts, 5.6e14 at 14 bits
    model = NoiseModel(gaussian_sigma=0.0, seed=4)
    edge = np.full((4, 4, 3), 5.6e14)
    want = np.random.default_rng(4).poisson(edge * 2.0**14).astype(np.float64) / 2.0**14
    assert np.array_equal(add_noise(edge, model), want)
    with pytest.raises(ValidationError, match=r"poisson_bits: a peak intensity of 5\.7e\+14"):
        add_noise(np.full((4, 4, 3), 5.7e14), model)
    with pytest.raises(ValidationError, match="poisson_bits"):
        add_noise(np.full((4, 4, 3), np.inf), model)
    # with the Poisson stage off, the Gaussian stage takes any finite peak
    assert np.isfinite(add_noise(edge * 1e100, NoiseModel(poisson_bits=0))).all()


# synthetic helpers used across the suite


def test_synthetic_system_is_valid():
    system = synthetic_system(n_bands=8, kernel_size=9)
    assert system.n_bands == 8
    assert system.kernel_size == 9
    assert np.max(np.abs(system.psfs.sum(axis=(1, 2)) - 1.0)) < 1e-9


def test_rotating_psfs_differ_across_bands():
    psfs = rotating_psf_stack(6, 9)
    flat = psfs.reshape(6, -1)
    gram = flat @ flat.T
    norm = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    cos = gram / norm
    # far-apart bands must point in visibly different directions
    assert cos[0, 5] < 0.99


@pytest.mark.parametrize("call, name", [
    (lambda: smooth_cube(8.0, 8, 2), "height"),
    (lambda: smooth_cube(8, 8.5, 2), "width"),
    (lambda: smooth_cube(8, 8, np.float64(2.0)), "n_bands"),
    (lambda: smooth_cube(8, 8, 2, seed=1.5), "seed"),
    (lambda: smooth_cube(3, 8, 2), "height"),
    (lambda: rotating_psf_stack(2.0, 5), "n_bands"),
    (lambda: rotating_psf_stack(2, 5.0), "kernel_size"),
    (lambda: rotating_psf_stack(2, 1), "kernel_size"),
    (lambda: rotating_psf_stack(2, 4), "kernel_size"),
    (lambda: band_wavelengths(True), "n_bands"),
    (lambda: rgb_response(0), "n_bands"),
], ids=["height", "width", "bands", "seed", "extent", "psf-bands", "kernel", "kernel-1",
        "kernel-even", "wavelengths", "response"])
def test_synth_sizes_are_checked_naming_the_argument(call, name):
    with pytest.raises(ParameterError, match="^%s: must be " % name):
        call()


def test_smooth_cube_range_and_determinism():
    a = smooth_cube(32, 32, 4, seed=5)
    b = smooth_cube(32, 32, 4, seed=5)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert a.max() - a.min() > 0.5
