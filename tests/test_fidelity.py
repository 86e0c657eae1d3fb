"""Closed-form subproblem solver tests, cross-checked against dense algebra."""

import math
import re
import tracemalloc

import numpy as np
import pytest

import snapspec.optics as optics
from snapspec import (
    FidelityProblem,
    IdentityDenoiser,
    MeanInitializer,
    OpticalSystem,
    StageSchedule,
    apply_adjoint,
    apply_forward_frequency,
    block_inverse_3x3,
    build_frequency_operator,
    fidelity_solve,
    fidelity_solve_naive,
    forward_encode,
    gdm_fidelity_step,
    reconstruct,
    subproblem_gradient,
    subproblem_objective,
)
from snapspec.errors import DimensionError, ParameterError, SingularPivotError
from snapspec.fidelity import MAX_GDM_ITERS
from snapspec.optics import empty_cube, from_spectrum
from snapspec.oracle import DenseSystem
from snapspec.synth import rgb_response, rotating_psf_stack, smooth_cube, synthetic_system

from reference_impls import adjugate_inverse_3x3


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


def _problem(rng, size=8, n_bands=5, kernel=3, gamma=0.5):
    system = _random_system(rng, n_bands, kernel)
    op = build_frequency_operator(system, size, size)
    coded = rng.standard_normal((size, size, 3))
    return system, op, FidelityProblem.from_coded_image(op, coded, gamma)


# block inverse: symmetric 3 x 3 matrices travel as 6 planes, the entries
# (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)

_UPPER = np.triu_indices(3)


def _planes(a):
    """(..., 3, 3) symmetric matrices as (6, ...) planes."""
    return np.moveaxis(a[..., _UPPER[0], _UPPER[1]], -1, 0)


def _matrices(planes):
    """(6, ...) planes back to full (..., 3, 3) symmetric matrices."""
    out = np.empty(planes.shape[1:] + (3, 3))
    for p, (r, c) in enumerate(zip(*_UPPER)):
        out[..., r, c] = out[..., c, r] = planes[p]
    return out


def test_block_inverse_identity():
    eye = _planes(np.broadcast_to(np.eye(3), (4, 7, 3, 3)))
    inv = block_inverse_3x3(eye)
    assert inv.shape == (6, 4, 7)
    assert np.max(np.abs(_matrices(inv) - np.eye(3))) < 1e-15


def test_block_inverse_diagonal():
    a = np.zeros((2, 3, 3))
    a[0] = np.diag([1.0, 2.0, 4.0])
    a[1] = np.diag([1.5, 3.0, 6.0])
    inv = block_inverse_3x3(_planes(a))
    assert inv.dtype == np.float64  # real input stays real
    inv = _matrices(inv)
    assert np.allclose(inv[0], np.diag([1.0, 0.5, 0.25]), atol=1e-15)
    assert np.allclose(inv[1], np.diag([1 / 1.5, 1 / 3.0, 1 / 6.0]), atol=1e-15)


def test_block_inverse_matches_adjugate():
    rng = np.random.default_rng(2)
    h = rng.standard_normal((3, 6))
    a = np.eye(3) + h @ h.T
    inv = _matrices(block_inverse_3x3(_planes(a)))
    ref = adjugate_inverse_3x3(a)
    assert np.max(np.abs(inv - ref)) < 1e-13


def test_block_inverse_batch_residuals():
    # identity-plus-PSD draws: residual of A @ inv(A) against I stays tiny
    rng = np.random.default_rng(5)
    h = rng.standard_normal((10000, 3, 4))
    a = np.eye(3) + h @ np.swapaxes(h, -1, -2)
    inv = _matrices(block_inverse_3x3(_planes(a)))
    resid = a @ inv - np.eye(3)
    assert np.max(np.abs(resid)) < 1e-12


def test_block_inverse_singular_guard():
    with pytest.raises(SingularPivotError):
        block_inverse_3x3(np.zeros((6, 2)))


@pytest.mark.parametrize("value", [0.49, -1.0, np.nan])
def test_block_inverse_pivot_guard_names_pivot_and_value(value):
    # identity-plus-PSD pivots are >= 1: one below 1/2, negative or NaN
    # means rounding has eaten its digits
    a = _planes(np.broadcast_to(np.eye(3), (5, 3, 3)).copy())
    a[5, 2] = value
    with pytest.raises(SingularPivotError, match="outer Schur pivot %s below 0.5"
                       % ("nan" if np.isnan(value) else "%.3g" % value)):
        block_inverse_3x3(a)
    a[5, 2] = 0.5
    block_inverse_3x3(a)


@pytest.mark.parametrize("gamma", [1e-10, 1e-16])
def test_rank_one_gram_at_tiny_gamma_trips_pivot_guard(gamma):
    # one band: every Gram is rank one, and below gamma ~1e-9 cancellation
    # drives the outer Schur pivot negative (about -454 at 1e-10, -3.3e14 at
    # 1e-16) while it is >= 1 in exact arithmetic
    system = OpticalSystem(psfs=rotating_psf_stack(1, 5), response=rgb_response(1))
    op = build_frequency_operator(system, 16, 16)
    coded = apply_forward_frequency(op, smooth_cube(16, 16, 1))
    zero = np.zeros((16, 16, 1))
    with pytest.raises(SingularPivotError, match=r"outer Schur pivot -[0-9.e+]+ below 0\.5"):
        fidelity_solve(FidelityProblem.from_coded_image(op, coded, gamma), zero)
    # at 1e-6 the solve is sound: its subproblem gradient is at roundoff
    prob = FidelityProblem.from_coded_image(op, coded, 1e-6)
    assert np.linalg.norm(subproblem_gradient(prob, fidelity_solve(prob, zero), zero)) < 1e-8


def test_block_inverse_shape_guard():
    with pytest.raises(DimensionError):
        block_inverse_3x3(np.eye(4))


# closed-form solver


def test_huge_gamma_returns_anchor():
    rng = np.random.default_rng(8)
    _, op, prob = _problem(rng, gamma=1e12)
    anchor = rng.standard_normal((8, 8, 5))
    out = fidelity_solve(prob, anchor)
    assert np.max(np.abs(out - anchor)) < 1e-6


def test_identity_optics_scalar_ridge():
    # with A^T A = I per band-channel pair the solution is (J + gamma T)/(1 + gamma)
    system = _identity_system(3)
    op = build_frequency_operator(system, 6, 6)
    rng = np.random.default_rng(3)
    coded = rng.standard_normal((6, 6, 3))
    anchor = rng.standard_normal((6, 6, 3))
    gamma = 0.7
    prob = FidelityProblem.from_coded_image(op, coded, gamma)
    out = fidelity_solve(prob, anchor)
    expected = (coded + gamma * anchor) / (1.0 + gamma)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_matches_dense_ridge_oracle():
    rng = np.random.default_rng(12)
    system = _random_system(rng, 4, 3)
    dense = DenseSystem.from_system(system, 6, 6)
    op = build_frequency_operator(system, 6, 6)
    coded = rng.standard_normal((6, 6, 3))
    anchor = rng.standard_normal((6, 6, 4))
    prob = FidelityProblem.from_coded_image(op, coded, 0.5)
    fast = fidelity_solve(prob, anchor)
    ref = dense.ridge_solve(coded, anchor, 0.5)
    rel = np.linalg.norm(fast - ref) / np.linalg.norm(ref)
    assert rel < 1e-8


@pytest.mark.parametrize("height, width", [(7, 9), (9, 7)])
def test_odd_extents_match_dense_oracle(height, width):
    # half spectra of odd widths only round-trip when every inverse
    # transform is given the full extent
    rng = np.random.default_rng(height * 10 + width)
    system = _random_system(rng, 4, 5)
    dense = DenseSystem.from_system(system, height, width)
    op = build_frequency_operator(system, height, width)
    cube = rng.standard_normal((height, width, 4))
    image = rng.standard_normal((height, width, 3))
    assert np.max(np.abs(apply_forward_frequency(op, cube) - dense.forward(cube))) < 1e-12
    assert np.max(np.abs(apply_adjoint(op, image) - dense.adjoint(image))) < 1e-12
    for gamma in (1e-3, 1.0, 1e3):
        anchor = rng.standard_normal((height, width, 4))
        prob = FidelityProblem.from_coded_image(op, image, gamma)
        assert np.array_equal(prob.coded, image)
        assert np.max(np.abs(from_spectrum(op, prob.coded_spectrum.copy()) - image)) < 1e-12
        ref = dense.ridge_solve(image, anchor, gamma)
        for solve in (fidelity_solve, fidelity_solve_naive):
            rel = np.linalg.norm(solve(prob, anchor) - ref) / np.linalg.norm(ref)
            assert rel < 1e-10


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("height, width", [(7, 9), (9, 7)])
def test_strip_walk_matches_dense_oracle(monkeypatch, rows, height, width):
    # strips of 1, 2 or 3 bin rows; 7 and 9 rows leave a ragged last strip
    rng = np.random.default_rng(rows * 100 + height * 10 + width)
    system = _random_system(rng, 4, 5)
    dense = DenseSystem.from_system(system, height, width)
    op = build_frequency_operator(system, height, width)
    monkeypatch.setattr(optics, "_STRIP_ELEMENTS", rows * 4 * (width // 2 + 1))
    image = rng.standard_normal((height, width, 3))
    for gamma in (1e-3, 1.0, 1e3):
        anchor = rng.standard_normal((height, width, 4))
        prob = FidelityProblem.from_coded_image(op, image, gamma)
        out = fidelity_solve(prob, anchor)
        for ref in (dense.ridge_solve(image, anchor, gamma), fidelity_solve_naive(prob, anchor)):
            assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-10


def test_solve_leaves_inputs_and_operator_unchanged():
    # the strip walk works in place on its own anchor spectrum only
    rng = np.random.default_rng(67)
    _, op, prob = _problem(rng, size=8, n_bands=5)
    anchor = rng.standard_normal((8, 8, 5))
    before = [a.copy() for a in (anchor, prob.coded_spectrum, op.gram, op.transfer)]
    fidelity_solve(prob, anchor)
    after = (anchor, prob.coded_spectrum, op.gram, op.transfer)
    assert all(np.array_equal(b, a) for b, a in zip(before, after))


@pytest.mark.parametrize("width", [8, 9])
@pytest.mark.parametrize("band_major", [False, True])
def test_solve_into_its_anchor_matches_fresh_output(width, band_major):
    # the stage loop solves into its empty_cube anchor, whose padded rows
    # take each band's spectrum once that band is transformed; a pixel-major
    # or compact band-major out has no room for the spectra and is refused
    rng = np.random.default_rng(73)
    op = build_frequency_operator(_random_system(rng, 5, 3), 7, width)
    prob = FidelityProblem.from_coded_image(op, rng.standard_normal((7, width, 3)), 0.3)
    values = rng.standard_normal((7, width, 5))
    fresh = fidelity_solve(prob, values)
    if not band_major:
        for foreign in (values.copy(), np.empty((5, 7, width)).transpose(1, 2, 0)):
            with pytest.raises(DimensionError, match="empty_cube"):
                fidelity_solve(prob, values, out=foreign)
        return
    anchor = empty_cube(op)
    anchor[...] = values
    assert fidelity_solve(prob, anchor, out=anchor) is anchor
    assert np.array_equal(anchor, fresh)


def test_solve_into_its_anchor_allocates_no_cube():
    # the in-place solve keeps only its strip scratch, the transforms' one
    # strip included: 0.0848 cubes (1.42 MB) measured at 512^2 x 8, where a
    # band is four strips, so a band-sized transient would show; a new
    # output adds one cube
    rng = np.random.default_rng(79)
    op = build_frequency_operator(_random_system(rng, 8, 9), 512, 512)
    prob = FidelityProblem.from_coded_image(op, rng.standard_normal((512, 512, 3)), 0.05)
    anchor = empty_cube(op)
    anchor[...] = 0.5
    cube = anchor.size * 8
    peaks = []
    for out in (anchor, None):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fidelity_solve(prob, anchor, out=out)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / cube)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.089
    assert peaks[1] <= 1.14


def test_matches_naive_frequency_solver():
    rng = np.random.default_rng(19)
    _, op, prob = _problem(rng, size=8, n_bands=5, gamma=0.3)
    anchor = rng.standard_normal((8, 8, 5))
    fast = fidelity_solve(prob, anchor)
    naive = fidelity_solve_naive(prob, anchor)
    rel = np.linalg.norm(fast - naive) / np.linalg.norm(naive)
    assert rel < 1e-10


@pytest.mark.parametrize("gamma", [1e-3, 1e-1, 1.0, 10.0, 1e3])
def test_gradient_vanishes_at_solution(gamma):
    rng = np.random.default_rng(int(gamma * 17) % 101)
    _, op, prob = _problem(rng, gamma=gamma)
    anchor = rng.standard_normal((8, 8, 5))
    out = fidelity_solve(prob, anchor)
    grad = subproblem_gradient(prob, out, anchor)
    scale = max(np.linalg.norm(out), 1.0)
    assert np.linalg.norm(grad) / scale < 1e-9


def test_solution_interpolates_monotonically_in_gamma():
    # distance to the anchor shrinks as gamma grows
    rng = np.random.default_rng(23)
    _, op, prob = _problem(rng, gamma=1.0)
    anchor = rng.standard_normal((8, 8, 5))
    dists = []
    for gamma in (1e-2, 1e-1, 1.0, 10.0, 100.0):
        out = fidelity_solve(prob.with_gamma(gamma), anchor)
        dists.append(np.linalg.norm(out - anchor))
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_objective_below_perturbations():
    rng = np.random.default_rng(29)
    _, op, prob = _problem(rng, gamma=0.4)
    anchor = rng.standard_normal((8, 8, 5))
    out = fidelity_solve(prob, anchor)
    base = subproblem_objective(prob, out, anchor)
    for trial in range(5):
        bumped = out + 1e-3 * rng.standard_normal(out.shape)
        assert subproblem_objective(prob, bumped, anchor) > base


# gradient-descent baseline


def test_gdm_zero_iters_is_identity():
    rng = np.random.default_rng(31)
    _, op, prob = _problem(rng)
    anchor = rng.standard_normal((8, 8, 5))
    start = rng.standard_normal((8, 8, 5))
    out = gdm_fidelity_step(prob, anchor, start, iters=0)
    assert np.array_equal(out, start)
    assert out is not start


def test_gdm_ten_steps_still_inferior():
    rng = np.random.default_rng(37)
    _, op, prob = _problem(rng, gamma=0.5)
    anchor = rng.standard_normal((8, 8, 5))
    exact = fidelity_solve(prob, anchor)
    approx = gdm_fidelity_step(prob, anchor, np.zeros_like(anchor), iters=10)
    exact_obj = subproblem_objective(prob, exact, anchor)
    approx_obj = subproblem_objective(prob, approx, anchor)
    assert approx_obj > exact_obj * (1 + 1e-9)


def test_gdm_step_is_the_subproblem_gradient_step():
    rng = np.random.default_rng(45)
    _, op, prob = _problem(rng)
    anchor = rng.standard_normal((8, 8, 5))
    x = rng.standard_normal((8, 8, 5))
    step = 1.0 / (op.lipschitz + prob.gamma)
    want = x - step * subproblem_gradient(prob, x, anchor)
    assert np.array_equal(gdm_fidelity_step(prob, anchor, x, 1), want)


def test_gdm_validation():
    rng = np.random.default_rng(43)
    _, op, prob = _problem(rng)
    anchor = np.zeros((8, 8, 5))
    with pytest.raises(ParameterError):
        gdm_fidelity_step(prob, anchor, anchor, iters=-1)
    # a step count is an integer: no fraction, bool or integral float
    for iters in (2.5, np.float64(2.0), True, MAX_GDM_ITERS + 1):
        with pytest.raises(ParameterError, match="iters: must be "):
            gdm_fidelity_step(prob, anchor, anchor, iters=iters)


def test_lipschitz_bounds_operator_norm():
    rng = np.random.default_rng(47)
    system = _random_system(rng, 5, 3)
    op = build_frequency_operator(system, 8, 8)
    bound = op.lipschitz
    for trial in range(10):
        cube = rng.standard_normal((8, 8, 5))
        coded = forward_encode(cube, system)
        ratio = np.sum(coded**2) / np.sum(cube**2)
        assert ratio <= bound * (1 + 1e-12)


@pytest.mark.parametrize("width", [7, 8])
def test_lipschitz_equals_dense_operator_norm(width):
    # the half spectrum holds every distinct Gram of an odd or even width
    rng = np.random.default_rng(48)
    system = _random_system(rng, 5, 3)
    op = build_frequency_operator(system, 6, width)
    norm = np.linalg.norm(DenseSystem.from_system(system, 6, width).phi, 2) ** 2
    assert abs(op.lipschitz - norm) <= 1e-12 * norm


def test_lipschitz_sweeps_once_per_operator(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(49)
    system = _random_system(rng, 4, 3)
    op = build_frequency_operator(system, 16, 16)
    coded = forward_encode(rng.uniform(size=(16, 16, 4)), system)
    anchor = rng.standard_normal((16, 16, 4))
    schedule = StageSchedule.geometric(5, 0.01, 4.0, prior_weight=0.01)
    reconstruct(coded, op, schedule, IdentityDenoiser(), MeanInitializer())
    gdm_fidelity_step(FidelityProblem.from_coded_image(op, coded, 0.5), anchor, anchor, iters=0)
    assert calls == []  # exact solves and zero steps never pay for the sweep
    reconstruct(coded, op, schedule, IdentityDenoiser(), MeanInitializer(), gdm_iters=3)
    for gamma in (0.5, 2.0):
        prob = FidelityProblem.from_coded_image(op, coded, gamma)
        gdm_fidelity_step(prob, anchor, anchor, iters=2)
    assert len(calls) == 1


# problem container validation


def test_problem_rejects_nonpositive_gamma():
    rng = np.random.default_rng(53)
    system = _random_system(rng, 3, 3)
    op = build_frequency_operator(system, 4, 4)
    coded = np.zeros((4, 4, 3))
    with pytest.raises(ParameterError):
        FidelityProblem.from_coded_image(op, coded, 0.0)
    with pytest.raises(ParameterError):
        FidelityProblem.from_coded_image(op, coded, -1.0)
    # positive but subnormal: 1/gamma overflows to inf in the solve
    with pytest.raises(ParameterError, match="gamma"):
        FidelityProblem.from_coded_image(op, coded, 1e-320)
    # inf: the subproblem's objective would read inf at its own minimiser
    with pytest.raises(ParameterError, match="^gamma: must be in "):
        FidelityProblem.from_coded_image(op, coded, np.inf)


# every place an anchor weight enters, with the name its refusal carries;
# each checks against errors.GAMMA, so all take and refuse the same values
_TINY = float(np.finfo(np.float64).tiny)
_GAMMA_SITES = {
    "FidelityProblem": ("gamma", lambda op, dense, g: FidelityProblem.from_coded_image(
        op, np.zeros((4, 4, 3)), g)),
    "StageSchedule": ("gamma[1]", lambda op, dense, g: StageSchedule([1.0, g])),
    "geometric": ("geometric schedule: gamma0",
                  lambda op, dense, g: StageSchedule.geometric(2, g)),
    "constant": ("constant schedule: gamma", lambda op, dense, g: StageSchedule.constant(2, g)),
    "ridge_solve": ("gamma", lambda op, dense, g: dense.ridge_solve(
        np.zeros((4, 4, 3)), np.zeros((4, 4, 3)), g)),
}


@pytest.mark.parametrize("site", sorted(_GAMMA_SITES))
def test_gamma_sites_share_one_range(site):
    name, call = _GAMMA_SITES[site]
    # three bands of identity optics: Phi^T Phi = I keeps the dense
    # Cholesky well posed at the smallest gamma
    system = OpticalSystem(psfs=np.ones((3, 1, 1)), response=np.eye(3))
    op = build_frequency_operator(system, 4, 4)
    dense = DenseSystem.from_system(system, 4, 4)
    call(op, dense, _TINY)  # the smallest normal float64 is taken
    for value in (np.nextafter(_TINY, 0.0), 5e-324, 0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ParameterError) as info:
            call(op, dense, value)
        assert str(info.value).startswith(
            "%s: must be in " % name), str(info.value)
        assert "[2.2250738585072014e-308, inf), got " in str(info.value)


def test_gram_max_is_the_largest_gram_entry():
    op = build_frequency_operator(_random_system(np.random.default_rng(61), 5, 3), 6, 7)
    assert op.gram_max == np.abs(op.gram).max()


class _UnreachedInitializer(MeanInitializer):
    def initialize(self, coded, op, out):
        raise AssertionError("the initializer ran before the gamma floor was checked")


def test_gamma_below_the_gram_floor_refused_without_warnings(recwarn):
    # 31 bands, largest Gram entry 10.1: Gram / gamma leaves float64 at the
    # smallest normal gamma, where the solve warned of overflow and lost a pivot
    op = build_frequency_operator(synthetic_system(31, 5), 16, 16)
    coded = apply_forward_frequency(op, smooth_cube(16, 16, 31))
    floor = op.gram_max / float(np.finfo(np.float64).max / 2)
    for gamma in (_TINY, math.nextafter(floor, 0.0)):
        message = "gamma %r below %r, " % (gamma, floor)
        with pytest.raises(SingularPivotError, match="^" + re.escape(message)):
            FidelityProblem.from_coded_image(op, coded, gamma)
    solved = fidelity_solve(FidelityProblem.from_coded_image(op, coded, floor),
                            np.zeros((16, 16, 31)))
    assert np.all(np.isfinite(solved))
    # reconstruct checks the smallest gamma a stage consumes, before it starts;
    # the last entry is consumed by no stage
    for gammas in ([1.0, _TINY, 1.0], [_TINY]):
        with pytest.raises(SingularPivotError, match="below"):
            reconstruct(coded, op, StageSchedule(gammas), IdentityDenoiser(),
                        _UnreachedInitializer())
    reconstruct(coded, op, StageSchedule([1.0, 1.0, _TINY]), IdentityDenoiser(),
                MeanInitializer())
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_outer_schur_overflow_above_the_floor_is_a_lost_pivot(recwarn):
    # two bands make every Gram rank two; at twice the floor the outer Schur
    # product overflows, and the pivot guard names the pivot it lost
    rng = np.random.default_rng(8)
    psfs = rng.uniform(0.05, 1, (2, 5, 5))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(0.05, 1, (3, 2)) * 10 ** rng.uniform(2, 4)
    op = build_frequency_operator(OpticalSystem(psfs=psfs, response=response), 16, 16)
    gamma = 2 * op.gram_max / float(np.finfo(np.float64).max / 2)
    coded = rng.uniform(size=(16, 16, 3))
    prob = FidelityProblem.from_coded_image(op, coded, gamma)
    with pytest.raises(SingularPivotError, match=r"^outer Schur pivot -inf below 0\.5$"):
        fidelity_solve(prob, np.zeros((16, 16, 2)))
    with pytest.raises(SingularPivotError, match=r"^stage 2 of 3: outer Schur pivot -inf "
                       r"below 0\.5 at gamma 4\.39596e-304, too small for float64$"):
        reconstruct(coded, op, StageSchedule.constant(3, gamma), IdentityDenoiser(),
                    MeanInitializer())
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# entry point -> call on a bad input; the ones in _IMAGE_INPUT take a coded
# image (depth 3), the rest a cube (depth = bands)
_IMAGE_INPUT = ("apply_adjoint", "from_coded_image", "reconstruct")
_SHAPE_CHECKED = {
    "apply_adjoint": lambda op, prob, x: apply_adjoint(op, x),
    "from_coded_image": lambda op, prob, x: FidelityProblem.from_coded_image(op, x, 1.0),
    "reconstruct": lambda op, prob, x: reconstruct(
        x, op, StageSchedule.constant(2, 1.0), IdentityDenoiser(), MeanInitializer()),
    "apply_forward_frequency": lambda op, prob, x: apply_forward_frequency(op, x),
    "fidelity_solve": lambda op, prob, x: fidelity_solve(prob, x),
    "fidelity_solve_naive": lambda op, prob, x: fidelity_solve_naive(prob, x),
}


@pytest.mark.parametrize("wrong", ["height", "width", "depth"])
@pytest.mark.parametrize("entry", list(_SHAPE_CHECKED))
def test_problem_rejects_bad_shapes(entry, wrong):
    rng = np.random.default_rng(59)
    op = build_frequency_operator(_random_system(rng, 4, 3), 4, 5)
    prob = FidelityProblem.from_coded_image(op, np.zeros((4, 5, 3)), 1.0)
    depth = 3 if entry in _IMAGE_INPUT else op.n_bands
    shape = [op.height, op.width, depth]
    shape[["height", "width", "depth"].index(wrong)] += 1
    with pytest.raises(DimensionError):
        _SHAPE_CHECKED[entry](op, prob, np.zeros(shape))


def test_band_major_input_matches_contiguous():
    # the stage loop hands the solve an empty_cube buffer; that layout must
    # not move a bit of the output
    rng = np.random.default_rng(71)
    op = build_frequency_operator(_random_system(rng, 4, 5), 7, 9)
    prob = FidelityProblem.from_coded_image(op, rng.standard_normal((7, 9, 3)), 0.5)
    band_major = empty_cube(op)
    band_major[...] = rng.standard_normal((7, 9, 4))
    contiguous = np.ascontiguousarray(band_major)
    assert not band_major.flags.c_contiguous
    for apply in (apply_forward_frequency, lambda op, x: fidelity_solve(prob, x)):
        assert np.array_equal(apply(op, band_major), apply(op, contiguous))


def test_coded_image_round_trip():
    rng = np.random.default_rng(61)
    system = _random_system(rng, 3, 3)
    op = build_frequency_operator(system, 4, 4)
    coded = rng.standard_normal((4, 4, 3))
    prob = FidelityProblem.from_coded_image(op, coded, 1.0)
    # the problem keeps a read-only view of the image itself, and its spectrum
    assert np.array_equal(prob.coded, coded)
    assert np.shares_memory(prob.coded, coded) and not prob.coded.flags.writeable
    assert coded.flags.writeable
    assert not prob.coded_spectrum.flags.writeable
    assert np.max(np.abs(from_spectrum(op, prob.coded_spectrum.copy()) - coded)) < 1e-12


def test_problem_rejects_a_coded_spectrum_off_the_grid():
    rng = np.random.default_rng(3)
    system, op, prob = _problem(rng)
    spectrum = np.zeros((3, 8, 4), dtype=np.complex128)
    fresh = build_frequency_operator(system, 8, 8)
    for operator in (op, fresh):
        with pytest.raises(DimensionError) as info:
            FidelityProblem(op=operator, coded=prob.coded, coded_spectrum=spectrum, gamma=0.5)
        assert type(info.value) is DimensionError
        assert str(info.value) == "coded_spectrum shape (3, 8, 4), expected (3, 8, 5)"
    assert "gram" not in vars(fresh)  # refused before the Gram is made


def test_read_only_coded_spectrum_is_not_consumed():
    # the inverse consumes the spectra it is handed; the coded spectrum, the
    # one meant to outlive a call, is read-only, so numpy's in-place transform
    # raises before it writes and the bytes stay, and the problem still
    # solves to the bytes it gave before
    rng = np.random.default_rng(62)
    _, op, prob = _problem(rng, size=8, n_bands=5)
    anchor = rng.standard_normal((8, 8, 5))
    solved = fidelity_solve(prob, anchor)
    before = prob.coded_spectrum.copy()
    with pytest.raises(ValueError, match="read-only"):
        from_spectrum(op, prob.coded_spectrum)
    assert np.array_equal(prob.coded_spectrum, before)
    assert np.array_equal(fidelity_solve(prob, anchor), solved)
