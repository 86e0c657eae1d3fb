"""Stage-loop, schedule, denoiser, and initializer tests."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage

from snapspec import (
    AdjointInitializer,
    Denoiser,
    FidelityProblem,
    GaussianDenoiser,
    IdentityDenoiser,
    Initializer,
    MeanInitializer,
    OpticalSystem,
    QuadraticDenoiser,
    RandInitializer,
    ReconstructionResult,
    StageSchedule,
    TotalVariationDenoiser,
    ZeroInitializer,
    add_noise,
    apply_adjoint,
    apply_forward_frequency,
    build_frequency_operator,
    evaluate,
    forward_encode,
    psnr,
    reconstruct,
    sam,
    ssim,
    tv_denoise,
)
from snapspec.errors import DimensionError, DivergenceError, ParameterError, ValidationError
from snapspec.optics import NoiseModel, empty_cube
from snapspec.synth import smooth_cube, synthetic_system
from snapspec import optics, unfolding
from snapspec.fidelity import MAX_GDM_ITERS
from snapspec.unfolding import DENOISERS, INITIALIZERS, MAX_GAUSSIAN_STD, MAX_TV_ITERS
from snapspec.unfolding import gaussian_smooth

from reference_impls import stage_loop_reference, tv_dual_reference, tv_prox_1d


def _random_system(rng, n_bands, kernel_size):
    psfs = rng.uniform(size=(n_bands, kernel_size, kernel_size))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(size=(3, n_bands))
    return OpticalSystem(psfs=psfs, response=response)


# schedules


def test_default_gamma_values():
    got = StageSchedule.geometric(5).gamma
    assert np.allclose(got, [0.01, 0.04, 0.16, 0.64, 2.56], rtol=1e-12)


def test_default_gamma_single_stage():
    assert np.allclose(StageSchedule.geometric(1).gamma, [0.01])


def test_default_gamma_strictly_increasing():
    for ratio in (1.5, 2.0, 4.0, 10.0):
        g = StageSchedule.geometric(7, gamma0=0.02, ratio=ratio).gamma
        assert np.all(np.diff(g) > 0)


def test_default_gamma_validation():
    with pytest.raises(ParameterError):
        StageSchedule.geometric(0)
    with pytest.raises(ParameterError):
        StageSchedule.geometric(3, gamma0=0.0)
    with pytest.raises(ParameterError, match=r"ratio: must be in \(1\.0, inf\), got 1\.0"):
        StageSchedule.geometric(3, ratio=1.0)
    with pytest.raises(ParameterError, match=r"ratio: must be in \(1\.0, inf\), got 0\.5"):
        StageSchedule.geometric(3, ratio=0.5)


@pytest.mark.parametrize("n_stages", [0, 2.5, True, np.float64(3.0)])
def test_schedule_stage_count_is_a_positive_integer(n_stages):
    with pytest.raises(ParameterError, match="geometric schedule: n_stages: "):
        StageSchedule.geometric(n_stages)
    with pytest.raises(ParameterError, match="constant schedule: n_stages: "):
        StageSchedule.constant(n_stages, 0.1)


def test_schedule_stage_count_takes_numpy_integers():
    assert StageSchedule.geometric(np.int64(3)).n_stages == 3
    assert StageSchedule.constant(np.int32(2), 0.1).n_stages == 2


def test_schedule_sigma_tilde_derivation():
    sched = StageSchedule([0.01, 0.04], prior_weight=0.16)
    assert np.allclose(sched.sigma_tilde, [4.0, 2.0])
    assert sched.zeta == 1.0
    assert sched.n_stages == 2


def test_schedule_validation():
    with pytest.raises(ParameterError, match="gamma"):
        StageSchedule(np.array([1.0, -1.0]))
    with pytest.raises(ParameterError, match="gamma"):
        StageSchedule(np.array([1.0, np.inf]))
    with pytest.raises(ParameterError, match="prior_weight"):
        StageSchedule([1.0], prior_weight=-0.1)
    with pytest.raises(ParameterError, match="zeta"):
        StageSchedule([1.0], zeta=-1.0)
    with pytest.raises(ParameterError, match="zeta"):
        StageSchedule([1.0], zeta=np.nan)
    # finite prior weight over a small gamma: sigma_tilde overflows
    with pytest.raises(ParameterError, match="prior_weight"):
        StageSchedule([0.01, 1.0], prior_weight=1e308)
    # positive but subnormal: 1/gamma overflows to inf in the fidelity solve
    subnormal = np.array([1.0, 1e-320])
    with pytest.raises(ParameterError, match="gamma"):
        StageSchedule(subnormal)
    with pytest.raises(ParameterError, match="gamma"):
        StageSchedule(subnormal, prior_weight=0.1)
    # no stages: the stage loop would index gamma[0] of an empty array
    with pytest.raises(ParameterError, match="at least one stage"):
        StageSchedule([])
    with pytest.raises(ParameterError, match="at least one stage"):
        StageSchedule(np.zeros(0), prior_weight=0.1, zeta=0.0)


def test_constant_schedule():
    sched = StageSchedule.constant(4, 0.3, prior_weight=0.05)
    assert np.allclose(sched.gamma, 0.3)
    assert np.allclose(sched.sigma_tilde, np.sqrt(0.05 / 0.3))


# denoisers


def test_identity_denoiser_is_bit_exact():
    cube = np.random.default_rng(0).standard_normal((4, 4, 2))
    out = IdentityDenoiser().denoise(cube, 0.5)
    assert out is cube


def test_quadratic_denoiser_formula():
    cube = np.random.default_rng(1).standard_normal((4, 4, 2))
    out = QuadraticDenoiser().denoise(cube, 2.0)
    assert np.array_equal(out, cube / 5.0)
    assert np.array_equal(QuadraticDenoiser().denoise(cube, 0.0), cube)


def test_gaussian_denoiser_preserves_constants():
    cube = np.full((16, 16, 3), 0.37)
    out = GaussianDenoiser(spatial_std=2.0).denoise(cube, 0.0)
    assert np.max(np.abs(out - 0.37)) < 1e-12


# the prior sums each tap as a separate add, multiply and add, in the order
# of ndimage's correlate1d for a symmetric kernel.  Bit equality with ndimage
# assumes its build does the same: it was measured on x86-64, where scipy's
# wheels do not contract the taps to fused multiply-adds
_GAUSSIAN_CASES = [((128, 128, 31), 1.0), ((512, 512, 8), 1.0), ((512, 512, 8), 2.5),
                   ((13, 7, 3), 3.0), ((5, 4, 2), 3.0), ((1, 1, 1), 1.0),
                   ((9, 6, 1), 1e3), ((64, 63, 8), 0.3), ((64, 63, 8), 0.1),
                   ((300, 9, 5), 40.0), ((100, 64, 8), 12.0), ((40, 256, 8), 12.0)]


@pytest.mark.parametrize("layout", ["pixel-major", "band-major"])
@pytest.mark.parametrize("shape, std", _GAUSSIAN_CASES, ids=[
    "x".join(map(str, shape)) + "-std%g" % std for shape, std in _GAUSSIAN_CASES])
def test_gaussian_denoiser_equals_ndimage_bits(shape, std, layout):
    # reflect boundaries at any radius (1e3 reaches far past a 9 x 6 band,
    # 40 past the 9 columns only), a radius of 1 (std 0.3) and of 0 (std
    # 0.1), and strips that the radius outruns, so the bottom reflection
    # reads rows that earlier strips of an in-place call have overwritten in
    # the cube: at 512^2 x 8 std 2.5 the radius 10 against 8-row strips, at
    # 100 x 64 x 8 std 12 the radius 48 against a last strip of 36 rows, and
    # at 40 x 256 x 8 std 12 the same radius past the height of three strips
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    if layout == "band-major":
        x = np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)
    want = ndimage.gaussian_filter(x, sigma=(std, std, 0.0))
    den = GaussianDenoiser(std)
    kept = x.copy()
    assert np.array_equal(den.denoise(x, 0.0), want)
    fresh = np.empty(shape)
    assert den.denoise(x, 0.0, out=fresh) is fresh and np.array_equal(fresh, want)
    assert np.array_equal(x, kept)
    assert den.denoise(x, 0.0, out=x) is x and np.array_equal(x, want)


def test_gaussian_denoiser_in_place_on_short_strips(monkeypatch):
    # two-row strips and a last strip of one row, each far shorter than the
    # radius 12, which nearly spans the 13-row height
    monkeypatch.setattr(optics, "_STRIP_ELEMENTS", 2 * 7 * 3)
    x = np.random.default_rng(1).standard_normal((13, 7, 3))
    want = ndimage.gaussian_filter(x, sigma=(3.0, 3.0, 0.0))
    assert GaussianDenoiser(3.0).denoise(x, 0.0, out=x) is x
    assert np.array_equal(x, want)


def test_gaussian_denoiser_validation():
    with pytest.raises(ParameterError):
        GaussianDenoiser(spatial_std=0.0)


# the public kernel checks its std against GaussianDenoiser.params, as
# tv_denoise checks its weight and iters: no bare IndexError, ValueError or
# OverflowError, and no run outside (0, MAX_GAUSSIAN_STD]

@pytest.mark.parametrize("std", [-1.0, np.nan, np.inf, 0.0, 2 * MAX_GAUSSIAN_STD], ids=repr)
def test_gaussian_smooth_refuses_std_outside_its_domain(std):
    with pytest.raises(ParameterError, match="^denoiser 'gaussian': std: must be in "):
        gaussian_smooth(np.zeros((8, 8, 2)), std)


def test_tv_zero_weight_returns_copy():
    cube = np.random.default_rng(2).standard_normal((5, 5, 2))
    out = tv_denoise(cube, 0.0, 10)
    assert np.array_equal(out, cube)
    assert out is not cube
    assert tv_denoise(cube, 0.0, 10, out=cube) is cube
    assert np.array_equal(cube, out)


def test_tv_constant_field_unchanged():
    cube = np.full((8, 8, 2), 1.25)
    out = tv_denoise(cube, 0.5, 200)
    assert np.max(np.abs(out - 1.25)) < 1e-12


def test_tv_step_edge_analytic():
    # 1-D step of height 1 over 8+8 samples: each plateau moves weight/8 inward
    signal = np.concatenate([np.zeros(8), np.ones(8)])
    out = tv_denoise(signal[None, :, None], 0.1, 4000)[0, :, 0]
    assert np.max(np.abs(out[:8] - 0.0125)) < 1e-6
    assert np.max(np.abs(out[8:] - 0.9875)) < 1e-6


def test_tv_matches_dynamic_programming_oracle():
    rng = np.random.default_rng(3)
    for trial in range(4):
        n = int(rng.integers(6, 17))
        signal = rng.uniform(-1.0, 2.0, size=n)
        lam = float(rng.uniform(0.02, 0.3))
        dual = tv_denoise(signal[None, :, None], lam, 6000)[0, :, 0]
        ref = tv_prox_1d(signal, lam)
        assert np.max(np.abs(dual - ref)) < 1e-6


def test_tv_bands_processed_independently():
    rng = np.random.default_rng(4)
    cube = rng.standard_normal((6, 6, 3))
    joint = tv_denoise(cube, 0.1, 300)
    for b in range(3):
        single = tv_denoise(cube[:, :, b : b + 1], 0.1, 300)
        assert np.array_equal(joint[:, :, b], single[:, :, 0])


# "12x10" is the single-band 12 x 10 image
@pytest.mark.parametrize("shape", [(1, 16, 1), (16, 1, 2), (7, 9, 3), (33, 17, 2),
                                   pytest.param((12, 10, 1), id="12x10")],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("weight", [0.01, 0.3])
@pytest.mark.parametrize("rows", [1, 2, 3, None])
def test_tv_strips_match_reference(monkeypatch, shape, weight, rows):
    # the strip sweep must give the whole-array iterates bit for bit,
    # whatever the strip height; None keeps the default (one strip here)
    if rows is not None:
        monkeypatch.setattr(optics, "_STRIP_ELEMENTS", rows * shape[1] * shape[2])
    cube = np.random.default_rng(sum(shape)).standard_normal(shape)
    got = tv_denoise(cube, weight, 25)
    assert np.array_equal(got, tv_dual_reference(cube, weight, 25))


def test_tv_non_contiguous_input():
    cube = np.random.default_rng(5).standard_normal((9, 14, 3))
    view = cube.transpose(1, 0, 2)
    assert not view.flags.c_contiguous
    out = tv_denoise(view, 0.1, 20)
    assert np.array_equal(out, tv_denoise(np.ascontiguousarray(view), 0.1, 20))
    assert np.array_equal(out, tv_dual_reference(view, 0.1, 20))


def test_tv_validation():
    with pytest.raises(ParameterError):
        tv_denoise(np.zeros((4, 4, 1)), -0.1, 10)
    with pytest.raises(ParameterError):
        tv_denoise(np.zeros((4, 4, 1)), 0.1, 0)
    with pytest.raises(DimensionError):
        tv_denoise(np.zeros(4), 0.1, 10)
    with pytest.raises(DimensionError):
        tv_denoise(np.zeros((4, 4)), 0.1, 10)
    with pytest.raises(ParameterError):
        TotalVariationDenoiser(weight=-1.0)
    with pytest.raises(ParameterError):
        TotalVariationDenoiser(iters=0)
    with pytest.raises(ParameterError):
        TotalVariationDenoiser(iters=MAX_TV_ITERS + 1)
    assert TotalVariationDenoiser(iters=MAX_TV_ITERS).iters == MAX_TV_ITERS


@pytest.mark.parametrize("band_major", [False, True], ids=["pixel-major", "band-major"])
@pytest.mark.parametrize("shape", [(7, 9, 3), (11, 6, 2)], ids=["7x9x3", "11x6x2"])
@pytest.mark.parametrize("name", sorted(DENOISERS))
def test_denoise_into_its_input_matches_fresh_output(monkeypatch, name, shape, band_major):
    # the untraced stage loop passes its iterate buffer as input and out;
    # the bits must be those of a fresh output, and a call without out must
    # leave its input alone.  Three-row TV strips leave a short last strip
    monkeypatch.setattr(optics, "_STRIP_ELEMENTS", 3 * shape[1] * shape[2])
    den = DENOISERS[name]()
    x = np.random.default_rng(len(name)).standard_normal(shape)
    if band_major:
        x = np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)
    before = x.copy()
    fresh = den.denoise(x, 0.3)
    assert np.array_equal(x, before)
    other = np.full_like(x, np.nan)
    assert den.denoise(x, 0.3, out=other) is other
    assert np.array_equal(other, fresh)
    assert den.denoise(x, 0.3, out=x) is x
    assert np.array_equal(x, fresh)


# every 3-D array argument passes errors.as_3d: an empty extent or a wrong
# rank is a DimensionError, never an IndexError, a ZeroDivisionError, a NaN
# metric or an accepted system

_GATED = {
    "gaussian_smooth": lambda x: gaussian_smooth(x, 1.0),
    "tv_denoise-0.1": lambda x: tv_denoise(x, 0.1, 5),
    "tv_denoise-0": lambda x: tv_denoise(x, 0.0, 5),
    "psnr": lambda x: psnr(x, x),
    "sam": lambda x: sam(x, x),
    "ssim": lambda x: ssim(x, x),
    "evaluate": lambda x: evaluate(x, x, crop=0),
    "forward_encode": lambda x: forward_encode(x, synthetic_system(2, 3)),
    "OpticalSystem": lambda x: OpticalSystem(psfs=x, response=np.ones((3, len(x)))),
}


@pytest.mark.parametrize("shape", [(0, 3, 3), (3, 0, 2), (12, 12, 0), (12, 12), (12, 12, 2, 1)],
                         ids=["no-rows", "no-columns", "no-bands", "2d", "4d"])
@pytest.mark.parametrize("name", list(_GATED))
def test_empty_or_wrong_rank_array_is_a_dimension_error(name, shape):
    with pytest.raises(DimensionError, match="^expected a 3-D tensor"):
        _GATED[name](np.zeros(shape))


def test_registries_cover_all_names():
    assert set(DENOISERS) == {"identity", "gaussian", "tv", "quadratic"}
    assert set(INITIALIZERS) == {"zero", "rand", "mean", "adjoint"}
    for name, cls in DENOISERS.items():
        assert cls.name == name
    for name, cls in INITIALIZERS.items():
        assert cls.name == name


# every key a class declares int is a count: a fraction, a bool or a float
# that holds an integer is refused naming the key, not truncated

_COUNT_KEYS = [(cls, key) for cls in (*DENOISERS.values(), *INITIALIZERS.values(), NoiseModel)
               for key, (_, kind, _) in cls.params.items() if kind is int]


@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("cls, key", _COUNT_KEYS, ids=["%s-%s" % (cls.__name__, key)
                                                      for cls, key in _COUNT_KEYS])
def test_int_declared_keys_refuse_non_integers(cls, key, value):
    arg = cls.params[key][0]
    with pytest.raises(ParameterError, match=r": %s: must be an integer, got " % key):
        cls(**{arg: value})


# a float-declared number is not a bool either, Python's or numpy's

@pytest.mark.parametrize("flag", [True, np.True_], ids=repr)
@pytest.mark.parametrize("call, key", [
    (lambda v: GaussianDenoiser(spatial_std=v), "std"),
    (lambda v: NoiseModel(gaussian_sigma=v), "gaussian"),
    (lambda v: StageSchedule.constant(3, v), "gamma"),
], ids=["gaussian-std", "noise-gaussian", "constant-gamma"])
def test_float_declared_keys_refuse_bools(call, key, flag):
    with pytest.raises(ParameterError, match=r": %s: must be a number, not a bool" % key):
        call(flag)


# initializers


def _small_setup(seed=0, size=8, n_bands=4):
    rng = np.random.default_rng(seed)
    system = _random_system(rng, n_bands, 3)
    op = build_frequency_operator(system, size, size)
    cube = rng.uniform(size=(size, size, n_bands))
    coded = forward_encode(cube, system)
    return system, op, cube, coded


def _start(init, coded, op):
    """The initializer's start, written into a buffer of garbage that it returns."""
    out = np.full((op.height, op.width, op.n_bands), np.nan)
    assert init.initialize(coded, op, out) is out
    return out


def test_zero_initializer():
    _, op, _, coded = _small_setup()
    assert not _start(ZeroInitializer(), coded, op).any()


def test_rand_initializer_deterministic():
    _, op, _, coded = _small_setup()
    a = _start(RandInitializer(seed=7), coded, op)
    b = _start(RandInitializer(seed=7), coded, op)
    c = _start(RandInitializer(seed=8), coded, op)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() < 1.0


def test_mean_initializer_broadcasts_channel_mean():
    _, op, _, coded = _small_setup()
    out = _start(MeanInitializer(), coded, op)
    mean = coded.mean(axis=2)
    for b in range(4):
        assert np.array_equal(out[:, :, b], mean)


def test_adjoint_initializer_matches_operator():
    _, op, _, coded = _small_setup()
    out = _start(AdjointInitializer(), coded, op)
    assert np.max(np.abs(out - apply_adjoint(op, coded))) < 1e-14


# the stage loop


def test_single_stage_returns_initialization():
    _, op, _, coded = _small_setup()
    sched = StageSchedule.geometric(1)
    init = RandInitializer(seed=3)
    result = reconstruct(coded, op, sched, IdentityDenoiser(), init)
    assert isinstance(result, ReconstructionResult)
    assert np.array_equal(result.cube, _start(init, coded, op))
    assert result.trace == []


@pytest.mark.parametrize("stages", [1, 3])
@pytest.mark.parametrize("gdm_iters", [-1, 2.5, True, MAX_GDM_ITERS + 1])
def test_reconstruct_refuses_gdm_iters_outside_its_domain(stages, gdm_iters):
    # checked before any stage runs, so a one-stage run refuses it too
    _, op, _, coded = _small_setup()
    with pytest.raises(ParameterError, match="gdm_iters: must be "):
        reconstruct(coded, op, StageSchedule.geometric(stages), IdentityDenoiser(),
                    ZeroInitializer(), gdm_iters=gdm_iters)


class _TruthInitializer(Initializer):
    name = "truth"

    def __init__(self, cube):
        self.cube = cube

    def initialize(self, coded, op, out):
        out[...] = self.cube
        return out


def test_exact_data_consistent_start_is_fixed_point():
    # A truth = J and identity denoiser: every stage returns the truth
    _, op, cube, coded = _small_setup(seed=5)
    sched = StageSchedule.geometric(6)
    result = reconstruct(coded, op, sched, IdentityDenoiser(), _TruthInitializer(cube))
    assert np.max(np.abs(result.cube - cube)) < 1e-12


def test_initializer_cube_left_unchanged():
    # the untraced loop writes the denoiser input into the iterate's buffer,
    # its own, never into the cube an initializer copies its start from
    _, op, cube, coded = _small_setup(seed=5)
    before = cube.copy()
    reconstruct(coded, op, StageSchedule.geometric(4), IdentityDenoiser(),
                _TruthInitializer(cube))
    assert np.array_equal(cube, before)


def test_trailing_schedule_entries_unused():
    # a K-stage run consumes only the first K-1 gamma entries
    _, op, _, coded = _small_setup(seed=11)
    gammas = np.array([0.01, 0.04, 0.16, 0.64])
    base = StageSchedule(gammas, prior_weight=0.02)
    poisoned = StageSchedule(np.concatenate([gammas[:3], [1e12]]), prior_weight=0.02)
    den = QuadraticDenoiser()
    init = MeanInitializer()
    a = reconstruct(coded, op, base, den, init)
    b = reconstruct(coded, op, poisoned, den, init)
    assert np.array_equal(a.cube, b.cube)


def test_trace_stage_numbering_and_nans():
    _, op, _, coded = _small_setup(seed=13)
    sched = StageSchedule.geometric(5)
    result = reconstruct(coded, op, sched, IdentityDenoiser(), MeanInitializer(), trace=True)
    assert [r.stage for r in result.trace] == [1, 2, 3, 4, 5]
    first = result.trace[0]
    assert np.isnan(first.delta) and np.isnan(first.gamma) and np.isnan(first.primal_residual)
    assert np.isfinite(first.data_fidelity)
    for r in result.trace[1:]:
        assert np.isfinite(r.delta) and np.isfinite(r.gamma)
        assert r.gamma > 0


@pytest.mark.parametrize("gdm_iters", [0, 3])
@pytest.mark.parametrize("denoiser", [IdentityDenoiser(), GaussianDenoiser(1.0),
                                      TotalVariationDenoiser(0.01, 10), QuadraticDenoiser()])
def test_trace_leaves_cube_unchanged(denoiser, gdm_iters):
    # traced and untraced runs keep their buffers differently; the cube and
    # every record must not depend on that
    _, op, _, coded = _small_setup(seed=31, size=9)
    sched = StageSchedule.geometric(5, prior_weight=0.01, zeta=0.7)
    plain = reconstruct(coded, op, sched, denoiser, AdjointInitializer(), gdm_iters=gdm_iters)
    traced = reconstruct(coded, op, sched, denoiser, AdjointInitializer(), trace=True,
                         gdm_iters=gdm_iters)
    assert np.array_equal(plain.cube, traced.cube)
    assert all(np.isfinite(r.data_fidelity) for r in traced.trace)


def test_trace_of_a_bright_scene_reads_inf_without_breaking_the_run():
    # the squared residual of a 1e300 scene leaves the float64 range; the
    # trace records that as inf, and neither warns nor changes the cube
    cube = smooth_cube(16, 16, 4) * 1e300
    system = synthetic_system(n_bands=4, kernel_size=5)
    op = build_frequency_operator(system, 16, 16)
    coded = forward_encode(cube, system)
    sched = StageSchedule.geometric(3)
    den = TotalVariationDenoiser()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = reconstruct(coded, op, sched, den, MeanInitializer())
        traced = reconstruct(coded, op, sched, den, MeanInitializer(), trace=True)
    assert np.array_equal(plain.cube, traced.cube)
    assert [r.data_fidelity for r in traced.trace] == [np.inf] * 3


def test_trace_of_an_overflowing_forward_image_reads_inf():
    # a start of +-1.7e308 overflows the forward transform both ways, so
    # the image holds NaN (inf - inf); the record reads that as inf, and
    # warns of nothing
    _, op, _, coded = _small_setup(seed=19)
    start = np.full((op.height, op.width, op.n_bands), 1.7e308)
    start[::2] *= -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(apply_forward_frequency(op, start)).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = reconstruct(coded, op, StageSchedule.geometric(1), IdentityDenoiser(),
                             _TruthInitializer(start), trace=True)
    assert [r.data_fidelity for r in result.trace] == [np.inf]


_LOOP_GRIDS = [(16, 16, 4), (15, 17, 5), (33, 9, 3)]


def _grid_setup(shape, seed=0):
    height, width, bands = shape
    rng = np.random.default_rng(seed)
    system = _random_system(rng, bands, 3)
    op = build_frequency_operator(system, height, width)
    return op, forward_encode(rng.uniform(size=shape), system)


def _assert_loop_matches_reference(op, coded, sched, denoiser, init, trace, gdm_iters):
    result = reconstruct(coded, op, sched, denoiser, init, trace=trace, gdm_iters=gdm_iters)
    cube, records = stage_loop_reference(coded, op, sched, denoiser, init, trace=trace,
                                         gdm_iters=gdm_iters)
    assert result.cube.shape == cube.shape and result.cube.tobytes() == cube.tobytes()
    got = [dataclasses.astuple(r) for r in result.trace]
    assert np.array(got).tobytes() == np.array(records).tobytes() and len(got) == len(records)


_ALL_DENOISERS = [IdentityDenoiser(), GaussianDenoiser(1.0), TotalVariationDenoiser(0.01, 10),
                  QuadraticDenoiser()]
_ALL_INITS = [ZeroInitializer(), MeanInitializer(), AdjointInitializer(), RandInitializer(5)]


@pytest.mark.parametrize("shape", _LOOP_GRIDS, ids=lambda s: "x".join(map(str, s)))
def test_stage_loop_matches_whole_cube_reference(shape):
    # the strip-swept anchor write and multiplier update give the bytes of
    # the whole-cube passes, traced records included: 192 runs per grid
    op, coded = _grid_setup(shape)
    for zeta in (0.0, 0.7, 1.0):
        sched = StageSchedule.geometric(5, prior_weight=0.01, zeta=zeta)
        for gdm_iters in (0, 3):
            for trace in (False, True):
                for denoiser in _ALL_DENOISERS:
                    for init in _ALL_INITS:
                        _assert_loop_matches_reference(op, coded, sched, denoiser, init,
                                                       trace, gdm_iters)


@pytest.mark.parametrize("rows", [1, 3, 7, 100], ids=lambda r: "rows%d" % r)
@pytest.mark.parametrize("shape", _LOOP_GRIDS, ids=lambda s: "x".join(map(str, s)))
def test_stage_loop_strips_match_whole_cube_reference(monkeypatch, shape, rows):
    # one row, three rows, seven (dividing none of the heights) and more
    # rows than the cube has; TV takes the same strips
    monkeypatch.setattr(optics, "_STRIP_ELEMENTS", rows * shape[1] * shape[2])
    op, coded = _grid_setup(shape, seed=1)
    sched = StageSchedule.geometric(4, prior_weight=0.01, zeta=0.7)
    for gdm_iters in (0, 3):
        for trace in (False, True):
            for denoiser in (TotalVariationDenoiser(0.01, 5), QuadraticDenoiser()):
                for init in (AdjointInitializer(), RandInitializer(2)):
                    _assert_loop_matches_reference(op, coded, sched, denoiser, init, trace,
                                                   gdm_iters)


def _divergence_message(call, *args, **kwargs):
    with pytest.raises(DivergenceError) as info:
        call(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("rows", [None, 1], ids=["default-strips", "one-row-strips"])
def test_divergence_caught_at_the_reference_stage(monkeypatch, rows):
    # a 1e110 scene overflows the update at stage 2 or 3 under these rates;
    # the strip sweeps raise where the whole-cube passes do, the last stage too
    _, op, _, coded = _small_setup(seed=41, size=9)
    coded = coded * 1e110
    if rows:
        monkeypatch.setattr(optics, "_STRIP_ELEMENTS", rows * 9 * 4)
    messages = []
    for zeta in (1e100, 1e200, 1e300):
        for stages in (3, 20):
            sched = StageSchedule.geometric(stages, prior_weight=0.01, zeta=zeta)
            for gdm_iters in (0, 3):
                args = (coded, op, sched, QuadraticDenoiser(), MeanInitializer())
                want = _divergence_message(stage_loop_reference, *args, gdm_iters=gdm_iters)
                assert _divergence_message(reconstruct, *args, gdm_iters=gdm_iters) == want
                messages.append(want)
    assert any(m.startswith("stage 3 of 3 diverged") for m in messages)
    assert any(m.startswith("stage 2 of 20 diverged") for m in messages)


class _SpikeDenoiser(IdentityDenoiser):
    """Identity, but its first call sets one pixel to 1e308."""

    def __init__(self):
        self.calls = 0

    def denoise(self, cube, noise_level, out=None):
        out = super().denoise(cube, noise_level, out)
        self.calls += 1
        if self.calls == 1:
            out[5, 2, 1] = 1e308
        return out


@pytest.mark.parametrize("rows", [None, 1], ids=["default-strips", "one-row-strips"])
def test_anchor_write_overflow_names_the_stage_that_reads_it(monkeypatch, rows):
    # stage 2 leaves beta = -1e308 under z = 1e308 at one pixel: the update
    # is finite and the next anchor z - beta overflows, which the whole-cube
    # loop meets as stage 3's first pass; a two-stage run never writes it
    _, op, _, coded = _small_setup(seed=3)
    if rows:
        monkeypatch.setattr(optics, "_STRIP_ELEMENTS", rows * 8 * 4)
    sched = StageSchedule.constant(4, 1.0)
    want = _divergence_message(stage_loop_reference, coded, op, sched, _SpikeDenoiser(),
                               ZeroInitializer())
    assert want.startswith("stage 3 of 4 diverged (overflow encountered in subtract)")
    got = _divergence_message(reconstruct, coded, op, sched, _SpikeDenoiser(), ZeroInitializer())
    assert got == want
    two = StageSchedule.constant(2, 1.0)
    cube, _ = stage_loop_reference(coded, op, two, _SpikeDenoiser(), ZeroInitializer())
    result = reconstruct(coded, op, two, _SpikeDenoiser(), ZeroInitializer())
    assert result.cube.tobytes() == cube.tobytes()


def _whole_cube_update(i, z, beta, zeta, scratch):
    np.subtract(i, z, out=scratch)
    scratch *= zeta
    beta += scratch


@pytest.mark.parametrize("case", ["add", "anchor"])
def test_strip_sweeps_raise_the_first_overflow_they_meet(monkeypatch, case):
    # one-row strips over a (3, 1, 1) cube, i = 0: a finite row before the
    # overflowing one, and each sweep raises the error of its whole-cube pass
    monkeypatch.setattr(optics, "_STRIP_ELEMENTS", 1)
    zeta, z, beta = {
        # row 2: 1e308 + 1.7e308 overflows the add; row 1 is finite
        "add": (1.0, [0.0, 1e308, -1e308], [0.0, 0.0, 1.7e308]),
        # row 1: 1e308 - (-1e308) overflows the anchor
        "anchor": (None, [0.0, 1e308, 0.0], [0.0, -1e308, 0.0]),
    }[case]
    z, beta = np.array(z).reshape(3, 1, 1), np.array(beta).reshape(3, 1, 1)
    i = np.zeros_like(z)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError) as whole:
            if case == "anchor":
                np.subtract(z, beta, out=np.empty_like(z))
            else:
                _whole_cube_update(i, z, beta.copy(), zeta, np.empty_like(z))
        with pytest.raises(FloatingPointError) as strips:
            if case == "anchor":
                unfolding._write_anchor(z, beta, np.empty_like(z))
            else:
                unfolding._update_multipliers(i, z, beta, zeta)
    assert str(strips.value) == str(whole.value)
    assert str(whole.value) == {"add": "overflow encountered in add",
                                "anchor": "overflow encountered in subtract"}[case]


def _peak_bytes(call, *args, **kwargs):
    """tracemalloc peak of one call above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def _peak_cubes(op, coded, sched, den, init, trace, gdm_iters=0):
    """tracemalloc peak of one run above what was allocated before it, in
    cubes; the operator's Gram, made on first use, is made first, so that
    the loop alone is measured."""
    op.gram_max
    peak = _peak_bytes(reconstruct, coded, op, sched, den, init, trace=trace,
                       gdm_iters=gdm_iters)
    return peak / (op.height * op.width * op.n_bands * 8)


def test_reconstruct_working_memory_in_cubes():
    # an exact-solve stage holds the iterate, the multipliers and the anchor
    # whose padded rows the solve transforms in place, and the quadratic
    # prior writes into the iterate: three cubes (3.74 measured); 256^2
    # keeps the solve's fixed 512 KiB strip scratch small against a cube
    system = synthetic_system(n_bands=8, kernel_size=9)
    op = build_frequency_operator(system, 256, 256)
    coded = forward_encode(smooth_cube(256, 256, 8), system)
    mean, adjoint = MeanInitializer(), AdjointInitializer()
    sched = StageSchedule.geometric(13, prior_weight=1e-4)
    assert _peak_cubes(op, coded, sched, QuadraticDenoiser(), mean, trace=False) <= 3.75
    # the Gaussian prior writes into the iterate too, and its window, padded
    # strip and tap strip (0.25 cube alone) stay under the solve's scratch:
    # no cube more (3.74 measured)
    assert _peak_cubes(op, coded, sched, GaussianDenoiser(1.0), mean, trace=False) <= 3.75
    # TV adds its two dual cubes and writes into the iterate too (5.56
    # measured); the adjoint start goes into the loop's pixel-major
    # iterate, so TV never copies its input either (5.56 measured)
    tv, tv_sched = TotalVariationDenoiser(0.01, 5), StageSchedule.geometric(7, prior_weight=1e-4)
    assert _peak_cubes(op, coded, tv_sched, tv, mean, trace=False) <= 5.6
    assert _peak_cubes(op, coded, tv_sched, tv, adjoint, trace=False) <= 5.6
    # the trace adds one cube, the second iterate buffer that keeps the
    # previous iterate for delta, and each record's forward transform
    # (6.28 measured for identity, 6.56 for TV from either start)
    assert _peak_cubes(op, coded, sched, IdentityDenoiser(), mean, trace=True) <= 6.45
    assert _peak_cubes(op, coded, tv_sched, tv, mean, trace=True) <= 6.6
    assert _peak_cubes(op, coded, tv_sched, tv, adjoint, trace=True) <= 6.6
    # a GDM stage's output is dropped before the next stage's gradient steps,
    # and each gradient step frees its temporaries as it goes (7.17 measured;
    # at 128^2 a strip holds 3 bands, so the inverse's scratch is 3 bands)
    op = build_frequency_operator(system, 128, 128)
    coded = forward_encode(smooth_cube(128, 128, 8), system)
    sched = StageSchedule.geometric(5, prior_weight=1e-4)
    assert _peak_cubes(op, coded, sched, QuadraticDenoiser(), mean, trace=False,
                       gdm_iters=3) <= 7.5


def test_strip_sweeps_allocate_one_strip():
    # the anchor write and the multiplier update each go through one
    # pixel-major strip, not a cube (a cube is 4 MiB at 256^2 x 8): the
    # 262 144-byte strip, 262 896 bytes measured for the anchor write, and
    # for the update the 64 KiB iterator buffer numpy takes to read the
    # band-major i too, 329 904 measured; one bound 5% over the larger
    rng = np.random.default_rng(0)
    op = build_frequency_operator(synthetic_system(n_bands=8, kernel_size=9), 256, 256)
    anchor = empty_cube(op)
    anchor[...] = rng.uniform(size=anchor.shape)  # the exact solve's output, band-major
    z, beta = rng.uniform(size=(2, 256, 256, 8))
    assert _peak_bytes(unfolding._write_anchor, z, beta, anchor) <= 346_000
    assert _peak_bytes(unfolding._update_multipliers, anchor, z, beta, 0.7) <= 346_000


def test_setup_working_memory():
    # each set-up function works in its output; the bounds are the values
    # measured at 256^2 x 8 plus a margin of at most 5%
    system = synthetic_system(n_bands=8, kernel_size=9)
    cube = 256 * 256 * 8 * 8
    # the scene is filtered and scaled in its noise array, a strip of lines
    # at a time through the FFT: 1.04 cubes measured (1.00 with ndimage's
    # direct sums, 3.00 with a new array per step)
    assert _peak_bytes(smooth_cube, 256, 256, 8) / cube <= 1.05
    # transfer (1 cube of half spectra), each band embedded and transformed
    # on its own: 1.26 measured (1.89 with the Gram made at construction,
    # 2.02 from the batched transform), 3% margin
    assert _peak_bytes(build_frequency_operator, system, 256, 256) / cube <= 1.30
    # the Gram's first use: the power planes (0.5) and the six Gram planes
    # (0.375), 0.88 measured, 4% margin
    op = build_frequency_operator(system, 256, 256)
    assert _peak_bytes(lambda: op.gram) / cube <= 0.92
    # forward_encode: its operator's transfer, the cube's spectra and the
    # channel spectra, with no Gram: 2.39 measured (2.77 with the Gram), 3% margin
    scene = smooth_cube(256, 256, 8)
    assert _peak_bytes(forward_encode, scene, system) / cube <= 2.45
    # the noisy copy plus one image of Poisson counts or of read noise: 2.04
    # images measured with both stages (3.01 from whole-array steps), 3% margin
    coded = forward_encode(scene, system)
    for model in (NoiseModel(), NoiseModel(poisson_bits=0), NoiseModel(gaussian_sigma=0.0)):
        assert _peak_bytes(add_noise, coded, model) / coded.nbytes <= 2.1


def test_primal_residual_decreases_until_floor():
    # fully convex program, fixed penalty: the consensus gap ||I - Z|| shrinks
    # monotonically until it hits the roundoff floor, and ends below 1e-6
    _, op, _, coded = _small_setup(seed=19)
    sched = StageSchedule.constant(200, 0.3, prior_weight=0.05)
    result = reconstruct(
        coded, op, sched, QuadraticDenoiser(), ZeroInitializer(), trace=True
    )
    residuals = [r.primal_residual for r in result.trace[1:]]
    for prev, cur in zip(residuals, residuals[1:]):
        if prev > 1e-12 and cur > 1e-12:
            assert cur <= prev * (1 + 1e-9)
    assert residuals[-1] < 1e-6


def test_mean_start_settles_faster_than_random():
    # last-stage movement: informed starts win in the clear majority of draws
    wins = 0
    for seed in range(10):
        _, op, _, coded = _small_setup(seed=100 + seed, size=12)
        sched = StageSchedule.geometric(6, prior_weight=0.01)
        den = TotalVariationDenoiser(0.01, 20)
        mean_run = reconstruct(coded, op, sched, den, MeanInitializer(), trace=True)
        rand_run = reconstruct(coded, op, sched, den, RandInitializer(seed=seed), trace=True)
        if mean_run.trace[-1].delta < rand_run.trace[-1].delta:
            wins += 1
    assert wins >= 7


def test_unfolding_improves_on_its_start():
    cube = smooth_cube(32, 32, 4, seed=21)
    system = synthetic_system(n_bands=4, kernel_size=7)
    op = build_frequency_operator(system, 32, 32)
    coded = forward_encode(cube, system)
    init = AdjointInitializer()
    start = _start(init, coded, op)
    sched = StageSchedule.geometric(7, prior_weight=0.01)
    result = reconstruct(coded, op, sched, TotalVariationDenoiser(0.01, 40), init)
    assert psnr(result.cube, cube) > psnr(start, cube) + 3.0


def test_gdm_solver_tracks_exact_solver():
    _, op, _, coded = _small_setup(seed=23, size=6)
    sched = StageSchedule.constant(4, 1.0, prior_weight=0.02)
    den = QuadraticDenoiser()
    init = ZeroInitializer()
    exact = reconstruct(coded, op, sched, den, init)
    approx = reconstruct(coded, op, sched, den, init, gdm_iters=400)
    rel = np.linalg.norm(approx.cube - exact.cube) / np.linalg.norm(exact.cube)
    assert rel < 1e-5


def test_gdm_solver_few_iters_differs():
    _, op, _, coded = _small_setup(seed=29, size=6)
    sched = StageSchedule.constant(4, 0.1, prior_weight=0.02)
    exact = reconstruct(coded, op, sched, QuadraticDenoiser(), ZeroInitializer())
    rough = reconstruct(coded, op, sched, QuadraticDenoiser(), ZeroInitializer(), gdm_iters=3)
    assert np.linalg.norm(rough.cube - exact.cube) > 1e-6


def test_reconstruct_validation():
    _, op, _, coded = _small_setup()
    sched = StageSchedule.geometric(3)
    with pytest.raises(DimensionError):
        reconstruct(coded[:, :, :2], op, sched, IdentityDenoiser(), ZeroInitializer())


class _UnreachedInitializer(Initializer):
    """A start that fails the test if the loop ever asks for it."""

    def initialize(self, coded, op, out):
        raise AssertionError("the initializer ran")


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e307], ids=["nan", "inf", "huge"])
def test_reconstruct_refuses_a_non_finite_coded_image_before_the_start(recwarn, value):
    # a NaN or inf pixel, or a finite image whose transform's sums leave float64
    _, op, _, coded = _small_setup(size=16)
    if np.isfinite(value):
        coded *= value
    else:
        coded[5, 3, 1] = value
    with pytest.raises(ValidationError, match="coded image must be finite"):
        reconstruct(coded, op, StageSchedule.geometric(3), TotalVariationDenoiser(0.01, 5),
                    _UnreachedInitializer())
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class _NewCubeInitializer(Initializer):
    """A start that returns a cube of its own and leaves ``out`` as it was."""

    def initialize(self, coded, op, out):
        return np.zeros_like(out)


def test_reconstruct_refuses_an_initializer_that_does_not_return_out():
    _, op, _, coded = _small_setup()
    with pytest.raises(ValidationError, match="initializer _NewCubeInitializer must write the "
                                              "start into out and return out"):
        reconstruct(coded, op, StageSchedule.geometric(3), IdentityDenoiser(),
                    _NewCubeInitializer())


class _CropDenoiser(Denoiser):
    """A result of another shape."""

    def denoise(self, cube, noise_level, out=None):
        return cube[1:-1, 1:-1]


class _Float32Denoiser(Denoiser):
    """A float32 result, which would turn the loop's iterate into float32."""

    def denoise(self, cube, noise_level, out=None):
        return cube.astype(np.float32)


class _BandMajorDenoiser(Denoiser):
    """The right values in a band-major array, not the loop's layout."""

    def denoise(self, cube, noise_level, out=None):
        return np.ascontiguousarray(cube.transpose(2, 0, 1)).transpose(1, 2, 0)


class _NewCubeDenoiser(Denoiser):
    """A new cube per stage, with ``out`` left as it was."""

    def denoise(self, cube, noise_level, out=None):
        return cube * 0.5


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("denoiser", [_CropDenoiser, _Float32Denoiser, _BandMajorDenoiser,
                                      _NewCubeDenoiser])
def test_reconstruct_refuses_a_denoiser_that_does_not_return_out(denoiser, trace):
    _, op, _, coded = _small_setup(size=16)
    sched = StageSchedule.geometric(4, zeta=0.7)
    with pytest.raises(ValidationError, match="denoiser %s must write its result into out "
                                              "and return out" % denoiser.__name__):
        reconstruct(coded, op, sched, denoiser(), ZeroInitializer(), trace=trace)
