"""Quality-metric tests: PSNR cap, spectral angle edge cases, SSIM symmetry."""

import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from snapspec import MetricReport, evaluate, psnr, sam, ssim
from snapspec.errors import DegenerateMetricError, DimensionError, ParameterError, ValidationError
from snapspec.metrics import PSNR_CAP_DB, _next_fast_len

from reference_impls import psnr_direct, sam_direct, ssim_fftconvolve


def _cube(seed=0, shape=(48, 48, 4)):
    return np.random.default_rng(seed).uniform(size=shape)


# psnr


def test_psnr_identical_hits_cap():
    x = _cube()
    assert psnr(x, x) == 100.0


def test_psnr_near_identical_hits_cap():
    x = _cube()
    assert psnr(x + 1e-9, x) == 100.0


def test_psnr_constant_offset():
    x = _cube()
    # uniform 0.1 error: mse = 0.01, peak 1 -> exactly 20 dB up to log roundoff
    got = psnr(x + 0.1, x)
    assert abs(got - 20.0) < 1e-12


def test_psnr_matches_direct_definition():
    x = _cube(1)
    y = _cube(2)
    assert abs(psnr(x, y) - psnr_direct(x, y)) < 1e-12


def test_psnr_validation():
    x = _cube()
    with pytest.raises(DimensionError):
        psnr(x, x[:-1])
    image = np.zeros((16, 16))
    with pytest.raises(DimensionError, match="cubes"):
        psnr(image, image)


@pytest.mark.parametrize("mse", [0.99e-10, 1.01e-10], ids=["below", "above"])
def test_psnr_cap_threshold_edges(mse):
    # the cap takes over below an MSE of 1e-10, where the formula reads 100 dB;
    # just above it the formula's value stands
    x = _cube()
    got = psnr(x + np.sqrt(mse), x)
    if mse < 1e-10:
        assert got == PSNR_CAP_DB
    else:
        assert 99.9 < got < PSNR_CAP_DB
        assert abs(got - 10.0 * np.log10(1.0 / mse)) < 1e-6


# spectral angle


def test_sam_identical_is_tiny():
    # norm*norm vs dot disagree in the last bits; arccos blows that up to ~1e-8
    x = _cube()
    assert sam(x, x) < 1e-7


def test_sam_orthogonal_spectra():
    a = np.zeros((4, 4, 2))
    b = np.zeros((4, 4, 2))
    a[:, :, 0] = 1.0
    b[:, :, 1] = 1.0
    assert abs(sam(a, b) - np.pi / 2) < 1e-12


def test_sam_scale_invariant():
    x = _cube(5)
    # arccos near cos = 1 amplifies roundoff, so exact zero is not attainable
    assert sam(2.0 * x, x) < 1e-7


def test_sam_positive_field_rescaling_invariant():
    x = _cube(6)
    ref = _cube(7)
    field = 0.5 + np.random.default_rng(8).uniform(size=x.shape[:2])
    assert abs(sam(x * field[:, :, None], ref) - sam(x, ref)) < 1e-12


def test_sam_matches_loop_reference():
    x = _cube(9, (6, 6, 5))
    y = _cube(10, (6, 6, 5))
    assert abs(sam(x, y) - sam_direct(x, y)) < 1e-12


def test_sam_skips_degenerate_pixels():
    x = _cube(11, (4, 4, 3))
    ref = _cube(12, (4, 4, 3))
    base = sam(x, ref)
    x2 = x.copy()
    ref2 = ref.copy()
    x2[0, 0] = 0.0  # zero spectrum carries no direction
    expected = sam_direct(x2, ref2)
    got = sam(x2, ref2)
    assert abs(got - expected) < 1e-12
    assert got != base


@pytest.mark.parametrize("scale, counted", [(1.01, True), (0.99, False)], ids=["above", "below"])
def test_sam_norm_floor_edges(scale, counted):
    # one pixel's spectrum with a norm just above the documented floor of
    # 1e-12 (SAM_NORM_FLOOR) counts in the mean angle, and just below it is skipped
    x = _cube(13, (2, 2, 3))
    ref = _cube(14, (2, 2, 3))
    x[0, 0] *= scale * 1e-12 / np.linalg.norm(x[0, 0])
    cos = np.sum(x * ref, axis=2) / (np.linalg.norm(x, axis=2) * np.linalg.norm(ref, axis=2))
    angles = np.arccos(np.clip(cos, -1.0, 1.0)).ravel()
    assert abs(angles[0] - np.mean(angles[1:])) > 0.01
    assert abs(sam(x, ref) - np.mean(angles if counted else angles[1:])) < 1e-12


def test_sam_all_degenerate_raises():
    zeros = np.zeros((4, 4, 3))
    with pytest.raises(DegenerateMetricError):
        sam(zeros, zeros)


def test_sam_rejects_non_cube():
    with pytest.raises(DimensionError):
        sam(np.zeros((4, 4)), np.zeros((4, 4)))


# ssim


def test_ssim_self_similarity_exactly_one():
    x = _cube(13)
    assert ssim(x, x) == 1.0


def test_ssim_constant_pair():
    a = np.full((16, 16, 2), 0.5)
    b = np.full((16, 16, 2), 0.5)
    assert ssim(a, b) == 1.0


def test_ssim_symmetry():
    x = _cube(14)
    y = _cube(15)
    assert ssim(x, y) == ssim(y, x)


def test_ssim_degrades_with_noise():
    rng = np.random.default_rng(16)
    base = _cube(17, (48, 48, 3))
    scores = []
    for level in (0.01, 0.05, 0.2):
        noisy = base + rng.normal(0.0, level, size=base.shape)
        scores.append(ssim(noisy, base))
    assert scores[0] > scores[1] > scores[2]
    assert scores[0] < 1.0


def test_ssim_bounded():
    x = _cube(18)
    y = _cube(19)
    s = ssim(x, y)
    assert -1.0 <= s <= 1.0


@pytest.mark.parametrize("shape", [(33, 17, 4), (12, 40, 2), (11, 11, 1), (40, 40, 31)],
                         ids=["odd", "even-mixed", "window-minimum", "31-band"])
def test_ssim_equals_fftconvolve_reference(shape):
    # the same local means as scipy.signal's valid-mode convolution, to the bit
    rng = np.random.default_rng(sum(shape))
    x = rng.uniform(size=shape)
    y = np.clip(x + rng.normal(0.0, 0.1, size=shape), 0.0, 1.0)
    assert ssim(x, y) == ssim_fftconvolve(x, y)


def _scipy_modules_after(code):
    """The scipy modules loaded in a fresh interpreter after running ``code``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    code += ("; print(' '.join(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def test_import_leaves_out_scipy_signal_and_linalg():
    # the import loads no scipy module at all.  scipy.fft costs 250-350 ms
    # and 27 MB per process, and numpy.fft runs the same transforms;
    # scipy.signal pulls in scipy.stats, sparse, optimize, ...: about 40 MB
    # and most of a second per process, for nothing the package needs
    assert _scipy_modules_after("import sys, snapspec, snapspec.cli") == ""


def test_gaussian_prior_and_dense_oracle_load_no_scipy():
    # the Gaussian prior sums its taps in numpy, where scipy.ndimage with
    # scipy's base cost about 0.3 s and 21 MB on its first call, and the
    # dense oracle factors with numpy.linalg, where scipy.linalg cost 6 MB
    code = ("import sys, numpy as np; from snapspec import *; "
            "from snapspec.synth import smooth_cube, synthetic_system; "
            "system = synthetic_system(3, 5); "
            "op = build_frequency_operator(system, 16, 16); "
            "coded = forward_encode(smooth_cube(16, 16, 3), system); "
            "reconstruct(coded, op, StageSchedule.geometric(3, prior_weight=1e-3), "
            "GaussianDenoiser(1.0), MeanInitializer()); "
            "dense = DenseSystem.from_system(system, 4, 4); "
            "dense.ridge_solve(np.ones((4, 4, 3)), np.zeros((4, 4, 3)), 0.5)")
    assert _scipy_modules_after(code) == ""


def test_fast_length_equals_scipy_next_fast_len():
    # the padded extents of SSIM's convolutions, so its bits are fftconvolve's
    for n in range(1, 5001):
        assert _next_fast_len(n) == scipy.fft.next_fast_len(n, True), n


def test_ssim_window_size_guard():
    small = np.zeros((10, 16, 2))
    with pytest.raises(DimensionError, match="window"):
        ssim(small, small)


def test_ssim_rejects_non_cube():
    image = np.zeros((24, 24))
    with pytest.raises(DimensionError, match="cubes"):
        ssim(image, image)


# evaluate protocol


def test_evaluate_crops_before_measuring():
    x = _cube(21, (64, 64, 4))
    y = x.copy()
    y[:10, :, :] += 5.0  # corrupt a border strip inside the default crop
    y[0, 0, 0] = np.nan  # not measured, so not refused either
    report = evaluate(y, x, crop=20)
    assert report.psnr_db == 100.0
    assert report.sam_rad < 1e-7
    assert report.ssim == 1.0
    assert report.crop == 20


def test_evaluate_zero_crop_sees_everything():
    x = _cube(22, (64, 64, 4))
    y = x.copy()
    y[:5, :, :] += 1.0
    report = evaluate(y, x, crop=0)
    assert report.psnr_db < 100.0


def test_evaluate_overcrop_rejected():
    x = _cube(23, (40, 40, 3))
    with pytest.raises(ParameterError, match="crop"):
        evaluate(x, x, crop=20)
    with pytest.raises(ParameterError):
        evaluate(x, x, crop=-1)


@pytest.mark.parametrize("crop", [True, 2.5, np.float64(2.0)], ids=repr)
def test_evaluate_crop_is_an_integer(crop):
    x = _cube(24, (40, 40, 3))
    with pytest.raises(ParameterError, match="crop: must be an integer, got "):
        evaluate(x, x, crop=crop)


@pytest.mark.parametrize("shape", [(5,), (16, 16), (16, 16, 2, 2)], ids=["1d", "2d", "4d"])
def test_evaluate_rejects_non_cube_pairs(shape):
    x = np.zeros(shape)
    with pytest.raises(DimensionError, match="cubes"):
        evaluate(x, x, crop=0)


# one NaN or inf voxel in either cube is refused, naming the argument: a NaN
# read as a NaN metric, or dropped out of SAM's mean unseen.  evaluate checks
# what its crop leaves, so the voxel sits inside that

_NON_FINITE = [(metric, position, name) for metric in (psnr, sam, ssim, evaluate)
               for position, name in enumerate(list(inspect.signature(metric).parameters)[:2])]


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("metric, position, name", _NON_FINITE,
                         ids=["%s-%s" % (fn.__name__, name) for fn, _, name in _NON_FINITE])
def test_non_finite_voxel_refused_naming_its_argument(metric, position, name, value):
    cubes = [_cube(31, (32, 32, 4)), _cube(32, (32, 32, 4))]
    cubes[position][16, 16, 1] = value
    with pytest.raises(ValidationError, match="^%s must be finite$" % name):
        metric(*cubes, **({"crop": 2} if metric is evaluate else {}))


def test_evaluate_working_memory():
    # evaluate's temporaries peak at about one cube (0.99), in SAM's
    # products; SSIM's buffers and per-band local statistics read 0.98.  A
    # cube-sized buffer held beside SAM's products takes it to 1.26, and
    # one band's statistics kept through the next band's to 1.18
    rng = np.random.default_rng(30)
    gt = rng.uniform(size=(256, 256, 8))
    rec = np.clip(gt + rng.normal(0.0, 0.05, size=gt.shape), 0.0, 1.0)
    evaluate(rec, gt, crop=20)  # the FFT's plans and caches, outside the peak
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate(rec, gt, crop=20)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / gt.nbytes <= 1.15


def test_report_json_keys_and_degrees():
    report = MetricReport(psnr_db=30.0, sam_rad=np.pi / 6, ssim=0.9, crop=20)
    payload = json.loads(report.to_json())
    assert list(payload) == ["psnr_db", "sam_rad", "ssim", "crop"]
    assert payload["crop"] == 20
    assert abs(report.sam_deg - 30.0) < 1e-12
