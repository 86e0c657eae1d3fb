"""Acceptance suite: eleven numbered criteria, one PASS/FAIL line each.

Each test prints its verdict to the live terminal (outside pytest capture)
so a full run reads as a checklist.  Tolerances are frozen; the suite never
adapts them to observed behavior.  Criteria 06 and 09 run the CLI's own
checks, ``oracle-check`` and ``bench``, and quote their rows.
"""

import time

import numpy as np
import pytest

from snapspec import (
    FidelityProblem,
    MeanInitializer,
    NoiseModel,
    OpticalSystem,
    QuadraticDenoiser,
    StageSchedule,
    TotalVariationDenoiser,
    ZeroInitializer,
    add_noise,
    apply_adjoint,
    apply_forward_frequency,
    build_frequency_operator,
    fidelity_solve,
    fidelity_solve_naive,
    forward_encode,
    gdm_fidelity_step,
    psnr,
    reconstruct,
    sam,
    ssim,
    subproblem_gradient,
    subproblem_objective,
)
from snapspec.oracle import DenseSystem
from snapspec.synth import smooth_cube, synthetic_system
from snapspec.tensorio import load_tensor, save_response_csv, save_tensor
from snapspec.cli import main as cli_main

from reference_impls import hqs_reference


def _report(capsys, num: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print("[criterion %02d] %s: %s" % (num, "PASS" if passed else "FAIL", detail))
    assert passed, detail


def _random_system(rng, n_bands, kernel_size=3):
    psfs = rng.uniform(0.05, 1.0, size=(n_bands, kernel_size, kernel_size))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(0.05, 1.0, size=(3, n_bands))
    return OpticalSystem(psfs=psfs, response=response)


@pytest.fixture(scope="module")
def instance_suite():
    """54 random subproblem instances shared by criteria 1-3.

    Sizes up to 8x8, band counts up to 6, gamma swept over three decades.
    Records the worst relative errors of each comparison plus the wall time
    spent on the dense-oracle comparison alone.
    """
    rng = np.random.default_rng(2024)
    gammas = [1e-3, 1.0, 1e3]
    worst_oracle = 0.0
    worst_naive = 0.0
    worst_grad = 0.0
    oracle_elapsed = 0.0
    count = 0
    for trial in range(54):
        size = int(rng.integers(4, 9))
        bands = int(rng.integers(3, 7))
        gamma = gammas[trial % 3]
        system = _random_system(rng, bands)
        op = build_frequency_operator(system, size, size)
        cube = rng.uniform(size=(size, size, bands))
        coded = forward_encode(cube, system)
        anchor = rng.standard_normal(cube.shape)
        prob = FidelityProblem.from_coded_image(op, coded, gamma)

        start = time.perf_counter()
        fast = fidelity_solve(prob, anchor)
        dense = DenseSystem.from_system(system, size, size)
        ref = dense.ridge_solve(coded, anchor, gamma)
        oracle_elapsed += time.perf_counter() - start
        worst_oracle = max(
            worst_oracle, float(np.linalg.norm(fast - ref) / np.linalg.norm(ref))
        )

        naive = fidelity_solve_naive(prob, anchor)
        worst_naive = max(
            worst_naive, float(np.linalg.norm(fast - naive) / np.linalg.norm(naive))
        )

        grad = subproblem_gradient(prob, fast, anchor)
        worst_grad = max(
            worst_grad,
            float(np.linalg.norm(grad) / max(1.0, np.linalg.norm(fast))),
        )
        count += 1
    return {
        "count": count,
        "worst_oracle": worst_oracle,
        "worst_naive": worst_naive,
        "worst_grad": worst_grad,
        "oracle_elapsed": oracle_elapsed,
    }


def test_criterion_01_closed_form_matches_dense_oracle(instance_suite, capsys):
    s = instance_suite
    passed = s["count"] >= 50 and s["worst_oracle"] < 1e-8 and s["oracle_elapsed"] < 10.0
    _report(
        capsys, 1, passed,
        "%d instances, worst rel err %.2e (tol 1e-8), %.1fs (budget 10s)"
        % (s["count"], s["worst_oracle"], s["oracle_elapsed"]),
    )


def test_criterion_02_two_solver_forms_agree(instance_suite, capsys):
    s = instance_suite
    passed = s["worst_naive"] < 1e-10
    _report(
        capsys, 2, passed,
        "block-inversion vs direct NxN solve, worst rel err %.2e (tol 1e-10)"
        % s["worst_naive"],
    )


def test_criterion_03_gradient_vanishes_at_solution(instance_suite, capsys):
    s = instance_suite
    passed = s["worst_grad"] < 1e-8
    _report(
        capsys, 3, passed,
        "worst relative gradient residual %.2e (tol 1e-8)" % s["worst_grad"],
    )


def test_criterion_04_adjoint_and_forward_equivalence(capsys):
    rng = np.random.default_rng(4)
    worst_adj = 0.0
    worst_fwd = 0.0
    for size in (4, 8, 16):
        for bands in (3, 5, 8):
            system = _random_system(rng, bands)
            op = build_frequency_operator(system, size, size)
            cube = rng.standard_normal((size, size, bands))
            image = rng.standard_normal((size, size, 3))
            lhs = np.sum(apply_forward_frequency(op, cube) * image)
            rhs = np.sum(cube * apply_adjoint(op, image))
            worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        system = _random_system(rng, 5)
        op = build_frequency_operator(system, size, size)
        cube = rng.standard_normal((size, size, 5))
        dense = DenseSystem.from_system(system, size, size)
        gap = np.max(np.abs(apply_forward_frequency(op, cube) - dense.forward(cube)))
        worst_fwd = max(worst_fwd, float(gap))
    passed = worst_adj < 1e-12 and worst_fwd < 1e-10
    _report(
        capsys, 4, passed,
        "adjoint rel %.2e (tol 1e-12), frequency vs dense %.2e (tol 1e-10)"
        % (worst_adj, worst_fwd),
    )


def test_criterion_05_gradient_descent_baseline_inferior(capsys):
    rng = np.random.default_rng(5)
    gamma = 1.0
    strictly_better = True
    worst_converged = 0.0
    for trial in range(5):
        system = _random_system(rng, 5)
        op = build_frequency_operator(system, 8, 8)
        cube = rng.uniform(size=(8, 8, 5))
        coded = forward_encode(cube, system)
        anchor = rng.standard_normal(cube.shape)
        prob = FidelityProblem.from_coded_image(op, coded, gamma)
        exact = fidelity_solve(prob, anchor)
        rough = gdm_fidelity_step(prob, anchor, anchor, 10)
        if not subproblem_objective(prob, exact, anchor) < subproblem_objective(
            prob, rough, anchor
        ):
            strictly_better = False
        deep = gdm_fidelity_step(prob, anchor, anchor, 10000)
        rel = float(np.linalg.norm(deep - exact) / np.linalg.norm(exact))
        worst_converged = max(worst_converged, rel)
    passed = strictly_better and worst_converged < 1e-6
    _report(
        capsys, 5, passed,
        "closed form beats 10 GDM steps on 5/5 instances; 1e4-step GDM gap %.2e (tol 1e-6)"
        % worst_converged,
    )


def test_criterion_06_unfolded_quadratic_reaches_dense_solution(capsys):
    start = time.perf_counter()
    code = cli_main(["oracle-check", "--trials", "3", "--seed", "6"])
    elapsed = time.perf_counter() - start
    rows = [" ".join(line.split()[1:]) for line in capsys.readouterr().out.splitlines()
            if line.startswith("check ")]
    passed = code == 0 and elapsed < 30.0
    _report(
        capsys, 6, passed,
        "oracle-check --trials 3 (K=200 quadratic-prior runs among them) exit %d: %s; "
        "%.1fs (budget 30s)" % (code, "; ".join(rows), elapsed),
    )


def test_criterion_07_multiplier_free_mode_degenerates_exactly(capsys, tmp_path):
    rng = np.random.default_rng(7)
    system = _random_system(rng, 5)
    cube = rng.uniform(size=(8, 8, 5))
    coded = forward_encode(cube, system)
    paths = {name: str(tmp_path / name)
             for name in ("psf.htns", "resp.csv", "coded.htns", "hqs.htns")}
    save_tensor(system.psfs, paths["psf.htns"])
    save_response_csv(paths["resp.csv"], np.arange(5) * 10.0 + 450.0, system.response)
    save_tensor(coded, paths["coded.htns"])
    ran = cli_main([
        "reconstruct", "--coded", paths["coded.htns"], "--psf", paths["psf.htns"],
        "--response", paths["resp.csv"], "--out", paths["hqs.htns"], "--stages", "7",
        "--gamma-schedule", "geometric:0.01,4", "--prior-weight", "0.02",
        "--denoiser", "quadratic", "--init", "mean", "--zeta", "0", "--trace",
    ]) == 0
    # the same schedule through a loop that has no multipliers at all
    want = hqs_reference(coded, build_frequency_operator(system, 8, 8),
                         StageSchedule.geometric(7, 0.01, 4.0, prior_weight=0.02),
                         QuadraticDenoiser(), MeanInitializer())
    passed = ran and np.array_equal(load_tensor(paths["hqs.htns"]), want)
    _report(
        capsys, 7, passed,
        "reconstruct --zeta 0 --trace vs a multiplier-free reference loop: cubes %s"
        % ("identical" if passed else "DIFFER"),
    )


def test_criterion_08_end_to_end_beats_naive_baseline(capsys):
    cube = smooth_cube(64, 64, 8, seed=0)
    system = synthetic_system(n_bands=8, kernel_size=9)
    op = build_frequency_operator(system, 64, 64)
    coded = add_noise(forward_encode(cube, system), NoiseModel(seed=0))
    schedule = StageSchedule.geometric(7, 0.01, 4.0)
    den = TotalVariationDenoiser(0.01, 60)
    recon = reconstruct(coded, op, schedule, den, ZeroInitializer())
    recon_psnr = psnr(recon.cube, cube)
    # the naive baseline: per-pixel channel mean broadcast across bands, and,
    # stricter, the same unfolding started from it (its scale bias survives
    # band-wise spatial smoothing, so it plateaus well below the zero start)
    mean_cube = MeanInitializer().initialize(coded, op, np.empty(cube.shape))
    baseline_naive = psnr(mean_cube, cube)
    baseline_recon = psnr(
        reconstruct(coded, op, schedule, den, MeanInitializer()).cube, cube
    )
    baseline = max(baseline_naive, baseline_recon)
    margin = recon_psnr - baseline
    passed = margin >= 3.0
    _report(
        capsys, 8, passed,
        "7-stage TV recon %.2f dB vs mean-init baseline %.2f dB (init %.2f, refined %.2f); "
        "margin %.2f dB (need >= 3)"
        % (recon_psnr, baseline, baseline_naive, baseline_recon, margin),
    )


def test_criterion_09_analytical_solver_faster_than_matched_gdm(capsys, tmp_path):
    # bench exits 4 unless, at extent 512, the analytical solve beats both
    # 10-step GDM and GDM run to the closed form's objective; bench passes an
    # unmatched GDM row on its lower bound, so the row must also have matched
    csv = tmp_path / "bench.csv"
    start = time.perf_counter()
    code = cli_main(["bench", "--sizes", "512", "--bands", "8", "--repeats", "1",
                     "--gamma", "0.5", "--out", str(csv)])
    total = time.perf_counter() - start
    rows = csv.read_text().splitlines()[1:] if csv.exists() else []
    matched = [row for row in rows if row.startswith("512,8,gdm_matched,")
               and "unmatched" not in row]
    passed = code == 0 and total < 300.0 and len(matched) == 1
    _report(
        capsys, 9, passed,
        "bench exit %d, 512x512x8 per-stage solve: %s; table in %.0fs (budget 300s)"
        % (code, "; ".join(rows), total),
    )


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    rng = np.random.default_rng(10)
    psfs = rng.uniform(size=(4, 3, 3))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    save_tensor(psfs, tmp_path / "psf.htns")
    save_response_csv(
        tmp_path / "resp.csv", np.linspace(450, 650, 4), rng.uniform(size=(3, 4))
    )
    save_tensor(rng.uniform(size=(24, 24, 4)), tmp_path / "cube.htns")

    def run(tag):
        coded = str(tmp_path / ("coded_%s.htns" % tag))
        recon = str(tmp_path / ("recon_%s.htns" % tag))
        assert cli_main([
            "simulate", "--cube", str(tmp_path / "cube.htns"),
            "--psf", str(tmp_path / "psf.htns"),
            "--response", str(tmp_path / "resp.csv"),
            "--out", coded, "--seed", "7",
        ]) == 0
        assert cli_main([
            "reconstruct", "--coded", coded,
            "--psf", str(tmp_path / "psf.htns"),
            "--response", str(tmp_path / "resp.csv"),
            "--out", recon, "--stages", "5", "--trace",
        ]) == 0
        return (
            (tmp_path / ("coded_%s.htns" % tag)).read_bytes(),
            (tmp_path / ("recon_%s.htns" % tag)).read_bytes(),
            (tmp_path / ("recon_%s.htns.trace.csv" % tag)).read_bytes(),
        )

    first = run("a")
    second = run("b")
    passed = first == second
    _report(
        capsys, 10, passed,
        "simulate+reconstruct rerun: coded, cube, and trace bytes %s"
        % ("identical" if passed else "DIFFER"),
    )


def test_criterion_11_metric_sanity(capsys):
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(32, 32, 5)) + 0.1
    ref = rng.uniform(size=(32, 32, 5)) + 0.1
    field = 0.5 + rng.uniform(size=(32, 32))
    sam_gap = abs(sam(x * field[:, :, None], ref) - sam(x, ref))
    psnr_gap = abs(psnr(x + 0.1, x) - 20.0)
    ssim_self = ssim(x, x)
    passed = sam_gap < 1e-12 and psnr_gap < 1e-12 and ssim_self == 1.0
    _report(
        capsys, 11, passed,
        "SAM scale gap %.1e (tol 1e-12), PSNR offset gap %.1e (tol 1e-12), SSIM self %r"
        % (sam_gap, psnr_gap, ssim_self),
    )
