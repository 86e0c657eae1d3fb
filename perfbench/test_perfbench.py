"""Tests of the benchmark itself: its checks trip on bad outputs, tracing is loud.

    python -m pytest -q perfbench

Workloads run here at toy sizes; the timed sizes live in the workload defaults.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import snapspec.fidelity as fidelity  # noqa: E402
import snapspec.optics as optics  # noqa: E402
import snapspec.unfolding as unfolding  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def untraced() -> spans.Tracer:
    tracer = spans.Tracer()
    tracer.enabled = False
    return tracer


def asymmetric_instance(seed: int, size: int, bands: int, kernel: int):
    """Random PSFs, so the transfer is complex and conjugating it matters."""
    rng = np.random.default_rng(seed)
    psfs = rng.uniform(0.05, 1.0, size=(bands, kernel, kernel))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    system = optics.OpticalSystem(psfs=psfs, response=rng.uniform(0.05, 1.0, (3, bands)))
    return optics.build_frequency_operator(system, size, size)


def conjugated(op):
    return optics.FrequencyOperator(
        transfer=np.conj(op.transfer), height=op.height, width=op.width
    )


# ---------------------------------------------------------------------------
# tracing


def test_wrap_fails_loudly_on_missing_name():
    class Owner:
        pass

    with pytest.raises(spans.TraceTargetMissing):
        spans.Tracer().wrap(Owner, "gone", "x.gone")


def test_install_restores_everything_when_a_target_is_missing(monkeypatch):
    original = optics.forward_encode
    monkeypatch.delattr(unfolding, "tv_denoise")
    with pytest.raises(spans.TraceTargetMissing, match="tv_denoise"):
        spans.install(spans.Tracer())
    assert optics.forward_encode is original


def test_install_and_restore_round_trip():
    original = unfolding.TotalVariationDenoiser.denoise
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert unfolding.TotalVariationDenoiser.denoise is not original
        cube = np.zeros((8, 8, 2))
        unfolding.TotalVariationDenoiser(0.01, 2).denoise(cube, 0.0)
    finally:
        tracer.restore()
    assert unfolding.TotalVariationDenoiser.denoise is original
    names = [span[0] for span in tracer.spans]
    assert names == ["unfolding.TotalVariationDenoiser.denoise", "unfolding.tv_denoise"]
    assert tracer.spans[1][3] == 0  # parent is the denoise span


def test_layer_table_self_time_and_per_unit_normalisation():
    tracer = spans.Tracer()
    tracer.spans = [
        ["synth.smooth_cube", 0.0, 2.0, None, spans.SETUP],
        ["fidelity.fidelity_solve", 10.0, 20.0, None, 0],
        ["fidelity.block_inverse_3x3", 12.0, 15.0, 1, 0],
        ["fidelity.fidelity_solve", 30.0, 34.0, None, 1],
    ]
    table = spans.layer_table(tracer, n_setups=2, n_frames=2, per_span_cost=0.5)
    assert table["synth.smooth_cube_s"] == (1.0, "s")
    assert table["fidelity.fidelity_solve_s"] == (7.0, "s")
    assert table["fidelity.fidelity_solve.self_s"] == (5.5, "s")
    assert table["fidelity.fidelity_solve.calls"] == (1.0, "count")
    assert table["fidelity.block_inverse_3x3_s"] == (1.5, "s")
    assert table["trace.overhead_s"] == ((0.5 + 1.5) * 0.5, "s")


# ---------------------------------------------------------------------------
# output checks


def small_cli(tmp_path) -> workloads.CliPaper:
    wl = workloads.CliPaper(3, str(tmp_path), untraced(), size=48, bands=4, kernel=7, crop=4)
    wl.setup()
    return wl


def test_cli_paper_checks_pass_then_trip_on_corrupted_output(tmp_path):
    wl = small_cli(tmp_path)
    first = wl.frame(0)
    assert first.failures == []
    assert np.isfinite(first.psnr_db) and np.isfinite(first.sam_deg)
    assert set(first.times) == {"simulate_s", "reconstruct_s", "evaluate_s", "pipeline_s"}
    assert wl.check(workloads.Frame()) == []

    recon = tmp_path / "recon.htns"
    blob = bytearray(recon.read_bytes())
    blob[-1] ^= 0x01
    recon.write_bytes(bytes(blob))
    failures = wl.check(workloads.Frame())
    assert any("sha256 mismatch" in f and "recon.htns" in f for f in failures)
    assert any("differs from its first run" in f for f in failures)


def test_cli_paper_evaluate_report_must_match_library(tmp_path):
    wl = small_cli(tmp_path)
    assert wl.frame(0).failures == []
    report_path = tmp_path / "report.json"
    report = json.loads(report_path.read_text())
    report["psnr_db"] += 1.0
    report_path.write_text(json.dumps(report) + "\n")
    # re-sign the manifest so only the evaluate comparison can notice
    manifest_path = tmp_path / "report.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][str(report_path)] = workloads.sha256_file(str(report_path))
    manifest_path.write_text(json.dumps(manifest))
    failures = wl.check(workloads.Frame())
    assert len(failures) == 1 and "library evaluate" in failures[0]


def test_cli_paper_nonzero_exit_is_a_failure(tmp_path):
    wl = small_cli(tmp_path)
    (tmp_path / "psf.htns").write_bytes(b"not a tensor")
    failures = wl.frame(0).failures
    assert len(failures) == 1 and failures[0].startswith("simulate exited 2")


def test_cli_paper_tv_prox_check_trips_on_fewer_iterations(tmp_path, monkeypatch):
    wl = small_cli(tmp_path)
    assert wl.frame(0).failures == []
    extras, failures = wl.finish()
    assert failures == []
    assert extras["tv_prox_objective"][0] == pytest.approx(workloads.TV_OBJECTIVE_REF,
                                                           rel=1e-12)

    real = unfolding.tv_denoise
    monkeypatch.setattr(unfolding, "tv_denoise",
                        lambda cube, weight, iters: real(cube, weight, iters - 1))
    extras, failures = wl.finish()
    assert len(failures) == 1 and "TV-prox objective" in failures[0]


def test_quality_check_trips_below_the_record(tmp_path):
    wl = small_cli(tmp_path)
    first = wl.frame(0)
    assert first.failures == []
    wl.quality = [(first.psnr_db + 0.04, first.sam_deg - 0.04)]
    assert wl.check(workloads.Frame()) == []
    wl.quality = [(first.psnr_db + 0.06, first.sam_deg)]
    failures = wl.check(workloads.Frame())
    assert len(failures) == 1 and "psnr_db" in failures[0]
    wl.quality = [(first.psnr_db, first.sam_deg - 0.06)]
    failures = wl.check(workloads.Frame())
    assert len(failures) == 1 and "sam_deg" in failures[0]


def test_quality_record_covers_every_workload_and_design():
    for name, cls in workloads.WORKLOADS.items():
        record = run.quality_record(name, 1)
        designs = getattr(cls(1, "", untraced()), "configs", 1)
        assert len(record) == designs
        assert run.quality_record(name, 10_000) is None


def small_solver(tmp_path) -> workloads.SolverBound:
    wl = workloads.SolverBound(5, str(tmp_path), untraced(), size=32, bands=4, kernel=5,
                               crop=4)
    wl.setup()
    wl.op = asymmetric_instance(5, 32, 4, 5)
    wl.coded = optics.apply_forward_frequency(wl.op, wl.truth)
    assert wl.frame(0).failures == []
    return wl


def test_solver_bound_check_trips_on_conjugated_transfer(tmp_path):
    wl = small_solver(tmp_path)
    op = wl.op
    extras, failures = wl.finish()
    assert failures == []
    assert 0 < extras["tikhonov_rel_gap"][0] < workloads.TIKHONOV_GAP_LIMIT
    assert extras["solve_rel_err"][0] < workloads.SOLVE_REL_LIMIT

    wl.op = conjugated(op)
    wl.first_digest.clear()
    assert wl.frame(0).failures == []
    wl.op = op  # the reference keeps the true operator
    extras, failures = wl.finish()
    assert len(failures) == 1 and "tikhonov_rel_gap" in failures[0]


def test_solver_bound_check_trips_on_inexact_solve(tmp_path, monkeypatch):
    wl = small_solver(tmp_path)
    real = fidelity.fidelity_solve
    monkeypatch.setattr(fidelity, "fidelity_solve",
                        lambda prob, anchor: real(prob, anchor) * (1 + 1e-6))
    extras, failures = wl.finish()
    assert failures == ["solve_rel_err %.3g not below %g"
                        % (extras["solve_rel_err"][0], workloads.SOLVE_REL_LIMIT)]


def test_design_sweep_checks_trip_on_nonfinite_and_nondeterministic_cubes(tmp_path,
                                                                          monkeypatch):
    wl = workloads.DesignSweep(7, str(tmp_path), untraced(), size=32, bands=6, kernel=5,
                               crop=4, configs=2)
    wl.setup()
    assert [wl.frame(i).failures for i in range(3)] == [[], [], []]

    real = unfolding.reconstruct

    def shifted(*args, **kwargs):
        result = real(*args, **kwargs)
        return unfolding.ReconstructionResult(cube=result.cube + 1e-3)

    monkeypatch.setattr(unfolding, "reconstruct", shifted)
    assert wl.frame(3).failures == ["frame 3 cube differs from its first run"]

    def poisoned(*args, **kwargs):
        cube = real(*args, **kwargs).cube.copy()
        cube[0, 0, 0] = np.nan
        return unfolding.ReconstructionResult(cube=cube)

    monkeypatch.setattr(unfolding, "reconstruct", poisoned)
    assert "non-finite" in wl.frame(4).failures[0]


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not found" in proc.stderr


def test_run_all_fails_when_a_child_is_killed(monkeypatch):
    monkeypatch.setattr(run.subprocess, "run",
                        lambda cmd, check: subprocess.CompletedProcess(cmd, -9))
    assert run.main(["--workload", "all"]) == 1
