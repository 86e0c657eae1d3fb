"""The benchmark's workloads: set-up, one timed frame, and output checks.

Each workload is a closed loop: one caller processes frames back to back in
this process.  Every input comes from ``snapspec.synth`` and the workload
seed.  Package functions are always called through their module
(``optics.forward_encode``, not a name imported from it), so the traced run
sees every call.

- ``cli-paper`` is what a command-line user runs at the paper's scale; it is
  the only workload that goes through ``tensorio``, manifests and config.
- ``solver-bound`` isolates the exact fidelity solve: the coded frame is made
  in set-up and the quadratic prior costs almost nothing.
- ``design-sweep`` runs many small 31-band frames, each with its own optics,
  so the operator is rebuilt every frame and per-call overheads weigh more.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

import snapspec.cli as cli
import snapspec.fidelity as fidelity
import snapspec.metrics as metrics
import snapspec.optics as optics
import snapspec.synth as synth
import snapspec.tensorio as tensorio
import snapspec.unfolding as unfolding
from snapspec.errors import SnapspecError

# The solver-bound result must lie this close to the Tikhonov minimiser;
# 13 stages reach about 4e-4 on the synthetic instances.
TIKHONOV_GAP_LIMIT = 1e-3
# The timed 3 x 3 solve must agree with the naive N x N solve to roundoff.
SOLVE_REL_LIMIT = 1e-9
# The CLI's default denoiser, applied to a fixed input, must reach a TV-prox
# objective 1/2 ||z - x||^2 + TV_WEIGHT * TV_aniso(z) no worse than that of
# the 30-iteration projected gradient the benchmark was recorded with, to
# TV_OBJECTIVE_TOL relative.  One iteration fewer is 2e-5 worse.
TV_WEIGHT = 0.01
TV_OBJECTIVE_REF = 52.886972295722906
TV_OBJECTIVE_TOL = 1e-6
# A frame's quality may fall this far short of the record for its seed
# (quality.json) before the frame counts as failed.
PSNR_DROP_DB = 0.05
SAM_RISE_DEG = 0.05


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_cube(cube: np.ndarray, shape: tuple, what: str) -> list[str]:
    if cube.shape != shape:
        return ["%s: shape %r, expected %r" % (what, cube.shape, shape)]
    if not np.all(np.isfinite(cube)):
        return ["%s: non-finite values" % what]
    return []


def check_manifest(path: str) -> list[str]:
    """Every file a manifest lists must hash to the SHA-256 recorded for it."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        listed = {**manifest["inputs"], **manifest["outputs"]}
    except (OSError, ValueError, KeyError) as exc:
        return ["manifest %s unreadable: %s" % (path, exc)]
    failures = []
    for listed_path, want in sorted(listed.items()):
        try:
            got = sha256_file(listed_path)
        except OSError as exc:
            failures.append("manifest %s: %s" % (path, exc))
            continue
        if got != want:
            failures.append("manifest %s: sha256 mismatch for %s" % (path, listed_path))
    return failures


def tv_prox_objective(denoiser) -> float:
    """TV-prox objective that ``denoiser`` reaches on a fixed input.

    The input is piecewise constant plus noise, made by numpy alone, so it
    does not depend on the workload seed or on ``snapspec.synth``.
    """
    rng = np.random.default_rng(2024)
    x = np.kron(rng.uniform(0.0, 1.0, (12, 12, 4)), np.ones((8, 8, 1)))
    x += 0.05 * rng.standard_normal(x.shape)
    z = denoiser.denoise(x, 0.0)
    tv = np.abs(np.diff(z, axis=0)).sum() + np.abs(np.diff(z, axis=1)).sum()
    return float(0.5 * np.sum((z - x) ** 2) + TV_WEIGHT * tv)


def tikhonov_errors(cube, op, coded, prior_weight: float) -> tuple[float, float]:
    """Relative distances to the minimiser of 1/2||A x - J||^2 + w/2 ||x||^2.

    The minimiser comes from ``fidelity_solve_naive``, the per-frequency
    N x N solve that shares no algebra with the 3 x 3 path being timed.
    Returns the distance of ``cube`` and that of ``fidelity_solve`` on the
    same subproblem (anchor 0, gamma = w).
    """
    prob = fidelity.FidelityProblem.from_coded_image(op, coded, prior_weight)
    zero = np.zeros_like(cube)
    tik = fidelity.fidelity_solve_naive(prob, zero)
    norm = np.linalg.norm(tik)
    solve = fidelity.fidelity_solve(prob, zero)
    return float(np.linalg.norm(cube - tik) / norm), float(np.linalg.norm(solve - tik) / norm)


class Frame:
    """One frame's wall times (seconds), quality and breached checks."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.psnr_db = float("nan")
        self.sam_deg = float("nan")
        self.failures: list[str] = []

    @contextlib.contextmanager
    def timed(self, key: str):
        start = time.perf_counter()
        yield
        self.times[key] = time.perf_counter() - start


class Workload:
    """Base: ``setup`` builds the inputs, ``frame`` runs and checks one frame,
    ``finish`` runs the checks that need the whole run.  Attributes set in
    ``__init__`` size the workload; tests shrink them."""

    name = "?"
    min_frames = 1

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.first_digest: dict = {}
        # per design, the recorded (psnr_db, sam_deg) for this seed, or None
        self.quality = None

    def same_as_first(self, key, value: str, what: str) -> list[str]:
        """Reruns of identical inputs must give byte-identical outputs."""
        first = self.first_digest.setdefault(key, value)
        return [] if first == value else ["%s differs from its first run" % what]

    def check_quality(self, out: Frame, design: int = 0) -> list[str]:
        """A frame may not lose quality against the record for its seed."""
        if self.quality is None:
            return []
        psnr_db, sam_deg = self.quality[design]
        failures = []
        if not out.psnr_db >= psnr_db - PSNR_DROP_DB:
            failures.append("psnr_db %.4f below the record %.4f" % (out.psnr_db, psnr_db))
        if not out.sam_deg <= sam_deg + SAM_RISE_DEG:
            failures.append("sam_deg %.4f above the record %.4f" % (out.sam_deg, sam_deg))
        return failures

    def finish(self) -> tuple[dict, list[str]]:
        return {}, []


class CliPaper(Workload):
    name = "cli-paper"

    def __init__(self, seed, workdir, tracer, size=512, bands=8, kernel=41, crop=20):
        super().__init__(seed, workdir, tracer)
        self.size, self.bands, self.kernel, self.crop = size, bands, kernel, crop
        self.stages = 7  # the CLI default, asserted through the trace CSV

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        self.truth = synth.smooth_cube(self.size, self.size, self.bands, seed=self.seed)
        self.system = synth.synthetic_system(self.bands, self.kernel)
        tensorio.save_tensor(self.truth, self.path("cube.htns"))
        tensorio.save_tensor(self.system.psfs, self.path("psf.htns"))
        tensorio.save_response_csv(
            self.path("response.csv"), synth.band_wavelengths(self.bands), self.system.response
        )

    def commands(self) -> list[tuple[str, list[str]]]:
        p = self.path
        system = ["--psf", p("psf.htns"), "--response", p("response.csv")]
        return [
            ("simulate", ["simulate", "--cube", p("cube.htns"), *system,
                          "--out", p("coded.htns"), "--noise", "default",
                          "--seed", str(self.seed)]),
            ("reconstruct", ["reconstruct", "--coded", p("coded.htns"), *system,
                             "--out", p("recon.htns"), "--init", "zero", "--trace"]),
            ("evaluate", ["evaluate", "--recon", p("recon.htns"), "--gt", p("cube.htns"),
                          "--crop", str(self.crop), "--out-json", p("report.json")]),
        ]

    def frame(self, index: int) -> Frame:
        out = Frame()
        for step, argv in self.commands():
            sink = io.StringIO()
            with out.timed(step + "_s"), self.tracer.span("cli." + step), \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != 0:
                out.failures.append("%s exited %r: %s" % (step, code, sink.getvalue().strip()))
                return out
        out.times["pipeline_s"] = sum(out.times.values())
        with self.tracer.paused():
            out.failures += self.check(out)
        return out

    def check(self, out: Frame) -> list[str]:
        p = self.path
        failures = []
        for anchor in ("coded.htns", "recon.htns", "report.json"):
            failures += check_manifest(p(anchor) + ".manifest.json")
        try:
            coded = tensorio.load_tensor(p("coded.htns"))
            recon = tensorio.load_tensor(p("recon.htns"))
            truth = tensorio.load_tensor(p("cube.htns"))
        except (OSError, SnapspecError) as exc:
            return failures + ["artifact does not reload: %s" % exc]
        bad = check_cube(coded, (self.size, self.size, 3), "coded image")
        bad += check_cube(recon, truth.shape, "reconstruction")
        if bad:
            return failures + bad

        # the CLI's coded image is the frequency-domain forward model plus
        # the same seeded noise
        op = optics.build_frequency_operator(self.system, self.size, self.size)
        noise = optics.NoiseModel(seed=self.seed)
        want = optics.add_noise(optics.apply_forward_frequency(op, truth), noise)
        rel = np.linalg.norm(coded - want) / np.linalg.norm(want)
        if not rel < 1e-9:
            failures.append("coded image off the forward model by %.3g (rel)" % rel)

        with open(p("recon.htns") + ".trace.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if len(rows) != self.stages:
            failures.append("trace CSV has %d stage rows, expected %d" % (len(rows), self.stages))

        with open(p("report.json"), encoding="utf-8") as fh:
            report = json.loads(fh.read())
        library = json.loads(metrics.evaluate(recon, truth, crop=self.crop).to_json())
        if report != library:
            failures.append("evaluate JSON %r != library evaluate %r" % (report, library))
        else:
            out.psnr_db = report["psnr_db"]
            out.sam_deg = float(np.degrees(report["sam_rad"]))
            failures += self.check_quality(out)
        failures += self.same_as_first("coded", digest(coded), "coded image")
        failures += self.same_as_first("recon", digest(recon), "reconstruction")
        return failures

    def finish(self) -> tuple[dict, list[str]]:
        # the TV prox as the CLI built it, from the spec its manifest records
        with open(self.path("recon.htns") + ".manifest.json", encoding="utf-8") as fh:
            spec = json.load(fh)["config"]["denoiser"]
        with self.tracer.paused():
            objective = tv_prox_objective(cli.parse_denoiser_spec(spec))
        failures = []
        if not objective <= TV_OBJECTIVE_REF * (1 + TV_OBJECTIVE_TOL):
            failures.append("denoiser %r: TV-prox objective %.10g above the 30-iteration %.10g"
                            % (spec, objective, TV_OBJECTIVE_REF))
        return {"tv_prox_objective": (objective, "1")}, failures


class SolverBound(Workload):
    name = "solver-bound"
    min_frames = 2

    def __init__(self, seed, workdir, tracer, size=512, bands=8, kernel=41, crop=20,
                 stages=13):
        super().__init__(seed, workdir, tracer)
        self.size, self.bands, self.kernel, self.crop = size, bands, kernel, crop
        self.stages = stages
        self.gamma = 0.05
        self.prior_weight = 0.01

    def setup(self) -> None:
        self.truth = synth.smooth_cube(self.size, self.size, self.bands, seed=self.seed)
        system = synth.synthetic_system(self.bands, self.kernel)
        self.op = optics.build_frequency_operator(system, self.size, self.size)
        clean = optics.apply_forward_frequency(self.op, self.truth)
        self.coded = optics.add_noise(clean, optics.NoiseModel(seed=self.seed))
        self.schedule = unfolding.StageSchedule.constant(
            self.stages, self.gamma, prior_weight=self.prior_weight
        )

    def frame(self, index: int) -> Frame:
        out = Frame()
        with out.timed("reconstruct_s"):
            cube = unfolding.reconstruct(
                self.coded, self.op, self.schedule,
                unfolding.QuadraticDenoiser(), unfolding.ZeroInitializer(),
            ).cube
        with out.timed("evaluate_s"):
            report = metrics.evaluate(cube, self.truth, crop=self.crop)
        out.times["pipeline_s"] = out.times["reconstruct_s"] + out.times["evaluate_s"]
        out.psnr_db, out.sam_deg = report.psnr_db, report.sam_deg
        out.failures += check_cube(cube, self.truth.shape, "reconstruction")
        out.failures += self.same_as_first("cube", digest(cube), "reconstruction")
        out.failures += self.check_quality(out)
        self.cube = cube
        return out

    def finish(self) -> tuple[dict, list[str]]:
        with self.tracer.paused():
            gap, solve_err = tikhonov_errors(self.cube, self.op, self.coded, self.prior_weight)
        extras = {"tikhonov_rel_gap": (gap, "ratio"), "solve_rel_err": (solve_err, "ratio")}
        failures = []
        if not gap < TIKHONOV_GAP_LIMIT:
            failures.append("tikhonov_rel_gap %.3g not below %g" % (gap, TIKHONOV_GAP_LIMIT))
        if not solve_err < SOLVE_REL_LIMIT:
            failures.append("solve_rel_err %.3g not below %g" % (solve_err, SOLVE_REL_LIMIT))
        return extras, failures


class DesignSweep(Workload):
    name = "design-sweep"

    def __init__(self, seed, workdir, tracer, size=128, bands=31, kernel=15, crop=8,
                 configs=6):
        super().__init__(seed, workdir, tracer)
        self.size, self.bands, self.kernel, self.crop = size, bands, kernel, crop
        self.configs = configs
        self.min_frames = configs  # quality is the median over one full sweep

    def setup(self) -> None:
        # each design is scored on its own scene, so the sweep's median
        # quality does not hang on one random scene
        self.scenes = [
            synth.smooth_cube(self.size, self.size, self.bands, seed=self.seed * 64 + j)
            for j in range(self.configs)
        ]
        self.response = synth.rgb_response(self.bands)
        # alternate designs vary the lobe radius and the spot width
        rng = np.random.default_rng(self.seed)
        half = self.kernel // 2
        self.psfs = []
        for j in range(self.configs):
            if j % 2 == 0:
                radius, spot = rng.uniform(0.3, 0.8) * half, None
            else:
                radius, spot = None, rng.uniform(0.7, 2.5)
            self.psfs.append(synth.rotating_psf_stack(self.bands, self.kernel, radius, spot))
        self.schedule = unfolding.StageSchedule.geometric(5)
        self.denoiser = unfolding.GaussianDenoiser(1.0)

    def frame(self, index: int) -> Frame:
        out = Frame()
        j = index % self.configs
        scene = self.scenes[j]
        with out.timed("pipeline_s"):
            with out.timed("build_s"):
                system = optics.OpticalSystem(psfs=self.psfs[j], response=self.response)
                op = optics.build_frequency_operator(system, self.size, self.size)
            with out.timed("simulate_s"):
                coded = optics.forward_encode(scene, system)
                coded = optics.add_noise(coded, optics.NoiseModel(seed=self.seed * 64 + j))
            with out.timed("reconstruct_s"):
                cube = unfolding.reconstruct(
                    coded, op, self.schedule, self.denoiser, unfolding.ZeroInitializer()
                ).cube
            with out.timed("evaluate_s"):
                report = metrics.evaluate(cube, scene, crop=self.crop)
        out.psnr_db, out.sam_deg = report.psnr_db, report.sam_deg
        out.failures += check_cube(cube, scene.shape, "frame %d cube" % index)
        out.failures += self.same_as_first(j, digest(cube), "frame %d cube" % index)
        out.failures += self.check_quality(out, j)
        return out


WORKLOADS = {cls.name: cls for cls in (CliPaper, SolverBound, DesignSweep)}


def working_set_bytes(workload: Workload) -> dict:
    """Computed (not measured) bytes of one frame's main arrays."""
    voxels = workload.size * workload.size
    return {
        "cube": voxels * workload.bands * 8,
        "coded": voxels * 3 * 8,
        "transfer": 3 * workload.bands * voxels * 16,
    }
