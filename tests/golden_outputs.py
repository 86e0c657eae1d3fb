"""Golden outputs: the bytes that a fixed matrix of small runs gives, so that
a change meant to keep every output can show that it did.

The matrix covers three grids: 16 x 16 x 4 with 5 x 5 kernels, 15 x 17 x 5
with 7 x 7 kernels (an odd width) and 33 x 9 x 3 with 3 x 3 kernels.  Each
grid gives the outputs of ``forward_encode``, the noisy coded image,
``apply_adjoint``, ``fidelity_solve`` and ``fidelity_solve_naive``.  It also
gives 128 ``reconstruct`` runs with their trace records: four priors x four
initializers x zeta 0 and 0.7 x trace off and on x 0 or 2 GDM steps, each
over four stages of ``StageSchedule.geometric(4, prior_weight=1e-4,
zeta=zeta)``.

``golden/table.json`` holds the SHA-256 of each output's float64 bytes and a
fingerprint of the numerical stack: the numpy and scipy versions and the
digests of three fixed probes.  The probes are a ``_mix`` matmul, the Gram
``tensordot`` and the ``np.exp`` that ``synth`` uses.  Some outputs also have
float64 references: the transform and solve outputs, and one run per prior
and grid.  Their cubes are stored through ``tensorio`` in
``golden/<grid>.htns``, concatenated in table order.  Their trace records
are stored in the table.  On a stack with the recorded fingerprint every
output must keep its bytes.  On any other stack the references must hold
to 1e-12 relative.

The table also pins one command-line chain on the first grid: ``simulate``,
``reconstruct --trace``, then ``evaluate`` twice, with a plain and a
``.gz`` RMSE map, all under relative names in one directory.  It records
the SHA-256 of every file of the chain, inputs and manifests included, and
the zlib version, which decides the ``.gz`` bytes.  Under the recorded
fingerprint and zlib every file must keep its bytes.  On any stack, each
manifest's hashes must be those of the files beside it, and the chain's
coded image, cube and trace must match the library's in-process outputs to
1e-12 relative.

A change that means to move outputs regenerates the table and says what
moved and by how much:

    PYTHONPATH=src python tests/golden_outputs.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import os
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import scipy

from snapspec import (FidelityProblem, NoiseModel, OpticalSystem, StageSchedule, add_noise,
                      apply_adjoint, build_frequency_operator, fidelity_solve,
                      fidelity_solve_naive, forward_encode, load_tensor, reconstruct,
                      save_response_csv, save_tensor)
from snapspec import cli
from snapspec.optics import _mix
from snapspec.synth import rgb_response, rotating_psf_stack, smooth_cube
from snapspec.unfolding import DENOISERS, INITIALIZERS

DATA = Path(__file__).with_name("golden")
TABLE = DATA / "table.json"

# name: (height, width, bands, kernel size)
GRIDS = {"16x16x4k5": (16, 16, 4, 5), "15x17x5k7": (15, 17, 5, 7), "33x9x3k3": (33, 9, 3, 3)}

STAGES = 4
PRIOR_WEIGHT = 1e-4
GAMMA = 0.05  # the transform-and-solve problem's anchor weight
REFERENCE_RUN = "adjoint/zeta0.7/trace/gdm0"  # the run per prior with stored references
REFERENCES = ("encoded", "coded", "adjoint", "solve", "naive") + tuple(
    "%s/%s/cube" % (prior, REFERENCE_RUN) for prior in DENOISERS)
TRACE_REFERENCES = tuple("%s/%s/trace" % (prior, REFERENCE_RUN) for prior in DENOISERS)

# the command-line chain's grid and its reconstruct flags, each spelled out
CHAIN_GRID = "16x16x4k5"
CHAIN_FLAGS = {"--stages": "4", "--gamma-schedule": "geometric:0.01,4",
               "--denoiser": "tv:lambda=0.01,iters=30", "--init": "mean"}


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def fingerprint() -> dict[str, str]:
    """The numpy and scipy versions and the digests of three probes whose
    bits the BLAS kernel or the SIMD paths of this machine decide."""
    rng = np.random.default_rng(0)
    spectra = rng.standard_normal((5, 16, 9)) + 1j * rng.standard_normal((5, 16, 9))
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "mix": digest(_mix(rng.uniform(size=(3, 5)), spectra).view(np.float64)),
            "gram": digest(np.tensordot(rng.uniform(size=(6, 5)),
                                        rng.uniform(size=(5, 16, 9)), axes=1)),
            "exp": digest(np.exp(-np.linspace(0.0, 40.0, 4001)))}


def grid_outputs(grid: str) -> dict[str, np.ndarray]:
    """Every output of the matrix on ``grid``, by name: the transforms and
    solves, then ``<prior>/<init>/zeta<z>/<plain|trace>/gdm<n>/cube`` per
    run and ``.../trace`` (one row of StageTrace fields per stage) per
    traced run."""
    height, width, bands, _ = GRIDS[grid]
    cube, system = _grid_system(grid)
    op = build_frequency_operator(system, height, width)
    encoded = forward_encode(cube, system)
    coded = add_noise(encoded, NoiseModel(seed=1))
    anchor = smooth_cube(height, width, bands, seed=bands + 1)
    prob = FidelityProblem.from_coded_image(op, coded, GAMMA)
    outputs = {"encoded": encoded, "coded": coded, "adjoint": apply_adjoint(op, coded),
               "solve": fidelity_solve(prob, anchor), "naive": fidelity_solve_naive(prob, anchor)}
    for prior, init, zeta, trace, gdm in itertools.product(
            DENOISERS, ("zero", "mean", "adjoint", "rand"), (0.0, 0.7), (False, True), (0, 2)):
        schedule = StageSchedule.geometric(STAGES, prior_weight=PRIOR_WEIGHT, zeta=zeta)
        result = reconstruct(coded, op, schedule, DENOISERS[prior](), INITIALIZERS[init](),
                             trace=trace, gdm_iters=gdm)
        run = "%s/%s/zeta%g/%s/gdm%d" % (prior, init, zeta, "trace" if trace else "plain", gdm)
        outputs[run + "/cube"] = result.cube
        if trace:
            outputs[run + "/trace"] = np.array([dataclasses.astuple(r) for r in result.trace],
                                               dtype=np.float64)
    return outputs


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _grid_system(grid: str):
    """The grid's scene cube and optical system."""
    height, width, bands, k = GRIDS[grid]
    system = OpticalSystem(psfs=rotating_psf_stack(bands, k), response=rgb_response(bands))
    return smooth_cube(height, width, bands, seed=bands), system


def cli_chain() -> list[str]:
    """Run the command-line chain in the working directory under relative
    names; return the names of every file there, inputs and manifests
    included."""
    cube, system = _grid_system(CHAIN_GRID)
    save_tensor(cube, "cube.htns")
    save_tensor(system.psfs, "psf.htns")
    save_response_csv("response.csv", np.linspace(450.0, 650.0, system.n_bands),
                      system.response)
    optics = ["--psf", "psf.htns", "--response", "response.csv"]
    steps = [["simulate", "--cube", "cube.htns", *optics, "--out", "coded.htns",
              "--noise", "default", "--seed", "0"],
             ["reconstruct", "--coded", "coded.htns", *optics, "--out", "recon.htns",
              "--trace", *itertools.chain(*CHAIN_FLAGS.items())]]
    steps += [["evaluate", "--recon", "recon.htns", "--gt", "cube.htns", "--crop", "2",
               "--out-json", "report%s.json" % name, "--rmse-csv", "rmse.csv" + gz]
              for name, gz in (("", ""), ("_gz", ".gz"))]
    for argv in steps:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError("snapspec %s exited %d" % (argv[0], code))
    return sorted(os.listdir("."))


def chain_outputs() -> dict[str, np.ndarray]:
    """The chain's coded image, cube and trace as the library gives them in
    process, by the name of the file the chain writes each to."""
    cube, system = _grid_system(CHAIN_GRID)
    coded = add_noise(forward_encode(cube, system), NoiseModel(seed=0))
    op = build_frequency_operator(system, *cube.shape[:2])
    gamma = cli.parse_schedule_spec(CHAIN_FLAGS["--gamma-schedule"], int(CHAIN_FLAGS["--stages"]))
    result = reconstruct(coded, op, StageSchedule(gamma),
                         cli.parse_denoiser_spec(CHAIN_FLAGS["--denoiser"]),
                         cli.parse_init_spec(CHAIN_FLAGS["--init"]), trace=True)
    trace = np.array([dataclasses.astuple(r) for r in result.trace], dtype=np.float64)
    return {"coded.htns": coded, "recon.htns": result.cube, "recon.htns.trace.csv": trace}


def load_table() -> dict:
    return json.loads(TABLE.read_text())


def load_references(grid: str) -> dict[str, np.ndarray]:
    """The stored float64 references of ``grid``: the cubes from the grid's
    HTNS file, the traces from the table."""
    height, width, bands, _ = GRIDS[grid]
    shapes = [(height, width, 3 if name in ("encoded", "coded") else bands)
              for name in REFERENCES]
    flat = load_tensor(DATA / ("%s.htns" % grid))
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    if ends[-1] != flat.size:
        raise ValueError("%s holds %d values, the references take %d"
                         % (grid, flat.size, ends[-1]))
    refs = {name: part.reshape(shape)
            for name, shape, part in zip(REFERENCES, shapes, np.split(flat, ends[:-1]))}
    traces = load_table()["traces"][grid]
    refs.update((name, np.array(traces[name], dtype=np.float64)) for name in TRACE_REFERENCES)
    return refs


def main() -> None:
    DATA.mkdir(exist_ok=True)
    table = {"fingerprint": fingerprint(), "digests": {}, "traces": {}}
    for grid in GRIDS:
        outputs = grid_outputs(grid)
        table["digests"][grid] = {name: digest(a) for name, a in outputs.items()}
        table["traces"][grid] = {name: outputs[name].tolist() for name in TRACE_REFERENCES}
        save_tensor(np.concatenate([outputs[name].ravel() for name in REFERENCES]),
                    DATA / ("%s.htns" % grid))
    cwd = os.getcwd()
    with TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            table["cli_chain"] = {"zlib": zlib.ZLIB_RUNTIME_VERSION,
                                  "files": {name: file_digest(name) for name in cli_chain()}}
        finally:
            os.chdir(cwd)
    TABLE.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
