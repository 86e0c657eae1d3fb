"""Command-line pipeline: simulate, reconstruct, evaluate, bench, oracle-check.

Every subcommand resolves its configuration from three layers (command-line
flag, then config file, then built-in default) and can print the resolved
result with ``--dump-config``.  No output may name an input, the config file
included.  A command writes one manifest, beside its first output, after all
its outputs; a run that fails leaves no output or temporary file and an
earlier run's files untouched.  Manifests carry the resolved config,
input/output checksums, and the tool version, and deliberately no
timestamps, so identical runs yield byte-identical artifacts.

A refusal names the inputs that caused it.  A value outside its key's
range names the flag when the config resolves, and a spec string's value
its spec and key.  Every check of a loaded input or of the run itself goes
through :func:`_naming`, which prefixes ``--flag value`` for each key the
check compared, a path or a number (``--cube a.htns, --psf b.htns: kernel
size 21 exceeds image extent (16, 16)``).  :func:`main` sets one rule for every
command: a float64 overflow, invalid value or division by zero raises where it
happens, and the :func:`_naming` around it makes that a validation error.

Exit codes: 0 success, 1 usage, 2 input validation, 3 I/O or out of memory
(a resource the run could not get, not an input at fault), 4 reference
check breach.  One out-of-memory case escapes them: when OpenBLAS's own
buffer, made at the first BLAS call, is the first allocation to fail under
an address-space limit, OpenBLAS prints its own message and ends the
process with exit 1 before Python sees it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import gzip
import hashlib
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    GAMMA,
    SEED,
    Domain,
    SnapspecError,
    UnknownNameError,
    ValidationError,
)
from .fidelity import FidelityProblem, fidelity_solve, gdm_fidelity_step, subproblem_objective
from .metrics import CROP, DEFAULT_CROP, evaluate as evaluate_metrics
from .optics import (
    NoiseModel,
    OpticalSystem,
    add_noise,
    apply_forward_frequency,
    build_frequency_operator,
    forward_encode,
)
from .oracle import MAX_DENSE_UNKNOWNS, DenseSystem
from .synth import smooth_cube, synthetic_system
from .tensorio import load_response_csv, load_tensor, save_tensor
from .unfolding import (
    DENOISERS,
    GDM_ITERS,
    INITIALIZERS,
    QuadraticDenoiser,
    StageSchedule,
    ZeroInitializer,
    reconstruct as run_reconstruct,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_ORACLE = 4


class _Parser(argparse.ArgumentParser):
    """argparse parser with the exit-code contract's usage code (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


# ---------------------------------------------------------------------------
# config plumbing: flag > file > default, flat key=value files


def _conv_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError("expected an integer, got %r" % text)


def _conv_float(text: str) -> float:
    """A finite number: no key or spec value accepts inf or nan."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError("expected a number, got %r" % text)
    if not math.isfinite(value):
        raise ValidationError("expected a finite number, got %r" % text)
    return value


def _conv_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValidationError("expected a boolean, got %r" % text)


def _convert(conv, text: str, where: str):
    """conv(text), with a conversion error prefixed by ``where``: a flag, or
    a spec and the key the value belongs to."""
    try:
        return conv(text)
    except ValidationError as exc:
        raise ValidationError("%s: %s" % (where, exc)) from None


class Key:
    """One config entry: name, converter, default, help text, and for a
    numeric key its Domain.  A ``listed`` key's value is a comma list, and
    each entry is converted and checked against the domain."""

    def __init__(self, name, conv, default, help_text, required=False,
                 domain=None, listed=False):
        self.name = name
        self.conv = conv
        self.default = default
        self.help = help_text
        self.required = required
        self.domain = domain
        self.listed = listed

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def parse(self, text: str):
        """Convert ``text`` and check it against the domain; errors name the
        flag.  A listed key returns its entries rejoined, empty ones dropped."""
        if not self.listed:
            return self._parse_entry(text)
        entries = [self._parse_entry(part) for part in text.split(",") if part.strip()]
        if not entries:
            raise ValidationError("%s: empty list" % self.flag)
        return ",".join(map(str, entries))

    def _parse_entry(self, text: str):
        value = _convert(self.conv, text, self.flag)
        if self.domain:
            self.domain.check(value, self.flag)
        return value


def _add_config_flags(sub: argparse.ArgumentParser, keys: list[Key]) -> None:
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="flat key=value config file; flags override it")
    sub.add_argument("--dump-config", action="store_true",
                     help="print the fully resolved config and exit")
    for key in keys:
        if isinstance(key.default, bool):
            sub.add_argument(key.flag, dest=key.name, default=None,
                             action="store_const", const=True, help=key.help)
        else:
            help_text = key.help + ("; range %s" % key.domain if key.domain else "")
            sub.add_argument(key.flag, dest=key.name, default=None,
                             metavar=key.name.upper(), help=help_text)


def _split_pairs(items) -> dict[str, str]:
    """(where, 'key=value') items -> {key: value}, stripped; a missing '=' or a
    repeated key raises naming its ``where``, a config file line or a spec."""
    out: dict[str, str] = {}
    for where, item in items:
        name, eq, value = item.partition("=")
        name = name.strip()
        if not eq:
            raise ValidationError("%s: expected key=value, got %r" % (where, item))
        if name in out:
            raise ValidationError("%s: key %r given more than once" % (where, name))
        out[name] = value.strip()
    return out


def _resolve_config(args: argparse.Namespace) -> tuple[dict, dict]:
    """The resolved config, and the keyword arguments that the command's
    ``specs`` parses from its spec strings; both are checked before
    ``--dump-config`` prints."""
    keys = args.keys
    file_values: dict[str, str] = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                lines = [line.strip() for line in fh.readlines()]
            except UnicodeDecodeError as exc:
                raise ValidationError("%s: not UTF-8 text (%s)" % (args.config, exc)) from None
        file_values = _split_pairs(("%s:%d" % (args.config, lineno), line)
                                   for lineno, line in enumerate(lines, start=1)
                                   if line and not line.startswith("#"))
        known = {key.name for key in keys}
        for name in file_values:
            if name not in known:
                raise ValidationError("unknown config key %r in %s" % (name, args.config))
    # every flag and file value is converted and checked against its key's
    # domain here, before --dump-config prints and before any command runs
    resolved = {}
    for key in keys:
        flag_value = getattr(args, key.name)
        if flag_value is not None:
            resolved[key.name] = flag_value if isinstance(flag_value, bool) \
                else key.parse(flag_value)
        elif key.name in file_values:
            try:
                resolved[key.name] = key.parse(file_values[key.name])
            except ValidationError as exc:
                raise ValidationError("%s: %s" % (args.config, exc)) from None
        else:
            resolved[key.name] = key.default
    # the spec strings too, as the command parses them, so that --dump-config
    # prints only a config that the run accepts
    specs = args.specs(resolved) if args.specs else {}
    if args.dump_config:
        for name in sorted(resolved):
            print("%s=%s" % (name, resolved[name]))
        raise SystemExit(EXIT_OK)
    for key in keys:
        if key.required and resolved[key.name] in (None, ""):
            args.parser.error("missing required %s" % key.flag)
    return resolved, specs


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _paths(config: dict, *names: str) -> dict[str, str]:
    """{flag: path} for each path key in ``names`` that is set, in that order."""
    return {"--" + name.replace("_", "-"): config[name] for name in names if config[name]}


def _outputs(config: dict, **writers) -> dict[str, tuple]:
    """{flag: (path, writer)} for each output key in ``writers`` that is set, in that
    order; :func:`_publish` calls each writer later with the path to write to."""
    return {flag: (path, writers[name]) for name in writers
            for flag, path in _paths(config, name).items()}


def _manifest_path(outputs: dict[str, tuple]) -> str:
    """A command's manifest goes beside its first output."""
    return next(iter(outputs.values()))[0] + ".manifest.json"


def _same_file(a: str, b: str) -> bool:
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.normcase(os.path.realpath(a)) == os.path.normcase(os.path.realpath(b))


def _check_paths(inputs: dict[str, str], outputs: dict[str, tuple]) -> None:
    """Refuse, before anything is written, an output that exists and is not a
    regular file or cannot be looked up, say under too long a name (an
    OSError, exit 3), or the same file as an input or another output, the
    manifest included (exit 2, naming both).  ``inputs`` maps a flag to its
    path; a file a run left may be overwritten."""
    paths = {name: path for name, (path, _) in outputs.items()}
    if outputs:
        paths[next(iter(outputs)) + " manifest"] = _manifest_path(outputs)
    for name, path in {**inputs, **paths}.items():
        if "\0" in path:  # no file has such a name, and os.path raises on it
            raise ValidationError("%s %r: a path cannot hold a NUL byte" % (name, path))
    seen = list(inputs.items())
    for name, path in paths.items():
        with contextlib.suppress(FileNotFoundError):  # an absent output is written
            mode = os.stat(path).st_mode
            if not stat.S_ISREG(mode):  # never replace a directory, FIFO, socket or device
                raise OSError("%s: %r" % ("Is a directory" if stat.S_ISDIR(mode)
                                          else "Not a regular file", path))
        for other, earlier in seen:
            if _same_file(path, earlier):
                raise ValidationError("%s %s and %s %s are the same file"
                                      % (other, earlier, name, path))
        seen.append((name, path))


def _temporary(path: str) -> tuple[str, str]:
    """A new empty file under a name of fixed length beside the file ``path``
    resolves to, and the resolved path."""
    final = os.path.realpath(path)
    temporary = os.path.join(os.path.dirname(final), ".%s.tmp" % os.urandom(6).hex())
    try:
        open(temporary, "x").close()
    except OSError as exc:  # name the output, not its temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    return temporary, final


def _publish(command: str, config: dict, inputs: dict[str, str], outputs: dict) -> None:
    """Write each of ``outputs`` (from :func:`_outputs`) to a temporary file beside it,
    then the manifest, and rename them all into place, the manifest last; on
    any error, remove the temporary files and re-raise."""
    manifest = {"tool": "snapspec", "version": __version__, "command": command, "config": config,
                "inputs": {path: _sha256(path) for path in inputs.values()}, "outputs": {}}
    staged = []  # (temporary, final) pairs in rename order
    try:
        for path, writer in outputs.values():
            staged.append(_temporary(path))
            writer(staged[-1][0])
            manifest["outputs"][path] = _sha256(staged[-1][0])
        staged.append(_temporary(_manifest_path(outputs)))
        _write_text(staged[-1][0], json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        for temporary, final in staged:
            os.replace(temporary, final)
    except BaseException:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temporary)
        raise


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv_map(path: str, values: np.ndarray, gz: bool) -> None:
    """A 2-D array as comma-separated rows; with ``gz`` (the output's name ends
    in ``.gz``) a gzip stream whose header holds no write time or file name,
    so a rerun gives the same bytes."""
    if not gz:
        np.savetxt(path, values, fmt="%.8g", delimiter=",")
        return
    with open(path, "wb") as fh, gzip.GzipFile(filename="", mode="wb", fileobj=fh, mtime=0) as gz:
        np.savetxt(gz, values, fmt="%.8g", delimiter=",")


def _write_pgm(path: str, image: np.ndarray) -> None:
    """8-bit binary PGM preview of a 2-D array, clipped to [0, 1]."""
    data = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (data.shape[1], data.shape[0]))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# spec-string parsing (noise, denoiser, initializer, schedule)


_SPEC_CONVERTERS = {float: _conv_float, int: _conv_int}


def _spec_kwargs(params: dict, text: str, what: str, where: str) -> dict:
    """'KEY=VALUE,...' -> constructor kwargs through ``params``, whose domains the
    constructor checks; ``what`` names the spec in splitting errors, ``where`` in others."""
    kwargs = {}
    for key, value in _split_pairs((what, item) for item in text.split(",") if text).items():
        if key not in params:
            raise ValidationError("%s: unknown key %r (valid keys: %s)" % (
                where, key, ", ".join(sorted(params)) or "none"))
        arg, kind, _ = params[key]
        kwargs[arg] = _convert(_SPEC_CONVERTERS[kind], value, "%s: %s" % (where, key))
    return kwargs


def parse_noise_spec(spec: str, seed: int) -> NoiseModel:
    """'none', 'default', or 'gaussian=SIGMA,poisson_bits=BITS'; a key left
    out is off."""
    if spec == "default":
        return NoiseModel(seed=seed)
    kwargs = _spec_kwargs(NoiseModel.params, "" if spec == "none" else spec,
                          "noise spec", "noise spec")
    return NoiseModel(**{"gaussian_sigma": 0.0, "poisson_bits": 0, **kwargs}, seed=seed)


def _parse_strategy_spec(spec: str, registry: dict, what: str):
    """'NAME[:KEY=VALUE,...]' -> registry[NAME](**kwargs).  The class's
    ``params`` declares its keys; omitted ones take the constructor defaults.
    An unknown name raises UnknownNameError listing the valid ones."""
    name, _, rest = spec.partition(":")
    if name not in registry:
        raise UnknownNameError(
            "unknown %s %r; valid: %s" % (what, name, ", ".join(sorted(registry)))
        )
    cls = registry[name]
    return cls(**_spec_kwargs(cls.params, rest, what + " spec", "%s %r" % (what, name)))


def _key_domains(params: dict) -> list[str]:
    """'KEY in DOMAIN' for each key that ``params`` declares."""
    return ["%s in %s" % (key, domain) for key, (_, _, domain) in params.items()]


def _strategy_help(registry: dict) -> str:
    """'NAME[:KEY=VALUE,...]' help listing each registered name and its keys' domains."""
    return "NAME[:KEY=VALUE,...]: " + "; ".join(
        ", ".join([name, *_key_domains(cls.params)]) for name, cls in registry.items())


def parse_denoiser_spec(spec: str):
    """'NAME[:KEY=VALUE,...]' -> the DENOISERS entry NAME, built from its keys."""
    return _parse_strategy_spec(spec, DENOISERS, "denoiser")


def parse_init_spec(spec: str):
    """'NAME[:KEY=VALUE,...]' -> the INITIALIZERS entry NAME, built from its keys."""
    return _parse_strategy_spec(spec, INITIALIZERS, "initializer")


def parse_schedule_spec(spec: str, n_stages: int) -> np.ndarray:
    """'KIND:VALUE,...' -> one anchor weight per stage, on the ramp that
    ``StageSchedule.ramps`` declares as KIND; an unknown KIND raises UnknownNameError."""
    kind, _, rest = spec.partition(":")
    if kind not in StageSchedule.ramps:
        raise UnknownNameError("unknown schedule %r; valid: %s"
                               % (kind, ", ".join(sorted(StageSchedule.ramps))))
    names = [name.upper() for name in StageSchedule.ramps[kind]]
    parts = rest.split(",") if rest else []
    if len(parts) != len(names):
        raise ValidationError("%s schedule needs %s, got %r" % (kind, ",".join(names), rest))
    return getattr(StageSchedule, kind)(
        n_stages, *(_convert(_conv_float, part, name) for part, name in zip(parts, names))).gamma


def _shown(value) -> str:
    """A key's value as a refusal names it; a float in the shortest form
    that reads back the same, ``1`` rather than ``1.0``."""
    if isinstance(value, float) and float("%g" % value) == value:
        return "%g" % value
    return str(value)


@contextlib.contextmanager
def _naming(config: dict, *names: str):
    """Prefix a SnapspecError raised inside with ``--flag value`` for each key
    in ``names``, a path or a number, 0 included; its type, and so its exit
    code, stays.  A FloatingPointError (see :func:`main`) becomes a ValidationError."""
    try:
        yield
    except (SnapspecError, FloatingPointError) as exc:
        where = ", ".join("--%s %s" % (name.replace("_", "-"), _shown(config[name]))
                          for name in names)
        if isinstance(exc, FloatingPointError):
            raise ValidationError("%s: outside the float64 range (%s)" % (where, exc)) from None
        raise type(exc)("%s: %s" % (where, exc)) from None


def _load_cube(config: dict, name: str, depth: int | None = None) -> np.ndarray:
    """Input ``name`` as a float64 3-D tensor, with ``depth`` channels if given."""
    with _naming(config, name):
        cube = load_tensor(config[name])
        if cube.ndim != 3 or depth not in (None, cube.shape[2]):
            raise ValidationError("expected a 3-D tensor%s, got shape %r"
                                  % (" of depth %d" % depth if depth else "", cube.shape))
    return np.asarray(cube, dtype=np.float64)


def _load_system(config: dict) -> OpticalSystem:
    """Inputs ``psf`` and ``response``; a check across both names both."""
    psfs = _load_cube(config, "psf")
    with _naming(config, "response"):
        response = load_response_csv(config["response"])
    with _naming(config, "psf", "response"):
        return OpticalSystem(psfs=psfs, response=response)


# ---------------------------------------------------------------------------
# subcommands

_SIMULATE_KEYS = [
    Key("cube", str, "", "input spectral cube (.htns)", required=True),
    Key("psf", str, "", "PSF stack tensor (bands, k, k) (.htns)", required=True),
    Key("response", str, "", "spectral response CSV", required=True),
    Key("out", str, "", "output coded image (.htns)", required=True),
    Key("noise", str, "default", "'none', 'default' (%s), or KEY=VALUE,... with %s; a "
        "key left out is off" % (",".join("%s=%s" % (key, getattr(NoiseModel, arg))
                                          for key, (arg, _, _) in NoiseModel.params.items()),
                                 ", ".join(_key_domains(NoiseModel.params)))),
    Key("seed", _conv_int, 0, "noise RNG seed", domain=SEED),
    Key("export_pgm", str, "", "optional 8-bit grayscale preview path"),
]


def _simulate_specs(config: dict) -> dict:
    return {"noise": parse_noise_spec(config["noise"], config["seed"])}


def _cmd_simulate(config: dict, config_file: dict[str, str], noise: NoiseModel) -> int:
    inputs = _paths(config, "cube", "psf", "response")
    outputs = _outputs(config, out=lambda path: save_tensor(coded, path),
                       export_pgm=lambda path: _write_pgm(path, coded.mean(axis=2)))
    _check_paths({**config_file, **inputs}, outputs)
    cube = _load_cube(config, "cube")
    system = _load_system(config)
    with _naming(config, "cube", "psf", "response"):
        coded = forward_encode(cube, system)
    with _naming(config, "cube", "noise"):
        coded = add_noise(coded, noise)
        _publish("simulate", config, inputs, outputs)  # the preview's mean may overflow
    print("wrote %s (%dx%dx3)" % (config["out"], coded.shape[0], coded.shape[1]))
    return EXIT_OK


_RECONSTRUCT_KEYS = [
    Key("coded", str, "", "coded RGB image (.htns)", required=True),
    Key("psf", str, "", "PSF stack tensor (.htns)", required=True),
    Key("response", str, "", "spectral response CSV", required=True),
    Key("out", str, "", "output reconstructed cube (.htns)", required=True),
    Key("stages", _conv_int, 7, "stage count K (K=1 returns the initialization)",
        domain=Domain(1, 1000)),
    Key("gamma_schedule", str, "geometric:0.01,4", "KIND:VALUE,...: " + "; ".join(
        "%s:%s, %s" % (kind, ",".join(ramp).upper(), ", ".join(
            "%s in %s" % (name.upper(), domain) for name, domain in ramp.items()))
        for kind, ramp in StageSchedule.ramps.items())),
    Key("denoiser", str, "tv:lambda=0.01,iters=30", _strategy_help(DENOISERS)),
    Key("init", str, "mean", _strategy_help(INITIALIZERS)),
    Key("prior_weight", _conv_float, 0.0,
        "prior weight sigma; denoiser noise level is sqrt(sigma/gamma), read only by quadratic",
        domain=StageSchedule.params["prior_weight"][2]),
    Key("zeta", _conv_float, 1.0, "multiplier update rate; 0 is HQS (no multipliers)",
        domain=StageSchedule.params["zeta"][2]),
    Key("gdm_iters", _conv_int, 0,
        "gradient steps in place of each exact fidelity solve (the GDM baseline); "
        "0 keeps the exact solve", domain=GDM_ITERS),
    Key("trace", _conv_bool, False, "also write per-stage trace CSV next to the output"),
    Key("export_pgm", str, "", "optional band-mean preview path"),
]


def _reconstruct_specs(config: dict) -> dict:
    with _naming(config, "gamma_schedule", "stages", "prior_weight"):
        schedule = StageSchedule(parse_schedule_spec(config["gamma_schedule"], config["stages"]),
                                 config["prior_weight"], config["zeta"])
    return {"schedule": schedule, "denoiser": parse_denoiser_spec(config["denoiser"]),
            "initializer": parse_init_spec(config["init"])}


def _cmd_reconstruct(config: dict, config_file: dict[str, str], schedule: StageSchedule,
                     denoiser, initializer) -> int:
    inputs = _paths(config, "coded", "psf", "response")
    outputs = _outputs(config, out=lambda path: save_tensor(result.cube, path),
                       export_pgm=lambda path: _write_pgm(path, result.cube.mean(axis=2)))
    if config["trace"]:
        outputs["--out trace"] = (config["out"] + ".trace.csv", lambda path: np.savetxt(
            path, [dataclasses.astuple(rec) for rec in result.trace], fmt="%d" + ",%.17g" * 4,
            header="stage,fidelity,delta,gamma,primal_residual", comments=""))
    _check_paths({**config_file, **inputs}, outputs)
    coded = _load_cube(config, "coded", depth=3)
    system = _load_system(config)
    with _naming(config, "coded", "psf"):
        op = build_frequency_operator(system, coded.shape[0], coded.shape[1])
    with _naming(config, "psf", "response"):
        op.gram_max  # the Gram, which the run would make first, reads only the system
    with _naming(config, "gamma_schedule", "zeta"):
        result = run_reconstruct(coded, op, schedule, denoiser, initializer,
                                 trace=config["trace"], gdm_iters=config["gdm_iters"])
        _publish("reconstruct", config, inputs, outputs)  # the preview's mean may overflow
    print("wrote %s (%dx%dx%d, %d stages)"
          % (config["out"], *result.cube.shape, config["stages"]))
    return EXIT_OK


_EVALUATE_KEYS = [
    Key("recon", str, "", "reconstructed cube (.htns)", required=True),
    Key("gt", str, "", "ground-truth cube (.htns)", required=True),
    Key("crop", _conv_int, DEFAULT_CROP, "pixels cropped per edge before measuring",
        domain=CROP),
    Key("out_json", str, "", "optional path for the JSON report line"),
    Key("rmse_csv", str, "", "optional per-pixel RMSE map CSV (cropped region)"),
]


def _cmd_evaluate(config: dict, config_file: dict[str, str]) -> int:
    inputs = _paths(config, "recon", "gt")
    crop = slice(config["crop"], -config["crop"] or None)  # PSNR's region, not the border
    outputs = _outputs(config, out_json=lambda path: _write_text(path, line + "\n"),
                       rmse_csv=lambda path: _write_csv_map(path, np.sqrt(np.mean(
                           (recon[crop, crop] - gt[crop, crop]) ** 2, axis=2)),
                           config["rmse_csv"].endswith(".gz")))
    _check_paths({**config_file, **inputs}, outputs)
    recon = _load_cube(config, "recon")
    gt = _load_cube(config, "gt")
    with _naming(config, "recon", "gt", "crop"):
        report = evaluate_metrics(recon, gt, crop=config["crop"])
    line = report.to_json()
    print(line)
    print(
        "psnr %.2f dB | sam %.3f deg | ssim %.4f | crop %d"
        % (report.psnr_db, report.sam_deg, report.ssim, report.crop),
        file=sys.stderr,
    )
    if outputs:
        _publish("evaluate", config, inputs, outputs)
    return EXIT_OK


_BENCH_KEYS = [
    Key("sizes", _conv_int, "8,64,512", "comma list of square image extents",
        domain=Domain(4, 1024), listed=True),
    Key("bands", _conv_int, "8", "comma list of band counts", domain=Domain(1, 64), listed=True),
    Key("gamma", _conv_float, 0.5, "anchor weight used in timed solves", domain=GAMMA),
    Key("repeats", _conv_int, 3, "median-of-N repeats per timing", domain=Domain(1, 1000)),
    Key("seed", _conv_int, 0, "instance RNG seed", domain=SEED),
    Key("out", str, "", "optional CSV path (default: stdout)"),
]

# the matched-GDM race runs until its objective is within MATCHED_TOL
# (relative) of the closed form's, or until its time passes MATCHED_RATIO
# times the analytical median; at gamma 0.5 a match took 15-294x that median
# over nine runs of sizes 6, 8, 40, 64 and 4, 8, 31 bands (--repeats 3; at
# most 207x but for one 294x at 40x40x31), 50x at 512x1 and 62x at 512x8;
# 1500 keeps 5x headroom over the worst
MATCHED_TOL = 1e-6
MATCHED_RATIO = 1500


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _cmd_bench(config: dict, config_file: dict[str, str]) -> int:
    outputs = _outputs(config, out=lambda path: _write_text(path, text))
    _check_paths(config_file, outputs)
    sizes = [int(size) for size in config["sizes"].split(",")]
    bands_list = [int(bands) for bands in config["bands"].split(",")]
    gamma = config["gamma"]
    rng = np.random.default_rng(config["seed"])
    rows = []
    failures = []
    for size in sizes:
        for bands in bands_list:
            kernel = 41 if size >= 64 else (5 if size >= 6 else 3)
            system = synthetic_system(bands, kernel)
            op = build_frequency_operator(system, size, size)
            truth = smooth_cube(size, size, bands, seed=config["seed"])
            coded = apply_forward_frequency(op, truth)
            anchor = np.asarray(rng.standard_normal(truth.shape))
            t_dense = None
            # gamma-bound steps first: a gamma too small fails before any GDM runs
            with _naming(config, "gamma"):
                prob = FidelityProblem.from_coded_image(op, coded, gamma)
                t_exact = _median_time(lambda: fidelity_solve(prob, anchor), config["repeats"])
                if size * size * bands <= MAX_DENSE_UNKNOWNS:
                    dense = DenseSystem.from_system(system, size, size)
                    t_dense = _median_time(
                        lambda: dense.ridge_solve(coded, anchor, gamma), config["repeats"]
                    )
            rows.append((size, bands, "analytical", t_exact, ""))

            op.lipschitz  # the eigenvalue sweep, outside the GDM timings
            t_gdm10 = _median_time(
                lambda: gdm_fidelity_step(prob, anchor, anchor, 10), config["repeats"]
            )
            rows.append((size, bands, "gdm10", t_gdm10, ""))

            # one matched-accuracy GDM run: iterate until the subproblem
            # objective is within MATCHED_TOL of the closed-form optimum
            exact = fidelity_solve(prob, anchor)
            target = subproblem_objective(prob, exact, anchor)
            start = time.perf_counter()
            x = np.array(anchor, copy=True)
            iters_done = 0
            chunk = 50
            matched = False
            while not matched and time.perf_counter() - start <= MATCHED_RATIO * t_exact:
                x = gdm_fidelity_step(prob, anchor, x, chunk)
                iters_done += chunk
                gap = subproblem_objective(prob, x, anchor) - target
                matched = gap <= MATCHED_TOL * max(1.0, abs(target))
            t_matched = time.perf_counter() - start
            # an unmatched run's seconds are a lower bound, above t_exact
            # since MATCHED_RATIO >= 1, so the gate below still decides it
            detail = "iters=%d%s" % (iters_done, "" if matched else ";unmatched")
            rows.append((size, bands, "gdm_matched", t_matched, detail))

            if t_dense is not None:
                rows.append((size, bands, "dense_oracle", t_dense, ""))

            if size >= 512:
                if not t_exact < t_gdm10:
                    failures.append(
                        "size %d bands %d: analytical %.4fs not faster than 10-step GDM %.4fs"
                        % (size, bands, t_exact, t_gdm10)
                    )
                if not t_exact < t_matched:
                    failures.append(
                        "size %d bands %d: analytical %.4fs not faster than matched GDM %.4fs"
                        % (size, bands, t_exact, t_matched)
                    )

    lines = ["size,bands,solver,seconds,detail"]
    lines += ["%d,%d,%s,%.6f,%s" % row for row in rows]
    text = "\n".join(lines) + "\n"
    if config["out"]:
        _publish("bench", config, {}, outputs)
        print("wrote %s" % config["out"])
    else:
        sys.stdout.write(text)
    if failures:
        for failure in failures:
            print("bench: FAIL %s" % failure, file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


_ORACLE_KEYS = [
    Key("seed", _conv_int, 0, "trial RNG seed", domain=SEED),
    Key("trials", _conv_int, 20, "number of random instances (0 = vacuous pass)",
        domain=Domain(0, 10_000)),
]


def _random_instance(rng: np.random.Generator, size: int, bands: int, kernel: int):
    psfs = rng.uniform(0.05, 1.0, size=(bands, kernel, kernel))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(0.05, 1.0, size=(3, bands))
    system = OpticalSystem(psfs=psfs, response=response)
    cube = rng.uniform(size=(size, size, bands))
    return system, cube


def _cmd_oracle_check(config: dict, config_file: dict[str, str]) -> int:
    trials = config["trials"]
    if trials == 0:
        print("oracle-check: WARNING 0 trials requested; vacuous PASS")
        return EXIT_OK
    rng = np.random.default_rng(config["seed"])
    gammas = [1e-3, 1.0, 1e3]
    worst = {"forward": 0.0, "ridge": 0.0, "admm": 0.0}

    for trial in range(trials):
        size = 6 if trial % 2 == 0 else 8
        bands = 4 if trial % 3 == 0 else 5
        system, cube = _random_instance(rng, size, bands, kernel=3)
        op = build_frequency_operator(system, size, size)
        dense = DenseSystem.from_system(system, size, size)

        coded = apply_forward_frequency(op, cube)
        ref = dense.forward(cube)
        worst["forward"] = max(
            worst["forward"], float(np.max(np.abs(coded - ref)))
        )

        gamma = gammas[trial % len(gammas)]
        anchor = rng.uniform(size=cube.shape)
        prob = FidelityProblem.from_coded_image(op, ref, gamma)
        got = fidelity_solve(prob, anchor)
        want = dense.ridge_solve(ref, anchor, gamma)
        rel = float(
            np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
        )
        worst["ridge"] = max(worst["ridge"], rel)

        if trial < 4:
            weight = 0.05
            admm_gamma = 0.3
            schedule = StageSchedule.constant(200, admm_gamma, prior_weight=weight)
            result = run_reconstruct(ref, op, schedule, QuadraticDenoiser(), ZeroInitializer())
            # the minimiser of 1/2 ||Phi x - j||^2 + weight/2 ||x||^2
            tik = dense.ridge_solve(ref, np.zeros_like(cube), weight)
            rel = float(
                np.linalg.norm(result.cube - tik) / max(np.linalg.norm(tik), 1e-300)
            )
            worst["admm"] = max(worst["admm"], rel)

    tols = {"forward": 1e-12, "ridge": 1e-8, "admm": 1e-6}
    labels = {
        "forward": "frequency forward vs dense matrix (max abs)",
        "ridge": "fidelity_solve vs dense ridge (rel)",
        "admm": "quadratic-prior unfolding vs dense solution (rel)",
    }
    ok = True
    for name in ("forward", "ridge", "admm"):
        passed = worst[name] < tols[name]
        ok = ok and passed
        print(
            "check %-48s %.3e (tol %.0e) %s"
            % (labels[name], worst[name], tols[name], "PASS" if passed else "FAIL")
        )
    if not ok:
        print("oracle-check: FAIL (%d trials)" % trials, file=sys.stderr)
        return EXIT_ORACLE
    print("oracle-check: PASS (%d trials)" % trials)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="snapspec",
                     description="PSF-coded snapshot spectral imaging pipeline")
    parser.add_argument("--version", action="version", version="snapspec " + __version__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser, metavar="COMMAND")

    # each command's keys, the parser of its spec strings (run before any file
    # is read, so that a usage error comes before an I/O error) and its body
    for name, keys, specs, run, help_text in [
        ("simulate", _SIMULATE_KEYS, _simulate_specs, _cmd_simulate,
         "encode a spectral cube into a coded image"),
        ("reconstruct", _RECONSTRUCT_KEYS, _reconstruct_specs, _cmd_reconstruct,
         "recover a cube from a coded image"),
        ("evaluate", _EVALUATE_KEYS, None, _cmd_evaluate,
         "compare a reconstruction against ground truth"),
        ("bench", _BENCH_KEYS, None, _cmd_bench, "time the solver paths at several scales"),
        ("oracle-check", _ORACLE_KEYS, None, _cmd_oracle_check,
         "verify production solvers against dense references"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _add_config_flags(sub, keys)
        sub.set_defaults(keys=keys, specs=specs, run=run, parser=sub)

    return parser


def _reset_heap() -> None:
    """Start each command from the same heap (glibc; a no-op elsewhere).

    glibc raises its mmap threshold to the largest block freed, after which
    cubes come from the heap and its freed gaps stay resident: a second
    reconstruct in one process peaked one cube higher.  A fixed 1 MiB
    threshold maps each cube on its own, returned when freed, while strip
    scratch stays on the heap, and the trim drops the free heap left before.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 1 << 20)  # -3: M_MMAP_THRESHOLD in malloc.h
        libc.malloc_trim(0)
    except (OSError, AttributeError, TypeError):
        pass


def main(argv: list[str] | None = None) -> int:
    _reset_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            config, specs = _resolve_config(args)
            return args.run(config, _paths(vars(args), "config"), **specs)
    except UnknownNameError as exc:
        args.parser.error(str(exc))
    except SnapspecError as exc:
        print("snapspec %s: error: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print("snapspec %s: i/o error: %s" % (args.command, exc), file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        detail = str(exc)
        print("snapspec %s: error: out of memory%s" % (args.command, detail and ": " + detail),
              file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
