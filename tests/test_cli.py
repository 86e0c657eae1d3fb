"""End-to-end command-line tests: pipelines, exit codes, manifests, determinism."""

import contextlib
import errno
import gzip
import hashlib
import inspect
import io
import json
import math
import os
import pathlib
import re
import shutil
import stat
import struct
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snapspec import FrequencyOperator, load_tensor, save_response_csv, save_tensor
from snapspec import cli, metrics, optics, unfolding
from snapspec.cli import build_parser, main
from snapspec.errors import DivergenceError, ParameterError, ValidationError
from snapspec.optics import NoiseModel
from snapspec.synth import rgb_response, rotating_psf_stack, smooth_cube
from snapspec.unfolding import DENOISERS, INITIALIZERS, StageSchedule

COMMANDS = ("simulate", "reconstruct", "evaluate", "bench", "oracle-check")


def _write_random_system(tmp_path, n_bands=4, kernel=3, seed=0):
    rng = np.random.default_rng(seed)
    psfs = rng.uniform(size=(n_bands, kernel, kernel))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(size=(3, n_bands))
    psf_path = tmp_path / "psf.htns"
    resp_path = tmp_path / "resp.csv"
    save_tensor(psfs, psf_path)
    save_response_csv(resp_path, np.linspace(450.0, 650.0, n_bands), response)
    return str(psf_path), str(resp_path)


def _write_identity_system(tmp_path):
    psfs = np.ones((3, 1, 1))
    psf_path = tmp_path / "id_psf.htns"
    resp_path = tmp_path / "id_resp.csv"
    save_tensor(psfs, psf_path)
    save_response_csv(resp_path, np.array([450.0, 550.0, 650.0]), np.eye(3))
    return str(psf_path), str(resp_path)


def _write_cube(tmp_path, shape=(16, 16, 4), seed=1, name="cube.htns"):
    cube = np.random.default_rng(seed).uniform(size=shape)
    path = tmp_path / name
    save_tensor(cube, path)
    return str(path), cube


def test_identity_simulate_reproduces_cube(tmp_path):
    psf, resp = _write_identity_system(tmp_path)
    cube_path, cube = _write_cube(tmp_path, shape=(16, 16, 3))
    out = str(tmp_path / "coded.htns")
    code = main([
        "simulate", "--cube", cube_path, "--psf", psf, "--response", resp,
        "--out", out, "--noise", "none",
    ])
    assert code == 0
    # the encoder is an FFT round trip, so equality holds to roundoff only
    assert np.max(np.abs(load_tensor(out) - cube)) < 1e-14


def test_simulate_byte_deterministic(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    out_a = str(tmp_path / "a.htns")
    out_b = str(tmp_path / "b.htns")
    base = ["--cube", cube_path, "--psf", psf, "--response", resp, "--seed", "3"]
    assert main(["simulate", *base, "--out", out_a]) == 0
    assert main(["simulate", *base, "--out", out_b]) == 0
    assert (tmp_path / "a.htns").read_bytes() == (tmp_path / "b.htns").read_bytes()


def test_manifest_contents_and_determinism(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    out = str(tmp_path / "coded.htns")
    args = [
        "simulate", "--cube", cube_path, "--psf", psf, "--response", resp, "--out", out,
    ]
    assert main(args) == 0
    first = (tmp_path / "coded.htns.manifest.json").read_bytes()
    manifest = json.loads(first)
    assert manifest["tool"] == "snapspec"
    assert manifest["command"] == "simulate"
    assert cube_path in manifest["inputs"]
    assert out in manifest["outputs"]
    assert manifest["config"]["noise"] == "default"
    assert sorted(manifest["config"]) == [
        "cube", "export_pgm", "noise", "out", "psf", "response", "seed",
    ]
    assert "time" not in json.dumps(manifest).lower() or "timestamp" not in manifest
    assert main(args) == 0
    assert (tmp_path / "coded.htns.manifest.json").read_bytes() == first


def _simulate_noiseless(tmp_path, psf, resp, cube_path):
    coded = str(tmp_path / "coded.htns")
    code = main([
        "simulate", "--cube", cube_path, "--psf", psf, "--response", resp,
        "--out", coded, "--noise", "none",
    ])
    assert code == 0
    return coded


def test_reconstruct_single_stage_returns_initialization(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    out = str(tmp_path / "recon.htns")
    code = main([
        "reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
        "--out", out, "--stages", "1", "--init", "zero",
    ])
    assert code == 0
    assert not load_tensor(out).any()


def test_reconstruct_trace_csv(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    out = str(tmp_path / "recon.htns")
    code = main([
        "reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
        "--out", out, "--stages", "4", "--trace",
    ])
    assert code == 0
    lines = (tmp_path / "recon.htns.trace.csv").read_text().strip().splitlines()
    assert lines[0] == "stage,fidelity,delta,gamma,primal_residual"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "nan"  # stage 1 has no predecessor
    assert first[4] == "nan"  # nor a fidelity solve
    for line in lines[2:]:
        parts = line.split(",")
        assert float(parts[1]) >= 0
        assert float(parts[3]) > 0
        assert float(parts[4]) >= 0


def test_full_pipeline_with_evaluate(tmp_path, capsys):
    psf, resp = _write_random_system(tmp_path, n_bands=4)
    cube_path, _ = _write_cube(tmp_path, shape=(20, 20, 4))
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    out = str(tmp_path / "recon.htns")
    assert main([
        "reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
        "--out", out, "--stages", "6", "--denoiser", "tv:lambda=0.005,iters=20",
    ]) == 0
    report_path = str(tmp_path / "report.json")
    code = main([
        "evaluate", "--recon", out, "--gt", cube_path, "--crop", "4",
        "--out-json", report_path,
    ])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out.strip().splitlines()[-1])
    assert list(payload) == ["psnr_db", "sam_rad", "ssim", "crop"]
    assert payload["crop"] == 4
    assert "deg" in captured.err
    assert json.loads((tmp_path / "report.json").read_text()) == payload


def test_evaluate_rmse_csv(tmp_path):
    cube_path, cube = _write_cube(tmp_path, shape=(16, 16, 3))
    other_path = str(tmp_path / "other.htns")
    save_tensor(cube + 0.1, other_path)
    rmse_path = str(tmp_path / "rmse.csv")
    code = main([
        "evaluate", "--recon", other_path, "--gt", cube_path, "--crop", "2",
        "--rmse-csv", rmse_path,
    ])
    assert code == 0
    grid = np.loadtxt(rmse_path, delimiter=",")
    assert grid.shape == (12, 12)
    assert np.allclose(grid, 0.1, atol=1e-6)


def test_evaluate_gz_rmse_map_is_reproducible(tmp_path, monkeypatch):
    # the gzip header holds no write time or file name, so runs at two clock
    # readings give the same map and manifest bytes, and the map inflates
    # to the plain CSV
    cube_path, cube = _write_cube(tmp_path, shape=(16, 16, 3))
    other_path = str(tmp_path / "other.htns")
    save_tensor(cube + 0.1, other_path)
    args = ["evaluate", "--recon", other_path, "--gt", cube_path, "--crop", "2", "--rmse-csv"]
    gz_path = tmp_path / "rmse.csv.gz"
    runs = []
    for clock in (1.0e9, 2.0e9):
        monkeypatch.setattr(time, "time", lambda: clock)
        assert main(args + [str(gz_path)]) == 0
        manifest = pathlib.Path(str(gz_path) + ".manifest.json")
        runs.append((gz_path.read_bytes(), manifest.read_bytes()))
    assert runs[0] == runs[1]
    assert main(args + [str(tmp_path / "rmse.csv")]) == 0
    assert gzip.decompress(runs[0][0]) == (tmp_path / "rmse.csv").read_bytes()


def test_evaluate_crop_below_ssim_window_exit_2_naming_crop(tmp_path, capsys):
    # 16 - 2 * 3 = 10 pixels are left, short of the 11-pixel SSIM window
    cube_path, _ = _write_cube(tmp_path, shape=(16, 16, 3))
    assert main(["evaluate", "--recon", cube_path, "--gt", cube_path, "--crop", "3"]) == 2
    err = capsys.readouterr().err
    assert "crop 3" in err and "(16, 16)" in err and "11-pixel SSIM window" in err


def test_evaluate_refuses_overflowing_metrics_exit_2(tmp_path, capsys, recwarn):
    # squares of 1e200 overflow: the metrics would read -inf and nan
    cube_path, cube = _write_cube(tmp_path, shape=(16, 16, 3))
    huge = str(tmp_path / "huge.htns")
    save_tensor(1e200 * cube, huge)
    report = tmp_path / "report.json"
    assert main(["evaluate", "--recon", huge, "--gt", cube_path, "--crop", "0",
                 "--out-json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--recon %s, --gt %s, --crop 0: outside the float64 range" % (huge, cube_path) \
        in captured.err
    assert not report.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_export_pgm(tmp_path):
    psf, resp = _write_identity_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path, shape=(8, 8, 3))
    out = str(tmp_path / "coded.htns")
    preview = str(tmp_path / "preview.pgm")
    assert main([
        "simulate", "--cube", cube_path, "--psf", psf, "--response", resp,
        "--out", out, "--noise", "none", "--export-pgm", preview,
    ]) == 0
    blob = (tmp_path / "preview.pgm").read_bytes()
    assert blob.startswith(b"P5\n8 8\n255\n")
    assert len(blob) == len(b"P5\n8 8\n255\n") + 64


# config resolution


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nstages=3\ndenoiser=identity\n")
    with pytest.raises(SystemExit) as exc:
        main([
            "reconstruct", "--config", str(cfg), "--stages", "9", "--dump-config",
        ])
    assert exc.value.code == 0
    dumped = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert dumped["stages"] == "9"  # flag beats file
    assert dumped["denoiser"] == "identity"  # file beats default
    assert dumped["init"] == "mean"  # default survives


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("stagez=3\n")
    code = main(["reconstruct", "--config", str(cfg)])
    assert code == 2


# exit codes


def test_usage_error_missing_required(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 1


def test_usage_error_no_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_usage_error_unknown_denoiser(tmp_path, capsys):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    with pytest.raises(SystemExit) as exc:
        main([
            "reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
            "--out", str(tmp_path / "r.htns"), "--denoiser", "wavelet",
        ])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    for name in ("gaussian", "identity", "quadratic", "tv"):
        assert name in err


# a refusal by the command itself reads as argparse's own usage errors
# inside that command do: the command's usage line and name, exit 1


@pytest.mark.parametrize("argv, message", [
    (["reconstruct", "--denoiser", "wavelet"], "unknown denoiser 'wavelet'"),
    (["reconstruct"], "missing required --coded"),
], ids=["unknown name", "missing required"])
def test_usage_error_names_the_command(capsys, argv, message):
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: snapspec reconstruct ")
    assert "\nsnapspec reconstruct: error: %s" % message in err


def test_reconstruct_ignores_sidecar_manifest(tmp_path):
    # reconstruct reads only --coded, --psf and --response: a manifest
    # beside the coded image, unreadable or recording a boundary no longer
    # offered, changes neither the exit code nor the cube
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    manifest_path = coded + ".manifest.json"
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["config"]["boundary"] = "valid-crop"
    out = tmp_path / "r.htns"
    argv = ["reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
            "--out", str(out), "--stages", "2"]
    os.remove(manifest_path)
    assert main(argv) == 0
    want = out.read_bytes()
    for text in ("{truncated", json.dumps(manifest)):
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.unlink()
        assert main(argv) == 0
        assert out.read_bytes() == want


# flags that are gone: the boundary is circular, HQS is --zeta 0, and
# bench's matched-GDM tolerance is a constant
@pytest.mark.parametrize("argv", [
    ["simulate", "--boundary", "circular"],
    ["reconstruct", "--method", "hqs"],
    ["bench", "--matched-tol", "1e-3"],
], ids=" ".join)
def test_removed_flag_exit_1(capsys, argv):
    assert _exit_code([*argv, "--dump-config"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: %s\n" % " ".join(argv[1:]) in captured.err


def test_boundary_config_key_removed_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("boundary=circular\n")
    assert _exit_code(["simulate", "--config", str(cfg), "--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown config key 'boundary'" in captured.err


@pytest.mark.parametrize("spec, code", [
    ("wavelet", 1),
    ("tv:lambda=0.01,iters=100000000000000000000", 2),
])
def test_spec_checked_before_files_are_read(tmp_path, capsys, spec, code):
    missing = str(tmp_path / "missing.htns")
    assert _exit_code([
        "reconstruct", "--coded", missing, "--psf", missing, "--response", missing,
        "--out", str(tmp_path / "r.htns"), "--denoiser", spec,
    ]) == code
    err = capsys.readouterr().err
    assert "missing" not in err
    assert ("valid: gaussian, identity, quadratic, tv" if code == 1 else "iters") in err


# every registered strategy is built from its spec through its declared
# params: key -> (constructor argument, type)

_STRATEGIES = [("--denoiser", cls) for cls in DENOISERS.values()] + \
    [("--init", cls) for cls in INITIALIZERS.values()]
_STRATEGY_PARSERS = {"--denoiser": cli.parse_denoiser_spec, "--init": cli.parse_init_spec}
_SPEC_SAMPLES = {float: ("0.02", 0.02), int: ("12", 12)}


@pytest.mark.parametrize("flag, cls", _STRATEGIES, ids=lambda v: getattr(v, "name", v))
def test_bare_strategy_name_builds_default(flag, cls):
    built = _STRATEGY_PARSERS[flag](cls.name)
    assert type(built) is cls
    assert vars(built) == vars(cls())


def test_reconstruct_help_lists_every_strategy_and_key_domain(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for flag, cls in _STRATEGIES:
        # the flag's own help runs from its metavar to the next flag
        entry = text.split("%s %s " % (flag, flag[2:].upper()))[-1].split(" --")[0]
        assert cls.name in entry.replace(";", " ").replace(",", " ").split()
        for key, (_, _, domain) in cls.params.items():
            assert "%s in %s" % (key, domain) in entry


def test_reconstruct_help_lists_every_schedule_value_domain(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    entry = text.split("--gamma-schedule GAMMA_SCHEDULE ")[-1].split(" --")[0]
    for kind, ramp in StageSchedule.ramps.items():
        assert "%s:%s" % (kind, ",".join(ramp).upper()) in entry
        for name, domain in ramp.items():
            assert "%s in %s" % (name.upper(), domain) in entry


def test_simulate_help_lists_every_noise_key_domain(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    entry = text.split("--noise NOISE ")[-1].split(" --")[0]
    for key, (_, _, domain) in NoiseModel.params.items():
        assert "%s in %s" % (key, domain) in entry


@pytest.mark.parametrize("flag, cls, key", [
    (flag, cls, key) for flag, cls in _STRATEGIES for key in cls.params
], ids=lambda v: getattr(v, "name", v))
def test_strategy_spec_key_reaches_constructor(flag, cls, key):
    arg, kind, _ = cls.params[key]
    text, value = _SPEC_SAMPLES[kind]
    built = _STRATEGY_PARSERS[flag]("%s:%s=%s" % (cls.name, key, text))
    assert getattr(built, arg) == value
    assert type(getattr(built, arg)) is kind


@pytest.mark.parametrize("flag, cls", _STRATEGIES, ids=lambda v: getattr(v, "name", v))
def test_unknown_strategy_key_exit_2_naming_valid_keys(tmp_path, capsys, flag, cls):
    missing = str(tmp_path / "missing.htns")
    assert _exit_code([
        "reconstruct", "--coded", missing, "--psf", missing, "--response", missing,
        "--out", str(tmp_path / "r.htns"), flag, cls.name + ":bogus=1",
    ]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'bogus'" in err
    assert "valid keys: %s" % (", ".join(sorted(cls.params)) or "none") in err


def test_unknown_schedule_exit_1_naming_the_kinds(tmp_path, capsys):
    missing = str(tmp_path / "missing.htns")
    assert _exit_code([
        "reconstruct", "--coded", missing, "--psf", missing, "--response", missing,
        "--out", str(tmp_path / "r.htns"), "--gamma-schedule", "bogus:1",
    ]) == 1
    err = capsys.readouterr().err
    assert "unknown schedule 'bogus'; valid: constant, geometric" in err
    assert "missing" not in err


def _ramp_specs(kind, name, text):
    """The ``kind`` schedule spec with value ``name`` at ``text``, the others at
    the defaults of its StageSchedule constructor."""
    defaults = inspect.signature(getattr(StageSchedule, kind)).parameters
    return "%s:%s" % (kind, ",".join(text if other == name else repr(defaults[other].default)
                                     for other in StageSchedule.ramps[kind]))


_RAMP_VALUES = [(kind, name) for kind, ramp in StageSchedule.ramps.items() for name in ramp]


@pytest.mark.parametrize("kind, name", _RAMP_VALUES, ids=["%s-%s" % v for v in _RAMP_VALUES])
def test_schedule_value_domain_edges(tmp_path, capsys, kind, name):
    # the values nearest each edge of a ramp value's domain: inside they pass
    # its check, outside they exit 2 naming the kind and the value
    inside, outside = _domain_edges(float, StageSchedule.ramps[kind][name])
    for value in inside:
        cli.parse_schedule_spec(_ramp_specs(kind, name, repr(value)), 1)
    missing = str(tmp_path / "missing.htns")
    for value in outside:
        assert _exit_code([
            "reconstruct", "--coded", missing, "--psf", missing, "--response", missing,
            "--out", str(tmp_path / "o.htns"),
            "--gamma-schedule", _ramp_specs(kind, name, repr(value)),
        ]) == 2
        err = capsys.readouterr().err
        assert "%s schedule: %s: must be in %s, got " % (
            kind, name, StageSchedule.ramps[kind][name]) in err
        assert "missing" not in err


# every declared spec key builds at the edges of its domain; the nearest
# values outside exit 2 naming the spec and the key, before any file is
# read, with the message that direct construction raises

_SPEC_KEYS = [("reconstruct", flag, cls.name + ":", cls, key)
              for flag, cls in _STRATEGIES for key in cls.params] + \
    [("simulate", "--noise", "", NoiseModel, key) for key in NoiseModel.params]
_SPEC_WHAT = {"--denoiser": "denoiser", "--init": "initializer"}


def _domain_edges(kind, domain):
    """(inside, outside): the values of ``kind`` nearest each bound on either side."""
    def step(value, direction):
        return value + direction if kind is int else math.nextafter(value, direction * math.inf)

    inside = [step(domain.lo, 1) if domain.lo_open else domain.lo]
    outside = [domain.lo if domain.lo_open else step(domain.lo, -1)]
    if domain.off is not None:
        inside.append(domain.off)
    if domain.hi is not None:
        inside.append(domain.hi)
        outside.append(step(domain.hi, 1))
    return inside, outside


@pytest.mark.parametrize("command, flag, prefix, cls, key", _SPEC_KEYS,
                         ids=["%s-%s" % (cls.__name__, key) for *_, cls, key in _SPEC_KEYS])
def test_spec_key_domain_edges(tmp_path, capsys, command, flag, prefix, cls, key):
    arg, kind, domain = cls.params[key]
    inside, outside = _domain_edges(kind, domain)
    parse = {"--noise": lambda spec: cli.parse_noise_spec(spec, 0), **_STRATEGY_PARSERS}[flag]
    for value in inside:
        assert getattr(parse("%s%s=%r" % (prefix, key, value)), arg) == value
        assert getattr(cls(**{arg: value}), arg) == value
    missing = str(tmp_path / "missing.htns")
    source = "--cube" if command == "simulate" else "--coded"
    for value in outside:
        with pytest.raises(ParameterError) as exc:
            cls(**{arg: value})
        message = str(exc.value)
        spec = "noise spec" if cls is NoiseModel else "%s %r" % (_SPEC_WHAT[flag], cls.name)
        assert message.startswith("%s: %s: must be in %s, got " % (spec, key, domain))
        assert _exit_code([
            command, source, missing, "--psf", missing, "--response", missing,
            "--out", str(tmp_path / "o.htns"), flag, "%s%s=%r" % (prefix, key, value),
        ]) == 2
        err = capsys.readouterr().err
        assert "error: %s\n" % message in err
        assert "missing" not in err


# a spec value that does not convert, a key given twice, or a prior weight
# that overflows sigma_tilde exits 2 naming the flag or spec and its key,
# before any file is read and without a numpy warning


@pytest.mark.parametrize("command, flag, spec, message", [
    ("reconstruct", "--denoiser", "tv:lambda=abc",
     "denoiser 'tv': lambda: expected a number, got 'abc'"),
    ("reconstruct", "--init", "rand:seed=1.5",
     "initializer 'rand': seed: expected an integer, got '1.5'"),
    ("simulate", "--noise", "gaussian=abc", "noise spec: gaussian: expected a number"),
    ("reconstruct", "--gamma-schedule", "geometric:abc,4",
     "--gamma-schedule geometric:abc,4, --stages 7, --prior-weight 0: GAMMA0: expected a number"),
    ("reconstruct", "--denoiser", "gaussian:std=2,std=3",
     "denoiser spec: key 'std' given more than once"),
    ("simulate", "--noise", "gaussian=1,gaussian=2",
     "noise spec: key 'gaussian' given more than once"),
    ("reconstruct", "--prior-weight", "1e308",
     "--gamma-schedule geometric:0.01,4, --stages 7, --prior-weight 1e+308: sigma_tilde"),
    ("simulate", "--noise", "gaussian=1e200", "noise spec: gaussian: must be in [0.0, 1.0]"),
], ids=["denoiser-value", "init-value", "noise-value", "schedule-value", "denoiser-repeat",
        "noise-repeat", "prior-weight-overflow", "noise-sigma-huge"])
def test_bad_spec_value_exit_2_naming_key(tmp_path, capsys, recwarn, command, flag, spec,
                                          message):
    missing = str(tmp_path / "missing.htns")
    source = "--cube" if command == "simulate" else "--coded"
    assert _exit_code([
        command, source, missing, "--psf", missing, "--response", missing,
        "--out", str(tmp_path / "o.htns"), flag, spec,
    ]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "missing" not in err
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_usage_error_unknown_initializer(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    with pytest.raises(SystemExit) as exc:
        main([
            "reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
            "--out", str(tmp_path / "r.htns"), "--init", "warm",
        ])
    assert exc.value.code == 1


def test_validation_error_exit_2(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    code = main([
        "reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
        "--out", str(tmp_path / "r.htns"), "--stages", "0",
    ])
    assert code == 2


# every key value is checked against its declared domain when the config
# resolves: before --dump-config prints, so nothing is allocated or run.  A
# -1 after a space goes through argparse's negative-number rule, so the
# space form is a case of its own

@pytest.mark.parametrize("argv", [
    ["simulate", "--seed=-1"],
    ["simulate", "--seed", "-1"],
    ["bench", "--seed=-1"],
    ["oracle-check", "--seed=-1"],
    ["bench", "--gamma=inf"],
    ["bench", "--repeats=-5"],
    ["reconstruct", "--gdm-iters=-1"],
    ["reconstruct", "--gdm-iters", "-1"],
    ["reconstruct", "--zeta", "-1"],
    ["reconstruct", "--stages=1000000000"],
    ["oracle-check", "--trials=1000000000"],
    ["evaluate", "--crop=-1"],
    ["bench", "--sizes=100000"],
    ["bench", "--sizes=2"],
    ["bench", "--sizes=3"],
    ["bench", "--sizes=8,100000"],
    ["bench", "--sizes=,"],
    ["bench", "--bands=0"],
], ids=" ".join)
def test_out_of_domain_key_exit_2_naming_flag(capsys, argv):
    assert _exit_code([*argv, "--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[1].partition("=")[0] + ":" in captured.err


# a spec string that the run refuses is refused before --dump-config prints,
# with the run's exit code and message


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--denoiser", "wavelet"],
    ["reconstruct", "--init", "warm"],
    ["reconstruct", "--denoiser", "tv:iters="],
    ["reconstruct", "--stages", "2", "--gamma-schedule", "constant:0.1,0.2"],
    ["simulate", "--noise", "none,gaussian=0.1"],
], ids=" ".join)
def test_dump_config_refuses_what_the_run_refuses(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.htns")
    source = "--cube" if argv[0] == "simulate" else "--coded"
    code = _exit_code([*argv, source, missing, "--psf", missing, "--response", missing,
                       "--out", str(tmp_path / "o.htns")])
    run = capsys.readouterr().err
    assert code in (1, 2) and "missing" not in run
    assert _exit_code([*argv, "--dump-config"]) == code
    dump = capsys.readouterr()
    assert (dump.out, dump.err) == ("", run)


def test_out_of_domain_config_file_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stages=1000000000\n")
    assert _exit_code(["reconstruct", "--config", str(cfg), "--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(cfg) in captured.err
    assert "--stages: must be in [1, 1000]" in captured.err


@pytest.mark.parametrize("value, trace", [("yes", True), ("Off", False)])
def test_config_file_boolean(tmp_path, capsys, value, trace):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trace=%s\n" % value)
    assert _exit_code(["reconstruct", "--config", str(cfg), "--dump-config"]) == 0
    assert "\ntrace=%s\n" % trace in capsys.readouterr().out


def test_bad_config_file_boolean_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trace=maybe\n")
    assert _exit_code(["reconstruct", "--config", str(cfg), "--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s: --trace: expected a boolean, got 'maybe'\n" % cfg in captured.err


def test_repeated_config_file_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("stages=3\nstages=5\n")
    assert _exit_code(["reconstruct", "--config", str(cfg), "--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s:2: key 'stages' given more than once" % cfg in captured.err


# text inputs that are not UTF-8, or that the CSV reader refuses, are
# validation errors naming the file


def test_undecodable_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"stages=\xff3\n")
    assert _exit_code(["reconstruct", "--config", str(cfg), "--dump-config"]) == 2
    assert str(cfg) + ": not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    (b"450,\xff,0,0", "not UTF-8"),
    (b"450," + b"1" * 200_000 + b",0,0", "field larger than field limit"),
], ids=["undecodable", "huge-field"])
def test_unreadable_response_csv_exit_2(tmp_path, capsys, row, message):
    psf, _ = _write_random_system(tmp_path, n_bands=1)
    cube_path, _ = _write_cube(tmp_path, shape=(8, 8, 1))
    resp = tmp_path / "bad.csv"
    resp.write_bytes(b"wavelength,r,g,b\n" + row + b"\n")
    code = main([
        "simulate", "--cube", cube_path, "--psf", psf, "--response", str(resp),
        "--out", str(tmp_path / "o.htns"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(resp) in err and message in err


# a response file's rows and a PSF tensor's rank, checked as they load: the
# library's error types are asserted in test_tensorio and test_optics


@pytest.mark.parametrize("flag, text, message", [
    ("--response", "", "empty response file"),
    ("--response", "wavelength,r,g,b\n450,1,0\n", "row 1: expected 4 fields, got 3"),
    ("--response", "wavelength,r,g,b\n450,nan,0,0\n", "row 1: non-finite value"),
    ("--response", "wavelength,r,g,b\n", "no data rows"),
    ("--psf", None, "expected a 3-D tensor, got shape (3, 3)"),
], ids=["empty", "three-fields", "nan", "header-only", "psf-2d"])
def test_refused_system_file_exit_2_naming_it(tmp_path, capsys, flag, text, message):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    inputs = {"--cube": cube_path, "--psf": psf, "--response": resp}
    if text is None:
        inputs[flag] = bad = str(tmp_path / "bad.htns")
        save_tensor(np.ones((3, 3)) / 9.0, bad)
    else:
        inputs[flag] = bad = str(tmp_path / "bad.csv")
        pathlib.Path(bad).write_text(text)
    out = tmp_path / "out.htns"
    capsys.readouterr()
    assert main(["simulate", *(item for pair in inputs.items() for item in pair),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "snapspec simulate: error: %s %s: %s\n" % (flag, bad, message) in err
    assert not out.exists()


# a refused input is named by its flag and path, so the user can tell which
# file is at fault; a check across the PSF stack and the response names both

def _write_bad_input(tmp_path, kind):
    path = tmp_path / ("bad.csv" if kind == "header" else "bad.htns")
    if kind == "magic":
        path.write_bytes(b"XXXX" + bytes(28))
    elif kind == "header":
        path.write_text("wavelength,r,g\n450,0,0\n")
    elif kind == "psf-sum":
        save_tensor(np.ones((4, 5, 5)), path)
    else:  # a coded image of two channels
        save_tensor(np.zeros((16, 16, 2)), path)
    return str(path)


_BAD_INPUTS = [
    ("simulate", "--cube", "magic", "bad magic: b'XXXX'"),
    ("simulate", "--psf", "magic", "bad magic: b'XXXX'"),
    ("simulate", "--response", "header", "bad header"),
    ("reconstruct", "--coded", "channels", "expected a 3-D tensor of depth 3, got shape"),
    ("reconstruct", "--psf", "psf-sum", "psf 0 sums to 25"),
    ("reconstruct", "--response", "header", "bad header"),
    ("evaluate", "--recon", "magic", "bad magic: b'XXXX'"),
    ("evaluate", "--gt", "magic", "bad magic: b'XXXX'"),
]


@pytest.mark.parametrize("command, flag, kind, message", _BAD_INPUTS,
                         ids=["%s%s" % (command, flag) for command, flag, *_ in _BAD_INPUTS])
def test_refused_input_names_its_flag_and_path(tmp_path, capsys, command, flag, kind, message):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    inputs = {"simulate": {"--cube": cube_path, "--psf": psf, "--response": resp},
              "reconstruct": {"--coded": _simulate_noiseless(tmp_path, psf, resp, cube_path),
                              "--psf": psf, "--response": resp},
              "evaluate": {"--recon": cube_path, "--gt": cube_path}}[command]
    inputs[flag] = bad = _write_bad_input(tmp_path, kind)
    out = tmp_path / "out.htns"
    outputs = ["--out-json", str(out)] if command == "evaluate" else ["--out", str(out)]
    capsys.readouterr()
    assert main([command, *(item for pair in inputs.items() for item in pair), *outputs]) == 2
    err = capsys.readouterr().err
    where = "%s %s" % (flag, bad)
    if kind == "psf-sum":  # a check of the system, which both files make
        where = "--psf %s, --response %s" % (bad, resp)
    assert "snapspec %s: error: %s: %s" % (command, where, message) in err
    assert not out.exists()



def test_naming_prefixes_each_key_keeps_the_type_and_reads_overflow_as_validation():
    config = {"zeta": 0.0, "stages": 7, "gamma": 2.2250738585072014e-308, "cube": "a.htns"}
    with pytest.raises(DivergenceError) as exc:
        with cli._naming(config, "zeta", "stages", "gamma", "cube"):
            raise DivergenceError("stage 2 of 7 diverged")
    assert str(exc.value) == ("--zeta 0, --stages 7, --gamma 2.2250738585072014e-308, "
                              "--cube a.htns: stage 2 of 7 diverged")
    with pytest.raises(ValidationError) as exc:
        with cli._naming(config, "cube"), np.errstate(over="raise"):
            np.float64(1e308) * 10.0
    assert type(exc.value) is ValidationError
    assert str(exc.value) == "--cube a.htns: outside the float64 range (overflow encountered in " \
        "scalar multiply)"


# a check that compares several inputs or keys names every flag whose value
# it compared, with that value; {flag: file or value} with the output added,
# and the flags named in order.  The files are those of _cross_check_inputs


def _cross_check_inputs(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    files = {"psf": psf, "resp": resp, "cube": _write_cube(tmp_path)[0],
             "cube3": _write_cube(tmp_path, shape=(16, 16, 3), name="cube3.htns")[0]}
    scene = smooth_cube(16, 16, 4)
    coded = np.random.default_rng(2).uniform(size=(16, 16, 3))
    arrays = {"coded": coded, "psf21": rotating_psf_stack(4, 21), "huge": scene * 1e307,
              "bright": scene * 1e15, "huge3": load_tensor(files["cube3"]) * 1e200,
              "psf1": rotating_psf_stack(1, 5), "psf31": rotating_psf_stack(31, 5),
              "psf-huge": np.full((4, 3, 3), 1e308), "coded-huge": coded * 1e307}
    for name, array in arrays.items():
        files[name] = str(tmp_path / (name + ".htns"))
        save_tensor(array, files[name])
    for name, response in [("resp1", rgb_response(1)), ("resp31", rgb_response(31)),
                           ("resp-huge", np.full((3, 4), 1e308))]:
        files[name] = str(tmp_path / (name + ".csv"))
        save_response_csv(files[name], np.linspace(450.0, 650.0, response.shape[1]), response)
    # two bands, rank-two Grams: the outer Schur product overflows at twice the floor
    rng = np.random.default_rng(8)
    psfs = rng.uniform(0.05, 1, (2, 5, 5))
    psfs /= psfs.sum(axis=(1, 2), keepdims=True)
    response = rng.uniform(0.05, 1, (3, 2)) * 10 ** rng.uniform(2, 4)
    files.update(psf2=str(tmp_path / "psf2.htns"), resp2=str(tmp_path / "resp2.csv"),
                 coded2=str(tmp_path / "coded2.htns"))
    save_tensor(psfs, files["psf2"])
    save_response_csv(files["resp2"], np.array([500.0, 600.0]), response)
    save_tensor(rng.uniform(size=(16, 16, 3)), files["coded2"])
    return files


_SIMULATE = {"--cube": "cube", "--psf": "psf", "--response": "resp", "--noise": "none"}
_RECONSTRUCT = {"--coded": "coded", "--psf": "psf", "--response": "resp",
                "--gamma-schedule": "geometric:0.01,4", "--stages": "7",
                "--prior-weight": "0", "--zeta": "1"}
_SCHEDULE = ["--gamma-schedule", "--stages", "--prior-weight"]
_RUN = ["--gamma-schedule", "--zeta"]
_METRICS = ["--recon", "--gt", "--crop"]
_FLOOR = "2.2250738585072014e-308"
_CROSS_CHECKS = {
    "simulate-bands": (
        "simulate", {**_SIMULATE, "--cube": "cube3"}, ["--cube", "--psf", "--response"],
        "expected a 3-D tensor of depth 4, got shape (16, 16, 3)"),
    "simulate-kernel": (
        "simulate", {**_SIMULATE, "--psf": "psf21"}, ["--cube", "--psf", "--response"],
        "kernel size 21 exceeds image extent (16, 16)"),
    "simulate-overflow": (
        "simulate", {**_SIMULATE, "--cube": "huge"}, ["--cube", "--psf", "--response"],
        "outside the float64 range ("),
    "simulate-response-overflow": (  # finite kernel sums, an overflowing encode
        "simulate", {**_SIMULATE, "--response": "resp-huge"}, ["--cube", "--psf", "--response"],
        "outside the float64 range ("),
    "simulate-psf-overflow": (  # the kernel sums overflow
        "simulate", {**_SIMULATE, "--psf": "psf-huge"}, ["--psf", "--response"],
        "outside the float64 range ("),
    "simulate-poisson-peak": (
        "simulate", {**_SIMULATE, "--cube": "bright", "--noise": "default"}, ["--cube", "--noise"],
        "noise spec: poisson_bits: a peak intensity"),
    "reconstruct-kernel": (
        "reconstruct", {**_RECONSTRUCT, "--psf": "psf21"}, ["--coded", "--psf"],
        "kernel size 21 exceeds image extent (16, 16)"),
    "reconstruct-gram-overflow": (
        "reconstruct", {**_RECONSTRUCT, "--response": "resp-huge"}, ["--psf", "--response"],
        "outside the float64 range ("),
    "reconstruct-coded-spectrum": (  # finite, but its transform's sums are not
        "reconstruct", {**_RECONSTRUCT, "--coded": "coded-huge", "--init": "adjoint"}, _RUN,
        "coded image must be finite"),
    "reconstruct-schedule-overflow": (
        "reconstruct", {**_RECONSTRUCT, "--stages": "600"}, _SCHEDULE,
        "overflows before its last stage 600"),
    "reconstruct-sigma-tilde": (
        "reconstruct", {**_RECONSTRUCT, "--prior-weight": "1e+308"}, _SCHEDULE,
        "sigma_tilde = sqrt(prior_weight / gamma) overflows"),
    "reconstruct-divergence": (
        "reconstruct", {**_RECONSTRUCT, "--zeta": "1e+300", "--stages": "20"}, _RUN,
        "diverged (overflow"),
    "reconstruct-pivot": (
        "reconstruct", {**_RECONSTRUCT, "--psf": "psf1", "--response": "resp1",
                        "--gamma-schedule": "constant:1e-20"}, _RUN,
        "pivot"),
    "reconstruct-gamma-floor": (
        "reconstruct", {**_RECONSTRUCT, "--psf": "psf31", "--response": "resp31",
                        "--gamma-schedule": "constant:" + _FLOOR, "--stages": "2"}, _RUN,
        "gamma %s below " % _FLOOR),
    "reconstruct-outer-schur": (
        "reconstruct", {**_RECONSTRUCT, "--coded": "coded2", "--psf": "psf2",
                        "--response": "resp2", "--stages": "3",
                        "--gamma-schedule": "constant:4.3959593196555315e-304"},
        _RUN, "stage 2 of 3: outer Schur pivot -inf below 0.5 at gamma 4.39596e-304"),
    "evaluate-bands": (
        "evaluate", {"--recon": "cube", "--gt": "cube3", "--crop": "0"}, _METRICS,
        "shape mismatch: (16, 16, 4) vs (16, 16, 3)"),
    "evaluate-crop": (
        "evaluate", {"--recon": "cube3", "--gt": "cube3", "--crop": "3"}, _METRICS,
        "crop 3 on extent (16, 16) leaves less"),
    "evaluate-overflow": (
        "evaluate", {"--recon": "huge3", "--gt": "cube3", "--crop": "0"}, _METRICS,
        "outside the float64 range ("),
    "bench-gamma-floor": (
        "bench", {"--sizes": "8", "--bands": "8", "--repeats": "1", "--gamma": _FLOOR},
        ["--gamma"], "gamma %s below " % _FLOOR),
}


@pytest.mark.parametrize("command, args, named, message", _CROSS_CHECKS.values(),
                         ids=list(_CROSS_CHECKS))
def test_cross_input_refusal_names_every_flag_it_compared(tmp_path, capsys, recwarn, command,
                                                         args, named, message):
    files = _cross_check_inputs(tmp_path)
    argv = {flag: files.get(value, value) for flag, value in args.items()}
    out = tmp_path / "out.txt"
    argv["--out-json" if command == "evaluate" else "--out"] = str(out)
    capsys.readouterr()
    assert main([command, *(item for pair in argv.items() for item in pair)]) == 2
    err = capsys.readouterr().err
    where = ", ".join("%s %s" % (flag, argv[flag]) for flag in named)
    assert err.startswith("snapspec %s: error: %s: " % (command, where))
    assert message in err
    assert not out.exists() and not pathlib.Path(str(out) + ".manifest.json").exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("simulate", ["--noise", "gaussian=nan"], "finite"),
        ("reconstruct", ["--zeta", "nan"], "finite"),
        ("reconstruct", ["--prior-weight", "nan"], "finite"),
        ("reconstruct", ["--denoiser", "tv:lambda=nan"], "finite"),
        ("reconstruct", ["--denoiser", "gaussian:std=inf"], "finite"),
        ("reconstruct", ["--init", "rand:seed=-1"], "must be"),
        ("reconstruct", ["--denoiser", "gaussian:std=1e308"], "must be"),
        ("reconstruct", ["--gamma-schedule", "constant:1e-320"], "gamma"),
    ],
    ids=["noise-sigma", "zeta", "sigma-tilde", "tv-weight", "gaussian-std",
         "rand-seed-negative", "gaussian-std-huge", "gamma-subnormal"],
)
def test_non_finite_parameter_exit_2(tmp_path, capsys, command, flags, message):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path)
    inputs = ["--cube", cube_path] if command == "simulate" else [
        "--coded", _simulate_noiseless(tmp_path, psf, resp, cube_path)
    ]
    out = tmp_path / "out.htns"
    capsys.readouterr()
    code = main([
        command, *inputs, "--psf", psf, "--response", resp, "--out", str(out), *flags,
    ])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_poisson_peak_beyond_sampler_exit_2_naming_bits(tmp_path, capsys, recwarn):
    psf, resp = _write_random_system(tmp_path)
    cube_path = str(tmp_path / "bright.htns")
    save_tensor(smooth_cube(16, 16, 4) * 1e15, cube_path)
    out = tmp_path / "out.htns"
    assert main(["simulate", "--cube", cube_path, "--psf", psf, "--response", resp,
                 "--out", str(out), "--noise", "default"]) == 2
    err = capsys.readouterr().err
    assert "noise spec: poisson_bits: a peak intensity of " in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


# a scene near the top of the float range, and one of +-1.7e308 pixels: a
# transform of the encode overflows on each, and raises there
_OVERFLOWING_CUBES = [smooth_cube(16, 16, 4) * 1e307,
                      np.random.default_rng(0).choice([-1.7e308, 1.7e308], (16, 16, 4))]


@pytest.mark.parametrize("cube", _OVERFLOWING_CUBES)
def test_encode_overflow_exit_2_naming_cube(tmp_path, capsys, recwarn, cube):
    psf, resp = _write_random_system(tmp_path)
    cube_path = str(tmp_path / "bright.htns")
    save_tensor(cube, cube_path)
    out = tmp_path / "out.htns"
    assert main(["simulate", "--cube", cube_path, "--psf", psf, "--response", resp,
                 "--out", str(out), "--noise", "none"]) == 2
    assert "--cube %s, --psf %s, --response %s: outside the float64 range" % (
        cube_path, psf, resp) in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


# the writers run inside the naming of the step that made their image: on a
# 1 x 1 grid no transform divides the values down, and channels or bands near
# the float64 maximum overflow a preview's band mean
@pytest.mark.parametrize("command, image, flags, where", [
    ("simulate", np.full((1, 1, 4), 1.7e308), ["--cube", "{image}", "--noise", "none"],
     "--cube {image}, --noise none"),
    ("reconstruct", np.full((1, 1, 3), 5e307), ["--coded", "{image}", "--stages", "1"],
     "--gamma-schedule geometric:0.01,4, --zeta 1"),
], ids=["simulate", "reconstruct"])
def test_overflowing_preview_exit_2_leaving_no_file(tmp_path, capsys, recwarn, command, image,
                                                    flags, where):
    image_path, psf, resp = (str(tmp_path / name) for name in ("image.htns", "psf.htns",
                                                               "resp.csv"))
    save_tensor(image, image_path)
    save_tensor(np.ones((4, 1, 1)), psf)
    save_response_csv(resp, np.linspace(450.0, 650.0, 4), np.full((3, 4), 0.25))
    base = [command, "--psf", psf, "--response", resp, "--out", str(tmp_path / "out.htns"),
            *(flag.format(image=image_path) for flag in flags)]
    capsys.readouterr()
    assert main([*base, "--export-pgm", str(tmp_path / "out.pgm")]) == 2
    assert "%s: outside the float64 range (overflow encountered in reduce)" \
        % where.format(image=image_path) in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["image.htns", "psf.htns", "resp.csv"]
    assert main(base) == 0  # without the preview the run stands
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_rmse_map_never_reads_the_unmeasured_border(tmp_path, recwarn):
    # the border's difference overflows; the map, like the metrics, skips it
    recon = smooth_cube(16, 16, 3)
    gt = recon.copy()
    recon[0, 0, 0], gt[0, 0, 0] = 1.7e308, -1.7e308
    recon_path, gt_path = str(tmp_path / "recon.htns"), str(tmp_path / "gt.htns")
    save_tensor(recon, recon_path)
    save_tensor(gt, gt_path)
    rmse_path = str(tmp_path / "rmse.csv")
    assert main(["evaluate", "--recon", recon_path, "--gt", gt_path, "--crop", "2",
                 "--rmse-csv", rmse_path]) == 0
    assert np.array_equal(np.loadtxt(rmse_path, delimiter=","), np.zeros((12, 12)))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("stages", ["1", "3"])
def test_trace_of_a_bright_scene_changes_no_exit_code_or_cube(tmp_path, recwarn, stages):
    # the squared residual of a 1e300 scene overflows; the trace says inf
    psf, resp = _write_random_system(tmp_path)
    cube_path = str(tmp_path / "bright.htns")
    save_tensor(smooth_cube(16, 16, 4) * 1e300, cube_path)
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    base = ["reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
            "--stages", stages]
    assert main([*base, "--out", str(tmp_path / "plain.htns")]) == 0
    assert main([*base, "--out", str(tmp_path / "traced.htns"), "--trace"]) == 0
    assert (tmp_path / "plain.htns").read_bytes() == (tmp_path / "traced.htns").read_bytes()
    rows = (tmp_path / "traced.htns.trace.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["inf"] * int(stages)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_diverging_zeta_exit_2_naming_flag_and_stage(tmp_path, capsys, recwarn):
    psf, resp = _write_random_system(tmp_path)
    cube_path, _ = _write_cube(tmp_path, shape=(8, 8, 4))
    coded = _simulate_noiseless(tmp_path, psf, resp, cube_path)
    out = tmp_path / "out.htns"
    capsys.readouterr()
    code = main([
        "reconstruct", "--coded", coded, "--psf", psf, "--response", resp,
        "--out", str(out), "--zeta", "1e300", "--stages", "20",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--gamma-schedule geometric:0.01,4, --zeta 1e+300: stage " in err and "diverged" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_gamma_too_small_for_pivots_exit_2_naming_flag_and_stage(tmp_path, capsys):
    # one band makes every Gram rank one; at gamma 1e-20 rounding drives a
    # pivot that is >= 1 in exact arithmetic below the guard's 1/2
    psf_path, resp_path = tmp_path / "psf.htns", tmp_path / "resp.csv"
    save_tensor(rotating_psf_stack(1, 5), psf_path)
    save_response_csv(resp_path, np.array([550.0]), rgb_response(1))
    cube_path = tmp_path / "cube.htns"
    save_tensor(smooth_cube(16, 16, 1), cube_path)
    coded = _simulate_noiseless(tmp_path, str(psf_path), str(resp_path), str(cube_path))
    out = tmp_path / "out.htns"
    capsys.readouterr()
    code = main([
        "reconstruct", "--coded", coded, "--psf", str(psf_path), "--response", str(resp_path),
        "--out", str(out), "--gamma-schedule", "constant:1e-20",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--gamma-schedule constant:1e-20, --zeta 1: stage 2 of 7: " in err
    assert re.search(r"Schur pivot -?[0-9.e+]+ below 0\.5 at gamma 1e-20, too small", err)
    assert not out.exists()


@pytest.mark.parametrize("size, gamma, message", [
    ("8", "1e-17", "--gamma 1e-17: gamma too small against ||Phi||^2"),
    ("4", "1e-300", "--gamma 1e-300: gamma too small against ||Phi||^2"),
    ("8", "1e-320", "--gamma: must be in [2.2250738585072014e-308, inf), got 1e-320"),
], ids=["cholesky-1e-17", "cholesky-1e-300", "reciprocal-1e-320"])
def test_bench_gamma_too_small_exit_2_naming_flag(capsys, monkeypatch, size, gamma, message):
    # the dense solve fails before any GDM row runs, not after matched GDM's cap
    def no_gdm(*args):
        raise AssertionError("GDM ran before the gamma failure")

    monkeypatch.setattr(cli, "gdm_fidelity_step", no_gdm)
    code = main(["bench", "--sizes", size, "--bands", "4", "--repeats", "1", "--gamma", gamma])
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_bench_gamma_range_refused_before_dump_config(tmp_path, capsys):
    # the flag and the config key are checked against GAMMA at config
    # resolution, before --dump-config prints: the range the solves accept
    config = tmp_path / "bench.cfg"
    for text in ("2.2250738585072014e-308", "2.225073858507201e-308", "1e-320"):
        config.write_text("gamma=%s\n" % text)
        for argv in (["--gamma", text], ["--config", str(config)]):
            code = _exit_code(["bench", *argv, "--dump-config"])
            captured = capsys.readouterr()
            if text.startswith("2.2250738585072014"):
                assert code == 0 and "gamma=%s\n" % text in captured.out
                continue
            assert code == 2 and captured.out == ""
            assert "--gamma: must be in [2.2250738585072014e-308, inf), got " in captured.err
            assert (str(config) in captured.err) == (argv[0] == "--config")
    code = _exit_code(["bench", "--gamma", "inf", "--dump-config"])
    assert code == 2 and "--gamma: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("stages", [600, 1000])
def test_overflowing_default_schedule_exit_2_naming_flags(tmp_path, capsys, recwarn, stages):
    # the default geometric:0.01,4 ramp leaves the float range near stage 510
    psf, resp = _write_random_system(tmp_path)
    code = main([
        "reconstruct", "--coded", str(tmp_path / "unread.htns"), "--psf", psf,
        "--response", resp, "--out", str(tmp_path / "out.htns"), "--stages", str(stages),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--gamma-schedule geometric:0.01,4, --stages %d, --prior-weight 0:" % stages in err
    assert "overflows" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# spec-string fuzz: whatever the strings, the CLI ends in a documented exit
# code (0 ok, 1 usage, 2 validation, 3 i/o), never in a traceback

_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "1e308", "-1e308", "1e-320", "abc", "0x10", " 1", "1000000000",
                     "1" + "0" * 399]),
)


def _params(keys):
    pair = st.tuples(st.sampled_from(keys), _VALUES).map("=".join)
    return st.lists(pair, max_size=3).map(",".join)


def _named(names, keys):
    """'name' or 'name:k=v,...' with a known name, or arbitrary text."""
    structured = st.tuples(st.sampled_from(names), _params(keys)).map(
        lambda t: t[0] + (":" + t[1] if t[1] else "")
    )
    # listed twice so that two draws in three get past the name check
    return st.one_of(structured, structured, st.text(max_size=16))


_NOISE_SPECS = st.one_of(
    st.sampled_from(["none", "default"]),
    _params(["gaussian", "poisson_bits", "other"]),
    st.text(max_size=16),
)
_DENOISER_SPECS = _named(["identity", "gaussian", "tv", "quadratic"],
                         ["std", "lambda", "iters", "other"])
_INIT_SPECS = _named(["zero", "rand", "mean", "adjoint"], ["seed", "other"])
_SCHEDULE_SPECS = st.one_of(
    st.tuples(
        st.sampled_from(["geometric", "constant"]),
        st.lists(_VALUES, min_size=1, max_size=3).map(",".join),
    ).map(":".join),
    st.text(max_size=16),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    psf, resp = _write_random_system(tmp)
    cube_path, _ = _write_cube(tmp, shape=(8, 8, 4))
    return tmp, psf, resp, cube_path, _simulate_noiseless(tmp, psf, resp, cube_path)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@settings(max_examples=40, deadline=None)
@given(noise=_NOISE_SPECS, denoiser=_DENOISER_SPECS, init=_INIT_SPECS,
       schedule=_SCHEDULE_SPECS)
@example(noise="none", denoiser="gaussian:std=1e308", init="mean",
         schedule="geometric:0.01,4")
@example(noise="none", denoiser="identity", init="rand:seed=-1",
         schedule="geometric:0.01,4")
def test_spec_strings_end_in_documented_exit_code(fuzz_dir, noise, denoiser, init, schedule):
    tmp, psf, resp, cube_path, coded = fuzz_dir
    system = ["--psf", psf, "--response", resp]
    runs = [["simulate", "--cube", cube_path, *system, "--out", str(tmp / "sim.htns"),
             "--noise=" + noise]]
    # one reconstruct per spec, the others at their defaults, so that a
    # malformed spec does not hide what another one would do
    for flag, spec in (("--denoiser", denoiser), ("--init", init),
                       ("--gamma-schedule", schedule)):
        runs.append(["reconstruct", "--coded", coded, *system,
                     "--out", str(tmp / "rec.htns"), "--stages", "2", flag + "=" + spec])
    for argv in runs:
        assert _exit_code(argv) in (0, 1, 2, 3), argv[-1]


def _numeric_keys(command):
    """Numeric keys and the numeric comma-list keys."""
    keys = build_parser().parse_args([command]).keys
    return [key for key in keys if type(key.default) in (int, float) or key.listed]


def _key_values(key):
    return st.lists(_VALUES, min_size=1, max_size=3).map(",".join) if key.listed else _VALUES


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_numeric_keys_resolve_inside_domain_or_exit_2(command, data):
    keys = _numeric_keys(command)
    chosen = data.draw(st.lists(st.sampled_from(keys), unique_by=lambda key: key.name))
    argv = [command, *("%s=%s" % (key.flag, data.draw(_key_values(key))) for key in chosen),
            "--dump-config"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = _exit_code(argv)
    assert code in (0, 2), argv
    if code == 0:
        dumped = dict(line.split("=", 1) for line in out.getvalue().splitlines())
        for key in keys:
            key.parse(dumped[key.name])  # raises outside the key's domain


@pytest.mark.parametrize("command", COMMANDS)
def test_key_defaults_inside_their_domains(command):
    for key in build_parser().parse_args([command]).keys:
        if type(key.default) in (int, float):
            assert key.domain, key.name  # every numeric key declares one
        key.parse(str(key.default))  # raises outside the key's domain


# pipeline fuzz: simulate -> reconstruct -> evaluate on 16x16x4 cubes from
# black to far past the sensor's range, with spec and numeric values at and
# just past the edges of their declared domains.  Each step ends in a
# documented exit code without a traceback or numpy warning, every tensor
# written reloads finite, and the report is strict JSON.


def _edge_texts(kind, domain):
    """Values at and just past each bound, and the float range's top for an
    unbounded float domain."""
    inside, outside = _domain_edges(kind, domain)
    top = [1e308] if kind is float and domain.hi is None else []
    return [repr(value) for value in inside + outside + top]


def _edge_specs(registry):
    return list(registry) + [
        "%s:%s=%s" % (name, key, text) for name, cls in registry.items()
        for key, (_, kind, domain) in cls.params.items() for text in _edge_texts(kind, domain)]


_SIMULATE_EDGES = {
    "--noise": ["none", "default", "poisson_bits=7", "poisson_bits=8"] + [
        "%s=%s" % (key, text) for key, (_, kind, domain) in NoiseModel.params.items()
        for text in _edge_texts(kind, domain)],
    **{key.flag: _edge_texts(type(key.default), key.domain) for key in _numeric_keys("simulate")},
}
# a run at the top of --stages or --gdm-iters takes seconds; the --dump-config
# fuzz above covers those two edges
_RECONSTRUCT_EDGES = {
    "--denoiser": _edge_specs(DENOISERS),
    "--init": _edge_specs(INITIALIZERS),
    "--gamma-schedule": [_ramp_specs(kind, name, text) for kind, name in _RAMP_VALUES
                         for text in _edge_texts(float, StageSchedule.ramps[kind][name])],
    **{key.flag: [text for text in _edge_texts(type(key.default), key.domain)
                  if text not in ("1000", "10000")] for key in _numeric_keys("reconstruct")},
}
# the domain edges of --gdm-iters are the exact solve (0) and refusals; these
# run gradient stages
_RECONSTRUCT_EDGES["--gdm-iters"] += ["1", "10"]


def _edge_flags(data, edges):
    """Up to two of ``edges``' flags, each with one of its values."""
    flags = data.draw(st.lists(st.sampled_from(sorted(edges)), unique=True, max_size=2))
    return ["%s=%s" % (flag, data.draw(st.sampled_from(edges[flag]))) for flag in flags]


@settings(max_examples=100, deadline=None)
@given(scale=st.sampled_from([0.0, 1.0, 1e15, 1e150]), data=st.data())
def test_pipeline_chains_end_in_documented_exit_codes(fuzz_dir, scale, data):
    tmp, psf, resp, _, _ = fuzz_dir
    cube, coded, recon, report = (str(tmp / name) for name in
                                  ("chain_cube.htns", "chain_sim.htns", "chain_rec.htns",
                                   "chain_eval.json"))
    for path in (coded, recon, report):
        if os.path.exists(path):
            os.remove(path)
    save_tensor(smooth_cube(16, 16, 4) * scale, cube)
    system = ["--psf", psf, "--response", resp]
    steps = [
        ["simulate", "--cube", cube, *system, "--out", coded,
         *_edge_flags(data, _SIMULATE_EDGES)],
        ["reconstruct", "--coded", coded, *system, "--out", recon, "--stages", "3", "--trace",
         *_edge_flags(data, _RECONSTRUCT_EDGES)],
        ["evaluate", "--recon", recon, "--gt", cube, "--crop", "0", "--out-json", report],
    ]
    for argv in steps:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _exit_code(argv)
        assert code in (0, 1, 2, 3, 4), argv
        assert "Traceback" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
        for path in (coded, recon):
            if os.path.exists(path):
                assert np.all(np.isfinite(load_tensor(path)))
        if code:
            break
    else:
        def refuse(constant):
            raise ValueError("non-finite %s in the report" % constant)
        with open(report, encoding="utf-8") as fh:
            json.loads(fh.read(), parse_constant=refuse)


# path fuzz: a command's outputs drawn from names that include its inputs, a
# symlink to one, other spellings of one name, each other's sidecars, a
# directory and a name in a missing directory.  A draw in which two paths,
# sidecars included, resolve to one file exits 2, one that writes to a
# directory or into a missing one exits 3, and each leaves every file as it
# was; any other draw exits 0.  No draw leaves a temporary file.

_PATH_POOL = ["cube.htns", "psf.htns", "resp.csv", "coded.htns", "link.htns", "a.htns",
              "./a.htns", "sub/../a.htns", "b.htns", "a.htns.manifest.json",
              "a.htns.trace.csv", "b.htns.manifest.json", "sub", "nodir/a.htns"]
_PATH_COMMANDS = {
    "simulate": ({"--cube": "cube.htns", "--psf": "psf.htns", "--response": "resp.csv"},
                 ["--out", "--export-pgm"], ["--noise", "none"]),
    "reconstruct": ({"--coded": "coded.htns", "--psf": "psf.htns", "--response": "resp.csv"},
                    ["--out", "--export-pgm"], ["--stages", "2"]),
    "evaluate": ({"--recon": "cube.htns", "--gt": "link.htns"},
                 ["--out-json", "--rmse-csv"], ["--crop", "0"]),
}


@pytest.fixture(scope="module")
def path_fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("paths")
    _write_random_system(tmp)
    _write_cube(tmp)
    save_tensor(np.random.default_rng(2).uniform(size=(16, 16, 3)), tmp / "coded.htns")
    return tmp


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(sorted(_PATH_COMMANDS)), data=st.data())
def test_path_collisions_refused_before_any_write(path_fuzz_dir, command, data):
    inputs, output_flags, extra = _PATH_COMMANDS[command]
    outputs = {}
    for flag in output_flags:  # "" leaves an optional output out
        pool = _PATH_POOL if flag == "--out" else _PATH_POOL + [""]
        outputs[flag] = data.draw(st.sampled_from(pool), label=flag)
    outputs = {flag: path for flag, path in outputs.items() if path}
    trace = command == "reconstruct" and data.draw(st.booleans(), label="--trace")
    work = pathlib.Path(tempfile.mkdtemp(dir=path_fuzz_dir))
    for name in ("cube.htns", "psf.htns", "resp.csv", "coded.htns"):
        shutil.copy(path_fuzz_dir / name, work / name)
    (work / "sub").mkdir()
    (work / "link.htns").symlink_to("cube.htns")

    # what the command should do, from each path's resolved name
    written = list(outputs.values())
    if trace:
        written.append(outputs["--out"] + ".trace.csv")
    if written:
        written.append(written[0] + ".manifest.json")
    real = [os.path.realpath(work / path) for path in written]
    seen = [os.path.realpath(work / path) for path in inputs.values()]
    clash = any(path in seen + real[:i] for i, path in enumerate(real))
    to_dir = any(os.path.isdir(path) for path in real)
    missing = any(not os.path.isdir(os.path.dirname(path)) for path in real)

    argv = [command, *(part for item in {**inputs, **outputs}.items() for part in item),
            *extra, *(["--trace"] if trace else [])]
    argv = [str(work / part) if part in _PATH_POOL else part for part in argv]
    before = _tree(work)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = _exit_code(argv)
    assert not list(work.rglob(".*")), argv
    if not (clash or to_dir or missing):
        assert code == 0, argv
        return
    assert code in ((2, 3) if clash and to_dir else (2,) if clash else (3,)), argv
    assert _tree(work) == before


def test_corrupt_tensor_exit_2(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    bad = tmp_path / "bad.htns"
    bad.write_bytes(b"XXXX" + b"\x00" * 32)
    code = main([
        "simulate", "--cube", str(bad), "--psf", psf, "--response", resp,
        "--out", str(tmp_path / "o.htns"),
    ])
    assert code == 2


def test_overflowing_tensor_header_exit_2(tmp_path, capsys):
    # extents 2**32 x 2**32: an int64 element count would wrap to 0
    cube_path, _ = _write_cube(tmp_path, shape=(4, 4, 3))
    bad = tmp_path / "huge.htns"
    bad.write_bytes(b"HTNS" + struct.pack("<HBB", 1, 2, 2) + struct.pack("<2Q", 2**32, 2**32))
    code = main(["evaluate", "--recon", str(bad), "--gt", cube_path])
    assert code == 2
    assert "unexpected end of payload" in capsys.readouterr().err


def test_missing_file_exit_3(tmp_path):
    psf, resp = _write_random_system(tmp_path)
    code = main([
        "simulate", "--cube", str(tmp_path / "nope.htns"), "--psf", psf,
        "--response", resp, "--out", str(tmp_path / "o.htns"),
    ])
    assert code == 3


# no output overwrites an input or another output: every path a command reads
# or writes, sidecars included, is resolved before anything is written


def _tree(directory):
    """{path: bytes} of every file under ``directory``."""
    return {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}


@pytest.fixture
def pipeline_dir(tmp_path, monkeypatch):
    """A directory holding psf.htns, resp.csv, cube.htns (16 x 16 x 4),
    coded.htns and a simulate config run.cfg, made the working directory so
    that paths read as given."""
    monkeypatch.chdir(tmp_path)
    _write_random_system(tmp_path)
    _write_cube(tmp_path)
    (tmp_path / "run.cfg").write_text("noise=none\n")
    _simulate_noiseless(tmp_path, "psf.htns", "resp.csv", "cube.htns")
    return tmp_path


_SYSTEM = ["--psf", "psf.htns", "--response", "resp.csv"]


@pytest.mark.parametrize("argv, first, second", [
    (["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "cube.htns"], "--cube", "--out"),
    (["reconstruct", "--coded", "coded.htns", *_SYSTEM, "--out", "psf.htns"], "--psf", "--out"),
    (["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "x.htns", "--export-pgm", "x.htns"],
     "--out", "--export-pgm"),
    (["evaluate", "--recon", "cube.htns", "--gt", "cube.htns", "--out-json", "r.txt",
      "--rmse-csv", "r.txt"], "--out-json", "--rmse-csv"),
    (["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "x.htns",
      "--export-pgm", "./x.htns.manifest.json"], "--export-pgm", "--out manifest"),
    (["reconstruct", "--coded", "coded.htns", *_SYSTEM, "--out", "x.htns", "--trace",
      "--export-pgm", "x.htns.trace.csv"], "--export-pgm", "--out trace"),
    (["simulate", "--config", "run.cfg", "--cube", "cube.htns", *_SYSTEM, "--out", "run.cfg"],
     "--config", "--out"),
], ids=["scene", "psf", "pgm", "report", "manifest", "trace", "config"])
def test_colliding_paths_exit_2_naming_both_before_any_write(pipeline_dir, capsys, argv,
                                                             first, second):
    before = _tree(pipeline_dir)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: %s " % first in err and " and %s " % second in err
    assert "are the same file" in err
    assert _tree(pipeline_dir) == before


# a run that fails after its checks leaves no file under any output name, and
# an earlier run's outputs and manifest as they were.  Each rerun changes a
# key, so that its outputs would differ from the first run's (bench's timings
# differ anyway).

_WRITERS = [
    (["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "x.htns", "--noise", "none"],
     ["--noise", "default"], cli, "save_tensor"),
    (["reconstruct", "--coded", "coded.htns", *_SYSTEM, "--out", "rec.htns", "--stages", "2",
      "--trace", "--export-pgm", "rec.pgm"], ["--stages", "3"], np, "savetxt"),
    (["evaluate", "--recon", "cube.htns", "--gt", "cube.htns", "--crop", "0",
      "--out-json", "r.json", "--rmse-csv", "rmse.csv"], ["--crop", "2"], np, "savetxt"),
    (["bench", "--sizes", "6", "--bands", "4", "--repeats", "1", "--out", "bench.csv"],
     [], cli, "_write_text"),
]


@pytest.mark.parametrize("argv, rerun, owner, writer", _WRITERS,
                         ids=["simulate", "reconstruct", "evaluate", "bench"])
def test_failed_last_write_exit_3_keeps_earlier_run(pipeline_dir, capsys, monkeypatch, argv,
                                                    rerun, owner, writer):
    assert main(argv) == 0
    before = _tree(pipeline_dir)
    write = getattr(owner, writer)

    def write_then_fail(*args, **kwargs):  # the command's last writer
        write(*args, **kwargs)
        raise OSError(errno.ENOSPC, "injected write failure")

    monkeypatch.setattr(owner, writer, write_then_fail)
    capsys.readouterr()
    assert main(argv + rerun) == 3
    assert "i/o error: [Errno 28] injected write failure" in capsys.readouterr().err
    assert _tree(pipeline_dir) == before


# numpy's own message for a failed allocation
_NO_MEMORY = "Unable to allocate 16.0 MiB for an array with shape (512, 512, 8)"


@pytest.mark.parametrize("argv, owner, name", [
    (["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "x.htns", "--noise", "none"],
     optics, "apply_forward_frequency"),
    (["reconstruct", "--coded", "coded.htns", *_SYSTEM, "--out", "rec.htns", "--stages", "3",
      "--trace"], unfolding, "fidelity_solve"),
    (["evaluate", "--recon", "cube.htns", "--gt", "cube.htns", "--crop", "0",
      "--out-json", "r.json"], metrics, "ssim"),
    # after the first output's temporary file is written
    (["evaluate", "--recon", "cube.htns", "--gt", "cube.htns", "--crop", "0",
      "--rmse-csv", "rmse.csv", "--out-json", "r.json"], np, "savetxt"),
], ids=["simulate", "reconstruct", "evaluate", "evaluate-write"])
def test_out_of_memory_exit_3_without_traceback_or_files(pipeline_dir, capsys, monkeypatch,
                                                         argv, owner, name):
    before = _tree(pipeline_dir)
    call = getattr(owner, name)

    def allocate(*args, **kwargs):
        if owner is np:  # let the write start, as a full disk would
            call(*args, **kwargs)
        raise MemoryError(_NO_MEMORY)

    monkeypatch.setattr(owner, name, allocate)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.endswith("snapspec %s: error: out of memory: %s\n" % (argv[0], _NO_MEMORY))
    assert "Traceback" not in err
    assert _tree(pipeline_dir) == before


def test_address_space_limit_exit_3_without_traceback_or_files(tmp_path):
    # a real allocation failure, in a child process under an address-space
    # limit: the address space that importing snapspec.cli takes with one
    # OpenBLAS thread (each more thread reserves about 80 MB), plus 16 MiB.
    # That leaves room for the inputs, but not for the 32 MiB transfer of a
    # 256 x 256 x 64 operator, the run's first large allocation, made before
    # any BLAS call (OpenBLAS exits 1 itself when its own buffer cannot be had)
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS") or not os.path.exists("/proc/self/status"):
        pytest.skip("needs RLIMIT_AS and /proc/self/status")
    save_tensor(np.random.default_rng(0).uniform(size=(256, 256, 3)), tmp_path / "coded.htns")
    save_tensor(rotating_psf_stack(64, 3), tmp_path / "psf.htns")
    save_response_csv(tmp_path / "resp.csv", np.linspace(450.0, 650.0, 64), rgb_response(64))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    base_kib = int(subprocess.run(
        [sys.executable, "-c", "import snapspec.cli; print(next(int(line.split()[1]) for line "
         "in open('/proc/self/status') if line.startswith('VmPeak:')))"],
        env=env, capture_output=True, text=True, check=True).stdout)
    limit = (base_kib + 16384) * 1024

    def limit_address_space():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    before = _tree(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "snapspec.cli", "reconstruct", "--coded", "coded.htns",
         "--psf", "psf.htns", "--response", "resp.csv", "--out", "oom.htns"],
        cwd=tmp_path, env=env, capture_output=True, text=True, preexec_fn=limit_address_space)
    assert proc.returncode == 3, proc.stderr
    assert re.search(r"^snapspec reconstruct: error: out of memory: ", proc.stderr, re.MULTILINE)
    assert "Traceback" not in proc.stderr
    assert _tree(tmp_path) == before  # no output, manifest or temporary file


_REPEAT_PIPELINE = """
import contextlib, io, json, resource, sys
from snapspec import cli
peaks = []
for _ in range(3):
    for args in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(args) == 0
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(*peaks)
"""


def test_repeated_commands_in_one_process_keep_their_peak_rss(tmp_path):
    # the pipeline three times in a fresh process: without a fixed mmap
    # threshold glibc serves the second run's cubes from the heap, and its
    # peak RSS rose by one cube (4 MiB at 256 x 256 x 8); now by about 0.5
    resource = pytest.importorskip("resource")
    if sys.platform != "linux":
        pytest.skip("ru_maxrss in KiB and glibc's allocator")
    cube, _ = _write_cube(tmp_path, shape=(256, 256, 8))
    psf, resp = _write_random_system(tmp_path, n_bands=8, kernel=15)
    system = ["--psf", psf, "--response", resp]
    coded, recon = str(tmp_path / "coded.htns"), str(tmp_path / "recon.htns")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    commands = [["simulate", "--cube", cube, *system, "--out", coded],
                 ["reconstruct", "--coded", coded, *system, "--out", recon, "--trace"],
                 ["evaluate", "--recon", recon, "--gt", cube]]
    proc = subprocess.run([sys.executable, "-c", _REPEAT_PIPELINE, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, _, third = map(int, proc.stdout.split())
    assert third - first < 2048, (first, third)  # KiB: under half a cube


@pytest.mark.parametrize("argv", [
    ["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "x.htns", "--export-pgm",
     "nodir/x.pgm"],
    ["reconstruct", "--coded", "coded.htns", *_SYSTEM, "--out", "rec.htns", "--stages", "2",
     "--trace", "--export-pgm", "nodir/p.pgm"],
    ["evaluate", "--recon", "coded.htns", "--gt", "coded.htns", "--crop", "0",
     "--out-json", "rep.json", "--rmse-csv", "nodir/r.csv"],
], ids=["simulate", "reconstruct", "evaluate"])
def test_output_in_missing_directory_exit_3_writes_nothing(pipeline_dir, capsys, argv):
    before = _tree(pipeline_dir)
    assert main(argv) == 3
    assert "No such file or directory: 'nodir/" in capsys.readouterr().err
    assert _tree(pipeline_dir) == before


def test_output_directory_exit_3_before_any_write(pipeline_dir, capsys):
    (pipeline_dir / "preview").mkdir()
    before = _tree(pipeline_dir)
    assert main(["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "x.htns",
                 "--export-pgm", "preview"]) == 3
    assert "Is a directory: 'preview'" in capsys.readouterr().err
    assert _tree(pipeline_dir) == before


@pytest.mark.parametrize("argv, fifo", [
    (["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "x.htns", "--noise", "none",
      "--export-pgm", "pipe"], "pipe"),
    (["reconstruct", "--coded", "coded.htns", *_SYSTEM, "--out", "pipe", "--stages", "2"],
     "pipe"),
    (["evaluate", "--recon", "cube.htns", "--gt", "cube.htns", "--crop", "0",
      "--out-json", "pipe"], "pipe"),
    (["bench", "--sizes", "6", "--bands", "4", "--repeats", "1", "--out", "pipe"], "pipe"),
    (["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "x.htns", "--noise", "none"],
     "x.htns.manifest.json"),
], ids=["simulate", "reconstruct", "evaluate", "bench", "manifest"])
def test_output_that_is_not_a_regular_file_exit_3_left_intact(pipeline_dir, capsys, argv, fifo):
    os.mkfifo(fifo)
    before = _tree(pipeline_dir)
    assert main(argv) == 3
    assert "Not a regular file: '%s'" % fifo in capsys.readouterr().err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert _tree(pipeline_dir) == before  # no output, manifest or temporary file


def test_longest_output_names_publish(pipeline_dir, capsys):
    # the manifest adds 14 characters to the first output's name, and the
    # temporary files' names do not grow with it
    longest = os.pathconf(".", "PC_NAME_MAX") - len(".manifest.json")
    out = "o" * (longest - len(".htns")) + ".htns"
    assert main(["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", out,
                 "--noise", "none"]) == 0
    assert load_tensor(out).shape == (16, 16, 3)
    assert os.path.exists(out + ".manifest.json")
    gz = "r" * (longest - len(".csv.gz")) + ".csv.gz"
    evaluate = ["evaluate", "--recon", "coded.htns", "--gt", out, "--crop", "0", "--rmse-csv"]
    assert main(evaluate + [gz]) == 0
    assert main(evaluate + ["r.csv"]) == 0
    assert gzip.decompress(pathlib.Path(gz).read_bytes()) == pathlib.Path("r.csv").read_bytes()
    capsys.readouterr()
    before = _tree(pipeline_dir)
    for argv in (["simulate", "--cube", "cube.htns", *_SYSTEM, "--out", "o" + out,
                  "--noise", "none"], evaluate + ["r" + gz]):
        assert main(argv) == 3
        assert "File name too long" in capsys.readouterr().err
        assert _tree(pipeline_dir) == before


def test_nul_byte_path_exit_2(pipeline_dir, capsys):
    cfg = pipeline_dir / "run.cfg"
    cfg.write_text("out=x\0.htns\n")
    before = _tree(pipeline_dir)
    assert main(["simulate", "--config", str(cfg), "--cube", "cube.htns", *_SYSTEM]) == 2
    assert "--out 'x\\x00.htns': a path cannot hold a NUL byte" in capsys.readouterr().err
    assert _tree(pipeline_dir) == before


def test_manifest_records_inputs_as_read_and_every_output(pipeline_dir):
    # the manifest's bytes, rebuilt from the files: the inputs hashed as they
    # were before the run, every output and sidecar hashed as written
    def sha(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    runs = [
        (["reconstruct", "--coded", "coded.htns", *_SYSTEM, "--out", "rec.htns", "--stages", "2",
          "--trace", "--export-pgm", "rec.pgm"], ["coded.htns", "psf.htns", "resp.csv"],
         ["rec.htns", "rec.htns.trace.csv", "rec.pgm"]),
        (["evaluate", "--recon", "rec.htns", "--gt", "cube.htns", "--crop", "0",
          "--out-json", "r.json", "--rmse-csv", "rmse.csv"], ["rec.htns", "cube.htns"],
         ["r.json", "rmse.csv"]),
    ]
    for argv, inputs, outputs in runs:
        hashes = {path: sha(path) for path in inputs}
        assert main(argv) == 0
        manifest = (pipeline_dir / (outputs[0] + ".manifest.json")).read_bytes()
        want = {"tool": "snapspec", "version": cli.__version__, "command": argv[0],
                "config": json.loads(manifest)["config"], "inputs": hashes,
                "outputs": {path: sha(path) for path in outputs}}
        assert manifest == (json.dumps(want, indent=2, sort_keys=True) + "\n").encode()


# oracle-check


def test_oracle_check_passes(tmp_path, capsys):
    code = main(["oracle-check", "--trials", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS (5 trials)" in out
    assert out.count("PASS") >= 4  # three checks plus the summary


def test_oracle_check_zero_trials_warns(capsys):
    code = main(["oracle-check", "--trials", "0"])
    assert code == 0
    assert "vacuous" in capsys.readouterr().out


def test_oracle_check_detects_injected_bug(capsys, monkeypatch):
    build = cli.build_frequency_operator

    def conjugated(system, height, width):
        op = build(system, height, width)
        return FrequencyOperator(response=op.response, transfer=np.conj(op.transfer),
                                 height=op.height, width=op.width)

    monkeypatch.setattr(cli, "build_frequency_operator", conjugated)
    code = main(["oracle-check", "--trials", "2"])
    assert code == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.out or "FAIL" in captured.err


def test_oracle_check_admm_row_fails_alone(capsys, monkeypatch):
    # criterion 06 rests on this row: a prior whose fixed point is not the
    # dense Tikhonov minimiser fails it, and no other row
    monkeypatch.setattr(cli, "QuadraticDenoiser", unfolding.IdentityDenoiser)
    code = main(["oracle-check", "--trials", "3", "--seed", "6"])
    assert code == 4
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("check ")]
    assert len(rows) == 3
    for row in rows:
        want = "FAIL" if "quadratic-prior unfolding" in row else "PASS"
        assert row.split()[-1] == want, row


# bench


def test_bench_smoke(tmp_path):
    out = str(tmp_path / "bench.csv")
    code = main([
        "bench", "--sizes", "6,40", "--bands", "4", "--repeats", "1", "--out", out,
    ])
    assert code == 0
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "size,bands,solver,seconds,detail"
    rows = [line.split(",") for line in lines[1:]]
    solvers_small = {row[2] for row in rows if row[0] == "6"}
    solvers_large = {row[2] for row in rows if row[0] == "40"}
    # dense reference fits at 6x6x4 but not at 40x40x4
    assert "dense_oracle" in solvers_small
    assert "dense_oracle" not in solvers_large
    assert {"analytical", "gdm10", "gdm_matched"} <= solvers_small
    assert {"analytical", "gdm10", "gdm_matched"} <= solvers_large
    for row in rows:
        assert float(row[3]) >= 0.0
        assert len(row) == 5
    assert not [row for row in rows if "unmatched" in row[4]]


def test_bench_unmatched_row_is_marked(capsys):
    # GDM's steps to a match grow about as 1/gamma: 24000 steps, about 6000
    # analytical medians, at gamma 1e-4, so at 1e-6 it is far from the closed
    # form when its time bound, MATCHED_RATIO analytical medians, runs out
    code = main(["bench", "--sizes", "8", "--bands", "4", "--repeats", "1", "--gamma", "1e-6"])
    assert code == 0
    row = capsys.readouterr().out.splitlines()[3].split(",")
    assert row[:3] == ["8", "4", "gdm_matched"]
    assert re.fullmatch(r"iters=\d+;unmatched", row[4]), row[4]


def test_bench_unmatched_row_passes_gate_at_512(capsys, monkeypatch):
    # an unmatched run's seconds are a lower bound above the analytical
    # median, so the gate passes; a ratio of 1 stops after one chunk
    monkeypatch.setattr(cli, "MATCHED_RATIO", 1)
    code = main(["bench", "--sizes", "512", "--bands", "1", "--repeats", "1", "--gamma", "1e-4"])
    assert code == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert rows[2][:3] == ["512", "1", "gdm_matched"]
    assert rows[2][4] == "iters=50;unmatched"
    assert float(rows[0][3]) < float(rows[2][3])
    assert "FAIL" not in captured.err


@pytest.mark.parametrize("medians, step_s, failure", [
    ((0.005, 0.001), 0.01, "analytical 0.0050s not faster than 10-step GDM 0.0010s"),
    ((60.0, 120.0), 0.0, "analytical 60.0000s not faster than matched GDM "),
], ids=["gdm10", "matched"])
def test_bench_slow_analytical_row_fails_its_gate_at_512(capsys, monkeypatch, medians,
                                                         step_s, failure):
    # the analytical and 10-step medians are set; the matched run takes one
    # chunk that lands on the exact solve and sleeps step_s, so each case
    # breaches one gate and passes the others
    times = iter(medians)
    monkeypatch.setattr(cli, "_median_time", lambda fn, repeats: next(times))

    def step(prob, anchor, x, iters):
        time.sleep(step_s)
        return cli.fidelity_solve(prob, anchor)

    monkeypatch.setattr(cli, "gdm_fidelity_step", step)
    code = main(["bench", "--sizes", "512", "--bands", "1", "--repeats", "1"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines()[3].split(",")[4] == "iters=50"
    failures = [line for line in captured.err.splitlines() if line.startswith("bench: FAIL")]
    assert len(failures) == 1
    assert failures[0].startswith("bench: FAIL size 512 bands 1: " + failure)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "snapspec" in capsys.readouterr().out
