#!/usr/bin/env python3
"""Benchmark of the snapspec package: one workload per run, metrics and checks.

Run from the repository root:

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from ``src/`` next to this directory.  An untraced
run (``--trace 0``) prints the end-to-end metrics named in BENCHMARK.json;
a traced run (``--trace 1``) wraps the package's public functions and prints
the per-layer table.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only if every output check held; 2 means the package or BENCHMARK.json
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
QUALITY = Path(__file__).resolve().parent / "quality.json"
DEFAULT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"
SETUP_REPEATS = 3


def fail(message: str) -> int:
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def cache_sizes() -> dict:
    """L1d/L2/L3 sizes as the kernel reports them; empty where unavailable."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes["L%s" % level] = size
    return sizes


def environment(workload) -> dict:
    import numpy
    import scipy

    from workloads import working_set_bytes

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cache": cache_sizes(),
        "working_set_bytes_computed": working_set_bytes(workload),
    }


def quality_record(workload: str, seed: int):
    """Per design, the (psnr_db, sam_deg) recorded for this seed, or None.

    ``quality.json`` holds seeds 1-10 and 101; other seeds are not checked.
    """
    with open(QUALITY, encoding="utf-8") as fh:
        return json.load(fh)[workload].get(str(seed))


def p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def run_frames(workload, tracer, seconds: float) -> tuple[list, float]:
    """Frames back to back until one more, at the last one's duration, would pass
    ``seconds``.  A frame that raises is recorded as None and ends the loop."""
    frames = []
    measured = 0.0
    while True:
        tracer.frame = len(frames)
        try:
            with tracer.span("frame"):
                frame = workload.frame(len(frames))
        except Exception:  # a crashing frame is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            frame = None
        frames.append(frame)
        if frame is None or "pipeline_s" not in frame.times:
            return frames, measured
        measured += frame.times["pipeline_s"]
        if len(frames) >= workload.min_frames and \
                measured + frame.times["pipeline_s"] > seconds:
            return frames, measured


def summarise(good: list, setup_s: float, quality_frames: int) -> dict:
    """End-to-end metrics from the frames whose checks all held."""
    metrics = {"setup_s": (setup_s, "s")}
    if not good:
        return metrics
    for key in sorted(good[0].times):
        metrics[key] = (statistics.median(f.times[key] for f in good), "s")
    pipeline = [f.times["pipeline_s"] for f in good]
    metrics["frames_per_s"] = (len(pipeline) / sum(pipeline), "1/s")
    metrics["frame_s_p50"] = (statistics.median(pipeline), "s")
    metrics["frame_s_p90"] = (p90(pipeline), "s")
    # quality is deterministic per frame; the first sweep's frames set it
    first = good[:quality_frames]
    metrics["psnr_db"] = (statistics.median(f.psnr_db for f in first), "dB")
    metrics["sam_deg"] = (statistics.median(f.sam_deg for f in first), "deg")
    return metrics


def run_workload(args, spec: dict) -> int:
    start = time.perf_counter()
    os.environ.update({var: THREADS for var in THREAD_VARS})
    if not (ROOT / "src" / "snapspec" / "__init__.py").is_file():
        return fail("package source %s not found" % (ROOT / "src" / "snapspec"))
    sys.path.insert(0, str(ROOT / "src"))
    import snapspec

    import spans
    from workloads import WORKLOADS

    if Path(snapspec.__file__).resolve().parent != ROOT / "src" / "snapspec":
        return fail("imported snapspec from %s, not from this checkout" % snapspec.__file__)
    import_s = time.perf_counter() - start

    tracer = spans.Tracer()
    per_span_cost = 0.0
    if args.trace:
        per_span_cost = spans.wrapper_cost()
        spans.install(tracer)
    else:
        tracer.enabled = False

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload = None  # free the previous inputs before building new ones
            workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
            t0 = time.perf_counter()
            with tracer.span("setup"):
                workload.setup()
            setup_times.append(time.perf_counter() - t0)
        workload.quality = quality_record(args.workload, args.seed)
        frames, measured = run_frames(workload, tracer, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            extras, finish_failures = workload.finish()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            extras, finish_failures = {}, ["finish check raised"]
        env = environment(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        tracer.restore()

    for i, f in enumerate(frames):
        for failure in (f.failures if f is not None else ["frame raised"]):
            print("CHECK FAILED frame %d: %s" % (i, failure))
    for failure in finish_failures:
        print("CHECK FAILED: %s" % failure)
    # the closing checks judge the first frame's output
    failed = {i for i, f in enumerate(frames) if f is None or f.failures}
    failed |= {0} if finish_failures else set()
    good = [f for f in frames if f is not None and not f.failures]

    metrics = summarise(good, import_s + statistics.median(setup_times), workload.min_frames)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["frames"] = (len(frames), "count")
    metrics["failed_ratio"] = (len(failed) / len(frames), "ratio")
    metrics.update(extras)
    layers = {}
    if args.trace:
        layers = spans.layer_table(tracer, SETUP_REPEATS, len(frames), per_span_cost)

    print("workload %s  seed %d  trace %d  measured %.3f s" % (
        args.workload, args.seed, args.trace, measured))
    print("env %s" % json.dumps(env, sort_keys=True))
    shown = layers if args.trace else metrics
    for name, (value, unit) in shown.items():
        print("  %-40s %16.6g %s" % (name, value, unit))

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "spans": spans.dump(tracer) if args.trace else [],
    }
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh)

    correct = not failed and bool(good)
    result = {}
    for metric in spec["per_layer"] if args.trace else spec["end_to_end"]:
        if metric["name"] in shown:
            value, unit = shown[metric["name"]]
            result[metric["name"]] = {"value": value, "unit": unit}
        else:
            correct = False
            print("CHECK FAILED: metric %s not measured" % metric["name"])
    print(json.dumps({"correct": correct, "attempted": len(frames),
                      "failed": len(failed), "metrics": result}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, one after another, so peak RSS is per workload."""
    worst = 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd, check=False).returncode
        # a child killed by a signal has a negative code and printed no result
        worst = max(worst, code if code > 0 else (1 if code else 0))
    return worst


def main(argv=None) -> int:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail("cannot read BENCHMARK.json: %s" % exc)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %(default)s; seed 101 is held out "
                             "for confirming claims)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
