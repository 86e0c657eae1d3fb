#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload cli-paper --seeds 1-10

Each run is untraced (``--trace 0``) and the statistics come from its report,
``.perfbench/<workload>-seed<n>-trace0.json``, so every metric the run
measured is covered, gated or not.  The spread is the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median; the benchmark is steady when every end-to-end spread is below
a third of the metric's bound in BENCHMARK.json.  Runs are sequential.  The
statistics are also written to ``.perfbench/spread-<workload>.json`` in the
format of a set in ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    walls = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        walls.append(time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print("seed %d exit %d without a result:\n%s" % (seed, proc.returncode, proc.stderr))
            continue
        result = json.loads(lines[-1])
        print("seed %d exit %d wall %.1f s correct %s attempted %d failed %d" % (
            seed, proc.returncode, walls[-1], result["correct"], result["attempted"],
            result["failed"]), flush=True)
        report = OUT_DIR / ("%s-seed%d-trace0.json" % (args.workload, seed))
        with open(report, encoding="utf-8") as fh:
            for name, metric in json.load(fh)["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]

    stats = {}
    print("%-24s %14s %14s %14s %8s %8s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(med) if med else None
        stats[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                       "spread": spread}
        print("%-24s %14.6g %14.6g %14.6g %8s %8s" % (
            name, q1, med, q3, "-" if spread is None else "%.4f" % spread,
            bounds.get(name, "-")))
    print("wall per run: median %.1f s, max %.1f s" % (statistics.median(walls), max(walls)))
    with open(OUT_DIR / ("spread-%s.json" % args.workload), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
