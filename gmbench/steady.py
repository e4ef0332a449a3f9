#!/usr/bin/env python3
"""Steadiness of the GridMarket benchmark across seeds and processes.

    python3 gmbench/steady.py [--runs 10] [--seconds S]

Runs every workload of BENCHMARK.json --runs times, untraced, with seeds
1..runs, interleaving the workloads (paper_jobs seed 1, busy_market seed
1, audit_1m seed 1, paper_jobs seed 2, ...), each run a separate process
through run.py.
Prints, per workload and metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and the quartile spread as a share
of the median, next to the metric's bound from BENCHMARK.json, plus the
share of failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build_stamp():
    """Build type and compiler, read from the benchmark's CMake cache."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "gmbench"))
    from run import build_dir
    cache = {}
    cache_file = build_dir() / "CMakeCache.txt"
    if cache_file.exists():
        for line in cache_file.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith("//"):
                key, _, value = line.partition("=")
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()
    return (f"build={cache.get('CMAKE_BUILD_TYPE', '?')} "
            f"compiler=\"{version[0] if version else compiler}\"")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "gmbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            result = run_once(workload, i + 1, args.seconds)
            results[workload].append(result)
            print(f"# {workload} seed {i + 1}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr, flush=True)

    print(f"cores={os.cpu_count()} {build_stamp()} runs={args.runs} "
          f"seconds={args.seconds}")
    for workload in workloads:
        runs = results[workload]
        correct = all(r["correct"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: correct={correct} failed-share={shares}")
        print(f"  {'metric':30} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name, "")
            print(f"  {name:30} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound!s:>6}  {unit}")


if __name__ == "__main__":
    main()
