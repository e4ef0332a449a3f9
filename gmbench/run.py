#!/usr/bin/env python3
"""Build the GridMarket benchmark from the repository's sources and run it.

    python3 gmbench/run.py --workload paper_jobs --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths are taken from
this file's location). The first call configures and builds
gmbench/CMakeLists.txt, which compiles ../src, into the build directory
($CARGO_TARGET_DIR if set, else .bench_build) and later calls only
rebuild what changed. The workload runs in its own process; its standard
output ends with one JSON line: correct, attempted, failed and metrics.
Build output goes to standard error. Without the repository's src/ the
build fails and the script exits non-zero without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "gmbench"


def build(bdir: Path) -> bool:
    """Configure once, then build incrementally; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("gmbench: repository sources (src/) not found", file=sys.stderr)
        return False
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "gmbench"), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="prove every correctness check fires")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    if not build(bdir):
        return 1
    out_dir = bdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "gmbench")]
    if args.self_test:
        cmd += ["--self-test", "--out-dir", str(out_dir)]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out-dir", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"gmbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if args.self_test:
        return proc.returncode
    lines = out.strip().splitlines()
    # A printed result line carries correctness itself; anything else is a
    # crash or a usage error.
    if lines and lines[-1].startswith("{\"correct\""):
        return 0
    return proc.returncode or 1


if __name__ == "__main__":
    sys.exit(main())
