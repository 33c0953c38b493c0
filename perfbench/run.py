#!/usr/bin/env python3
"""Build the stgcc benchmark harness from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exhaustive_search --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The harness (perfbench/src, built with perfbench/CMakeLists.txt against
../src) is configured and built under .bench_build/perfbench on first use.
Build output goes to standard error; the harness's metric lines and, as
the last line, its JSON result go to standard output.  See README.md.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("exhaustive_search", "conflict_detect", "warm_recheck")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quietly(cmd):
    """Run a build step with its output on stderr; exit 2 if it fails."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build():
    """Configure (once) and build the harness; return the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"stgcc sources not found under {ROOT / 'src'}")
    if not (ROOT / "models").is_dir():
        fail(f"models directory not found under {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # One build at a time per checkout.
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            run_quietly(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
        run_quietly(["cmake", "--build", str(BUILD_DIR),
                     f"-j{os.cpu_count() or 1}"])
    return BUILD_DIR


def run_child(cmd):
    """Run the harness, passing its output through; return its exit code."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness self-tests instead")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    # Turn SIGTERM into SystemExit so that run_child stops the harness and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    build_dir = build()
    work = Path(tempfile.mkdtemp(prefix="work-", dir=build_dir))
    try:
        if args.self_test:
            return run_child([str(build_dir / "perfbench_selftest"),
                              str(ROOT / "models"), str(work)])
        cmd = [str(build_dir / "stgcc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--models-dir", str(ROOT / "models"), "--work-dir", str(work)]
        if args.trace:
            traces = build_dir / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out", str(traces / f"{args.workload}.jsonl")]
        sys.stdout.flush()
        return run_child(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
