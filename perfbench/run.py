#!/usr/bin/env python3
"""Build and run the end-to-end solve benchmark (see perfbench/README.md).

Run from the root of a sparta checkout:

    python3 perfbench/run.py --workload cg_stencil27_dram --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library sources from
src/ plus the benchmark program) into a directory of its own inside
$CARGO_TARGET_DIR, or inside .bench_build when that is unset; later calls
rebuild incrementally. The program runs with OpenMP threads pinned
(OMP_NUM_THREADS = usable cores, OMP_PROC_BIND=close, OMP_PLACES=cores)
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to stderr.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir_in(root):
    """This source tree's own build tree inside `root`, which may be shared.

    The name hashes the source path, so checkouts at different paths never
    reuse one another's CMake cache (which records its source directory).
    """
    tag = hashlib.sha256(HERE.encode()).hexdigest()[:16]
    return os.path.join(root, "perfbench-" + tag)


def build(build_dir, jobs):
    """Configure (once) and build the benchmark; exit non-zero on failure."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Drop the half-written cache so that the next call configures again.
            if os.path.exists(cache):
                os.remove(cache)
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "sparta_perfbench", "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "sparta_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny-size pass of every workload, checked against BENCHMARK.json")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    threads = len(os.sched_getaffinity(0))
    build_dir = build_dir_in(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    binary = build(build_dir, threads)
    out_dir = os.path.join(build_dir, "out")

    env = dict(os.environ)
    env.update(OMP_NUM_THREADS=str(threads), OMP_PROC_BIND="close", OMP_PLACES="cores")
    env.pop("SPARTA_TELEMETRY", None)  # the program toggles telemetry itself

    if args.self_test:
        cmd = [binary, "--self-test", "--spec", "BENCHMARK.json", "--out", out_dir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
