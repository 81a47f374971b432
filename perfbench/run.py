#!/usr/bin/env python3
"""Builds and runs the PTLDB benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only rebuild what changed. Build output goes
to stderr, so the last line of stdout is the run's JSON result. The
traced run (--trace 1) writes its spans under the build directory.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ssd_small_pool", "served_raw", "served_compressed")


def fail(msg):
    print(f"[run.py] {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "ptldb", "ptldb.h")):
        fail(f"PTLDB sources not found under {ROOT}/src; run from a full "
             "checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", out, "--target", "ptldb_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "ptldb_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--workers", type=int, default=0,
                   help="served_* worker count (default nproc - 1); for "
                        "reference figures only")
    args = p.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            out, "spans", f"{args.workload}-seed{args.seed}.jsonl")]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
