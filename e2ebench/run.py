#!/usr/bin/env python3
"""Builds and runs the pnenc end-to-end benchmark.

    python3 e2ebench/run.py --workload dense-encoded --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
e2ebench/ CMake project, which compiles the library from src/, into
e2ebench/ under $CARGO_TARGET_DIR (default .bench_build); later runs only
re-check the build.
The build's output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Workloads, metrics and their rationale:
e2ebench/RATIONALE.md.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dense-encoded", "sparse-traversal", "serve-queries"]


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "petri", "net.hpp")):
        print("e2ebench: the library sources (src/) are missing next to "
              "e2ebench/", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    # Snapshot directories live in a fresh directory that is removed
    # afterwards; the span dump of a traced run is kept.
    work = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        spans_dir = os.path.join(build_dir, "spans")
        for path in glob.glob(os.path.join(work, "spans-*.tsv")):
            os.makedirs(spans_dir, exist_ok=True)
            name = os.path.basename(path)[:-4] + f"-seed{args.seed}.tsv"
            shutil.move(path, os.path.join(spans_dir, name))
        return proc.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
