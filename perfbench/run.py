#!/usr/bin/env python3
"""Builds and runs the DeepCSI observer benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet_local --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is compiled from the checkout's own sources into the build
directory named by $CARGO_TARGET_DIR (default: .bench_build), so it always
measures the code next to it. Build output goes to stderr; the benchmark's
standard output is passed through unchanged, its last line being the JSON
result. A checkout without the library sources fails the build and exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if argv[:1] == ["--selftest"]:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode
    sys.stdout.flush()
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary, "--work-dir", os.path.join(build_dir, "work")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
