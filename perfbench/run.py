#!/usr/bin/env python3
"""End-to-end benchmark of the V2V library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the library plus the driver in
perfbench/driver.cpp, Release) under .bench_build/ in the checkout, then
runs the driver. Build output goes to stderr; the last line of stdout is
the driver's JSON result. Exits non-zero, printing no result, when the
build or the run fails. Workloads: embed_planted, serve_ivfpq (see
driver.cpp).
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "v2v_perfbench")
RUN_TIMEOUT_S = 170


def build():
    generated = [os.path.join(BUILD, name) for name in ("build.ninja", "Makefile")]
    if not any(os.path.exists(path) for path in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "v2v_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    try:
        # The driver's working files (serve_ivfpq's snapshot) go to BUILD.
        run = subprocess.run([DRIVER] + sys.argv[1:], stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=BUILD)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: driver exited with {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed driver result", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
