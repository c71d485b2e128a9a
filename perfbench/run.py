#!/usr/bin/env python3
"""Build and run the csched benchmark from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures a Release build of libcsched, csched_serve, csched_workerd and
the csched_perfbench driver under $CARGO_TARGET_DIR (default
.bench_build), checks that the driver's metric names match
BENCHMARK.json, then runs one workload.  Build output goes to stderr;
the last line of stdout is the driver's JSON result.  Exits non-zero
without a result when the tree cannot be built or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["convergent-regions", "mesh-baselines", "serve-stream",
             "fleet-grid"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then bring the three targets up to date."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("no csched source tree next to perfbench/ (src/ missing)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target",
               "csched_perfbench", "csched_serve", "csched_workerd"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_metric_names(driver):
    """The driver must emit exactly the metrics BENCHMARK.json declares."""
    spec_path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    listed = subprocess.run([driver, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    emitted = {"end_to_end": [], "per_layer": []}
    for line in listed:
        if line:
            kind, name, unit = line.split(" ")
            emitted[kind].append((name, unit))
    for kind in emitted:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != emitted[kind]:
            fail("BENCHMARK.json %s metrics differ from the driver's: %s"
                 % (kind, sorted(set(declared) ^ set(emitted[kind]))))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    # Relative paths keep the serve socket path short.
    root = os.path.relpath(os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    run_dir = os.path.join(root, "run")
    build(build_dir)
    os.makedirs(run_dir, exist_ok=True)
    driver = os.path.join(build_dir, "csched_perfbench")
    check_metric_names(driver)

    command = [driver, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--bin-dir", build_dir,
               "--run-dir", run_dir]
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("driver exited with %d" % code)


if __name__ == "__main__":
    main()
