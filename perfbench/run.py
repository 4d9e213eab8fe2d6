#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark program is built from source
into .bench_build/perfbench (CMake, RelWithDebInfo) the first time and
rebuilt when a source changed. Each run works in a private directory under
.bench_work that is removed when the run ends; traced runs leave their span
files in .bench_out. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Workloads: build_apb, serve_drill, cluster_scatter, live_ingest (see
perfbench/README.md). Two more options serve the benchmark's own tests:
--scale-divisor (a smaller input) and --corrupt-expected (one expected
aggregate perturbed, so the run must report correct = false).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cure_perfbench")
WORKLOADS = ("build_apb", "serve_drill", "cluster_scatter", "live_ingest")
BUILD_JOBS = "4"
# A run measures for --seconds after its set-up; anything far beyond that is
# a hang.
RUN_TIMEOUT_S = 170


def log(message):
    print("[run.py] " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    result = subprocess.run(
        ["cmake", "--build", BUILD, "-j", BUILD_JOBS, "--target",
         "cure_perfbench"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale-divisor", type=int, default=200)
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()

    # Hermetic runs: any CURE_* variable would change the program under test
    # (thread counts, batch sizes, the fault injector, the library tracer).
    cure_vars = sorted(k for k in os.environ if k.startswith("CURE_"))
    if cure_vars:
        log("refusing to run with %s set" % ", ".join(cure_vars))
        return 2

    if not build():
        log("build failed")
        return 1

    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    command = [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work, "--out-dir", out,
        "--scale-divisor", str(args.scale_divisor),
    ]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("workload exited with code %d" % proc.returncode)
        return 1

    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result: %s" % lines[-1])
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
