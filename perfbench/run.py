#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

python3 perfbench/run.py --workload read95-256B --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The harness (perfbench/efac_perfbench.cpp)
and the repository libraries it links are built with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout, then run; its
last stdout line is the result JSON. With --trace 1 the harness's spans are
written to <build dir>/traces/<workload>-seed<n>.json.

--unoptimized builds the same sources at -O0 into a separate build
directory (only the optimisation level differs); used to show that the
host-time metrics measure the program.

Exits 2 without a result line when the repository sources are missing or
the build fails; exits 1 after the result line when the harness's
correctness checks fail.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(unoptimized):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/CMakeLists.txt) not found next to "
             "perfbench/; run from the root of a full checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "perfbench-O0" if unoptimized
                             else "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if unoptimized:
        configure.append("-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O0 -g -DNDEBUG")
    steps = [["cmake", "--build", build_dir, "--target", "efac_perfbench",
              "-j", str(os.cpu_count() or 1)]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, configure)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--unoptimized", action="store_true")
    args = parser.parse_args()

    build_dir = build(args.unoptimized)
    command = [os.path.join(build_dir, "efac_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    try:
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        fail(f"harness printed no result line (exit code {done.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result line is malformed")
    if done.returncode != 0 or result["correct"] is not True:
        print("perfbench: correctness check failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
