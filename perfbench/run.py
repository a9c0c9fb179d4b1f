#!/usr/bin/env python3
"""Builds the simulator and runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload serve|tpch|contend --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and compiles the
simulator libraries from src/ plus the benchmark program into
.bench_build/perfbench (optimized, about a minute on four cores); later runs
only relink what changed. The last line of standard output is the JSON
result; see perfbench/README.md for the metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve", "tpch", "contend")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; stdout stays clean."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                            check=False)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    # Compiler scratch files stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"],
              env)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The simulator reads NDP_* knobs at construction; the benchmark sets
    # every configuration itself, so an ambient knob is an error.
    ambient = sorted(k for k in os.environ if k.startswith("NDP_"))
    if ambient:
        fail("ambient simulator knobs set: " + ", ".join(ambient))
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found in " + os.path.join(ROOT, "src"))

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "spans_%s_%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
