#!/usr/bin/env python3
"""Builds and runs the radiocast benchmark (see README.md in this directory).

    python3 radiobench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Builds the library from ../src and the radiobench program into
.bench_build/radiobench at the repository root, runs one workload, checks
that the metrics it printed are exactly the ones BENCHMARK.json names, and
prints the host facts line followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 2 when the radiocast sources are missing, 1 when the build or the run
fails; no result line is printed in either case.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO, ".bench_build", "radiobench")
RUN_TIMEOUT_S = 170


def die(code, msg):
    print(f"radiobench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        die(2, "radiocast sources not found (expected src/ beside radiobench/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets])
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            die(1, "build failed: " + " ".join(cmd))


def check_names(metrics, expected):
    """Every expected metric present with its unit, and nothing else."""
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        die(1, f"metrics do not match BENCHMARK.json: missing {missing}, "
               f"unexpected {extra}, unit mismatch {units}")


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken workload, for the benchmark's own tests")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die(1, "--seed must be >= 0 and --seconds >= 1")

    build(["radiobench"])
    cmd = [os.path.join(BUILD_DIR, "radiobench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(1, f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        die(1, f"radiobench exited {proc.returncode} without a result")
    host = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(1, "malformed result line")
    check_names(result["metrics"],
                spec["per_layer"] if args.trace else spec["end_to_end"])

    print(json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
