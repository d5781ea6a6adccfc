#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 15 --trace 0

The harness is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the current directory; build output goes to stderr.
The harness prints its metrics and, as the last line of standard output,
one JSON result line.  Before printing, the result's metric names are
checked against BENCHMARK.json; a mismatch, a failed build or a failed
run exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-churn", "fewshot-hostile", "fleet-replan",
             "ingress-stream")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j", jobs,
                "--target", "perfbench"]
    for cmd in (configure, compile_):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", os.path.join(os.path.abspath(target), "traces")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        print("perfbench: no output", file=sys.stderr)
        return run.returncode or 3
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        print("perfbench: last line is not a result", file=sys.stderr)
        return run.returncode or 3
    got = list(result.get("metrics", {}))
    want = expected_metrics(args.trace == 1)
    if got != want:
        sys.stderr.write(run.stdout)
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (sorted(set(want) - set(got)),
                            sorted(set(got) - set(want))), file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
