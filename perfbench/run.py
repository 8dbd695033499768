#!/usr/bin/env python3
"""Builds and runs the fuzzy-db benchmark.

    python3 perfbench/run.py --workload analytic|nested|mixed --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds the `perfbench` package
(perfbench/Cargo.toml, a workspace of its own that depends on the repository
by path) in release mode into $CARGO_TARGET_DIR (default perfbench/target),
runs one measurement, and prints the benchmark's output; the last line is the
JSON result. With --trace 1 the recorded spans go to
perfbench/traces/<workload>-<seed>.jsonl. When the build or the run fails it
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("analytic", "nested", "mixed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
# Set-up, the answer checks and process start-up on top of the measured time.
RUN_SLACK_S = 150


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    build_cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        build = subprocess.run(build_cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                               env=dict(os.environ, CARGO_TARGET_DIR=target))
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if build.returncode != 0:
        return fail(f"build failed with exit code {build.returncode}")

    run_cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        run_cmd += ["--spans", os.path.join(HERE, "traces", f"{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(run_cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"benchmark run failed: {e}")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("the last output line is not JSON")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return fail("the result line does not have the expected keys")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
