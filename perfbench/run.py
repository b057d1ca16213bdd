#!/usr/bin/env python3
"""Run one perfbench workload and print its result.

    python3 perfbench/run.py --workload mlp_window --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds the benchmark (and the
library it measures) from source into .bench_build/, prepares the seeded
model artifact and inputs in a fresh directory there, runs the measured
process, and deletes the run directory again. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("mlp_window", "dlrm_fullbatch", "mlp_offline")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
RUNS = os.path.join(os.getcwd(), ".bench_build", "runs")
BUILD_TIMEOUT_S = 850
PREPARE_TIMEOUT_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout, env=None, capture=False):
    """Run cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(
            cmd,
            env=env,
            timeout=timeout,
            check=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            text=capture,
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"failed: {' '.join(cmd)} ({e})")


def build():
    if not (os.path.exists(os.path.join(BUILD, "build.ninja"))
            or os.path.exists(os.path.join(BUILD, "Makefile"))):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        call(["cmake", "-S", HERE, "-B", BUILD, *gen], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
         BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build()
    env = dict(os.environ)
    env.pop("ENW_PROF", None)  # measured runs keep enw::obs off
    env.pop("ENW_PROF_OUT", None)
    env["ENW_THREADS"] = "1"  # one kernel thread; see NOTES.md

    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", run_dir]
    try:
        call([exe, "prepare", *common], PREPARE_TIMEOUT_S, env)
        out = call([exe, "run", *common, "--seconds", repr(args.seconds),
                    "--trace", str(args.trace)],
                   args.seconds + PREPARE_TIMEOUT_S, env, capture=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the measured run printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
