#!/usr/bin/env python3
"""Build and run the SDDD benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout.  The first call configures and
builds the benchmark package (perfbench/CMakeLists.txt, which builds the
program's libraries from ../src) into .bench_build/perfbench; later calls
only let the build check that it is up to date.  The benchmark binary's
standard output is passed through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}.

--selftest builds and runs the unit tests of the benchmark's own
statistics code (perfbench/tests/stats_test.cc).

Exit code: 0 when a result was printed, non-zero (and no result) when the
build or the run failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "work")  # relative: short socket paths
WORKLOADS = ("offline_table1", "serve_steady")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no program sources at %s; nothing to build" % ROOT)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD, target)


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not
    be a git repository, so this identifies the code under test)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        exe = build("perfbench_stats_test")
        return 1 if exe is None else subprocess.run([exe]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    exe = build("sddd_perfbench")
    if exe is None:
        return 1
    # The program reads SDDD_* knobs (threads, trace, faults) from the
    # environment; the benchmark fixes them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SDDD_")}
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        log("benchmark run failed (exit %d)" % run.returncode)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
