#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--workload all runs every workload in turn, each in its own process, and
exits nonzero if any of them fails.

The harness (perfbench/*.cc) links the repository's libraries under src/.
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
inside the checkout; build output goes to stderr, so the last line of
standard output is the harness's JSON result. Traced runs write their spans
as Chrome trace-event JSON next to the build, under traces/.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("social-closed", "forum-contended", "hotel-openloop", "hotel-replicated")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under src/ in " + ROOT)
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", build_dir, "--target", "radical_perfbench",
                      "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "radical_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-out",
                        os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
        sys.stdout.flush()
        status = max(status, subprocess.run(command).returncode)
    sys.exit(status)


if __name__ == "__main__":
    main()
