#!/usr/bin/env python3
"""Build the LFI library and benchmark from source, run one workload, and
print its result.

Run from the root of a source checkout:

    python3 lfibench/run.py --workload pidgin-cold --seed 1 --seconds 20

The build goes to $CARGO_TARGET_DIR/lfibench (default .bench_build/lfibench,
relative to the checkout root). The benchmark's human-readable lines start
with '#'; the last line of standard output is the result JSON. Exits non-zero,
without a result, when the sources are missing, the build fails, or the
benchmark fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pidgin-cold", "dbsuite-tree", "dbsuite-explore", "pidgin-fabric")
RUN_TIMEOUT_S = 175


def fail(message):
    print("lfibench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build incrementally (a no-op after the first
    run)."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "lfibench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(HERE, "..", "src", "campaign",
                                       "runner.hpp")):
        fail("library sources not found next to " + HERE)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "lfibench"))
    exe = build(build_dir)

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.csv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write(proc.stdout)
        fail("malformed result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
