#!/usr/bin/env python3
"""End-to-end FlowCube benchmark.

    python3 perfbench/run.py --workload build|serve|ingest|fanout \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the perfbench runner (and the
FlowCube library from ../src) into $CARGO_TARGET_DIR, default .bench_build,
then runs it with FLOWCUBE_THREADS pinned. The runner's last line of
standard output is the JSON result; build output goes to standard error.
Exits non-zero without a result when the sources are missing or the build
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Construction threads. One: the parallel build phases wait for their slowest
# thread, so a busy neighbour core moved 2-thread build times by 10-15%
# between identical runs, while 1-thread builds repeated within 2-5%.
PINNED_THREADS = 1


def build(build_dir):
    """Configures once and builds the runner; returns its path or None."""
    obj = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(obj, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", obj,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", obj, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(obj, "perfbench")
    return exe if os.path.exists(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["build", "serve", "ingest", "fanout"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no FlowCube sources next to perfbench/",
              file=sys.stderr)
        return 2
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["FLOWCUBE_THREADS"] = str(min(PINNED_THREADS, os.cpu_count() or 1))
    env.pop("FLOWCUBE_METRICS", None)
    if args.selftest:
        return subprocess.run([exe, "--selftest"], env=env).returncode

    tmp = os.path.join(build_dir, "tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp]
        return subprocess.run(cmd, env=env, cwd=ROOT).returncode
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
