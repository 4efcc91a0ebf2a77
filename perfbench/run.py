#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which pulls in the chainnn library through the root
CMakeLists) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's result object. Traces and temporary
files go under <build dir>/perfbench-work.

Workloads: gateway-mixed and simulate-cifar (the ones BENCHMARK.json
lists), and serve-alexnet, which is too sensitive to a shared host's load
to carry a bound; perfbench/perfbench.cpp says why each exists and gives
its reference-host figures.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main(argv):
    # On SIGTERM, exit through SystemExit so subprocess.run kills and
    # reaps the running child instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    out_dir = build_dir()
    build(out_dir)
    binary = os.path.join(out_dir, "perfbench")
    work = os.path.join(out_dir, "perfbench-work")
    return subprocess.run([binary, "--work-dir", work] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
