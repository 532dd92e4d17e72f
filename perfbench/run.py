#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to stderr, so the last line of stdout is the
benchmark's JSON result. `--trace 1` runs the binary with the counting
allocator and spans; `--trace 0` the one with the system allocator.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    traced = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            traced = value != "0"
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = "perfbench-traced" if traced else "perfbench"
    return subprocess.run([os.path.join(target, "release", binary)] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
