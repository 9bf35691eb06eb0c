#!/usr/bin/env python3
"""Builds the benchmark and the wo_serve daemon from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0

Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Build logs
go to stderr; the benchmark's stdout is passed through unchanged, and its
last line is the result object. Exits nonzero when a build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "wo-serve", "--bin", "wo_serve"],
    ]
    for cmd in builds:
        code = subprocess.call(cmd, stdout=sys.stderr, env=env)
        if code != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return code if code > 0 else 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--daemon", os.path.join(release, "wo_serve")]
    return subprocess.call(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main())
