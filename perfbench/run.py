#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of serve-hot, serve-cold, sim-dense, sim-sparse.  The script
builds the `perfbench` package in release mode (one build yields both the
benchmark and the `lma-serve` server binary) into $CARGO_TARGET_DIR, or
`.bench_build` when that is unset, then runs the benchmark.  The last line
of standard output is the result as one JSON object.  The exit code is the
benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    # Build output goes to stderr so the result stays the last stdout line.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), "--server", os.path.join(release, "lma-serve")]
    return subprocess.run(bench + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
