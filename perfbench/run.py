#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wire-small|exec-large|plan-churn \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. Build output
goes to standard error; the benchmark's last line of standard output is the
result object. The exit code is the benchmark's, or the build's if the build
fails.
"""

import os
import subprocess
import sys

# A run measures for --seconds and then probes; this bounds a hung run.
RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        run = subprocess.run([binary, *sys.argv[1:]], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
