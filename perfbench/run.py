#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload serve-mt --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune into .bench_build (dune's shared cache
off, so nothing is written outside the checkout), then runs it from the
checkout root. The last line of stdout is the result JSON. Exits non-zero
without a result when the checkout lacks the sources to build from.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("dune-project", "lib", os.path.join("test", "golden")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found; run from a full source checkout",
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
