#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload jobs-http --seed 7 --seconds 20 --trace 0

The benchmark is the Go program in this directory (its own module, which
imports the repository through a replace directive). This script builds it
from source into .bench_build/ at the repository root, keeping the Go build
cache there too, then runs it with the given arguments. It prints what the
program prints and exits with its exit code; a failed build exits 2 without
printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def main():
    binary = os.path.join(BUILD, "bin", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE,
        env=go_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + build.stdout)
        return 2
    out = os.path.join(BUILD, "perfbench")
    return subprocess.call([binary, "-out", out] + sys.argv[1:], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
