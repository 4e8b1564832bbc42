#!/usr/bin/env python3
"""Build and run the end-to-end explanation benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload income --seed 1 --seconds 20 --trace 0

The Go harness in this directory is compiled into .bench_build/ (its build
cache included) and run from the repository root; score stores live in
.bench_run/ for the length of a run and traced runs leave their spans in
.bench_out/. The harness prints one JSON result as its last line; this
script exits with the harness's exit code, or 1 if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    binary = os.path.join(BUILD, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if proc.returncode != 0:
        return None
    return binary


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [
        binary,
        "--work", os.path.join(ROOT, ".bench_run"),
        "--out", os.path.join(ROOT, ".bench_out"),
    ] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
