#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload fwd|ingest|churn --seed N --seconds S --trace 0|1

The program is built from source into .bench_build/ at the repository
root, with the Go build cache there too, so a run reads the sources and
the Go toolchain and writes only under .bench_build/. The last line of
standard output is the benchmark's JSON result; see README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

BUILD_TIMEOUT_S = 840  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    # The benchmark drives the repository's own packages; without them
    # (only this directory checked out) there is nothing to measure.
    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("repository source missing: %s not found next to perfbench/" % need)

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOPATH": os.path.join(BUILD, "go-path"),
        "GOMODCACHE": os.path.join(BUILD, "go-path", "pkg", "mod"),
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
    })
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)

    args = [BINARY] + sys.argv[1:] + ["-out", os.path.join(BUILD, "perfbench")]
    try:
        run = subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
