#!/usr/bin/env python3
"""Build the Hoard benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload churn-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go build cache, temporary files and the
binary all go under .bench_build (or $CARGO_TARGET_DIR), so nothing is written
outside the checkout. Arguments are passed to the benchmark unchanged; the
last line of standard output is the result as one JSON object. The exit code
is the benchmark's, or 2 when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-buildvcs=false"
    env["GOPROXY"] = "off"
    return env


def revision():
    """The checkout's git revision, without looking above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                               env=go_env(build), timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    try:
        ran = subprocess.run([binary, "-rev", revision()] + sys.argv[1:],
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
