#!/usr/bin/env python3
"""Build and run the fleet benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload infer-cluster --seed 1 --seconds 30 --trace 0

The Go program is built from source into .bench_build/ (its build cache,
home and config directories live there too, so nothing is written outside
the checkout), then run with the arguments given here. Its standard
output, whose last line is the JSON result, is passed through unchanged.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    tmp = os.path.join(BUILD, "tmp")
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
    )
    return env


def commit():
    """The source revision, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def main():
    for d in ("home", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = go_env()
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=SRC, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = os.environ.get("PERFBENCH_COMMIT") or commit()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
