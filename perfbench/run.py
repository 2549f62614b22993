#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload fig7-load --seed 1 --seconds 15 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that uses the
simulator's packages from the enclosing checkout.  This script builds it
into .bench_build/ (the Go build cache, temporary files and the go
command's configuration too, so nothing is written outside the checkout)
and runs it with the given arguments, passing its output through.  It exits non-zero without a result line when the build fails,
for example when the simulator's sources are missing.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def main() -> int:
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOENV="off",
        GOTMPDIR=out,
        TMPDIR=out,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTELEMETRY="off",
    )
    binary = os.path.join(out, "bin", "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, *sys.argv[1:]], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
