#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust package next to this file is built in release mode (offline, into
$CARGO_TARGET_DIR, default .bench_build) and then run with the same
arguments; its last line of standard output is the result object. A failed
build or run exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# One invocation must finish within 180 s once built; the binary keeps its
# own limit below this one.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    # A process group of its own, so a stuck run is stopped with every
    # measured process it started.
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env, preexec_fn=os.setpgrp)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run stopped before it finished", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
