#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload http-nsfnet --seed 1 --seconds 30 --trace 0

Every argument is passed to the program unchanged. The build, the Go build
cache and the Go configuration all stay under .bench_build in the checkout.
A failed build exits non-zero and prints nothing on standard output.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# The program's own deadline is its --seconds plus set-up and drain; this is
# the hard stop that keeps a wedged run inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def stop(signum, _frame):
    # Unwinds through main's cleanup, which kills and reaps the child.
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench-bin")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=go_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s; killed" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
