#!/usr/bin/env python3
"""Build and run the restored PigMix benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pigmix-cold --seed 1 --seconds 10 --trace 0

The benchmark is the Go module in this directory. It is built from source
into .bench_build/ at the checkout root, with the Go build cache kept there
too, so nothing outside the checkout is read or written besides the Go
toolchain itself. Build output goes to standard error; the last line of
standard output is the benchmark's JSON result. Any build or run failure
exits non-zero without printing a result.
"""

import os
import shutil
import signal
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
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    return env


def build():
    go = shutil.which("go")
    if go is None:
        sys.exit("run.py: the go toolchain is not on PATH")
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    tmp = "%s.%d.tmp" % (binary, os.getpid())
    proc = subprocess.run(
        [go, "build", "-o", tmp, "."],
        cwd=HERE,
        env=go_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        if os.path.exists(tmp):
            os.remove(tmp)
        sys.exit("run.py: build failed (exit %d)" % proc.returncode)
    os.replace(tmp, binary)
    return binary


def stop(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    binary = build()
    args = [binary] + sys.argv[1:] + [
        "--workdir", os.path.join(BUILD, "work"),
        "--trace-dir", os.path.join(BUILD, "trace"),
    ]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        code = proc.wait()
    finally:
        # On an interrupt, stop the benchmark and wait for it to exit.
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
