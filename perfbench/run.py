#!/usr/bin/env python3
"""Builds the benchmark from the checkout's source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload seal|channel|agg|all --seed N --seconds S --trace 0|1

Every build output, the Go build cache and the traced run's span files go
under .bench_build/ at the checkout root. The benchmark's last line of
standard output is its JSON result; a failed build or run exits non-zero
without one.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over the program's Go sources and module file, by path."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(cmd, timeout, **kw):
    """Runs cmd to completion, killing it (and waiting for it) on timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the checkout root; the benchmark builds the program "
              "under test from its source", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOPATH=os.path.join(BUILD, "gopath"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOTOOLCHAIN="local",
               GOPROXY="off",
               GOWORK="off",
               GOFLAGS="-buildvcs=false")
    exe = os.path.join(BUILD, "perfbench")
    code = run(["go", "build", "-o", exe, "."], BUILD_TIMEOUT_S, cwd=HERE, env=env,
               stdout=sys.stderr)
    if code != 0:
        return code
    args = sys.argv[1:] + ["--commit", commit(), "--source", source_digest(),
                           "--spans", os.path.join(BUILD, "spans")]
    return run([exe] + args, RUN_TIMEOUT_S, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
