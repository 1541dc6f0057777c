#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zipf_fwd --seed 1 --seconds 30 --trace 0

Every call configures and builds ../src plus the perfbench binary into
.bench_build/ (or $CARGO_TARGET_DIR when set) as a Release build: the first
call compiles everything, later ones find the tree up to date. Build output
goes to stderr. The binary's report goes to stdout; its last line is one JSON
object with the keys correct, attempted, failed and metrics. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring an existing tree is cheap and repairs a half-configured one.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "perfbench")


def commit():
    """The checkout's git commit, or 'unknown' when git cannot tell."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    # A hung binary is killed rather than left to stall the caller.
    timeout_s = args.seconds * 2 + 60
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout_s)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.stderr.write("perfbench: run exceeded %g s\n" % timeout_s)
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if r.returncode != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(r.stdout)
        sys.stderr.write("perfbench: run failed (exit %d)\n" % r.returncode)
        return r.returncode or 1
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
