#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload uts-threads --seed 1 --seconds 15 --trace 0

The first call configures and builds `perfbench` (the Scioto libraries plus
the driver, Release) under .bench_build/ -- or under $CARGO_TARGET_DIR when
that is set -- and later calls only re-check the build. The driver's output
is passed through: "# " detail lines, then one JSON result line, which is
always the last line of standard output. A copy of the output goes to
.bench_out/. Exits non-zero, without a result line, when the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns the binary's path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            sys.exit(f"perfbench: build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(bdir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--wrong-reference", action="store_true",
                    help="test hook: offset every reference count by one")
    args = ap.parse_args()

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    with open(os.path.join(out_dir, name), "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("".join(l + "\n" for l in lines if l.startswith("#")))
        sys.exit(f"perfbench: driver exited with {proc.returncode}")
    json.loads(lines[-1])  # the last line must be the result object
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
