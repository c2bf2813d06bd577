#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload mc_paper --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark and the library sources it links into .bench_build/perfbench
(build output goes to stderr); later runs rebuild only what changed. The
benchmark's own stdout passes through unchanged, so its last line is the
result object. The exit code is the benchmark's, or 2 when the build fails
and 3 when the run is stopped; neither of those prints a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("mc_paper", "wide_n", "exact_game", "chaos_lin")
DEFAULT_SEED = 1  # 7919 is held out for confirming claims; see README.md

_child = None


def _stop(signum, _frame):
    """Stops the running child, waits for it, and exits."""
    if _child is not None and _child.poll() is None:
        _child.terminate()
        try:
            _child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _child.kill()
            _child.wait()
    sys.exit(128 + signum)


def run(cmd, timeout=None, **kwargs):
    """Runs cmd to completion; returns its exit code, or None on timeout."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        return _child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        return None
    finally:
        _child = None


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run(["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", jobs], stdout=sys.stderr) == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    try:
        built = build()
    except OSError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        built = False
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    limit = 4 * args.seconds + 60
    code = run(cmd, timeout=limit, cwd=ROOT)
    if code is None:
        print(f"perfbench: {args.workload} exceeded {limit:.0f} s",
              file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
