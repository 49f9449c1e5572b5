#!/usr/bin/env python3
"""Build and run the layered end-to-end benchmark.

Usage (from the repository root):

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds layerbench/ (which compiles tora's libraries from
src/) into $CARGO_TARGET_DIR/layerbench, default .bench_build/layerbench,
then runs the driver with the same arguments. The driver's last stdout line
is the JSON result; build output goes to stderr. With --trace 1 the span log
of the first traced run is written next to the build.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "layerbench"


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(out: Path) -> Path:
    exe = out / "layerbench"
    if not run_step(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        sys.exit("layerbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_step(["cmake", "--build", str(out), "--target", "layerbench",
                     "-j", jobs], BUILD_TIMEOUT_S):
        sys.exit("layerbench: build failed")
    return exe


def main() -> int:
    args = sys.argv[1:]
    out = build_dir()
    exe = build(out)
    cmd = [str(exe)] + args
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        workload = args[args.index("--workload") + 1:][:1] or ["unknown"]
        workload = re.sub(r"[^A-Za-z0-9._-]", "_", workload[0])
        cmd += ["--span-log", str(out / f"spans-{workload}.tsv")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("layerbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
