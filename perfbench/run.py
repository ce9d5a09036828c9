#!/usr/bin/env python3
"""Builds and runs the end-to-end swm benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the program from ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
measurement.  The last line of stdout is the result object printed by the
swm_e2e binary; the exit code is non-zero when the build fails or a
correctness check fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> Path:
    cmake_dir = build_dir / "perfbench"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    # Build output goes to stderr: stdout carries only the result.
    if not (cmake_dir / "build.ninja").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(cmake_dir), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target", "swm_e2e", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return cmake_dir / "swm_e2e"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 2

    run_dir = build_dir / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
