#!/usr/bin/env python3
"""Build and run one workload of the caem-suite benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, path-dependent
on the repository's crates) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the workload in a fresh process of its own so
its peak memory belongs to that workload alone.  The last line of standard
output is the result object: `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with --trace 0, per-layer with --trace 1).
A ledger record with provenance is written under `.bench_out/ledger/`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_sweep", "large_field", "served_small_jobs")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(target_dir):
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--manifest-path",
        str(BENCH_DIR / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return target_dir / "release" / "perfbench"


def pin_to_one_cpu():
    """Run the workload process on a single CPU.

    On the 2-vCPU virtual machine this benchmark was built on, the host
    takes CPU time away (steal) mostly while both vCPUs are busy: two-thread
    workloads ran from 3 s to 8 s from one run to the next, while
    single-thread ones held within a few percent.  On one CPU the
    program's own rayon budget is one thread, so every workload is a
    single compute stream.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} has keys {sorted(metric)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        log(f"{ROOT} holds no caem-suite sources to build the benchmark against")
        return 1
    target_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    if binary is None:
        return 1

    out_dir = ROOT / ".bench_out"
    scratch = out_dir / "scratch" / f"{args.workload}-{os.getpid()}"
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--scratch", str(scratch),
        "--out", str(out_dir / "ledger"),
        "--rev", git_rev(),
    ]
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=pin_to_one_cpu,
        )
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {done.returncode}")
        return 1
    try:
        check_result(lines[-1])
    except (ValueError, KeyError) as e:
        log(f"malformed result line: {e}")
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
