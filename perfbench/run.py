#!/usr/bin/env python3
"""Builds and runs the MobiCeal end-to-end benchmark.

usage: python3 perfbench/run.py --workload <fig4-dd|app-4k|game|ftl-churn>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
driver (perfbench/CMakeLists.txt, which builds the stack from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. The driver's last stdout line is the result JSON
({"correct", "attempted", "failed", "metrics"}); a traced run also writes a
Chrome trace to .bench_build/traces/. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig4-dd", "app-4k", "game", "ftl-churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then brings the driver up to date; build logs go to
    stderr so stdout carries only the driver's output."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no MobiCeal sources in {ROOT}: nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        # Dependencies come from the system; never reach for the network.
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    steps.append(["cmake", "--build", str(build_dir),
                  "--target", "mobiceal_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)
    return build_dir / "mobiceal_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = target / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    # Stack knobs are read from MOBICEAL_* variables; the benchmark runs
    # the defaults (no flusher thread, no crypto worker threads).
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MOBICEAL_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}", 5)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed a malformed result", 6)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
