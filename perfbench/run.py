#!/usr/bin/env python3
"""Build and run the repository's benchmark of record.

    python3 perfbench/run.py --workload sweep_netlist --seed 1 --seconds 30 --trace 0

Builds perfbench/ (a CMake package compiling the repository's src/ tree)
into .bench_build/ under the repository root, runs one workload and prints
one JSON result line last on stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
per-layer metrics of a traced run (a Chrome trace lands in .bench_out/).
The exit status is non-zero when any op or oracle check failed.

Other modes: --selftest (the benchmark's own checks) and --gen-golden
(rewrite golden/fronts.json from the current code; only for a change that
means to alter fronts).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden" / "fronts.json"
WORKLOADS = ("sweep_netlist", "oneshot_specs", "warm_requests", "serve_warm")
# Extra set-up-only processes per untraced run: setup_s is the median of
# these and the measured run's own set-up.
SETUP_REPEATS = 4
# Everything after the build must end within this many seconds; a hung
# benchmark process is killed and the run fails without a result.
BUDGET_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "dtas" / "synthesizer.h").is_file():
        raise SystemExit(f"run.py: no bridge sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=860)
    return BUILD / "perfbench"


def run_binary(exe, args, deadline):
    """Runs the benchmark binary; returns (exit code, parsed last line)."""
    try:
        proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("benchmark process timed out and was killed")
        return 1, None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--gen-golden", action="store_true")
    a = ap.parse_args()

    exe = build()
    deadline = time.monotonic() + BUDGET_S
    if a.gen_golden:
        return subprocess.run([str(exe), "gen-golden", "--golden",
                               str(GOLDEN)], cwd=ROOT).returncode
    if a.selftest:
        outs = []
        for _ in range(2):
            p = subprocess.run([str(exe), "selftest", "--golden", str(GOLDEN)],
                               stdout=subprocess.PIPE, text=True, cwd=ROOT,
                               timeout=BUDGET_S)
            sys.stdout.write(p.stdout)
            if p.returncode != 0:
                return p.returncode
            outs.append([l for l in p.stdout.splitlines()
                         if l.startswith("digests ")])
        same = outs[0] == outs[1] and outs[0]
        print(("ok  " if same else "FAIL") +
              " digests stable across two runs")
        return 0 if same else 1
    if a.workload is None:
        ap.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    common = ["run", "--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds), "--golden", str(GOLDEN),
              "--out-dir", str(OUT)]
    setups = []
    if not a.trace:
        for _ in range(SETUP_REPEATS):
            code, res = run_binary(exe, common + ["--trace", "0",
                                                  "--setup-only"], deadline)
            if code != 0 or res is None:
                log("set-up-only run failed")
                return 1
            setups.append(res["metrics"]["setup_s"]["value"])
    code, res = run_binary(exe, common + ["--trace", str(a.trace)], deadline)
    if res is None:
        log(f"benchmark exited with {code} and no result line")
        return code or 1
    if not a.trace:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(res))
    if code != 0 or not res.get("correct"):
        log("correctness check failed")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
