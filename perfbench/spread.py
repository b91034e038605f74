#!/usr/bin/env python3
"""Run a workload on several seeds and report each end-to-end metric's
median and spread (quartile distance over median, statistics.quantiles n=4).

    python3 perfbench/spread.py --workload serve_warm --seeds 1-10
    python3 perfbench/spread.py --workload sweep_netlist --seeds 1,2,3 --json out.json

This is how perfbench/baseline.json was produced, and how a change compares
itself against its parent on identical settings.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None,
                    help="window per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--json", help="also write the summary here")
    a = ap.parse_args()
    seconds = a.seconds or str(json.loads(
        (RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"])

    values, units = {}, {}
    for seed in parse_seeds(a.seeds):
        p = subprocess.run([sys.executable, str(RUN), "--workload", a.workload,
                            "--seed", str(seed), "--seconds", seconds,
                            "--trace", "0"],
                           stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {p.returncode})",
                  file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)

    summary = {}
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        summary[name] = {"median": med, "q1": q[0], "q3": q[2],
                         "spread": spread, "unit": units[name], "runs": len(v)}
        print(f"{name:16s} median {med:14.6g} {units[name]:8s} "
              f"spread {spread:.4f}")
    if a.json:
        Path(a.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
