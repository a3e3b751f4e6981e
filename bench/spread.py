"""Run workloads over several seeds and report each end-to-end metric's spread.

Usage::

    python3 bench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

For each workload it runs ``run.py --trace 0`` once per seed, one run at a
time, and prints every metric's median and its quartile spread
(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles, next to the metric's bound from ``BENCHMARK.json``.  All values
go to ``.bench_work/spread.json``.  A run with failed ops still counts in
the spreads.  Exit status 1 if a run crashed or had failed ops, or a spread
other than ``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common

BENCH = common.ROOT / "BENCHMARK.json"


def main() -> int:
    spec = json.loads(BENCH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    values: dict[str, dict[str, list[float]]] = {}
    for name in names:
        values[name] = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit status {done.returncode}\n{done.stderr[-2000:]}")
                ok = False
                continue
            details, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} ops failed: {details['details']['failures'][:2]}")
                ok = False
            for m in bounds:
                values[name][m].append(result["metrics"][m]["value"])
        for m, bound in bounds.items():
            vals = values[name][m]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if m == "setup_s" or spread <= bound else "  EXCEEDS BOUND"
            ok = ok and not flag
            print(f"{name:18} {m:12} median {med:<12.6g} spread {spread:7.4f}  bound {bound}{flag}", flush=True)
    common.WORK.mkdir(exist_ok=True)
    (common.WORK / "spread.json").write_text(json.dumps(values, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
