"""Check that the traced run's exact counts repeat exactly for the same seed.

Usage::

    python3 bench/check_counts.py [--seed 1] [--seconds 4] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and compares
the counts that depend only on the inputs.  They describe the first traced
op, whose inputs depend only on the seed.  Exit status 1 on any mismatch or
failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import common

EXACT = (
    "states.constructed",
    "hamiltonian.sample_calls",
    "hamiltonian.hermitian_checks",
    "propagation.expm_calls",
    "propagation.steps_to_accuracy",
    "propagation.amplitude_bytes",
    "quadrature.calls_per_report",
    "speedlimit.evolve_per_sample",
    "cli.trace_json_bytes",
)


def traced_counts(name: str, seed: int, seconds: int) -> dict:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    cmd = [*spec["command"], "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{name}: traced run reported incorrect output")
    return {k: result["metrics"][k]["value"] for k in EXACT}


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()

    ok = True
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        first = traced_counts(name, args.seed, args.seconds)
        second = traced_counts(name, args.seed, args.seconds)
        same = first == second
        ok = ok and same
        print(f"{name:18} {'repeat' if same else 'DIFFER'} {first if same else (first, second)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
