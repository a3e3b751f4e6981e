"""Run one qgeo benchmark workload and print its metrics.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The loop is closed: one process, one client, one op at a time, no threads.
It times ops until their summed wall time reaches ``--seconds``.  Every op
is checked for correctness outside the timed region.

Times are reported in reference seconds: each op's wall time is scaled by
``CAL_REF_ITER_S / c``, where ``c`` is the time per iteration of a fixed
qgeo-free kernel sampled during that op (README.md, "Reference seconds").

``--trace 0`` reports the end-to-end metrics, measured with no wrappers in
place.  ``--trace 1`` measures untraced ops for half the time, then installs
the span wrappers of ``tracer.py`` and measures traced ops for the other
half, and reports the per-layer metrics.  The spans are written to
``.bench_work/spans-<workload>.npz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment, the raw and calibration times and the failures.  Exit status 2
means the benchmark could not run (unknown workload, or no qgeo sources in
this checkout); no result is printed then.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import common

BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
#: One calibration sample: iterations of the kernel, taken every interval.
CAL_ITERATIONS = 200
CAL_INTERVAL_S = 0.05
#: Seconds per kernel iteration on an idle 2-vCPU Xeon VM at 2.0 GHz
#: (Python 3.11.7, numpy 2.4.6): there one reference second is about one wall second.
CAL_REF_ITER_S = 5e-6


def calibrate(iterations: int = CAL_ITERATIONS) -> float:
    """Seconds per iteration of a fixed kernel of small numpy calls and arithmetic.

    It uses no qgeo code, so no change to qgeo moves it; it slows down with
    the machine when other tenants contend for the core.
    """
    import numpy as np

    v = np.array([0.6, 0.8j])
    m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    acc = 0.0
    t0 = perf_counter()
    for i in range(iterations):
        a = np.asarray(m @ v * (1.0 + i * 1e-12), dtype=complex)
        acc += math.cos(float(np.linalg.norm(a)))
    return (perf_counter() - t0) / iterations


class Clock:
    """Times the regions of one op and samples the machine's speed meanwhile.

    Inside a region, SIGALRM fires every ``CAL_INTERVAL_S`` and its handler
    runs the calibration kernel once; the handler's time is a sample and is
    taken out of the op's time.  With a tracer, each region is a root span
    and each sample becomes a ``bench.cal`` span.
    """

    def __init__(self, tracer=None, op_id: int = 0) -> None:
        self.elapsed = 0.0
        self.samples: list[float] = []
        self._ticks: list[tuple[float, float]] = []
        self.tracer = tracer
        self.op_id = op_id

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(calibrate())
        t1 = perf_counter()
        self._ticks.append((t0, t1 - t0))
        if self.tracer is not None:
            self.tracer.calibration(t0, t1)

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.begin(self.op_id)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        spent = sum(d for start, d in self._ticks if self._t0 <= start < t1)
        self.elapsed += t1 - self._t0 - spent
        if self.tracer is not None:
            self.tracer.finish()

    @property
    def cal(self) -> float:
        return statistics.fmean(self.samples) if self.samples else calibrate()


@dataclass
class Row:
    """One op: wall seconds, seconds per kernel iteration meanwhile, and its outcome."""

    seconds: float
    cal: float
    outcome: object

    @property
    def scale(self) -> float:
        return CAL_REF_ITER_S / self.cal

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def run_op(workload, inputs, oracle, i: int, tracer=None) -> Row:
    """One op; an op that raises is a failed op."""
    import workloads

    gc.collect()
    clock = Clock(tracer, i)
    try:
        outcome = workload.op(inputs, oracle, i, clock)
    except Exception:
        outcome = workloads.Outcome(failures=[traceback.format_exc(limit=3)])
    return Row(clock.elapsed, clock.cal, outcome)


def run_phase(workload, inputs, oracle, seconds: float, tracer=None) -> list[Row]:
    rows: list[Row] = []
    while not rows or sum(r.seconds for r in rows) < seconds:
        rows.append(run_op(workload, inputs, oracle, len(rows), tracer))
    return rows


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    """Import qgeo and build the inputs in fresh interpreters; reference seconds each."""
    times = []
    for k in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup-{k}"
        before = calibrate(20 * CAL_ITERATIONS)
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(probe_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        cal = 0.5 * (before + calibrate(20 * CAL_ITERATIONS))
        times.append(float(done.stdout.strip().splitlines()[-1]) * CAL_REF_ITER_S / cal)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def p50(rows: list[Row]) -> float:
    return statistics.median(r.ref_seconds for r in rows)


def end_to_end(rows: list[Row], setup_times: list[float]) -> dict:
    op_s = p50(rows)
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_s.p50": metric(op_s, "s"),
        "work_per_s": metric(rows[0].outcome.work / op_s, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(summary: dict, untraced: list[Row], traced: list[Row]) -> dict:
    from tracer import LAYERS

    calls = summary["first_op_calls"]
    counts = summary["first_op_counts"]
    reports = max(calls.get("geometry.efficiency", 0), 1)
    out = {f"{layer}.self_s": metric(summary["self_s"][layer], "s") for layer in LAYERS}
    for key, span in (("trace_to_json_s", "to_json"), ("trace_from_json_s", "from_json"), ("trace_to_csv_s", "to_csv")):
        out[f"propagation.{key}"] = metric(summary["inclusive_s"].get(f"propagation.EvolutionTrace.{span}", 0.0), "s")
    out.update(
        {
            "propagation.expm_calls": metric(calls.get("propagation.expm_unitary_step", 0), "count"),
            "propagation.steps_to_accuracy": metric(counts.get("propagation.last_steps", 0), "count"),
            "propagation.amplitude_bytes": metric(counts.get("propagation.amplitude_bytes", 0), "bytes"),
            "cli.trace_json_bytes": metric(traced[0].outcome.info.get("trace_json_bytes", 0), "bytes"),
            "states.constructed": metric(counts.get("states.constructed", 0), "count"),
            "hamiltonian.sample_calls": metric(
                sum(c for n, c in calls.items() if n.startswith("hamiltonian.") and n.endswith(".sample")), "count"
            ),
            "hamiltonian.hermitian_checks": metric(calls.get("hamiltonian.require_hermitian", 0), "count"),
            "quadrature.calls_per_report": metric(calls.get("quadrature.simpson_uniform", 0) / reports, "ratio"),
            "speedlimit.evolve_per_sample": metric(calls.get("propagation.evolve", 0) / reports, "ratio"),
            "trace.overhead_s": metric(p50(traced) - p50(untraced), "s"),
            "trace.op_s": metric(statistics.fmean(summary["op_s"]), "s"),
            "trace.unattributed_s": metric(summary["self_s"]["bench"], "s"),
        }
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.import_qgeo()
    except common.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = common.WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = measure_setup(workload.name, args.seed, workdir)
        inputs = workload.build(args.seed, workdir)
        oracle = workload.oracle(inputs)
        if args.trace:
            from tracer import Tracer

            untraced = run_phase(workload, inputs, oracle, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, inputs, oracle, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.save(common.WORK / f"spans-{workload.name}.npz")
            summary = tracer.summary([r.scale for r in traced])
            metrics = per_layer(summary, untraced, traced)
            rows = untraced + traced
        else:
            rows = run_phase(workload, inputs, oracle, args.seconds)
            metrics = end_to_end(rows, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in rows if r.outcome.failures)
    details = {
        "workload": workload.name,
        "environment": common.environment(args.seed),
        "work_unit": workload.work_unit,
        "ops": len(rows),
        "wall_op_s": [r.seconds for r in rows],
        "cal_s": [r.cal for r in rows],
        "setup_s": setup_times,
        "fail_ratio": failed / len(rows),
        "failures": [f for r in rows for f in r.outcome.failures][:5],
        "info": [r.outcome.info for r in rows[:3]],
    }
    if args.trace:
        details["first_op_calls"] = summary["first_op_calls"]
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": len(rows), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
