"""The benchmark's workloads: seeded inputs, one timed op, and its checks.

Every workload drives qgeo only through its public entry points:
``qgeo.cli.main([...])`` in-process with stdout captured, and
``run_scenario`` for the one input the CLI cannot express.  Each op returns
its failures; the checks run outside the timed region and use the
acceptance tolerances of ``tests/test_acceptance.py`` unloosened.

``build`` makes the inputs from the seed (timed as set-up); ``oracle``
computes the benchmark's own reference values (not timed at all).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qgeo.cli as cli

SCENARIO_STEPS = 100_000
TRACE_STEPS = 20_000
SWEEP_SAMPLES = 1000
POOL = 4

TIMEDEP_DIM = 32
TIMEDEP_T = 3.0
TIMEDEP_TOL = 1e-6
#: run_scenario refuses fewer than 100 steps, so the ladder starts at 2**7.
LADDER = tuple(2**k for k in range(7, 15))


@dataclass
class Outcome:
    """What one op produced: failures found by the checks, and work done."""

    failures: list[str] = field(default_factory=list)
    work: float = 0.0
    info: dict[str, Any] = field(default_factory=dict)


def call_cli(clock, argv: list[str]) -> tuple[int, str]:
    """Run ``qgeo.cli.main(argv)`` in-process inside the timed region."""
    out, err = io.StringIO(), io.StringIO()
    with clock, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + (f"\nstderr: {err.getvalue()}" if rc else "")


def _near(failures: list[str], label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        failures.append(f"{label} = {got!r}, expected {want!r} within {tol:g}")


def _check_static(failures: list[str], report: dict, epsilon: float) -> None:
    _near(failures, "s0", report["s0"], math.pi, 1e-8)
    _near(failures, "s", report["s"], math.pi, 1e-8)
    _near(failures, "T", report["t_effective"], math.pi / (2.0 * epsilon), 1e-8)


def _simpson(y: np.ndarray, dx: float) -> float:
    return float((dx / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def _parse(failures: list[str], rc: int, text: str) -> dict | None:
    if rc != 0:
        failures.append(f"exit status {rc}: {text.strip()[-300:]}")
        return None
    return json.loads(text)


# -- scenario-static / scenario-driven ----------------------------------------


def _scenario_draws(seed: int) -> list[dict[str, float]]:
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(POOL):
        omega0 = float(rng.uniform(0.1, 0.4))
        draws.append(
            {
                "epsilon": float(rng.uniform(0.5, 2.0)),
                "omega0": omega0,
                # omega = omega0 * (1 + u), u in [0.2, 1]: always off resonance
                "omega": omega0 * (1.0 + float(rng.uniform(0.2, 1.0))),
            }
        )
    return draws


def build_static(seed: int, workdir: Path) -> list:
    return [
        (d["epsilon"], ["scenario1", "--steps", str(SCENARIO_STEPS), "--epsilon", repr(d["epsilon"])])
        for d in _scenario_draws(seed)
    ]


def op_static(inputs, oracle, i: int, clock) -> Outcome:
    epsilon, argv = inputs[i % len(inputs)]
    rc, text = call_cli(clock, argv)
    out = Outcome(work=SCENARIO_STEPS + 1)
    envelope = _parse(out.failures, rc, text)
    if envelope:
        _check_static(out.failures, envelope["report"], epsilon)
    return out


def build_driven(seed: int, workdir: Path) -> list:
    argvs = []
    for d in _scenario_draws(seed):
        flags = [f"--{k}={v!r}" for k, v in d.items()]
        argvs.append((d, ["scenario2", "--steps", str(SCENARIO_STEPS), *flags]))
    return argvs


def oracle_driven(inputs) -> list[float]:
    """2*integral of the closed-form dispersion, by Simpson on the same grid."""
    from qgeo.propagation import dispersion_driven_closed

    lengths = []
    for d, _ in inputs:
        kappa = math.hypot(d["epsilon"], 0.5 * (d["omega"] - d["omega0"]))
        times = np.linspace(0.0, math.pi / (2.0 * kappa), SCENARIO_STEPS + 1)
        disp = dispersion_driven_closed(d["epsilon"], d["omega"], d["omega0"], times)
        lengths.append(2.0 * _simpson(disp, times[1] - times[0]))
    return lengths


def op_driven(inputs, oracle, i: int, clock) -> Outcome:
    _, argv = inputs[i % len(inputs)]
    rc, text = call_cli(clock, argv)
    out = Outcome(work=SCENARIO_STEPS + 1)
    envelope = _parse(out.failures, rc, text)
    if envelope:
        report = envelope["report"]
        _near(out.failures, "s", report["s"], oracle[i % len(inputs)], 1e-7)
        if not report["eta"] < 1.0:
            out.failures.append(f"eta = {report['eta']!r}, expected < 1 off resonance")
    return out


# -- trace-write / trace-read --------------------------------------------------


def _trace_epsilons(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return [float(rng.uniform(0.5, 2.0)) for _ in range(POOL)]


def _write_argv(epsilon: float, out_dir: Path) -> list[str]:
    return ["scenario1", "--steps", str(TRACE_STEPS), "--epsilon", repr(epsilon), "--out", str(out_dir)]


def _check_written_trace(failures: list[str], out_dir: Path, epsilon: float) -> None:
    """trace.json must hold the closed-form static solution; trace.csv the same nodes.

    Under H = eps*sigma_x from (1, 0): psi(t) = (cos(eps t), -i sin(eps t)),
    with energy mean 0 and dispersion eps at every node (hbar = 1).
    """
    data = json.loads((out_dir / "trace.json").read_text())
    times = np.asarray(data["times"])
    if times.size != TRACE_STEPS + 1:
        failures.append(f"trace.json has {times.size} nodes, expected {TRACE_STEPS + 1}")
        return
    psi = np.array([s["re"] for s in data["states"]]) + 1j * np.array([s["im"] for s in data["states"]])
    exact = np.stack([np.cos(epsilon * times), -1j * np.sin(epsilon * times)], axis=1)
    _near(failures, "max |psi(t) - closed form|", float(np.max(np.abs(psi - exact))), 0.0, 1e-8)
    _near(failures, "max |mean energy|", float(np.max(np.abs(data["energy_mean"]))), 0.0, 1e-8)
    _near(failures, "max |dispersion - eps|", float(np.max(np.abs(np.asarray(data["energy_dispersion"]) - epsilon))), 0.0, 1e-8)
    with open(out_dir / "trace.csv") as fh:
        lines = fh.read().splitlines()
    last = [times[-1], psi[-1, 0].real, psi[-1, 0].imag, psi[-1, 1].real, psi[-1, 1].imag]
    last += [data["energy_mean"][-1], data["energy_dispersion"][-1]]
    if len(lines) != TRACE_STEPS + 2 or [float(x) for x in lines[-1].split(",")] != last:
        failures.append(f"trace.csv has {len(lines) - 1} rows or a last row that differs from trace.json")


def _same_report(failures: list[str], got: dict, stored: dict) -> None:
    if got != stored:
        diff = {k: (got.get(k), stored.get(k)) for k in stored.keys() | got.keys() if got.get(k) != stored.get(k)}
        failures.append(f"report differs from the stored report.json: {diff}")


def build_write(seed: int, workdir: Path) -> list:
    return [(eps, workdir / f"write-{j}") for j, eps in enumerate(_trace_epsilons(seed))]


def op_write(inputs, oracle, i: int, clock) -> Outcome:
    epsilon, out_dir = inputs[i % len(inputs)]
    rc, text = call_cli(clock, _write_argv(epsilon, out_dir))
    out = Outcome(work=TRACE_STEPS + 1)
    envelope = _parse(out.failures, rc, text)
    if envelope:
        _check_static(out.failures, envelope["report"], epsilon)
        stored = json.loads((out_dir / "report.json").read_text())
        _same_report(out.failures, envelope["report"], stored)
        _check_written_trace(out.failures, out_dir, epsilon)
        out.info["trace_json_bytes"] = (out_dir / "trace.json").stat().st_size
    return out


def build_read(seed: int, workdir: Path) -> list:
    """Write one stored run with the CLI; every op re-reads it."""
    epsilon = _trace_epsilons(seed)[0]
    out_dir = workdir / "read-0"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(_write_argv(epsilon, out_dir))
    if rc != 0:
        raise RuntimeError(f"writing the stored trace failed with exit status {rc}")
    return [(epsilon, out_dir)]


def oracle_read(inputs) -> list[dict]:
    return [json.loads((out_dir / "report.json").read_text()) for _, out_dir in inputs]


def op_read(inputs, oracle, i: int, clock) -> Outcome:
    _, out_dir = inputs[i % len(inputs)]
    rc, text = call_cli(clock, ["verify", str(out_dir / "trace.json")])
    out = Outcome(work=TRACE_STEPS + 1)
    report = _parse(out.failures, rc, text)
    if report is not None:
        _same_report(out.failures, report, oracle[i % len(inputs)])
    return out


# -- sweep ---------------------------------------------------------------------


def build_sweep(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31 - 1, size=POOL)
    return [["sweep", "--samples", str(SWEEP_SAMPLES), "--seed", str(int(s))] for s in seeds]


def op_sweep(inputs, oracle, i: int, clock) -> Outcome:
    rc, text = call_cli(clock, inputs[i % len(inputs)])
    out = Outcome(work=SWEEP_SAMPLES)
    result = _parse(out.failures, rc, text)
    if result is not None:
        if result["samples"] != SWEEP_SAMPLES or result["total_violations"] != 0:
            out.failures.append(f"sweep result {result}")
    return out


# -- timedep-accuracy ----------------------------------------------------------


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix scaled to spectral norm 1."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (g + g.conj().T)
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


@dataclass(frozen=True)
class RotatingDrive:
    """H(t) = exp(-iKt) H0 exp(iKt) with hbar = 1, from K's eigendecomposition."""

    h0: np.ndarray
    k_values: np.ndarray
    k_vectors: np.ndarray

    def __call__(self, t: float) -> np.ndarray:
        u = (self.k_vectors * np.exp(-1j * self.k_values * t)) @ self.k_vectors.conj().T
        return u @ self.h0 @ u.conj().T


def build_timedep(seed: int, workdir: Path) -> list:
    from qgeo.hamiltonian import TimeDependent
    from qgeo.states import QuantumState

    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(POOL):
        h0 = _random_hermitian(rng, TIMEDEP_DIM)
        k = _random_hermitian(rng, TIMEDEP_DIM)
        k_values, k_vectors = np.linalg.eigh(k)
        psi0 = QuantumState.normalized(rng.normal(size=TIMEDEP_DIM) + 1j * rng.normal(size=TIMEDEP_DIM))
        drive = RotatingDrive(h0, k_values, k_vectors)
        inputs.append((drive, TimeDependent(drive, TIMEDEP_DIM), psi0))
    return inputs


def _expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * values * t)) @ vectors.conj().T


def oracle_timedep(inputs) -> list[np.ndarray]:
    """Exact psi(T) = exp(-iKT) exp(-i(H0 - K)T) psi0."""
    exact = []
    for drive, _, psi0 in inputs:
        k = (drive.k_vectors * drive.k_values) @ drive.k_vectors.conj().T
        rotating = _expm_hermitian(drive.h0 - k, TIMEDEP_T) @ psi0.amplitudes
        exact.append(_expm_hermitian(k, TIMEDEP_T) @ rotating)
    return exact


def phase_aligned_distance(psi: np.ndarray, exact: np.ndarray) -> float:
    """min over phi of ||psi - e^{i phi} exact||."""
    c = np.vdot(exact, psi)
    return float(np.linalg.norm(psi - (c / abs(c)) * exact))


def op_timedep(inputs, oracle, i: int, clock) -> Outcome:
    """Double the steps from 128 until psi(T) is within 1e-6 of the exact one.

    Only the ``run_scenario`` calls are timed: their sum is what a user
    refining by step doubling pays to reach the stated accuracy.
    """
    _, hamiltonian, psi0 = inputs[i % len(inputs)]
    exact = oracle[i % len(inputs)]
    out = Outcome(work=1.0)
    for steps in LADDER:
        cfg = cli.ScenarioConfig("custom", steps=steps, parameters={"t_final": TIMEDEP_T})
        with clock:
            run = cli.run_scenario(cfg, hamiltonian=hamiltonian, psi0=psi0)
        error = phase_aligned_distance(run.trace.final_state.amplitudes, exact)
        if error <= TIMEDEP_TOL:
            out.info.update(steps_to_accuracy=steps, error=error)
            return out
    out.failures.append(f"error {error:.3e} still above {TIMEDEP_TOL:g} at {LADDER[-1]} steps")
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list]
    op: Callable[..., Outcome]
    oracle: Callable[[list], list] = lambda inputs: [None] * len(inputs)
    work_unit: str = "node"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scenario-static",
            "scenario1 at 100k steps, report only: per-node state wrapping dominates, the sample is constant",
            build_static,
            op_static,
        ),
        Workload(
            "scenario-driven",
            "scenario2 at 100k steps off resonance: per-node sample calls and state wrapping dominate",
            build_driven,
            op_driven,
            oracle_driven,
        ),
        Workload(
            "trace-write",
            "scenario1 at 20k steps with --out: trace.json, trace.csv and report.json export dominates",
            build_write,
            op_write,
        ),
        Workload(
            "trace-read",
            "verify of a stored 20k-node trace.json: parsing and state re-validation dominate",
            build_read,
            op_read,
            oracle_read,
        ),
        Workload(
            "sweep",
            "sweep --samples 1000 over dims 2-8 at 64 steps: per-sample overhead of many tiny traces",
            build_sweep,
            op_sweep,
            work_unit="sample",
        ),
        Workload(
            "timedep-accuracy",
            "dim-32 rotating-frame drive, steps doubled to 1e-6 error: general exponential and hermitian checks",
            build_timedep,
            op_timedep,
            oracle_timedep,
            work_unit="solution",
        ),
    )
}
