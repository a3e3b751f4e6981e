"""End-to-end acceptance checklist for the qgeo package.

Eight numbered checks cover the two reference scenarios, the SI reference
values, the randomized bound ensemble, the metric-relation order, the
decomposition property, the short-time coefficient, and the overlap-rate
bound.  Every check prints exactly one line

    ACCEPTANCE <n> (<label>): PASS|FAIL -- <key numbers>

before asserting, so ``pytest tests/test_acceptance.py -s`` doubles as a
readable report.  All checks are deterministic (fixed seeds) and run at desk
scale.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from qgeo.cli import ScenarioConfig, run_scenario
from qgeo.errors import StationaryStateError
from qgeo.hamiltonian import (
    TwoLevelDriven,
    TwoLevelStatic,
    energy_statistics,
    vaidman_decompose,
)
from qgeo.propagation import (
    dispersion_driven_closed,
    dispersion_driven_near_resonance,
    propagator_static,
    short_time_coefficient,
)
from qgeo.speedlimit import run_sweep, solve_implicit_time
from qgeo.states import QuantumState, ray_angle

EPS, OMEGA, OMEGA0 = 1.0, 0.25, 0.2

ENSEMBLE_SAMPLES = 1000
ENSEMBLE_SEED = 20240817


def _verdict(number: int, label: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status} -- {detail}", flush=True)
    return ok


@pytest.fixture(scope="module")
def ensemble():
    """One randomized sweep, shared by the bound and rate-bound checks."""
    start = time.perf_counter()
    result = run_sweep(
        samples=ENSEMBLE_SAMPLES, seed=ENSEMBLE_SEED, dims=(2, 8), steps=64
    )
    return result, time.perf_counter() - start


def test_static_scenario_reproduction():
    start = time.perf_counter()
    run = run_scenario(ScenarioConfig(scenario="static", steps=2000))
    runtime = time.perf_counter() - start

    r = run.report
    geodesic = r.s - r.s0 <= 1e-6
    half_pi = 0.5 * math.pi
    worst = max(
        abs(r.s0 - math.pi),
        abs(r.s - math.pi),
        abs(r.eta - 1.0),
        abs(r.t_effective - half_pi),
        abs(r.t_ideal - half_pi),
    )
    ok = worst <= 1e-8 and geodesic and runtime < 1.0
    assert _verdict(
        1,
        "static scenario reproduction",
        ok,
        f"max deviation {worst:.2e} (tol 1e-8), geodesic at 1e-6: {geodesic}, "
        f"runtime {runtime:.2f}s (< 1s)",
    )


def test_driven_scenario_reproduction():
    start = time.perf_counter()
    run = run_scenario(ScenarioConfig(scenario="driven", steps=2000))
    trace, r = run.trace, run.report

    # (a) closed-form dispersion against the trace statistics, node by node
    closed = dispersion_driven_closed(EPS, OMEGA, OMEGA0, trace.times, 1.0)
    disp_dev = float(np.max(np.abs(closed - trace.energy_dispersion)))

    # (b) strictly suboptimal: the excess length must clear the quadrature
    # error estimate, otherwise "eta < 1" would be a statement about noise
    excess = r.s - r.s0
    strict = r.eta < 1.0 and excess > r.quadrature_error

    # (c) short-time-model transfer time against a bisection oracle
    t_tilde = solve_implicit_time(EPS, OMEGA, OMEGA0, 1.0)
    a = short_time_coefficient(OMEGA, OMEGA0)
    target = 0.5 * math.pi
    residual = abs(t_tilde + a * t_tilde**3 / 3.0 - target)
    lo, hi = 0.0, target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + a * mid**3 / 3.0 < target:
            lo = mid
        else:
            hi = mid
    oracle_dev = abs(t_tilde - 0.5 * (lo + hi))
    runtime = time.perf_counter() - start

    ok = (
        disp_dev <= 1e-7
        and strict
        and t_tilde < target
        and residual <= 1e-14 * target
        and oracle_dev <= 1e-12
        and runtime < 2.0
    )
    assert _verdict(
        2,
        "driven scenario reproduction",
        ok,
        f"dispersion dev {disp_dev:.2e} (tol 1e-7), eta {r.eta:.6f} with "
        f"excess {excess:.2e} > quad err {r.quadrature_error:.2e}, "
        f"T~ {t_tilde:.12f} residual {residual:.1e}, bisection dev "
        f"{oracle_dev:.1e}, runtime {runtime:.2f}s (< 2s)",
    )


def test_si_reference_values():
    driven = run_scenario(
        ScenarioConfig(
            scenario="driven",
            unit_system="si",
            parameters={"b_perp_tesla": 1e-6, "b_parallel_tesla": 1.0},
        )
    )
    nu_ghz = driven.extras["nu_larmor_hz"] / 1e9

    static = run_scenario(
        ScenarioConfig(
            scenario="static",
            unit_system="si",
            parameters={"b_perp_tesla": 1e-6},
        )
    )
    t_eff = static.extras["t_effective_seconds"]

    ok = 27.5 <= nu_ghz <= 28.5 and 1.7e-5 <= t_eff <= 1.9e-5
    assert _verdict(
        3,
        "SI reference values",
        ok,
        f"nu_Larmor(1 T) = {nu_ghz:.3f} GHz (in [27.5, 28.5]), "
        f"T_eff(1e-6 T) = {t_eff:.3e} s (in [1.7e-5, 1.9e-5])",
    )


def test_randomized_bound_ensemble(ensemble):
    result, runtime = ensemble
    ok = (
        result.samples >= 1000
        and result.eta_violations == 0
        and result.bound_violations == 0
        and result.eta_max <= 1.0 + 1e-6
        and result.min_bound_margin >= -1e-6
        and runtime < 60.0
    )
    assert _verdict(
        4,
        "randomized bound ensemble",
        ok,
        f"{result.samples} samples (dims 2-8), eta max {result.eta_max:.9f} "
        f"(<= 1+1e-6), min bound margin {result.min_bound_margin:.3e} "
        f"(>= -1e-6), violations {result.total_violations}, "
        f"runtime {runtime:.1f}s (< 60s)",
    )


def _lab_frame_state(t: float) -> QuantumState:
    """Exact solution of the lab-frame driven problem, started from (1, 0)."""
    detuning = OMEGA - OMEGA0
    kappa = math.hypot(EPS, 0.5 * detuning)
    theta = kappa * t
    axis = np.array(
        [[-0.5 * detuning, EPS], [EPS, 0.5 * detuning]], dtype=complex
    ) / kappa
    u = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * axis
    frame = np.diag([np.exp(-0.5j * OMEGA * t), np.exp(0.5j * OMEGA * t)])
    return QuantumState.exact(frame @ u @ np.array([1.0, 0.0]), tol=1e-12)


def test_metric_relation_order():
    t0 = 0.5

    # static: exact propagator, constant dispersion.  The residual falls as
    # dt^4 here, so the ladder stays coarse to keep it far above float noise.
    static_dts = 0.05 / 2.0 ** np.arange(5)
    e0 = np.array([1.0, 0.0], dtype=complex)
    static_h = TwoLevelStatic(epsilon=EPS)
    psi_a = QuantumState.exact(propagator_static(EPS, t0) @ e0, tol=1e-12)
    disp_a = energy_statistics(static_h.sample(t0), psi_a.amplitudes[np.newaxis])[1][0]
    static_resid = []
    for dt in static_dts:
        psi_b = QuantumState.exact(propagator_static(EPS, t0 + dt) @ e0, tol=1e-12)
        sin2 = math.sin(ray_angle(psi_a.amplitudes, psi_b.amplitudes)) ** 2
        static_resid.append(abs(4.0 * sin2 - 4.0 * disp_a**2 * dt * dt))

    # driven: the relation ties a Schrodinger pair together, so the states and
    # the dispersion must come from the same lab-frame Hamiltonian.  The dt^3
    # coefficient (proportional to the slow (DeltaE^2)' here) competes with the
    # dt^4 term above dt ~ 5e-3, so the ladder starts below that crossover.
    driven_dts = 0.004 / 2.0 ** np.arange(5)
    driven_h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
    phi_a = _lab_frame_state(t0)
    disp_b = energy_statistics(driven_h.sample(t0), phi_a.amplitudes[np.newaxis])[1][0]
    driven_resid = []
    for dt in driven_dts:
        phi_b = _lab_frame_state(t0 + dt)
        sin2 = math.sin(ray_angle(phi_a.amplitudes, phi_b.amplitudes)) ** 2
        driven_resid.append(abs(4.0 * sin2 - 4.0 * disp_b**2 * dt * dt))

    slope_static = float(
        np.polyfit(np.log(static_dts), np.log(static_resid), 1)[0]
    )
    slope_driven = float(
        np.polyfit(np.log(driven_dts), np.log(driven_resid), 1)[0]
    )
    ok = slope_static >= 2.7 and slope_driven >= 2.7
    assert _verdict(
        5,
        "metric-relation order",
        ok,
        f"residual log-slope static {slope_static:.2f}, driven "
        f"{slope_driven:.2f} (both >= 2.7)",
    )


def test_decomposition_property():
    rng = np.random.default_rng(np.random.SeedSequence(714025))
    pairs, skipped = 0, 0
    worst_reconstruct = worst_orth = worst_norm = 0.0
    while pairs < 10_000:
        dim = int(rng.integers(2, 9))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q = 0.5 * (raw + raw.conj().T)
        psi = QuantumState.normalized(
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        )
        try:
            d = vaidman_decompose(q, psi)
        except StationaryStateError:
            skipped += 1
            continue
        pairs += 1
        v = psi.amplitudes
        rebuilt = d.mean * v + d.dispersion * d.perp.amplitudes
        worst_reconstruct = max(
            worst_reconstruct, float(np.linalg.norm(q @ v - rebuilt))
        )
        worst_orth = max(worst_orth, abs(complex(np.vdot(v, d.perp.amplitudes))))
        worst_norm = max(
            worst_norm, abs(float(np.linalg.norm(d.perp.amplitudes)) - 1.0)
        )

    ok = max(worst_reconstruct, worst_orth, worst_norm) <= 1e-10
    assert _verdict(
        6,
        "decomposition property",
        ok,
        f"{pairs} pairs (dims 2-8, {skipped} stationary draws skipped): "
        f"worst reconstruction {worst_reconstruct:.2e}, orthogonality "
        f"{worst_orth:.2e}, perp norm {worst_norm:.2e} (all <= 1e-10)",
    )


def test_short_time_coefficient():
    a = short_time_coefficient(OMEGA, OMEGA0)

    # fit window: far below the t ~ 1/sqrt(a) validity edge, so the ignored
    # O(t^4) remainder biases the fitted coefficient well under 1%
    ts = np.linspace(0.002, 0.03, 25)
    ys = dispersion_driven_near_resonance(EPS, OMEGA, OMEGA0, ts) / EPS - 1.0
    a_fit = float(np.sum(ys * ts**2) / np.sum(ts**4))
    rel_err = abs(a_fit - a) / a

    def remainder(t: float) -> float:
        y = dispersion_driven_near_resonance(EPS, OMEGA, OMEGA0, t) / EPS - 1.0
        return y - a * t * t

    orders = []
    t = 0.4
    for _ in range(4):
        orders.append(math.log2(abs(remainder(t)) / abs(remainder(0.5 * t))))
        t *= 0.5

    ok = rel_err <= 0.01 and min(orders) >= 3.5
    assert _verdict(
        7,
        "short-time coefficient",
        ok,
        f"a_fit {a_fit:.6f} vs a {a:.6f} (rel err {rel_err:.2%}, tol 1%), "
        f"Richardson order min {min(orders):.2f} (>= 3.5)",
    )


def test_overlap_rate_bound(ensemble):
    result, _ = ensemble
    ok = result.rate_violations == 0
    assert _verdict(
        8,
        "overlap rate-bound property",
        ok,
        f"{result.rate_violations} nodes of {result.samples} traces where the exact "
        f"overlap rate beats its bound beyond 64 eps; max squared excess "
        f"{result.max_rate_excess:.2e} (in units of ||H||_2^2)",
    )
