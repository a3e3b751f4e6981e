"""Minimum evolution times and verification of the time-energy bound.

For unit vectors A and B and an evolution with energy dispersion dE, the
transfer time obeys  <dE> * T >= hbar * arccos|<A|B>|,  with equality exactly
on geodesics; for orthogonal targets the right side is hbar*pi/2 = h/4.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import geometry
from .errors import FormulaError, StationaryStateError, require_positive_finite
from .hamiltonian import ConstantMatrix, energy_dispersion
from .propagation import EvolutionTrace, evolve, short_time_coefficient
from .quadrature import simpson_uniform
from .states import QuantumState, overlap_modulus


@dataclass(frozen=True)
class BoundQuery:
    """Inputs of a minimum-time query.

    Exactly one of ``dispersion`` (constant spread) or ``avg_dispersion``
    (time-averaged spread) must be given; the bound formula is the same.
    A zero spread is accepted here and refused by :func:`min_time`.
    """

    overlap: float
    dispersion: float | None = None
    avg_dispersion: float | None = None
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if (self.dispersion is None) == (self.avg_dispersion is None):
            raise ValueError(
                "exactly one of dispersion / avg_dispersion must be provided"
            )
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap!r}")
        require_positive_finite(hbar=self.hbar)
        if self.effective_dispersion != 0.0:
            name = "dispersion" if self.dispersion is not None else "avg_dispersion"
            require_positive_finite(**{name: self.effective_dispersion})

    @property
    def effective_dispersion(self) -> float:
        return self.dispersion if self.dispersion is not None else self.avg_dispersion


def min_time(query: BoundQuery) -> float:
    """Minimum transfer time hbar*arccos(overlap)/dispersion.

    Computed both through arccos of the overlap and through arcsin of the
    complementary amplitude; the two routes must agree to 1e-12 (widened only
    by their intrinsic conditioning near overlap 0 and 1), otherwise the
    inputs are inconsistent.
    """
    d = query.effective_dispersion
    if d == 0.0:
        raise StationaryStateError("minimum time undefined at zero dispersion")
    ov = query.overlap
    comp = math.sqrt(max(1.0 - ov * ov, 0.0))
    theta_cos = math.acos(min(ov, 1.0))
    theta_sin = math.asin(min(comp, 1.0))
    # acos amplifies input rounding by 1/comp near overlap 1; asin by 1/ov
    # near overlap 0.  Budget exactly that much float noise (capped so a real
    # transcription bug, which shifts the angle by O(1), still trips).
    machine = float(np.finfo(float).eps)
    amplification = min(1.0 / max(ov, machine) + 1.0 / max(comp, machine), 1e5)
    tol = 1e-12 * max(theta_cos, 1.0) + 64.0 * machine * amplification
    if abs(theta_cos - theta_sin) > tol:
        raise FormulaError(
            f"arccos and arcsin routes disagree: {theta_cos!r} vs {theta_sin!r} "
            f"at overlap {ov!r}"
        )
    return query.hbar * theta_cos / d


def orthogonal_min_time(dispersion: float, hbar: float = 1.0) -> float:
    """Minimum time pi*hbar/(2*dE) = h/(4*dE) to reach an orthogonal state."""
    require_positive_finite(hbar=hbar)
    if dispersion == 0.0:
        raise StationaryStateError("minimum time undefined at zero dispersion")
    require_positive_finite(dispersion=dispersion)
    return 0.5 * math.pi * hbar / dispersion


def min_time_spectral(
    e1: float, e2: float, overlap: float, hbar: float = 1.0
) -> float:
    """Minimum time (2*hbar/(E2 - E1)) * arccos(overlap) for a two-level band.

    The largest dispersion available with spectrum {E1, E2} is (E2 - E1)/2,
    attained by balanced superpositions, so this is the floor over all states
    supported on the band.
    """
    if e2 <= e1:
        raise ValueError(f"need E2 > E1, got E1={e1!r}, E2={e2!r}")
    return min_time(
        BoundQuery(overlap=overlap, dispersion=0.5 * (e2 - e1), hbar=hbar)
    )


def avg_dispersion(trace: EvolutionTrace) -> float:
    """Time-averaged energy dispersion (1/T) * integral of dE(t) dt."""
    if trace.duration <= 0.0:
        raise ValueError("average dispersion undefined on a zero-duration trace")
    dt = trace.grid_spacing()
    integral = simpson_uniform(np.asarray(trace.energy_dispersion), dt).value
    return integral / trace.duration


def _bound_margin(report: geometry.SpeedLimitReport, hbar: float) -> float:
    """Slack  <dE>*T - hbar*arccos|<A|B>|  of the time-energy bound (an action)."""
    rhs = hbar * math.acos(min(math.cos(0.5 * report.s0), 1.0))
    return report.avg_dispersion * report.t_effective - rhs


def verify_bound(trace: EvolutionTrace) -> geometry.SpeedLimitReport:
    """Check the time-energy bound along a trace and return the full report.

    Verifies  <dE>*T >= hbar*arccos|<A|B>|  up to the quadrature tolerance
    (the orthogonal-endpoint case is the same inequality with the right side
    equal to h/4), and cross-checks that near-equality coincides with the
    geodesic predicate s <= s0 + tol at ten times the quadrature error.
    """
    report = geometry.efficiency(trace)
    slack_tol = 0.5 * trace.hbar * (
        10.0 * report.quadrature_error + 1e-12 * max(report.s, 1.0)
    )
    # the floor must carry hbar: lhs and rhs are actions, so a bare 1e-12
    # would be absurdly loose in SI units
    equality_tol = max(slack_tol, 1e-12 * trace.hbar)
    if abs(_bound_margin(report, trace.hbar)) <= equality_tol:
        geo_tol = 10.0 * max(report.quadrature_error, 1e-12)
        if not report.s <= report.s0 + geo_tol:
            raise FormulaError(
                "bound saturated but the trace is not geodesic at the "
                "matching tolerance; report values are inconsistent"
            )
    return report


def solve_implicit_time(
    epsilon: float, omega: float, omega0: float, hbar: float = 1.0
) -> float:
    """Ideal transfer time under the short-time dispersion model.

    Solves  T + a*T^3/3 = t0  for T, with  t0 = pi*hbar/(2*eps)  and
    a = (omega0^2/2)*(1 + 2*omega/omega0).  The cubic is strictly increasing,
    so its one real root lies strictly inside (0, t0); in closed form

        T = (2/sqrt(a)) * sinh(asinh(x)/3),   x = 1.5*t0*sqrt(a),

    which leaves a relative residual below 1e-14; the result is capped at t0,
    which rounding could otherwise pass by an ulp when a*t0^2 is negligible.
    Raises ``ValueError`` naming any input, or ``a`` or ``x``, that is not
    positive and finite.
    """
    require_positive_finite(epsilon=epsilon, hbar=hbar)
    a = short_time_coefficient(omega, omega0)  # validates omega, omega0 and a
    t0 = 0.5 * math.pi * hbar / epsilon
    root_a = math.sqrt(a)
    x = 1.5 * t0 * root_a
    require_positive_finite(**{"1.5*t0*sqrt(a)": x})
    return min(2.0 / root_a * math.sinh(math.asinh(x) / 3.0), t0)


@dataclass(frozen=True)
class SweepResult:
    """Aggregate outcome of a randomized bound sweep.

    ``eta_violations`` counts eta > 1 + 1e-6; ``bound_violations`` counts
    <dE>*T < hbar*arccos|<A|B>| - 1e-6; ``rate_violations`` counts nodes where
    the finite-difference overlap rate beats its bound by more than the
    rigorous O(dt^2) central-difference remainder.  All must be zero.
    """

    samples: int
    seed: int
    eta_min: float
    eta_max: float
    eta_violations: int
    bound_violations: int
    rate_violations: int
    min_bound_margin: float
    max_rate_excess: float

    @property
    def total_violations(self) -> int:
        return self.eta_violations + self.bound_violations + self.rate_violations

    def to_json(self) -> dict[str, Any]:
        return {
            "samples": int(self.samples),
            "seed": int(self.seed),
            "eta_min": float(self.eta_min),
            "eta_max": float(self.eta_max),
            "eta_violations": int(self.eta_violations),
            "bound_violations": int(self.bound_violations),
            "rate_violations": int(self.rate_violations),
            "min_bound_margin": float(self.min_bound_margin),
            "max_rate_excess": float(self.max_rate_excess),
            "total_violations": int(self.total_violations),
        }


def _random_sample_trace(
    seed_seq: np.random.SeedSequence,
    dims: tuple[int, int],
    steps: int,
    hbar: float,
) -> tuple[EvolutionTrace, float]:
    """One random constant-Hamiltonian trace; returns (trace, spectral norm)."""
    rng = np.random.default_rng(seed_seq)
    dim = int(rng.integers(dims[0], dims[1] + 1))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h_matrix = 0.5 * (g + g.conj().T)
    h = ConstantMatrix(h_matrix, hbar=hbar)
    psi0 = QuantumState.normalized(
        rng.normal(size=dim) + 1j * rng.normal(size=dim)
    )
    spectral_norm = float(np.max(np.abs(np.linalg.eigvalsh(h_matrix))))
    d0 = max(energy_dispersion(h, psi0), 1e-6 * spectral_norm, 1e-12)
    t_final = float(rng.uniform(0.3, 2.5)) * 0.5 * math.pi * hbar / d0
    for _ in range(5):
        trace = evolve(h, psi0, t_final, steps)
        if overlap_modulus(trace.initial_state, trace.final_state) < 1.0 - 1e-9:
            return trace, spectral_norm
        t_final *= 1.3737  # deterministic nudge away from a revival
    return trace, spectral_norm


def _rate_check(
    trace: EvolutionTrace, spectral_norm: float
) -> tuple[int, float]:
    """Central-difference overlap rate vs its bound, with a rigorous tolerance.

    The third derivative of |<psi(t)|A>|^2 is bounded by (2*||H||/hbar)^3, so
    the central-difference error is at most that times dt^2/6; adding a small
    float-noise term gives a tolerance that cannot produce false violations.
    """
    a = trace.amplitudes[0]
    overlaps_sq = np.abs(np.array([np.vdot(row, a) for row in trace.amplitudes])) ** 2
    dt = trace.grid_spacing()
    rate = np.abs(overlaps_sq[2:] - overlaps_sq[:-2]) / (2.0 * dt)
    ov = np.sqrt(np.clip(overlaps_sq[1:-1], 0.0, 1.0))
    disp = trace.energy_dispersion[1:-1]
    bound = (2.0 * disp / trace.hbar) * ov * np.sqrt(np.clip(1.0 - ov * ov, 0.0, None))
    tol = ((2.0 * spectral_norm / trace.hbar) ** 3) * dt * dt / 6.0 + 1e-12 / dt
    excess = rate - bound - tol
    return int(np.sum(excess > 0.0)), float(np.max(rate - bound))


def _sweep_one(
    seed_seq: np.random.SeedSequence,
    dims: tuple[int, int],
    steps: int,
    hbar: float,
) -> dict[str, float]:
    trace, spectral_norm = _random_sample_trace(seed_seq, dims, steps, hbar)
    report = geometry.efficiency(trace)
    rate_bad, rate_excess = _rate_check(trace, spectral_norm)
    return {
        "eta": report.eta,
        "bound_margin": _bound_margin(report, trace.hbar),
        "rate_violations": rate_bad,
        "rate_excess": rate_excess,
    }


def run_sweep(
    samples: int = 1000,
    seed: int = 12345,
    dims: tuple[int, int] = (2, 8),
    steps: int = 64,
    hbar: float = 1.0,
    workers: int = 1,
) -> SweepResult:
    """Randomized verification sweep over constant Hermitian generators.

    Each sample draws its own child seed from ``seed``, so results are
    reproducible and independent of ``workers``.

    Args:
        samples: number of random (H, psi0, T) draws, >= 1.
        seed: master seed (spawned per sample).
        dims: inclusive dimension range to draw from.
        steps: integrator steps per trace (even keeps node counts odd).
        hbar: value of hbar used throughout the sweep.
        workers: thread count; > 1 only changes wall time, never results.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    if not (2 <= dims[0] <= dims[1]):
        raise ValueError(f"invalid dimension range {dims!r}")
    children = np.random.SeedSequence(seed).spawn(samples)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(lambda sq: _sweep_one(sq, dims, steps, hbar), children)
            )
    else:
        rows = [_sweep_one(sq, dims, steps, hbar) for sq in children]

    etas = np.array([r["eta"] for r in rows])
    margins = np.array([r["bound_margin"] for r in rows])
    return SweepResult(
        samples=samples,
        seed=seed,
        eta_min=float(np.min(etas)),
        eta_max=float(np.max(etas)),
        eta_violations=int(np.sum(etas > 1.0 + 1e-6)),
        bound_violations=int(np.sum(margins < -1e-6)),
        rate_violations=int(sum(r["rate_violations"] for r in rows)),
        min_bound_margin=float(np.min(margins)),
        max_rate_excess=float(max(r["rate_excess"] for r in rows)),
    )
