"""Minimum evolution times and randomized sweeps of the time-energy bound.

For unit vectors A and B and an evolution with energy dispersion dE, the
transfer time obeys  <dE> * T >= hbar * arccos|<A|B>|,  with equality exactly
on geodesics; for orthogonal targets the right side is hbar*pi/2 = h/4.
Along a stored trace the bound is the efficiency inequality eta <= 1, which
:func:`~qgeo.geometry.efficiency` reports.

:func:`run_sweep` tests the bound on random constant Hamiltonians, in fixed
chunks of samples and one pass per dimension group that calls the per-trace
code on stacks: the step exponential and doubling fill of
:func:`~qgeo.propagation.evolve`, the efficiency kernel of
:func:`~qgeo.geometry.efficiency`, and :func:`~qgeo.hamiltonian.overlap_rate_bound`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import geometry
from .errors import IntegrationError, StationaryStateError, require_positive_finite
from .geometry import _require_arc_routes_agree
from .hamiltonian import energy_statistics, overlap_rate_bound
from .propagation import (
    _require_unit_rows,
    expm_unitary_step,
    fill_by_doubling,
    short_time_coefficient,
)


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
    _require_arc_routes_agree(theta_cos, math.asin(min(comp, 1.0)), ov, comp)
    return query.hbar * theta_cos / d


def _bound_margin(avg_dispersion, duration, s0, hbar: float):
    """Slack  <dE>*T - hbar*arccos|<A|B>|  of the time-energy bound (an action).

    Elementwise on arrays; ``s0`` is the geodesic distance 2*arccos|<A|B>|.
    """
    return avg_dispersion * duration - 0.5 * hbar * s0


def solve_implicit_time(
    epsilon: float, omega: float, omega0: float, hbar: float = 1.0
) -> float:
    """Ideal transfer time under the short-time dispersion model.

    Solves  T + a*T^3/3 = t0  for T, with  t0 = pi*hbar/(2*eps)  and
    a = omega*omega0/2 (:func:`~qgeo.propagation.short_time_coefficient`).  The
    cubic is strictly increasing, so its one real root lies strictly inside
    (0, t0); in closed form

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


#: Samples drawn and evaluated together.  The fixed chunk bounds the
#: ``(chunk, steps + 1, dim)`` amplitude block whatever the sample count;
#: the results do not depend on it.
SWEEP_CHUNK = 128


def _draw(
    seed_seq: np.random.SeedSequence, dims: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, float]:
    """One sample's draws: complex Gaussian matrix, unnormalized psi0, duration factor.

    The draw order (integers, normal x4, uniform) fixes each sample's values.
    """
    rng = np.random.default_rng(seed_seq)
    dim = int(rng.integers(dims[0], dims[1] + 1))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return g, psi, float(rng.uniform(0.3, 2.5))


def _propagate(
    h: np.ndarray, psi0: np.ndarray, t_final: np.ndarray, steps: int, hbar: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of each sample ``psi0`` under its ``h`` on ``steps`` uniform steps: ``(B, n, d)``.

    Each sample takes one :func:`~qgeo.propagation.expm_unitary_step` and the
    doubling fill of :func:`~qgeo.propagation.evolve`.  A sample whose
    endpoints land on a revival (overlap >= 1 - 1e-9) has its duration
    stretched by 1.3737 and is propagated again, at most four times; the
    others are left alone.  Returns the final durations and the amplitudes.
    Raises IntegrationError when a final node's norm drifts beyond MAX_NORM_DRIFT.
    """
    t_final = np.array(t_final, dtype=float)

    def nodes(rows):
        step = expm_unitary_step(h[rows], t_final[rows] / steps, hbar)
        return fill_by_doubling(step, psi0[rows], steps + 1)

    amps = nodes(slice(None))
    for _ in range(4):
        ends = np.abs(np.sum(amps[:, 0].conj() * amps[:, -1], axis=-1))
        stuck = np.flatnonzero(ends >= 1.0 - 1e-9)
        if not stuck.size:
            break
        t_final[stuck] *= 1.3737  # deterministic nudge away from a revival
        amps[stuck] = nodes(stuck)
    _require_unit_rows(amps, IntegrationError)  # after the last write to the nodes
    return t_final, amps


def _group_metrics(
    g: np.ndarray, psi: np.ndarray, u: np.ndarray, steps: int, hbar: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eta, bound margin, rate violations and max rate excess of each sample.

    ``g``, ``psi`` and ``u`` stack the draws of samples of one dimension.
    ``h = (g + g^dagger)/2`` is Hermitian bit for bit (addition commutes and
    negation is exact) and finite, so it needs no Hermiticity check.
    """
    h = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
    psi0 = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    spectral_norm = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    d0 = energy_statistics(h, psi0[:, np.newaxis])[1][:, 0]
    d0 = np.maximum(np.maximum(d0, 1e-6 * spectral_norm), 1e-12)
    t_final, amps = _propagate(h, psi0, u * 0.5 * math.pi * hbar / d0, steps, hbar)
    disp = energy_statistics(h, amps)[1]
    dt = t_final / steps
    overlaps = np.abs((amps @ amps[:, 0, :, np.newaxis].conj())[..., 0])
    report = geometry.speed_limit_report(overlaps[:, -1], disp, t_final, hbar)
    margin = _bound_margin(report.avg_dispersion, t_final, report.s0, hbar)

    # central-difference overlap rate against its bound; the third derivative
    # of |<psi(t)|A>|^2 is at most (2*||H||/hbar)^3, so the difference errs by
    # at most that times dt^2/6, plus a float-noise term
    ov2 = overlaps * overlaps
    rate = np.abs(ov2[:, 2:] - ov2[:, :-2]) / (2.0 * dt[:, np.newaxis])
    bound = overlap_rate_bound(disp[:, 1:-1], np.sqrt(np.clip(ov2[:, 1:-1], 0.0, 1.0)), hbar)
    tol = ((2.0 * spectral_norm / hbar) ** 3) * dt * dt / 6.0 + 1e-12 / dt
    excess = rate - bound
    rate_bad = np.sum(excess - tol[:, np.newaxis] > 0.0, axis=-1)
    return report.eta, margin, rate_bad, np.max(excess, axis=-1)


def _sample_metrics(
    children: Sequence[np.random.SeedSequence],
    dims: tuple[int, int],
    steps: int,
    hbar: float,
) -> np.ndarray:
    """Per-sample (eta, bound margin, rate violations, max rate excess).

    Returns a ``(len(children), 4)`` array in seed order.  The samples are
    drawn SWEEP_CHUNK at a time and evaluated per dimension group.
    """
    out = np.empty((len(children), 4))
    for start in range(0, len(children), SWEEP_CHUNK):
        draws = [_draw(sq, dims) for sq in children[start : start + SWEEP_CHUNK]]
        sizes = np.array([psi.size for _, psi, _ in draws])
        for dim in np.unique(sizes):
            rows = np.flatnonzero(sizes == dim)
            g, psi, u = (np.array(col) for col in zip(*(draws[i] for i in rows)))
            out[start + rows] = np.column_stack(_group_metrics(g, psi, u, steps, hbar))
    return out


def run_sweep(
    samples: int = 1000,
    seed: int = 12345,
    dims: tuple[int, int] = (2, 8),
    steps: int = 64,
    hbar: float = 1.0,
) -> SweepResult:
    """Randomized verification sweep over constant Hermitian generators.

    Each sample draws its own child seed from ``seed``, so results are
    reproducible and independent of chunking.  A sample propagates ``psi0``
    under ``H`` for ``u * pi*hbar/(2*dE0)``, with ``u`` uniform in [0.3, 2.5].

    Args:
        samples: number of random (H, psi0, T) draws, >= 1.
        seed: master seed (spawned per sample), a non-negative integer.
        dims: inclusive dimension range to draw from.
        steps: integrator steps per sample, an integer >= 2 (even keeps
            node counts odd).
        hbar: value of hbar used throughout the sweep.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not (2 <= dims[0] <= dims[1]):
        raise ValueError(f"invalid dimension range {dims!r}")
    if not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    require_positive_finite(hbar=hbar)
    children = np.random.SeedSequence(seed).spawn(samples)
    etas, margins, rate_bad, rate_excess = _sample_metrics(
        children, dims, int(steps), hbar
    ).T
    return SweepResult(
        samples=samples,
        seed=seed,
        eta_min=float(np.min(etas)),
        eta_max=float(np.max(etas)),
        eta_violations=int(np.sum(etas > 1.0 + 1e-6)),
        bound_violations=int(np.sum(margins < -1e-6)),
        rate_violations=int(np.sum(rate_bad)),
        min_bound_margin=float(np.min(margins)),
        max_rate_excess=float(np.max(rate_excess)),
    )
