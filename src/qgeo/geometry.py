"""Projective-space geometry of evolution traces.

The length of a curve of pure states, measured by the Fubini-Study metric,
is s = (2/hbar) * integral of the energy dispersion over time; the shortest
possible curve between the endpoints has length s0 = 2*arccos|<A|B>|.  Their
ratio eta = s0/s <= 1 measures how geodesic the actual motion is, and equals
1 exactly on geodesics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import (
    DegenerateEndpointsError,
    FormulaError,
    GridError,
    require_positive_finite,
)
from .quadrature import QuadratureResult, simpson_uniform
from .states import QuantumState, overlap_modulus, wootters_distance

#: Endpoints closer than this (in overlap) have no defined path ratio.
DEGENERACY_TOL = 1e-12


def geodesic_distance(a: QuantumState, b: QuantumState) -> float:
    """Length 2*arccos|<a|b>| of the shortest curve between the two rays."""
    return wootters_distance(a, b)


def _path_quadrature(trace, rel_tol: float = 1e-9) -> QuadratureResult:
    """Simpson quadrature of 2*dispersion/hbar over the trace nodes."""
    n = trace.n_nodes
    if n == 1:
        # zero-duration trace: no motion, zero length
        return QuadratureResult(0.0, 0.0, trapezoid_tail=False)
    if n < 3:
        raise GridError(f"path length needs at least 3 nodes, got {n}")
    dt = trace.grid_spacing(rel_tol)  # raises GridError on non-uniform grids
    result = simpson_uniform(2.0 * trace.energy_dispersion / trace.hbar, dt)
    if result.trapezoid_tail:
        warnings.warn(
            "even node count: last interval integrated by trapezoid rule",
            stacklevel=3,
        )
    return result


def path_length(trace) -> float:
    """Fubini-Study length of the trace: (2/hbar) * integral of dispersion dt.

    Requires a uniform grid with at least 3 nodes (a single-node trace has
    length 0); an even node count is accepted but integrates the final
    interval by trapezoid (with a warning).
    """
    return _path_quadrature(trace).value


@dataclass(frozen=True)
class SpeedLimitReport:
    """Summary of one evolution against the geometric speed limit.

    Attributes:
        s0: geodesic distance between the trace endpoints.
        s: actual path length along the trace.
        eta: s0/s, the geodesic efficiency (1 exactly on geodesics).
        t_effective: wall duration of the trace.
        t_ideal: minimum time allowed by the time-averaged dispersion.
        avg_dispersion: time-averaged energy dispersion along the trace.
        bound_satisfied: whether eta <= 1 within 1e-9.
        quadrature_error: half-resolution Simpson error estimate on s.
    """

    s0: float
    s: float
    eta: float
    t_effective: float
    t_ideal: float
    avg_dispersion: float
    bound_satisfied: bool
    quadrature_error: float

    def to_json(self) -> dict[str, Any]:
        return {
            "s0": float(self.s0),
            "s": float(self.s),
            "eta": float(self.eta),
            "t_effective": float(self.t_effective),
            "t_ideal": float(self.t_ideal),
            "avg_dispersion": float(self.avg_dispersion),
            "bound_satisfied": bool(self.bound_satisfied),
            "quadrature_error": float(self.quadrature_error),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SpeedLimitReport":
        return cls(
            s0=float(data["s0"]),
            s=float(data["s"]),
            eta=float(data["eta"]),
            t_effective=float(data["t_effective"]),
            t_ideal=float(data["t_ideal"]),
            avg_dispersion=float(data["avg_dispersion"]),
            bound_satisfied=bool(data["bound_satisfied"]),
            quadrature_error=float(data["quadrature_error"]),
        )


def efficiency(trace) -> SpeedLimitReport:
    """Geodesic efficiency of a trace, with the full speed-limit report.

    Raises:
        DegenerateEndpointsError: endpoints phase-equivalent within 1e-12.
        GridError: fewer than 3 nodes or a non-uniform grid.
    """
    overlap = overlap_modulus(trace.initial_state, trace.final_state)
    if overlap >= 1.0 - DEGENERACY_TOL:
        raise DegenerateEndpointsError(
            f"endpoint overlap {overlap!r} is within 1e-12 of 1; "
            "the path ratio is undefined"
        )
    quad = _path_quadrature(trace)
    s = quad.value
    s0 = 2.0 * math.acos(overlap)
    if s <= 0.0:
        raise FormulaError(
            f"nonpositive path length {s!r} with non-degenerate endpoints"
        )
    duration = trace.duration
    avg_disp = 0.5 * trace.hbar * s / duration
    eta = s0 / s

    from .speedlimit import BoundQuery, min_time  # deferred: avoids module cycle

    t_ideal = min_time(BoundQuery(overlap=overlap, avg_dispersion=avg_disp, hbar=trace.hbar))
    return SpeedLimitReport(
        s0=s0,
        s=s,
        eta=eta,
        t_effective=duration,
        t_ideal=t_ideal,
        avg_dispersion=avg_disp,
        bound_satisfied=eta <= 1.0 + 1e-9,
        quadrature_error=quad.error_estimate,
    )


def is_geodesic(trace, tol: float = 1e-6) -> bool:
    """True when the trace length exceeds the endpoint distance by <= tol."""
    s = path_length(trace)
    s0 = geodesic_distance(trace.initial_state, trace.final_state)
    return s <= s0 + tol


@dataclass(frozen=True, eq=False)
class GeodesicSpec:
    """Endpoint pair for the interpolating geodesic line.

    Endpoints must not be phase-equivalent (overlap below 1 - 1e-12).
    """

    a: QuantumState
    b: QuantumState

    def __post_init__(self) -> None:
        overlap = overlap_modulus(self.a, self.b)
        if overlap >= 1.0 - DEGENERACY_TOL:
            raise DegenerateEndpointsError(
                f"geodesic endpoints have overlap {overlap!r}; "
                "they must be distinct rays"
            )


def geodesic_line(spec: GeodesicSpec, xi: float) -> QuantumState:
    """Normalized interpolant between the endpoints at parameter xi in [0, 1].

    Returns N * [(1 - xi)|a> + xi|b>] with N the inverse norm of the bracket.
    For orthogonal endpoints N reduces to [1 - 2*xi*(1 - xi)]^(-1/2).
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must lie in [0, 1], got {xi!r}")
    vec = (1.0 - xi) * spec.a.amplitudes + xi * spec.b.amplitudes
    return QuantumState.normalized(vec)


def xi_of_t(epsilon: float, t: float, hbar: float = 1.0) -> float:
    """Geodesic parameter reached at time t under the static generator.

    xi(t) = tan(eps*t/hbar) / (1 + tan(eps*t/hbar)), evaluated in the
    numerically stable form sin/(sin + cos); runs monotonically from 0 to 1
    as t goes from 0 to pi*hbar/(2*eps).
    """
    require_positive_finite(epsilon=epsilon, hbar=hbar)
    t_orth = math.pi * hbar / (2.0 * epsilon)
    if not 0.0 <= t <= t_orth * (1.0 + 1e-12):
        raise ValueError(
            f"t must lie in [0, {t_orth!r}] (orthogonality time), got {t!r}"
        )
    theta = epsilon * t / hbar
    s, c = math.sin(theta), math.cos(theta)
    return s / (s + c)
