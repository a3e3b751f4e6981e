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
from dataclasses import dataclass, fields
from typing import Any, Mapping

import numpy as np

from .errors import (
    DegenerateEndpointsError,
    FormulaError,
    NormalizationError,
    json_field,
    json_number,
    require_positive_finite,
)
from .quadrature import QuadratureResult, simpson_uniform
from .states import CLAMP_WINDOW, wootters_distance

#: Endpoints closer than this (in overlap) have no defined path ratio.
DEGENERACY_TOL = 1e-12

#: How far eta may exceed 1 with the bound still satisfied; eta within it of
#: 1 is a geodesic.
BOUND_TOL = 1e-9

#: Relative gap between a stored ``eta`` and its ``s0/s`` that round-off can
#: explain: a report computes eta as exactly s0/s, and a hand-made one such
#: as ``s = s0/eta`` is off by a few ulps.
ETA_ROUNDOFF = 8.0 * float(np.finfo(float).eps)


def length_quadrature(
    dispersion: np.ndarray, dt: float | np.ndarray, hbar: float
) -> QuadratureResult:
    """Simpson quadrature of 2*dispersion/hbar along the last (node) axis.

    ``dispersion`` holds one trace per row, ``dt`` one node spacing or one
    per row.  An even node count integrates the final interval by trapezoid
    and warns.
    """
    y = np.multiply(dispersion, 2.0)
    y /= hbar  # 2*dispersion/hbar in one buffer
    result = simpson_uniform(y, dt)
    if result.trapezoid_tail:
        warnings.warn(
            "even node count: last interval integrated by trapezoid rule",
            stacklevel=4,
        )
    return result


def path_length(trace) -> float:
    """Fubini-Study length of the trace: (2/hbar) * integral of dispersion dt.

    Requires a uniform grid with at least 3 nodes (a single-node trace has
    length 0); an even node count is accepted but integrates the final
    interval by trapezoid (with a warning).
    """
    if trace.n_nodes == 1:
        return 0.0  # zero-duration trace: no motion, zero length
    return length_quadrature(trace.energy_dispersion, trace.grid_spacing(), trace.hbar).value


@dataclass(frozen=True)
class SpeedLimitReport:
    """Summary of one evolution against the geometric speed limit.

    :func:`speed_limit_report` of a stack of traces holds one array per field.

    Attributes:
        s0: geodesic distance between the trace endpoints.
        s: actual path length along the trace.
        eta: s0/s, the geodesic efficiency (1 exactly on geodesics).
        t_effective: wall duration of the trace.
        t_ideal: minimum time allowed by the time-averaged dispersion.
        avg_dispersion: time-averaged energy dispersion along the trace.
        bound_satisfied: whether eta <= 1 within BOUND_TOL.
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
        """Inverse of :meth:`to_json`, refusing a report that contradicts itself.

        JSON types are checked by field and ``s`` must be positive and finite.
        ``eta`` must equal ``s0/s`` to within round-off, and ``bound_satisfied``
        must equal ``eta <= 1 + BOUND_TOL``; a mismatch or a missing field is
        refused by field name.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a report must be a JSON object, got {type(data).__name__}")
        floats = [f.name for f in fields(cls) if f.name != "bound_satisfied"]
        values = {name: json_number(data, name) for name in floats}
        require_positive_finite(s=values["s"])
        flag = json_field(data, "bound_satisfied")
        if not isinstance(flag, bool):
            raise ValueError(f"bound_satisfied must be a JSON boolean, got {flag!r}")
        eta, ratio = values["eta"], values["s0"] / values["s"]
        if not abs(eta - ratio) <= ETA_ROUNDOFF * abs(ratio):
            raise ValueError(f"eta = {eta!r} contradicts s0/s = {ratio!r}")
        if flag != (eta <= 1.0 + BOUND_TOL):
            raise ValueError(f"bound_satisfied = {str(flag).lower()} contradicts eta = {eta!r}")
        return cls(bound_satisfied=flag, **values)


def speed_limit_report(
    overlap: float | np.ndarray, dispersion: np.ndarray, duration: float | np.ndarray, hbar: float
) -> SpeedLimitReport:
    """Speed-limit report of a trace from its statistics, elementwise over a stack.

    ``overlap`` is ``|<A|B>|`` of each trace's endpoints, ``dispersion`` its
    values at n >= 2 uniform nodes along the last axis, ``duration`` its span.
    ``t_ideal = hbar*arccos(overlap)/<dE>`` at the average ``<dE> = hbar*s/(2T)``.

    Raises:
        NormalizationError: an overlap exceeds 1 beyond CLAMP_WINDOW.
        DegenerateEndpointsError: endpoints phase-equivalent within 1e-12.
        GridError: two nodes only.
        FormulaError: a nonpositive or infinite path length, or disagreeing
            arccos and arcsin routes to s0.
    """
    overlap = np.asarray(overlap, dtype=float)
    if np.any(overlap > 1.0 + CLAMP_WINDOW):
        raise NormalizationError(
            f"overlap modulus {float(np.max(overlap))!r} exceeds 1 beyond round-off; "
            "inputs are not normalized"
        )
    overlap = np.minimum(overlap, 1.0)
    if np.any(overlap >= 1.0 - DEGENERACY_TOL):
        raise DegenerateEndpointsError(
            f"endpoint overlap {float(np.max(overlap))!r} is within 1e-12 of 1; "
            "the path ratio is undefined"
        )
    quad = length_quadrature(dispersion, duration / (dispersion.shape[-1] - 1), hbar)
    s = quad.value
    if not np.all((0.0 < s) & (s < math.inf)):
        raise FormulaError(f"path length {s} is not positive and finite with distinct endpoints")
    comp = np.sqrt(np.maximum(1.0 - overlap * overlap, 0.0))
    theta = np.arccos(overlap)
    _require_arc_routes_agree(theta, np.arcsin(comp), overlap, comp)
    theta = theta if theta.ndim else float(theta)  # one trace reports floats
    avg_disp = 0.5 * hbar * s / duration
    eta = 2.0 * theta / s
    return SpeedLimitReport(
        s0=2.0 * theta,
        s=s,
        eta=eta,
        t_effective=duration,
        t_ideal=hbar * theta / avg_disp,
        avg_dispersion=avg_disp,
        bound_satisfied=eta <= 1.0 + BOUND_TOL,
        quadrature_error=quad.error_estimate,
    )


def _require_arc_routes_agree(theta_cos, theta_sin, ov, comp) -> None:
    """Raise FormulaError where arccos(ov) and arcsin(comp) differ beyond noise.

    Elementwise on arrays.  acos amplifies input rounding by 1/comp near
    overlap 1; asin by 1/ov near overlap 0.  Budget exactly that much float
    noise, capped at sqrt(64 eps) ~ 1.2e-7: the most either route can move
    when its input is off by 32 eps, reached at the singular end, where
    acos(1 - delta) = sqrt(2 delta) to leading order.  A transcription bug
    that shifts the angle by 1e-6 or more still trips at every overlap.
    """
    machine = float(np.finfo(float).eps)
    amplification = 1.0 / np.maximum(ov, machine) + 1.0 / np.maximum(comp, machine)
    noise = np.minimum(64.0 * machine * amplification, math.sqrt(64.0 * machine))
    tol = 1e-12 * np.maximum(theta_cos, 1.0) + noise
    bad = np.flatnonzero(np.abs(theta_cos - theta_sin) > tol)
    if bad.size:
        i = bad[0]
        raise FormulaError(
            f"arccos and arcsin routes disagree: {float(np.ravel(theta_cos)[i])!r} "
            f"vs {float(np.ravel(theta_sin)[i])!r} at overlap {float(np.ravel(ov)[i])!r}"
        )


def efficiency(trace) -> SpeedLimitReport:
    """Geodesic efficiency of a trace, with the full speed-limit report.

    ``<dE>*T = hbar*s/2``, so the time-energy bound along the trace is exactly
    ``eta <= 1``; ``bound_satisfied`` is the one check of it.

    Raises:
        GridError: fewer than 3 nodes or a non-uniform grid.
        DegenerateEndpointsError: endpoints phase-equivalent within 1e-12.
    """
    trace.grid_spacing()  # raises GridError on a single node or a non-uniform grid
    overlap = abs(np.vdot(trace.amplitudes[0], trace.amplitudes[-1]))
    return speed_limit_report(overlap, trace.energy_dispersion, trace.duration, trace.hbar)


def is_geodesic(trace, tol: float = 1e-6) -> bool:
    """True when the trace length exceeds the endpoint distance by <= tol."""
    s = path_length(trace)
    s0 = wootters_distance(trace.initial_state, trace.final_state)
    return s <= s0 + tol
