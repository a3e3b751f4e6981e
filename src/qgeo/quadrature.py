"""Composite Simpson quadrature over uniformly sampled data.

Only what the trace-based integrals need: a value, a cheap error estimate
from the half-resolution grid, and a flag for the even-node-count fallback
(Simpson on all but the last interval, trapezoid on the last).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # renamed in numpy 2.0


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    trapezoid_tail: bool


def _simpson_odd(y: np.ndarray, dx: float) -> float:
    """Plain composite Simpson; ``y`` must have an odd number of nodes >= 3."""
    return float(
        (dx / 3.0) * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))
    )


def simpson_uniform(y: np.ndarray, dx: float) -> QuadratureResult:
    """Integrate uniformly spaced samples ``y`` with spacing ``dx``.

    Odd node counts use composite Simpson throughout; the error estimate
    compares against the half-resolution grid when one exists (node count
    1 mod 4) and against the trapezoid rule otherwise.  Even node counts
    fall back to a trapezoid on the final interval and flag it.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise GridError(f"need at least 3 samples in a 1-D array, got shape {y.shape}")
    if not 0.0 < dx < math.inf:
        raise GridError(f"sample spacing must be positive and finite, got {dx!r}")

    n = y.size
    trapezoid_full = float(_trapezoid(y, dx=dx))
    if n % 2 == 1:
        value = _simpson_odd(y, dx)
        if (n - 1) % 4 == 0 and n >= 5:
            half = _simpson_odd(y[::2], 2.0 * dx)
            estimate = abs(value - half)
        else:
            estimate = abs(value - trapezoid_full)
        return QuadratureResult(value, estimate, trapezoid_tail=False)

    body = _simpson_odd(y[:-1], dx)
    tail = 0.5 * dx * float(y[-2] + y[-1])
    value = body + tail
    return QuadratureResult(value, abs(value - trapezoid_full), trapezoid_tail=True)
