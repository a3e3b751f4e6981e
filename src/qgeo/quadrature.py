"""Composite Simpson quadrature over uniformly sampled data.

Only what the trace-based integrals need: a value, a cheap error estimate
from the half-resolution grid, and a flag for the even-node-count fallback
(Simpson on all but the last interval, trapezoid on the last).  Samples may
be stacked: the rule runs along the last axis, one integral per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # renamed in numpy 2.0


@dataclass(frozen=True)
class QuadratureResult:
    """Integral and error estimate: floats for 1-D samples, arrays for stacks."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    trapezoid_tail: bool


def _simpson_odd(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Plain composite Simpson along the last axis, of odd length >= 3."""
    return (dx / 3.0) * (
        y[..., 0]
        + y[..., -1]
        + 4.0 * np.sum(y[..., 1:-1:2], axis=-1)
        + 2.0 * np.sum(y[..., 2:-2:2], axis=-1)
    )


def simpson_uniform(y: np.ndarray, dx: float | np.ndarray) -> QuadratureResult:
    """Integrate uniformly spaced samples ``y`` with spacing ``dx``.

    ``y`` has shape ``(..., n)`` and is integrated along its last axis;
    ``dx`` is one spacing, or one per row (shape ``y.shape[:-1]``).
    Odd node counts use composite Simpson throughout; the error estimate
    compares against the half-resolution grid when one exists (node count
    1 mod 4) and against the trapezoid rule otherwise.  Even node counts
    fall back to a trapezoid on the final interval and flag it.
    """
    y = np.asarray(y, dtype=float)
    dx = np.asarray(dx, dtype=float)
    if y.ndim == 0 or y.shape[-1] < 3:
        raise GridError(f"need at least 3 samples along the last axis, got shape {y.shape}")
    if not np.all((0.0 < dx) & (dx < np.inf)):
        raise GridError(f"sample spacing must be positive and finite, got {dx}")

    n = y.shape[-1]
    if n % 2 == 1:
        value = _simpson_odd(y, dx)
    else:
        value = _simpson_odd(y[..., :-1], dx) + 0.5 * dx * (y[..., -2] + y[..., -1])
    if n % 4 == 1 and n >= 5:  # the half-resolution grid exists
        reference = _simpson_odd(y[..., ::2], 2.0 * dx)
    else:
        reference = _trapezoid(y, dx=dx[..., np.newaxis], axis=-1)
    estimate = np.abs(value - reference)
    if y.ndim == 1:
        value, estimate = float(value), float(estimate)
    return QuadratureResult(value, estimate, trapezoid_tail=n % 2 == 0)
