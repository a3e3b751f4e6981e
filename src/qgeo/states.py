"""Pure states on a finite-dimensional Hilbert space.

A state is a unit vector of complex amplitudes.  All distance notions exposed
here live on the projective space: a global phase never changes any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, FormulaError, NormalizationError

#: Tolerance for the strict unit-norm check in :meth:`QuantumState.exact`.
NORM_TOL = 1e-12

# Anything worse than this is not round-off but a caller bug, regardless of
# which constructor was used.
_HARD_NORM_GATE = 1e-6


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A normalized pure state.

    Use :meth:`normalized` (rescales) or :meth:`exact` (verifies) to build
    instances; the bare constructor only accepts vectors already within
    round-off of unit norm.  The amplitude array is read-only.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise DimensionMismatchError(
                f"state amplitudes must be a 1-D vector, got shape {amps.shape}"
            )
        if amps.size < 2:
            raise DimensionMismatchError(
                f"state dimension must be at least 2, got {amps.size}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= _HARD_NORM_GATE:  # a nan norm fails too
            raise NormalizationError(
                f"amplitudes have norm {norm!r}; use QuantumState.normalized()"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, values: Sequence[complex] | np.ndarray) -> "QuantumState":
        """Build a state from any nonzero vector, rescaling to unit norm."""
        amps = np.asarray(values, dtype=complex)
        norm = float(np.linalg.norm(amps))
        if not 0.0 < norm < math.inf:
            raise NormalizationError(f"cannot normalize a vector of norm {norm!r}")
        return cls(amps / norm)

    @classmethod
    def exact(
        cls, values: Sequence[complex] | np.ndarray, tol: float = NORM_TOL
    ) -> "QuantumState":
        """Build a state from a vector that must already have unit norm.

        Raises:
            NormalizationError: if ``| ||v|| - 1 | > tol``.
        """
        amps = np.asarray(values, dtype=complex)
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= tol:  # a nan norm fails too
            raise NormalizationError(
                f"norm deviates from 1 by {abs(norm - 1.0):.3e} (tol {tol:.1e})"
            )
        return cls(amps)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuantumState({np.array2string(self.amplitudes, precision=6)})"


def ray_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Angle arccos|<a|b>| between the rays of unit vectors, elementwise over ``(..., d)``.

    Computed as ``atan2(||b - <a|b> a||, |<a|b>|)``.  Each leg carries a few
    eps of absolute round-off, and atan2 passes it to the angle with a gain
    of 1/r, so the angle is good to a few eps at every angle.  ``arccos`` of
    the overlap gains 1/sin(theta) instead: an overlap rounded near 1 loses
    half its digits.  One pair gives a float.

    Raises:
        FormulaError: where ``r*cos(theta)`` or ``r*sin(theta)``, with ``r`` the
            hypotenuse of the legs, misses its leg by more than ``8*eps*r``.
            Round-off stays far inside that at every angle, and an angle off by
            1e-6 moves one leg by at least ``0.7e-6*r``.
    """
    ab = np.sum(np.conj(a) * b, axis=-1)
    par = np.abs(ab)
    perp = np.linalg.norm(b - ab[..., np.newaxis] * a, axis=-1)
    theta = np.arctan2(perp, par)
    r = np.hypot(par, perp)
    miss = np.maximum(np.abs(r * np.cos(theta) - par), np.abs(r * np.sin(theta) - perp))
    bad = ~(miss <= 8.0 * np.finfo(float).eps * r)  # a nan fails too
    if np.any(bad):
        t, x, y = (float(v[bad].flat[0]) for v in (theta, par, perp))
        raise FormulaError(f"angle {t!r} contradicts its legs {x!r} and {y!r}")
    return theta if theta.ndim else float(theta)

