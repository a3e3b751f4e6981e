"""Pure states on a finite-dimensional Hilbert space.

A state is a unit vector of complex amplitudes.  All distance notions exposed
here live on the projective space: a global phase never changes any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NormalizationError

#: Tolerance for the strict unit-norm check in :meth:`QuantumState.exact`.
NORM_TOL = 1e-12

#: Overlap moduli may exceed 1 by at most this much before we refuse to clamp.
CLAMP_WINDOW = 1e-12

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
        if abs(norm - 1.0) > _HARD_NORM_GATE:
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
        if norm == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
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
        if abs(norm - 1.0) > tol:
            raise NormalizationError(
                f"norm deviates from 1 by {abs(norm - 1.0):.3e} (tol {tol:.1e})"
            )
        return cls(amps)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QuantumState({np.array2string(self.amplitudes, precision=6)})"


def _require_same_dim(a: QuantumState, b: QuantumState) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def inner(a: QuantumState, b: QuantumState) -> complex:
    """Hermitian inner product <a|b> (conjugate-linear in the first slot)."""
    _require_same_dim(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def overlap_modulus(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|, clamped into [0, 1].

    Round-off may push the modulus a hair above 1; anything beyond the clamp
    window means the inputs were not actually unit vectors and is an error
    rather than something to silently clamp away.
    """
    m = abs(inner(a, b))
    if m > 1.0 + CLAMP_WINDOW:
        raise NormalizationError(
            f"overlap modulus {m!r} exceeds 1 beyond round-off; "
            "inputs are not normalized"
        )
    return min(m, 1.0)


def wootters_distance(a: QuantumState, b: QuantumState) -> float:
    """Statistical distance 2*arccos|<a|b>| between rays; range [0, pi]."""
    return 2.0 * math.acos(overlap_modulus(a, b))


def phase_equivalent(a: QuantumState, b: QuantumState, tol: float = 1e-9) -> bool:
    """True when the two states coincide up to a global phase."""
    return overlap_modulus(a, b) >= 1.0 - tol

