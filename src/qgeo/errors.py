"""Exception types shared across the package.

Everything derives from :class:`QGeoError`, which is itself a ``ValueError``
so that callers who don't care about the fine-grained taxonomy can catch the
usual builtin.
"""

import math


class QGeoError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionMismatchError(QGeoError):
    """Operands live in Hilbert spaces of different dimension."""


class NormalizationError(QGeoError):
    """A vector that should be a unit vector is not one (beyond tolerance)."""


class HermiticityError(QGeoError):
    """A matrix that should be Hermitian is not one (beyond tolerance)."""


class StationaryStateError(QGeoError):
    """An operation is undefined because the dispersion vanishes.

    Raised e.g. when decomposing an eigenstate of the observable, or when a
    minimum-time query is made with zero energy spread.
    """


class GridError(QGeoError):
    """A time grid violates a requirement (ordering, uniformity, node count)."""


class IntegrationError(QGeoError):
    """Numerical propagation failed a self-check (e.g. norm drift too large)."""


class DegenerateEndpointsError(QGeoError):
    """Start and end states coincide up to phase, so path ratios are undefined."""


class FormulaError(QGeoError):
    """A closed-form evaluation or internal cross-check left its domain."""


def require_positive_finite(**params: float) -> None:
    """Raise ``ValueError`` naming the first parameter that is not in (0, inf).

    ``nan`` fails too, since it compares false with both bounds.
    """
    for name, value in params.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
