"""Exception types shared across the package.

Everything derives from :class:`QGeoError`, which is itself a ``ValueError``
so that callers who don't care about the fine-grained taxonomy can catch the
usual builtin.
"""

import math
import numbers
from typing import Any, Mapping

import numpy as np


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


def is_int_at_least(value: Any, minimum: int) -> bool:
    """Whether ``value`` is an integer (numpy's too, but not a bool) of at least ``minimum``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def json_field(data: Mapping[str, Any], key: str, name: str | None = None) -> Any:
    """``data[key]``, or ValueError ``"<name> is missing"``; ``name`` defaults to ``key``."""
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"{name or key} is missing") from None


def json_number(data: Mapping[str, Any], name: str, default: float | None = None) -> float:
    """``data[name]`` as a float; ValueError naming it unless it is a JSON number (not a bool).

    ``default``, when given, stands for an absent field; without one an
    absent field is refused as missing.
    """
    if default is not None and name not in data:
        return default
    value = json_field(data, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{name} must be a JSON number within the float range") from None


def json_floats(value: Any, name: str) -> np.ndarray:
    """``value`` as a float array; ValueError naming ``name`` unless numpy reads only numbers."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged nesting
        raise ValueError(f"{name} must be an array of JSON numbers: {exc}") from None
    if arr.dtype.kind not in "iuf":  # bools, strings, nulls, objects; numpy makes [true, 0.5] float
        raise ValueError(f"{name} must be an array of JSON numbers, got {arr.dtype.name} entries")
    return arr.astype(float, copy=False)
