"""Every public positive parameter refuses zero, negatives and non-finite values."""

import math
import re

import numpy as np
import pytest

from qgeo.errors import StationaryStateError, require_positive_finite
from qgeo.hamiltonian import (
    ConstantMatrix,
    PAULI_X,
    TimeDependent,
    TwoLevelDriven,
    TwoLevelStatic,
)
from qgeo.propagation import (
    EvolutionTrace,
    dispersion_driven_closed,
    dispersion_driven_near_resonance,
    propagator_driven,
    propagator_static,
    short_time_coefficient,
)
from qgeo.si import (
    larmor_angular_frequency,
    larmor_frequency_hz,
    rabi_angular_frequency,
)
from qgeo.speedlimit import min_time, solve_implicit_time

DRIVE = {"epsilon": 1.0, "omega": 0.25, "omega0": 0.2, "hbar": 1.0}


def _cases(label, func, base, names=None):
    """One case per positive parameter: ``func(**base)`` with it replaced."""
    return [
        (label, p, lambda v, p=p: func(**{**base, p: v})) for p in names or base
    ]


def _trace(hbar):
    return EvolutionTrace(
        times=[0.0, 1.0],
        amplitudes=[[1.0, 0.0], [0.0, 1.0]],
        energy_mean=[0.0, 0.0],
        energy_dispersion=[1.0, 1.0],
        hbar=hbar,
    )


# (label, parameter name, call taking that parameter's value)
CASES = [
    ("ConstantMatrix", "hbar", lambda v: ConstantMatrix(PAULI_X, hbar=v)),
    ("TimeDependent", "hbar", lambda v: TimeDependent(lambda t: PAULI_X, 2, hbar=v)),
    *_cases("TwoLevelStatic", TwoLevelStatic, {"epsilon": 1.0, "hbar": 1.0}),
    *_cases("TwoLevelDriven", TwoLevelDriven, DRIVE),
    *_cases(
        "propagator_static",
        propagator_static,
        {"epsilon": 1.0, "t": 0.3, "hbar": 1.0},
        ("epsilon", "hbar"),
    ),
    *_cases("propagator_driven", propagator_driven, {**DRIVE, "t": 0.3}, DRIVE),
    *_cases(
        "dispersion_driven_closed", dispersion_driven_closed, {**DRIVE, "t": 0.3}, DRIVE
    ),
    *_cases(
        "dispersion_driven_near_resonance",
        dispersion_driven_near_resonance,
        {**DRIVE, "t": 0.3},
        DRIVE,
    ),
    *_cases(
        "short_time_coefficient", short_time_coefficient, {"omega": 0.25, "omega0": 0.2}
    ),
    ("EvolutionTrace", "hbar", _trace),
    *_cases(
        "min_time",
        lambda **kw: min_time(overlap=0.5, **kw),
        {"dispersion": 1.0, "hbar": 1.0},
    ),
    *_cases("solve_implicit_time", solve_implicit_time, DRIVE),
    ("larmor_angular_frequency", "b_parallel_tesla", larmor_angular_frequency),
    ("larmor_frequency_hz", "b_parallel_tesla", larmor_frequency_hz),
    ("rabi_angular_frequency", "b_perp_tesla", rabi_angular_frequency),
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize(
    "name, call", [c[1:] for c in CASES], ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_positive_parameter_rejects(name, call, value):
    if value == 0.0 and name == "dispersion":
        # a zero spread is a stationary state, which has its own error type
        with pytest.raises(StationaryStateError, match="zero dispersion"):
            call(value)
        return
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        call(value)


def test_good_values_pass():
    require_positive_finite(a=1.0, b=np.float64(5e-324), c=1.7e308)


@pytest.mark.parametrize(
    "params, derived",
    [
        ({"omega0": 1e308}, "epsilon^2 + (hbar*omega0/2)^2"),
        ({"omega": 1e200}, "kappa^2"),
    ],
)
def test_driven_preset_rejects_overflowing_energies(params, derived):
    # the inputs are finite, but the squared energies the statistics use are not
    with pytest.raises(ValueError, match="^" + re.escape(derived) + " must be"):
        TwoLevelDriven(**{**DRIVE, **params})


def test_short_time_coefficient_overflow_is_named():
    with pytest.raises(ValueError, match="^coefficient_a must be positive and finite"):
        short_time_coefficient(1e200, 1e200)


def test_implicit_time_refuses_overflowing_argument():
    # t0 = pi*hbar/(2*eps) ~ 1.6e303 and sqrt(a) ~ 1.2e100: x overflows
    with pytest.raises(ValueError, match=re.escape("1.5*t0*sqrt(a)")):
        solve_implicit_time(1e-300, 1e100, 1e100, hbar=1e3)
