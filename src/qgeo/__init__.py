"""Quantum speed limits and the geometry of pure-state evolutions.

The package follows one thread: the energy dispersion of the generator sets
the Fubini-Study speed of the state ray, so the time to connect two states is
bounded below by hbar*arccos|<A|B>| / <dE>, with equality exactly on
geodesics.  Modules:

* :mod:`qgeo.states`       -- normalized states and the angle between their rays.
* :mod:`qgeo.hamiltonian`  -- Hamiltonian specs with one matrix, the
  observable ``sample(t)`` that both moves the state and is measured
  (``constant_generator`` and ``frame_rate`` give its constant form), energy
  statistics, the mean/dispersion decomposition.
* :mod:`qgeo.propagation`  -- one constant-generator kernel for ``evolve``
  (exact doubling fill, in the drive's frame, offset-free), fourth-order Magnus
  integrator (Simpson nodes, each time sampled once, the exponential applied
  as a Taylor action above 2x2), closed-form two-level propagators and
  dispersion laws, evolution traces.
* :mod:`qgeo.geometry`     -- geodesic efficiency, and with it the
  time-energy bound along a trace (eta <= 1).
* :mod:`qgeo.speedlimit`   -- the minimum time hbar*arccos|<A|B>|/dE, the
  short-time implicit solver, randomized sweeps in closed form.
* :mod:`qgeo.cli`          -- the ``qgeo`` command; it renders only the trace
  files itself, and every other document with the stdlib's ``json``.
"""

from .errors import (
    DegenerateEndpointsError,
    DimensionMismatchError,
    FormulaError,
    GridError,
    HermiticityError,
    IntegrationError,
    NormalizationError,
    QGeoError,
    StationaryStateError,
)
from .geometry import SpeedLimitReport, efficiency
from .hamiltonian import (
    ConstantMatrix,
    Decomposition,
    Hamiltonian,
    TimeDependent,
    TwoLevelDriven,
    TwoLevelStatic,
    hamiltonian_from_json,
    hamiltonian_to_json,
    vaidman_decompose,
)
from .propagation import (
    EvolutionTrace,
    dispersion_driven_closed,
    dispersion_driven_near_resonance,
    evolve,
    propagator_driven,
    propagator_static,
    short_time_coefficient,
)
from .speedlimit import (
    SweepResult,
    min_time,
    run_sweep,
    solve_implicit_time,
)
from .states import QuantumState, ray_angle

__version__ = "0.1.0"

__all__ = [
    "ConstantMatrix",
    "Decomposition",
    "DegenerateEndpointsError",
    "DimensionMismatchError",
    "EvolutionTrace",
    "FormulaError",
    "GridError",
    "Hamiltonian",
    "HermiticityError",
    "IntegrationError",
    "NormalizationError",
    "QGeoError",
    "QuantumState",
    "SpeedLimitReport",
    "StationaryStateError",
    "SweepResult",
    "TimeDependent",
    "TwoLevelDriven",
    "TwoLevelStatic",
    "dispersion_driven_closed",
    "dispersion_driven_near_resonance",
    "efficiency",
    "evolve",
    "hamiltonian_from_json",
    "hamiltonian_to_json",
    "min_time",
    "propagator_driven",
    "propagator_static",
    "ray_angle",
    "run_sweep",
    "short_time_coefficient",
    "solve_implicit_time",
    "vaidman_decompose",
]
