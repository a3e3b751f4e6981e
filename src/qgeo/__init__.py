"""Quantum speed limits and the geometry of pure-state evolutions.

The package follows one thread: the energy dispersion of the generator sets
the Fubini-Study speed of the state ray, so the time to connect two states is
bounded below by hbar*arccos|<A|B>| / <dE>, with equality exactly on
geodesics.  Modules:

* :mod:`qgeo.states`       -- normalized states, overlaps, Wootters distance.
* :mod:`qgeo.hamiltonian`  -- Hamiltonian specs with one matrix, the
  observable ``sample(t)`` that both moves the state and is measured
  (``constant_generator`` and ``frame_rate`` give its constant form), energy
  statistics, the mean/dispersion decomposition, the overlap-rate bound.
* :mod:`qgeo.propagation`  -- exact doubling fill for a constant generator
  (in the drive's frame for the driven preset), fourth-order Magnus
  integrator (Simpson nodes, each time sampled once, the exponential applied
  as a Taylor action above 2x2), closed-form two-level propagators and
  dispersion laws, evolution traces.
* :mod:`qgeo.geometry`     -- path lengths, geodesic efficiency, and with
  it the time-energy bound along a trace (eta <= 1).
* :mod:`qgeo.speedlimit`   -- minimum-time queries, the short-time implicit
  solver, randomized sweeps.
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
from .geometry import (
    SpeedLimitReport,
    efficiency,
    is_geodesic,
    path_length,
)
from .hamiltonian import (
    ConstantMatrix,
    Decomposition,
    Hamiltonian,
    TimeDependent,
    TwoLevelDriven,
    TwoLevelStatic,
    energy_dispersion,
    energy_mean,
    hamiltonian_from_json,
    hamiltonian_to_json,
    overlap_rate_bound,
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
    BoundQuery,
    SweepResult,
    min_time,
    run_sweep,
    solve_implicit_time,
)
from .states import (
    QuantumState,
    inner,
    overlap_modulus,
    wootters_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BoundQuery",
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
    "energy_dispersion",
    "energy_mean",
    "evolve",
    "hamiltonian_from_json",
    "hamiltonian_to_json",
    "inner",
    "is_geodesic",
    "min_time",
    "overlap_modulus",
    "overlap_rate_bound",
    "path_length",
    "propagator_driven",
    "propagator_static",
    "run_sweep",
    "short_time_coefficient",
    "solve_implicit_time",
    "vaidman_decompose",
    "wootters_distance",
]
