"""Quantum speed limits and the geometry of pure-state evolutions.

The package follows one thread: the energy dispersion of the generator sets
the Fubini-Study speed of the state ray, so the time to connect two states is
bounded below by hbar*arccos|<A|B>| / <dE>, with equality exactly on
geodesics.  Modules:

* :mod:`qgeo.states`       -- normalized states, overlaps, Wootters distance.
* :mod:`qgeo.hamiltonian`  -- Hamiltonian specs and their one sampling path
  (``sample``, ``apply_many``, ``constant_generator``), energy statistics,
  the mean/dispersion decomposition, the overlap-rate bound.
* :mod:`qgeo.propagation`  -- fourth-order Magnus integrator, closed-form
  two-level propagators and dispersion laws, evolution traces.
* :mod:`qgeo.geometry`     -- path lengths, geodesic efficiency.
* :mod:`qgeo.speedlimit`   -- minimum-time queries, bound verification,
  the short-time implicit solver, randomized sweeps.
* :mod:`qgeo.cli`          -- the ``qgeo`` command.
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
    geodesic_distance,
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
    two_level_dispersion_spectral,
    vaidman_decompose,
)
from .propagation import (
    EvolutionTrace,
    dispersion_driven_closed,
    dispersion_driven_near_resonance,
    dispersion_short_time,
    evolve,
    propagator_driven,
    propagator_static,
    short_time_coefficient,
)
from .speedlimit import (
    BoundQuery,
    SweepResult,
    avg_dispersion,
    min_time,
    min_time_spectral,
    orthogonal_min_time,
    run_sweep,
    solve_implicit_time,
    verify_bound,
)
from .states import (
    QuantumState,
    inner,
    overlap_modulus,
    phase_equivalent,
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
    "avg_dispersion",
    "dispersion_driven_closed",
    "dispersion_driven_near_resonance",
    "dispersion_short_time",
    "efficiency",
    "energy_dispersion",
    "energy_mean",
    "evolve",
    "geodesic_distance",
    "hamiltonian_from_json",
    "hamiltonian_to_json",
    "inner",
    "is_geodesic",
    "min_time",
    "min_time_spectral",
    "orthogonal_min_time",
    "overlap_modulus",
    "overlap_rate_bound",
    "path_length",
    "phase_equivalent",
    "propagator_driven",
    "propagator_static",
    "run_sweep",
    "short_time_coefficient",
    "solve_implicit_time",
    "two_level_dispersion_spectral",
    "vaidman_decompose",
    "verify_bound",
    "wootters_distance",
]
