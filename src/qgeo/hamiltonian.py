"""Hermitian generators, energy statistics, and the mean/dispersion split.

The central identity here is the decomposition of an observable's action on a
state into a parallel and an orthogonal part,

    Q|psi> = <Q>|psi> + dQ |psi_perp>,

with <Q> the expectation value and dQ the dispersion (standard deviation).
Everything about minimum evolution times ultimately rests on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormulaError,
    HermiticityError,
    NormalizationError,
    StationaryStateError,
)
from .states import QuantumState

#: Relative tolerance for Hermiticity validation of sampled matrices.
HERMITICITY_TOL = 1e-12

#: Relative threshold below which a state counts as an eigenstate (zero spread).
STATIONARY_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def require_hermitian(
    matrix: np.ndarray, tol: float = HERMITICITY_TOL, context: str = "matrix"
) -> np.ndarray:
    """Validate that ``matrix`` is square and Hermitian; return it as complex.

    The deviation ``max|M - M^dagger|`` is compared against ``tol`` times the
    largest entry magnitude (with a floor of 1 so the zero matrix passes).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{context} must be square, got shape {m.shape}")
    scale = max(float(np.max(np.abs(m))), 1.0) if m.size else 1.0
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > tol * scale:
        raise HermiticityError(
            f"{context} is not Hermitian: max|M - M^+| = {dev:.3e} "
            f"(tol {tol:.1e} * scale {scale:.3e})"
        )
    return m


class Hamiltonian:
    """Common protocol for the energy observables driving an evolution.

    Subclasses provide:

    * ``sample(t)``   -- the (validated Hermitian) energy observable at time t.
    * ``generator(t)``-- the matrix that actually generates the motion; equal
      to ``sample(t)`` for every kind except :class:`TwoLevelDriven`, where
      the drive is handled in the co-rotating frame.
    * ``apply_many(times, psis)`` -- the observable applied to a whole trace
      at once: row i is ``sample(times[i]) @ psis[i]``.
    * ``dim``, ``hbar`` and the two constancy flags used for fast paths.
    """

    hbar: float

    def sample(self, t: float = 0.0) -> np.ndarray:
        raise NotImplementedError

    def generator(self, t: float = 0.0) -> np.ndarray:
        return self.sample(t)

    def apply_many(self, times: np.ndarray, psis: np.ndarray) -> np.ndarray:
        """Apply the observable at ``times[i]`` to row i of ``psis``: ``(n, dim)``.

        Constant samples take one product; otherwise every node goes through
        ``sample``, so each one is validated as a single call would be.
        """
        if self.sample_is_constant:
            return psis @ self.sample(0.0).T
        return np.array([self.sample(float(t)) @ v for t, v in zip(times, psis)])

    @property
    def dim(self) -> int:
        raise NotImplementedError

    #: True when ``generator(t)`` does not depend on t.
    generator_is_constant: bool = False

    #: True when ``sample(t)`` does not depend on t.
    sample_is_constant: bool = False


def _check_hbar(hbar: float) -> None:
    if not hbar > 0.0:
        raise ValueError(f"hbar must be positive, got {hbar!r}")


@dataclass(frozen=True, eq=False)
class ConstantMatrix(Hamiltonian):
    """A time-independent Hermitian matrix in any dimension >= 2."""

    matrix: np.ndarray
    hbar: float = 1.0

    generator_is_constant = True
    sample_is_constant = True

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        m = require_hermitian(self.matrix, context="constant Hamiltonian")
        if m.shape[0] < 2:
            raise DimensionMismatchError(
                f"Hamiltonian dimension must be >= 2, got {m.shape[0]}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def sample(self, t: float = 0.0) -> np.ndarray:
        return self.matrix

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True, eq=False)
class TimeDependent(Hamiltonian):
    """A user-supplied matrix-valued function of time.

    Every sample is validated for Hermiticity at ``sample_tolerance``; a bad
    sample anywhere (construction, propagation, statistics) raises
    :class:`~qgeo.errors.HermiticityError`.
    """

    func: Callable[[float], np.ndarray]
    dimension: int
    sample_tolerance: float = HERMITICITY_TOL
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        if self.dimension < 2:
            raise DimensionMismatchError(
                f"Hamiltonian dimension must be >= 2, got {self.dimension}"
            )

    def sample(self, t: float = 0.0) -> np.ndarray:
        m = require_hermitian(
            self.func(t), tol=self.sample_tolerance, context=f"H(t={t!r})"
        )
        if m.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"H(t={t!r}) has dimension {m.shape[0]}, declared {self.dimension}"
            )
        return m

    @property
    def dim(self) -> int:
        return int(self.dimension)


@dataclass(frozen=True, eq=False)
class TwoLevelStatic(Hamiltonian):
    """H = epsilon * sigma_x: the textbook two-level crossing generator.

    Its eigenstates are (|0> +/- |1>)/sqrt(2) with energies +/- epsilon, so a
    basis state has mean energy 0 and dispersion epsilon, and is carried to an
    orthogonal state in time pi*hbar/(2*epsilon).
    """

    epsilon: float
    hbar: float = 1.0

    generator_is_constant = True
    sample_is_constant = True

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")

    @cached_property
    def _matrix(self) -> np.ndarray:
        m = self.epsilon * PAULI_X
        m.setflags(write=False)
        return m

    def sample(self, t: float = 0.0) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return 2

    @property
    def orthogonality_time(self) -> float:
        """pi*hbar/(2*epsilon): time to reach the orthogonal state."""
        return math.pi * self.hbar / (2.0 * self.epsilon)


@dataclass(frozen=True, eq=False)
class TwoLevelDriven(Hamiltonian):
    """Circularly driven two-level system with a static splitting.

    Laboratory-frame observable:

        H(t) = epsilon*(cos(wt) sigma_x + sin(wt) sigma_y) + (hbar*w0/2) sigma_z

    In the frame co-rotating with the drive this reduces to the constant
    matrix epsilon*sigma_x + (detuning/2)*sigma_z, which is what generates
    the evolution (``generator``); energy statistics are always taken against
    the laboratory-frame matrix (``sample``).
    """

    epsilon: float
    omega: float
    omega0: float
    hbar: float = 1.0

    generator_is_constant = True
    sample_is_constant = False

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)
        for name in ("epsilon", "omega", "omega0"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value!r}")

    @property
    def detuning(self) -> float:
        """Energy detuning hbar*(omega - omega0); may have either sign."""
        return self.hbar * (self.omega - self.omega0)

    @property
    def kappa(self) -> float:
        """Effective coupling sqrt(epsilon^2 + detuning^2/4) > 0."""
        return math.hypot(self.epsilon, 0.5 * self.detuning)

    def sample(self, t: float = 0.0) -> np.ndarray:
        wt = self.omega * t
        return (
            self.epsilon * (math.cos(wt) * PAULI_X + math.sin(wt) * PAULI_Y)
            + 0.5 * self.hbar * self.omega0 * PAULI_Z
        )

    def apply_many(self, times: np.ndarray, psis: np.ndarray) -> np.ndarray:
        # sample(t) = [[a, conj(d)], [d, -a]] with d = eps*e^{i w t}, a = hbar*w0/2
        d = self.epsilon * np.exp(1j * self.omega * np.asarray(times, dtype=float))
        a = 0.5 * self.hbar * self.omega0
        return np.column_stack(
            (a * psis[:, 0] + d.conj() * psis[:, 1], d * psis[:, 0] - a * psis[:, 1])
        )

    @cached_property
    def _rotating_frame_generator(self) -> np.ndarray:
        m = self.epsilon * PAULI_X + 0.5 * self.detuning * PAULI_Z
        m.setflags(write=False)
        return m

    def generator(self, t: float = 0.0) -> np.ndarray:
        return self._rotating_frame_generator

    @property
    def dim(self) -> int:
        return 2

    @property
    def orthogonality_time(self) -> float:
        """pi*hbar/(2*kappa): duration of the closed-form transfer."""
        return math.pi * self.hbar / (2.0 * self.kappa)


def _state_vector(h: Hamiltonian, psi: QuantumState) -> np.ndarray:
    if psi.dim != h.dim:
        raise DimensionMismatchError(
            f"state dimension {psi.dim} does not match Hamiltonian dimension {h.dim}"
        )
    return psi.amplitudes


def energy_mean(h: Hamiltonian, psi: QuantumState, t: float = 0.0) -> float:
    """Expectation value <psi|H(t)|psi> (guaranteed real for Hermitian H)."""
    m = h.sample(t)
    v = _state_vector(h, psi)
    value = complex(np.vdot(v, m @ v))
    scale = max(float(np.max(np.abs(m))), 1.0)
    if abs(value.imag) > 1e-12 * scale:
        raise HermiticityError(
            f"energy expectation has imaginary part {value.imag:.3e}"
        )
    return value.real


def energy_dispersion(h: Hamiltonian, psi: QuantumState, t: float = 0.0) -> float:
    """Energy spread sqrt(<H^2> - <H>^2) >= 0 at time t.

    ``<H^2>`` is evaluated as ``||H psi||^2``, which is real and nonnegative
    by construction; negative round-off in the variance inside the 1e-12
    window clamps to zero.
    """
    m = h.sample(t)
    v = _state_vector(h, psi)
    hv = m @ v
    mean = float(np.real(np.vdot(v, hv)))
    second = float(np.real(np.vdot(hv, hv)))
    var = second - mean * mean
    scale = max(float(np.max(np.abs(m))), 1.0)
    if var < -1e-12 * scale * scale:
        raise FormulaError(f"variance {var!r} is negative beyond round-off")
    return math.sqrt(max(var, 0.0))


def two_level_dispersion_spectral(
    e1: float, e2: float, a1: complex, a2: complex
) -> float:
    """Dispersion of psi = a1|E1> + a2|E2> in the eigenbasis of a 2-level H.

    Equals (E2 - E1)/2 * sqrt(1 - (|a1|^2 - |a2|^2)^2); maximal for balanced
    superpositions, zero for eigenstates.
    """
    if e2 < e1:
        raise ValueError(f"eigenvalues out of order: E2={e2!r} < E1={e1!r}")
    p1 = abs(a1) ** 2
    p2 = abs(a2) ** 2
    if abs(p1 + p2 - 1.0) > 1e-12:
        raise NormalizationError(
            f"|a1|^2 + |a2|^2 = {p1 + p2!r} must be 1 within 1e-12"
        )
    spread = 1.0 - (p1 - p2) ** 2
    return 0.5 * (e2 - e1) * math.sqrt(max(spread, 0.0))


@dataclass(frozen=True)
class Decomposition:
    """Result of splitting Q|psi> into parallel and orthogonal parts."""

    mean: float
    dispersion: float
    perp: QuantumState


def vaidman_decompose(q: np.ndarray, psi: QuantumState) -> Decomposition:
    """Split the action of observable ``q`` on ``psi``.

    Returns mean <Q>, dispersion dQ and the unit vector
    ``|psi_perp> = (Q|psi> - <Q>|psi>) / dQ`` orthogonal to ``psi``, so that
    ``Q|psi> = <Q>|psi> + dQ|psi_perp>`` reconstructs exactly.

    Raises:
        StationaryStateError: when ``psi`` is an eigenstate of ``q`` within
            the relative threshold 1e-12 * max|Q|, so no orthogonal direction
            is defined.
    """
    m = require_hermitian(q, context="observable")
    if m.shape[0] != psi.dim:
        raise DimensionMismatchError(
            f"observable dimension {m.shape[0]} does not match state dimension {psi.dim}"
        )
    v = psi.amplitudes
    qv = m @ v
    mean = float(np.real(np.vdot(v, qv)))
    # The residual norm equals sqrt(<Q^2> - <Q>^2) but avoids the catastrophic
    # cancellation of the two large squares near an eigenstate.
    residual = qv - mean * v
    dispersion = float(np.linalg.norm(residual))
    scale = max(float(np.max(np.abs(m))), 0.0)
    if dispersion <= STATIONARY_TOL * max(scale, 1e-300):
        raise StationaryStateError(
            f"state is an eigenstate of the observable (dispersion {dispersion:.3e})"
        )
    perp_vec = residual / dispersion
    return Decomposition(
        mean=mean,
        dispersion=dispersion,
        perp=QuantumState.exact(perp_vec, tol=1e-9),
    )


def overlap_rate_bound(delta_e: float, overlap: float, hbar: float = 1.0) -> float:
    """Largest possible |d/dt |<psi(t)|A>|^2| at energy spread ``delta_e``.

    Equals (2*delta_e/hbar) * overlap * sqrt(1 - overlap^2); vanishes both at
    orthogonality and at coincidence, peaking at overlap = 1/sqrt(2).
    """
    _check_hbar(hbar)
    if delta_e < 0.0:
        raise ValueError(f"dispersion must be nonnegative, got {delta_e!r}")
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap modulus must lie in [0, 1], got {overlap!r}")
    return (2.0 * delta_e / hbar) * overlap * math.sqrt(max(1.0 - overlap * overlap, 0.0))


def hamiltonian_to_json(h: Hamiltonian) -> dict[str, Any]:
    """Serialize a Hamiltonian spec to a JSON-compatible dict.

    Constant matrices use the bare ``{"re": [[...]], "im": [[...]]}`` layout;
    presets carry a ``kind`` tag.  ``TimeDependent`` holds an arbitrary
    callable and cannot be serialized.
    """
    if isinstance(h, ConstantMatrix):
        return {
            "re": [[float(x) for x in row] for row in h.matrix.real],
            "im": [[float(x) for x in row] for row in h.matrix.imag],
        }
    if isinstance(h, TwoLevelStatic):
        return {
            "kind": "two_level_static",
            "epsilon": float(h.epsilon),
            "hbar": float(h.hbar),
        }
    if isinstance(h, TwoLevelDriven):
        return {
            "kind": "two_level_driven",
            "epsilon": float(h.epsilon),
            "omega": float(h.omega),
            "omega0": float(h.omega0),
            "hbar": float(h.hbar),
        }
    raise ValueError(f"cannot serialize Hamiltonian of type {type(h).__name__}")


def hamiltonian_from_json(data: Mapping[str, Any], hbar: float = 1.0) -> Hamiltonian:
    """Inverse of :func:`hamiltonian_to_json`.

    ``hbar`` applies only to bare constant matrices, whose JSON layout does
    not carry one; presets store their own.
    """
    kind = data.get("kind")
    if kind is None:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        if re.shape != im.shape:
            raise DimensionMismatchError(
                f"re/im shape mismatch: {re.shape} vs {im.shape}"
            )
        return ConstantMatrix(re + 1j * im, hbar=hbar)
    if kind == "two_level_static":
        return TwoLevelStatic(
            epsilon=float(data["epsilon"]), hbar=float(data.get("hbar", 1.0))
        )
    if kind == "two_level_driven":
        return TwoLevelDriven(
            epsilon=float(data["epsilon"]),
            omega=float(data["omega"]),
            omega0=float(data["omega0"]),
            hbar=float(data.get("hbar", 1.0)),
        )
    raise ValueError(f"unknown Hamiltonian kind {kind!r}")
