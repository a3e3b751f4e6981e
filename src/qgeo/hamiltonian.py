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
    require_positive_finite,
)
from .states import QuantumState

#: Relative tolerance for Hermiticity validation of sampled matrices.
HERMITICITY_TOL = 1e-12

#: Relative threshold below which a state counts as an eigenstate (zero spread).
STATIONARY_TOL = 1e-12

#: Nodes per stacked sample in the node statistics, and steps per batch of
#: the Magnus integrator: 2*16 samples of a dim-32 generator take 512 KB, so
#: peak memory stays flat.
STACK_CHUNK = 16

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def require_hermitian(
    matrix: np.ndarray,
    tol: float = HERMITICITY_TOL,
    context: str | Callable[[int], str] = "matrix",
) -> np.ndarray:
    """Validate a square Hermitian matrix, or a stack ``(..., d, d)`` of them.

    Returns the input as complex.  A non-finite entry is refused first.  Each
    matrix's deviation ``max|M - M^dagger|`` is compared against ``tol`` times
    its largest entry magnitude (with a floor of 1 so the zero matrix passes).
    ``context`` names the input in errors: a string, or a function of the
    flat index of the first offending matrix of the stack.
    """

    def name(i: int) -> str:
        return context if isinstance(context, str) else context(i)

    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"{name(0)} must be square, got shape {m.shape}")
    scale = np.abs(m).max(axis=(-2, -1), initial=1.0)
    if not math.isfinite(scale.max()):  # a nan or inf entry, refused before m - m^dagger
        raise HermiticityError(f"{name(int(np.isfinite(scale).argmin()))} has a non-finite entry")
    dev = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = dev > tol * scale
    if bad.any():
        i = int(bad.argmax())
        raise HermiticityError(
            f"{name(i)} is not Hermitian: max|M - M^+| = {dev.flat[i]:.3e} "
            f"(tol {tol:.1e} * scale {scale.flat[i]:.3e})"
        )
    return m


def energy_statistics(
    psis: np.ndarray, hpsis: np.ndarray, scale: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Energy mean and dispersion of states ``psis`` of shape ``(..., d)``.

    ``hpsis`` holds ``H psi`` for each state, and ``scale`` is ``max|H|``
    floored at 1, one value or one per state.  ``scale`` sets the round-off
    windows of the two checks: an imaginary mean beyond ``1e-12 * scale``
    raises :class:`~qgeo.errors.HermiticityError`, and a variance below
    ``-1e-12 * scale^2`` raises :class:`~qgeo.errors.FormulaError`; smaller
    negative variances clamp to zero.  ``<H^2>`` is ``||H psi||^2``, taken
    after dividing ``H psi`` by the power of two at or below ``scale``: that
    division is exact, so the result is the unscaled one bit for bit, but the
    squares cannot overflow, and the power of two itself stays finite up to
    the float maximum.
    """
    pow2 = np.ldexp(1.0, np.frexp(scale)[1] - 1)
    rel = scale / pow2
    hv = hpsis * np.expand_dims(1.0 / pow2, -1)  # exact, and cheaper than a complex divide
    mean = np.einsum("...i,...i->...", psis.conj(), hv)
    if np.any(np.abs(mean.imag) > 1e-12 * rel):
        raise HermiticityError(
            f"energy expectation has imaginary part {np.max(np.abs(mean.imag * pow2)):.3e}"
        )
    var = np.real(np.einsum("...i,...i->...", hv.conj(), hv)) - mean.real * mean.real
    if np.any(var < -1e-12 * rel * rel):
        raise FormulaError("negative energy variance beyond round-off")
    return mean.real * pow2, np.sqrt(np.clip(var, 0.0, None)) * pow2


class Hamiltonian:
    """Common protocol for the energy observables driving an evolution.

    Subclasses provide:

    * ``sample(t)`` -- the validated Hermitian energy observable: ``(d, d)``
      at one time, ``(n, d, d)`` for a 1-D array of n times.
    * ``apply_many(times, psis)`` -- ``H(t_i) psi_i`` for every row of a
      trace, with the round-off scale of each node's energy statistics.
    * ``constant_generator`` -- the constant matrix that moves the state, or
      None when the motion is integrated from ``sample``.  It is the
      observable itself for the constant kinds, and the co-rotating matrix
      for :class:`TwoLevelDriven`.
    * ``dim``, ``hbar``, and ``sample_is_constant`` for the one-product path.
    """

    hbar: float

    #: The constant matrix that moves the state, or None.
    constant_generator: np.ndarray | None = None

    #: True when ``sample(t)`` does not depend on t.
    sample_is_constant: bool = False

    def sample(self, t: float | np.ndarray = 0.0) -> np.ndarray:
        raise NotImplementedError

    def apply_many(
        self, times: np.ndarray, psis: np.ndarray
    ) -> tuple[np.ndarray, float | np.ndarray]:
        """``(H(t_i) psi_i, max|H(t_i)| floored at 1)`` for the rows of ``psis``: ``(n, dim)``.

        The second item is the scale :func:`energy_statistics` takes.  A
        constant sample takes one product and has one scale; otherwise the
        nodes go through ``sample`` STACK_CHUNK at a time, one scale per node.
        """
        if self.sample_is_constant:
            m = self.sample()
            return psis @ m.T, max(float(np.abs(m).max()), 1.0)
        times = np.asarray(times, dtype=float)
        hv = np.empty(psis.shape, dtype=complex)
        scale = np.empty(times.size)
        for first in range(0, times.size, STACK_CHUNK):
            rows = slice(first, first + STACK_CHUNK)
            m = self.sample(times[rows])
            hv[rows] = (m @ psis[rows, :, np.newaxis])[..., 0]
            scale[rows] = np.abs(m).max(axis=(-2, -1), initial=1.0)
        return hv, scale

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class ConstantMatrix(Hamiltonian):
    """A time-independent Hermitian matrix in any dimension >= 2."""

    matrix: np.ndarray
    hbar: float = 1.0

    sample_is_constant = True

    def __post_init__(self) -> None:
        require_positive_finite(hbar=self.hbar)
        m = require_hermitian(self.matrix, context="constant Hamiltonian")
        if m.ndim != 2 or m.shape[0] < 2:
            raise DimensionMismatchError(
                f"Hamiltonian must be one matrix of dimension >= 2, got shape {m.shape}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def constant_generator(self) -> np.ndarray:
        return self.matrix

    def sample(self, t: float | np.ndarray = 0.0) -> np.ndarray:
        return np.broadcast_to(self.matrix, np.shape(t) + self.matrix.shape)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True, eq=False)
class TimeDependent(Hamiltonian):
    """A user-supplied matrix-valued function of time.

    ``sample`` calls ``func`` once per time and validates the stack at
    :data:`HERMITICITY_TOL`; a bad sample anywhere (propagation or
    statistics) raises an error that names its time, ``H(t=...)``.
    """

    func: Callable[[float], np.ndarray]
    dimension: int
    hbar: float = 1.0

    def __post_init__(self) -> None:
        require_positive_finite(hbar=self.hbar)
        if self.dimension < 2:
            raise DimensionMismatchError(
                f"Hamiltonian dimension must be >= 2, got {self.dimension}"
            )

    def sample(self, t: float | np.ndarray = 0.0) -> np.ndarray:
        ts = np.asarray(t, dtype=float)
        times = ts.ravel().tolist()
        d = self.dimension
        stack = np.empty((len(times), d, d), dtype=complex)
        for k, tk in enumerate(times):
            m = np.asarray(self.func(tk))
            if m.shape != (d, d):
                raise DimensionMismatchError(
                    f"H(t={tk!r}) has shape {m.shape}, declared dimension {d}"
                )
            stack[k] = m
        require_hermitian(stack, context=lambda i: f"H(t={times[i]!r})")
        return stack.reshape(ts.shape + (d, d))

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

    sample_is_constant = True

    def __post_init__(self) -> None:
        require_positive_finite(hbar=self.hbar, epsilon=self.epsilon)

    @cached_property
    def constant_generator(self) -> np.ndarray:
        m = self.epsilon * PAULI_X
        m.setflags(write=False)
        return m

    def sample(self, t: float | np.ndarray = 0.0) -> np.ndarray:
        return np.broadcast_to(self.constant_generator, np.shape(t) + (2, 2))

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
    matrix epsilon*sigma_x + (detuning/2)*sigma_z, which is what moves the
    state (``constant_generator``); energy statistics are always taken
    against the laboratory-frame matrix (``sample``).
    """

    epsilon: float
    omega: float
    omega0: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        require_positive_finite(
            hbar=self.hbar, epsilon=self.epsilon, omega=self.omega, omega0=self.omega0
        )
        # the energy statistics and the Pauli exponential square these energies
        half_splitting = 0.5 * self.hbar * self.omega0
        require_positive_finite(
            **{
                "epsilon^2 + (hbar*omega0/2)^2": self.epsilon * self.epsilon
                + half_splitting * half_splitting,
                "kappa^2": self.kappa * self.kappa,
            }
        )

    @property
    def detuning(self) -> float:
        """Energy detuning hbar*(omega - omega0); may have either sign."""
        return self.hbar * (self.omega - self.omega0)

    @property
    def kappa(self) -> float:
        """Effective coupling sqrt(epsilon^2 + detuning^2/4) > 0."""
        return math.hypot(self.epsilon, 0.5 * self.detuning)

    def sample(self, t: float | np.ndarray = 0.0) -> np.ndarray:
        # [[a, conj(d)], [d, -a]] with d = eps*e^{i w t}, a = hbar*w0/2
        d = self.epsilon * np.exp(1j * self.omega * np.asarray(t, dtype=float))
        a = 0.5 * self.hbar * self.omega0
        m = np.empty(d.shape + (2, 2), dtype=complex)
        m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, d.conj(), d, -a
        return m

    def apply_many(self, times: np.ndarray, psis: np.ndarray) -> tuple[np.ndarray, float]:
        # the closed form of sample(t) @ psi: a stacked (n, 2, 2) product is 2x slower
        d = self.epsilon * np.exp(1j * self.omega * np.asarray(times, dtype=float))
        a = 0.5 * self.hbar * self.omega0
        hv = np.column_stack(
            (a * psis[:, 0] + d.conj() * psis[:, 1], d * psis[:, 0] - a * psis[:, 1])
        )
        return hv, max(self.epsilon, abs(a), 1.0)  # |d| = eps at every node

    @cached_property
    def constant_generator(self) -> np.ndarray:
        m = self.epsilon * PAULI_X + 0.5 * self.detuning * PAULI_Z
        m.setflags(write=False)
        return m

    @property
    def dim(self) -> int:
        return 2

    @property
    def orthogonality_time(self) -> float:
        """pi*hbar/(2*kappa): duration of the closed-form transfer."""
        return math.pi * self.hbar / (2.0 * self.kappa)


def _state_statistics(h: Hamiltonian, psi: QuantumState, t: float) -> tuple[float, float]:
    if psi.dim != h.dim:
        raise DimensionMismatchError(
            f"state dimension {psi.dim} does not match Hamiltonian dimension {h.dim}"
        )
    v = psi.amplitudes[np.newaxis]
    mean, disp = energy_statistics(v, *h.apply_many(np.array([t], dtype=float), v))
    return float(mean[0]), float(disp[0])


def energy_mean(h: Hamiltonian, psi: QuantumState, t: float = 0.0) -> float:
    """Expectation value <psi|H(t)|psi> (guaranteed real for Hermitian H)."""
    return _state_statistics(h, psi, t)[0]


def energy_dispersion(h: Hamiltonian, psi: QuantumState, t: float = 0.0) -> float:
    """Energy spread sqrt(<H^2> - <H>^2) >= 0 at time t (see :func:`energy_statistics`)."""
    return _state_statistics(h, psi, t)[1]


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
    if m.shape != (psi.dim, psi.dim):
        raise DimensionMismatchError(
            f"observable of shape {m.shape} does not match state dimension {psi.dim}"
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


def overlap_rate_bound(delta_e, overlap, hbar: float = 1.0):
    """Largest possible |d/dt |<psi(t)|A>|^2| at energy spread ``delta_e``.

    Equals (2*delta_e/hbar) * overlap * sqrt(1 - overlap^2); vanishes both at
    orthogonality and at coincidence, peaking at overlap = 1/sqrt(2).
    Elementwise on arrays; a float for scalar inputs.
    """
    require_positive_finite(hbar=hbar)
    delta_e, overlap = np.asarray(delta_e, dtype=float), np.asarray(overlap, dtype=float)
    if np.any(delta_e < 0.0):
        raise ValueError(f"dispersion must be nonnegative, got {float(np.min(delta_e))!r}")
    if not np.all((0.0 <= overlap) & (overlap <= 1.0)):
        raise ValueError(f"overlap modulus must lie in [0, 1], got {overlap}")
    out = (2.0 * delta_e / hbar) * overlap * np.sqrt(np.maximum(1.0 - overlap * overlap, 0.0))
    return float(out) if out.ndim == 0 else out


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
        matrix = np.empty(re.shape, dtype=complex)
        matrix.real, matrix.imag = re, im  # re + 1j*im would compute 0*inf for an infinite im
        return ConstantMatrix(matrix, hbar=hbar)
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
