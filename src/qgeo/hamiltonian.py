"""Hermitian generators, energy statistics, and the mean/dispersion split.

The central identity here is the decomposition of an observable's action on a
state into a parallel and an orthogonal part,

    Q|psi> = <Q>|psi> + dQ |psi_perp>,

with <Q> the expectation value and dQ the dispersion (standard deviation).
Everything about minimum evolution times ultimately rests on it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Any, Callable, ClassVar, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    HermiticityError,
    StationaryStateError,
    is_int_at_least,
    json_field,
    json_floats,
    json_number,
    require_positive_finite,
)
from .states import QuantumState

#: Relative tolerance for Hermiticity validation of sampled matrices.
HERMITICITY_TOL = 1e-12

#: Relative threshold below which a state counts as an eigenstate (zero spread).
STATIONARY_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def require_hermitian(
    matrix: np.ndarray, context: str | Callable[[int], str] = "matrix"
) -> np.ndarray:
    """Validate a square Hermitian matrix, or a stack ``(..., d, d)`` of them.

    Returns the input as complex.  A non-finite entry is refused first.  Each
    matrix's deviation ``max|M - M^dagger|`` is compared against
    :data:`HERMITICITY_TOL` times its largest entry magnitude (with a floor of
    1 so the zero matrix passes).
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
    # M - M^dagger against a contiguous copy of M^T: numpy iterates a swapped-axes operand slowly
    diff = m.swapaxes(-1, -2).copy()
    np.conjugate(diff, out=diff)
    dev = np.abs(np.subtract(m, diff, out=diff)).max(axis=(-2, -1), initial=0.0)
    bad = dev > HERMITICITY_TOL * scale
    if bad.any():
        i = int(bad.argmax())
        raise HermiticityError(
            f"{name(i)} is not Hermitian: max|M - M^+| = {dev.flat[i]:.3e} "
            f"(tol {HERMITICITY_TOL:.1e} * scale {scale.flat[i]:.3e})"
        )
    return m


def energy_level(m: np.ndarray) -> np.ndarray:
    """The level ``Re tr m / d`` of a matrix ``(d, d)`` or of each of a stack ``(..., d, d)``.

    ``m`` less its level (:func:`without_level`) has m's rays and dispersions,
    and its digits do not scale with an energy offset.  A trace that
    overflows gives 0: any level moves no ray, and 0 moves nothing.
    """
    with np.errstate(over="ignore"):
        level = np.trace(m, axis1=-2, axis2=-1).real / m.shape[-1]
    return np.where(np.isinf(level), 0.0, level)


def without_level(m: np.ndarray, level: float | np.ndarray) -> np.ndarray:
    """A complex copy of ``m - level * I``, one ``level`` per matrix of a stack ``(..., d, d)``."""
    m = np.array(m, dtype=complex)
    np.einsum("...ii->...i", m)[...] -= np.asarray(level)[..., np.newaxis]  # the diagonals, as a view
    return m


def energy_statistics(
    h: np.ndarray, psis: np.ndarray, level: float | np.ndarray = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Energy mean and dispersion of states ``psis`` ``(..., n, d)`` under ``h`` ``(..., d, d)``.

    Returns two ``(..., n)`` arrays: ``<H> = <psi|H|psi>`` and the residual
    norm ``dE = ||H psi - <H> psi||``, which equals ``sqrt(<H^2> - <H>^2)`` for
    a unit ``psi`` without the cancellation of two large squares when
    ``|<H>| >> dE`` (the two-pass variance of Chan, Golub & LeVeque, Am. Stat.
    37, 242 (1983)).  Both are taken of ``h - level * I``
    (:func:`without_level`), ``level`` one number or one per matrix, and
    ``level`` is added back to the means: with h's :func:`energy_level`,
    no digit of either scales with an energy offset.  Each ``h - level`` is
    first divided by the power of two at or below its ``max|h - level|``
    floored at 1: that division is exact, so the results are the unscaled
    ones bit for bit, but no square overflows, up to the float maximum.
    ``<psi|H psi>`` is one complex inner product per state: its real part is
    the mean, and an imaginary part beyond ``1e-12`` times that floored
    ``max|h - level|`` plus ``|level|`` raises
    :class:`~qgeo.errors.HermiticityError`.  That threshold is in units of h
    itself, offset included, as :func:`require_hermitian`'s is.
    """
    level = np.asarray(level, dtype=float)[..., np.newaxis]  # against (..., n)
    h = without_level(h, level[..., 0])
    scale = np.abs(h).max(axis=(-2, -1), initial=1.0)[..., np.newaxis]
    pow2 = np.ldexp(1.0, np.frexp(scale)[1] - 1)
    if pow2.max() > 1.0:  # dividing by 1 would change nothing
        h *= (1.0 / pow2)[..., np.newaxis]  # exact
    psis = np.ascontiguousarray(psis, dtype=complex)
    hv = psis @ np.swapaxes(h, -1, -2)
    z = np.einsum("...i,...i->...", psis.conj(), hv)
    if (np.abs(z.imag) > 1e-12 * ((scale + np.abs(level)) / pow2)).any():
        raise HermiticityError(
            f"energy expectation has imaginary part {np.max(np.abs(z.imag * pow2)):.3e}"
        )
    mean, v, w = z.real, psis.view(float), hv.view(float)
    w -= mean[..., np.newaxis] * v  # the residual H psi - <H> psi, in place, on (re, im) pairs
    return mean * pow2 + level, np.sqrt(np.einsum("...i,...i->...", w, w)) * pow2


class Hamiltonian:
    """Common protocol for the energy observables driving an evolution.

    One matrix, the observable ``sample(t)``, both moves the state and gives
    its energy statistics.  Subclasses set:

    * ``constant_generator`` -- the constant K with
      ``sample(t) = R(t) K R(t)^dagger``, ``R(t) = exp(-i * frame_rate * t * sigma_z / 2)``;
      or None, and then they override ``sample`` and ``dim``.
    * ``frame_rate`` -- derived from the spec: 0 (R = I, K is the observable)
      but for :class:`TwoLevelDriven`.
    * ``hbar``.
    """

    hbar: float

    #: K with sample(t) = R(t) K R(t)^dagger, or None.
    constant_generator: np.ndarray | None = None

    @property
    def frame_rate(self) -> float:
        return 0.0

    @property
    def dim(self) -> int:
        return int(self.constant_generator.shape[0])

    def sample(self, t: float | np.ndarray = 0.0) -> np.ndarray:
        """The validated Hermitian observable: ``(d, d)`` at one time, ``(n, d, d)`` for n times."""
        k, rate = self.constant_generator, self.frame_rate
        if not rate:
            return np.broadcast_to(k, np.shape(t) + k.shape)
        # R = diag(r, conj r) with r = e^{-i rate t/2} turns K's off-diagonal by e^{-/+ i rate t}
        turn = np.exp(-1j * rate * np.asarray(t, dtype=float))
        m = np.empty(turn.shape + (2, 2), dtype=complex)
        m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = (
            k[0, 0], k[0, 1] * turn, k[1, 0] * turn.conj(), k[1, 1]
        )
        return m


@dataclass(frozen=True, eq=False)
class ConstantMatrix(Hamiltonian):
    """A time-independent Hermitian matrix in any dimension >= 2."""

    matrix: np.ndarray
    hbar: float = 1.0

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
        if not is_int_at_least(self.dimension, 2):
            raise DimensionMismatchError(
                f"Hamiltonian dimension must be an integer >= 2, got {self.dimension!r}"
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

    kind: ClassVar[str] = "two_level_static"
    epsilon: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        require_positive_finite(hbar=self.hbar, epsilon=self.epsilon)

    @cached_property
    def constant_generator(self) -> np.ndarray:
        m = self.epsilon * PAULI_X
        m.setflags(write=False)
        return m

    @property
    def orthogonality_time(self) -> float:
        """pi*hbar/(2*epsilon): time to reach the orthogonal state."""
        return math.pi * self.hbar / (2.0 * self.epsilon)


@dataclass(frozen=True, eq=False)
class TwoLevelDriven(Hamiltonian):
    """Circularly driven two-level system with a static splitting.

    Laboratory-frame observable, which moves the state and gives its energy
    statistics:

        H(t) = epsilon*(cos(wt) sigma_x + sin(wt) sigma_y) + (hbar*w0/2) sigma_z
             = R(t) K R(t)^dagger,   R(t) = exp(-i w t sigma_z / 2),

    with ``constant_generator`` K = epsilon*sigma_x + (hbar*w0/2)*sigma_z and
    ``frame_rate`` w.  The state psi = R phi solves the Schrodinger equation
    when phi moves under the constant K - (hbar*w/2)*sigma_z =
    epsilon*sigma_x - (detuning/2)*sigma_z, and <psi|H|psi> = <phi|K|phi>.
    """

    kind: ClassVar[str] = "two_level_driven"
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

    @property
    def frame_rate(self) -> float:
        return self.omega

    @cached_property
    def constant_generator(self) -> np.ndarray:
        m = self.epsilon * PAULI_X + (0.5 * self.hbar * self.omega0) * PAULI_Z
        m.setflags(write=False)
        return m

    @property
    def orthogonality_time(self) -> float:
        """pi*hbar/(2*kappa): duration of the closed-form transfer."""
        return math.pi * self.hbar / (2.0 * self.kappa)


@dataclass(frozen=True)
class Decomposition:
    """Result of splitting Q|psi> into parallel and orthogonal parts."""

    mean: float
    dispersion: float
    perp: QuantumState


def vaidman_decompose(q: np.ndarray, psi: QuantumState) -> Decomposition:
    """Split the action of observable ``q`` on ``psi``.

    Returns mean <Q> and dispersion dQ from :func:`energy_statistics`, and
    the unit vector ``|psi_perp> = (Q|psi> - <Q>|psi>) / dQ`` orthogonal to
    ``psi``, so that ``Q|psi> = <Q>|psi> + dQ|psi_perp>`` reconstructs exactly.

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
    mean, dispersion = (float(x[0]) for x in energy_statistics(m, v[np.newaxis]))
    if dispersion <= STATIONARY_TOL * max(float(np.max(np.abs(m))), 1e-300):
        raise StationaryStateError(
            f"state is an eigenstate of the observable (dispersion {dispersion:.3e})"
        )
    perp = QuantumState.exact((m @ v - mean * v) / dispersion, tol=1e-9)
    return Decomposition(mean=mean, dispersion=dispersion, perp=perp)


#: The preset classes by the ``kind`` that tags their JSON spec.
PRESETS: dict[str, type[Hamiltonian]] = {c.kind: c for c in (TwoLevelStatic, TwoLevelDriven)}


def hamiltonian_to_json(h: Hamiltonian) -> dict[str, Any]:
    """Serialize a Hamiltonian spec to a JSON-compatible dict.

    Constant matrices use the bare ``{"re": [[...]], "im": [[...]]}`` layout;
    a preset is its ``kind`` tag and its dataclass fields.  ``TimeDependent``
    holds an arbitrary callable and cannot be serialized.
    """
    if isinstance(h, ConstantMatrix):
        return {
            "re": [[float(x) for x in row] for row in h.matrix.real],
            "im": [[float(x) for x in row] for row in h.matrix.imag],
        }
    if type(h) not in PRESETS.values():
        raise ValueError(f"cannot serialize Hamiltonian of type {type(h).__name__}")
    return {"kind": h.kind, **{f.name: float(getattr(h, f.name)) for f in fields(h)}}


def hamiltonian_from_json(data: Mapping[str, Any], hbar: float = 1.0) -> Hamiltonian:
    """Inverse of :func:`hamiltonian_to_json`.

    ``hbar`` applies only to bare constant matrices, whose JSON layout does
    not carry one; an absent preset field takes its default (``hbar``: 1).
    """
    kind = data.get("kind")
    if kind is None:
        re = json_floats(json_field(data, "re"), "re")
        im = json_floats(json_field(data, "im"), "im")
        if re.shape != im.shape:
            raise DimensionMismatchError(
                f"re/im shape mismatch: {re.shape} vs {im.shape}"
            )
        matrix = np.empty(re.shape, dtype=complex)
        matrix.real, matrix.imag = re, im  # re + 1j*im would compute 0*inf for an infinite im
        return ConstantMatrix(matrix, hbar=hbar)
    cls = PRESETS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown Hamiltonian kind {kind!r}")
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    return cls(**{f.name: json_number(data, f.name, defaults.get(f.name)) for f in fields(cls)})
