"""Unitary propagation and closed-form solutions for the two-level presets.

:func:`expm_unitary_step` gives ``exp(-i * H * dt / hbar)`` of one matrix or
a stack: the exact Pauli form at 2x2, the spectral form from ``eigh`` above.
A Hamiltonian's ``constant_generator`` is exponentiated once and the nodes
``U^k psi0`` are filled by doubling powers (:func:`fill_by_doubling`, which
also serves the stacked sweep).  Without one, ``sample`` is integrated by the
fourth-order Magnus step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009)): one exponential per step of an effective generator built from
samples at the two Gauss nodes, one stacked ``sample`` per chunk of steps.
The node statistics come from ``apply_many``, each node at its own scale.
Every product is unitary to round-off, so norm drift is a genuine error
signal, checked at every node.
A trace holds its node states as one ``(n_nodes, dim)`` amplitude array.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormulaError,
    GridError,
    IntegrationError,
    NormalizationError,
    require_positive_finite,
)
from .hamiltonian import (
    STACK_CHUNK,
    Hamiltonian,
    PAULI_X,
    PAULI_Z,
    energy_statistics,
    hamiltonian_from_json,
    hamiltonian_to_json,
    require_hermitian,
)
from .states import QuantumState

#: Cumulative norm drift beyond which propagation aborts.
MAX_NORM_DRIFT = 1e-9

_ID2 = np.eye(2, dtype=complex)
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0


def propagator_static(epsilon: float, t: float, hbar: float = 1.0) -> np.ndarray:
    """Closed-form propagator of H = epsilon*sigma_x.

    U(t) = cos(epsilon*t/hbar) * I - i*sin(epsilon*t/hbar) * sigma_x.
    """
    require_positive_finite(epsilon=epsilon, hbar=hbar)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    theta = epsilon * t / hbar
    return math.cos(theta) * _ID2 - 1j * math.sin(theta) * PAULI_X


def propagator_driven(
    epsilon: float, omega: float, omega0: float, t: float, hbar: float = 1.0
) -> np.ndarray:
    """Closed-form rotating-frame propagator of the driven two-level system.

    With detuning D = hbar*(omega - omega0) and kappa = sqrt(eps^2 + D^2/4):

        U(t) = cos(kappa*t/hbar)*I
               - i*sin(kappa*t/hbar) * [ (D/(2*kappa))*sigma_z
                                         + (eps/kappa)*sigma_x ].

    This is the exponential of the constant co-rotating generator
    eps*sigma_x + (D/2)*sigma_z; see :class:`~qgeo.hamiltonian.TwoLevelDriven`
    for how it relates to the laboratory-frame observable.
    """
    require_positive_finite(epsilon=epsilon, omega=omega, omega0=omega0, hbar=hbar)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    detuning = hbar * (omega - omega0)
    kappa = math.hypot(epsilon, 0.5 * detuning)
    x = kappa * t / hbar
    axis = (0.5 * detuning / kappa) * PAULI_Z + (epsilon / kappa) * PAULI_X
    return math.cos(x) * _ID2 - 1j * math.sin(x) * axis


def expm_unitary_step(h_matrix: np.ndarray, dt: float | np.ndarray, hbar: float) -> np.ndarray:
    """exp(-i * H * dt / hbar) of a Hermitian matrix or a ``(..., d, d)`` stack.

    ``dt`` is one step or one per matrix.  2x2 matrices use the exact Pauli
    form, which keeps exactly-zero amplitudes of the two-level presets zero;
    larger ones ``V * diag(exp(-i * lam * dt / hbar)) * V^dagger`` from ``eigh``.
    """
    m = np.asarray(h_matrix, dtype=complex)
    if m.shape[-1] != 2:
        lam, v = np.linalg.eigh(m)
        phases = np.exp(-1j * lam * np.divide(dt, hbar)[..., np.newaxis])
        return (v * phases[..., np.newaxis, :]) @ v.conj().swapaxes(-1, -2)
    c0 = 0.5 * (m[..., 0, 0].real + m[..., 1, 1].real)
    cz = 0.5 * (m[..., 0, 0].real - m[..., 1, 1].real)
    cx = m[..., 0, 1].real
    cy = -m[..., 0, 1].imag
    r = np.hypot(np.hypot(cx, cy), cz)
    r_or_1 = np.where(r == 0.0, 1.0, r)  # the axis n = c/r is 0 when r = 0
    nx, ny, nz = cx / r_or_1, cy / r_or_1, cz / r_or_1
    theta = r * dt / hbar
    sin, cos = np.sin(theta), np.cos(theta)
    # cos(theta) I - i sin(theta) n.sigma, with n.sigma = [[nz, nx - i ny], [nx + i ny, -nz]]
    u = np.empty(m.shape, dtype=complex)
    u[..., 0, 0] = cos - 1j * (sin * nz)
    u[..., 0, 1] = -(sin * ny) - 1j * (sin * nx)
    u[..., 1, 0] = sin * ny - 1j * (sin * nx)
    u[..., 1, 1] = cos + 1j * (sin * nz)
    return np.exp(-1j * c0 * dt / hbar)[..., np.newaxis, np.newaxis] * u


def fill_by_doubling(step: np.ndarray, psi0: np.ndarray, n_nodes: int) -> np.ndarray:
    """Nodes ``step^k psi0``, ``k < n_nodes``, of states ``(..., d)``: ``(..., n_nodes, d)``.

    ``step`` is one matrix or a matching ``(..., d, d)`` stack.  Raises
    IntegrationError when a node's norm drifts beyond MAX_NORM_DRIFT.
    """
    psis = np.empty((*psi0.shape[:-1], n_nodes, psi0.shape[-1]), dtype=complex)
    psis[..., 0, :] = psi0
    power_t, filled = np.swapaxes(step, -1, -2), 1
    while filled < n_nodes:  # invariant: power_t = (step^filled)^T
        block = min(filled, n_nodes - filled)
        psis[..., filled : filled + block, :] = psis[..., :block, :] @ power_t
        filled += block
        power_t = power_t @ power_t
    _require_unit_rows(psis, IntegrationError)
    return psis


def _magnus4_nodes(h: Hamiltonian, psi0: np.ndarray, starts: np.ndarray, dt: float) -> np.ndarray:
    """Nodes of the fourth-order Magnus integrator from step start times ``starts``.

    Each step samples the generator at the Gauss nodes ``t + (1/2 -+ sqrt(3)/6) dt``
    (H1, H2) and applies ``exp(-i M dt / hbar)`` of the effective generator

        M = (H1 + H2)/2 - i (sqrt(3)/12) (dt/hbar) [H2, H1],

    which is Hermitian because the commutator of two Hermitian matrices is
    anti-Hermitian.  The steps go in chunks of STACK_CHUNK: one stacked
    ``sample`` and one exponential per chunk, then the sequential matvec
    chain.  Raises IntegrationError when ``M dt / hbar`` overflows or a
    node's norm drifts beyond MAX_NORM_DRIFT.
    """
    psis = np.empty((starts.size + 1, psi0.size), dtype=complex)
    psis[0] = psi0
    for first in range(0, starts.size, STACK_CHUNK):
        nodes = (starts[first : first + STACK_CHUNK, np.newaxis] + dt * _GAUSS_NODES).ravel()
        samples = h.sample(nodes)
        # M dt/hbar from the phases A = H dt/hbar, so that huge energies over
        # tiny steps square to O(1), not to inf
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            a = samples * (dt / h.hbar)
            a1, a2 = a[0::2], a[1::2]
            p = a2 @ a1  # [A2, A1] = P - P^dagger, since A1 A2 = (A2 A1)^dagger
            phase = 0.5 * (a1 + a2) - (1j * _COMMUTATOR_WEIGHT) * (p - p.conj().swapaxes(-1, -2))
        if not np.isfinite(phase).all():
            raise IntegrationError(
                f"the step phase of H(t) on [{float(nodes[0])!r}, {float(nodes[-1])!r}] overflows: "
                f"dt = {dt!r} is too coarse for its energies"
            )
        for k, u in enumerate(expm_unitary_step(phase, 1.0, 1.0), start=first):
            psis[k + 1] = u @ psis[k]
    _require_unit_rows(psis, IntegrationError)
    return psis


def _require_unit_rows(amps: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` unless every state ``(..., d)`` has unit norm within MAX_NORM_DRIFT."""
    # an infinite or huge amplitude gives an inf or nan drift, refused below
    with np.errstate(invalid="ignore", over="ignore"):
        drift = np.abs(np.linalg.norm(amps, axis=-1) - 1.0).ravel()
    worst = int(np.argmax(drift))  # a NaN row wins argmax and fails the test
    if not drift[worst] <= MAX_NORM_DRIFT:
        raise error(
            f"norm drift {drift[worst]:.3e} at node {worst} exceeds {MAX_NORM_DRIFT:.1e}"
        )


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Discretized evolution: nodes, amplitudes, and per-node energy statistics.

    ``amplitudes`` is a read-only ``(n_nodes, dim)`` array; row ``i`` is the
    state at ``times[i]``, of unit norm within :data:`MAX_NORM_DRIFT`.
    ``energy_mean[i]`` and ``energy_dispersion[i]`` are always statistics of
    the energy *observable* at ``times[i]`` in that state, so they can be
    recomputed from the Hamiltonian spec that produced the trace.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    energy_mean: np.ndarray
    energy_dispersion: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        times = np.array(self.times, dtype=float)
        amps = np.array(self.amplitudes, dtype=complex)
        mean = np.array(self.energy_mean, dtype=float)
        disp = np.array(self.energy_dispersion, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise GridError(f"times must be a nonempty 1-D array, got {times.shape}")
        if amps.ndim != 2 or amps.shape[1] < 2:
            raise DimensionMismatchError(
                f"amplitudes must be an (n_nodes, dim >= 2) array, got {amps.shape}"
            )
        n = times.size
        if not (amps.shape[0] == mean.size == disp.size == n):
            raise GridError(
                f"inconsistent trace lengths: {n} times, {amps.shape[0]} states, "
                f"{mean.size} means, {disp.size} dispersions"
            )
        for name, arr in (("times", times), ("energy_mean", mean), ("energy_dispersion", disp)):
            finite = np.isfinite(arr)
            if not np.all(finite):
                raise ValueError(f"{name} must be finite, got {float(arr[~finite].flat[0])!r}")
        if n > 1 and not np.all(np.diff(times) > 0.0):
            raise GridError("times must be strictly increasing")
        if np.any(disp < 0.0):
            raise ValueError("energy dispersion samples must be nonnegative")
        require_positive_finite(hbar=self.hbar)
        _require_unit_rows(amps, NormalizationError)
        for arr in (times, amps, mean, disp):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "energy_mean", mean)
        object.__setattr__(self, "energy_dispersion", disp)

    @property
    def n_nodes(self) -> int:
        return int(self.times.size)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.shape[1])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    @property
    def initial_state(self) -> QuantumState:
        return QuantumState(self.amplitudes[0])

    @property
    def final_state(self) -> QuantumState:
        return QuantumState(self.amplitudes[-1])

    def is_uniform(self, rel_tol: float = 1e-9) -> bool:
        """True when all node spacings agree to ``rel_tol`` relatively."""
        if self.n_nodes < 2:
            return True
        dts = np.diff(self.times)
        dt = self.duration / (self.n_nodes - 1)
        return bool(np.max(np.abs(dts - dt)) <= rel_tol * dt)

    def grid_spacing(self, rel_tol: float = 1e-9) -> float:
        """The common node spacing; raises GridError on non-uniform grids."""
        if self.n_nodes < 2:
            raise GridError("a single-node trace has no spacing")
        if not self.is_uniform(rel_tol):
            raise GridError("trace grid is not uniform")
        return self.duration / (self.n_nodes - 1)

    def to_json(self, hamiltonian: Hamiltonian | None = None) -> dict[str, Any]:
        """JSON envelope with hbar, optional Hamiltonian spec, and all arrays."""
        h_json: dict[str, Any] | None
        if hamiltonian is None:
            h_json = None
        else:
            try:
                h_json = hamiltonian_to_json(hamiltonian)
            except ValueError:
                h_json = None  # a bare callable has no serialized form
        re_rows, im_rows = self.amplitudes.real.tolist(), self.amplitudes.imag.tolist()
        return {
            "hbar": float(self.hbar),
            "hamiltonian": h_json,
            "times": self.times.tolist(),
            "states": [{"re": r, "im": i} for r, i in zip(re_rows, im_rows)],
            "energy_mean": self.energy_mean.tolist(),
            "energy_dispersion": self.energy_dispersion.tolist(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "EvolutionTrace":
        """Inverse of :meth:`to_json`; rejects ragged or off-norm states."""
        try:
            re = np.array([s["re"] for s in data["states"]], dtype=float)
            im = np.array([s["im"] for s in data["states"]], dtype=float)
        except (TypeError, ValueError) as exc:  # ragged or non-numeric vectors
            raise DimensionMismatchError(f"states are not an (n, dim) array: {exc}")
        if re.shape != im.shape:
            raise DimensionMismatchError(f"re/im shapes differ: {re.shape}, {im.shape}")
        amps = np.empty(re.shape, dtype=complex)
        amps.real, amps.imag = re, im  # re + 1j*im would compute 0*inf for an infinite im
        return cls(
            times=np.asarray(data["times"], dtype=float),
            amplitudes=amps,
            energy_mean=np.asarray(data["energy_mean"], dtype=float),
            energy_dispersion=np.asarray(data["energy_dispersion"], dtype=float),
            hbar=float(data["hbar"]),
        )

    def to_csv(self, target: Any) -> None:
        """Write one row per node: t, amplitudes (re/im interleaved), stats."""
        if hasattr(target, "write"):
            self._write_csv(target)
        else:
            with open(target, "w", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh: io.TextIOBase) -> None:
        writer = csv.writer(fh)
        amp_cols = [f"{part}_{k}" for k in range(self.dim) for part in ("re", "im")]
        writer.writerow(["t", *amp_cols, "energy_mean", "energy_dispersion"])
        amps = self.amplitudes
        interleaved = np.stack((amps.real, amps.imag), axis=2).reshape(self.n_nodes, -1)
        table = np.column_stack(
            (self.times, interleaved, self.energy_mean, self.energy_dispersion)
        )
        # the rows csv.writer would write: a float repr never needs quoting
        rows = [",".join(map(float.__repr__, row)) + "\r\n" for row in table.tolist()]
        fh.write("".join(rows))


def trace_hamiltonian_from_json(data: Mapping[str, Any]) -> Hamiltonian | None:
    """Recover the Hamiltonian spec stored in a trace envelope, if any."""
    h_json = data.get("hamiltonian")
    if h_json is None:
        return None
    return hamiltonian_from_json(h_json, hbar=float(data.get("hbar", 1.0)))


def _node_statistics(
    h: Hamiltonian, psis: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Energy mean and dispersion of the observable at every node, at each node's scale."""
    return energy_statistics(psis, *h.apply_many(times, psis))


def evolve(
    h: Hamiltonian, psi0: QuantumState, t_final: float, steps: int
) -> EvolutionTrace:
    """Propagate ``psi0`` under ``h`` on a uniform grid of ``steps`` steps.

    When ``h.constant_generator`` is set, the nodes are exact up to
    round-off.  Otherwise each step is the fourth-order Magnus step: ``sample``
    is taken at the two Gauss nodes of the step, so a run of ``steps`` steps
    samples ``2 * steps`` times, and the global error falls as ``dt^4``.

    Args:
        h: Hamiltonian spec; its ``constant_generator``, or else its
            ``sample``, drives the motion, and ``sample`` provides the
            recorded energy statistics.
        psi0: initial state, same dimension as ``h``.
        t_final: final time, >= 0.  Zero yields a single-node trace.
        steps: number of uniform steps, >= 2.

    Returns:
        An :class:`EvolutionTrace` with ``steps + 1`` nodes (one if ``t_final`` is 0).

    Raises:
        IntegrationError: if the cumulative norm drift ever exceeds 1e-9
            (each individual step is unitary to ~1e-15, so this signals a
            genuinely broken generator, not an accumulation artifact).
    """
    if psi0.dim != h.dim:
        raise DimensionMismatchError(
            f"state dimension {psi0.dim} does not match Hamiltonian dimension {h.dim}"
        )
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be nonnegative and finite, got {t_final!r}")
    if int(steps) != steps or steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    steps = int(steps)

    n_nodes = steps + 1 if t_final > 0.0 else 1
    times = np.linspace(0.0, t_final, n_nodes)
    dt = t_final / steps
    generator = h.constant_generator
    if generator is not None:
        step = expm_unitary_step(require_hermitian(generator, context="generator"), dt, h.hbar)
        psis = fill_by_doubling(step, psi0.amplitudes, n_nodes)
    else:
        psis = _magnus4_nodes(h, psi0.amplitudes, times[:-1], dt)

    mean, disp = _node_statistics(h, psis, times)
    return EvolutionTrace(times, psis, mean, disp, hbar=h.hbar)


def short_time_coefficient(omega: float, omega0: float) -> float:
    """Quadratic growth rate of the driven dispersion at early times.

    a = (omega0^2 / 2) * (1 + 2*omega/omega0), in rad^2/s^2; the dispersion
    grows as eps*(1 + a*t^2) before O(t^4) corrections set in.  An ``a`` that
    overflows (or underflows to zero) is refused as ``coefficient_a``.
    """
    require_positive_finite(omega=omega, omega0=omega0)
    a = 0.5 * omega0 * omega0 * (1.0 + 2.0 * omega / omega0)
    require_positive_finite(coefficient_a=a)
    return a


def dispersion_driven_closed(
    epsilon: float,
    omega: float,
    omega0: float,
    t: float | np.ndarray,
    hbar: float = 1.0,
):
    """Laboratory-frame energy dispersion along the driven transfer curve.

    Exact for any detuning D = hbar*(omega - omega0):

        dE^2 = eps^2 + (hbar*w0)^2/4 - B^2,

    where B is the laboratory-frame mean energy along the curve,

        B = (hbar*w0/2) * [cos^2(kt/h) - ((4 eps^2 - D^2)/(4 k^2)) sin^2(kt/h)]
            - (eps^2/k) sin(2kt/h) sin(wt)
            + (2 eps^2/k) (D/(2k)) sin^2(kt/h) cos(wt),

    with k = kappa = sqrt(eps^2 + D^2/4).  Accepts scalar or array ``t``.
    """
    require_positive_finite(epsilon=epsilon, omega=omega, omega0=omega0, hbar=hbar)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be nonnegative")
    detuning = hbar * (omega - omega0)
    kappa = math.hypot(epsilon, 0.5 * detuning)
    x = kappa * t_arr / hbar
    sin_x, cos_x = np.sin(x), np.cos(x)
    s2, c2 = sin_x * sin_x, cos_x * cos_x
    e2 = epsilon * epsilon
    mean = (
        0.5 * hbar * omega0 * (c2 - ((4.0 * e2 - detuning * detuning) / (4.0 * kappa * kappa)) * s2)
        - (e2 / kappa) * np.sin(2.0 * x) * np.sin(omega * t_arr)
        + (2.0 * e2 / kappa) * (0.5 * detuning / kappa) * s2 * np.cos(omega * t_arr)
    )
    val = e2 + 0.25 * (hbar * omega0) ** 2 - mean * mean
    scale = e2 + 0.25 * (hbar * omega0) ** 2
    if np.any(val < -1e-10 * scale):
        raise FormulaError("closed-form dispersion went negative beyond round-off")
    out = np.sqrt(np.clip(val, 0.0, None))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def dispersion_driven_near_resonance(
    epsilon: float,
    omega: float,
    omega0: float,
    t: float | np.ndarray,
    hbar: float = 1.0,
):
    """Near-resonance (|detuning| << eps) limit of the driven dispersion.

        dE^2 = eps^2 + (hbar*w0)^2/4 * { 1 - [ cos(2 eps t / hbar)
               - (2 eps/(hbar w0)) sin(2 eps t / hbar) sin(w t) ]^2 }.

    Coincides exactly with :func:`dispersion_driven_closed` at zero detuning.
    """
    require_positive_finite(epsilon=epsilon, omega=omega, omega0=omega0, hbar=hbar)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be nonnegative")
    x = 2.0 * epsilon * t_arr / hbar
    bracket = np.cos(x) - (2.0 * epsilon / (hbar * omega0)) * np.sin(x) * np.sin(
        omega * t_arr
    )
    val = epsilon * epsilon + 0.25 * (hbar * omega0) ** 2 * (1.0 - bracket * bracket)
    scale = epsilon * epsilon + 0.25 * (hbar * omega0) ** 2
    if np.any(val < -1e-10 * scale):
        raise FormulaError("near-resonance dispersion went negative beyond round-off")
    out = np.sqrt(np.clip(val, 0.0, None))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def dispersion_short_time(
    epsilon: float, omega: float, omega0: float, t: float | np.ndarray
):
    """Quadratic short-time model eps*(1 + a*t^2) of the driven dispersion."""
    require_positive_finite(epsilon=epsilon)
    a = short_time_coefficient(omega, omega0)
    t_arr = np.asarray(t, dtype=float)
    out = epsilon * (1.0 + a * t_arr * t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out
