"""Unitary propagation and closed-form solutions for the two-level presets.

:func:`expm_unitary_step` gives ``exp(-i * H * dt / hbar)`` of one matrix or
a stack: the exact Pauli form at 2x2, the spectral form from ``eigh`` above.
With a ``constant_generator`` K, :func:`constant_nodes`, the kernel of
:func:`evolve`, exponentiates the step of ``K - (hbar*frame_rate/2)*sigma_z``,
less ``Re tr K / d``, once, fills its powers by doubling, and gives the
nodes ``R(t) U^k psi0`` K's statistics of ``U^k psi0``, taken block by
block of :data:`NODE_BLOCK_BYTES`.  Without a K, ``sample`` is integrated by
the fourth-order Magnus step with Simpson nodes (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009)): each time is sampled once, one stacked
``sample`` per chunk of steps, less its ``Re tr H / d``, and a step's end
sample is the next step's start sample and gives its node's statistics.
Above 2x2 the step applies the exponential's Taylor polynomial to the
state, with no propagator formed (Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 488 (2011)), unless a phase of its chunk exceeds 1 in the inf-norm;
then, and at 2x2, it takes :func:`expm_unitary_step`.
Every step is unitary to round-off, so norm drift is a genuine error
signal, checked at every node.
A trace holds its node states as one ``(n_nodes, dim)`` amplitude array.

Working set: :func:`evolve` allocates the trace's four arrays once, writes
them in place, norm-checks the nodes once after their last write, and the
trace adopts the arrays without a copy.  Arrays a caller passes to
:class:`EvolutionTrace` are copied and every norm is checked.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Mapping

import numpy as np
import orjson

from .errors import (
    DimensionMismatchError,
    FormulaError,
    GridError,
    IntegrationError,
    NormalizationError,
    json_field,
    json_floats,
    json_number,
    require_positive_finite,
)
from .hamiltonian import (
    Hamiltonian,
    PAULI_X,
    PAULI_Z,
    energy_level,
    energy_statistics,
    hamiltonian_from_json,
    hamiltonian_to_json,
    require_hermitian,
    without_level,
)
from .states import QuantumState

#: Cumulative norm drift beyond which propagation aborts.
MAX_NORM_DRIFT = 1e-9

#: Steps per batch of the Magnus integrator: 2*16 samples of a dim-32
#: generator take 512 KB, so peak memory stays flat.
STACK_CHUNK = 16

_ID2 = np.eye(2, dtype=complex)
#: ``_TAYLOR_THETA[m]``: the largest ``|M|`` whose Taylor degree ``m`` truncates
#: ``exp(-i M)`` below ``2^-53``, ``((m+1)! 2^-53)^(1/(m+1))``; above 1 at m = 18.
_TAYLOR_THETA = np.array([(math.factorial(m + 1) * 2.0**-53) ** (1.0 / (m + 1)) for m in range(19)])
#: Bytes of node states per block of the statistics and frame phases in
#: :func:`constant_nodes`: the block's temporaries stay small and are reused
#: from block to block, while the nodes themselves are written once.
NODE_BLOCK_BYTES = 1 << 18
#: Rows or nodes per ``write`` call of the trace writers.
_WRITE_BLOCK = 1024


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
    """Closed-form laboratory-frame propagator of the driven two-level system.

    With detuning D = hbar*(omega - omega0) and kappa = sqrt(eps^2 + D^2/4):

        U(t) = R(t) * [cos(kappa*t/hbar)*I
                       - i*sin(kappa*t/hbar) * ((eps/kappa)*sigma_x - (D/(2*kappa))*sigma_z)],

    with R(t) = diag(e^{-i w t/2}, e^{i w t/2}): the exponential of the
    constant eps*sigma_x - (D/2)*sigma_z in the frame of the drive, carried
    back to the laboratory frame (see :class:`~qgeo.hamiltonian.TwoLevelDriven`).
    """
    require_positive_finite(epsilon=epsilon, omega=omega, omega0=omega0, hbar=hbar)
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    detuning = hbar * (omega - omega0)
    kappa = math.hypot(epsilon, 0.5 * detuning)
    x = kappa * t / hbar
    axis = (epsilon / kappa) * PAULI_X - (0.5 * detuning / kappa) * PAULI_Z
    frame = np.exp(-0.5j * omega * t * np.array([1.0, -1.0]))
    return frame[:, np.newaxis] * (math.cos(x) * _ID2 - 1j * math.sin(x) * axis)


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


def constant_nodes(
    k: np.ndarray, psi0: np.ndarray, dt: float, n_nodes: int, hbar: float,
    rate: float = 0.0, times: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes ``(n_nodes, d)`` of ``psi0`` ``(d,)`` under the constant ``k`` ``(d, d)``.

    Also returns K's energy means and dispersions ``(n_nodes,)``.  ``phi``
    moves under ``K - (hbar*rate/2)*sigma_z`` by the powers of one
    :func:`expm_unitary_step`, filled by doubling straight into the result;
    K's statistics of ``phi`` are the node's (``R^dagger sample(t) R = K``),
    and with a ``rate`` the node is ``R(t) phi`` at ``times``, its frame
    phases ``cos`` and ``sin`` of the real angle ``-rate*t/2``.  A K with
    ``shift = Re tr K / d`` other than 0 moves and is measured as
    ``K - shift``, whose rays are K's and whose digits do not scale with the
    offset; ``shift`` is added back to the means, and node k takes the
    global phase ``e^{-i shift k dt/hbar}``, so it stays the Schrodinger
    solution of K.  The statistics and phases go block by block of
    :data:`NODE_BLOCK_BYTES` along the node axis, and every node is
    norm-checked once, after its last write: IntegrationError beyond
    MAX_NORM_DRIFT.
    """
    shift = energy_level(k)  # 0 for every preset, whose nodes then keep their bits
    free = without_level(k, shift)
    step = expm_unitary_step(free - (0.5 * hbar * rate) * PAULI_Z if rate else free, dt, hbar)
    psis = np.empty((n_nodes, psi0.size), dtype=complex)
    psis[0] = psi0
    power_t, filled = step.T, 1
    while filled < n_nodes:  # invariant: power_t = (step^filled)^T
        block = min(filled, n_nodes - filled)
        np.matmul(psis[:block], power_t, out=psis[filled : filled + block])
        filled += block
        if filled < n_nodes:  # the square after the last block would go unused
            power_t = power_t @ power_t
    mean, disp = np.empty(n_nodes), np.empty(n_nodes)
    block = max(NODE_BLOCK_BYTES // psis[0].nbytes, 2)
    # no block of one row: numpy multiplies one row as a matrix-vector
    # product, whose rounding differs from a row of a matrix product
    bounds = [0, *range(block, n_nodes - 1, block), n_nodes]
    for rows in map(slice, bounds, bounds[1:]):
        mean[rows], disp[rows] = energy_statistics(k, psis[rows], shift)
        if rate:
            angle = (-0.5 * rate) * times[rows]
            phase = np.empty(angle.shape, dtype=complex)
            np.cos(angle, out=phase.real)
            np.sin(angle, out=phase.imag)
            psis[rows, 0] *= phase
            psis[rows, 1] *= np.conjugate(phase, out=phase)
        if shift:
            t = np.arange(rows.start, rows.stop) * dt
            psis[rows] *= np.exp(-1j * shift * t / hbar)[:, np.newaxis]
    _require_unit_rows(psis, IntegrationError)
    return psis, mean, disp


def _taylor_degrees(norms: np.ndarray) -> np.ndarray:
    """Least Taylor degree ``m`` with ``norm^(m+1)/(m+1)! <= 2^-53`` for each ``norm <= 1``."""
    return np.searchsorted(_TAYLOR_THETA, norms)


def _expm_action(phase: np.ndarray, psi: np.ndarray, degree: int) -> np.ndarray:
    """``exp(-i * phase) @ psi`` by its Taylor polynomial of ``degree``, in Horner form."""
    v = psi
    for j in range(degree, 0, -1):
        v = psi + (phase @ v) * (-1j / j)
    return v


def _magnus4_nodes(
    h: Hamiltonian, psi0: np.ndarray, times: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of the fourth-order Magnus integrator on ``times``, and their energy statistics.

    ``sample`` is taken once at every node and once at every step's midpoint.
    With the phases ``A = H dt / hbar`` at a step's start, midpoint and end
    (A0, Am, A1), ``B0 = (A0 + 4 Am + A1)/6`` and ``B1 = (A1 - A0)/12``, the
    step applies ``exp(-i M)`` of

        M = B0 - i [B1, B0],

    which is Hermitian because the commutator of two Hermitian matrices is
    anti-Hermitian.  It is formed as ``Q + Q^dagger`` with ``Q = B0/2 - i B1 B0``,
    so it is Hermitian bit for bit: the anti-Hermitian rounding of a sample,
    about ``eps*s`` at level ``s``, does not make a step non-unitary.  Above
    2x2, a chunk whose every ``M`` has ``|M|_inf <= 1`` applies the
    exponential's Taylor polynomial to the state, so forms no propagator;
    otherwise the chunk takes one stacked :func:`expm_unitary_step`.  The
    steps go in chunks of STACK_CHUNK, one stacked ``sample`` each, after one
    of the initial node.  Each sample enters as ``H - s``, less its level
    ``s = Re tr H / d`` (:func:`~qgeo.hamiltonian.energy_level`), so neither
    the exponential nor the statistics lose digits to an energy offset.  The
    step's turn, the Simpson mean of its three levels times ``dt/hbar``
    (``Re tr B0 / d`` of the unshifted phases), goes back onto its node as
    the scalar ``e^{-i turn}``, so the nodes stay the Schrodinger solution.
    The node samples also give the statistics, chunk by chunk, by
    :func:`~qgeo.hamiltonian.energy_statistics` with their levels.
    Raises IntegrationError when ``M`` overflows or a node's norm drifts
    beyond MAX_NORM_DRIFT.
    """
    psis = np.empty((times.size, psi0.size), dtype=complex)
    mean, disp = np.empty(times.size), np.empty(times.size)
    psis[0] = psi0
    start = h.sample(times[:1])[0]
    level_end = energy_level(start)
    mean[:1], disp[:1] = energy_statistics(start, psis[:1], level_end)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        a_end = without_level(start, level_end) * (dt / h.hbar)
    for first in range(0, times.size - 1, STACK_CHUNK):
        rows = slice(first + 1, min(first + STACK_CHUNK, times.size - 1) + 1)
        nodes = np.empty(2 * (rows.stop - rows.start))
        nodes[0::2], nodes[1::2] = times[rows] - 0.5 * dt, times[rows]
        samples = h.sample(nodes)
        levels = energy_level(samples)
        # M from the phases A = (H - s) dt/hbar, so that huge energies over
        # tiny steps square to O(1), not to inf
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            a = without_level(samples, levels)
            a *= dt / h.hbar
            a0 = np.concatenate((a_end[np.newaxis], a[1:-1:2]))
            am, a1 = a[0::2], a[1::2]
            b0 = (a0 + 4.0 * am + a1) * (1.0 / 6.0)
            b1 = (a1 - a0) * (1.0 / 12.0)
            # M = Q + Q^dagger with Q = B0/2 - i P, P = B1 B0, since [B1, B0] = P - P^dagger
            q = b1 @ b0
            q *= -1j
            q += 0.5 * b0
            # Q^dagger from a contiguous copy of Q^T: numpy iterates a swapped-axes operand slowly
            phase = q.swapaxes(-1, -2).copy()
            np.conjugate(phase, out=phase)
            phase += q
            # the turn Re tr B0 / d of the levels taken out
            level0 = np.concatenate((level_end[np.newaxis], levels[1:-1:2]))
            turn = (level0 + 4.0 * levels[0::2] + levels[1::2]) * (dt / (6.0 * h.hbar))
        if not np.isfinite(phase).all():
            span = f"[{float(times[first])!r}, {float(times[rows.stop - 1])!r}]"
            raise IntegrationError(
                f"the step phase of H(t) on {span} overflows: "
                f"dt = {dt!r} is too coarse for its energies"
            )
        norms = np.abs(phase).sum(axis=-1).max(axis=-1)
        if psi0.size > 2 and norms.max() <= 1.0:
            for k, (m, degree) in enumerate(zip(phase, _taylor_degrees(norms).tolist()), first):
                psis[k + 1] = _expm_action(m, psis[k], degree)
        else:
            for k, u in enumerate(expm_unitary_step(phase, 1.0, 1.0), start=first):
                psis[k + 1] = u @ psis[k]
        # node k + 1 takes the turns e^{-i s} of the chunk's steps up to k
        psis[rows] *= np.cumprod(np.exp(-1j * turn))[:, np.newaxis]
        mean[rows], disp[rows] = np.squeeze(
            energy_statistics(samples[1::2], psis[rows, np.newaxis], levels[1::2]), -1
        )
        a_end, level_end = a1[-1], levels[-1]
    _require_unit_rows(psis, IntegrationError)
    return psis, mean, disp


def _require_unit_rows(amps: np.ndarray, error: type[Exception]) -> None:
    """Raise ``error`` unless every state ``(..., d)`` has unit norm within MAX_NORM_DRIFT."""
    v = np.ascontiguousarray(amps).view(float)  # (re, im) pairs: no complex temporaries
    drift = np.einsum("...i,...i->...", v, v).ravel()  # the one buffer of the drifts
    # an infinite or huge amplitude gives an inf or nan drift, refused below
    with np.errstate(invalid="ignore", over="ignore"):
        np.sqrt(drift, out=drift)
        drift -= 1.0
        np.abs(drift, out=drift)
    worst = int(np.argmax(drift))  # a NaN row wins argmax and fails the test
    if not drift[worst] <= MAX_NORM_DRIFT:
        raise error(
            f"norm drift {drift[worst]:.3e} at node {worst} exceeds {MAX_NORM_DRIFT:.1e}"
        )


class _Owned:
    """Amplitudes that :func:`evolve` hands to its trace, norm-checked after their last write."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Discretized evolution: nodes, amplitudes, and per-node energy statistics.

    ``amplitudes`` is a read-only ``(n_nodes, dim)`` array; row ``i`` is the
    state at ``times[i]``, of unit norm within :data:`MAX_NORM_DRIFT`.
    ``energy_mean[i]`` and ``energy_dispersion[i]`` are always statistics of
    the energy *observable* at ``times[i]`` in that state, so they can be
    recomputed from the Hamiltonian spec that produced the trace.

    A trace built from the caller's arrays copies them and checks every
    norm, so later writes to those arrays leave it unchanged.  A trace that
    :func:`evolve` builds adopts evolve's four arrays as they are: evolve
    wrote them once and norm-checked the amplitudes after its last write, so
    only the shape, finiteness and monotonicity checks run again.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    energy_mean: np.ndarray
    energy_dispersion: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        owned = isinstance(self.amplitudes, _Owned)
        take = np.asarray if owned else np.array  # np.array copies
        times = take(self.times, dtype=float)
        amps = self.amplitudes.array if owned else np.array(self.amplitudes, dtype=complex)
        mean = take(self.energy_mean, dtype=float)
        disp = take(self.energy_dispersion, dtype=float)
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
        if not np.all(times[1:] > times[:-1]):
            raise GridError("times must be strictly increasing")
        if np.any(disp < 0.0):
            raise ValueError("energy dispersion samples must be nonnegative")
        require_positive_finite(hbar=self.hbar)
        if not owned:
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
    def final_state(self) -> QuantumState:
        return QuantumState(self.amplitudes[-1])

    def grid_spacing(self) -> float:
        """The common node spacing ``dt``; GridError unless every gap is within ``1e-9*dt`` of it.

        A stored time carries up to half an ulp of its magnitude, so a gap may
        also be off by ``ulp(max|t|)``: the tolerance adds two spacings at the
        larger end, which a uniform trace far from ``t = 0`` needs.
        """
        if self.n_nodes < 2:
            raise GridError("a single-node trace has no spacing")
        dt = self.duration / (self.n_nodes - 1)
        gaps = np.diff(self.times)
        gaps -= dt
        rounding = 2.0 * np.spacing(max(abs(self.times[0]), abs(self.times[-1])))
        if not np.abs(gaps, out=gaps).max() <= 1e-9 * dt + rounding:
            raise GridError("trace grid is not uniform")
        return dt

    def to_json(self, hamiltonian: Hamiltonian | None = None) -> dict[str, Any]:
        """JSON envelope with hbar, optional Hamiltonian spec, and all arrays."""
        re_rows, im_rows = self.amplitudes.real.tolist(), self.amplitudes.imag.tolist()
        return {
            "hbar": float(self.hbar),
            "hamiltonian": trace_hamiltonian_to_json(hamiltonian),
            "times": self.times.tolist(),
            "states": [{"re": r, "im": i} for r, i in zip(re_rows, im_rows)],
            "energy_mean": self.energy_mean.tolist(),
            "energy_dispersion": self.energy_dispersion.tolist(),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "EvolutionTrace":
        """Inverse of :meth:`to_json`; names a missing field, or one of the wrong type or shape."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a trace must be a JSON object, got {type(data).__name__}")
        states = json_field(data, "states")
        try:
            re = np.asarray([s["re"] for s in states])
            im = np.asarray([s["im"] for s in states])
        except KeyError:  # a second pass names the first state that lacks a part
            for i, s in enumerate(states):
                for part in ("re", "im"):
                    json_field(s, part, f"states[{i}].{part}")
            raise
        except (TypeError, ValueError) as exc:  # ragged vectors, or a state that is not an object
            raise DimensionMismatchError(f"states are not an (n, dim) array: {exc}")
        re, im = json_floats(re, "states"), json_floats(im, "states")
        if re.shape != im.shape:
            raise DimensionMismatchError(f"re/im shapes differ: {re.shape}, {im.shape}")
        amps = np.empty(re.shape, dtype=complex)
        amps.real, amps.imag = re, im  # re + 1j*im would compute 0*inf for an infinite im
        return cls(
            times=json_floats(json_field(data, "times"), "times"),
            amplitudes=amps,
            energy_mean=json_floats(json_field(data, "energy_mean"), "energy_mean"),
            energy_dispersion=json_floats(
                json_field(data, "energy_dispersion"), "energy_dispersion"
            ),
            hbar=json_number(data, "hbar"),
        )

    def float_columns(self) -> list[list[str]]:
        """The CSV columns as ``float.__repr__`` text, which is JSON's float format too.

        Each column is formatted by :func:`_repr_column`.  A column whose
        entries share one bit pattern (the zero parts of a two-level transfer,
        say) is formatted once and holds one ``str`` object repeated; ``0.0``
        and ``-0.0`` differ in their bits, so stay distinct.
        """
        amps = self.amplitudes
        parts = [part[:, k] for k in range(self.dim) for part in (amps.real, amps.imag)]
        columns = (self.times, *parts, self.energy_mean, self.energy_dispersion)
        return [_repr_column(col) for col in columns]

    def to_csv(self, target: Any, columns: list[list[str]] | None = None) -> None:
        """Write one row per node: t, amplitudes (re/im interleaved), stats.

        ``columns`` is :meth:`float_columns`, passed when the caller has it.
        """
        if not hasattr(target, "write"):
            with open(target, "w", newline="") as fh:
                return self.to_csv(fh, columns)
        amp_cols = [f"{part}_{k}" for k in range(self.dim) for part in ("re", "im")]
        # the rows csv.writer would write: a float repr never needs quoting
        target.write(",".join(["t", *amp_cols, "energy_mean", "energy_dispersion"]) + "\r\n")
        write_joined(target, map(",".join, zip(*(columns or self.float_columns()))), "\r\n")
        target.write("\r\n")


def _repr_column(col: np.ndarray) -> list[str]:
    """``float.__repr__`` of every entry of a float64 column, once if all share their bits.

    A varying column takes its digits from one ``orjson.dumps``: orjson's
    Ryu and ``repr``'s dtoa both give the shortest digits that round-trip,
    and only the layout differs.  It differs where ``0 < |x| < 1e-4`` or
    ``|x| >= 1e16`` (orjson writes ``0.00006912``, ``8.1e-6`` and ``1e16``
    where ``repr`` writes ``6.912e-05``, ``8.1e-06`` and ``1e+16``), and for
    ``nan`` and ``inf`` (orjson writes ``null``); those entries are
    formatted by ``float.__repr__``.  When most entries are such, the whole
    column is, since the fallback costs more per entry than ``repr`` alone.
    """
    bits = col.view(np.int64)
    if (bits == bits[0]).all():
        return [float.__repr__(col[0])] * col.size
    mag = np.abs(col)
    # nan fails both comparisons, so falls back too
    fallback = ((mag < 1e-4) | ~(mag < 1e16)) & (mag != 0)
    vals = col.tolist()
    if 2 * np.count_nonzero(fallback) > col.size:
        return list(map(float.__repr__, vals))
    text = orjson.dumps(vals).decode()[1:-1].split(",")
    for i in np.flatnonzero(fallback).tolist():
        text[i] = float.__repr__(vals[i])
    return text


def write_joined(fh: io.TextIOBase, pieces: Iterable[str], sep: str) -> None:
    """Write ``sep.join(pieces)`` to ``fh`` in blocks, never as one string."""
    pieces, lead = iter(pieces), ""
    while block := list(islice(pieces, _WRITE_BLOCK)):
        fh.write(lead + sep.join(block))
        lead = sep


def trace_hamiltonian_to_json(hamiltonian: Hamiltonian | None) -> dict[str, Any] | None:
    """The Hamiltonian spec a trace stores: None for none or a bare callable."""
    try:
        return None if hamiltonian is None else hamiltonian_to_json(hamiltonian)
    except ValueError:  # a bare callable has no serialized form
        return None


def trace_hamiltonian_from_json(data: Mapping[str, Any]) -> Hamiltonian | None:
    """Recover the Hamiltonian spec stored in a trace envelope, if any."""
    h_json = data.get("hamiltonian")
    if h_json is None:
        return None
    return hamiltonian_from_json(h_json, hbar=json_number(data, "hbar", 1.0))


def evolve(
    h: Hamiltonian, psi0: QuantumState, t_final: float, steps: int
) -> EvolutionTrace:
    """Propagate ``psi0`` under ``h`` on a uniform grid of ``steps`` steps.

    The state solves the Schrodinger equation of ``h.sample(t)``, whose
    statistics it records.  With ``h.constant_generator`` K, the nodes are
    exact up to round-off: ``phi`` moves under the constant
    ``K - (hbar*rate/2)*sigma_z``, its statistics under K are the node's
    (``R^dagger sample(t) R = K``), and the node is ``R(t) phi``.  Otherwise
    each step is the fourth-order Magnus step with Simpson nodes: ``sample``
    is taken at every node and every step's midpoint, so a run of ``steps``
    steps samples ``2 * steps + 1`` times; the node samples give the
    statistics, and the global error falls as ``dt^4``.

    The constant path is :func:`constant_nodes`.  The returned trace adopts
    the arrays built here, with no copy: either path norm-checks every node
    once, after its last write.

    Args:
        h: Hamiltonian spec.
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
        k = require_hermitian(generator, context="generator")
        psis, mean, disp = constant_nodes(
            k, psi0.amplitudes, dt, n_nodes, h.hbar, h.frame_rate, times
        )
    else:
        psis, mean, disp = _magnus4_nodes(h, psi0.amplitudes, times, dt)
    return EvolutionTrace(times, _Owned(psis), mean, disp, hbar=h.hbar)


def short_time_coefficient(omega: float, omega0: float) -> float:
    """Quadratic growth rate of the driven dispersion at early times.

    a = omega*omega0/2, in rad^2/s^2: :func:`dispersion_driven_closed` gives
    dE = eps*(1 + a*t^2) + O(t^4).  An ``a`` that overflows (or underflows to
    zero) is refused as ``coefficient_a``.
    """
    require_positive_finite(omega=omega, omega0=omega0)
    a = 0.5 * omega * omega0
    require_positive_finite(coefficient_a=a)
    return a


def dispersion_driven_closed(
    epsilon: float,
    omega: float,
    omega0: float,
    t: float | np.ndarray,
    hbar: float = 1.0,
):
    """Energy dispersion of H(t) along the driven transfer from (1, 0).

    The state is R(t) phi(t) with R^dagger H(t) R = K = eps*sigma_x + (hbar*w0/2)*sigma_z,
    so <H^2> = eps^2 + (hbar*w0/2)^2 and <H> = <phi|K|phi> = hbar*w0/2 - b, where
    phi's Bloch vector turns from (0, 0, 1) about (eps, 0, -D/2)/kappa by
    2*kappa*t/hbar.  For any detuning D = hbar*(omega - omega0), with
    kappa = sqrt(eps^2 + D^2/4):

        dE^2 = eps^2 + b*(hbar*w0 - b),   b = (eps^2*hbar*w/kappa^2) * sin^2(kappa*t/hbar).

    At the end of a resonant transfer b -> hbar*w0, so ``hbar*w0 - b`` is
    taken without cancellation, with x = kappa*t/hbar, as

        hbar*w0 - b = hbar*w0*cos^2(x) - D*sin^2(x) + hbar*w*(D/(2*kappa))^2*sin^2(x).

    Accepts scalar or array ``t``.
    """
    return _driven_dispersion(epsilon, omega, omega0, t, hbar, near_resonance=False)


def dispersion_driven_near_resonance(
    epsilon: float,
    omega: float,
    omega0: float,
    t: float | np.ndarray,
    hbar: float = 1.0,
):
    """Near-resonance (|detuning| << eps) limit of the driven dispersion.

    :func:`dispersion_driven_closed` with kappa replaced by eps: then
    b = hbar*w * sin^2(eps*t/hbar), and the last term of ``hbar*w0 - b`` is 0.
    The two coincide exactly at zero detuning.
    """
    return _driven_dispersion(epsilon, omega, omega0, t, hbar, near_resonance=True)


def _driven_dispersion(epsilon, omega, omega0, t, hbar, near_resonance):
    """sqrt(eps^2 + b*(hbar*w0 - b)) for the exact kappa, or for kappa = eps ``near_resonance``."""
    require_positive_finite(epsilon=epsilon, omega=omega, omega0=omega0, hbar=hbar)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be nonnegative")
    detuning = hbar * (omega - omega0)
    kappa = epsilon if near_resonance else math.hypot(epsilon, 0.5 * detuning)
    tilt = 0.0 if near_resonance else (0.5 * detuning / kappa) ** 2  # 1 - eps^2/kappa^2
    x = kappa * t_arr / hbar
    sin2, cos2 = np.sin(x) ** 2, np.cos(x) ** 2
    b = (epsilon * epsilon * hbar * omega / (kappa * kappa)) * sin2
    # hbar*w0 - b, with no difference of the two as b -> hbar*w0
    gap = hbar * omega0 * cos2 - detuning * sin2 + hbar * omega * tilt * sin2
    val = epsilon * epsilon + b * gap
    # a variance for the exact kappa; with kappa = eps far from resonance b can pass hbar*w0
    if np.any(val < -1e-10 * (epsilon * epsilon + 0.25 * (hbar * omega0) ** 2)):
        raise FormulaError("driven dispersion went negative beyond round-off")
    out = np.sqrt(np.clip(val, 0.0, None))
    return float(out) if t_arr.ndim == 0 else out
