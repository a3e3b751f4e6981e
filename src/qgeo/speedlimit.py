"""Minimum evolution times and randomized sweeps of the time-energy bound.

For unit vectors A and B and an evolution with energy dispersion dE, the
transfer time obeys  <dE> * T >= hbar * arccos|<A|B>|,  with equality exactly
on geodesics; for orthogonal targets the right side is hbar*pi/2 = h/4.
:func:`min_time` is that bound solved for T, on plain numbers.  Along a
stored trace the bound is the efficiency inequality eta <= 1, which
:func:`~qgeo.geometry.efficiency` reports.

:func:`run_sweep` tests the bound on random constant Hamiltonians, at
hbar = 1, in fixed chunks of SWEEP_CHUNK samples and one pass per dimension
group (split only where its node states would pass SWEEP_BLOCK_BYTES) that
calls the per-trace code on stacks: the constant-generator kernel of
:func:`~qgeo.propagation.evolve` (:func:`~qgeo.propagation.constant_nodes`),
the efficiency kernel of :func:`~qgeo.geometry.efficiency`, and an exact
check of the overlap rate against its bound (2 dE/hbar)|c| sqrt(1 - |c|^2),
c = <A|psi>, at every node.  Sample i draws from ``Generator(PCG64(words))``,
whose PCG64 seed words :func:`_spawn_words` computes for a whole chunk of
spawn keys in one pass of numpy uint32 arithmetic; they equal those of
``np.random.SeedSequence(seed).spawn(samples)[i]`` bit for bit, so the draws
are those of ``default_rng`` on that child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from . import geometry
from .errors import StationaryStateError, is_int_at_least, require_positive_finite
from .hamiltonian import energy_statistics
from .propagation import constant_nodes, short_time_coefficient


def min_time(overlap: float, dispersion: float, hbar: float = 1.0) -> float:
    """Minimum transfer time hbar*arccos(overlap)/dispersion.

    The overlap is a plain number, so ``math.acos`` of it is the angle; a
    trace's angle is :func:`~qgeo.states.ray_angle` of its endpoint states.
    Raises ``ValueError`` naming an overlap outside
    [0, 1], a ``hbar`` or ``dispersion`` that is not positive and finite, or a
    ratio ``hbar/dispersion`` so large that the time overflows; a zero
    dispersion raises :class:`~qgeo.errors.StationaryStateError`.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap!r}")
    require_positive_finite(hbar=hbar)
    if dispersion == 0.0:
        raise StationaryStateError("minimum time undefined at zero dispersion")
    require_positive_finite(dispersion=dispersion)
    t_min = hbar * math.acos(overlap) / dispersion
    if not math.isfinite(t_min):
        raise ValueError(
            f"hbar/dispersion = {hbar!r}/{dispersion!r} is too large: the minimum "
            "time hbar*arccos(overlap)/dispersion overflows"
        )
    return t_min


def solve_implicit_time(
    epsilon: float, omega: float, omega0: float, hbar: float = 1.0
) -> float:
    """Ideal transfer time under the short-time dispersion model.

    Solves  T + a*T^3/3 = t0  for T, with  t0 = pi*hbar/(2*eps)  and
    a = omega*omega0/2 (:func:`~qgeo.propagation.short_time_coefficient`).  The
    cubic is strictly increasing, so its one real root lies strictly inside
    (0, t0); in closed form

        T = (2/sqrt(a)) * sinh(asinh(x)/3),   x = 1.5*t0*sqrt(a).

    At large x the closed form loses a few hundred ulps, so one Newton step on
    the cubic follows it; that leaves a relative residual below 1e-14.  The
    result is capped at t0, which rounding could otherwise pass by an ulp when
    a*t0^2 is negligible.
    Raises ``ValueError`` naming any input, or ``a`` or ``x``, that is not
    positive and finite.
    """
    require_positive_finite(epsilon=epsilon, hbar=hbar)
    a = short_time_coefficient(omega, omega0)  # validates omega, omega0 and a
    t0 = 0.5 * math.pi * hbar / epsilon
    root_a = math.sqrt(a)
    x = 1.5 * t0 * root_a
    require_positive_finite(**{"1.5*t0*sqrt(a)": x})
    t = 2.0 / root_a * math.sinh(math.asinh(x) / 3.0)
    # a*T first and /3 before the last factor: the cubic term is about t0,
    # which may lie above a third of the float max
    t -= (t + a * t * t / 3.0 * t - t0) / (1.0 + a * t * t)
    return min(t, t0)


@dataclass(frozen=True)
class SweepResult:
    """Aggregate outcome of a randomized bound sweep.

    ``eta_violations`` counts eta > 1 + 1e-6; ``bound_violations`` counts
    <dE>*T < arccos|<A|B>| - 1e-6 (hbar = 1); ``rate_violations`` counts
    nodes where the exact overlap rate beats its bound beyond round-off, and
    ``max_rate_excess`` is the largest normalised squared excess
    (:func:`_group_metrics`).  All counts must be zero.
    """

    samples: int
    seed: int
    eta_min: float
    eta_max: float
    eta_violations: int
    bound_violations: int
    rate_violations: int
    min_bound_margin: float
    max_rate_excess: float

    @property
    def total_violations(self) -> int:
        return self.eta_violations + self.bound_violations + self.rate_violations

    def to_json(self) -> dict[str, Any]:
        return {
            "samples": int(self.samples),
            "seed": int(self.seed),
            "eta_min": float(self.eta_min),
            "eta_max": float(self.eta_max),
            "eta_violations": int(self.eta_violations),
            "bound_violations": int(self.bound_violations),
            "rate_violations": int(self.rate_violations),
            "min_bound_margin": float(self.min_bound_margin),
            "max_rate_excess": float(self.max_rate_excess),
            "total_violations": int(self.total_violations),
        }


#: Samples drawn together and split into dimension groups.  The default
#: sweep of 1000 samples over dims 2-8 makes 14 group passes (56 at 128); at
#: 1024 its peak RSS grew by 11% over 128's.  The results do not depend on it.
SWEEP_CHUNK = 512

#: Cap on the node states one group pass holds, ``batch * (steps + 1) * dim * 16``
#: bytes, with at least one sample per pass.  It bounds the sweep's memory at
#: large ``steps``; the results do not depend on it.
SWEEP_BLOCK_BYTES = 2 << 20


#: numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``): the running
#: hash of its entropy pool, the multipliers of its pool mixing, and the running hash
#: of ``generate_state``.  NEP 19 keeps SeedSequence and PCG64 streams stable across versions.
_MASK32 = 0xFFFFFFFF
_POOL_HASH = (0x43B0D7E5, 0x931E8875)
_MIX_MULT = (0xCA01F9DD, 0x4973F715)
_STATE_HASH = (0x8B51F9DD, 0x58F38DED)


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """numpy's ``hashmix`` on uint32 arrays: xor the running constant, step it, multiply."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of two pool words, on uint32 arrays."""
    r = x * np.uint32(_MIX_MULT[0]) - y * np.uint32(_MIX_MULT[1])
    return r ^ r >> np.uint32(16)


def _spawn_words(seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words ``(stop - start, 4)`` uint64 of spawn keys ``start..stop-1`` of ``seed``.

    Row k equals ``np.random.SeedSequence(seed).spawn(stop)[start + k]
    .generate_state(4, np.uint64)`` bit for bit: numpy's pool mixing and
    ``generate_state`` in one pass of uint32 array arithmetic, whose wraparound
    is numpy's, with one element per key.  The seed's words (zero-padded to
    the pool's four) give the same pool for every key; a key then mixes in as
    one word, or as two from ``2**32`` on.
    """
    keys = np.arange(start, stop, dtype=np.uint64)
    seed = int(seed)
    run = [np.array([seed >> s & _MASK32], np.uint32) for s in range(0, seed.bit_length() or 1, 32)]
    run += [np.zeros(1, np.uint32)] * (4 - len(run))
    hashmix = _hasher(*_POOL_HASH)
    pool = [hashmix(word) for word in run[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in run[4:] + [keys.astype(np.uint32)]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    high = (keys >> np.uint64(32)).astype(np.uint32)
    if high.any():
        pool = [np.where(high > 0, _mix(p, hashmix(high)), p) for p in pool]
    hashmix = _hasher(*_STATE_HASH)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=-1)
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


class _StateWords:
    """One row of :func:`_spawn_words`, handed to PCG64 as its seed sequence.

    :func:`_generators` registers it as a ``numpy.random.bit_generator.ISeedSequence``
    on first use, so that ``import qgeo`` does not load numpy.random.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"state words are 4 uint64, not {n_words} {np.dtype(dtype)}")
        return self.words


def _generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    """``Generator(PCG64(row))`` for each row of :func:`_spawn_words`, in order.

    Each is the generator ``default_rng`` builds from that row's spawned
    child, so its draws are numpy's bit for bit.
    """
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    return (np.random.Generator(np.random.PCG64(_StateWords(row))) for row in words)


def _draw(rng: np.random.Generator, dims: tuple[int, int]) -> tuple[int, np.ndarray, float]:
    """One sample's draws from its generator: dimension d, raw normals, duration factor.

    The draw order (integers, normal, uniform) fixes each sample's values.  The
    ``2*d*d + 2*d`` normals are, in stream order, Re g, Im g, Re psi0 and Im
    psi0 (:func:`_complex_draws`).
    """
    dim = int(rng.integers(dims[0], dims[1] + 1))
    raw = rng.normal(size=2 * dim * dim + 2 * dim)
    return dim, raw, float(rng.uniform(0.3, 2.5))


def _complex_draws(raw: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex Gaussian ``g`` ``(B, d, d)`` and unnormalized psi0 ``(B, d)`` of stacked draws."""
    n = dim * dim
    g = raw[:, :n].reshape(-1, dim, dim) + 1j * raw[:, n : 2 * n].reshape(-1, dim, dim)
    psi = raw[:, 2 * n : 2 * n + dim] + 1j * raw[:, 2 * n + dim :]
    return g, psi


def _propagate(
    h: np.ndarray, psi0: np.ndarray, t_final: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of each sample ``psi0`` under its ``h`` on ``steps`` uniform steps: ``(B, n, d)``.

    The nodes and their dispersions come from
    :func:`~qgeo.propagation.constant_nodes`, the kernel of
    :func:`~qgeo.propagation.evolve`.  A sample whose endpoints land on a
    revival (overlap >= 1 - 1e-9) has its duration stretched by 1.3737 and is
    propagated again, at most four times; the others are left alone.
    Returns the final durations, the amplitudes and the dispersions.
    Raises IntegrationError when a node's norm drifts beyond MAX_NORM_DRIFT.
    """
    t_final = np.array(t_final, dtype=float)
    amps, _, disp = constant_nodes(h, psi0, t_final / steps, steps + 1, 1.0)
    for _ in range(4):
        ends = np.abs(np.sum(amps[:, 0].conj() * amps[:, -1], axis=-1))
        stuck = np.flatnonzero(ends >= 1.0 - 1e-9)
        if not stuck.size:
            break
        t_final[stuck] *= 1.3737  # deterministic nudge away from a revival
        amps[stuck], _, disp[stuck] = constant_nodes(
            h[stuck], psi0[stuck], t_final[stuck] / steps, steps + 1, 1.0
        )
    return t_final, amps, disp


def _group_metrics(
    g: np.ndarray, psi: np.ndarray, u: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eta, bound margin, rate violations and max rate excess of each sample.

    ``g``, ``psi`` and ``u`` stack the draws of samples of one dimension.
    ``h = (g + g^dagger)/2`` is Hermitian bit for bit (addition commutes and
    negation is exact) and finite, so it needs no Hermiticity check.

    The rate check is exact at every node psi.  With A = psi(0) (unit),
    c = <A|psi> and x = <HA|psi> = <A|H psi>,  d|c|^2/dt = 2q/hbar  with
    q = Im(conj(c) x).  Write  H psi = m psi + r  with r orthogonal to psi:
    then q = Im(conj(c) <A|r>), and r meets only the part of A orthogonal to
    psi, of squared norm 1 - |c|^2/||psi||^2, so
    q^2 <= ||r||^2 |c|^2 (||psi||^2 - |c|^2) / ||psi||^2.  The nodes are unit
    only to round-off, which 1 - |c|^2 in place of that factor would flag.
    The dE of :func:`~qgeo.hamiltonian.energy_statistics`,
    ``||H psi - <psi|H|psi> psi||``, is never below ||r||, the least-squares
    residual of H psi against psi.  A node violates when its squared excess
    over the bound, in units of ``||H||_2^2``, passes 64 eps.
    """
    h = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
    psi0 = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    spectral_norm = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
    d0 = energy_statistics(h, psi0[:, np.newaxis])[1][:, 0]
    d0 = np.maximum(np.maximum(d0, 1e-6 * spectral_norm), 1e-12)
    t_final, amps, disp = _propagate(h, psi0, u * 0.5 * math.pi / d0, steps)
    report = geometry.speed_limit_report(amps[:, 0], amps[:, -1], disp, t_final, 1.0)
    margin = 0.5 * (report.s - report.s0)  # <dE>*T - arccos|<A|B>|, as <dE>*T = hbar*s/2

    a = amps[:, 0]
    cx = amps @ np.stack([a, np.einsum("bij,bj->bi", h, a)], axis=-1).conj()
    c, x = cx[..., 0], cx[..., 1]
    q, c2 = c.real * x.imag - c.imag * x.real, c.real * c.real + c.imag * c.imag
    norm2 = np.einsum("...i,...i->...", amps.view(float), amps.view(float))
    excess = (q * q - disp * disp * c2 * (norm2 - c2) / norm2) / spectral_norm[:, None] ** 2
    rate_bad = np.sum(excess > 64.0 * np.finfo(float).eps, axis=-1)
    return report.eta, margin, rate_bad, np.max(excess, axis=-1)


def _sample_metrics(
    seed: int, samples: int, dims: tuple[int, int], steps: int
) -> np.ndarray:
    """Per-sample (eta, bound margin, rate violations, max rate excess).

    Returns a ``(samples, 4)`` array in spawn-key order.  The samples are
    seeded and drawn SWEEP_CHUNK at a time, each from the generator of its
    :func:`_spawn_words` row, whose words equal those of numpy's
    ``SeedSequence(seed).spawn(samples)`` child bit for bit, and evaluated
    per dimension group, in batches of at most SWEEP_BLOCK_BYTES of node
    states.
    """
    out = np.empty((samples, 4))
    for start in range(0, samples, SWEEP_CHUNK):
        words = _spawn_words(seed, start, min(start + SWEEP_CHUNK, samples))
        draws = [_draw(rng, dims) for rng in _generators(words)]
        sizes = np.array([dim for dim, _, _ in draws])
        for dim in np.unique(sizes):
            rows = np.flatnonzero(sizes == dim)
            batch = max(1, SWEEP_BLOCK_BYTES // ((steps + 1) * dim * 16))
            for part in np.split(rows, range(batch, rows.size, batch)):
                raw = np.array([draws[i][1] for i in part])
                u = np.array([draws[i][2] for i in part])
                g, psi = _complex_draws(raw, dim)
                out[start + part] = np.column_stack(_group_metrics(g, psi, u, steps))
    return out


def run_sweep(
    samples: int = 1000,
    seed: int = 12345,
    dims: tuple[int, int] = (2, 8),
    steps: int = 64,
) -> SweepResult:
    """Randomized verification sweep over constant Hermitian generators.

    Sample i draws from the generator ``default_rng`` builds from
    ``np.random.SeedSequence(seed).spawn(samples)[i]``, bit for bit, through
    its :func:`_spawn_words` row, so results are reproducible and independent
    of chunking.  A sample propagates ``psi0`` under ``H`` for
    ``u * pi/(2*dE0)``, with ``u`` uniform in [0.3, 2.5]; the sweep runs in
    units with hbar = 1.

    Args:
        samples: number of random (H, psi0, T) draws, an integer >= 1.
        seed: master seed (one spawn key per sample), a non-negative integer.
        dims: inclusive dimension range ``(low, high)``, integers 2 <= low <= high.
        steps: integrator steps per sample, an integer >= 2 (even keeps
            node counts odd).
    """
    if not is_int_at_least(samples, 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    if not is_int_at_least(seed, 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if np.shape(dims) != (2,) or not all(map(is_int_at_least, dims, (2, dims[0]))):
        raise ValueError(f"dims must be two integers 2 <= low <= high, got {dims!r}")
    if not is_int_at_least(steps, 2):
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    etas, margins, rate_bad, rate_excess = _sample_metrics(seed, int(samples), dims, int(steps)).T
    return SweepResult(
        samples=samples,
        seed=seed,
        eta_min=float(np.min(etas)),
        eta_max=float(np.max(etas)),
        eta_violations=int(np.sum(etas > 1.0 + 1e-6)),
        bound_violations=int(np.sum(margins < -1e-6)),
        rate_violations=int(np.sum(rate_bad)),
        min_bound_margin=float(np.min(margins)),
        max_rate_excess=float(np.max(rate_excess)),
    )
