"""Minimum evolution times and randomized sweeps of the time-energy bound.

For unit vectors A and B and an evolution with energy dispersion dE, the
transfer time obeys  <dE> * T >= hbar * arccos|<A|B>|,  with equality exactly
on geodesics; for orthogonal targets the right side is hbar*pi/2 = h/4.
:func:`min_time` is that bound solved for T, on plain numbers.  Along a
stored trace the bound is the efficiency inequality eta <= 1, which
:func:`~qgeo.geometry.efficiency` reports.

:func:`run_sweep` tests the bound on random constant Hamiltonians, at
hbar = 1, with no propagation: for a constant H the survival amplitude
``<A|psi(t)> = sum_j p_j e^{-i lam_j t}`` (Mandelstam & Tamm, J. Phys. USSR
9, 249 (1945); Fleming, Nuovo Cimento A 16, 232 (1973)) gives the angle in
closed form, dE is constant, and the overlap rate is checked against its
bound (2 dE/hbar)|c| sqrt(1 - |c|^2) at every node from the same sums.
Each dimension group of a chunk takes one ``eigh`` of its stack
(:func:`_group_metrics`).  Chunk k of SWEEP_CHUNK samples draws from numpy's spawned child
``SeedSequence(seed).spawn(k + 1)[k]`` (:func:`_draw_chunk`), in full, so a
sample's draws depend on its chunk alone, and no two (seed, chunk) pairs
share a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    DegenerateEndpointsError,
    StationaryStateError,
    is_int_at_least,
    require_positive_finite,
)
from .geometry import DEGENERACY_TOL
from .hamiltonian import energy_level, energy_statistics, without_level
from .propagation import short_time_coefficient


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


#: Samples drawn from one stream and split into dimension groups.  Chunk k
#: draws from ``SeedSequence(seed, spawn_key=(k,))``, so this size is part of
#: every sample's draws.  The default sweep of 1000 samples over dims 2-8
#: makes 14 group passes.
SWEEP_CHUNK = 512

#: Cap on the node phases one rate-check block holds, ``batch * nodes * dim * 16``
#: bytes, with at least two nodes per block.  It bounds the sweep's memory and
#: page faults at large ``steps``; the results do not depend on it.
SWEEP_BLOCK_BYTES = 1 << 17


def _draw_chunk(
    seed: int, chunk: int, dims: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Draws of all SWEEP_CHUNK samples of chunk ``chunk``, from child ``chunk`` of ``seed``.

    The stream is ``SeedSequence(seed, spawn_key=(chunk,))``, which is
    ``SeedSequence(seed).spawn(chunk + 1)[chunk]``.  (``default_rng([seed,
    chunk])`` would not do: numpy pads short entropy with zero words, so
    ``[5, 1]`` and ``[5 + 2**32, 0]`` seed the same stream.)

    In stream order: the dimensions, the duration factors in [0.3, 2.5),
    then for each dimension d present, in increasing order, one normal block
    of ``(re, im)`` pairs: per sample of d, in chunk order, the complex
    Gaussian ``g`` ``(d, d)`` row by row, then psi0 ``(d,)``, unnormalized.
    Returns the dimensions, the factors, and ``(g, psi0)`` stacks by
    dimension.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
    sizes = rng.integers(dims[0], dims[1] + 1, size=SWEEP_CHUNK)
    u = rng.uniform(0.3, 2.5, size=SWEEP_CHUNK)
    draws = {}
    for dim in np.unique(sizes).tolist():
        z = rng.normal(size=(np.count_nonzero(sizes == dim), dim * dim + dim, 2))
        z = z.view(complex)[..., 0]
        draws[dim] = z[:, : dim * dim].reshape(-1, dim, dim), z[:, dim * dim :]
    return sizes, u, draws


def _survival(lam: np.ndarray, p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``c = <A|psi(t)>`` and ``x = <A|H|psi(t)>`` ``(B, n)`` at times ``t`` ``(B, n)``, hbar = 1.

    ``c = sum_j p_j e^{-i lam_j t}`` and ``x = sum_j p_j lam_j e^{-i lam_j t}``,
    with H's eigenvalues ``lam`` and A's weights ``p`` ``(B, d)``.  A node's
    values depend on its time alone, bit for bit, while ``n`` stays above 1
    (numpy multiplies one row as a matrix-vector product).
    """
    angle = t[..., np.newaxis] * lam[:, np.newaxis, :]
    weights = np.stack([p, p * lam], axis=-1)
    cos, sin = np.cos(angle) @ weights, np.sin(angle) @ weights
    return cos[..., 0] - 1j * sin[..., 0], cos[..., 1] - 1j * sin[..., 1]


def _group_metrics(
    g: np.ndarray, psi: np.ndarray, u: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eta, bound margin, rate violations and max rate excess of each sample, in closed form.

    ``g``, ``psi`` and ``u`` stack the draws of samples of one dimension d.
    ``h = (g + g^dagger)/2`` is Hermitian bit for bit (addition commutes and
    negation is exact) and finite, so it needs no Hermiticity check.  Shifted
    by ``Re tr h / d``, which moves no ray, it is decomposed once,
    ``h = sum_j lam_j |j><j|``; with A = psi0 (unit) and ``p_j = |<j|A>|^2``,
    ``c(t) = <A|psi(t)>`` is :func:`_survival`, and no state is propagated.
    dE is constant, A's :func:`~qgeo.hamiltonian.energy_statistics`, so
    ``<dE>*T = dE*T`` exactly.  T is ``u*pi/(2*dE)``, dE floored at
    1e-6 ``||H||_2`` and 1e-12, and is stretched by 1.3737, at most four
    times, while ``|c(T)| >= 1 - 1e-9`` (a revival).  The angle

        theta = atan2(sqrt(2 sum_jk p_j p_k sin^2((lam_j - lam_k) T/2)), |c(T)|)

    keeps every digit near 0, where ``1 - |c|^2`` cancels; ``eta = theta/(dE*T)``
    and the margin is ``dE*T - theta``.

    The rate check is exact at each of the ``steps + 1`` uniform nodes.  With
    ``x = <A|H|psi>``, ``d|c|^2/dt = 2q/hbar`` with ``q = Im(conj(c) x)``.
    Write ``H psi = <H> psi + r``, ``||r|| = dE`` and r orthogonal to psi: r
    meets only the part of A orthogonal to psi, of squared norm ``1 - |c|^2``,
    so ``q^2 <= dE^2 |c|^2 (1 - |c|^2)``.  A node violates when its squared
    excess over the bound, in units of ``||H||_2^2``, passes 64 eps.  The
    nodes go in blocks of SWEEP_BLOCK_BYTES of phases.  Raises
    DegenerateEndpointsError when endpoints stay within 1e-12 in overlap.
    """
    h = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
    shift = energy_level(h)
    lam, vec = np.linalg.eigh(without_level(h, shift))
    psi0 = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    amp = np.einsum("bji,bj->bi", vec.conj(), psi0)
    p = amp.real * amp.real + amp.imag * amp.imag
    p /= np.sum(p, axis=-1, keepdims=True)
    spectral_norm = np.max(np.abs(lam), axis=-1)  # of h - shift: no offset moves it
    disp = energy_statistics(h, psi0[:, np.newaxis], shift)[1][:, 0]
    t_final = u * 0.5 * math.pi / np.maximum(np.maximum(disp, 1e-6 * spectral_norm), 1e-12)
    end = np.abs(_survival(lam, p, t_final[:, np.newaxis])[0][:, 0])
    for _ in range(4):
        stuck = np.flatnonzero(end >= 1.0 - 1e-9)
        if not stuck.size:
            break
        t_final[stuck] *= 1.3737  # deterministic nudge away from a revival
        end[stuck] = np.abs(_survival(lam[stuck], p[stuck], t_final[stuck, np.newaxis])[0][:, 0])
    if np.any(end >= 1.0 - DEGENERACY_TOL):
        raise DegenerateEndpointsError(
            f"endpoint overlap {float(np.max(end))!r} is within 1e-12 of 1"
        )
    gaps = lam[:, :, np.newaxis] - lam[:, np.newaxis, :]
    pairs = p[:, :, np.newaxis] * p[:, np.newaxis, :]
    pairs *= np.sin((0.5 * t_final)[:, np.newaxis, np.newaxis] * gaps) ** 2
    theta = np.arctan2(np.sqrt(2.0 * np.sum(pairs.reshape(len(p), -1), axis=-1)), end)
    action = disp * t_final  # <dE>*T at hbar = 1

    block = max(SWEEP_BLOCK_BYTES // (lam.size * 16), 2)
    bounds = [0, *range(block, steps, block), steps + 1]  # no block of one node
    rate_bad, max_excess = np.zeros(len(p), dtype=int), np.full(len(p), -math.inf)
    for first, stop in zip(bounds, bounds[1:]):
        c, x = _survival(lam, p, np.arange(first, stop) * (t_final / steps)[:, np.newaxis])
        q, c2 = c.real * x.imag - c.imag * x.real, c.real * c.real + c.imag * c.imag
        bound = (disp * disp)[:, np.newaxis] * c2 * (1.0 - c2)
        excess = (q * q - bound) / (spectral_norm * spectral_norm)[:, np.newaxis]
        rate_bad += np.sum(excess > 64.0 * np.finfo(float).eps, axis=-1)
        np.maximum(max_excess, np.max(excess, axis=-1), out=max_excess)
    return theta / action, action - theta, rate_bad, max_excess


def _sample_metrics(
    seed: int, samples: int, dims: tuple[int, int], steps: int
) -> np.ndarray:
    """Per-sample (eta, bound margin, rate violations, max rate excess), ``(samples, 4)``.

    Sample i is sample ``i % SWEEP_CHUNK`` of chunk ``i // SWEEP_CHUNK``,
    whose draws (:func:`_draw_chunk`) are made in full; the tail past
    ``samples`` is dropped, so row i depends on its chunk's stream alone.
    Each chunk is evaluated per dimension group (:func:`_group_metrics`).
    """
    out = np.empty((samples, 4))
    for start in range(0, samples, SWEEP_CHUNK):
        sizes, u, draws = _draw_chunk(seed, start // SWEEP_CHUNK, dims)
        for dim, (g, psi) in draws.items():
            rows = np.flatnonzero(sizes == dim)
            rows = rows[: np.searchsorted(rows, samples - start)]
            if rows.size:
                metrics = _group_metrics(g[: rows.size], psi[: rows.size], u[rows], steps)
                out[start + rows] = np.column_stack(metrics)
    return out


def run_sweep(
    samples: int = 1000,
    seed: int = 12345,
    dims: tuple[int, int] = (2, 8),
    steps: int = 64,
) -> SweepResult:
    """Randomized verification sweep over constant Hermitian generators.

    Sample i draws from chunk ``i // SWEEP_CHUNK``'s stream, child
    ``i // SWEEP_CHUNK`` of ``np.random.SeedSequence(seed)``, which is drawn in
    full whatever ``samples`` is, so results are reproducible and a
    sample's row does not depend on ``samples``.  A sample evolves ``psi0``
    under ``H`` for ``u * pi/(2*dE0)``, with ``u`` uniform in [0.3, 2.5), and
    is evaluated in closed form (:func:`_group_metrics`); the sweep runs in
    units with hbar = 1.

    Args:
        samples: number of random (H, psi0, T) draws, an integer >= 1.
        seed: master seed (one stream per chunk), a non-negative integer.
        dims: inclusive dimension range ``(low, high)``, integers 2 <= low <= high.
        steps: uniform steps per sample at whose ``steps + 1`` nodes the
            rate is checked, an integer >= 2.
    """
    if not is_int_at_least(samples, 1):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    if not is_int_at_least(seed, 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if np.shape(dims) != (2,) or not all(map(is_int_at_least, dims, (2, dims[0]))):
        raise ValueError(f"dims must be two integers 2 <= low <= high, got {dims!r}")
    if not is_int_at_least(steps, 2):
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    metrics = _sample_metrics(int(seed), int(samples), dims, int(steps))
    etas, margins, rate_bad, rate_excess = metrics.T
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
