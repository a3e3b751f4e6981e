import inspect
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from qgeo import propagation, speedlimit
from qgeo.errors import DegenerateEndpointsError, StationaryStateError
from qgeo.geometry import efficiency, speed_limit_report
from qgeo.hamiltonian import (
    PAULI_X,
    PAULI_Z,
    ConstantMatrix,
    TwoLevelDriven,
    TwoLevelStatic,
    energy_statistics,
)
from qgeo.propagation import evolve, short_time_coefficient
from qgeo.si import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR_SI,
    larmor_angular_frequency,
    larmor_frequency_hz,
    rabi_angular_frequency,
)
from qgeo.speedlimit import (
    SweepResult,
    min_time,
    run_sweep,
    solve_implicit_time,
)
from qgeo.states import QuantumState, ray_angle

UP = QuantumState.exact([1.0, 0.0])
EPS, OMEGA, OMEGA0 = 1.0, 0.25, 0.2
# the rate check's threshold on the squared excess, in units of ||H||_2^2
RATE_TOL = 64 * np.finfo(float).eps


class TestMinTime:
    def test_signature_is_the_formula_on_plain_numbers(self):
        assert list(inspect.signature(min_time).parameters) == ["overlap", "dispersion", "hbar"]
        assert inspect.signature(min_time).parameters["hbar"].default == 1.0
        assert not hasattr(speedlimit, "BoundQuery")

    def test_overlap_range(self):
        for ov in (1.1, -0.1, math.nan):
            with pytest.raises(ValueError, match=r"^overlap must lie in \[0, 1\]"):
                min_time(ov, 1.0)

    def test_orthogonal_target(self):
        t = min_time(0.0, 1.0)
        assert t == pytest.approx(math.pi / 2.0)
        # dispersion * time equals a quarter of Planck's constant (h/4)
        assert 1.0 * t == pytest.approx(2.0 * math.pi / 4.0)

    def test_coincident_target(self):
        assert min_time(1.0, 1.0) == 0.0

    def test_eighth_turn(self):
        assert min_time(1.0 / math.sqrt(2.0), 2.0) == pytest.approx(math.pi / 8.0)

    def test_zero_dispersion_raises(self):
        with pytest.raises(StationaryStateError):
            min_time(0.5, 0.0)

    def test_overflowing_time_names_hbar_over_dispersion(self):
        # hbar*arccos(overlap)/dispersion overflows to inf, which JSON cannot carry:
        # through a small dispersion, a large hbar, or both
        for ov, d, hbar in [(0.5, 1e-320, 1.0), (0.0, 1.0, 1.5e308), (0.0, 1e-300, 1e10)]:
            prefix = re.escape(f"hbar/dispersion = {hbar!r}/{d!r} is too large")
            with pytest.raises(ValueError, match=f"^{prefix}"):
                min_time(ov, d, hbar)
        assert min_time(0.5, 1e-308) == math.acos(0.5) / 1e-308  # finite, so kept

    def test_arccos_arcsin_agreement(self):
        for ov in np.linspace(0.0, 1.0, 101):
            t = min_time(float(ov), 1.0)
            t_sin = math.asin(math.sqrt(1.0 - ov * ov))
            assert abs(t - t_sin) <= 1e-12 * max(t, 1.0)

    def test_near_orthogonal_overlaps_are_accepted(self):
        # a 1e5 cap on the conditioning refused 335 of these, between 1.4e-9 and 5.4e-8
        for ov in np.logspace(-12.0, -5.0, 2000):
            assert min_time(float(ov), 1.0) == math.acos(ov)

    def test_monotone_in_overlap(self):
        times = [min_time(float(ov), 1.0) for ov in np.linspace(0.0, 1.0, 50)]
        assert all(b <= a for a, b in zip(times, times[1:]))

    def test_strictly_decreasing_in_dispersion(self):
        times = [min_time(0.3, float(d)) for d in np.linspace(0.5, 5.0, 30)]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_hbar_scaling(self):
        t1 = min_time(0.2, 1.0, hbar=1.0)
        t2 = min_time(0.2, 1.0, hbar=3.0)
        assert t2 == pytest.approx(3.0 * t1)


class TestAvgDispersion:
    """The report's time-averaged dispersion (1/T) * integral of dE dt."""

    def test_constant_dispersion_trace(self):
        h = TwoLevelStatic(epsilon=0.7)
        tr = evolve(h, UP, 2.0, steps=100)
        assert efficiency(tr).avg_dispersion == pytest.approx(0.7, rel=1e-12)

    def test_static_scenario(self):
        h = TwoLevelStatic(epsilon=1.0)
        tr = evolve(h, UP, h.orthogonality_time, steps=400)
        assert efficiency(tr).avg_dispersion == pytest.approx(1.0, rel=1e-12)

    def test_short_time_driven_average(self):
        # <dE> over [0,T] of eps*(1 + a t^2) is eps*(1 + a T^2/3) + O(T^4)
        t_final = 0.05
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        tr = evolve(h, UP, t_final, steps=200)
        a = short_time_coefficient(OMEGA, OMEGA0)
        expected = EPS * (1.0 + a * t_final * t_final / 3.0)
        assert efficiency(tr).avg_dispersion == pytest.approx(expected, abs=EPS * t_final**4)

    def test_even_node_count_warns(self):
        tr = evolve(TwoLevelStatic(epsilon=1.0), UP, 1.0, steps=5)  # 6 nodes
        with pytest.warns(UserWarning, match="even node count"):
            efficiency(tr)


class TestVerifyBound:
    def test_static_scenario_saturates(self):
        h = TwoLevelStatic(epsilon=1.0)
        tr = evolve(h, UP, h.orthogonality_time, steps=1000)
        rep = efficiency(tr)
        assert rep.bound_satisfied
        assert rep.t_ideal == pytest.approx(rep.t_effective, rel=1e-9)
        lhs = rep.avg_dispersion * rep.t_effective
        assert lhs == pytest.approx(math.pi / 2.0, abs=1e-9)  # h/4 in hbar=1

    def test_driven_scenario_strict_inequality(self):
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        tr = evolve(h, UP, h.orthogonality_time, steps=1000)
        rep = efficiency(tr)
        assert rep.bound_satisfied
        assert rep.t_ideal < rep.t_effective
        lhs = rep.avg_dispersion * rep.t_effective
        rhs = math.acos(math.cos(0.5 * rep.s0))
        assert lhs > rhs + 1e-3  # genuinely strict, not a tolerance artifact

    def test_consistency_triangle(self):
        # eta must equal hbar*arccos(overlap)/(avg_disp * T) for any trace
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        tr = evolve(h, UP, 0.8 * h.orthogonality_time, steps=600)
        rep = efficiency(tr)
        ov = abs(np.vdot(tr.amplitudes[0], tr.amplitudes[-1]))
        eta_indirect = math.acos(ov) / (rep.avg_dispersion * tr.duration)
        assert rep.eta == pytest.approx(eta_indirect, abs=1e-9)

    def test_random_mini_ensemble(self):
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = ConstantMatrix(0.5 * (g + g.conj().T))
            psi0 = QuantumState.normalized(
                rng.normal(size=dim) + 1j * rng.normal(size=dim)
            )
            tr = evolve(h, psi0, float(rng.uniform(0.3, 1.5)), steps=32)
            if math.cos(ray_angle(tr.amplitudes[0], tr.amplitudes[-1])) > 1.0 - 1e-9:
                continue
            assert efficiency(tr).bound_satisfied
            checked += 1
        assert checked >= 25


class TestSolveImplicitTime:
    def test_vanishing_coefficient_limit(self):
        # as a -> 0 the cubic term dies and T tends to pi*hbar/(2*eps)
        t = solve_implicit_time(1.0, 1e-9, 1e-9)
        assert t == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_reference_parameters(self):
        a = short_time_coefficient(OMEGA, OMEGA0)
        assert a == pytest.approx(0.025)
        t = solve_implicit_time(EPS, OMEGA, OMEGA0)
        target = math.pi / 2.0
        assert abs(t + a * t**3 / 3.0 - target) <= 1e-14 * target
        assert t < target

    def test_agrees_with_bisection_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            eps = float(rng.uniform(0.2, 3.0))
            omega = float(rng.uniform(0.05, 2.0))
            omega0 = float(rng.uniform(0.05, 2.0))
            hbar = float(rng.uniform(0.5, 2.0))
            a = short_time_coefficient(omega, omega0)
            target = 0.5 * math.pi * hbar / eps
            oracle = brentq(
                lambda x: x + a * x**3 / 3.0 - target,
                0.0,
                target,
                xtol=1e-15,
                rtol=8.9e-16,
            )
            assert solve_implicit_time(eps, omega, omega0, hbar) == pytest.approx(
                oracle, abs=1e-12
            )

    def test_always_below_orthogonality_time(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            eps = float(rng.uniform(0.1, 5.0))
            omega = float(rng.uniform(0.01, 3.0))
            omega0 = float(rng.uniform(0.01, 3.0))
            assert solve_implicit_time(eps, omega, omega0) < math.pi / (2.0 * eps)

    def test_closed_form_residual_over_wide_range(self):
        # log-uniform draws spanning twelve decades of epsilon, fifteen of the
        # frequencies and six of hbar, a point where T^3 alone overflows, and
        # a grid out to x = 1.5*t0*sqrt(a) ~ 1e303, where the closed form alone
        # left residuals up to 1.3e-13 (365 ulps at epsilon = 1e-280, omega = 1);
        # last, t0 above a third of the float max, where a*T^3 itself overflows
        rng = np.random.default_rng(4242)
        n = 20000
        draws = zip(
            (10.0 ** rng.uniform(-6.0, 6.0, n)).tolist(),
            (10.0 ** rng.uniform(-9.0, 6.0, n)).tolist(),
            (10.0 ** rng.uniform(-9.0, 6.0, n)).tolist(),
            (10.0 ** rng.uniform(-3.0, 3.0, n)).tolist(),
        )
        grid = [
            (float(eps), omega, 0.2, 1.0)
            for eps in np.logspace(-300.0, 300.0, 61)
            for omega in (1e-3, 0.25, 1.0, 1e3)
        ]
        huge_t0 = [(1.0, 1.0, 0.2, 5e307), (1.0, 1e3, 1e-3, 7e307)]
        worst = 0.0
        for eps, omega, omega0, hbar in [
            *draws, (1e-200, 1e-125, 1e-125, 1.0), *grid, *huge_t0
        ]:
            t = solve_implicit_time(eps, omega, omega0, hbar)
            a = short_time_coefficient(omega, omega0)
            target = 0.5 * math.pi * hbar / eps
            assert 0.0 < t <= target  # equal once a*t0^2 is below rounding
            residual = abs(t + a * t * t / 3.0 * t - target) / target
            worst = max(worst, residual)
        assert worst <= 1e-14

    def test_root_is_within_an_ulp_at_large_x(self):
        # the closed form in 60-digit arithmetic is the root to well below an ulp
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for eps in (1e-280, 1e-200, 1e-100, 1.0):
                t = solve_implicit_time(eps, 1.0, 0.2)
                a = mpmath.mpf(short_time_coefficient(1.0, 0.2))
                x = mpmath.mpf(1.5) * mpmath.mpf(0.5 * math.pi / eps) * mpmath.sqrt(a)
                root = 2 / mpmath.sqrt(a) * mpmath.sinh(mpmath.asinh(x) / 3)
                assert abs(mpmath.mpf(t) - root) <= math.ulp(t)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            solve_implicit_time(-1.0, 0.25, 0.2)
        with pytest.raises(ValueError):
            solve_implicit_time(1.0, 0.0, 0.2)


def reference_draws(seed, samples, dims):
    """(dim, g, psi0, u) of each sweep sample, drawn as documented, sample by sample.

    Chunk k of SWEEP_CHUNK samples draws from child k of numpy's
    ``SeedSequence(seed).spawn``, in full: every dimension, every duration
    factor, then per dimension in increasing order one normal block of
    (re, im) pairs holding g row by row and then the unnormalized psi0 of
    each of its samples.
    """
    chunk, draws = speedlimit.SWEEP_CHUNK, []
    for child in np.random.SeedSequence(seed).spawn(-(-samples // chunk)):
        rng = np.random.default_rng(child)
        sizes = rng.integers(dims[0], dims[1] + 1, size=chunk).tolist()
        factors = rng.uniform(0.3, 2.5, size=chunk).tolist()
        blocks = {}
        for d in sorted(set(sizes)):
            pairs = rng.normal(size=(sizes.count(d), d * d + d, 2))
            blocks[d] = iter(pairs[..., 0] + 1j * pairs[..., 1])
        for d, u in zip(sizes, factors):
            z = next(blocks[d])
            draws.append((d, z[: d * d].reshape(d, d), z[d * d :], u))
    return draws[:samples]


def reference_sample(g, psi, u, steps):
    """One sweep sample through the per-trace path (hbar = 1): evolve, efficiency, vdot.

    Returns (eta, bound margin, rate violations, max rate excess); the closed
    form must reproduce these.
    """
    h_matrix = 0.5 * (g + g.conj().T)
    h = ConstantMatrix(h_matrix)
    psi0 = QuantumState.normalized(psi)
    spectral_norm = float(np.max(np.abs(np.linalg.eigvalsh(h_matrix))))
    d0 = energy_statistics(h_matrix, psi0.amplitudes[np.newaxis])[1][0]
    d0 = max(d0, 1e-6 * spectral_norm, 1e-12)
    t_final = u * 0.5 * math.pi / d0
    for _ in range(5):
        trace = evolve(h, psi0, t_final, steps)
        if math.cos(ray_angle(trace.amplitudes[0], trace.amplitudes[-1])) < 1.0 - 1e-9:
            break
        t_final *= 1.3737
    report = efficiency(trace)
    margin = report.avg_dispersion * report.t_effective - 0.5 * report.s0  # <dE>*T - arccos|<A|B>|
    # the same identity per node: q = Im(conj(c) x) against dE |c| sqrt(||psi||^2 - |c|^2)/||psi||
    a = trace.amplitudes[0]
    h_a = h_matrix @ a
    excess = []
    for psi_k, disp in zip(trace.amplitudes, trace.energy_dispersion):
        c, x = np.vdot(a, psi_k), np.vdot(h_a, psi_k)
        q = (c.conjugate() * x).imag
        c2, norm2 = abs(c) ** 2, np.vdot(psi_k, psi_k).real
        excess.append((q * q - disp * disp * c2 * (norm2 - c2) / norm2) / spectral_norm**2)
    return report.eta, margin, int(np.sum(np.array(excess) > RATE_TOL)), max(excess)


def test_bound_margin_is_action_minus_arccos():
    # a report's margin 0.5*(s - s0) is <dE>*T - arccos|<A|B>| at hbar = 1, elementwise
    overlaps = np.array([0.6, 0.0, 0.999])
    a = np.tile([1.0, 0.0], (3, 1))
    b = np.stack([overlaps, np.sqrt(1.0 - overlaps**2)], axis=-1)
    disp = np.array([0.5, 2.0, 0.1])[:, np.newaxis] * np.ones(9)
    report = speed_limit_report(a, b, disp, np.array([2.0, 1.0, 3.0]), 1.0)
    want = [1.0 - math.acos(0.6), 2.0 - math.pi / 2.0, 0.3 - math.acos(0.999)]
    np.testing.assert_allclose(0.5 * (report.s - report.s0), want, rtol=1e-15, atol=1e-15)


def one_ppm_low(energy_statistics):
    """``energy_statistics`` with every dispersion scaled by 1 - 1e-6."""

    def low(h, psis, level=0.0):
        mean, disp = energy_statistics(h, psis, level)
        return mean, disp * (1.0 - 1e-6)

    return low


# Relative errors in eta, each about four times its measured worst case: the closed form
# against a 40-digit expm (1.3e-15), evolve at 2000 steps against it (1.5e-12, at every
# offset up to 1e12), and evolve at 64 steps against the closed form on the sweep's draws
# (6.9e-14 on the first 840 of seed 20240817)
ORACLE_ETA_RTOL = 6e-15
EVOLVE_ORACLE_ETA_RTOL = 6e-12
TRACE_ETA_RTOL = 2.5e-13


class TestClosedForm:
    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e8, 1e12])
    def test_eta_matches_a_40_digit_expm(self, offset):
        # H + c*I moves every ray as H does; T is about 1.3 whatever the offset
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2106)
        for dim in [2, 3, 4, 5, 6] * 3:
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = 0.5 * (g + g.conj().T) + offset * np.eye(dim)  # exactly Hermitian
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            with mp.workdps(40):
                m = mp.matrix(h.tolist()) - offset * mp.eye(dim)  # exact in 40 digits
                a = mp.matrix(psi.tolist())
                a /= mp.norm(a)
                mean = (a.H * m * a)[0].real
                disp = mp.sqrt((a.H * m * m * a)[0].real - mean**2)
                # dE is far above the T floor, 1e-6 max|lam| of h less its offset
                u = 1.3 / (0.5 * math.pi) * float(disp)  # so that T = u*pi/(2*dE) ~ 1.3
                t = u * mp.pi / 2 / disp
                overlap = abs((a.H * mp.expm(-1j * m * t) * a)[0])
                assert overlap < 1 - 1e-6  # no revival stretch
                eta = mp.acos(overlap) / (disp * t)
            got = speedlimit._group_metrics(h[np.newaxis], psi[np.newaxis], np.array([u]), 4)
            assert abs(float(got[0][0] / eta - 1)) <= ORACLE_ETA_RTOL
            trace = evolve(ConstantMatrix(h), QuantumState.normalized(psi), float(t), 2000)
            assert abs(float(efficiency(trace).eta / eta - 1)) <= EVOLVE_ORACLE_ETA_RTOL

    @pytest.mark.parametrize("offset", [1e4, 1e8, 1e12])
    def test_an_energy_offset_moves_no_sample(self, offset, monkeypatch):
        # g + c*I against g itself, where g is the draw with c taken back out:
        # that subtraction is exact, so the two differ by c*I alone.  Scaled
        # by max|lam + shift|, the T floor bound at c = 1e8 and eta moved by
        # up to 3.97x on these draws; scaled by max|lam|, it moves by 2.1e-15
        rng = np.random.default_rng(5)
        g = rng.normal(size=(20, 5, 5)) + 1j * rng.normal(size=(20, 5, 5)) + offset * np.eye(5)
        psi = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
        u = rng.uniform(0.3, 2.5, size=20)
        got = speedlimit._group_metrics(g, psi, u, 64)
        want = speedlimit._group_metrics(g - offset * np.eye(5), psi, u, 64)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-14, atol=0)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-14)
        np.testing.assert_array_equal(got[2], want[2])
        # and the rate check keeps its units: on the offset geodesic, a
        # dispersion 1e-6 low flags every node but t = 0, as without the offset
        args = (
            np.array([PAULI_X + offset * np.eye(2)]),
            np.array([[1.0, 0.0]], dtype=complex),
            np.array([0.9]),
            256,
        )
        assert speedlimit._group_metrics(*args)[2][0] == 0
        monkeypatch.setattr(speedlimit, "energy_statistics", one_ppm_low(energy_statistics))
        assert speedlimit._group_metrics(*args)[2][0] == 256

    @pytest.mark.parametrize("dim", [2, 5])
    def test_survival_amplitudes_are_the_kernel_overlaps(self, dim):
        # c = <A|psi_k> and x = <A|H|psi_k> at the nodes that evolve's kernel fills
        rng = np.random.default_rng(dim)
        g = rng.normal(size=(6, dim, dim)) + 1j * rng.normal(size=(6, dim, dim))
        h = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
        a = rng.normal(size=(6, dim)) + 1j * rng.normal(size=(6, dim))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        dt = rng.uniform(0.01, 0.05, size=6)
        nodes = np.array([propagation.constant_nodes(*args, 65, 1.0)[0] for args in zip(h, a, dt)])
        lam, vec = np.linalg.eigh(h)
        p = np.abs(np.einsum("bji,bj->bi", vec.conj(), a)) ** 2
        c, x = speedlimit._survival(lam, p, np.arange(65) * dt[:, np.newaxis])
        np.testing.assert_allclose(c, np.einsum("bi,bki->bk", a.conj(), nodes), atol=1e-13)
        h_a = np.einsum("bij,bj->bi", h, a)
        np.testing.assert_allclose(x, np.einsum("bi,bki->bk", h_a.conj(), nodes), atol=1e-13)


# (argument, value) pairs that run_sweep refuses by the argument's name
BAD_COUNTS = [
    ("samples", 2.5),
    ("samples", True),
    ("samples", 3.0),
    ("samples", "3"),
    ("seed", True),
    ("seed", 1.0),
    ("dims", (2.5, 4)),
    ("dims", (2, 4.0)),
    ("dims", (True, 4)),
    ("dims", (2,)),
    ("dims", (2, 3, 4)),
    ("dims", (5, 3)),
    ("dims", 4),
    ("steps", True),
]


def assert_documented_draws(seed, chunks, dims):
    """``_draw_chunk`` gives, bit for bit, the first ``chunks`` chunks of ``reference_draws``."""
    want = reference_draws(seed, chunks * speedlimit.SWEEP_CHUNK, dims)
    for k in range(chunks):
        sizes, u, draws = speedlimit._draw_chunk(seed, k, dims)
        seen = dict.fromkeys(draws, 0)
        for i, dim in enumerate(sizes.tolist()):
            want_dim, want_g, want_psi, want_u = want[k * speedlimit.SWEEP_CHUNK + i]
            g, psi = (part[seen[dim]] for part in draws[dim])
            seen[dim] += 1
            assert (dim, u[i]) == (want_dim, want_u)
            assert g.tobytes() == want_g.tobytes()
            assert psi.tobytes() == want_psi.tobytes()
        assert sorted(seen) == list(range(dims[0], dims[1] + 1))


def refuse_draws(monkeypatch):
    """Fail the test on any sweep draw or generator construction."""
    monkeypatch.setattr(speedlimit, "_draw_chunk", lambda *args: pytest.fail("drew"))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("seeded"))


class TestSweep:
    def test_runs_at_hbar_one(self):
        assert "hbar" not in inspect.signature(run_sweep).parameters

    def test_small_sweep_is_clean(self):
        res = run_sweep(samples=40, seed=4242, steps=48)
        assert res.total_violations == 0
        assert res.eta_violations == 0
        assert res.bound_violations == 0
        assert res.rate_violations == 0
        assert 0.0 < res.eta_min <= res.eta_max <= 1.0 + 1e-9
        assert res.min_bound_margin >= -1e-9

    def test_reproducible(self):
        a = run_sweep(samples=20, seed=99, steps=32)
        b = run_sweep(samples=20, seed=99, steps=32)
        assert a == b

    def test_draws_are_the_documented_stream(self):
        assert_documented_draws(20240817, 2, (2, 8))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 12345])
    def test_chunk_streams_are_numpys_spawned_children(self, seed):
        # seeds that take one to five 32-bit words, three chunks each
        assert_documented_draws(seed, 3, (3, 5))

    @pytest.mark.parametrize("seed, chunk", [(5, 1), (7, 3), (2**32 - 1, 2)])
    def test_no_two_seed_and_chunk_pairs_share_a_stream(self, seed, chunk):
        # numpy pads short entropy with zero words, so default_rng([seed, chunk])
        # is default_rng([seed + chunk * 2**32, 0]): chunk 0 of another seed
        other = seed + chunk * 2**32
        assert not np.any(
            speedlimit._draw_chunk(seed, chunk, (2, 8))[1]
            == speedlimit._draw_chunk(other, 0, (2, 8))[1]
        )
        size = speedlimit.SWEEP_CHUNK
        rows = speedlimit._sample_metrics(seed, (chunk + 1) * size, (2, 8), 16)[chunk * size :]
        assert not np.any(rows[:, 0] == speedlimit._sample_metrics(other, size, (2, 8), 16)[:, 0])

    def test_sample_rows_depend_only_on_their_chunk(self, monkeypatch):
        # every chunk is drawn in full, so `samples` only drops rows; a one-byte
        # cap checks two nodes per block, and 1 GiB all of them at once
        default_cap = speedlimit.SWEEP_BLOCK_BYTES
        for chunk in (7, 512):  # 300 and 1000 end mid-chunk for both
            monkeypatch.setattr(speedlimit, "SWEEP_CHUNK", chunk)
            monkeypatch.setattr(speedlimit, "SWEEP_BLOCK_BYTES", default_cap)
            want = speedlimit._sample_metrics(7, 1000, (2, 8), 32)
            for cap in (1, default_cap, 1 << 30):
                monkeypatch.setattr(speedlimit, "SWEEP_BLOCK_BYTES", cap)
                np.testing.assert_array_equal(
                    speedlimit._sample_metrics(7, 300, (2, 8), 32), want[:300]
                )
                assert run_sweep(samples=300, seed=7, steps=32) == run_sweep(
                    samples=300, seed=7, steps=32
                )

    def test_a_row_is_its_sample_alone(self):
        # a sample's row does not depend on the other samples of its dimension group
        rows = speedlimit._sample_metrics(99, 512, (2, 8), 64)
        sizes, u, draws = speedlimit._draw_chunk(99, 0, (2, 8))
        for dim, (g, psi) in draws.items():
            index = np.flatnonzero(sizes == dim)
            for j in range(0, index.size, 10):
                one = slice(j, j + 1)
                alone = speedlimit._group_metrics(g[one], psi[one], u[index[one]], 64)
                np.testing.assert_array_equal(np.column_stack(alone)[0], rows[index[j]])

    def test_default_sweep_makes_one_pass_per_dimension_and_chunk(self, monkeypatch):
        calls, real = [], speedlimit._group_metrics

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(speedlimit, "_group_metrics", counting)
        run_sweep(samples=1000, seed=12345, dims=(2, 8), steps=64)
        assert sum(calls) == 1000
        assert len(calls) <= 14  # 56 passes with 128-sample chunks

    def test_long_sweep_peak_allocation_is_capped(self):
        tracemalloc.start()
        try:
            run_sweep(samples=32, seed=1, steps=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20  # 38 MiB with each dimension group of the chunk held whole

    def test_sweep_hamiltonians_are_exactly_hermitian(self, monkeypatch):
        # the sweep does not check the stacks it builds as (g + g^dagger)/2 and
        # shifts by Re tr h/d; eigh reads one triangle of each shifted stack,
        # so each must equal its adjoint bit for bit, as it does on acceptance
        # check 4's draws
        stacks, real = [], speedlimit.without_level

        def recording(h, level):
            stacks.append(real(h, level))
            return stacks[-1].copy()

        monkeypatch.setattr(speedlimit, "without_level", recording)
        run_sweep(samples=1000, seed=20240817, dims=(2, 8), steps=64)
        assert sum(len(h) for h in stacks) == 1000
        for h in stacks:
            assert np.all(np.isfinite(h))
            np.testing.assert_array_equal(h, np.swapaxes(h.conj(), -1, -2))
            np.testing.assert_allclose(np.trace(h, axis1=-2, axis2=-1), 0.0, atol=1e-14)

    def test_closed_form_matches_the_per_trace_path(self):
        # evolve + efficiency + a per-node vdot on 240 of the sweep's draws
        got = speedlimit._sample_metrics(20240817, 240, (2, 8), 64)
        draws = reference_draws(20240817, 240, (2, 8))
        want = np.array([reference_sample(g, psi, u, 64) for _, g, psi, u in draws])
        assert np.max(np.abs(got[:, 0] / want[:, 0] - 1.0)) <= TRACE_ETA_RTOL
        assert np.max(np.abs(got[:, 1] - want[:, 1])) <= 1e-9
        np.testing.assert_array_equal(got[:, 2], want[:, 2])
        # normalised squared excesses of order eps, which the two paths round differently
        assert np.max(np.abs(got[:, 3] - want[:, 3])) <= 8 * np.finfo(float).eps

    def test_odd_steps_match_the_per_trace_path_with_no_tail(self):
        # the closed form takes no quadrature, so an even node count has no
        # trapezoid tail to warn of; the per-trace path still warns
        draws = reference_draws(31, 20, (2, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = speedlimit._sample_metrics(31, 20, (2, 5), 33)
            assert run_sweep(samples=5, seed=3, steps=33).total_violations == 0
        with pytest.warns(UserWarning, match="even node count"):
            want = np.array([reference_sample(g, psi, u, 33) for _, g, psi, u in draws])
        assert np.max(np.abs(got[:, 0] / want[:, 0] - 1.0)) <= TRACE_ETA_RTOL
        assert np.max(np.abs(got[:, 1] - want[:, 1])) <= 1e-9
        np.testing.assert_array_equal(got[:, 2], want[:, 2])

    def test_revival_retry_moves_only_the_stuck_sample(self):
        # sample 0 is |0> under sigma_x for u*pi/(2 dE) = pi: |<0|psi(pi)>| = |cos(pi)| = 1
        h = np.array(
            [PAULI_X, [[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -0.7]], [[1.0, 0.2j], [-0.2j, 0.4]]]
        )
        psi0 = np.array([[1.0, 0.0], [0.6, 0.8j], [0.8, -0.6]], dtype=complex)
        u = np.array([2.0, 1.0, 1.0])
        metrics = speedlimit._group_metrics(h, psi0, u, 64)
        rest = speedlimit._group_metrics(h[1:], psi0[1:], u[1:], 64)
        stuck = speedlimit._group_metrics(h[:1], psi0[:1], u[:1], 64)
        for got, want_rest, want_stuck in zip(metrics, rest, stuck):
            np.testing.assert_array_equal(got[1:], want_rest)
            np.testing.assert_array_equal(got[:1], want_stuck)
        # it ran once stretched, for T = 1.3737*pi, with dE = 1
        t = math.pi * 1.3737
        theta = math.atan2(abs(math.sin(t)), abs(math.cos(t)))
        assert metrics[0][0] == pytest.approx(theta / t, rel=1e-14)
        assert metrics[1][0] == pytest.approx(t - theta, rel=1e-14)
        trace = evolve(ConstantMatrix(PAULI_X), QuantumState(psi0[0]), t, 64)
        assert efficiency(trace).eta == pytest.approx(metrics[0][0], rel=TRACE_ETA_RTOL)

    def test_a_state_that_never_leaves_its_ray_is_refused(self):
        # an eigenstate: |c(T)| = 1 through all four stretches
        args = (np.array([PAULI_Z]), np.array([[1.0, 0.0]], dtype=complex), np.array([1.0]), 8)
        with pytest.raises(DegenerateEndpointsError, match="within 1e-12 of 1"):
            speedlimit._group_metrics(*args)

    @pytest.mark.parametrize("u, steps", [(0.5, 64), (0.9, 256), (0.3, 1000)])
    def test_rate_equals_its_bound_on_the_geodesic(self, u, steps, monkeypatch):
        # |0> under sigma_x: |c|^2 = cos^2(t), whose rate -sin(2t) has the
        # modulus of the bound 2*dE*|cos t||sin t| with dE = 1 at every node
        args = (np.array([PAULI_X]), np.array([[1.0, 0.0]], dtype=complex), np.array([u]), steps)
        metrics = speedlimit._group_metrics(*args)
        assert metrics[2][0] == 0
        assert 0.0 <= metrics[3][0] <= np.finfo(float).eps
        # the bound is tight: 1e-6 off the dispersion flags every node but t = 0
        monkeypatch.setattr(speedlimit, "energy_statistics", one_ppm_low(energy_statistics))
        assert speedlimit._group_metrics(*args)[2][0] == steps

    def test_rate_check_flags_dispersions_one_ppm_low(self, monkeypatch):
        # acceptance check 4's draws with every dispersion scaled by 1 - 1e-6
        monkeypatch.setattr(speedlimit, "energy_statistics", one_ppm_low(energy_statistics))
        res = run_sweep(samples=1000, seed=20240817, dims=(2, 8), steps=64)
        assert res.rate_violations > 0

    def test_long_clean_sweep_has_no_rate_violations(self):
        # 100k steps: the rate check must stay exact at every node of a long run
        res = run_sweep(samples=10, seed=7, dims=(2, 2), steps=100_000)
        assert res.rate_violations == 0
        assert res.max_rate_excess <= RATE_TOL

    @pytest.mark.parametrize("steps", [1, 0, -4, 2.5, "64", None])
    def test_steps_validated_before_any_draw(self, monkeypatch, steps):
        refuse_draws(monkeypatch)
        with pytest.raises(ValueError, match="^steps must be an integer >= 2"):
            run_sweep(samples=3, steps=steps)

    def test_different_seeds_differ(self):
        a = run_sweep(samples=10, seed=1, steps=32)
        b = run_sweep(samples=10, seed=2, steps=32)
        assert a.eta_min != b.eta_min

    def test_json_layout(self):
        doc = run_sweep(samples=5, seed=3, steps=32).to_json()
        assert doc["samples"] == 5
        assert doc["seed"] == 3
        assert doc["total_violations"] == 0
        assert set(doc) >= {
            "eta_min",
            "eta_max",
            "eta_violations",
            "bound_violations",
            "rate_violations",
            "min_bound_margin",
            "max_rate_excess",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(samples=0)
        with pytest.raises(ValueError):
            run_sweep(samples=5, dims=(1, 4))

    @pytest.mark.parametrize(
        "name, value",
        BAD_COUNTS,
        ids=[f"{name}={value!r}" for name, value in BAD_COUNTS],
    )
    def test_non_integer_counts_refused_by_name_before_any_draw(self, monkeypatch, name, value):
        refuse_draws(monkeypatch)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run_sweep(**{"samples": 3, name: value})

    def test_numpy_integer_counts_are_accepted(self):
        res = run_sweep(
            samples=np.int64(3), seed=np.uint32(5), dims=(np.int8(2), 3), steps=np.int64(8)
        )
        assert res == run_sweep(samples=3, seed=5, dims=(2, 3), steps=8)

    def test_total_violations_property(self):
        res = SweepResult(
            samples=3,
            seed=0,
            eta_min=0.5,
            eta_max=1.0,
            eta_violations=1,
            bound_violations=2,
            rate_violations=3,
            min_bound_margin=-0.1,
            max_rate_excess=0.2,
        )
        assert res.total_violations == 6


class TestSiConstants:
    def test_codata_values(self):
        assert ELEMENTARY_CHARGE == 1.602176634e-19
        assert ELECTRON_MASS == 9.1093837015e-31
        assert HBAR_SI == 1.054571817e-34

    def test_larmor_is_twice_rabi(self):
        b = 0.37
        assert larmor_angular_frequency(b) == pytest.approx(
            2.0 * rabi_angular_frequency(b)
        )

    def test_larmor_frequency_at_one_tesla(self):
        nu = larmor_frequency_hz(1.0)
        assert 27.5e9 < nu < 28.5e9

    def test_frequency_is_linear_in_field(self):
        assert larmor_frequency_hz(2.0) == pytest.approx(2.0 * larmor_frequency_hz(1.0))
