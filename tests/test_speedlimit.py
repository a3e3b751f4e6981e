import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qgeo import speedlimit
from qgeo.errors import StationaryStateError
from qgeo.geometry import efficiency, path_length
from qgeo.hamiltonian import (
    PAULI_X,
    ConstantMatrix,
    TwoLevelDriven,
    TwoLevelStatic,
    energy_dispersion,
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
    BoundQuery,
    SweepResult,
    min_time,
    run_sweep,
    solve_implicit_time,
)
from qgeo.states import QuantumState, overlap_modulus

UP = QuantumState.exact([1.0, 0.0])
EPS, OMEGA, OMEGA0 = 1.0, 0.25, 0.2


class TestBoundQuery:
    def test_exactly_one_dispersion_kind(self):
        BoundQuery(overlap=0.5, dispersion=1.0)
        BoundQuery(overlap=0.5, avg_dispersion=1.0)
        with pytest.raises(ValueError):
            BoundQuery(overlap=0.5)
        with pytest.raises(ValueError):
            BoundQuery(overlap=0.5, dispersion=1.0, avg_dispersion=1.0)

    def test_overlap_range(self):
        with pytest.raises(ValueError):
            BoundQuery(overlap=1.1, dispersion=1.0)
        with pytest.raises(ValueError):
            BoundQuery(overlap=-0.1, dispersion=1.0)

    def test_effective_dispersion(self):
        assert BoundQuery(overlap=0.0, dispersion=2.0).effective_dispersion == 2.0
        assert BoundQuery(overlap=0.0, avg_dispersion=3.0).effective_dispersion == 3.0


class TestMinTime:
    def test_orthogonal_target(self):
        t = min_time(BoundQuery(overlap=0.0, dispersion=1.0))
        assert t == pytest.approx(math.pi / 2.0)
        # dispersion * time equals a quarter of Planck's constant (h/4)
        assert 1.0 * t == pytest.approx(2.0 * math.pi / 4.0)

    def test_coincident_target(self):
        assert min_time(BoundQuery(overlap=1.0, dispersion=1.0)) == 0.0

    def test_eighth_turn(self):
        q = BoundQuery(overlap=1.0 / math.sqrt(2.0), dispersion=2.0)
        assert min_time(q) == pytest.approx(math.pi / 8.0)

    def test_zero_dispersion_raises(self):
        with pytest.raises(StationaryStateError):
            min_time(BoundQuery(overlap=0.5, dispersion=0.0))

    def test_arccos_arcsin_agreement(self):
        for ov in np.linspace(0.0, 1.0, 101):
            q = BoundQuery(overlap=float(ov), dispersion=1.0)
            t = min_time(q)
            t_sin = math.asin(math.sqrt(1.0 - ov * ov))
            assert abs(t - t_sin) <= 1e-12 * max(t, 1.0)

    def test_near_orthogonal_overlaps_are_accepted(self):
        # a 1e5 cap on the conditioning refused 335 of these, between 1.4e-9 and 5.4e-8
        for ov in np.logspace(-12.0, -5.0, 2000):
            assert min_time(BoundQuery(overlap=float(ov), dispersion=1.0)) == math.acos(ov)

    def test_monotone_in_overlap(self):
        times = [
            min_time(BoundQuery(overlap=float(ov), dispersion=1.0))
            for ov in np.linspace(0.0, 1.0, 50)
        ]
        assert all(b <= a for a, b in zip(times, times[1:]))

    def test_strictly_decreasing_in_dispersion(self):
        times = [
            min_time(BoundQuery(overlap=0.3, dispersion=float(d)))
            for d in np.linspace(0.5, 5.0, 30)
        ]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_hbar_scaling(self):
        t1 = min_time(BoundQuery(overlap=0.2, dispersion=1.0, hbar=1.0))
        t2 = min_time(BoundQuery(overlap=0.2, dispersion=1.0, hbar=3.0))
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

    @pytest.mark.parametrize("quantity", [path_length, efficiency])
    def test_even_node_count_warns(self, quantity):
        tr = evolve(TwoLevelStatic(epsilon=1.0), UP, 1.0, steps=5)  # 6 nodes
        with pytest.warns(UserWarning, match="even node count"):
            quantity(tr)


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
        ov = overlap_modulus(tr.initial_state, tr.final_state)
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
            if overlap_modulus(tr.initial_state, tr.final_state) > 1.0 - 1e-9:
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
        # frequencies and six of hbar, plus a point where T^3 alone overflows
        rng = np.random.default_rng(4242)
        n = 20000
        draws = zip(
            (10.0 ** rng.uniform(-6.0, 6.0, n)).tolist(),
            (10.0 ** rng.uniform(-9.0, 6.0, n)).tolist(),
            (10.0 ** rng.uniform(-9.0, 6.0, n)).tolist(),
            (10.0 ** rng.uniform(-3.0, 3.0, n)).tolist(),
        )
        worst = 0.0
        for eps, omega, omega0, hbar in [*draws, (1e-200, 1e-125, 1e-125, 1.0)]:
            t = solve_implicit_time(eps, omega, omega0, hbar)
            a = short_time_coefficient(omega, omega0)
            target = 0.5 * math.pi * hbar / eps
            assert 0.0 < t <= target  # equal once a*t0^2 is below rounding
            residual = abs(t + a * t * t * t / 3.0 - target) / target
            worst = max(worst, residual)
        assert worst <= 1e-14

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            solve_implicit_time(-1.0, 0.25, 0.2)
        with pytest.raises(ValueError):
            solve_implicit_time(1.0, 0.0, 0.2)


def reference_sample(seed_seq, dims, steps, hbar=1.0):
    """One sweep sample through the per-trace path: evolve, efficiency, vdot.

    Returns (eta, bound margin, rate violations, max rate excess); the batched
    sweep must reproduce these.
    """
    rng = np.random.default_rng(seed_seq)
    dim = int(rng.integers(dims[0], dims[1] + 1))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h_matrix = 0.5 * (g + g.conj().T)
    h = ConstantMatrix(h_matrix, hbar=hbar)
    psi0 = QuantumState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    spectral_norm = float(np.max(np.abs(np.linalg.eigvalsh(h_matrix))))
    d0 = max(energy_dispersion(h, psi0), 1e-6 * spectral_norm, 1e-12)
    t_final = float(rng.uniform(0.3, 2.5)) * 0.5 * math.pi * hbar / d0
    for _ in range(5):
        trace = evolve(h, psi0, t_final, steps)
        if overlap_modulus(trace.initial_state, trace.final_state) < 1.0 - 1e-9:
            break
        t_final *= 1.3737
    report = efficiency(trace)
    margin = speedlimit._bound_margin(
        report.avg_dispersion, report.t_effective, report.s0, hbar
    )
    a = trace.amplitudes[0]
    overlaps_sq = np.abs(np.array([np.vdot(row, a) for row in trace.amplitudes])) ** 2
    dt = trace.grid_spacing()
    rate = np.abs(overlaps_sq[2:] - overlaps_sq[:-2]) / (2.0 * dt)
    ov = np.sqrt(np.clip(overlaps_sq[1:-1], 0.0, 1.0))
    disp = trace.energy_dispersion[1:-1]
    bound = (2.0 * disp / hbar) * ov * np.sqrt(np.clip(1.0 - ov * ov, 0.0, None))
    tol = ((2.0 * spectral_norm / hbar) ** 3) * dt * dt / 6.0 + 1e-12 / dt
    rate_bad = int(np.sum(rate - bound - tol > 0.0))
    return report.eta, margin, rate_bad, float(np.max(rate - bound))


def test_bound_margin_is_action_minus_hbar_arccos():
    # <dE>*T - hbar*arccos|<A|B>| with s0 = 2*arccos|<A|B>|, elementwise
    s0 = 2.0 * np.arccos(np.array([0.6, 0.0, 0.999]))
    got = speedlimit._bound_margin(np.array([0.5, 2.0, 0.1]), np.array([2.0, 1.0, 3.0]), s0, 1.3)
    want = [1.0 - 1.3 * math.acos(0.6), 2.0 - 1.3 * math.pi / 2.0, 0.3 - 1.3 * math.acos(0.999)]
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


class TestSweep:
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

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        children = np.random.SeedSequence(7).spawn(300)
        per_sample, results = [], []
        for chunk in (1, 7, 128):
            monkeypatch.setattr(speedlimit, "SWEEP_CHUNK", chunk)
            per_sample.append(speedlimit._sample_metrics(children, (2, 8), 32, 1.0))
            results.append(run_sweep(samples=300, seed=7, steps=32))
        for got in per_sample[1:]:
            np.testing.assert_array_equal(got, per_sample[0])
        assert results[0] == results[1] == results[2]

    def test_sweep_hamiltonians_are_exactly_hermitian(self, monkeypatch):
        # the sweep does not check the stacks it builds as (g + g^dagger)/2;
        # on acceptance check 4's draws each one equals its adjoint bit for bit
        stacks, real = [], speedlimit._propagate

        def recording(h, *args):
            stacks.append(h)
            return real(h, *args)

        monkeypatch.setattr(speedlimit, "_propagate", recording)
        run_sweep(samples=1000, seed=20240817, dims=(2, 8), steps=64)
        assert sum(len(h) for h in stacks) == 1000
        for h in stacks:
            assert np.all(np.isfinite(h))
            np.testing.assert_array_equal(h, np.swapaxes(h.conj(), -1, -2))

    def test_batched_samples_match_the_per_trace_path(self):
        children = np.random.SeedSequence(20240817).spawn(50)
        got = speedlimit._sample_metrics(children, (2, 8), 64, 1.0)
        want = np.array([reference_sample(c, (2, 8), 64) for c in children])
        assert np.max(np.abs(got[:, 0] - want[:, 0])) <= 1e-11
        assert np.max(np.abs(got[:, 1] - want[:, 1])) <= 1e-9
        np.testing.assert_array_equal(got[:, 2], want[:, 2])
        assert np.max(np.abs(got[:, 3] - want[:, 3])) <= 1e-9

    def test_odd_steps_match_the_per_trace_path_and_warn(self):
        children = np.random.SeedSequence(31).spawn(20)
        with pytest.warns(UserWarning, match="even node count"):
            got = speedlimit._sample_metrics(children, (2, 5), 33, 1.0)
        with pytest.warns(UserWarning, match="even node count"):
            want = np.array([reference_sample(c, (2, 5), 33) for c in children])
        assert np.max(np.abs(got[:, 0] - want[:, 0])) <= 1e-11
        assert np.max(np.abs(got[:, 1] - want[:, 1])) <= 1e-9
        np.testing.assert_array_equal(got[:, 2], want[:, 2])
        with pytest.warns(UserWarning, match="even node count"):
            assert run_sweep(samples=5, seed=3, steps=33).total_violations == 0

    def test_revival_retry_moves_only_the_stuck_sample(self):
        # sample 0 is |0> under sigma_x for t = pi: |<0|psi(pi)>| = |cos(pi)| = 1
        h = np.array(
            [PAULI_X, [[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -0.7]], [[1.0, 0.2j], [-0.2j, 0.4]]]
        )
        psi0 = np.array([[1.0, 0.0], [0.6, 0.8j], [0.8, -0.6]], dtype=complex)
        t0 = np.array([math.pi, 1.1, 2.3])
        t_final, amps = speedlimit._propagate(h, psi0, t0, 64, 1.0)
        assert t_final[0] == math.pi * 1.3737
        assert abs(np.vdot(amps[0, 0], amps[0, -1])) < 1.0 - 1e-9
        _, alone = speedlimit._propagate(h[1:], psi0[1:], t0[1:], 64, 1.0)
        np.testing.assert_array_equal(t_final[1:], t0[1:])
        np.testing.assert_array_equal(amps[1:], alone)
        for k in (1, 2):  # the batched nodes are the evolve nodes
            want = evolve(ConstantMatrix(h[k]), QuantumState(psi0[k]), t0[k], 64)
            np.testing.assert_allclose(amps[k], want.amplitudes, rtol=0.0, atol=1e-12)
        # the same draw through the group pass: u = 2 gives t = pi*hbar/dE0 = pi
        metrics = speedlimit._group_metrics(h, psi0, np.array([2.0, 1.0, 1.0]), 64, 1.0)
        alone = speedlimit._group_metrics(h[1:], psi0[1:], np.array([1.0, 1.0]), 64, 1.0)
        assert 0.0 < metrics[0][0] <= 1.0
        for got, want in zip(metrics, alone):
            np.testing.assert_array_equal(got[1:], want)

    @pytest.mark.parametrize("u, steps", [(0.5, 64), (0.9, 256), (0.3, 1000)])
    def test_rate_excess_on_the_geodesic_is_the_central_difference_error(self, u, steps):
        # |0> under sigma_x: overlap^2 = cos^2(t), whose rate |sin(2t)| equals
        # the bound 2*dE*|cos t||sin t| with dE = 1.  The central difference
        # reads |sin(2t)|*sin(2dt)/(2dt), so the excess is largest at t = dt.
        metrics = speedlimit._group_metrics(
            np.array([PAULI_X]), np.array([[1.0, 0.0]], dtype=complex), np.array([u]), steps, 1.0
        )
        dt = u * 0.5 * math.pi / steps
        assert metrics[2][0] == 0
        want = math.sin(2.0 * dt) * (math.sin(2.0 * dt) / (2.0 * dt) - 1.0)
        assert abs(metrics[3][0] - want) <= 1e-12

    @pytest.mark.parametrize("steps", [1, 0, -4, 2.5, "64", None])
    def test_steps_validated_before_any_draw(self, monkeypatch, steps):
        monkeypatch.setattr(speedlimit, "_draw", lambda *args: pytest.fail("drew"))
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
