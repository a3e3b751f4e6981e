import math

import numpy as np
import pytest

from qgeo.errors import DegenerateEndpointsError, FormulaError, GridError
from qgeo.geometry import SpeedLimitReport, efficiency, speed_limit_report
from qgeo.hamiltonian import ConstantMatrix, TwoLevelDriven, TwoLevelStatic, energy_statistics
from qgeo.propagation import EvolutionTrace, evolve
from qgeo.speedlimit import min_time
from qgeo.states import QuantumState, ray_angle

UP = QuantumState.exact([1.0, 0.0])
DOWN = QuantumState.exact([0.0, 1.0])

EPS, OMEGA, OMEGA0 = 1.0, 0.25, 0.2


def static_trace(steps=1000, epsilon=1.0, fraction=1.0):
    h = TwoLevelStatic(epsilon=epsilon)
    return evolve(h, UP, fraction * h.orthogonality_time, steps=steps)


def driven_trace(steps=1000):
    h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
    return evolve(h, UP, h.orthogonality_time, steps=steps)


def endpoint_report(b, steps=8):
    """Report of a unit-dispersion path of unit duration from UP to ``b``."""
    return speed_limit_report(UP.amplitudes, b, np.ones(steps + 1), 1.0, 1.0)


class TestGeodesicDistance:
    def test_orthogonal_endpoints(self):
        assert endpoint_report(DOWN.amplitudes).s0 == pytest.approx(math.pi)

    def test_coincident_endpoints(self):
        with pytest.raises(DegenerateEndpointsError):
            endpoint_report(1j * UP.amplitudes)

    def test_half_overlap(self):
        b = np.array([0.5, math.sqrt(3.0) / 2.0])
        assert endpoint_report(b).s0 == pytest.approx(2.0 * math.pi / 3.0)

    def test_depends_only_on_endpoints(self):
        d1 = efficiency(static_trace(steps=100)).s0
        d2 = efficiency(static_trace(steps=800)).s0
        assert d1 == pytest.approx(d2, abs=1e-12)


class TestPathLength:
    def test_static_scenario_gives_pi(self):
        assert efficiency(static_trace()).s == pytest.approx(math.pi, abs=1e-10)

    def test_driven_scenario_grid_refinement(self):
        # two grids an octave apart must agree: the integrand is smooth and
        # Simpson converges as dt^4
        s_coarse = efficiency(driven_trace(steps=1000)).s
        s_fine = efficiency(driven_trace(steps=2000)).s
        assert abs(s_coarse - s_fine) < 1e-8
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        far = QuantumState.normalized([0.5 * h.detuning / h.kappa, EPS / h.kappa])
        assert s_fine > 2.0 * ray_angle(UP.amplitudes, far.amplitudes)

    def test_two_node_trace_rejected(self):
        tr = EvolutionTrace(
            times=np.array([0.0, 1.0]),
            amplitudes=np.array([UP.amplitudes, DOWN.amplitudes]),
            energy_mean=np.zeros(2),
            energy_dispersion=np.ones(2),
        )
        with pytest.raises(GridError):
            efficiency(tr)

    def test_non_uniform_grid_rejected(self):
        tr = EvolutionTrace(
            times=np.array([0.0, 0.4, 1.0]),
            amplitudes=np.array([UP.amplitudes, DOWN.amplitudes, UP.amplitudes]),
            energy_mean=np.zeros(3),
            energy_dispersion=np.ones(3),
        )
        with pytest.raises(GridError):
            efficiency(tr)

    def test_zero_duration_trace(self):
        tr = evolve(TwoLevelStatic(epsilon=1.0), UP, 0.0, steps=10)  # a single node
        with pytest.raises(GridError):
            efficiency(tr)

    def test_even_node_count_warns_at_the_caller(self):
        tr = evolve(TwoLevelStatic(epsilon=1.0), UP, 1.0, steps=9)  # 10 nodes
        with pytest.warns(UserWarning, match="trapezoid") as record:
            efficiency(tr)
        assert record[0].filename == __file__

    def test_constant_dispersion_product_rule(self):
        # for constant dE the length is exactly 2*dE*T/hbar
        rng = np.random.default_rng(61)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = ConstantMatrix(0.5 * (g + g.conj().T))
        psi0 = QuantumState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        t_final = 1.3
        tr = evolve(h, psi0, t_final, steps=64)
        d = energy_statistics(h.matrix, psi0.amplitudes[np.newaxis])[1][0]
        assert efficiency(tr).s == pytest.approx(2.0 * d * t_final, rel=1e-12)

    def test_additive_under_concatenation(self):
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        full = evolve(h, UP, 1.5, steps=96)

        def sub(lo, hi):
            return EvolutionTrace(
                times=full.times[lo : hi + 1],
                amplitudes=full.amplitudes[lo : hi + 1],
                energy_mean=full.energy_mean[lo : hi + 1],
                energy_dispersion=full.energy_dispersion[lo : hi + 1],
                hbar=full.hbar,
            )

        s_total = efficiency(full).s
        s_parts = efficiency(sub(0, 64)).s + efficiency(sub(64, 96)).s
        assert s_total == pytest.approx(s_parts, abs=1e-10)


class TestEfficiency:
    def test_static_scenario_is_maximally_efficient(self):
        rep = efficiency(static_trace())
        assert rep.eta == pytest.approx(1.0, abs=1e-9)
        assert rep.bound_satisfied
        assert rep.s0 == pytest.approx(math.pi, abs=1e-9)

    def test_driven_scenario_loses_efficiency(self):
        rep = efficiency(driven_trace())
        assert rep.eta < 1.0
        assert rep.bound_satisfied
        assert rep.s > rep.s0

    def test_report_fields_are_consistent(self):
        rep = efficiency(driven_trace(steps=500))
        assert rep.eta == pytest.approx(rep.s0 / rep.s, rel=1e-12)
        assert rep.avg_dispersion == pytest.approx(
            0.5 * rep.s / rep.t_effective, rel=1e-12
        )
        assert rep.t_ideal <= rep.t_effective + 1e-12

    def test_backtracking_costs_length(self):
        # follow the geodesic to the orthogonal state, then retrace half of
        # it: s = 3/2 * pi while s0 = pi/2, so eta = 1/3
        forward = static_trace(steps=64)
        n = forward.n_nodes  # 65
        idx = list(range(n)) + list(range(n - 2, n // 2 - 1, -1))
        dt = forward.grid_spacing()
        times = dt * np.arange(len(idx))
        tr = EvolutionTrace(
            times=times,
            amplitudes=forward.amplitudes[idx],
            energy_mean=forward.energy_mean[idx],
            energy_dispersion=forward.energy_dispersion[idx],
            hbar=forward.hbar,
        )
        rep = efficiency(tr)
        assert rep.eta == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert rep.eta < 1.0
        assert rep.bound_satisfied

    def test_close_endpoint_geodesic_satisfies_the_bound(self):
        # arccos of an overlap 1e-10 below 1 read this geodesic as eta = 1.0000505
        h = ConstantMatrix(0.7 * np.array([[0.0, -1j], [1j, 0.0]]))
        rep = efficiency(evolve(h, UP, min_time(1.0 - 1e-10, 0.7), steps=200))
        assert rep.bound_satisfied
        assert abs(rep.eta - 1.0) <= 1e-12

    def test_degenerate_endpoints_rejected(self):
        h = TwoLevelStatic(epsilon=1.0)
        cyclic = evolve(h, UP, 2.0 * math.pi, steps=512)  # full revival
        with pytest.raises(DegenerateEndpointsError):
            efficiency(cyclic)

    def test_random_ensemble_never_beats_unity(self):
        rng = np.random.default_rng(314)
        checked = 0
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = ConstantMatrix(0.5 * (g + g.conj().T))
            psi0 = QuantumState.normalized(
                rng.normal(size=dim) + 1j * rng.normal(size=dim)
            )
            tr = evolve(h, psi0, float(rng.uniform(0.2, 2.0)), steps=32)
            if math.cos(ray_angle(tr.amplitudes[0], tr.amplitudes[-1])) > 1.0 - 1e-9:
                continue
            rep = efficiency(tr)
            assert rep.eta <= 1.0 + 1e-9
            assert rep.bound_satisfied
            checked += 1
        assert checked >= 40  # the filter must not eat the ensemble


class TestSpeedLimitReportKernel:
    """The efficiency kernel shared by ``efficiency`` and the batched sweep."""

    def stack(self):
        traces = [static_trace(64), driven_trace(64), static_trace(64, fraction=0.6)]
        a, b = (np.array([t.amplitudes[k] for t in traces]) for k in (0, -1))
        disp = np.array([t.energy_dispersion for t in traces])
        return traces, a, b, disp, np.array([t.duration for t in traces])

    def test_stack_rows_match_one_trace_reports(self):
        traces, a, b, disp, durations = self.stack()
        stacked = speed_limit_report(a, b, disp, durations, 1.0)
        for k, trace in enumerate(traces):
            one = efficiency(trace)
            assert isinstance(one.eta, float) and isinstance(one.bound_satisfied, bool)
            for name, value in one.to_json().items():
                assert getattr(stacked, name)[k] == pytest.approx(value, rel=1e-14, abs=1e-300)

    def test_leg_guard_trips_on_a_shifted_angle(self, monkeypatch):
        _, a, b, disp, durations = self.stack()
        arctan2 = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda y, x: arctan2(y, x) + 1e-6)
        with pytest.raises(FormulaError, match="contradicts its legs"):
            speed_limit_report(a, b, disp, durations, 1.0)

    def test_infinite_path_length_rejected(self):
        tr = static_trace(64)
        huge = EvolutionTrace(tr.times, tr.amplitudes, tr.energy_mean, np.full(65, 1e300), 1e-10)
        with np.errstate(over="ignore", invalid="ignore"):  # 2*dE/hbar overflows to inf
            with pytest.raises(FormulaError, match="is not positive and finite"):
                efficiency(huge)


class TestSpeedLimitReportSerialization:
    def test_round_trip(self):
        rep = efficiency(driven_trace(steps=200))
        back = SpeedLimitReport.from_json(rep.to_json())
        assert back == rep

    def test_json_fields(self):
        doc = efficiency(static_trace(steps=100)).to_json()
        assert set(doc) == {
            "s0",
            "s",
            "eta",
            "t_effective",
            "t_ideal",
            "avg_dispersion",
            "bound_satisfied",
            "quadrature_error",
        }
        assert isinstance(doc["bound_satisfied"], bool)


class TestGeodesicGap:
    """``s - s0 <= 1e-6`` on the report, the geodesic test of acceptance check 1."""

    def test_static_scenario(self):
        rep = efficiency(static_trace())
        assert rep.s - rep.s0 <= 1e-6

    def test_detuned_drive_is_not(self):
        rep = efficiency(driven_trace())
        assert rep.s - rep.s0 > 1e-6

    def test_resonant_drive_follows_the_lab_frame_law(self):
        # at resonance dE^2 = eps^2 + (hbar w0/2)^2 sin^2(2 eps t/hbar) > eps^2,
        # so the Bloch path is a spiral, longer than the geodesic
        h = TwoLevelDriven(epsilon=1.0, omega=0.2, omega0=0.2)
        tr = evolve(h, UP, h.orthogonality_time, steps=1000)
        law = np.sqrt(1.0 + 0.1**2 * np.sin(2.0 * tr.times) ** 2)
        np.testing.assert_allclose(tr.energy_dispersion, law, rtol=0.0, atol=1e-13)
        rep = efficiency(tr)
        assert rep.s - rep.s0 > 1e-6

    def test_resonant_drive_recovers_geodesic(self):
        # the excess s - pi = (pi/16) (hbar w0/eps)^2 + O(w0^4) vanishes as w0 -> 0
        h = TwoLevelDriven(epsilon=1.0, omega=1e-3, omega0=1e-3)
        rep = efficiency(evolve(h, UP, h.orthogonality_time, steps=1000))
        assert rep.s - math.pi == pytest.approx(math.pi / 16.0 * 1e-6, rel=1e-3)
        assert rep.s - rep.s0 <= 1e-6
