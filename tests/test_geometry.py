import math

import numpy as np
import pytest

from qgeo.errors import DegenerateEndpointsError, FormulaError, GridError, NormalizationError
from qgeo.geometry import (
    SpeedLimitReport,
    _require_arc_routes_agree,
    efficiency,
    geodesic_distance,
    is_geodesic,
    path_length,
    speed_limit_report,
)
from qgeo.hamiltonian import (
    ConstantMatrix,
    TwoLevelDriven,
    TwoLevelStatic,
    energy_dispersion,
)
from qgeo.propagation import EvolutionTrace, evolve
from qgeo.states import QuantumState, overlap_modulus

UP = QuantumState.exact([1.0, 0.0])
DOWN = QuantumState.exact([0.0, 1.0])

EPS, OMEGA, OMEGA0 = 1.0, 0.25, 0.2


def static_trace(steps=1000, epsilon=1.0, fraction=1.0):
    h = TwoLevelStatic(epsilon=epsilon)
    return evolve(h, UP, fraction * h.orthogonality_time, steps=steps)


def driven_trace(steps=1000):
    h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
    return evolve(h, UP, h.orthogonality_time, steps=steps)


class TestGeodesicDistance:
    def test_orthogonal_endpoints(self):
        assert geodesic_distance(UP, DOWN) == pytest.approx(math.pi)

    def test_coincident_endpoints(self):
        assert geodesic_distance(UP, UP) == 0.0

    def test_half_overlap(self):
        b = QuantumState.exact([0.5, math.sqrt(3.0) / 2.0])
        assert geodesic_distance(UP, b) == pytest.approx(2.0 * math.pi / 3.0)

    def test_depends_only_on_endpoints(self):
        coarse = static_trace(steps=100)
        fine = static_trace(steps=800)
        d1 = geodesic_distance(coarse.initial_state, coarse.final_state)
        d2 = geodesic_distance(fine.initial_state, fine.final_state)
        assert d1 == pytest.approx(d2, abs=1e-12)


class TestPathLength:
    def test_static_scenario_gives_pi(self):
        assert path_length(static_trace()) == pytest.approx(math.pi, abs=1e-10)

    def test_zero_duration_trace(self):
        h = TwoLevelStatic(epsilon=1.0)
        tr = evolve(h, UP, 0.0, steps=10)
        assert path_length(tr) == 0.0

    def test_driven_scenario_grid_refinement(self):
        # two grids an octave apart must agree: the integrand is smooth and
        # Simpson converges as dt^4
        s_coarse = path_length(driven_trace(steps=1000))
        s_fine = path_length(driven_trace(steps=2000))
        assert abs(s_coarse - s_fine) < 1e-8
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        assert s_fine > geodesic_distance(UP, QuantumState.normalized(
            [0.5 * h.detuning / h.kappa, EPS / h.kappa]))

    def test_two_node_trace_rejected(self):
        tr = EvolutionTrace(
            times=np.array([0.0, 1.0]),
            amplitudes=np.array([UP.amplitudes, DOWN.amplitudes]),
            energy_mean=np.zeros(2),
            energy_dispersion=np.ones(2),
        )
        with pytest.raises(GridError):
            path_length(tr)

    def test_non_uniform_grid_rejected(self):
        tr = EvolutionTrace(
            times=np.array([0.0, 0.4, 1.0]),
            amplitudes=np.array([UP.amplitudes, DOWN.amplitudes, UP.amplitudes]),
            energy_mean=np.zeros(3),
            energy_dispersion=np.ones(3),
        )
        with pytest.raises(GridError):
            path_length(tr)

    def test_even_node_count_warns(self):
        h = TwoLevelStatic(epsilon=1.0)
        tr = evolve(h, UP, 1.0, steps=9)  # 10 nodes
        with pytest.warns(UserWarning, match="trapezoid"):
            path_length(tr)

    def test_constant_dispersion_product_rule(self):
        # for constant dE the length is exactly 2*dE*T/hbar
        rng = np.random.default_rng(61)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = ConstantMatrix(0.5 * (g + g.conj().T))
        psi0 = QuantumState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        t_final = 1.3
        tr = evolve(h, psi0, t_final, steps=64)
        d = energy_dispersion(h, psi0)
        assert path_length(tr) == pytest.approx(2.0 * d * t_final, rel=1e-12)

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

        s_total = path_length(full)
        s_parts = path_length(sub(0, 64)) + path_length(sub(64, 96))
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
            if overlap_modulus(tr.initial_state, tr.final_state) > 1.0 - 1e-9:
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
        overlaps = np.array([abs(np.vdot(t.amplitudes[0], t.amplitudes[-1])) for t in traces])
        disp = np.array([t.energy_dispersion for t in traces])
        return traces, overlaps, disp, np.array([t.duration for t in traces])

    def test_stack_rows_match_one_trace_reports(self):
        traces, overlaps, disp, durations = self.stack()
        stacked = speed_limit_report(overlaps, disp, durations, 1.0)
        for k, trace in enumerate(traces):
            one = efficiency(trace)
            assert isinstance(one.eta, float) and isinstance(one.bound_satisfied, bool)
            for name, value in one.to_json().items():
                assert getattr(stacked, name)[k] == pytest.approx(value, rel=1e-14, abs=1e-300)

    def test_overlap_beyond_clamp_window_rejected(self):
        _, overlaps, disp, durations = self.stack()
        overlaps[1] = 1.0 + 1e-9
        with pytest.raises(NormalizationError, match="exceeds 1 beyond round-off"):
            speed_limit_report(overlaps, disp, durations, 1.0)

    def test_arc_routes_cross_check_trips_on_a_shifted_angle(self, monkeypatch):
        _, overlaps, disp, durations = self.stack()
        arccos = np.arccos
        monkeypatch.setattr(np, "arccos", lambda x: arccos(x) + 1e-6)
        with pytest.raises(FormulaError, match="arccos and arcsin routes disagree"):
            speed_limit_report(overlaps, disp, durations, 1.0)

    def test_arc_routes_cross_check_trips_at_every_overlap(self):
        grid = np.concatenate(
            ([0.0, 3e-9], np.logspace(-12.0, -5.0, 15), np.linspace(0.0, 1.0, 41))
        )
        for ov in grid:
            comp = math.sqrt(1.0 - ov * ov)
            with pytest.raises(FormulaError, match="arccos and arcsin routes disagree"):
                _require_arc_routes_agree(math.acos(ov) + 1e-6, math.asin(comp), ov, comp)

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


class TestIsGeodesic:
    def test_static_scenario(self):
        assert is_geodesic(static_trace(), tol=1e-6)

    def test_detuned_drive_is_not(self):
        assert not is_geodesic(driven_trace(), tol=1e-6)

    def test_resonant_drive_recovers_geodesic(self):
        h = TwoLevelDriven(epsilon=1.0, omega=0.2, omega0=0.2)
        tr = evolve(h, UP, h.orthogonality_time, steps=1000)
        assert is_geodesic(tr, tol=1e-6)

    def test_tolerance_dial(self):
        tr = driven_trace(steps=500)
        s = path_length(tr)
        s0 = geodesic_distance(tr.initial_state, tr.final_state)
        assert not is_geodesic(tr, tol=0.5 * (s - s0))
        assert is_geodesic(tr, tol=2.0 * (s - s0))
