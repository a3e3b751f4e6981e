import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import qgeo.hamiltonian as hamiltonian
import qgeo.propagation as propagation
from qgeo.errors import (
    DimensionMismatchError,
    GridError,
    HermiticityError,
    IntegrationError,
    NormalizationError,
)
from qgeo.hamiltonian import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ConstantMatrix,
    TimeDependent,
    TwoLevelDriven,
    TwoLevelStatic,
    energy_dispersion,
    energy_mean,
)
from qgeo.propagation import (
    EvolutionTrace,
    _node_statistics,
    dispersion_driven_closed,
    dispersion_driven_near_resonance,
    dispersion_short_time,
    evolve,
    expm_unitary_step,
    propagator_driven,
    propagator_static,
    short_time_coefficient,
    trace_hamiltonian_from_json,
)
from qgeo.states import QuantumState, overlap_modulus, phase_equivalent

UP = QuantumState.exact([1.0, 0.0])
INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Reference parameters of the driven transfer used throughout: a weak drive
# slightly blue of the splitting.
EPS, OMEGA, OMEGA0 = 1.0, 0.25, 0.2


def lab_frame_hamiltonian(epsilon=EPS, omega=OMEGA, omega0=OMEGA0, hbar=1.0):
    """Rotating transverse drive plus static splitting, as an explicit H(t)."""

    def func(t):
        wt = omega * t
        return (
            epsilon * (math.cos(wt) * PAULI_X + math.sin(wt) * PAULI_Y)
            + 0.5 * hbar * omega0 * PAULI_Z
        )

    return TimeDependent(func, dimension=2, hbar=hbar)


def lab_frame_solution(t, psi0, epsilon=EPS, omega=OMEGA, omega0=OMEGA0, hbar=1.0):
    """Exact solution of the rotating-drive Schrodinger equation.

    Moving to the frame of the drive turns the generator into the constant
    matrix eps*sigma_x - (D/2)*sigma_z; undoing the frame rotation gives

        psi(t) = diag(e^{-i w t/2}, e^{+i w t/2})
                 @ expm(-i t (eps*sigma_x - (D/2)*sigma_z) / hbar) @ psi0.
    """
    detuning = hbar * (omega - omega0)
    gen = epsilon * PAULI_X - 0.5 * detuning * PAULI_Z
    frame = np.diag([np.exp(-0.5j * omega * t), np.exp(+0.5j * omega * t)])
    return frame @ scipy_expm(-1j * t * gen / hbar) @ psi0


class TestPropagatorStatic:
    def test_identity_at_zero(self):
        np.testing.assert_array_equal(propagator_static(1.0, 0.0), np.eye(2))

    def test_quarter_period(self):
        u = propagator_static(1.0, math.pi / 4.0)
        out = u @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, [INV_SQRT2, -1j * INV_SQRT2], atol=1e-15)

    def test_half_period_reaches_orthogonal_state(self):
        u = propagator_static(2.0, math.pi / 4.0, hbar=1.0)
        out = u @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, -1.0j], atol=1e-15)

    def test_unitarity(self):
        for t in np.linspace(0.0, 20.0, 17):
            u = propagator_static(0.7, float(t), hbar=1.3)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_matches_matrix_exponential(self):
        eps, t, hbar = 0.9, 2.3, 1.7
        expected = scipy_expm(-1j * eps * PAULI_X * t / hbar)
        np.testing.assert_allclose(propagator_static(eps, t, hbar), expected, atol=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagator_static(1.0, -0.5)


class TestPropagatorDriven:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(
            propagator_driven(EPS, OMEGA, OMEGA0, 0.0), np.eye(2), atol=1e-15
        )

    def test_transfer_endpoint(self):
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        u = propagator_driven(EPS, OMEGA, OMEGA0, h.orthogonality_time)
        out = u @ np.array([1.0, 0.0])
        expected = [
            -1j * 0.5 * h.detuning / h.kappa,
            -1j * EPS / h.kappa,
        ]
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_zero_detuning_reduces_to_static(self):
        for t in (0.3, 1.7, 4.0):
            u_driven = propagator_driven(0.8, 1.1, 1.1, t)
            u_static = propagator_static(0.8, t)
            np.testing.assert_allclose(u_driven, u_static, atol=1e-14)

    def test_unitarity(self):
        for t in np.linspace(0.0, 30.0, 11):
            u = propagator_driven(EPS, OMEGA, OMEGA0, float(t))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_composition_property(self):
        t1, t2 = 0.8, 2.1
        u1 = propagator_driven(EPS, OMEGA, OMEGA0, t1)
        u2 = propagator_driven(EPS, OMEGA, OMEGA0, t2)
        u12 = propagator_driven(EPS, OMEGA, OMEGA0, t1 + t2)
        np.testing.assert_allclose(u2 @ u1, u12, atol=1e-13)

    def test_is_exponential_of_rotating_frame_generator(self):
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        t = 1.9
        expected = scipy_expm(-1j * h.constant_generator * t)
        np.testing.assert_allclose(
            propagator_driven(EPS, OMEGA, OMEGA0, t), expected, atol=1e-13
        )


class TestExpmStep:
    def test_two_level_matches_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = 0.5 * (g + g.conj().T)
            dt = float(rng.uniform(0.01, 2.0))
            hbar = float(rng.uniform(0.5, 2.0))
            expected = scipy_expm(-1j * m * dt / hbar)
            np.testing.assert_allclose(
                expm_unitary_step(m, dt, hbar), expected, atol=1e-13
            )

    def test_general_dim_matches_scipy(self):
        rng = np.random.default_rng(13)
        for dim in (3, 4, 6, 32):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = 0.5 * (g + g.conj().T)
            expected = scipy_expm(-1j * m * 0.37)
            np.testing.assert_allclose(
                expm_unitary_step(m, 0.37, 1.0), expected, atol=1e-12
            )

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_stack_matches_per_matrix_calls_and_scipy(self, dim):
        rng = np.random.default_rng(15 + dim)
        g = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        stack = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
        stack[2] = 0.0  # the r = 0 branch of the Pauli form at dim 2
        dts = rng.uniform(0.01, 2.0, size=5)
        got = expm_unitary_step(stack, dts, 1.3)
        assert got.shape == (5, dim, dim)
        for m, dt, u in zip(stack, dts, got):
            np.testing.assert_array_equal(u, expm_unitary_step(m, dt, 1.3))
            np.testing.assert_allclose(u, scipy_expm(-1j * m * dt / 1.3), atol=1e-12)
        np.testing.assert_array_equal(got[2], np.eye(dim))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_entries_near_1e200_do_not_overflow(self, dim):
        rng = np.random.default_rng(16 + dim)
        g = rng.normal(size=(4, dim, dim)) + 1j * rng.normal(size=(4, dim, dim))
        stack = 0.5 * (g + np.swapaxes(g.conj(), -1, -2))
        dts = rng.uniform(0.1, 1.0, size=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expm_unitary_step(1e200 * stack, 1e-200 * dts, 1.0)
        for m, dt, u in zip(stack, dts, got):
            np.testing.assert_allclose(u, scipy_expm(-1j * m * dt), atol=1e-12)

    def test_unitary_even_for_large_steps(self):
        rng = np.random.default_rng(14)
        g = rng.normal(size=(5, 5))
        m = 0.5 * (g + g.T) * 40.0
        u = expm_unitary_step(m, 1.0, 1.0)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)

    def test_diagonal_case(self):
        u = expm_unitary_step(np.diag([1.0, -1.0]), math.pi, 1.0)
        np.testing.assert_allclose(u, np.diag([-1.0, -1.0]), atol=1e-14)

    def test_two_level_entries_near_1e200_do_not_overflow(self):
        # the Pauli coefficients used to be squared, which overflows to inf
        h = ConstantMatrix([[0.0, 1e200], [1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = evolve(h, UP, 1e-200, 100)
        np.testing.assert_allclose(np.linalg.norm(tr.amplitudes, axis=1), 1.0, atol=1e-12)
        assert abs(tr.amplitudes[-1, 0]) == pytest.approx(math.cos(0.01 * 100), rel=1e-12)
        assert tr.energy_dispersion[0] == 1e200


class TestEvolutionTraceValidation:
    def make(self, **overrides):
        kwargs = dict(
            times=np.array([0.0, 0.5, 1.0]),
            amplitudes=np.array([UP.amplitudes] * 3),
            energy_mean=np.zeros(3),
            energy_dispersion=np.ones(3),
            hbar=1.0,
        )
        kwargs.update(overrides)
        return EvolutionTrace(**kwargs)

    def test_valid_construction(self):
        tr = self.make()
        assert tr.n_nodes == 3
        assert tr.dim == 2
        assert tr.duration == 1.0

    def test_length_mismatch(self):
        with pytest.raises(GridError):
            self.make(amplitudes=np.array([UP.amplitudes] * 2))

    def test_times_must_increase(self):
        with pytest.raises(GridError):
            self.make(times=np.array([0.0, 1.0, 1.0]))

    def test_negative_dispersion_rejected(self):
        with pytest.raises(ValueError):
            self.make(energy_dispersion=np.array([1.0, -0.1, 1.0]))

    def test_wrong_amplitude_shape_rejected(self):
        with pytest.raises(DimensionMismatchError):
            self.make(amplitudes=UP.amplitudes)  # one vector, not one per node
        with pytest.raises(DimensionMismatchError):
            self.make(amplitudes=np.ones((3, 1)))  # dim 1 is not a state space

    def test_uniformity_helpers(self):
        tr = self.make()
        assert tr.is_uniform()
        assert tr.grid_spacing() == pytest.approx(0.5)
        ragged = self.make(times=np.array([0.0, 0.1, 1.0]))
        assert not ragged.is_uniform()
        with pytest.raises(GridError):
            ragged.grid_spacing()

    @pytest.mark.parametrize("field", ["times", "energy_mean", "energy_dispersion"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_statistics_rejected_by_name(self, field, bad):
        good = {"times": [0.0, 0.5, 1.0], "energy_mean": [0.0] * 3, "energy_dispersion": [1.0] * 3}
        values = np.array(good[field])
        values[1] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            self.make(**{field: values})

    def test_off_norm_row_rejected(self):
        amps = np.array([UP.amplitudes] * 3)
        amps[1] *= 1.0 + 1e-8  # beyond MAX_NORM_DRIFT, within the old 1e-6 gate
        with pytest.raises(NormalizationError):
            self.make(amplitudes=amps)

    def test_arrays_read_only(self):
        tr = self.make()
        with pytest.raises(ValueError):
            tr.times[0] = -1.0
        with pytest.raises(ValueError):
            tr.amplitudes[0, 0] = 0.0


class TestTraceSerialization:
    def trace(self):
        h = TwoLevelStatic(epsilon=1.0)
        return h, evolve(h, UP, h.orthogonality_time, steps=16)

    def test_json_round_trip(self):
        h, tr = self.trace()
        doc = json.loads(json.dumps(tr.to_json(h)))
        back = EvolutionTrace.from_json(doc)
        np.testing.assert_array_equal(back.times, tr.times)
        np.testing.assert_array_equal(back.energy_dispersion, tr.energy_dispersion)
        np.testing.assert_array_equal(back.amplitudes, tr.amplitudes)
        assert back.hbar == tr.hbar

    def test_envelope_carries_hamiltonian(self):
        h, tr = self.trace()
        doc = tr.to_json(h)
        restored = trace_hamiltonian_from_json(doc)
        assert isinstance(restored, TwoLevelStatic)
        assert restored.epsilon == 1.0

    def test_envelope_without_hamiltonian(self):
        _, tr = self.trace()
        doc = tr.to_json()
        assert doc["hamiltonian"] is None
        assert trace_hamiltonian_from_json(doc) is None

    def test_callable_hamiltonian_serializes_as_null(self):
        h = lab_frame_hamiltonian()
        tr = evolve(h, UP, 0.5, steps=8)
        assert tr.to_json(h)["hamiltonian"] is None

    def test_csv_layout_and_precision(self):
        h, tr = self.trace()
        buf = io.StringIO()
        tr.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,re_0,im_0,re_1,im_1,energy_mean,energy_dispersion"
        assert len(lines) == tr.n_nodes + 1
        cells = [float(x) for x in lines[-1].split(",")]
        assert cells[0] == tr.times[-1]  # repr round-trips doubles exactly
        amps = tr.final_state.amplitudes
        assert cells[1] == amps[0].real and cells[2] == amps[0].imag
        assert cells[5] == tr.energy_mean[-1]
        assert cells[6] == tr.energy_dispersion[-1]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_csv_is_the_csv_writer_rendering_of_float_reprs(self, dim):
        if dim == 2:
            h, tr = self.trace()
        else:
            g = np.random.default_rng(3).normal(size=(3, 3)) * (1.0 + 1.0j)
            h = ConstantMatrix(g + g.conj().T)
            tr = evolve(h, QuantumState.exact([0.6, 0.0, 0.8j]), 2.0, steps=40)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(
            ["t", *[f"{p}_{k}" for k in range(dim) for p in ("re", "im")],
             "energy_mean", "energy_dispersion"]
        )
        for t, amps, mean, disp in zip(
            tr.times, tr.amplitudes, tr.energy_mean, tr.energy_dispersion
        ):
            cells = [t, *[x for a in amps for x in (a.real, a.imag)], mean, disp]
            writer.writerow([repr(float(x)) for x in cells])
        got = io.StringIO()
        tr.to_csv(got)
        assert got.getvalue() == want.getvalue()


class TestEvolve:
    def test_static_scenario_against_closed_form(self):
        h = TwoLevelStatic(epsilon=1.0)
        t_final = h.orthogonality_time
        tr = evolve(h, UP, t_final, steps=1000)
        worst = 0.0
        for t, amps in zip(tr.times, tr.amplitudes):
            expected = propagator_static(1.0, float(t)) @ UP.amplitudes
            worst = max(worst, float(np.max(np.abs(amps - expected))))
        assert worst <= 1e-8
        assert phase_equivalent(tr.final_state, QuantumState.exact([0.0, 1.0]))

    def test_driven_scenario_against_closed_form(self):
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        tr = evolve(h, UP, h.orthogonality_time, steps=1000)
        worst = 0.0
        for t, amps in zip(tr.times, tr.amplitudes):
            expected = propagator_driven(EPS, OMEGA, OMEGA0, float(t)) @ UP.amplitudes
            worst = max(worst, float(np.max(np.abs(amps - expected))))
        assert worst <= 1e-6

    def test_zero_duration_gives_single_node(self):
        h = TwoLevelStatic(epsilon=1.0)
        tr = evolve(h, UP, 0.0, steps=100)
        assert tr.n_nodes == 1
        np.testing.assert_array_equal(tr.initial_state.amplitudes, UP.amplitudes)
        assert tr.energy_dispersion[0] == pytest.approx(1.0)

    def test_step_count_validation(self):
        h = TwoLevelStatic(epsilon=1.0)
        with pytest.raises(ValueError):
            evolve(h, UP, 1.0, steps=1)
        with pytest.raises(ValueError):
            evolve(h, UP, 1.0, steps=2.5)

    def test_dimension_mismatch(self):
        h = ConstantMatrix(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            evolve(h, UP, 1.0, steps=10)

    def test_statistics_recomputable(self):
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        tr = evolve(h, UP, 3.0, steps=200)
        for i in (0, 57, 200):
            t = float(tr.times[i])
            assert tr.energy_mean[i] == pytest.approx(
                energy_mean(h, QuantumState(tr.amplitudes[i]), t), abs=1e-10
            )
            assert tr.energy_dispersion[i] == pytest.approx(
                energy_dispersion(h, QuantumState(tr.amplitudes[i]), t), abs=1e-10
            )

    def test_norms_stay_put(self):
        h = lab_frame_hamiltonian()
        tr = evolve(h, UP, 10.0, steps=500)
        norms = np.linalg.norm(tr.amplitudes, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_three_level_constant_matrix(self):
        rng = np.random.default_rng(77)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = 0.5 * (g + g.conj().T)
        psi0 = QuantumState.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        tr = evolve(ConstantMatrix(m), psi0, 2.0, steps=64)
        expected = scipy_expm(-2j * m) @ psi0.amplitudes
        np.testing.assert_allclose(tr.final_state.amplitudes, expected, atol=1e-12)

    def test_non_hermitian_sample_rejected(self):
        h = TimeDependent(lambda t: np.array([[0.0, 1.0], [0.5, 0.0]]), dimension=2)
        with pytest.raises(HermiticityError):
            evolve(h, UP, 1.0, steps=10)

    def test_off_norm_initial_state_trips_drift_guard(self):
        # a state 1e-7 off unit length passes construction at loose tolerance
        # but must be caught by the cumulative-drift check
        psi0 = QuantumState.exact([1.0 + 1e-7, 0.0], tol=1e-6)
        h = TwoLevelStatic(epsilon=1.0)
        with pytest.raises(IntegrationError):
            evolve(h, psi0, 1.0, steps=10)



def rotating_drive(dim, seed):
    """H(t) = e^{-iKt} H0 e^{iKt} and its exact solution e^{-iKT} e^{-i(H0-K)T} psi0."""
    rng = np.random.default_rng(seed)
    g0, gk = (rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim)))
    h0, k = 0.5 * (g0 + g0.conj().T), 0.5 * (gk + gk.conj().T)

    def func(t):
        u = scipy_expm(-1j * k * t)
        return u @ h0 @ u.conj().T

    def solution(t, psi0):
        return scipy_expm(-1j * k * t) @ scipy_expm(-1j * (h0 - k) * t) @ psi0

    return TimeDependent(func, dimension=dim), solution


class TestMagnusIntegrator:
    """The fourth-order Magnus step that ``evolve`` takes for time-dependent generators."""

    def assert_fourth_order(self, h, psi0, oracle):
        errors = [
            float(np.max(np.abs(evolve(h, psi0, 2.0, steps=n).final_state.amplitudes - oracle)))
            for n in (16, 32, 64, 128)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 < coarse / fine < 20.0  # halving dt divides the error by ~16
        assert math.log2(errors[0] / errors[-1]) / 3.0 == pytest.approx(4.0, abs=0.2)

    @pytest.mark.parametrize("hbar", [1.0, 0.5])
    def test_fourth_order_on_the_pauli_path(self, hbar):
        oracle = lab_frame_solution(2.0, UP.amplitudes, hbar=hbar)
        self.assert_fourth_order(lab_frame_hamiltonian(hbar=hbar), UP, oracle)

    def test_fourth_order_on_the_eigh_path(self):
        h, solution = rotating_drive(4, seed=11)
        psi0 = QuantumState.normalized([1.0, 0.5j, -0.25, 0.75])
        self.assert_fourth_order(h, psi0, solution(2.0, psi0.amplitudes))

    @pytest.mark.parametrize("steps", [100, 16, 17, 2])
    def test_samples_and_exponentials_per_run(self, monkeypatch, steps):
        calls = {"func": 0, "hermitian": 0, "expm": 0}
        real_hermitian, real_expm = hamiltonian.require_hermitian, propagation.expm_unitary_step
        lab = lab_frame_hamiltonian()

        def counting_func(t):
            calls["func"] += 1
            return lab.func(t)

        def counting_hermitian(*args, **kwargs):
            calls["hermitian"] += 1
            return real_hermitian(*args, **kwargs)

        def counting_expm(*args):
            calls["expm"] += 1
            return real_expm(*args)

        monkeypatch.setattr(hamiltonian, "require_hermitian", counting_hermitian)
        monkeypatch.setattr(propagation, "expm_unitary_step", counting_expm)
        evolve(TimeDependent(counting_func, dimension=2), UP, 1.0, steps=steps)
        # two Gauss nodes per step and every node's statistics, one check per stack
        chunks = math.ceil(steps / hamiltonian.STACK_CHUNK)
        assert calls["func"] == 3 * steps + 1
        assert calls["hermitian"] == chunks + math.ceil((steps + 1) / hamiltonian.STACK_CHUNK)
        assert calls["expm"] == chunks

    def test_energies_near_1e200_over_tiny_steps_do_not_overflow(self):
        # H(t) = s g(s t) over T/s has the nodes of g over T, for any s
        g = lab_frame_hamiltonian()
        s = 1e200
        h = TimeDependent(lambda t: s * g.sample(s * t), dimension=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = evolve(h, UP, 2.0 / s, steps=64)
        unscaled = evolve(g, UP, 2.0, steps=64).amplitudes
        assert np.max(np.abs(tr.amplitudes - unscaled)) <= 1e-12

    def test_overflowing_step_phase_is_refused(self):
        h = TimeDependent(lambda t: 1e200 * (PAULI_X + t * PAULI_Z), dimension=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="step phase .* overflows"):
                evolve(h, UP, 1.0, steps=100)

    @pytest.mark.parametrize("growth", [1e4, 1e6, 1e8])
    def test_generator_whose_norm_grows_is_accepted(self, growth):
        # each node's round-off window scales with its own |H(t_i)|, not |H(0)|
        rng = np.random.default_rng(1)
        g = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        a, b = 0.5 * (g + g.conj().swapaxes(1, 2))
        psi0 = QuantumState.normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        h = TimeDependent(lambda t: a * (1.0 + growth * t * t) + b * math.sin(t), 4)
        tr = evolve(h, psi0, 1.0, 400)
        for i in (0, 200, 400):
            t, v = float(tr.times[i]), tr.amplitudes[i]
            m = h.func(t)
            mean = np.vdot(v, m @ v).real
            disp = np.linalg.norm(m @ v - mean * v)
            scale = np.abs(m).max()
            assert abs(tr.energy_mean[i] - mean) <= 1e-12 * scale
            assert abs(tr.energy_dispersion[i] - disp) <= 1e-10 * scale

    def test_bad_sample_names_its_time(self):
        skew = np.array([[0.0, 0.5], [0.0, 0.0]])
        h = TimeDependent(lambda t: PAULI_X + (skew if t > 0.61 else 0.0), dimension=2)
        with pytest.raises(HermiticityError, match="H\\(t=0.6"):
            evolve(h, UP, 1.0, steps=10)


class TestConstantGeneratorFill:
    @pytest.mark.parametrize("steps", [2, 3, 5, 64, 1023, 1024, 1025])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_every_node_matches_sequential_powers(self, dim, steps):
        rng = np.random.default_rng(1000 * dim + steps)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = 0.5 * (g + g.conj().T)
        psi0 = QuantumState.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        t_final = 2.0
        tr = evolve(ConstantMatrix(m), psi0, t_final, steps=steps)
        step_u = expm_unitary_step(m, t_final / steps, 1.0)
        expected = np.empty((steps + 1, dim), dtype=complex)
        expected[0] = psi0.amplitudes
        for k in range(steps):
            expected[k + 1] = step_u @ expected[k]
        assert tr.amplitudes[0].tobytes() == psi0.amplitudes.tobytes()
        assert np.max(np.abs(tr.amplitudes - expected)) <= 1e-12

    def test_static_trace_keeps_structural_zeros(self):
        # (cos eps t, -i sin eps t): the products never mix real and imaginary
        h = TwoLevelStatic(epsilon=1.3)
        tr = evolve(h, UP, h.orthogonality_time, steps=100_000)
        assert np.all(tr.amplitudes[:, 0].imag == 0.0)
        assert np.all(tr.amplitudes[:, 1].real == 0.0)

    def test_driven_evolve_samples_and_exponentiates_once(self, monkeypatch):
        calls = {"sample": 0, "expm": 0}
        real_sample, real_expm = TwoLevelDriven.sample, propagation.expm_unitary_step

        def counting_sample(self, t=0.0):
            calls["sample"] += 1
            return real_sample(self, t)

        def counting_expm(*args):
            calls["expm"] += 1
            return real_expm(*args)

        monkeypatch.setattr(TwoLevelDriven, "sample", counting_sample)
        monkeypatch.setattr(propagation, "expm_unitary_step", counting_expm)
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        tr = evolve(h, UP, h.orthogonality_time, steps=10_000)
        assert tr.n_nodes == 10_001
        assert calls["sample"] <= 2
        assert calls["expm"] == 1

    def test_non_hermitian_sample_at_one_node_rejected(self):
        times = np.linspace(0.0, 1.0, 11)
        bad_t = float(times[6])
        skew = np.array([[0.0, 0.5], [0.0, 0.0]])

        def func(t):
            return PAULI_X + t * PAULI_Z + (skew if t == bad_t else 0.0)

        h = TimeDependent(func, dimension=2)
        psis = np.array([UP.amplitudes] * times.size)
        with pytest.raises(HermiticityError, match="H\\(t=0.6"):
            _node_statistics(h, psis, times)


class TestOverlapDecay:
    def test_static_overlap_follows_cosine(self):
        h = TwoLevelStatic(epsilon=1.0)
        tr = evolve(h, UP, h.orthogonality_time, steps=400)
        for t, amps in zip(tr.times, tr.amplitudes):
            assert overlap_modulus(QuantumState(amps), UP) == pytest.approx(
                math.cos(float(t)), abs=1e-8
            )


class TestDispersionDrivenClosed:
    def test_initial_value_is_epsilon(self):
        assert dispersion_driven_closed(EPS, OMEGA, OMEGA0, 0.0) == pytest.approx(EPS)

    def test_zero_detuning_equals_near_resonance_formula(self):
        ts = np.linspace(0.0, 12.0, 97)
        a = dispersion_driven_closed(0.9, 1.4, 1.4, ts)
        b = dispersion_driven_near_resonance(0.9, 1.4, 1.4, ts)
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_matches_trace_dispersion(self):
        h = TwoLevelDriven(epsilon=EPS, omega=OMEGA, omega0=OMEGA0)
        tr = evolve(h, UP, h.orthogonality_time, steps=1000)
        closed = dispersion_driven_closed(EPS, OMEGA, OMEGA0, tr.times)
        np.testing.assert_allclose(tr.energy_dispersion, closed, atol=1e-7)

    def test_scalar_and_array_agree(self):
        arr = dispersion_driven_closed(EPS, OMEGA, OMEGA0, np.array([0.3, 0.9]))
        assert arr[0] == dispersion_driven_closed(EPS, OMEGA, OMEGA0, 0.3)
        assert arr[1] == dispersion_driven_closed(EPS, OMEGA, OMEGA0, 0.9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            dispersion_driven_closed(EPS, OMEGA, OMEGA0, -1.0)

    def test_stays_within_spectral_envelope(self):
        # dE^2 = eps^2 + (hbar w0/2)^2 - <H>^2  <=  eps^2 + (hbar w0/2)^2
        ts = np.linspace(0.0, 40.0, 801)
        vals = dispersion_driven_closed(EPS, OMEGA, OMEGA0, ts)
        cap = math.hypot(EPS, 0.5 * OMEGA0)
        assert np.all(vals <= cap + 1e-12)
        assert np.all(vals >= 0.0)


class TestShortTime:
    def test_initial_value(self):
        assert dispersion_short_time(EPS, OMEGA, OMEGA0, 0.0) == pytest.approx(EPS)

    def test_coefficient_formula(self):
        a = short_time_coefficient(OMEGA, OMEGA0)
        assert a == pytest.approx(0.5 * OMEGA0**2 * (1.0 + 2.0 * OMEGA / OMEGA0))

    def test_resonant_coefficient(self):
        w = 0.7
        assert short_time_coefficient(w, w) == pytest.approx(1.5 * w * w)

    def test_quadratic_model_matches_expansion(self):
        a = short_time_coefficient(OMEGA, OMEGA0)
        t = 0.05
        assert dispersion_short_time(EPS, OMEGA, OMEGA0, t) == pytest.approx(
            EPS * (1.0 + a * t * t)
        )

    def test_remainder_is_fourth_order(self):
        # halving t must shrink the model error by ~16x (Richardson slope >= 3.5)
        def residual(t):
            exact = dispersion_driven_near_resonance(EPS, OMEGA, OMEGA0, t)
            return abs(exact - dispersion_short_time(EPS, OMEGA, OMEGA0, t))

        ts = [0.4 / 2**k for k in range(5)]
        res = [residual(t) for t in ts]
        slopes = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
        assert min(slopes) >= 3.5


class TestMetricRelation:
    def test_static_residual_is_higher_order(self):
        # 4(1 - |<psi(t)|psi(t+dt)>|^2) agrees with (2 dE dt / hbar)^2 up to
        # terms cubic or better in dt
        eps = 1.0
        t0 = 0.4

        def residual(dt):
            a = propagator_static(eps, t0) @ UP.amplitudes
            b = propagator_static(eps, t0 + dt) @ UP.amplitudes
            ov2 = abs(np.vdot(a, b)) ** 2
            return abs(4.0 * (1.0 - ov2) - 4.0 * eps * eps * dt * dt)

        dts = [0.02 / 2**k for k in range(4)]
        res = [residual(dt) for dt in dts]
        slopes = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
        assert min(slopes) >= 2.7
