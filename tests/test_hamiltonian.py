import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

import qgeo.hamiltonian
from qgeo.errors import (
    DimensionMismatchError,
    HermiticityError,
    StationaryStateError,
)
from qgeo.hamiltonian import (
    PAULI_X,
    PAULI_Z,
    PRESETS,
    ConstantMatrix,
    Hamiltonian,
    TimeDependent,
    TwoLevelDriven,
    TwoLevelStatic,
    energy_statistics,
    hamiltonian_from_json,
    hamiltonian_to_json,
    require_hermitian,
    vaidman_decompose,
)
from qgeo.propagation import evolve
from qgeo.states import QuantumState

UP = QuantumState.exact([1.0, 0.0])
DOWN = QuantumState.exact([0.0, 1.0])
PLUS = QuantumState.normalized([1.0, 1.0])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def mean_at(h, psi, t=0.0):
    return energy_statistics(h.sample(t), psi.amplitudes[np.newaxis])[0][0]


def dispersion_at(h, psi, t=0.0):
    return energy_statistics(h.sample(t), psi.amplitudes[np.newaxis])[1][0]


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def random_state(rng, dim):
    return QuantumState.normalized(
        rng.normal(size=dim) + 1j * rng.normal(size=dim)
    )


class TestHermiticityGate:
    def test_accepts_pauli_matrices(self):
        for p in (PAULI_X, SIGMA_Y, PAULI_Z):
            require_hermitian(p)

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(HermiticityError):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatchError):
            require_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "entry", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(0.0, math.inf)]
    )
    def test_rejects_non_finite_entry_before_subtracting(self, entry):
        # m - m^dagger of an inf entry would raise a numpy RuntimeWarning
        m = np.array([[0.0, entry], [np.conj(entry), 1.0]], dtype=complex)
        with pytest.raises(HermiticityError, match="^observable has a non-finite entry"):
            require_hermitian(m, context="observable")
        stack = np.array([PAULI_X, m, PAULI_Z])
        with pytest.raises(HermiticityError, match="^stack has a non-finite entry"):
            require_hermitian(stack, context="stack")

    def test_tolerance_is_relative(self):
        # the same absolute defect passes at scale 1e6 but fails at scale 1
        defect = np.array([[0.0, 1e-8], [0.0, 0.0]])
        require_hermitian(np.diag([1e6, -1e6]) + defect)
        with pytest.raises(HermiticityError):
            require_hermitian(np.diag([1.0, -1.0]) + defect)


class TestConstantMatrix:
    def test_matrix_is_frozen(self):
        h = ConstantMatrix(PAULI_Z)
        with pytest.raises(ValueError):
            h.sample()[0, 0] = 5.0

    def test_generator_equals_sample(self):
        h = ConstantMatrix(PAULI_X)
        np.testing.assert_array_equal(h.constant_generator, h.sample(3.7))

    def test_rejects_one_dimensional(self):
        with pytest.raises(DimensionMismatchError):
            ConstantMatrix(np.array([[1.0]]))

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(ValueError):
            ConstantMatrix(PAULI_X, hbar=0.0)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, entry):
        with pytest.raises(HermiticityError, match="^constant Hamiltonian has a non-finite"):
            ConstantMatrix([[entry, 0.0], [0.0, 1.0]])

    def test_json_with_nan_rejected(self):
        doc = {"re": [[math.nan, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(HermiticityError, match="non-finite entry"):
            hamiltonian_from_json(doc)

    def test_json_with_infinite_imaginary_part_rejected(self):
        # refused by name, without a numpy warning from forming re + 1j*im
        doc = {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, math.inf], [-math.inf, 0.0]]}
        with pytest.raises(HermiticityError, match="non-finite entry"):
            hamiltonian_from_json(doc)


class TestTimeDependent:
    def test_sample_validates_every_call(self):
        def bad(t):
            return np.array([[0.0, t], [0.0, 0.0]])

        h = TimeDependent(bad, dimension=2)
        h.sample(0.0)  # zero matrix is Hermitian
        with pytest.raises(HermiticityError):
            h.sample(1.0)

    def test_non_finite_sample_at_one_node_rejected(self):
        def func(t):
            return np.array([[math.inf, 1.0], [1.0, 0.0]]) if t == 0.5 else PAULI_X

        with pytest.raises(HermiticityError, match=r"^H\(t=0\.5\) has a non-finite entry"):
            evolve(TimeDependent(func, dimension=2), UP, 1.0, 4)  # t = 0.5 is a node

    def test_dimension_enforced(self):
        h = TimeDependent(lambda t: np.eye(3), dimension=2)
        with pytest.raises(DimensionMismatchError):
            h.sample(0.0)

    @pytest.mark.parametrize("dimension", [2.5, 3.0, True, 1, "3", None])
    def test_dimension_must_be_an_integer_of_at_least_two(self, dimension):
        with pytest.raises(ValueError, match=r"^Hamiltonian dimension must be an integer >= 2"):
            TimeDependent(lambda t: np.eye(3), dimension=dimension)

    def test_numpy_integer_dimension_is_accepted(self):
        assert TimeDependent(lambda t: np.eye(3), dimension=np.int64(3)).dim == 3

    def test_noisy_sample_is_refused(self):
        noisy = lambda t: PAULI_X + np.array([[0.0, 1e-8], [0.0, 0.0]])
        with pytest.raises(HermiticityError):
            TimeDependent(noisy, dimension=2).sample(0.0)

    def test_evolve_refuses_the_noisy_sample_by_its_time(self):
        noisy = lambda t: PAULI_X + np.array([[0.0, 1e-8], [0.0, 0.0]])
        with pytest.raises(HermiticityError, match=r"^H\(t=0\.0\) is not Hermitian"):
            evolve(TimeDependent(noisy, dimension=2), UP, 1.0, 10)

    def test_stack_error_names_the_first_offending_time(self):
        skew = np.array([[0.0, 0.5], [0.0, 0.0]])
        h = TimeDependent(lambda t: PAULI_X + (skew if t > 0.5 else 0.0), dimension=2)
        with pytest.raises(HermiticityError, match=r"^H\(t=0\.75\) is not Hermitian"):
            h.sample(np.array([0.25, 0.5, 0.75, 1.0]))
        inf = np.array([[math.inf, 1.0], [1.0, 0.0]])
        h = TimeDependent(lambda t: inf if t > 0.5 else PAULI_X, dimension=2)
        with pytest.raises(HermiticityError, match=r"^H\(t=0\.75\) has a non-finite entry"):
            h.sample(np.array([0.25, 0.5, 0.75, 1.0]))

    def test_stack_shape_is_checked_per_time(self):
        h = TimeDependent(lambda t: np.eye(3) if t > 0.5 else np.eye(2), dimension=2)
        with pytest.raises(DimensionMismatchError, match=r"^H\(t=0\.75\) has shape \(3, 3\)"):
            h.sample(np.array([0.25, 0.75]))


class TestTwoLevelStatic:
    def test_matrix(self):
        h = TwoLevelStatic(epsilon=0.5)
        np.testing.assert_allclose(h.sample(), 0.5 * PAULI_X)

    def test_orthogonality_time(self):
        h = TwoLevelStatic(epsilon=2.0, hbar=3.0)
        assert h.orthogonality_time == pytest.approx(3.0 * math.pi / 4.0)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            TwoLevelStatic(epsilon=-1.0)


class TestTwoLevelDriven:
    def test_lab_frame_sample_at_zero(self):
        h = TwoLevelDriven(epsilon=1.0, omega=0.25, omega0=0.2)
        expected = PAULI_X + 0.1 * PAULI_Z
        np.testing.assert_allclose(h.sample(0.0), expected, atol=1e-15)

    def test_sample_rotates_in_xy_plane(self):
        h = TwoLevelDriven(epsilon=0.7, omega=1.3, omega0=0.9)
        t = 0.43
        wt = h.omega * t
        expected = 0.7 * (
            math.cos(wt) * PAULI_X + math.sin(wt) * SIGMA_Y
        ) + 0.45 * PAULI_Z
        np.testing.assert_allclose(h.sample(t), expected, atol=1e-15)

    def test_detuning_and_kappa(self):
        h = TwoLevelDriven(epsilon=1.0, omega=0.25, omega0=0.2, hbar=2.0)
        assert h.detuning == pytest.approx(0.1)
        assert h.kappa == pytest.approx(math.hypot(1.0, 0.05))

    def test_generator_is_the_sample_at_zero(self):
        h = TwoLevelDriven(epsilon=1.0, omega=0.25, omega0=0.2, hbar=1.5)
        np.testing.assert_allclose(h.constant_generator, PAULI_X + 0.15 * PAULI_Z, atol=1e-15)
        np.testing.assert_array_equal(h.constant_generator, h.sample(0.0))
        assert h.frame_rate == 0.25

    def test_resonant_frame_generator_has_no_z_part(self):
        # phi = R^dagger psi moves under K - (hbar*w/2) sigma_z = eps sigma_x - (D/2) sigma_z
        h = TwoLevelDriven(epsilon=0.3, omega=1.0, omega0=1.0, hbar=1.7)
        moving = h.constant_generator - 0.5 * h.hbar * h.frame_rate * PAULI_Z
        np.testing.assert_array_equal(moving, 0.3 * PAULI_X)

    def test_frame_rate_cannot_be_set(self):
        h = TwoLevelDriven(epsilon=0.3, omega=1.0, omega0=1.0)
        with pytest.raises(AttributeError):
            h.frame_rate = 0.0

    def test_sample_norm_is_time_independent(self):
        h = TwoLevelDriven(epsilon=0.8, omega=2.0, omega0=1.5)
        norms = [np.linalg.norm(h.sample(t), 2) for t in np.linspace(0, 9, 13)]
        np.testing.assert_allclose(norms, norms[0], rtol=1e-12)

    def test_orthogonality_time_shrinks_with_detuning(self):
        res = TwoLevelDriven(epsilon=1.0, omega=1.0, omega0=1.0)
        det = TwoLevelDriven(epsilon=1.0, omega=1.5, omega0=1.0)
        assert det.orthogonality_time < res.orthogonality_time
        assert res.orthogonality_time == pytest.approx(math.pi / 2.0)


def _sample_cases():
    rng = np.random.default_rng(4242)
    h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
    return {
        "constant-dim2": ConstantMatrix(random_hermitian(rng, 2)),
        "constant-dim5": ConstantMatrix(random_hermitian(rng, 5)),
        "static": TwoLevelStatic(epsilon=0.8),
        "driven-hbar1": TwoLevelDriven(epsilon=0.7, omega=1.3, omega0=0.9),
        "driven-hbar1.7": TwoLevelDriven(epsilon=0.7, omega=1.3, omega0=0.9, hbar=1.7),
        "time-dependent": TimeDependent(
            lambda t: h0 + math.sin(t) * h1, dimension=3, hbar=1.3
        ),
    }


class TestSample:
    @pytest.mark.parametrize("name", sorted(_sample_cases()))
    def test_stacked_sample_equals_scalar_samples(self, name):
        h = _sample_cases()[name]
        times = np.linspace(0.0, 7.0, 23)
        stacked = h.sample(times)
        assert stacked.shape == (times.size, h.dim, h.dim)
        np.testing.assert_array_equal(stacked, np.stack([h.sample(float(t)) for t in times]))
        assert h.sample(0.3).shape == (h.dim, h.dim)

    @pytest.mark.parametrize("name", sorted(_sample_cases()))
    def test_sample_is_the_generator_in_the_frame(self, name):
        # sample(t) = R(t) K R(t)^dagger with R(t) = exp(-i rate t sigma_z / 2)
        h = _sample_cases()[name]
        if h.constant_generator is None:
            assert h.frame_rate == 0.0
            return
        for t in np.linspace(0.0, 7.0, 9):
            if h.frame_rate:
                r = np.diag(np.exp(-0.5j * h.frame_rate * t * np.array([1.0, -1.0])))
            else:
                r = np.eye(h.dim)
            want = r @ h.constant_generator @ r.conj().T
            assert np.max(np.abs(h.sample(float(t)) - want)) <= 1e-15 * np.abs(want).max()


class TestEnergyMean:
    def test_driven_ground_state_sees_only_the_splitting(self):
        h = TwoLevelDriven(epsilon=1.0, omega=0.25, omega0=0.2)
        assert mean_at(h, UP, t=0.0) == pytest.approx(0.1, abs=1e-15)

    def test_sigma_z_expectations(self):
        h = ConstantMatrix(PAULI_Z)
        assert mean_at(h, UP) == pytest.approx(1.0)
        assert mean_at(h, DOWN) == pytest.approx(-1.0)
        assert mean_at(h, PLUS) == pytest.approx(0.0, abs=1e-15)

    def test_matches_dense_formula_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            dim = int(rng.integers(2, 7))
            m = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            h = ConstantMatrix(m)
            v = psi.amplitudes
            expected = float(np.real(v.conj() @ m @ v))
            assert mean_at(h, psi) == pytest.approx(expected, rel=1e-12)


class TestEnergyDispersion:
    def test_static_basis_state(self):
        h = TwoLevelStatic(epsilon=1.0)
        assert dispersion_at(h, UP) == pytest.approx(1.0)

    def test_driven_basis_state_at_zero(self):
        h = TwoLevelDriven(epsilon=1.0, omega=0.25, omega0=0.2)
        assert dispersion_at(h, UP, t=0.0) == pytest.approx(1.0, abs=1e-14)

    def test_eigenstate_has_zero_spread(self):
        h = ConstantMatrix(PAULI_Z)
        assert dispersion_at(h, UP) == 0.0

    def test_nonnegative_and_consistent_with_variance(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            dim = int(rng.integers(2, 7))
            m = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            h = ConstantMatrix(m)
            d = dispersion_at(h, psi)
            assert d >= 0.0
            v = psi.amplitudes
            var = float(
                np.real(v.conj() @ m @ m @ v) - np.real(v.conj() @ m @ v) ** 2
            )
            assert d * d == pytest.approx(var, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        d1 = dispersion_at(ConstantMatrix(m), psi)
        d2 = dispersion_at(ConstantMatrix(2.5 * m), psi)
        assert d2 == pytest.approx(2.5 * d1, rel=1e-12)


class TestVaidmanDecompose:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="does not match state dimension 2"):
            vaidman_decompose(np.eye(3), UP)

    def test_sigma_x_on_basis_state(self):
        d = vaidman_decompose(PAULI_X, UP)
        assert d.mean == pytest.approx(0.0, abs=1e-15)
        assert d.dispersion == pytest.approx(1.0)
        np.testing.assert_allclose(d.perp.amplitudes, [0.0, 1.0], atol=1e-14)

    def test_sigma_z_on_balanced_superposition(self):
        d = vaidman_decompose(PAULI_Z, PLUS)
        inv = 1.0 / math.sqrt(2.0)
        assert d.mean == pytest.approx(0.0, abs=1e-15)
        assert d.dispersion == pytest.approx(1.0)
        np.testing.assert_allclose(d.perp.amplitudes, [inv, -inv], atol=1e-14)

    def test_eigenstate_raises(self):
        with pytest.raises(StationaryStateError):
            vaidman_decompose(PAULI_Z, UP)

    def test_threshold_scales_with_observable(self):
        # tiny tilt off an eigenstate: dispersion ~1e-8 * scale passes,
        # ~1e-14 * scale does not
        tilt = QuantumState.normalized([1.0, 1e-8])
        vaidman_decompose(1e6 * PAULI_Z, tilt)
        with pytest.raises(StationaryStateError):
            vaidman_decompose(1e6 * PAULI_Z, QuantumState.normalized([1.0, 1e-14]))

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            dim = int(rng.integers(2, 8))
            q = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            try:
                d = vaidman_decompose(q, psi)
            except StationaryStateError:
                continue
            v = psi.amplitudes
            lhs = q @ v
            rhs = d.mean * v + d.dispersion * d.perp.amplitudes
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)
            assert abs(np.vdot(v, d.perp.amplitudes)) < 1e-10

    def test_norm_resolution_in_three_dimensions(self):
        rng = np.random.default_rng(55)
        q = random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        d = vaidman_decompose(q, psi)
        qv_norm_sq = float(np.linalg.norm(q @ psi.amplitudes) ** 2)
        assert d.mean**2 + d.dispersion**2 == pytest.approx(qv_norm_sq, abs=1e-12)


#: One instance of each Hamiltonian class that has a JSON spec.
SPEC_EXAMPLES = {
    ConstantMatrix: ConstantMatrix(random_hermitian(np.random.default_rng(8), 3), hbar=2.0),
    TwoLevelStatic: TwoLevelStatic(epsilon=0.4, hbar=1.5),
    TwoLevelDriven: TwoLevelDriven(epsilon=1.0, omega=0.25, omega0=0.2, hbar=0.7),
}


class TestSerialization:
    def test_constant_matrix_round_trip(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(rng, 3)
        doc = hamiltonian_to_json(ConstantMatrix(m, hbar=2.0))
        assert set(doc) == {"re", "im"}
        restored = hamiltonian_from_json(doc, hbar=2.0)
        np.testing.assert_allclose(restored.matrix, m, atol=1e-15)
        assert restored.hbar == 2.0

    def test_preset_round_trips(self):
        for kind, cls in PRESETS.items():
            h = SPEC_EXAMPLES[cls]
            doc = hamiltonian_to_json(h)
            assert doc["kind"] == kind
            assert set(doc) == {"kind"} | {f.name for f in fields(cls)}
            restored = hamiltonian_from_json(doc)
            assert type(restored) is cls
            assert all(getattr(restored, f.name) == getattr(h, f.name) for f in fields(cls))
            np.testing.assert_allclose(restored.sample(0.3), h.sample(0.3))
            del doc["hbar"]  # a field with a default may be absent
            assert hamiltonian_from_json(doc).hbar == 1.0

    def test_every_concrete_hamiltonian_round_trips(self):
        # one without a spec would be stored as "hamiltonian": null in trace.json, silently
        concrete = {
            cls
            for _, cls in inspect.getmembers(qgeo.hamiltonian, inspect.isclass)
            if issubclass(cls, Hamiltonian) and cls is not Hamiltonian
        }
        assert concrete - {TimeDependent} == set(SPEC_EXAMPLES)
        for cls, h in SPEC_EXAMPLES.items():
            restored = hamiltonian_from_json(hamiltonian_to_json(h), hbar=h.hbar)
            assert type(restored) is cls
            assert hamiltonian_to_json(restored) == hamiltonian_to_json(h)
            assert restored.hbar == h.hbar
            np.testing.assert_array_equal(restored.sample(0.3), h.sample(0.3))

    def test_time_dependent_is_not_serializable(self):
        h = TimeDependent(lambda t: PAULI_X, dimension=2)
        with pytest.raises(ValueError):
            hamiltonian_to_json(h)

    @pytest.mark.parametrize("value", [None, True, "1.0"])
    @pytest.mark.parametrize(
        "kind, field",
        [
            ("two_level_static", "epsilon"),
            ("two_level_static", "hbar"),
            ("two_level_driven", "omega"),
            ("two_level_driven", "omega0"),
            ("two_level_driven", "hbar"),
        ],
    )
    def test_preset_number_of_wrong_json_type_is_named(self, kind, field, value):
        preset = {
            "two_level_static": TwoLevelStatic(epsilon=0.4),
            "two_level_driven": TwoLevelDriven(epsilon=1.0, omega=0.25, omega0=0.2),
        }[kind]
        doc = {**hamiltonian_to_json(preset), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a JSON number"):
            hamiltonian_from_json(doc)

    @pytest.mark.parametrize(
        "field, value, got",
        [
            ("re", [["0", "1"], ["1", "0"]], "str"),
            ("re", [[False, True], [True, False]], "bool"),
            ("re", [[None, 1.0], [1.0, 0.0]], "object"),
            ("im", [[0.0, "0"], ["0", 0.0]], "str"),
            ("im", [[False, False], [False, False]], "bool"),
            ("im", [[0.0, None], [None, 0.0]], "object"),
        ],
        ids=["re-strings", "re-bools", "re-null", "im-strings", "im-bools", "im-null"],
    )
    def test_bare_matrix_entry_of_wrong_json_type_is_named(self, field, value, got):
        # numpy reads "1" and true as 1.0, so both specs used to give sigma_x
        doc = {**hamiltonian_to_json(ConstantMatrix(PAULI_X)), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an array of JSON numbers, got {got}"):
            hamiltonian_from_json(doc)

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_bare_matrix_missing_part_is_named(self, field):
        doc = hamiltonian_to_json(ConstantMatrix(PAULI_X))
        del doc[field]
        with pytest.raises(ValueError, match=f"^{field} is missing"):
            hamiltonian_from_json(doc)

    def test_unknown_kind_rejected(self):
        for kind in ("three_level_magic", ["two_level_static"], 2):  # a list is unhashable
            with pytest.raises(ValueError, match="^unknown Hamiltonian kind"):
                hamiltonian_from_json({"kind": kind})
