"""The shared energy-statistics kernel and the stacked Hermiticity check."""

import warnings

import numpy as np
import pytest

from qgeo.errors import DimensionMismatchError, FormulaError, HermiticityError
from qgeo.hamiltonian import (
    PAULI_X,
    PAULI_Z,
    ConstantMatrix,
    TimeDependent,
    energy_dispersion,
    energy_mean,
    energy_statistics,
    require_hermitian,
)
from qgeo.states import QuantumState


def random_hermitian_stack(rng, count, dim, size=1.0):
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return size * 0.5 * (g + np.swapaxes(g.conj(), -1, -2))


def random_states(rng, shape):
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestEnergyStatistics:
    @pytest.mark.parametrize("size", [0.3, 1.0, 7.5, 1e6])
    def test_equals_the_unscaled_formula_bit_for_bit(self, size):
        rng = np.random.default_rng(5)
        h = random_hermitian_stack(rng, 6, 4, size)
        psis = random_states(rng, (6, 9, 4))
        hv = psis @ np.swapaxes(h, -1, -2)
        scale = np.maximum(np.max(np.abs(h), axis=(-2, -1)), 1.0)[:, np.newaxis]
        mean, disp = energy_statistics(psis, hv, scale)
        want_mean = np.real(np.einsum("...i,...i->...", psis.conj(), hv))
        second = np.real(np.einsum("...i,...i->...", hv.conj(), hv))
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(
            disp, np.sqrt(np.clip(second - want_mean * want_mean, 0.0, None))
        )

    def test_stack_rows_equal_the_per_state_functions(self):
        rng = np.random.default_rng(6)
        h = random_hermitian_stack(rng, 5, 3, 2.0)
        psis = random_states(rng, (5, 3))
        scale = np.maximum(np.max(np.abs(h), axis=(-2, -1)), 1.0)
        mean, disp = energy_statistics(psis, (h @ psis[..., np.newaxis])[..., 0], scale)
        for k in range(5):
            psi = QuantumState(psis[k])
            assert energy_mean(ConstantMatrix(h[k]), psi) == pytest.approx(mean[k], rel=1e-15)
            assert energy_dispersion(ConstantMatrix(h[k]), psi) == pytest.approx(
                disp[k], rel=1e-15
            )

    def test_huge_energies_do_not_overflow(self):
        h = 1e200 * PAULI_X
        psi = np.array([1.0, 0.0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, disp = energy_statistics(psi, h @ psi, 1e200)
        assert mean == 0.0
        assert disp == 1e200

    @pytest.mark.parametrize("size", [8e307, 1e308, np.finfo(float).max])
    def test_energies_near_the_float_maximum_stay_finite(self, size):
        psi = np.array([1.0, 0.0], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, disp = energy_statistics(psi, size * PAULI_X @ psi, size)
        assert mean == 0.0
        assert disp == size

    def test_imaginary_mean_is_a_hermiticity_error(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        psi = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        with pytest.raises(HermiticityError, match="imaginary part"):
            energy_statistics(psi, skew @ psi, 1.0)

    def test_negative_variance_is_a_formula_error(self):
        # an off-norm state breaks <H^2> >= <H>^2
        psi = np.array([2.0, 0.0], dtype=complex)
        with pytest.raises(FormulaError, match="negative energy variance"):
            energy_statistics(psi, PAULI_Z @ (psi / 2.0), 1.0)

    def test_dimension_mismatch_in_per_state_functions(self):
        psi = QuantumState.exact([1.0, 0.0])
        for func in (energy_mean, energy_dispersion):
            with pytest.raises(DimensionMismatchError):
                func(ConstantMatrix(np.eye(3)), psi)


class TestStackedHermiticity:
    def test_accepts_a_hermitian_stack(self):
        rng = np.random.default_rng(7)
        stack = random_hermitian_stack(rng, 4, 3)
        np.testing.assert_array_equal(require_hermitian(stack), stack)

    def test_one_bad_matrix_in_a_stack_is_rejected(self):
        rng = np.random.default_rng(8)
        stack = random_hermitian_stack(rng, 4, 3)
        stack[2, 0, 1] += 1e-6
        with pytest.raises(HermiticityError, match="1.000e-06"):
            require_hermitian(stack)

    def test_single_matrix_owners_reject_stacks(self):
        stack = np.array([PAULI_X, PAULI_Z])
        with pytest.raises(DimensionMismatchError):
            ConstantMatrix(stack)
        with pytest.raises(DimensionMismatchError):
            TimeDependent(lambda t: stack, dimension=2).sample(0.0)
