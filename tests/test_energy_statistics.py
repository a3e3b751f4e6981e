"""The shared energy-statistics kernel and the stacked Hermiticity check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo.errors import DimensionMismatchError, HermiticityError
from qgeo.hamiltonian import (
    PAULI_X,
    PAULI_Z,
    ConstantMatrix,
    TimeDependent,
    energy_statistics,
    require_hermitian,
    vaidman_decompose,
)
from qgeo.propagation import evolve
from qgeo.geometry import efficiency
from qgeo.states import QuantumState

EPS = float(np.finfo(float).eps)


def random_hermitian_stack(rng, count, dim, size=1.0):
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return size * 0.5 * (g + np.swapaxes(g.conj(), -1, -2))


def random_states(rng, shape):
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def unscaled_residual_statistics(h, psis):
    """The kernel's residual formula, on the float views, without the power-of-two scaling."""
    hv = psis @ np.swapaxes(h, -1, -2)
    v, w = psis.view(float), hv.view(float)
    mean = np.einsum("...i,...i->...", v, w)
    w -= mean[..., np.newaxis] * v
    return mean, np.sqrt(np.einsum("...i,...i->...", w, w))


class TestEnergyStatistics:
    @pytest.mark.parametrize("size", [0.3, 1.0, 7.5, 1e6])
    def test_equals_the_unscaled_formula_bit_for_bit(self, size):
        rng = np.random.default_rng(5)
        h = random_hermitian_stack(rng, 6, 4, size)
        psis = random_states(rng, (6, 9, 4))
        mean, disp = energy_statistics(h, psis)
        want_mean, want_disp = unscaled_residual_statistics(h, psis)
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(disp, want_disp)
        # and the same numbers as complex arithmetic, to round-off
        hv = psis @ np.swapaxes(h, -1, -2)
        complex_mean = np.real(np.einsum("...i,...i->...", psis.conj(), hv))
        residual = hv - complex_mean[..., np.newaxis] * psis
        np.testing.assert_allclose(mean, complex_mean, rtol=0, atol=1e-14 * size)
        np.testing.assert_allclose(disp, np.linalg.norm(residual, axis=-1), rtol=1e-13)

    def test_stack_rows_equal_single_state_calls(self):
        rng = np.random.default_rng(6)
        h = random_hermitian_stack(rng, 5, 3, 2.0)
        psis = random_states(rng, (5, 3))
        mean, disp = energy_statistics(h, psis[:, np.newaxis])
        assert mean.shape == disp.shape == (5, 1)
        for k in range(5):
            one_mean, one_disp = energy_statistics(h[k], psis[k][np.newaxis])
            assert one_mean[0] == mean[k, 0]
            assert one_disp[0] == disp[k, 0]

    def test_huge_energies_do_not_overflow(self):
        psi = np.array([[1.0, 0.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, disp = energy_statistics(1e200 * PAULI_X, psi)
        assert mean[0] == 0.0
        assert disp[0] == 1e200

    @pytest.mark.parametrize("size", [8e307, 1e308, np.finfo(float).max])
    def test_energies_near_the_float_maximum_stay_finite(self, size):
        psi = np.array([[1.0, 0.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, disp = energy_statistics(size * PAULI_X, psi)
        assert mean[0] == 0.0
        assert disp[0] == size

    def test_imaginary_mean_is_a_hermiticity_error(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        psi = np.array([[1.0, 1.0j]]) / np.sqrt(2.0)
        with pytest.raises(HermiticityError, match="imaginary part"):
            energy_statistics(skew, psi)


class TestEnergyOffset:
    """A constant offset c*I moves <H> by c and leaves the motion and dE unchanged."""

    @pytest.mark.parametrize("offset", [1e3, 1e5, 1e7])
    def test_offset_geodesic_keeps_eta_one(self, offset):
        # sigma_x + c I from |0> over pi/2 is scenario1's geodesic; the cancelling
        # sqrt(<H^2> - <H>^2) gave eta - 1 = -1.5e-8, +2.4e-4 and +23.2 here
        h = ConstantMatrix(PAULI_X + offset * np.eye(2))
        report = efficiency(evolve(h, QuantumState.exact([1.0, 0.0]), math.pi / 2.0, 2000))
        assert abs(report.eta - 1.0) <= 1e-9
        assert report.bound_satisfied

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        dim=st.integers(min_value=2, max_value=6),
        offset=st.floats(min_value=-1e8, max_value=1e8),
    )
    def test_dispersion_ignores_an_offset(self, seed, dim, offset):
        rng = np.random.default_rng(seed)
        h = random_hermitian_stack(rng, 1, dim)[0]
        psi = QuantumState(random_states(rng, dim))
        shifted = h + offset * np.eye(dim)
        disp = energy_statistics(shifted, psi.amplitudes[np.newaxis])[1][0]
        unshifted = energy_statistics(h, psi.amplitudes[np.newaxis])[1][0]
        assert abs(disp - unshifted) <= 16.0 * EPS * np.max(
            np.abs(shifted)
        )
        assert vaidman_decompose(shifted, psi).dispersion == disp


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

    @pytest.mark.parametrize("view", [lambda s: s, lambda s: s.swapaxes(-1, -2)], ids=["c", "transposed"])
    def test_deviation_is_max_of_m_minus_its_adjoint(self, view):
        # the (32, 32, 32) sample stacks of a dim-32 drive, one entry off by 1e-9
        rng = np.random.default_rng(9)
        stack = random_hermitian_stack(rng, 32, 32)
        stack[17, 3, 30] += 1e-9 * (1.0 + 1.0j)
        stack = view(stack)
        before = stack.copy()
        dev = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        with pytest.raises(HermiticityError, match=rf"^H\[17\] .* = {dev[17]:.3e} "):
            require_hermitian(stack, context=lambda i: f"H[{i}]")
        assert np.array_equal(stack, before)

    def test_single_matrix_owners_reject_stacks(self):
        stack = np.array([PAULI_X, PAULI_Z])
        with pytest.raises(DimensionMismatchError):
            ConstantMatrix(stack)
        with pytest.raises(DimensionMismatchError):
            TimeDependent(lambda t: stack, dimension=2).sample(0.0)
