import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo.errors import DimensionMismatchError, NormalizationError
from qgeo.states import (
    QuantumState,
    inner,
    overlap_modulus,
    wootters_distance,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_state(rng, dim):
    return QuantumState.normalized(
        rng.normal(size=dim) + 1j * rng.normal(size=dim)
    )


class TestConstruction:
    def test_normalized_rescales(self):
        s = QuantumState.normalized([3.0, 4.0])
        np.testing.assert_allclose(s.amplitudes, [0.6, 0.8])

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(NormalizationError):
            QuantumState.normalized([0.0, 0.0, 0.0])

    def test_constructor_rejects_nan_amplitude(self):
        with pytest.raises(NormalizationError):
            QuantumState(np.array([math.nan, 0.0]))

    def test_exact_rejects_nan_amplitude(self):
        with pytest.raises(NormalizationError, match="^norm deviates from 1 by nan"):
            QuantumState.exact([math.nan, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_normalized_rejects_non_finite_norm_before_dividing(self, bad):
        with pytest.raises(NormalizationError, match="cannot normalize a vector of norm"):
            QuantumState.normalized([bad, 0.0])

    def test_exact_accepts_unit_vector(self):
        s = QuantumState.exact([1.0, 0.0])
        assert s.dim == 2

    def test_exact_rejects_off_norm_vector(self):
        with pytest.raises(NormalizationError):
            QuantumState.exact([1.0, 1e-5])

    def test_exact_tolerance_is_strict_by_default(self):
        # deviation of ~5e-11 must fail the 1e-12 gate but pass a looser one
        v = np.array([1.0 + 5e-11, 0.0])
        with pytest.raises(NormalizationError):
            QuantumState.exact(v)
        QuantumState.exact(v, tol=1e-9)

    def test_dimension_must_be_at_least_two(self):
        with pytest.raises(DimensionMismatchError):
            QuantumState.exact([1.0])

    def test_matrix_input_rejected(self):
        with pytest.raises(DimensionMismatchError):
            QuantumState.normalized(np.eye(2))

    def test_amplitudes_are_read_only(self):
        s = QuantumState.exact([1.0, 0.0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestInner:
    def test_identity_case(self):
        a = QuantumState.exact([1.0, 0.0])
        assert inner(a, a) == 1.0 + 0.0j

    def test_orthogonal_basis_states(self):
        a = QuantumState.exact([1.0, 0.0])
        b = QuantumState.exact([0.0, 1.0])
        assert inner(a, b) == 0.0 + 0.0j

    def test_hadamard_pair_is_orthogonal(self):
        a = QuantumState.normalized([1.0, 1.0])
        b = QuantumState.normalized([1.0, -1.0])
        assert abs(inner(a, b)) < 1e-15

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = random_state(rng, 4)
            b = random_state(rng, 4)
            assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_first_slot_is_conjugated(self):
        a = QuantumState.normalized([1.0, 1.0j])
        b = QuantumState.exact([1.0, 0.0])
        assert inner(a, b) == pytest.approx(INV_SQRT2)

    def test_dimension_mismatch(self):
        a = QuantumState.exact([1.0, 0.0])
        b = QuantumState.exact([1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            inner(a, b)


class TestOverlapModulus:
    def test_self_overlap_is_one(self):
        s = QuantumState.normalized([0.3, 0.4 - 0.2j, 1.1])
        assert overlap_modulus(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        a = QuantumState.exact([1.0, 0.0])
        b = QuantumState.exact([0.0, 1.0])
        assert overlap_modulus(a, b) == 0.0

    def test_known_value(self):
        a = QuantumState.exact([1.0, 0.0])
        b = QuantumState.exact([math.sqrt(3.0) / 2.0, 0.5])
        assert overlap_modulus(a, b) == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_clamps_roundoff_above_one(self):
        s = QuantumState.normalized([1.0, 1.0, 1.0])
        assert overlap_modulus(s, s) <= 1.0

    def test_phase_invariance(self):
        rng = np.random.default_rng(11)
        a = random_state(rng, 3)
        b = random_state(rng, 3)
        base = overlap_modulus(a, b)
        for phi in (0.4, 1.9, -2.6):
            rotated = QuantumState.exact(np.exp(1j * phi) * b.amplitudes)
            assert overlap_modulus(a, rotated) == pytest.approx(base, abs=1e-12)


class TestWoottersDistance:
    def test_coincident_states(self):
        a = QuantumState.exact([1.0, 0.0])
        assert wootters_distance(a, a) == 0.0

    def test_orthogonal_pair_gives_pi(self):
        a = QuantumState.exact([1.0, 0.0])
        b = QuantumState.exact([0.0, 1.0])
        assert wootters_distance(a, b) == pytest.approx(math.pi)

    def test_balanced_overlap_gives_half_pi(self):
        a = QuantumState.exact([1.0, 0.0])
        b = QuantumState.normalized([1.0, 1.0])
        assert wootters_distance(a, b) == pytest.approx(math.pi / 2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = random_state(rng, 5)
            b = random_state(rng, 5)
            assert wootters_distance(a, b) == pytest.approx(
                wootters_distance(b, a), abs=1e-12
            )

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            a, b, c = (random_state(rng, dim) for _ in range(3))
            dab = wootters_distance(a, b)
            dbc = wootters_distance(b, c)
            dac = wootters_distance(a, c)
            assert dac <= dab + dbc + 1e-9

    def test_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = random_state(rng, 3)
            b = random_state(rng, 3)
            assert 0.0 <= wootters_distance(a, b) <= math.pi


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=6),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_distance_zero_iff_phase_equivalent(seed, dim, phase):
    rng = np.random.default_rng(seed)
    a = random_state(rng, dim)
    rotated = QuantumState.exact(np.exp(1j * phase) * a.amplitudes)
    assert wootters_distance(a, rotated) < 1e-6
