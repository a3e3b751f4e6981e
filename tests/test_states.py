import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgeo
from qgeo.errors import DimensionMismatchError, FormulaError, NormalizationError
from qgeo.states import QuantumState, ray_angle

EPS = float(np.finfo(float).eps)


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


class TestRayAngle:
    def test_coincident_states(self):
        a = np.array([1.0, 0.0])
        assert ray_angle(a, a) == 0.0

    def test_orthogonal_pair_gives_half_pi(self):
        a, b = np.eye(2, dtype=complex)
        assert ray_angle(a, b) == pytest.approx(0.5 * math.pi)

    def test_balanced_overlap_gives_quarter_pi(self):
        a = np.array([1.0, 0.0])
        b = QuantumState.normalized([1.0, 1.0]).amplitudes
        assert ray_angle(a, b) == pytest.approx(0.25 * math.pi)

    def test_known_value(self):
        a = np.array([1.0, 0.0])
        b = np.array([math.sqrt(3.0) / 2.0, 0.5])
        assert ray_angle(a, b) == pytest.approx(math.pi / 6.0)

    def test_hadamard_pair_is_orthogonal(self):
        a = QuantumState.normalized([1.0, 1.0]).amplitudes
        b = QuantumState.normalized([1.0, -1.0]).amplitudes
        assert abs(ray_angle(a, b) - 0.5 * math.pi) <= 4.0 * EPS

    def test_first_slot_is_conjugated(self):
        # sum(a*b) without the conjugate is 0 for a = (1, i)/sqrt2 against itself
        a = QuantumState.normalized([1.0, 1.0j]).amplitudes
        assert ray_angle(a, a) <= 4.0 * EPS
        assert ray_angle(a, np.conj(a)) == pytest.approx(0.5 * math.pi)

    def test_self_angle_is_zero(self):
        s = QuantumState.normalized([0.3, 0.4 - 0.2j, 1.1]).amplitudes
        assert ray_angle(s, s) <= 4.0 * EPS

    def test_overlap_rounded_above_one_gives_zero_angle(self):
        # arccos would return nan at such an overlap
        rng = np.random.default_rng(17)
        states = [random_state(rng, 3).amplitudes for _ in range(200)]
        above = [s for s in states if abs(np.vdot(s, s)) > 1.0]
        assert above  # round-off must put some overlaps above 1
        for s in above:
            assert 0.0 <= ray_angle(s, s) <= 4.0 * EPS

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = random_state(rng, 5).amplitudes
            b = random_state(rng, 5).amplitudes
            assert ray_angle(a, b) == pytest.approx(ray_angle(b, a), abs=0.5e-12)

    def test_triangle_inequality_random_triples(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            a, b, c = (random_state(rng, dim).amplitudes for _ in range(3))
            assert ray_angle(a, c) <= ray_angle(a, b) + ray_angle(b, c) + 0.5e-9

    def test_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = random_state(rng, 3).amplitudes
            b = random_state(rng, 3).amplitudes
            assert 0.0 <= ray_angle(a, b) <= 0.5 * math.pi

    def test_phase_invariance(self):
        rng = np.random.default_rng(11)
        a = random_state(rng, 3).amplitudes
        b = random_state(rng, 3).amplitudes
        base = ray_angle(a, b)
        for phi in (0.4, 1.9, -2.6):
            assert ray_angle(a, np.exp(1j * phi) * b) == pytest.approx(base, abs=1e-12)

    def test_rotated_pairs_keep_every_digit(self):
        # a = U e0, b = U (cos phi e0 + e^{i alpha} sin phi e1); arccos|<a|b>|
        # was off by up to 1.35e8 eps at phi = 1e-10
        rng = np.random.default_rng(2718)
        phis = np.append(np.logspace(-10.0, math.log10(0.5 * math.pi), 60), 0.5 * math.pi)
        for dim in range(2, 9):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            u = np.linalg.qr(g)[0]
            for phi in phis:
                alpha = rng.uniform(-math.pi, math.pi)
                b = math.cos(phi) * u[:, 0] + np.exp(1j * alpha) * math.sin(phi) * u[:, 1]
                assert abs(ray_angle(u[:, 0], b) - phi) <= 8.0 * EPS, (dim, phi)

    def test_leg_guard_trips_at_every_angle(self, monkeypatch):
        grid = np.concatenate(
            ([0.0], np.logspace(-12.0, -5.0, 15), np.linspace(0.0, 0.5 * math.pi, 41))
        )
        arctan2 = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda y, x: arctan2(y, x) + 1e-6)
        for phi in grid:
            a, b = np.array([1.0, 0.0]), np.array([math.cos(phi), math.sin(phi)])
            with pytest.raises(FormulaError, match="contradicts its legs"):
                ray_angle(a, b)

    def test_one_pair_gives_a_float_and_a_stack_an_array(self):
        a, b = np.eye(2, dtype=complex)
        assert isinstance(ray_angle(a, b), float)
        assert ray_angle(np.array([a, a]), np.array([b, a])).tolist() == [0.5 * math.pi, 0.0]


def unit_pair(rng, dim, kind):
    """One pair of unit vectors: random, exactly parallel, or exactly orthogonal."""
    a = random_state(rng, dim).amplitudes
    if kind == "random":
        return a, random_state(rng, dim).amplitudes
    if kind == "parallel":
        return a, a * (1.0, -1.0, 1j, -1j)[rng.integers(4)]
    # disjoint supports make <a|b> exactly zero
    split = int(rng.integers(1, dim))
    head, tail = np.zeros(dim, complex), np.zeros(dim, complex)
    head[:split], tail[split:] = a[:split], a[split:]
    return head / np.linalg.norm(head), tail / np.linalg.norm(tail)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=8),
    kind=st.sampled_from(["random", "parallel", "orthogonal"]),
)
def test_unit_pairs_never_trip_the_leg_guard(seed, dim, kind):
    rng = np.random.default_rng(seed)
    a, b = (np.array(rows) for rows in zip(*(unit_pair(rng, dim, kind) for _ in range(32))))
    theta = ray_angle(a, b)
    assert np.all((0.0 <= theta) & (theta <= 0.5 * math.pi))
    if kind == "parallel":
        assert np.all(theta <= 4.0 * EPS)
    if kind == "orthogonal":
        assert np.all(theta == 0.5 * math.pi)


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
    assert ray_angle(a.amplitudes, rotated.amplitudes) < 0.5e-6


def test_ray_angle_is_exported_from_the_package():
    # the README names ray_angle as the package's one angle between two rays
    assert qgeo.ray_angle is qgeo.states.ray_angle
