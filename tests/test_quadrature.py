import math

import numpy as np
import pytest

from qgeo.errors import GridError
from qgeo.quadrature import _simpson_odd, _trapezoid, simpson_uniform


def test_exact_on_cubics():
    # composite Simpson integrates cubics exactly
    x = np.linspace(0.0, 2.0, 9)
    y = x**3 - 2.0 * x**2 + 5.0
    res = simpson_uniform(y, float(x[1] - x[0]))
    exact = 2.0**4 / 4.0 - 2.0 * 2.0**3 / 3.0 + 5.0 * 2.0
    assert res.value == pytest.approx(exact, rel=1e-14)
    assert not res.trapezoid_tail


def test_sine_convergence():
    errors = []
    for n in (17, 33, 65):
        x = np.linspace(0.0, math.pi, n)
        res = simpson_uniform(np.sin(x), float(x[1] - x[0]))
        errors.append(abs(res.value - 2.0))
    # fourth-order rule: doubling nodes shrinks the error ~16x
    assert errors[0] / errors[1] > 12.0
    assert errors[1] / errors[2] > 12.0


def test_error_estimate_brackets_true_error():
    x = np.linspace(0.0, math.pi, 33)
    res = simpson_uniform(np.sin(x), float(x[1] - x[0]))
    true_err = abs(res.value - 2.0)
    assert true_err <= res.error_estimate
    assert res.error_estimate < 1e-4


def test_even_node_count_flags_trapezoid_tail():
    x = np.linspace(0.0, 1.0, 8)
    res = simpson_uniform(x * x, float(x[1] - x[0]))
    assert res.trapezoid_tail
    # still accurate: Simpson on 7 nodes plus one trapezoid slice
    assert res.value == pytest.approx(1.0 / 3.0, abs=1e-2)


def test_constant_integrand_is_exact():
    res = simpson_uniform(np.full(21, 2.5), 0.1)
    assert res.value == pytest.approx(5.0, rel=1e-15)
    assert res.error_estimate == pytest.approx(0.0, abs=1e-14)


def test_too_few_samples():
    with pytest.raises(GridError):
        simpson_uniform(np.array([1.0, 2.0]), 0.1)


def test_bad_spacing():
    with pytest.raises(GridError):
        simpson_uniform(np.ones(5), 0.0)


@pytest.mark.parametrize("n", [5, 7, 8, 100_001])
def test_error_estimate_matches_the_always_trapezoid_rule_bit_for_bit(n):
    # the trapezoid is now taken only where the estimate reads it; the
    # estimate must be the bits of the rule that always took it
    rng = np.random.default_rng(n)
    y, dx = rng.uniform(0.5, 2.0, size=(3, n)), np.array([0.1, 0.25, 1.0 / (n - 1)])
    trapezoid = _trapezoid(y, dx=dx[:, np.newaxis], axis=-1)
    if n % 2 == 0:
        value = _simpson_odd(y[:, :-1], dx) + 0.5 * dx * (y[:, -2] + y[:, -1])
        expected = np.abs(value - trapezoid)
    elif n % 4 == 1:
        expected = np.abs(_simpson_odd(y, dx) - _simpson_odd(y[:, ::2], 2.0 * dx))
    else:
        expected = np.abs(_simpson_odd(y, dx) - trapezoid)
    assert simpson_uniform(y, dx).error_estimate.tobytes() == expected.tobytes()
    for row in range(3):
        one = simpson_uniform(y[row], dx[row]).error_estimate
        assert one == float(expected[row])
