"""SI-unit helpers for electron-spin realizations of the two-level presets.

Constants are pinned at their CODATA-2018 values so that reported numbers
never drift with the environment.
"""

from __future__ import annotations

import math

from .errors import require_positive_finite

#: Elementary charge, C (exact since the 2019 SI redefinition).
ELEMENTARY_CHARGE = 1.602176634e-19

#: Electron mass, kg.
ELECTRON_MASS = 9.1093837015e-31

#: Reduced Planck constant, J*s (exact: h = 6.62607015e-34 J*s).
HBAR_SI = 1.054571817e-34


def larmor_angular_frequency(b_parallel_tesla: float) -> float:
    """Spin precession rate e*B/m (rad/s) about a static field B (tesla)."""
    require_positive_finite(b_parallel_tesla=b_parallel_tesla)
    return ELEMENTARY_CHARGE * b_parallel_tesla / ELECTRON_MASS


def rabi_angular_frequency(b_perp_tesla: float) -> float:
    """Transverse-drive flipping rate e*B/(2m) (rad/s) for field B (tesla)."""
    require_positive_finite(b_perp_tesla=b_perp_tesla)
    return ELEMENTARY_CHARGE * b_perp_tesla / (2.0 * ELECTRON_MASS)


def larmor_frequency_hz(b_parallel_tesla: float) -> float:
    """Larmor frequency in Hz: e*B/(2*pi*m)."""
    return larmor_angular_frequency(b_parallel_tesla) / (2.0 * math.pi)
