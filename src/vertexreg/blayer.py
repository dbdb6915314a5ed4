"""Boundary-layer profiles of the limit equation.

Near the lateral boundary the rescaled solution develops a layer whose
shape is governed by an autonomous limit equation h_s = A h on the
half-line.  This module provides its stationary profiles g0 in closed
form, with their analytic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnsupportedOrder

# decaying root pair of the fourth-order symbol; lam**3 == 1/4 exactly
_LAM2 = 2.0 ** (-5.0 / 3.0) * complex(-1.0, math.sqrt(3.0))
_C2 = complex(1.0, -1.0 / math.sqrt(3.0))


@dataclass(frozen=True)
class BLProfile:
    """Stationary boundary-layer profile with its analytic derivatives."""

    m: int
    g0: Callable[[np.ndarray], np.ndarray]
    derivs_at_0: tuple
    stretch_exponent: float

    def deriv(self, xi, order: int):
        """Analytic derivative of g0; order 0 returns g0 itself."""
        if not 0 <= order <= 4:
            raise ValueError("derivative order must be in 0..4")
        xi = np.asarray(xi, dtype=float)
        if order == 0:
            return self.g0(xi)
        if self.m == 1:
            return -((-0.5) ** order) * np.exp(-xi / 2.0)
        return -np.real(_C2 * _LAM2 ** order * np.exp(_LAM2 * xi))

    def residual(self, xi):
        """Pointwise value of A g0; vanishes identically for the profile."""
        if self.m == 1:
            return self.deriv(xi, 2) + self.deriv(xi, 1) / 2.0
        return -self.deriv(xi, 4) + self.deriv(xi, 1) / 4.0


def bl_profile(m: int) -> BLProfile:
    """Closed-form stationary profile of the limit equation.

    m=1 gives 1 - exp(-xi/2); m=2 the clamped oscillatory-decay profile
    built from the complex root pair with negative real part.
    """
    if m == 1:
        def g0(xi):
            return 1.0 - np.exp(-np.asarray(xi, dtype=float) / 2.0)

        derivs = (0.5, -0.25, 0.125)
    elif m == 2:
        def g0(xi):
            xi = np.asarray(xi, dtype=float)
            return 1.0 - np.real(_C2 * np.exp(_LAM2 * xi))

        derivs = (0.0, 2.0 ** (-4.0 / 3.0), -0.25)
    else:
        raise UnsupportedOrder(f"no boundary-layer profile for m={m}")
    return BLProfile(m=m, g0=g0, derivs_at_0=derivs,
                     stretch_exponent=2.0 * m / (2.0 * m - 1.0))
