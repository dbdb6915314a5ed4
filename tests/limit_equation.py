"""Truncated-domain solver for the boundary-layer limit equation h_s = A h.

Test helper behind acceptance 9: it confirms that the closed-form profile
g0 of vertexreg.blayer attracts nearby initial data while the associated
Lyapunov functional decays. It also gives the characteristic roots of A,
which the closed forms of g0 are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from vertexreg._csvtable import write_csv
from vertexreg.blayer import BLProfile, bl_profile
from vertexreg.errors import UnsupportedOrder


class InstabilityError(RuntimeError):
    """Discrete Lyapunov value increased beyond the solver tolerance."""


@dataclass(frozen=True)
class CharacteristicRoots:
    """Roots of the limit operator's symbol, with decay flags."""

    m: int
    symbol: tuple
    roots: tuple
    decaying: tuple


@dataclass(frozen=True)
class LimitTrajectory:
    """Time-stepped limit-equation run with Lyapunov diagnostics."""

    m: int
    xi: np.ndarray
    s: np.ndarray
    h: np.ndarray
    lyapunov: np.ndarray
    weighted_distance: np.ndarray
    sup_distance: np.ndarray


def characteristic_roots(m: int) -> CharacteristicRoots:
    """Roots of the symbol of A: lam^2 + lam/2 (m=1), -lam^4 + lam/4 (m=2)."""
    if m == 1:
        symbol = (1.0, 0.5, 0.0)
    elif m == 2:
        symbol = (-1.0, 0.0, 0.0, 0.25, 0.0)
    else:
        raise UnsupportedOrder(f"no limit-operator symbol for m={m}")
    raw = np.roots(symbol)
    raw = sorted(raw, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    roots = tuple(complex(z) for z in raw)
    decaying = tuple(z.real < -1e-12 for z in roots)
    return CharacteristicRoots(m=m, symbol=symbol, roots=roots,
                               decaying=decaying)


def _validate_initial(m: int, xi: np.ndarray, h: np.ndarray) -> None:
    if abs(h[0]) > 1e-8:
        raise ValueError("initial profile must vanish at xi=0")
    if abs(h[-1] - 1.0) > 1e-6:
        raise ValueError("initial profile must reach 1 at the far end")
    if m == 2 and abs(h[1] - h[0]) / (xi[1] - xi[0]) > 0.1:
        raise ValueError("clamped problem needs zero slope at xi=0")


def _m1_stepper(xi: np.ndarray, ds: float):
    """Implicit conservation-form step for h_s = h_xx + h_x/2.

    Written as e^{-xi/2} (e^{xi/2} h_x)_x with midpoint fluxes, which
    keeps the closed-form profile an exact discrete steady state.
    """
    n = xi.size
    d = xi[1] - xi[0]
    flux_w = np.exp((xi[:-1] + xi[1:]) / 4.0)
    node_w = np.exp(xi / 2.0)
    ni = n - 2
    band = np.zeros((3, ni))
    lower = ds * flux_w[:-1][:ni] / (d * d * node_w[1:-1])
    upper = ds * flux_w[1:][:ni] / (d * d * node_w[1:-1])
    band[1, :] = 1.0 + lower + upper
    band[0, 1:] = -upper[:-1]
    band[2, :-1] = -lower[1:]
    rhs_fix = np.zeros(ni)
    rhs_fix[-1] = upper[-1]  # far-end value clamped to 1; ds already inside

    def step(h):
        h[1:-1] = solve_banded((1, 1), band, h[1:-1] + rhs_fix)

    return step


def _m2_stepper(xi: np.ndarray, ds: float):
    """Implicit pentadiagonal step for h_s = -h_xxxx + h_x/4.

    Clamped ends: mirror ghosts enforce zero slope at both boundaries
    and the far-end value 1 enters through a constant right-hand side.
    """
    n = xi.size
    d = xi[1] - xi[0]
    ni = n - 2
    c4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / d ** 4
    inv2d = 1.0 / (2.0 * d)
    band = np.zeros((5, ni))
    rhs_fix = np.zeros(ni)
    for j in range(ni):
        i = j + 1
        coefs = {i - 2: -c4[0], i - 1: -c4[1], i: -c4[2],
                 i + 1: -c4[3], i + 2: -c4[4]}
        coefs[i + 1] += inv2d / 4.0
        coefs[i - 1] -= inv2d / 4.0
        folded: dict = {}
        for k, v in coefs.items():
            if k == -1:
                folded[1] = folded.get(1, 0.0) + v
            elif k == 0:
                pass  # h(0) = 0
            elif k == n - 1:
                rhs_fix[j] += v  # h(Xi) = 1
            elif k == n:
                folded[n - 2] = folded.get(n - 2, 0.0) + v
            else:
                folded[k] = folded.get(k, 0.0) + v
        for k, v in folded.items():
            band[2 + j - (k - 1), k - 1] += -ds * v
        band[2, j] += 1.0

    def step(h):
        h[1:-1] = solve_banded((2, 2), band, h[1:-1] + ds * rhs_fix)

    return step


def solve_limit_equation(m: int, h0: Callable[[np.ndarray], np.ndarray],
                         steps: Optional[int] = None, *,
                         Xi: Optional[float] = None, dxi: float = 0.05,
                         ds: float = 0.1) -> LimitTrajectory:
    """Evolve the truncated limit equation and record its Lyapunov decay.

    h0 is evaluated on the uniform grid and clamped to the boundary
    values 0 and 1.  The recorded functional is the weighted gradient
    energy of h (m=1) or the plain gradient energy of h - g0 (m=2); any
    relative increase beyond 1e-12 in one step aborts the run.
    """
    if m not in (1, 2):
        raise UnsupportedOrder(f"limit-equation solver supports m in {{1,2}}, got {m}")
    if Xi is None:
        Xi = 60.0 if m == 1 else 120.0
    if Xi < 60.0:
        raise ValueError("truncation length Xi must be at least 60")
    if steps is None:
        steps = int(round((160.0 if m == 1 else 120.0) / ds))
    n = int(round(Xi / dxi)) + 1
    xi = np.linspace(0.0, Xi, n)
    d = xi[1] - xi[0]
    h = np.asarray(h0(xi), dtype=float).copy()
    _validate_initial(m, xi, h)
    h[0] = 0.0
    h[-1] = 1.0

    profile = bl_profile(m)
    g = profile.g0(xi)
    if m == 1:
        flux_w = np.exp((xi[:-1] + xi[1:]) / 4.0)
        node_w = np.exp(xi / 2.0)

        def lyap(hv):
            dh = np.diff(hv)
            return float(np.sum(flux_w * dh * dh) / d)

        def wdist(hv):
            w = hv - g
            return math.sqrt(float(np.sum(node_w * w * w)) * d)

        step = _m1_stepper(xi, ds)
    else:
        def lyap(hv):
            dw = np.diff(hv - g) / d
            return float(np.sum(dw * dw) * d)

        def wdist(hv):
            w = hv - g
            return math.sqrt(float(np.sum(w * w)) * d)

        step = _m2_stepper(xi, ds)

    lyapunov = np.empty(steps + 1)
    weighted = np.empty(steps + 1)
    sup = np.empty(steps + 1)
    lyapunov[0] = lyap(h)
    weighted[0] = wdist(h)
    sup[0] = float(np.max(np.abs(h - g)))
    for k in range(steps):
        step(h)
        lyapunov[k + 1] = lyap(h)
        weighted[k + 1] = wdist(h)
        sup[k + 1] = float(np.max(np.abs(h - g)))
        drop = lyapunov[k + 1] - lyapunov[k]
        if drop > 1e-12 * max(lyapunov[k], 1e-300):
            raise InstabilityError(
                f"Lyapunov value rose by {drop:.3e} at s={(k + 1) * ds:.2f}")
    return LimitTrajectory(m=m, xi=xi, s=np.arange(steps + 1) * ds, h=h,
                           lyapunov=lyapunov, weighted_distance=weighted,
                           sup_distance=sup)


def export_profile_csv(profile: BLProfile, xis: Sequence[float],
                       path: str) -> None:
    """Tabulate (xi, g0, g0', g0'') rows to a CSV file."""
    xis = np.asarray(xis, dtype=float)
    write_csv(path, ["xi", "g0", "dg0", "d2g0"],
              np.column_stack([xis] + [profile.deriv(xis, k) for k in range(3)]))


def export_trace_csv(traj: LimitTrajectory, path: str) -> None:
    """Write the Lyapunov trace (s, L, distances to g0) to a CSV file."""
    write_csv(path, ["s", "lyapunov", "weighted_distance", "sup_distance"],
              np.column_stack([traj.s, traj.lyapunov, traj.weighted_distance,
                               traj.sup_distance]))
