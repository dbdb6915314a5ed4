"""Integral regularity criteria and the transforms between their forms.

Three accumulation routines share one trace type: the heat-kernel integral
in tau, the Dini-Osgood density integral in h, and the oscillatory
fourth-order analogue summed between carrier zeros. Classification is a
finite-horizon tail fit, never a theorem: marginal cases come back
Undetermined by design.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid

from . import criterion, funcs, spectral
from ._csvtable import write_csv
from .errors import ConfigError, DomainError
from .funcs import SlowGrowthFn

__all__ = [
    "Classification",
    "TailFit",
    "IntegralTrace",
    "petrovskii_integral",
    "dini_osgood_form",
    "biharmonic_linear_criterion",
    "envelope_exponent",
    "export_trace_csv",
]

# Declared fit margins: |p-1| below _P_MARGIN falls through to the slow-log
# refinement; |q+1| below _Q_MARGIN stays Undetermined. Finite-horizon
# quadrature cannot decide cases closer to marginal than this.
_P_MARGIN = 0.02
_Q_MARGIN = 0.05

# ln of the smallest positive subnormal float; density values at or below
# the clip are treated as quadrature-exact zero tail.
_LN_TINY = -700.0


class Classification(str, Enum):
    """Tail classes. The first three belong to sign-definite integrands,
    the last two to the oscillatory fourth-order criterion."""

    DIVERGENT = "Divergent"
    CONVERGENT = "Convergent"
    UNDETERMINED = "Undetermined"
    DIVERGENT_TO_MINUS_INFINITY = "DivergentToMinusInfinity"
    BOUNDED = "Bounded"


@dataclass(frozen=True)
class TailFit:
    """Power-law tail model of the integrand.

    slope is the fitted decay exponent p (integrand ~ x^-p); refinement is
    the slow-log exponent q fitted only when p is marginal. extrapolation
    is the predicted limit of the integral: +-inf for divergent traces,
    nan when undetermined.
    """

    slope: float
    refinement: Optional[float]
    window: tuple
    extrapolation: float


@dataclass(frozen=True)
class IntegralTrace:
    """Accumulated criterion integral with its tail classification.

    partial_values has one (x, accumulated) row per grid point; x is tau
    (increasing) or h (decreasing toward 0) depending on variable.
    """

    variable: str
    partial_values: np.ndarray
    classification: Classification
    fit: TailFit
    diagnostic: str = ""

    @property
    def total(self) -> float:
        return float(self.partial_values[-1, 1])


def _classify_decay(x, ln_f, total):
    """Tail fit of a nonnegative integrand given pointwise ln values.

    Fits ln f against ln x over the last two decades of x; points at the
    underflow floor are excluded from the fit (a floor-dominated tail is
    decisive convergence on its own).
    """
    window = x >= x[-1] / 100.0
    live = window & (ln_f > _LN_TINY)
    lo = float(x[window][0])
    if np.count_nonzero(live) < 8:
        return Classification.CONVERGENT, TailFit(
            math.inf, None, (lo, float(x[-1])), total)
    lx = np.log(x[live])
    lf = ln_f[live]
    p = -float(np.polyfit(lx, lf, 1)[0])
    q = None
    if p > 1.0 + _P_MARGIN:
        cls = Classification.CONVERGENT
    elif p < 1.0 - _P_MARGIN:
        cls = Classification.DIVERGENT
    else:
        q = float(np.polyfit(np.log(lx), lf + lx, 1)[0])
        if q > -1.0 + _Q_MARGIN:
            cls = Classification.DIVERGENT
        elif q < -1.0 - _Q_MARGIN:
            cls = Classification.CONVERGENT
        else:
            cls = Classification.UNDETERMINED
    if cls is Classification.CONVERGENT:
        extrapolation = total + math.exp(lf[-1]) * float(x[live][-1]) / (p - 1.0)
    elif cls is Classification.DIVERGENT:
        extrapolation = math.inf
    else:
        extrapolation = math.nan
    return cls, TailFit(p, q, (lo, float(x[-1])), extrapolation)


def petrovskii_integral(phi: SlowGrowthFn, N: int = 1, tau0: float = 10.0,
                        tau_max: float = 1.0e8, *,
                        n_points: int = 4000) -> IntegralTrace:
    """Accumulate the heat-kernel criterion integral of phi^N e^{-phi^2/4}.

    Divergent means the characteristic vertex is regular, Convergent means
    irregular. N is the radial dimension factor. The integrand is handled
    in logs so widths far beyond critical classify cleanly even when the
    pointwise values underflow.
    """
    if N < 1:
        raise ConfigError("radial dimension factor N must be >= 1, got %s" % N)
    if tau0 < phi.tau_min:
        raise ConfigError("tau0=%g is below tau_min=%g" % (tau0, phi.tau_min))
    if tau_max <= tau0:
        raise ConfigError("need tau_max > tau0")
    sigma = np.linspace(math.log(tau0), math.log(tau_max), n_points)
    tau = np.exp(sigma)
    ph = np.asarray(phi.phi(tau), dtype=float)
    if not np.all(ph > 0.0):
        raise DomainError("phi must stay positive on [tau0, tau_max]")
    ln_f = N * np.log(ph) - 0.25 * ph ** 2
    with np.errstate(under="ignore"):
        per_sigma = np.exp(ln_f + sigma)
    partial = np.concatenate([[0.0], cumulative_trapezoid(per_sigma, sigma)])
    cls, fit = _classify_decay(tau, ln_f, float(partial[-1]))
    return IntegralTrace("tau", np.column_stack([tau, partial]), cls, fit)


def dini_osgood_form(rho, *, h_max: float = 0.1, ell_max: float = 690.0,
                     n_points: int = 6000) -> IntegralTrace:
    """Accumulate the density form: integral of rho(h) sqrt|ln rho| dh/h.

    rho is a vectorized evaluator of the modulus density on (0, h_max],
    valued in (0,1). Convergent here means irregular, divergent regular,
    mirroring petrovskii_integral through h = e^{-tau}; for the density
    rho = e^{-phi^2/4} the two accumulations agree up to a factor 2.
    """
    if not 0.0 < h_max < 1.0:
        raise ConfigError("h_max must lie in (0, 1)")
    ell0 = -math.log(h_max)
    if ell_max <= ell0:
        raise ConfigError("ell_max=%g leaves no room below h_max=%g" % (ell_max, h_max))
    ell = np.linspace(ell0, ell_max, n_points)
    with np.errstate(under="ignore"):
        r = np.asarray(rho(np.exp(-ell)), dtype=float)
    if not np.all(np.isfinite(r)):
        raise DomainError("density returned a non-finite value")
    if np.any(r >= 1.0) or np.any(r < 0.0):
        raise DomainError("density must take values in (0, 1)")
    # exact zeros far out are float underflow of a legitimate density; the
    # same value at moderate h is a genuine domain violation
    if np.any(r[ell <= 300.0] <= 0.0):
        raise DomainError("density must stay positive for moderate h")
    ln_r = np.log(np.clip(r, 5e-324, None))
    ln_f = ln_r + 0.5 * np.log(-ln_r)
    with np.errstate(under="ignore"):
        per_ell = np.exp(ln_f)
    partial = np.concatenate([[0.0], cumulative_trapezoid(per_ell, ell)])
    cls, fit = _classify_decay(ell, ln_f, float(partial[-1]))
    return IntegralTrace("h", np.column_stack([np.exp(-ell), partial]), cls, fit)


def biharmonic_linear_criterion(phi: SlowGrowthFn, *, radial_exponent: int = 1,
                                tau0: float = 10.0,
                                tau_max: float = 1.0e9) -> IntegralTrace:
    """Accumulate the fourth-order linear criterion integral over carrier periods.

    Partial sums are taken at successive zeros of the oscillation carrier.
    DivergentToMinusInfinity signals the regular side, Bounded the
    irregular side; marginal oscillation (non-decaying alternating period
    contributions) stays Undetermined because deciding it would need the
    oscillatory cut-off construction, which this module does not attempt.
    Pieces whose quadrature came back flagged are named in the diagnostic.
    radial_exponent is the radial dimension N, as in build_criterion.
    """
    if tau0 < phi.tau_min:
        raise ConfigError("tau0=%g is below tau_min=%g" % (tau0, phi.tau_min))
    if tau_max <= tau0:
        raise ConfigError("need tau_max > tau0")
    ode = criterion.build_criterion(2, "multiplicative", phi,
                                    funcs.lookup("zero-kappa"), radial_exponent)
    m2c = ode.m2_constants
    s0, s1 = math.log(tau0), math.log(tau_max)
    spread = float(phi.phi(tau_max)) ** m2c.alpha - float(phi.phi(tau0)) ** m2c.alpha
    envelope_slope = envelope_exponent(phi, tau_lo=tau0, tau_hi=tau_max)
    cuts, pieces, flags = criterion._period_sum(ode, s0, s1)
    partial = np.concatenate([[0.0], np.cumsum(pieces)])
    pv = np.column_stack([np.exp(cuts), partial])

    # half-period contributions strictly between carrier zeros; the head and
    # the final stub are parts of the integral but not of the alternation
    contribs = np.asarray(pieces[1:-1], dtype=float)
    diagnostic = ""
    extrapolation = math.nan
    if m2c.b0 * spread < 1.0e-3:  # the carrier phase barely moves
        cls = Classification.UNDETERMINED
        diagnostic = ("integrand envelope does not decay: the width is "
                      "constant over the horizon")
    elif contribs.size < 4:
        mid = np.interp(0.5 * (s0 + s1), cuts, partial)
        if all(p < 0.0 for p in pieces) and abs(partial[-1]) > 1.5 * abs(mid):
            cls = Classification.DIVERGENT_TO_MINUS_INFINITY
            extrapolation = -math.inf
            diagnostic = ("sign-definite negative and growing "
                          "(pre-oscillatory regime)")
        else:
            cls = Classification.UNDETERMINED
            diagnostic = "too few oscillation half-periods to classify"
    else:
        amps = np.abs(contribs)
        alternating = bool(np.all(contribs[1:] * contribs[:-1] < 0.0))
        if alternating and amps[-2:].mean() < 0.5 * amps[:2].mean():
            cls = Classification.BOUNDED
            # alternating-series midpoint: the limit sits between
            # consecutive partial sums
            extrapolation = float(0.5 * (partial[-2] + partial[-3]))
        elif alternating:
            cls = Classification.UNDETERMINED
            diagnostic = ("alternating half-period contributions do not "
                          "decay; marginal without an oscillatory cut-off")
        else:
            cls = Classification.UNDETERMINED
            diagnostic = "half-period contributions do not alternate in sign"
    fit = TailFit(envelope_slope, None, (tau0, tau_max), extrapolation)
    diagnostic = "; ".join(filter(None, [diagnostic] + flags))
    return IntegralTrace("tau", pv, cls, fit, diagnostic)


def envelope_exponent(phi: SlowGrowthFn, *, tau_lo: float = 1.0e4,
                      tau_hi: float = 1.0e8) -> float:
    """Measured decay rate of the fourth-order oscillation envelope.

    Returns the divided difference of d0 phi^{4/3} per unit ln tau; for
    widths c (ln tau)^{3/4} this equals d0 c^{4/3} identically and the
    envelope is tau to the minus that power.
    """
    if tau_lo < phi.tau_min:
        raise ValueError("tau_lo=%g is below tau_min=%g" % (tau_lo, phi.tau_min))
    if tau_hi <= tau_lo:
        raise ValueError("need tau_hi > tau_lo")
    c = spectral.kernel_constants(2)
    return (c.d0 * (float(phi.phi(tau_hi)) ** c.alpha
                    - float(phi.phi(tau_lo)) ** c.alpha)
            / (math.log(tau_hi) - math.log(tau_lo)))


def export_trace_csv(trace: IntegralTrace, path: str) -> None:
    """Write (variable, partial value) rows; full float precision."""
    write_csv(path, [trace.variable, "partial_value"], trace.partial_values)
