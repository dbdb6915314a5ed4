"""Integral regularity criteria and the transforms between their forms.

Three accumulation routines share one trace type: the heat-kernel integral
in tau, the Dini-Osgood density integral in ell = -ln h (ell = tau), and
the oscillatory fourth-order analogue summed between carrier zeros. The
two sign-definite forms take the ln of their integrands from the width, so
their tail tests see no underflow at any horizon. Classification is a
finite-horizon tail fit, never a theorem: marginal cases come back
Undetermined by design.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import criterion, funcs, spectral
from ._csvtable import write_csv
from ._quadrature import cumulative_trapezoid
from .errors import ConfigError, DomainError
from .funcs import SlowGrowthFn
from .tails import Classification, TailFit, classify_decay

__all__ = [
    "IntegralTrace",
    "petrovskii_integral",
    "dini_osgood_form",
    "biharmonic_linear_criterion",
    "envelope_exponent",
    "export_trace_csv",
]


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
    partial = cumulative_trapezoid(per_sigma, sigma, initial=0.0)
    cls, fit = classify_decay(tau, ln_f, float(partial[-1]))
    return IntegralTrace("tau", np.column_stack([tau, partial]), cls, fit)


def dini_osgood_form(phi: SlowGrowthFn, *, tau0: float = 10.0,
                     ell_max: float = 690.0,
                     n_points: int = 6000) -> IntegralTrace:
    """Accumulate the density form: integral of rho(h) sqrt|ln rho| dh/h.

    The density is rho = e^{-phi^2/4}, and the integral runs over ell =
    -ln h = tau from tau0 to ell_max, on tau's log-uniform grid, with ln rho
    = -phi(ell)^2/4 formed directly, so nothing underflows at any ell_max.
    Convergent here means irregular, divergent regular, mirroring
    petrovskii_integral through h = e^{-tau}: the two accumulations agree up
    to a factor 2. The trace's x column is h, which reads 0 past ell of
    about 745.
    """
    if tau0 < phi.tau_min:
        raise ConfigError("tau0=%g is below tau_min=%g" % (tau0, phi.tau_min))
    if ell_max <= tau0:
        raise ConfigError("need ell_max > tau0")
    ell = np.geomspace(tau0, ell_max, n_points)
    ph = np.asarray(phi.phi(ell), dtype=float)
    if not np.all(ph > 0.0):
        raise DomainError("phi must stay positive on [tau0, ell_max]")
    ln_r = -ph * ph / 4.0
    ln_f = ln_r + 0.5 * np.log(-ln_r)
    with np.errstate(under="ignore"):
        per_ell = np.exp(ln_f)
        h = np.exp(-ell)
    partial = cumulative_trapezoid(per_ell, ell, initial=0.0)
    cls, fit = classify_decay(ell, ln_f, float(partial[-1]))
    return IntegralTrace("h", np.column_stack([h, partial]), cls, fit)


def biharmonic_linear_criterion(phi: SlowGrowthFn, *, radial_exponent: int = 1,
                                tau0: float = 10.0,
                                tau_max: float = 1.0e9) -> IntegralTrace:
    """Accumulate the fourth-order linear criterion integral over carrier periods.

    Partial sums are taken at successive zeros of the oscillation carrier.
    DivergentToMinusInfinity signals the regular side, Bounded the
    irregular side; marginal oscillation (non-decaying alternating period
    contributions) stays Undetermined because deciding it would need the
    oscillatory cut-off construction, which this module does not attempt.
    The pieces are criterion._period_sum's Gauss rule, the one that sums
    the zero-kappa ODE; a piece whose error estimate never passed is
    named in the diagnostic.
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
    envelope_slope = envelope_exponent(phi, tau_lo=tau0, tau_hi=tau_max)
    # the carrier phase b0 phi^alpha moves b0/d0 times as far as the
    # envelope's exponent d0 phi^alpha over the horizon
    phase_move = (m2c.b0 / spectral.kernel_constants(2).d0
                  * envelope_slope * (s1 - s0))
    cuts, pieces, flags = criterion._period_sum(ode, s0, s1)
    partial = np.concatenate([[0.0], np.cumsum(pieces)])
    pv = np.column_stack([np.exp(cuts), partial])

    # half-period contributions strictly between carrier zeros; the head and
    # the final stub are parts of the integral but not of the alternation
    contribs = np.asarray(pieces[1:-1], dtype=float)
    diagnostic = ""
    extrapolation = math.nan
    if phase_move < 1.0e-3:
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
