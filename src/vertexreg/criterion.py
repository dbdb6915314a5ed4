"""Scalar regularity criteria for the vertex amplitude.

The inner expansion of the rescaled solution collapses the regularity
question onto one nonautonomous ODE for ln a0, the leading-mode
amplitude at the vertex: the vertex is regular exactly when every
solution decays to -infinity.  This module assembles those systems for
the second-order (m=1) and bi-harmonic (m=2) problems, integrates them
over many decades of tau, issues finite-horizon verdicts, and provides
the closed-form and iterated comparison solutions used as independent
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad, solve_ivp
from scipy.optimize import brentq

from . import spectral
from ._csvtable import write_csv
from .blayer import bl_profile
from .errors import (ConfigError, DomainError, NoConvergence, QuadratureError,
                     StiffnessError)
from .funcs import Kappa, SlowGrowthFn, lookup

_SQRT_PI = math.sqrt(math.pi)
_LN_UNDERFLOW = -745.0  # exp() underflows to 0 just below this
_MAX_TAU = 1.0e12
_PERIOD_CAP = 1.0e5  # most carrier half-periods a period sum will integrate

# The m=2 linear term uses the kernel itself up to phi = _M2_SWITCHOVER and
# its asymptotic form, fitted on y in _M2_FIT_WINDOW, beyond
_M2_SWITCHOVER = 20.0
_M2_FIT_WINDOW = (5.0, 15.0)

DEFAULT_THRESHOLDS = {
    "drop": 10.0,        # required fall of ln a0 below its initial value
    "slope": -0.05,      # required trend d(ln a0)/d(ln tau) over last decade
    "plateau": 0.5,      # max |change| over the last decade to call a plateau
    "min_decades": 3.0,  # shorter trajectories stay Inconclusive
}


# -- types --------------------------------------------------------------------

@dataclass(frozen=True)
class M2Constants:
    """Constants of the bi-harmonic linear term.

    C3 and C4 combine the kernel's fitted asymptotic amplitudes with the
    boundary-layer matching constants gamma1, gamma2; the carrier decay
    d0 and wavenumber b0 are exact.
    """

    C3: float
    C4: float
    gamma1: float
    gamma2: float
    d0: float
    b0: float
    alpha: float
    delta0: float
    C1: float
    C2: float
    d_fit: float
    b_fit: float


@dataclass(frozen=True)
class CriterionODE:
    """Assembled 1D system d(ln a0)/dtau = linear(tau) + nonlinear(tau, ln a0)."""

    m: int
    kind: str
    phi: SlowGrowthFn
    kappa: Kappa
    radial_exponent: int
    m2_constants: Optional[M2Constants]
    rhs: Callable
    linear_rhs: Callable
    nonlinear_rhs: Callable


@dataclass(frozen=True)
class CriterionTrajectory:
    """Integrated path of ln a0 with the rhs split recorded alongside."""

    ode: CriterionODE
    tau: np.ndarray
    ln_a0: np.ndarray
    rhs_linear: np.ndarray
    rhs_nonlinear: np.ndarray
    ln_a0_init: float
    tau0: float
    tau_max: float
    tol: float
    underflow: bool
    ref: str

    @property
    def decades(self) -> float:
        return math.log10(self.tau[-1] / self.tau[0])


@dataclass(frozen=True)
class RegularityVerdict:
    verdict: str
    ln_a0_final: float
    trend_slope: float
    certificate: Optional[str]
    trajectory_ref: str
    thresholds: dict = field(default_factory=dict)

    def as_record(self, scenario_id: Optional[str] = None) -> dict:
        rec = {
            "verdict": self.verdict,
            "ln_a0_final": self.ln_a0_final,
            "trend_slope": self.trend_slope,
            "certificate": self.certificate,
            "trajectory_ref": self.trajectory_ref,
            "thresholds": dict(self.thresholds),
        }
        if scenario_id is not None:
            rec["scenario"] = scenario_id
        return rec


@dataclass(frozen=True)
class IterationResult:
    """Lower-bound iterates and the finite-horizon irregularity evidence."""

    tau: np.ndarray
    iterates: tuple
    margin: float
    trend: float
    certificate: Optional[str]
    converged: bool
    final_gap: float


@dataclass(frozen=True)
class OsgoodDiniResult:
    diverges: bool
    tail_slope: float
    ell: np.ndarray
    partial: np.ndarray


@dataclass(frozen=True)
class NegligibilityResult:
    max_ratio: float
    tau_at_max: float
    tau: np.ndarray
    ratio: np.ndarray


# -- helpers ------------------------------------------------------------------

def _amplitude(ln_a0, u_max: float):
    """Map ln a0 to the kappa argument, clipped into (0, u_max]."""
    a = np.exp(np.minimum(np.asarray(ln_a0, dtype=float), 0.0))
    return np.clip(a, 1e-320, u_max)


def _fit_m2_constants(kernel) -> M2Constants:
    consts = kernel.constants
    fit = spectral.kernel_asymptotic_fit(kernel, _M2_FIT_WINDOW)
    profile = bl_profile(2)
    g1 = profile.derivs_at_0[1]
    g2 = profile.derivs_at_0[2]
    # rotate the fitted sine/cosine pair of F into the single-cosine form
    # of the product g2*phi*F + g1*phi^(2/3)*F'
    scale = g2 - g1 * consts.alpha * fit.d_fit
    cross = g1 * consts.alpha * fit.b_fit
    a_sin = scale * fit.C1 - cross * fit.C2
    a_cos = scale * fit.C2 + cross * fit.C1
    return M2Constants(
        C3=float(np.hypot(a_cos, a_sin)), C4=math.atan2(-a_sin, a_cos),
        gamma1=g1, gamma2=g2, d0=consts.d0, b0=consts.b0, alpha=consts.alpha,
        delta0=consts.delta0, C1=fit.C1, C2=fit.C2, d_fit=fit.d_fit, b_fit=fit.b_fit)


def _m1_linear_value(ph):
    """The m=1 linear term -phi e^{-phi^2/4} / (4 sqrt(pi))."""
    return -(1.0 / (4.0 * _SQRT_PI)) * ph * np.exp(-ph * ph / 4.0)


def _m2_linear_parts(m2c: M2Constants, kernel):
    """Composite evaluators for the m=2 linear term and the bare kernel:
    exact up to phi = _M2_SWITCHOVER, the fitted asymptotic form beyond."""

    def split(exact, asymptotic):
        def value(ph):
            out = np.empty_like(ph)
            mask = ph <= _M2_SWITCHOVER
            if mask.any():
                out[mask] = exact(ph[mask])
            if (~mask).any():
                pp = ph[~mask]
                out[~mask] = asymptotic(pp, pp ** m2c.alpha)
            return out
        return value

    kernel_value = split(
        kernel.F,
        lambda pp, t: (pp ** (-m2c.delta0)
                       * (m2c.C1 * np.sin(m2c.b_fit * t)
                          + m2c.C2 * np.cos(m2c.b_fit * t))
                       * np.exp(-m2c.d_fit * t)))
    linear_value = split(
        lambda pm: (m2c.gamma2 * pm * kernel.F(pm)
                    + m2c.gamma1 * pm ** (2.0 / 3.0) * kernel.F_deriv(pm, 1)),
        lambda pp, t: (pp ** (2.0 / 3.0) * m2c.C3
                       * np.cos(m2c.b0 * t + m2c.C4)
                       * np.exp(-m2c.d0 * t)))
    return linear_value, kernel_value


def _bl_gradient_quartic() -> float:
    """int_0^inf (g0')^4 dxi for the m=2 profile (gradient-term weight)."""
    profile = bl_profile(2)
    xi = np.linspace(0.0, 80.0, 16001)
    return float(np.trapezoid(profile.deriv(xi, 1) ** 4, xi))


# -- building the systems -----------------------------------------------------

def build_criterion(m: int, kind: str, phi: SlowGrowthFn, kappa: Kappa,
                    radial_exponent: int = 1) -> CriterionODE:
    """Assemble the amplitude ODE for the given problem order and reaction kind.

    radial_exponent is the radial dimension N; it multiplies the linear
    term by phi^(N-1). m=2 uses the default kernel.
    """
    if m not in (1, 2) or kind not in ("multiplicative", "gradient"):
        raise ConfigError(f"unsupported criterion combination (m={m}, kind={kind!r})")
    if radial_exponent < 1:
        raise ConfigError("radial_exponent must be a positive integer")

    m2c = None
    kernel_value = None
    if m == 2:
        kernel = spectral.default_kernel(2)
        m2c = _fit_m2_constants(kernel)
        linear_value, kernel_value = _m2_linear_parts(m2c, kernel)
    else:
        linear_value = _m1_linear_value

    n_extra = radial_exponent - 1

    def linear_rhs(tau):
        arr = np.atleast_1d(np.asarray(tau, dtype=float))
        ph = np.asarray(phi.phi(arr), dtype=float)
        out = linear_value(ph) * ph ** n_extra
        return float(out[0]) if np.ndim(tau) == 0 else out

    u_max = kappa.u_max
    if kind == "multiplicative":
        def nonlinear_rhs(tau, ln_a0):
            return kappa.kappa(_amplitude(ln_a0, u_max)) + 0.0 * np.asarray(tau, dtype=float)
    elif m == 1:
        grad_coef = 1.0 / (8.0 * _SQRT_PI)

        def nonlinear_rhs(tau, ln_a0):
            a = _amplitude(ln_a0, u_max)
            ph = np.asarray(phi.phi(np.asarray(tau, dtype=float)), dtype=float)
            return grad_coef * kappa.kappa(a) * a ** 2 * ph ** 3 * np.exp(-ph * ph / 4.0)
    else:
        quartic = _bl_gradient_quartic()

        def nonlinear_rhs(tau, ln_a0):
            a = _amplitude(ln_a0, u_max)
            arr = np.atleast_1d(np.asarray(tau, dtype=float))
            ph = np.asarray(phi.phi(arr), dtype=float)
            out = quartic * kappa.kappa(a) * a ** 4 * ph ** 5 * kernel_value(ph)
            return float(out[0]) if np.ndim(tau) == 0 and np.ndim(ln_a0) == 0 else out

    def rhs(tau, ln_a0):
        return linear_rhs(tau) + nonlinear_rhs(tau, ln_a0)

    return CriterionODE(m=m, kind=kind, phi=phi, kappa=kappa,
                        radial_exponent=radial_exponent, m2_constants=m2c,
                        rhs=rhs, linear_rhs=linear_rhs,
                        nonlinear_rhs=nonlinear_rhs)


# -- integration and verdicts ---------------------------------------------------

def integrate(ode: CriterionODE, ln_a0_init: float, tau0: float,
              tau_max: float, tol: float = 1e-10) -> CriterionTrajectory:
    """March ln a0 from tau0 to tau_max on a logarithmic tau grid.

    Works in sigma = ln tau and in ln a0 throughout, so decay far below
    the floating-point range of a0 itself stays representable.  Reaching
    ln a0 = -745 ends the run early with the underflow flag set; leaving
    through ln a0 = 0 (amplitude above 1) raises DomainError.
    """
    if not 1e-12 <= tol <= 1e-6:
        raise ConfigError(f"tol must lie in [1e-12, 1e-6], got {tol:g}")
    if tau0 < ode.phi.tau_min:
        raise ConfigError(f"tau0={tau0:g} below phi.tau_min={ode.phi.tau_min:g}")
    if not tau0 < tau_max <= _MAX_TAU:
        raise ConfigError(f"need tau0 < tau_max <= {_MAX_TAU:g}")
    if not _LN_UNDERFLOW <= ln_a0_init <= 0.0:
        raise DomainError(f"ln_a0_init={ln_a0_init:g} outside [{_LN_UNDERFLOW:g}, 0]")

    s0, s1 = math.log(tau0), math.log(tau_max)

    def rhs_sigma(s, y):
        t = math.exp(s)
        return [t * float(ode.rhs(t, y[0]))]

    def hit_underflow(s, y):
        return y[0] - _LN_UNDERFLOW
    hit_underflow.terminal = True
    hit_underflow.direction = -1

    def hit_overflow(s, y):
        return y[0] - 1e-9
    hit_overflow.terminal = True
    hit_overflow.direction = 1

    n_points = max(300, int(150.0 * (s1 - s0) / math.log(10.0)))
    t_eval = np.linspace(s0, s1, n_points)
    sol = solve_ivp(rhs_sigma, (s0, s1), [float(ln_a0_init)], method="LSODA",
                    rtol=tol, atol=tol, t_eval=t_eval, max_step=0.25,
                    events=(hit_underflow, hit_overflow))
    if len(sol.t_events[1]):
        raise DomainError(
            f"amplitude overflow: ln a0 reached 0 at tau={math.exp(sol.t_events[1][0]):.4g}")
    underflow = bool(len(sol.t_events[0]))
    if not sol.success and not underflow:
        raise StiffnessError(f"integration stalled: {sol.message}")

    sigmas = sol.t
    values = sol.y[0]
    if underflow:
        sigmas = np.append(sigmas, sol.t_events[0][0])
        values = np.append(values, sol.y_events[0][0][0])
    tau = np.exp(sigmas)
    lin = np.asarray(ode.linear_rhs(tau), dtype=float)
    nonlin = np.asarray(ode.nonlinear_rhs(tau, values), dtype=float)
    ref = (f"m{ode.m}-{ode.kind}-{ode.phi.name}-{ode.kappa.name}"
           f"-tau{tau0:g}-{tau_max:g}")
    return CriterionTrajectory(ode=ode, tau=tau, ln_a0=values, rhs_linear=lin,
                               rhs_nonlinear=nonlin, ln_a0_init=float(ln_a0_init),
                               tau0=tau0, tau_max=tau_max, tol=tol,
                               underflow=underflow, ref=ref)


def verdict(trajectory: CriterionTrajectory, thresholds: Optional[dict] = None,
            certificate: Optional[str] = None) -> RegularityVerdict:
    """Classify a trajectory as Regular / Irregular / Inconclusive.

    The thresholds are finite-horizon heuristics and are echoed into the
    verdict; an irregularity certificate attached by the caller forces
    Irregular.
    """
    th = dict(DEFAULT_THRESHOLDS)
    for key, val in (thresholds or {}).items():
        if key not in th:
            raise ConfigError(f"unknown verdict threshold {key!r}")
        th[key] = float(val)

    tau = trajectory.tau
    x = trajectory.ln_a0
    mask = tau >= tau[-1] / 10.0
    if int(mask.sum()) >= 2:
        slope = float(np.polyfit(np.log(tau[mask]), x[mask], 1)[0])
    else:
        slope = 0.0
    final = float(x[-1])

    def make(verdict_name, cert):
        return RegularityVerdict(verdict=verdict_name, ln_a0_final=final,
                                 trend_slope=slope, certificate=cert,
                                 trajectory_ref=trajectory.ref, thresholds=th)

    if certificate is not None:
        return make("Irregular", certificate)
    if trajectory.underflow:
        return make("Regular",
                    f"amplitude underflow: ln a0 reached {_LN_UNDERFLOW:g} "
                    f"at tau={tau[-1]:.4g}")
    if trajectory.decades < th["min_decades"]:
        return make("Inconclusive", None)
    if final < trajectory.ln_a0_init - th["drop"] and slope < th["slope"]:
        return make("Regular", None)
    mid = float(np.interp(math.log(tau[-1] / 10.0), np.log(tau), x))
    if abs(final - mid) < th["plateau"]:
        return make("Irregular", None)
    return make("Inconclusive", None)


# -- comparison solutions -------------------------------------------------------

def _linear_in_ln_tau(s: float, ode: CriterionODE) -> float:
    """The linear term per unit ln tau, at ln tau = s."""
    t = math.exp(s)
    return t * ode.linear_rhs(t)


def _period_sum(ode: CriterionODE, s0: float, s1: float):
    """Integrate the m=2 linear term in ln tau, one carrier half-period at a time.

    The cuts are s0, every point where the carrier phase b0 phi^alpha + C4
    crosses pi/2 + k pi, and s1; one quad value per piece between them.
    Returns (cuts, pieces, flags); flags names each piece whose quad
    returned an error flag, with its error estimate and quad's message.
    """
    m2c = ode.m2_constants

    def phase(s):
        return m2c.b0 * float(ode.phi.phi(math.exp(s))) ** m2c.alpha + m2c.C4

    th0, th1 = phase(s0), phase(s1)
    if (th1 - th0) / math.pi > _PERIOD_CAP:
        raise QuadratureError(
            f"period sum needs {(th1 - th0) / math.pi:.3g} segments; "
            f"integrand oscillates too fast for phi={ode.phi.name!r}")
    cuts = [s0]
    k = math.ceil((th0 - math.pi / 2.0) / math.pi)
    target = math.pi / 2.0 + k * math.pi
    lo = s0
    while target < th1:
        if target > th0:
            cuts.append(brentq(lambda s: phase(s) - target, lo, s1, xtol=1e-13))
            lo = cuts[-1]
        target += math.pi
    cuts.append(s1)
    pieces, flags = [], []
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        val, abserr, *rest = quad(_linear_in_ln_tau, a, b, args=(ode,),
                                  epsabs=1e-13, epsrel=1e-10, limit=200,
                                  full_output=1)
        pieces.append(val)
        if len(rest) > 1:  # quad appends its message only when it flags
            message = " ".join(rest[1].splitlines()[0].split())
            flags.append(f"quad flagged half-period {i} of {len(cuts) - 1} "
                         f"(tau {math.exp(a):.4g} to {math.exp(b):.4g}, "
                         f"abserr {abserr:.2g}): {message}")
    return cuts, pieces, flags


def linear_closed_form(m: int, phi: SlowGrowthFn, tau: float,
                       tau0: float) -> float:
    """Quadrature value of ln a0(tau) - ln a0(tau0) for the kappa=0 system.

    m=1 integrates the sign-definite linear term directly; m=2 splits
    the oscillatory integrand at the zeros of its cosine carrier and
    sums the pieces, raising QuadratureError if quad flags any piece.
    """
    if tau <= tau0:
        raise ValueError("need tau > tau0")
    ode = build_criterion(m, "multiplicative", phi, lookup("zero-kappa"))
    s0, s1 = math.log(tau0), math.log(tau)
    if m == 1:
        val, _ = quad(_linear_in_ln_tau, s0, s1, args=(ode,),
                      epsabs=1e-13, epsrel=1e-11, limit=500)
        return val
    _, pieces, flags = _period_sum(ode, s0, s1)
    if flags:
        raise QuadratureError("; ".join(flags))
    return sum(pieces)


def irregularity_iteration(ode: CriterionODE, n_iters: int = 8, *,
                           ln_a0_init: float = -3.0,
                           tau0: Optional[float] = None,
                           tau_max: float = 1.0e12,
                           n_points: int = 8000) -> IterationResult:
    """Lower-bound iteration for reactions that may defeat the linear decay.

    Starts from the linear comparison solution (amplitude capped at 1),
    then re-integrates with kappa evaluated on the previous iterate.
    The certificate tests whether the full right-hand side, evaluated
    along the linear comparison solution, trends positive over the last
    decade: if so the decay cannot continue and the vertex is flagged
    irregular.  Without a certificate this raises NoConvergence carrying
    the partial result.
    """
    if ode.kind != "multiplicative":
        raise ConfigError("irregularity iteration applies to multiplicative reactions")
    probe = np.geomspace(1e-12, ode.kappa.u_max, 64)
    vals = np.asarray(ode.kappa.kappa(probe), dtype=float)
    if not (np.all(vals > 0.0) and np.all(np.diff(vals) >= -1e-15)):
        raise ValueError("irregularity iteration needs a positive increasing kappa")
    if tau0 is None:
        tau0 = max(ode.phi.tau_min, 10.0)

    sg = np.linspace(math.log(tau0), math.log(tau_max), n_points)
    tau = np.exp(sg)
    lin = np.asarray(ode.linear_rhs(tau), dtype=float)

    def advance(integrand):
        path = ln_a0_init + cumulative_trapezoid(integrand, sg, initial=0.0)
        return np.minimum(path, 0.0)

    iterates = [advance(tau * lin)]
    gap = math.inf
    for _ in range(n_iters):
        kap = np.asarray(ode.kappa.kappa(_amplitude(iterates[-1], ode.kappa.u_max)),
                         dtype=float)
        nxt = advance(tau * (lin + kap))
        gap = float(np.max(np.abs(nxt - iterates[-1])))
        iterates.append(nxt)
        if gap < 1e-10:
            break

    first_order = tau * (lin + np.asarray(
        ode.kappa.kappa(_amplitude(iterates[0], ode.kappa.u_max)), dtype=float))
    mask = tau >= tau_max / 10.0
    margin = float(np.mean(first_order[mask]))
    trend = float(np.polyfit(sg[mask], first_order[mask], 1)[0])
    converged = gap < 1e-10

    certificate = None
    if margin > 0.0:
        certificate = (f"irregularity evidence: rhs along the linear comparison "
                       f"solution averages {margin:+.4g} (in d ln tau) over "
                       f"tau in [{tau_max / 10.0:.3g}, {tau_max:.3g}]")
    result = IterationResult(tau=tau, iterates=tuple(iterates), margin=margin,
                             trend=trend, certificate=certificate,
                             converged=converged, final_gap=gap)
    if certificate is None:
        raise NoConvergence(
            f"no irregularity certificate after {n_iters} iterates "
            f"(last-decade margin {margin:+.4g})", record=result)
    return result


def osgood_dini_check(kappa: Kappa, *, ell_max: float = 690.0,
                      n_points: int = 6000) -> OsgoodDiniResult:
    """Divergence test for the small-amplitude integral of 1/(z |kappa(z)|).

    Works in ell = -ln z, where the integral becomes int d(ell)/|kappa|;
    divergence is read off the log-log growth of the partial integrals.
    """
    ell0 = max(-math.log(kappa.u_max), 1.0)
    ell = np.linspace(ell0, ell_max, n_points)
    with np.errstate(over="ignore", divide="ignore"):
        mag = np.abs(np.asarray(kappa.kappa(np.exp(-ell)), dtype=float))
    integrand = 1.0 / np.clip(mag, 1e-290, None)
    partial = cumulative_trapezoid(integrand, ell, initial=0.0)
    tail = ell >= ell_max / 10.0
    with np.errstate(divide="ignore"):
        slope = float(np.polyfit(np.log(ell[tail]),
                                 np.log(np.clip(partial[tail], 1e-300, None)),
                                 1)[0])
    return OsgoodDiniResult(diverges=slope > 0.05, tail_slope=slope,
                            ell=ell, partial=partial)


def gradient_negligibility(phi: SlowGrowthFn, kappa: Kappa,
                           horizon=(1e2, 1e6), *, ln_a0_init: float = -1.0,
                           tau0: float = 10.0, n_points: int = 4000,
                           freeze_amplitude: Optional[float] = None
                           ) -> NegligibilityResult:
    """Peak ratio of the gradient reaction term to the linear term (m=1).

    Evaluated along the linear comparison solution; the ratio is
    |kappa(a)| a^2 phi^2 / 2 and must decay for the gradient term to be
    negligible.  freeze_amplitude pins a instead (degenerate diagnostic
    showing why amplitude decay matters).
    """
    lo, hi = horizon
    sg = np.linspace(math.log(tau0), math.log(hi), n_points)
    tau = np.exp(sg)
    ph = np.asarray(phi.phi(tau), dtype=float)
    lin = _m1_linear_value(ph)
    if freeze_amplitude is None:
        x = ln_a0_init + cumulative_trapezoid(tau * lin, sg, initial=0.0)
        a = _amplitude(x, kappa.u_max)
    else:
        a = np.full_like(tau, min(freeze_amplitude, kappa.u_max))
    ratio = 0.5 * np.abs(np.asarray(kappa.kappa(a), dtype=float)) * a ** 2 * ph ** 2
    window = (tau >= lo) & (tau <= hi)
    idx = int(np.argmax(np.where(window, ratio, -np.inf)))
    return NegligibilityResult(max_ratio=float(ratio[idx]),
                               tau_at_max=float(tau[idx]),
                               tau=tau[window], ratio=ratio[window])


# -- exports --------------------------------------------------------------------

def export_trajectory_csv(trajectory: CriterionTrajectory, path: str) -> None:
    """Write (tau, ln a0, linear rhs, nonlinear rhs) rows to a CSV file."""
    write_csv(path, ["tau", "ln_a0", "rhs_linear", "rhs_nonlinear"],
              zip(trajectory.tau, trajectory.ln_a0,
                  trajectory.rhs_linear, trajectory.rhs_nonlinear))
