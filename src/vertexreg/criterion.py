"""Scalar regularity criteria for the vertex amplitude.

The inner expansion of the rescaled solution collapses the regularity
question onto one nonautonomous ODE for ln a0, the leading-mode
amplitude at the vertex: the vertex is regular exactly when every
solution decays to -infinity.  This module assembles those systems for
the second-order (m=1) and bi-harmonic (m=2) problems, integrates them
over many decades of tau, and provides the m=2 period sum and the
iterated comparison solutions used as cross-checks. An m=1 verdict
fits the tail of the decay rate with the integral criteria's own test
(tails.classify_decay), so both routes answer one question.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _solvers, spectral, tails
from ._csvtable import write_csv
from ._quadrature import cumulative_trapezoid
from .blayer import bl_profile
from .errors import ConfigError, DomainError, QuadratureError, StiffnessError
from .funcs import Kappa, SlowGrowthFn

_SQRT_PI = math.sqrt(math.pi)
_LN_UNDERFLOW = -745.0  # exp() underflows to 0 just below this
_LN_CEILING = 1e-9  # ln a0 just past 0: the amplitude ceiling a0 = 1
_MAX_TAU = 1.0e12
_PERIOD_CAP = 1.0e5  # most carrier half-periods a period sum will integrate


# -- types --------------------------------------------------------------------

@dataclass(frozen=True)
class M2Constants:
    """Constants of the bi-harmonic linear term
    gamma2 phi F(phi) + gamma1 phi^(2/3) F'(phi).

    gamma1, gamma2 are the boundary-layer matching constants, b0 and alpha
    the kernel's wavenumber and stretching exponent, and C4 the phase of
    the term's cosine carrier b0 phi^alpha + C4 (_m2_constants).
    """

    C4: float
    gamma1: float
    gamma2: float
    b0: float
    alpha: float


@dataclass(frozen=True)
class CriterionODE:
    """Assembled 1D system d(ln a0)/dtau = linear(tau) + nonlinear(tau, ln a0):
    rhs is that sum, and integrate solves a kappa.linear system, whose
    nonlinear_rhs is 0, from linear_rhs alone."""

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
    """Integrated path of ln a0 with the rhs split recorded alongside.

    stop names the level that ended the run before the horizon:
    "underflow" (the floor), "ceiling", or None.
    """

    ode: CriterionODE
    tau: np.ndarray
    ln_a0: np.ndarray
    rhs_linear: np.ndarray
    rhs_nonlinear: np.ndarray
    ln_a0_init: float
    stop: Optional[str]
    ref: str

    @property
    def decades(self) -> float:
        return math.log10(self.tau[-1] / self.tau[0])


@dataclass(frozen=True)
class RegularityVerdict:
    """tail_exponent is the decay rate's fitted power p (rate ~ tau^-p; inf
    when the rate sank below the floor), or None when a stop, a certificate
    or the m=2 rule decided. tail says which: "fit", "floor" or None, since
    the report writes inf as null."""

    verdict: str
    ln_a0_final: float
    tail_exponent: Optional[float]
    tail: Optional[str]
    certificate: Optional[str]
    trajectory_ref: str


@dataclass(frozen=True)
class IterationResult:
    """Lower-bound iterates and the finite-horizon irregularity evidence."""

    tau: np.ndarray
    iterates: tuple
    margin: float
    trend: float
    certificate: Optional[str]
    converged: bool


@dataclass(frozen=True)
class NegligibilityResult:
    max_ratio: float
    tau_at_max: float
    tau: np.ndarray
    ratio: np.ndarray


# -- helpers ------------------------------------------------------------------

def _amplitude(ln_a0, u_max: float):
    """Map ln a0 to the kappa argument, clipped into (0, u_max]."""
    if isinstance(ln_a0, float):  # one state value: the same bits, no arrays
        return np.float64(min(max(np.exp(min(ln_a0, 0.0)), 1e-320), u_max))
    a = np.exp(np.minimum(np.asarray(ln_a0, dtype=float), 0.0))
    return np.clip(a, 1e-320, u_max)


def _m2_constants() -> M2Constants:
    """The constants of the m=2 linear term, its carrier phase in closed form.

    The kernel's leading far form is F ~ A y^(-1/3) Re e^{(-d0 + i b0) t
    - i pi/6} with t = y^alpha, and F' takes the factor alpha y^(alpha-1)
    (-d0 + i b0). Since phi F and phi^(2/3) F' both carry phi^(2/3), the
    linear term is A phi^(2/3) |Z| e^{-d0 t} cos(b0 t - pi/6 + arg Z) with
    Z = gamma2 - alpha gamma1 d0 + i alpha gamma1 b0. Here alpha gamma1 d0
    = (4/3) 2^(-4/3) 3 2^(-11/3) = 1/8 and b0 = sqrt(3) d0, so with
    gamma2 = -1/4, Z = (-3 + i sqrt(3))/8, arg Z = 5 pi/6 and
    C4 = -pi/6 + atan2(alpha gamma1 b0, gamma2 - alpha gamma1 d0) = 2 pi/3.
    """
    consts = spectral.kernel_constants(2)
    profile = bl_profile(2)
    return M2Constants(C4=2.0 * math.pi / 3.0, gamma1=profile.derivs_at_0[1],
                       gamma2=profile.derivs_at_0[2], b0=consts.b0,
                       alpha=consts.alpha)


def _m1_linear_value(ph):
    """The m=1 linear term -phi e^{-phi^2/4} / (4 sqrt(pi))."""
    return -(1.0 / (4.0 * _SQRT_PI)) * ph * np.exp(-ph * ph / 4.0)


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
    if m == 2:
        kernel = spectral.default_kernel(2)
        m2c = _m2_constants()

        def linear_value(ph):
            # np.power on a float has the bits of the array loop; `**` on
            # np.float64 need not
            f, df = kernel.F_deriv(ph, (0, 1))
            return m2c.gamma2 * ph * f + m2c.gamma1 * np.power(ph, 2.0 / 3.0) * df
    else:
        linear_value = _m1_linear_value

    n_extra = radial_exponent - 1

    def linear_rhs(tau):
        # A float tau (LSODA asks for one point at a time) takes a
        # scalar branch with the bits of the array branch; phi and the
        # phi^(N-1) factor stay on a 1-element array, since a width may apply
        # `**` to np.float64 and the array `**` squares where pow need not.
        if isinstance(tau, float):
            ph = np.asarray(phi.phi(np.array([tau])), dtype=float)
            value = linear_value(float(ph[0]))
            if n_extra:
                value = value * (ph ** n_extra)[0]
            return float(value)
        arr = np.atleast_1d(np.asarray(tau, dtype=float))
        ph = np.asarray(phi.phi(arr), dtype=float)
        out = linear_value(ph) * ph ** n_extra
        return float(out[0]) if np.ndim(tau) == 0 else out

    u_max = kappa.u_max
    if kind == "multiplicative":
        def nonlinear_rhs(tau, ln_a0):
            # 0.0 * tau spreads kappa over an array tau
            return kappa.kappa(_amplitude(ln_a0, u_max)) + 0.0 * tau
    else:
        # the gradient term coef kappa(a) a^p phi^q times the kernel factor;
        # tau goes in as a 1-element array and every power through np.power,
        # so one float tau gets the bits of the array loop
        if m == 1:
            coef, a_pow, ph_pow = 1.0 / (8.0 * _SQRT_PI), 2, 3

            def kernel_value(ph):
                return np.exp(-ph * ph / 4.0)
        else:
            coef, a_pow, ph_pow = _bl_gradient_quartic(), 4, 5
            kernel_value = kernel.F

        def nonlinear_rhs(tau, ln_a0):
            a = _amplitude(ln_a0, u_max)
            arr = np.atleast_1d(np.asarray(tau, dtype=float))
            ph = np.asarray(phi.phi(arr), dtype=float)
            out = (coef * kappa.kappa(a) * np.power(a, a_pow)
                   * np.power(ph, ph_pow) * kernel_value(ph))
            return float(out[0]) if np.ndim(tau) == 0 and np.ndim(ln_a0) == 0 else out

    # LSODA's corrector often asks again at the tau it just asked for: a
    # float tau reuses the last float tau's linear term, an array never
    last_linear = functools.lru_cache(maxsize=1)(linear_rhs)

    def rhs(tau, ln_a0):
        linear = last_linear if isinstance(tau, float) else linear_rhs
        return linear(tau) + nonlinear_rhs(tau, ln_a0)

    return CriterionODE(m=m, kind=kind, phi=phi, kappa=kappa,
                        radial_exponent=radial_exponent, m2_constants=m2c,
                        rhs=rhs, linear_rhs=linear_rhs,
                        nonlinear_rhs=nonlinear_rhs)


# -- integration and verdicts ---------------------------------------------------

# the nodes of the 4-node Gauss-Legendre rule on [-1, 1]; _gauss_rule
# weighs the outer pair by 0.3478548451374538, the inner by 0.6521451548625461
_GAUSS_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                         0.3399810435848563, 0.8611363115940526])


def _gauss_rule(ode, lo, hi):
    """The Gauss rule of the linear term per unit sigma = ln tau on each
    interval [lo, hi] of sigma, all nodes in one linear_rhs call: the nodes
    and tau linear(tau) by row, and the values, each interval's on its own."""
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _GAUSS_NODES
    tau = np.exp(nodes)
    f = tau * np.reshape(ode.linear_rhs(tau.ravel()), tau.shape)
    return nodes, f, 0.5 * (hi - lo) * ((f[:, 0] + f[:, 3]) * 0.3478548451374538
                                        + (f[:, 1] + f[:, 2]) * 0.6521451548625461)


def _linear_path(ode, grid, init, tol):
    """ln a0 on the sigma grid for a kappa = 0 system: init plus the running
    sum of the Gauss rule on each interval. Returns _solvers.lsoda's four
    values (no failure), cut at the first point at or past a level, whose
    root is sought on that interval's rule. Before it, a non-finite term
    raises ValueError, and an error estimate above tol (1 + |ln a0|), from
    the rule on pairs of intervals (the last overlapping on an odd count)
    against their halves, QuadratureError."""
    n = grid.size - 1
    pairs = np.minimum(np.arange(0, n, 2), n - 2)
    nodes, f, values = _gauss_rule(ode, np.concatenate((grid[:-1], grid[pairs])),
                                   np.concatenate((grid[1:], grid[pairs + 2])))
    fine, finite = values[:n], np.isfinite(f).all(axis=1)
    path = init + np.concatenate(([0.0], np.cumsum(fine)))
    past = (np.logical_and.accumulate(finite[:n])
            & ((path[1:] <= _LN_UNDERFLOW) | (path[1:] >= _LN_CEILING)))
    k = int(np.argmax(past)) + 1 if past.any() else n
    checked = grid[pairs + 2] <= grid[k]  # the pairs up to the stop
    rows = np.concatenate((np.arange(k), n + np.flatnonzero(checked)))
    if not finite[rows].all():
        i = rows[np.argmin(finite[rows])]
        j = np.argmin(np.isfinite(f[i]))
        raise ValueError(f"the right side is {float(f[i, j])!r} "
                         f"at t={float(nodes[i, j])!r}")
    starts = pairs[checked]
    # the halves' error: a rule exact to degree 7 errs 2^9 times more on a
    # pair than on each half, so 255 times less than pair minus halves;
    # weighed like a step of LSODA with rtol = atol = tol
    est = (np.abs(values[n:][checked] - fine[starts] - fine[starts + 1])
           / (255.0 * (1.0 + np.abs(path[starts]))))
    if est.size and est.max() > tol:
        i = starts[np.argmax(est)]
        raise QuadratureError(f"the linear term's error estimate from tau "
                              f"{math.exp(grid[i]):.4g} is {est.max():.2g} times "
                              f"1 + |ln a0|, above tol {tol:g}")
    if not past.any():
        return grid, path, None, None
    level = 0 if path[k] <= _LN_UNDERFLOW else 1

    def partial(s):
        return path[k - 1] + _gauss_rule(ode, grid[k - 1:k], np.array([s]))[2][0]

    root = _solvers.brentq(lambda s: partial(s) - (_LN_UNDERFLOW, _LN_CEILING)[level],
                           grid[k - 1], grid[k], 4 * _solvers.EPS)
    return grid[:k], path[:k], (level, root, partial(root)), None


def integrate(ode: CriterionODE, ln_a0_init: float, tau0: float,
              tau_max: float, tol: float = 1e-10) -> CriterionTrajectory:
    """March ln a0 from tau0 to tau_max on a logarithmic tau grid.

    Works in sigma = ln tau and in ln a0 throughout, so decay far below
    the floating-point range of a0 itself stays representable. The run
    ends early where ln a0 falls to -745 (stop "underflow") or rises
    through 0, the amplitude ceiling (stop "ceiling"); the trajectory
    keeps the point where it stopped, and verdict decides either stop.

    With kappa.linear, ln a0 is init plus the integral of the linear term
    by a Gauss rule on the output grid, and tol bounds the rule's error
    estimate (_linear_path); otherwise LSODA runs with rtol = atol = tol.
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

    n_points = max(300, int(150.0 * (s1 - s0) / math.log(10.0)))
    grid = np.linspace(s0, s1, n_points)
    try:
        sigmas, values, hit, failure = (
            _linear_path(ode, grid, float(ln_a0_init), tol) if ode.kappa.linear
            else _solvers.lsoda(rhs_sigma, grid, float(ln_a0_init), _LN_UNDERFLOW,
                                _LN_CEILING, rtol=tol, atol=tol, max_step=0.25))
    except ValueError as exc:  # a non-finite right side, or a level's root failed
        raise StiffnessError(f"integration stalled: {exc}") from exc
    if failure is not None:
        raise StiffnessError(f"integration stalled: {failure}")
    stop = None
    if hit is not None:
        stop = ("underflow", "ceiling")[hit[0]]
        sigmas = np.append(sigmas, hit[1])
        values = np.append(values, hit[2])
    tau = np.exp(sigmas)
    lin = np.asarray(ode.linear_rhs(tau), dtype=float)
    nonlin = np.asarray(ode.nonlinear_rhs(tau, values), dtype=float)
    ref = (f"m{ode.m}-{ode.kind}-{ode.phi.name}-{ode.kappa.name}"
           f"-tau{tau0:g}-{tau_max:g}")
    return CriterionTrajectory(ode=ode, tau=tau, ln_a0=values, rhs_linear=lin,
                               rhs_nonlinear=nonlin, ln_a0_init=float(ln_a0_init),
                               stop=stop, ref=ref)


def verdict(trajectory: CriterionTrajectory,
            certificate: Optional[str] = None) -> RegularityVerdict:
    """Classify a trajectory as Regular / Irregular / Inconclusive.

    A run that stopped at the amplitude ceiling is Irregular; otherwise an
    irregularity certificate attached by the caller forces Irregular; then
    a run that stopped at the underflow floor is Regular. Past those, an
    m=1 run classifies its decay rate -(rhs_linear + rhs_nonlinear) over
    the last two decades with the integral criteria's tail test: a
    divergent rate integral is Regular, a convergent one Irregular, and a
    rate that turns negative there, or an Undetermined class, Inconclusive.
    An m=2 run is Irregular when ln a0 moved less than 0.5 over the last
    decade of a run of at least 3 decades, else Inconclusive.
    """
    tau, x = trajectory.tau, trajectory.ln_a0
    final = float(x[-1])

    def make(verdict_name, cert, p=None):
        tail = None if p is None else "floor" if p == math.inf else "fit"
        return RegularityVerdict(verdict=verdict_name, ln_a0_final=final,
                                 tail_exponent=p, tail=tail, certificate=cert,
                                 trajectory_ref=trajectory.ref)

    if trajectory.stop == "ceiling":
        return make("Irregular", f"amplitude overflow: ln a0 reached 0 "
                                 f"at tau={tau[-1]:.4g}")
    if certificate is not None:
        return make("Irregular", certificate)
    if trajectory.stop == "underflow":
        return make("Regular",
                    f"amplitude underflow: ln a0 reached {_LN_UNDERFLOW:g} "
                    f"at tau={tau[-1]:.4g}")
    if trajectory.ode.m == 2:
        mid = float(np.interp(math.log(tau[-1] / 10.0), np.log(tau), x))
        plateau = trajectory.decades >= 3.0 and abs(final - mid) < 0.5
        return make("Irregular" if plateau else "Inconclusive", None)
    tail = tau >= tau[-1] / 100.0
    rate = -(trajectory.rhs_linear + trajectory.rhs_nonlinear)[tail]
    if np.any(rate < 0.0):
        return make("Inconclusive", None)
    with np.errstate(divide="ignore"):  # a rate of 0 is at the floor
        cls, fit = tails.classify_decay(tau[tail], np.log(rate), 0.0)
    return make(tails.IMPLIED_REGULARITY.get(cls.value, "Inconclusive"),
                None, fit.slope)


# -- comparison solutions -------------------------------------------------------

# a period-sum piece passes QUADPACK's test, an error estimate at most
# max(_PIECE_EPSABS, _PIECE_EPSREL |piece|); it starts on 16 equal
# sub-intervals and doubles them up to 256 while it fails; _PIECE_BLOCK
# pieces go at a time, so no scratch grows with the number of half-periods
_PIECE_EPSABS = 1e-13
_PIECE_EPSREL = 1e-10
_PIECE_SPLITS = (16, 256)
_PIECE_BLOCK = 64


def _pieces(ode: CriterionODE, a: np.ndarray, b: np.ndarray):
    """The period sum's rule on the pieces [a, b]: (values, estimates,
    passed). A piece is _gauss_rule on n equal sub-intervals; its estimate
    is the rule on pairs of them against their halves, over 255, as in
    _linear_path. A piece that fails the test goes again on 2n, whose pairs
    are the n of the round before; a non-finite value fails at once."""
    values, est = np.empty(a.size), np.empty(a.size)
    todo, n, coarse = np.arange(a.size), _PIECE_SPLITS[0], None
    while todo.size and n <= _PIECE_SPLITS[1]:
        x = np.linspace(a[todo], b[todo], n + 1, axis=1)
        lo, hi = x[:, :-1], x[:, 1:]
        if coarse is None:
            lo, hi = np.hstack((lo, x[:, :-2:2])), np.hstack((hi, x[:, 2::2]))
        rule = _gauss_rule(ode, lo.ravel(), hi.ravel())[2].reshape(todo.size, -1)
        fine, coarse = rule[:, :n], rule[:, n:] if coarse is None else coarse
        values[todo] = fine.sum(axis=1)
        est[todo] = np.abs(coarse - fine[:, 0::2] - fine[:, 1::2]).sum(axis=1) / 255.0
        passed = est <= np.maximum(_PIECE_EPSABS, _PIECE_EPSREL * np.abs(values))
        fail = ~passed[todo] & np.isfinite(est[todo])
        todo, n, coarse = todo[fail], 2 * n, fine[fail]
    return values, est, passed


def _period_sum(ode: CriterionODE, s0: float, s1: float):
    """Integrate the m=2 linear term in ln tau, one carrier half-period at a time.

    The cuts are s0, every point where the carrier phase b0 phi^alpha + C4
    crosses pi/2 + k pi, and s1. Beyond the first few half-periods those
    are the sign changes of the integrand, which is smooth. Each piece
    between them is the Gauss rule of _linear_path on equal sub-intervals,
    refined until its error estimate passes QUADPACK's test (_pieces).
    Returns (cuts, pieces, flags); flags names each piece that never
    passed, with its estimate.
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
            cuts.append(_solvers.brentq(lambda s: phase(s) - target, lo, s1, 1e-13))
            lo = cuts[-1]
        target += math.pi
    cuts.append(s1)

    n, pieces, flags = len(cuts) - 1, [], []
    for i in range(0, n, _PIECE_BLOCK):
        edges = np.array(cuts[i:i + _PIECE_BLOCK + 1])
        values, est, passed = _pieces(ode, edges[:-1], edges[1:])
        pieces.extend(values.tolist())
        for k in np.flatnonzero(~passed).tolist():
            why = ("a non-finite value" if not math.isfinite(est[k]) else
                   f"above max({_PIECE_EPSABS:g}, {_PIECE_EPSREL:g} |piece|) "
                   f"on {_PIECE_SPLITS[1]} sub-intervals")
            flags.append(f"the Gauss rule flagged half-period {i + k} of {n} "
                         f"(tau {math.exp(edges[k]):.4g} to "
                         f"{math.exp(edges[k + 1]):.4g}, abserr {est[k]:.2g}): {why}")
    return cuts, pieces, flags


# the iteration runs from ln a0 = -3 at tau = max(tau_min, 10) to 1e12, on
# 8000 log-uniform points, with at most 8 re-integrations
_ITER_LN_A0_INIT = -3.0
_ITER_TAU_MAX = 1.0e12
_ITER_POINTS = 8000
_ITER_MAX = 8


def irregularity_iteration(ode: CriterionODE) -> IterationResult:
    """Lower-bound iteration for reactions that may defeat the linear decay.

    Starts from the linear comparison solution (amplitude capped at 1),
    then re-integrates with kappa evaluated on the previous iterate.
    The certificate holds when the full right-hand side, evaluated along
    the linear comparison solution, has a positive mean (`margin`) over
    the last decade: then the decay cannot continue and the vertex is
    flagged irregular. `trend`, the fitted slope, is reported only.
    Without that evidence the result carries certificate None.
    Raises ConfigError unless kappa is positive and increasing on
    (0, u_max].
    """
    if ode.kind != "multiplicative":
        raise ConfigError("irregularity iteration applies to multiplicative reactions")
    probe = np.geomspace(1e-12, ode.kappa.u_max, 64)
    vals = np.asarray(ode.kappa.kappa(probe), dtype=float)
    if not (np.all(vals > 0.0) and np.all(np.diff(vals) >= -1e-15)):
        raise ConfigError("irregularity iteration needs a positive increasing kappa")
    tau0, tau_max = max(ode.phi.tau_min, 10.0), _ITER_TAU_MAX

    sg = np.linspace(math.log(tau0), math.log(tau_max), _ITER_POINTS)
    tau = np.exp(sg)
    lin = np.asarray(ode.linear_rhs(tau), dtype=float)

    def advance(integrand):
        path = _ITER_LN_A0_INIT + cumulative_trapezoid(integrand, sg,
                                                       initial=0.0)
        return np.minimum(path, 0.0)

    iterates = [advance(tau * lin)]
    gap = math.inf
    for _ in range(_ITER_MAX):
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

    certificate = None
    if margin > 0.0:
        certificate = (f"irregularity evidence: rhs along the linear comparison "
                       f"solution averages {margin:+.4g} (in d ln tau) over "
                       f"tau in [{tau_max / 10.0:.3g}, {tau_max:.3g}]")
    return IterationResult(tau=tau, iterates=tuple(iterates), margin=margin,
                           trend=trend, certificate=certificate,
                           converged=gap < 1e-10)


# the Osgood-Dini integrand is sampled up to ell = -ln z = 690 on 6000 points
_OSGOOD_ELL_MAX = 690.0
_OSGOOD_POINTS = 6000


def osgood_dini_check(kappa: Kappa):
    """Tail test (class, fit) of the small-amplitude integral of
    1/(z |kappa(z)|).

    Works in ell = -ln z, where the integral becomes int d(ell)/|kappa|;
    its integrand goes through the integral criteria's tail test, on the
    log-uniform grid of the density form.
    """
    ell0 = max(-math.log(kappa.u_max), 1.0)
    ell = np.geomspace(ell0, _OSGOOD_ELL_MAX, _OSGOOD_POINTS)
    with np.errstate(over="ignore", divide="ignore"):
        mag = np.abs(np.asarray(kappa.kappa(np.exp(-ell)), dtype=float))
    ln_f = -np.log(np.clip(mag, 1e-290, None))  # ln of the integrand 1/|kappa|
    return tails.classify_decay(ell, ln_f, 0.0)


# the linear comparison solution starts from ln a0 = -1 at tau = 10 and runs
# on 4000 log-uniform points; the ratio's peak is sought on tau in [1e2, 1e6]
_NEGLIGIBILITY_LN_A0_INIT = -1.0
_NEGLIGIBILITY_TAU0 = 10.0
_NEGLIGIBILITY_HORIZON = (1.0e2, 1.0e6)
_NEGLIGIBILITY_POINTS = 4000


def gradient_negligibility(phi: SlowGrowthFn,
                           kappa: Kappa) -> NegligibilityResult:
    """Peak ratio of the gradient reaction term to the linear term (m=1).

    Evaluated along the linear comparison solution; the ratio is
    |kappa(a)| a^2 phi^2 / 2 and must decay for the gradient term to be
    negligible.
    """
    lo, hi = _NEGLIGIBILITY_HORIZON
    sg = np.linspace(math.log(_NEGLIGIBILITY_TAU0), math.log(hi),
                     _NEGLIGIBILITY_POINTS)
    tau = np.exp(sg)
    ph = np.asarray(phi.phi(tau), dtype=float)
    lin = _m1_linear_value(ph)
    x = _NEGLIGIBILITY_LN_A0_INIT + cumulative_trapezoid(tau * lin, sg,
                                                         initial=0.0)
    a = _amplitude(x, kappa.u_max)
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
              np.column_stack([trajectory.tau, trajectory.ln_a0,
                               trajectory.rhs_linear, trajectory.rhs_nonlinear]))
