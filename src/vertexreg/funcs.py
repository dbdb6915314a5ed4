"""Catalog and validation of boundary-shape functions and reaction coefficients.

Every analysis in this package consumes two user-supplied ingredients: a
boundary shape phi(tau), growing to infinity slower than any power of tau,
and a reaction coefficient kappa(u) vanishing at u=0. Both are carried as
analytic evaluator pairs (value plus derivative where needed) rather than
sampled tables, so downstream ODE right-hand sides stay smooth deep in the
exponentially small tails.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "SlowGrowthFn",
    "Kappa",
    "ConditionCheck",
    "ValidityReport",
    "validate_slow_growth",
    "validate_kappa",
    "builtin_catalog",
    "lookup",
    "BIHARMONIC_CRITICAL_C",
]

# Critical amplitude for the fourth-order shape c*(ln tau)^(3/4): with this c
# the decay envelope of the linear criterion integrand is exactly 1/tau.
BIHARMONIC_CRITICAL_C = 3.0 ** (-0.75) * 2.0 ** 2.75

# Far-field probes for the sub-power growth check. Log powers overtake
# tau^0.1 only around tau ~ e^150 for cubic log growth, so the probes sit
# far beyond any integration horizon on purpose.
_SUBPOWER_PROBES = (1e16, 1e64, 1e256)
_SUBPOWER_ALPHAS = (0.1, 0.5, 1.0)

# Relative step for finite-difference probes of (phi/phi')'.
_FD_STEP = 1e-4


@dataclass(frozen=True)
class SlowGrowthFn:
    """Boundary shape phi(tau) with its derivative, valid for tau >= tau_min.

    Evaluators must accept numpy arrays. The induced boundary radius is
    R(t) = (-t)^(1/2m) * phi(ln(-1/t)); only phi itself is stored here.
    """

    name: str
    phi: object
    dphi: object
    tau_min: float = 2.0


@dataclass(frozen=True)
class Kappa:
    """Reaction coefficient kappa(u) on (0, u_max], vanishing as u -> 0+.

    sign is one of "negative", "positive-increasing", "mixed". The identically
    zero member (plain heat equation baseline) is admitted with linear=True
    even though it violates the kappa-nonvanishing condition.
    """

    name: str
    kappa: object
    u_max: float = 1.0
    sign: str = "negative"
    linear: bool = False


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    passed: bool
    witness: dict


@dataclass(frozen=True)
class ValidityReport:
    """Per-condition pass/fail record for one validated function."""

    subject: str
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def check(self, condition):
        for c in self.checks:
            if c.condition == condition:
                return c
        raise KeyError(condition)


def _eval_finite(fn, x, what):
    """Evaluate fn on x and fail loudly with the offending point."""
    # non-finite values become a typed error below, so numpy's own warnings
    # about them are redundant noise
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = np.asarray(x, dtype=float)[~np.isfinite(vals)]
        raise EvaluationError("%s returned a non-finite value at %s" % (what, bad[:3]))
    return vals


def validate_slow_growth(f, tau_samples):
    """Check the slow-growth conditions for a boundary shape on given samples.

    Records positivity and monotonicity of phi, decay of phi' and of
    phi'/phi, unbounded growth of (phi/phi')' by finite differences, and
    far-field sub-power trend probes phi(tau)/tau^alpha for
    alpha in {0.1, 0.5, 1}. The report carries witnesses; nothing here is a
    theorem-grade certificate, only sampled trends.
    """
    tau = np.asarray(tau_samples, dtype=float)
    if tau.size < 4:
        raise ValueError("need at least 4 tau samples, got %d" % tau.size)
    if np.any(np.diff(tau) <= 0):
        raise ValueError("tau samples must be strictly increasing")
    if tau[0] < f.tau_min:
        raise ValueError("samples start below tau_min=%g" % f.tau_min)
    if tau[-1] / tau[0] < 1e3:
        raise ValueError("samples must span at least 3 decades")

    phi = _eval_finite(f.phi, tau, "phi(%s)" % f.name)
    dphi = _eval_finite(f.dphi, tau, "dphi(%s)" % f.name)

    checks = []
    checks.append(ConditionCheck(
        "positive-increasing",
        bool(np.all(phi > 0.0) and np.all(dphi > 0.0)),
        {"min_phi": float(phi.min()), "min_dphi": float(dphi.min())},
    ))
    checks.append(ConditionCheck(
        "derivative-decays",
        bool(np.all(np.diff(dphi) < 0.0)),
        {"dphi_first": float(dphi[0]), "dphi_last": float(dphi[-1])},
    ))
    ratio = dphi / phi
    checks.append(ConditionCheck(
        "log-derivative-decays",
        bool(np.all(np.diff(ratio) < 0.0)),
        {"ratio_first": float(ratio[0]), "ratio_last": float(ratio[-1])},
    ))

    # (phi/phi')' probed by central differences with a relative step; the
    # slow-growth class requires this to climb without bound, so we ask for
    # strict increase across the samples plus real growth end to end.
    lo = tau * (1.0 - _FD_STEP)
    hi = tau * (1.0 + _FD_STEP)
    g_lo = _eval_finite(f.phi, lo, "phi") / _eval_finite(f.dphi, lo, "dphi")
    g_hi = _eval_finite(f.phi, hi, "phi") / _eval_finite(f.dphi, hi, "dphi")
    dg = (g_hi - g_lo) / (2.0 * _FD_STEP * tau)
    grows = bool(np.all(np.diff(dg) > 0.0) and dg[-1] > 1.5 * dg[0])
    checks.append(ConditionCheck(
        "inverse-log-derivative-grows",
        grows,
        {"dg_values": [float(v) for v in dg]},
    ))

    subpower = {}
    sub_ok = True
    probes = np.asarray(_SUBPOWER_PROBES)
    phi_probe = _eval_finite(f.phi, probes, "phi(%s)" % f.name)
    for alpha in _SUBPOWER_ALPHAS:
        r = phi_probe / probes ** alpha
        ok = bool(np.all(np.diff(r) < 0.0))
        sub_ok = sub_ok and ok
        subpower["alpha=%g" % alpha] = [float(v) for v in r]
    checks.append(ConditionCheck("sub-power-growth", sub_ok, subpower))

    return ValidityReport(subject=f.name, checks=tuple(checks))


def validate_kappa(k, u_samples):
    """Check the reaction-coefficient conditions on a decreasing u grid.

    Three conditions: kappa(u) -> 0 as u -> 0+, |kappa| <= 1 on (0, u_max]
    (the boundary point u_max is always included in this check), and
    kappa(u) != 0 away from zero.
    """
    u = np.asarray(u_samples, dtype=float)
    if np.any(np.diff(u) >= 0):
        raise ValueError("u samples must be strictly decreasing")
    if np.any(u <= 0.0) or np.any(u > k.u_max * (1.0 + 1e-12)):
        raise DomainError("u samples must lie in (0, %g]" % k.u_max)
    if u[0] / u[-1] < 1e6:
        raise ValueError("u samples must span at least 6 decades")

    vals = _eval_finite(k.kappa, u, "kappa(%s)" % k.name)
    at_umax = float(_eval_finite(k.kappa, np.array([k.u_max]), "kappa(%s)" % k.name)[0])

    tail = abs(float(vals[-1]))
    head = abs(float(vals[0]))
    checks = [ConditionCheck(
        "vanishes-at-zero",
        bool(tail <= head + 1e-15 and tail < 0.1),
        {"abs_at_largest_u": head, "abs_at_smallest_u": tail},
    )]

    all_abs = np.abs(np.concatenate([vals, [at_umax]]))
    checks.append(ConditionCheck(
        "bounded-by-one",
        bool(all_abs.max() <= 1.0 + 1e-12),
        {"max_abs": float(all_abs.max()), "abs_at_umax": abs(at_umax)},
    ))
    checks.append(ConditionCheck(
        "nonvanishing",
        bool(all_abs.min() > 0.0),
        {"min_abs": float(all_abs.min())},
    ))
    return ValidityReport(subject=k.name, checks=tuple(checks))


# ---------------------------------------------------------------------------
# builtin catalog


def _phi_root_log(scale, name):
    def phi(t):
        return scale * np.sqrt(np.log(t))

    def dphi(t):
        t = np.asarray(t, dtype=float)
        return scale / (2.0 * t * np.sqrt(np.log(t)))

    return SlowGrowthFn(name, phi, dphi, tau_min=2.0)


def _phi_log_power(p, c=1.0, name=None):
    def phi(t):
        return c * np.log(t) ** p

    def dphi(t):
        t = np.asarray(t, dtype=float)
        return c * p * np.log(t) ** (p - 1.0) / t

    return SlowGrowthFn(name or "log-power-p%g" % p, phi, dphi, tau_min=2.0)


def _kappa_neg_log(c=1.0):
    def k(u):
        return -c / np.abs(np.log(u))

    return Kappa("negative-log-c%g" % c, k, u_max=math.exp(-1.0), sign="negative")


def _kappa_pos_log(c=1.0):
    def k(u):
        return c / np.abs(np.log(u))

    return Kappa("positive-log-c%g" % c, k, u_max=math.exp(-1.0),
                 sign="positive-increasing")


def _kappa_critical(c=1.0):
    # c times the borderline coefficient |ln u|^(1/3) e^(-(3 sqrt(pi)|ln u|)^(2/3));
    # below it the vertex stays regular, far above it the iteration certifies
    # irregularity.
    def k(u):
        ell = np.abs(np.log(u))
        return c * np.cbrt(ell) * np.exp(-(3.0 * math.sqrt(math.pi) * ell) ** (2.0 / 3.0))

    return Kappa("critical-kappa-c%g" % c, k, u_max=math.exp(-1.0),
                 sign="positive-increasing")


def _kappa_neg_power(q=1.0):
    def k(u):
        return -np.asarray(u, dtype=float) ** q

    return Kappa("negative-power-q%g" % q, k, u_max=1.0, sign="negative")


def _kappa_zero():
    def k(u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return Kappa("zero-kappa", k, u_max=1.0, sign="mixed", linear=True)


_PHI_FACTORIES = {
    "petrovskii-critical": lambda: _phi_root_log(2.0, "petrovskii-critical"),
    "petrovskii-super": lambda eps=0.1: _phi_root_log(
        2.0 * (1.0 + eps), "petrovskii-super-eps%g" % eps),
    "log-power": lambda p=1.0: _phi_log_power(p),
    "biharmonic-critical": lambda c=BIHARMONIC_CRITICAL_C: _phi_log_power(
        0.75, c, "biharmonic-critical" if c == BIHARMONIC_CRITICAL_C
        else "biharmonic-critical-c%g" % c),
}

_KAPPA_FACTORIES = {
    "zero-kappa": _kappa_zero,
    "negative-log": _kappa_neg_log,
    "positive-log": _kappa_pos_log,
    "critical-kappa": _kappa_critical,
    "negative-power": _kappa_neg_power,
}


def lookup(name, **params):
    """Build a catalog member by name, with optional parameter overrides."""
    if name in _PHI_FACTORIES:
        return _PHI_FACTORIES[name](**params)
    if name in _KAPPA_FACTORIES:
        return _KAPPA_FACTORIES[name](**params)
    known = sorted(_PHI_FACTORIES) + sorted(_KAPPA_FACTORIES)
    raise KeyError("unknown catalog name %r; known: %s" % (name, ", ".join(known)))


def builtin_catalog():
    """All built-in boundary shapes and reaction coefficients, default parameters."""
    return [
        lookup("petrovskii-critical"),
        lookup("petrovskii-super"),
        lookup("log-power", p=0.75),
        lookup("log-power", p=1.0),
        lookup("log-power", p=2.0),
        lookup("biharmonic-critical"),
        lookup("zero-kappa"),
        lookup("negative-log"),
        lookup("positive-log"),
        lookup("critical-kappa"),
        lookup("negative-power"),
    ]
