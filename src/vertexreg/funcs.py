"""Catalog of boundary-shape functions and reaction coefficients.

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

__all__ = [
    "SlowGrowthFn",
    "Kappa",
    "builtin_catalog",
    "lookup",
    "BIHARMONIC_CRITICAL_C",
]

# Critical amplitude for the fourth-order shape c*(ln tau)^(3/4): with this c
# the decay envelope of the linear criterion integrand is exactly 1/tau.
BIHARMONIC_CRITICAL_C = 3.0 ** (-0.75) * 2.0 ** 2.75


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
        # np.power: `**` on one np.float64 need not round like the array loop
        return c * np.cbrt(ell) * np.exp(-np.power(3.0 * math.sqrt(math.pi) * ell, 2.0 / 3.0))

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
