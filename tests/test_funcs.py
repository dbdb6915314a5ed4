"""Catalog tests: each boundary shape and reaction coefficient meets the
paper's hypotheses on sampled trends, checked by the validators below."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexreg import funcs
from vertexreg.errors import DomainError

# Far-field probes for the sub-power growth check. Log powers overtake
# tau^0.1 only around tau ~ e^150 for cubic log growth, so the probes sit
# far beyond any integration horizon on purpose.
_SUBPOWER_PROBES = (1e16, 1e64, 1e256)
_SUBPOWER_ALPHAS = (0.1, 0.5, 1.0)

# Relative step for finite-difference probes of (phi/phi')'.
_FD_STEP = 1e-4


class EvaluationError(ValueError):
    """A user-supplied function returned a non-finite value."""


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


TAUS = np.array([10.0, 1e2, 1e3, 1e4, 1e6])
US = np.array([10.0 ** -k for k in range(1, 13)])


def test_critical_shape_passes_all_conditions():
    f = funcs.lookup("petrovskii-critical")
    report = validate_slow_growth(f, TAUS)
    assert report.passed
    assert [c.condition for c in report.checks] == [
        "positive-increasing",
        "derivative-decays",
        "log-derivative-decays",
        "inverse-log-derivative-grows",
        "sub-power-growth",
    ]


def test_linear_growth_fails_inverse_ratio_condition():
    f = funcs.SlowGrowthFn("linear", lambda t: np.asarray(t, float),
                           lambda t: np.ones_like(np.asarray(t, float)))
    report = validate_slow_growth(f, TAUS)
    assert not report.passed
    chk = report.check("inverse-log-derivative-grows")
    assert not chk.passed
    # (phi/phi')' is identically 1 for phi(tau)=tau
    for v in chk.witness["dg_values"]:
        assert v == pytest.approx(1.0, rel=1e-6)


def test_log_squared_passes_and_matches_analytic_growth_rate():
    # for phi=(ln tau)^2 the probed quantity is (tau ln(tau)/2)' = (ln(tau)+1)/2
    f = funcs.lookup("log-power", p=2.0)
    report = validate_slow_growth(f, TAUS)
    assert report.passed
    dg = report.check("inverse-log-derivative-grows").witness["dg_values"]
    expected = (np.log(TAUS) + 1.0) / 2.0
    assert np.allclose(dg, expected, rtol=1e-5)


def test_nonfinite_evaluation_reports_offending_tau():
    f = funcs.SlowGrowthFn("bad", lambda t: np.sqrt(np.log(t) - 5.0),
                           lambda t: np.ones_like(np.asarray(t, float)))
    with pytest.raises(EvaluationError):
        validate_slow_growth(f, TAUS)


def test_slow_growth_preconditions():
    f = funcs.lookup("petrovskii-critical")
    with pytest.raises(ValueError):
        validate_slow_growth(f, [10.0, 100.0, 1000.0])
    with pytest.raises(ValueError):
        validate_slow_growth(f, [10.0, 1000.0, 100.0, 1e4])
    with pytest.raises(ValueError):
        validate_slow_growth(f, [10.0, 20.0, 40.0, 80.0])
    with pytest.raises(ValueError):
        validate_slow_growth(f, [1.0, 100.0, 1e4, 1e6])


def test_negative_log_kappa_passes():
    k = funcs.lookup("negative-log")
    assert k.sign == "negative"
    report = validate_kappa(k, US)
    assert report.passed


def test_twice_u_fails_only_at_wide_domain():
    twice = lambda u: 2.0 * np.asarray(u, float)
    wide = funcs.Kappa("twice-u", twice, u_max=1.0, sign="positive-increasing")
    report = validate_kappa(wide, US)
    assert not report.passed
    chk = report.check("bounded-by-one")
    assert not chk.passed
    assert chk.witness["abs_at_umax"] == pytest.approx(2.0)

    narrow = funcs.Kappa("twice-u", twice, u_max=0.5, sign="positive-increasing")
    assert validate_kappa(narrow, US).passed


def test_critical_kappa_passes_and_is_positive_increasing():
    k = funcs.lookup("critical-kappa")
    assert k.sign == "positive-increasing"
    assert validate_kappa(k, US).passed
    # increasing in u near zero: sample a few decades
    u = np.array([1e-9, 1e-6, 1e-3])
    v = k.kappa(u)
    assert np.all(np.diff(v) > 0.0)
    assert np.all(v > 0.0)


def test_zero_kappa_fails_only_nonvanishing():
    k = funcs.lookup("zero-kappa")
    assert k.linear
    report = validate_kappa(k, US)
    assert not report.passed
    assert report.check("vanishes-at-zero").passed
    assert report.check("bounded-by-one").passed
    assert not report.check("nonvanishing").passed


def test_kappa_preconditions():
    k = funcs.lookup("negative-log")
    with pytest.raises(DomainError):
        validate_kappa(k, [0.9, 1e-3, 1e-6, 1e-9, 1e-12])
    with pytest.raises(ValueError):
        validate_kappa(k, [1e-1, 1e-2, 1e-3])


def test_catalog_shapes_all_validate():
    for member in funcs.builtin_catalog():
        if isinstance(member, funcs.SlowGrowthFn):
            assert validate_slow_growth(member, TAUS).passed, member.name


def test_catalog_kappas_all_validate_except_linear():
    for member in funcs.builtin_catalog():
        if isinstance(member, funcs.Kappa) and not member.linear:
            u = US[US <= member.u_max]
            assert validate_kappa(member, u).passed, member.name


def test_catalog_derivatives_match_finite_differences():
    h = 1e-6
    for member in funcs.builtin_catalog():
        if not isinstance(member, funcs.SlowGrowthFn):
            continue
        for tau in (1e2, 1e4):
            fd = (member.phi(tau * (1 + h)) - member.phi(tau * (1 - h))) / (2 * tau * h)
            assert fd == pytest.approx(member.dphi(tau), rel=1e-6), member.name


def test_lookup_names_and_parameters():
    assert funcs.lookup("petrovskii-critical").phi(math.e) == pytest.approx(2.0)
    assert funcs.lookup("log-power", p=0.25).name == "log-power-p0.25"
    crit = funcs.lookup("biharmonic-critical")
    assert crit.name == "biharmonic-critical"
    c = funcs.BIHARMONIC_CRITICAL_C
    assert c == pytest.approx(2.9511517858675242, rel=1e-14)
    assert crit.phi(100.0) == pytest.approx(c * math.log(100.0) ** 0.75)
    with pytest.raises(KeyError):
        funcs.lookup("no-such-member")


@settings(max_examples=25, deadline=None)
@given(p=st.floats(min_value=0.3, max_value=3.0))
def test_log_power_family_validates(p):
    f = funcs.lookup("log-power", p=p)
    assert validate_slow_growth(f, TAUS).passed


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(min_value=0.01, max_value=1.0))
def test_super_critical_family_validates(eps):
    f = funcs.lookup("petrovskii-super", eps=eps)
    assert validate_slow_growth(f, TAUS).passed
