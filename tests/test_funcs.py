"""Boundary-shape and reaction-coefficient validation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexreg import funcs
from vertexreg.errors import DomainError, EvaluationError

TAUS = np.array([10.0, 1e2, 1e3, 1e4, 1e6])
US = np.array([10.0 ** -k for k in range(1, 13)])


def test_critical_shape_passes_all_conditions():
    f = funcs.lookup("petrovskii-critical")
    report = funcs.validate_slow_growth(f, TAUS)
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
    report = funcs.validate_slow_growth(f, TAUS)
    assert not report.passed
    chk = report.check("inverse-log-derivative-grows")
    assert not chk.passed
    # (phi/phi')' is identically 1 for phi(tau)=tau
    for v in chk.witness["dg_values"]:
        assert v == pytest.approx(1.0, rel=1e-6)


def test_log_squared_passes_and_matches_analytic_growth_rate():
    # for phi=(ln tau)^2 the probed quantity is (tau ln(tau)/2)' = (ln(tau)+1)/2
    f = funcs.lookup("log-power", p=2.0)
    report = funcs.validate_slow_growth(f, TAUS)
    assert report.passed
    dg = report.check("inverse-log-derivative-grows").witness["dg_values"]
    expected = (np.log(TAUS) + 1.0) / 2.0
    assert np.allclose(dg, expected, rtol=1e-5)


def test_nonfinite_evaluation_reports_offending_tau():
    f = funcs.SlowGrowthFn("bad", lambda t: np.sqrt(np.log(t) - 5.0),
                           lambda t: np.ones_like(np.asarray(t, float)))
    with pytest.raises(EvaluationError):
        funcs.validate_slow_growth(f, TAUS)


def test_slow_growth_preconditions():
    f = funcs.lookup("petrovskii-critical")
    with pytest.raises(ValueError):
        funcs.validate_slow_growth(f, [10.0, 100.0, 1000.0])
    with pytest.raises(ValueError):
        funcs.validate_slow_growth(f, [10.0, 1000.0, 100.0, 1e4])
    with pytest.raises(ValueError):
        funcs.validate_slow_growth(f, [10.0, 20.0, 40.0, 80.0])
    with pytest.raises(ValueError):
        funcs.validate_slow_growth(f, [1.0, 100.0, 1e4, 1e6])


def test_negative_log_kappa_passes():
    k = funcs.lookup("negative-log")
    assert k.sign == "negative"
    report = funcs.validate_kappa(k, US)
    assert report.passed


def test_twice_u_fails_only_at_wide_domain():
    twice = lambda u: 2.0 * np.asarray(u, float)
    wide = funcs.Kappa("twice-u", twice, u_max=1.0, sign="positive-increasing")
    report = funcs.validate_kappa(wide, US)
    assert not report.passed
    chk = report.check("bounded-by-one")
    assert not chk.passed
    assert chk.witness["abs_at_umax"] == pytest.approx(2.0)

    narrow = funcs.Kappa("twice-u", twice, u_max=0.5, sign="positive-increasing")
    assert funcs.validate_kappa(narrow, US).passed


def test_critical_kappa_passes_and_is_positive_increasing():
    k = funcs.lookup("critical-kappa")
    assert k.sign == "positive-increasing"
    assert funcs.validate_kappa(k, US).passed
    # increasing in u near zero: sample a few decades
    u = np.array([1e-9, 1e-6, 1e-3])
    v = k.kappa(u)
    assert np.all(np.diff(v) > 0.0)
    assert np.all(v > 0.0)


def test_zero_kappa_fails_only_nonvanishing():
    k = funcs.lookup("zero-kappa")
    assert k.linear
    report = funcs.validate_kappa(k, US)
    assert not report.passed
    assert report.check("vanishes-at-zero").passed
    assert report.check("bounded-by-one").passed
    assert not report.check("nonvanishing").passed


def test_kappa_preconditions():
    k = funcs.lookup("negative-log")
    with pytest.raises(DomainError):
        funcs.validate_kappa(k, [0.9, 1e-3, 1e-6, 1e-9, 1e-12])
    with pytest.raises(ValueError):
        funcs.validate_kappa(k, [1e-1, 1e-2, 1e-3])


def test_catalog_shapes_all_validate():
    for member in funcs.builtin_catalog():
        if isinstance(member, funcs.SlowGrowthFn):
            assert funcs.validate_slow_growth(member, TAUS).passed, member.name


def test_catalog_kappas_all_validate_except_linear():
    for member in funcs.builtin_catalog():
        if isinstance(member, funcs.Kappa) and not member.linear:
            u = US[US <= member.u_max]
            assert funcs.validate_kappa(member, u).passed, member.name


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
    assert funcs.validate_slow_growth(f, TAUS).passed


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(min_value=0.01, max_value=1.0))
def test_super_critical_family_validates(eps):
    f = funcs.lookup("petrovskii-super", eps=eps)
    assert funcs.validate_slow_growth(f, TAUS).passed
