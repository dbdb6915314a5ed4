"""Integral-criterion traces: accumulation accuracy, tail classification,
form equivalence, and the oscillatory fourth-order partial sums."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import quadrature_oracle as oracle  # the quadrature helper next to this file
from vertexreg import criterion, funcs, petrovskii
from vertexreg.errors import DomainError, QuadratureError
from vertexreg.tails import Classification

STAR = funcs.lookup("petrovskii-critical")
SUPER = funcs.lookup("petrovskii-super")


# the widths of the densities rho = h and rho = h^2: rho = e^{-phi^2/4} with
# ell = -ln h gives phi = 2 sqrt(ell) and 2 sqrt(2 ell); tau_min 1 lets the
# density form start at ell = ln 10, that is at h = 0.1
LINEAR = funcs.SlowGrowthFn("rho-h", lambda t: 2.0 * np.sqrt(t), None, 1.0)
SQUARE = funcs.SlowGrowthFn("rho-h2", lambda t: 2.0 * np.sqrt(2.0 * t), None,
                            1.0)
LN10 = math.log(10.0)


# -- heat-kernel form -----------------------------------------------------------

def test_critical_width_diverges():
    trace = petrovskii.petrovskii_integral(STAR, 1, 10.0, 1e8)
    assert trace.classification is Classification.DIVERGENT
    assert trace.fit.extrapolation == math.inf
    # integrand is exactly 2 sqrt(ln tau)/tau, with antiderivative (4/3)(ln tau)^{3/2}
    exact = (4.0 / 3.0) * (math.log(1e8) ** 1.5 - math.log(10.0) ** 1.5)
    assert trace.total == pytest.approx(exact, rel=1e-6)
    # marginal case: the fitted decay exponent sits just under 1
    assert 0.9 < trace.fit.slope < 1.0


def test_critical_width_long_horizon_uses_log_refinement():
    trace = petrovskii.petrovskii_integral(STAR, 1, 10.0, 1e12)
    assert trace.classification is Classification.DIVERGENT
    assert trace.fit.refinement == pytest.approx(0.5, abs=1e-6)


def test_supercritical_width_converges():
    trace = petrovskii.petrovskii_integral(SUPER, 1, 10.0, 1e8)
    assert trace.classification is Classification.CONVERGENT
    assert trace.fit.slope == pytest.approx(1.21, abs=0.05)
    oracle, _ = quad(lambda s: 2.2 * math.sqrt(s) * math.exp((1.0 - 1.21) * s),
                     math.log(10.0), math.log(1e8))
    assert trace.total == pytest.approx(oracle, rel=1e-6)
    full, _ = quad(lambda s: 2.2 * math.sqrt(s) * math.exp((1.0 - 1.21) * s),
                   math.log(10.0), 200.0)
    assert trace.fit.extrapolation == pytest.approx(full, rel=0.01)


def test_slow_width_diverges_fast():
    trace = petrovskii.petrovskii_integral(
        funcs.lookup("log-power", p=0.25), 1, 10.0, 1e8)
    assert trace.classification is Classification.DIVERGENT
    assert trace.fit.slope < 0.1


def test_radial_factor():
    trace = petrovskii.petrovskii_integral(STAR, 3, 10.0, 1e8)
    exact = (16.0 / 5.0) * (math.log(1e8) ** 2.5 - math.log(10.0) ** 2.5)
    assert trace.total == pytest.approx(exact, rel=1e-6)
    assert trace.classification is Classification.DIVERGENT


def test_underflowing_integrand_converges_cleanly():
    trace = petrovskii.petrovskii_integral(
        funcs.lookup("log-power", p=2.0), 1, 10.0, 1e9)
    assert trace.classification is Classification.CONVERGENT
    assert trace.fit.slope == math.inf


def test_partial_values_monotone():
    for phi in (STAR, SUPER):
        trace = petrovskii.petrovskii_integral(phi, 1, 10.0, 1e8)
        vals = trace.partial_values[:, 1]
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == 0.0


def test_integral_preconditions():
    with pytest.raises(ValueError):
        petrovskii.petrovskii_integral(STAR, 0, 10.0, 1e8)
    with pytest.raises(ValueError):
        petrovskii.petrovskii_integral(STAR, 1, 1.0, 1e8)
    with pytest.raises(ValueError):
        petrovskii.petrovskii_integral(STAR, 1, 10.0, 5.0)


# -- density form ----------------------------------------------------------------

def test_reciprocal_log_density_diverges():
    # rho = 1/|ln h| = 1/ell is the critical width's density
    trace = petrovskii.dini_osgood_form(STAR, tau0=LN10)
    assert trace.classification is Classification.DIVERGENT
    assert trace.fit.slope == pytest.approx(0.89, abs=0.03)


def test_linear_density_converges():
    trace = petrovskii.dini_osgood_form(LINEAR, tau0=LN10)
    # in ell = -ln h the integrand is sqrt(ell) e^{-ell}
    oracle, _ = quad(lambda ell: math.sqrt(ell) * math.exp(-ell),
                     math.log(10.0), np.inf)
    assert trace.classification is Classification.CONVERGENT
    assert trace.total == pytest.approx(oracle, rel=2e-3)
    assert trace.fit.extrapolation == pytest.approx(oracle, rel=2e-3)


def test_squared_density_converges():
    trace = petrovskii.dini_osgood_form(SQUARE, tau0=LN10)
    assert trace.classification is Classification.CONVERGENT


def test_density_domain_errors():
    # e^{-phi^2/4} lies in (0, 1) for any positive width, so what is left to
    # refuse is a width that is not positive (NaN included) and a bad span
    for values in (lambda t: 1.0 - np.log(t), lambda t: 0.0 * t,
                   lambda t: np.where(t > 50.0, np.nan, 1.0)):
        with pytest.raises(DomainError):
            petrovskii.dini_osgood_form(funcs.SlowGrowthFn("bad", values, None))
    with pytest.raises(ValueError):
        petrovskii.dini_osgood_form(STAR, tau0=1.5)
    with pytest.raises(ValueError):
        petrovskii.dini_osgood_form(STAR, tau0=LN10, ell_max=2.0)


def test_h_column_decreasing_partial_nondecreasing():
    trace = petrovskii.dini_osgood_form(STAR, tau0=LN10)
    assert np.all(np.diff(trace.partial_values[:, 0]) < 0.0)
    assert np.all(np.diff(trace.partial_values[:, 1]) >= 0.0)


def test_density_form_runs_past_h_underflow():
    # the form works in ell, so where h = e^-ell reads 0 (past ell of about
    # 745) only the trace's h column says so; the integral goes on
    trace = petrovskii.dini_osgood_form(STAR, tau0=LN10, ell_max=800.0)
    h, partial = trace.partial_values.T
    ell = np.geomspace(LN10, 800.0, h.size)
    assert h[-1] == 0.0 and 744.0 < ell[np.argmax(h == 0.0)] < 746.0
    assert np.all(np.isfinite(partial)) and np.all(np.diff(partial) >= 0.0)
    assert math.isfinite(trace.total) and trace.diagnostic == ""


# -- equivalence of the two sign-definite forms ------------------------------------

def test_change_of_variables_factor_two():
    # h = e^{-tau} sends dh/h to -dtau and sqrt|ln rho| to phi/2, so on a
    # shared span the heat-kernel accumulation is exactly twice the density one
    pe = petrovskii.petrovskii_integral(STAR, 1, 10.0, 690.0, n_points=6000)
    dm = petrovskii.dini_osgood_form(STAR, tau0=10.0, ell_max=690.0,
                                     n_points=6000)
    assert pe.total / dm.total == pytest.approx(2.0, rel=1e-4)


def test_form_equivalence_on_catalog():
    # over a shared span the transformed integrands are identical up to a
    # constant, so the classifications must agree exactly
    for phi in funcs.builtin_catalog():
        if not isinstance(phi, funcs.SlowGrowthFn):
            continue
        a = petrovskii.petrovskii_integral(phi, 1, 10.0, 690.0,
                                           n_points=6000).classification
        b = petrovskii.dini_osgood_form(phi, tau0=10.0, ell_max=690.0,
                                        n_points=6000).classification
        assert a == b, phi.name


@pytest.mark.parametrize("horizon", [690.0, 800.0, 7.0e4, 1.0e12])
def test_forms_agree_across_the_super_scan(horizon):
    # both forms sample log-uniformly, in tau and in ell = tau, so they fit
    # one p and a width near the margin (eps 0.06 to 0.065 at 690) gets one
    # class from both, at horizons where h = e^-ell is 0 too
    for eps in np.arange(0.05, 0.2 + 1e-9, 0.0025):
        phi = funcs.lookup("petrovskii-super", eps=float(eps))
        a = petrovskii.petrovskii_integral(phi, 1, 10.0, horizon, n_points=6000)
        b = petrovskii.dini_osgood_form(phi, tau0=10.0, ell_max=horizon,
                                        n_points=6000)
        assert a.classification == b.classification, eps
        assert a.fit.slope == pytest.approx(b.fit.slope, abs=1e-12)
        assert math.isfinite(a.total) and math.isfinite(b.total), eps


def test_classification_matches_amplitude_verdict_on_catalog():
    zero = funcs.lookup("zero-kappa")
    to_verdict = {Classification.DIVERGENT: "Regular",
                  Classification.CONVERGENT: "Irregular"}
    for phi in funcs.builtin_catalog():
        if not isinstance(phi, funcs.SlowGrowthFn):
            continue
        trace = petrovskii.petrovskii_integral(phi, 1, 10.0, 1e12)
        ode = criterion.build_criterion(1, "multiplicative", phi, zero)
        v = criterion.verdict(criterion.integrate(ode, -1.0, 10.0, 1e12))
        assert to_verdict[trace.classification] == v.verdict, phi.name


# -- width monotonicity ------------------------------------------------------------

@given(st.floats(min_value=math.sqrt(2.0), max_value=28.0),
       st.floats(min_value=1e-6, max_value=2.0))
@settings(max_examples=200, deadline=None)
def test_integrand_decreasing_beyond_sqrt2(x, step):
    f = lambda v: v * math.exp(-v * v / 4.0)
    assert f(x + step) <= f(x)


def test_wider_parabola_never_beats_narrower():
    narrow = SUPER
    wide = funcs.lookup("petrovskii-super", eps=0.2)
    tau = np.geomspace(10.0, 1e8, 200)
    pn = np.asarray(narrow.phi(tau), dtype=float)
    pw = np.asarray(wide.phi(tau), dtype=float)
    assert np.all(pw >= pn)
    assert np.all(pn >= 2.0)
    f = lambda p: p * np.exp(-p * p / 4.0)
    assert np.all(f(pw) <= f(pn))
    tn = petrovskii.petrovskii_integral(narrow, 1, 10.0, 1e8)
    tw = petrovskii.petrovskii_integral(wide, 1, 10.0, 1e8)
    assert tw.classification is Classification.CONVERGENT
    assert np.all(tw.partial_values[:, 1] <= tn.partial_values[:, 1])


# -- fourth-order oscillatory criterion ----------------------------------------------

def test_biharmonic_critical_is_marginal():
    trace = petrovskii.biharmonic_linear_criterion(funcs.lookup("biharmonic-critical"))
    assert trace.classification is Classification.UNDETERMINED
    assert "cut-off" in trace.diagnostic
    # at the critical amplitude the envelope is exactly 1/tau
    assert trace.fit.slope == pytest.approx(1.0, abs=1e-12)
    # interior half-period contributions alternate in sign
    steps = np.diff(trace.partial_values[1:-1, 1])
    assert np.all(steps[1:] * steps[:-1] < 0.0)
    assert math.isnan(trace.fit.extrapolation)


def test_biharmonic_supercritical_bounded():
    wide = funcs.lookup("biharmonic-critical", c=4.0)
    trace = petrovskii.biharmonic_linear_criterion(wide)
    assert trace.classification is Classification.BOUNDED
    assert trace.fit.slope == pytest.approx(4.0 ** (4.0 / 3.0) * 3.0 * 2.0 ** (-11.0 / 3.0),
                                            rel=1e-12)
    # the accelerated limit agrees with brute quadrature to a long horizon
    limit = oracle.linear_closed_form(2, wide, 1e12, 10.0)
    assert trace.fit.extrapolation == pytest.approx(limit, abs=1e-4)


def test_biharmonic_flagged_quadrature_is_reported(monkeypatch):
    # a flagged piece must reach the trace instead of escaping as a
    # warning; no catalog width fails the bound, so a bound of 0 flags
    # every piece
    width = funcs.lookup("biharmonic-critical", c=3.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clean = petrovskii.biharmonic_linear_criterion(width)
        monkeypatch.setattr(criterion, "_PIECE_EPSABS", 0.0)
        monkeypatch.setattr(criterion, "_PIECE_EPSREL", 0.0)
        trace = petrovskii.biharmonic_linear_criterion(width)
    assert clean.classification is Classification.BOUNDED
    assert clean.diagnostic == ""
    assert trace.classification is Classification.BOUNDED
    assert "Gauss rule flagged half-period 6 of 14" in trace.diagnostic
    assert "abserr" in trace.diagnostic


def test_biharmonic_slow_width_diverges_to_minus_infinity():
    trace = petrovskii.biharmonic_linear_criterion(funcs.lookup("log-power", p=0.25))
    assert trace.classification is Classification.DIVERGENT_TO_MINUS_INFINITY
    assert trace.total < -1e6
    assert trace.fit.extrapolation == -math.inf
    assert np.all(np.diff(trace.partial_values[:, 1]) < 0.0)


def test_biharmonic_constant_width_guard():
    flat = funcs.SlowGrowthFn("flat-five",
                              lambda t: 5.0 + 0.0 * np.asarray(t, dtype=float),
                              lambda t: 0.0 * np.asarray(t, dtype=float))
    trace = petrovskii.biharmonic_linear_criterion(flat)
    assert trace.classification is Classification.UNDETERMINED
    assert "does not decay" in trace.diagnostic


def test_biharmonic_short_horizon_undetermined():
    trace = petrovskii.biharmonic_linear_criterion(
        funcs.lookup("biharmonic-critical", c=1.0))
    assert trace.classification is Classification.UNDETERMINED
    assert "too few" in trace.diagnostic


def test_biharmonic_period_cap():
    root = funcs.SlowGrowthFn("root",
                              lambda t: np.sqrt(np.asarray(t, dtype=float)),
                              lambda t: 0.5 / np.sqrt(np.asarray(t, dtype=float)))
    with pytest.raises(QuadratureError):
        petrovskii.biharmonic_linear_criterion(root)


def test_envelope_exponent_identity():
    d0 = 3.0 * 2.0 ** (-11.0 / 3.0)
    crit = funcs.lookup("biharmonic-critical")
    assert petrovskii.envelope_exponent(crit) == pytest.approx(1.0, abs=1e-12)
    for c in (0.5, 2.0, 4.0):
        phi = funcs.lookup("biharmonic-critical", c=c)
        assert petrovskii.envelope_exponent(phi) == pytest.approx(
            d0 * c ** (4.0 / 3.0), rel=1e-12)
    with pytest.raises(ValueError):
        petrovskii.envelope_exponent(crit, tau_lo=1.0)
    with pytest.raises(ValueError):
        petrovskii.envelope_exponent(crit, tau_lo=1e8, tau_hi=1e4)


@pytest.mark.parametrize("p", [0.0, 1e-6, 1e-4, 1.9e-4, 1.95e-4, 1e-3])
def test_constant_width_guard_reads_the_carrier_phase(p):
    # the biharmonic integral stays Undetermined where the carrier phase
    # b0 phi^alpha moves by less than 1e-3 over the horizon
    phi = funcs._phi_log_power(p, 3.0)
    trace = petrovskii.biharmonic_linear_criterion(phi, tau0=10.0, tau_max=1e9)
    b0, alpha = 3.0 ** 0.5 * 3.0 * 2.0 ** (-11.0 / 3.0), 4.0 / 3.0
    phase_move = b0 * (float(phi.phi(1e9)) ** alpha - float(phi.phi(10.0)) ** alpha)
    constant = trace.diagnostic.startswith("integrand envelope does not decay")
    assert constant == (phase_move < 1e-3)
    assert trace.fit.slope == petrovskii.envelope_exponent(phi, tau_lo=10.0,
                                                           tau_hi=1e9)


# -- trace export -----------------------------------------------------------------

def test_export_trace_csv(tmp_path):
    trace = petrovskii.petrovskii_integral(STAR, 1, 10.0, 1e6, n_points=50)
    path = tmp_path / "trace.csv"
    petrovskii.export_trace_csv(trace, str(path))
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,partial_value"
    assert len(lines) == 51
    x, s = (float(v) for v in lines[-1].split(","))
    assert x == pytest.approx(1e6, rel=1e-12)
    assert s == pytest.approx(trace.total, rel=1e-15)

    dens = petrovskii.dini_osgood_form(LINEAR, tau0=LN10, n_points=40)
    path2 = tmp_path / "dens.csv"
    petrovskii.export_trace_csv(dens, str(path2))
    assert path2.read_text().splitlines()[0] == "h,partial_value"
