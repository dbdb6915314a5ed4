"""Amplitude-ODE assembly, integration, verdict and comparison tests."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vertexreg import blayer, criterion, funcs, spectral
from vertexreg.errors import (ConfigError, DomainError, NoConvergence,
                              QuadratureError)

STAR = funcs.lookup("petrovskii-critical")
SUPER = funcs.lookup("petrovskii-super")
ZERO = funcs.lookup("zero-kappa")
NEGLOG = funcs.lookup("negative-log")
SQRT_PI = math.sqrt(math.pi)


# -- assembly ------------------------------------------------------------------

def test_m1_linear_rhs_closed_form():
    # phi* makes exp(-phi^2/4) collapse to 1/tau
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    tau = 100.0
    expected = -(1.0 / (4.0 * SQRT_PI)) * 2.0 * math.sqrt(math.log(tau)) / tau
    assert ode.rhs(tau, -1.0) == pytest.approx(expected, rel=1e-13)
    # reaction-free rhs cannot depend on the amplitude
    assert ode.rhs(tau, -300.0) == pytest.approx(ode.rhs(tau, -1.0), rel=1e-15)


def test_reaction_term_added_pointwise():
    ode = criterion.build_criterion(1, "multiplicative", STAR, NEGLOG)
    tau = 50.0
    base = criterion.build_criterion(1, "multiplicative", STAR, ZERO).rhs(tau, -2.0)
    assert ode.rhs(tau, -2.0) == pytest.approx(base - 0.5, rel=1e-12)


def test_gradient_kind_m1_formula():
    kap = funcs.lookup("negative-power")  # kappa(u) = -u
    ode = criterion.build_criterion(1, "gradient", STAR, kap)
    tau, x = 100.0, -1.0
    ph = 2.0 * math.sqrt(math.log(tau))
    a = math.exp(x)
    expected = (1.0 / (8.0 * SQRT_PI)) * (-a) * a ** 2 * ph ** 3 * math.exp(-ph * ph / 4.0)
    assert ode.nonlinear_rhs(tau, x) == pytest.approx(expected, rel=1e-13)


def test_gradient_kind_m2_uses_quartic_layer_weight():
    bi = funcs.lookup("biharmonic-critical")
    ode = criterion.build_criterion(2, "gradient", bi, funcs.lookup("negative-power"))
    prof = blayer.bl_profile(2)
    weight, _ = quad(lambda s: prof.deriv(s, 1) ** 4, 0.0, 80.0, limit=200)
    tau, x = 1e4, -1.0
    ph = float(bi.phi(tau))
    a = math.exp(x)
    expected = weight * (-a) * a ** 4 * ph ** 5 * spectral.default_kernel(2).F(ph)
    assert ode.nonlinear_rhs(tau, x) == pytest.approx(expected, rel=1e-12)


def test_radial_exponent_scales_linear_term():
    flat = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    radial = criterion.build_criterion(1, "multiplicative", STAR, ZERO,
                                       radial_exponent=3)
    tau = 100.0
    ratio = radial.linear_rhs(tau) / flat.linear_rhs(tau)
    assert ratio == pytest.approx(float(STAR.phi(tau)) ** 2, rel=1e-13)


def test_build_guards():
    with pytest.raises(ConfigError):
        criterion.build_criterion(3, "multiplicative", STAR, ZERO)
    with pytest.raises(ConfigError):
        criterion.build_criterion(1, "projective", STAR, ZERO)
    with pytest.raises(ConfigError):
        criterion.build_criterion(1, "multiplicative", STAR, ZERO,
                                  radial_exponent=0)


def test_rhs_finite_across_state_space():
    bi = funcs.lookup("biharmonic-critical")
    systems = [
        criterion.build_criterion(1, "multiplicative", STAR, NEGLOG),
        criterion.build_criterion(1, "gradient", STAR, NEGLOG),
        criterion.build_criterion(2, "multiplicative", bi, NEGLOG),
        criterion.build_criterion(2, "gradient", bi, NEGLOG),
    ]
    taus = np.geomspace(2.0, 1e12, 25)
    for ode in systems:
        for x in (0.0, -350.0, -700.0):
            vals = np.asarray(ode.rhs(taus, np.full_like(taus, x)), dtype=float)
            assert np.all(np.isfinite(vals)), (ode.kind, ode.m, x)


# -- integration ---------------------------------------------------------------

def test_closed_form_decay_law():
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    traj = criterion.integrate(ode, -1.0, 10.0, 1e6)
    drop = traj.ln_a0[-1] - traj.ln_a0[0]
    exact = -(1.0 / (3.0 * SQRT_PI)) * (math.log(1e6) ** 1.5 - math.log(10.0) ** 1.5)
    assert drop == pytest.approx(exact, rel=1e-6)
    # quadrature route agrees with the integrator (kappa = 0)
    assert criterion.linear_closed_form(1, STAR, 1e6, 10.0) == pytest.approx(
        drop, rel=1e-6)
    # and with the analytic antiderivative at a remote point
    huge = math.exp(100.0)
    analytic = -(1.0 / (3.0 * SQRT_PI)) * (100.0 ** 1.5 - math.log(10.0) ** 1.5)
    assert criterion.linear_closed_form(1, STAR, huge, 10.0) == pytest.approx(
        analytic, rel=1e-9)


def test_reaction_only_root_law():
    # with the linear term off, d ln a0/dtau = -1/|ln a0| integrates to -sqrt(2 tau)
    full = criterion.build_criterion(1, "multiplicative", STAR, NEGLOG)
    ode = dataclasses.replace(full, rhs=full.nonlinear_rhs)
    x0 = -math.sqrt(20.0)
    traj = criterion.integrate(ode, x0, 10.0, 1e5, tol=1e-11)
    predicted = -np.sqrt(2.0 * traj.tau)
    assert np.max(np.abs((traj.ln_a0 - predicted) / predicted)) < 1e-8


def test_wide_parabola_amplitude_settles():
    ode = criterion.build_criterion(1, "multiplicative", SUPER, ZERO)
    traj = criterion.integrate(ode, -1.0, 10.0, 1e9)
    at = lambda t: np.interp(math.log(t), np.log(traj.tau), traj.ln_a0)
    early_move = at(1e6) - at(1e7)
    late_move = at(1e8) - at(1e9)
    assert 0.0 < late_move < 0.5 * early_move
    assert traj.ln_a0[-1] > -5.0


def test_underflow_terminates_early():
    ode = criterion.build_criterion(1, "multiplicative", STAR, NEGLOG)
    traj = criterion.integrate(ode, -1.0, 10.0, 1e12)
    assert traj.underflow
    assert traj.ln_a0[-1] == pytest.approx(-745.0, abs=0.5)
    assert traj.tau[-1] == pytest.approx(2.761e5, rel=0.02)
    v = criterion.verdict(traj)
    assert v.verdict == "Regular"
    assert "underflow" in v.certificate


def test_amplitude_overflow_raises():
    ode = criterion.build_criterion(
        1, "multiplicative", STAR, funcs.lookup("positive-log", c=10.0))
    with pytest.raises(DomainError):
        criterion.integrate(ode, -0.05, 10.0, 1e6)


def test_integrate_preconditions():
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    with pytest.raises(ConfigError):
        criterion.integrate(ode, -1.0, 10.0, 1e6, tol=1e-5)
    with pytest.raises(ConfigError):
        criterion.integrate(ode, -1.0, 10.0, 1e6, tol=1e-13)
    with pytest.raises(ValueError):
        criterion.integrate(ode, -1.0, 1.0, 1e6)  # below phi.tau_min
    with pytest.raises(ValueError):
        criterion.integrate(ode, -1.0, 10.0, 1e13)
    with pytest.raises(DomainError):
        criterion.integrate(ode, 0.5, 10.0, 1e6)


def test_comparison_trajectories_never_cross():
    ode = criterion.build_criterion(1, "multiplicative", STAR, NEGLOG)
    lo = criterion.integrate(ode, -2.0, 10.0, 1e4)
    hi = criterion.integrate(ode, -1.0, 10.0, 1e4)
    hi_on_lo = np.interp(np.log(lo.tau), np.log(hi.tau), hi.ln_a0)
    assert np.all(lo.ln_a0 < hi_on_lo)


# -- verdicts --------------------------------------------------------------------

def test_verdict_dichotomy():
    reg = criterion.verdict(criterion.integrate(
        criterion.build_criterion(1, "multiplicative", STAR, ZERO),
        -1.0, 10.0, 1e9))
    assert reg.verdict == "Regular"
    assert reg.trend_slope < -0.05
    irr = criterion.verdict(criterion.integrate(
        criterion.build_criterion(1, "multiplicative", SUPER, ZERO),
        -1.0, 10.0, 1e9))
    assert irr.verdict == "Irregular"


def test_verdict_short_run_is_inconclusive():
    traj = criterion.integrate(
        criterion.build_criterion(1, "multiplicative", STAR, ZERO),
        -1.0, 10.0, 100.0)
    assert criterion.verdict(traj).verdict == "Inconclusive"


def test_verdict_stability_under_tolerance_and_horizon():
    for phi, expect in ((STAR, "Regular"), (SUPER, "Irregular")):
        ode = criterion.build_criterion(1, "multiplicative", phi, ZERO)
        verdicts = {
            criterion.verdict(criterion.integrate(ode, -1.0, 10.0, 1e9, tol=t)).verdict
            for t in (1e-8, 1e-10)}
        verdicts.add(criterion.verdict(
            criterion.integrate(ode, -1.0, 10.0, 1e10)).verdict)
        assert verdicts == {expect}


def test_verdict_record_and_threshold_guard():
    traj = criterion.integrate(
        criterion.build_criterion(1, "multiplicative", STAR, ZERO),
        -1.0, 10.0, 1e9)
    v = criterion.verdict(traj, {"drop": 12.0})
    rec = v.as_record("scn-1")
    assert rec["scenario"] == "scn-1"
    assert rec["thresholds"]["drop"] == 12.0
    assert set(rec) >= {"verdict", "ln_a0_final", "trend_slope", "certificate",
                        "trajectory_ref"}
    with pytest.raises(ConfigError):
        criterion.verdict(traj, {"dorp": 12.0})
    forced = criterion.verdict(traj, certificate="external evidence")
    assert forced.verdict == "Irregular"


# -- bi-harmonic linear term ------------------------------------------------------

BIH = funcs.lookup("biharmonic-critical")


def m2_exact(ph):
    """gamma2 phi F(phi) + gamma1 phi^(2/3) F'(phi): the m=2 linear term."""
    g = blayer.bl_profile(2).derivs_at_0
    kernel = spectral.default_kernel(2)
    return g[2] * ph * kernel.F(ph) + g[1] * ph ** (2.0 / 3.0) * kernel.F_deriv(ph, 1)


def m2_asymptotic(ph, m2c):
    """phi^(2/3) C3 cos(b0 phi^alpha + C4) e^{-d0 phi^alpha}: its far form."""
    t = np.asarray(ph, dtype=float) ** m2c.alpha
    return ph ** (2.0 / 3.0) * m2c.C3 * np.cos(m2c.b0 * t + m2c.C4) * np.exp(-m2c.d0 * t)


def bih_tau(ph):
    return math.exp((ph / funcs.BIHARMONIC_CRITICAL_C) ** (4.0 / 3.0))


def test_m2_exact_and_asymptotic_forms_agree_at_carrier_maxima():
    ode = criterion.build_criterion(2, "multiplicative", BIH, ZERO)
    m2c = ode.m2_constants
    for k in (3, 5, 7):
        ph = ((k * math.pi - m2c.C4) / m2c.b0) ** 0.75
        assert ph < criterion._M2_SWITCHOVER
        e = ode.linear_rhs(bih_tau(ph))
        assert e == pytest.approx(m2_exact(ph), rel=1e-12)
        p = m2_asymptotic(ph, m2c)
        assert abs(p - e) / abs(e) < 0.05, (k, ph)


def test_m2_switchover_is_continuous_in_value():
    ode = criterion.build_criterion(2, "multiplicative", BIH, ZERO)
    below, above = 19.999, 20.001
    lo, hi = (float(ode.linear_rhs(bih_tau(ph))) for ph in (below, above))
    # exact below phi = 20, the fitted far form above
    assert lo == pytest.approx(m2_exact(below), rel=1e-9)
    assert hi == pytest.approx(m2_asymptotic(above, ode.m2_constants), rel=1e-9)
    assert abs(hi - lo) < 0.15 * max(abs(lo), abs(hi))
    assert abs(hi - lo) < 1e-6


def test_m2_asymptotic_sign_pattern_follows_cosine_phase():
    ode = criterion.build_criterion(2, "multiplicative", BIH, ZERO)
    m2c = ode.m2_constants
    sg = np.linspace(math.log(10.0), math.log(1e9), 40000)
    tau = np.exp(sg)
    ph = np.asarray(BIH.phi(tau), dtype=float)
    theta = m2c.b0 * ph ** m2c.alpha + m2c.C4
    expected = int((theta[-1] - math.pi / 2.0) // math.pi
                   - math.ceil((theta[0] - math.pi / 2.0) / math.pi) + 1)
    lin = ode.linear_rhs(tau)
    far = ph > criterion._M2_SWITCHOVER
    for values, where in ((m2_asymptotic(ph, m2c), np.ones_like(far)),
                          (lin, far)):
        flips = np.where(np.diff(np.sign(values)) != 0)[0]
        assert len(flips) == expected
        for i in flips[where[flips]]:
            frac = (0.5 * (theta[i] + theta[i + 1]) - math.pi / 2.0) / math.pi
            assert abs(frac - round(frac)) < 0.01


def test_m2_period_summed_quadrature():
    wide = funcs.lookup("biharmonic-critical", c=4.0)
    v9 = criterion.linear_closed_form(2, wide, 1e9, 10.0)
    v12 = criterion.linear_closed_form(2, wide, 1e12, 10.0)
    # envelope decays like tau^{-d0 c^{4/3}} with d0 c^{4/3} > 1: the tail is tiny
    assert abs(v12 - v9) < 1e-3
    fast = funcs.SlowGrowthFn("fast-power",
                              lambda t: np.sqrt(np.asarray(t, dtype=float)),
                              lambda t: 0.5 / np.sqrt(np.asarray(t, dtype=float)))
    with pytest.raises(QuadratureError):
        criterion.linear_closed_form(2, fast, 1e9, 10.0)
    # a half-period whose quad is flagged fails the sum instead of warning
    with pytest.raises(QuadratureError, match="half-period 6"):
        criterion.linear_closed_form(
            2, funcs.lookup("biharmonic-critical", c=3.5), 1e9, 10.0)


# -- irregularity iteration --------------------------------------------------------

def test_iteration_certificate_scan():
    margins = {}
    for c in (1.0, 10.0, 100.0):
        ode = criterion.build_criterion(
            1, "multiplicative", STAR, funcs.lookup("critical-kappa", c=c))
        try:
            result = criterion.irregularity_iteration(ode)
            margins[c] = result.margin
            assert result.certificate is not None
        except NoConvergence as exc:
            margins[c] = exc.record.margin
    assert margins[1.0] == pytest.approx(-0.833, abs=0.05)
    assert margins[10.0] == pytest.approx(4.736, abs=0.15)
    assert margins[100.0] == pytest.approx(60.43, abs=1.0)
    assert [m > 0 for m in margins.values()] == [False, True, True]


def test_iteration_rejects_superlinear_decay_reaction():
    # kappa(u) = u decays far too fast along the comparison solution
    kap = funcs.Kappa("identity", lambda u: np.asarray(u, dtype=float),
                      u_max=1.0, sign="positive-increasing")
    ode = criterion.build_criterion(1, "multiplicative", STAR, kap)
    with pytest.raises(NoConvergence) as info:
        criterion.irregularity_iteration(ode)
    record = info.value.record
    assert record.margin == pytest.approx(-1.217, abs=0.05)
    assert len(record.iterates) >= 2


def test_iteration_preconditions():
    with pytest.raises(ValueError):
        criterion.irregularity_iteration(
            criterion.build_criterion(1, "multiplicative", STAR, NEGLOG))
    with pytest.raises(ConfigError):
        criterion.irregularity_iteration(
            criterion.build_criterion(1, "gradient", STAR,
                                      funcs.lookup("critical-kappa")))


# -- Osgood-Dini and gradient negligibility ----------------------------------------

def test_osgood_dini_examples():
    assert criterion.osgood_dini_check(NEGLOG).diverges
    assert criterion.osgood_dini_check(NEGLOG).tail_slope == pytest.approx(2.0, abs=0.05)
    assert criterion.osgood_dini_check(funcs.lookup("negative-power")).diverges
    const = funcs.Kappa("const-neg-one",
                        lambda u: -np.ones_like(np.asarray(u, dtype=float)))
    assert criterion.osgood_dini_check(const).diverges
    # unbounded test coefficient whose reciprocal integral converges
    steep = funcs.Kappa("neg-log-squared",
                        lambda u: -(np.log(np.asarray(u, dtype=float)) ** 2),
                        u_max=math.exp(-1.0))
    assert not criterion.osgood_dini_check(steep).diverges


def test_gradient_negligibility_decays():
    res = criterion.gradient_negligibility(STAR, funcs.lookup("critical-kappa"))
    assert res.max_ratio < 1e-3
    assert res.max_ratio > 1e-4
    unit = funcs.Kappa("unit-bound",
                       lambda u: np.ones_like(np.asarray(u, dtype=float)),
                       sign="positive-increasing")
    res_unit = criterion.gradient_negligibility(STAR, unit)
    assert res_unit.ratio[-1] < 0.1 * res_unit.ratio[0]
    frozen = criterion.gradient_negligibility(STAR, unit, freeze_amplitude=1.0)
    assert frozen.ratio[-1] > frozen.ratio[0]
    assert frozen.max_ratio == pytest.approx(
        0.5 * float(STAR.phi(1e6)) ** 2, rel=1e-6)


# -- exports -----------------------------------------------------------------------

def test_export_trajectory_csv(tmp_path):
    ode = criterion.build_criterion(1, "multiplicative", STAR, NEGLOG)
    traj = criterion.integrate(ode, -1.0, 10.0, 1e4)
    path = tmp_path / "trajectory.csv"
    criterion.export_trajectory_csv(traj, str(path))
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,ln_a0,rhs_linear,rhs_nonlinear"
    assert len(lines) == traj.tau.size + 1
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == pytest.approx(10.0, rel=1e-12)
    assert row[2] + row[3] == pytest.approx(float(ode.rhs(row[0], row[1])), rel=1e-10)
