"""Amplitude-ODE assembly, integration, verdict and comparison tests."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import quadrature_oracle as oracle  # the quadrature helper next to this file
from vertexreg import _solvers, blayer, criterion, funcs, petrovskii, spectral, tails
from vertexreg.errors import (ConfigError, DomainError, QuadratureError,
                              StiffnessError)

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


WIDTHS = [f for f in funcs.builtin_catalog() if isinstance(f, funcs.SlowGrowthFn)]
KAPPAS = [f for f in funcs.builtin_catalog() if isinstance(f, funcs.Kappa)]
_ODES = {}


def _ode(m, kind, width, kappa, n):
    key = (m, kind, width.name, kappa.name, n)
    if key not in _ODES:
        _ODES[key] = criterion.build_criterion(m, kind, width, kappa, n)
    return _ODES[key]


def _assert_scalar_matches_array(ode, taus, ln_a0s):
    lin = ode.linear_rhs(taus)
    non = ode.nonlinear_rhs(taus, ln_a0s)
    for i, (t, x) in enumerate(zip(taus.tolist(), ln_a0s)):  # x: np.float64
        one_lin = ode.linear_rhs(t)
        one_non = ode.nonlinear_rhs(t, x)
        assert type(one_lin) is float
        assert one_lin == lin[i], (ode.phi.name, ode.kappa.name, t)
        assert float(one_non) == non[i], (ode.phi.name, ode.kappa.name, t, x)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("width", WIDTHS, ids=lambda w: w.name)
@settings(max_examples=15, deadline=None)
@given(taus=st.lists(st.floats(min_value=2.0, max_value=1e12), min_size=1,
                     max_size=12),
       ln_a0=st.floats(min_value=-745.0, max_value=0.0))
def test_scalar_rhs_has_the_bits_of_the_array_rhs(width, m, n, taus, ln_a0):
    # LSODA asks for one float tau; the trajectory tables evaluate
    # arrays: both branches must give the same bits, for every catalog kappa
    # and both kinds
    taus = np.asarray(taus)
    ln_a0s = np.linspace(ln_a0, 0.5 * ln_a0, taus.size)
    for kind in ("multiplicative", "gradient"):
        for kappa in KAPPAS:
            _assert_scalar_matches_array(_ode(m, kind, width, kappa, n),
                                         taus, ln_a0s)


@pytest.mark.parametrize("m", [1, 2])
def test_scalar_linear_rhs_keeps_the_array_square_for_n3(m):
    # phi^(N-1) on an array is numpy's square for N=3; a scalar pow(phi, 2)
    # is not always rounded like phi*phi, so a dense grid checks the factor
    ode = criterion.build_criterion(m, "multiplicative", STAR, ZERO,
                                    radial_exponent=3)
    taus = np.geomspace(2.0, 1e12, 4000)
    assert [ode.linear_rhs(t) for t in taus.tolist()] == ode.linear_rhs(taus).tolist()


@pytest.mark.parametrize("kind", ["multiplicative", "gradient"])
@pytest.mark.parametrize("m", [1, 2])
def test_scalar_rhs_hands_kappa_a_numpy_scalar(m, kind):
    seen = []

    def kappa(u):
        seen.append(type(u))
        return NEGLOG.kappa(u)

    ode = criterion.build_criterion(m, kind, STAR,
                                    dataclasses.replace(NEGLOG, kappa=kappa))
    ode.rhs(1e3, np.array([-2.0])[0])  # LSODA passes its state as y[0]
    assert seen == [np.float64]


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
    assert oracle.linear_closed_form(1, STAR, 1e6, 10.0) == pytest.approx(
        drop, rel=1e-6)
    # and with the analytic antiderivative at a remote point
    huge = math.exp(100.0)
    analytic = -(1.0 / (3.0 * SQRT_PI)) * (100.0 ** 1.5 - math.log(10.0) ** 1.5)
    assert oracle.linear_closed_form(1, STAR, huge, 10.0) == pytest.approx(
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
    assert traj.stop == "underflow"
    assert traj.ln_a0[-1] == pytest.approx(-745.0, abs=0.5)
    assert traj.tau[-1] == pytest.approx(2.761e5, rel=0.02)
    v = criterion.verdict(traj)
    assert v.verdict == "Regular"
    assert "underflow" in v.certificate


def test_amplitude_ceiling_stops_the_run():
    # reaching the ceiling is an outcome: the run stops there, the verdict
    # is Irregular, and a caller's certificate does not replace its reason
    ode = criterion.build_criterion(
        1, "multiplicative", STAR, funcs.lookup("positive-log", c=10.0))
    traj = criterion.integrate(ode, -0.05, 10.0, 1e6)
    assert traj.stop == "ceiling"
    assert traj.tau[-1] < 1e6
    assert traj.ln_a0[-1] == pytest.approx(0.0, abs=1e-8)
    for cert in (None, "caller's certificate"):
        v = criterion.verdict(traj, certificate=cert)
        assert v.verdict == "Irregular"
        assert v.certificate == (f"amplitude overflow: ln a0 reached 0 at "
                                 f"tau={traj.tau[-1]:.4g}")


def test_m2_linear_run_from_near_the_ceiling_stops_there():
    # biharmonic-critical at c = 2.5 grows from ln a0 = -1 through the
    # ceiling; the run keeps its trajectory up to that point
    phi = funcs.lookup("biharmonic-critical", c=2.5)
    ode = criterion.build_criterion(2, "multiplicative", phi, ZERO)
    traj = criterion.integrate(ode, -1.0, 10.0, 1e9)
    assert traj.stop == "ceiling"
    assert traj.ln_a0[-1] == pytest.approx(0.0, abs=1e-8)
    assert np.all(traj.ln_a0[:-1] < 0.0)
    v = criterion.verdict(traj)
    assert v.verdict == "Irregular"
    assert v.certificate == "amplitude overflow: ln a0 reached 0 at tau=35.19"
    assert v.ln_a0_final == traj.ln_a0[-1]


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



def test_lsoda_failure_raises_stiffness_error(monkeypatch):
    # LSODA rejects zero tolerances with istate=-3; integrate reports the
    # failed step instead of returning a partial trajectory. A nonzero
    # kappa keeps the run on LSODA (a zero one goes by quadrature)
    real_lsoda = _solvers.lsoda

    def untolerant_lsoda(*args, **kwargs):
        return real_lsoda(*args, **dict(kwargs, rtol=0.0, atol=0.0))

    monkeypatch.setattr("vertexreg._solvers.lsoda", untolerant_lsoda)
    ode = criterion.build_criterion(1, "multiplicative", STAR, NEGLOG)
    with pytest.raises(StiffnessError, match=r"t=2\.30.* istate=-3"):
        criterion.integrate(ode, -1.0, 10.0, 1e6)


# Each case runs in its own interpreter under a timeout, so that a driver
# which steps on forever fails the test instead of hanging the suite. The
# integrate case builds on a nonzero kappa, so that LSODA runs.
NON_FINITE_RUNS = {
    # y' = y^2 from y = 1 reaches inf at t = 1
    "blow-up": """
import math
import numpy as np
from vertexreg import _solvers
def square(t, y):
    v = float(y[0])
    return [v * v]
try:
    _solvers.lsoda(square, np.linspace(0.0, 5.0, 50), 1.0, -math.inf, math.inf,
                   1e-10, 1e-10, 0.25)
except ValueError as exc:
    print(exc)
""",
    "nan-driver": """
import math
import numpy as np
from vertexreg import _solvers
def turns_nan(t, y):
    return [math.nan if t > 2.0 else -float(y[0])]
try:
    _solvers.lsoda(turns_nan, np.linspace(0.0, 5.0, 50), 1.0, -math.inf, math.inf,
                   1e-10, 1e-10, 0.25)
except ValueError as exc:
    print(exc)
""",
    "nan-integrate": """
import dataclasses, math
from vertexreg import criterion, funcs
from vertexreg.errors import StiffnessError
ode = criterion.build_criterion(1, "multiplicative", funcs.lookup("petrovskii-critical"),
                                funcs.lookup("negative-log"))
ode = dataclasses.replace(ode, rhs=lambda tau, x: math.nan if tau > 100.0 else -1e-3)
try:
    criterion.integrate(ode, -1.0, 10.0, 1e6)
except StiffnessError as exc:
    print(exc)
""",
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_RUNS))
def test_non_finite_right_side_fails_typed(case):
    src = os.path.dirname(os.path.dirname(criterion.__file__))
    out = subprocess.run([sys.executable, "-c", NON_FINITE_RUNS[case]],
                         capture_output=True, text=True, check=True, timeout=30,
                         env=dict(os.environ, PYTHONPATH=src))
    assert re.search(r"the right side is (inf|nan) at t=\S", out.stdout), out.stdout


def test_failed_event_root_raises_stiffness_error(monkeypatch):
    def unbracketed(*args):
        raise ValueError("f(a) and f(b) must have different signs")

    monkeypatch.setattr("vertexreg._solvers.brentq", unbracketed)
    ode = criterion.build_criterion(1, "multiplicative", STAR, NEGLOG)
    ode = dataclasses.replace(ode, rhs=lambda tau, x: -1.0)  # underflows at once
    with pytest.raises(StiffnessError, match="different signs"):
        criterion.integrate(ode, -1.0, 10.0, 1e6)


# -- the kappa = 0 path: quadrature of the linear term on the output grid --------

LINEAR_RUNS = ([pytest.param(1, w, 1e12, id=f"m1-{w.name}") for w in WIDTHS]
               + [pytest.param(2, funcs.lookup("biharmonic-critical", c=c), 1e9,
                               id=f"m2-c{c:.5g}")
                  for c in (funcs.BIHARMONIC_CRITICAL_C, 3.6534, 5.6545, 7.3155)])


@pytest.mark.parametrize("m, width, tau_max", LINEAR_RUNS)
def test_linear_run_matches_the_closed_form(m, width, tau_max):
    # LSODA missed the integral by up to 4e-9 here; the quadrature by 2e-13
    ode = criterion.build_criterion(m, "multiplicative", width, ZERO)
    traj = criterion.integrate(ode, -1.0, 10.0, tau_max)
    assert traj.stop is None and traj.tau[-1] == pytest.approx(tau_max)
    exact = oracle.linear_closed_form(m, width, traj.tau[-1], 10.0)
    assert abs((traj.ln_a0[-1] + 1.0) - exact) < 1e-11


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([1, 2]), width=st.sampled_from(WIDTHS),
       inits=st.tuples(st.floats(-700.0, -1.0), st.floats(-700.0, -1.0)),
       log_tau_max=st.floats(2.0, 12.0))
def test_linear_run_does_not_depend_on_the_start(m, width, inits, log_tau_max):
    # with kappa = 0, ln a0(tau) - init is one integral, whatever init is
    ode = _ode(m, "multiplicative", width, ZERO, 1)
    runs = [criterion.integrate(ode, x, 10.0, 10.0 ** log_tau_max) for x in inits]
    # the grid points before either run's stop
    n = min(len(r.tau) - (r.stop is not None) for r in runs)
    assert runs[0].tau[:n].tobytes() == runs[1].tau[:n].tobytes()
    drops = [r.ln_a0[:n] - x for r, x in zip(runs, inits)]
    assert np.max(np.abs(drops[0] - drops[1])) <= 1e-12


def test_linear_quadrature_error_above_tol_raises(monkeypatch):
    # all four nodes on the left end make a rectangle rule, whose pairs of
    # intervals disagree with the single intervals far beyond tol
    monkeypatch.setattr(criterion, "_GAUSS_NODES", np.full(4, -1.0))
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    with pytest.raises(QuadratureError, match=r"error estimate .* above tol 1e-10"):
        criterion.integrate(ode, -1.0, 10.0, 1e6)


@pytest.mark.parametrize("p, n, tau0, tol", [
    pytest.param(3.0, 3, 10.0, 1e-12, id="p3-N3-tol1e-12"),
    pytest.param(5.0, 3, 2.0, 1e-10, id="p5-N3-from2"),
])
def test_fast_width_passes_the_error_check(p, n, tau0, tol):
    # pairs against halves differ by up to 3.2e-10 here, about 255 times the
    # halves' own error: an 8 times finer grid agrees to 1.5e-12. tol bounds
    # that error, as it bounded LSODA's steps, which took these runs
    width = funcs.lookup("log-power", p=p)
    ode = criterion.build_criterion(2, "multiplicative", width, ZERO, n)
    traj = criterion.integrate(ode, -1.0, tau0, 1e12, tol=tol)
    assert traj.stop is None
    fine = np.linspace(math.log(tau0), math.log(1e12), 8 * (traj.tau.size - 1) + 1)
    _, refined, _, _ = criterion._linear_path(ode, fine, -1.0, 1.0)
    assert np.max(np.abs(traj.ln_a0 - refined[::8])) < 1e-11


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_linear_term_raises_stiffness_error(bad):
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    ode = dataclasses.replace(
        ode, linear_rhs=lambda tau: np.where(tau > 100.0, bad, -1e-3))
    with pytest.raises(StiffnessError,
                       match=rf"integration stalled: the right side is {bad!r} "
                             r"at t=4\.6"):  # ln 100 = 4.605
        criterion.integrate(ode, -1.0, 10.0, 1e6)


def test_non_finite_linear_term_past_the_stop_is_never_reached():
    # -1 per unit tau falls to -745 near tau = 754, before the poison at 1e4
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    ode = dataclasses.replace(
        ode, linear_rhs=lambda tau: np.where(tau > 1e4, math.nan, -1.0))
    traj = criterion.integrate(ode, -1.0, 10.0, 1e6)
    assert traj.stop == "underflow"
    assert traj.tau[-1] == pytest.approx(754.0, rel=1e-12)


def test_linear_underflow_stop_is_the_integral_root():
    # log-power p=0.69 from -1 falls to the floor before its integral
    # converges; the stop is where the integral itself reaches -745 (LSODA's
    # stop, at 1.2713177504088e8, was 3.6e-10 off in ln a0)
    phi = funcs.lookup("log-power", p=0.69)
    ode = criterion.build_criterion(1, "multiplicative", phi, ZERO)
    traj = criterion.integrate(ode, -1.0, 10.0, 1e9)
    assert traj.stop == "underflow"
    assert traj.tau[-1] == pytest.approx(1.2713177504088e8, rel=1e-6)
    assert traj.ln_a0[-1] == pytest.approx(-745.0, abs=1e-12)
    exact = oracle.linear_closed_form(1, phi, traj.tau[-1], 10.0)
    assert abs(-1.0 + exact + 745.0) < 1e-11


@pytest.mark.parametrize("kind", ["multiplicative", "gradient"])
@pytest.mark.parametrize("m", [1, 2])
def test_float_rhs_memo_stays_out_of_array_calls(m, kind):
    # a float tau reuses the last float tau's linear term; an array call
    # right after one must still give each point its own value
    ode = criterion.build_criterion(m, kind, STAR, NEGLOG)
    taus = np.geomspace(10.0, 1e9, 9)
    x = np.array([-3.0])[0]
    for t, t_next in zip(taus[:-1].tolist(), taus[1:].tolist()):
        one = ode.rhs(t, x)
        assert ode.rhs(t, x) == one
        both = ode.rhs(np.array([t, t_next]), np.array([x, x]))
        assert both.tolist() == [one, ode.rhs(t_next, x)]
        assert ode.rhs(t, x - 1.0) == ode.linear_rhs(t) + ode.nonlinear_rhs(t, x - 1.0)

def test_comparison_trajectories_never_cross():
    ode = criterion.build_criterion(1, "multiplicative", STAR, NEGLOG)
    lo = criterion.integrate(ode, -2.0, 10.0, 1e4)
    hi = criterion.integrate(ode, -1.0, 10.0, 1e4)
    hi_on_lo = np.interp(np.log(lo.tau), np.log(hi.tau), hi.ln_a0)
    assert np.all(lo.ln_a0 < hi_on_lo)


# -- verdicts --------------------------------------------------------------------

def test_verdict_dichotomy():
    # the m=1 verdict is the integral criterion's tail test applied to the
    # decay rate: its fitted p is the tau form's, up to the sample grid.
    # log-power p=0.75 converges (2p > 1), and its verdict says so at 1e9
    for phi, expect in ((STAR, "Regular"), (SUPER, "Irregular"),
                        (funcs.lookup("log-power", p=0.75), "Irregular")):
        v = criterion.verdict(criterion.integrate(
            criterion.build_criterion(1, "multiplicative", phi, ZERO),
            -1.0, 10.0, 1e9))
        assert v.verdict == expect
        assert v.certificate is None
        fit = petrovskii.petrovskii_integral(phi, tau_max=1e9).fit
        assert v.tail_exponent == pytest.approx(fit.slope, abs=1e-3)


def test_verdict_short_run_is_inconclusive():
    # an m=2 run keeps the plateau rule, which needs 3 decades
    traj = criterion.integrate(
        criterion.build_criterion(2, "multiplicative", BIH, ZERO),
        -1.0, 10.0, 100.0)
    v = criterion.verdict(traj)
    assert (v.verdict, v.tail_exponent) == ("Inconclusive", None)
    # an m=1 run whose rate turns negative in its tail: ln a0 rises
    rising = criterion.integrate(
        criterion.build_criterion(1, "multiplicative", STAR,
                                  funcs.lookup("positive-log")),
        -50.0, 10.0, 100.0)
    assert rising.stop is None and rising.ln_a0[-1] > -50.0
    v = criterion.verdict(rising)
    assert (v.verdict, v.tail_exponent) == ("Inconclusive", None)
    # a short m=1 run that decays is decided by the tail test
    short = criterion.verdict(criterion.integrate(
        criterion.build_criterion(1, "multiplicative", STAR, ZERO),
        -1.0, 10.0, 100.0))
    assert short.verdict == "Regular"


@pytest.mark.parametrize("kappa, init, stop", [
    (funcs.lookup("negative-log"), -745.0, "underflow"),
    (funcs.lookup("positive-log", c=10.0), 0.0, "ceiling"),
], ids=["floor", "ceiling"])
def test_first_step_stop_fits_nothing(kappa, init, stop):
    # a run that stops within its first step leaves two points; the stop
    # decides, so nothing is fitted and nothing warns
    traj = criterion.integrate(
        criterion.build_criterion(1, "multiplicative", STAR, kappa),
        init, 10.0, 1e6)
    assert traj.stop == stop and traj.tau.size == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = criterion.verdict(traj)
    assert v.tail_exponent is None
    assert v.verdict == ("Regular" if stop == "underflow" else "Irregular")


def _m1_widths():
    catalog = [f for f in funcs.builtin_catalog()
               if isinstance(f, funcs.SlowGrowthFn)]
    return st.one_of(
        st.sampled_from(catalog),
        st.floats(0.0, 0.5).map(lambda e: funcs.lookup("petrovskii-super", eps=e)),
        st.floats(0.5, 5.0).map(lambda p: funcs.lookup("log-power", p=p)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(phi=_m1_widths(), log_tau_max=st.floats(2.0, 12.0))
def test_ode_verdict_is_the_tau_form_class(phi, log_tau_max):
    # zero kappa: the ODE's decay rate is the tau form's integrand up to a
    # constant, so one tail test gives one answer over one span. A run that
    # reaches the floor first is decided by the floor rule instead.
    tau_max = 10.0 ** log_tau_max
    traj = criterion.integrate(
        criterion.build_criterion(1, "multiplicative", phi, ZERO),
        -1.0, 10.0, tau_max)
    cls = petrovskii.petrovskii_integral(phi, tau_max=tau_max).classification
    if traj.stop is None:
        assert criterion.verdict(traj).verdict == \
            tails.IMPLIED_REGULARITY.get(cls.value, "Inconclusive")


def test_verdict_stability_under_tolerance_and_horizon():
    for phi, expect in ((STAR, "Regular"), (SUPER, "Irregular")):
        ode = criterion.build_criterion(1, "multiplicative", phi, ZERO)
        verdicts = {
            criterion.verdict(criterion.integrate(ode, -1.0, 10.0, 1e9, tol=t)).verdict
            for t in (1e-8, 1e-10)}
        verdicts.add(criterion.verdict(
            criterion.integrate(ode, -1.0, 10.0, 1e10)).verdict)
        assert verdicts == {expect}


def test_verdict_record_and_certificate():
    traj = criterion.integrate(
        criterion.build_criterion(1, "multiplicative", STAR, ZERO),
        -1.0, 10.0, 1e9)
    rec = dataclasses.asdict(criterion.verdict(traj))
    assert set(rec) == {"verdict", "ln_a0_final", "tail_exponent", "tail",
                        "certificate", "trajectory_ref"}
    assert rec["tail_exponent"] == criterion.verdict(traj).tail_exponent
    assert rec["tail"] == "fit"
    forced = criterion.verdict(traj, certificate="external evidence")
    assert forced.verdict == "Irregular"
    assert (forced.certificate, forced.tail_exponent, forced.tail) == \
        ("external evidence", None, None)


def test_floor_dominated_tail_is_named():
    # log-power p=2: the decay rate sinks below the tail test's floor, so
    # no power is fitted; tail_exponent is inf, which the report writes as
    # null, and tail tells it from "nothing was fitted"
    traj = criterion.integrate(
        criterion.build_criterion(1, "multiplicative",
                                  funcs.lookup("log-power", p=2.0), ZERO),
        -1.0, 10.0, 1e12)
    v = criterion.verdict(traj)
    assert traj.stop is None and v.certificate is None
    assert (v.verdict, v.tail_exponent, v.tail) == ("Irregular", math.inf, "floor")


# -- bi-harmonic linear term ------------------------------------------------------

BIH = funcs.lookup("biharmonic-critical")


def m2_exact(ph):
    """gamma2 phi F(phi) + gamma1 phi^(2/3) F'(phi): the m=2 linear term."""
    g = blayer.bl_profile(2).derivs_at_0
    kernel = spectral.default_kernel(2)
    return g[2] * ph * kernel.F(ph) + g[1] * ph ** (2.0 / 3.0) * kernel.F_deriv(ph, 1)


def bih_tau(ph):
    return math.exp((ph / funcs.BIHARMONIC_CRITICAL_C) ** (4.0 / 3.0))


def test_m2_linear_and_gradient_terms_have_no_jump_at_phi_20():
    # the kernel itself on both sides of phi = 20, where a fitted far form
    # used to take over with a 7.4% step
    lin = criterion.build_criterion(2, "multiplicative", BIH, ZERO)
    kap = funcs.lookup("negative-power")
    grad = criterion.build_criterion(2, "gradient", BIH, kap)
    weight = criterion._bl_gradient_quartic()
    kernel = spectral.default_kernel(2)
    x = -1.0
    a = math.exp(x)
    values = []
    for ph in (19.999, 20.0, 20.001):
        tau = bih_tau(ph)
        ph = float(BIH.phi(tau))
        value = lin.linear_rhs(tau)
        assert value == pytest.approx(m2_exact(ph), rel=1e-12)
        factor = grad.nonlinear_rhs(tau, x) / (weight * kap.kappa(a) * a ** 4 * ph ** 5)
        assert factor == pytest.approx(kernel.F(ph), rel=1e-12)
        values.append(value)
    # the term moves by under 0.1% per 0.001 in phi here
    assert abs(values[2] - values[0]) < 2e-3 * abs(values[1])


def test_m2_linear_term_changes_sign_with_its_carrier():
    # beyond phi = 20 the sign flips of the linear term fall on the closed-
    # form carrier b0 phi^(4/3) + 2 pi/3 = pi/2 + k pi; this width reaches
    # phi = 88 by tau = 1e12, past the interpolant's span of 60
    wide = funcs.lookup("biharmonic-critical", c=7.3155)
    ode = criterion.build_criterion(2, "multiplicative", wide, ZERO)
    m2c = ode.m2_constants
    # the closed form 2 pi/3 is this phase, from the layer's gamma1, gamma2
    d0 = spectral.kernel_constants(2).d0
    ag1 = m2c.alpha * m2c.gamma1
    assert m2c.C4 == pytest.approx(
        -math.pi / 6.0 + math.atan2(ag1 * m2c.b0, m2c.gamma2 - ag1 * d0), rel=1e-15)
    sg = np.linspace(math.log(10.0), math.log(1e12), 60000)
    ph = np.asarray(wide.phi(np.exp(sg)), dtype=float)
    sg, ph = sg[ph > 20.0], ph[ph > 20.0]
    theta = m2c.b0 * ph ** m2c.alpha + m2c.C4
    values = ode.linear_rhs(np.exp(sg))
    flips = np.flatnonzero(np.diff(np.sign(values)) != 0)
    expected = int((theta[-1] - math.pi / 2.0) // math.pi
                   - math.ceil((theta[0] - math.pi / 2.0) / math.pi) + 1)
    assert len(flips) == expected
    for i in flips:
        frac = (0.5 * (theta[i] + theta[i + 1]) - math.pi / 2.0) / math.pi
        assert abs(frac - round(frac)) < 0.01, ph[i]


def test_m2_period_summed_quadrature():
    wide = funcs.lookup("biharmonic-critical", c=4.0)
    v9 = oracle.linear_closed_form(2, wide, 1e9, 10.0)
    v12 = oracle.linear_closed_form(2, wide, 1e12, 10.0)
    # envelope decays like tau^{-d0 c^{4/3}} with d0 c^{4/3} > 1: the tail is tiny
    assert abs(v12 - v9) < 1e-3
    fast = funcs.SlowGrowthFn("fast-power",
                              lambda t: np.sqrt(np.asarray(t, dtype=float)),
                              lambda t: 0.5 / np.sqrt(np.asarray(t, dtype=float)))
    with pytest.raises(QuadratureError):
        oracle.linear_closed_form(2, fast, 1e9, 10.0)


def test_m2_flagged_half_period_fails_the_sum(monkeypatch):
    # a half-period whose error estimate stays above the bound is flagged
    # with it, not returned quietly; no catalog width fails the bound, so
    # a bound of 0 fails every piece
    monkeypatch.setattr(criterion, "_PIECE_EPSABS", 0.0)
    monkeypatch.setattr(criterion, "_PIECE_EPSREL", 0.0)
    ode = criterion.build_criterion(
        2, "multiplicative", funcs.lookup("biharmonic-critical", c=3.5), ZERO)
    _, pieces, flags = criterion._period_sum(ode, math.log(10.0), math.log(1e9))
    assert len(flags) == len(pieces) == 14
    assert re.match(r"the Gauss rule flagged half-period 0 of 14 \(tau 10 to "
                    r".*, abserr .*\): above max\(0, 0 \|piece\|\) on 256 "
                    r"sub-intervals$", flags[0])
    # the flagged values are still the rule's, on 256 sub-intervals
    assert np.allclose(pieces, oracle.period_pieces(
        ode, math.log(10.0), math.log(1e9))[1], rtol=1e-12, atol=0.0)


def test_m1_flagged_quad_fails_like_m2(monkeypatch):
    # one flag policy for both orders: the oracle raises on a flagged m=1
    # value with quad's message instead of returning it
    real_quad = oracle.quad

    def flagging_quad(*args, **kwargs):
        return real_quad(*args, **kwargs)[:3] + ("Roundoff error is detected",)

    monkeypatch.setattr(oracle, "quad", flagging_quad)
    with pytest.raises(QuadratureError,
                       match="m=1 integral .*Roundoff error is detected"):
        oracle.linear_closed_form(1, funcs.lookup("petrovskii-critical"),
                                  1e9, 10.0)


@pytest.mark.parametrize("c", [3.5, 3.6036, 3.6534])
def test_m2_period_sum_is_unflagged(c):
    # these c once put a step of the integrand inside a half-period, where
    # quad flagged roundoff; every half-period must integrate unflagged
    ode = criterion.build_criterion(
        2, "multiplicative", funcs.lookup("biharmonic-critical", c=c), ZERO)
    cuts, pieces, flags = criterion._period_sum(ode, math.log(10.0), math.log(1e9))
    assert flags == []
    assert len(pieces) == len(cuts) - 1


# a scan over widths, horizons and N: the biharmonic-critical c either side
# of c*, the root-log and the log-power widths
PERIOD_SCAN = [
    ("biharmonic-critical", {"c": 1.5}, 1, 1e9),
    ("biharmonic-critical", {"c": 2.5}, 3, 1e12),
    ("biharmonic-critical", {}, 2, 1e6),
    ("biharmonic-critical", {"c": 3.6534}, 1, 1e9),
    ("biharmonic-critical", {"c": 7.3155}, 1, 1e9),
    ("biharmonic-critical", {"c": 10.0}, 2, 1e12),
    ("petrovskii-critical", {}, 3, 1e12),
    ("petrovskii-critical", {}, 1, 1e4),
    ("petrovskii-super", {"eps": 0.5}, 2, 1e9),
    ("log-power", {"p": 0.25}, 3, 1e12),
    ("log-power", {"p": 0.5}, 1, 1e6),
    ("log-power", {"p": 1.0}, 2, 1e9),
    ("log-power", {"p": 2.0}, 3, 1e4),
]


@pytest.mark.parametrize("name, params, n, tau_max", PERIOD_SCAN)
def test_period_sum_pieces_match_quadpack(name, params, n, tau_max):
    # each piece of the Gauss rule meets QUADPACK's value within QUADPACK's
    # own bound, and neither flags a piece
    ode = criterion.build_criterion(2, "multiplicative",
                                    funcs.lookup(name, **params), ZERO, n)
    s0, s1 = math.log(10.0), math.log(tau_max)
    cuts, pieces, flags = criterion._period_sum(ode, s0, s1)
    oracle_cuts, exact, oracle_flags = oracle.period_pieces(ode, s0, s1)
    assert flags == oracle_flags == []
    assert cuts == oracle_cuts
    for piece, value in zip(pieces, exact):
        assert abs(piece - value) <= max(1e-13, 1e-10 * abs(value))


def test_period_sum_refines_the_pieces_that_need_it(monkeypatch):
    # at 1e12 the root-log width's third piece fails the bound on 16
    # sub-intervals (estimate 1.4 times the bound at N = 3) and passes on 32
    ode = criterion.build_criterion(2, "multiplicative", STAR, ZERO, 3)
    s0, s1 = math.log(10.0), math.log(1e12)
    assert criterion._period_sum(ode, s0, s1)[2] == []
    monkeypatch.setattr(criterion, "_PIECE_SPLITS", (16, 16))
    flags = criterion._period_sum(ode, s0, s1)[2]
    assert len(flags) == 1 and "half-period 2 of 4" in flags[0]


def test_period_sum_flags_a_non_finite_piece():
    # a piece that meets a NaN is flagged at once, not refined
    ode = criterion.build_criterion(
        2, "multiplicative", funcs.lookup("biharmonic-critical", c=3.5), ZERO)
    real = ode.linear_rhs
    ode = dataclasses.replace(
        ode, linear_rhs=lambda tau: np.where(tau > 1e7, np.nan, real(tau)))
    cuts, pieces, flags = criterion._period_sum(ode, math.log(10.0), math.log(1e9))
    holed = [i for i in range(len(pieces)) if math.exp(cuts[i + 1]) > 1e7]
    assert holed and [math.isnan(p) for p in pieces] == [
        i in holed for i in range(len(pieces))]
    assert len(flags) == len(holed)
    assert all(f.endswith("abserr nan): a non-finite value") for f in flags)


@pytest.mark.parametrize("c", [2.5, funcs.BIHARMONIC_CRITICAL_C, 3.2, 3.6534, 7.3155])
def test_zero_kappa_run_is_the_sum_of_the_period_pieces(c):
    # one m=2 rule for both routes: the zero-kappa ODE's ln a0(tau_max) -
    # init is the period sum of the same linear term
    ode = criterion.build_criterion(
        2, "multiplicative", funcs.lookup("biharmonic-critical", c=c), ZERO)
    traj = criterion.integrate(ode, -300.0, 10.0, 1e9)
    assert traj.stop is None
    _, pieces, flags = criterion._period_sum(ode, math.log(10.0), math.log(1e9))
    assert flags == []
    assert abs((traj.ln_a0[-1] + 300.0) - math.fsum(pieces)) < 1e-11


def test_period_sum_memory_does_not_grow_with_the_half_periods():
    # pieces go through the rule a block at a time: the peak above what
    # the call returns stays the same from 2 blocks to 14
    ode = criterion.build_criterion(
        2, "multiplicative", funcs.lookup("log-power", p=2.0), ZERO)

    def scratch(tau_max):
        tracemalloc.start()
        try:
            cuts, pieces, _ = criterion._period_sum(ode, math.log(10.0),
                                                    math.log(tau_max))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return len(pieces), peak - current

    (few, small), (many, large) = scratch(1e6), scratch(1e12)
    assert few > 2 * criterion._PIECE_BLOCK and many > 12 * criterion._PIECE_BLOCK
    assert large <= 1.05 * small


# -- irregularity iteration --------------------------------------------------------

def test_iteration_certificate_scan():
    margins = {}
    for c in (1.0, 10.0, 100.0):
        ode = criterion.build_criterion(
            1, "multiplicative", STAR, funcs.lookup("critical-kappa", c=c))
        result = criterion.irregularity_iteration(ode)
        margins[c] = result.margin
        assert (result.certificate is not None) == (result.margin > 0.0)
    assert margins[1.0] == pytest.approx(-0.833, abs=0.05)
    assert margins[10.0] == pytest.approx(4.736, abs=0.15)
    assert margins[100.0] == pytest.approx(60.43, abs=1.0)
    assert [m > 0 for m in margins.values()] == [False, True, True]


def test_iteration_rejects_superlinear_decay_reaction():
    # kappa(u) = u decays far too fast along the comparison solution
    kap = funcs.Kappa("identity", lambda u: np.asarray(u, dtype=float),
                      u_max=1.0, sign="positive-increasing")
    ode = criterion.build_criterion(1, "multiplicative", STAR, kap)
    record = criterion.irregularity_iteration(ode)
    assert record.certificate is None
    assert record.margin == pytest.approx(-1.217, abs=0.05)
    assert len(record.iterates) >= 2


def test_iteration_preconditions():
    with pytest.raises(ConfigError, match="positive increasing"):
        criterion.irregularity_iteration(
            criterion.build_criterion(1, "multiplicative", STAR, NEGLOG))
    with pytest.raises(ConfigError):
        criterion.irregularity_iteration(
            criterion.build_criterion(1, "gradient", STAR,
                                      funcs.lookup("critical-kappa")))


# -- Osgood-Dini and gradient negligibility ----------------------------------------

DIVERGES = tails.Classification.DIVERGENT


def test_osgood_dini_examples():
    # the tail test's p of 1/|kappa(e^-ell)| in ell: -1 for 1/|kappa| = ell
    assert criterion.osgood_dini_check(NEGLOG)[0] is DIVERGES
    assert criterion.osgood_dini_check(NEGLOG)[1].slope == pytest.approx(-1.0, abs=1e-9)
    assert criterion.osgood_dini_check(funcs.lookup("negative-power"))[0] is DIVERGES
    const = funcs.Kappa("const-neg-one",
                        lambda u: -np.ones_like(np.asarray(u, dtype=float)))
    assert criterion.osgood_dini_check(const)[0] is DIVERGES
    # unbounded test coefficient whose reciprocal integral converges
    steep = funcs.Kappa("neg-log-squared",
                        lambda u: -(np.log(np.asarray(u, dtype=float)) ** 2),
                        u_max=math.exp(-1.0))
    assert criterion.osgood_dini_check(steep)[0] is not DIVERGES
    assert criterion.osgood_dini_check(steep)[1].slope == pytest.approx(2.0, abs=1e-9)


def test_gradient_negligibility_decays():
    res = criterion.gradient_negligibility(STAR, funcs.lookup("critical-kappa"))
    assert res.max_ratio < 1e-3
    assert res.max_ratio > 1e-4
    unit = funcs.Kappa("unit-bound",
                       lambda u: np.ones_like(np.asarray(u, dtype=float)),
                       sign="positive-increasing")
    res_unit = criterion.gradient_negligibility(STAR, unit)
    assert res_unit.ratio[-1] < 0.1 * res_unit.ratio[0]


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
