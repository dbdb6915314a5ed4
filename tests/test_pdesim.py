"""Direct-simulation checks: scheme validation, diagnostic laws, failure paths."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import erf

from vertexreg import blayer, criterion, funcs, pdesim, spectral
from vertexreg.errors import (
    BlowupError,
    ConfigError,
    ResolutionError,
    StepFailure,
)

ZERO = funcs.lookup("zero-kappa")
STAR = funcs.lookup("petrovskii-critical")


@pytest.fixture(scope="module")
def star_run():
    cfg = pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, grid_points=801,
                           tau_span=(10.0, 25.0))
    return pdesim.run(cfg)


@pytest.fixture(scope="module")
def super_run():
    cfg = pdesim.SimConfig(m=1, phi=funcs.lookup("petrovskii-super"),
                           kappa=ZERO, grid_points=801, tau_span=(10.0, 30.0))
    return pdesim.run(cfg)


@pytest.fixture(scope="module")
def biharmonic_run():
    cfg = pdesim.SimConfig(m=2, phi=funcs.lookup("biharmonic-critical", c=6.0),
                           kappa=ZERO, grid_points=801, tau_span=(10.0, 30.0),
                           initial_data=pdesim.InitialData("g0"))
    return pdesim.run(cfg)


# ---------------------------------------------------------------------------
# configuration guards


def test_config_rejects_bad_order():
    with pytest.raises(ConfigError):
        pdesim.SimConfig(m=3, phi=STAR, kappa=ZERO)


@pytest.mark.parametrize("n", [800, 199])
def test_config_rejects_bad_grid(n):
    with pytest.raises(ConfigError):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, grid_points=n)


def test_config_rejects_start_before_domain():
    with pytest.raises(ConfigError, match="tau_min"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, tau_span=(1.0, 5.0))


def test_config_rejects_malformed_fields():
    with pytest.raises(ConfigError, match="kind"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, kind="implicit")
    with pytest.raises(ConfigError, match="shape"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO,
                         initial_data=pdesim.InitialData("spike"))
    with pytest.raises(ConfigError, match="amplitude"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO,
                         initial_data=pdesim.InitialData("bump", 0.0))
    with pytest.raises(ConfigError, match="increasing"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, tau_span=(12.0, 12.0))
    with pytest.raises(ConfigError, match="dtau"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, dtau=-0.1)
    with pytest.raises(ConfigError, match="freeze_phi"):
        pdesim.SimConfig(m=1, phi=None, kappa=ZERO, freeze_phi=-2.0)
    with pytest.raises(ConfigError, match="phi"):
        pdesim.SimConfig(m=1, phi=None, kappa=ZERO)
    with pytest.raises(ConfigError, match="checkpoints"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, n_checkpoints=1)


# ---------------------------------------------------------------------------
# projection and layer extraction on synthetic data


def test_projection_matches_boundary_closed_form():
    kernel = spectral.default_kernel(1)
    z = np.linspace(-1.0, 1.0, 801)
    phi = 6.0
    full = pdesim.project_a0((z, np.ones_like(z)), kernel, phi)
    assert abs(full - erf(phi / 2.0)) < 1e-10
    assert pdesim.project_a0((z, np.zeros_like(z)), kernel, phi) == 0.0
    assert abs(pdesim.project_a0((z, z ** 3), kernel, phi)) < 1e-15


def test_projection_unit_mass_fourth_order():
    kernel = spectral.default_kernel(2)
    z = np.linspace(-1.0, 1.0, 801)
    a0 = pdesim.project_a0((z, np.ones_like(z)), kernel, 6.0)
    assert abs(a0 - 1.0) < 0.01


@pytest.mark.parametrize("m", [1, 2])
def test_synthetic_layer_recovery(m):
    blp = blayer.bl_profile(m)
    z = np.linspace(-1.0, 1.0, 801)
    xi = 7.0 ** blp.stretch_exponent * (1.0 - z)
    rho, dev = pdesim.extract_boundary_layer((z, 0.37 * blp.g0(xi)), 7.0, blp)
    assert abs(rho - 0.37) < 1e-12
    assert dev < 1e-10


def test_layer_resolution_guard():
    blp = blayer.bl_profile(1)
    z = np.linspace(-1.0, 1.0, 201)
    with pytest.raises(ResolutionError, match="refine"):
        pdesim.extract_boundary_layer((z, np.ones_like(z)), 60.0, blp)


def test_clamped_wall_fit_on_synthetic_profile():
    blp = blayer.bl_profile(2)
    z = np.linspace(-1.0, 1.0, 801)
    phi = 11.2
    w = 0.6 * blp.g0(phi ** blp.stretch_exponent * (1.0 - z))
    wzz, wzzz = pdesim._clamped_wall_derivs(z, w)
    assert abs(wzz - 0.6 * phi ** (8.0 / 3.0) * blp.deriv(0.0, 2)) \
        < 1e-3 * abs(wzz)
    assert abs(wzzz + 0.6 * phi ** 4 * blp.deriv(0.0, 3)) < 5e-3 * abs(wzzz)


# ---------------------------------------------------------------------------
# scheme validation at frozen width


def test_manufactured_solution_error_and_order():
    errs = {}
    for n in (401, 801):
        cfg = pdesim.SimConfig(
            m=1, phi=None, kappa=ZERO, grid_points=n, tau_span=(0.0, 2.0),
            freeze_phi=5.0, source=pdesim.manufactured_source(5.0),
            initial_data=pdesim.InitialData(
                profile=lambda z: np.cos(0.5 * math.pi * z)))
        traj = pdesim.run(cfg)
        t_end, w_end = traj.snapshots[-1]
        errs[n] = float(np.max(np.abs(
            w_end - pdesim.manufactured_state(traj.z, t_end))))
    assert errs[801] < 1.2e-3
    # dtau is tied to dz, so halving both shows the first-order-in-time rate
    assert 1.7 < errs[401] / errs[801] < 2.4


def _propagator_rate(L, n, iters):
    # power iteration on the same implicit-diffusion / explicit-drift step
    z = np.linspace(-1.0, 1.0, n)
    dz = float(z[1] - z[0])
    dt = dz
    r = dt / (L * L * dz * dz)
    ab = np.zeros((3, n))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = 0.0
    ab[2, -2] = 0.0

    def step(u):
        uz = np.zeros_like(u)
        uz[1:-1] = (u[2:] - u[:-2]) / (2.0 * dz)
        rhs = u + dt * (-0.5 * z * uz)
        rhs[0] = rhs[-1] = 0.0
        return solve_banded((1, 1), ab, rhs)

    v = 1.0 - z * z
    for _ in range(iters):
        v = step(v)
        v /= np.max(np.abs(v))
    grown = step(v)
    return math.log(np.max(np.abs(grown)) / np.max(np.abs(v))) / dt


def _frozen_decay_slope(L):
    cfg = pdesim.SimConfig(m=1, phi=None, kappa=ZERO, grid_points=401,
                           tau_span=(0.0, 40.0), freeze_phi=L,
                           initial_data=pdesim.InitialData("bump"))
    traj = pdesim.run(cfg)
    a = traj.a0_series
    late = a[:, 0] >= 25.0
    return float(np.polyfit(a[late, 0], np.log(a[late, 1]), 1)[0])


def test_frozen_width_decay_matches_discrete_eigenvalue():
    slope = _frozen_decay_slope(10.0)
    # the spectral gap is ~1, so 6000 steps of size dz push the subdominant
    # mode below e^{-30}; at 4000 it still pollutes the 1e-11 rate
    rate = _propagator_rate(10.0, 401, 6000)
    assert abs(slope) < 1e-9
    assert abs(rate) < 1e-9
    assert abs(slope - rate) < 1e-12


def test_frozen_width_rate_at_measurable_scale():
    L = 5.0
    slope = _frozen_decay_slope(L)
    rate = _propagator_rate(L, 401, 4000)
    assert abs(slope / rate - 1.0) < 1e-3
    asymptote = -(L / (2.0 * math.sqrt(math.pi))) * math.exp(-L * L / 4.0)
    assert 0.85 < rate / asymptote < 1.0


def test_sign_change_count_never_increases():
    cfg = pdesim.SimConfig(m=1, phi=None, kappa=ZERO, grid_points=401,
                           tau_span=(0.0, 6.0), freeze_phi=5.0,
                           initial_data=pdesim.InitialData(
                               profile=lambda z: np.sin(3.0 * np.pi * z)))
    traj = pdesim.run(cfg)

    def changes(w):
        signs = np.sign(w[np.abs(w) > 1e-12])
        return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))

    counts = [changes(w) for _, w in traj.snapshots]
    assert counts[0] == 5
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] <= 1


def test_reruns_are_byte_identical():
    cfg = pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, grid_points=401,
                           tau_span=(10.0, 14.0))
    first = pdesim.run(cfg)
    second = pdesim.run(cfg)
    assert first.snapshots[-1][1].tobytes() == second.snapshots[-1][1].tobytes()
    assert first.a0_series.tobytes() == second.a0_series.tobytes()


def test_grid_halving_changes_a0_by_under_one_percent(star_run):
    fine = pdesim.run(pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO,
                                       grid_points=1601, tau_span=(10.0, 25.0)))
    coarse_end = star_run.a0_series[-1, 1]
    fine_end = fine.a0_series[-1, 1]
    assert abs(coarse_end - fine_end) / abs(fine_end) < 0.01


# ---------------------------------------------------------------------------
# diagnostic laws on the production runs


def test_even_data_stays_even(star_run, biharmonic_run):
    for traj in (star_run, biharmonic_run):
        worst = max(float(np.max(np.abs(w - w[::-1])))
                    for _, w in traj.snapshots)
        assert worst < 1e-10


def test_amplitude_bounded_by_sup(star_run, super_run, biharmonic_run):
    for traj in (star_run, super_run, biharmonic_run):
        sups = np.array([np.max(np.abs(w)) for _, w in traj.snapshots])
        assert np.all(np.abs(traj.a0_series[:, 1]) <= sups * (1.0 + 1e-6))


def test_vertex_decays_monotonically_after_transient(star_run):
    tv = star_run.vertex_values
    post = tv[tv[:, 0] >= 13.0]
    assert np.all(np.diff(post[:, 1]) < 0.0)
    assert post[-1, 1] < 0.8 * post[0, 1]


def test_wide_width_vertex_retains_half_its_level(super_run):
    tv = super_run.vertex_values
    post = tv[tv[:, 0] >= 13.0]
    assert float(post[:, 1].min()) > 0.5 * float(post[0, 1])


def test_boundary_layer_shape_and_amplitude(star_run):
    dev = star_run.bl_deviation
    at_20 = dev[np.argmin(np.abs(dev[:, 0] - 20.0)), 1]
    assert at_20 < 0.05
    sel = star_run.rho_series[:, 0] >= 15.0
    ratio = star_run.rho_series[sel, 1] / star_run.a0_series[sel, 1]
    assert np.all(ratio > 0.8) and np.all(ratio < 1.25)


def test_first_derivative_law(star_run):
    bnd = star_run.boundary_derivs
    sel = bnd[:, 0] >= 15.0
    widths = np.asarray(STAR.phi(bnd[sel, 0]), dtype=float)
    predicted = 0.5 * star_run.a0_series[sel, 1] * widths
    rel = np.abs(np.abs(bnd[sel, 1]) - predicted) / predicted
    assert np.all(bnd[sel, 1] < 0.0)
    assert rel.mean() < 0.2
    assert rel.max() < 0.2


def test_matching_needs_the_two_boundary_factor(star_run):
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    report = pdesim.compare_with_criterion(star_run, ode, (15.0, 25.0))
    assert report.valid
    assert report.n_points > 50
    assert report.matched_mean < 0.2
    assert report.raw_mean > 0.3
    assert report.matched_mean < report.raw_mean
    assert report.boundary_multiplicity == 2


def test_negative_reaction_steepens_decay():
    neg = funcs.lookup("negative-log")
    cfg = pdesim.SimConfig(m=1, phi=STAR, kappa=neg, grid_points=801,
                           tau_span=(10.0, 25.0))
    traj = pdesim.run(cfg)
    ode = criterion.build_criterion(1, "multiplicative", STAR, neg)
    report = pdesim.compare_with_criterion(traj, ode, (15.0, 25.0))
    assert report.valid
    assert report.matched_mean < 0.05
    t = traj.a0_series[:, 0]
    a0 = traj.a0_series[:, 1]
    sel = (t >= 15.0) & (t <= 25.0)
    slope = np.gradient(np.log(a0[sel]), t[sel])
    linear_only = 2.0 * np.asarray(ode.linear_rhs(t[sel]), dtype=float)
    assert slope.mean() < linear_only.mean() - 0.1


def test_matching_flags_degenerate_windows(star_run):
    ode = criterion.build_criterion(1, "multiplicative", STAR, ZERO)
    beyond = pdesim.compare_with_criterion(star_run, ode, (24.9, 60.0))
    assert not beyond.valid
    assert "fewer than 5" in beyond.reason
    flipped = pdesim.run(pdesim.SimConfig(
        m=1, phi=STAR, kappa=ZERO, grid_points=401, tau_span=(10.0, 15.0),
        initial_data=pdesim.InitialData("plateau", -1.0)))
    report = pdesim.compare_with_criterion(flipped, ode, (10.0, 15.0))
    assert not report.valid
    assert "zero" in report.reason


def test_fourth_order_wall_laws(biharmonic_run):
    phi = funcs.lookup("biharmonic-critical", c=6.0)
    bnd = biharmonic_run.boundary_derivs
    sel = bnd[:, 0] >= 20.0
    widths = np.asarray(phi.phi(bnd[sel, 0]), dtype=float)
    rho = biharmonic_run.rho_series[sel, 1]
    gamma1 = 2.0 ** (-4.0 / 3.0)
    rel_yy = np.abs(bnd[sel, 1] - gamma1 * rho * widths ** (2.0 / 3.0)) \
        / (gamma1 * rho * widths ** (2.0 / 3.0))
    rel_yyy = np.abs(bnd[sel, 2] - 0.25 * rho * widths) / (0.25 * rho * widths)
    assert np.all(bnd[sel, 1] > 0.0) and np.all(bnd[sel, 2] > 0.0)
    assert rel_yy.mean() < 0.2 and rel_yy.max() < 0.2
    assert rel_yyy.mean() < 0.2 and rel_yyy.max() < 0.2


def test_fourth_order_layer_and_matching(biharmonic_run):
    sel = biharmonic_run.bl_deviation[:, 0] >= 20.0
    assert np.nanmax(biharmonic_run.bl_deviation[sel, 1]) < 0.05
    ratio = biharmonic_run.rho_series[sel, 1] / biharmonic_run.a0_series[sel, 1]
    assert np.all(ratio > 0.8) and np.all(ratio < 1.25)
    ode = criterion.build_criterion(2, "multiplicative",
                                    funcs.lookup("biharmonic-critical", c=6.0),
                                    ZERO)
    report = pdesim.compare_with_criterion(biharmonic_run, ode, (15.0, 30.0))
    assert report.valid
    assert report.matched_mean < 0.2
    assert report.raw_mean > 0.25


def test_gradient_kind_runs_and_stays_bounded():
    cfg = pdesim.SimConfig(m=1, phi=STAR, kappa=funcs.lookup("critical-kappa"),
                           kind="gradient", grid_points=401,
                           tau_span=(10.0, 14.0))
    traj = pdesim.run(cfg)
    sups = np.array([np.max(np.abs(w)) for _, w in traj.snapshots])
    assert np.all(np.isfinite(sups))
    assert np.all(np.abs(traj.a0_series[:, 1]) <= sups * (1.0 + 1e-6))


# ---------------------------------------------------------------------------
# failure paths


def test_blowup_guard_fires():
    cfg = pdesim.SimConfig(m=1, phi=STAR, kappa=funcs.lookup("positive-log", c=10.0),
                           grid_points=201, tau_span=(10.0, 30.0))
    with pytest.raises(BlowupError, match="1e6"):
        pdesim.run(cfg)


def test_step_failure_on_poisoned_source():
    cfg = pdesim.SimConfig(m=1, phi=None, kappa=ZERO, grid_points=201,
                           tau_span=(0.0, 1.0), freeze_phi=5.0,
                           source=lambda t, z: np.full_like(z, np.nan))
    with pytest.raises(StepFailure):
        pdesim.run(cfg)


# ---------------------------------------------------------------------------
# exports


def test_series_csv_roundtrip(tmp_path, star_run):
    path = tmp_path / "series.csv"
    pdesim.export_series_csv(star_run, str(path))
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,vertex,a0,rho_opt,bl_deviation,v_y"
    assert len(lines) - 1 == star_run.vertex_values.shape[0]
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == star_run.vertex_values[0, 0]
    assert first[2] == star_run.a0_series[0, 1]


def test_fourth_order_series_header(tmp_path, biharmonic_run):
    path = tmp_path / "series2.csv"
    pdesim.export_series_csv(biharmonic_run, str(path))
    head = path.read_text().splitlines()[0]
    assert head == "tau,vertex,a0,rho_opt,bl_deviation,v_yy,v_yyy"


def test_snapshot_csv_shape(tmp_path):
    cfg = pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, grid_points=201,
                           tau_span=(10.0, 11.0), n_checkpoints=5)
    traj = pdesim.run(cfg)
    path = tmp_path / "snaps.csv"
    pdesim.export_snapshots_csv(traj, str(path))
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,z,w"
    assert len(lines) - 1 == len(traj.snapshots) * traj.z.size
    tau0, z0, w0 = (float(v) for v in lines[1].split(","))
    assert tau0 == traj.snapshots[0][0]
    assert z0 == -1.0
    assert w0 == 0.0


def test_metadata_json_roundtrip(tmp_path, star_run):
    path = tmp_path / "meta.json"
    meta = pdesim.export_metadata_json(star_run, str(path))
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(meta))
    assert loaded["m"] == 1
    assert loaded["grid_points"] == 801
    assert loaded["steps"] > 0
    again = tmp_path / "meta2.json"
    pdesim.export_metadata_json(star_run, str(again))
    assert path.read_text() == again.read_text()
