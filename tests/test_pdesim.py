"""Direct-simulation checks: scheme validation, diagnostic laws, failure paths."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.special import erf

from vertexreg import _csvtable, blayer, criterion, funcs, pdesim, spectral
from vertexreg.errors import (
    BlowupError,
    ConfigError,
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


def test_config_rejects_data_that_is_not_even():
    # the stepper keeps the nodes z >= 0 only
    with pytest.raises(ConfigError, match="initial profile is not even"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO,
                         initial_data=pdesim.InitialData(
                             profile=lambda z: np.sin(3.0 * np.pi * z)))
    with pytest.raises(ConfigError, match="initial profile is not even"):
        pdesim.SimConfig(m=2, phi=None, kappa=ZERO, freeze_phi=5.0,
                         initial_data=pdesim.InitialData(
                             profile=lambda z: (1.0 - z * z) ** 2 * (1.0 + 1e-9 * z)))
    with pytest.raises(ConfigError, match="source at tau=10 is not even"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO,
                         source=lambda t, z: (t - 10.0) + z)
    # the source is checked at both ends of the span
    with pytest.raises(ConfigError, match="source at tau=25 is not even"):
        pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO,
                         source=lambda t, z: (t - 10.0) * z)
    # an odd part of rounding size passes
    pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO,
                     initial_data=pdesim.InitialData(
                         profile=lambda z: np.cos(z) + 1e-14 * z))


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
def test_projection_of_a_block_has_the_bits_of_one_call_per_state(m):
    # widths up to 90 put part of the m=2 block beyond the kernel
    # interpolant's span (|y| = 60), where the contour rule takes over
    kernel = spectral.default_kernel(m)
    z = np.linspace(-1.0, 1.0, 801)
    rng = np.random.default_rng(4)
    states = rng.standard_normal((7, z.size)) * (1.0 - z ** 2)
    phis = [3.0, 6.0, 12.5, 30.0, 45.0, 61.0, 90.0]
    block = pdesim.project_a0((z, states), kernel, phis)
    single = [pdesim.project_a0((z, w), kernel, p) for w, p in zip(states, phis)]
    assert block.tolist() == single


@pytest.mark.parametrize("m", [1, 2])
def test_synthetic_layer_recovery(m):
    blp = blayer.bl_profile(m)
    z = np.linspace(-1.0, 1.0, 801)
    xi = 7.0 ** blp.stretch_exponent * (1.0 - z)
    rho, dev = pdesim.extract_boundary_layer((z, 0.37 * blp.g0(xi)), 7.0, blp)
    assert abs(rho - 0.37) < 1e-12
    assert dev < 1e-10


def test_layer_resolution_guard():
    # too few grid points inside the layer to resolve it: no fit
    blp = blayer.bl_profile(1)
    z = np.linspace(-1.0, 1.0, 201)
    rho, dev = pdesim.extract_boundary_layer((z, np.ones_like(z)), 60.0, blp)
    assert math.isnan(rho) and math.isnan(dev)


def _layer_fit_per_call(z, w, phi, blp):
    """The one-state fit as a call per checkpoint made it: fresh arrays of
    the layer points and one dot product each; NaN for too few points."""
    xi = phi ** blp.stretch_exponent * (1.0 - z)
    mask = (z > 0.0) & (xi <= pdesim._BL_SPAN)
    if np.count_nonzero(mask) < pdesim._BL_MIN_POINTS:
        return math.nan, math.nan
    g = blp.g0(xi[mask])
    ww = w[mask]
    rho = float(ww @ g) / float(g @ g)
    if abs(rho) < 1e-300:
        return 0.0, math.inf
    return rho, float(np.max(np.abs(ww / rho - g)))


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([1, 2]), n=st.sampled_from([201, 203, 801]),
       half=st.booleans(),
       widths=st.lists(st.floats(1.5, 30.0), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1), zero_row=st.integers(0, 12))
@example(m=1, n=201, half=True, widths=[3.0, 10.0, 5.0, 29.0], seed=0,
         zero_row=2)
@example(m=2, n=801, half=False, widths=[4.0, 25.0, 8.0], seed=1,
         zero_row=0)
def test_block_layer_fit_has_the_bits_of_one_call_per_state(
        m, n, half, widths, seed, zero_row):
    # rows with fewer than 20 layer points are NaN, as a call on the row
    # is, and a zero row gives (0, inf)
    blp = blayer.bl_profile(m)
    z = pdesim._grid(n)
    z = z[n // 2:] if half else z
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((len(widths), z.size)) * (1.0 - z * z)
    if zero_row < len(widths):
        states[zero_row] = 0.0
    rho, dev = pdesim.extract_boundary_layer((z, states), widths, blp)
    assert rho.shape == dev.shape == (len(widths),)
    for w, phi, got in zip(states, widths, zip(rho, dev)):
        ref = _layer_fit_per_call(z, w, phi, blp)
        one = pdesim.extract_boundary_layer((z, w), phi, blp)
        assert np.array(one).tobytes() == np.array(ref).tobytes()
        assert np.array(got).tobytes() == np.array(ref).tobytes()
    if zero_row < len(widths) and not math.isnan(rho[zero_row]):
        assert (rho[zero_row], dev[zero_row]) == (0.0, math.inf)


def test_clamped_wall_fit_on_synthetic_profile():
    blp = blayer.bl_profile(2)
    z = np.linspace(-1.0, 1.0, 801)
    phi = 11.2
    w = 0.6 * blp.g0(phi ** blp.stretch_exponent * (1.0 - z))
    wzz, wzzz = pdesim._clamped_wall_fit(z, w)
    assert abs(wzz - 0.6 * phi ** (8.0 / 3.0) * blp.deriv(0.0, 2)) \
        < 1e-3 * abs(wzz)
    assert abs(wzzz + 0.6 * phi ** 4 * blp.deriv(0.0, 3)) < 5e-3 * abs(wzzz)


# ---------------------------------------------------------------------------
# scheme validation at frozen width


def manufactured_state(z, tau):
    """The reference field e^{-tau} cos(pi z / 2)."""
    return math.exp(-tau) * np.cos(0.5 * math.pi * np.asarray(z, dtype=float))


def manufactured_source(L: float):
    """Source that makes manufactured_state exact for frozen width L, m=1.

    Plug into pdesim.SimConfig(source=..., freeze_phi=L, kappa=zero) with
    the matching cosine initial profile.
    """
    half_pi = 0.5 * math.pi

    def source(tau, z):
        z = np.asarray(z, dtype=float)
        return math.exp(-tau) * ((half_pi ** 2 / (L * L) - 1.0)
                                 * np.cos(half_pi * z)
                                 - 0.5 * half_pi * z * np.sin(half_pi * z))

    return source


def test_manufactured_solution_error_and_order():
    errs = {}
    for n in (401, 801):
        # two checkpoints, so the gap does not pin dt and dt = 5 dz on both
        cfg = pdesim.SimConfig(
            m=1, phi=None, kappa=ZERO, grid_points=n, tau_span=(0.0, 2.0),
            freeze_phi=5.0, source=manufactured_source(5.0), n_checkpoints=2,
            initial_data=pdesim.InitialData(
                profile=lambda z: np.cos(0.5 * math.pi * z)))
        traj = pdesim.run(cfg)
        t_end, w_end = traj.snapshots[-1]
        errs[n] = float(np.max(np.abs(
            w_end - manufactured_state(traj.z, t_end))))
    assert errs[801] < 1.2e-3
    # dtau is tied to dz, so halving both shows SBDF2's second-order rate
    # (centred differences are second order in space as well)
    assert 3.4 < errs[401] / errs[801] < 4.8


def _full_bands(m, a, r, s):
    """The stepper's matrix on the whole slab z in [-1, 1] in solve_banded's
    layout, with identity rows at both walls; r is dt / (L^2 dz^2) for m=1
    and dt / (L^4 dz^4) for m=2, s the per-node drift."""
    n = s.size
    if m == 1:
        ab = np.zeros((3, n))
        ab[0, 1:] = -r - s[:-1]
        ab[1, :] = a + 2.0 * r
        ab[2, :-1] = -r + s[1:]
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 1] = 0.0
        ab[2, -2] = 0.0
    else:
        ab = np.zeros((5, n))
        ab[0, 2:] = r
        ab[1, 1:] = -4.0 * r - s[:-1]
        ab[2, :] = a + 6.0 * r
        ab[3, :-1] = -4.0 * r + s[1:]
        ab[4, :-2] = r
        ab[2, 1] = ab[2, -2] = a + 7.0 * r
        ab[2, 0] = ab[2, -1] = 1.0
        ab[1, 1] = ab[0, 2] = 0.0
        ab[3, -2] = ab[4, -3] = 0.0
    return ab


def _half_bands(m, a, r, s):
    """The same matrix on the nodes z >= 0 for even data: the slab's
    left-wall rows become the rows at z = 0, folded by w(-z) = w(z)."""
    ab = _full_bands(m, a, r, s)
    if m == 1:
        ab[1, 0] = a + 2.0 * r
        ab[0, 1] = -2.0 * r
    else:
        ab[2, 0] = a + 6.0 * r
        ab[1, 1] = -8.0 * r
        ab[0, 2] = 2.0 * r
    return ab


def _frozen_step(m, L, n, dt=None, half=True):
    """(z, dt, step) for the SBDF2 scheme at frozen width L and zero
    reaction, solved by scipy's solve_banded (the oracle for the stepper's
    direct LAPACK calls). The principal term and the drift -z w_z / (2m)
    are implicit. step(u, u_prev) advances one step; u_prev=None takes
    the IMEX Euler start step, and explicit, when given, is the explicit
    stage's dt E0 or dt (2 E - E_prev), added to the right side. dt defaults to the stepper's 5 dz. With
    half (the stepper's system) z holds the nodes z >= 0 of the n-node
    grid, its first one set to 0; otherwise it is the whole linspace."""
    z = np.linspace(-1.0, 1.0, n)
    dz = float(z[1] - z[0])
    if half:
        z[n // 2] = 0.0
        z = z[n // 2:]
    dt = pdesim._DT_PER_DZ * dz if dt is None else dt
    # c = phi'/phi - 1/2m with phi'/phi = 0, grouped as the stepper does
    s = z * (dt / (2.0 * dz)) * (0.0 - 1.0 / (2.0 * m))
    r = dt / (L * L * dz * dz) if m == 1 else dt / (L ** 4 * dz ** 4)
    bands = _half_bands if half else _full_bands
    euler, sbdf2 = bands(m, 1.0, r, s), bands(m, 1.5, r, s)

    def step(u, u_prev=None, explicit=None):
        if u_prev is None:
            ab, rhs = euler, u.copy()
        else:
            ab, rhs = sbdf2, 2.0 * u - 0.5 * u_prev
        if explicit is not None:
            rhs += explicit
        rhs[-1] = 0.0
        if not half:
            rhs[0] = 0.0
        return solve_banded((m, m), ab, rhs)

    return z, dt, step


def _propagator_rate(L, n, iters):
    # power iteration on the two-level SBDF2 recurrence of the stepper
    z, dt, step = _frozen_step(1, L, n)
    prev = 1.0 - z * z
    v = step(prev)
    for _ in range(iters):
        prev, v = v, step(v, prev)
        scale = np.max(np.abs(v))
        prev, v = prev / scale, v / scale
    grown = step(v, prev)
    return math.log(np.max(np.abs(grown)) / np.max(np.abs(v))) / dt


@pytest.mark.parametrize("m", [1, 2])
def test_stepper_matches_solve_banded_step(m):
    # a binary dtau keeps tau = k dtau exact, so every step is a full one
    dt, steps = 2.0 ** -8, 32
    cfg = pdesim.SimConfig(m=m, phi=None, kappa=ZERO, grid_points=401,
                           tau_span=(0.0, steps * dt), dtau=dt, freeze_phi=5.0,
                           initial_data=pdesim.InitialData("bump"),
                           n_checkpoints=2)
    traj = pdesim.run(cfg)
    z, _, step = _frozen_step(m, 5.0, 401, dt)
    prev = (1.0 - z * z) ** 2
    v = step(prev)
    for _ in range(steps - 1):
        prev, v = v, step(v, prev)
    assert traj.metadata["steps"] == steps
    assert traj.snapshots[-1][0] == steps * dt
    assert np.array_equal(traj.snapshots[-1][1], np.concatenate((v[:0:-1], v)))


@pytest.mark.parametrize("name", ["petrovskii-critical", "petrovskii-super"])
def test_root_log_width_schedule_has_the_bits_of_one_call_per_step(name):
    # the m=1 trajectories keep the bits of a width evaluated step by step
    phi = funcs.lookup(name)
    cfg = pdesim.SimConfig(m=1, phi=phi, kappa=ZERO)
    times = 10.0 + np.arange(6401) * (15.0 / 6400)
    p, slope = pdesim._schedule(cfg, times)
    assert p.tolist() == [float(phi.phi(t)) for t in times.tolist()]
    assert slope.tolist() == [float(phi.dphi(t)) / float(phi.phi(t))
                              for t in times.tolist()]


@pytest.mark.parametrize("c", [6.0, funcs.BIHARMONIC_CRITICAL_C])
def test_log_power_width_schedule_has_the_bits_of_one_element_arrays(c):
    # `**` on one np.float64 need not round as the array loop does; the
    # criterion evaluates a width on a 1-element array
    phi = funcs.lookup("biharmonic-critical", c=c)
    cfg = pdesim.SimConfig(m=2, phi=phi, kappa=ZERO)
    times = 10.0 + np.arange(2478) * (15.0 / 2477)
    p, slope = pdesim._schedule(cfg, times)
    one = [np.array([t]) for t in times.tolist()]
    assert p.tolist() == [float(phi.phi(t)[0]) for t in one]
    assert slope.tolist() == [float(phi.dphi(t)[0] / phi.phi(t)[0])
                              for t in one]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [401, 207])
def test_half_domain_step_matches_the_full_slab_step(m, n):
    # for even data the folded rows at z = 0 are the slab's rows; at 207
    # nodes linspace's midpoint is -1.1e-16, not 0, so the slab's drift
    # there is not exactly zero. Width 10: at 5, the m=2 slab's own
    # rounding (the asymmetry of its result) reaches 1.5e-11 of sup|w|
    zf, _, full = _frozen_step(m, 10.0, n, half=False)
    z, _, half = _frozen_step(m, 10.0, n)
    assert (zf[n // 2] == 0.0) == (n == 401)

    def even(u):
        return np.concatenate((u[:0:-1], u))

    u = (1.0 - z * z) ** 2 * (1.0 + 0.3 * np.cos(2.0 * np.pi * z))
    u_prev = 1.1 * (1.0 - z * z) ** 2 * np.cos(z)
    for got, ref in ((half(u), full(even(u))),
                     (half(u, u_prev), full(even(u), even(u_prev)))):
        tol = 1e-12 * float(np.max(np.abs(ref)))
        assert np.max(np.abs(even(got) - ref)) < tol


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [201, 203, 207])
def test_a0_is_the_full_grid_projection_on_every_odd_grid(m, n):
    # the half grid has an odd number of nodes, as Simpson's rule needs,
    # only when n = 1 (mod 4); on the other odd grids a0 is projected from
    # the full even state
    cfg = pdesim.SimConfig(m=m, phi=None, kappa=ZERO, grid_points=n,
                           tau_span=(0.0, 0.5), freeze_phi=5.0,
                           n_checkpoints=10)
    traj = pdesim.run(cfg)
    kernel = spectral.default_kernel(m)
    ref = np.array([pdesim.project_a0((traj.z, w), kernel, 5.0)
                    for _, w in traj.snapshots])
    a0 = traj.a0_series[:, 1]
    assert a0.size == 10
    assert np.max(np.abs(a0 - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_steps_are_equal_and_end_on_the_span(super_run):
    # tau [10, 30] at 5 dz = 0.0125 is 1600 steps; summing t += dt instead
    # of t = tau0 + k dt leaves a sliver 1601st step
    meta = super_run.metadata
    assert meta["steps"] == 1600
    assert meta["dtau_effective"] == 20.0 / 1600
    assert super_run.snapshots[-1][0] == 30.0


def test_dense_checkpoints_are_all_recorded():
    # 800 log-uniform checkpoints over [10, 12] sit closer than dz; the gap
    # term of the step size puts a step end between every two of them
    cfg = pdesim.SimConfig(m=2, phi=funcs.lookup("biharmonic-critical", c=6.0),
                           kappa=ZERO, grid_points=801, tau_span=(10.0, 12.0),
                           n_checkpoints=800,
                           initial_data=pdesim.InitialData("g0"))
    traj = pdesim.run(cfg)
    assert traj.metadata["checkpoints"] == len(traj.snapshots) == 800
    assert traj.snapshots[-1][0] == 12.0


def test_dtau_above_dz_is_honoured():
    cfg = pdesim.SimConfig(m=1, phi=STAR, kappa=ZERO, grid_points=401,
                           tau_span=(10.0, 12.0), dtau=0.02, n_checkpoints=2)
    traj = pdesim.run(cfg)
    assert traj.metadata["dz"] < 0.02
    assert traj.metadata["dtau_effective"] == 0.02
    assert traj.metadata["steps"] == 100


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
    # the spectral gap is ~1, so 1200 steps of size 5 dz push the
    # subdominant mode below e^{-30}; at 800 it still pollutes the 1e-11 rate
    rate = _propagator_rate(10.0, 401, 1200)
    assert abs(slope) < 1e-9
    assert abs(rate) < 1e-9
    assert abs(slope - rate) < 1e-12


def test_frozen_width_rate_at_measurable_scale():
    L = 5.0
    slope = _frozen_decay_slope(L)
    rate = _propagator_rate(L, 401, 800)
    assert abs(slope / rate - 1.0) < 1e-3
    asymptote = -(L / (2.0 * math.sqrt(math.pi))) * math.exp(-L * L / 4.0)
    assert 0.85 < rate / asymptote < 1.0


def test_sign_change_count_never_increases():
    # cos(5 pi z / 2) is even, vanishes at the walls and changes sign at
    # z = +-1/5 and +-3/5
    cfg = pdesim.SimConfig(m=1, phi=None, kappa=ZERO, grid_points=401,
                           tau_span=(0.0, 6.0), freeze_phi=5.0,
                           initial_data=pdesim.InitialData(
                               profile=lambda z: np.cos(2.5 * np.pi * z)))
    traj = pdesim.run(cfg)

    def changes(w):
        signs = np.sign(w[np.abs(w) > 1e-12])
        return int(np.count_nonzero(signs[1:] * signs[:-1] < 0))

    counts = [changes(w) for _, w in traj.snapshots]
    assert counts[0] == 4
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
        assert all(np.array_equal(w, w[::-1]) for _, w in traj.snapshots)


@pytest.mark.parametrize("run", ["star_run", "biharmonic_run"])
def test_walls_are_held_at_zero(request, run):
    # a pivoting solve need not keep a wall row's identity exact; the wall
    # is the last row of the stepped system, which no pivot touches
    traj = request.getfixturevalue(run)
    walls = np.array([(w[0], w[-1]) for _, w in traj.snapshots])
    assert np.all(walls == 0.0)


def _diagnostics_per_snapshot(traj):
    """The diagnostic series rebuilt from the snapshots, a call per
    checkpoint with the one-state functions, as the step loop used to."""
    cfg = traj.config
    n, m = cfg.grid_points, cfg.m
    mid = n // 2
    zh = traj.z[mid:]
    dz = float(traj.z[1] - traj.z[0])
    kernel, blp = spectral.default_kernel(m), blayer.bl_profile(m)
    rows = []
    for t, w in traj.snapshots:
        p = cfg.freeze_phi or float(cfg.phi.phi(t))
        h = w[mid:]
        if zh.size % 2:
            a0 = 2.0 * pdesim.project_a0((zh, h), kernel, p)
        else:
            a0 = pdesim.project_a0((traj.z, w), kernel, p)
        rho, dev = pdesim.extract_boundary_layer((zh, h), p, blp)
        if m == 1:
            bnd = [(-4.0 * h[-2] + h[-3]) / (2.0 * dz) / p]
        else:
            wzz, wzzz = pdesim._clamped_wall_fit(zh, h)
            bnd = [wzz / p ** 2, wzzz / p ** 3]
        rows.append([t, h[0], a0, rho, dev, *bnd])
    return np.array(rows)


@pytest.mark.parametrize("case", ["star_run", "frozen-m2-401", "frozen-m1-203"])
def test_diagnostics_have_the_bits_of_one_call_per_snapshot(request, case):
    # the post-pass over the stored block against a call per checkpoint;
    # at 203 nodes a0 is projected from the full even state
    if case == "star_run":
        traj = request.getfixturevalue(case)
    else:
        m, n = (2, 401) if case == "frozen-m2-401" else (1, 203)
        traj = pdesim.run(pdesim.SimConfig(
            m=m, phi=None, kappa=ZERO, grid_points=n, tau_span=(0.0, 3.0),
            freeze_phi=6.0, initial_data=pdesim.InitialData("g0")))
    ref = _diagnostics_per_snapshot(traj)
    got = np.column_stack([traj.vertex_values, traj.a0_series[:, 1],
                           traj.rho_series[:, 1], traj.bl_deviation[:, 1],
                           traj.boundary_derivs[:, 1:]])
    assert not np.any(np.isnan(got))
    assert got.tobytes() == ref.tobytes()
    for series in (traj.a0_series, traj.rho_series, traj.bl_deviation,
                   traj.boundary_derivs):
        assert series[:, 0].tobytes() == ref[:, 0].tobytes()


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


@pytest.mark.parametrize("m", [1, 2])
def test_step_failure_on_poisoned_source(m):
    cfg = pdesim.SimConfig(m=m, phi=None, kappa=ZERO, grid_points=201,
                           tau_span=(0.0, 1.0), freeze_phi=5.0,
                           source=lambda t, z: np.full_like(z, np.nan))
    with pytest.raises(StepFailure, match=r"at tau=0\b"):
        pdesim.run(cfg)


@pytest.mark.parametrize("m", [1, 2])
def test_step_failure_on_an_infinite_source(m):
    cfg = pdesim.SimConfig(m=m, phi=None, kappa=ZERO, grid_points=201,
                           tau_span=(0.0, 1.0), freeze_phi=5.0,
                           source=lambda t, z: np.full_like(z, np.inf))
    with pytest.raises(StepFailure, match=r"non-finite state .* at tau=0\b"):
        pdesim.run(cfg)


@pytest.mark.parametrize("m", [1, 2])
def test_blowup_fires_where_the_exact_sup_first_passes_1e6(m):
    # a growing even source: sup|w| climbs through 1e5, where the one-dot
    # guard w.w <= 1e12 no longer holds and the exact sup decides, to 1e6.
    # The oracle steps the same scheme and takes the exact sup each step.
    dt, steps = 2.0 ** -6, 128

    def source(t, z):
        return 1e6 * t * np.cos(0.5 * np.pi * np.asarray(z, dtype=float))

    cfg = pdesim.SimConfig(m=m, phi=None, kappa=ZERO, grid_points=401,
                           tau_span=(0.0, steps * dt), dtau=dt,
                           freeze_phi=5.0, source=source, n_checkpoints=2,
                           initial_data=pdesim.InitialData("bump"))
    with pytest.raises(BlowupError) as caught:
        pdesim.run(cfg)
    z, _, step = _frozen_step(m, 5.0, 401, dt)
    prev, v = None, (1.0 - z * z) ** 2
    e_prev, e = None, 0.0 + source(0.0, z)
    slow = 0
    for k in range(1, steps + 1):
        explicit = dt * e if k == 1 else dt * (2.0 * e - e_prev)
        prev, v = v, step(v, prev, explicit)
        sup = float(np.max(np.abs(v)))
        slow += float(v @ v) > 1e12
        if sup > 1e6:
            break
        e_prev, e = e, 0.0 + source(k * dt, z)
    assert sup > 1e6 and 1 < k < steps and slow > 1
    assert str(caught.value) == (f"sup|w|={sup:.4g} exceeded 1e6 "
                                 f"at tau={k * dt:.6g}")


@pytest.mark.parametrize("m, routine", [(1, "dgtsv"), (2, "dgbsv")])
def test_step_failure_on_lapack_info(monkeypatch, m, routine):
    solve = getattr(pdesim, routine)

    def singular(*args, **kwargs):
        *out, _ = solve(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(pdesim, routine, singular)
    cfg = pdesim.SimConfig(m=m, phi=None, kappa=ZERO, grid_points=201,
                           tau_span=(0.0, 1.0), freeze_phi=5.0)
    with pytest.raises(StepFailure, match=r"at tau=0 .*info=1"):
        pdesim.run(cfg)


@pytest.mark.parametrize("vertexreg_first", [True, False])
def test_vertexreg_and_scipy_share_one_copy_of_each_compiled_module(vertexreg_first):
    # vertexreg loads three compiled modules without their package inits; a
    # later import of scipy.linalg, scipy.integrate or scipy.optimize must
    # reuse them, and vertexreg must reuse theirs when they came first
    src = os.path.dirname(os.path.dirname(pdesim.__file__))
    ours = "from vertexreg import _solvers, pdesim\n"
    theirs = ("import scipy.integrate, scipy.linalg.lapack, scipy.optimize\n"
              "from scipy.integrate import _odepack\n"
              "from scipy.linalg import lapack\n"
              "from scipy.optimize import _zeros\n")
    code = ((ours + theirs if vertexreg_first else theirs + ours)
            + "assert pdesim.dgtsv is lapack.dgtsv\n"
            "assert pdesim.dgbsv is lapack.dgbsv\n"
            "assert _solvers._odepack is _odepack\n"
            "assert _solvers._zeros is _zeros\n"
            "assert scipy.integrate._ode.lsoda.runner is _odepack.lsoda\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


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


def _snapshot_rows(traj):
    return "".join("%.17g,%.17g,%.17g\n" % (t, zv, wv)
                   for t, w in traj.snapshots for zv, wv in zip(traj.z, w))


def test_snapshot_csv_matches_row_by_row_rendering(tmp_path):
    # the array formatter writes what one %.17g line per row would
    cfg = pdesim.SimConfig(m=2, phi=funcs.lookup("biharmonic-critical", c=6.0),
                           kappa=ZERO, grid_points=201, tau_span=(10.0, 10.5),
                           n_checkpoints=4, initial_data=pdesim.InitialData("g0"))
    traj = pdesim.run(cfg)
    path = tmp_path / "snaps.csv"
    pdesim.export_snapshots_csv(traj, str(path))
    assert path.read_bytes() == ("tau,z,w\n" + _snapshot_rows(traj)).encode()
    # states holding +-0, subnormals and values on both sides of 1e-4,
    # where %.17g switches between fixed and exponent notation; enough
    # checkpoints for several blocks of the formatter
    rng = np.random.default_rng(9)
    n = traj.z.size
    edge = [0.0, -0.0, 5e-324, -2.2e-310, 1e-4, 9.9999999999999991e-05,
            -1e-5, 1.0000000000000001e-4, 0.5, -123456.789]
    snaps = []
    for i, t in enumerate(np.geomspace(10.0, 1e7, 60)):
        w = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
        w[i % (n - len(edge)):][:len(edge)] = edge
        snaps.append((float(t), w))
    odd = dataclasses.replace(traj, snapshots=tuple(snaps))
    pdesim.export_snapshots_csv(odd, str(path))
    assert path.read_bytes() == ("tau,z,w\n" + _snapshot_rows(odd)).encode()


def test_snapshot_csv_with_a_short_last_block(tmp_path):
    # 20 snapshots of 201 nodes fill a block; 61 leave the last block one
    # snapshot long, written from the front of the reused row buffer
    z = np.linspace(0.0, 10.0, 201)
    rng = np.random.default_rng(11)
    snaps = tuple((float(t), rng.standard_normal(z.size) * 10.0 ** rng.integers(-8, 3, z.size))
                  for t in np.geomspace(10.0, 1e7, 61))
    assert len(snaps) % (_csvtable._BLOCK // z.size) == 1
    traj = SimpleNamespace(z=z, snapshots=snaps)
    path = tmp_path / "snaps.csv"
    pdesim.export_snapshots_csv(traj, str(path))
    assert path.read_bytes() == ("tau,z,w\n" + _snapshot_rows(traj)).encode()


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
