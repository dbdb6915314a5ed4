"""Boundary-layer profile and limit-equation solver tests."""

import math

import numpy as np
import pytest

from vertexreg import blayer
from vertexreg.errors import InstabilityError, UnsupportedOrder


def _ramp(xi):
    q = np.asarray(xi, dtype=float) ** 2 / 25.0
    return 1.0 - (1.0 + q) * np.exp(-q)


# -- profiles ----------------------------------------------------------------

def test_m1_profile_closed_form():
    prof = blayer.bl_profile(1)
    xi = np.linspace(0.0, 20.0, 41)
    assert np.allclose(prof.g0(xi), 1.0 - np.exp(-xi / 2.0), atol=1e-15)
    assert prof.derivs_at_0 == (0.5, -0.25, 0.125)
    assert prof.stretch_exponent == 2.0
    assert abs(prof.g0(60.0) - 1.0) < 1e-8


def test_m2_profile_boundary_values():
    prof = blayer.bl_profile(2)
    assert prof.g0(0.0) == pytest.approx(0.0, abs=1e-15)
    assert prof.deriv(0.0, 1) == pytest.approx(0.0, abs=1e-15)
    assert prof.deriv(0.0, 2) == pytest.approx(2.0 ** (-4.0 / 3.0), rel=1e-14)
    assert prof.deriv(0.0, 3) == pytest.approx(-0.25, rel=1e-14)
    assert prof.derivs_at_0 == (0.0, pytest.approx(2.0 ** (-4.0 / 3.0)), -0.25)
    assert prof.stretch_exponent == pytest.approx(4.0 / 3.0)
    assert abs(prof.g0(120.0) - 1.0) < 1e-8


@pytest.mark.parametrize("m", [1, 2])
def test_profile_solves_limit_equation(m):
    prof = blayer.bl_profile(m)
    xi = np.linspace(0.0, 20.0, 201)
    assert np.max(np.abs(prof.residual(xi))) < 1e-10


@pytest.mark.parametrize("m", [1, 2])
def test_analytic_derivatives_match_finite_differences(m):
    prof = blayer.bl_profile(m)
    eps = 1e-5
    for x in (0.5, 3.0, 10.0):
        fd = (prof.g0(x + eps) - prof.g0(x - eps)) / (2.0 * eps)
        assert prof.deriv(x, 1) == pytest.approx(fd, rel=1e-8)
        fd2 = (prof.deriv(x + eps, 1) - prof.deriv(x - eps, 1)) / (2.0 * eps)
        assert prof.deriv(x, 2) == pytest.approx(fd2, rel=1e-7)


def test_profile_rejects_higher_order():
    with pytest.raises(UnsupportedOrder):
        blayer.bl_profile(3)
    prof = blayer.bl_profile(1)
    with pytest.raises(ValueError):
        prof.deriv(1.0, 5)


# -- characteristic roots ----------------------------------------------------

def test_roots_m1():
    cr = blayer.characteristic_roots(1)
    assert sorted(z.real for z in cr.roots) == pytest.approx([-0.5, 0.0])
    assert all(abs(z.imag) < 1e-14 for z in cr.roots)
    flagged = [z for z, dec in zip(cr.roots, cr.decaying) if dec]
    assert len(flagged) == 1
    assert flagged[0].real == pytest.approx(-0.5)


def test_roots_m2():
    cr = blayer.characteristic_roots(2)
    assert len(cr.roots) == 4
    r = 4.0 ** (-1.0 / 3.0)
    flagged = sorted((z for z, dec in zip(cr.roots, cr.decaying) if dec),
                     key=lambda z: z.imag)
    assert len(flagged) == 2
    for z, sign in zip(flagged, (-1.0, 1.0)):
        assert z.real == pytest.approx(-0.5 * r, rel=1e-12)
        assert z.imag == pytest.approx(sign * r * math.sqrt(3.0) / 2.0, rel=1e-12)
    assert abs(flagged[0].real) == pytest.approx(2.0 ** (-5.0 / 3.0), rel=1e-12)
    # remaining roots: 0 and the growing real root 4^{-1/3}
    rest = sorted(z.real for z, dec in zip(cr.roots, cr.decaying) if not dec)
    assert rest == pytest.approx([0.0, r])
    with pytest.raises(UnsupportedOrder):
        blayer.characteristic_roots(3)


def test_m2_profile_built_from_decaying_pair():
    # two-term linear recurrence (Prony) on samples of 1 - g0 recovers the
    # decay rate and frequency of the flagged complex pair
    prof = blayer.bl_profile(2)
    xi = np.linspace(2.0, 20.0, 361)
    u = 1.0 - prof.g0(xi)
    d = xi[1] - xi[0]
    cols = np.column_stack([u[1:-1], u[:-2]])
    p, q = np.linalg.lstsq(cols, u[2:], rcond=None)[0]
    z = np.roots([1.0, -p, -q]).astype(complex)
    lam = np.log(z) / d
    lam = lam[np.argmax(lam.imag)]
    assert abs(-lam.real - 2.0 ** (-5.0 / 3.0)) < 1e-6
    assert abs(lam.imag - math.sqrt(3.0) * 2.0 ** (-5.0 / 3.0)) < 1e-6


def test_m1_profile_decay_rate_from_samples():
    prof = blayer.bl_profile(1)
    xi = np.linspace(2.0, 20.0, 181)
    u = 1.0 - prof.g0(xi)
    d = xi[1] - xi[0]
    ratio = float(np.dot(u[1:], u[:-1]) / np.dot(u[:-1], u[:-1]))
    assert math.log(ratio) / d == pytest.approx(-0.5, abs=1e-12)


# -- limit-equation solver ---------------------------------------------------

def test_m1_profile_is_discrete_steady_state():
    prof = blayer.bl_profile(1)
    traj = blayer.solve_limit_equation(1, prof.g0, steps=600)
    assert np.max(traj.sup_distance) < 1e-9
    # Lyapunov value of the profile itself: int e^{xi/2} (g0')^2 = 1/2
    assert traj.lyapunov[0] == pytest.approx(0.5, rel=1e-4)
    assert traj.lyapunov[-1] == pytest.approx(traj.lyapunov[0], rel=1e-9)


def test_m1_attracts_nearby_profile():
    traj = blayer.solve_limit_equation(1, lambda xi: 1.0 - np.exp(-xi))
    assert np.all(np.diff(traj.weighted_distance) <= 1e-14)
    assert traj.weighted_distance[-1] < 1e-4
    assert traj.weighted_distance[0] > 0.1


def test_m2_ramp_lyapunov_monotone():
    traj = blayer.solve_limit_equation(2, _ramp)
    floor = np.maximum(traj.lyapunov[:-1], 1e-300)
    assert np.all(np.diff(traj.lyapunov) <= 1e-12 * floor)
    assert traj.lyapunov[-1] < 1e-3 * traj.lyapunov[0]


def test_m2_gaussian_start_decays():
    traj = blayer.solve_limit_equation(2, lambda xi: 1.0 - np.exp(-(xi / 5.0) ** 2))
    assert traj.lyapunov[-1] < 1e-3 * traj.lyapunov[0]
    assert traj.sup_distance[-1] < 0.02


def test_instability_guard_fires_on_coarse_long_run():
    # on a coarse mesh the discrete Lyapunov value bottoms out and then
    # wiggles at roundoff scale; the relative guard must catch that
    with pytest.raises(InstabilityError):
        blayer.solve_limit_equation(2, _ramp, steps=2500, dxi=0.1)


def test_solver_input_validation():
    with pytest.raises(UnsupportedOrder):
        blayer.solve_limit_equation(3, _ramp)
    with pytest.raises(ValueError):
        blayer.solve_limit_equation(1, lambda xi: 1.0 - np.exp(-xi), Xi=50.0)
    with pytest.raises(ValueError):
        # does not vanish at the origin
        blayer.solve_limit_equation(1, lambda xi: np.ones_like(xi), steps=5)
    with pytest.raises(ValueError):
        # m=2 needs zero slope at the origin
        blayer.solve_limit_equation(2, lambda xi: 1.0 - np.exp(-xi), steps=5)
    with pytest.raises(ValueError):
        # far end must sit at 1
        blayer.solve_limit_equation(
            1, lambda xi: 0.5 * (1.0 - np.exp(-xi)), steps=5)


# -- exports -----------------------------------------------------------------

def test_export_profile_csv(tmp_path):
    prof = blayer.bl_profile(2)
    path = tmp_path / "profile.csv"
    blayer.export_profile_csv(prof, np.linspace(0.0, 5.0, 11), str(path))
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "xi,g0,dg0,d2g0"
    assert len(lines) == 12
    row = [float(v) for v in lines[1].split(",")]
    assert row[1] == pytest.approx(prof.g0(row[0]), rel=1e-15)


def test_export_trace_csv(tmp_path):
    traj = blayer.solve_limit_equation(1, blayer.bl_profile(1).g0, steps=10)
    path = tmp_path / "trace.csv"
    blayer.export_trace_csv(traj, str(path))
    assert b"\r" not in path.read_bytes()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,lyapunov,weighted_distance,sup_distance"
    assert len(lines) == 12
