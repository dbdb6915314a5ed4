"""Direct time-stepping of the rescaled vertex problems on z in [-1, 1].

The moving parabolic boundary is frozen at z = +-1 by the similarity
rescaling, so the second-order problem runs with Dirichlet conditions and
the fourth-order one with clamped conditions. The principal term and the
drift are implicit (banded solves), reaction and source explicit, in the
second-order semi-implicit BDF scheme SBDF2 (Ascher, Ruuth & Wetton, SIAM
J. Numer. Anal. 32, 1995). Everything the amplitude-ODE criterion predicts
(a0 slope, boundary-layer shape, boundary derivative laws) is measured from
the grid solution for cross-checking.

The data are even in z (the backward parabola is symmetric, and a0 follows
the even mode), so the state lives on the grid nodes with z >= 0: the
even extension w(-z) = w(z) folds into the rows at z = 0, and the banded
solves are half the size of the full slab's. run's step loop only steps
and stores the checkpoint states; every diagnostic, and each snapshot's
full even state on z in [-1, 1], is taken from them after the last step.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _solvers, spectral
from ._csvtable import write_csv, write_long_csv
from ._quadrature import simpson
from .blayer import BLProfile, bl_profile
from .errors import BlowupError, ConfigError, StepFailure
from .funcs import Kappa, SlowGrowthFn

__all__ = [
    "InitialData",
    "SimConfig",
    "PdeTrajectory",
    "ComparisonReport",
    "run",
    "project_a0",
    "extract_boundary_layer",
    "compare_with_criterion",
    "export_series_csv",
    "export_snapshots_csv",
    "export_metadata_json",
]


# scipy.linalg's package init would load numpy.f2py and numpy.testing,
# more than half of import vertexreg.cli
_LAPACK = _solvers.compiled("scipy.linalg._flapack")
dgtsv, dgbsv = _LAPACK.dgtsv, _LAPACK.dgbsv

_BLOWUP_SUP = 1.0e6
_TRANSIENT = 3.0
_BL_SPAN = 10.0
_BL_MIN_POINTS = 20
_SHAPES = ("plateau", "bump", "g0")
# default step in units of dz: SBDF2 with implicit drift is not capped by
# the drift's CFL limit, so accuracy alone sets this
_DT_PER_DZ = 5.0
# checkpoints per project_a0 and extract_boundary_layer call, where a call
# per checkpoint was mostly numpy call overhead
_BLOCK = 8


@dataclass(frozen=True)
class InitialData:
    """Named start profile with an amplitude factor.

    profile, when given, overrides shape with a custom callable of z
    (validation hook: manufactured solutions, sign-count experiments). It
    must be even in z, as every named shape is: run evaluates it on z >= 0
    only.
    """

    shape: str = "plateau"
    amplitude: float = 1.0
    profile: Optional[Callable] = None


@dataclass(frozen=True)
class SimConfig:
    """Validated description of one simulation run.

    freeze_phi pins the width at a constant and bypasses the slow-growth
    domain check; used by eigenvalue validation and manufactured-solution
    runs. source(tau, z) is added to the explicit stage. The solution is
    stepped on the nodes with z >= 0, so an initial profile, or a source at
    either end of tau_span, that differs from its mirror image on the grid
    by more than 1e-12 of its sup is a ConfigError. In between, only the
    source's values on z >= 0 are used: the run sees its even extension.
    """

    m: int
    phi: Optional[SlowGrowthFn]
    kappa: Kappa
    kind: str = "multiplicative"
    grid_points: int = 801
    tau_span: tuple = (10.0, 25.0)
    dtau: Optional[float] = None
    initial_data: InitialData = InitialData()
    freeze_phi: Optional[float] = None
    source: Optional[Callable] = None
    n_checkpoints: int = 200

    def __post_init__(self):
        if self.m not in (1, 2):
            raise ConfigError(f"unsupported order m={self.m}")
        if self.kind not in ("multiplicative", "gradient"):
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}")
        if self.grid_points < 201 or self.grid_points % 2 == 0:
            raise ConfigError("grid_points must be odd and >= 201 "
                              f"(got {self.grid_points})")
        tau0, tau1 = self.tau_span
        if not tau0 < tau1:
            raise ConfigError("tau_span must be increasing")
        if self.dtau is not None and self.dtau <= 0.0:
            raise ConfigError("dtau must be positive")
        if self.freeze_phi is not None:
            if self.freeze_phi <= 0.0:
                raise ConfigError("freeze_phi must be positive")
        else:
            if self.phi is None:
                raise ConfigError("phi is required unless freeze_phi is set")
            if tau0 < self.phi.tau_min:
                raise ConfigError(
                    f"tau_span starts at {tau0}, below tau_min={self.phi.tau_min}")
        data = self.initial_data
        if data.profile is None and data.shape not in _SHAPES:
            raise ConfigError(f"unknown initial shape {data.shape!r}; "
                              "expected one of " + ", ".join(_SHAPES))
        if not (math.isfinite(data.amplitude) and data.amplitude != 0.0):
            raise ConfigError("initial amplitude must be finite and nonzero")
        if self.n_checkpoints < 2:
            raise ConfigError("need at least 2 checkpoints")
        if data.profile is not None:
            _require_even("initial profile", data.profile, self.grid_points)
        if self.source is not None:
            for t in (tau0, tau1):
                _require_even(f"source at tau={t:g}",
                              lambda x: self.source(t, x), self.grid_points)


def _grid(n):
    """The n-node grid on [-1, 1], with its midpoint exactly at z = 0."""
    z = np.linspace(-1.0, 1.0, n)
    z[n // 2] = 0.0
    return z


def _require_even(what, f, n):
    # a NaN gap, inf - inf too, passes: a poisoned source is a StepFailure
    z = _grid(n)
    v = np.asarray(f(z), dtype=float)
    with np.errstate(invalid="ignore"):
        gap = float(np.max(np.abs(v - np.asarray(f(-z), dtype=float))))
    sup = float(np.max(np.abs(v)))
    if gap > 1e-12 * sup:
        raise ConfigError(f"{what} is not even in z: |f(z) - f(-z)| reaches "
                          f"{gap:.3g} against sup|f| = {sup:.3g}")


@dataclass(frozen=True)
class PdeTrajectory:
    """Checkpointed solution with every diagnostic series the matching needs.

    boundary_derivs columns: (tau, v_y) for m=1 and (tau, v_yy, v_yyy)
    for m=2, all one-sided at the right boundary and mapped back to the
    unscaled frame.
    """

    config: SimConfig
    z: np.ndarray
    snapshots: tuple
    vertex_values: np.ndarray
    a0_series: np.ndarray
    boundary_derivs: np.ndarray
    bl_deviation: np.ndarray
    rho_series: np.ndarray
    metadata: dict


@dataclass(frozen=True)
class ComparisonReport:
    """Relative discrepancy of d(ln a0)/dtau between grid and ODE.

    raw_* compares against the single-boundary ODE right-hand side as
    assembled; matched_* doubles the linear term first, because the
    symmetric simulation loses mass through both boundaries while the
    reduced ODE books one boundary's flux (boundary_multiplicity echoes
    the factor). Both are np.gradient slopes of ln a0 between checkpoints
    a few hundredths of a tau unit apart, so they carry about 7
    significant digits: rounding in the state moves them at ~1e-7.
    """

    window: tuple
    n_points: int
    valid: bool
    reason: str
    raw_mean: float
    raw_max: float
    matched_mean: float
    matched_max: float
    boundary_multiplicity: int = 2


# -- pieces of the step ----------------------------------------------------------

def _schedule(config, times):
    """phi and phi'/phi at every step time, one array evaluation each."""
    if config.freeze_phi is not None:
        return (np.full(times.size, float(config.freeze_phi)),
                np.zeros(times.size))
    p = np.asarray(config.phi.phi(times), dtype=float)
    return p, np.asarray(config.phi.dphi(times), dtype=float) / p


def _initial_profile(config, z, phi0):
    data = config.initial_data
    if data.profile is not None:
        w = np.asarray(data.profile(z), dtype=float).copy()
    elif data.shape == "plateau":
        w = 1.0 - z ** 8
    elif data.shape == "bump":
        w = (1.0 - z * z) ** 2
    else:
        prof = bl_profile(config.m)
        xi = phi0 ** prof.stretch_exponent * (1.0 - z)
        w = prof.g0(xi)
    w = data.amplitude * w
    w[-1] = 0.0
    return w


# The band fills below take the nodes z >= 0, from z = 0 (row 0) to the
# wall z = 1 (the last row, the identity). s is the per-node drift
# dt c z / (2 dz) of the centred first difference, zero at z = 0.

def _fill_m1_band(lu, d, a, r, s):
    """Dirichlet a I - r D2 - s D1 as the three diagonals dgtsv takes. lu
    holds the sub-diagonal and then the super-diagonal, and s here their
    drift terms, s[1:] and then -s[:-1], so one subtraction fills both."""
    np.subtract(s, r, out=lu)
    d.fill(a + 2.0 * r)
    # the even extension w(-dz) = w(dz) folds onto row 0 (du[0])
    lu[d.size - 1] = -2.0 * r
    d[-1] = 1.0
    lu[d.size - 2] = 0.0


def _fill_m2_band(ab, a, r4, s):
    """Clamped a I + r4 D4 - s D1 in the dgbsv layout: two rows of LU
    workspace, which dgbsv needs no values in, then the five diagonals in
    solve_banded's (2, 2) order. The corners outside the matrix are never
    read either."""
    band = ab[2:]
    band[0, 2:] = r4
    np.subtract(-4.0 * r4, s[:-1], out=band[1, 1:])
    band[2, :] = a + 6.0 * r4
    np.subtract(s[1:], 4.0 * r4, out=band[3, :-1])
    band[4, :-2] = r4
    # the even extension w(-k dz) = w(k dz) folds onto rows 0 and 1
    band[0, 2] = 2.0 * r4
    band[1, 1] = -8.0 * r4
    band[2, 1] = a + 7.0 * r4
    # the clamped wall's mirror ghost folds onto the last interior row
    band[2, -2] = a + 7.0 * r4
    band[2, -1] = 1.0
    band[3, -2] = band[4, -3] = 0.0


# wall stencil width for the clamped derivative read; the nodes adjacent to
# the mirror-ghost rows carry a cell-scale artifact, so short stencils that
# sit right on them misread w_zzz by ~40% at any resolution
_WALL_FIT_NODES = 12


def _clamped_wall_fit(z, w):
    """One-sided (w_zz(1), w_zzz(1)) from a clamped polynomial fit, for a
    state w or a block of them (a row each).

    Fits w(1-s) = c2 s^2 + ... + c5 s^5 over the nearest interior nodes
    (the clamped conditions kill the constant and linear terms), in the
    normalized variable s/s_max for conditioning. The fit is linear in w,
    so the two rows of the pseudo-inverse it needs are formed once and
    applied to every row's tail in one product; it is summed row by row,
    so a row of a block gets the bits of a call on that row alone.
    """
    s = 1.0 - z[-(_WALL_FIT_NODES + 1):-1]
    smax = float(s.max())
    sig = s / smax
    cols = np.column_stack([sig ** 2, sig ** 3, sig ** 4, sig ** 5])
    tail = w[..., None, -(_WALL_FIT_NODES + 1):-1]
    coef = (tail * np.linalg.pinv(cols)[:2]).sum(axis=-1)
    return 2.0 * coef[..., 0] / smax ** 2, -6.0 * coef[..., 1] / smax ** 3


def _reaction(config, w, dz, p):
    if config.kappa.linear:
        return 0.0
    u = np.clip(np.abs(w), 1e-320, config.kappa.u_max)
    k = np.asarray(config.kappa.kappa(u), dtype=float)
    if config.kind == "multiplicative":
        return k * w
    wz = np.zeros_like(w)
    wz[1:-1] = (w[2:] - w[:-2]) / (2.0 * dz)
    return k * (wz / p) ** (2 * config.m)


def run(config: SimConfig) -> PdeTrajectory:
    """Time-step the configured problem, then measure every checkpoint.

    SBDF2 steps (an IMEX Euler first step) of one fixed size: the span is
    cut into the fewest equal steps no longer than dtau (default 5 dz) or
    the smallest checkpoint gap. Checkpoints are log-uniform in tau
    (linear if the span starts at 0). Raises BlowupError past sup|w| = 1e6
    and StepFailure if an implicit solve fails or returns non-finite values.
    The state is stepped on the nodes z >= 0 of the grid; the snapshots,
    and trajectory.z, cover the whole of [-1, 1]. The widths and implicit
    coefficients of all steps are evaluated before the loop, which only
    forms the right side (with no explicit stage for a linear kappa and no
    source), solves, guards and stores the checkpoint states; every
    diagnostic is taken from the stored block after the last step.
    """
    n = config.grid_points
    mid = n // 2
    z = _grid(n)
    zh = z[mid:]
    nh = zh.size
    dz = float(z[1] - z[0])
    tau0, tau1 = (float(v) for v in config.tau_span)
    if tau0 > 0.0:
        checkpoints = np.geomspace(tau0, tau1, config.n_checkpoints)
    else:
        checkpoints = np.linspace(tau0, tau1, config.n_checkpoints)
    # SBDF2's coefficients assume one step size, so no sliver step may be
    # left; the gap term keeps a step end between any two checkpoints. The
    # 1e-9 keeps a span that is a whole number of steps from rounding up.
    target = config.dtau if config.dtau is not None else _DT_PER_DZ * dz
    h = min(target, float(np.diff(checkpoints).min()))
    n_steps = math.ceil((tau1 - tau0) / h - 1e-9)
    dt = (tau1 - tau0) / n_steps
    times = tau0 + np.arange(n_steps + 1) * dt
    times[-1] = tau1
    phis, slopes = _schedule(config, times)
    r = (dt / (phis * phis * dz * dz) if config.m == 1
         else dt / (phis ** 4 * dz ** 4))
    # the drift is dt (phi'/phi - 1/2m) z / (2 dz) at each node
    drift = slopes - 1.0 / (2.0 * config.m)
    z_drift = zh * (dt / (2.0 * dz))
    # each checkpoint is stored by the first step that ends at or past it
    stored = np.zeros(n_steps + 2, dtype=bool)
    stored[[0, *np.searchsorted(times[1:], checkpoints[1:] - 1e-12) + 1]] = True
    stored = np.flatnonzero(stored[:-1])
    row_of = dict(zip(stored.tolist(), range(stored.size)))

    w = _initial_profile(config, zh, float(phis[0]))
    full = np.empty((stored.size, n))
    half = full[:, mid:]
    half[0] = w
    t_of, r_of, drift_of = times.tolist(), r.tolist(), drift.tolist()
    staged = not config.kappa.linear or config.source is not None

    def explicit(k, state):
        e = _reaction(config, state, dz, phis[k])
        if config.source is not None:
            e = e + np.asarray(config.source(t_of[k], zh), dtype=float)
        return e

    # dgtsv and dgbsv overwrite their bands in place (Fortran order, or f2py
    # would copy the 2-D one), so these are refilled each step; the solution
    # comes back in the fresh rhs array, which becomes w
    if config.m == 1:
        lu, d = np.empty(2 * nh - 2), np.empty(nh)
        dl, du = lu[:nh - 1], lu[nh - 1:]
        z_drift = np.concatenate((z_drift[1:], -z_drift[:-1]))
    else:
        ab = np.zeros((7, nh), order="F")
    s = np.empty(z_drift.size)
    e = explicit(0, w) if staged else None
    for k in range(1, n_steps + 1):
        if k == 1:
            # IMEX Euler start: (I - dt A) w1 = w0 + dt E0
            a, x2 = 1.0, 1.0
            rhs = w + dt * e if staged else w.copy()
        else:
            # SBDF2, (3/2 I - dt A) w' = 2 w - w_prev / 2 + dt (2 E - E_prev),
            # doubled: each term scales exactly; the rhs is one product less
            a, x2 = 3.0, 2.0
            rhs = 4.0 * w - w_prev
            if staged:
                rhs += 2.0 * dt * (2.0 * e - e_prev)
        rhs[-1] = 0.0
        np.multiply(z_drift, x2 * drift_of[k], out=s)
        if config.m == 1:
            _fill_m1_band(lu, d, a, x2 * r_of[k], s)
            *_, w_new, info = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)
        else:
            _fill_m2_band(ab, a, x2 * r_of[k], s)
            *_, w_new, info = dgbsv(2, 2, ab, rhs, 1, 1)
        if info != 0:
            raise StepFailure(f"implicit solve failed at tau={t_of[k - 1]:.6g} "
                              f"(LAPACK info={info})")
        # w.w <= 1e12 holds only if every |w_i| <= 1e6 and none is NaN
        if not w_new.dot(w_new) <= _BLOWUP_SUP * _BLOWUP_SUP:
            sup = float(np.abs(w_new).max())
            if not math.isfinite(sup):
                raise StepFailure("non-finite state after the step at "
                                  f"tau={t_of[k - 1]:.6g}")
            if sup > _BLOWUP_SUP:
                raise BlowupError(f"sup|w|={sup:.4g} exceeded 1e6 "
                                  f"at tau={t_of[k]:.6g}")
        w_prev, w = w, w_new
        if k in row_of:
            half[row_of[k]] = w
        if staged:
            e_prev, e = e, explicit(k, w)

    tau, p = times[stored], phis[stored]
    # a0 of the even state is twice its projection over z in [0, 1], whose
    # Simpson weights, doubled, are the full grid's when the half grid has
    # an odd number of nodes (n = 1 mod 4); on the other odd grids
    # (n = 3 mod 4) Simpson runs over the full even state
    zq, lo, fold = (zh, mid, 2.0) if nh % 2 else (z, 0, 1.0)
    kernel = spectral.default_kernel(config.m)
    prof = bl_profile(config.m)
    a0, rho, dev = np.empty((3, stored.size))
    for i in range(0, stored.size, _BLOCK):
        b = slice(i, i + _BLOCK)
        # a block at a time, as a copy within one array takes a temporary
        full[b, :mid] = half[b, :0:-1]
        a0[b] = fold * project_a0((zq, full[b, lo:]), kernel, p[b])
        rho[b], dev[b] = extract_boundary_layer((zh, half[b]), p[b], prof)
    if config.m == 1:
        bnd = ((-4.0 * half[:, -2] + half[:, -3]) / (2.0 * dz) / p,)
    else:
        wzz, wzzz = _clamped_wall_fit(zh, half)
        bnd = (wzz / p ** 2, wzzz / p ** 3)
    metadata = {
        "m": config.m,
        "phi": None if config.phi is None else config.phi.name,
        "kappa": config.kappa.name,
        "kind": config.kind,
        "grid_points": n,
        "dz": dz,
        "dtau_effective": dt,
        "tau_span": [tau0, tau1],
        "shape": (config.initial_data.shape if config.initial_data.profile is None
                  else "custom"),
        "amplitude": config.initial_data.amplitude,
        "freeze_phi": config.freeze_phi,
        "steps": n_steps,
        "checkpoints": stored.size,
        "final_sup": float(np.max(np.abs(w))),
    }
    return PdeTrajectory(
        config=config, z=z, snapshots=tuple(zip(tau.tolist(), full)),
        vertex_values=np.column_stack((tau, half[:, 0])),
        a0_series=np.column_stack((tau, a0)),
        boundary_derivs=np.column_stack((tau, *bnd)),
        bl_deviation=np.column_stack((tau, dev)),
        rho_series=np.column_stack((tau, rho)), metadata=metadata)


# -- measurements ------------------------------------------------------------------

def project_a0(snapshot, kernel, phi_at_tau):
    """Leading spectral coefficient: integral of w F(z phi) phi dz.

    The snapshot is extended by zero beyond the boundary, so the quadrature
    over its nodes in [-1, 1] is the full-line projection of the
    extension; run passes the nodes z >= 0 of an even state and doubles
    the result, on the grids whose half has an odd number of nodes.

    A 2-D w is a block of states, a row per checkpoint, with phi_at_tau
    their widths: one kernel call serves the block, and the coefficients
    come back as an array, each with the bits of its own call.
    """
    z, w = snapshot
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    phi = np.asarray(phi_at_tau, dtype=float)[..., None]
    y = z * phi
    a0 = simpson(w * kernel.F(y.ravel()).reshape(y.shape) * phi, x=z)
    return float(a0) if w.ndim == 1 else a0


def extract_boundary_layer(snapshot, phi_at_tau, blp: BLProfile):
    """Fit the near-boundary profile against g0 in stretched coordinates.

    Returns (rho_opt, sup_deviation) where rho_opt is the least-squares
    amplitude and the deviation is sup|w/rho_opt - g0| over the nodes
    z > 0 with xi in [0, 10]; a state that is zero there gives (0, inf),
    and a layer of fewer than 20 grid points, too few to resolve, gives
    (nan, nan). A 2-D w is a block of states, a row per checkpoint, with
    phi_at_tau their widths: both come back as arrays, each entry with the
    bits of its own call.
    """
    z = np.asarray(snapshot[0], dtype=float)
    w = np.asarray(snapshot[1], dtype=float)
    scale = np.array([float(p) ** blp.stretch_exponent
                      for p in np.ravel(phi_at_tau)])
    xi = scale[:, None] * (1.0 - z)
    mask = (z > 0.0) & (xi <= _BL_SPAN)
    count = np.count_nonzero(mask, axis=1)
    fit = count >= _BL_MIN_POINTS
    mask[~fit] = False
    # the layer points of the fitted rows, row after row: each row's w and
    # g are slices of these of its own length, as in a call on that row
    g = blp.g0(xi[mask])
    ww = w.reshape(-1, z.size)[mask]
    ends = np.cumsum(count[fit])
    starts = ends - count[fit]
    rho, dev = np.full((2, count.size), math.nan)
    rho[fit] = [float(ww[i:j].dot(g[i:j])) / float(g[i:j].dot(g[i:j]))
                for i, j in zip(starts.tolist(), ends.tolist())]
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(ww / np.repeat(rho[fit], count[fit]) - g)
    dev[fit] = np.maximum.reduceat(gap, starts)
    zero = np.abs(rho) < 1e-300
    rho[zero], dev[zero] = 0.0, math.inf
    if w.ndim == 1:
        return float(rho[0]), float(dev[0])
    return rho, dev


def compare_with_criterion(trajectory: PdeTrajectory, ode,
                           window) -> ComparisonReport:
    """Relative discrepancy between the measured and predicted a0 slopes.

    The first 3 tau units after the start are always excluded (shape
    relaxation transient). A window where the amplitude series is too
    short or touches zero comes back flagged invalid, never raising.
    """
    t = trajectory.a0_series[:, 0]
    a0 = trajectory.a0_series[:, 1]
    lo = max(float(window[0]), trajectory.config.tau_span[0] + _TRANSIENT)
    hi = float(window[1])
    mask = (t >= lo) & (t <= hi)

    def invalid(reason):
        return ComparisonReport(window=(lo, hi), n_points=int(mask.sum()),
                                valid=False, reason=reason,
                                raw_mean=math.nan, raw_max=math.nan,
                                matched_mean=math.nan, matched_max=math.nan)

    if int(mask.sum()) < 5:
        return invalid("fewer than 5 checkpoints in the matching window")
    if np.any(a0[mask] <= 0.0):
        return invalid("amplitude series touches zero in the window")
    tm = t[mask]
    ln = np.log(a0[mask])
    slope = np.gradient(ln, tm)
    lin = np.asarray(ode.linear_rhs(tm), dtype=float)
    non = np.asarray(ode.nonlinear_rhs(tm, ln), dtype=float)

    def rel(pred):
        scale = np.maximum(np.maximum(np.abs(slope), np.abs(pred)), 1e-300)
        return np.abs(slope - pred) / scale

    raw = rel(lin + non)
    matched = rel(2.0 * lin + non)
    return ComparisonReport(window=(lo, hi), n_points=int(mask.sum()),
                            valid=True, reason="",
                            raw_mean=float(raw.mean()), raw_max=float(raw.max()),
                            matched_mean=float(matched.mean()),
                            matched_max=float(matched.max()))


# -- exports ---------------------------------------------------------------------------

def export_series_csv(trajectory: PdeTrajectory, path: str) -> None:
    """All checkpoint diagnostics in one aligned table."""
    if trajectory.config.m == 1:
        bnd_cols = ["v_y"]
    else:
        bnd_cols = ["v_yy", "v_yyy"]
    header = ["tau", "vertex", "a0", "rho_opt", "bl_deviation"] + bnd_cols
    write_csv(path, header, np.column_stack([
        trajectory.vertex_values[:, :2], trajectory.a0_series[:, 1],
        trajectory.rho_series[:, 1], trajectory.bl_deviation[:, 1],
        trajectory.boundary_derivs[:, 1:]]))


def export_snapshots_csv(trajectory: PdeTrajectory, path: str) -> None:
    """Long-format (tau, z, w) rows for every checkpoint, in write_csv's
    format. The tau and z cells are Python's '%.17g', formatted once; the
    w cells of about 4,096 values' worth of checkpoints at a time are laid
    out by the array formatter of _csvtable, which falls back to '%.17g'
    only for a value its rounding cannot certify (an exact or near tie
    below 1e-6 or from 1e17 up). No copy of the whole table is ever held."""
    write_long_csv(path, ["tau", "z", "w"],
                   [t for t, _ in trajectory.snapshots], trajectory.z,
                   [w for _, w in trajectory.snapshots])


def export_metadata_json(trajectory: PdeTrajectory, path: str):
    """Write the config echo plus step statistics; returns them."""
    meta = dict(trajectory.metadata)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta
