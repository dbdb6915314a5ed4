"""Direct time-stepping of the rescaled vertex problems on z in [-1, 1].

The moving parabolic boundary is frozen at z = +-1 by the similarity
rescaling, so the second-order problem runs with Dirichlet conditions and
the fourth-order one with clamped conditions. The principal term is
implicit (banded solves), drift and reaction explicit. Everything the
amplitude-ODE criterion predicts (a0 slope, boundary-layer shape, boundary
derivative laws) is measured from the grid solution for cross-checking.
"""

import json
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import solve_banded

from . import spectral
from ._csvtable import write_csv
from .blayer import BLProfile, bl_profile
from .errors import BlowupError, ConfigError, ResolutionError, StepFailure
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
    "manufactured_source",
    "manufactured_state",
    "export_series_csv",
    "export_snapshots_csv",
    "export_metadata_json",
]

_BLOWUP_SUP = 1.0e6
_TRANSIENT = 3.0
_BL_SPAN = 10.0
_BL_MIN_POINTS = 20
_SHAPES = ("plateau", "bump", "g0")


@dataclass(frozen=True)
class InitialData:
    """Named start profile with an amplitude factor.

    profile, when given, overrides shape with a custom callable of z
    (validation hook: manufactured solutions, sign-count experiments).
    """

    shape: str = "plateau"
    amplitude: float = 1.0
    profile: Optional[Callable] = None


@dataclass(frozen=True)
class SimConfig:
    """Validated description of one simulation run.

    freeze_phi pins the width at a constant and bypasses the slow-growth
    domain check; used by eigenvalue validation and manufactured-solution
    runs. source(tau, z) is added to the explicit stage.
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
    the factor).
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

    def as_record(self):
        return {
            "window": list(self.window),
            "n_points": self.n_points,
            "valid": self.valid,
            "reason": self.reason,
            "raw_mean": self.raw_mean,
            "raw_max": self.raw_max,
            "matched_mean": self.matched_mean,
            "matched_max": self.matched_max,
            "boundary_multiplicity": self.boundary_multiplicity,
        }


# -- pieces of the step ----------------------------------------------------------

def _phi_evaluators(config):
    if config.freeze_phi is not None:
        L = float(config.freeze_phi)
        return (lambda t: L), (lambda t: 0.0)
    phi = config.phi

    def value(t):
        return float(phi.phi(t))

    def log_slope(t):
        return float(phi.dphi(t)) / float(phi.phi(t))

    return value, log_slope


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
        xi = phi0 ** prof.stretch_exponent * (1.0 - np.abs(z))
        w = prof.g0(xi)
    w = data.amplitude * w
    w[0] = w[-1] = 0.0
    return w


def _m1_band(n, r):
    ab = np.zeros((3, n))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = 0.0
    ab[2, -2] = 0.0
    return ab


def _m2_band(n, r4):
    ab = np.zeros((5, n))
    ab[0, 2:] = r4
    ab[1, 1:] = -4.0 * r4
    ab[2, :] = 1.0 + 6.0 * r4
    ab[3, :-1] = -4.0 * r4
    ab[4, :-2] = r4
    # mirror ghost folds back onto the first/last interior node (clamped)
    ab[2, 1] = 1.0 + 7.0 * r4
    ab[2, -2] = 1.0 + 7.0 * r4
    # boundary rows reduce to the identity
    ab[2, 0] = ab[2, -1] = 1.0
    ab[1, 1] = ab[0, 2] = 0.0
    ab[3, -2] = ab[4, -3] = 0.0
    return ab


# wall stencil width for the clamped derivative read; the nodes adjacent to
# the mirror-ghost rows carry a cell-scale artifact, so short stencils that
# sit right on them misread w_zzz by ~40% at any resolution
_WALL_FIT_NODES = 12


def _clamped_wall_derivs(z, w):
    """One-sided w_zz(1), w_zzz(1) from a clamped polynomial fit.

    Fits w(1-s) = c2 s^2 + ... + c5 s^5 over the nearest interior nodes
    (the clamped conditions kill the constant and linear terms), in the
    normalized variable s/s_max for conditioning.
    """
    s = 1.0 - z[-(_WALL_FIT_NODES + 1):-1]
    smax = float(s.max())
    sig = s / smax
    cols = np.column_stack([sig ** 2, sig ** 3, sig ** 4, sig ** 5])
    coef, *_ = np.linalg.lstsq(cols, w[-(_WALL_FIT_NODES + 1):-1], rcond=None)
    wzz = 2.0 * coef[0] / smax ** 2
    wzzz = -6.0 * coef[1] / smax ** 3
    return wzz, wzzz


def _reaction(config, w, wz, p):
    if config.kappa.linear:
        return 0.0
    u = np.clip(np.abs(w), 1e-320, config.kappa.u_max)
    k = np.asarray(config.kappa.kappa(u), dtype=float)
    if config.kind == "multiplicative":
        return k * w
    return k * (wz / p) ** (2 * config.m)


def run(config: SimConfig) -> PdeTrajectory:
    """Time-step the configured problem and record all diagnostics.

    Checkpoints are log-uniform in tau (linear if the span starts at 0).
    Raises BlowupError past sup|w| = 1e6 and StepFailure if an implicit
    solve fails or returns non-finite values.
    """
    n = config.grid_points
    z = np.linspace(-1.0, 1.0, n)
    dz = float(z[1] - z[0])
    # explicit drift: |z|/2 * dt/dz <= 1/2 means dt <= dz
    dt_base = min(config.dtau if config.dtau is not None else dz, dz)
    tau0, tau1 = (float(v) for v in config.tau_span)
    phi_of, log_slope = _phi_evaluators(config)
    w = _initial_profile(config, z, phi_of(tau0))
    if tau0 > 0.0:
        checkpoints = np.geomspace(tau0, tau1, config.n_checkpoints)
    else:
        checkpoints = np.linspace(tau0, tau1, config.n_checkpoints)
    kernel = spectral.default_kernel(config.m)
    prof = bl_profile(config.m)
    mid = n // 2
    inv_2m = 1.0 / (2.0 * config.m)

    snaps = []
    vertex, a0s, bnd, bl, rho = [], [], [], [], []

    def record(t, state):
        p = phi_of(t)
        snaps.append((t, state.copy()))
        vertex.append((t, float(state[mid])))
        a0s.append((t, project_a0((z, state), kernel, p)))
        try:
            r_opt, dev = extract_boundary_layer((z, state), p, prof)
        except ResolutionError:
            r_opt, dev = math.nan, math.nan
        rho.append((t, r_opt))
        bl.append((t, dev))
        if config.m == 1:
            vy = (-4.0 * state[-2] + state[-3]) / (2.0 * dz) / p
            bnd.append((t, vy))
        else:
            wzz, wzzz = _clamped_wall_derivs(z, state)
            bnd.append((t, wzz / p ** 2, wzzz / p ** 3))

    record(tau0, w)
    next_cp = 1
    t = tau0
    steps = 0
    while t < tau1 - 1e-12:
        dt = min(dt_base, tau1 - t)
        p_new = phi_of(t + dt)
        wz = np.zeros_like(w)
        wz[1:-1] = (w[2:] - w[:-2]) / (2.0 * dz)
        drift = (log_slope(t) - inv_2m) * z * wz
        rhs = w + dt * (drift + _reaction(config, w, wz, p_new))
        if config.source is not None:
            rhs += dt * np.asarray(config.source(t, z), dtype=float)
        rhs[0] = rhs[-1] = 0.0
        if config.m == 1:
            band = _m1_band(n, dt / (p_new * p_new * dz * dz))
            bands = (1, 1)
        else:
            band = _m2_band(n, dt / (p_new ** 4 * dz ** 4))
            bands = (2, 2)
        try:
            w = solve_banded(bands, band, rhs)
        except Exception as exc:
            raise StepFailure(f"implicit solve failed at tau={t:.6g}") from exc
        if not np.all(np.isfinite(w)):
            raise StepFailure(f"non-finite state after the step at tau={t:.6g}")
        t += dt
        steps += 1
        sup = float(np.max(np.abs(w)))
        if sup > _BLOWUP_SUP:
            raise BlowupError(f"sup|w|={sup:.4g} exceeded 1e6 at tau={t:.6g}")
        if next_cp < len(checkpoints) and t >= checkpoints[next_cp] - 1e-12:
            record(t, w)
            while next_cp < len(checkpoints) and t >= checkpoints[next_cp] - 1e-12:
                next_cp += 1

    metadata = {
        "m": config.m,
        "phi": None if config.phi is None else config.phi.name,
        "kappa": config.kappa.name,
        "kind": config.kind,
        "grid_points": n,
        "dz": dz,
        "dtau_effective": dt_base,
        "tau_span": [tau0, tau1],
        "shape": (config.initial_data.shape if config.initial_data.profile is None
                  else "custom"),
        "amplitude": config.initial_data.amplitude,
        "freeze_phi": config.freeze_phi,
        "steps": steps,
        "checkpoints": len(snaps),
        "final_sup": float(np.max(np.abs(w))),
    }
    return PdeTrajectory(
        config=config, z=z, snapshots=tuple(snaps),
        vertex_values=np.array(vertex), a0_series=np.array(a0s),
        boundary_derivs=np.array(bnd), bl_deviation=np.array(bl),
        rho_series=np.array(rho), metadata=metadata)


# -- measurements ------------------------------------------------------------------

def project_a0(snapshot, kernel, phi_at_tau: float) -> float:
    """Leading spectral coefficient: integral of w F(z phi) phi dz.

    The snapshot is extended by zero beyond the boundary, so the quadrature
    over [-1, 1] in z is the full-line projection of the extension.
    """
    z, w = snapshot
    y = np.asarray(z, dtype=float) * phi_at_tau
    return float(simpson(np.asarray(w, dtype=float) * kernel.F(y) * phi_at_tau,
                         x=np.asarray(z, dtype=float)))


def extract_boundary_layer(snapshot, phi_at_tau: float, blp: BLProfile):
    """Fit the near-boundary profile against g0 in stretched coordinates.

    Returns (rho_opt, sup_deviation) where rho_opt is the least-squares
    amplitude and the deviation is sup|w/rho_opt - g0| over xi in [0, 10].
    """
    z = np.asarray(snapshot[0], dtype=float)
    w = np.asarray(snapshot[1], dtype=float)
    xi = phi_at_tau ** blp.stretch_exponent * (1.0 - z)
    mask = (z > 0.0) & (xi <= _BL_SPAN)
    count = int(np.count_nonzero(mask))
    if count < _BL_MIN_POINTS:
        raise ResolutionError(
            f"{count} grid points inside the boundary layer, need "
            f">= {_BL_MIN_POINTS}; refine the grid so that dz < "
            f"{_BL_SPAN / (_BL_MIN_POINTS * phi_at_tau ** blp.stretch_exponent):.3g}")
    g = blp.g0(xi[mask])
    ww = w[mask]
    rho_opt = float(ww @ g) / float(g @ g)
    if abs(rho_opt) < 1e-300:
        return 0.0, math.inf
    dev = float(np.max(np.abs(ww / rho_opt - g)))
    return rho_opt, dev


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


# -- manufactured solution hook ------------------------------------------------------

def manufactured_state(z, tau):
    """The reference field e^{-tau} cos(pi z / 2)."""
    return math.exp(-tau) * np.cos(0.5 * math.pi * np.asarray(z, dtype=float))


def manufactured_source(L: float):
    """Source that makes manufactured_state exact for frozen width L, m=1.

    Plug into SimConfig(source=..., freeze_phi=L, kappa=zero) with the
    matching cosine initial profile.
    """
    half_pi = 0.5 * math.pi

    def source(tau, z):
        z = np.asarray(z, dtype=float)
        return math.exp(-tau) * ((half_pi ** 2 / (L * L) - 1.0)
                                 * np.cos(half_pi * z)
                                 - 0.5 * half_pi * z * np.sin(half_pi * z))

    return source


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
    """Long-format (tau, z, w) rows for every checkpoint."""
    z = trajectory.z.tolist()  # Python floats format faster than numpy scalars
    write_csv(path, ["tau", "z", "w"], chain.from_iterable(
        zip(repeat(t), z, w.tolist()) for t, w in trajectory.snapshots))


def export_metadata_json(trajectory: PdeTrajectory, path: Optional[str] = None):
    """Config echo plus step statistics; written when a path is given."""
    meta = dict(trajectory.metadata)
    if path is not None:
        with open(path, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return meta
