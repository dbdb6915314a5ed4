"""Scenario runner: reproducible batch experiments over the whole library.

Configs are YAML documents::

    version: 1
    scenarios:
      - id: star-regular
        task: criterion
        parameters:
          m: 1
          phi: petrovskii-critical
          tau_max: 1.0e9

Each scenario names a task (validate, kernel, criterion, petrovskii,
simulate, compare, sweep), gets its own output directory for CSV
artifacts, and contributes one entry to report.json. Scenarios run
independently; one failure never blocks the others. Identical configs
produce byte-identical outputs apart from the report timestamp.
"""

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np
import yaml
from scipy.integrate import simpson

from . import __version__, blayer, criterion, funcs, pdesim, petrovskii, spectral
from ._csvtable import write_csv
from .errors import ConfigError, DomainError, FitError, NoConvergence

__all__ = ["Scenario", "Report", "load_config", "run_scenarios",
           "emit_reproduction_suite", "main"]

SCHEMA_VERSION = 1
TASKS = ("validate", "kernel", "criterion", "petrovskii", "simulate",
         "compare", "sweep")

_REQUIRED = object()


@dataclass(frozen=True)
class Scenario:
    """One validated unit of work from a config file."""

    id: str
    task: str
    parameters: dict


@dataclass(frozen=True)
class Report:
    """Outcome of one scenario: payload for ok, message for error."""

    scenario: str
    task: str
    status: str
    payload: dict
    artifacts: list
    error: str = ""

    def as_record(self):
        return {"scenario": self.scenario, "task": self.task,
                "status": self.status, "payload": self.payload,
                "artifacts": list(self.artifacts), "error": self.error}


# ---------------------------------------------------------------------------
# schema validation


def _fail(sid, message):
    raise ConfigError(f"scenario {sid!r}: {message}")


def _as_number(sid, field, value):
    if isinstance(value, str):
        # YAML 1.1 floats need a signed exponent; "1.0e9" arrives as a string
        try:
            value = float(value)
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        _fail(sid, f"parameters.{field} must be a finite number")
    return float(value)


def _as_int(sid, field, value):
    # every integer field is an order, an exponent or a point count
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        _fail(sid, f"parameters.{field} must be a positive integer")
    return int(value)


def _as_bool(sid, field, value):
    if not isinstance(value, bool):
        _fail(sid, f"parameters.{field} must be true or false")
    return value


def _as_str(sid, field, value):
    if not isinstance(value, str):
        _fail(sid, f"parameters.{field} must be a string")
    return value


def _as_enum(options):
    def check(sid, field, value):
        value = _as_str(sid, field, value)
        if value not in options:
            _fail(sid, f"parameters.{field} must be one of "
                       + ", ".join(options))
        return value

    return check


def _as_pair(sid, field, value):
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        _fail(sid, f"parameters.{field} must be a pair [lo, hi]")
    return [_as_number(sid, field, v) for v in value]


def _as_map(sid, field, value):
    if not isinstance(value, dict):
        _fail(sid, f"parameters.{field} must be a mapping")
    return dict(value)


def _as_fn(sid, field, value):
    """Catalog reference: a bare name or {name, params}; must resolve."""
    if isinstance(value, str):
        spec = {"name": value, "params": {}}
    elif isinstance(value, dict) and set(value) <= {"name", "params"} \
            and "name" in value:
        spec = {"name": _as_str(sid, field, value["name"]),
                "params": _as_map(sid, field, value.get("params", {}))}
    else:
        _fail(sid, f"parameters.{field} must be a catalog name or "
                   "{name, params}")
    try:
        funcs.lookup(spec["name"], **spec["params"])
    except (KeyError, TypeError) as exc:
        _fail(sid, f"parameters.{field}: {exc}")
    return spec


def _resolve(spec):
    return funcs.lookup(spec["name"], **spec["params"])


def _take(sid, params, spec, scope="this task"):
    if not isinstance(params, dict):
        _fail(sid, "parameters must be a mapping")
    for key in params:
        if key not in spec:
            _fail(sid, f"unknown parameter {key!r} for {scope}")
    out = {}
    for field, (checker, default) in spec.items():
        if field in params and params[field] is not None:
            out[field] = checker(sid, field, params[field])
        elif default is _REQUIRED:
            _fail(sid, f"parameters.{field} is required")
        else:
            out[field] = default
    return out


def _check_thresholds(sid, field, value):
    value = _as_map(sid, field, value)
    for key in value:
        if key not in criterion.DEFAULT_THRESHOLDS:
            _fail(sid, f"parameters.{field}.{key} is not a verdict threshold")
        _as_number(sid, f"{field}.{key}", value[key])
    return value


def _check_m(sid, field, value):
    value = _as_int(sid, field, value)
    if value not in (1, 2):
        _fail(sid, f"parameters.{field} must be 1 or 2")
    return value


def _check_init(sid, field, value):
    value = _as_number(sid, field, value)
    if not -745.0 <= value <= 0.0:
        _fail(sid, f"parameters.{field} must lie in [-745, 0] (it is ln a0)")
    return value


def _validate_criterion(sid, params):
    out = _take(sid, params, {
        "m": (_check_m, _REQUIRED),
        "kind": (_as_enum(("multiplicative", "gradient")), "multiplicative"),
        "phi": (_as_fn, _REQUIRED),
        "kappa": (_as_fn, {"name": "zero-kappa", "params": {}}),
        "tau0": (_as_number, 10.0),
        "tau_max": (_as_number, 1.0e8),
        "tol": (_as_number, 1.0e-10),
        "init": (_check_init, -1.0),
        "thresholds": (_check_thresholds, {}),
        "radial_exponent": (_as_int, 1),
        "iteration": (_as_bool, False),
        "negligibility": (_as_bool, False),
        "osgood": (_as_bool, False),
    })
    if out["negligibility"] and (out["m"], out["kind"], out["radial_exponent"]) \
            != (1, "gradient", 1):
        _fail(sid, "parameters.negligibility reports the ratio of the m=1 "
                   "gradient term to the N=1 linear term; it needs m: 1, "
                   "kind: gradient and radial_exponent: 1")
    if out["iteration"] and (
            out["kind"] != "multiplicative"
            or _resolve(out["kappa"]).sign != "positive-increasing"):
        _fail(sid, "parameters.iteration needs kind multiplicative and a "
                   "kappa of sign positive-increasing")
    return out


# the fields of each petrovskii variant besides phi and variant, with
# defaults; the dini variant runs h from e^-tau0 down to e^-ell_max
_PETROVSKII_FIELDS = {
    "tau": {"radial_exponent": (_as_int, 1), "tau0": (_as_number, 10.0),
            "tau_max": (_as_number, 1.0e8), "n_points": (_as_int, 4000)},
    "dini": {"tau0": (_as_number, 10.0), "ell_max": (_as_number, 690.0),
             "n_points": (_as_int, 6000)},
    "biharmonic": {"radial_exponent": (_as_int, 1), "tau0": (_as_number, 10.0),
                   "tau_max": (_as_number, 1.0e9)},
}
_as_variant = _as_enum(tuple(_PETROVSKII_FIELDS))


def _validate_petrovskii(sid, params):
    variant = params.get("variant") if isinstance(params, dict) else None
    variant = "tau" if variant is None else _as_variant(sid, "variant", variant)
    return _take(sid, params, {"phi": (_as_fn, _REQUIRED),
                               "variant": (_as_variant, "tau"),
                               **_PETROVSKII_FIELDS[variant]},
                 scope=f"the {variant} variant")


def _validate_kernel(sid, params):
    return _take(sid, params, {
        "m": (_check_m, _REQUIRED),
        "window": (_as_pair, [5.0, 15.0]),
        "y_max": (_as_number, 20.0),
        "n_table": (_as_int, 401),
    })


_SIM_FIELDS = {
    "m": (_check_m, _REQUIRED),
    "phi": (_as_fn, None),
    "kappa": (_as_fn, {"name": "zero-kappa", "params": {}}),
    "kind": (_as_enum(("multiplicative", "gradient")), "multiplicative"),
    "grid_points": (_as_int, 801),
    "tau_span": (_as_pair, [10.0, 25.0]),
    "dtau": (_as_number, None),
    "shape": (_as_enum(("plateau", "bump", "g0")), "plateau"),
    "amplitude": (_as_number, 1.0),
    "freeze_phi": (_as_number, None),
    "n_checkpoints": (_as_int, 200),
}


def _sim_config(params):
    phi = _resolve(params["phi"]) if params["phi"] is not None else None
    return pdesim.SimConfig(
        m=params["m"], phi=phi, kappa=_resolve(params["kappa"]),
        kind=params["kind"], grid_points=params["grid_points"],
        tau_span=tuple(params["tau_span"]), dtau=params["dtau"],
        initial_data=pdesim.InitialData(params["shape"], params["amplitude"]),
        freeze_phi=params["freeze_phi"],
        n_checkpoints=params["n_checkpoints"])


def _validate_sim(sid, params, extra):
    out = _take(sid, params, {**_SIM_FIELDS, **extra})
    try:
        _sim_config(out)
    except ConfigError as exc:
        _fail(sid, str(exc))
    return out


def _validate_simulate(sid, params):
    out = _validate_sim(sid, params, {"write_snapshots": (_as_bool, True)})
    if out["phi"] is not None and out["freeze_phi"] is not None:
        _fail(sid, "parameters.phi is not simulated when freeze_phi is set; "
                   "give one of them")
    return out


def _validate_validate(sid, params):
    out = _take(sid, params, {
        "checks": (lambda s, f, v: v, list(VALIDATION_CHECKS)),
        "consistency_tau_max": (_as_number, 1.0e12),
    })
    checks = out["checks"]
    if not (isinstance(checks, list) and checks):
        _fail(sid, "parameters.checks must be a nonempty list")
    for name in checks:  # non-string entries fail before any lookup
        _as_enum(tuple(VALIDATION_CHECKS))(sid, "checks", name)
    if (params.get("consistency_tau_max") is not None
            and "petrovskii-consistency" not in checks):
        _fail(sid, "parameters.consistency_tau_max needs the "
                   "petrovskii-consistency check")
    return out


def _set_path(tree, dotted, value):
    keys = dotted.split(".")
    node = tree
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise TypeError(f"path {dotted!r} crosses a non-mapping")
    node[keys[-1]] = value


def _validate_sweep(sid, params):
    out = _take(sid, params, {
        "task": (_as_enum(("criterion", "petrovskii", "simulate",
                           "compare", "kernel")), _REQUIRED),
        "base": (_as_map, _REQUIRED),
        "vary": (_as_map, _REQUIRED),
    })
    vary = out["vary"]
    if set(vary) != {"field", "values"}:
        _fail(sid, "parameters.vary needs exactly the keys field and values")
    field = _as_str(sid, "vary.field", vary["field"])
    values = vary["values"]
    if not (isinstance(values, list) and values):
        _fail(sid, "parameters.vary.values must be a nonempty list")
    validator = _VALIDATORS[out["task"]]
    points = []
    for i, value in enumerate(values):
        point = json.loads(json.dumps(out["base"]))  # deep copy of plain data
        try:
            _set_path(point, field, value)
        except TypeError as exc:
            _fail(sid, f"parameters.vary.field: {exc}")
        points.append({"value": value,
                       "params": validator(f"{sid}[{i}]", point)})
    return {"task": out["task"], "field": field, "points": points}


_VALIDATORS = {
    "criterion": _validate_criterion,
    "petrovskii": _validate_petrovskii,
    "kernel": _validate_kernel,
    "simulate": _validate_simulate,
    # the ODE side needs a width even where the simulation freezes it; a
    # comparison writes no snapshots
    "compare": lambda sid, params: _validate_sim(sid, params, {
        "phi": (_as_fn, _REQUIRED), "window": (_as_pair, _REQUIRED)}),
    "validate": _validate_validate,
    "sweep": _validate_sweep,
}


def load_config(path):
    """Parse and schema-validate a config file.

    Returns (document echo, scenarios). Every scenario names its task.
    """
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigError(f"config is not valid YAML{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping with version and scenarios")
    unknown = set(doc) - {"version", "scenarios"}
    if unknown:
        raise ConfigError(f"unknown top-level key {sorted(unknown)[0]!r}")
    if doc.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"config version must be {SCHEMA_VERSION}")
    raw = doc.get("scenarios")
    if not (isinstance(raw, list) and raw):
        raise ConfigError("scenarios must be a nonempty list")

    scenarios = []
    seen = set()
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ConfigError(f"scenario #{i} must be a mapping")
        unknown = set(entry) - {"id", "task", "parameters"}
        if unknown:
            raise ConfigError(f"scenario #{i}: unknown key {sorted(unknown)[0]!r}")
        sid = entry.get("id")
        if not isinstance(sid, str) or not sid:
            raise ConfigError(f"scenario #{i}: id must be a nonempty string")
        if any(c not in "abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-" for c in sid):
            raise ConfigError(f"scenario {sid!r}: id may only use "
                              "letters, digits, dot, underscore, dash")
        if sid in seen:
            raise ConfigError(f"duplicate scenario id {sid!r}")
        seen.add(sid)
        task = entry.get("task")
        if task is None:
            _fail(sid, "task is required")
        if task not in TASKS:
            _fail(sid, f"unknown task {task!r}; known: " + ", ".join(TASKS))
        params = _VALIDATORS[task](sid, entry.get("parameters", {}))
        scenarios.append(Scenario(id=sid, task=task, parameters=params))
    return doc, scenarios


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, Enum):
        return str(obj.value)
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # report.json stays strict JSON
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


# ---------------------------------------------------------------------------
# task runners


def _run_criterion(params, outdir):
    phi = _resolve(params["phi"])
    kappa = _resolve(params["kappa"])
    ode = criterion.build_criterion(params["m"], params["kind"], phi, kappa,
                                    params["radial_exponent"])
    payload = {"m": params["m"], "kind": params["kind"], "phi": phi.name,
               "radial_exponent": ode.radial_exponent,
               "kappa": kappa.name, "kappa_linear": kappa.linear,
               "tau0": params["tau0"], "tau_max": params["tau_max"],
               "tol": params["tol"]}
    cert = None
    if params["iteration"]:
        try:
            it = criterion.irregularity_iteration(ode)
            cert = it.certificate
        except NoConvergence as exc:
            it = exc.record
        payload["iteration"] = {"certificate": it.certificate,
                                "margin": it.margin, "trend": it.trend,
                                "converged": it.converged}
    artifacts = []
    try:
        traj = criterion.integrate(ode, params["init"], params["tau0"],
                                   params["tau_max"], tol=params["tol"])
    except DomainError as exc:
        # the comparison amplitude climbed to its admissible ceiling: no decay
        thr = dict(criterion.DEFAULT_THRESHOLDS)
        thr.update(params["thresholds"])
        payload.update({"verdict": "Irregular", "ln_a0_final": 0.0,
                        "trend_slope": None, "certificate": str(exc),
                        "trajectory_ref": None, "thresholds": thr,
                        "decades": None})
    else:
        ver = criterion.verdict(traj, params["thresholds"] or None,
                                certificate=cert)
        payload.update(ver.as_record())
        payload["decades"] = traj.decades
        criterion.export_trajectory_csv(traj,
                                        os.path.join(outdir, "trajectory.csv"))
        artifacts.append("trajectory.csv")
    if params["negligibility"]:
        neg = criterion.gradient_negligibility(phi, kappa)
        payload["negligibility"] = {"max_ratio": neg.max_ratio,
                                    "tau_at_max": neg.tau_at_max,
                                    "threshold": 1.0e-3}
    if params["osgood"]:
        osg = criterion.osgood_dini_check(kappa)
        payload["osgood"] = {"diverges": osg.diverges,
                             "tail_slope": osg.tail_slope}
    return payload, artifacts


def _run_petrovskii(params, outdir):
    phi = _resolve(params["phi"])
    variant = params["variant"]
    # the order m and radial exponent N of the problem the integral decides
    m, radial_exponent = 1, params.get("radial_exponent", 1)
    if variant == "tau":
        trace = petrovskii.petrovskii_integral(
            phi, radial_exponent, params["tau0"], params["tau_max"],
            n_points=params["n_points"])
    elif variant == "dini":
        def rho(h):
            # h underflows to 0 past ell of about 745: tau = -log(0) = inf
            # gives the exact zero density there
            with np.errstate(divide="ignore"):
                tau = -np.log(h)
            width = np.asarray(phi.phi(tau), dtype=float)
            return np.exp(-width * width / 4.0)

        trace = petrovskii.dini_osgood_form(rho,
                                            h_max=math.exp(-params["tau0"]),
                                            ell_max=params["ell_max"],
                                            n_points=params["n_points"])
    else:
        m = 2
        trace = petrovskii.biharmonic_linear_criterion(
            phi, radial_exponent=radial_exponent, tau0=params["tau0"],
            tau_max=params["tau_max"])
    petrovskii.export_trace_csv(trace, os.path.join(outdir, "trace.csv"))
    fit = trace.fit
    payload = {"phi": phi.name, "variant": variant, "m": m,
               "radial_exponent": radial_exponent,
               "classification": str(trace.classification.value),
               "total": trace.total, "diagnostic": trace.diagnostic,
               "fit": {"slope": fit.slope, "refinement": fit.refinement,
                       "window": list(fit.window),
                       "extrapolation": fit.extrapolation},
               "classifier_margins": {"power": petrovskii._P_MARGIN,
                                      "log_refinement": petrovskii._Q_MARGIN}}
    return payload, ["trace.csv"]


def _kernel_mass(model, span, n=8001):
    ys = np.linspace(0.0, span, n)
    return 2.0 * float(simpson(model.F(ys), x=ys))


_MASS_SPAN = {1: 30.0, 2: 60.0}
_MASS_TOL = {1: 1.0e-10, 2: 1.0e-10}


def _run_kernel(params, outdir):
    m = params["m"]
    model = spectral.default_kernel(m)
    cst = model.constants
    mass = _kernel_mass(model, _MASS_SPAN[m])
    payload = {"m": m,
               "constants": {"alpha": cst.alpha, "d0": cst.d0, "b0": cst.b0,
                             "delta0": cst.delta0},
               "mass": {"value": mass, "abs_error": abs(mass - 1.0),
                        "threshold": _MASS_TOL[m]}}
    try:
        fit = spectral.kernel_asymptotic_fit(model, tuple(params["window"]))
        payload["asymptotic_fit"] = {
            "window": list(fit.window), "d_fit": fit.d_fit, "b_fit": fit.b_fit,
            "d_rel_error": abs(fit.d_fit - cst.d0) / cst.d0,
            "b_rel_error": abs(fit.b_fit - cst.b0) / cst.b0,
            "residual": fit.residual, "n_zeros": fit.n_zeros,
            "rel_tolerance": 0.05}
    except FitError as exc:
        payload["asymptotic_fit"] = {"skipped": str(exc)}
    ys = np.linspace(0.0, params["y_max"], params["n_table"])
    spectral.export_kernel_csv(model, ys, os.path.join(outdir, "kernel.csv"))
    return payload, ["kernel.csv"]


def _run_simulate(params, outdir):
    traj = pdesim.run(_sim_config(params))
    artifacts = ["series.csv", "metadata.json"]
    pdesim.export_series_csv(traj, os.path.join(outdir, "series.csv"))
    pdesim.export_metadata_json(traj, os.path.join(outdir, "metadata.json"))
    if params["write_snapshots"]:
        pdesim.export_snapshots_csv(traj, os.path.join(outdir, "snapshots.csv"))
        artifacts.append("snapshots.csv")
    tv = traj.vertex_values
    post = tv[tv[:, 0] >= tv[0, 0] + 3.0]
    retention = math.nan
    if post.shape[0] >= 2 and post[0, 1] != 0.0:
        retention = float(post[:, 1].min() / post[0, 1])
    payload = dict(traj.metadata)
    payload.update({
        "final_vertex": float(tv[-1, 1]),
        "final_a0": float(traj.a0_series[-1, 1]),
        "vertex_retention_after_transient": retention,
        "final_bl_deviation": float(traj.bl_deviation[-1, 1]),
    })
    return payload, artifacts


def _run_compare(params, outdir):
    traj = pdesim.run(_sim_config(params))
    ode = criterion.build_criterion(params["m"], params["kind"],
                                    _resolve(params["phi"]),
                                    _resolve(params["kappa"]))
    report = pdesim.compare_with_criterion(traj, ode, tuple(params["window"]))
    pdesim.export_series_csv(traj, os.path.join(outdir, "series.csv"))
    payload = {"phi": ode.phi.name, "kappa": ode.kappa.name, "m": params["m"],
               "kind": params["kind"], "transient_excluded": 3.0}
    payload.update(report.as_record())
    return payload, ["series.csv"]


def _check_rows_kernel_mass(_params):
    for m in (1, 2):
        err = abs(_kernel_mass(spectral.default_kernel(m), _MASS_SPAN[m]) - 1.0)
        yield (f"kernel-mass[m={m}]", err, _MASS_TOL[m], err < _MASS_TOL[m])


def _check_rows_spectral(_params):
    for m in (1, 2):
        worst = max(
            float(spectral.adjoint_identity_residual(
                spectral.adjoint_polynomial(m, k)))
            for k in range(9))
        yield (f"spectral-identities[m={m}]", worst, 0.0, worst == 0.0)


def _check_rows_biorth(_params):
    for m in (1, 2):
        err = spectral.biorthonormality_matrix(m, 6).max_error
        yield (f"biorthonormality[m={m},k<=6]", err, 1.0e-6, err < 1.0e-6)


def _check_rows_bl(_params):
    xi = np.linspace(0.0, 20.0, 2001)
    for m in (1, 2):
        worst = float(np.max(np.abs(blayer.bl_profile(m).residual(xi))))
        yield (f"bl-residual[m={m}]", worst, 1.0e-10, worst < 1.0e-10)


def _check_rows_biharmonic(_params):
    d0 = spectral.kernel_constants(2).d0
    err = abs(d0 ** -0.75 - 3.0 ** -0.75 * 2.0 ** 2.75)
    yield ("biharmonic-decay-constant", err, 1.0e-12, err < 1.0e-12)
    c = funcs.BIHARMONIC_CRITICAL_C
    measured = petrovskii.envelope_exponent(funcs.lookup("biharmonic-critical"))
    err = abs(measured - d0 * c ** (4.0 / 3.0))
    yield ("biharmonic-envelope-exponent", err, 1.0e-10, err < 1.0e-10)


def _check_rows_consistency(params):
    zero, tau_max = funcs.lookup("zero-kappa"), params["consistency_tau_max"]
    widths = [f for f in funcs.builtin_catalog()
              if isinstance(f, funcs.SlowGrowthFn)]
    agree = 0
    for phi in widths:
        cls = petrovskii.petrovskii_integral(phi, tau_max=tau_max).classification
        traj = criterion.integrate(
            criterion.build_criterion(1, "multiplicative", phi, zero),
            -1.0, 10.0, tau_max)
        implied = _IMPLIED_REGULARITY.get(str(cls.value))
        if implied == criterion.verdict(traj).verdict:
            agree += 1
    yield ("petrovskii-criterion-agreement", float(agree), float(len(widths)),
           agree == len(widths))


# check name -> generator of (check, value, threshold, passed) rows
VALIDATION_CHECKS = {
    "kernel-mass": _check_rows_kernel_mass,
    "spectral-identities": _check_rows_spectral,
    "biorthonormality": _check_rows_biorth,
    "bl-residual": _check_rows_bl,
    "biharmonic-constant": _check_rows_biharmonic,
    "petrovskii-consistency": _check_rows_consistency,
}


def _run_validate(params, outdir):
    rows = []
    for name in params["checks"]:
        rows.extend(VALIDATION_CHECKS[name](params))
    write_csv(os.path.join(outdir, "checks.csv"),
              ["check", "value", "threshold", "passed"], rows)
    payload = {
        "all_passed": all(r[3] for r in rows),
        "checks": [{"check": r[0], "value": r[1], "threshold": r[2],
                    "passed": r[3]} for r in rows],
    }
    return payload, ["checks.csv"]


def _run_sweep(params, outdir):
    runner = _RUNNERS[params["task"]]
    points = []
    artifacts = []
    for i, point in enumerate(params["points"]):
        subdir = os.path.join(outdir, f"point-{i:02d}")
        os.makedirs(subdir, exist_ok=True)
        sub_payload, sub_artifacts = runner(point["params"], subdir)
        summary = {"value": point["value"]}
        for key in ("verdict", "classification"):
            if key in sub_payload:
                summary[key] = sub_payload[key]
        summary["payload"] = sub_payload
        points.append(summary)
        artifacts.extend(f"point-{i:02d}/{a}" for a in sub_artifacts)
    write_csv(os.path.join(outdir, "sweep.csv"),
              ["value", "outcome"],
              [(p["value"], p.get("verdict", p.get("classification", "")))
               for p in points])
    payload = {"task": params["task"], "axis": params["field"],
               "points": points}
    return payload, ["sweep.csv"] + artifacts


_RUNNERS = {
    "criterion": _run_criterion,
    "petrovskii": _run_petrovskii,
    "kernel": _run_kernel,
    "simulate": _run_simulate,
    "compare": _run_compare,
    "validate": _run_validate,
    "sweep": _run_sweep,
}


# ---------------------------------------------------------------------------
# orchestration


def _execute(scenario, out_dir):
    subdir = os.path.join(out_dir, scenario.id)
    os.makedirs(subdir, exist_ok=True)
    try:
        payload, artifacts = _RUNNERS[scenario.task](scenario.parameters, subdir)
    except Exception as exc:  # isolation: one scenario never sinks the batch
        return Report(scenario=scenario.id, task=scenario.task, status="error",
                      payload={}, artifacts=[],
                      error=f"{type(exc).__name__}: {exc}")
    return Report(scenario=scenario.id, task=scenario.task, status="ok",
                  payload=_jsonable(payload),
                  artifacts=[f"{scenario.id}/{a}" for a in artifacts])


_IMPLIED_REGULARITY = {
    "Divergent": "Regular",
    "DivergentToMinusInfinity": "Regular",
    "Convergent": "Irregular",
    "Bounded": "Irregular",
}


def _consistency_checks(reports):
    """Pair integral classifications with ODE verdicts on the same problem.

    A pair shares the width phi, the order m and the radial exponent N, so
    the tau and density forms meet only m=1 verdicts and the biharmonic
    integral only m=2 ones. Only linear-reaction criterion runs are
    comparable to the bare integral test. Undetermined classifications
    and Inconclusive verdicts leave the pair flag null.
    """
    def problem(report):
        p = report.payload
        return p["phi"], p["m"], p["radial_exponent"]

    pairs = []
    integral = [r for r in reports
                if r.task == "petrovskii" and r.status == "ok"]
    odes = [r for r in reports
            if r.task == "criterion" and r.status == "ok"
            and r.payload.get("kappa_linear")]
    for left in integral:
        for right in odes:
            if problem(left) != problem(right):
                continue
            implied = _IMPLIED_REGULARITY.get(left.payload["classification"])
            verdict = right.payload["verdict"]
            consistent = None
            if implied is not None and verdict in ("Regular", "Irregular"):
                consistent = implied == verdict
            pairs.append({
                "petrovskii": left.scenario,
                "criterion": right.scenario,
                "phi": left.payload["phi"],
                "implied_regularity": implied,
                "criterion_verdict": verdict,
                "consistent": consistent,
            })
    return pairs


def run_scenarios(config_path, out_dir, workers=1):
    """Run every scenario in the config; returns (exit_code, report doc).

    Scenarios run one after another in config order; workers accepts only
    1. The exit code is 1 when any scenario errored, else 0.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (scenarios run serially), got {workers!r}")
    doc, scenarios = load_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    reports = [_execute(s, out_dir) for s in scenarios]

    failed = [r.scenario for r in reports if r.status == "error"]
    report_doc = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                             .isoformat(timespec="seconds"),
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "status": "error" if failed else "ok",
        "failed_scenarios": failed,
        "config": _jsonable(doc),
        "reports": [r.as_record() for r in reports],
        "consistency_checks": _consistency_checks(reports),
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (1 if failed else 0), report_doc


# ---------------------------------------------------------------------------
# canonical reproduction configs


def _sc(*args, **parameters):
    sid, run_task = args  # positional so sweeps can carry a task parameter
    return {"id": sid, "task": run_task, "parameters": parameters}


def _suite_documents():
    star = "petrovskii-critical"
    super05 = {"name": "petrovskii-super", "params": {"eps": 0.05}}
    super10 = {"name": "petrovskii-super", "params": {"eps": 0.1}}
    widths = [("star", star), ("super", super10),
              ("logp075", {"name": "log-power", "params": {"p": 0.75}}),
              ("logp1", {"name": "log-power", "params": {"p": 1.0}}),
              ("logp2", {"name": "log-power", "params": {"p": 2.0}}),
              ("biharm", "biharmonic-critical")]
    neglog = "negative-log"

    docs = {}
    docs["petrovskii-dichotomy"] = [
        _sc("star-criterion", "criterion", m=1, phi=star, tau_max=1.0e9),
        _sc("super005-criterion", "criterion", m=1, phi=super05, tau_max=1.0e9),
        _sc("super010-criterion", "criterion", m=1, phi=super10, tau_max=1.0e9),
        _sc("star-petrovskii", "petrovskii", phi=star, tau_max=1.0e9),
        _sc("super005-petrovskii", "petrovskii", phi=super05, tau_max=1.0e9),
        _sc("super010-petrovskii", "petrovskii", phi=super10, tau_max=1.0e9),
    ]
    docs["decay-law"] = [
        _sc("star-decay", "criterion", m=1, phi=star, tau_max=1.0e6),
    ]
    docs["form-equivalence"] = (
        [_sc(f"{slug}-tau", "petrovskii", phi=spec, tau_max=690.0,
             n_points=6000) for slug, spec in widths]
        + [_sc(f"{slug}-dini", "petrovskii", phi=spec, variant="dini",
               ell_max=690.0) for slug, spec in widths])
    docs["negative-kappa-universality"] = [
        _sc(f"neg-{slug}", "criterion", m=1, phi=spec, kappa=neglog,
            tau_max=1.0e8, osgood=(slug == "star"))
        for slug, spec in widths]
    docs["critical-nonlinearity-flip"] = [
        _sc("flip-scan", "sweep", task="criterion",
            base={"m": 1, "phi": star,
                  "kappa": {"name": "critical-kappa", "params": {"c": 1.0}},
                  "tau_max": 1.0e8, "init": -10.0, "iteration": True},
            vary={"field": "kappa.params.c", "values": [1.0, 10.0, 100.0]}),
        _sc("zero-baseline", "criterion", m=1, phi=star, tau_max=1.0e9),
    ]
    docs["gradient-negligibility"] = [
        _sc("grad-small", "criterion", m=1, kind="gradient", phi=star,
            kappa={"name": "critical-kappa", "params": {"c": 1.0}},
            tau_max=1.0e9, negligibility=True),
        _sc("zero-baseline", "criterion", m=1, phi=star, tau_max=1.0e9),
    ]
    docs["biorthonormality-m2"] = [
        _sc("identities", "validate",
            checks=["spectral-identities", "biorthonormality"]),
    ]
    docs["kernel-asymptotics"] = [
        _sc("kernel-m2", "kernel", m=2, window=[5.0, 15.0]),
        _sc("kernel-m1", "kernel", m=1),
    ]
    docs["bl-profiles"] = [
        _sc("bl-residuals", "validate", checks=["bl-residual"]),
    ]
    docs["biharmonic-constant"] = [
        _sc("constants", "validate", checks=["biharmonic-constant"]),
    ]
    docs["pde-vs-ode-matching"] = [
        _sc("matching", "compare", m=1, phi=star, grid_points=801,
            tau_span=[10.0, 25.0], window=[15.0, 25.0]),
    ]
    docs["vertex-behaviour"] = [
        _sc("star-sim", "simulate", m=1, phi=star, tau_span=[10.0, 25.0],
            write_snapshots=False),
        _sc("super-sim", "simulate", m=1, phi=super10, tau_span=[10.0, 30.0],
            write_snapshots=False),
    ]
    docs["determinism-convergence"] = [
        _sc("star-801", "simulate", m=1, phi=star, tau_span=[10.0, 25.0],
            write_snapshots=False),
        _sc("star-1601", "simulate", m=1, phi=star, grid_points=1601,
            tau_span=[10.0, 25.0], write_snapshots=False),
    ]
    return docs


def emit_reproduction_suite(out_dir):
    """Write one runnable config per acceptance scenario; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, scenarios in _suite_documents().items():
        path = os.path.join(out_dir, f"{name}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump({"version": SCHEMA_VERSION, "scenarios": scenarios},
                           fh, sort_keys=False)
        load_config(path)  # emitted configs must round-trip the schema
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vertexreg",
        description="Batch runner for vertex-regularity experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("run", help="run every scenario of a config file")
    sp.add_argument("--config", required=True, help="YAML scenario file")
    sp.add_argument("--out", default="runs", help="output directory")
    rp = sub.add_parser("repro", help="write the canonical acceptance configs")
    rp.add_argument("--out", default="repro-configs", help="output directory")
    args = parser.parse_args(argv)

    if args.command == "repro":
        for path in emit_reproduction_suite(args.out):
            print(path)
        return 0

    try:
        code, doc = run_scenarios(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for rec in doc["reports"]:
        line = f"[{rec['scenario']}] {rec['task']}: {rec['status']}"
        for key in ("verdict", "classification", "all_passed", "matched_mean"):
            if key in rec["payload"]:
                line += f" {key}={rec['payload'][key]}"
        if rec["error"]:
            line += f" ({rec['error']})"
        print(line)
    print(f"report: {os.path.join(args.out, 'report.json')}")
    return code


if __name__ == "__main__":
    sys.exit(main())
