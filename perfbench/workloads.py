"""Seeded scenario batches for the three benchmark workloads.

The seed draws only parameters whose expected outcome theory fixes: the
initial amplitude of the linear (kappa = 0) simulations, eps of the
supercritical m=1 widths and c of the m=2 widths above the critical
constant. Grid sizes, horizons and checkpoint counts are fixed, so a batch
does about the same work for every seed.
"""

import random

import yaml

WORKLOADS = ("simulate-m1", "simulate-m2", "criteria")

STAR = "petrovskii-critical"


def _sc(sid, task, /, **parameters):
    # positional-only, so a sweep can carry a task parameter
    return {"id": sid, "task": task, "parameters": parameters}


def _super(eps):
    return {"name": "petrovskii-super", "params": {"eps": eps}}


def _biharm(c):
    return {"name": "biharmonic-critical", "params": {"c": c}}


def draws(workload, seed):
    """The seeded parameters of one workload, rounded so YAML stays exact."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "simulate-m1":
        return {"amplitude": round(rng.uniform(0.5, 2.0), 4),
                "eps": round(rng.uniform(0.09, 0.13), 4)}
    if workload == "simulate-m2":
        return {"amplitude": round(rng.uniform(0.5, 2.0), 4)}
    if workload == "criteria":
        return {"eps": [round(rng.uniform(0.05, 0.09), 4),
                        round(rng.uniform(0.09, 0.2), 4)],
                "c": sorted(round(rng.uniform(3.5, 8.0), 4) for _ in range(3))}
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _simulate_m1(d):
    amp = d["amplitude"]
    return [
        _sc("star-801", "simulate", m=1, phi=STAR, grid_points=801,
            tau_span=[10.0, 25.0], amplitude=amp, write_snapshots=False),
        _sc("star-1601", "simulate", m=1, phi=STAR, grid_points=1601,
            tau_span=[10.0, 25.0], amplitude=amp, write_snapshots=False),
        _sc("super-801", "simulate", m=1, phi=_super(d["eps"]),
            grid_points=801, tau_span=[10.0, 30.0], amplitude=amp,
            write_snapshots=False),
        _sc("matching", "compare", m=1, phi=STAR, grid_points=801,
            tau_span=[10.0, 25.0], amplitude=amp, window=[15.0, 25.0]),
    ]


def _simulate_m2(d):
    amp = d["amplitude"]
    width = _biharm(6.0)
    return [
        _sc("biharm-snapshots", "simulate", m=2, phi=width, shape="g0",
            grid_points=801, tau_span=[10.0, 12.0], n_checkpoints=800,
            amplitude=amp, write_snapshots=True),
        _sc("biharm-matching", "compare", m=2, phi=width, shape="g0",
            grid_points=801, tau_span=[10.0, 30.0], amplitude=amp,
            window=[15.0, 30.0]),
    ]


# the builtin catalog widths, at their default parameters
CATALOG = [("star", STAR), ("super", _super(0.1)),
           ("logp075", {"name": "log-power", "params": {"p": 0.75}}),
           ("logp1", {"name": "log-power", "params": {"p": 1.0}}),
           ("logp2", {"name": "log-power", "params": {"p": 2.0}}),
           ("biharm", "biharmonic-critical")]

# horizon at which the ODE verdict and the tau-form classification agree
# for every catalog width; at 1e9 the ODE still calls (ln tau)^(3/4) Regular
DICHOTOMY_TAU_MAX = 1.0e12


def dichotomy_widths(d):
    """(slug, spec) of the m=1 widths paired ODE-vs-integral."""
    lo, hi = d["eps"]
    return CATALOG + [("super-a", _super(lo)), ("super-b", _super(hi))]


def _criteria(d):
    critical_kappa = {"name": "critical-kappa", "params": {"c": 1.0}}
    out = []
    for slug, spec in dichotomy_widths(d):
        out += [
            _sc(f"{slug}-criterion", "criterion", m=1, phi=spec,
                tau_max=DICHOTOMY_TAU_MAX),
            _sc(f"{slug}-petrovskii", "petrovskii", phi=spec,
                tau_max=DICHOTOMY_TAU_MAX),
            _sc(f"neg-{slug}", "criterion", m=1, phi=spec,
                kappa="negative-log", tau_max=1.0e8, osgood=(slug == "star")),
        ]
    # the repro suite's own dichotomy horizon
    for slug in ("star", "super-a", "super-b"):
        spec = dict(dichotomy_widths(d))[slug]
        out += [
            _sc(f"{slug}-criterion-1e9", "criterion", m=1, phi=spec,
                tau_max=1.0e9),
            _sc(f"{slug}-petrovskii-1e9", "petrovskii", phi=spec,
                tau_max=1.0e9),
        ]
    for slug, spec in CATALOG:
        out += [
            _sc(f"{slug}-tau", "petrovskii", phi=spec, tau_max=690.0,
                n_points=6000),
            _sc(f"{slug}-dini", "petrovskii", phi=spec, variant="dini",
                ell_max=690.0),
        ]
    out += [
        _sc("star-decay", "criterion", m=1, phi=STAR, tau_max=1.0e6),
        _sc("flip-scan", "sweep", task="criterion",
            base={"m": 1, "phi": STAR, "kappa": critical_kappa,
                  "tau_max": 1.0e8, "init": -10.0, "iteration": True},
            vary={"field": "kappa.params.c", "values": [1.0, 10.0, 100.0]}),
        _sc("grad-small", "criterion", m=1, kind="gradient", phi=STAR,
            kappa=critical_kappa, tau_max=1.0e9, negligibility=True),
        _sc("identities", "validate",
            checks=["spectral-identities", "biorthonormality"]),
        _sc("kernel-m2", "kernel", m=2, window=[5.0, 15.0]),
        _sc("kernel-m1", "kernel", m=1),
        _sc("bl-residuals", "validate", checks=["bl-residual"]),
        _sc("constants", "validate", checks=["biharmonic-constant"]),
    ]
    for i, c in enumerate(d["c"]):
        out += [
            _sc(f"m2-c{i}-criterion", "criterion", m=2, phi=_biharm(c),
                tau_max=1.0e9),
            _sc(f"m2-c{i}-integral", "petrovskii", phi=_biharm(c),
                variant="biharmonic"),
        ]
    return out


_BUILDERS = {"simulate-m1": _simulate_m1, "simulate-m2": _simulate_m2,
             "criteria": _criteria}


def scenarios(workload, seed):
    """(draws, scenario list) of one workload at one seed."""
    d = draws(workload, seed)
    return d, _BUILDERS[workload](d)


def write_config(workload, seed, path):
    """Write the workload's YAML config; returns the seeded draws."""
    d, batch = scenarios(workload, seed)
    with open(path, "w") as fh:
        yaml.safe_dump({"version": 1, "scenarios": batch}, fh, sort_keys=False)
    return d
