"""Output checks made apart from the program.

Each check reads the artifacts of one batch (report.json and the CSVs)
and compares them with values the benchmark computes itself, or with
properties the method must have. Nothing here imports vertexreg. Every
check returns (passed, detail); selftest.py shows that each one rejects a
deliberately corrupted artifact.
"""

import hashlib
import json
import math
import os
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad, simpson

from workloads import CATALOG, dichotomy_widths

SQRT_PI = math.sqrt(math.pi)

# 3^(-3/4) 2^(11/4): c (ln tau)^(3/4) with this c has envelope exponent 1
BIHARMONIC_CRITICAL_C = 3.0 ** (-0.75) * 2.0 ** 2.75

# closed-form m=2 kernel constants: alpha = 4/3, r = 3 / 4^(4/3),
# d0 = r sin(pi/6), b0 = r cos(pi/6)
M2_D0 = 3.0 / (2.0 * 4.0 ** (4.0 / 3.0))
M2_B0 = 3.0 * math.sqrt(3.0) / (2.0 * 4.0 ** (4.0 / 3.0))

IMPLIED = {"Divergent": "Regular", "Convergent": "Irregular"}

SNAPSHOT_EVEN_TOL = 1.0e-10  # relative to sup|w|; measured about 1e-11
A0_REL_TOL = 1.0e-11         # measured agreement about 3e-15
KERNEL_M2_TOL = 1.0e-12      # measured agreement about 1e-15
A0_CHECKPOINTS = 4           # first, last and two evenly between


class Outputs:
    """Read access to one batch's output directory."""

    def __init__(self, root):
        self.root = root
        with open(os.path.join(root, "report.json")) as fh:
            self.reports = {r["scenario"]: r for r in json.load(fh)["reports"]}

    def payload(self, sid):
        rec = self.reports[sid]
        if rec["status"] != "ok":
            raise ValueError(f"scenario {sid} ended with {rec['status']}: "
                             f"{rec['error']}")
        return rec["payload"]

    def table(self, sid, name):
        """CSV artifact as {column: float array}."""
        with open(os.path.join(self.root, sid, name)) as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(",")
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        return {col: rows[:, j] for j, col in enumerate(header)}

    def snapshots(self, sid):
        """(taus, z, w) of a long-format snapshots.csv; w is (n_tau, n_z)."""
        data = np.loadtxt(os.path.join(self.root, sid, "snapshots.csv"),
                          delimiter=",", skiprows=1, ndmin=2)
        n_tau = len(np.unique(data[:, 0]))
        if len(data) % n_tau:
            raise ValueError("snapshots do not share one grid")
        blocks = data.reshape(n_tau, len(data) // n_tau, 3)
        return blocks[:, 0, 0], blocks[0, :, 1], blocks[:, :, 2]


def kernel_m2(y):
    """F(y) = (1/pi) int_0^inf e^{-s^4} cos(s y) ds by cosine-weighted quad.

    The integrand is below 1e-560 past s = 6, so the finite range is exact
    in double precision.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda s: math.exp(-s ** 4), 0.0, 6.0, weight="cos",
                      wvar=abs(float(y)), epsabs=1.0e-14, limit=400)
    return val / math.pi


def _post_transient(series):
    keep = series["tau"] >= series["tau"][0] + 3.0
    return series["vertex"][keep]


# -- simulate-m1 -------------------------------------------------------------------

def m1_vertex_decay(out, draws):
    post = _post_transient(out.table("star-801", "series.csv"))
    monotone = bool(np.all(np.diff(post) < 0.0))
    ratio = float(post[-1] / post[0])
    return (monotone and ratio < 0.8,
            f"critical vertex strictly decreasing={monotone}, "
            f"end/start {ratio:.4f} < 0.8")


def m1_super_retention(out, draws):
    post = _post_transient(out.table("super-801", "series.csv"))
    retention = float(post.min() / post[0])
    return retention > 0.5, f"supercritical retention {retention:.4f} > 0.5"


def m1_grid_convergence(out, draws):
    coarse = out.table("star-801", "series.csv")["a0"][-1]
    fine = out.table("star-1601", "series.csv")["a0"][-1]
    shift = abs(fine - coarse) / abs(coarse)
    return shift < 0.01, f"final a0 shift 801->1601 {shift:.3e} < 1e-2"


def m1_matching(out, draws):
    p = out.payload("matching")
    ok = (p["valid"] is True and p["matched_mean"] < 0.20
          and p["raw_mean"] > p["matched_mean"])
    return ok, (f"valid={p['valid']} matched_mean {p['matched_mean']:.4f} < 0.2, "
                f"raw_mean {p['raw_mean']:.4f} > matched")


# -- simulate-m2 -------------------------------------------------------------------

def m2_snapshots_even(out, draws):
    _, z, w = out.snapshots("biharm-snapshots")
    grid_even = float(np.max(np.abs(z + z[::-1])))
    worst = float(np.max(np.max(np.abs(w - w[:, ::-1]), axis=1)
                         / np.max(np.abs(w), axis=1)))
    return (grid_even < 1.0e-15 and worst < SNAPSHOT_EVEN_TOL,
            f"{len(w)} snapshots, worst |w(z)-w(-z)|/sup|w| {worst:.2e} "
            f"< {SNAPSHOT_EVEN_TOL:g}")


def m2_a0_recomputed(out, draws):
    taus, z, w = out.snapshots("biharm-snapshots")
    series = out.table("biharm-snapshots", "series.csv")
    if not np.array_equal(series["tau"], taus):
        return False, "series.csv and snapshots.csv checkpoints differ"
    mid = len(z) // 2
    worst = 0.0
    picks = np.linspace(0, len(taus) - 1, A0_CHECKPOINTS).round().astype(int)
    for i in picks:
        phi = 6.0 * math.log(taus[i]) ** 0.75
        half = np.array([kernel_m2(y) for y in z[mid:] * phi])
        kern = np.concatenate([half[:0:-1], half])  # F is even, z symmetric
        a0 = float(simpson(w[i] * kern * phi, x=z))
        worst = max(worst, abs(a0 - series["a0"][i]) / abs(series["a0"][i]))
    return (worst < A0_REL_TOL,
            f"a0 at {len(picks)} checkpoints from snapshots, worst rel "
            f"{worst:.2e} < {A0_REL_TOL:g}")


def m2_matching(out, draws):
    p = out.payload("biharm-matching")
    ok = p["valid"] is True and p["matched_mean"] < 0.2 and p["raw_mean"] > 0.25
    return ok, (f"valid={p['valid']} matched_mean {p['matched_mean']:.4f} < 0.2, "
                f"raw_mean {p['raw_mean']:.4f} > 0.25")


# -- criteria ----------------------------------------------------------------------

def _pairs(out, draws):
    slugs = [slug for slug, _ in dichotomy_widths(draws)]
    pairs = [(f"{s}-criterion", f"{s}-petrovskii") for s in slugs]
    pairs += [(f"{s}-criterion-1e9", f"{s}-petrovskii-1e9")
              for s in ("star", "super-a", "super-b")]
    return pairs


def crit_dichotomy(out, draws):
    bad = []
    pairs = _pairs(out, draws)
    for ode_id, int_id in pairs:
        verdict = out.payload(ode_id)["verdict"]
        cls = out.payload(int_id)["classification"]
        if IMPLIED.get(cls) != verdict:
            bad.append(f"{ode_id}={verdict}/{cls}")
    return not bad, f"{len(pairs) - len(bad)}/{len(pairs)} ODE-integral pairs agree " \
                    + "; ".join(bad)


def crit_form_equivalence(out, draws):
    bad = []
    for slug, _ in CATALOG:
        tau = out.payload(f"{slug}-tau")["classification"]
        dini = out.payload(f"{slug}-dini")["classification"]
        if tau != dini:
            bad.append(f"{slug} tau={tau} dini={dini}")
    return not bad, f"{len(CATALOG) - len(bad)}/{len(CATALOG)} widths: tau " \
                    "and density forms agree " + "; ".join(bad)


def crit_decay_law(out, draws):
    traj = out.table("star-decay", "trajectory.csv")
    span = math.log(traj["tau"][-1]) ** 1.5 - math.log(traj["tau"][0]) ** 1.5
    coef = (traj["ln_a0"][-1] - traj["ln_a0"][0]) / span
    exact = -1.0 / (3.0 * SQRT_PI)
    rel = abs(coef - exact) / abs(exact)
    return rel < 0.02, f"decay coefficient {coef:.6f} vs {exact:.6f}, rel {rel:.2e} < 2e-2"


def crit_negative_reaction(out, draws):
    slugs = [slug for slug, _ in dichotomy_widths(draws)]
    bad = [s for s in slugs if out.payload(f"neg-{s}")["verdict"] != "Regular"]
    return not bad, f"{len(slugs) - len(bad)}/{len(slugs)} Regular under " \
                    "negative-log " + " ".join(bad)


def crit_flip(out, draws):
    points = out.payload("flip-scan")["points"]
    certified = [p["value"] for p in points
                 if p["payload"]["iteration"]["certificate"] is not None]
    return bool(certified), f"certificate for critical-kappa c in {certified}"


def crit_gradient(out, draws):
    ratio = out.payload("grad-small")["negligibility"]["max_ratio"]
    return ratio < 1.0e-3, f"gradient/linear ratio {ratio:.3e} < 1e-3"


def crit_m2_widths(out, draws):
    bad = []
    for i, c in enumerate(draws["c"]):
        integral = out.payload(f"m2-c{i}-integral")
        verdict = out.payload(f"m2-c{i}-criterion")["verdict"]
        want = M2_D0 * c ** (4.0 / 3.0)
        err = abs(integral["fit"]["slope"] - want)
        if not (c > BIHARMONIC_CRITICAL_C and integral["classification"] == "Bounded"
                and verdict == "Irregular" and want > 1.0 and err < 1.0e-10):
            bad.append(f"c={c}: {integral['classification']}/{verdict}, "
                       f"exponent err {err:.1e}")
    return not bad, f"{len(draws['c']) - len(bad)}/{len(draws['c'])} m=2 widths " \
                    "Bounded/Irregular with exponent d0 c^(4/3) > 1 " + "; ".join(bad)


def crit_kernel_gauss(out, draws):
    k = out.table("kernel-m1", "kernel.csv")
    dev = float(np.max(np.abs(k["F"] - np.exp(-k["y"] ** 2 / 4.0) / (2.0 * SQRT_PI))))
    return dev <= 1.0e-13, f"m=1 kernel.csv vs Gaussian {dev:.1e} <= 1e-13"


def crit_kernel_m2_values(out, draws):
    k = out.table("kernel-m2", "kernel.csv")
    rows = range(0, len(k["y"]), 10)
    dev = max(abs(k["F"][i] - kernel_m2(k["y"][i])) for i in rows)
    return dev < KERNEL_M2_TOL, f"m=2 kernel.csv vs cosine quadrature {dev:.1e} " \
                                f"< {KERNEL_M2_TOL:g} on {len(rows)} rows"


def crit_kernel_mass(out, draws):
    errs = {m: abs(out.payload(f"kernel-m{m}")["mass"]["value"] - 1.0) for m in (1, 2)}
    return all(e < 1.0e-10 for e in errs.values()), \
        "kernel mass error " + ", ".join(f"m={m} {e:.1e}" for m, e in errs.items()) \
        + " < 1e-10"


def crit_kernel_fit(out, draws):
    fit = out.payload("kernel-m2")["asymptotic_fit"]
    d_rel = abs(fit["d_fit"] - M2_D0) / M2_D0
    b_rel = abs(fit["b_fit"] - M2_B0) / M2_B0
    return d_rel < 0.05 and b_rel < 0.05, \
        f"m=2 fit (d, b) rel errors ({d_rel:.2%}, {b_rel:.2%}) < 5%"


def crit_validate(out, draws):
    ids = ("identities", "bl-residuals", "constants")
    bad = [sid for sid in ids if out.payload(sid)["all_passed"] is not True]
    return not bad, f"validate all_passed in {len(ids) - len(bad)}/{len(ids)} " \
                    + " ".join(bad)


CHECKS = {
    "simulate-m1": [("vertex-decay", m1_vertex_decay),
                    ("super-retention", m1_super_retention),
                    ("grid-convergence", m1_grid_convergence),
                    ("m1-matching", m1_matching)],
    "simulate-m2": [("snapshots-even", m2_snapshots_even),
                    ("a0-recomputed", m2_a0_recomputed),
                    ("m2-matching", m2_matching)],
    "criteria": [("dichotomy", crit_dichotomy),
                 ("form-equivalence", crit_form_equivalence),
                 ("decay-law", crit_decay_law),
                 ("negative-reaction", crit_negative_reaction),
                 ("critical-flip", crit_flip),
                 ("gradient-negligibility", crit_gradient),
                 ("m2-widths", crit_m2_widths),
                 ("kernel-gaussian", crit_kernel_gauss),
                 ("kernel-m2-values", crit_kernel_m2_values),
                 ("kernel-mass", crit_kernel_mass),
                 ("kernel-fit", crit_kernel_fit),
                 ("validate", crit_validate)],
}


def run_checks(workload, out_dir, draws):
    """[(name, passed, detail)] for every check of the workload."""
    results = []
    try:
        out = Outputs(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [("report", False, f"unreadable report.json: {exc}")]
    for name, check in CHECKS[workload]:
        try:
            ok, detail = check(out, draws)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results


def artifact_digests(out_dir):
    """sha256 of every file in a batch directory, report timestamp removed."""
    digests = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "report.json" and base == out_dir:
                data = b"\n".join(line for line in data.split(b"\n")
                                  if not line.lstrip().startswith(b'"timestamp":'))
            digests[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
    return digests


def determinism(digests):
    """Check that every repeat wrote the same bytes as the first."""
    first = digests[0]
    bad = [(i, sorted(set(d.items()) ^ set(first.items()))[0][0])
           for i, d in enumerate(digests[1:], start=1) if d != first]
    return ("determinism", not bad,
            f"{len(digests)} repeats, {len(first)} files byte-identical"
            if not bad else "differs: " + "; ".join(f"repeat {i} {f}" for i, f in bad))
