"""Self-test of the output checks: each must reject a corrupted artifact.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py [--seed N]

Runs each workload's batch once, confirms that every check passes on the
real outputs, then corrupts one artifact at a time (a perturbed a0
column, a flipped verdict, an asymmetric snapshot, a shifted kernel
value, ...) and confirms that the check it targets fails. The artifact is
restored after each case. Also feeds the determinism and count-repeat
checks a mismatching record. Exits 0 only when every case is rejected.
"""

import argparse
import contextlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import determinism, run_checks  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402


@contextlib.contextmanager
def _edited(path, edit):
    with open(path) as fh:
        original = fh.read()
    try:
        with open(path, "w") as fh:
            fh.write(edit(original))
        yield
    finally:
        with open(path, "w") as fh:
            fh.write(original)


def csv_cell(column, row, change):
    """Edit of one CSV cell; row counts data rows, negative from the end."""
    def edit(text):
        lines = text.splitlines()
        col = lines[0].split(",").index(column)
        body = lines[1:]
        cells = body[row].split(",")
        cells[col] = "%.17g" % change(float(cells[col]))
        body[row] = ",".join(cells)
        return "\n".join([lines[0]] + body) + "\n"
    return edit


def csv_column(column, change):
    def edit(text):
        lines = text.splitlines()
        col = lines[0].split(",").index(column)
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[col] = "%.17g" % change(float(cells[col]))
            out.append(",".join(cells))
        return "\n".join(out) + "\n"
    return edit


def payload(sid, change):
    """Edit of one scenario's payload in report.json."""
    def edit(text):
        doc = json.loads(text)
        for rec in doc["reports"]:
            if rec["scenario"] == sid:
                change(rec["payload"])
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return edit


def _set(*keys_and_value):
    *keys, value = keys_and_value

    def change(p):
        for key in keys[:-1]:
            p = p[key]
        p[keys[-1]] = value(p[keys[-1]]) if callable(value) else value
    return change


def _no_certificates(p):
    for point in p["points"]:
        point["payload"]["iteration"]["certificate"] = None


def _uptick(text):
    # a post-transient vertex value that rises above its predecessor
    lines = text.splitlines()
    col = lines[0].split(",").index("vertex")
    row = 2 * len(lines) // 3
    cells = lines[row].split(",")
    prev = float(lines[row - 1].split(",")[col])
    cells[col] = "%.17g" % (prev * 1.001)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


# (workload, check, file relative to the batch directory, edit, what it does)
CASES = [
    ("simulate-m1", "vertex-decay", "star-801/series.csv", _uptick,
     "critical vertex rises once after the transient"),
    ("simulate-m1", "super-retention", "super-801/series.csv",
     csv_cell("vertex", -1, lambda v: 0.5 * v), "supercritical vertex halved at the end"),
    ("simulate-m1", "grid-convergence", "star-1601/series.csv",
     csv_cell("a0", -1, lambda v: 1.02 * v), "fine-grid final a0 up 2%"),
    ("simulate-m1", "m1-matching", "report.json",
     payload("matching", _set("matched_mean", 0.25)), "matched_mean 0.25"),
    ("simulate-m2", "snapshots-even", "biharm-snapshots/snapshots.csv",
     csv_cell("w", 5000, lambda v: v * (1.0 + 1.0e-8)), "one snapshot value off by 1e-8"),
    ("simulate-m2", "a0-recomputed", "biharm-snapshots/series.csv",
     csv_column("a0", lambda v: v * (1.0 + 1.0e-9)), "a0 column scaled by 1 + 1e-9"),
    ("simulate-m2", "m2-matching", "report.json",
     payload("biharm-matching", _set("raw_mean", 0.2)), "raw_mean 0.2"),
    ("criteria", "dichotomy", "report.json",
     payload("star-criterion", _set("verdict", "Irregular")), "critical-width verdict flipped"),
    ("criteria", "form-equivalence", "report.json",
     payload("logp1-dini", _set("classification", "Divergent")), "density form flipped"),
    ("criteria", "decay-law", "star-decay/trajectory.csv",
     csv_cell("ln_a0", -1, lambda v: 1.05 * v), "final ln a0 up 5%"),
    ("criteria", "negative-reaction", "report.json",
     payload("neg-logp2", _set("verdict", "Inconclusive")), "one negative-log verdict lost"),
    ("criteria", "critical-flip", "report.json",
     payload("flip-scan", _no_certificates), "no certificate issued"),
    ("criteria", "gradient-negligibility", "report.json",
     payload("grad-small", _set("negligibility", "max_ratio", 2.0e-3)), "ratio 2e-3"),
    ("criteria", "m2-widths", "report.json",
     payload("m2-c1-integral", _set("fit", "slope", lambda v: v + 1.0e-9)),
     "envelope exponent off by 1e-9"),
    ("criteria", "kernel-gaussian", "kernel-m1/kernel.csv",
     csv_cell("F", 10, lambda v: v + 1.0e-12), "one m=1 kernel value shifted by 1e-12"),
    ("criteria", "kernel-m2-values", "kernel-m2/kernel.csv",
     csv_cell("F", 20, lambda v: v + 1.0e-11), "one m=2 kernel value shifted by 1e-11"),
    ("criteria", "kernel-mass", "report.json",
     payload("kernel-m2", _set("mass", "value", 1.0 + 2.0e-10)), "m=2 mass 1 + 2e-10"),
    ("criteria", "kernel-fit", "report.json",
     payload("kernel-m2", _set("asymptotic_fit", "d_fit", lambda v: 1.06 * v)),
     "fitted d up 6%"),
    ("criteria", "validate", "report.json",
     payload("bl-residuals", _set("all_passed", False)), "one validate run failed"),
]


def _batch(workload, seed, base):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from vertexreg.cli import run_scenarios
    out = os.path.join(base, workload)
    os.makedirs(out)
    config = os.path.join(base, f"{workload}.yaml")
    draws = write_config(workload, seed, config)
    code, _ = run_scenarios(config, out, workers=1)
    if code != 0:
        raise SystemExit(f"{workload}: a scenario failed; see {out}/report.json")
    return out, draws


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    base = os.path.join(HERE, "out", "selftest")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    failures = 0
    try:
        for workload in WORKLOADS:
            out, draws = _batch(workload, args.seed, base)
            for name, ok, detail in run_checks(workload, out, draws):
                print(f"{workload} {name}: {'passes' if ok else 'FAILS'} "
                      f"on real outputs ({detail})")
                failures += not ok
            for wl, name, rel, edit, what in CASES:
                if wl != workload:
                    continue
                with _edited(os.path.join(out, rel), edit):
                    result = {n: (ok, d) for n, ok, d in run_checks(workload, out, draws)}
                ok, detail = result[name]
                print(f"{workload} {name}: {'NOT rejected' if ok else 'rejected'} "
                      f"{what} ({detail})")
                failures += ok
    finally:
        shutil.rmtree(base, ignore_errors=True)

    same = {"report.json": "a", "x/series.csv": "b"}
    _, ok, detail = determinism([same, same, dict(same, **{"x/series.csv": "c"})])
    print(f"determinism: {'NOT rejected' if ok else 'rejected'} one changed file ({detail})")
    failures += ok

    from run import _layer_summary
    traced = [{"batch_s": 1.0, "layers": {"pdesim.steps": n, "pdesim.step_s": 0.5}}
              for n in (10, 11)]
    _, (_, ok, detail) = _layer_summary(traced, [{"batch_s": 1.0}])
    print(f"counts-repeat: {'NOT rejected' if ok else 'rejected'} a count that moved ({detail})")
    failures += ok

    print(f"selftest: {'all cases rejected' if not failures else f'{failures} problems'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
