"""Benchmark of the vertexreg batch runner on three seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload simulate-m1 --seed 1 --seconds 30 --trace 0

One operation is one scenario of the workload's batch. A repeat is one
fresh interpreter that pays set-up (import, config load, first-use kernel
and boundary-layer builds) and then runs the whole batch once through
vertexreg.cli.run_scenarios with one worker. Repeats continue until
--seconds have passed (at least MIN_REPEATS), and every figure is the
median over the repeats of the run.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced repeats and reports the per-layer metrics from the traced ones,
plus the tracing overhead. Either way the outputs of the first repeat are
checked against computations made apart from the program (checks.py), and
every repeat must write byte-identical artifacts. The last line of stdout
is one JSON object; the full record goes to perfbench/out/. The exit code
is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)

MIN_REPEATS = {0: 3, 1: 4}
MAX_REPEATS = 40
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "batch_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics printed on every workload: counts, and times of the
# layers that do work on all three (the others go to the record only)
PER_LAYER = {
    "spectral.F_s": "s", "spectral.F_calls": "count",
    "spectral.F_points": "count", "spectral.build_s": "s",
    "pdesim.steps": "count", "pdesim.checkpoints": "count",
    "pdesim.bl_nan": "count",
    "criterion.build_s": "s", "criterion.integrate_calls": "count",
    "criterion.rhs_evals": "count", "petrovskii.segments": "count",
    "blayer.profile_s": "s",
    "cli.import_s": "s", "cli.load_config_s": "s", "cli.export_s": "s",
    "cli.export_bytes": "bytes", "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}

# single-threaded BLAS: one worker, and no thread competes with the step loop
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(config, out_dir, traced, spans_file, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC, config,
           out_dir, "1" if traced else "0", spans_file]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment(seed):
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "seed": seed}


def _layer_summary(traced, untraced):
    """Medians of the traced repeats' layer metrics; counts must repeat."""
    layers = [r["layers"] for r in traced]
    out, mismatched = {}, []
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if isinstance(values[0], int):
            out[name] = values[0]
            if any(v != values[0] for v in values):
                mismatched.append(name)
        else:
            out[name] = statistics.median(values)
    steps = out["pdesim.steps"]
    if steps:
        out["pdesim.us_per_step"] = out["pdesim.step_s"] / steps * 1.0e6
    out["trace.overhead_s"] = (statistics.median(r["batch_s"] for r in traced)
                               - statistics.median(r["batch_s"] for r in untraced))
    check = ("counts-repeat", not mismatched,
             f"{len(layers)} traced repeats, counts identical"
             if not mismatched else "counts differ: " + ", ".join(mismatched))
    return out, check


def main(argv=None):
    from checks import artifact_digests, determinism, run_checks
    from workloads import WORKLOADS, write_config

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vertexreg", "cli.py")):
        print(f"no vertexreg source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "config.yaml")
    draws = write_config(args.workload, args.seed, config)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_ENV})
    spans_file = os.path.join(work, "spans.json")

    # warm-up: byte-compile the sources and fill the file cache
    _worker(config, "-", False, "-", env)

    repeats, digests = [], []
    start = perf_counter()
    while len(repeats) < MIN_REPEATS[args.trace] or (
            perf_counter() - start < args.seconds and len(repeats) < MAX_REPEATS):
        i = len(repeats)
        traced = bool(args.trace) and i % 2 == 1
        out_dir = os.path.join(work, f"batch-{i:02d}")
        first_traced = traced and i == 1
        result = _worker(config, out_dir, traced,
                         spans_file if first_traced else "-", env)
        result["traced"] = traced
        repeats.append(result)
        digests.append(artifact_digests(out_dir))
        if i > 0:
            shutil.rmtree(out_dir)
    elapsed = perf_counter() - start

    checks = run_checks(args.workload, os.path.join(work, "batch-00"), draws)
    checks.append(determinism(digests))
    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    metrics = {name: statistics.median(r[name] for r in untraced)
               for name in END_TO_END}
    layers = {}
    if traced:
        layers, count_check = _layer_summary(traced, untraced)
        checks.append(count_check)
    shutil.rmtree(os.path.join(work, "batch-00"))

    per_batch = repeats[0]["scenarios"]
    attempted = per_batch * len(repeats)
    failed = sum(r["failed"] for r in repeats)
    correct = all(ok for _, ok, _ in checks)

    record = {"workload": args.workload, "draws": draws, "trace": args.trace,
              "seconds": args.seconds, "measured_s": elapsed,
              "environment": _environment(args.seed),
              "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "attempted": attempted, "failed": failed, "correct": correct,
              "checks": [{"check": n, "passed": ok, "detail": d}
                         for n, ok, d in checks],
              "end_to_end": {n: {"value": metrics[n], "unit": u}
                             for n, u in END_TO_END.items()},
              # times of layers that did no work on this workload are left out
              "per_layer": {n: v for n, v in layers.items()
                            if not (n.endswith("_s") and v == 0)},
              "repeats": repeats}
    record_path = os.path.join(
        HERE, "out", f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"{args.workload} seed {args.seed}: {len(repeats)} repeats "
          f"({len(untraced)} untraced) in {elapsed:.1f} s, "
          f"{attempted} scenarios attempted, {failed} failed")
    if args.trace:
        for name, value in sorted(record["per_layer"].items()):
            print(f"  {name:28s} {value:.6g}")
        shown = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        for name, unit in END_TO_END.items():
            print(f"  {name:28s} {metrics[name]:.6g} {unit}")
        shown = record["end_to_end"]
    print(f"record: {record_path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
