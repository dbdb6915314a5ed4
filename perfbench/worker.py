"""One fresh interpreter: set up vertexreg, run one batch, report as JSON.

Usage: python3 worker.py SRC CONFIG OUT_DIR TRACE SPANS_FILE

Set-up is what every vertexreg invocation pays: the import of
vertexreg.cli, loading the config, and the first-use builds of the m=1 and
m=2 kernels and the boundary-layer profiles. The batch is one call of
run_scenarios with one worker. OUT_DIR "-" stops after set-up (warm-up).
With TRACE 1 the layers are wrapped between the import and the builds, and
the spans go to SPANS_FILE unless it is "-".
"""

import json
import os
import resource
import sys
from time import perf_counter, process_time


def main(src, config, out_dir, trace, spans_file):
    sys.path.insert(0, src)
    t0 = perf_counter()
    import vertexreg.cli as cli
    import_s = perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"vertexreg imported from {cli.__file__}, not {src}")
    tracer = None
    wrap_s = 0.0
    if trace:
        t_wrap = perf_counter()
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        wrap_s = perf_counter() - t_wrap  # wrapping is not set-up
    from vertexreg import blayer, spectral
    _, scenarios = cli.load_config(config)
    spectral.default_kernel(1)
    spectral.default_kernel(2)
    blayer.bl_profile(1)
    blayer.bl_profile(2)
    setup_s = perf_counter() - t0 - wrap_s
    result = {"import_s": import_s, "setup_s": setup_s,
              "scenarios": len(scenarios)}
    if out_dir != "-":
        t1, c1 = perf_counter(), process_time()
        _, doc = cli.run_scenarios(config, out_dir, workers=1)
        result["batch_s"] = perf_counter() - t1
        result["batch_cpu_s"] = process_time() - c1
        result["failed"] = len(doc["failed_scenarios"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["cli.import_s"] = import_s
        if spans_file != "-":
            tracer.write_spans(spans_file)
    print(json.dumps(result))


if __name__ == "__main__":
    if len(sys.argv) != 6:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4] == "1", sys.argv[5])
