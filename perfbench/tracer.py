"""Outside-in spans and counts around the public functions of vertexreg.

install() replaces every public function of the traced layers, in every
vertexreg module that bound it, with a wrapper that records a span (name,
start, end, parent) and, for a few functions, counts read from arguments
or results. Spans stay in memory; layer_metrics() folds them into the
per-layer metrics and write_spans() writes them out when the run ends.
Nothing inside the program changes.
"""

import dataclasses
import functools
import inspect
import json
import math
import os
from collections import Counter
from time import perf_counter

LAYERS = ("spectral", "pdesim", "criterion", "petrovskii", "blayer")

# methods that do a layer's work but are not module-level functions
METHODS = {"spectral": {"KernelModel": ("F", "F_deriv", "fourier_derivative")},
           "blayer": {"BLProfile": ("residual",)}}

CLI_FUNCTIONS = ("load_config", "run_scenarios")

# metric name -> span names whose outermost calls it sums
TIME_GROUPS = {
    "spectral.F_s": ("spectral.KernelModel.F", "spectral.KernelModel.F_deriv"),
    "spectral.build_s": ("spectral.build_kernel",),
    "spectral.biorth_s": ("spectral.biorthonormality_matrix",),
    "spectral.fit_s": ("spectral.kernel_asymptotic_fit",),
    "pdesim.run_s": ("pdesim.run",),
    "pdesim.project_a0_s": ("pdesim.project_a0",),
    "pdesim.bl_extract_s": ("pdesim.extract_boundary_layer",),
    "criterion.build_s": ("criterion.build_criterion",),
    "criterion.integrate_s": ("criterion.integrate",),
    "criterion.iteration_s": ("criterion.irregularity_iteration",),
    "petrovskii.integral_s": ("petrovskii.petrovskii_integral",
                              "petrovskii.dini_osgood_form"),
    "petrovskii.biharmonic_s": ("petrovskii.biharmonic_linear_criterion",),
    "blayer.profile_s": ("blayer.bl_profile", "blayer.BLProfile.residual"),
    "cli.load_config_s": ("cli.load_config",),
}

COUNTS = ("spectral.F_calls", "spectral.F_points", "pdesim.steps",
          "pdesim.checkpoints", "pdesim.bl_nan", "criterion.rhs_evals",
          "criterion.integrate_calls", "petrovskii.segments",
          "cli.export_bytes")


class Tracer:
    """Span and count recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; after(args, kwargs, result) may
        update counts and replace the result."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    # -- count hooks -----------------------------------------------------------

    def _kernel_points(self, args, kwargs, result):
        self.counts["spectral.F_calls"] += 1
        self.counts["spectral.F_points"] += int(_size(args[1]))
        return result

    def _pde_run(self, args, kwargs, result):
        meta = result.metadata
        self.counts["pdesim.steps"] += int(meta["steps"])
        self.counts["pdesim.checkpoints"] += int(meta["checkpoints"])
        rho = result.rho_series[:, 1]
        self.counts["pdesim.bl_nan"] += int(sum(1 for v in rho if math.isnan(v)))
        return result

    def _criterion_ode(self, args, kwargs, result):
        rhs = result.rhs
        counts = self.counts

        def counted_rhs(tau, ln_a0):
            counts["criterion.rhs_evals"] += 1
            return rhs(tau, ln_a0)

        return dataclasses.replace(result, rhs=counted_rhs)

    def _integrate(self, args, kwargs, result):
        self.counts["criterion.integrate_calls"] += 1
        return result

    def _biharmonic(self, args, kwargs, result):
        # one partial-sum row per carrier cut: rows - 1 summed half-periods
        self.counts["petrovskii.segments"] += len(result.partial_values) - 1
        return result

    def _export(self, args, kwargs, result):
        path = kwargs.get("path", args[-1] if args else None)
        if isinstance(path, str) and os.path.isfile(path):
            self.counts["cli.export_bytes"] += os.path.getsize(path)
        return result

    def _hook(self, name):
        short = name.rsplit(".", 1)[-1]
        if short.startswith("export_"):
            return self._export
        return {"spectral.KernelModel.F": self._kernel_points,
                "spectral.KernelModel.F_deriv": self._kernel_points,
                "pdesim.run": self._pde_run,
                "criterion.build_criterion": self._criterion_ode,
                "criterion.integrate": self._integrate,
                "petrovskii.biharmonic_linear_criterion": self._biharmonic,
                }.get(name)

    # -- reading the record -----------------------------------------------------

    def layer_metrics(self):
        """Per-layer times (s) and counts from the spans recorded so far."""
        spans = self.spans
        durations = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child_time[span[3]] += durations[i]
        out = {}
        for metric, names in TIME_GROUPS.items():
            out[metric] = float(sum(durations[i] for i in _outermost(spans, set(names))))
        out["cli.export_s"] = float(sum(
            durations[i] for i in _outermost(spans, {
                s[0] for s in spans if s[0].rsplit(".", 1)[-1].startswith("export_")})))
        runs = [i for i, s in enumerate(spans) if s[0] == "pdesim.run"]
        out["pdesim.step_s"] = float(sum(durations[i] - child_time[i] for i in runs))
        roots = [i for i, s in enumerate(spans) if s[0] == "cli.run_scenarios"]
        out["cli.overhead_s"] = float(sum(durations[i] - child_time[i] for i in roots))
        for name in COUNTS:
            out[name] = int(self.counts[name])
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _size(y):
    shape = getattr(y, "shape", None)
    if shape is not None:
        return math.prod(shape)
    return len(y) if isinstance(y, (list, tuple)) else 1


def _outermost(spans, names):
    """Indices of spans in names that have no ancestor in names."""
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def install(tracer):
    """Wrap the traced layers of an imported vertexreg, in place."""
    import vertexreg
    from vertexreg import cli

    modules = [getattr(vertexreg, layer) for layer in LAYERS] + [cli]
    replaced = {}
    for layer in LAYERS:
        module = getattr(vertexreg, layer)
        for name, fn in _public_functions(module):
            span = f"{layer}.{name}"
            replaced[fn] = tracer.wrap(span, fn, tracer._hook(span))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for name in methods:
                span = f"{layer}.{cls_name}.{name}"
                setattr(cls, name, tracer.wrap(span, getattr(cls, name),
                                               tracer._hook(span)))
    for name in CLI_FUNCTIONS:
        fn = getattr(cli, name)
        replaced[fn] = tracer.wrap(f"cli.{name}", fn)
    # rebind in every module that imported a wrapped function by name
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(module, name, replaced[obj])
