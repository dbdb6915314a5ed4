"""Scenario runner: config validation, task dispatch, report shape,
determinism across reruns, and the canonical configs."""

import datetime
import gc
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexreg import cli, errors, spectral
from vertexreg.errors import ConfigError


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return str(path)


def one_scenario(sid, task, parameters):
    return {"version": 1,
            "scenarios": [{"id": sid, "task": task, "parameters": parameters}]}


def strip_timestamp(path):
    return "".join(line for line in open(path) if '"timestamp"' not in line)


# -- config validation ----------------------------------------------------------

def test_unknown_width_name_names_field_and_scenario(tmp_path):
    doc = one_scenario("bad-phi", "criterion", {"m": 1, "phi": "no-such-width"})
    with pytest.raises(ConfigError, match=r"bad-phi.*parameters\.phi"):
        cli.load_config(write_config(tmp_path, doc))


def test_unknown_kappa_parameter_rejected(tmp_path):
    doc = one_scenario("bad-kappa", "criterion", {
        "m": 1, "phi": "petrovskii-critical",
        "kappa": {"name": "critical-kappa", "params": {"speed": 2.0}}})
    with pytest.raises(ConfigError, match=r"parameters\.kappa"):
        cli.load_config(write_config(tmp_path, doc))


def test_version_must_match(tmp_path):
    doc = one_scenario("x", "kernel", {"m": 1})
    doc["version"] = 99
    with pytest.raises(ConfigError, match="version"):
        cli.load_config(write_config(tmp_path, doc))


def test_duplicate_ids_rejected(tmp_path):
    doc = {"version": 1, "scenarios": [
        {"id": "twin", "task": "kernel", "parameters": {"m": 1}},
        {"id": "twin", "task": "kernel", "parameters": {"m": 2}}]}
    with pytest.raises(ConfigError, match="duplicate"):
        cli.load_config(write_config(tmp_path, doc))


def test_unknown_task_rejected(tmp_path):
    doc = one_scenario("x", "prove", {})
    with pytest.raises(ConfigError, match="unknown task"):
        cli.load_config(write_config(tmp_path, doc))


def test_missing_task_without_default_rejected(tmp_path):
    doc = {"version": 1, "scenarios": [{"id": "x", "parameters": {"m": 1}}]}
    with pytest.raises(ConfigError, match="task is required"):
        cli.load_config(write_config(tmp_path, doc))


def test_unknown_parameter_key_rejected(tmp_path):
    doc = one_scenario("x", "kernel", {"m": 1, "fidelity": "high"})
    with pytest.raises(ConfigError, match="fidelity"):
        cli.load_config(write_config(tmp_path, doc))


def test_missing_required_parameter_rejected(tmp_path):
    doc = one_scenario("cmp", "compare", {
        "m": 1, "phi": "petrovskii-critical"})  # window omitted
    with pytest.raises(ConfigError, match=r"parameters\.window"):
        cli.load_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("libyaml", [True, False], ids=["CSafeLoader", "SafeLoader"])
def test_yaml_syntax_error_reports_line(tmp_path, monkeypatch, libyaml):
    # load_config parses with libyaml when PyYAML has it, else in Python
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    path = tmp_path / "broken.yaml"
    path.write_text("version: 1\nscenarios:\n  - id: x\n   task: oops\n")
    with pytest.raises(ConfigError, match=r"\(line 4\)"):
        cli.load_config(str(path))


def test_id_charset_enforced(tmp_path):
    doc = one_scenario("bad id", "kernel", {"m": 1})
    with pytest.raises(ConfigError, match="id"):
        cli.load_config(write_config(tmp_path, doc))


def test_init_range_checked(tmp_path):
    doc = one_scenario("x", "criterion", {
        "m": 1, "phi": "petrovskii-critical", "init": 0.5})
    with pytest.raises(ConfigError, match=r"parameters\.init"):
        cli.load_config(write_config(tmp_path, doc))


def test_numeric_strings_accepted(tmp_path):
    # YAML 1.1 floats need a signed exponent, so "1.0e9" arrives as a string
    path = tmp_path / "plain.yaml"
    path.write_text(
        "version: 1\n"
        "scenarios:\n"
        "  - id: s\n"
        "    task: criterion\n"
        "    parameters: {m: 1, phi: petrovskii-critical, tau_max: 1.0e9}\n")
    _, scenarios = cli.load_config(str(path))
    assert scenarios[0].parameters["tau_max"] == 1.0e9


def test_sweep_vary_shape_checked(tmp_path):
    base = {"m": 1, "phi": "petrovskii-critical"}
    doc = one_scenario("sw", "sweep", {
        "task": "criterion", "base": base,
        "vary": {"field": "tau_max", "values": []}})
    with pytest.raises(ConfigError, match="nonempty"):
        cli.load_config(write_config(tmp_path, doc))
    doc = one_scenario("sw", "sweep", {
        "task": "criterion", "base": base,
        "vary": {"field": "m.sub", "values": [1]}})
    with pytest.raises(ConfigError, match="non-mapping"):
        cli.load_config(write_config(tmp_path, doc))


STAR = "petrovskii-critical"
BIH = "biharmonic-critical"
SUPER = {"name": "petrovskii-super", "params": {"eps": 0.1}}
CMP = {"m": 1, "phi": STAR, "window": [15.0, 25.0]}


@pytest.mark.parametrize("when, task, parameters, field", [
    # a task must be one of the task names, never a list or a mapping
    ("load", ["simulate"], {"m": 1, "phi": STAR}, "task"),
    ("load", {"name": "simulate"}, {"m": 1, "phi": STAR}, "task"),
    # each petrovskii variant takes only the fields it uses
    ("load", "petrovskii", {"phi": STAR, "opts": {"form": "exact"}}, "opts"),
    ("load", "petrovskii", {"phi": STAR, "ell_max": 690.0}, "ell_max"),
    ("load", "petrovskii", {"phi": STAR, "variant": "dini",
                            "radial_exponent": 3}, "radial_exponent"),
    ("load", "petrovskii", {"phi": STAR, "variant": "dini",
                            "tau_max": 1.0e8}, "tau_max"),
    ("load", "petrovskii", {"phi": STAR, "variant": "dini",
                            "h_max": 1.0e-4}, "h_max"),
    ("load", "petrovskii", {"phi": STAR, "variant": "dini", "opts": {}},
     "opts"),
    ("load", "petrovskii", {"phi": BIH, "variant": "biharmonic",
                            "n_points": 4000}, "n_points"),
    ("load", "petrovskii", {"phi": BIH, "variant": "biharmonic", "opts": {}},
     "opts"),
    ("load", "petrovskii", {"phi": STAR, "radial_exponent": 0},
     "radial_exponent"),
    ("load", "sweep", {"task": "petrovskii",
                       "base": {"phi": STAR, "variant": "dini"},
                       "vary": {"field": "radial_exponent", "values": [3]}},
     "radial_exponent"),
    # no task takes an opts mapping; N is criterion's radial_exponent
    ("load", "criterion", {"m": 1, "phi": STAR,
                           "opts": {"radial_exponent": 3}}, "opts"),
    ("load", "criterion", {"m": 2, "phi": BIH, "opts": {"form": "exact"}},
     "opts"),
    ("load", "compare", dict(CMP, opts={}), "opts"),
    ("load", "compare", dict(CMP, m=2, phi=BIH, opts={"form": "exact"}),
     "opts"),
    ("load", "sweep", {"task": "criterion", "base": {"m": 1, "phi": STAR},
                       "vary": {"field": "opts.radial_exponent", "values": [3]}},
     "opts"),
    # a sweep's base need not be JSON: a YAML date or !!binary value reaches
    # the point's validator, which names the field
    ("load", "sweep", {"task": "criterion",
                       "base": {"m": 1, "phi": STAR,
                                "note": datetime.date(2020, 1, 1)},
                       "vary": {"field": "tau_max", "values": [1.0e9]}},
     "note"),
    ("load", "sweep", {"task": "petrovskii",
                       "base": {"phi": dict(SUPER, params={"eps": b"\x00"})},
                       "vary": {"field": "tau_max", "values": [1.0e9]}},
     "phi"),
    # a comparison writes no snapshots, and runs the ODE's growing width
    ("load", "compare", dict(CMP, write_snapshots=True), "write_snapshots"),
    ("load", "compare", {"m": 1, "window": [15.0, 25.0]}, "phi is required"),
    ("load", "compare", dict(CMP, freeze_phi=4.0), "freeze_phi"),
    ("load", "sweep", {"task": "compare", "base": CMP,
                       "vary": {"field": "freeze_phi", "values": [4.0]}},
     "freeze_phi"),
    # the verdict takes no thresholds from a config
    ("load", "criterion", {"m": 1, "phi": STAR, "thresholds": {"drop": 12.0}},
     "thresholds"),
    # runs whose report would describe another computation
    ("load", "criterion", {"m": 2, "phi": BIH, "negligibility": True},
     "negligibility"),
    ("load", "criterion", {"m": 1, "phi": STAR, "kappa": "critical-kappa",
                           "negligibility": True}, "negligibility"),
    ("load", "criterion", {"m": 1, "phi": STAR, "kind": "gradient",
                           "kappa": "critical-kappa", "radial_exponent": 3,
                           "negligibility": True}, "negligibility"),
    ("load", "simulate", {"m": 1, "phi": STAR, "freeze_phi": 4.0},
     "freeze_phi"),
    ("load", "sweep", {"task": "simulate", "base": {"m": 1, "phi": STAR},
                       "vary": {"field": "freeze_phi", "values": [4.0]}},
     "freeze_phi"),
    ("load", "criterion", {"m": 1, "phi": STAR, "kind": "gradient",
                           "kappa": "critical-kappa", "iteration": True},
     "iteration"),
    ("load", "criterion", {"m": 1, "phi": STAR, "kappa": "negative-log",
                           "iteration": True}, "iteration"),
    ("load", "criterion", {"m": 1, "phi": STAR, "iteration": True},
     "iteration"),
    ("load", "validate", {"checks": ["bl-residual"],
                          "consistency_tau_max": 1.0e9}, "consistency_tau_max"),
    # a width must be positive at its tau_min, in every task that takes one,
    # and phi names a width, kappa a reaction coefficient
    ("load", "criterion", {"m": 1, "phi": dict(SUPER, params={"eps": -1.5})},
     "phi"),
    ("load", "petrovskii", {"phi": {"name": BIH, "params": {"c": -1.0}},
                            "variant": "biharmonic"}, "phi"),
    ("load", "petrovskii", {"phi": dict(SUPER, params={"eps": -1.0}),
                            "variant": "dini"}, "phi"),
    ("load", "simulate", {"m": 1, "phi": dict(SUPER, params={"eps": -1.0})},
     "phi"),
    ("load", "compare", dict(CMP, phi={"name": BIH, "params": {"c": 0.0}}),
     "phi"),
    ("load", "sweep", {"task": "criterion", "base": {"m": 1, "phi": SUPER},
                       "vary": {"field": "phi.params.eps",
                                "values": [0.1, -1.5]}}, "phi"),
    ("load", "criterion", {"m": 1, "phi": "negative-log"}, "phi"),
    ("load", "criterion", {"m": 1, "phi": STAR, "kappa": STAR}, "kappa"),
    # the m=2 fit window, ordered, inside spectral.FIT_WINDOW_RANGE and at
    # least spectral.FIT_WINDOW_MIN_WIDTH wide
    ("load", "kernel", {"m": 2, "window": [1.0, 2.0]}, "window"),
    ("load", "kernel", {"m": 2, "window": [15.0, 5.0]}, "window"),
    ("load", "kernel", {"m": 2, "window": [10.2, 11.0]}, "window"),
    ("load", "sweep", {"task": "kernel", "base": {"m": 2},
                       "vary": {"field": "window", "values": [[5.0, 26.0]]}},
     "window"),
    # the m=1 kernel does not oscillate: nothing would read its window
    ("load", "kernel", {"m": 1, "window": [5.0, 15.0]}, "window"),
    ("load", "kernel", {"m": 1, "window": [15.0, 5.0]}, "window"),
    ("load", "sweep", {"task": "kernel", "base": {"m": 1},
                       "vary": {"field": "window", "values": [[5.0, 15.0]]}},
     "window"),
    # ranges the library owns fail typed when the scenario runs
    ("run", "criterion", {"m": 1, "phi": STAR, "tau_max": 1.0e13}, "tau_max"),
    ("run", "criterion", {"m": 1, "phi": STAR, "tau0": 1.0}, "tau0"),
    ("run", "criterion", {"m": 1, "phi": STAR, "tau_max": 5.0}, "tau_max"),
    ("run", "petrovskii", {"phi": STAR, "tau_max": 5.0}, "tau_max"),
    ("run", "petrovskii", {"phi": BIH, "variant": "biharmonic",
                           "tau_max": 5.0}, "tau_max"),
    ("run", "petrovskii", {"phi": STAR, "variant": "dini", "ell_max": 5.0},
     "ell_max"),
    ("run", "validate", {"checks": ["petrovskii-consistency"],
                         "consistency_tau_max": 1.0e13}, "tau_max"),
    # a kappa named positive-increasing whose parameters make it not so
    ("run", "criterion", {"m": 1, "phi": STAR, "iteration": True,
                          "kappa": {"name": "critical-kappa",
                                    "params": {"c": -1.0}}}, "iteration"),
    ("run", "criterion", {"m": 1, "phi": STAR, "iteration": True,
                          "kappa": {"name": "positive-log",
                                    "params": {"c": 0.0}}}, "iteration"),
])
def test_unused_fields_and_out_of_range_values_are_config_errors(
        tmp_path, when, task, parameters, field):
    path = write_config(tmp_path, one_scenario("probe", task, parameters))
    if when == "load":
        with pytest.raises(ConfigError,
                           match=rf"'probe(\[\d+\])?'.*{re.escape(field)}"):
            cli.load_config(path)
        return
    code, report = cli.run_scenarios(path, str(tmp_path / "out"))
    assert code == 1
    assert re.match(rf"ConfigError: .*{re.escape(field)}",
                    report["reports"][0]["error"])


# -- execution ------------------------------------------------------------------

def test_integral_and_ode_pair_agree(tmp_path):
    doc = {"version": 1, "scenarios": [
        {"id": "star-integral", "task": "petrovskii",
         "parameters": {"phi": "petrovskii-critical"}},
        {"id": "star-ode", "task": "criterion",
         "parameters": {"m": 1, "phi": "petrovskii-critical"}}]}
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    by_id = {r["scenario"]: r["payload"] for r in report["reports"]}
    assert by_id["star-integral"]["classification"] == "Divergent"
    assert by_id["star-ode"]["verdict"] == "Regular"
    assert report["consistency_checks"] == [{
        "petrovskii": "star-integral", "criterion": "star-ode",
        "phi": "petrovskii-critical", "implied_regularity": "Regular",
        "criterion_verdict": "Regular", "consistent": True}]


def _paired(report):
    return [(p["petrovskii"], p["criterion"])
            for p in report["consistency_checks"]]


def test_biharmonic_integral_pairs_only_with_m2_verdict(tmp_path):
    bih = {"phi": "biharmonic-critical", "variant": "biharmonic"}
    doc = {"version": 1, "scenarios": [
        {"id": "bih-integral", "task": "petrovskii", "parameters": bih},
        {"id": "bih-integral-n3", "task": "petrovskii",
         "parameters": dict(bih, radial_exponent=3)},
        {"id": "bih-ode-m1", "task": "criterion",
         "parameters": {"m": 1, "phi": "biharmonic-critical"}},
        {"id": "bih-ode-m2", "task": "criterion",
         "parameters": {"m": 2, "phi": "biharmonic-critical",
                        "tau_max": 1.0e9}},
        {"id": "bih-ode-m2-1e8", "task": "criterion",
         "parameters": {"m": 2, "phi": "biharmonic-critical"}}]}
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    n1, n3 = (report["reports"][i]["payload"] for i in (0, 1))
    assert (n1["m"], n1["radial_exponent"]) == (2, 1)
    assert (n3["m"], n3["radial_exponent"]) == (2, 3)
    assert n3["total"] != n1["total"]  # N reaches the integral
    assert _paired(report) == [("bih-integral", "bih-ode-m2")]


def test_runs_pair_only_at_one_horizon(tmp_path):
    # the horizon is tau_max, or the density form's ell_max (ell = tau),
    # read from each run's parameters, a sweep point's included
    doc = {"version": 1, "scenarios": [
        {"id": "tau", "task": "petrovskii", "parameters": {"phi": STAR}},
        {"id": "dini", "task": "petrovskii",
         "parameters": {"phi": STAR, "variant": "dini", "ell_max": 690.0}},
        {"id": "ode", "task": "sweep", "parameters": {
            "task": "criterion", "base": {"m": 1, "phi": STAR},
            "vary": {"field": "tau_max", "values": [690.0, 1.0e8, 1.0e9]}}}]}
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    assert _paired(report) == [("tau", "ode[1]"), ("dini", "ode[0]")]


def test_radial_exponent_pairs_like_with_like(tmp_path):
    doc = {"version": 1, "scenarios": [
        {"id": "n3-integral", "task": "petrovskii",
         "parameters": {"phi": "petrovskii-critical", "radial_exponent": 3}},
        {"id": "n1-ode", "task": "criterion",
         "parameters": {"m": 1, "phi": "petrovskii-critical"}},
        {"id": "n3-ode", "task": "criterion",
         "parameters": {"m": 1, "phi": "petrovskii-critical",
                        "radial_exponent": 3}}]}
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    by_id = {r["scenario"]: r["payload"] for r in report["reports"]}
    assert (by_id["n3-integral"]["m"], by_id["n3-integral"]["radial_exponent"]) == (1, 3)
    assert by_id["n1-ode"]["radial_exponent"] == 1
    assert _paired(report) == [("n3-integral", "n3-ode")]


def test_dini_density_past_underflow_runs_without_warning(tmp_path):
    # h = e^-ell underflows to 0 from ell of about 745 on; the density there
    # is an exact zero, computed without a floating-point warning
    path = write_config(tmp_path, one_scenario("far", "petrovskii", {
        "phi": STAR, "variant": "dini", "ell_max": 800.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report = cli.run_scenarios(path, str(tmp_path / "out"))
    assert code == 0, report["reports"][0]["error"]
    assert report["reports"][0]["payload"]["classification"] == "Divergent"



@pytest.mark.parametrize("phi", [STAR, {"name": "petrovskii-super",
                                        "params": {"eps": -0.05}}])
def test_dini_density_decides_where_h_underflows(tmp_path, phi):
    # both integrals diverge, and the tau form says so at these horizons; the
    # density form works in ell, so h = e^-ell reading 0 past ell of about
    # 745 takes nothing from its tail test or its total
    doc = {"version": 1, "scenarios": [
        {"id": f"far-{i}", "task": "petrovskii",
         "parameters": {"phi": phi, "variant": "dini", "ell_max": ell_max}}
        for i, ell_max in enumerate((7.0e4, 7.4e4, 1.0e5))]}
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    payloads = [r["payload"] for r in report["reports"]]
    assert [p["classification"] for p in payloads] == ["Divergent"] * 3
    assert all(p["total"] is not None and p["total"] > 0.0 for p in payloads)
    assert [p["diagnostic"] for p in payloads] == [""] * 3


def test_epsilon_sweep_flips_verdict(tmp_path):
    doc = one_scenario("eps", "sweep", {
        "task": "criterion",
        "base": {"m": 1, "tau_max": 1.0e9,
                 "phi": {"name": "petrovskii-super", "params": {"eps": 0.1}}},
        "vary": {"field": "phi.params.eps", "values": [0.0, 0.05, 0.1]}})
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    points = report["reports"][0]["payload"]["points"]
    assert [p["verdict"] for p in points] == ["Regular", "Irregular", "Irregular"]
    sweep_csv = tmp_path / "out" / "eps" / "sweep.csv"
    assert sweep_csv.read_text().splitlines()[0] == "value,outcome"


def test_sweep_points_pair_like_top_level_runs(tmp_path):
    base = {"phi": SUPER, "tau_max": 1.0e9}
    vary = {"field": "phi.params.eps", "values": [-0.05, 0.1]}
    doc = {"version": 1, "scenarios": [
        {"id": "ode", "task": "sweep", "parameters": {
            "task": "criterion", "base": dict(base, m=1), "vary": vary}},
        {"id": "integral", "task": "sweep", "parameters": {
            "task": "petrovskii", "base": base, "vary": vary}}]}
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    assert report["consistency_checks"] == [{
        "petrovskii": f"integral[{i}]", "criterion": f"ode[{i}]",
        "phi": f"petrovskii-super-eps{eps:g}", "implied_regularity": verdict,
        "criterion_verdict": verdict, "consistent": True}
        for i, (eps, verdict) in enumerate([(-0.05, "Regular"),
                                            (0.1, "Irregular")])]


@st.composite
def paired_batches(draw):
    """The same runs twice: as criterion and petrovskii sweeps over eps, and
    as top-level scenarios; the labels of the second are the first's, so
    both batches must form one list of pairs."""
    sweeps, flat = [], []
    n = draw(st.sampled_from([1, 3]))  # N, one time in four not the same
    for sid, task, extra in draw(st.permutations([
            ("ode", "criterion", {"m": 1}), ("integral", "petrovskii", {})])):
        eps = draw(st.lists(st.sampled_from([-0.05, 0.1]),
                            min_size=1, max_size=3))
        base = dict(extra, phi=SUPER, tau_max=1.0e4, radial_exponent=n)
        n = draw(st.sampled_from([n, n, n, 4 - n]))
        sweeps.append({"id": sid, "task": "sweep", "parameters": {
            "task": task, "base": base,
            "vary": {"field": "phi.params.eps", "values": eps}}})
        flat += [{"id": f"{sid}.{i}", "task": task,
                  "parameters": dict(base, phi=dict(SUPER, params={"eps": e}))}
                 for i, e in enumerate(eps)]
    return sweeps, flat


@settings(max_examples=12, deadline=None, derandomize=True)
@given(paired_batches())
def test_a_sweep_pairs_as_its_points_would(batches):
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, scenarios in enumerate(batches):
            path = os.path.join(tmp, f"config-{i}.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump({"version": 1, "scenarios": scenarios}, fh)
            code, report = cli.run_scenarios(path, os.path.join(tmp, str(i)))
            assert code == 0
            pairs.append(report["consistency_checks"])
    relabel = re.compile(r"\[(\d+)\]$")
    for pair in pairs[0]:
        for key in ("petrovskii", "criterion"):
            pair[key] = relabel.sub(r".\1", pair[key])
    assert pairs[0] == pairs[1]


def test_scenario_errors_are_isolated(tmp_path):
    doc = {"version": 1, "scenarios": [
        {"id": "too-far", "task": "criterion",
         "parameters": {"m": 1, "phi": "petrovskii-critical",
                        "tau_max": 1.0e30}},
        {"id": "fine", "task": "petrovskii",
         "parameters": {"phi": "log-power"}}]}
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 1
    by_id = {r["scenario"]: r for r in report["reports"]}
    assert by_id["too-far"]["status"] == "error"
    assert "tau_max" in by_id["too-far"]["error"]
    assert by_id["fine"]["status"] == "ok"
    assert report["failed_scenarios"] == ["too-far"]


@pytest.mark.parametrize("parameters", [
    # strong positive reaction pushes ln a0 to 0
    {"m": 1, "phi": "petrovskii-critical",
     "kappa": {"name": "critical-kappa", "params": {"c": 100.0}}},
    # the m=2 linear term grows from ln a0 = -1 below c*
    {"m": 2, "phi": {"name": "biharmonic-critical", "params": {"c": 2.5}},
     "tau_max": 1.0e9},
], ids=["m1-reaction", "m2-linear"])
def test_amplitude_ceiling_reported_as_irregular(tmp_path, parameters):
    # reaching the ceiling is an outcome, not an error: the run keeps its
    # trajectory, and the verdict record reads it
    doc = one_scenario("ceiling", "criterion", parameters)
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    payload = report["reports"][0]["payload"]
    assert payload["verdict"] == "Irregular"
    assert re.fullmatch(r"amplitude overflow: ln a0 reached 0 at tau=\S+",
                        payload["certificate"])
    assert report["reports"][0]["artifacts"] == ["ceiling/trajectory.csv"]
    rows = np.loadtxt(tmp_path / "out" / "ceiling" / "trajectory.csv",
                      delimiter=",", skiprows=1)
    assert payload["ln_a0_final"] == rows[-1, 1] == pytest.approx(0.0, abs=1e-8)
    assert payload["tail_exponent"] is None  # the stop decided, nothing was fitted
    assert payload["tail"] is None
    assert payload["decades"] == pytest.approx(math.log10(rows[-1, 0] / 10.0))
    assert payload["trajectory_ref"].startswith(f"m{parameters['m']}-")


def test_reruns_byte_identical_modulo_timestamp(tmp_path):
    doc = {"version": 1, "scenarios": [
        {"id": "k1", "task": "kernel", "parameters": {"m": 1}},
        {"id": "trace", "task": "petrovskii",
         "parameters": {"phi": "petrovskii-super"}}]}
    path = write_config(tmp_path, doc)
    cli.run_scenarios(path, str(tmp_path / "a"))
    cli.run_scenarios(path, str(tmp_path / "b"))
    assert strip_timestamp(tmp_path / "a" / "report.json") \
        == strip_timestamp(tmp_path / "b" / "report.json")
    for rel in ("k1/kernel.csv", "trace/trace.csv"):
        assert (tmp_path / "a" / rel).read_bytes() \
            == (tmp_path / "b" / rel).read_bytes()


def test_batches_run_serially(tmp_path):
    path = write_config(tmp_path, one_scenario("k1", "kernel", {"m": 1}))
    with pytest.raises(ValueError, match="workers"):
        cli.run_scenarios(path, str(tmp_path / "out"), workers=2)
    assert not (tmp_path / "out").exists()


def test_simulate_artifacts_and_payload(tmp_path):
    doc = one_scenario("sim", "simulate", {
        "m": 1, "phi": "petrovskii-critical", "grid_points": 401,
        "tau_span": [10.0, 14.0], "n_checkpoints": 40})
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    rec = report["reports"][0]
    assert sorted(rec["artifacts"]) == ["sim/metadata.json", "sim/series.csv",
                                        "sim/snapshots.csv"]
    for rel in rec["artifacts"]:
        assert (tmp_path / "out" / rel).exists()
    payload = rec["payload"]
    assert payload["final_sup"] < 1.0
    assert 0.0 < payload["final_vertex"] < 1.0
    assert payload["checkpoints"] == 40


def test_compare_payload_shows_matched_agreement(tmp_path):
    doc = one_scenario("cmp", "compare", {
        "m": 1, "phi": "petrovskii-critical", "grid_points": 801,
        "tau_span": [10.0, 25.0], "window": [15.0, 25.0]})
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    payload = report["reports"][0]["payload"]
    assert payload["valid"]
    assert payload["matched_mean"] < 0.2
    assert payload["matched_mean"] < payload["raw_mean"]
    assert payload["boundary_multiplicity"] == 2


# one small problem that a simulate, a compare and a one-point sweep share,
# and another that only one simulate runs
SHARED = {"m": 1, "phi": STAR, "grid_points": 201, "tau_span": [10.0, 16.0],
          "n_checkpoints": 20}
SHARING_BATCH = [
    ("sim", "simulate", SHARED),
    ("cmp", "compare", {**SHARED, "window": [13.0, 16.0]}),
    ("scan", "sweep", {"task": "simulate",
                       "base": {**SHARED, "write_snapshots": False},
                       "vary": {"field": "amplitude", "values": [1.0]}}),
    ("other", "simulate", {**SHARED, "amplitude": 0.5}),
]


def run_batch(tmp_path, batch, out="out"):
    doc = {"version": 1, "scenarios": [
        {"id": sid, "task": task, "parameters": params}
        for sid, task, params in batch]}
    return cli.run_scenarios(write_config(tmp_path, doc, f"{out}.yaml"),
                             str(tmp_path / out))


def recorded_runs(monkeypatch, record):
    """pdesim.run, with record(config, trajectory) after each call."""
    from vertexreg import pdesim

    real = pdesim.run

    def run(config):
        traj = real(config)
        record(config, traj)
        return traj

    monkeypatch.setattr(pdesim, "run", run)


def test_sim_key_reads_what_the_run_config_reads():
    class Reads(dict):
        def __init__(self, params):
            super().__init__(params)
            self.read = set()

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            self.read.add(key)
            return super().get(key, default)

    params = cli._validate_simulate("s", {"m": 1, "phi": STAR})
    config, key = Reads(params), Reads(params)
    cli._sim_config(config)
    cli._sim_key(key)
    assert config.read == key.read
    assert "write_snapshots" not in key.read


def test_a_batch_steps_each_distinct_simulation_once(tmp_path, monkeypatch):
    calls = []
    recorded_runs(monkeypatch, lambda config, traj: calls.append(config))
    code, report = run_batch(tmp_path, SHARING_BATCH)
    assert code == 0
    assert [c.initial_data.amplitude for c in calls] == [1.0, 0.5]


def test_shared_runs_write_what_lone_runs_write(tmp_path):
    _, together = run_batch(tmp_path, SHARING_BATCH)
    for scenario, rec in zip(SHARING_BATCH, together["reports"]):
        _, alone = run_batch(tmp_path, [scenario], out=f"alone-{scenario[0]}")
        assert alone["reports"] == [rec]
        assert rec["status"] == "ok" and rec["artifacts"]
        for rel in rec["artifacts"]:
            assert (tmp_path / "out" / rel).read_bytes() == \
                (tmp_path / f"alone-{scenario[0]}" / rel).read_bytes()


def test_a_kept_trajectory_is_read_only(tmp_path, monkeypatch):
    runs = []
    recorded_runs(monkeypatch, lambda config, traj: runs.append(traj))
    code, report = run_batch(tmp_path, SHARING_BATCH)
    assert code == 0
    for rec in report["reports"]:
        for rel in rec["artifacts"]:
            assert (tmp_path / "out" / rel).stat().st_size > 0
    kept, alone = runs

    def arrays(traj):
        return [traj.z, traj.vertex_values, traj.a0_series,
                traj.boundary_derivs, traj.bl_deviation, traj.rho_series,
                *(w for _, w in traj.snapshots)]

    assert not any(a.flags.writeable for a in arrays(kept))
    assert all(a.flags.writeable for a in arrays(alone))
    with pytest.raises(ValueError, match="read-only"):
        kept.a0_series[0, 1] = 0.0


def test_a_run_that_raises_fails_every_scenario_that_shares_it(
        tmp_path, monkeypatch):
    from vertexreg import pdesim

    real, calls = pdesim.run, []

    def run(config):
        calls.append(config.initial_data.amplitude)
        if config.initial_data.amplitude == 1.0:
            raise errors.StepFailure("implicit solve failed at tau=10")
        return real(config)

    monkeypatch.setattr(pdesim, "run", run)
    code, report = run_batch(tmp_path, SHARING_BATCH)
    assert code == 1
    assert report["failed_scenarios"] == ["sim", "cmp", "scan"]
    assert {r["error"] for r in report["reports"][:3]} == {
        "StepFailure: implicit solve failed at tau=10"}
    assert report["reports"][3]["status"] == "ok"
    # nothing was kept, so each scenario stepped the run again
    assert calls == [1.0, 1.0, 1.0, 0.5]


def test_a_trajectory_is_kept_only_until_its_last_use(tmp_path, monkeypatch):
    batch = [("a", "simulate", SHARED),
             ("b", "simulate", {**SHARED, "amplitude": 0.5}),
             ("a-again", "compare", {**SHARED, "window": [13.0, 16.0]}),
             ("c", "simulate", {**SHARED, "amplitude": 2.0})]
    refs, alive = [], []

    def record(config, traj):
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        refs.append(weakref.ref(traj))

    recorded_runs(monkeypatch, record)
    code, _ = run_batch(tmp_path, batch)
    assert code == 0
    # a is kept past b's run and dropped after the compare, its last use;
    # b, with no later use, is gone by c's run
    assert alive == [[], [True], [False, False]]


def test_a_failed_sweep_keeps_no_run_past_its_last_scenario(
        tmp_path, monkeypatch):
    from vertexreg import pdesim

    batch = [("scan", "sweep", {"task": "simulate",
                                "base": {**SHARED, "write_snapshots": False},
                                "vary": {"field": "amplitude",
                                         "values": [0.25, 1.0]}}),
             ("a", "simulate", SHARED),
             ("c", "simulate", {**SHARED, "amplitude": 2.0})]
    real, refs, alive = pdesim.run, [], []

    def run(config):
        if config.initial_data.amplitude == 0.25:
            raise errors.StepFailure("implicit solve failed at tau=10")
        gc.collect()
        alive.append([ref() is not None for ref in refs])
        traj = real(config)
        refs.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(pdesim, "run", run)
    code, report = run_batch(tmp_path, batch)
    assert code == 1 and report["failed_scenarios"] == ["scan"]
    # the sweep stopped before its point at amplitude 1.0; a's run, kept
    # for that point, is gone once a ends
    assert alive == [[], [False]]


# the default window, and two that the fit weighted by absolute residual
# failed: its residual check on [4, 25], its sign-change count on [6, 12]
@pytest.mark.parametrize("window", [[5.0, 15.0], [4.0, 25.0], [6.0, 12.0]])
def test_kernel_payload_echoes_thresholds(tmp_path, window):
    doc = one_scenario("k2", "kernel", {"m": 2, "window": window})
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    payload = report["reports"][0]["payload"]
    assert payload["mass"]["abs_error"] < payload["mass"]["threshold"]
    fit = payload["asymptotic_fit"]
    assert fit["window"] == window
    assert fit["d_rel_error"] < fit["rel_tolerance"]
    assert fit["b_rel_error"] < fit["rel_tolerance"]
    assert fit["residual"] < 0.10


def test_failed_m2_fit_is_a_scenario_error(tmp_path, monkeypatch):
    fit = spectral.kernel_asymptotic_fit

    def refused(model, window):
        if model.constants.m == 1:
            return fit(model, window)
        raise errors.FitError("fit residual 0.2 exceeds 10% of the envelope")

    monkeypatch.setattr(cli.spectral, "kernel_asymptotic_fit", refused)
    doc = {"version": 1, "scenarios": [
        {"id": "k1", "task": "kernel", "parameters": {"m": 1}},
        {"id": "k2", "task": "kernel", "parameters": {"m": 2}}]}
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 1
    k1, k2 = report["reports"]
    assert (k2["status"], k2["error"]) == (
        "error", "FitError: fit residual 0.2 exceeds 10% of the envelope")
    # the m=1 kernel does not oscillate: its fit is skipped, with status ok
    assert k1["status"] == "ok"
    assert k1["payload"]["asymptotic_fit"] == {
        "skipped": "kernel of order m=1 has no oscillation to fit"}


@st.composite
def fit_windows(draw):
    lo = draw(st.floats(*spectral.FIT_WINDOW_RANGE))
    near_min = st.floats(lo + 0.9 * spectral.FIT_WINDOW_MIN_WIDTH,
                         lo + 1.1 * spectral.FIT_WINDOW_MIN_WIDTH)
    return [lo, draw(st.floats(*spectral.FIT_WINDOW_RANGE) | near_min)]


@settings(max_examples=200, deadline=None)
@given(fit_windows())
def test_every_accepted_window_fits(window):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(one_scenario("k2", "kernel", {"m": 2, "window": window}), fh)
        try:
            cli.load_config(path)
        except ConfigError:
            return
    model = spectral.default_kernel(2)
    fit = spectral.kernel_asymptotic_fit(model, window)
    c = model.constants
    assert abs(fit.d_fit - c.d0) / c.d0 < 0.05
    assert abs(fit.b_fit - c.b0) / c.b0 < 0.05
    assert fit.residual < 0.10


def test_validate_task_passes_all_default_checks(tmp_path):
    doc = one_scenario("gate", "validate", {})
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    payload = report["reports"][0]["payload"]
    assert payload["all_passed"]
    names = {c["check"] for c in payload["checks"]}
    assert "kernel-mass[m=1]" in names
    assert "petrovskii-criterion-agreement" in names
    checks_csv = tmp_path / "out" / "gate" / "checks.csv"
    assert checks_csv.read_text().splitlines()[0] == "check,value,threshold,passed"


def test_report_document_shape(tmp_path):
    doc = one_scenario("k1", "kernel", {"m": 1})
    _, report = cli.run_scenarios(write_config(tmp_path, doc),
                                  str(tmp_path / "out"))
    assert report["schema_version"] == 1
    assert report["status"] == "ok"
    assert report["config"]["version"] == 1
    on_disk = json.load(open(tmp_path / "out" / "report.json"))
    assert on_disk["reports"] == report["reports"]


# -- what a batch imports ---------------------------------------------------------

# the package inits and what they bring; the drivers in vertexreg._solvers
# and the stepper use three compiled modules from under them, loaded alone
SCIPY_PACKAGES = ("scipy.integrate", "scipy.optimize", "scipy.linalg",
                  "scipy.special", "scipy.sparse", "scipy.fft", "scipy.signal",
                  "scipy.stats", "numpy.f2py", "numpy.testing")
COMPILED = ["scipy.integrate._odepack", "scipy.linalg._flapack",
            "scipy.optimize._zeros"]


def loaded_modules_after(code, prefixes=SCIPY_PACKAGES):
    """The modules under prefixes a fresh interpreter has loaded after code."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = (f"{code}\nimport sys\nprint(sorted(m for m in sys.modules "
             f"if m.startswith({prefixes!r})))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip().splitlines()[-1]


def test_every_task_loads_only_the_compiled_modules(tmp_path):
    # one load path for every task: the ODE route, the period sum, the
    # kernel fit and the stepper run scipy's compiled modules without any
    # scipy package init, not even the scipy root or scipy._lib._ccallback
    star, bih = "petrovskii-critical", "biharmonic-critical"
    sim = {"grid_points": 201, "tau_span": [10.0, 14.0], "n_checkpoints": 20}
    calls_tau = {"phi": star, "tau_max": 690.0, "n_points": 2000}
    calls = {
        "ode1": ("criterion", {"m": 1, "phi": star, "tau_max": 1.0e6}),
        "ode2": ("criterion", {"m": 2, "phi": bih, "tau_max": 1.0e6}),
        "fit": ("kernel", {"m": 2}),
        "biharm": ("petrovskii", {"phi": bih, "variant": "biharmonic"}),
        "tau": ("petrovskii", calls_tau),
        "dini": ("petrovskii", {"phi": "log-power", "variant": "dini",
                                "n_points": 2000}),
        "checks": ("validate", {"checks": list(cli.VALIDATION_CHECKS),
                                "consistency_tau_max": 1.0e6}),
        "sim": ("simulate", dict(sim, m=1, phi=star)),
        "cmp1": ("compare", dict(sim, m=1, phi=star, window=[13.0, 14.0])),
        "cmp2": ("compare", dict(sim, m=2, phi=bih, shape="g0", window=[13.0, 14.0])),
        "ode-scan": ("sweep", {"task": "criterion", "base": {"m": 1, "phi": star},
                               "vary": {"field": "tau0", "values": [10.0, 20.0]}}),
        "tau-scan": ("sweep", {"task": "petrovskii", "base": calls_tau,
                               "vary": {"field": "tau0", "values": [10.0, 20.0]}}),
    }
    path = write_config(tmp_path, {"version": 1, "scenarios": [
        {"id": sid, "task": task, "parameters": params}
        for sid, (task, params) in calls.items()]})
    code = ("from vertexreg import cli\n"
            f"status, doc = cli.run_scenarios({path!r}, {str(tmp_path / 'out')!r})\n"
            "assert status == 0, doc['failed_scenarios']")
    # the prefix "scipy" takes in the root and scipy._lib as well
    assert loaded_modules_after(code, ("scipy",) + SCIPY_PACKAGES) == repr(COMPILED)
    # the import alone loads what the ODE route drives; LAPACK comes with
    # the stepper, on first use
    assert loaded_modules_after("import vertexreg.cli") == repr(
        [name for name in COMPILED if name != "scipy.linalg._flapack"])


def test_only_a_batch_that_simulates_loads_the_stepper(tmp_path):
    # neither the import of cli nor a batch of the ODE and integral routes
    # loads pdesim or LAPACK; a batch that simulates loads both, as soon as
    # load_config validates its SimConfig
    stepper = ("vertexreg.pdesim", "scipy.linalg._flapack")
    star, bih = "petrovskii-critical", "biharmonic-critical"
    calls = {
        "ode1": ("criterion", {"m": 1, "phi": star, "tau_max": 1.0e6}),
        "ode2": ("criterion", {"m": 2, "phi": bih, "tau_max": 1.0e6}),
        "tau": ("petrovskii", {"phi": star, "tau_max": 1.0e6}),
        "dini": ("petrovskii", {"phi": star, "variant": "dini", "n_points": 2000}),
        "biharm": ("petrovskii", {"phi": bih, "variant": "biharmonic"}),
        "fit": ("kernel", {"m": 2}),
        "checks": ("validate", {"checks": list(cli.VALIDATION_CHECKS),
                                "consistency_tau_max": 1.0e6}),
    }
    routes = write_config(tmp_path, {"version": 1, "scenarios": [
        {"id": sid, "task": task, "parameters": params}
        for sid, (task, params) in calls.items()]}, "routes.yaml")
    sim = write_config(tmp_path, one_scenario("sim", "simulate", {
        "m": 1, "phi": star, "grid_points": 201, "tau_span": [10.0, 14.0],
        "n_checkpoints": 20}), "sim.yaml")

    def batch(path):
        return ("from vertexreg import cli\n"
                f"status, doc = cli.run_scenarios({path!r}, {str(tmp_path / 'out')!r})\n"
                "assert status == 0, doc['failed_scenarios']")

    assert loaded_modules_after("import vertexreg.cli", stepper) == "[]"
    assert loaded_modules_after(batch(routes), stepper) == "[]"
    both = repr(sorted(stepper))
    assert loaded_modules_after(f"from vertexreg import cli\ncli.load_config({sim!r})",
                                stepper) == both
    assert loaded_modules_after(batch(sim), stepper) == both


# -- canonical configs ----------------------------------------------------------

def test_reproduction_suite_contents(tmp_path):
    paths = cli.emit_reproduction_suite(str(tmp_path))
    names = {os.path.splitext(os.path.basename(p))[0] for p in paths}
    assert len(paths) == 13
    assert {"petrovskii-dichotomy", "biorthonormality-m2",
            "pde-vs-ode-matching"} <= names
    for path in paths:
        _, scenarios = cli.load_config(path)
        assert scenarios
    # CI's repro step runs the consistency check at a horizon short of the
    # default 1e12
    _, scenarios = cli.load_config(os.path.join(str(tmp_path),
                                                "petrovskii-dichotomy.yaml"))
    assert [(s.id, s.parameters) for s in scenarios if s.task == "validate"] == [
        ("consistency-1e9", {"checks": ["petrovskii-consistency"],
                             "consistency_tau_max": 1.0e9})]


@pytest.mark.parametrize("tau_max", [1.0e6, 1.0e9, 1.0e12])
def test_petrovskii_consistency_passes_at_every_horizon(tau_max):
    # the ODE verdict and the tau form share one tail test, so every
    # catalog width agrees at short horizons too, log-power p=0.75 included
    rows = list(cli.VALIDATION_CHECKS["petrovskii-consistency"](
        {"consistency_tau_max": tau_max}))
    assert rows == [("petrovskii-criterion-agreement", 6.0, 6.0, True)]


def test_emitted_config_runs(tmp_path):
    paths = cli.emit_reproduction_suite(str(tmp_path / "configs"))
    target = [p for p in paths if p.endswith("biorthonormality-m2.yaml")][0]
    code, report = cli.run_scenarios(target, str(tmp_path / "out"))
    assert code == 0
    assert report["reports"][0]["payload"]["all_passed"]


# -- entry point ----------------------------------------------------------------

def test_main_ok_and_error_exit_codes(tmp_path, capsys):
    doc = one_scenario("k1", "kernel", {"m": 1})
    path = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
    assert "[k1] kernel: ok" in capsys.readouterr().out

    bad = one_scenario("k1", "kernel", {"m": 7})
    assert cli.main(["run", "--config", write_config(tmp_path, bad, "bad.yaml"),
                     "--out", str(tmp_path / "out2")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_has_no_workers_flag(tmp_path, capsys):
    path = write_config(tmp_path, one_scenario("k1", "kernel", {"m": 1}))
    with pytest.raises(SystemExit) as info:
        cli.main(["run", "--config", path, "--out", str(tmp_path / "out"),
                  "--workers", "2"])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["run", "--help"])
    assert "--workers" not in capsys.readouterr().out


def test_main_offers_only_run_and_repro(tmp_path, capsys):
    path = write_config(tmp_path, one_scenario("k1", "kernel", {"m": 1}))
    with pytest.raises(SystemExit) as info:
        cli.main(["kernel", "--config", path, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_main_repro_prints_paths(tmp_path, capsys):
    assert cli.main(["repro", "--out", str(tmp_path / "cfg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all(line.endswith(".yaml") for line in lines)


# -- property: an accepted config runs or fails with a typed error -------------

ERROR_TYPES = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)}


def values(ok, bad=()):
    """In-range values three draws in four, out-of-range ones otherwise."""
    if not bad:
        return st.sampled_from(ok)
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(ok if i else bad))


# small grids and short horizons keep each run short
VALUES = {
    "m": values([1, 2]),
    "kind": values(["multiplicative", "gradient"]),
    "phi": values([STAR, BIH, "log-power", SUPER],
                  [dict(SUPER, params={"eps": -1.5}),
                   {"name": BIH, "params": {"c": -1.0}}]),
    "kappa": values(["zero-kappa", "negative-log", "positive-log",
                     "critical-kappa"]),
    "tau0": values([10.0, 30.0], [-1.0, 1.0]),
    "tau_max": values([20.0, 1.0e4], [5.0, 1.0e13, math.nan]),
    "tol": values([1.0e-10, 1.0e-6], [1.0e-13]),
    "init": values([-1.0, 0.0], [-800.0]),
    "iteration": st.booleans(),
    "negligibility": st.booleans(),
    "osgood": st.booleans(),
    "radial_exponent": values([1, 3], [0]),
    "variant": values(sorted(cli._PETROVSKII_FIELDS), ["density"]),
    "n_points": values([1, 2, 201], [0]),
    "ell_max": values([60.0, 800.0], [5.0, math.inf]),
    "window": values([[5.0, 15.0], [10.2, 11.0]], [[1.0, 2.0], [11.0, 10.2]]),
    "y_max": values([-5.0, 0.0, 10.0], [math.inf]),
    "n_table": values([1, 21], [0]),
    "grid_points": values([201], [200]),
    "tau_span": values([[10.0, 11.0]],
                       [[11.0, 10.0], [1.0, 2.0], [10.0, math.inf]]),
    "dtau": values([0.02], [0.0]),
    "shape": values(["plateau", "bump", "g0"]),
    "amplitude": values([0.5, -1.0], [0.0]),
    "freeze_phi": values([4.0], [0.0]),
    "n_checkpoints": values([5], [1]),
    "write_snapshots": st.booleans(),
    "checks": values([["bl-residual"], ["biharmonic-constant"],
                      ["petrovskii-consistency", "bl-residual"]],
                     [[], ["kernel"]]),
    "consistency_tau_max": values([1.0e3], [1.0e13]),
}
# the fields of each task and petrovskii variant
FIELDS = {
    "criterion": ["m", "kind", "phi", "kappa", "tau0", "tau_max", "tol", "init",
                  "radial_exponent", "iteration", "negligibility", "osgood"],
    "kernel": ["m", "window", "y_max", "n_table"],
    "simulate": [*cli._SIM_FIELDS, "freeze_phi", "write_snapshots"],
    "compare": [*cli._SIM_FIELDS, "window"],
    "validate": ["checks", "consistency_tau_max"],
}
for variant, spec in cli._PETROVSKII_FIELDS.items():
    FIELDS[f"petrovskii/{variant}"] = ["phi", "variant", *spec]
# drawn whenever the task has them, and window whenever compare or the m=2
# kernel reads it (the m=1 kernel draws it one time in four: it refuses
# it); the defaults of the last three would simulate the full span on the
# full grid, or run every validation check
ALWAYS = ("m", "phi", "grid_points", "tau_span", "checks")


@st.composite
def drawn_scenarios(draw):
    kind = draw(st.sampled_from(sorted(FIELDS)))
    task, _, variant = kind.partition("/")
    fields = FIELDS[kind]
    if draw(st.integers(0, 7)) == 0:  # a field of some other task
        fields = fields + [draw(st.sampled_from(sorted(VALUES)))]
    params = {}
    for field in fields:
        if field == "variant":
            params[field] = variant
        elif (field in ALWAYS or (field == "window" and (
                task == "compare" or params.get("m") == 2))
              or draw(st.integers(0, 3)) == 0):
            params[field] = draw(VALUES[field])
    if draw(st.integers(0, 7)) == 0:  # the points of a sweep
        field = draw(st.sampled_from(fields))
        params = {"task": task, "base": params, "vary": {
            "field": field,
            "values": draw(st.lists(VALUES[field], min_size=1, max_size=2))}}
        task = "sweep"
    return task, params


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_scenarios())
def test_accepted_configs_run_or_fail_typed(case):
    """A config that passes load_config runs, or fails with a type from
    errors.py; it never dies with a bare ValueError or TypeError."""
    task, parameters = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(one_scenario("drawn", task, parameters), fh)
        try:
            _, scenarios = cli.load_config(path)
        except ConfigError:
            return
        report = cli._execute(scenarios[0], tmp, cli._Trajectories(scenarios))
    assert report.status == "ok" or \
        report.error.split(":")[0] in ERROR_TYPES, report.error
