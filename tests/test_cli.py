"""Scenario runner: config validation, task dispatch, report shape,
determinism across reruns and worker counts, and the canonical configs."""

import json
import os

import pytest
import yaml

from vertexreg import cli
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
    _, scenarios = cli.load_config(write_config(tmp_path, doc), "kernel")
    assert scenarios[0].task == "kernel"


def test_unknown_parameter_key_rejected(tmp_path):
    doc = one_scenario("x", "kernel", {"m": 1, "fidelity": "high"})
    with pytest.raises(ConfigError, match="fidelity"):
        cli.load_config(write_config(tmp_path, doc))


def test_missing_required_parameter_rejected(tmp_path):
    doc = one_scenario("cmp", "compare", {
        "m": 1, "phi": "petrovskii-critical"})  # window omitted
    with pytest.raises(ConfigError, match=r"parameters\.window"):
        cli.load_config(write_config(tmp_path, doc))


def test_yaml_syntax_error_reports_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("version: 1\nscenarios:\n  - id: x\n   task: oops\n")
    with pytest.raises(ConfigError, match="line"):
        cli.load_config(str(path))


def test_id_charset_enforced(tmp_path):
    doc = one_scenario("bad id", "kernel", {"m": 1})
    with pytest.raises(ConfigError, match="id"):
        cli.load_config(write_config(tmp_path, doc))


def test_threshold_keys_checked(tmp_path):
    doc = one_scenario("x", "criterion", {
        "m": 1, "phi": "petrovskii-critical",
        "thresholds": {"patience": 2.0}})
    with pytest.raises(ConfigError, match="patience"):
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


def test_amplitude_ceiling_reported_as_irregular(tmp_path):
    # strong positive reaction pushes ln a0 to 0; that is an outcome, not an error
    doc = one_scenario("ceiling", "criterion", {
        "m": 1, "phi": "petrovskii-critical",
        "kappa": {"name": "critical-kappa", "params": {"c": 100.0}}})
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    payload = report["reports"][0]["payload"]
    assert payload["verdict"] == "Irregular"
    assert "overflow" in payload["certificate"]
    assert report["reports"][0]["artifacts"] == []


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


def test_worker_count_does_not_change_output(tmp_path):
    doc = {"version": 1, "scenarios": [
        {"id": f"w{i}", "task": "petrovskii",
         "parameters": {"phi": {"name": "log-power", "params": {"p": p}}}}
        for i, p in enumerate((0.75, 1.0, 2.0))]}
    path = write_config(tmp_path, doc)
    cli.run_scenarios(path, str(tmp_path / "serial"), workers=1)
    cli.run_scenarios(path, str(tmp_path / "pooled"), workers=3)
    assert strip_timestamp(tmp_path / "serial" / "report.json") \
        == strip_timestamp(tmp_path / "pooled" / "report.json")


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


def test_kernel_payload_echoes_thresholds(tmp_path):
    doc = one_scenario("k2", "kernel", {"m": 2})
    code, report = cli.run_scenarios(write_config(tmp_path, doc),
                                     str(tmp_path / "out"))
    assert code == 0
    payload = report["reports"][0]["payload"]
    assert payload["mass"]["abs_error"] < payload["mass"]["threshold"]
    fit = payload["asymptotic_fit"]
    assert fit["d_rel_error"] < fit["rel_tolerance"]
    assert fit["b_rel_error"] < fit["rel_tolerance"]


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
    assert cli.main(["kernel", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
    assert "[k1] kernel: ok" in capsys.readouterr().out

    bad = one_scenario("k1", "kernel", {"m": 7})
    assert cli.main(["kernel", "--config", write_config(tmp_path, bad, "bad.yaml"),
                     "--out", str(tmp_path / "out2")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_default_task_injection(tmp_path, capsys):
    path = tmp_path / "bare.yaml"
    path.write_text("version: 1\n"
                    "scenarios:\n"
                    "  - id: quick\n"
                    "    parameters: {phi: petrovskii-super}\n")
    assert cli.main(["petrovskii", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    assert "classification=Convergent" in capsys.readouterr().out


def test_main_repro_prints_paths(tmp_path, capsys):
    assert cli.main(["repro", "--out", str(tmp_path / "cfg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all(line.endswith(".yaml") for line in lines)
