from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from corrobs import (ConfigError, ControlGains, CorrectorParams, DecouplingReport,
                     LargeErrorModel, ScenarioConfig, SensorConfig, TrajectorySpec,
                     UavParams, bundled_config_path, decoupling_check, load_scenario,
                     save_scenario, scenario_from_dict, scenario_to_dict, sweep_parameter)
from corrobs.cli import main
from corrobs.config import _KEYS, BUNDLED_CONFIGS
from corrobs.plant import per_axis
from corrobs.sensors import whole_multiple


@pytest.fixture(scope="module")
def sec6_doc() -> dict:
    return json.loads(bundled_config_path("paper_sec6").read_text())


def write_quick(doc: dict, tmp_path, duration=2.0, **overrides) -> str:
    quick = json.loads(json.dumps(doc))
    quick["duration"] = duration
    quick["sensors"]["dropouts"] = []
    quick.update(overrides)
    path = tmp_path / "quick.cfg"
    path.write_text(json.dumps(quick))
    return str(path)


# ---------------------------------------------------------------- config

def test_bundled_configs_load():
    for name in BUNDLED_CONFIGS:
        cfg = load_scenario(bundled_config_path(name))
        assert cfg.duration > 0
        assert len(cfg.correctors) == len(cfg.observers) == 2


def test_bundled_config_unknown_name():
    with pytest.raises(ConfigError, match=r"^config must be one of 'paper_sec6', 'paper_fig5', "
                                          r"'noise_only', not 'nonexistent'$"):
        bundled_config_path("nonexistent")


def test_missing_key_names_path(sec6_doc):
    doc = json.loads(json.dumps(sec6_doc))
    del doc["uav"]["m"]
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert "uav.m" in str(err.value)


def test_missing_section_names_path(sec6_doc):
    doc = json.loads(json.dumps(sec6_doc))
    del doc["control"]
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(doc)
    assert "control.kp1" in str(err.value)


def test_invalid_value_reported_as_config_error(sec6_doc):
    doc = json.loads(json.dumps(sec6_doc))
    doc["corrector"]["position"]["eps_c"] = 1.5
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


def test_round_trip(tmp_path, sec6_doc):
    cfg = scenario_from_dict(sec6_doc)
    path = tmp_path / "copy.cfg"
    save_scenario(cfg, path)
    again = load_scenario(path)
    assert again == cfg


def test_bundled_configs_round_trip_exactly(tmp_path):
    for name in BUNDLED_CONFIGS:
        cfg = load_scenario(bundled_config_path(name))
        assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
        path = tmp_path / f"{name}.cfg"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg


# SHA-256 of `save_scenario` output for the bundled documents: the document
# format must not change unnoticed.
SAVED_SHA256 = {
    "paper_sec6": "bb81e2e853facb17d597a209e459cb430cc1ba2a8e0d21e239b890b7b278af3c",
    "paper_fig5": "a8577143f47f9978043ae1027d42469d5876138dfe8bd6edbd7f34a2c1172ee7",
    "noise_only": "0923e7b576666a1996776801b2fcfdd18c0de79acd836069ad6b1ff7a04db5fe",
}


@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_saved_bundled_config_bytes_are_pinned(tmp_path, name):
    path = tmp_path / f"{name}.cfg"
    save_scenario(load_scenario(bundled_config_path(name)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_SHA256[name]


def _edit(doc: dict, path: str, value) -> dict:
    """A copy of ``doc`` with the value at dotted ``path`` set."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path.split(".")
    node = doc
    for key in outer:
        node = node[key]
    node[last] = value
    return doc


REFUSED_VALUES = [
    ("corrector_substeps", 2.5),
    ("seed", 1.7),
    ("seed", True),
    ("seed", -1),
    ("ekf.q", True),
    ("ekf.r1", "0.46"),
    ("duration", float("inf")),
    ("trajectory.kind", 3),
    ("uav.m", "heavy"),
    ("sensors.dropouts", [[1]]),
    ("uncertainty.delta.x.sinusoids", [5]),
    ("initial_offset", 0.0),
    ("uncertainty.drag", [0.01] * 6),
    ("corrector.position", 1.0),
    ("sample_intervall", 0.02),
    ("uncertainty.delta.x.amplitude", 0.3),
    ("trajectory.radus", 3.0),
    ("uav.b", 0.002923),
    ("uav.k", 0.0005),
    ("uncertainty.l_sigma", 1.0),
    ("control_source", "truth"),
    ("uncertainty_feed", "zero"),
    ("control.kp1", -1),
    ("uav.m", 0),
    ("sensors.position_period", -1),
    ("sensors.dropouts", [[35, 25]]),
    ("estimator_init", "bogus"),
    ("trajectory.kind", "spiral"),
    ("initial_offset", [0.0]),
    # keys of fields that the format no longer has
    ("trajectory.start_x", 1.0),
    ("uncertainty.delta.x.constant", 0.5),
    ("sensors.position_large_error.sinusoids", [[0.3, 1.0, 0.0]]),
]


@pytest.mark.parametrize("path, value", REFUSED_VALUES,
                         ids=[f"{p}={v!r}" for p, v in REFUSED_VALUES])
def test_bad_value_or_unknown_key_names_its_key(sec6_doc, path, value):
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(_edit(sec6_doc, path, value))
    assert path in str(err.value)


@pytest.mark.parametrize("where", ["correctors", "observers", "sensors.large_error",
                                   "sensors.position_noise", "sensors.velocity_noise"])
def test_six_entry_model_tuple_is_refused_naming_its_field(sec6_doc, where):
    # A model is set per group, as the document holds it, so a config with
    # one model per axis cannot be built, and so cannot fail to round-trip.
    cfg = scenario_from_dict(sec6_doc)
    owner, _, name = where.rpartition(".")
    holder = getattr(cfg, owner) if owner else cfg
    six = per_axis(getattr(holder, name))
    with pytest.raises(ValueError, match=rf"^{name} must hold 2 entries, "
                       r"\(position group, attitude group\), not 6$"):
        replace(holder, **{name: six})


def _field_values(obj):
    """(field name, value) of each field of dataclass ``obj`` and of the
    dataclasses its fields hold."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        yield f.name, value
        if is_dataclass(value):
            yield from _field_values(value)


def test_each_field_held_under_several_keys_has_one_entry_per_key():
    # `_fields` and `_document` map the i-th key to the i-th entry, with no
    # expansion or split between them.
    defaults = dict(_field_values(ScenarioConfig()))
    several = {name: keys for name, keys in _KEYS.items() if len(keys) > 1}
    assert several.keys() <= defaults.keys()
    for name, keys in several.items():
        assert len(defaults[name]) == len(keys), name


def test_load_missing_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/path.cfg")


# ------------------------------------------------------------------- CLI

def test_cli_run_writes_outputs(tmp_path, sec6_doc):
    cfgp = write_quick(sec6_doc, tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfgp, "--out", str(out), "--settle", "1.0"])
    assert rc == 0
    assert (out / "trace.csv").exists()
    doc = json.loads((out / "metrics.json").read_text())
    assert "corrector" in doc and "ekf" in doc
    # duration 2.0 at 0.01 sampling: 201 rows + header
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 202


def test_cli_run_duration_override(tmp_path, sec6_doc):
    cfgp = write_quick(sec6_doc, tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfgp, "--out", str(out), "--duration", "1.0",
               "--settle", "0.5"])
    assert rc == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 102  # 101 samples plus header


def test_cli_run_idempotent(tmp_path, sec6_doc):
    cfgp = write_quick(sec6_doc, tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", cfgp, "--out", str(out), "--settle", "1.0"])
    first = (out / "trace.csv").read_bytes(), (out / "metrics.json").read_bytes()
    main(["run", "--config", cfgp, "--out", str(out), "--settle", "1.0"])
    second = (out / "trace.csv").read_bytes(), (out / "metrics.json").read_bytes()
    assert first == second


# SHA-256 of the files `corrobs run` writes for 2 s of the bundled paper_sec6
# flight: a change that alters a trace or a metric must update these on purpose.
RUN_SHA256 = {
    "trace.csv": "6ec6159a4e496290ed364a6985f86f7870485c801bfe1c729eb47ab2e13cc219",
    "metrics.json": "792082787b04763f23a737ea9001348963d582f55d641d2ad7569ffda6c2832c",
}


def test_cli_run_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--config", "paper_sec6", "--duration", "2", "--settle", "1",
               "--out", str(out)])
    assert rc == 0
    for name, digest in RUN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# SHA-256 of the sweep.csv `corrobs sweep` writes for two 1 s runs of the
# bundled paper_sec6 flight.
SWEEP_SHA256 = "e7eb32f2f096bbb7e55b3891a5c8d18d6b7cb2c5cece90d4b88977a83fa8057f"


def test_cli_sweep_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "out"
    rc = main(["sweep", "--config", "paper_sec6", "--duration", "1", "--settle", "0.5",
               "--param", "eps_o", "--values", "0.9,0.5", "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == SWEEP_SHA256


# SHA-256 of the analysis.json `corrobs analyze` writes for the bundled
# paper_sec6 document, by --amplitude.
ANALYZE_SHA256 = {
    "1": "b0593dbc867616a80da463b1f59739481d8dc440b6938fdf6b53f4c813ea2026",
    "0.3": "af57f892dd09e3868e7d9a6bc78214c8f1e73c29a9b07753167eee9ad3728474",
}


@pytest.mark.parametrize("amplitude", sorted(ANALYZE_SHA256))
def test_cli_analyze_output_bytes_are_pinned(tmp_path, amplitude):
    out = tmp_path / "out"
    rc = main(["analyze", "--config", "paper_sec6", "--amplitude", amplitude,
               "--out", str(out)])
    assert rc == 0
    digest = hashlib.sha256((out / "analysis.json").read_bytes()).hexdigest()
    assert digest == ANALYZE_SHA256[amplitude]


# SHA-256 of the comparison.json `corrobs compare-ekf` writes for 3 s of the
# bundled noise_only flight.
COMPARE_EKF_SHA256 = "b009242d36d3396bc73a83b82cf65e98df24423e87963d6815006e4d2eeb4acb"


def test_cli_compare_ekf_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "out"
    rc = main(["compare-ekf", "--config", "noise_only", "--duration", "3", "--settle", "1",
               "--out", str(out)])
    assert rc == 0
    digest = hashlib.sha256((out / "comparison.json").read_bytes()).hexdigest()
    assert digest == COMPARE_EKF_SHA256


# An override value the scenario refuses; the one-line message names the flag.
OVERRIDE_ERRORS = [("--duration", "0.015"), ("--duration", "0"), ("--duration", "1e300"),
                   ("--seed", "-1")]


@pytest.mark.parametrize("flag, value", OVERRIDE_ERRORS)
def test_cli_bad_override_names_its_flag(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    rc = main(["run", "--config", "paper_sec6", "--out", str(out), flag, value])
    err = capsys.readouterr().err
    assert rc == 1
    assert flag in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_duration_override_off_the_sample_grid_names_the_flag(capsys):
    rc = main(["validate", "--config", "paper_sec6", "--duration", "0.015"])
    assert rc == 1
    assert capsys.readouterr().err == ("config error: --duration 0.015: duration must be "
                                       "a whole multiple of sample_interval\n")


# Scenarios whose trace would hold more than 1e7 rows: each is refused on
# one line before a trace is allocated.
ROW_CAP_REFUSALS = [
    ["run", "--duration", "1e6"],
    ["validate", "--duration", "1e6"],
    ["decouple-check", "--duration", "2e4"],
]


@pytest.mark.parametrize("argv", ROW_CAP_REFUSALS, ids=" ".join)
def test_cli_trace_past_the_row_cap_is_config_error(tmp_path, capsys, argv):
    command, *flags = argv
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    rc = main([command, "--config", "paper_sec6", *out, *flags])
    captured = capsys.readouterr()
    assert rc == 1
    assert "validation passed" not in captured.out
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "10000000 trace rows" in captured.err
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_key_exit_code(tmp_path, sec6_doc, capsys):
    doc = json.loads(json.dumps(sec6_doc))
    del doc["uav"]["m"]
    path = tmp_path / "broken.cfg"
    path.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "uav.m" in capsys.readouterr().err


def test_cli_missing_config_file():
    assert main(["run", "--config", "/no/such/file.cfg", "--out", "/tmp/x"]) == 1


def test_cli_resolves_only_a_bundled_name_to_its_document(tmp_path, monkeypatch, capsys):
    # The bare name, with or without `.cfg`; any other missing path is not
    # found, however its stem reads.
    monkeypatch.chdir(tmp_path)
    for name in ("paper_sec6", "paper_sec6.cfg"):
        assert main(["validate", "--config", name]) == 0
    capsys.readouterr()
    for name in ("paper_sec6.json", "paper_sec6.cfg.cfg", "sub/paper_sec6.cfg"):
        assert main(["validate", "--config", name]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: config file not found: {name}\n"
        assert "validation passed" not in captured.out


def test_cli_position_period_off_the_velocity_grid_is_config_error(tmp_path, sec6_doc,
                                                                    capsys):
    cfgp = write_quick(_edit(sec6_doc, "sensors.position_period", 0.015), tmp_path,
                       duration=1.0)
    for argv in (["validate", "--config", cfgp],
                 ["run", "--config", cfgp, "--out", str(tmp_path / "o")]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            "config error: sensors.position_period must be a whole multiple of "
            "sensors.velocity_period\n")
    assert not (tmp_path / "o").exists()


def test_cli_walk_period_below_dt_is_config_error(tmp_path, sec6_doc, capsys):
    # At 1e-6 s the bias walk would take 1 000 steps a tick on each position axis.
    cfgp = write_quick(_edit(sec6_doc, "sensors.position_large_error.walk_period", 1e-6),
                       tmp_path, duration=1.0)
    for argv in (["validate", "--config", cfgp],
                 ["run", "--config", cfgp, "--out", str(tmp_path / "o")]):
        assert main(argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            "config error: sensors.position_large_error.walk_period must be at least dt\n")
    assert not (tmp_path / "o").exists()


def test_cli_validate_flight_config(capsys):
    rc = main(["validate", "--config", str(bundled_config_path("paper_sec6"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oscillation_free=False" in out  # observer warning expected
    assert "warning" in out


def test_cli_validate_unstable(tmp_path, sec6_doc, capsys):
    doc = json.loads(json.dumps(sec6_doc))
    doc["corrector"]["position"]["k1"] = -1.0
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(path)])
    assert rc == 3


def test_cli_validate_reports_rules_and_a_config_error_together(tmp_path, sec6_doc,
                                                                 capsys):
    # A rule failure and a config error elsewhere: the rule reports print,
    # the config error is named on one line, and the exit code is run's.
    doc = _edit(_edit(sec6_doc, "corrector.position.k1", -1.0), "estimator_init", "bogus")
    cfgp = write_quick(doc, tmp_path, duration=1.0)
    assert main(["validate", "--config", cfgp]) == 1
    captured = capsys.readouterr()
    assert "corrector/position: stable=False" in captured.out
    assert "k1 must be positive and finite, not -1.0" in captured.out
    assert "validation" not in captured.out
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "estimator_init" in captured.err
    assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o")]) == 1


def test_cli_run_names_the_first_fault_of_an_estimator_group_by_its_key(
        tmp_path, sec6_doc, capsys):
    # Two faults in one group: `run` refuses the first, named by its dotted
    # key as every other refused value is; `validate` reports both.
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps(
        _edit(_edit(sec6_doc, "corrector.position.k1", -1), "corrector.position.eps_c", 2)))
    cfgp = str(path)
    out = tmp_path / "o"
    assert main(["run", "--config", cfgp, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: corrector.position.k1 must be positive and finite, not -1.0\n")
    assert not out.exists()
    assert main(["validate", "--config", cfgp]) == 3
    assert ("corrector/position: stable=False oscillation_free=False\n"
            "  k1 must be positive and finite, not -1.0\n"
            "  eps_c must be in (0, 1), not 2.0\n") in capsys.readouterr().out


# Out-of-range values, each refused by its scenario class, and the message
# that names its dotted key.  A per-axis field is named by its field key.
OUT_OF_RANGE = [
    ("control.kp1", -1, "control.kp1 must be positive and finite, not -1.0"),
    ("uav.m", 0, "uav.m must be positive and finite, not 0.0"),
    ("sensors.position_period", -1,
     "sensors.position_period must be positive and finite, not -1.0"),
    ("sensors.dropouts", [[35, 25]],
     "sensors.dropouts[0] must be (start, end) with start < end, not (35.0, 25.0)"),
    ("uncertainty.drag.x", -0.5,
     "uncertainty.drag must be nonnegative and finite, not -0.5"),
    ("estimator_init", "bogus",
     "estimator_init must be one of 'first_measurement', 'truth', not 'bogus'"),
    ("trajectory.kind", "spiral",
     "trajectory.kind must be one of 'circle', 'hover', not 'spiral'"),
    ("initial_offset", [0.0], "initial_offset must hold 12 entries, one per state, not 1"),
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("path, value, message", OUT_OF_RANGE,
                         ids=[p for p, _, _ in OUT_OF_RANGE])
def test_cli_out_of_range_value_is_one_line_naming_its_key(tmp_path, sec6_doc, capsys,
                                                            command, path, value, message):
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(json.dumps(_edit(sec6_doc, path, value)))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfgp)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_cli_validate_unknown_trajectory_kind(tmp_path, sec6_doc, capsys):
    doc = json.loads(json.dumps(sec6_doc))
    doc["trajectory"]["kind"] = "spiral"
    path = tmp_path / "spiral.cfg"
    path.write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "validation passed" not in captured.out
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "spiral" in captured.err and "trajectory.kind" in captured.err


def test_cli_run_unknown_trajectory_kind(tmp_path, sec6_doc, capsys):
    doc = json.loads(json.dumps(sec6_doc))
    doc["trajectory"]["kind"] = "spiral"
    cfgp = write_quick(doc, tmp_path, duration=1.0)
    rc = main(["run", "--config", cfgp, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "spiral" in err and "trajectory.kind" in err
    assert not (tmp_path / "o").exists()


RUN_REFUSES = [
    ("estimator_init", "bogus"),
    ("uav.m", "heavy"),
    ("corrector_substeps", 0),
    ("trajectory.kind", "spiral"),
    ("sample_intervall", 0.01),
    ("uav.b", 0.002923),
    ("trajectory.radius", 0.0),
    ("trajectory.climb_time", 1e300),
    ("trajectory.climb_time", 1e-200),
    ("corrector.attitude.eps_c", 1e-200),
    ("observer.position.eps_o", 1e-200),
    ("dt", 1e-300),
]


@pytest.mark.parametrize("path, value", RUN_REFUSES, ids=[p for p, _ in RUN_REFUSES])
def test_cli_validate_refuses_what_run_refuses(tmp_path, sec6_doc, capsys, path, value):
    cfgp = write_quick(_edit(sec6_doc, path, value), tmp_path, duration=1.0)
    for argv in (["validate", "--config", cfgp],
                 ["run", "--config", cfgp, "--out", str(tmp_path / "o")]):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1, argv[0]
        assert "validation passed" not in captured.out
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert path in captured.err
    assert not (tmp_path / "o").exists()


def test_cli_infinite_duration_override_is_config_error(tmp_path, sec6_doc, capsys):
    cfgp = write_quick(sec6_doc, tmp_path)
    rc = main(["run", "--config", cfgp, "--out", str(tmp_path / "o"), "--duration", "inf"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and "duration" in err and err.count("\n") == 1


# A bad value of the last flag given; the message names that flag.
FLAG_VALUE_ERRORS = [
    ["sweep", "--config", "paper_sec6", "--param", "eps_o", "--values", "0.5,abc"],
    ["sweep", "--config", "paper_sec6", "--param", "eps_o", "--values", ","],
]

USAGE_ERRORS = [
    ["validate", "--config", "paper_sec6", "--out", "x"],
    ["run"],
    ["run", "--config", "paper_sec6", "--seed", "one"],
    ["fly", "--config", "paper_sec6"],
    ["validate", "--config", "paper_sec6", "--settle", "5"],
    ["analyze", "--config", "paper_sec6", "--duration", "2"],
    ["analyze", "--config", "paper_sec6", "--seed", "2"],
    ["analyze", "--config", "paper_sec6", "--settle", "5"],
    ["decouple-check", "--config", "paper_sec6", "--settle", "5"],
    *FLAG_VALUE_ERRORS,
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) for a in USAGE_ERRORS])
def test_cli_usage_error_exits_1_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    err = capsys.readouterr().err
    assert stop.value.code == 1
    assert err.startswith("corrobs") and "error:" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", FLAG_VALUE_ERRORS,
                         ids=[" ".join(a) for a in FLAG_VALUE_ERRORS])
def test_cli_bad_flag_value_names_the_flag(capsys, argv):
    with pytest.raises(SystemExit):
        main(argv)
    assert argv[-2] in capsys.readouterr().err


def test_cli_validate_conservative_no_warnings(tmp_path, sec6_doc, capsys):
    doc = json.loads(json.dumps(sec6_doc))
    doc["observer"]["position"].update(k3=4.0, k4=4.0)
    doc["observer"]["attitude"].update(k3=4.0, k4=4.0)
    path = tmp_path / "cons.cfg"
    path.write_text(json.dumps(doc))
    rc = main(["validate", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warning" not in out


def test_cli_analyze(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["analyze", "--config", str(bundled_config_path("paper_sec6")),
               "--out", str(out), "--amplitude", "1.0"])
    assert rc == 0
    doc = json.loads((out / "analysis.json").read_text())
    wc = doc["estimators"]["corrector_position"]["natural_frequency"]
    assert abs(wc - 1.4644974784) < 1e-6
    assert abs(wc - 1.474) < 0.02
    eig = doc["estimators"]["observer_position"]["eigenvalues_real"]
    assert all(v < 0 for v in eig)
    # stable keys across reruns
    main(["analyze", "--config", str(bundled_config_path("paper_sec6")),
          "--out", str(out), "--amplitude", "1.0"])
    assert json.loads((out / "analysis.json").read_text()) == doc


def test_cli_analyze_bad_amplitude(tmp_path, capsys):
    for amplitude in ("-1", "0", "nan", "inf"):
        with pytest.raises(SystemExit) as stop:
            main(["analyze", "--config", str(bundled_config_path("paper_sec6")),
                  "--out", str(tmp_path), "--amplitude", amplitude])
        err = capsys.readouterr().err
        assert stop.value.code == 1, amplitude
        assert "error: argument --amplitude" in err and err.count("\n") == 1
    assert not (tmp_path / "analysis.json").exists()


def test_cli_analyze_overflowing_linearization_names_the_flag(tmp_path, sec6_doc, capsys):
    # k3 = 1e300 at amplitude 1e-300 makes the observer stiffness overflow.
    cfgp = write_quick(_edit(sec6_doc, "observer.position.k3", 1e300), tmp_path)
    rc = main(["analyze", "--config", cfgp, "--out", str(tmp_path / "o"),
               "--amplitude", "1e-300"])
    assert rc == 1
    assert capsys.readouterr().err == ("config error: --amplitude 1e-300: the linearized "
                                       "observer_position overflows\n")
    assert not (tmp_path / "o").exists()


def test_cli_analyze_refuses_a_linearization_whose_denominator_underflows(tmp_path, sec6_doc,
                                                                          capsys):
    # The observer's exact stiffness at the least subnormal amplitude is
    # 3.0e327, beyond floating-point range, so the entry is inf.
    doc = _edit(_edit(sec6_doc, "observer.position.eps_o", 1e-3), "observer.position.alpha_o",
                0.01)
    rc = main(["analyze", "--config", write_quick(doc, tmp_path), "--out", str(tmp_path / "o"),
               "--amplitude", "5e-324"])
    assert rc == 1
    assert capsys.readouterr().err == ("config error: --amplitude 5e-324: the linearized "
                                       "observer_position overflows\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("settle", ["nan", "-1", "inf"])
def test_cli_run_bad_settle_writes_nothing(tmp_path, sec6_doc, capsys, settle):
    cfgp = write_quick(sec6_doc, tmp_path, duration=1.0)
    with pytest.raises(SystemExit) as stop:
        main(["run", "--config", cfgp, "--out", str(tmp_path / "o"), "--settle", settle])
    err = capsys.readouterr().err
    assert stop.value.code == 1
    assert "error: argument --settle" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_sweep(tmp_path, sec6_doc):
    cfgp = write_quick(sec6_doc, tmp_path)
    out = tmp_path / "o"
    rc = main(["sweep", "--config", cfgp, "--out", str(out), "--param", "eps_o",
               "--values", "0.9,0.5", "--settle", "1.0"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("eps_o,")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_sweep_jobs_below_one_is_config_error(tmp_path, sec6_doc, capsys, jobs):
    cfgp = write_quick(sec6_doc, tmp_path)
    out = tmp_path / "o"
    rc = main(["sweep", "--config", cfgp, "--out", str(out), "--param", "eps_o",
               "--values", "0.9", "--jobs", jobs])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and "jobs" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("param, value", [("noise_pos_std", "nan"), ("noise_pos_std", "inf"),
                                          ("L_d", "nan"), ("eps_c", "1e-300")])
def test_cli_sweep_non_finite_value_is_config_error(tmp_path, sec6_doc, capsys, param, value):
    cfgp = write_quick(sec6_doc, tmp_path)
    out = tmp_path / "o"
    rc = main(["sweep", "--config", cfgp, "--out", str(out), "--param", param,
               "--values", f"0.5,{value}", "--settle", "1.0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and "finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_cli_sweep_unknown_param(tmp_path, sec6_doc, capsys):
    cfgp = write_quick(sec6_doc, tmp_path)
    rc = main(["sweep", "--config", cfgp, "--out", str(tmp_path / "o"),
               "--param", "bogus", "--values", "1"])
    assert rc == 1
    assert "eps_c" in capsys.readouterr().err


def test_cli_compare_ekf_clean_scenario(tmp_path, sec6_doc):
    # Zero-noise, zero-bias: both estimators are essentially exact.
    doc = json.loads(json.dumps(sec6_doc))
    for key in ("position_noise", "angle_noise", "velocity_noise", "rate_noise"):
        doc["sensors"][key] = {"gaussian_std": 0.0}
    doc["sensors"]["position_large_error"] = {"constant": 0.0, "bound": 0.0}
    doc["sensors"]["attitude_large_error"] = {"constant": 0.0, "bound": 0.0}
    doc["sensors"]["dropouts"] = []
    doc["duration"] = 4.0
    doc["estimator_init"] = "truth"
    doc["trajectory"] = {"kind": "hover", "altitude": 0.0}
    doc["uncertainty"]["delta"] = {a: {} for a in ("x", "y", "z", "psi", "theta", "phi")}
    path = tmp_path / "clean.cfg"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    rc = main(["compare-ekf", "--config", str(path), "--out", str(out),
               "--settle", "2.0"])
    assert rc == 0
    doc = json.loads((out / "comparison.json").read_text())
    for axis in ("x", "y", "z"):
        assert doc["per_axis"][axis]["corrector_max"] < 1e-3
        assert doc["per_axis"][axis]["ekf_max"] < 1e-3


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_cli_json_outputs_are_strict_json_when_ratios_are_0_over_0(tmp_path, sec6_doc):
    # On the clean document every corrector error is 0, so each error ratio
    # is 0/0 and is written as null, not as the non-JSON Infinity or NaN.
    test_cli_compare_ekf_clean_scenario(tmp_path, sec6_doc)     # writes clean.cfg and o/
    comparison = json.loads((tmp_path / "o" / "comparison.json").read_text(),
                            parse_constant=_refuse_constant)
    assert comparison["aggregate_ratio"] is None
    assert main(["run", "--config", str(tmp_path / "clean.cfg"), "--out", str(tmp_path / "r"),
                 "--settle", "2.0"]) == 0
    summary = json.loads((tmp_path / "r" / "metrics.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["drift"]["x"]["ratio"] is None


def test_cli_run_flight_config_meets_error_budget(tmp_path):
    # End-to-end flight run through the CLI: the corrector error metric in
    # the written summary stays under the 0.1 m budget on every position
    # axis despite the ~20 m measurement bias.
    out = tmp_path / "o"
    rc = main(["run", "--config", str(bundled_config_path("paper_sec6")),
               "--out", str(out), "--settle", "20.0"])
    assert rc == 0
    doc = json.loads((out / "metrics.json").read_text())
    for axis in ("x", "y", "z"):
        assert doc["corrector"][axis]["max"] < 0.1


def test_cli_compare_ekf_fairness_on_unbiased_noise(tmp_path):
    # The baseline is tuned on this scenario, so with its Gaussian
    # assumptions satisfied it lands in the same error class as the
    # corrector: the aggregate RMS ratio stays within a factor of two.
    out = tmp_path / "o"
    rc = main(["compare-ekf", "--config", str(bundled_config_path("noise_only")),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "comparison.json").read_text())
    assert 0.5 <= doc["aggregate_ratio"] <= 2.0
    for axis in ("x", "y", "z"):
        assert 0.4 <= doc["per_axis"][axis]["ekf_to_corrector_rms_ratio"] <= 2.5


def test_cli_run_divergence_exit_code(tmp_path, sec6_doc, capsys):
    doc = json.loads(json.dumps(sec6_doc))
    doc["duration"] = 1.0
    doc["sensors"]["dropouts"] = []
    doc["uncertainty"]["delta"]["x"] = {"sinusoids": [[1e308, 0.0, math.pi / 2]]}
    path = tmp_path / "explode.cfg"
    path.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "diverged" in capsys.readouterr().err


def test_cli_decouple_check(tmp_path, sec6_doc):
    cfgp = write_quick(sec6_doc, tmp_path)
    rc = main(["decouple-check", "--config", cfgp])
    assert rc == 0


@pytest.mark.parametrize("command", ["run", "compare-ekf"])
def test_cli_trace_too_short_for_the_metrics_writes_nothing(tmp_path, capsys, command):
    # At 0.05 s the drift reference window [0.025, 0.0275) holds no 10 ms
    # sample; at 0.02 s every window holds one.
    out = tmp_path / "o"
    rc = main([command, "--config", "paper_sec6", "--duration", "0.05", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("config error: no trace sample in the drift reference window "
                   "[0.025, 0.0275) s of the 0.05 s trace\n")
    assert not out.exists()
    assert main([command, "--config", "paper_sec6", "--duration", "0.02",
                 "--out", str(tmp_path / "ok")]) == 0


def test_cli_lets_an_internal_error_through(tmp_path, monkeypatch):
    # Only a ConfigError exits 1: any other error is a fault of the program
    # and ends in its traceback, not in a `config error` line.
    def boom(cfg):
        raise ValueError("boom")

    monkeypatch.setattr("corrobs.cli.run_scenario", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["run", "--config", "paper_sec6", "--out", str(tmp_path / "o")])


# The (subcommand, exit code) pairs that no other test reaches: the scenario
# edit, the extra flags, and how the one stderr line starts ("" for no line).
# Exit 3 comes from a coupled report put in place of `decoupling_check`.
EXIT_CODES = [
    ("sweep", 2, ("ekf.q", 1e300), ["--param", "eps_o", "--values", "0.5"],
     "simulation diverged: divergence at tick 0"),
    ("compare-ekf", 1, None, ["--duration", "0.05"],
     "config error: no trace sample in the drift reference window"),
    ("compare-ekf", 2, ("ekf.q", 1e300), [], "simulation diverged: divergence at tick 0"),
    ("analyze", 1, ("corrector.attitude.eps_c", 1e-200), [],
     "config error: corrector.attitude.eps_c gives eps_c^3 = 0.0"),
    ("decouple-check", 1, ("trajectory.radius", 0.0), [],
     "config error: trajectory.radius must be positive"),
    ("decouple-check", 2, ("ekf.q", 1e300), [], "simulation diverged: divergence at tick 0"),
    ("decouple-check", 3, None, [], ""),
]


@pytest.mark.parametrize("command, code, edit, flags, err_start", EXIT_CODES,
                         ids=[f"{c} {k}" for c, k, *_ in EXIT_CODES])
def test_cli_exit_code_table(tmp_path, sec6_doc, capsys, monkeypatch,
                             command, code, edit, flags, err_start):
    cfgp = write_quick(_edit(sec6_doc, *edit) if edit else sec6_doc, tmp_path, duration=1.0)
    if code == 3:
        coupled = DecouplingReport(True, False, "observer trace diverges at t=0.500 s")
        monkeypatch.setattr("corrobs.cli.decoupling_check", lambda cfg: coupled)
    out = [] if command == "decouple-check" else ["--out", str(tmp_path / "o")]
    assert main([command, "--config", cfgp, *out, *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith(err_start) and err.count("\n") == (1 if err_start else 0)
    assert not (tmp_path / "o").exists()


def test_cli_entry_point_runs():
    # Run from `src/`, so that the package imports whether or not it is
    # installed or on PYTHONPATH.
    proc = subprocess.run([sys.executable, "-m", "corrobs.cli", "--help"],
                          capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parents[1] / "src")
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout


# Keys of the scenario modes the tick loop no longer has, with the values a
# document saved while they existed holds.
DELETED_MODE_KEYS = [
    ("control_source", "estimates"),
    ("uncertainty_feed", "estimates"),
    ("corrector_substeps", 2),
]


@pytest.mark.parametrize("key, value", DELETED_MODE_KEYS, ids=[k for k, _ in DELETED_MODE_KEYS])
def test_cli_deleted_mode_key_is_config_error(tmp_path, sec6_doc, capsys, key, value):
    cfgp = write_quick(sec6_doc, tmp_path, duration=1.0, **{key: value})
    for argv in (["validate", "--config", cfgp],
                 ["run", "--config", cfgp, "--out", str(tmp_path / "o")]):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1, argv[0]
        assert err.startswith("config error:") and key in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_ekf_divergence_exits_2_with_one_line(tmp_path, sec6_doc, capsys):
    doc = json.loads(json.dumps(sec6_doc))
    doc["ekf"]["q"] = 1e300
    cfgp = write_quick(doc, tmp_path, duration=1.0)
    rc = main(["run", "--config", cfgp, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("simulation diverged:") and err.count("\n") == 1
    assert "tick 0" in err and "ekf" in err


# ---------------------------------------------------------- refusal contract

# A class refuses a configured value with a ConfigError, a ValueError, where
# the rule is checked: by `check_range` or by a rule with a message of its own.
CLASS_REFUSALS = {
    "seed": lambda: ScenarioConfig(seed=-1),
    "tick cap": lambda: ScenarioConfig(duration=2e6, sample_interval=1.0),
    "walk period": lambda: ScenarioConfig(sensors=SensorConfig(
        large_error=(LargeErrorModel(walk_period=1e-6), LargeErrorModel()))),
    "whole multiple": lambda: whole_multiple("duration", 0.0155, "dt", 1e-3),
    "unusable eps_c": lambda: CorrectorParams(1.0, 30.0, 0.1, 1e-200),
    "climb time": lambda: TrajectorySpec(climb_time=1e200),
    "range": lambda: UavParams(m=-1.0),
}


@pytest.mark.parametrize("build", CLASS_REFUSALS.values(), ids=CLASS_REFUSALS)
def test_a_refusal_raised_by_a_class_is_a_config_error(build):
    with pytest.raises(ConfigError) as err:
        build()
    assert isinstance(err.value, ValueError)


def _plain_fault(monkeypatch, cls, when=lambda obj: True):
    """Make ``cls`` raise a ValueError that no rule raised, as a program fault
    would, when ``when`` holds of the object being built."""
    post_init = cls.__post_init__

    def faulty(self):
        if when(self):
            raise ValueError("math domain error")
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", faulty)


def _load_with_a_faulty_class(monkeypatch, doc, tmp_path):
    _plain_fault(monkeypatch, ControlGains)
    scenario_from_dict(doc)


def _seed_override_with_a_faulty_class(monkeypatch, doc, tmp_path):
    _plain_fault(monkeypatch, ScenarioConfig, lambda cfg: cfg.seed == 7)
    main(["run", "--config", "paper_sec6", "--seed", "7", "--out", str(tmp_path / "o")])


def _sweep_with_a_faulty_class(monkeypatch, doc, tmp_path):
    cfg = scenario_from_dict(doc)
    _plain_fault(monkeypatch, CorrectorParams, lambda p: p.eps_c == 0.5)
    sweep_parameter(cfg, "eps_c", [0.5])


def _decoupling_check_with_a_faulty_class(monkeypatch, doc, tmp_path):
    cfg = scenario_from_dict(doc)
    _plain_fault(monkeypatch, ScenarioConfig)
    decoupling_check(cfg)


PLAIN_FAULT_BOUNDARIES = [_load_with_a_faulty_class, _seed_override_with_a_faulty_class,
                          _sweep_with_a_faulty_class, _decoupling_check_with_a_faulty_class]


@pytest.mark.parametrize("call", PLAIN_FAULT_BOUNDARIES,
                         ids=["scenario_from_dict", "--seed", "sweep_parameter",
                              "decoupling_check"])
def test_a_plain_value_error_in_a_scenario_class_is_not_a_config_error(
        monkeypatch, sec6_doc, tmp_path, call):
    # Only a rule refuses; a boundary adds its key, flag or value to a
    # ConfigError and lets every other error through unchanged.
    with pytest.raises(ValueError, match="^math domain error$") as err:
        call(monkeypatch, sec6_doc, tmp_path)
    assert type(err.value) is ValueError
    assert not (tmp_path / "o").exists()
