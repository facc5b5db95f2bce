from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from corrobs import (ConfigError, bundled_config_path, load_scenario,
                     save_scenario, scenario_from_dict, scenario_to_dict)
from corrobs.cli import main
from corrobs.config import BUNDLED_CONFIGS


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
        assert len(cfg.correctors) == 6


def test_bundled_config_unknown_name():
    with pytest.raises(ConfigError):
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


def _set_axis(values: tuple, axis: int, **changes) -> tuple:
    out = list(values)
    out[axis] = replace(out[axis], **changes)
    return tuple(out)


LOSSY_EDITS = [
    (lambda c: replace(c, correctors=_set_axis(c.correctors, 1, k1=7.0)),
     "correctors[1] (axis y)"),
    (lambda c: replace(c, observers=_set_axis(c.observers, 4, eps_o=0.5)),
     "observers[4] (axis theta)"),
    (lambda c: replace(c, sensors=replace(c.sensors, position_noise=_set_axis(
        c.sensors.position_noise, 5, gaussian_std=0.3))),
     "sensors.position_noise[5] (axis phi)"),
    (lambda c: replace(c, sensors=replace(c.sensors, large_error=_set_axis(
        c.sensors.large_error, 2, constant=0.0))),
     "sensors.large_error[2] (axis z)"),
    (lambda c: replace(c, uncertainty=replace(
        c.uncertainty, delta_callables=(None, None, abs, None, None, None))),
     "uncertainty.delta_callables[2] (axis z)"),
]


@pytest.mark.parametrize("edit, where", LOSSY_EDITS, ids=[w for _, w in LOSSY_EDITS])
def test_save_refuses_config_that_cannot_round_trip(tmp_path, sec6_doc, edit, where):
    cfg = edit(scenario_from_dict(sec6_doc))
    with pytest.raises(ConfigError) as err:
        scenario_to_dict(cfg)
    assert where in str(err.value)
    with pytest.raises(ConfigError):
        save_scenario(cfg, tmp_path / "lossy.cfg")
    assert not (tmp_path / "lossy.cfg").exists()


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


def test_cli_analyze_bad_amplitude(tmp_path):
    rc = main(["analyze", "--config", str(bundled_config_path("paper_sec6")),
               "--out", str(tmp_path), "--amplitude", "-1"])
    assert rc == 1


def test_cli_sweep(tmp_path, sec6_doc):
    cfgp = write_quick(sec6_doc, tmp_path)
    out = tmp_path / "o"
    rc = main(["sweep", "--config", cfgp, "--out", str(out), "--param", "eps_o",
               "--values", "0.9,0.5", "--settle", "1.0"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("eps_o,")


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
    doc["uncertainty"]["delta"]["x"] = {"constant": 1e308}
    path = tmp_path / "explode.cfg"
    path.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "diverged" in capsys.readouterr().err


def test_cli_decouple_check(tmp_path, sec6_doc):
    cfgp = write_quick(sec6_doc, tmp_path)
    rc = main(["decouple-check", "--config", cfgp])
    assert rc == 0


def test_cli_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "corrobs.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout


def test_cli_zero_corrector_substeps_is_config_error(tmp_path, sec6_doc, capsys):
    cfgp = write_quick(sec6_doc, tmp_path, duration=1.0, corrector_substeps=0)
    rc = main(["run", "--config", cfgp, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and "corrector_substeps" in err
    assert err.count("\n") == 1
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
