from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from corrobs import (ControlGains, LargeErrorModel,
                     NoiseMixture, ScenarioConfig,
                     SensorConfig, SimulationDiverged, TraceLog,
                     TrajectorySpec, UavParams, UncertaintyModel,
                     bundled_config_path, convergence_study, decoupling_check,
                     load_scenario, metrics, observer_ramp_study, run_scenario,
                     sweep_parameter)
from corrobs.engine import SWEEPABLE_PARAMETERS, ideal_tracking_errors


def quiet_sensors(d_pos=0.0, noise=False) -> SensorConfig:
    pos_err = LargeErrorModel(constant=d_pos, bound=abs(d_pos)) if d_pos else LargeErrorModel()
    mix = NoiseMixture(gaussian_std=0.02) if noise else NoiseMixture()
    vmix = NoiseMixture(gaussian_std=0.001) if noise else NoiseMixture()
    return SensorConfig(
        large_error=(pos_err,) * 3 + (LargeErrorModel(),) * 3,
        position_noise=(mix,) * 6,
        velocity_noise=(vmix,) * 6,
    )


def hover_config(**kw) -> ScenarioConfig:
    base = dict(
        duration=10.0,
        trajectory=TrajectorySpec(kind="hover", altitude=0.0),
        sensors=quiet_sensors(),
        uncertainty=UncertaintyModel(),
        estimator_init="first_measurement",
        seed=3,
    )
    base.update(kw)
    return ScenarioConfig(**base)


FLIGHT_UNC = UncertaintyModel(
    drag=(0.01, 0.01, 0.01, 0.012, 0.012, 0.012),
    delta_sinusoids=(
        ((0.3, 1.0, 0.0), (0.2, 0.5, math.pi / 2)),
        ((0.2, 0.5, 0.0), (0.5, 1.0, math.pi / 2)),
        ((0.4, 0.6, 0.0), (0.2, 1.0, math.pi / 2)),
        (), (), (),
    ),
)


# ------------------------------------------------------------ basic runs

def test_hover_trim_exact():
    trace = run_scenario(hover_config())
    for a in ("x", "y", "z"):
        assert np.max(np.abs(trace.column(f"true_{a}"))) < 1e-6
    # exact trim: thrust balances gravity, everything else quiet
    assert np.allclose(trace.column("u_z"), 2.01 * 9.81, atol=1e-9)
    assert np.max(np.abs(trace.column("u_x"))) < 1e-9
    assert np.max(np.abs(trace.column("obs_vel_x"))) < 1e-9
    assert np.max(np.abs(trace.column("obs_sigma_z"))) < 1e-9


def test_trace_shape_and_sampling():
    cfg = hover_config(duration=1.0)
    trace = run_scenario(cfg)
    assert trace.data.shape == (101, len(TraceLog.COLUMNS))
    assert trace.time[0] == 0.0
    assert trace.time[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(trace.time), 0.01)


def test_determinism_bit_identical():
    cfg = hover_config(sensors=quiet_sensors(noise=True), duration=3.0)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert np.array_equal(a.data, b.data)


def test_seed_changes_trace():
    cfg = hover_config(sensors=quiet_sensors(noise=True), duration=2.0)
    a = run_scenario(cfg)
    b = run_scenario(replace(cfg, seed=cfg.seed + 1))
    assert not np.array_equal(a.data, b.data)


def test_csv_round_trip(tmp_path):
    cfg = hover_config(duration=1.0, sensors=quiet_sensors(noise=True))
    trace = run_scenario(cfg)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    back = TraceLog.from_csv(path)
    assert np.array_equal(back.data, trace.data)
    # identical bytes on rewrite
    trace.to_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_run_scenario_divergence_reports_tick():
    # An absurd constant disturbance overflows the state quickly.
    unc = UncertaintyModel(delta_constant=(1e308, 0, 0, 0, 0, 0))
    cfg = hover_config(uncertainty=unc, duration=1.0)
    with pytest.raises(SimulationDiverged) as err:
        run_scenario(cfg)
    assert "tick" in str(err.value)


def test_scenario_validation():
    with pytest.raises(ValueError):
        hover_config(dt=0.02)  # exceeds velocity period
    with pytest.raises(ValueError):
        hover_config(sample_interval=0.0033)
    with pytest.raises(ValueError):
        hover_config(duration=10.005)
    with pytest.raises(ValueError):
        hover_config(estimator_init="guess")
    with pytest.raises(ValueError):
        hover_config(initial_offset=(1.0,))


def test_estimator_init_modes():
    cfg = hover_config(sensors=quiet_sensors(d_pos=20.0), duration=1.0)
    trace = run_scenario(cfg)  # first_measurement: inherits the 20 m bias
    assert abs(trace.column("corr_x")[0] - 20.0) < 1e-9
    trace = run_scenario(replace(cfg, estimator_init="truth"))
    assert abs(trace.column("corr_x")[0]) < 1e-12


def test_bias_rejected_not_tracked():
    # With truth initialization the corrector must ignore the biased channel:
    # the estimate stays on the true state, not on y_o1.
    cfg = hover_config(sensors=quiet_sensors(d_pos=20.0), duration=5.0,
                       estimator_init="truth")
    trace = run_scenario(cfg)
    err = np.abs(trace.column("corr_x") - trace.column("true_x"))
    assert np.max(err) < 1e-6
    assert abs(trace.column("meas_y1_x")[-1] - 20.0) < 1e-9


# ------------------------------------------------------------- decoupling

def test_decoupling_check_passes():
    cfg = hover_config(sensors=quiet_sensors(noise=True), duration=2.0)
    report = decoupling_check(cfg)
    assert report.decoupled
    assert report.first_divergence == ""


def test_decoupling_zero_magnitude_reflexive():
    cfg = hover_config(duration=1.0)
    report = decoupling_check(cfg, magnitude=0.0)
    assert report.decoupled


def test_closed_loop_perturbation_does_propagate():
    # Without the command replay the observer perturbation feeds the control
    # loop and the corrector trace must change; the structural check holds
    # open loop by construction.
    cfg = hover_config(sensors=quiet_sensors(noise=True), duration=2.0)
    a = run_scenario(cfg)
    b = run_scenario(cfg, perturb=("observer", 1.0, 1.0))
    corr_cols = [f"corr_{n}" for n in ("x", "y", "z")]
    assert not np.array_equal(a.columns(corr_cols), b.columns(corr_cols))


# ---------------------------------------------------------------- metrics

def test_metrics_zero_error_case():
    cfg = hover_config(duration=2.0, estimator_init="truth")
    m = metrics(run_scenario(cfg), settle=1.0, scenario=cfg)
    for axis in ("x", "y", "z"):
        assert m["corrector"][axis]["max"] < 1e-9
        assert m["observer"][axis]["rms"] < 1e-6
    assert m["ekf"]["x"]["max"] < 1e-6


def test_metrics_requires_settle_before_end():
    cfg = hover_config(duration=2.0)
    trace = run_scenario(cfg)
    with pytest.raises(ValueError):
        metrics(trace, settle=2.5)


def test_metrics_keys_stable():
    cfg = hover_config(duration=2.0)
    m = metrics(run_scenario(cfg), settle=1.0)
    assert set(m) == {"settle", "duration", "corrector", "ekf", "observer", "drift"}
    assert set(m["corrector"]) == {"x", "y", "z", "psi", "theta", "phi"}
    assert set(m["ekf"]) == {"x", "y", "z"}
    assert m["observer"] == {}  # no scenario supplied


# ------------------------------------------------------------ studies

def test_convergence_study_monotone_and_rejecting():
    cfg = hover_config()
    result = convergence_study(cfg, [0.9, 0.7, 0.5, 0.3], d_const=20.0,
                               duration=30.0, settle=15.0)
    assert result.non_increasing("max_e1", slack=1e-6)
    # total rejection: every row sits at the numerical floor despite d = 20
    assert all(row["max_e1"] < 1e-6 for row in result.rows)


def test_convergence_study_zero_bias_floor():
    cfg = hover_config()
    result = convergence_study(cfg, [0.9, 0.5], d_const=0.0, duration=30.0,
                               settle=15.0)
    assert all(row["max_e1"] < 1e-3 and row["max_e2"] < 1e-3 for row in result.rows)


def test_convergence_study_validates_eps():
    with pytest.raises(ValueError):
        convergence_study(hover_config(), [0.5, 0.9])
    with pytest.raises(ValueError):
        convergence_study(hover_config(), [1.2])


def test_observer_ramp_study_monotone():
    result = observer_ramp_study([0.9, 0.7, 0.5, 0.3], duration=30.0, settle=15.0)
    assert result.non_increasing("max_e4", slack=1e-4)
    assert result.rows[0]["max_e4"] > result.rows[-1]["max_e4"]


# ------------------------------------------------------------------ sweep

def test_sweep_unknown_parameter():
    with pytest.raises(ValueError) as err:
        sweep_parameter(hover_config(), "bogus", [1.0])
    for name in SWEEPABLE_PARAMETERS:
        assert name in str(err.value)


def test_sweep_single_value():
    cfg = hover_config(duration=2.0)
    res = sweep_parameter(cfg, "eps_c", [0.8], settle=1.0)
    assert len(res.rows) == 1
    assert res.rows[0]["eps_c"] == 0.8


def test_sweep_large_error_bound_monotone():
    # With estimators started from the first (biased) fix, the frozen initial
    # error tracks the bias magnitude, so the steady error is non-decreasing
    # in the error bound.
    cfg = hover_config(duration=4.0, sensors=quiet_sensors(d_pos=5.0))
    res = sweep_parameter(cfg, "L_d", [5.0, 10.0, 20.0], settle=2.0)
    col = res.column("corrector_max")
    assert all(b >= a - 1e-9 for a, b in zip(col, col[1:]))
    assert col[-1] > col[0] + 5.0


def test_sweep_parallel_matches_serial():
    cfg = hover_config(duration=2.0, sensors=quiet_sensors(noise=True))
    serial = sweep_parameter(cfg, "eps_o", [0.9, 0.6], settle=1.0)
    parallel = sweep_parameter(cfg, "eps_o", [0.9, 0.6], settle=1.0, jobs=2)
    assert serial.rows == parallel.rows


# ------------------------------------------- perfect-information control

def test_ideal_closed_loop_matches_analytic():
    offsets = [1.0, 0.5, -0.3, 0.02, -0.02, 0.01]
    times, errors = ideal_tracking_errors(
        UavParams(), FLIGHT_UNC, ControlGains(),
        TrajectorySpec(kind="hover", altitude=0.0),
        offsets + [0.0] * 6, duration=10.0)
    l1 = (-4.0 + math.sqrt(6.0)) / 2.0
    l2 = (-4.0 - math.sqrt(6.0)) / 2.0
    for i, e0 in enumerate(offsets):
        c2 = -l1 * e0 / (l2 - l1)
        c1 = e0 - c2
        analytic = c1 * np.exp(l1 * times) + c2 * np.exp(l2 * times)
        assert np.max(np.abs(errors[:, i] - analytic)) < 1e-6


def test_ideal_closed_loop_independent_of_disturbance_set():
    # Exact uncertainty cancellation: two different disturbance sets leave
    # the tracking-error trace unchanged (to rounding).
    other = UncertaintyModel(
        drag=(0.03, 0.005, 0.02, 0.01, 0.02, 0.001),
        delta_sinusoids=(((0.7, 2.0, 0.3),), ((0.1, 0.8, 0.0),), (), (), (), ()),
    )
    offsets = [0.5, -0.5, 0.25] + [0.0] * 9
    _, e1 = ideal_tracking_errors(UavParams(), FLIGHT_UNC, ControlGains(),
                                  TrajectorySpec(kind="hover", altitude=0.0),
                                  offsets, duration=5.0)
    _, e2 = ideal_tracking_errors(UavParams(), other, ControlGains(),
                                  TrajectorySpec(kind="hover", altitude=0.0),
                                  offsets, duration=5.0)
    assert np.max(np.abs(e1 - e2)) < 1e-9


def test_truth_fed_discrete_loop_close_to_analytic():
    # The production loop holds the command over each tick, which adds a
    # first-order-in-dt lag to the ideal error dynamics; at 1 ms it stays
    # within a few 1e-4 of the analytic solution.
    cfg = hover_config(duration=10.0, control_source="truth",
                       uncertainty_feed="truth", uncertainty=FLIGHT_UNC,
                       initial_offset=(1.0,) + (0.0,) * 11)
    trace = run_scenario(cfg)
    l1 = (-4.0 + math.sqrt(6.0)) / 2.0
    l2 = (-4.0 - math.sqrt(6.0)) / 2.0
    c2 = -l1 * 1.0 / (l2 - l1)
    c1 = 1.0 - c2
    analytic = c1 * np.exp(l1 * trace.time) + c2 * np.exp(l2 * trace.time)
    err = trace.column("true_x") - trace.column("des_x")
    assert np.max(np.abs(err - analytic)) < 1e-3


# ------------------------------------------------------------ golden traces
# SHA-256 of the raw trace samples, recorded with the straightforward
# (pre-kernel) tick loop.  Any change to the floating-point operations of a
# per-tick stage, their order, or the numeric types they see shows up here.

GOLDEN = {
    "paper_sec6_10s": "477e890e03209533f314c0a601dc37cde0462d5f101912a0a18ce27b4c0e44cf",
    "noise_only_10s": "ff3b14bac6639b3bf901fbed3e4d925c30c81c284f1a6e8687ef4b2cd919d6ca",
    "init_truth": "d8b7b00cd6b5a99828d40edaeb810fac9c2aa29d3a6fdd8eda1053b01c5e9437",
    "init_first_measurement":
        "7e9092d262fb6473780e39c7218aec2bc2d85c00866e44d02d7777684d72c780",
    "control_truth": "466367d60f0576fdc1dbe9f6fa646bb136e918545fc47ed195b3ff0a340f6c6a",
    "feed_truth": "7601274c6f4101d0110e76efb7ebd7097a3fcdf6f62dff6e5b81fb4480fc3d5d",
    "feed_zero": "c77146d13017ba6ce580772c98bba29b52bcd74b798c8cc7f88a3802fe85388b",
    "hover": "af89600d80020564f32a6fe5951f8ce629cecf7371fa27872878f7d34ded9ef7",
    "substeps1": "2a8064e188eaf0a31609b8a8dcfca5ec9ddd84ef2cdb374e115b2027edcdf77c",
    "record_controls": "b5331e2057d1be307b60f97b123dbb7feae7fd89142113e5d4267ab7f05caf64",
    "replay_observer": "dd7f63db1aff57742e191c9e145f18a33c0f1a7250242b01648b9b5dac1a02c1",
    "replay_corrector": "f79c0d3e565c3f45504608b7f1666ac0bf0e04f989821f107ac23ab8c831aa2a",
}


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def sec6():
    return load_scenario(bundled_config_path("paper_sec6"))


@pytest.mark.parametrize("name", ["paper_sec6", "noise_only"])
def test_golden_trace_bundled_10s(name):
    cfg = replace(load_scenario(bundled_config_path(name)), duration=10.0)
    assert _digest(run_scenario(cfg).data) == GOLDEN[f"{name}_10s"]


@pytest.mark.parametrize("key,change", [
    ("init_truth", dict(estimator_init="truth")),
    ("init_first_measurement", dict(estimator_init="first_measurement")),
    ("control_truth", dict(control_source="truth")),
    ("feed_truth", dict(uncertainty_feed="truth")),
    ("feed_zero", dict(uncertainty_feed="zero")),
    ("hover", dict(trajectory=TrajectorySpec(kind="hover", altitude=1.0))),
    ("substeps1", dict(corrector_substeps=1)),
])
def test_golden_trace_loop_branches(sec6, key, change):
    cfg = replace(sec6, duration=1.0, **change)
    assert _digest(run_scenario(cfg).data) == GOLDEN[key]


def test_golden_trace_record_and_replay(sec6):
    cfg = replace(sec6, duration=1.0)
    trace, controls = run_scenario(cfg, record_controls=True)
    assert _digest(trace.data) == GOLDEN["init_truth"]
    assert _digest(controls) == GOLDEN["record_controls"]
    for target in ("observer", "corrector"):
        replayed = run_scenario(cfg, control_replay=controls,
                                perturb=(target, 0.5, 1.0))
        assert _digest(replayed.data) == GOLDEN[f"replay_{target}"]
