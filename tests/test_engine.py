from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from corrobs import (AxisMeasurement, CircleTrajectory, ConfigError, ControlGains,
                     CorrectorState, EkfState, LargeErrorModel, NoiseMixture,
                     ObserverParams, ObserverState, ScenarioConfig,
                     SensorConfig, SensorSuite, SimulationDiverged, TraceLog,
                     TrajectorySpec, UavParams, UncertaintyModel,
                     bundled_config_path, convergence_study, decoupling_check,
                     engine, falpha, filtering_advice, load_scenario, metrics,
                     observer_ramp_study, omega_coefficient, run_scenario,
                     sweep_parameter, tune_ekf_process_noise)
from corrobs.engine import SWEEPABLE_PARAMETERS
from corrobs.plant import AXIS_NAMES
from oracles import ideal_tracking_errors, predicted_drift_ratio, velocity_noise_walk


def quiet_sensors(d_pos=0.0, noise=False) -> SensorConfig:
    pos_err = LargeErrorModel(constant=d_pos, bound=abs(d_pos)) if d_pos else LargeErrorModel()
    mix = NoiseMixture(gaussian_std=0.02) if noise else NoiseMixture()
    vmix = NoiseMixture(gaussian_std=0.001) if noise else NoiseMixture()
    return SensorConfig(
        large_error=(pos_err, LargeErrorModel()),
        position_noise=(mix,) * 2,
        velocity_noise=(vmix,) * 2,
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


def test_trace_row_follows_the_column_layout():
    # Every input value is distinct, so each column must pick its own.
    s = [float(i) for i in range(12)]
    frame = [AxisMeasurement(100.0 + a, 110.0 + a, True) for a in range(6)]
    corr = [CorrectorState(200.0 + a, 210.0 + a) for a in range(6)]
    obs = [ObserverState(300.0 + a, 310.0 + a) for a in range(6)]
    kf = EkfState((400.0, 401.0, 402.0), (410.0, 411.0, 412.0), 1.0, 0.0, 1.0)
    wrench = [500.0 + a for a in range(6)]
    des = [600.0 + a for a in range(6)]
    row = dict(zip(TraceLog.COLUMNS,
                   engine.trace_row(0.5, s, frame, corr, obs, kf, wrench, des), strict=True))
    assert row["time"] == 0.5
    for a, n in enumerate(AXIS_NAMES):
        assert (row[f"true_{n}"], row[f"true_v{n}"]) == (s[a], s[6 + a])
        assert (row[f"meas_y1_{n}"], row[f"meas_y2_{n}"]) == frame[a][:2]
        assert (row[f"corr_{n}"], row[f"corr_v{n}"]) == corr[a]
        assert (row[f"obs_vel_{n}"], row[f"obs_sigma_{n}"]) == obs[a]
        assert (row[f"u_{n}"], row[f"des_{n}"]) == (wrench[a], des[a])
    for a, n in enumerate(AXIS_NAMES[:3]):
        assert (row[f"ekf_{n}"], row[f"ekf_v{n}"]) == (kf.pos[a], kf.vel[a])


def test_run_scenario_logs_each_row_through_trace_row(monkeypatch, sec6):
    rows = []

    def recording(*args):
        rows.append(trace_row(*args))
        return rows[-1]

    trace_row = engine.trace_row
    monkeypatch.setattr(engine, "trace_row", recording)
    trace = run_scenario(replace(sec6, duration=0.5))
    assert np.array_equal(trace.data, np.array(rows))


def test_run_scenario_divergence_reports_tick():
    # An absurd constant disturbance overflows the state quickly.
    unc = UncertaintyModel(delta_sinusoids=(((1e308, 0.0, math.pi / 2),),) + ((),) * 5)
    cfg = hover_config(uncertainty=unc, duration=1.0)
    with pytest.raises(SimulationDiverged) as err:
        run_scenario(cfg)
    assert "tick" in str(err.value)


def test_observer_divergence_names_tick_and_stage(sec6):
    # Gains this large overflow the observer's first step.
    cfg = replace(sec6, duration=0.1, observers=(ObserverParams(1e300, 1e300, 0.6, 0.5),) * 2)
    with pytest.raises(SimulationDiverged, match=r"^divergence at tick 0 \(t=0\.000 s\) in the "
                       r"observer stage: observer step produced a non-finite state$"):
        run_scenario(cfg)


# The public steppers the loop must call on every tick (per-run locals bound
# from these attributes), with their calls per simulated tick.
LOOP_STEPPERS = {"position_control": 1, "attitude_control": 1, "uncertainty_rescale": 1,
                 "input_acceleration_scalars": 1, "step_plant": 1, "ekf_predict": 1,
                 "step_corrector": 6, "step_observer": 6}


def test_run_scenario_calls_the_public_steppers(monkeypatch, sec6):
    calls = dict.fromkeys([*LOOP_STEPPERS, "point"], 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in LOOP_STEPPERS:
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    monkeypatch.setattr(CircleTrajectory, "point", counting("point", CircleTrajectory.point))
    cfg = replace(sec6, duration=0.5)
    n = int(round(cfg.duration / cfg.dt))
    run_scenario(cfg)
    # Control runs on the n + 1 logged ticks, the steppers on the n steps
    # between them; the trajectory also gives the start state.
    expected = {name: per_tick * n for name, per_tick in LOOP_STEPPERS.items()}
    for name in ("position_control", "attitude_control", "uncertainty_rescale"):
        expected[name] += 1
    expected["point"] = n + 2
    assert calls == expected


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


def test_tick_count_past_the_cap_is_refused_at_build(sec6):
    # Built and checked only: a run of a refused config would not end.
    assert engine.MAX_TICKS == 10**9
    replace(sec6, duration=1e6, sample_interval=1.0)     # 1e9 ticks of 1 ms: at the cap
    for change in (dict(duration=1e6 + 0.01), dict(dt=1e-300), dict(duration=1e300)):
        with pytest.raises(ValueError, match=r"^duration / dt must be at most 1000000000 "
                                             r"ticks, not "):
            replace(sec6, **change)


def test_trace_rows_past_the_cap_are_refused_at_build(sec6):
    # Built and checked only: a refused config's trace would not fit in memory.
    assert engine.MAX_ROWS == 10**7
    replace(sec6, duration=99999.99)     # 1e7 rows of 10 ms: at the cap
    for duration in (1e5, 1e6):
        with pytest.raises(ValueError, match=r"^duration / sample_interval \+ 1 must be at "
                                             r"most 10000000 trace rows, not "):
            replace(sec6, duration=duration)


def test_decoupling_check_refuses_a_recording_past_the_row_cap(sec6):
    # 2e6 rows of 10 ms build; the every-tick recording would hold 2e7 rows.
    with pytest.raises(ConfigError, match=r"^the decoupling check records a row every dt: "
                                          r"duration / sample_interval \+ 1 must be at most "):
        decoupling_check(replace(sec6, duration=2e4))


def test_duration_off_a_whole_multiple_is_refused_at_build(sec6):
    # 2.00000075 sample intervals: once built, and then refused by the run.
    with pytest.raises(ValueError,
                       match="^duration must be a whole multiple of sample_interval$"):
        replace(sec6, sample_interval=2.0, duration=4.0000015)


def test_sensor_period_off_a_whole_multiple_of_dt_is_refused_at_build(sec6):
    with pytest.raises(ValueError,
                       match="^sensors.position_period must be a whole multiple of dt$"):
        replace(sec6, dt=0.003)


def test_position_period_off_the_velocity_grid_is_refused_at_build(sec6):
    # The EKF bank absorbs a position sample only on a velocity tick: at
    # 15 ms against 10 ms, every other sample would never reach it.
    with pytest.raises(ValueError, match="^sensors.position_period must be a whole multiple "
                                         "of sensors.velocity_period$"):
        replace(sec6, sensors=replace(sec6.sensors, position_period=0.015))
    replace(sec6, sensors=replace(sec6.sensors, position_period=0.02))


@pytest.mark.parametrize("group", [0, 1], ids=["position", "attitude"])
def test_large_error_walk_period_below_dt_is_refused_at_build(sec6, group):
    # The walk steps once per period up to each sample time, so a 1e-6 s
    # period would take 1 000 walk steps a tick.  One step a tick is allowed.
    name = ("position", "attitude")[group]

    def with_period(period):
        models = list(sec6.sensors.large_error)
        models[group] = replace(models[group], walk_period=period)
        return replace(sec6, sensors=replace(sec6.sensors, large_error=tuple(models)))

    for period in (1e-6, 0.999 * sec6.dt):
        with pytest.raises(ValueError, match=f"^sensors.{name}_large_error.walk_period "
                                             "must be at least dt$"):
            with_period(period)
    assert with_period(sec6.dt).sensors.large_error[group].walk_period == sec6.dt


@pytest.mark.parametrize("seed", [1.5, True], ids=["1.5", "True"])
def test_scenario_refuses_a_seed_that_is_not_an_integer(sec6, seed):
    # 1.5 would fail in the sensors' seed streams; True would run as seed 1
    # and be saved as `true`.
    with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, not {seed}$"):
        replace(sec6, seed=seed)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -0.01])
def test_bad_sample_interval_is_named(sec6, value):
    with pytest.raises(ValueError, match="sample_interval"):
        replace(sec6, sample_interval=value)


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


def _leaky_steppers(monkeypatch, leak_into: str):
    """Wrap the engine's two steppers so that each remembers its last output
    and the bank ``leak_into`` adds 1e-15 times the other bank's last
    uncertainty or position estimate to its own state: a leak through a
    closure that no argument of the steppers shows."""
    step_corrector, step_observer = engine.step_corrector, engine.step_observer
    last = {"corrector": 0.0, "observer": 0.0}

    def corrector(state, meas, p, dt):
        out = step_corrector(state, meas, p, dt)
        if leak_into == "corrector":
            out = CorrectorState(out.xhat1 + 1e-15 * last["observer"], out.xhat2)
        last["corrector"] = out.xhat1
        return out

    def observer(state, y_o2, h, p, dt):
        out = step_observer(state, y_o2, h, p, dt)
        if leak_into == "observer":
            out = ObserverState(out.xhat3, out.xhat4 + 1e-15 * last["corrector"])
        last["observer"] = out.xhat4
        return out

    monkeypatch.setattr(engine, "step_corrector", corrector)
    monkeypatch.setattr(engine, "step_observer", observer)


@pytest.mark.parametrize("leak_into, columns", [
    ("corrector", ("corr_", "corr_v")),
    ("observer", ("obs_vel_", "obs_sigma_")),
], ids=["into_corrector", "into_observer"])
def test_decoupling_check_finds_a_leak_between_the_banks(sec6, monkeypatch, leak_into,
                                                         columns):
    _leaky_steppers(monkeypatch, leak_into)
    report = decoupling_check(replace(sec6, duration=1.0))
    assert not report.decoupled
    assert report.corrector_unaffected == (leak_into != "corrector")
    assert report.observer_unaffected == (leak_into != "observer")
    prefix = f"{leak_into} trace diverges at t="
    assert report.first_divergence.startswith(prefix)
    column = report.first_divergence.rsplit(", column ", 1)[1]
    assert column in [p + a for p in columns for a in AXIS_NAMES]


# ---------------------------------------------------------------- metrics

def test_metrics_zero_error_case():
    cfg = hover_config(duration=2.0, estimator_init="truth")
    m = metrics(run_scenario(cfg), settle=1.0, scenario=cfg)
    for axis in ("x", "y", "z"):
        assert m["corrector"][axis]["max"] < 1e-9
        assert m["observer"][axis]["rms"] < 1e-6
    assert m["ekf"]["x"]["max"] < 1e-6


def test_metrics_rms_of_huge_errors_is_finite():
    # Squares of errors past about 1e154 overflow; the RMS of a finite
    # column stays finite, here exact, and raises no floating-point warning.
    data = np.zeros((11, len(TraceLog.COLUMNS)))
    data[:, 0] = np.linspace(0.0, 1.0, 11)
    data[:, TraceLog.COLUMNS.index("corr_x")] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = metrics(TraceLog(data), settle=0.0, scenario=ScenarioConfig())
    assert m["corrector"]["x"] == {"max": 1e200, "rms": 1e200}


def test_metrics_requires_settle_before_end():
    cfg = hover_config(duration=2.0)
    trace = run_scenario(cfg)
    with pytest.raises(ValueError):
        metrics(trace, settle=2.5, scenario=cfg)


def test_metrics_keys_stable():
    cfg = hover_config(duration=2.0)
    m = metrics(run_scenario(cfg), settle=1.0, scenario=cfg)
    assert set(m) == {"settle", "duration", "corrector", "ekf", "observer", "drift"}
    assert set(m["corrector"]) == {"x", "y", "z", "psi", "theta", "phi"}
    assert set(m["ekf"]) == {"x", "y", "z"}
    assert set(m["observer"]) == set(m["corrector"])


# ------------------------------------------------------------ studies

def test_convergence_study_monotone_and_rejecting():
    cfg = hover_config()
    result = convergence_study(cfg, [0.9, 0.7, 0.5, 0.3], duration=30.0, settle=15.0)
    assert result.non_increasing("max_e1", slack=1e-6)
    # total rejection despite d = 20: the 10 ms velocity hold, not eps_c, sets every row
    assert all(row["max_e1"] < 1e-6 for row in result.rows)
    assert all(row["max_e2"] < 1e-3 for row in result.rows)


def test_convergence_study_validates_eps():
    with pytest.raises(ValueError):
        convergence_study(hover_config(), [0.5, 0.9])
    with pytest.raises(ValueError):
        convergence_study(hover_config(), [1.2])


@pytest.mark.parametrize("study", [
    lambda eps: convergence_study(hover_config(), eps),
    observer_ramp_study,
], ids=["convergence_study", "observer_ramp_study"])
@pytest.mark.parametrize("eps, message", [
    ([0.5, 1.0], r"eps_values must be in \(0, 1\)"),
    ([0.5, 0.5], "eps_values must be strictly descending"),
])
def test_studies_refuse_bad_eps_lists(study, eps, message):
    with pytest.raises(ValueError, match=message):
        study(eps)


@pytest.mark.parametrize("study", [
    lambda **kw: convergence_study(hover_config(), [0.9, 0.5], **kw),
    lambda **kw: observer_ramp_study([0.9, 0.5], **kw),
], ids=["convergence_study", "observer_ramp_study"])
def test_studies_refuse_a_settle_that_leaves_no_sample(study):
    # A study that measured nothing must not report perfect estimates.
    with pytest.raises(ConfigError, match=r"^no trace sample in the settle window \[2, inf\) s"):
        study(duration=1.0, settle=2.0)


def test_observer_ramp_study_refuses_an_off_grid_duration():
    with pytest.raises(ValueError, match="^duration must be a whole multiple of dt$"):
        observer_ramp_study([0.9], duration=1.0005, settle=0.5)


def ramp_study(**kw):
    return lambda: observer_ramp_study([0.9], **{"duration": 1.0, "settle": 0.5, **kw})


@pytest.mark.parametrize("build, message", [
    (ramp_study(dt=0.0), "dt must be positive and finite, not 0.0"),
    (ramp_study(dt=-1e-3), "dt must be positive and finite, not -0.001"),
    (ramp_study(dt=math.nan), "dt must be positive and finite, not nan"),
    (ramp_study(duration=math.inf), "duration must be positive and finite, not inf"),
    (ramp_study(duration=math.nan), "duration must be positive and finite, not nan"),
    (lambda: SensorSuite(SensorConfig(), 1, 0.0), "dt must be positive and finite, not 0.0"),
], ids=["ramp dt=0", "ramp dt<0", "ramp dt=nan", "ramp duration=inf", "ramp duration=nan",
        "sensor suite dt=0"])
def test_a_tick_count_of_a_bad_interval_or_step_is_refused_by_name(build, message):
    # `whole_multiple` checks both numbers before it divides one by the other.
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("eps, message", [
    (1e-170, "eps_o=1e-170: eps_o gives eps_o^2 = 0.0; it must be finite and nonzero"),
    (1e-160, "eps_o=1e-160: k3 gives k3/eps_o^2 = inf; it must be finite and nonzero"),
], ids=["1e-170", "1e-160"])
def test_observer_ramp_study_refuses_an_unusable_eps_before_the_first_step(
        monkeypatch, eps, message):
    steps, step = [], engine.step_observer

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(engine, "step_observer", counted)
    with pytest.raises(ConfigError) as err:
        observer_ramp_study([0.9, eps], duration=1.0, settle=0.5)
    assert str(err.value) == message
    assert steps == []


def test_observer_ramp_study_monotone():
    result = observer_ramp_study([0.9, 0.7, 0.5, 0.3], duration=30.0, settle=15.0)
    assert result.non_increasing("max_e4", slack=1e-4)
    assert result.rows[0]["max_e4"] > result.rows[-1]["max_e4"]


def test_tune_ekf_process_noise_returns_grid_in_order_and_argmin():
    cfg = replace(load_scenario(bundled_config_path("noise_only")), duration=4.0)
    q_values = [1e-4, 1e-6, 1e-2]   # the smallest RMS is not at either end
    best, rows = tune_ekf_process_noise(cfg, q_values, settle=2.0)
    assert [row["q"] for row in rows] == q_values
    for row in rows:
        run_cfg = replace(cfg, ekf=replace(cfg.ekf, q=row["q"]))
        summary = metrics(run_scenario(run_cfg), 2.0, run_cfg)
        mean_rms = sum(summary["ekf"][a]["rms"] for a in ("x", "y", "z")) / 3.0
        assert row["ekf_mean_rms"] == pytest.approx(mean_rms, rel=1e-15, abs=0.0)
    assert len({row["ekf_mean_rms"] for row in rows}) == 3
    assert best == min(rows, key=lambda row: row["ekf_mean_rms"])["q"]


# ------------------------------------------------------------------ sweep

def test_sweep_unknown_parameter():
    with pytest.raises(ConfigError) as err:
        sweep_parameter(hover_config(), "bogus", [1.0])
    assert str(err.value).startswith("parameter must be one of 'eps_c', ")
    assert str(err.value).endswith(", not 'bogus'")
    for name in SWEEPABLE_PARAMETERS:
        assert name in str(err.value)


def test_sweep_refusals_are_config_errors_naming_the_value():
    cfg = hover_config(duration=1.0)
    with pytest.raises(ConfigError, match="jobs"):
        sweep_parameter(cfg, "eps_o", [0.5], jobs=0)
    with pytest.raises(ConfigError) as err:
        sweep_parameter(cfg, "eps_c", [0.5, 1.5], settle=0.5)
    assert str(err.value) == "eps_c=1.5: eps_c must be in (0, 1), not 1.5"


def counted_runs(monkeypatch) -> list:
    """Replace `engine.run_scenario` with one that records each config it runs."""
    runs, run = [], engine.run_scenario

    def counted(cfg):
        runs.append(cfg)
        return run(cfg)

    monkeypatch.setattr(engine, "run_scenario", counted)
    return runs


def test_tune_refuses_a_bad_q_before_the_first_run(monkeypatch):
    runs = counted_runs(monkeypatch)
    with pytest.raises(ConfigError) as err:
        tune_ekf_process_noise(hover_config(duration=1.0), [1e-4, 1e-6, -1.0], settle=0.5)
    assert str(err.value) == "q=-1.0: q must be positive and finite, not -1.0"
    assert runs == []


@pytest.mark.parametrize("study", [
    lambda: sweep_parameter(hover_config(), "eps_c", []),
    lambda: convergence_study(hover_config(), []),
    lambda: observer_ramp_study([]),
    lambda: tune_ekf_process_noise(hover_config(), []),
], ids=["sweep_parameter", "convergence_study", "observer_ramp_study",
        "tune_ekf_process_noise"])
def test_an_empty_value_list_is_refused(monkeypatch, study):
    # An empty result would pass `non_increasing` without measuring anything.
    runs = counted_runs(monkeypatch)
    with pytest.raises(ValueError, match=r"values must hold at least one entry, not 0$"):
        study()
    assert runs == []


def test_metrics_window_without_a_sample_is_a_config_error():
    # Rows 0.01 s apart: the drift reference window [0.025, 0.0275) holds none.
    cfg = hover_config(duration=0.05)
    trace = run_scenario(cfg)
    with pytest.raises(ConfigError) as err:
        metrics(trace, settle=0.025, scenario=cfg)
    assert str(err.value) == ("no trace sample in the drift reference window "
                              "[0.025, 0.0275) s of the 0.05 s trace")
    with pytest.raises(ConfigError, match="steady-state window"):
        metrics(trace, settle=0.06, scenario=cfg)


_SINUSOID = "(amplitude, angular frequency, phase)"

# Refusals that only Python code can reach (a document cannot hold these
# values), each with its one-line message, which opens with the field name.
PYTHON_ONLY_REFUSALS = [
    ("delta_sinusoid_of_two",
     lambda: UncertaintyModel(delta_sinusoids=(((0.3, 1.0),),) + ((),) * 5),
     f"delta_sinusoids[0][0] must hold 3 entries, {_SINUSOID}, not 2"),
    ("sinusoid_of_four",
     lambda: UncertaintyModel(delta_sinusoids=((), ((0.3, 1.0, 0.0, 2.0),)) + ((),) * 4),
     f"delta_sinusoids[1][0] must hold 3 entries, {_SINUSOID}, not 4"),
    ("empty_sinusoid",
     lambda: UncertaintyModel(delta_sinusoids=(((0.3, 1.0, 0.0), ()),) + ((),) * 5),
     f"delta_sinusoids[0][1] must hold 3 entries, {_SINUSOID}, not 0"),
    ("initial_offset", lambda: hover_config(initial_offset=(1.0,)),
     "initial_offset must hold 12 entries, one per state, not 1"),
    ("falpha_alpha", lambda: falpha(1.0, 1.5), "alpha must be in (0, 1], not 1.5"),
    ("falpha_v", lambda: falpha(math.inf, 0.5), "v must be finite, not inf"),
    ("omega_coefficient", lambda: omega_coefficient(0.0), "alpha must be in (0, 1], not 0.0"),
    ("filtering_advice", lambda: filtering_advice(ScenarioConfig().observers[0], "extreme"),
     "noise_level must be one of 'none', 'low', 'moderate', 'high', not 'extreme'"),
]


@pytest.mark.parametrize("build, message", [case[1:] for case in PYTHON_ONLY_REFUSALS],
                         ids=[case[0] for case in PYTHON_ONLY_REFUSALS])
def test_python_only_refusal_is_one_message_naming_its_field(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("field", ["radius", "speed", "altitude", "climb_time"])
def test_circle_trajectory_spec_is_refused_at_build_naming_its_field(field):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite, not 0.0$"):
        TrajectorySpec(**{field: 0.0})


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


@pytest.mark.parametrize("values, pools", [([0.8], []), ([0.9, 0.6], [2])])
def test_sweep_never_starts_more_workers_than_values(monkeypatch, values, pools):
    import concurrent.futures
    made = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    res = sweep_parameter(hover_config(duration=1.0), "eps_o", values, settle=0.5, jobs=3)
    assert made == pools
    assert [row["eps_o"] for row in res.rows] == values


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
    "hover": "af89600d80020564f32a6fe5951f8ce629cecf7371fa27872878f7d34ded9ef7",
    "record_controls": "b5331e2057d1be307b60f97b123dbb7feae7fd89142113e5d4267ab7f05caf64",
    # The post-run paths, recorded before the uncertainty force and the
    # plant acceleration each moved to a single function: `metrics` of the
    # paper_sec6 10 s run (its observer section evaluates the true force per
    # row) and the (times, errors) of `ideal_tracking_errors`.
    "metrics_paper_sec6_10s":
        "64ab64857383b2ad40e18efa7c11063d5399a3e6cad8450054d3e082cc96b9c2",
    "ideal_hover": "b9766e2ba4d54832786d0f3ce9c568fc7f1106f912d2288ef55b803cee8db139",
    "ideal_circle": "7b6b20a8f56f0405c1ba4c06294ce2327add0cec8361cfc0193ddb5987d118f5",
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


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
    ("hover", dict(trajectory=TrajectorySpec(kind="hover", altitude=1.0))),
])
def test_golden_trace_loop_branches(sec6, key, change):
    cfg = replace(sec6, duration=1.0, **change)
    assert _digest(run_scenario(cfg).data) == GOLDEN[key]


def test_golden_trace_record_and_replay(sec6):
    # A trace sampled every tick, as `decoupling_check` records and replays
    # it, records the commands in its u_ columns; its every 10th row is the
    # trace at the scenario's own 10 ms interval.
    cfg = replace(sec6, duration=1.0)
    trace = run_scenario(replace(cfg, sample_interval=cfg.dt))
    controls = trace.columns([f"u_{a}" for a in AXIS_NAMES])
    assert _digest(trace.data[::10]) == GOLDEN["init_truth"]
    assert _digest(controls) == GOLDEN["record_controls"]


def test_golden_metrics_bundled_10s(sec6):
    cfg = replace(sec6, duration=10.0)
    summary = metrics(run_scenario(cfg), 5.0, scenario=cfg)
    digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN["metrics_paper_sec6_10s"]


@pytest.mark.parametrize("key,spec", [
    ("ideal_hover", TrajectorySpec(kind="hover", altitude=1.0)),
    ("ideal_circle", TrajectorySpec(kind="circle", radius=2.0, speed=1.0,
                                    altitude=2.0, climb_time=1.0)),
])
def test_golden_ideal_tracking_errors(key, spec):
    offsets = [0.5, -0.4, 0.3, 0.02, -0.03, 0.01, 0.1, -0.1, 0.05, 0.01, 0.0, -0.01]
    times, errors = ideal_tracking_errors(UavParams(), FLIGHT_UNC, ControlGains(), spec,
                                          offsets, duration=3.0)
    assert _digest(times, errors) == GOLDEN[key]


# Measured on `paper_sec6` over 60 s, on its bundled seed and on seeds 1-5:
# max |corr - true - w| exceeds max|true_v| * T_v / 2 by at most 0.05 mm on
# x and z and 0.38 mm on y.
WALK_REMAINDER_MARGIN = 0.5e-3


@pytest.fixture(scope="module")
def sec6_walk(sec6):
    """The bundled 60 s paper_sec6 flight; per velocity sample, the noise n
    of the x, y and z samples and the walk w (`velocity_noise_walk`); and
    per trace row, the index of its sample."""
    trace = run_scenario(sec6)
    noise, walk = velocity_noise_walk(sec6)
    hold = sec6.sensors.velocity_period
    sample = np.rint(trace.column("time") / hold).astype(int)    # rows fall on sample ticks
    return trace, noise, walk, sample


def test_corrector_error_is_the_velocity_noise_walk_plus_the_hold_lag(sec6, sec6_walk):
    # The corrector's velocity state is slaved to the held velocity sample
    # y_o2 = v + n, so its position estimate dead-reckons the noise: it adds
    # the walk w, and lags the true motion by at most v_max * T_v / 2 for a
    # sample held over T_v.
    trace, noise, walk, sample = sec6_walk
    hold = sec6.sensors.velocity_period
    t = trace.column("time")
    hover = t >= sec6.trajectory.climb_time
    for i, a in enumerate(AXIS_NAMES[:3]):
        true_v = trace.column(f"true_v{a}")
        assert np.allclose(trace.column(f"meas_y2_{a}") - true_v, noise[sample, i],
                           rtol=0.0, atol=1e-15)
        error = trace.column(f"corr_{a}") - trace.column(f"true_{a}")
        lag = np.max(np.abs(true_v)) * hold / 2
        assert np.max(np.abs(error - walk[sample, i])) <= lag + WALK_REMAINDER_MARGIN, a
    # After the climb the vehicle hovers in z, so the lag there is near 0 and
    # the walk is the error: the bound holds only with the walk taken out.
    error = (trace.column("corr_z") - trace.column("true_z"))[hover]
    lag = np.max(np.abs(trace.column("true_vz")[hover])) * hold / 2
    assert np.max(np.abs(error - walk[sample[hover], 2])) <= lag + 0.05e-3
    assert np.max(np.abs(error)) > lag + WALK_REMAINDER_MARGIN


# Least-squares fit of corr - true - w = c0 + c1 * v_true + r from 20 s on,
# measured on the bundled paper_sec6 flight (x, y, z):
#   c1 = -5.043, -5.042, -5.075 ms;  c0 = -0.001, -0.327, +0.003 mm;
#   max |r| = 13.9, 10.2, 8.4 um.
# Seeds 2 and 4 agree to within 0.011 mm on c0 and 1.7 um on max |r| on x and
# y, and 100 s flights of seed 2 and the bundled seed reach at most 20 um.  The
# vehicle hovers in z after the climb, so c1 is poorly determined there and
# is not pinned.
LAG_EXCESS_MARGIN = 0.1e-3     # s, on c1 against -T_v/2
C0_MARGIN = 0.02e-3            # m, on c0 against 0 (x, z) or C0_Y
C0_Y = -0.33e-3                # m
REMAINDER_BOUND = 25e-6        # m, on max |r|


def test_corrector_error_is_walk_plus_hold_lag_plus_a_constant(sec6, sec6_walk):
    # Past the walk, the error is three terms: the hold lag c1 * v, with c1
    # the half-hold -T_v/2, a constant c0, and a remainder r of tens of um.
    trace, _, walk, sample = sec6_walk
    late = trace.column("time") >= 20.0
    fits = {}
    for i, a in enumerate(AXIS_NAMES[:3]):
        v = trace.column(f"true_v{a}")[late]
        error = (trace.column(f"corr_{a}") - trace.column(f"true_{a}"))[late]
        y = error - walk[sample[late], i]
        basis = np.column_stack([np.ones_like(v), v])
        (c0, c1), *_ = np.linalg.lstsq(basis, y, rcond=None)
        fits[a] = c0, c1, np.max(np.abs(y - basis @ np.array([c0, c1])))
    half_hold = sec6.sensors.velocity_period / 2
    for a in ("x", "y"):
        assert abs(fits[a][1] + half_hold) <= LAG_EXCESS_MARGIN, a
    for a, c0_expected in (("x", 0.0), ("y", C0_Y), ("z", 0.0)):
        c0, _, remainder = fits[a]
        assert abs(c0 - c0_expected) <= C0_MARGIN, a
        assert remainder <= REMAINDER_BOUND, a


# Criterion 3's ratio on the bundled paper_sec6 seed, as the 1000 s flight of
# tests/test_acceptance.py reads it.
CRITERION_3_FLOWN = 1.38


def test_criterion_3_is_predicted_from_the_velocity_noise_walk(sec6):
    # The walk plus the hold lag and the constant predicts the flown ratio in
    # about 2 s, where the flight takes 45 s: 1.39 against 1.38 flown.
    predicted = predicted_drift_ratio(replace(sec6, duration=1000.0))
    assert round(predicted, 2) == 1.39
    assert abs(predicted - CRITERION_3_FLOWN) <= 0.03
