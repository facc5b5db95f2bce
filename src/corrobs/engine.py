"""Closed-loop simulation: plant, sensors, estimators, control, EKF shadow.

One scenario advances everything on a shared fixed-step clock.  Per tick:
sensors sample (at their own rates, zero-order hold in between), the EKF
shadow filters absorb fresh measurements, the controller computes the wrench
from the current estimates, the trace row is logged, and then estimators and
plant integrate over the step with measurements and wrench held.

The EKF runs in shadow mode only: it sees the same measurements but never
drives control, so the comparison isolates estimation quality.  Everything
is deterministic given the scenario seed; identical configs produce byte-
identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from .control import (CircleTrajectory, ControlGains, HoverTrajectory,
                      attitude_control, position_control, uncertainty_rescale)
from .ekf import (EkfConfig, EkfDivergence, ekf_init, ekf_predict, ekf_update,
                  process_noise)
from .estimators import (AxisMeasurement, CorrectorParams, CorrectorState, ObserverParams,
                         ObserverState, step_corrector, step_observer)
from .plant import (AXIS_NAMES, ConfigError, UavParams, UncertaintyModel, check_range,
                    input_acceleration_scalars, per_axis, plant_axes, step_plant,
                    true_delta)
from .sensors import (LargeErrorModel, NoiseMixture, SensorConfig, SensorSuite,
                      whole_multiple)

__all__ = [
    "TrajectorySpec", "ScenarioConfig", "TraceLog", "SimulationDiverged",
    "run_scenario", "metrics", "SweepResult", "convergence_study",
    "observer_ramp_study", "decoupling_check", "DecouplingReport",
    "sweep_parameter", "SWEEPABLE_PARAMETERS", "tune_ekf_process_noise",
]


class SimulationDiverged(RuntimeError):
    """A subsystem produced a non-finite value; message names tick and subsystem."""


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _diverged(tick: int, t: float, stage: str, what) -> SimulationDiverged:
    return SimulationDiverged(f"divergence at tick {tick} (t={t:.3f} s) "
                              f"in the {stage} stage: {what}")


@dataclass(frozen=True)
class TrajectorySpec:
    kind: str = "circle"
    radius: float = 5.0
    speed: float = 1.0
    altitude: float = 3.0
    climb_time: float = 10.0

    def __post_init__(self):
        check_range(("circle", "hover"), kind=self.kind)
        check_range("finite", radius=self.radius, speed=self.speed, altitude=self.altitude,
                    climb_time=self.climb_time)
        self.build()    # a trajectory that cannot be built is refused here

    def build(self):
        if self.kind == "circle":
            return CircleTrajectory(self.radius, self.speed, self.altitude, self.climb_time)
        return HoverTrajectory(self.altitude)


# The observer of both groups unless a scenario says otherwise, and the base
# of `observer_ramp_study`.
_DEFAULT_OBSERVER = ObserverParams(20.0, 4.0, 0.6, 1.0 / 1.1)

MAX_TICKS = 10**9    # per run: 1000 times the 1000 s flight of criterion 3
# Trace rows per run, each of 67 float64s (about 5 GiB at the cap): 100 times
# criterion 3's trace and 10 times a 1000 s `decoupling_check` recording.
MAX_ROWS = 10**7


@dataclass(frozen=True)
class ScenarioConfig:
    duration: float = 60.0
    dt: float = 1e-3
    seed: int = 1
    sample_interval: float = 0.01
    uav: UavParams = field(default_factory=UavParams)
    uncertainty: UncertaintyModel = field(default_factory=UncertaintyModel)
    sensors: SensorConfig = field(default_factory=SensorConfig)
    gains: ControlGains = field(default_factory=ControlGains)
    # (position group, attitude group) pairs, as the scenario document holds them
    correctors: tuple[CorrectorParams, CorrectorParams] = (
        CorrectorParams(1.0, 30.0, 0.1, 1.0 / 1.2),) * 2
    observers: tuple[ObserverParams, ObserverParams] = (_DEFAULT_OBSERVER,) * 2
    ekf: EkfConfig = field(default_factory=lambda: EkfConfig(q=1e-4, r1=0.25, r2=1e-6))
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    estimator_init: str = "first_measurement"   # or "truth"
    # Added to the on-trajectory start.  The one number without a range rule:
    # a non-finite offset is how a test forces the loop to diverge at tick 0.
    initial_offset: tuple[float, ...] = (0.0,) * 12

    def __post_init__(self):
        check_range("positive", duration=self.duration, dt=self.dt,
                    sample_interval=self.sample_interval)
        if self.duration / self.dt > MAX_TICKS:
            raise ConfigError(f"duration / dt must be at most {MAX_TICKS} ticks, "
                              f"not {self.duration / self.dt:.3g}")
        if self.duration / self.sample_interval + 1 > MAX_ROWS:
            raise ConfigError(f"duration / sample_interval + 1 must be at most {MAX_ROWS} "
                              f"trace rows, not {self.duration / self.sample_interval + 1:.3g}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a nonnegative integer, not {self.seed!r}")
        for name in ("position_period", "velocity_period"):
            whole_multiple(f"sensors.{name}", getattr(self.sensors, name), "dt", self.dt)
        # The EKF bank absorbs a position sample only on a velocity tick.
        whole_multiple("sensors.position_period", self.sensors.position_period,
                       "sensors.velocity_period", self.sensors.velocity_period)
        whole_multiple("sample_interval", self.sample_interval, "dt", self.dt)
        whole_multiple("duration", self.duration, "sample_interval", self.sample_interval)
        # A large-error walk takes a step per walk period, so at most one per
        # tick: no more steps than the loop has ticks, which MAX_TICKS caps.
        for group, model in zip(("position", "attitude"), self.sensors.large_error):
            if model.walk_period < self.dt:
                raise ConfigError(f"sensors.{group}_large_error.walk_period must be at least dt")
        check_range("pair", correctors=self.correctors, observers=self.observers)
        check_range(("first_measurement", "truth"), estimator_init=self.estimator_init)
        check_range("per state", initial_offset=self.initial_offset)


# The trace row's column groups, in order: (column-name prefix, axes).  The
# row starts with the time; `trace_row` below builds one in this order.
TRACE_GROUPS = (
    ("true_", AXIS_NAMES), ("true_v", AXIS_NAMES),
    ("meas_y1_", AXIS_NAMES), ("meas_y2_", AXIS_NAMES),
    ("corr_", AXIS_NAMES), ("corr_v", AXIS_NAMES),
    ("obs_vel_", AXIS_NAMES), ("obs_sigma_", AXIS_NAMES),
    ("ekf_", AXIS_NAMES[:3]), ("ekf_v", AXIS_NAMES[:3]),
    ("u_", AXIS_NAMES), ("des_", AXIS_NAMES),
)


def trace_row(t, s, frame, corr, obs, kf, wrench, des) -> list[float]:
    """One trace row: the time, the 12 true states, the six axes' held
    measurements, corrector and observer states, the EKF bank's means, the
    wrench and the desired pose, in the order of `TRACE_GROUPS`."""
    y1, y2, _ = zip(*frame)
    x1, x2 = zip(*corr)
    x3, x4 = zip(*obs)
    return [t, *s, *y1, *y2, *x1, *x2, *x3, *x4, *kf.pos, *kf.vel, *wrench, *des]


def write_csv(path, columns: Sequence[str], data) -> None:
    """``data`` rows under a header line of ``columns``, comma-separated, each
    value as ``%.17g``, which reads back to the same float64."""
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(columns),
               comments="")


@dataclass
class TraceLog:
    """Uniformly sampled record of one scenario run."""

    COLUMNS = ("time",) + tuple(prefix + a for prefix, axes in TRACE_GROUPS for a in axes)

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != len(self.COLUMNS):
            raise ValueError("trace data shape does not match the column layout")

    @property
    def time(self) -> np.ndarray:
        return self.data[:, 0]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.data[:, self.COLUMNS.index(name)]
        except ValueError:
            raise KeyError(f"unknown trace column: {name}") from None

    def columns(self, names: Sequence[str]) -> np.ndarray:
        idx = [self.COLUMNS.index(n) for n in names]
        return self.data[:, idx]

    def to_csv(self, path) -> None:
        write_csv(path, self.COLUMNS, self.data)

    @classmethod
    def from_csv(cls, path) -> "TraceLog":
        return cls(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


def run_scenario(cfg: ScenarioConfig) -> TraceLog:
    """Run one scenario and return its TraceLog: the package's one closed loop.

    Tick 0 senses the start state and starts the estimators and the EKF on
    it (from the first measurement or, with ``estimator_init="truth"``, from
    the true state).  Every tick then runs control from the corrector
    estimates and the rescaled observer uncertainty, logs a row when one is
    due, steps the corrector bank, the observer bank and the plant, predicts
    the EKF bank, and senses the next tick, where the EKF bank absorbs the
    measurement when the velocity channel is fresh.  The sensors hand back
    the same frame object while nothing is sampled, and the loop works out
    what it reads from a frame only when the frame changes.

    The loop keeps every state as plain floats and calls the public steppers
    with constants worked out once per run; the outputs of each stage are
    checked for finiteness once per tick.  Each stage is looked up by name
    on every call, so a wrapper set on this module's attributes, or on the
    sensor or trajectory class, sees every call.
    """
    traj = cfg.trajectory.build()
    params = cfg.uav
    dt = cfg.dt
    n_ticks = int(round(cfg.duration / dt))
    sample_every = int(round(cfg.sample_interval / dt))
    suite = SensorSuite(cfg.sensors, cfg.seed, dt)
    vel_every = suite.velocity_every

    n_rows = n_ticks // sample_every + 1
    rows = np.empty((n_rows, len(TraceLog.COLUMNS)))
    row_i = 0

    # Per-run constants.
    correctors, observers = per_axis(cfg.correctors), per_axis(cfg.observers)
    dts = (dt,) * 6
    axes = plant_axes(cfg.uncertainty, params)
    ekf_cfg = cfg.ekf
    ekf_q = process_noise(ekf_cfg.q, dt)
    gains = cfg.gains

    pos0, vel0, _ = traj.point(0.0)
    s = [a + b for a, b in zip(pos0 + vel0, cfg.initial_offset)]
    frame = suite.measure(s, 0)
    y_o2 = [mz.y_o2 for mz in frame]
    if cfg.estimator_init == "truth":
        corr = [CorrectorState(s[a], s[6 + a]) for a in range(6)]
        obs = [ObserverState(s[6 + a], 0.0) for a in range(6)]
    else:
        corr = [CorrectorState(mz.y_o1, mz.y_o2) for mz in frame]
        obs = [ObserverState(mz.y_o2, 0.0) for mz in frame]
    kf = ekf_init(frame[:3], ekf_cfg)

    for i in range(n_ticks + 1):
        t = i * dt
        tp = traj.point(t)
        est_pos = [c.xhat1 for c in corr]
        est_vel = [c.xhat2 for c in corr]
        dp, da = uncertainty_rescale([o.xhat4 for o in obs], params)
        wrench = (position_control(est_pos, est_vel, dp, tp, gains, params)
                  + attitude_control(est_pos, est_vel, da, tp, gains, params))
        if not _all_finite(wrench):
            raise _diverged(i, t, "control", "non-finite wrench")

        if i % sample_every == 0:
            rows[row_i] = trace_row(t, s, frame, corr, obs, kf, wrench, tp[0])
            row_i += 1

        if i == n_ticks:
            break

        h6 = input_acceleration_scalars(wrench, params)
        try:
            corr = list(map(step_corrector, corr, frame, correctors, dts))
        except ValueError as exc:
            raise _diverged(i, t, "corrector", exc) from exc
        try:
            obs = list(map(step_observer, obs, y_o2, h6, observers, dts))
        except ValueError as exc:
            raise _diverged(i, t, "observer", exc) from exc
        s = step_plant(s, h6, axes, t, dt)
        if not _all_finite(s):
            raise _diverged(i + 1, t + dt, "plant", "non-finite state")
        try:
            kf = ekf_predict(kf, dt, ekf_q)
        except EkfDivergence as exc:
            raise _diverged(i, t, "ekf", exc) from exc

        nxt = i + 1
        held, frame = frame, suite.measure(s, nxt)
        if frame is not held:
            y_o2 = [mz.y_o2 for mz in frame]
        if nxt % vel_every == 0:
            try:
                kf = ekf_update(kf, frame[:3], ekf_cfg)
            except EkfDivergence as exc:
                raise _diverged(nxt, nxt * dt, "ekf", exc) from exc

    return TraceLog(rows)


def _window(t: np.ndarray, name: str, start: float, end: float = math.inf):
    """The (row mask, description) of the ``name`` window [start, end) of
    the sample times ``t``, for `_window_stats`."""
    return ((t >= start) & (t < end),
            f"{name} window [{start:g}, {end:g}) s of the {float(t[-1]):g} s trace")


def _window_stats(err: np.ndarray, window: tuple[np.ndarray, str]) -> tuple[float, float]:
    """Max and RMS of ``err`` over a (row mask, description) window from
    `_window`; a window with no trace sample is a ConfigError.  A finite
    ``err`` has a finite RMS."""
    mask, where = window
    seg = err[mask]
    if seg.size == 0:
        raise ConfigError(f"no trace sample in the {where}")
    peak = float(np.max(seg))
    if 1e100 < peak < math.inf:     # the squares could overflow: scale them
        scaled = seg / peak
        return peak, peak * float(np.sqrt(np.mean(scaled * scaled)))
    return peak, float(np.sqrt(np.mean(seg * seg)))


def _ratio(num: float, den: float) -> float | None:
    """``num / den``, or None where ``den`` is not positive: a ratio over a 0
    error is written as JSON null, never as Infinity or NaN."""
    return num / den if den > 0 else None


def metrics(trace: TraceLog, settle: float, scenario: ScenarioConfig) -> dict:
    """Per-axis steady-state estimate-error summary of ``trace``, a run of
    ``scenario``.

    Errors are absolute estimate errors after the settling time: corrector
    position estimates and EKF position estimates against the true state,
    and the rescaled observer outputs against the true uncertainty
    forces/torques.  The drift ratio compares the
    maximum corrector error over the late window (after 10% of the duration)
    against the early reference window; it is None where the reference
    maximum is 0.  A window that holds no trace sample,
    as when ``settle`` is not before the end of the trace, is a ConfigError.
    """
    t = trace.time
    duration = float(t[-1])
    ref_end = max(0.1 * duration, settle + 0.1 * (duration - settle))
    steady = _window(t, "steady-state", settle)
    reference, late = (_window(t, "drift reference", settle, ref_end),
                       _window(t, "drift late", ref_end))

    out: dict = {"settle": settle, "duration": duration,
                 "corrector": {}, "ekf": {}, "observer": {}, "drift": {}}

    for name in AXIS_NAMES:
        err = np.abs(trace.column(f"corr_{name}") - trace.column(f"true_{name}"))
        mx, rms = _window_stats(err, steady)
        out["corrector"][name] = {"max": mx, "rms": rms}
        ref_max = _window_stats(err, reference)[0]
        late_max = _window_stats(err, late)[0]
        out["drift"][name] = {
            "reference_max": ref_max,
            "late_max": late_max,
            "ratio": _ratio(late_max, ref_max),
        }

    for name in AXIS_NAMES[:3]:
        err = np.abs(trace.column(f"ekf_{name}") - trace.column(f"true_{name}"))
        mx, rms = _window_stats(err, steady)
        out["ekf"][name] = {"max": mx, "rms": rms}

    unc, uav = scenario.uncertainty, scenario.uav
    dp, da = uncertainty_rescale([trace.column(f"obs_sigma_{a}") for a in AXIS_NAMES], uav)
    for a, (name, delta_hat) in enumerate(zip(AXIS_NAMES, dp + da)):
        delta_true = true_delta(a, trace.column(f"true_v{name}"), t, unc, uav)
        err = np.abs(delta_hat - delta_true)
        mx, rms = _window_stats(err, steady)
        peak = float(np.max(np.abs(delta_true[steady[0]])))
        out["observer"][name] = {"max": mx, "rms": rms, "true_peak": peak}
    return out


@dataclass
class SweepResult:
    rows: list[dict]

    def column(self, key: str) -> list[float]:
        return [row[key] for row in self.rows]

    def non_increasing(self, key: str, slack: float = 1e-6) -> bool:
        col = self.column(key)
        return all(b <= a + slack for a, b in zip(col, col[1:]))


def _runs(cfg: ScenarioConfig | ObserverParams, name: str, values: Sequence[float],
          set_value, reduce, jobs: int = 1) -> SweepResult:
    """The one multi-run path: a row ``{name: v, **reduce(set_value(cfg, v))}``
    per value, in the order given.

    ``cfg`` is a scenario, or the observer of `observer_ramp_study`.  Every
    value's config is built, and so checked, before the first run; a
    refusal is a ConfigError naming the value.  ``reduce`` runs each config;
    with ``jobs`` (at least 1) above 1 it runs in a pool of at most that many
    worker processes, and no more than there are values, so it must pickle.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, not {jobs}")
    check_range("nonempty", values=values)
    configs = []
    for v in values:
        try:
            configs.append(set_value(cfg, v))
        except ConfigError as exc:
            raise ConfigError(f"{name}={v}: {exc}") from exc
    workers = min(jobs, len(configs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reduced = list(pool.map(reduce, configs))
    else:
        reduced = list(map(reduce, configs))
    return SweepResult([{name: v, **row} for v, row in zip(values, reduced)])


def _descending_eps(eps_values: Sequence[float]) -> tuple[float, ...]:
    """The time-scale values of a study as a tuple: at least one, each in
    (0, 1), strictly descending."""
    values = tuple(eps_values)
    check_range("nonempty", eps_values=values)
    check_range("in (0, 1)", eps_values=values)
    check_range("descending", eps_values=values)
    return values


def _convergence_row(settle: float, run_cfg: ScenarioConfig) -> dict:
    trace = run_scenario(run_cfg)
    steady = _window(trace.time, "settle", settle)
    pos_err, vel_err = (max(
        _window_stats(np.abs(trace.column(f"corr_{p}{n}") - trace.column(f"true_{p}{n}")),
                      steady)[0]
        for n in AXIS_NAMES[:3]) for p in ("", "v"))     # position, then velocity
    return {"max_e1": pos_err, "max_e2": vel_err}


def convergence_study(cfg: ScenarioConfig, eps_values: Sequence[float],
                      duration: float = 40.0, settle: float = 20.0) -> SweepResult:
    """Steady corrector error versus the corrector time-scale parameter.

    Runs the noise-free scenario with a constant bias of 20 on every axis
    (hover, estimators started at the true state) for each eps_c and reports
    the steady-state max position and velocity estimate errors, over the
    trace samples from ``settle`` on (at least one, or a ConfigError).  The
    error-order bound shrinks with eps_c, so the measured error must be
    non-increasing as eps_c decreases.  In practice the bias is rejected so
    completely that the rows are set by the zero-order hold of the velocity
    measurement, not by eps_c, and a shorter hold lowers every row.  On
    ``paper_sec6`` (40 s, settle 20 s, 10 ms hold) max_e1 is 1.58e-5 m at
    eps_c = 0.9 and 1.55e-5 m at 0.3, the rows that criterion 5 of
    tests/test_acceptance.py computes and reports.
    """
    values = _descending_eps(eps_values)
    base = replace(
        cfg,
        duration=duration,
        trajectory=TrajectorySpec(kind="hover", altitude=0.0),
        sensors=replace(cfg.sensors, dropouts=(),
                        large_error=(LargeErrorModel(constant=20.0, bound=20.0),) * 2,
                        position_noise=(NoiseMixture(),) * 2,
                        velocity_noise=(NoiseMixture(),) * 2),
        estimator_init="truth",
    )
    return _runs(base, "eps_c", values, SWEEPABLE_PARAMETERS["eps_c"],
                 partial(_convergence_row, settle))


def _ramp_row(n: int, dt: float, steady, p: ObserverParams) -> dict:
    ramp_rate = 0.2
    st = ObserverState(0.0, 0.0)
    xhat4 = []
    for i in range(n):
        t = i * dt
        y2 = 0.5 * ramp_rate * t * t
        st = step_observer(st, y2, 0.0, p, dt)
        xhat4.append(st.xhat4)
    # Elementwise the per-step abs(xhat4 - ramp_rate * (t + dt)), bit for bit.
    errors = np.abs(np.array(xhat4) - ramp_rate * (np.arange(n) * dt + dt))
    return {"max_e4": _window_stats(errors, steady)[0]}


def observer_ramp_study(eps_values: Sequence[float], duration: float = 40.0,
                        settle: float = 20.0, dt: float = 1e-3) -> SweepResult:
    """Steady observer error against a ramp uncertainty, per time-scale value.

    Synthetic single-axis study of the default observer with its eps_o set to
    each value: sigma(t) = 0.2 t, h = 0, clean velocity measurement refreshed
    every step.  The steady uncertainty-estimate error shrinks as eps_o
    decreases (error-order property), which is measurable here because the
    ramp keeps a persistent innovation alive.  ``duration`` is a whole number
    of steps, and the error is taken over the steps from ``settle`` on (at
    least one, or a ConfigError).  Every value's observer is built, and so
    checked, before the first step.
    """
    values = _descending_eps(eps_values)
    n = whole_multiple("duration", duration, "dt", dt)
    steady = _window(np.arange(n) * dt, "settle", settle)
    return _runs(_DEFAULT_OBSERVER, "eps_o", values, lambda p, eps: replace(p, eps_o=eps),
                 partial(_ramp_row, n, dt, steady))


@dataclass(frozen=True)
class DecouplingReport:
    corrector_unaffected: bool
    observer_unaffected: bool
    first_divergence: str = ""

    @property
    def decoupled(self) -> bool:
        return self.corrector_unaffected and self.observer_unaffected


def _rows(trace: TraceLog, groups: Sequence[str]):
    """The columns of ``trace`` with the prefixes ``groups``, each on all six
    axes, row by row as lists; pulled 1024 rows at a time, so that a replay
    holds no copy of the whole trace."""
    names = [prefix + a for prefix in groups for a in AXIS_NAMES]
    for start in range(0, len(trace.data), 1024):
        yield from TraceLog(trace.data[start:start + 1024]).columns(names).tolist()


def _replay(trace: TraceLog, bank: str, state_groups, input_groups, step) -> str:
    """Step one estimator bank alone through ``trace``, recorded every tick,
    from the row-0 states of its ``state_groups`` columns: ``step`` takes the
    states and a row's two ``input_groups`` to the next row's states.  The
    first difference from the recorded states, described, or "" if none."""
    recorded = _rows(trace, state_groups)
    x = next(recorded)
    for i, (held, want) in enumerate(zip(_rows(trace, input_groups), recorded), 1):
        x = step(x, held[:6], held[6:])
        if x != want:
            c = next(k for k, (got, rec) in enumerate(zip(x, want)) if got != rec)
            column = state_groups[c // 6] + AXIS_NAMES[c % 6]
            return f"{bank} trace diverges at t={trace.time[i]:.3f} s, column {column}"
    return ""


def decoupling_check(cfg: ScenarioConfig) -> DecouplingReport:
    """Structural independence of the two estimator banks.

    The scenario is run once, closed loop, with a trace row every tick.  Each
    bank is then stepped alone from its recorded tick-0 states, with this
    module's `step_corrector` or `step_observer`, on the inputs the trace
    holds for it: the corrector bank on the held measurements (``meas_y1_``,
    ``meas_y2_``; the trace does not hold the freshness flag, which
    `step_corrector` does not read), the observer bank on the held rate
    measurements (``meas_y2_``) and the known inputs of the recorded wrench
    (`input_acceleration_scalars` of ``u_``).  With the other bank absent, a
    replay can match the recording only if its bank reads nothing of the
    other's state, so each tick's states must equal the bank's recorded
    columns exactly.  A replay stops at its first difference; the report
    names the first one, the corrector bank's before the observer bank's.
    """
    try:
        record_cfg = replace(cfg, sample_interval=cfg.dt)
    except ConfigError as exc:
        raise ConfigError(f"the decoupling check records a row every dt: {exc}") from exc
    trace = run_scenario(record_cfg)
    params, dts = cfg.uav, (cfg.dt,) * 6
    correctors, observers = per_axis(cfg.correctors), per_axis(cfg.observers)

    def corrector_bank(x, y1, y2):
        out = list(map(step_corrector, map(CorrectorState, x[:6], x[6:]),
                       map(AxisMeasurement, y1, y2), correctors, dts))
        return [c.xhat1 for c in out] + [c.xhat2 for c in out]

    def observer_bank(x, y2, wrench):
        out = list(map(step_observer, map(ObserverState, x[:6], x[6:]), y2,
                       input_acceleration_scalars(wrench, params), observers, dts))
        return [o.xhat3 for o in out] + [o.xhat4 for o in out]

    corrector = _replay(trace, "corrector", ("corr_", "corr_v"), ("meas_y1_", "meas_y2_"),
                        corrector_bank)
    observer = _replay(trace, "observer", ("obs_vel_", "obs_sigma_"), ("meas_y2_", "u_"),
                       observer_bank)
    return DecouplingReport(not corrector, not observer, corrector or observer)


def _set_all(obj, pair: str, **kw):
    """``obj`` with the fields ``kw`` set on both entries of its field ``pair``."""
    return replace(obj, **{pair: tuple(replace(p, **kw) for p in getattr(obj, pair))})


def _set_noise_std(cfg: ScenarioConfig, channel: str, std: float) -> ScenarioConfig:
    return replace(cfg, sensors=_set_all(cfg.sensors, channel, gaussian_std=std))


def _set_l_d(cfg: ScenarioConfig, l_d: float) -> ScenarioConfig:
    # Scale the position group's bias to the requested bound; headroom for the
    # walk is preserved proportionally.
    position, attitude = cfg.sensors.large_error
    position = replace(position, constant=l_d, bound=max(l_d * 1.25, l_d + 1.0))
    return replace(cfg, sensors=replace(cfg.sensors, large_error=(position, attitude)))


SWEEPABLE_PARAMETERS = {
    "eps_c": lambda cfg, v: _set_all(cfg, "correctors", eps_c=v),
    "alpha_c": lambda cfg, v: _set_all(cfg, "correctors", alpha_c=v),
    "k1": lambda cfg, v: _set_all(cfg, "correctors", k1=v),
    "k2": lambda cfg, v: _set_all(cfg, "correctors", k2=v),
    "eps_o": lambda cfg, v: _set_all(cfg, "observers", eps_o=v),
    "alpha_o": lambda cfg, v: _set_all(cfg, "observers", alpha_o=v),
    "k3": lambda cfg, v: _set_all(cfg, "observers", k3=v),
    "k4": lambda cfg, v: _set_all(cfg, "observers", k4=v),
    "noise_pos_std": lambda cfg, v: _set_noise_std(cfg, "position_noise", v),
    "noise_vel_std": lambda cfg, v: _set_noise_std(cfg, "velocity_noise", v),
    "L_d": _set_l_d,
}


def _sweep_row(settle: float, run_cfg: ScenarioConfig) -> dict:
    summary = metrics(run_scenario(run_cfg), settle, run_cfg)
    row = {}
    for axis in AXIS_NAMES[:3]:
        row[f"corrector_max_{axis}"] = summary["corrector"][axis]["max"]
        row[f"corrector_rms_{axis}"] = summary["corrector"][axis]["rms"]
        row[f"ekf_rms_{axis}"] = summary["ekf"][axis]["rms"]
    for key in ("corrector_max", "corrector_rms", "ekf_rms"):
        row[key] = max(row[f"{key}_{a}"] for a in AXIS_NAMES[:3])
    return row


def sweep_parameter(cfg: ScenarioConfig, name: str, values: Sequence[float],
                    settle: float = 20.0, jobs: int = 1) -> SweepResult:
    """Run the scenario once per parameter value and tabulate steady errors.

    ``jobs`` (at least 1) is the most worker processes to use; no more are
    started than there are values.  Results are ordered by the given values
    regardless of completion order.  Every value's scenario is built, and so
    checked, before the first run.
    """
    check_range(tuple(SWEEPABLE_PARAMETERS), parameter=name)
    return _runs(cfg, name, values, SWEEPABLE_PARAMETERS[name], partial(_sweep_row, settle),
                 jobs)


def tune_ekf_process_noise(cfg: ScenarioConfig, q_values: Sequence[float],
                           settle: float = 20.0) -> tuple[float, list[dict]]:
    """Grid search of the process noise intensity on the given scenario.

    Meant to be run on the unbiased-noise scenario so the baseline is tuned
    for the conditions where its assumptions hold; returns the q minimizing
    the mean EKF position RMS and the full grid table.  Every q is checked
    before the first run.
    """
    grid = _runs(cfg, "q", q_values, lambda c, q: replace(c, ekf=replace(c.ekf, q=q)),
                 partial(_sweep_row, settle))
    rows = [{"q": row["q"], "ekf_mean_rms": float(np.mean(
        [row[f"ekf_rms_{a}"] for a in AXIS_NAMES[:3]]))} for row in grid.rows]
    best = min(rows, key=lambda r: r["ekf_mean_rms"])
    return best["q"], rows
