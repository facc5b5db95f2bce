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
import numbers
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .control import (CircleTrajectory, ControlGains, EstimateBundle,
                      HoverTrajectory, _attitude_law, _position_law, _rescale,
                      attitude_control, position_control, wrench_from_controls)
from .ekf import (EkfConfig, EkfDivergence, EkfState, _floats, _predict,
                  _process_noise, ekf_init, ekf_update)
from .estimators import (CorrectorParams, CorrectorState, ObserverParams,
                         ObserverState, _observer_rk4, step_corrector, step_observer)
from .plant import (AXIS_NAMES, UavParams, UncertaintyModel, _axis_constants,
                    _plant_rk4, input_acceleration_scalars, sigma_vector,
                    true_delta)
# The loop calls the kernels behind these steppers.  They stay attributes of
# this module because perfbench/tracer.py wraps the engine-level names.
from .control import uncertainty_rescale  # noqa: F401
from .ekf import ekf_predict  # noqa: F401
from .plant import step_plant  # noqa: F401
from .sensors import SensorConfig, SensorSuite

__all__ = [
    "TrajectorySpec", "ScenarioConfig", "TraceLog", "SimulationDiverged",
    "run_scenario", "metrics", "SweepResult", "convergence_study",
    "observer_ramp_study", "decoupling_check", "DecouplingReport",
    "sweep_parameter", "SWEEPABLE_PARAMETERS", "tune_ekf_process_noise",
    "ideal_tracking_errors",
]


class SimulationDiverged(RuntimeError):
    """A subsystem produced a non-finite value; message names tick and subsystem."""


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _diverged(tick: int, t: float, stage: str, what) -> SimulationDiverged:
    return SimulationDiverged(f"divergence at tick {tick} (t={t:.3f} s) "
                              f"in the {stage} stage: {what}")


TRAJECTORY_KINDS = ("circle", "hover")


@dataclass(frozen=True)
class TrajectorySpec:
    kind: str = "circle"
    radius: float = 5.0
    speed: float = 1.0
    altitude: float = 3.0
    climb_time: float = 10.0
    start_x: float = 0.0
    start_y: float = 0.0

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind: {self.kind!r} (trajectory.kind "
                             f"must be one of: {', '.join(TRAJECTORY_KINDS)})")

    def build(self):
        if self.kind == "circle":
            return CircleTrajectory(self.radius, self.speed, self.altitude,
                                    self.climb_time, self.start_x, self.start_y)
        return HoverTrajectory(self.start_x, self.start_y, self.altitude)


def _default_correctors() -> tuple[CorrectorParams, ...]:
    return tuple(CorrectorParams(1.0, 30.0, 0.1, 1.0 / 1.2) for _ in range(6))


def _default_observers() -> tuple[ObserverParams, ...]:
    return tuple(ObserverParams(20.0, 4.0, 0.6, 1.0 / 1.1) for _ in range(6))


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
    correctors: tuple[CorrectorParams, ...] = field(default_factory=_default_correctors)
    observers: tuple[ObserverParams, ...] = field(default_factory=_default_observers)
    ekf: EkfConfig = field(default_factory=lambda: EkfConfig(q=1e-4, r1=0.25, r2=1e-6))
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    estimator_init: str = "first_measurement"   # or "truth"
    control_source: str = "estimates"           # or "truth"
    uncertainty_feed: str = "estimates"         # "truth" | "zero"
    corrector_substeps: int = 2
    initial_offset: tuple[float, ...] = (0.0,) * 12  # added to the on-trajectory start

    def __post_init__(self):
        if self.duration <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be positive")
        if self.dt > min(self.sensors.position_period, self.sensors.velocity_period):
            raise ValueError("dt must not exceed the fastest sensor period")
        n = self.sample_interval / self.dt
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError("sample_interval must be a whole multiple of dt")
        m = self.duration / self.sample_interval
        if abs(m - round(m)) > 1e-6 or round(m) < 1:
            raise ValueError("duration must be a whole multiple of sample_interval")
        if not (isinstance(self.corrector_substeps, numbers.Integral)
                and self.corrector_substeps >= 1):
            raise ValueError("corrector_substeps must be an integer >= 1")
        if len(self.correctors) != 6 or len(self.observers) != 6:
            raise ValueError("six corrector and six observer parameter sets required")
        if self.estimator_init not in ("first_measurement", "truth"):
            raise ValueError("estimator_init must be 'first_measurement' or 'truth'")
        if self.control_source not in ("estimates", "truth"):
            raise ValueError("control_source must be 'estimates' or 'truth'")
        if self.uncertainty_feed not in ("estimates", "truth", "zero"):
            raise ValueError("uncertainty_feed must be 'estimates', 'truth' or 'zero'")
        if len(self.initial_offset) != 12:
            raise ValueError("initial_offset needs 12 components")


def _trace_columns() -> tuple[str, ...]:
    cols = ["time"]
    cols += [f"true_{a}" for a in AXIS_NAMES]
    cols += [f"true_v{a}" for a in AXIS_NAMES]
    cols += [f"meas_y1_{a}" for a in AXIS_NAMES]
    cols += [f"meas_y2_{a}" for a in AXIS_NAMES]
    cols += [f"corr_{a}" for a in AXIS_NAMES]
    cols += [f"corr_v{a}" for a in AXIS_NAMES]
    cols += [f"obs_vel_{a}" for a in AXIS_NAMES]
    cols += [f"obs_sigma_{a}" for a in AXIS_NAMES]
    cols += [f"ekf_{a}" for a in AXIS_NAMES[:3]]
    cols += [f"ekf_v{a}" for a in AXIS_NAMES[:3]]
    cols += [f"u_{a}" for a in AXIS_NAMES]
    cols += [f"des_{a}" for a in AXIS_NAMES]
    return tuple(cols)


@dataclass
class TraceLog:
    """Uniformly sampled record of one scenario run."""

    COLUMNS = _trace_columns()

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
        header = ",".join(self.COLUMNS)
        np.savetxt(path, self.data, fmt="%.17g", delimiter=",", header=header,
                   comments="")

    @classmethod
    def from_csv(cls, path) -> "TraceLog":
        return cls(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


@dataclass(frozen=True)
class _Perturbation:
    target: str          # "corrector" or "observer"
    time: float
    magnitude: float


def run_scenario(cfg: ScenarioConfig, *, record_controls: bool = False,
                 control_replay: np.ndarray | None = None,
                 perturb: tuple[str, float, float] | None = None):
    """Run one closed-loop scenario; returns a TraceLog.

    With ``record_controls`` the per-tick wrench history is returned as a
    second value; passing it back as ``control_replay`` re-runs the scenario
    open loop (plant and observers driven by the recorded commands instead of
    the live estimates), which is what the decoupling check uses.  ``perturb``
    is (target, time, magnitude): the named estimator bank's states are offset
    by the magnitude once, at the first tick at or after the given time.

    The loop keeps every state as plain floats and calls the float kernels
    behind the public steppers with constants worked out once per run; the
    outputs of each stage are checked for finiteness once per tick.
    """
    traj = cfg.trajectory.build()
    params = cfg.uav
    unc = cfg.uncertainty
    dt = cfg.dt
    n_ticks = int(round(cfg.duration / dt))
    if abs(n_ticks * dt - cfg.duration) > 1e-6:
        raise ValueError("duration must be a whole multiple of dt")
    sample_every = int(round(cfg.sample_interval / dt))
    suite = SensorSuite(cfg.sensors, cfg.seed, dt)
    vel_every = suite.velocity_every
    pert = _Perturbation(*perturb) if perturb is not None else None
    if pert is not None and pert.target not in ("corrector", "observer"):
        raise ValueError(f"unknown perturbation target: {pert.target}")
    pert_done = pert is None

    tp0 = traj.point(0.0)
    s = (np.concatenate([tp0.pos, tp0.vel]) + np.asarray(cfg.initial_offset)).tolist()

    n_rows = n_ticks // sample_every + 1
    rows = np.empty((n_rows, len(TraceLog.COLUMNS)))
    row_i = 0
    controls = np.empty((n_ticks + 1, 6)) if record_controls else None
    if control_replay is not None and len(control_replay) < n_ticks + 1:
        raise ValueError("control replay shorter than the scenario")

    # Per-run constants of the kernels, and locals for the per-tick calls.
    measure = suite.measure
    coords = traj._coords
    step_corr = step_corrector
    input_terms = input_acceleration_scalars
    correctors = cfg.correctors
    dts = (dt,) * 6
    substeps6 = (cfg.corrector_substeps,) * 6
    obs_k = [p._constants for p in cfg.observers]
    plant_axes = _axis_constants(unc, params)
    ekf_q = _process_noise(cfg.ekf.q, dt)
    m, g, inert = params.m, params.g, params.inertias
    gains = cfg.gains
    kp1, kp2, ka1, ka2 = gains.kp1, gains.kp2, gains.ka1, gains.ka2
    est_truth = cfg.control_source == "truth"
    feed = cfg.uncertainty_feed
    zeros3 = (0.0, 0.0, 0.0)
    axes6 = range(6)

    corr: list[CorrectorState] = []
    o3: list[float] = []          # observer velocity estimates
    o4: list[float] = []          # observer uncertainty estimates
    kf: list[tuple] = []          # EKF (pos, vel, p11, p12, p22) per position axis
    for i in range(n_ticks + 1):
        t = i * dt
        frame = measure(s, i)

        if i == 0:
            if cfg.estimator_init == "truth":
                corr = [CorrectorState(s[a], s[6 + a]) for a in axes6]
                o3 = s[6:]
            else:
                corr = [CorrectorState(mz.y_o1, mz.y_o2) for mz in frame]
                o3 = [mz.y_o2 for mz in frame]
            o4 = [0.0] * 6
            kf = [_floats(ekf_init(frame[a], cfg.ekf)) for a in range(3)]
        else:
            if not pert_done and t >= pert.time:
                mag = pert.magnitude
                if pert.target == "observer":
                    o3 = [x + mag for x in o3]
                    o4 = [x + mag for x in o4]
                else:
                    corr = [CorrectorState(c.xhat1 + mag, c.xhat2 + mag) for c in corr]
                pert_done = True
            if i % vel_every == 0:
                try:
                    kf = [_floats(ekf_update(EkfState(*kf[a]), frame[a], cfg.ekf))
                          for a in range(3)]
                except EkfDivergence as exc:
                    raise _diverged(i, t, "ekf", exc) from exc

        tp_pos, tp_vel, tp_acc = coords(t)
        if control_replay is not None:
            wrench = control_replay[i].tolist()
        else:
            if est_truth:
                est_pos, est_vel = s[:6], s[6:]
            else:
                est_pos = [c.xhat1 for c in corr]
                est_vel = [c.xhat2 for c in corr]
            if feed == "estimates":
                dp, da = _rescale(o4, m, inert)
            elif feed == "truth":
                dp = [true_delta(a, s, t, unc, params) for a in range(3)]
                da = [true_delta(a, s, t, unc, params) for a in range(3, 6)]
            else:
                dp = da = zeros3
            wrench = (_position_law(est_pos, est_vel, dp, tp_pos, tp_vel, tp_acc,
                                    m, g, kp1, kp2)
                      + _attitude_law(est_pos, est_vel, da, tp_pos, tp_vel, tp_acc,
                                      inert, ka1, ka2))
        if not _all_finite(wrench):
            raise _diverged(i, t, "control", "non-finite wrench")
        if controls is not None:
            controls[i] = wrench

        if i % sample_every == 0:
            row = rows[row_i]
            row[0] = t
            row[1:13] = s
            row[13:19] = [mz.y_o1 for mz in frame]
            row[19:25] = [mz.y_o2 for mz in frame]
            row[25:31] = [c.xhat1 for c in corr]
            row[31:37] = [c.xhat2 for c in corr]
            row[37:43] = o3
            row[43:49] = o4
            row[49:52] = [k[0] for k in kf]
            row[52:55] = [k[1] for k in kf]
            row[55:61] = wrench
            row[61:67] = tp_pos
            row_i += 1

        if i == n_ticks:
            break

        h6 = input_terms(wrench, params)
        try:
            corr = list(map(step_corr, corr, frame, correctors, dts, substeps6))
        except ValueError as exc:
            raise _diverged(i, t, "corrector", exc) from exc
        for a in axes6:
            o3[a], o4[a] = _observer_rk4(o3[a], o4[a], frame[a].y_o2, h6[a], obs_k[a], dt)
        if not (_all_finite(o3) and _all_finite(o4)):
            raise _diverged(i, t, "observer", "non-finite state")
        s = _plant_rk4(s, h6, plant_axes, t, dt)
        if not _all_finite(s):
            raise _diverged(i + 1, t + dt, "plant", "non-finite state")
        try:
            kf = [_predict(k, dt, ekf_q) for k in kf]
        except EkfDivergence as exc:
            raise _diverged(i, t, "ekf", exc) from exc

    trace = TraceLog(rows)
    if record_controls:
        return trace, controls
    return trace


def _window_stats(err: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    seg = err[mask]
    if seg.size == 0:
        raise ValueError("empty metrics window")
    return float(np.max(seg)), float(np.sqrt(np.mean(seg * seg)))


def metrics(trace: TraceLog, settle: float,
            scenario: ScenarioConfig | None = None) -> dict:
    """Per-axis steady-state estimate-error summary.

    Errors are absolute estimate errors after the settling time: corrector
    position estimates and EKF position estimates against the true state,
    and, when the scenario is supplied, the rescaled observer outputs against
    the true uncertainty forces/torques.  The drift ratio compares the
    maximum corrector error over the late window (after 10% of the duration)
    against the early reference window.
    """
    t = trace.time
    duration = float(t[-1])
    if settle >= duration:
        raise ValueError("settling time must be smaller than the trace duration")
    mask = t >= settle

    out: dict = {"settle": settle, "duration": duration,
                 "corrector": {}, "ekf": {}, "observer": {}, "drift": {}}

    ref_end = max(0.1 * duration, settle + 0.1 * (duration - settle))
    ref_mask = (t >= settle) & (t < ref_end)
    late_mask = t >= ref_end

    for a, name in enumerate(AXIS_NAMES):
        err = np.abs(trace.column(f"corr_{name}") - trace.column(f"true_{name}"))
        mx, rms = _window_stats(err, mask)
        out["corrector"][name] = {"max": mx, "rms": rms}
        ref_max = float(np.max(err[ref_mask]))
        late_max = float(np.max(err[late_mask]))
        out["drift"][name] = {
            "reference_max": ref_max,
            "late_max": late_max,
            "ratio": late_max / ref_max if ref_max > 0 else math.inf,
        }

    for a, name in enumerate(AXIS_NAMES[:3]):
        err = np.abs(trace.column(f"ekf_{name}") - trace.column(f"true_{name}"))
        mx, rms = _window_stats(err, mask)
        out["ekf"][name] = {"max": mx, "rms": rms}

    if scenario is not None:
        scales = (scenario.uav.m,) * 3 + (scenario.uav.J_psi, scenario.uav.J_theta,
                                          scenario.uav.J_phi)
        for a, name in enumerate(AXIS_NAMES):
            vel = trace.column(f"true_v{name}")
            lever = scenario.uav.l if a >= 4 else 1.0
            delta_true = np.array([
                -lever * scenario.uncertainty.drag[a] * v
                + scenario.uncertainty.delta(a, ti)
                for v, ti in zip(vel, t)
            ])
            delta_hat = scales[a] * trace.column(f"obs_sigma_{name}")
            err = np.abs(delta_hat - delta_true)
            mx, rms = _window_stats(err, mask)
            peak = float(np.max(np.abs(delta_true[mask])))
            out["observer"][name] = {"max": mx, "rms": rms, "true_peak": peak}
    return out


def ideal_tracking_errors(params: UavParams, unc: UncertaintyModel,
                          gains: ControlGains, trajectory: TrajectorySpec,
                          initial_offset: Sequence[float], duration: float,
                          dt: float = 1e-3, sample_interval: float = 0.01):
    """Perfect-information closed loop with continuous feedback.

    True states replace the estimates and the exact uncertainty forces are
    cancelled; the control law is re-evaluated at every integrator stage, so
    the simulated tracking error follows the ideal per-axis dynamics
    e'' = -kp1 e - kp2 e' (ka1/ka2 on the attitude axes) up to integrator
    accuracy.  Returns (times, errors) with one six-column error row per
    sample.  Used to verify the control-law algebra against the analytic
    solution, without the zero-order-hold lag of the discrete loop.
    """
    traj = trajectory.build()
    tp0 = traj.point(0.0)
    state = np.concatenate([tp0.pos, tp0.vel]) + np.asarray(initial_offset, dtype=float)

    def deriv(s: np.ndarray, t: float) -> np.ndarray:
        tp = traj.point(t)
        dp = np.array([true_delta(a, s, t, unc, params) for a in range(3)])
        da = np.array([true_delta(a, s, t, unc, params) for a in range(3, 6)])
        bundle = EstimateBundle(s[:6], s[6:], dp, da)
        wrench = wrench_from_controls(position_control(bundle, tp, gains, params),
                                      attitude_control(bundle, tp, gains, params))
        out = np.empty(12)
        out[:6] = s[6:]
        out[6:] = np.array(input_acceleration_scalars(wrench, params)) \
            + sigma_vector(s, t, unc, params)
        return out

    n_ticks = int(round(duration / dt))
    sample_every = int(round(sample_interval / dt))
    times = []
    errors = []
    for i in range(n_ticks + 1):
        t = i * dt
        if i % sample_every == 0:
            times.append(t)
            errors.append(state[:6] - traj.point(t).pos)
        if i == n_ticks:
            break
        k1 = deriv(state, t)
        k2 = deriv(state + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(state + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(state + dt * k3, t + dt)
        state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.array(times), np.array(errors)


@dataclass
class SweepResult:
    parameter: str
    values: list
    rows: list[dict]

    def column(self, key: str) -> list[float]:
        return [row[key] for row in self.rows]

    def non_increasing(self, key: str, slack: float = 1e-6) -> bool:
        col = self.column(key)
        return all(b <= a + slack for a, b in zip(col, col[1:]))


def _noise_free_sensors(cfg: ScenarioConfig, d_const: float) -> SensorConfig:
    from .sensors import LargeErrorModel, NoiseMixture
    bound = abs(d_const) if d_const != 0.0 else 0.0
    return replace(
        cfg.sensors,
        dropouts=(),
        large_error=tuple(LargeErrorModel(constant=d_const, bound=bound)
                          for _ in range(6)),
        position_noise=tuple(NoiseMixture() for _ in range(6)),
        velocity_noise=tuple(NoiseMixture() for _ in range(6)),
    )


def convergence_study(cfg: ScenarioConfig, eps_values: Sequence[float],
                      d_const: float = 20.0, duration: float = 40.0,
                      settle: float = 20.0) -> SweepResult:
    """Steady corrector error versus the corrector time-scale parameter.

    Runs the noise-free constant-bias scenario (hover, estimators started at
    the true state) for each eps_c and reports the steady-state max position
    and velocity estimate errors.  The error-order bound shrinks with eps_c,
    so the measured error must be non-increasing as eps_c decreases; in
    practice the bias is rejected so completely that every row sits at the
    numerical floor.
    """
    values = list(eps_values)
    if any(not 0.0 < v < 1.0 for v in values):
        raise ValueError("eps values must lie in (0, 1)")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("eps values must be strictly descending")
    base = replace(
        cfg,
        duration=duration,
        trajectory=TrajectorySpec(kind="hover", altitude=0.0),
        sensors=_noise_free_sensors(cfg, d_const),
        estimator_init="truth",
    )
    rows = []
    for eps in values:
        run_cfg = replace(base, correctors=tuple(
            replace(c, eps_c=eps) for c in base.correctors))
        trace = run_scenario(run_cfg)
        t = trace.time
        mask = t >= settle
        pos_err = max(
            float(np.max(np.abs(trace.column(f"corr_{n}") - trace.column(f"true_{n}"))[mask]))
            for n in AXIS_NAMES[:3])
        vel_err = max(
            float(np.max(np.abs(trace.column(f"corr_v{n}") - trace.column(f"true_v{n}"))[mask]))
            for n in AXIS_NAMES[:3])
        rows.append({"eps_c": eps, "max_e1": pos_err, "max_e2": vel_err})
    return SweepResult("eps_c", values, rows)


def observer_ramp_study(eps_values: Sequence[float], base: ObserverParams | None = None,
                        ramp_rate: float = 0.2, duration: float = 40.0,
                        settle: float = 20.0, dt: float = 1e-3) -> SweepResult:
    """Steady observer error against a ramp uncertainty, per time-scale value.

    Synthetic single-axis study: sigma(t) = ramp_rate * t, h = 0, clean
    velocity measurement refreshed every step.  The steady uncertainty-
    estimate error shrinks as eps_o decreases (error-order property), which
    is measurable here because the ramp keeps a persistent innovation alive.
    """
    values = list(eps_values)
    if any(not 0.0 < v < 1.0 for v in values):
        raise ValueError("eps values must lie in (0, 1)")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("eps values must be strictly descending")
    if base is None:
        base = ObserverParams(20.0, 4.0, 0.6, 1.0 / 1.1)
    n = int(round(duration / dt))
    rows = []
    for eps in values:
        p = replace(base, eps_o=eps)
        st = ObserverState(0.0, 0.0)
        worst = 0.0
        for i in range(n):
            t = i * dt
            y2 = 0.5 * ramp_rate * t * t
            st = step_observer(st, y2, 0.0, p, dt)
            if t >= settle:
                worst = max(worst, abs(st.xhat4 - ramp_rate * (t + dt)))
        rows.append({"eps_o": eps, "max_e4": worst})
    return SweepResult("eps_o", values, rows)


@dataclass(frozen=True)
class DecouplingReport:
    corrector_unaffected: bool
    observer_unaffected: bool
    first_divergence: str = ""

    @property
    def decoupled(self) -> bool:
        return self.corrector_unaffected and self.observer_unaffected


def decoupling_check(cfg: ScenarioConfig, magnitude: float = 1.0) -> DecouplingReport:
    """Structural independence of the two estimator banks.

    The scenario is run once recording the command history, then twice more
    open loop (commands replayed) with the observer bank perturbed in one run
    and the corrector bank in the other, halfway through.  Replaying the
    commands isolates the estimators from the control loop; the corrector
    trace must be bit-identical under the observer perturbation and vice
    versa, because neither estimator reads the other's state.
    """
    trace_a, controls = run_scenario(cfg, record_controls=True)
    half = cfg.duration / 2.0
    trace_b = run_scenario(cfg, control_replay=controls,
                           perturb=("observer", half, magnitude))
    trace_c = run_scenario(cfg, control_replay=controls,
                           perturb=("corrector", half, magnitude))

    corr_cols = [f"corr_{a}" for a in AXIS_NAMES] + [f"corr_v{a}" for a in AXIS_NAMES]
    obs_cols = [f"obs_vel_{a}" for a in AXIS_NAMES] + [f"obs_sigma_{a}" for a in AXIS_NAMES]

    first = ""
    corr_ok = bool(np.array_equal(trace_a.columns(corr_cols), trace_b.columns(corr_cols)))
    obs_ok = bool(np.array_equal(trace_a.columns(obs_cols), trace_c.columns(obs_cols)))
    if not corr_ok:
        diff = np.argwhere(trace_a.columns(corr_cols) != trace_b.columns(corr_cols))
        r, c = diff[0]
        first = f"corrector trace diverges at t={trace_a.time[r]:.3f} s, column {corr_cols[c]}"
    elif not obs_ok:
        diff = np.argwhere(trace_a.columns(obs_cols) != trace_c.columns(obs_cols))
        r, c = diff[0]
        first = f"observer trace diverges at t={trace_a.time[r]:.3f} s, column {obs_cols[c]}"
    return DecouplingReport(corr_ok, obs_ok, first)


def _set_all_correctors(cfg: ScenarioConfig, **kw) -> ScenarioConfig:
    return replace(cfg, correctors=tuple(replace(c, **kw) for c in cfg.correctors))


def _set_all_observers(cfg: ScenarioConfig, **kw) -> ScenarioConfig:
    return replace(cfg, observers=tuple(replace(o, **kw) for o in cfg.observers))


def _set_position_noise(cfg: ScenarioConfig, std: float) -> ScenarioConfig:
    sensors = replace(cfg.sensors, position_noise=tuple(
        replace(n, gaussian_std=std) for n in cfg.sensors.position_noise))
    return replace(cfg, sensors=sensors)


def _set_velocity_noise(cfg: ScenarioConfig, std: float) -> ScenarioConfig:
    sensors = replace(cfg.sensors, velocity_noise=tuple(
        replace(n, gaussian_std=std) for n in cfg.sensors.velocity_noise))
    return replace(cfg, sensors=sensors)


def _set_l_d(cfg: ScenarioConfig, l_d: float) -> ScenarioConfig:
    # Scale the position-axis bias to the requested bound; headroom for the
    # walk and sinusoids is preserved proportionally.
    models = []
    for a, m in enumerate(cfg.sensors.large_error):
        if a < 3:
            models.append(replace(m, constant=l_d, bound=max(l_d * 1.25, l_d + 1.0)))
        else:
            models.append(m)
    sensors = replace(cfg.sensors, large_error=tuple(models))
    return replace(cfg, sensors=sensors)


SWEEPABLE_PARAMETERS = {
    "eps_c": lambda cfg, v: _set_all_correctors(cfg, eps_c=v),
    "alpha_c": lambda cfg, v: _set_all_correctors(cfg, alpha_c=v),
    "k1": lambda cfg, v: _set_all_correctors(cfg, k1=v),
    "k2": lambda cfg, v: _set_all_correctors(cfg, k2=v),
    "eps_o": lambda cfg, v: _set_all_observers(cfg, eps_o=v),
    "alpha_o": lambda cfg, v: _set_all_observers(cfg, alpha_o=v),
    "k3": lambda cfg, v: _set_all_observers(cfg, k3=v),
    "k4": lambda cfg, v: _set_all_observers(cfg, k4=v),
    "noise_pos_std": _set_position_noise,
    "noise_vel_std": _set_velocity_noise,
    "L_d": _set_l_d,
}


def _sweep_one(args) -> dict:
    cfg, name, value, settle = args
    run_cfg = SWEEPABLE_PARAMETERS[name](cfg, value)
    trace = run_scenario(run_cfg)
    summary = metrics(trace, settle, run_cfg)
    row = {name: value}
    for axis in AXIS_NAMES[:3]:
        row[f"corrector_max_{axis}"] = summary["corrector"][axis]["max"]
        row[f"corrector_rms_{axis}"] = summary["corrector"][axis]["rms"]
        row[f"ekf_rms_{axis}"] = summary["ekf"][axis]["rms"]
    row["corrector_max"] = max(row[f"corrector_max_{a}"] for a in AXIS_NAMES[:3])
    row["corrector_rms"] = max(row[f"corrector_rms_{a}"] for a in AXIS_NAMES[:3])
    row["ekf_rms"] = max(row[f"ekf_rms_{a}"] for a in AXIS_NAMES[:3])
    return row


def sweep_parameter(cfg: ScenarioConfig, name: str, values: Sequence[float],
                    settle: float = 20.0, jobs: int = 1) -> SweepResult:
    """Run the scenario once per parameter value and tabulate steady errors.

    Results are ordered by the given values regardless of completion order.
    """
    if name not in SWEEPABLE_PARAMETERS:
        known = ", ".join(sorted(SWEEPABLE_PARAMETERS))
        raise ValueError(f"unknown sweep parameter '{name}'; sweepable: {known}")
    tasks = [(cfg, name, v, settle) for v in values]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(task) for task in tasks]
    return SweepResult(name, list(values), rows)


def tune_ekf_process_noise(cfg: ScenarioConfig, q_values: Sequence[float],
                           settle: float = 20.0) -> tuple[float, list[dict]]:
    """Grid search of the process noise intensity on the given scenario.

    Meant to be run on the unbiased-noise scenario so the baseline is tuned
    for the conditions where its assumptions hold; returns the q minimizing
    the mean EKF position RMS and the full grid table.
    """
    rows = []
    for q in q_values:
        run_cfg = replace(cfg, ekf=replace(cfg.ekf, q=q))
        trace = run_scenario(run_cfg)
        summary = metrics(trace, settle)
        rms = float(np.mean([summary["ekf"][a]["rms"] for a in AXIS_NAMES[:3]]))
        rows.append({"q": q, "ekf_mean_rms": rms})
    best = min(rows, key=lambda r: r["ekf_mean_rms"])
    return best["q"], rows
