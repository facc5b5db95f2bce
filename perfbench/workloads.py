"""The benchmark workloads: `flight`, `estimator_study` and `export`.

Each workload is a closed loop driven by one caller in one process: the next
operation starts only when the previous one has returned.  A workload has a
``setup`` step, which the runner repeats to time it, and an ``op`` step, which
the runner repeats for the requested wall time.  Every operation checks its
own outputs; a failed check or a divergence counts as a failed operation and
never stops the run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from corrobs import engine
from corrobs.config import bundled_config_path, load_scenario
from corrobs.ekf import EkfDivergence
from corrobs.engine import SimulationDiverged, TraceLog, metrics, run_scenario
from corrobs.estimators import AxisMeasurement, CorrectorParams, CorrectorState

# EkfDivergence is a RuntimeError the engine lets through; both count as a
# failed operation, never as a crash of the harness.
DIVERGENCE = (SimulationDiverged, EkfDivergence)

POSITION_AXES = ("x", "y", "z")
WARMUP_FLIGHT_S = 1.0

# Criterion-1 and criterion-2 bounds of the acceptance suite.
MAX_STEADY_ERR_M = 0.1
MIN_EKF_RATIO = 20.0
MIN_RAW_BIAS_M = 15.0
MAX_UNCERTAINTY_FRAC = 0.10

# Criterion-4 corrector tuning and criterion-5 time-scale ramp.
BALANCED = CorrectorParams(k1=2.0, k2=2.0, alpha_c=0.5, eps_c=0.9)
RAMP_EPS = (0.9, 0.7, 0.5, 0.3)
STUDY_DT = 1e-3
CONVERGED_NORM = 1e-3


def trace_digest(trace: TraceLog) -> str:
    """SHA-256 of the trace samples, the byte-identical-output contract."""
    return hashlib.sha256(np.ascontiguousarray(trace.data).tobytes()).hexdigest()


@dataclass
class Outcome:
    """Result of one timed operation (which may bundle several attempts)."""

    items: int
    seconds: float
    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=dict)


class Flight:
    """`run_scenario` on bundled `paper_sec6`, the path behind `corrobs run`.

    Every per-tick stage does real work here: circle trajectory, 20 m biased
    GNSS with a dropout, heavy-tailed noise and the EKF in shadow mode.  The
    seed argument becomes the scenario seed.  `check` runs the full flight
    once and applies the acceptance bounds; the timed operations are shorter
    flights of the same scenario, so that a run holds many of them, and every
    one must produce the same trace.
    """

    name = "flight"

    def __init__(self, seed: int, duration: float = 30.0, settle: float = 20.0,
                 op_duration: float = 1.0):
        self.seed = seed
        self.duration = duration
        self.settle = settle
        self.op_duration = op_duration
        self.cfg = None
        self.op_cfg = None
        self.digest: str | None = None
        self.op_digest: str | None = None
        self.accuracy: dict[str, float] = {}

    @property
    def ticks_per_op(self) -> int:
        return int(round(self.op_cfg.duration / self.op_cfg.dt))

    def setup(self) -> float:
        """Load the scenario and warm the loop up; returns load_scenario seconds."""
        t0 = perf_counter()
        base = load_scenario(bundled_config_path("paper_sec6"))
        load_s = perf_counter() - t0
        self.cfg = replace(base, seed=self.seed, duration=self.duration)
        self.op_cfg = replace(self.cfg, duration=self.op_duration)
        run_scenario(replace(self.cfg, duration=WARMUP_FLIGHT_S))
        return load_s

    def check(self) -> Outcome:
        """The full flight against the criterion-1 and criterion-2 bounds."""
        ticks = int(round(self.cfg.duration / self.cfg.dt))
        outcome, trace = self._fly(self.cfg, ticks)
        if trace is not None:
            self.digest = trace_digest(trace)
            outcome.failures = self._gate(trace)
            outcome.failed = int(bool(outcome.failures))
        return outcome

    def op(self, tracer) -> Outcome:
        with tracer.span("engine.run_scenario"):
            outcome, trace = self._fly(self.op_cfg, self.ticks_per_op)
        if trace is not None:
            digest = trace_digest(trace)
            if self.op_digest is None:
                self.op_digest = digest
            elif digest != self.op_digest:
                outcome.failures = ["trace differs from the first repeat of the same seed"]
                outcome.failed = 1
        return outcome

    @staticmethod
    def _fly(cfg, ticks: int):
        t0 = perf_counter()
        try:
            trace = run_scenario(cfg)
        except DIVERGENCE as exc:
            return Outcome(0, perf_counter() - t0, 1, 1, [f"{type(exc).__name__}: {exc}"]), None
        return Outcome(ticks, perf_counter() - t0, 1), trace

    def _gate(self, trace: TraceLog) -> list[str]:
        s = metrics(trace, self.settle, scenario=self.cfg)
        err = max(s["corrector"][a]["max"] for a in POSITION_AXES)
        ratio = min(s["ekf"][a]["rms"] / s["corrector"][a]["rms"] for a in POSITION_AXES)
        frac = max(s["observer"][a]["rms"] / s["observer"][a]["true_peak"]
                   for a in POSITION_AXES)
        raw = float(np.max(np.abs(trace.column("meas_y1_x") - trace.column("true_x"))))
        self.accuracy = {"steady_pos_err_m": err, "ekf_to_corrector_ratio": ratio,
                         "uncertainty_rms_frac": frac, "raw_bias_m": raw}
        failures = []
        if not err < MAX_STEADY_ERR_M:
            failures.append(f"steady corrector error {err:.4g} m >= {MAX_STEADY_ERR_M}")
        if not ratio >= MIN_EKF_RATIO:
            failures.append(f"EKF/corrector RMS ratio {ratio:.4g} < {MIN_EKF_RATIO}")
        if not raw > MIN_RAW_BIAS_M:
            failures.append(f"raw position error {raw:.4g} m <= {MIN_RAW_BIAS_M}")
        if not frac <= MAX_UNCERTAINTY_FRAC:
            failures.append(f"observer RMS {frac:.4g} of peak > {MAX_UNCERTAINTY_FRAC}")
        return failures

    def report(self) -> dict:
        return dict(self.accuracy, trace_sha256=self.digest, duration_s=self.duration)


class EstimatorStudy:
    """Criterion-4 convergence starts plus a criterion-5 observer ramp.

    Only `estimators` and `fractional` work here: sensors, plant, control,
    EKF and the tick loop are bypassed, and `relay_step` runs in the unforced
    landing regime instead of the forced-relay regime of `flight`.  The random
    starts are drawn once from the seed; one operation steps the next start
    25 000 times and then runs the ramp study over four time scales.
    """

    name = "estimator_study"
    ticks_per_op = 0

    def __init__(self, seed: int, starts: int = 16, steps: int = 25_000,
                 ramp_duration: float = 2.5, ramp_settle: float = 1.25):
        self.seed = seed
        self.steps = steps
        self.ramp_duration = ramp_duration
        self.ramp_settle = ramp_settle
        rng = np.random.default_rng(seed)
        ang = rng.uniform(0.0, 2.0 * math.pi, starts)
        radius = rng.uniform(0.0, 10.0, starts)
        self.starts = [CorrectorState(float(r * math.cos(a)), float(r * math.sin(a)))
                       for r, a in zip(radius, ang)]
        self.ops = 0
        self.convergence: dict[int, float] = {}

    def setup(self) -> None:
        s = CorrectorState(1.0, -1.0)
        meas = AxisMeasurement(0.0, 0.0, 0.0)
        for _ in range(2000):
            s = engine.step_corrector(s, meas, BALANCED, STUDY_DT)
        engine.observer_ramp_study(RAMP_EPS[:1], duration=1.0, settle=0.5, dt=STUDY_DT)

    def check(self) -> None:
        """Every operation checks its own outputs."""

    def op(self, tracer) -> Outcome:
        k = self.ops % len(self.starts)
        self.ops += 1
        s = self.starts[k]
        meas = AxisMeasurement(0.0, 0.0, 0.0)
        failures = []
        last_above = 0.0
        # Looked up per operation so that the traced wrapper, when installed,
        # is the one called.
        step = engine.step_corrector
        t0 = perf_counter()
        with tracer.span("harness.estimator_op"):
            try:
                for i in range(self.steps):
                    s = step(s, meas, BALANCED, STUDY_DT)
                    if math.hypot(s.xhat1, s.xhat2) >= CONVERGED_NORM:
                        last_above = (i + 1) * STUDY_DT
            except ValueError as exc:
                failures.append(f"start {k}: {exc}")
            ramp = engine.observer_ramp_study(RAMP_EPS, duration=self.ramp_duration,
                                              settle=self.ramp_settle, dt=STUDY_DT)
        seconds = perf_counter() - t0
        if not failures and not last_above < 0.8 * self.steps * STUDY_DT:
            failures.append(f"start {k} still above {CONVERGED_NORM} at {last_above:.3f} s")
        errors = ramp.column("max_e4")
        if not (ramp.non_increasing("max_e4", slack=1e-4) and errors[0] > errors[-1]):
            failures.append(f"observer ramp errors do not fall with eps: {errors}")
        self.convergence[k] = last_above
        ramp_steps = len(RAMP_EPS) * int(round(self.ramp_duration / STUDY_DT))
        return Outcome(self.steps + ramp_steps, seconds, 2, len(failures), failures)

    def report(self) -> dict:
        """Worst convergence time over the starts stepped so far."""
        return {"worst_convergence_s": max(self.convergence.values(), default=0.0)}


class Export:
    """Post-run path of `corrobs run` and `compare-ekf`: CSV out, CSV in, metrics.

    Set-up runs one `paper_sec6` flight that logs every tick; the simulation
    layers run only there.  An operation writes the trace, reads it back and
    computes `metrics` of the read-back trace, which must equal the original
    bit for bit.
    """

    name = "export"
    ticks_per_op = 0

    def __init__(self, seed: int, workdir: Path, duration: float = 1.0):
        self.seed = seed
        self.workdir = Path(workdir)
        self.duration = duration
        self.settle = duration / 2.0
        self.cfg = None
        self.trace: TraceLog | None = None
        self.reference: dict = {}
        self.bytes_per_row = 0.0

    @property
    def rows_per_op(self) -> int:
        return len(self.trace.data)

    def setup(self) -> float:
        t0 = perf_counter()
        base = load_scenario(bundled_config_path("paper_sec6"))
        load_s = perf_counter() - t0
        self.cfg = replace(base, seed=self.seed, duration=self.duration,
                           sample_interval=base.dt)
        self.trace = run_scenario(self.cfg)
        self.reference = metrics(self.trace, self.settle, scenario=self.cfg)
        warm = self.workdir / "warmup.csv"
        TraceLog(self.trace.data[:100]).to_csv(warm)
        TraceLog.from_csv(warm)
        return load_s

    def check(self) -> None:
        """Every operation checks its own outputs."""

    def op(self, tracer) -> Outcome:
        path = self.workdir / "trace.csv"
        with tracer.span("harness.export_cycle"):
            t0 = perf_counter()
            self.trace.to_csv(path)
            t1 = perf_counter()
            back = TraceLog.from_csv(path)
            t2 = perf_counter()
            with tracer.span("engine.metrics"):
                summary = metrics(back, self.settle, scenario=self.cfg)
            t3 = perf_counter()
        self.bytes_per_row = path.stat().st_size / self.rows_per_op
        failures = []
        if back.data.tobytes() != self.trace.data.tobytes():
            failures.append("CSV round trip is not bit-exact")
        if summary != self.reference:
            failures.append("metrics of the read-back trace differ from the original")
        return Outcome(self.rows_per_op, t3 - t0, 1, int(bool(failures)), failures,
                       {"write": t1 - t0, "read": t2 - t1, "metrics": t3 - t2})

    def report(self) -> dict:
        return {"bytes_per_row": self.bytes_per_row}
