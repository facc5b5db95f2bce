"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The full module takes a few minutes; the long pole
is the 1000 s no-drift flight.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from corrobs import (AxisMeasurement, ControlGains, CorrectorParams,
                     CorrectorState, ObserverParams,
                     bundled_config_path, convergence_study, decoupling_check,
                     falpha, linearize_corrector, linearize_observer,
                     load_scenario, metrics, observer_ramp_study,
                     omega_coefficient, run_scenario, step_corrector,
                     validate_corrector_params, validate_observer_params)
from corrobs.engine import TrajectorySpec
from corrobs.freq import corrector_natural_frequency, observer_natural_frequency
from oracles import ideal_tracking_errors

POSITION_AXES = ("x", "y", "z")

# Convergence-capable corrector tuning for the finite-time property: the
# flight gain set (k2/k1 = 30, alpha_c = 0.1) slaves the velocity channel so
# hard that initial position errors are frozen rather than driven to zero.
BALANCED = CorrectorParams(k1=2.0, k2=2.0, alpha_c=0.5, eps_c=0.9)


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS - {text}", flush=True)


def test_criterion_01_flight_replication():
    cfg = load_scenario(bundled_config_path("paper_sec6"))
    t0 = time.perf_counter()
    trace = run_scenario(cfg)
    summary = metrics(trace, settle=20.0, scenario=cfg)
    wall = time.perf_counter() - t0

    worst = 0.0
    min_ratio = math.inf
    for axis in POSITION_AXES:
        err = summary["corrector"][axis]["max"]
        assert err < 0.1, f"corrector steady error on {axis}: {err}"
        worst = max(worst, err)
        ratio = summary["ekf"][axis]["rms"] / summary["corrector"][axis]["rms"]
        min_ratio = min(min_ratio, ratio)
    assert min_ratio >= 20.0, f"EKF-to-corrector ratio {min_ratio}"
    # raw measurement error stays at the bias scale while the estimate tracks
    raw = np.max(np.abs(trace.column("meas_y1_x") - trace.column("true_x")))
    assert raw > 15.0
    assert wall < 60.0, f"runtime {wall:.1f} s"
    _report(1, f"corrector steady error {worst:.4f} m vs raw {raw:.1f} m, "
               f"EKF/corrector ratio >= {min_ratio:.0f}, runtime {wall:.1f} s")


def test_criterion_02_uncertainty_estimation():
    cfg = load_scenario(bundled_config_path("paper_fig5"))
    t0 = time.perf_counter()
    trace = run_scenario(cfg)
    summary = metrics(trace, settle=20.0, scenario=cfg)
    wall = time.perf_counter() - t0

    worst_frac = 0.0
    for axis in POSITION_AXES:
        rms = summary["observer"][axis]["rms"]
        peak = summary["observer"][axis]["true_peak"]
        frac = rms / peak
        assert frac <= 0.10, f"observer {axis}: rms {rms:.4f} vs peak {peak:.4f}"
        worst_frac = max(worst_frac, frac)
    assert wall < 30.0, f"runtime {wall:.1f} s"
    _report(2, f"uncertainty-estimate RMS <= {100 * worst_frac:.1f}% of peak "
               f"on every position axis, runtime {wall:.1f} s")


def test_criterion_03_no_drift_1000s():
    cfg = replace(load_scenario(bundled_config_path("paper_sec6")), duration=1000.0)
    t0 = time.perf_counter()
    trace = run_scenario(cfg)
    wall = time.perf_counter() - t0

    t = trace.time
    pos_err = np.max(np.abs(
        trace.columns([f"corr_{a}" for a in POSITION_AXES])
        - trace.columns([f"true_{a}" for a in POSITION_AXES])), axis=1)
    ref = float(np.max(pos_err[(t >= 50.0) & (t < 100.0)]))
    late = float(np.max(pos_err[t >= 100.0]))
    ratio = late / ref
    assert ratio <= 2.0, f"drift ratio {ratio:.2f} (ref {ref:.4f}, late {late:.4f})"
    assert wall < 300.0, f"runtime {wall:.1f} s"
    _report(3, f"position error max over [100,1000] = {late:.4f} m is "
               f"{ratio:.2f}x the [50,100] window max, runtime {wall:.0f} s")


def test_criterion_04_finite_time_convergence():
    rng = np.random.default_rng(2024)
    meas = AxisMeasurement(0.0, 0.0)
    dt = 1e-3
    worst_hit = 0.0
    for _ in range(100):
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        radius = float(rng.uniform(0.0, 10.0))
        s = CorrectorState(radius * math.cos(ang), radius * math.sin(ang))
        last_above = 0.0
        for i in range(25_000):
            s = step_corrector(s, meas, BALANCED, dt)
            if math.hypot(s.xhat1, s.xhat2) >= 1e-3:
                last_above = (i + 1) * dt
        assert last_above < 20.0, f"convergence time {last_above:.2f} s"
        worst_hit = max(worst_hit, last_above)
    _report(4, f"100/100 random starts (norm <= 10) below 1e-3 within "
               f"{worst_hit:.2f} s and stay below")


def test_criterion_05_epsilon_monotonicity():
    eps = [0.9, 0.7, 0.5, 0.3]
    cfg = load_scenario(bundled_config_path("paper_sec6"))
    corr = convergence_study(cfg, eps, duration=40.0, settle=20.0)
    assert corr.non_increasing("max_e1", slack=1e-6), corr.rows
    obs = observer_ramp_study(eps, duration=40.0, settle=20.0)
    assert obs.non_increasing("max_e4", slack=1e-4), obs.rows
    assert obs.rows[0]["max_e4"] > obs.rows[-1]["max_e4"]
    _report(5, "steady errors non-increasing across eps "
               f"(corrector e1 {['%.1e' % r['max_e1'] for r in corr.rows]}, "
               f"observer e4 {['%.4f' % r['max_e4'] for r in obs.rows]})")


def test_criterion_06_describing_function_checks():
    assert abs(omega_coefficient(1.0) - 1.0) < 1e-9
    assert abs(omega_coefficient(0.5) - 1.1129) < 1e-3
    grid = np.linspace(1e-3, 1.0, 100)
    vals = [omega_coefficient(float(a)) for a in grid]
    assert all(1.0 - 1e-12 <= v < 4.0 / math.pi for v in vals)

    flight_c = CorrectorParams(1.0, 30.0, 0.1, 1 / 1.2)
    flight_o = ObserverParams(20.0, 4.0, 0.6, 1 / 1.1)
    for p, amps in ((flight_c, (0.3, 1.0, 5.0)),):
        for a in amps:
            lin = linearize_corrector(p, a, 1.0)
            assert abs(math.sqrt(-lin.matrix[1, 0]) - corrector_natural_frequency(p, a)) < 1e-9
    for a in (0.3, 1.0, 5.0):
        lin = linearize_observer(flight_o, a)
        assert abs(math.sqrt(-lin.matrix[1, 0]) - observer_natural_frequency(flight_o, a)) < 1e-9
    _report(6, "Omega(1) = 1, Omega(0.5) = 1.1129 (Beta oracle), range "
               "[1, 4/pi) on 100-point grid, natural frequencies consistent "
               "to 1e-9")


def test_criterion_07_parameter_validators():
    rep_c = validate_corrector_params(1.0, 30.0, 0.1, 1 / 1.2)
    assert rep_c.stable and rep_c.oscillation_free
    rep_o = validate_observer_params(20.0, 4.0, 0.6, 1 / 1.1)
    assert rep_o.stable and not rep_o.oscillation_free  # 16 < 80: warning
    assert any("16" in m for m in rep_o.messages)
    assert not validate_corrector_params(-1.0, 30.0, 0.1, 0.8).stable
    assert not validate_observer_params(20.0, -4.0, 0.6, 0.9).stable
    _report(7, "flight corrector stable and oscillation-free; flight observer "
               "stable with oscillation warning (k4^2 = 16 < 4 k3 = 80); sign "
               "violations rejected")


def test_criterion_08_perfect_information_control():
    cfg = load_scenario(bundled_config_path("paper_sec6"))
    offsets = [1.0, 0.5, -0.3, 0.02, -0.02, 0.01]
    times, errors = ideal_tracking_errors(
        cfg.uav, cfg.uncertainty, ControlGains(kp1=2.5, kp2=4.0, ka1=2.5, ka2=4.0),
        TrajectorySpec(kind="hover", altitude=0.0), offsets + [0.0] * 6,
        duration=10.0)
    l1 = (-4.0 + math.sqrt(6.0)) / 2.0
    l2 = (-4.0 - math.sqrt(6.0)) / 2.0
    worst = 0.0
    for i, e0 in enumerate(offsets):
        c2 = -l1 * e0 / (l2 - l1)
        c1 = e0 - c2
        analytic = c1 * np.exp(l1 * times) + c2 * np.exp(l2 * times)
        worst = max(worst, float(np.max(np.abs(errors[:, i] - analytic))))
    assert worst < 1e-6, f"gap to analytic solution {worst:.2e}"
    _report(8, f"true-state-fed loop matches the analytic second-order error "
               f"decay within {worst:.1e} over 10 s")


def test_criterion_09_contraction_property():
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(100_000):
        x = float(rng.uniform(-1000.0, 1000.0))
        y = float(rng.uniform(-1000.0, 1000.0))
        rho = float(rng.uniform(1e-3, 1.0))
        lhs = abs(falpha(x, rho) - falpha(y, rho))
        rhs = 2.0 ** (1.0 - rho) * abs(x - y) ** rho
        if lhs > rhs * (1.0 + 1e-12) + 1e-300:
            violations += 1
    assert violations == 0
    _report(9, "contraction bound held on 100000 random samples, "
               "zero violations")


def test_criterion_10_determinism_and_decoupling():
    cfg = replace(load_scenario(bundled_config_path("paper_sec6")), duration=10.0)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert np.array_equal(a.data, b.data)
    rows_a = "\n".join(",".join("%.17g" % v for v in row) for row in a.data)
    rows_b = "\n".join(",".join("%.17g" % v for v in row) for row in b.data)
    assert rows_a == rows_b

    report = decoupling_check(cfg)
    assert report.decoupled, report.first_divergence
    _report(10, "same seed gives byte-identical traces; each estimator bank, "
                "replayed alone on its recorded inputs, matches its trace exactly")
