"""Corrector/observer derivative and stepping tests.

The right-hand sides of the two estimators are written out here, directly
with `falpha`, as the oracles for `step_corrector` and `step_observer`.
Expected values for the derivative examples are recomputed in-test with
mpmath at 50 digits, independently of the float path under test.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrobs import (AxisMeasurement, CorrectorParams, CorrectorState,
                     ObserverParams, ObserverState, falpha, step_corrector,
                     step_observer, validate_corrector_params,
                     validate_observer_params)

FLIGHT_CORRECTOR = CorrectorParams(k1=1.0, k2=30.0, alpha_c=0.1, eps_c=1 / 1.2)
FLIGHT_OBSERVER = ObserverParams(k3=20.0, k4=4.0, alpha_o=0.6, eps_o=1 / 1.1)
# Convergence-capable tuning: with the flight parameter set (k2/k1 = 30,
# alpha_c = 0.1) the velocity relay is so strong that the position state is
# frozen rather than driven to the origin; these balanced gains actually
# reach the origin in a few seconds from unit-scale errors.
BALANCED_CORRECTOR = CorrectorParams(k1=2.0, k2=2.0, alpha_c=0.5, eps_c=0.9)


def corrector_derivative(state: CorrectorState, meas: AxisMeasurement,
                         p: CorrectorParams) -> tuple[float, float]:
    """dxhat1 = xhat2,
    dxhat2 = (-k1*[eps_c*(xhat1 - y_o1)]^kappa - k2*[xhat2 - y_o2]^alpha_c) / eps_c^3."""
    xhat1, xhat2 = state
    fb = (-p.k1 * falpha(p.eps_c * (xhat1 - meas.y_o1), p.kappa)
          - p.k2 * falpha(xhat2 - meas.y_o2, p.alpha_c))
    return xhat2, fb / (p.eps_c * p.eps_c * p.eps_c)


def observer_derivative(state: ObserverState, y_o2: float, h: float,
                        p: ObserverParams) -> tuple[float, float]:
    """dxhat3 = xhat4 - (k4/eps_o)*[xhat3 - y_o2]^((alpha_o+1)/2) + h,
    dxhat4 = -(k3/eps_o^2)*[xhat3 - y_o2]^alpha_o."""
    xhat3, xhat4 = state
    innov = xhat3 - y_o2
    return (xhat4 - p.k4 * falpha(innov, 0.5 * (p.alpha_o + 1.0)) / p.eps_o + h,
            -p.k3 * falpha(innov, p.alpha_o) / (p.eps_o * p.eps_o))


def mp_falpha(v, a):
    v = mpmath.mpf(v)
    if v == 0:
        return mpmath.mpf(0)
    return mpmath.sign(v) * abs(v) ** mpmath.mpf(a)


# ---------------------------------------------------------------- falpha

def test_falpha_at_zero():
    assert falpha(0.0, 0.5) == 0.0


def test_falpha_minus_one():
    assert falpha(-1.0, 0.3) == -1.0


def test_falpha_sqrt():
    assert falpha(4.0, 0.5) == 2.0


def test_falpha_rejects_bad_input():
    with pytest.raises(ValueError):
        falpha(math.nan, 0.5)
    with pytest.raises(ValueError):
        falpha(math.inf, 0.5)
    with pytest.raises(ValueError):
        falpha(1.0, 0.0)
    with pytest.raises(ValueError):
        falpha(1.0, 1.5)


def test_falpha_odd_and_monotone():
    rng = np.random.default_rng(1)
    for _ in range(500):
        v = float(rng.uniform(-50, 50))
        a = float(rng.uniform(0.01, 1.0))
        assert falpha(-v, a) == -falpha(v, a)
    vs = np.sort(rng.uniform(-10, 10, size=200))
    for a in (0.1, 0.5, 0.9, 1.0):
        out = [falpha(float(v), a) for v in vs]
        assert all(b >= x for x, b in zip(out, out[1:]))


def test_falpha_contraction_bound():
    # |x^rho - y^rho| <= 2^(1-rho) |x - y|^rho on random samples
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        x = float(rng.uniform(-100, 100))
        y = float(rng.uniform(-100, 100))
        rho = float(rng.uniform(0.05, 1.0))
        lhs = abs(falpha(x, rho) - falpha(y, rho))
        rhs = 2.0 ** (1.0 - rho) * abs(x - y) ** rho
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


# --------------------------------------------------- concrete derivatives

def test_corrector_derivative_equilibrium():
    m = AxisMeasurement(0.0, 0.0)
    assert corrector_derivative(CorrectorState(0.0, 0.0), m, FLIGHT_CORRECTOR) == (0.0, 0.0)


def test_corrector_derivative_position_feedback():
    m = AxisMeasurement(0.0, 0.0)
    d1, d2 = corrector_derivative(CorrectorState(1.0, 0.0), m, FLIGHT_CORRECTOR)
    assert d1 == 0.0
    with mpmath.workdps(50):
        eps = mpmath.mpf(1) / mpmath.mpf("1.2")
        expected = -mp_falpha(eps, mpmath.mpf("0.1") / mpmath.mpf("1.9")) / eps ** 3
        assert abs(d2 - float(expected)) < 1e-12
    assert d2 == pytest.approx(-1.711, abs=1e-3)


def test_corrector_derivative_velocity_feedback():
    m = AxisMeasurement(0.0, 0.0)
    d1, d2 = corrector_derivative(CorrectorState(0.0, 1.0), m, FLIGHT_CORRECTOR)
    assert d1 == 1.0
    # -k2 * 1^alpha / eps^3 = -30 * 1.728
    assert d2 == pytest.approx(-51.84, rel=1e-12)


def test_corrector_derivative_rejects_nonfinite():
    m = AxisMeasurement(math.inf, 0.0)
    with pytest.raises(ValueError):
        corrector_derivative(CorrectorState(0.0, 0.0), m, FLIGHT_CORRECTOR)


def test_observer_derivative_zero_innovation():
    assert observer_derivative(ObserverState(0.3, 0.0), 0.3, 0.0, FLIGHT_OBSERVER) == (0.0, 0.0)


def test_observer_derivative_example():
    d3, d4 = observer_derivative(ObserverState(1.0, 2.0), 0.0, 0.0, FLIGHT_OBSERVER)
    assert d3 == pytest.approx(2.0 - 4.0 * 1.1, rel=1e-12)
    assert d4 == pytest.approx(-20.0 * 1.21, rel=1e-12)


def test_observer_derivative_known_input_passthrough():
    d3, d4 = observer_derivative(ObserverState(0.7, 5.0), 0.7, -3.0, FLIGHT_OBSERVER)
    assert d3 == 2.0
    assert d4 == 0.0


# ------------------------------------------------------------- stepping

def test_step_corrector_equilibrium_unchanged():
    m = AxisMeasurement(0.0, 0.0)
    out = step_corrector(CorrectorState(0.0, 0.0), m, FLIGHT_CORRECTOR, 1e-3)
    assert out == (0.0, 0.0)


def test_step_corrector_matches_fine_reference():
    # One 1 ms step against a cascade of 500 two-microsecond steps, each of
    # two one-microsecond substeps.
    m = AxisMeasurement(0.0, 0.0)
    coarse = step_corrector(CorrectorState(1.0, 0.0), m, FLIGHT_CORRECTOR, 1e-3)
    fine = CorrectorState(1.0, 0.0)
    for _ in range(500):
        fine = step_corrector(fine, m, FLIGHT_CORRECTOR, 2e-6)
    assert abs(coarse.xhat1 - fine.xhat1) < 1e-6
    assert abs(coarse.xhat2 - fine.xhat2) < 1e-6


def test_step_corrector_matches_fine_reference_balanced():
    m = AxisMeasurement(0.2, -0.1)
    coarse = step_corrector(CorrectorState(1.0, 0.3), m, BALANCED_CORRECTOR, 1e-3)
    fine = CorrectorState(1.0, 0.3)
    for _ in range(500):
        fine = step_corrector(fine, m, BALANCED_CORRECTOR, 2e-6)
    assert abs(coarse.xhat1 - fine.xhat1) < 1e-6
    assert abs(coarse.xhat2 - fine.xhat2) < 1e-6


def test_step_corrector_step_halving_order():
    # Away from the relay manifold the stepper is a second-order scheme: the
    # one-step vs two-half-steps difference shrinks at least quadratically.
    m = AxisMeasurement(0.0, 0.0)
    s0 = CorrectorState(4.0, 2.0)

    def halving_gap(dt):
        one = step_corrector(s0, m, BALANCED_CORRECTOR, dt)
        two = step_corrector(step_corrector(s0, m, BALANCED_CORRECTOR, dt / 2),
                             m, BALANCED_CORRECTOR, dt / 2)
        return math.hypot(one.xhat1 - two.xhat1, one.xhat2 - two.xhat2)

    g1 = halving_gap(2e-3)
    g2 = halving_gap(1e-3)
    assert g2 > 0
    assert g1 / g2 > 3.0


def test_step_corrector_no_spurious_velocity_offset():
    # Classical explicit steppers develop a stable nonzero innovation offset
    # on the relay-like velocity channel (~1e-2 scale at this dt), which
    # integrates into steady position drift.  The relay-aware step must hold
    # the innovation at the true equilibrium scale instead.
    m = AxisMeasurement(0.0, 0.0)
    s = CorrectorState(1.0, 0.0)
    for _ in range(5000):
        s = step_corrector(s, m, FLIGHT_CORRECTOR, 1e-3)
    assert abs(s.xhat2) < 1e-10
    assert abs(s.xhat1 - 1.0) < 1e-8


def classical_midpoint(state, meas, p, dt):
    d = corrector_derivative(state, meas, p)
    half = CorrectorState(state[0] + 0.5 * dt * d[0], state[1] + 0.5 * dt * d[1])
    d = corrector_derivative(half, meas, p)
    return CorrectorState(state[0] + dt * d[0], state[1] + dt * d[1])


def classical_rk4(state, meas, p, dt):
    k1 = corrector_derivative(state, meas, p)
    k2 = corrector_derivative(CorrectorState(state[0] + 0.5 * dt * k1[0],
                                             state[1] + 0.5 * dt * k1[1]), meas, p)
    k3 = corrector_derivative(CorrectorState(state[0] + 0.5 * dt * k2[0],
                                             state[1] + 0.5 * dt * k2[1]), meas, p)
    k4 = corrector_derivative(CorrectorState(state[0] + dt * k3[0],
                                             state[1] + dt * k3[1]), meas, p)
    return CorrectorState(*(x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                            for x, a, b, c, d in zip(state, k1, k2, k3, k4)))


@pytest.mark.parametrize("step, drift", [(classical_midpoint, -7.17e-3),
                                         (classical_rk4, -4.49e-3)],
                         ids=["midpoint", "rk4"])
def test_classical_steppers_drift_the_flight_corrector(step, drift):
    # The README's "a few mm/s at 1 ms steps": with the flight gains at rest
    # (zero measurements, start (1, 0)), a classical explicit stepper's
    # spurious velocity offset moves the position estimate steadily, where
    # `step_corrector` holds it (test_step_corrector_no_spurious_velocity_offset).
    # Measured over 2 s to 5 s: -7.17 mm/s (midpoint) and -4.49 mm/s (RK4),
    # the same to 0.5 % over 10 s to 20 s.
    m, dt = AxisMeasurement(0.0, 0.0), 1e-3
    s = CorrectorState(1.0, 0.0)
    for i in range(5000):
        s = step(s, m, FLIGHT_CORRECTOR, dt)
        if i + 1 == 2000:
            at_2s = s.xhat1
    assert abs((s.xhat1 - at_2s) / 3.0 / drift - 1.0) <= 0.01


def test_step_corrector_finite_time_convergence_balanced():
    # Module-level version of the finite-time property (20 trials; the
    # acceptance suite runs 100): from any start with norm <= 10 the error
    # norm is below 1e-3 within 20 s and stays there.
    rng = np.random.default_rng(5)
    m = AxisMeasurement(0.0, 0.0)
    dt = 1e-3
    for _ in range(20):
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0, 10.0)
        s = CorrectorState(r * math.cos(ang), r * math.sin(ang))
        last_above = 0.0
        for i in range(25_000):
            s = step_corrector(s, m, BALANCED_CORRECTOR, dt)
            if math.hypot(s.xhat1, s.xhat2) >= 1e-3:
                last_above = (i + 1) * dt
        assert last_above < 20.0


def test_step_corrector_bounded_error_rejection():
    # Constant measurement bias, no noise: the position estimate error stays
    # bounded, and its steady value is non-increasing as eps_c decreases.
    results = []
    for eps in (0.9, 0.7, 0.5, 0.3):
        p = CorrectorParams(1.0, 30.0, 0.1, eps)
        s = CorrectorState(0.0, 0.0)
        m = AxisMeasurement(20.0, 0.0)  # y_o1 biased by 20, truth at 0
        for _ in range(30_000):
            s = step_corrector(s, m, p, 1e-3)
        assert abs(s.xhat1) <= 20.0
        results.append(abs(s.xhat1))
    assert all(b <= a + 1e-6 for a, b in zip(results, results[1:]))


def test_step_observer_zero_innovation_unchanged():
    out = step_observer(ObserverState(1.5, 0.0), 1.5, 0.0, FLIGHT_OBSERVER, 1e-3)
    assert out == (1.5, 0.0)


def test_step_observer_matches_fine_reference():
    coarse = step_observer(ObserverState(1.0, 2.0), 0.0, 0.0, FLIGHT_OBSERVER, 1e-3)
    fine = ObserverState(1.0, 2.0)
    for _ in range(1000):
        fine = step_observer(fine, 0.0, 0.0, FLIGHT_OBSERVER, 1e-6)
    assert abs(coarse.xhat3 - fine.xhat3) < 1e-6
    assert abs(coarse.xhat4 - fine.xhat4) < 1e-6


def test_step_observer_uncertainty_rate_opposes_innovation():
    for innov in (0.5, -0.5, 2.0, -2.0):
        out = step_observer(ObserverState(innov, 0.0), 0.0, 0.0, FLIGHT_OBSERVER, 1e-4)
        assert out.xhat4 * innov < 0.0


def test_observer_ramp_tracking_stays_bounded():
    # sigma(t) = c*t with bounded rate: the uncertainty-estimate error must
    # not diverge over 100 s.
    c = 0.2
    dt = 1e-3
    s = ObserverState(0.0, 0.0)
    worst = 0.0
    for i in range(100_000):
        t = i * dt
        s = step_observer(s, 0.5 * c * t * t, 0.0, FLIGHT_OBSERVER, dt)
        if t > 10.0:
            worst = max(worst, abs(s.xhat4 - c * (t + dt)))
    assert worst < 0.1


def test_estimators_stay_finite_long_run():
    # Stiffness guard: a million steps with bounded noisy held inputs.
    rng = np.random.default_rng(6)
    sc = CorrectorState(5.0, -2.0)
    so = ObserverState(1.0, 0.5)
    y1, y2 = 20.0, 0.0
    for i in range(1_000_000):
        if i % 10 == 0:
            y2 = float(0.01 * rng.standard_normal())
        if i % 1000 == 0:
            y1 = 20.0 + float(rng.standard_normal())
        m = AxisMeasurement(y1, y2)
        sc = step_corrector(sc, m, FLIGHT_CORRECTOR, 1e-3)
        so = step_observer(so, y2, 0.3, FLIGHT_OBSERVER, 1e-3)
    assert all(map(math.isfinite, (*sc, *so)))


# Tolerances of the difference-quotient checks below, measured at h = 1e-8
# over 2000 states and measurements drawn from [-3, 3] (seed 7): the largest
# gap |(step(s, h) - s)/h - f(s)| / max(1, |f(s)|) over both components was
# 4.7e-7 (balanced corrector), 5.2e-5 (flight corrector; at a velocity
# innovation of 2e-4, where the alpha_c = 0.1 feedback is steepest) and
# 1.3e-6 (observer).  Each gap fell 10x per decade of h from 1e-6 to 1e-8,
# so it is the first-order term, not rounding.
@pytest.mark.parametrize("p,tol", [(BALANCED_CORRECTOR, 1e-6), (FLIGHT_CORRECTOR, 1e-4)],
                         ids=["balanced", "flight"])
def test_step_corrector_difference_quotient_matches_oracle(p, tol):
    h = 1e-8
    rng = np.random.default_rng(9)
    for _ in range(300):
        s = CorrectorState(*rng.uniform(-3, 3, 2))
        m = AxisMeasurement(*rng.uniform(-3, 3, 2))
        out = step_corrector(s, m, p, h)
        for new, old, d in zip(out, s, corrector_derivative(s, m, p)):
            assert abs((new - old) / h - d) <= tol * max(1.0, abs(d))


def test_step_observer_difference_quotient_matches_oracle():
    h = 1e-8
    rng = np.random.default_rng(10)
    for _ in range(300):
        s = ObserverState(*rng.uniform(-3, 3, 2))
        y2, hin = (float(v) for v in rng.uniform(-3, 3, 2))
        out = step_observer(s, y2, hin, FLIGHT_OBSERVER, h)
        for new, old, d in zip(out, s, observer_derivative(s, y2, hin, FLIGHT_OBSERVER)):
            assert abs((new - old) / h - d) <= 3e-6 * max(1.0, abs(d))


# The dilations of the `estimators` module docstring, stepped: one step from
# a dilated state, with dilated measurements (h = 0) and the step dt scaled
# by lambda^(1 - r) (corrector) or lambda^(1 - beta) (observer), is the
# dilated step.  Each output component, of weight lambda^w, may differ by
# DILATION_RTOL of itself plus DILATION_FLOOR_ULPS rounding units of its
# scale, times lambda^w: the largest of its inputs, its undilated output and
# the terms of its update that can cancel.  Measured over 4 000 uniform
# draws per gain set from the domains below: the worst relative error was
# 2.7e-14 (balanced corrector), 1.3e-13 (flight corrector), 2.3e-14 (flight
# observer) and 9.1e-13 (the other observer), the two largest on outputs
# near 0; with the relative term, the floor needed at most 1.0 unit.
DILATION_RTOL = 1e-13
DILATION_FLOOR_ULPS = 4.0
dilations = st.integers(-12, 12).map(lambda k: 2.0 ** k)
dilated_steps = st.floats(-5.0, -2.0).map(lambda e: 10.0 ** e)
DILATION_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def dilated_values(bound):
    # 0 or a magnitude of at least 1e-100: on tinier inputs the powers inside
    # a step reach the subnormal range, whose rounding is not relative.
    return st.floats(-bound, bound).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)


def assert_dilated(got, want, weights, scales):
    for g, w, lam_w, scale in zip(got, want, weights, scales):
        floor = DILATION_FLOOR_ULPS * 2.0 ** -52 * lam_w * scale
        assert abs(g - lam_w * w) <= DILATION_RTOL * abs(lam_w * w) + floor, (g, lam_w * w)


@DILATION_SETTINGS
@given(p=st.sampled_from([BALANCED_CORRECTOR, FLIGHT_CORRECTOR]), lam=dilations,
       x1=dilated_values(5.0), x2=dilated_values(5.0), y1=dilated_values(20.0),
       y2=dilated_values(2.0), dt=dilated_steps)
def test_step_corrector_commutes_with_its_dilation(p, lam, x1, x2, y1, y2, dt):
    lam_r = lam ** (1.0 / (2.0 - p.alpha_c))
    out = step_corrector(CorrectorState(x1, x2), AxisMeasurement(y1, y2), p, dt)
    dilated = step_corrector(CorrectorState(lam * x1, lam_r * x2),
                             AxisMeasurement(lam * y1, lam_r * y2), p, dt * lam / lam_r)
    # x1 moves by about dt * y2 + dt * (x2 - y2), which can cancel
    assert_dilated(dilated, out, (lam, lam_r),
                   (max(abs(x1), abs(y1), abs(out[0]), dt * abs(x2), dt * abs(y2)),
                    max(abs(x2), abs(y2), abs(out[1]))))


@DILATION_SETTINGS
@given(p=st.sampled_from([FLIGHT_OBSERVER, ObserverParams(5.0, 9.0, 0.3, 0.5)]),
       lam=dilations, x3=dilated_values(5.0), x4=dilated_values(5.0),
       y2=dilated_values(5.0), dt=dilated_steps)
def test_step_observer_commutes_with_its_dilation(p, lam, x3, x4, y2, dt):
    lam_b = lam ** p.beta
    out = step_observer(ObserverState(x3, x4), y2, 0.0, p, dt)
    dilated = step_observer(ObserverState(lam * x3, lam_b * x4), lam * y2, 0.0, p,
                            dt * lam / lam_b)
    assert_dilated(dilated, out, (lam, lam_b),
                   (max(abs(x3), abs(y2), abs(out[0]), dt * abs(x4)),
                    max(abs(x4), abs(out[1]))))


def first_step_below(p, state, dt, threshold, steps):
    """The first step at which the corrector's homogeneous norm
    |u1| + |u2|^(2 - alpha_c) (zero measurements) falls below ``threshold``."""
    for i in range(steps):
        state = step_corrector(state, AxisMeasurement(0.0, 0.0), p, dt)
        if abs(state.xhat1) + abs(state.xhat2) ** (2.0 - p.alpha_c) < threshold:
            return i + 1
    return None


@pytest.mark.parametrize("p, start, dt, threshold, settled", [
    (BALANCED_CORRECTOR, (1.0, 0.0), 1e-3, 1e-3, 2765),
    (BALANCED_CORRECTOR, (-2.0, 3.0), 1e-3, 1e-3, 3044),
    (FLIGHT_CORRECTOR, (0.0, 1.0), 1e-4, 0.1, 142),
    (FLIGHT_CORRECTOR, (0.5, -2.0), 1e-4, 0.6, 327),
], ids=["balanced (1, 0)", "balanced (-2, 3)", "flight (0, 1)", "flight (0.5, -2)"])
def test_settling_time_scales_along_a_dilation_ray(p, start, dt, threshold, settled):
    # A dilated start (lam*x1, lam^r*x2), stepped at dt*lam^(1 - r), crosses
    # the dilated threshold lam*threshold at the same step as the start does
    # its own: settling time grows as lam^(1 - r) = lam^((1-alpha_c)/(2-alpha_c))
    # along each ray.  Measured: the same step at every lam = 2^k for
    # |k| <= 6.  (The flight corrector's relay freezes its position error,
    # so there the threshold is crossed as the velocity error lands.)
    r = 1.0 / (2.0 - p.alpha_c)
    assert first_step_below(p, CorrectorState(*start), dt, threshold, 5000) == settled
    for lam in (2.0 ** -6, 2.0 ** -3, 0.5, 2.0, 8.0, 64.0):
        dilated = CorrectorState(lam * start[0], lam ** r * start[1])
        step = first_step_below(p, dilated, dt * lam ** (1.0 - r), lam * threshold, 5000)
        assert step is not None and abs(step - settled) <= 1, (lam, step)


def test_step_rejects_bad_dt():
    m = AxisMeasurement(0.0, 0.0)
    with pytest.raises(ValueError):
        step_corrector(CorrectorState(0.0, 0.0), m, FLIGHT_CORRECTOR, 0.0)
    with pytest.raises(ValueError):
        step_observer(ObserverState(0.0, 0.0), 0.0, 0.0, FLIGHT_OBSERVER, -1e-3)


# ------------------------------------------------------------ parameters

def test_corrector_params_validation():
    with pytest.raises(ValueError):
        CorrectorParams(-1.0, 30.0, 0.1, 0.8)
    with pytest.raises(ValueError):
        CorrectorParams(1.0, 30.0, 1.0, 0.8)
    with pytest.raises(ValueError):
        CorrectorParams(1.0, 30.0, 0.1, 1.0)


def test_observer_params_validation():
    with pytest.raises(ValueError):
        ObserverParams(0.0, 4.0, 0.6, 0.9)
    with pytest.raises(ValueError):
        ObserverParams(20.0, 4.0, 0.6, 1.2)


@pytest.mark.parametrize("cls, validate, values", [
    (CorrectorParams, validate_corrector_params, (math.inf, -2.0, 0.1, 1.5)),
    (CorrectorParams, validate_corrector_params, (1.0, math.nan, 1.0, 0.8)),
    (ObserverParams, validate_observer_params, (0.0, 4.0, -0.6, 0.9)),
])
def test_params_refuse_with_first_fault_the_rules_report(cls, validate, values):
    # One rule list: the class refuses what the selection rules call
    # unstable, naming the first of its faults in the rule report's words,
    # as every scenario class refuses its first fault.
    report = validate(*values)
    assert not report.stable and len(report.messages) >= 2
    with pytest.raises(ValueError) as err:
        cls(*values)
    assert str(err.value) == report.messages[0]
