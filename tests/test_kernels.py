"""The public steppers against reference copies of their straightforward forms.

The steppers run on float kernels with per-parameter constants worked out
once (see the README's numerical notes).  The reference functions below are
the plain one-function-per-equation forms those kernels replaced: every
constant recomputed per call, every fractional power through a helper.  The
kernels must keep the same floating-point operations in the same order, so
the results are compared bit for bit, signed zeros included, over inputs
that reach every branch: zero and signed-zero innovations, zero forcing, the
closed-form relay decay and the overflowing relay equilibrium.  The
steppers check only their outputs for finiteness; a non-finite input reaches
the output, which the last tests here show on flight-like inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from corrobs import (AxisMeasurement, CorrectorParams, CorrectorState, ObserverParams,
                     ObserverState, UavParams, UncertaintyModel,
                     input_acceleration_scalars, plant_axes, step_corrector,
                     step_observer, step_plant)
from corrobs.fractional import relay_step
from corrobs.plant import true_delta

# ------------------------------------------------------------ references


def ref_fp(v, alpha):
    if v == 0.0:
        return 0.0
    return math.copysign(abs(v) ** alpha, v)


def ref_relay_equilibrium(forcing, c, alpha):
    if forcing == 0.0:
        return 0.0
    try:
        return math.copysign((abs(forcing) / c) ** (1.0 / alpha), forcing)
    except OverflowError:
        return math.copysign(math.inf, forcing)


def ref_relay_step(u, forcing, c, alpha, h):
    ueq = ref_relay_equilibrium(forcing, c, alpha)

    if math.isfinite(ueq):
        d = u - ueq
        g1 = forcing - c * ref_fp(u, alpha)
        um = u + 0.5 * h * g1
        if d == 0.0 or (um - ueq) * d <= 0.0 or (
                forcing == 0.0 and h * alpha * abs(g1) > 0.5 * abs(d)):
            ad = abs(d)
            if ad == 0.0:
                return ueq, ueq * h
            one_m = 1.0 - alpha
            z = ad ** one_m - c * one_m * h
            if z <= 0.0:
                integral = math.copysign(ad ** (2.0 - alpha) / (c * (2.0 - alpha)), d)
                return ueq, integral + ueq * h
            dend = math.copysign(z ** (1.0 / one_m), d)
            integral = math.copysign(
                (ad ** (2.0 - alpha) - abs(dend) ** (2.0 - alpha)) / (c * (2.0 - alpha)), d)
            return ueq + dend, integral + ueq * h
        g2 = forcing - c * ref_fp(um, alpha)
        un = u + h * g2
        if (un - ueq) * d < 0.0:
            un = ueq
        return un, 0.5 * h * (u + un)

    g1 = forcing - c * ref_fp(u, alpha)
    um = u + 0.5 * h * g1
    g2 = forcing - c * ref_fp(um, alpha)
    un = u + h * g2
    return un, 0.5 * h * (u + un)


def ref_step_corrector(state, meas, p, dt):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    xhat1, xhat2 = state
    y1, y2 = meas.y_o1, meas.y_o2
    eps = p.eps_c
    inv_eps3 = 1.0 / (eps * eps * eps)
    k1 = p.k1
    c2 = p.k2 * inv_eps3
    alpha = p.alpha_c
    kappa = alpha / (2.0 - alpha)
    u1 = xhat1 - y1
    u2 = xhat2 - y2
    h = dt / 2
    for _ in range(2):
        spring = -k1 * ref_fp(eps * u1, kappa) * inv_eps3
        u2_next, integral = ref_relay_step(u2, spring, c2, alpha, h)
        u1 += h * y2 + integral
        u2 = u2_next
    x1_out = y1 + u1
    x2_out = y2 + u2
    if not (math.isfinite(x1_out) and math.isfinite(x2_out)):
        raise ValueError("corrector step produced a non-finite state")
    return CorrectorState(x1_out, x2_out)


def ref_step_observer(state, y_o2, h, p, dt):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    xhat3, xhat4 = state

    alpha = p.alpha_o
    beta = 0.5 * (alpha + 1.0)
    c4 = p.k4 / p.eps_o
    c3 = p.k3 / (p.eps_o * p.eps_o)
    half = 0.5 * dt

    innov = xhat3 - y_o2
    a1 = xhat4 - c4 * ref_fp(innov, beta) + h
    b1 = -c3 * ref_fp(innov, alpha)
    innov = xhat3 + half * a1 - y_o2
    a2 = xhat4 + half * b1 - c4 * ref_fp(innov, beta) + h
    b2 = -c3 * ref_fp(innov, alpha)
    innov = xhat3 + half * a2 - y_o2
    a3 = xhat4 + half * b2 - c4 * ref_fp(innov, beta) + h
    b3 = -c3 * ref_fp(innov, alpha)
    innov = xhat3 + dt * a3 - y_o2
    a4 = xhat4 + dt * b3 - c4 * ref_fp(innov, beta) + h
    b4 = -c3 * ref_fp(innov, alpha)
    x3_out = xhat3 + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    x4_out = xhat4 + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    if not (math.isfinite(x3_out) and math.isfinite(x4_out)):
        raise ValueError("observer step produced a non-finite state")
    return ObserverState(x3_out, x4_out)


def ref_axis_scale(axis, params):
    if axis < 3:
        return 1.0 / params.m, 1.0
    if axis == 3:
        return 1.0 / params.J_psi, 1.0
    if axis == 4:
        return 1.0 / params.J_theta, params.l
    return 1.0 / params.J_phi, params.l


def ref_delta(unc, axis, t):
    val = 0.0
    for amp, omega, phase in unc.delta_sinusoids[axis]:
        val += amp * math.sin(omega * t + phase)
    return val


def ref_step_plant(state, wrench, unc, params, t, dt):
    s = [float(v) for v in state]
    u_x, u_y, u_z, u_psi, u_theta, u_phi = wrench
    h6 = (
        u_x / params.m,
        u_y / params.m,
        u_z / params.m - params.g,
        u_psi / params.J_psi,
        u_theta / params.J_theta,
        u_phi / params.J_phi,
    )
    tm = t + 0.5 * dt
    te = t + dt
    out = [0.0] * 12
    for axis in range(6):
        inv, lever = ref_axis_scale(axis, params)
        cdrag = inv * lever * unc.drag[axis]
        d0 = inv * ref_delta(unc, axis, t)
        dm = inv * ref_delta(unc, axis, tm)
        de = inv * ref_delta(unc, axis, te)
        hv = h6[axis]
        v = s[6 + axis]
        a1 = hv - cdrag * v + d0
        a2 = hv - cdrag * (v + 0.5 * dt * a1) + dm
        a3 = hv - cdrag * (v + 0.5 * dt * a2) + dm
        a4 = hv - cdrag * (v + dt * a3) + de
        out[6 + axis] = v + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        out[axis] = s[axis] + dt * v + dt * dt / 6.0 * (a1 + a2 + a3)
    return np.array(out)


# ------------------------------------------------------------ comparison


def plant_step(state, wrench, unc, params, t, dt):
    """`step_plant` driven by a wrench, with its per-run constants worked out."""
    return np.array(step_plant([float(v) for v in state],
                               input_acceleration_scalars(wrench, params),
                               plant_axes(unc, params), t, dt))


def outcome(fn, *args):
    """Result as hex floats (signed zeros and NaNs kept), or the error raised."""
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return type(out).__name__, [float(v).hex() for v in out]


# Magnitudes from far below to far above the flight scale, plus exact zeros of
# both signs, so that zero innovations and zero forcing come up often.
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.floats(-1e-6, 1e-6, allow_nan=False, allow_infinity=False),
)
exponents = st.floats(0.01, 0.99)
scales = st.floats(0.01, 0.99)
gains = st.floats(1e-3, 1e3)
steps = st.sampled_from([1e-4, 1e-3, 5e-3, 1e-2])
SETTINGS = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(u=values, forcing=values, c=st.one_of(gains, st.floats(1e-12, 1e-6)),
       alpha=exponents, h=steps)
def test_relay_step_matches_reference(u, forcing, c, alpha, h):
    assert outcome(relay_step, u, forcing, c, alpha, h) == \
        outcome(ref_relay_step, u, forcing, c, alpha, h)


def test_relay_step_reaches_each_branch():
    # Closed-form landing, partial decay, midpoint step, an equilibrium
    # beyond float range and a stiff unforced step; each must match the
    # reference exactly.
    cases = [(0.5, 0.0, 30.0, 0.1, 1e-3), (0.5, 0.0, 1.0, 0.5, 1e-3),
             (1e-9, 0.0, 1e-3, 0.5, 1e-3),
             (1e3, 1e3, 1e-12, 0.01, 1e-3), (-0.0, 0.0, 2.0, 0.5, 1e-3),
             (1.0, 0.0, 1.0, 0.976, 2.0)]
    for args in cases:
        assert outcome(relay_step, *args) == outcome(ref_relay_step, *args)
    assert not math.isfinite(ref_relay_equilibrium(1e3, 1e-12, 0.01))


@SETTINGS
@given(x1=values, x2=values, y1=values, y2=values, zero_pos=st.booleans(),
       zero_vel=st.booleans(), k1=gains, k2=gains, alpha=exponents, eps=scales,
       dt=steps)
def test_step_corrector_matches_reference(x1, x2, y1, y2, zero_pos, zero_vel, k1, k2,
                                          alpha, eps, dt):
    if zero_pos:
        y1 = x1
    if zero_vel:
        y2 = -x2 if x2 == 0.0 else x2
    p = CorrectorParams(k1, k2, alpha, eps)
    state, meas = CorrectorState(x1, x2), AxisMeasurement(y1, y2)
    assert outcome(step_corrector, state, meas, p, dt) == \
        outcome(ref_step_corrector, state, meas, p, dt)


@SETTINGS
@given(x3=values, x4=values, y2=values, h=values, zero_innov=st.booleans(),
       k3=gains, k4=gains, alpha=exponents, eps=scales, dt=steps)
def test_step_observer_matches_reference(x3, x4, y2, h, zero_innov, k3, k4, alpha,
                                         eps, dt):
    if zero_innov:
        y2 = x3
    p = ObserverParams(k3, k4, alpha, eps)
    state = ObserverState(x3, x4)
    assert outcome(step_observer, state, y2, h, p, dt) == \
        outcome(ref_step_observer, state, y2, h, p, dt)


# Flight-like inputs: the flight's estimator parameters, positions up to the
# 20 m bias off a 5 m circle, speeds and known inputs up to about gravity.
FLIGHT_CORRECTOR = CorrectorParams(1.0, 30.0, 0.1, 1.0 / 1.2)
FLIGHT_OBSERVER = ObserverParams(20.0, 4.0, 0.6, 1.0 / 1.1)
flight_values = st.floats(-30.0, 30.0)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@SETTINGS
@given(inputs=st.lists(flight_values, min_size=4, max_size=4), which=st.integers(0, 3),
       bad=non_finite)
def test_step_corrector_refuses_a_non_finite_input(inputs, which, bad):
    inputs[which] = bad
    x1, x2, y1, y2 = inputs
    with pytest.raises(ValueError, match="non-finite"):
        step_corrector(CorrectorState(x1, x2), AxisMeasurement(y1, y2), FLIGHT_CORRECTOR,
                       1e-3)


@SETTINGS
@given(inputs=st.lists(flight_values, min_size=4, max_size=4), which=st.integers(0, 3),
       bad=non_finite)
def test_step_observer_refuses_a_non_finite_input(inputs, which, bad):
    inputs[which] = bad
    x3, x4, y2, h = inputs
    with pytest.raises(ValueError, match="non-finite"):
        step_observer(ObserverState(x3, x4), y2, h, FLIGHT_OBSERVER, 1e-3)


sinusoids = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 5.0),
                               st.floats(-3.0, 3.0)), max_size=2).map(tuple)


@SETTINGS
@given(state=st.lists(values, min_size=12, max_size=12),
       wrench=st.lists(values, min_size=6, max_size=6),
       drag=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
       sins=st.lists(sinusoids, min_size=6, max_size=6),
       const=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
       t=st.floats(0.0, 100.0), dt=steps)
def test_step_plant_matches_reference(state, wrench, drag, sins, const, t, dt):
    unc = UncertaintyModel(drag=tuple(drag), delta_sinusoids=tuple(
        s + ((c, 0.0, math.pi / 2),) for s, c in zip(sins, const)))
    params = UavParams()
    w = tuple(wrench)
    out = plant_step(np.array(state), w, unc, params, t, dt)
    ref = ref_step_plant(np.array(state), w, unc, params, t, dt)
    assume(np.all(np.isfinite(ref)))
    assert out.tobytes() == ref.tobytes()


def test_step_plant_matches_reference_with_mixed_disturbance():
    # sinusoids on x, z and phi, constants (zero-frequency sinusoids) on y,
    # z, theta and phi, and no disturbance on psi
    unc = UncertaintyModel(drag=(0.1,) * 6, delta_sinusoids=(
        ((1.0, 1.0, 0.0),), ((0.25, 0.0, math.pi / 2),),
        ((1.0, 1.0, math.pi / 2), (-0.5, 0.0, math.pi / 2)), (),
        ((-1.5, 0.0, math.pi / 2),),
        ((0.5, 2.0, -1.0), (0.1, 7.0, 0.3), (0.2, 0.0, math.pi / 2))))
    state = np.linspace(-1.0, 1.0, 12)
    w = (0.3, -0.2, 19.7, 0.01, 0.0, -0.0)
    for t in (0.0, 0.37, 12.5):
        out = plant_step(state, w, unc, UavParams(), t, 1e-3)
        assert out.tobytes() == ref_step_plant(state, w, unc, UavParams(), t, 1e-3).tobytes()


# A constant disturbance c is the zero-frequency sinusoid (c, 0, pi/2):
# sin(0 * t + pi/2) is exactly 1.0 at every finite t >= 0, and the sum starts
# from 0.0, so the disturbance is exactly c, save that -0.0 becomes 0.0 (a zero
# disturbance is written as no sinusoid).
constants = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


@SETTINGS
@given(c=constants.filter(lambda c: math.copysign(1.0, c) > 0.0 or c != 0.0),
       axis=st.integers(0, 5), drag=st.floats(0.0, 1.0),
       vel=st.lists(values, min_size=3, max_size=3),
       state=st.lists(values, min_size=12, max_size=12),
       wrench=st.lists(values, min_size=6, max_size=6), t=st.floats(0.0, 1e6), dt=steps)
def test_constant_disturbance_as_a_zero_frequency_sinusoid(c, axis, drag, vel, state, wrench,
                                                           t, dt):
    # What a constant disturbance c gave: Delta = c at every time, so a force
    # of -lever * k * v + c, and c / (mass or inertia) in each stage of the
    # plant step, as the reference computes it when `ref_delta` is c.
    unc = UncertaintyModel(
        drag=tuple(drag if a == axis else 0.0 for a in range(6)),
        delta_sinusoids=tuple(((c, 0.0, math.pi / 2),) if a == axis else () for a in range(6)))
    params = UavParams()
    lever = params.drag_lever[axis]
    times = [t, t + 0.5 * dt, t + dt]
    for ti in times:
        assert ref_delta(unc, axis, ti).hex() == c.hex()
    for v, ti in zip(vel, times):
        assert true_delta(axis, v, ti, unc, params).hex() == (-lever * drag * v + c).hex()
    column = true_delta(axis, np.array(vel), np.array(times), unc, params)
    assert column.tobytes() == (-lever * drag * np.array(vel) + np.full(3, c)).tobytes()
    w = tuple(wrench)
    assert outcome(plant_step, np.array(state), w, unc, params, t, dt) == \
        outcome(ref_step_plant, np.array(state), w, unc, params, t, dt)


# The steppers write the odd power [v]^a without abs and copysign, as
# v ** a for v > 0 and -((-v) ** a) for v < 0 (see the `fractional` module
# docstring); these cases pin that form to the references at its edges.
NEG_SUBNORMAL = -5e-324
NEG_TINY = -2.2250738585072014e-308    # the smallest normal float, negated
EDGE_CORRECTOR = CorrectorParams(2.0, 2.0, 0.5, 0.9)


@pytest.mark.parametrize("args", [
    # negative subnormal and tiny innovation, forcing, or both
    (NEG_SUBNORMAL, 0.0, 30.0, 0.1, 1e-3), (NEG_TINY, 0.0, 30.0, 0.1, 1e-3),
    (0.5, NEG_SUBNORMAL, 30.0, 0.1, 1e-3), (0.5, NEG_TINY, 30.0, 0.1, 1e-3),
    (0.0, NEG_SUBNORMAL, 2.0, 0.5, 1e-3), (NEG_TINY, NEG_TINY, 2.0, 0.5, 1e-3),
    (-NEG_SUBNORMAL, NEG_SUBNORMAL, 1.0, 0.5, 1e-3),
    # -0.0 forcing with negative u: closed form, midpoint and landing
    (-0.5, -0.0, 2.0, 0.5, 1e-3), (-1e-9, -0.0, 1e-3, 0.5, 1e-3),
    (-1e-8, -0.0, 2.0, 0.5, 1e-3),
    # an equilibrium beyond float range, on the negative side
    (1e3, -1e3, 1e-12, 0.01, 1e-3),
])
def test_relay_step_odd_power_edges(args):
    assert outcome(relay_step, *args) == outcome(ref_relay_step, *args)


def test_overflow_is_the_reference_error():
    # A stiff relay step from |u| = 1e250 lands, and the integral's
    # |u| ** (2 - alpha) overflows, in `relay_step` and through the corrector.
    stiff = CorrectorParams(1.0, 1e240, 0.1, 0.9)
    for u in (1e250, -1e250):
        for fn, ref, args in (
                (relay_step, ref_relay_step, (u, 0.0, 1e240, 0.1, 5e-4)),
                (step_corrector, ref_step_corrector,
                 (CorrectorState(0.0, u), AxisMeasurement(0.0, 0.0), stiff, 1e-3))):
            result = outcome(fn, *args)
            assert result[0] == "OverflowError"
            assert result == outcome(ref, *args)


@pytest.mark.parametrize("state,meas,p", [
    ((NEG_SUBNORMAL, 0.0), (0.0, 0.0), EDGE_CORRECTOR),
    ((0.0, NEG_SUBNORMAL), (0.0, 0.0), EDGE_CORRECTOR),
    ((NEG_TINY, NEG_TINY), (0.0, 0.0), EDGE_CORRECTOR),
    ((0.3, -0.0), (0.3, 0.0), EDGE_CORRECTOR),
    ((-0.2, -0.5), (0.0, 0.0), EDGE_CORRECTOR),
])
def test_step_corrector_odd_power_edges(state, meas, p):
    args = (CorrectorState(*state), AxisMeasurement(*meas), p, 1e-3)
    assert outcome(step_corrector, *args) == outcome(ref_step_corrector, *args)


@pytest.mark.parametrize("x3,y2", [(NEG_SUBNORMAL, 0.0), (NEG_TINY, 0.0), (0.0, -NEG_TINY),
                                   (-0.0, 0.0), (-0.4, 0.1)])
def test_step_observer_odd_power_edges(x3, y2):
    args = (ObserverState(x3, -0.0), y2, 0.0, FLIGHT_OBSERVER, 1e-3)
    assert outcome(step_observer, *args) == outcome(ref_step_observer, *args)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", range(4))
def test_non_finite_input_reaches_the_output_check(bad, which):
    corrector_in = [0.1, -0.2, 0.3, -0.4]
    corrector_in[which] = bad
    x1, x2, y1, y2 = corrector_in
    args = (CorrectorState(x1, x2), AxisMeasurement(y1, y2), FLIGHT_CORRECTOR, 1e-3)
    result = outcome(step_corrector, *args)
    assert result == ("ValueError", "corrector step produced a non-finite state")
    assert result == outcome(ref_step_corrector, *args)
    observer_in = [0.1, -0.2, 0.3, -0.4]
    observer_in[which] = bad
    x3, x4, y2, h = observer_in
    args = (ObserverState(x3, x4), y2, h, FLIGHT_OBSERVER, 1e-3)
    result = outcome(step_observer, *args)
    assert result == ("ValueError", "observer step produced a non-finite state")
    assert result == outcome(ref_step_observer, *args)
