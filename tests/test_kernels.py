"""The public steppers against reference copies of their straightforward forms.

The steppers run on float kernels with per-parameter constants worked out
once (see the README's numerical notes).  The reference functions below are
the plain one-function-per-equation forms those kernels replaced: every
constant recomputed per call, every fractional power through a helper.  The
kernels must keep the same floating-point operations in the same order, so
the results are compared bit for bit, signed zeros included, over inputs
that reach every branch: zero and signed-zero innovations, zero forcing, the
closed-form relay decay, the overflowing relay equilibrium and one or two
corrector substeps.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from corrobs import (AxisMeasurement, CorrectorParams, CorrectorState, ObserverParams,
                     ObserverState, UavParams, UncertaintyModel, WrenchInput,
                     step_corrector, step_observer, step_plant)
from corrobs.fractional import relay_step

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
        if d == 0.0 or (um - ueq) * d <= 0.0:
            ad = abs(d)
            if ad == 0.0:
                return ueq, ueq * h
            one_m = 1.0 - alpha
            if one_m <= 0.0:
                dec = math.exp(-c * h)
                dend = d * dec
                return ueq + dend, ueq * h + d * (1.0 - dec) / c
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


def ref_step_corrector(state, meas, p, dt, substeps=2):
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    xhat1, xhat2 = state
    y1, y2 = meas.y_o1, meas.y_o2
    if not (math.isfinite(xhat1) and math.isfinite(xhat2)
            and math.isfinite(y1) and math.isfinite(y2)):
        raise ValueError("non-finite value in corrector step input")

    eps = p.eps_c
    inv_eps3 = 1.0 / (eps * eps * eps)
    k1 = p.k1
    c2 = p.k2 * inv_eps3
    alpha = p.alpha_c
    kappa = alpha / (2.0 - alpha)
    u1 = xhat1 - y1
    u2 = xhat2 - y2
    h = dt / substeps
    for _ in range(substeps):
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
    if not (math.isfinite(xhat3) and math.isfinite(xhat4)
            and math.isfinite(y_o2) and math.isfinite(h)):
        raise ValueError("non-finite value in observer step input")

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


def ref_step_plant(state, wrench, unc, params, t, dt):
    s = [float(v) for v in state]
    h6 = (
        wrench.u_x / params.m,
        wrench.u_y / params.m,
        wrench.u_z / params.m - params.g,
        wrench.u_psi / params.J_psi,
        wrench.u_theta / params.J_theta,
        wrench.u_phi / params.J_phi,
    )
    tm = t + 0.5 * dt
    te = t + dt
    out = [0.0] * 12
    for axis in range(6):
        inv, lever = ref_axis_scale(axis, params)
        cdrag = inv * lever * unc.drag[axis]
        d0 = inv * unc.delta(axis, t)
        dm = inv * unc.delta(axis, tm)
        de = inv * unc.delta(axis, te)
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
       alpha=st.one_of(exponents, st.just(1.0)), h=steps)
def test_relay_step_matches_reference(u, forcing, c, alpha, h):
    assert outcome(relay_step, u, forcing, c, alpha, h) == \
        outcome(ref_relay_step, u, forcing, c, alpha, h)


def test_relay_step_reaches_each_branch():
    # Closed-form landing, partial decay, linear relay, midpoint step and an
    # equilibrium beyond float range; each must match the reference exactly.
    cases = [(0.5, 0.0, 30.0, 0.1, 1e-3), (0.5, 0.0, 1.0, 0.5, 1e-3),
             (0.5, 0.2, 3.0, 1.0, 1e-3), (1e-9, 0.0, 1e-3, 0.5, 1e-3),
             (1e3, 1e3, 1e-12, 0.01, 1e-3), (-0.0, 0.0, 2.0, 0.5, 1e-3)]
    for args in cases:
        assert outcome(relay_step, *args) == outcome(ref_relay_step, *args)
    assert not math.isfinite(ref_relay_equilibrium(1e3, 1e-12, 0.01))


@SETTINGS
@given(x1=values, x2=values, y1=values, y2=values, zero_pos=st.booleans(),
       zero_vel=st.booleans(), k1=gains, k2=gains, alpha=exponents, eps=scales,
       dt=steps, substeps=st.sampled_from([1, 2]))
def test_step_corrector_matches_reference(x1, x2, y1, y2, zero_pos, zero_vel, k1, k2,
                                          alpha, eps, dt, substeps):
    if zero_pos:
        y1 = x1
    if zero_vel:
        y2 = -x2 if x2 == 0.0 else x2
    p = CorrectorParams(k1, k2, alpha, eps)
    state, meas = CorrectorState(x1, x2), AxisMeasurement(y1, y2, 0.0)
    assert outcome(step_corrector, state, meas, p, dt, substeps) == \
        outcome(ref_step_corrector, state, meas, p, dt, substeps)


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
    unc = UncertaintyModel(drag=tuple(drag), delta_sinusoids=tuple(sins),
                           delta_constant=tuple(const))
    params = UavParams()
    w = WrenchInput(*wrench)
    out = step_plant(np.array(state), w, unc, params, t, dt)
    ref = ref_step_plant(np.array(state), w, unc, params, t, dt)
    assume(np.all(np.isfinite(ref)))
    assert out.tobytes() == ref.tobytes()


def test_step_plant_matches_reference_with_callable_disturbance():
    unc = UncertaintyModel(drag=(0.1,) * 6,
                           delta_callables=(math.sin, None, math.cos, None, None, abs))
    state = np.linspace(-1.0, 1.0, 12)
    w = WrenchInput(0.3, -0.2, 19.7, 0.01, 0.0, -0.0)
    for t in (0.0, 0.37, 12.5):
        out = step_plant(state, w, unc, UavParams(), t, 1e-3)
        assert out.tobytes() == ref_step_plant(state, w, unc, UavParams(), t, 1e-3).tobytes()
