from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrobs import (CircleTrajectory, ControlGains, HoverTrajectory, UavParams,
                     attitude_control, position_control, uncertainty_rescale)
from oracles import reference_attitude_control, reference_position_control

PARAMS = UavParams()
GAINS = ControlGains(kp1=2.5, kp2=4.0, ka1=2.5, ka2=4.0)
CIRCLE = CircleTrajectory(radius=5.0, speed=1.0, altitude=3.0, climb_time=10.0)


def bundle(pos=None, vel=None, dp=None, da=None) -> dict:
    """Estimated coordinates, velocities, uncertainty forces (dp) and torques (da)."""
    return {"pos": [0.0] * 6 if pos is None else [float(v) for v in pos],
            "vel": [0.0] * 6 if vel is None else [float(v) for v in vel],
            "dp": [0.0] * 3 if dp is None else [float(v) for v in dp],
            "da": [0.0] * 3 if da is None else [float(v) for v in da]}


def position(est: dict, tp, gains=GAINS, params=PARAMS) -> list[float]:
    return position_control(est["pos"], est["vel"], est["dp"], tp, gains, params)


def attitude(est: dict, tp, gains=GAINS, params=PARAMS) -> list[float]:
    return attitude_control(est["pos"], est["vel"], est["da"], tp, gains, params)


def arrays(tp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.array(v) for v in tp)


# -------------------------------------------------------------- trajectory

def test_circle_angular_rate():
    assert CIRCLE.omega == pytest.approx(0.2, rel=1e-12)


def test_circle_climb_phase():
    zs = [CIRCLE.point(t)[0][2] for t in np.linspace(0.0, 10.0, 101)]
    assert zs[0] == 0.0
    assert zs[-1] == pytest.approx(3.0, rel=1e-12)
    assert all(b >= a - 1e-12 for a, b in zip(zs, zs[1:]))
    pos, vel, _ = CIRCLE.point(4.0)
    assert pos[0] == 0.0 and pos[1] == 0.0
    assert vel[2] > 0.0


def test_circle_speed_consistency():
    for t in (10.0, 15.0, 33.3, 60.0):
        pos, vel, _ = CIRCLE.point(t)
        assert math.hypot(vel[0], vel[1]) == pytest.approx(1.0, rel=1e-12)
        assert pos[2] == 3.0


def test_circle_starts_at_climb_endpoint():
    end_climb = CIRCLE.point(10.0 - 1e-12)
    start_circle = CIRCLE.point(10.0)
    assert np.allclose(end_climb[0], start_circle[0], atol=1e-9)


def test_circle_derivative_consistency():
    # Analytic vel/acc against central finite differences of pos/vel.
    h = 1e-5
    for t in (3.0, 9.5, 12.0, 40.0):
        _, vel, acc = arrays(CIRCLE.point(t))
        ahead, behind = arrays(CIRCLE.point(t + h)), arrays(CIRCLE.point(t - h))
        dpos = (ahead[0] - behind[0]) / (2 * h)
        dvel = (ahead[1] - behind[1]) / (2 * h)
        assert np.allclose(vel, dpos, atol=1e-6)
        assert np.allclose(acc, dvel, atol=1e-6)


def test_circle_validation():
    with pytest.raises(ValueError):
        CircleTrajectory(radius=0.0, speed=1.0, altitude=3.0, climb_time=10.0)


def test_hover_trajectory_constant():
    hov = HoverTrajectory(4.0)
    pos, vel, acc = arrays(hov.point(17.3))
    assert np.all(pos == [0.0, 0.0, 4.0, 0.0, 0.0, 0.0])
    assert np.all(vel == 0.0) and np.all(acc == 0.0)


# ------------------------------------------------------------- feedforward
# With the estimates on the trajectory and zero uncertainty, the control
# laws return the feedforward alone: u_p = -Xi_p = m*(acc_xy, acc_z + g) and
# u_a = -Xi_a = J*acc_attitude.

def on_trajectory(tp) -> dict:
    return bundle(pos=tp[0], vel=tp[1])


def test_feedforward_hover():
    tp = HoverTrajectory(4.0).point(0.0)
    for params in (PARAMS, UavParams(m=1.0, g=1.0), UavParams(m=2.0, g=1.0)):
        u = position(on_trajectory(tp), tp, params=params)
        assert u == [0.0, 0.0, params.m * params.g]
        assert np.all(np.array(attitude(on_trajectory(tp), tp, params=params)) == 0.0)


def test_feedforward_acceleration_scaling():
    pos, vel, _ = HoverTrajectory().point(0.0)
    tp = (pos, vel, [1.0, 0, 0, 0, 0, 0])
    u = position(on_trajectory(tp), tp)
    assert u[0] == 2.01


def test_feedforward_centripetal_magnitude():
    tp = CIRCLE.point(25.0)
    u = position(on_trajectory(tp), tp)
    assert math.hypot(u[0], u[1]) == pytest.approx(2.01 * 1.0 ** 2 / 5.0, rel=1e-12)


def test_feedforward_attitude():
    pos, vel, _ = HoverTrajectory().point(0.0)
    tp = (pos, vel, [0, 0, 0, 0.4, -0.8, 2.0])
    u = attitude(on_trajectory(tp), tp)
    assert u == [2.5 * 0.4, 1.25 * -0.8, 1.25 * 2.0]


# ---------------------------------------------------------------- control

def test_position_control_gravity_compensation():
    u = position(bundle(), HoverTrajectory().point(0.0))
    assert np.allclose(u, [0.0, 0.0, 2.01 * 9.81], atol=1e-12)


def test_position_control_proportional_term():
    est = bundle(pos=[1, 0, 0, 0, 0, 0])
    tp = HoverTrajectory().point(0.0)
    u = position(est, tp)
    assert u[0] == pytest.approx(-2.01 * 2.5, rel=1e-12)
    assert u[1] == 0.0


def test_position_control_uncertainty_cancellation():
    est = bundle(dp=[1.0, 0.0, 0.0])
    tp = HoverTrajectory().point(0.0)
    u = position(est, tp)
    assert u[0] == -1.0


def test_attitude_control_zero_at_rest():
    u = attitude(bundle(), HoverTrajectory().point(0.0))
    assert np.allclose(u, 0.0)


def test_attitude_control_proportional_term():
    est = bundle(pos=[0, 0, 0, 0.1, 0, 0])
    u = attitude(est, HoverTrajectory().point(0.0))
    assert u[0] == pytest.approx(-0.625, rel=1e-12)


def test_attitude_control_uncertainty_cancellation():
    est = bundle(da=[0.0, 0.2, 0.0])
    u = attitude(est, HoverTrajectory().point(0.0))
    assert u[1] == pytest.approx(-0.2, rel=1e-12)
    assert u[0] == 0.0 and u[2] == 0.0


def test_control_continuity():
    rng = np.random.default_rng(20)
    tp = CIRCLE.point(15.0)
    for _ in range(50):
        pos = rng.uniform(-2, 2, 6)
        vel = rng.uniform(-2, 2, 6)
        est = bundle(pos, vel)
        base = np.array(position(est, tp) + attitude(est, tp))
        eps = 1e-7
        est2 = bundle(pos + eps * rng.uniform(-1, 1, 6), vel + eps * rng.uniform(-1, 1, 6))
        pert = np.array(position(est2, tp) + attitude(est2, tp))
        assert np.max(np.abs(pert - base)) < 1e-4


# Signed zeros, magnitudes far below and far above the flight scale, and
# plain flight-scale values, for the estimates and the trajectory point.
law_values = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e-9, 1e-9, allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
positive = st.one_of(st.floats(1e-6, 1e6), st.sampled_from([1e-9, 1.0, 1e9]))
six = st.lists(law_values, min_size=6, max_size=6)
three = st.lists(law_values, min_size=3, max_size=3)


@settings(max_examples=400, deadline=None)
@given(pos=six, vel=six, delta_p=three, delta_a=three, tp=st.tuples(six, six, six),
       gains=st.builds(ControlGains, positive, positive, positive, positive),
       params=st.builds(UavParams, positive, positive, positive, positive, positive,
                        positive))
def test_control_laws_match_the_reference_laws_bit_for_bit(pos, vel, delta_p, delta_a,
                                                           tp, gains, params):
    # Both laws are views of one per-axis law; each must give the floats of
    # its own written-out form exactly, signed zeros included.
    def hexes(u):
        return [float(v).hex() for v in u]
    assert hexes(position_control(pos, vel, delta_p, tp, gains, params)) == \
        hexes(reference_position_control(pos, vel, delta_p, tp, gains, params))
    assert hexes(attitude_control(pos, vel, delta_a, tp, gains, params)) == \
        hexes(reference_attitude_control(pos, vel, delta_a, tp, gains, params))


# ---------------------------------------------------------------- rescale

def test_uncertainty_rescale_mass_scaling():
    dp, da = uncertainty_rescale([0.1, 0, 0, 0, 0, 0], PARAMS)
    assert dp[0] == pytest.approx(0.201, rel=1e-12)
    assert np.all(np.array(da) == 0.0)


def test_uncertainty_rescale_zero():
    dp, da = uncertainty_rescale([0.0] * 6, PARAMS)
    assert np.all(np.array(dp) == 0.0) and np.all(np.array(da) == 0.0)


def test_uncertainty_rescale_round_trip():
    rng = np.random.default_rng(21)
    sig = rng.uniform(-2, 2, 6)
    dp, da = uncertainty_rescale(sig.tolist(), PARAMS)
    back = np.concatenate([dp, da]) / np.array(PARAMS.axis_inertia)
    assert np.allclose(back, sig, rtol=1e-12, atol=1e-15)


def test_uncertainty_rescale_inertia_scaling():
    dp, da = uncertainty_rescale([0, 0, 0, 1.0, 1.0, 1.0], PARAMS)
    assert np.allclose(da, [2.5, 1.25, 1.25], rtol=1e-12)


def test_gains_validation():
    with pytest.raises(ValueError):
        ControlGains(kp1=0.0)
