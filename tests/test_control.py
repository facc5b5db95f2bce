from __future__ import annotations

import math

import numpy as np
import pytest

from corrobs import (CircleTrajectory, ControlGains, EstimateBundle,
                     HoverTrajectory, UavParams, attitude_control,
                     position_control, uncertainty_rescale)

PARAMS = UavParams()
GAINS = ControlGains(kp1=2.5, kp2=4.0, ka1=2.5, ka2=4.0)
CIRCLE = CircleTrajectory(radius=5.0, speed=1.0, altitude=3.0, climb_time=10.0)


def bundle(pos=None, vel=None, dp=None, da=None) -> EstimateBundle:
    return EstimateBundle(
        np.zeros(6) if pos is None else np.asarray(pos, dtype=float),
        np.zeros(6) if vel is None else np.asarray(vel, dtype=float),
        np.zeros(3) if dp is None else np.asarray(dp, dtype=float),
        np.zeros(3) if da is None else np.asarray(da, dtype=float),
    )


# -------------------------------------------------------------- trajectory

def test_circle_angular_rate():
    assert CIRCLE.omega == pytest.approx(0.2, rel=1e-12)


def test_circle_climb_phase():
    zs = [CIRCLE.point(t).pos[2] for t in np.linspace(0.0, 10.0, 101)]
    assert zs[0] == 0.0
    assert zs[-1] == pytest.approx(3.0, rel=1e-12)
    assert all(b >= a - 1e-12 for a, b in zip(zs, zs[1:]))
    tp = CIRCLE.point(4.0)
    assert tp.pos[0] == 0.0 and tp.pos[1] == 0.0
    assert tp.vel[2] > 0.0


def test_circle_speed_consistency():
    for t in (10.0, 15.0, 33.3, 60.0):
        tp = CIRCLE.point(t)
        assert math.hypot(tp.vel[0], tp.vel[1]) == pytest.approx(1.0, rel=1e-12)
        assert tp.pos[2] == 3.0


def test_circle_starts_at_climb_endpoint():
    end_climb = CIRCLE.point(10.0 - 1e-12)
    start_circle = CIRCLE.point(10.0)
    assert np.allclose(end_climb.pos, start_circle.pos, atol=1e-9)


def test_circle_derivative_consistency():
    # Analytic vel/acc against central finite differences of pos/vel.
    h = 1e-5
    for t in (3.0, 9.5, 12.0, 40.0):
        tp = CIRCLE.point(t)
        dpos = (CIRCLE.point(t + h).pos - CIRCLE.point(t - h).pos) / (2 * h)
        dvel = (CIRCLE.point(t + h).vel - CIRCLE.point(t - h).vel) / (2 * h)
        assert np.allclose(tp.vel, dpos, atol=1e-6)
        assert np.allclose(tp.acc, dvel, atol=1e-6)


def test_circle_validation():
    with pytest.raises(ValueError):
        CircleTrajectory(radius=0.0, speed=1.0, altitude=3.0, climb_time=10.0)


def test_hover_trajectory_constant():
    hov = HoverTrajectory(1.0, -2.0, 4.0)
    tp = hov.point(17.3)
    assert np.allclose(tp.pos, [1.0, -2.0, 4.0, 0.0, 0.0, 0.0])
    assert np.all(tp.vel == 0.0) and np.all(tp.acc == 0.0)


# ------------------------------------------------------------- feedforward
# With the estimates on the trajectory and zero uncertainty, the control
# laws return the feedforward alone: u_p = -Xi_p = m*(acc_xy, acc_z + g) and
# u_a = -Xi_a = J*acc_attitude.

def on_trajectory(tp) -> EstimateBundle:
    return bundle(pos=tp.pos, vel=tp.vel)


def test_feedforward_hover():
    tp = HoverTrajectory(1.0, -2.0, 4.0).point(0.0)
    for params in (PARAMS, UavParams(m=1.0, g=1.0), UavParams(m=2.0, g=1.0)):
        u = position_control(on_trajectory(tp), tp, GAINS, params)
        assert u.tolist() == [0.0, 0.0, params.m * params.g]
        assert np.all(attitude_control(on_trajectory(tp), tp, GAINS, params) == 0.0)


def test_feedforward_acceleration_scaling():
    tp = HoverTrajectory().point(0.0)
    tp = tp._replace(acc=np.array([1.0, 0, 0, 0, 0, 0]))
    u = position_control(on_trajectory(tp), tp, GAINS, PARAMS)
    assert u[0] == 2.01


def test_feedforward_centripetal_magnitude():
    tp = CIRCLE.point(25.0)
    u = position_control(on_trajectory(tp), tp, GAINS, PARAMS)
    assert math.hypot(u[0], u[1]) == pytest.approx(2.01 * 1.0 ** 2 / 5.0, rel=1e-12)


def test_feedforward_attitude():
    tp = HoverTrajectory().point(0.0)
    tp = tp._replace(acc=np.array([0, 0, 0, 0.4, -0.8, 2.0]))
    u = attitude_control(on_trajectory(tp), tp, GAINS, PARAMS)
    assert u.tolist() == [2.5 * 0.4, 1.25 * -0.8, 1.25 * 2.0]


# ---------------------------------------------------------------- control

def test_position_control_gravity_compensation():
    u = position_control(bundle(), HoverTrajectory().point(0.0), GAINS, PARAMS)
    assert np.allclose(u, [0.0, 0.0, 2.01 * 9.81], atol=1e-12)


def test_position_control_proportional_term():
    est = bundle(pos=[1, 0, 0, 0, 0, 0])
    tp = HoverTrajectory().point(0.0)
    u = position_control(est, tp, GAINS, PARAMS)
    assert u[0] == pytest.approx(-2.01 * 2.5, rel=1e-12)
    assert u[1] == 0.0


def test_position_control_uncertainty_cancellation():
    est = bundle(dp=[1.0, 0.0, 0.0])
    tp = HoverTrajectory().point(0.0)
    u = position_control(est, tp, GAINS, PARAMS)
    assert u[0] == -1.0


def test_position_control_rejects_nonfinite():
    est = bundle(pos=[math.nan, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        position_control(est, HoverTrajectory().point(0.0), GAINS, PARAMS)


def test_attitude_control_zero_at_rest():
    u = attitude_control(bundle(), HoverTrajectory().point(0.0), GAINS, PARAMS)
    assert np.allclose(u, 0.0)


def test_attitude_control_proportional_term():
    est = bundle(pos=[0, 0, 0, 0.1, 0, 0])
    u = attitude_control(est, HoverTrajectory().point(0.0), GAINS, PARAMS)
    assert u[0] == pytest.approx(-0.625, rel=1e-12)


def test_attitude_control_uncertainty_cancellation():
    est = bundle(da=[0.0, 0.2, 0.0])
    u = attitude_control(est, HoverTrajectory().point(0.0), GAINS, PARAMS)
    assert u[1] == pytest.approx(-0.2, rel=1e-12)
    assert u[0] == 0.0 and u[2] == 0.0


def test_control_continuity():
    rng = np.random.default_rng(20)
    tp = CIRCLE.point(15.0)
    for _ in range(50):
        pos = rng.uniform(-2, 2, 6)
        vel = rng.uniform(-2, 2, 6)
        est = bundle(pos, vel)
        base = np.concatenate([position_control(est, tp, GAINS, PARAMS),
                               attitude_control(est, tp, GAINS, PARAMS)])
        eps = 1e-7
        est2 = bundle(pos + eps * rng.uniform(-1, 1, 6), vel + eps * rng.uniform(-1, 1, 6))
        pert = np.concatenate([position_control(est2, tp, GAINS, PARAMS),
                               attitude_control(est2, tp, GAINS, PARAMS)])
        assert np.max(np.abs(pert - base)) < 1e-4


# ---------------------------------------------------------------- rescale

def test_uncertainty_rescale_mass_scaling():
    dp, da = uncertainty_rescale([0.1, 0, 0, 0, 0, 0], PARAMS)
    assert dp[0] == pytest.approx(0.201, rel=1e-12)
    assert np.all(da == 0.0)


def test_uncertainty_rescale_zero():
    dp, da = uncertainty_rescale(np.zeros(6), PARAMS)
    assert np.all(dp == 0.0) and np.all(da == 0.0)


def test_uncertainty_rescale_round_trip():
    rng = np.random.default_rng(21)
    sig = rng.uniform(-2, 2, 6)
    dp, da = uncertainty_rescale(sig, PARAMS)
    back = np.concatenate([dp / PARAMS.m, da / np.array(PARAMS.inertias)])
    assert np.allclose(back, sig, rtol=1e-12, atol=1e-15)


def test_uncertainty_rescale_inertia_scaling():
    dp, da = uncertainty_rescale([0, 0, 0, 1.0, 1.0, 1.0], PARAMS)
    assert np.allclose(da, [2.5, 1.25, 1.25], rtol=1e-12)


def test_gains_validation():
    with pytest.raises(ValueError):
        ControlGains(kp1=0.0)
