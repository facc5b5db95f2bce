from __future__ import annotations

import math

import numpy as np
import pytest

from corrobs import (UavParams, UncertaintyModel, input_acceleration_scalars,
                     plant_axes, step_plant)
from corrobs.plant import AXIS_NAMES, true_delta
from oracles import dynamics_derivative

PARAMS = UavParams()
NO_UNC = UncertaintyModel()
ZERO_WRENCH = (0.0,) * 6

# The sinusoidal disturbance set used in the flight scenario:
# 0.3 sin t + 0.2 cos 0.5t on x, etc.  cos wt == sin(wt + pi/2).
FLIGHT_UNC = UncertaintyModel(
    drag=(0.01, 0.01, 0.01, 0.012, 0.012, 0.012),
    delta_sinusoids=(
        ((0.3, 1.0, 0.0), (0.2, 0.5, math.pi / 2)),
        ((0.2, 0.5, 0.0), (0.5, 1.0, math.pi / 2)),
        ((0.4, 0.6, 0.0), (0.2, 1.0, math.pi / 2)),
        (), (), (),
    ),
)


STATE_NAMES = AXIS_NAMES + tuple(f"v{a}" for a in AXIS_NAMES)


def state_with(**kw) -> np.ndarray:
    s = np.zeros(12)
    for name, value in kw.items():
        s[STATE_NAMES.index(name)] = value
    return s


def step(state, wrench, unc, params, t, dt) -> np.ndarray:
    """`step_plant` driven by a wrench, on and to a numpy state."""
    return np.array(step_plant(state.tolist(), input_acceleration_scalars(wrench, params),
                               plant_axes(unc, params), t, dt))


# sigma_i, the uncertainty acceleration of axis i, is `true_delta` over the
# mass or inertia; `plant_axes` holds its factors for `step_plant`.

def test_sigma_zero_at_rest():
    for axis in range(6):
        assert true_delta(axis, 0.0, 0.0, NO_UNC, PARAMS) == 0.0


def test_sigma_drag_scaling():
    unc = UncertaintyModel(drag=(0.01, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert true_delta(0, 1.0, 0.0, unc, PARAMS) == -0.01
    assert plant_axes(unc, PARAMS)[0][1] == pytest.approx(0.01 / 2.01, rel=1e-12)


def test_sigma_flight_disturbance_at_zero():
    # Delta_x(0) = 0.3 sin 0 + 0.2 cos 0 = 0.2
    val = true_delta(0, 0.5, 0.0, FLIGHT_UNC, PARAMS)
    assert val == pytest.approx(0.2 - 0.01 * 0.5, rel=1e-9)


def test_sigma_arm_length_lever_on_pitch_roll_only():
    unc = UncertaintyModel(drag=(0, 0, 0, 0.012, 0.012, 0.012))
    assert true_delta(3, 1.0, 0.0, unc, PARAMS) == pytest.approx(-0.012, rel=1e-12)
    assert true_delta(4, 1.0, 0.0, unc, PARAMS) == pytest.approx(-0.2 * 0.012, rel=1e-12)
    assert true_delta(5, 1.0, 0.0, unc, PARAMS) == pytest.approx(-0.2 * 0.012, rel=1e-12)
    drag = [axis[1] for axis in plant_axes(unc, PARAMS)[3:]]
    assert drag == pytest.approx([0.012 / 2.5, 0.2 * 0.012 / 1.25, 0.2 * 0.012 / 1.25],
                                 rel=1e-12)


def test_sigma_structural_decoupling():
    # Each axis of a plant step reads only its own position and velocity.
    rng = np.random.default_rng(10)
    for axis in range(6):
        base = rng.uniform(-3, 3, 12)
        other = base.copy()
        for j in range(6):
            if j != axis:
                other[j], other[6 + j] = rng.uniform(-3, 3, 2)
        a = step(base, ZERO_WRENCH, FLIGHT_UNC, PARAMS, 1.7, 1e-3)
        b = step(other, ZERO_WRENCH, FLIGHT_UNC, PARAMS, 1.7, 1e-3)
        assert (a[axis], a[6 + axis]) == (b[axis], b[6 + axis])


def test_sigma_axis_range():
    for axis in (6, -1):
        with pytest.raises(ValueError, match=f"^axis index out of range: {axis}$"):
            true_delta(axis, 0.0, 0.0, NO_UNC, PARAMS)


def test_true_delta_matches_sigma_scaling():
    # The acceleration `plant_axes` gives `step_plant` is `true_delta` over
    # the mass or inertia.
    rng = np.random.default_rng(11)
    s = rng.uniform(-2, 2, 12)
    scales = PARAMS.axis_inertia
    for axis, (inv, cdrag, fn) in enumerate(plant_axes(FLIGHT_UNC, PARAMS)):
        v = s[6 + axis]
        accel = -cdrag * v + (inv * fn(0.4) if fn is not None else 0.0)
        assert true_delta(axis, v, 0.4, FLIGHT_UNC, PARAMS) == pytest.approx(
            scales[axis] * accel, rel=1e-12)


# Drag on every axis, so the pitch/roll lever applies; sinusoids on x, z and
# phi, constants (zero-frequency sinusoids) on x, y, psi and phi, and no
# disturbance on theta.
MIXED_UNC = UncertaintyModel(
    drag=(0.01, 0.02, 0.03, 0.04, 0.05, 0.06),
    delta_sinusoids=(
        ((0.3, 1.0, 0.0), (0.2, 0.5, math.pi / 2), (0.1, 0.0, math.pi / 2)),
        ((-0.2, 0.0, math.pi / 2),), ((0.4, 0.6, 0.1),), ((0.3, 0.0, math.pi / 2),),
        (), ((0.05, 3.0, -1.0), (-0.05, 0.0, math.pi / 2)),
    ),
)


def test_true_delta_column_matches_scalar_calls():
    rng = np.random.default_rng(12)
    t = np.arange(2001) * 1e-2
    for axis in range(6):
        vel = rng.uniform(-3.0, 3.0, t.size)
        vel[:3] = (0.0, -0.0, 1e-300)
        column = true_delta(axis, vel, t, MIXED_UNC, PARAMS)
        assert column.dtype == np.float64 and column.shape == t.shape
        for scalars in (zip(vel, t), zip(vel.tolist(), t.tolist())):
            rows = np.array([true_delta(axis, v, ti, MIXED_UNC, PARAMS) for v, ti in scalars])
            assert column.tobytes() == rows.tobytes()


def test_dynamics_hover_trim():
    s = state_with()
    w = (0.0, 0.0, PARAMS.m * PARAMS.g, 0.0, 0.0, 0.0)
    assert np.allclose(input_acceleration_scalars(w, PARAMS), 0.0, atol=1e-12)
    assert np.allclose(step(s, w, NO_UNC, PARAMS, 0.0, 1e-3), 0.0, atol=1e-12)


def test_hover_thrust_values():
    # The thrust that holds the vehicle at rest is m*g for each parameter set.
    assert PARAMS.m * PARAMS.g == pytest.approx(19.7181, abs=1e-9)
    for params, thrust in ((PARAMS, 2.01 * 9.81),
                           (UavParams(m=1.0, g=1.0), 1.0),
                           (UavParams(m=2.0, g=1.0), 2.0)):
        w = (0.0, 0.0, thrust, 0.0, 0.0, 0.0)
        assert np.allclose(input_acceleration_scalars(w, params), 0.0, atol=1e-12)
        w = (0.0, 0.0, 2.0 * thrust, 0.0, 0.0, 0.0)
        assert input_acceleration_scalars(w, params)[2] == pytest.approx(params.g, rel=1e-12)


def test_dynamics_free_fall():
    assert input_acceleration_scalars(ZERO_WRENCH, PARAMS) == (0.0, 0.0, -9.81, 0.0, 0.0, 0.0)


def test_dynamics_unit_torque():
    w = (0.0, 0.0, 0.0, 0.0, 1.25, 0.0)
    assert input_acceleration_scalars(w, PARAMS)[4] == 1.0


def test_ballistic_closed_form():
    # No wrench, no uncertainty, zero initial velocity: z(t) = z0 - g t^2 / 2.
    s = state_with(z=10.0)
    dt = 1e-3
    for i in range(1000):
        s = step(s, ZERO_WRENCH, NO_UNC, PARAMS, i * dt, dt)
    assert abs(s[2] - (10.0 - 0.5 * 9.81 * 1.0 ** 2)) < 1e-9
    assert np.allclose(np.delete(s[:6], 2), 0.0, atol=1e-12)


def test_step_plant_matches_classical_stacked_step():
    # The per-axis cascaded form must agree with the classical 4th-order step
    # applied to the stacked 12-state system.
    rng = np.random.default_rng(14)
    for _ in range(25):
        s = rng.uniform(-3, 3, 12)
        w = tuple(rng.uniform(-5, 5, 6))
        dt = 1e-3
        t = float(rng.uniform(0, 10))
        k1 = dynamics_derivative(s, w, FLIGHT_UNC, PARAMS, t)
        k2 = dynamics_derivative(s + 0.5 * dt * k1, w, FLIGHT_UNC, PARAMS, t + 0.5 * dt)
        k3 = dynamics_derivative(s + 0.5 * dt * k2, w, FLIGHT_UNC, PARAMS, t + 0.5 * dt)
        k4 = dynamics_derivative(s + dt * k3, w, FLIGHT_UNC, PARAMS, t + dt)
        ref = s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out = step(s, w, FLIGHT_UNC, PARAMS, t, dt)
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-14)


def test_input_accelerations():
    w = (2.01, 4.02, 2.01 * 9.81, 2.5, 2.5, 2.5)
    h = input_acceleration_scalars(w, PARAMS)
    assert np.allclose(h, [1.0, 2.0, 0.0, 1.0, 2.0, 2.0], atol=1e-12)


def test_uav_params_validation():
    with pytest.raises(ValueError):
        UavParams(m=0.0)
    with pytest.raises(ValueError):
        UavParams(J_phi=-1.0)


def test_uncertainty_model_validation():
    with pytest.raises(ValueError):
        UncertaintyModel(drag=(0.0,) * 5)
    with pytest.raises(ValueError):
        UncertaintyModel(drag=(-0.1,) + (0.0,) * 5)


def test_uncertainty_disturbance_per_axis():
    # at zero velocity the force is the axis' own disturbance, other axes none
    unc = UncertaintyModel(drag=(0.5,) * 6, delta_sinusoids=(
        ((2.0, 0.5, 0.25),), ((-1.5, 0.0, math.pi / 2),)) + ((),) * 4)
    assert true_delta(0, 0.0, 3.0, unc, PARAMS) == 2.0 * math.sin(1.75)
    assert true_delta(1, 0.0, 3.0, unc, PARAMS) == -1.5
    for axis in range(2, 6):
        assert true_delta(axis, 0.0, 3.0, unc, PARAMS) == 0.0
