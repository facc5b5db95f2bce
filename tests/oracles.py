"""Reference forms of the plant model and of the closed loop, for the tests.

The package integrates the plant only through `corrobs.plant.step_plant` and
runs the closed loop only through `corrobs.run_scenario`.  The functions here
state the same model the textbook way, as a stacked 12-state derivative
integrated by classical RK4, so that the tests can check the package against
it:

* `dynamics_derivative` against `step_plant` (``tests/test_plant.py``);
* `ideal_tracking_errors` against the analytic error decay of the control law
  (criterion 8 and ``tests/test_engine.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from corrobs.control import ControlGains, attitude_control, position_control
from corrobs.engine import TrajectorySpec
from corrobs.plant import (UavParams, UncertaintyModel, input_acceleration_scalars,
                           true_delta)


def sigma(axis: int, state: Sequence[float], t: float, unc: UncertaintyModel,
          params: UavParams) -> float:
    """Lumped uncertainty acceleration sigma_i on one axis (0-based index):
    `true_delta` over the mass or inertia."""
    inv = 1.0 / params.axis_inertia[axis]
    return inv * true_delta(axis, state[6 + axis], t, unc, params)


def dynamics_derivative(state: np.ndarray, wrench: Sequence[float],
                        unc: UncertaintyModel, params: UavParams,
                        t: float) -> np.ndarray:
    """Time derivative of the 12-component state: xdd_i = h_i + sigma_i."""
    state = np.asarray(state, dtype=float)
    h = input_acceleration_scalars(wrench, params)
    deriv = np.empty(12)
    deriv[:6] = state[6:]
    deriv[6:] = [h[i] + sigma(i, state, t, unc, params) for i in range(6)]
    return deriv


def ideal_tracking_errors(params: UavParams, unc: UncertaintyModel,
                          gains: ControlGains, trajectory: TrajectorySpec,
                          initial_offset: Sequence[float], duration: float):
    """Perfect-information closed loop with continuous feedback.

    True states replace the estimates and the exact uncertainty forces are
    cancelled; the control law is re-evaluated at every stage of a 1 ms RK4
    step, so the simulated tracking error follows the ideal per-axis dynamics
    e'' = -kp1 e - kp2 e' (ka1/ka2 on the attitude axes) up to integrator
    accuracy.  Returns (times, errors) with one six-column error row every
    10 ms.  Checks the control-law algebra against the analytic solution,
    without the zero-order-hold lag of the discrete loop.
    """
    traj = trajectory.build()
    pos0, vel0, _ = traj.point(0.0)
    state = np.array(pos0 + vel0) + np.asarray(initial_offset, dtype=float)

    def deriv(s: np.ndarray, t: float) -> np.ndarray:
        tp = traj.point(t)
        pos, vel = s[:6].tolist(), s[6:].tolist()
        delta = [true_delta(a, vel[a], t, unc, params) for a in range(6)]
        wrench = (position_control(pos, vel, delta[:3], tp, gains, params)
                  + attitude_control(pos, vel, delta[3:], tp, gains, params))
        return dynamics_derivative(s, wrench, unc, params, t)

    dt = 1e-3
    n_ticks = int(round(duration / dt))
    sample_every = 10
    times = []
    errors = []
    for i in range(n_ticks + 1):
        t = i * dt
        if i % sample_every == 0:
            times.append(t)
            errors.append(state[:6] - traj.point(t)[0])
        if i == n_ticks:
            break
        k1 = deriv(state, t)
        k2 = deriv(state + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(state + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(state + dt * k3, t + dt)
        state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.array(times), np.array(errors)
