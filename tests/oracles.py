"""Reference forms of the plant model, the closed loop and the EKF, for the tests.

The package integrates the plant only through `corrobs.plant.step_plant`,
runs the closed loop only through `corrobs.run_scenario` and filters the
position axes only through the shared-covariance bank of `corrobs.ekf`.  The
functions here state the same models the textbook way, so that the tests can
check the package against them:

* `dynamics_derivative`, a stacked 12-state derivative integrated by
  classical RK4, against `step_plant` (``tests/test_plant.py``);
* `ideal_tracking_errors` against the analytic error decay of the control law
  (criterion 8 and ``tests/test_engine.py``);
* `axis_ekf_predict` and `axis_ekf_update`, one filter per axis with a
  covariance of its own, against the bank (``tests/test_ekf.py``);
* `reference_position_control` and `reference_attitude_control`, the
  position and attitude tracking laws written out each on its own, against
  the one per-axis law of `corrobs.control` (``tests/test_control.py``);
* `closed_form_corrector_frequency` and `closed_form_observer_frequency`, the
  paper's closed-form natural frequencies, against the stiffness of the
  companion matrices of `corrobs.freq` (criterion 6 and
  ``tests/test_freq.py``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from corrobs.control import ControlGains, attitude_control, position_control
from corrobs.engine import TrajectorySpec
from corrobs.estimators import CorrectorParams, ObserverParams
from corrobs.freq import omega_coefficient
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


def axis_ekf_predict(s: tuple, dt: float, q: tuple[float, float, float]) -> tuple:
    """One axis's filter, (pos, vel, p11, p12, p22), propagated over ``dt``
    with the process noise entries ``q``."""
    pos, vel, p11, p12, p22 = s
    q11, q12, q22 = q
    return (pos + dt * vel, vel,
            p11 + 2.0 * dt * p12 + dt * dt * p22 + q11,
            p12 + dt * p22 + q12,
            p22 + q22)


def axis_ekf_update(s: tuple, y1: float, y2: float, fresh: bool, r1: float,
                    r2: float) -> tuple:
    """One axis's filter after the velocity sample ``y2`` and, when ``fresh``,
    the position sample ``y1``; Joseph-form covariances."""
    pos, vel, p11, p12, p22 = s
    k1 = p12 / (p22 + r2)
    k2 = p22 / (p22 + r2)
    innov = y2 - vel
    b = 1.0 - k2
    pos, vel, p11, p12, p22 = (pos + k1 * innov, vel + k2 * innov,
                               p11 - 2.0 * k1 * p12 + k1 * k1 * p22 + k1 * k1 * r2,
                               b * (p12 - k1 * p22) + k1 * k2 * r2,
                               b * b * p22 + k2 * k2 * r2)
    if not fresh:
        return pos, vel, p11, p12, p22
    k1 = p11 / (p11 + r1)
    k2 = p12 / (p11 + r1)
    innov = y1 - pos
    a = 1.0 - k1
    return (pos + k1 * innov, vel + k2 * innov,
            a * a * p11 + k1 * k1 * r1,
            a * (p12 - k2 * p11) + k1 * k2 * r1,
            k2 * k2 * p11 - 2.0 * k2 * p12 + p22 + k2 * k2 * r1)


def reference_position_control(pos, vel, delta_p, tp, gains: ControlGains,
                               params: UavParams) -> list[float]:
    """u_p = -Xi_p - delta_p - m (kp1 e_p + kp2 e_p') on axes 0-2, with
    Xi_p = -m a_p - (0, 0, m g)."""
    tp_pos, tp_vel, tp_acc = tp
    m, g, kp1, kp2 = params.m, params.g, gains.kp1, gains.kp2
    u = [0.0, 0.0, 0.0]
    for i in range(3):
        e = pos[i] - tp_pos[i]
        ed = vel[i] - tp_vel[i]
        xi = -m * tp_acc[i] - (m * g if i == 2 else 0.0)
        u[i] = -xi - delta_p[i] - m * (kp1 * e + kp2 * ed)
    return u


def reference_attitude_control(pos, vel, delta_a, tp, gains: ControlGains,
                               params: UavParams) -> list[float]:
    """u_a = -Xi_a - delta_a - J (ka1 e_a + ka2 e_a') on axes 3-5, with
    Xi_a = -J a_a."""
    tp_pos, tp_vel, tp_acc = tp
    inert, ka1, ka2 = params.axis_inertia, gains.ka1, gains.ka2
    u = [0.0, 0.0, 0.0]
    for i in range(3):
        e = pos[3 + i] - tp_pos[3 + i]
        ed = vel[3 + i] - tp_vel[3 + i]
        xi = -inert[3 + i] * tp_acc[3 + i]
        u[i] = -xi - delta_a[i] - inert[3 + i] * (ka1 * e + ka2 * ed)
    return u


def closed_form_corrector_frequency(p: CorrectorParams, a_c1: float) -> float:
    """w_c = sqrt(Omega(alpha_c/(2-alpha_c)) * k1)
    / (eps_c^((3-2 alpha_c)/(2-alpha_c)) * a_c1^((1-alpha_c)/(2-alpha_c)))."""
    alpha, eps = p.alpha_c, p.eps_c
    return (math.sqrt(omega_coefficient(alpha / (2.0 - alpha)) * p.k1)
            / (eps ** ((3.0 - 2.0 * alpha) / (2.0 - alpha))
               * a_c1 ** ((1.0 - alpha) / (2.0 - alpha))))


def closed_form_observer_frequency(p: ObserverParams, a_o: float) -> float:
    """w_o = sqrt(Omega(alpha_o) * k3) / (eps_o * a_o^((1-alpha_o)/2))."""
    return (math.sqrt(omega_coefficient(p.alpha_o) * p.k3)
            / (p.eps_o * a_o ** (0.5 * (1.0 - p.alpha_o))))
