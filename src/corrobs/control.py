"""Trajectory generation and the position/attitude tracking control laws.

The plant is commanded through the fully-actuated wrench abstraction: the
position loop produces (u_x, u_y, u_z) and the attitude loop the three
torques, each cancelling the trajectory feedforward and the estimated
uncertainty and closing a PD loop on the estimated errors:

    u_p = -Xi_p - delta_p_hat - m (kp1 e_p_hat + kp2 e_p_dot_hat)
    u_a = -Xi_a - delta_a_hat - J (ka1 e_a_hat + ka2 e_a_dot_hat)

With exact estimates each error axis collapses to e'' = -kp1 e - kp2 e'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .plant import UavParams, WrenchInput

__all__ = [
    "TrajectoryPoint", "CircleTrajectory", "HoverTrajectory", "ControlGains",
    "EstimateBundle", "feedforward_terms", "position_control",
    "attitude_control", "uncertainty_rescale", "wrench_from_controls",
]


class TrajectoryPoint(NamedTuple):
    """Desired pose, velocity and acceleration in state order (x..phi)."""

    pos: np.ndarray
    vel: np.ndarray
    acc: np.ndarray


class HoverTrajectory:
    """Fixed hover point with zero desired attitude."""

    def __init__(self, x: float = 0.0, y: float = 0.0, altitude: float = 0.0):
        self._pos = [float(x), float(y), float(altitude), 0.0, 0.0, 0.0]

    def _coords(self, t: float) -> tuple[list[float], list[float], list[float]]:
        """Desired pose, velocity and acceleration as lists of floats."""
        return self._pos[:], [0.0] * 6, [0.0] * 6

    def point(self, t: float) -> TrajectoryPoint:
        return TrajectoryPoint(*(np.array(v) for v in self._coords(t)))


class CircleTrajectory:
    """Quintic climb to altitude, then a constant-speed horizontal circle.

    The climb holds the start point in the horizontal plane and raises z with
    a quintic profile (zero velocity and acceleration at both ends).  The
    circle starts at the climb endpoint: its center sits one radius in the
    -x direction from the start, phase zero.  Desired attitude is identically
    zero; the loops are independent under the fully-actuated abstraction.
    """

    def __init__(self, radius: float, speed: float, altitude: float,
                 climb_time: float, start_x: float = 0.0, start_y: float = 0.0):
        if min(radius, speed, altitude, climb_time) <= 0:
            raise ValueError("radius, speed, altitude and climb_time must be positive")
        self.radius = radius
        self.speed = speed
        self.altitude = altitude
        self.climb_time = climb_time
        self.start = (start_x, start_y)
        self.omega = speed / radius
        self.center = (start_x - radius, start_y)

    def _coords(self, t: float) -> tuple[list[float], list[float], list[float]]:
        """Desired pose, velocity and acceleration as lists of floats."""
        pos = [0.0] * 6
        vel = [0.0] * 6
        acc = [0.0] * 6
        x0, y0 = self.start
        if t < self.climb_time:
            s = t / self.climb_time
            blend = s ** 3 * (10.0 + s * (-15.0 + 6.0 * s))
            dblend = s * s * (30.0 + s * (-60.0 + 30.0 * s)) / self.climb_time
            ddblend = s * (60.0 + s * (-180.0 + 120.0 * s)) / self.climb_time ** 2
            pos[0], pos[1], pos[2] = x0, y0, self.altitude * blend
            vel[2] = self.altitude * dblend
            acc[2] = self.altitude * ddblend
            return pos, vel, acc
        tau = t - self.climb_time
        ang = self.omega * tau
        cx, cy = self.center
        r, w = self.radius, self.omega
        cos_a = math.cos(ang)
        sin_a = math.sin(ang)
        pos[0] = cx + r * cos_a
        pos[1] = cy + r * sin_a
        pos[2] = self.altitude
        vel[0] = -r * w * sin_a
        vel[1] = r * w * cos_a
        acc[0] = -r * w * w * cos_a
        acc[1] = -r * w * w * sin_a
        return pos, vel, acc

    def point(self, t: float) -> TrajectoryPoint:
        return TrajectoryPoint(*(np.array(v) for v in self._coords(t)))


@dataclass(frozen=True)
class ControlGains:
    kp1: float = 2.5
    kp2: float = 4.0
    ka1: float = 2.5
    ka2: float = 4.0

    def __post_init__(self):
        if min(self.kp1, self.kp2, self.ka1, self.ka2) <= 0:
            raise ValueError("control gains must be positive")


class EstimateBundle(NamedTuple):
    """Inputs the control laws consume.

    pos/vel: six estimated coordinates and velocities (corrector outputs);
    delta_p/delta_a: estimated uncertainty forces and torques (observer
    outputs rescaled by mass and inertias).
    """

    pos: np.ndarray
    vel: np.ndarray
    delta_p: np.ndarray
    delta_a: np.ndarray


def feedforward_terms(tp: TrajectoryPoint, params: UavParams) -> tuple[np.ndarray, np.ndarray]:
    """Xi_p = -m*(acc_xy, acc_z + g); Xi_a = -J*acc_attitude."""
    xi_p = -params.m * tp.acc[:3]
    xi_p[2] -= params.m * params.g
    xi_a = -np.array(params.inertias) * tp.acc[3:]
    return xi_p, xi_a


def _position_law(pos, vel, delta_p, tp_pos, tp_vel, tp_acc, m: float, g: float,
                  kp1: float, kp2: float) -> list[float]:
    """Position control law on plain floats (axes 0-2 of the sequences); no checks."""
    u = [0.0, 0.0, 0.0]
    for i in range(3):
        e = pos[i] - tp_pos[i]
        ed = vel[i] - tp_vel[i]
        xi = -m * tp_acc[i] - (m * g if i == 2 else 0.0)
        u[i] = -xi - delta_p[i] - m * (kp1 * e + kp2 * ed)
    return u


def _attitude_law(pos, vel, delta_a, tp_pos, tp_vel, tp_acc,
                  inert: tuple[float, float, float], ka1: float,
                  ka2: float) -> list[float]:
    """Attitude control law on plain floats (axes 3-5 of pos, vel and tp_*); no checks."""
    u = [0.0, 0.0, 0.0]
    for i in range(3):
        e = pos[3 + i] - tp_pos[3 + i]
        ed = vel[3 + i] - tp_vel[3 + i]
        xi = -inert[i] * tp_acc[3 + i]
        u[i] = -xi - delta_a[i] - inert[i] * (ka1 * e + ka2 * ed)
    return u


def _rescale(sigma_hat, m: float,
             inert: tuple[float, float, float]) -> tuple[list[float], list[float]]:
    """Uncertainty accelerations to (forces, torques) on plain floats."""
    return ([m * sigma_hat[0], m * sigma_hat[1], m * sigma_hat[2]],
            [inert[0] * sigma_hat[3], inert[1] * sigma_hat[4], inert[2] * sigma_hat[5]])


def position_control(est: EstimateBundle, tp: TrajectoryPoint,
                     gains: ControlGains, params: UavParams) -> np.ndarray:
    u = _position_law(est.pos, est.vel, est.delta_p, tp.pos, tp.vel, tp.acc,
                      params.m, params.g, gains.kp1, gains.kp2)
    if not all(map(math.isfinite, u)):
        raise ValueError("non-finite position control output")
    return np.array(u)


def attitude_control(est: EstimateBundle, tp: TrajectoryPoint,
                     gains: ControlGains, params: UavParams) -> np.ndarray:
    u = _attitude_law(est.pos, est.vel, est.delta_a, tp.pos, tp.vel, tp.acc,
                      params.inertias, gains.ka1, gains.ka2)
    if not all(map(math.isfinite, u)):
        raise ValueError("non-finite attitude control output")
    return np.array(u)


def uncertainty_rescale(sigma_hat, params: UavParams) -> tuple[np.ndarray, np.ndarray]:
    """Convert per-axis uncertainty accelerations into forces and torques.

    The observers estimate sigma_i (acceleration units); the control laws
    cancel delta_p and delta_a (force/torque units), which differ by the mass
    and the inertias.
    """
    sig = np.asarray(sigma_hat, dtype=float)
    if sig.shape != (6,):
        raise ValueError("expected six uncertainty estimates")
    delta_p, delta_a = _rescale(sig, params.m, params.inertias)
    return np.array(delta_p), np.array(delta_a)


def wrench_from_controls(u_p: np.ndarray, u_a: np.ndarray) -> WrenchInput:
    return WrenchInput(float(u_p[0]), float(u_p[1]), float(u_p[2]),
                       float(u_a[0]), float(u_a[1]), float(u_a[2]))
