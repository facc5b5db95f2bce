"""Trajectory generation and the position/attitude tracking control laws.

The plant is commanded through the fully-actuated wrench abstraction: the
position loop produces (u_x, u_y, u_z) and the attitude loop the three
torques.  Both are one per-axis law that cancels the trajectory feedforward
and the estimated uncertainty and closes a PD loop on the estimated errors:

    u_i = -Xi_i - delta_i_hat - s_i (k1 e_i_hat + k2 e_i_dot_hat),
    Xi_i = -s_i a_i - lift_i

with s_i the axis mass or inertia (`UavParams.axis_inertia`), a_i the desired
acceleration, (k1, k2) = (kp1, kp2) and lift = (0, 0, m g) on the position
axes, (ka1, ka2) and lift 0 on the attitude axes.  With exact estimates each
error axis collapses to e'' = -k1 e - k2 e'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .plant import ConfigError, UavParams, check_range

__all__ = [
    "CircleTrajectory", "HoverTrajectory", "ControlGains", "position_control",
    "attitude_control", "uncertainty_rescale",
]


class HoverTrajectory:
    """Fixed hover point over the origin with zero desired attitude."""

    def __init__(self, altitude: float = 0.0):
        self._pos = [0.0, 0.0, float(altitude), 0.0, 0.0, 0.0]

    def point(self, t: float) -> tuple[list[float], list[float], list[float]]:
        """Desired pose, velocity and acceleration in state order (x..phi)."""
        return self._pos[:], [0.0] * 6, [0.0] * 6


class CircleTrajectory:
    """Quintic climb to altitude, then a constant-speed horizontal circle.

    The climb holds the vehicle over the origin and raises z with a quintic
    profile (zero velocity and acceleration at both ends).  The circle starts
    at the climb endpoint: its center is (-radius, 0), phase zero.  Desired
    attitude is identically zero; the loops are independent under the
    fully-actuated abstraction.
    """

    def __init__(self, radius: float, speed: float, altitude: float,
                 climb_time: float):
        check_range("positive", radius=radius, speed=speed, altitude=altitude,
                    climb_time=climb_time)
        self.radius, self.altitude, self.climb_time = radius, altitude, climb_time
        try:
            self._climb_time_sq = climb_time ** 2
        except OverflowError:
            self._climb_time_sq = math.inf
        if not 0.0 < self._climb_time_sq < math.inf:
            raise ConfigError(f"climb_time must have a finite nonzero square, not {climb_time}")
        self.omega = speed / radius
        self.center = (-radius, 0.0)

    def point(self, t: float) -> tuple[list[float], list[float], list[float]]:
        """Desired pose, velocity and acceleration in state order (x..phi)."""
        pos = [0.0] * 6
        vel = [0.0] * 6
        acc = [0.0] * 6
        if t < self.climb_time:
            s = t / self.climb_time
            blend = s ** 3 * (10.0 + s * (-15.0 + 6.0 * s))
            dblend = s * s * (30.0 + s * (-60.0 + 30.0 * s)) / self.climb_time
            ddblend = s * (60.0 + s * (-180.0 + 120.0 * s)) / self._climb_time_sq
            pos[2] = self.altitude * blend
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


@dataclass(frozen=True)
class ControlGains:
    kp1: float = 2.5
    kp2: float = 4.0
    ka1: float = 2.5
    ka2: float = 4.0

    def __post_init__(self):
        check_range("positive", kp1=self.kp1, kp2=self.kp2, ka1=self.ka1, ka2=self.ka2)


# The control laws take the six estimated coordinates and velocities (the
# corrector outputs), the estimated uncertainty forces or torques (from
# `uncertainty_rescale`) and a trajectory point (pos, vel, acc).  They return
# plain floats and leave the finiteness check to the caller.

def _tracking_law(pos, vel, delta, tp, first, k1, k2, scale, lift) -> list[float]:
    """The law on axes ``first`` .. ``first`` + 2: ``scale`` is the per-axis
    table s and ``lift`` the three lift_i terms of those axes."""
    tp_pos, tp_vel, tp_acc = tp
    u = [0.0, 0.0, 0.0]
    for i in range(3):
        j = first + i
        xi = -scale[j] * tp_acc[j] - lift[i]
        u[i] = -xi - delta[i] - scale[j] * (k1 * (pos[j] - tp_pos[j])
                                            + k2 * (vel[j] - tp_vel[j]))
    return u


def position_control(pos, vel, delta_p, tp, gains: ControlGains,
                     params: UavParams) -> list[float]:
    """The forces (u_x, u_y, u_z) from axes 0-2 of the estimates and ``tp``."""
    return _tracking_law(pos, vel, delta_p, tp, 0, gains.kp1, gains.kp2,
                         params.axis_inertia, (0.0, 0.0, params.m * params.g))


def attitude_control(pos, vel, delta_a, tp, gains: ControlGains,
                     params: UavParams) -> list[float]:
    """The torques (u_psi, u_theta, u_phi) from axes 3-5 of the estimates and ``tp``."""
    return _tracking_law(pos, vel, delta_a, tp, 3, gains.ka1, gains.ka2,
                         params.axis_inertia, (0.0, 0.0, 0.0))


def uncertainty_rescale(sigma_hat, params: UavParams) -> tuple[list[float], list[float]]:
    """Convert per-axis uncertainty accelerations into forces and torques.

    The observers estimate sigma_i (acceleration units); the control laws
    cancel delta_p and delta_a (force/torque units), which differ by the mass
    and the inertias.
    """
    s_x, s_y, s_z, s_psi, s_theta, s_phi = params.axis_inertia
    return ([s_x * sigma_hat[0], s_y * sigma_hat[1], s_z * sigma_hat[2]],
            [s_psi * sigma_hat[3], s_theta * sigma_hat[4], s_phi * sigma_hat[5]])
