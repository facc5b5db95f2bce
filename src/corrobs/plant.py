"""Quadrotor rigid-body model with lumped per-axis uncertainties.

State layout (12,): [x, y, z, psi, theta, phi, vx, vy, vz, vpsi, vtheta, vphi]
with yaw psi, pitch theta, roll phi.  Each axis obeys

    xdd_i = h_i(t) + sigma_i(t)

where h_i is the known input (wrench component over mass or inertia, minus
gravity on the vertical axis) and sigma_i lumps drag and unmodelled
disturbances.  The plant is driven directly by the six-component wrench; the
rotor-thrust aggregation is provided for consistency checks but rotor-level
allocation is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "UavParams", "UavState", "WrenchInput", "UncertaintyModel",
    "AXIS_NAMES", "sigma", "sigma_vector", "true_delta",
    "input_accelerations", "dynamics_derivative",
    "rotor_forces_to_wrench", "hover_thrust", "step_plant", "wrap_angle",
]

AXIS_NAMES = ("x", "y", "z", "psi", "theta", "phi")


@dataclass(frozen=True)
class UavParams:
    """Physical constants of the vehicle (defaults: 2 kg class quadrotor)."""

    m: float = 2.01          # mass, kg
    g: float = 9.81          # gravity, m/s^2
    l: float = 0.2           # rotor arm length, m
    J_psi: float = 2.5       # yaw inertia, kg m^2
    J_theta: float = 1.25    # pitch inertia, kg m^2
    J_phi: float = 1.25      # roll inertia, kg m^2
    b: float = 2.923e-3      # rotor force coefficient
    k: float = 5e-4          # rotor torque coefficient

    def __post_init__(self):
        for name in ("m", "g", "l", "J_psi", "J_theta", "J_phi", "b", "k"):
            if not getattr(self, name) > 0:
                raise ValueError(f"UavParams.{name} must be strictly positive")

    @property
    def inertias(self) -> tuple[float, float, float]:
        return (self.J_psi, self.J_theta, self.J_phi)


class UavState(NamedTuple):
    x: float
    y: float
    z: float
    psi: float
    theta: float
    phi: float
    vx: float
    vy: float
    vz: float
    vpsi: float
    vtheta: float
    vphi: float

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    @classmethod
    def from_array(cls, arr: Sequence[float]) -> "UavState":
        return cls(*(float(v) for v in arr))


class WrenchInput(NamedTuple):
    u_x: float
    u_y: float
    u_z: float
    u_psi: float
    u_theta: float
    u_phi: float


@dataclass(frozen=True)
class UncertaintyModel:
    """Drag coefficients plus unmodelled per-axis disturbances.

    ``delta`` maps each axis to a disturbance signal: either a list of
    (amplitude, angular frequency, phase) sinusoid triples plus an optional
    constant offset, or an arbitrary callable of time.  ``l_sigma`` records
    the assumed bound on the uncertainty derivative.
    """

    drag: tuple[float, ...] = (0.0,) * 6
    delta_sinusoids: tuple[tuple[tuple[float, float, float], ...], ...] = ((),) * 6
    delta_constant: tuple[float, ...] = (0.0,) * 6
    delta_callables: tuple[Callable[[float], float] | None, ...] = (None,) * 6
    l_sigma: float = 1.0

    def __post_init__(self):
        if len(self.drag) != 6 or len(self.delta_sinusoids) != 6 \
                or len(self.delta_constant) != 6 or len(self.delta_callables) != 6:
            raise ValueError("uncertainty model fields must have one entry per axis")
        if any(c < 0 for c in self.drag):
            raise ValueError("drag coefficients must be nonnegative")

    def delta(self, axis: int, t: float) -> float:
        """Unmodelled disturbance on one axis (0-based index) at time t."""
        return self._disturbances[axis](t)

    @cached_property
    def _disturbances(self) -> tuple[Callable[[float], float], ...]:
        """Per axis, the disturbance as a function of time."""
        return tuple(fn if fn is not None else partial(_sinusoid_sum, const, sins)
                     for fn, const, sins in zip(self.delta_callables, self.delta_constant,
                                                self.delta_sinusoids))


def _sinusoid_sum(const: float, sinusoids, t: float) -> float:
    val = const
    for amp, omega, phase in sinusoids:
        val += amp * math.sin(omega * t + phase)
    return val


def _axis_scale(axis: int, params: UavParams) -> tuple[float, float]:
    """(inverse inertia/mass, drag lever factor) for one axis.

    The pitch and roll drag terms carry the arm length as a lever factor;
    the yaw term does not.
    """
    if axis < 3:
        return 1.0 / params.m, 1.0
    if axis == 3:
        return 1.0 / params.J_psi, 1.0
    if axis == 4:
        return 1.0 / params.J_theta, params.l
    if axis == 5:
        return 1.0 / params.J_phi, params.l
    raise ValueError(f"axis index out of range: {axis}")


def sigma(axis: int, state: Sequence[float], t: float, unc: UncertaintyModel,
          params: UavParams) -> float:
    """Lumped uncertainty acceleration sigma_i on one axis (0-based index)."""
    inv, lever = _axis_scale(axis, params)
    vel = state[6 + axis]
    return inv * (-lever * unc.drag[axis] * vel + unc.delta(axis, t))


def sigma_vector(state: Sequence[float], t: float, unc: UncertaintyModel,
                 params: UavParams) -> np.ndarray:
    return np.array([sigma(i, state, t, unc, params) for i in range(6)])


def true_delta(axis: int, state: Sequence[float], t: float, unc: UncertaintyModel,
               params: UavParams) -> float:
    """Uncertainty force/torque seen by the control error system.

    delta_p components are Delta_i - k_i*v_i (position axes); delta_a
    components carry the arm-length lever on the pitch/roll drag.  Equals
    sigma_i scaled back by the mass or inertia.
    """
    inv, lever = _axis_scale(axis, params)
    return -lever * unc.drag[axis] * state[6 + axis] + unc.delta(axis, t)


def input_acceleration_scalars(wrench: WrenchInput,
                               params: UavParams) -> tuple[float, ...]:
    """Known input terms h_i: wrench over mass/inertia, gravity on the z axis."""
    u_x, u_y, u_z, u_psi, u_theta, u_phi = wrench
    return (
        u_x / params.m,
        u_y / params.m,
        u_z / params.m - params.g,
        u_psi / params.J_psi,
        u_theta / params.J_theta,
        u_phi / params.J_phi,
    )


def input_accelerations(wrench: WrenchInput, params: UavParams) -> np.ndarray:
    """Array view of the known input terms; see input_acceleration_scalars."""
    return np.array(input_acceleration_scalars(wrench, params))


def dynamics_derivative(state: np.ndarray, wrench: WrenchInput,
                        unc: UncertaintyModel, params: UavParams,
                        t: float) -> np.ndarray:
    """Time derivative of the 12-component state: xdd_i = h_i + sigma_i."""
    state = np.asarray(state, dtype=float)
    if not np.all(np.isfinite(state)):
        raise ValueError("non-finite plant state")
    deriv = np.empty(12)
    deriv[:6] = state[6:]
    deriv[6:] = input_accelerations(wrench, params) + sigma_vector(state, t, unc, params)
    return deriv


def rotor_forces_to_wrench(forces: Sequence[float], attitude: Sequence[float],
                           params: UavParams) -> WrenchInput:
    """Aggregate four rotor thrusts into the body wrench at a given attitude.

    ``attitude`` is (psi, theta, phi).  Torques: yaw from the alternating
    reactive torques scaled by k/b, pitch from (F3 - F1)*l, roll from
    (F2 - F4)*l.
    """
    f1, f2, f3, f4 = (float(f) for f in forces)
    if min(f1, f2, f3, f4) < 0.0:
        raise ValueError("rotor thrusts must be nonnegative")
    psi, theta, phi = attitude
    total = f1 + f2 + f3 + f4
    cpsi, spsi = math.cos(psi), math.sin(psi)
    cth, sth = math.cos(theta), math.sin(theta)
    cph, sph = math.cos(phi), math.sin(phi)
    return WrenchInput(
        (cpsi * sth * cph + spsi * sph) * total,
        (spsi * sth * cph - cpsi * sph) * total,
        cth * cph * total,
        params.k / params.b * (f1 - f2 + f3 - f4),
        (f3 - f1) * params.l,
        (f2 - f4) * params.l,
    )


def hover_thrust(params: UavParams) -> float:
    """Total thrust that balances gravity."""
    return params.m * params.g


def _axis_constants(unc: UncertaintyModel, params: UavParams):
    """Per axis: (1/mass or inertia, drag acceleration coefficient, disturbance
    function of time or None when the disturbance is constant, the constant
    disturbance acceleration).  Worked out once per run for `_plant_rk4`."""
    out = []
    for axis in range(6):
        inv, lever = _axis_scale(axis, params)
        fn = unc._disturbances[axis]
        if unc.delta_callables[axis] is None and not unc.delta_sinusoids[axis]:
            out.append((inv, inv * lever * unc.drag[axis], None, inv * fn(0.0)))
        else:
            out.append((inv, inv * lever * unc.drag[axis], fn, 0.0))
    return tuple(out)


def _plant_rk4(s: list[float], h6: Sequence[float], axes, t: float,
               dt: float) -> list[float]:
    """One fixed 4th-order step of the 12 states as plain floats; no checks.

    ``axes`` is `_axis_constants(unc, params)`.  The accelerations depend only
    on the velocities and time (never on the positions), so the classical
    scheme decouples per axis into a velocity update plus the exactly
    corresponding position quadrature.
    """
    tm = t + 0.5 * dt
    te = t + dt
    half = 0.5 * dt
    sixth = dt / 6.0
    sq_sixth = dt * dt / 6.0
    out = [0.0] * 12
    for axis in range(6):
        inv, cdrag, fn, dconst = axes[axis]
        if fn is None:
            d0 = dm = de = dconst
        else:
            d0 = inv * fn(t)
            dm = inv * fn(tm)
            de = inv * fn(te)
        hv = h6[axis]
        v = s[6 + axis]
        a1 = hv - cdrag * v + d0
        a2 = hv - cdrag * (v + half * a1) + dm
        a3 = hv - cdrag * (v + half * a2) + dm
        a4 = hv - cdrag * (v + dt * a3) + de
        out[6 + axis] = v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        out[axis] = s[axis] + dt * v + sq_sixth * (a1 + a2 + a3)
    return out


def step_plant(state: np.ndarray, wrench: WrenchInput, unc: UncertaintyModel,
               params: UavParams, t: float, dt: float) -> np.ndarray:
    """One fixed 4th-order step with the wrench held constant over [t, t+dt].

    The classical scheme applied per axis (see `_plant_rk4`) is algebraically
    the same 4th-order step as applying it to the stacked 12-dimensional
    system.
    """
    return np.array(_plant_rk4([float(v) for v in state],
                               input_acceleration_scalars(wrench, params),
                               _axis_constants(unc, params), t, dt))


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]; applied at logging time, not in integration."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi
