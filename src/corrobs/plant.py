"""Quadrotor rigid-body model with lumped per-axis uncertainties.

State layout (12,): [x, y, z, psi, theta, phi, vx, vy, vz, vpsi, vtheta, vphi]
with yaw psi, pitch theta, roll phi.  Each axis obeys

    xdd_i = h_i(t) + sigma_i(t)

where h_i is the known input (wrench component over mass or inertia, minus
gravity on the vertical axis; `input_acceleration_scalars`) and sigma_i lumps
drag and unmodelled disturbances (`true_delta` over the mass or inertia).
`UavParams.axis_inertia` (the mass or inertia of each axis) and
`UavParams.drag_lever` (the arm-length lever on the pitch and roll drag) are
the one per-axis table of the vehicle; every per-axis scale reads them.
`step_plant` is the one integrator of the model.  The plant is driven directly
by the six-component wrench; rotor-level thrust allocation is out of scope.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

__all__ = [
    "UavParams", "UncertaintyModel", "AXIS_NAMES", "ConfigError", "check_range", "range_faults",
    "per_axis", "sinusoid_sum", "true_delta", "input_acceleration_scalars", "plant_axes",
    "step_plant",
]

AXIS_NAMES = ("x", "y", "z", "psi", "theta", "phi")


class ConfigError(ValueError):
    """A configured value (a document key, a flag or a study argument) is
    refused; the message names the offending key or flag.  Every refusal is
    one, raised where its rule is checked: by `check_range`, or by a rule
    with a message form of its own.  A boundary only prefixes the key, flag
    or value it read; a plain ValueError is a fault of the program, not a
    refusal."""


# The rules a configured value can break, by name.  A range rule holds its
# requirement, as a refusal states it, and its test of one finite number; every
# range rule requires finite numbers.  A length rule holds the least and the
# most entries and its requirement; an order rule, its requirement and the
# test of each two neighbouring entries.
_RANGES = {
    "finite": ("finite", lambda v: True),
    "positive": ("positive and finite", lambda v: v > 0.0),
    "nonnegative": ("nonnegative and finite", lambda v: v >= 0.0),
    "in (0, 1)": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "in (0, 1]": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "in [0, 1]": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
}
_LENGTHS = {
    "pair": (2, 2, "2 entries, (position group, attitude group)"),
    "per axis": (6, 6, "6 entries, one per axis"),
    "per state": (12, 12, "12 entries, one per state"),
    "interval": (2, 2, "2 entries, (start, end)"),
    "sinusoid": (3, 3, "3 entries, (amplitude, angular frequency, phase)"),
    "nonempty": (1, math.inf, "at least one entry"),
}
_ORDERS = {
    "start < end": ("(start, end) with start < end", operator.lt),
    "descending": ("strictly descending", operator.gt),
}


def _numbers(value) -> list:
    """The numbers in ``value``: a number, or tuples of them, nested."""
    return [n for v in value for n in _numbers(v)] if isinstance(value, tuple) else [value]


def _fault(rule: str | tuple[str, ...], name: str, value) -> str | None:
    if isinstance(rule, tuple):
        return None if value in rule else (
            f"{name} must be one of {', '.join(map(repr, rule))}, not {value!r}")
    if rule in _LENGTHS:
        least, most, requirement = _LENGTHS[rule]
        return None if least <= len(value) <= most else (
            f"{name} must hold {requirement}, not {len(value)}")
    if rule in _ORDERS:
        requirement, ok = _ORDERS[rule]
        return None if all(map(ok, value, value[1:])) else (
            f"{name} must be {requirement}, not {value}")
    requirement, ok = _RANGES[rule]
    bad = next((v for v in _numbers(value) if not (math.isfinite(v) and ok(v))), None)
    return None if bad is None else f"{name} must be {requirement}, not {bad}"


def range_faults(rule: str | tuple[str, ...], **values) -> list[str]:
    """One message per field of ``values`` (by name) that breaks ``rule``.

    ``rule`` is a range rule of `_RANGES` ("{field} must be {requirement},
    not {number}", naming the field's first such number, nested tuples
    included), a length rule of `_LENGTHS` ("{field} must hold
    {requirement}, not {count}"), an order rule of `_ORDERS` ("{field} must
    be {requirement}, not {entries}") or a tuple of the names a field may be
    ("{field} must be one of {names}, not {value}").
    """
    return [m for m in (_fault(rule, name, v) for name, v in values.items()) if m]


def check_range(rule: str | tuple[str, ...], **values) -> None:
    """Refuse the first field of ``values`` that `range_faults` finds at
    fault with a ConfigError carrying its message: the one check of every
    rule a configured value can break."""
    faults = range_faults(rule, **values)
    if faults:
        raise ConfigError(faults[0])


def per_axis(pair: tuple) -> tuple:
    """The six per-axis entries of a (position group, attitude group) pair:
    the first for x, y, z and the second for psi, theta, phi."""
    position, attitude = pair
    return (position,) * 3 + (attitude,) * 3


@dataclass(frozen=True)
class UavParams:
    """Physical constants of the vehicle (defaults: 2 kg class quadrotor).

    Besides the fields, each object holds two per-axis tuples in state order:
    ``axis_inertia``, the mass or inertia each wrench component is divided by
    (m, m, m, J_psi, J_theta, J_phi), and ``drag_lever``, the lever factor on
    each drag term (1, 1, 1, 1, l, l: the arm length on pitch and roll).
    """

    m: float = 2.01          # mass, kg
    g: float = 9.81          # gravity, m/s^2
    l: float = 0.2           # rotor arm length, m
    J_psi: float = 2.5       # yaw inertia, kg m^2
    J_theta: float = 1.25    # pitch inertia, kg m^2
    J_phi: float = 1.25      # roll inertia, kg m^2

    def __post_init__(self):
        check_range("positive", m=self.m, g=self.g, l=self.l, J_psi=self.J_psi,
                    J_theta=self.J_theta, J_phi=self.J_phi)
        # Set here, as the fields are, rather than cached on first read, so
        # that every attribute read on the object stays on the fast path.
        object.__setattr__(self, "axis_inertia",
                           (self.m,) * 3 + (self.J_psi, self.J_theta, self.J_phi))
        object.__setattr__(self, "drag_lever", (1.0,) * 4 + (self.l, self.l))


@dataclass(frozen=True)
class UncertaintyModel:
    """Drag coefficients plus unmodelled per-axis disturbances.

    The disturbance Delta_i(t) on each axis is a sum of (amplitude, angular
    frequency, phase) sinusoid triples; a constant c is the triple
    (c, 0, pi/2), which evaluates to exactly c.
    """

    drag: tuple[float, ...] = (0.0,) * 6
    delta_sinusoids: tuple[tuple[tuple[float, float, float], ...], ...] = ((),) * 6

    def __post_init__(self):
        check_range("per axis", drag=self.drag, delta_sinusoids=self.delta_sinusoids)
        check_range("sinusoid", **{f"delta_sinusoids[{a}][{i}]": s
                                   for a, sins in enumerate(self.delta_sinusoids)
                                   for i, s in enumerate(sins)})
        check_range("nonnegative", drag=self.drag)
        check_range("finite", delta_sinusoids=self.delta_sinusoids)


def sinusoid_sum(sinusoids, t: float) -> float:
    """The sum from 0.0 of the (amplitude, angular frequency, phase)
    ``sinusoids`` at time ``t``, added in order."""
    val = 0.0
    for amp, omega, phase in sinusoids:
        val += amp * math.sin(omega * t + phase)
    return val


def true_delta(axis: int, vel: float | np.ndarray, t: float | np.ndarray,
               unc: UncertaintyModel, params: UavParams) -> float | np.ndarray:
    """Uncertainty force/torque on one axis at velocity ``vel`` and time ``t``.

    delta_p components are Delta_i - k_i*v_i (position axes); delta_a
    components carry the arm-length lever on the pitch/roll drag.  ``vel``
    and ``t`` are either floats or equal-length columns of one axis, which
    give the force column; Delta_i is evaluated per element with
    `math.sin` either way, so both forms give the same bits.  `metrics`
    passes columns; the float form is the one the test oracles call every
    tick (``tests/oracles.py``: `sigma`, and through it the stacked plant
    derivative and the perfect-information loop), so both stay.  An
    ``axis`` outside 0-5 is refused.
    """
    if not 0 <= axis < 6:
        raise ValueError(f"axis index out of range: {axis}")
    lever = params.drag_lever[axis]
    fn = partial(sinusoid_sum, unc.delta_sinusoids[axis])
    if isinstance(t, np.ndarray):
        delta = np.fromiter(map(fn, t.tolist()), float, len(t))
    else:
        delta = fn(t)
    return -lever * unc.drag[axis] * vel + delta


def input_acceleration_scalars(wrench: Sequence[float],
                               params: UavParams) -> tuple[float, ...]:
    """Known input terms h_i: the six wrench components (u_x .. u_phi) over
    mass/inertia, gravity on the z axis."""
    u_x, u_y, u_z, u_psi, u_theta, u_phi = wrench
    s_x, s_y, s_z, s_psi, s_theta, s_phi = params.axis_inertia
    return (
        u_x / s_x,
        u_y / s_y,
        u_z / s_z - params.g,
        u_psi / s_psi,
        u_theta / s_theta,
        u_phi / s_phi,
    )


def plant_axes(unc: UncertaintyModel, params: UavParams):
    """Per axis: (1/mass or inertia, drag acceleration coefficient, disturbance
    function of time, or None when the axis has no disturbance).  Worked out
    once per run for `step_plant`."""
    out = []
    for scale, lever, drag, sins in zip(params.axis_inertia, params.drag_lever, unc.drag,
                                        unc.delta_sinusoids):
        inv = 1.0 / scale
        out.append((inv, inv * lever * drag, partial(sinusoid_sum, sins) if sins else None))
    return tuple(out)


def step_plant(s: Sequence[float], h6: Sequence[float], axes, t: float,
               dt: float) -> list[float]:
    """One fixed 4th-order step of the 12 states, xdd_i = h_i + sigma_i, with
    the input accelerations ``h6`` (from `input_acceleration_scalars`) held
    over [t, t+dt]; no checks.

    ``axes`` is `plant_axes(unc, params)`, which gives sigma_i per axis as a
    drag coefficient and a disturbance.  The accelerations depend only on
    the velocities and time (never on the positions), so the classical scheme
    decouples per axis into a velocity update plus the exactly corresponding
    position quadrature: algebraically the same 4th-order step as applying
    it to the stacked 12-dimensional system.
    """
    tm = t + 0.5 * dt
    te = t + dt
    half = 0.5 * dt
    sixth = dt / 6.0
    sq_sixth = dt * dt / 6.0
    out = [0.0] * 12
    for axis in range(6):
        inv, cdrag, fn = axes[axis]
        if fn is None:
            d0 = dm = de = 0.0
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
