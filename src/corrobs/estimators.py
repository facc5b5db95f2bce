"""Signal corrector and uncertainty observer.

Two independent second-order estimators serve one measured axis of the plant

    dx1/dt = x2,   dx2/dt = h(t) + sigma(t),
    y_o1 = x1 + d(t) + n1(t),   y_o2 = x2 + n2(t),

where y_o1 carries a bounded but possibly large unknown offset d(t) (think
tens of meters of raw GNSS error) and y_o2 is an accurate rate channel.

* The *corrector* reconstructs x1 and x2 from (y_o1, y_o2) while rejecting
  d(t): its fractional-power velocity feedback slaves the velocity state to
  the accurate channel so hard that the biased position channel can only pull
  the position estimate at a vanishing rate.
* The *observer* reconstructs x2 and the lumped uncertainty sigma(t) from
  y_o2 and the known input h(t).

With [v]^a = |v|^a*sign(v), the two right-hand sides are

    dxhat1 = xhat2
    dxhat2 = ( -k1*[eps_c*(xhat1 - y_o1)]^(alpha_c/(2-alpha_c))
               -k2*[xhat2 - y_o2]^alpha_c ) / eps_c^3
    dxhat3 = xhat4 - (k4/eps_o)*[xhat3 - y_o2]^((alpha_o+1)/2) + h
    dxhat4 = -(k3/eps_o^2)*[xhat3 - y_o2]^alpha_o

Both are exposed as one-step integrators with measurements held constant
over the step (zero-order hold).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from math import copysign, isfinite
from typing import NamedTuple

from .fractional import relay_step
from .plant import range_faults

__all__ = [
    "CorrectorParams", "CorrectorState", "ObserverParams", "ObserverState",
    "AxisMeasurement", "step_corrector", "step_observer", "parameter_faults",
]


def parameter_faults(**values: float) -> list[str]:
    """Every stability-range rule that the estimator parameters ``values``
    (by field name) break, one message each, the gains' first: a gain
    (k1 ... k4) must be positive and finite, a fractional exponent (alpha_*)
    and a time-scale (eps_*) must lie in (0, 1).  The parameter classes
    refuse a set with its first fault, as every scenario class does, and
    `freq.validate_corrector_params` and `freq.validate_observer_params`
    report every fault."""
    gains = {name: v for name, v in values.items() if name.startswith("k")}
    return (range_faults("positive", **gains)
            + range_faults("in (0, 1)", **{n: v for n, v in values.items() if n not in gains}))


def _refuse_faults(params) -> None:
    faults = parameter_faults(**{f.name: getattr(params, f.name) for f in fields(params)})
    if faults:
        raise ValueError(faults[0])


def _usable(name: str, formula: str, value: float) -> float:
    """``value``, the stepper constant ``formula``, if it is finite and not 0
    (a tiny eps cubed underflows); otherwise a ValueError naming ``name``."""
    if value == 0.0 or not isfinite(value):
        raise ValueError(f"{name} gives {formula} = {value}; it must be finite and nonzero")
    return value


@dataclass(frozen=True)
class CorrectorParams:
    """Gains, fractional exponent and time-scale of the signal corrector."""

    k1: float
    k2: float
    alpha_c: float
    eps_c: float

    def __post_init__(self):
        _refuse_faults(self)
        # (eps_c, 1/eps_c^3, k1, k2/eps_c^3, alpha_c, kappa) for `step_corrector`,
        # set here, as the fields are, so that an unusable set is refused and
        # the stepper reads a plain attribute.
        eps = self.eps_c
        inv_eps3 = 1.0 / _usable("eps_c", "eps_c^3", eps * eps * eps)
        object.__setattr__(self, "_constants", (
            eps, _usable("eps_c", "1/eps_c^3", inv_eps3), self.k1,
            _usable("k2", "k2/eps_c^3", self.k2 * inv_eps3), self.alpha_c, self.kappa))

    @property
    def kappa(self) -> float:
        """Exponent of the position-channel feedback, alpha_c/(2 - alpha_c)."""
        return self.alpha_c / (2.0 - self.alpha_c)


@dataclass(frozen=True)
class ObserverParams:
    """Gains, fractional exponent and time-scale of the uncertainty observer."""

    k3: float
    k4: float
    alpha_o: float
    eps_o: float

    def __post_init__(self):
        _refuse_faults(self)
        # (alpha_o, beta, k4/eps_o, k3/eps_o^2) for `step_observer`,
        # set the same way as the corrector's.
        alpha = self.alpha_o
        eps2 = _usable("eps_o", "eps_o^2", self.eps_o * self.eps_o)
        object.__setattr__(self, "_constants", (
            alpha, self.beta, _usable("k4", "k4/eps_o", self.k4 / self.eps_o),
            _usable("k3", "k3/eps_o^2", self.k3 / eps2)))

    @property
    def beta(self) -> float:
        """Exponent of the innovation feedback, (alpha_o + 1)/2."""
        return 0.5 * (self.alpha_o + 1.0)


class CorrectorState(NamedTuple):
    xhat1: float  # corrected position (or angle)
    xhat2: float  # corrected velocity (or rate)


# CorrectorState from an (xhat1, xhat2) pair, without the Python-level
# __new__ that calling the class goes through.
_new_corrector_state = partial(tuple.__new__, CorrectorState)


class ObserverState(NamedTuple):
    xhat3: float  # velocity estimate
    xhat4: float  # lumped uncertainty estimate


# ObserverState from an (xhat3, xhat4) pair, the same way.
_new_observer_state = partial(tuple.__new__, ObserverState)


class AxisMeasurement(NamedTuple):
    """One axis worth of sensing: large-error channel plus accurate channel,
    and whether the large-error sample was just taken."""

    y_o1: float
    y_o2: float
    y_o1_fresh: bool = True


def step_corrector(state: CorrectorState, meas: AxisMeasurement,
                   p: CorrectorParams, dt: float) -> CorrectorState:
    """Advance the corrector one fixed step, in two substeps of dt/2, with
    measurements held constant.

    The velocity-channel feedback k2*|.|^alpha_c is relay-like for small
    alpha_c and slaves xhat2 to y_o2 on a time scale far below any practical
    dt; a classical explicit stepper develops a stable spurious innovation
    offset there (order (dt*k2/eps^3)^(1/(1-alpha_c))), which integrates into
    a steady position drift.  Each substep therefore freezes the position
    feedback and resolves the velocity innovation with the exact fractional
    decay of `relay_step`, feeding its closed-form time integral back into
    xhat1.  Away from the relay regime this reduces to an ordinary explicit
    midpoint scheme.  A non-finite input gives a non-finite state, which the
    output check refuses with a ValueError.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    xhat1, xhat2 = state
    y1, y2 = meas[0], meas[1]
    eps, inv_eps3, k1, c2, alpha, kappa = p._constants
    u1 = xhat1 - y1
    u2 = xhat2 - y2
    h = 0.5 * dt
    hy2 = h * y2    # du1/dt = xhat2 = y_o2 + u2
    v = eps * u1
    spring = -k1 * (copysign(abs(v) ** kappa, v) if v != 0.0 else 0.0) * inv_eps3
    u2, integral = relay_step(u2, spring, c2, alpha, h)
    u1 += hy2 + integral
    v = eps * u1
    spring = -k1 * (copysign(abs(v) ** kappa, v) if v != 0.0 else 0.0) * inv_eps3
    u2, integral = relay_step(u2, spring, c2, alpha, h)
    u1 += hy2 + integral
    x1_out = y1 + u1
    x2_out = y2 + u2
    if not (isfinite(x1_out) and isfinite(x2_out)):
        raise ValueError("corrector step produced a non-finite state")
    return _new_corrector_state((x1_out, x2_out))


def step_observer(state: ObserverState, y_o2: float, h: float,
                  p: ObserverParams, dt: float) -> ObserverState:
    """Advance the observer one fixed step (classical 4th-order scheme).

    The observer's innovation exponent `ObserverParams.beta` >= 1/2 keeps the
    right-hand side tame enough for an explicit stepper at millisecond steps;
    spurious-offset scales are far below double precision here.  A non-finite
    input gives a non-finite state, which the output check refuses.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    xhat3, xhat4 = state
    alpha, beta, c4, c3 = p._constants
    half = 0.5 * dt
    innov = xhat3 - y_o2
    mag = abs(innov)
    a1 = xhat4 - c4 * (copysign(mag ** beta, innov) if innov != 0.0 else 0.0) + h
    b1 = -c3 * (copysign(mag ** alpha, innov) if innov != 0.0 else 0.0)
    innov = xhat3 + half * a1 - y_o2
    mag = abs(innov)
    a2 = xhat4 + half * b1 - c4 * (copysign(mag ** beta, innov) if innov != 0.0 else 0.0) + h
    b2 = -c3 * (copysign(mag ** alpha, innov) if innov != 0.0 else 0.0)
    innov = xhat3 + half * a2 - y_o2
    mag = abs(innov)
    a3 = xhat4 + half * b2 - c4 * (copysign(mag ** beta, innov) if innov != 0.0 else 0.0) + h
    b3 = -c3 * (copysign(mag ** alpha, innov) if innov != 0.0 else 0.0)
    innov = xhat3 + dt * a3 - y_o2
    mag = abs(innov)
    a4 = xhat4 + dt * b3 - c4 * (copysign(mag ** beta, innov) if innov != 0.0 else 0.0) + h
    b4 = -c3 * (copysign(mag ** alpha, innov) if innov != 0.0 else 0.0)
    x3_out = xhat3 + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    x4_out = xhat4 + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    if not (isfinite(x3_out) and isfinite(x4_out)):
        raise ValueError("observer step produced a non-finite state")
    return _new_observer_state((x3_out, x4_out))
