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

Both are exposed as pure derivative functions plus one-step integrators with
measurements held constant over the step (zero-order hold).  The general
templates accept arbitrary feedback functions and reduce to the concrete
fractional-power forms exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from math import copysign, isfinite
from typing import Callable, NamedTuple

from .fractional import falpha, relay_step

__all__ = [
    "CorrectorParams", "CorrectorState", "ObserverParams", "ObserverState",
    "AxisMeasurement", "GeneralCorrectorSpec", "GeneralObserverSpec",
    "corrector_derivative", "observer_derivative",
    "general_corrector_derivative", "general_observer_derivative",
    "fractional_corrector_spec", "fractional_observer_spec",
    "step_corrector", "step_observer",
]


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite value in estimator input: {v}")


@dataclass(frozen=True)
class CorrectorParams:
    """Gains, fractional exponent and time-scale of the signal corrector."""

    k1: float
    k2: float
    alpha_c: float
    eps_c: float

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 > 0):
            raise ValueError("corrector gains k1, k2 must be positive")
        if not 0.0 < self.alpha_c < 1.0:
            raise ValueError("alpha_c must be in (0, 1)")
        if not 0.0 < self.eps_c < 1.0:
            raise ValueError("eps_c must be in (0, 1)")

    @property
    def kappa(self) -> float:
        """Exponent of the position-channel feedback, alpha_c/(2 - alpha_c)."""
        return self.alpha_c / (2.0 - self.alpha_c)

    @cached_property
    def _constants(self) -> tuple[float, float, float, float, float, float]:
        """(eps_c, 1/eps_c^3, k1, k2/eps_c^3, alpha_c, kappa) for `step_corrector`."""
        eps = self.eps_c
        inv_eps3 = 1.0 / (eps * eps * eps)
        return eps, inv_eps3, self.k1, self.k2 * inv_eps3, self.alpha_c, self.kappa


@dataclass(frozen=True)
class ObserverParams:
    """Gains, fractional exponent and time-scale of the uncertainty observer."""

    k3: float
    k4: float
    alpha_o: float
    eps_o: float

    def __post_init__(self):
        if not (self.k3 > 0 and self.k4 > 0):
            raise ValueError("observer gains k3, k4 must be positive")
        if not 0.0 < self.alpha_o < 1.0:
            raise ValueError("alpha_o must be in (0, 1)")
        if not 0.0 < self.eps_o < 1.0:
            raise ValueError("eps_o must be in (0, 1)")

    @cached_property
    def _constants(self) -> tuple[float, float, float, float]:
        """(alpha_o, (alpha_o + 1)/2, k4/eps_o, k3/eps_o^2) for the observer kernel."""
        alpha = self.alpha_o
        return (alpha, 0.5 * (alpha + 1.0), self.k4 / self.eps_o,
                self.k3 / (self.eps_o * self.eps_o))


class CorrectorState(NamedTuple):
    xhat1: float  # corrected position (or angle)
    xhat2: float  # corrected velocity (or rate)


# CorrectorState from an (xhat1, xhat2) pair, without the Python-level
# __new__ that calling the class goes through.
_new_corrector_state = partial(tuple.__new__, CorrectorState)


class ObserverState(NamedTuple):
    xhat3: float  # velocity estimate
    xhat4: float  # lumped uncertainty estimate


class AxisMeasurement(NamedTuple):
    """One axis worth of sensing: large-error channel plus accurate channel."""

    y_o1: float
    y_o2: float
    t: float
    y_o1_fresh: bool = True


@dataclass(frozen=True)
class GeneralCorrectorSpec:
    """Pluggable corrector feedback: continuous f_c with f_c(0, 0) = 0.

    ``rho`` and ``hoelder_const`` describe the Hoelder bound
    |f_c(a, w) - f_c(b, w)| <= hoelder_const*|a - b|**rho assumed of f_c in
    its first argument; `hoelder_holds` spot-checks it on samples.
    """

    f_c: Callable[[float, float], float]
    rho: float = 1.0
    hoelder_const: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.hoelder_const < 0.0:
            raise ValueError("Hoelder constant must be nonnegative")

    def hoelder_holds(self, first_args, second_arg: float,
                      rel_slack: float = 1e-12) -> bool:
        """Check the recorded Hoelder bound on all pairs of sampled points."""
        pts = [float(v) for v in first_args]
        for i, a in enumerate(pts):
            fa = self.f_c(a, second_arg)
            for b in pts[i + 1:]:
                gap = abs(fa - self.f_c(b, second_arg))
                bound = self.hoelder_const * abs(a - b) ** self.rho
                if gap > bound * (1.0 + rel_slack) + 1e-300:
                    return False
        return True


@dataclass(frozen=True)
class GeneralObserverSpec:
    """Pluggable observer feedback: continuous f_o1, f_o2 vanishing at 0."""

    f_o1: Callable[[float], float]
    f_o2: Callable[[float], float]


def general_corrector_derivative(state: CorrectorState, meas: AxisMeasurement,
                                 spec: GeneralCorrectorSpec,
                                 eps_c: float) -> tuple[float, float]:
    """General corrector template.

    dxhat1 = xhat2
    dxhat2 = f_c(eps_c*(xhat1 - y_o1), xhat2 - y_o2) / eps_c**3
    """
    xhat1, xhat2 = state
    _require_finite(xhat1, xhat2, meas.y_o1, meas.y_o2)
    if not 0.0 < eps_c < 1.0:
        raise ValueError("eps_c must be in (0, 1)")
    fb = spec.f_c(eps_c * (xhat1 - meas.y_o1), xhat2 - meas.y_o2)
    return xhat2, fb / (eps_c * eps_c * eps_c)


def general_observer_derivative(state: ObserverState, y_o2: float, h: float,
                                spec: GeneralObserverSpec,
                                eps_o: float) -> tuple[float, float]:
    """General observer template.

    dxhat3 = xhat4 + f_o1(xhat3 - y_o2)/eps_o + h
    dxhat4 = f_o2(xhat3 - y_o2)/eps_o**2
    """
    xhat3, xhat4 = state
    _require_finite(xhat3, xhat4, y_o2, h)
    if not 0.0 < eps_o < 1.0:
        raise ValueError("eps_o must be in (0, 1)")
    innov = xhat3 - y_o2
    d3 = xhat4 + spec.f_o1(innov) / eps_o + h
    d4 = spec.f_o2(innov) / (eps_o * eps_o)
    return d3, d4


def fractional_corrector_spec(p: CorrectorParams) -> GeneralCorrectorSpec:
    """The concrete fractional-power corrector feedback as a pluggable spec."""
    kappa = p.kappa

    def f_c(a: float, b: float) -> float:
        return -p.k1 * falpha(a, kappa) - p.k2 * falpha(b, p.alpha_c)

    # |x^rho - y^rho| <= 2^(1-rho) |x - y|^rho gives the Hoelder data for the
    # position-channel term.
    return GeneralCorrectorSpec(f_c, rho=kappa,
                                hoelder_const=p.k1 * 2.0 ** (1.0 - kappa))


def fractional_observer_spec(p: ObserverParams) -> GeneralObserverSpec:
    """The concrete fractional-power observer feedback as a pluggable spec."""
    beta = 0.5 * (p.alpha_o + 1.0)

    def f_o1(e: float) -> float:
        return -p.k4 * falpha(e, beta)

    def f_o2(e: float) -> float:
        return -p.k3 * falpha(e, p.alpha_o)

    return GeneralObserverSpec(f_o1, f_o2)


def corrector_derivative(state: CorrectorState, meas: AxisMeasurement,
                         p: CorrectorParams) -> tuple[float, float]:
    """Concrete signal corrector right-hand side.

    dxhat1 = xhat2
    dxhat2 = ( -k1*|eps_c*(xhat1 - y_o1)|^(alpha_c/(2-alpha_c))*sign(xhat1 - y_o1)
               -k2*|xhat2 - y_o2|^alpha_c*sign(xhat2 - y_o2) ) / eps_c^3
    """
    return general_corrector_derivative(state, meas, fractional_corrector_spec(p),
                                        p.eps_c)


def observer_derivative(state: ObserverState, y_o2: float, h: float,
                        p: ObserverParams) -> tuple[float, float]:
    """Concrete uncertainty observer right-hand side.

    dxhat3 = xhat4 - (k4/eps_o)*|xhat3 - y_o2|^((alpha_o+1)/2)*sign(xhat3 - y_o2) + h
    dxhat4 = -(k3/eps_o^2)*|xhat3 - y_o2|^alpha_o*sign(xhat3 - y_o2)
    """
    return general_observer_derivative(state, y_o2, h, fractional_observer_spec(p),
                                       p.eps_o)


def step_corrector(state: CorrectorState, meas: AxisMeasurement,
                   p: CorrectorParams, dt: float,
                   substeps: int = 2) -> CorrectorState:
    """Advance the corrector one fixed step with measurements held constant.

    The velocity-channel feedback k2*|.|^alpha_c is relay-like for small
    alpha_c and slaves xhat2 to y_o2 on a time scale far below any practical
    dt; a classical explicit stepper develops a stable spurious innovation
    offset there (order (dt*k2/eps^3)^(1/(1-alpha_c))), which integrates into
    a steady position drift.  Each substep therefore freezes the position
    feedback and resolves the velocity innovation with the exact fractional
    decay of `relay_step`, feeding its closed-form time integral back into
    xhat1.  Away from the relay regime this reduces to an ordinary explicit
    midpoint scheme.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    xhat1, xhat2 = state
    y1, y2 = meas[0], meas[1]
    if not (isfinite(xhat1) and isfinite(xhat2) and isfinite(y1) and isfinite(y2)):
        raise ValueError("non-finite value in corrector step input")

    eps, inv_eps3, k1, c2, alpha, kappa = p._constants
    u1 = xhat1 - y1
    u2 = xhat2 - y2
    h = dt / substeps
    for _ in range(substeps):
        v = eps * u1
        spring = -k1 * (copysign(abs(v) ** kappa, v) if v != 0.0 else 0.0) * inv_eps3
        u2_next, integral = relay_step(u2, spring, c2, alpha, h)
        # du1/dt = xhat2 = y_o2 + u2
        u1 += h * y2 + integral
        u2 = u2_next
    x1_out = y1 + u1
    x2_out = y2 + u2
    if not (isfinite(x1_out) and isfinite(x2_out)):
        raise ValueError("corrector step produced a non-finite state")
    return _new_corrector_state((x1_out, x2_out))


def _observer_rk4(xhat3: float, xhat4: float, y_o2: float, h: float,
                  k: tuple[float, float, float, float],
                  dt: float) -> tuple[float, float]:
    """Classical 4th-order observer step on plain floats; no checks.

    ``k`` is `ObserverParams._constants`.  Non-finite inputs give
    non-finite outputs, so callers check the outputs.
    """
    alpha, beta, c4, c3 = k
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
    return (xhat3 + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
            xhat4 + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4))


def step_observer(state: ObserverState, y_o2: float, h: float,
                  p: ObserverParams, dt: float) -> ObserverState:
    """Advance the observer one fixed step (classical 4th-order scheme).

    The observer's innovation exponent (alpha_o + 1)/2 >= 1/2 keeps the
    right-hand side tame enough for an explicit stepper at millisecond steps;
    spurious-offset scales are far below double precision here.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    xhat3, xhat4 = state
    if not (isfinite(xhat3) and isfinite(xhat4) and isfinite(y_o2) and isfinite(h)):
        raise ValueError("non-finite value in observer step input")
    x3_out, x4_out = _observer_rk4(xhat3, xhat4, y_o2, h, p._constants, dt)
    if not (isfinite(x3_out) and isfinite(x4_out)):
        raise ValueError("observer step produced a non-finite state")
    return ObserverState(x3_out, x4_out)
