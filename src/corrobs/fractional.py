"""Fractional-power feedback primitive and the stiff relay sub-integrator.

The feedback terms used throughout the estimators have the form
``|v|**alpha * sign(v)`` with ``alpha`` in (0, 1].  For alpha < 1 the slope
of this function is unbounded near v = 0, which makes explicit fixed-step
integrators misbehave: they develop small but persistent spurious offsets
instead of settling onto the true equilibrium.  ``relay_step`` integrates the
scalar forced relay ODE over one step with a closed-form treatment of exactly
that regime, and is the building block for the corrector stepper.  It takes
alpha in (0, 1), the corrector's stability range for alpha_c, and does not
check it; `falpha` takes (0, 1], as the describing-function analysis does.

The steppers evaluate the odd power inline, on unvalidated floats and with
no function call, in the branch-signed form

    (v ** alpha if v > 0.0 else -((-v) ** alpha)) if v != 0.0 else 0.0

which gives the bits of `falpha`'s ``copysign(abs(v) ** alpha, v)``: for
v < 0, -v is |v| exactly, and negating the power, which is not negative,
is what copysign does to it (an underflow to +0.0 becomes -0.0 either way).
v = +-0.0 gives +0.0, a NaN fails both comparisons and comes out of the
negative branch as a NaN, and +-inf gives +-inf.  `relay_step` signs its
closed-form end point the same way, as ueq + r or ueq - r, which is
ueq + copysign(r, d) bit for bit.  Its time integral keeps copysign: the
magnitude, a difference of two powers, can round below 0.
"""

from __future__ import annotations

import math
from math import copysign, isfinite

from .plant import check_range

__all__ = ["falpha", "relay_step"]


def falpha(v: float, alpha: float) -> float:
    """Odd fractional power ``|v|**alpha * sign(v)`` with sign(0) = 0.

    Args:
        v: input value (must be finite).
        alpha: exponent in (0, 1].

    Returns:
        ``|v|**alpha`` carrying the sign of ``v``; exactly 0.0 at v = 0.
    """
    check_range("in (0, 1]", alpha=alpha)
    check_range("finite", v=v)
    if v == 0.0:
        return 0.0
    return math.copysign(abs(v) ** alpha, v)


def relay_step(u: float, forcing: float, c: float, alpha: float,
               h: float) -> tuple[float, float]:
    """Advance ``du/dt = forcing - c*|u|^alpha*sign(u)`` over one interval.

    ``forcing`` and ``c > 0`` are held constant over the step, and ``alpha``
    lies in (0, 1), which is not checked (the corrector's parameters are).
    The solution of this one-dimensional ODE approaches the equilibrium
    ``ueq`` (where the relay term balances the forcing) monotonically and
    never crosses it; for ``forcing = 0`` it lands exactly on u = 0 in finite
    time.  The integrator preserves both facts: an explicit midpoint step is used while the flow is
    well resolved.  When the midpoint would overshoot the equilibrium, or
    when ``forcing = 0`` and the step is long against the relay's time scale
    (``h c alpha |u|^(alpha-1) > 1/2``, where the midpoint barely moves), the
    step is resolved with the closed-form fractional decay

        |u(t) - ueq|^(1-alpha) = |u0 - ueq|^(1-alpha) - c (1-alpha) t.

    Returns:
        ``(u_end, integral)`` where ``integral`` is the time integral of u
        over the step (needed by callers that integrate u into another state).
    """
    # Equilibrium, where the relay term balances the forcing.
    if forcing == 0.0:
        ueq = 0.0
    else:
        try:
            ueq = ((forcing / c) ** (1.0 / alpha) if forcing > 0.0
                   else -((-forcing / c) ** (1.0 / alpha)))
        except OverflowError:
            ueq = copysign(math.inf, forcing)

    g1 = forcing - c * ((u ** alpha if u > 0.0 else -((-u) ** alpha)) if u != 0.0 else 0.0)
    um = u + 0.5 * h * g1
    # An equilibrium beyond floating-point range leaves the relay negligible
    # against the forcing, so the plain midpoint step below is accurate.
    finite = isfinite(ueq)
    if finite:
        d = u - ueq
        if d == 0.0 or (um - ueq) * d <= 0.0 or (
                forcing == 0.0 and h * alpha * abs(g1) > 0.5 * abs(d)):
            # Relay-dominated: the midpoint overshoots, or the step is stiff
            # (with no forcing, h alpha |g1| / |u| is h c alpha |u|^(alpha-1)).
            # Decay the offset from equilibrium analytically; this lands on
            # ueq exactly once the finite reaching time has elapsed.
            if d == 0.0:
                return ueq, ueq * h
            ad = d if d > 0.0 else -d
            one_m = 1.0 - alpha
            z = ad ** one_m - c * one_m * h
            if z <= 0.0:
                integral = copysign(ad ** (2.0 - alpha) / (c * (2.0 - alpha)), d)
                return ueq, integral + ueq * h
            r = z ** (1.0 / one_m)
            # The magnitude can round below 0, so the sign comes from copysign.
            integral = copysign(
                (ad ** (2.0 - alpha) - r ** (2.0 - alpha)) / (c * (2.0 - alpha)), d)
            return ueq + r if d > 0.0 else ueq - r, integral + ueq * h
    g2 = forcing - c * ((um ** alpha if um > 0.0 else -((-um) ** alpha)) if um != 0.0 else 0.0)
    un = u + h * g2
    if finite and (un - ueq) * d < 0.0:
        un = ueq
    return un, 0.5 * h * (u + un)
