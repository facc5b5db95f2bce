"""Fractional-power feedback primitive and the stiff relay sub-integrator.

The feedback terms used throughout the estimators have the form
``|v|**alpha * sign(v)`` with ``alpha`` in (0, 1].  Near v = 0 the slope of
this function is unbounded, which makes explicit fixed-step integrators
misbehave: they develop small but persistent spurious offsets instead of
settling onto the true equilibrium.  ``relay_step`` integrates the scalar
forced relay ODE over one step with a closed-form treatment of exactly that
regime, and is the building block for the corrector stepper.

The steppers evaluate the odd power inline, on unvalidated floats, as
``copysign(abs(v) ** alpha, v) if v != 0.0 else 0.0``: the same operations
as `falpha` after its checks, with the +0.0 result at v = +-0.0 kept.
"""

from __future__ import annotations

import math
from math import copysign, isfinite

__all__ = ["falpha", "relay_step"]


def falpha(v: float, alpha: float) -> float:
    """Odd fractional power ``|v|**alpha * sign(v)`` with sign(0) = 0.

    Args:
        v: input value (must be finite).
        alpha: exponent in (0, 1].

    Returns:
        ``|v|**alpha`` carrying the sign of ``v``; exactly 0.0 at v = 0.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not math.isfinite(v):
        raise ValueError(f"non-finite input to falpha: {v}")
    if v == 0.0:
        return 0.0
    return math.copysign(abs(v) ** alpha, v)


def relay_step(u: float, forcing: float, c: float, alpha: float,
               h: float) -> tuple[float, float]:
    """Advance ``du/dt = forcing - c*|u|^alpha*sign(u)`` over one interval.

    ``forcing`` and ``c > 0`` are held constant over the step.  The solution
    of this one-dimensional ODE approaches the equilibrium ``ueq`` (where the
    relay term balances the forcing) monotonically and never crosses it; for
    ``forcing = 0`` it lands exactly on u = 0 in finite time.  The integrator
    preserves both facts: an explicit midpoint step is used while the flow is
    well resolved, and as soon as a stage would overshoot the equilibrium the
    remainder of the step is resolved with the closed-form fractional decay

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
            ueq = copysign((abs(forcing) / c) ** (1.0 / alpha), forcing)
        except OverflowError:
            ueq = copysign(math.inf, forcing)

    if isfinite(ueq):
        d = u - ueq
        g1 = forcing - c * (copysign(abs(u) ** alpha, u) if u != 0.0 else 0.0)
        um = u + 0.5 * h * g1
        if d == 0.0 or (um - ueq) * d <= 0.0:
            # Relay-dominated: the midpoint already overshoots.  Decay the
            # offset from equilibrium analytically; this lands on ueq exactly
            # once the finite reaching time has elapsed.
            ad = abs(d)
            if ad == 0.0:
                return ueq, ueq * h
            one_m = 1.0 - alpha
            if one_m <= 0.0:
                # alpha == 1: linear relay, plain exponential decay.
                dec = math.exp(-c * h)
                dend = d * dec
                return ueq + dend, ueq * h + d * (1.0 - dec) / c
            z = ad ** one_m - c * one_m * h
            if z <= 0.0:
                integral = copysign(ad ** (2.0 - alpha) / (c * (2.0 - alpha)), d)
                return ueq, integral + ueq * h
            dend = copysign(z ** (1.0 / one_m), d)
            integral = copysign(
                (ad ** (2.0 - alpha) - abs(dend) ** (2.0 - alpha)) / (c * (2.0 - alpha)), d)
            return ueq + dend, integral + ueq * h
        g2 = forcing - c * (copysign(abs(um) ** alpha, um) if um != 0.0 else 0.0)
        un = u + h * g2
        if (un - ueq) * d < 0.0:
            un = ueq
        return un, 0.5 * h * (u + un)

    # Equilibrium beyond floating-point range: the relay is negligible
    # against the forcing, so a plain midpoint step is accurate.
    g1 = forcing - c * (copysign(abs(u) ** alpha, u) if u != 0.0 else 0.0)
    um = u + 0.5 * h * g1
    g2 = forcing - c * (copysign(abs(um) ** alpha, um) if um != 0.0 else 0.0)
    un = u + h * g2
    return un, 0.5 * h * (u + un)
