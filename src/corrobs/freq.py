"""Describing-function analysis and parameter-selection checks.

For the odd nonlinearity |u|^a sign(u) driven by A sin(wt), the equivalent
gain is N(A) = Omega(a) / A^(1-a) with

    Omega(a) = (2/pi) * integral_0^pi |sin u|^(a+1) du,   Omega in [1, 4/pi).

The integral is Wallis's: (2/pi) * B((a+2)/2, 1/2), i.e.

    Omega(a) = (2/sqrt(pi)) * Gamma((a+2)/2) / Gamma((a+3)/2)

(Gradshteyn & Ryzhik 3.621.1; Abramowitz & Stegun 6.2.1), which is how it
is evaluated here.

Replacing each fractional-power term of the corrector and observer by its
equivalent gain yields second-order linear systems, each stated once as the
companion matrix that `linearize_corrector` and `linearize_observer` return.
Their stiffness and damping expose how the estimators filter noise: the
natural frequencies are the square roots of the stiffness.  Their
discriminants give the oscillation-avoidance rules used by
`validate_corrector_params` and `validate_observer_params`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import CorrectorParams, ObserverParams, parameter_faults
from .plant import check_range

__all__ = [
    "ParamValidationReport", "omega_coefficient",
    "corrector_natural_frequency", "observer_natural_frequency",
    "linearize_corrector", "linearize_observer",
    "validate_corrector_params", "validate_observer_params",
    "filtering_advice",
]


@dataclass(frozen=True)
class ParamValidationReport:
    stable: bool
    oscillation_free: bool
    messages: tuple[str, ...] = field(default_factory=tuple)


def omega_coefficient(alpha: float) -> float:
    """Omega(alpha) = (2/pi) * integral_0^pi sin(u)^(alpha+1) du, alpha in (0, 1].

    Evaluated in closed form through the Beta/Gamma identity
    (2/pi) * B((alpha+2)/2, 1/2) = (2/sqrt(pi)) * Gamma((alpha+2)/2) / Gamma((alpha+3)/2);
    exactly 1.0 at alpha = 1.
    """
    check_range("in (0, 1]", alpha=alpha)
    return 2.0 / math.sqrt(math.pi) * math.gamma(0.5 * (alpha + 2.0)) \
        / math.gamma(0.5 * (alpha + 3.0))


def _quotient(num: float, den: float) -> float:
    """``num / den`` for a positive ``num``; a ``den`` that underflowed to 0
    is the same overflow as an infinite ``num``, so the quotient is inf."""
    return num / den if den else math.inf


def corrector_natural_frequency(p: CorrectorParams, a_c1: float) -> float:
    """Natural frequency of the linearized corrector at innovation amplitude a_c1,
    the square root of `linearize_corrector`'s stiffness:

    w_c = sqrt(Omega(alpha_c/(2-alpha_c)) * k1)
          / ( eps_c^((3-2 alpha_c)/(2-alpha_c)) * a_c1^((1-alpha_c)/(2-alpha_c)) )
    """
    return math.sqrt(-linearize_corrector(p, a_c1, a_c1)[1, 0])


def observer_natural_frequency(p: ObserverParams, a_o: float) -> float:
    """Natural frequency of the linearized observer at innovation amplitude a_o,
    the square root of `linearize_observer`'s stiffness:

    w_o = sqrt(Omega(alpha_o) * k3) / ( eps_o * a_o^((1-alpha_o)/2) )
    """
    return math.sqrt(-linearize_observer(p, a_o)[1, 0])


def linearize_corrector(p: CorrectorParams, a_c1: float, a_c2: float) -> np.ndarray:
    """Describing-function linearization of the corrector error dynamics.

    Returns the companion matrix [[0, 1], [-stiffness, -damping]] with

        stiffness = k1*Omega(kappa) * eps_c^kappa / (eps_c^3 * (eps_c*a_c1)^(1-kappa))
                  = k1*Omega(kappa) / (eps_c^((6-4 alpha_c)/(2-alpha_c))
                                       * a_c1^((2-2 alpha_c)/(2-alpha_c)))
        damping   = k2*Omega(alpha_c) / (eps_c^3 * a_c2^(1-alpha_c))

    The position-channel gain is evaluated at the amplitude eps_c*a_c1 seen
    by the nonlinearity (its argument is eps_c times the innovation), with
    (eps_c*a_c1)^(1-kappa) taken as eps_c^(1-kappa) * a_c1^(1-kappa): the
    product itself would round, or reach 0, at a subnormal a_c1.

    The stiffness is the squared frequency, so it overflows to inf while the
    frequency is still finite once a_c1^((2-2 alpha_c)/(2-alpha_c)) falls
    below k1*Omega(kappa) / (eps_c^((6-4 alpha_c)/(2-alpha_c)) * 1.8e308).
    Only a small alpha_c at a tiny amplitude gets there: with k1 = 1 and
    eps_c = 1/1.2, below a_c1 = 9.5e-317 at alpha_c = 0.05 and 3.4e-310 at
    alpha_c = 0.01, and at no positive a_c1 for alpha_c >= 0.1.  There
    `corrector_natural_frequency` returns inf.  A gain whose denominator
    underflows to 0 is inf as well, as the damping is at eps_c = 1e-100 and
    a_c2 = 1e-300, where eps_c^3 * a_c2^(1-alpha_c) = 0.

    The describing function assumes an amplitude that varies slowly over a
    cycle.  Against the stepped corrector started away from rest, its
    frequency holds within 5 % only while the amplitude falls by at most
    about 5 times per half cycle: the ratio of stepped to predicted
    frequency is 0.987, 0.956 and 0.739 at falls of 1.9, 3.8 and 75 times
    (k1 = 2, alpha_c = 0.5, eps_c = 0.9 and k2 = 0.5, 1, 2; pinned in
    tests/test_freq.py).
    """
    check_range("positive", a_c1=a_c1, a_c2=a_c2)
    kappa = p.kappa
    gain1 = _quotient(omega_coefficient(kappa), p.eps_c ** (1.0 - kappa) * a_c1 ** (1.0 - kappa))
    eps3 = p.eps_c ** 3
    stiffness = p.k1 * gain1 * p.eps_c / eps3
    damping = _quotient(p.k2 * omega_coefficient(p.alpha_c), eps3 * a_c2 ** (1.0 - p.alpha_c))
    return np.array([[0.0, 1.0], [-stiffness, -damping]])


def linearize_observer(p: ObserverParams, a_o: float) -> np.ndarray:
    """Describing-function linearization of the observer error dynamics.

    Returns the companion matrix [[0, 1], [-stiffness, -damping]] with

        stiffness = k3*Omega(alpha_o) / (eps_o^2 * a_o^(1-alpha_o))
        damping   = k4*Omega(beta) / (eps_o * a_o^((1-alpha_o)/2))

    and beta = `ObserverParams.beta` the innovation exponent.  A denominator
    that underflows to 0 (eps_o = 1e-3 and alpha_o = 0.01 at a_o = 5e-324)
    gives an infinite entry.
    """
    check_range("positive", a_o=a_o)
    stiffness = _quotient(p.k3 * omega_coefficient(p.alpha_o),
                          p.eps_o ** 2 * a_o ** (1.0 - p.alpha_o))
    damping = _quotient(p.k4 * omega_coefficient(p.beta),
                        p.eps_o * a_o ** (0.5 * (1.0 - p.alpha_o)))
    return np.array([[0.0, 1.0], [-stiffness, -damping]])


def _selection_report(name: str, values: dict[str, float], b: str, four_c: str,
                      right_side) -> ParamValidationReport:
    """The report on the ``name`` parameters ``values``: every stability fault
    `parameter_faults` finds or, for a stable set, the no-oscillation verdict
    b^2 >= 4c with ``b`` the damping gain's name, ``four_c`` the rule's
    right side and ``right_side()`` its value.  The right side is evaluated
    for a stable set only, since a negative time-scale raised to a fractional
    power is complex."""
    faults = parameter_faults(**values)
    if faults:
        return ParamValidationReport(False, False, tuple(faults))
    lhs, rhs = values[b] * values[b], right_side()
    ok = lhs >= rhs
    verdict = f"{b}^2 = {lhs:.6g} {'>=' if ok else '<'} {four_c} = {rhs:.6g}"
    return ParamValidationReport(True, ok, (f"oscillation-free: {verdict}",) if ok else (
        f"warning: {verdict}; the linearized {name} has complex poles and may ring",))


def validate_corrector_params(k1: float, k2: float, alpha_c: float,
                              eps_c: float) -> ParamValidationReport:
    """Check the corrector stability and no-oscillation selection rules.

    Stability requires k1 > 0, k2 > 0 with alpha_c and eps_c in (0, 1); the
    characteristic polynomial s^2 + (k2/eps_c^(2 alpha_c)) s + k1 is then
    Hurwitz.  Oscillations are avoided when additionally
    k2^2 >= 4 * eps_c^(4 alpha_c) * k1.
    """
    return _selection_report("corrector", dict(k1=k1, k2=k2, alpha_c=alpha_c, eps_c=eps_c),
                             "k2", "4*eps_c^(4 alpha_c)*k1",
                             lambda: 4.0 * eps_c ** (4.0 * alpha_c) * k1)


def validate_observer_params(k3: float, k4: float, alpha_o: float,
                             eps_o: float) -> ParamValidationReport:
    """Check the observer stability and no-oscillation selection rules.

    Stability requires k3 > 0, k4 > 0 with alpha_o and eps_o in (0, 1);
    s^2 + k4 s + k3 is then Hurwitz.  Oscillations are avoided when
    additionally k4^2 >= 4 k3.
    """
    return _selection_report("observer", dict(k3=k3, k4=k4, alpha_o=alpha_o, eps_o=eps_o),
                             "k4", "4*k3", lambda: 4.0 * k3)


def filtering_advice(params: CorrectorParams | ObserverParams,
                     noise_level: str = "none",
                     sensing_error_growth: bool = False) -> list[str]:
    """Qualitative tuning directions for noise filtering and error rejection.

    ``noise_level`` is one of "none", "low", "moderate", "high".  The natural
    frequency is quoted at innovation amplitude 1.  The time-scale parameter
    sets the estimator's low-pass bandwidth: with much noise it should
    increase (and/or the fractional exponent should increase) to narrow the
    bandwidth.  When the bound on the position-channel sensing
    error grows, the corrector's k1 and alpha_c should decrease to shrink the
    residual error term k1*L_d^(alpha_c/(2-alpha_c)).
    """
    check_range(("none", "low", "moderate", "high"), noise_level=noise_level)
    advice = []
    if isinstance(params, CorrectorParams):
        wn = corrector_natural_frequency(params, 1.0)
        name, eps_name, alpha_name = "corrector", "eps_c", "alpha_c"
    else:
        wn = observer_natural_frequency(params, 1.0)
        name, eps_name, alpha_name = "observer", "eps_o", "alpha_o"
    advice.append(
        f"{name} natural frequency at amplitude 1: {wn:.4g} rad/s")

    if noise_level in ("moderate", "high"):
        advice.append(
            f"{noise_level} noise: increase {eps_name} and/or {alpha_name} "
            "to narrow the low-pass bandwidth")
    else:
        advice.append(f"{noise_level} noise: no bandwidth change advised")

    if sensing_error_growth and isinstance(params, CorrectorParams):
        advice.append(
            "sensing error bound growing: decrease k1 and alpha_c to reduce "
            "the residual error term")
    return advice
