"""Describing-function analysis and parameter-selection checks.

For the odd nonlinearity |u|^a sign(u) driven by A sin(wt), the equivalent
gain is N(A) = Omega(a) / A^(1-a) with

    Omega(a) = (2/pi) * integral_0^pi |sin u|^(a+1) du,   Omega in [1, 4/pi).

The integral is Wallis's: (2/pi) * B((a+2)/2, 1/2), i.e.

    Omega(a) = (2/sqrt(pi)) * Gamma((a+2)/2) / Gamma((a+3)/2)

(Gradshteyn & Ryzhik 3.621.1; Abramowitz & Stegun 6.2.1), which is how it
is evaluated here.

Replacing each fractional-power term of the corrector and observer by its
equivalent gain yields second-order linear systems whose natural frequencies
and damping expose how the estimators filter noise, and whose discriminants
give the oscillation-avoidance rules used by `validate_corrector_params` and
`validate_observer_params`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import CorrectorParams, ObserverParams

__all__ = [
    "DescribingFunctionResult", "LinearizedSystem", "ParamValidationReport",
    "omega_coefficient", "describing_function",
    "corrector_natural_frequency", "observer_natural_frequency",
    "linearize_corrector", "linearize_observer",
    "validate_corrector_params", "validate_observer_params",
    "filtering_advice",
]


@dataclass(frozen=True)
class DescribingFunctionResult:
    omega_coeff: float      # Omega(alpha)
    equivalent_gain: float  # N(A) = Omega(alpha) / A^(1-alpha)
    amplitude: float


@dataclass(frozen=True)
class LinearizedSystem:
    """Companion-form state matrix of a linearized estimator error system."""

    matrix: np.ndarray
    natural_frequency: float

    @property
    def stiffness(self) -> float:
        return -float(self.matrix[1, 0])

    @property
    def damping(self) -> float:
        return -float(self.matrix[1, 1])

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)


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
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return 2.0 / math.sqrt(math.pi) * math.gamma(0.5 * (alpha + 2.0)) \
        / math.gamma(0.5 * (alpha + 3.0))


def describing_function(alpha: float, amplitude: float) -> DescribingFunctionResult:
    """Equivalent gain of |u|^alpha sign(u) at oscillation amplitude A."""
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    om = omega_coefficient(alpha)
    return DescribingFunctionResult(om, om / amplitude ** (1.0 - alpha), amplitude)


def corrector_natural_frequency(p: CorrectorParams, a_c1: float) -> float:
    """Natural frequency of the linearized corrector at innovation amplitude a_c1.

    w_c = sqrt(Omega(alpha_c/(2-alpha_c)) * k1)
          / ( eps_c^((3-2 alpha_c)/(2-alpha_c)) * a_c1^((1-alpha_c)/(2-alpha_c)) )
    """
    if a_c1 <= 0.0:
        raise ValueError("amplitude must be positive")
    om = omega_coefficient(p.kappa)
    denom = (p.eps_c ** ((3.0 - 2.0 * p.alpha_c) / (2.0 - p.alpha_c))
             * a_c1 ** ((1.0 - p.alpha_c) / (2.0 - p.alpha_c)))
    return math.sqrt(om * p.k1) / denom


def observer_natural_frequency(p: ObserverParams, a_o: float) -> float:
    """Natural frequency of the linearized observer at innovation amplitude a_o.

    w_o = sqrt(Omega(alpha_o) * k3) / ( eps_o * a_o^((1-alpha_o)/2) )
    """
    if a_o <= 0.0:
        raise ValueError("amplitude must be positive")
    return (math.sqrt(omega_coefficient(p.alpha_o) * p.k3)
            / (p.eps_o * a_o ** (0.5 * (1.0 - p.alpha_o))))


def linearize_corrector(p: CorrectorParams, a_c1: float, a_c2: float) -> LinearizedSystem:
    """Describing-function linearization of the corrector error dynamics.

    Returns the companion matrix [[0, 1], [-stiffness, -damping]] with

        stiffness = k1*Omega(kappa) * eps_c^kappa / (eps_c^3 * (eps_c*a_c1)^(1-kappa))
                  = k1*Omega(kappa) / (eps_c^((6-4 alpha_c)/(2-alpha_c))
                                       * a_c1^((2-2 alpha_c)/(2-alpha_c)))
        damping   = k2*Omega(alpha_c) / (eps_c^3 * a_c2^(1-alpha_c))

    The position-channel gain is evaluated at the amplitude eps_c*a_c1 seen
    by the nonlinearity (its argument is eps_c times the innovation), which
    makes sqrt(stiffness) equal `corrector_natural_frequency` identically.
    """
    if a_c1 <= 0.0 or a_c2 <= 0.0:
        raise ValueError("amplitudes must be positive")
    kappa = p.kappa
    gain1 = omega_coefficient(kappa) / (p.eps_c * a_c1) ** (1.0 - kappa)
    eps3 = p.eps_c ** 3
    stiffness = p.k1 * gain1 * p.eps_c / eps3
    damping = p.k2 * omega_coefficient(p.alpha_c) / (eps3 * a_c2 ** (1.0 - p.alpha_c))
    mat = np.array([[0.0, 1.0], [-stiffness, -damping]])
    return LinearizedSystem(mat, math.sqrt(stiffness))


def linearize_observer(p: ObserverParams, a_o: float) -> LinearizedSystem:
    """Describing-function linearization of the observer error dynamics.

    stiffness = k3*Omega(alpha_o) / (eps_o^2 * a_o^(1-alpha_o))
    damping   = k4*Omega((1+alpha_o)/2) / (eps_o * a_o^((1-alpha_o)/2))
    """
    if a_o <= 0.0:
        raise ValueError("amplitude must be positive")
    stiffness = (p.k3 * omega_coefficient(p.alpha_o)
                 / (p.eps_o ** 2 * a_o ** (1.0 - p.alpha_o)))
    damping = (p.k4 * omega_coefficient(0.5 * (1.0 + p.alpha_o))
               / (p.eps_o * a_o ** (0.5 * (1.0 - p.alpha_o))))
    mat = np.array([[0.0, 1.0], [-stiffness, -damping]])
    return LinearizedSystem(mat, math.sqrt(stiffness))


def validate_corrector_params(k1: float, k2: float, alpha_c: float,
                              eps_c: float) -> ParamValidationReport:
    """Check the corrector stability and no-oscillation selection rules.

    Stability requires k1 > 0, k2 > 0 with alpha_c and eps_c in (0, 1); the
    characteristic polynomial s^2 + (k2/eps_c^(2 alpha_c)) s + k1 is then
    Hurwitz.  Oscillations are avoided when additionally
    k2^2 >= 4 * eps_c^(4 alpha_c) * k1.
    """
    msgs = []
    stable = True
    if not (math.isfinite(k1) and k1 > 0):
        stable = False
        msgs.append(f"k1 must be positive and finite (got {k1})")
    if not (math.isfinite(k2) and k2 > 0):
        stable = False
        msgs.append(f"k2 must be positive and finite (got {k2})")
    if not 0.0 < alpha_c < 1.0:
        stable = False
        msgs.append(f"alpha_c must be in (0, 1) (got {alpha_c})")
    if not 0.0 < eps_c < 1.0:
        stable = False
        msgs.append(f"eps_c must be in (0, 1) (got {eps_c})")

    oscillation_free = False
    if stable:
        lhs = k2 * k2
        rhs = 4.0 * eps_c ** (4.0 * alpha_c) * k1
        oscillation_free = lhs >= rhs
        if oscillation_free:
            msgs.append(f"oscillation-free: k2^2 = {lhs:.6g} >= {rhs:.6g}")
        else:
            msgs.append(
                f"warning: k2^2 = {lhs:.6g} < 4*eps_c^(4 alpha_c)*k1 = {rhs:.6g}; "
                "the linearized corrector has complex poles and may ring")
    return ParamValidationReport(stable, oscillation_free, tuple(msgs))


def validate_observer_params(k3: float, k4: float, alpha_o: float,
                             eps_o: float) -> ParamValidationReport:
    """Check the observer stability and no-oscillation selection rules.

    Stability requires k3 > 0, k4 > 0 with alpha_o and eps_o in (0, 1);
    s^2 + k4 s + k3 is then Hurwitz.  Oscillations are avoided when
    additionally k4^2 >= 4 k3.
    """
    msgs = []
    stable = True
    if not (math.isfinite(k3) and k3 > 0):
        stable = False
        msgs.append(f"k3 must be positive and finite (got {k3})")
    if not (math.isfinite(k4) and k4 > 0):
        stable = False
        msgs.append(f"k4 must be positive and finite (got {k4})")
    if not 0.0 < alpha_o < 1.0:
        stable = False
        msgs.append(f"alpha_o must be in (0, 1) (got {alpha_o})")
    if not 0.0 < eps_o < 1.0:
        stable = False
        msgs.append(f"eps_o must be in (0, 1) (got {eps_o})")

    oscillation_free = False
    if stable:
        oscillation_free = k4 * k4 >= 4.0 * k3
        if oscillation_free:
            msgs.append(f"oscillation-free: k4^2 = {k4 * k4:.6g} >= 4*k3 = {4 * k3:.6g}")
        else:
            msgs.append(
                f"warning: k4^2 = {k4 * k4:.6g} < 4*k3 = {4 * k3:.6g}; "
                "the linearized observer has complex poles and may ring")
    return ParamValidationReport(stable, oscillation_free, tuple(msgs))


def filtering_advice(params: CorrectorParams | ObserverParams,
                     noise_level: str = "none",
                     sensing_error_growth: bool = False,
                     reference_amplitude: float = 1.0) -> list[str]:
    """Qualitative tuning directions for noise filtering and error rejection.

    ``noise_level`` is one of "none", "low", "moderate", "high".  The
    time-scale parameter sets the estimator's low-pass bandwidth: with much
    noise it should increase (and/or the fractional exponent should increase)
    to narrow the bandwidth.  When the bound on the position-channel sensing
    error grows, the corrector's k1 and alpha_c should decrease to shrink the
    residual error term k1*L_d^(alpha_c/(2-alpha_c)).
    """
    levels = ("none", "low", "moderate", "high")
    if noise_level not in levels:
        raise ValueError(f"noise_level must be one of {levels}")

    advice = []
    if isinstance(params, CorrectorParams):
        wn = corrector_natural_frequency(params, reference_amplitude)
        name, eps_name, alpha_name = "corrector", "eps_c", "alpha_c"
    else:
        wn = observer_natural_frequency(params, reference_amplitude)
        name, eps_name, alpha_name = "observer", "eps_o", "alpha_o"
    advice.append(
        f"{name} natural frequency at amplitude {reference_amplitude:g}: {wn:.4g} rad/s")

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
