"""Describing-function values, linearizations, and parameter-rule checks.

The package evaluates the equivalent-gain coefficient in closed form through
the Beta function, (2/pi) * B((alpha+2)/2, 1/2); the independent oracle here
is the defining integral, evaluated by mpmath quadrature at 40 digits.  The
linearizations' stiffness is checked against the paper's closed-form natural
frequencies in `oracles`, and both against the stepped estimators.
"""

from __future__ import annotations

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from corrobs import (AxisMeasurement, CorrectorParams, CorrectorState, ObserverParams,
                     ObserverState, corrector_natural_frequency, filtering_advice,
                     linearize_corrector, linearize_observer,
                     observer_natural_frequency, omega_coefficient, step_corrector,
                     step_observer, validate_corrector_params, validate_observer_params)
from oracles import closed_form_corrector_frequency, closed_form_observer_frequency

FLIGHT_CORRECTOR = CorrectorParams(k1=1.0, k2=30.0, alpha_c=0.1, eps_c=1 / 1.2)
FLIGHT_OBSERVER = ObserverParams(k3=20.0, k4=4.0, alpha_o=0.6, eps_o=1 / 1.1)
# Corrector sets with the flight k1, k2 and eps_c and a small alpha_c, each
# with the amplitude below which its stiffness overflows to inf (measured by
# bisection; the window `linearize_corrector` states).
STIFFNESS_OVERFLOW = {replace(FLIGHT_CORRECTOR, alpha_c=0.05): 9.6e-317,
                      replace(FLIGHT_CORRECTOR, alpha_c=0.01): 3.5e-310}


def omega_quad_mp(alpha: float) -> mpmath.mpf:
    """(2/pi) * integral_0^pi sin(u)^(alpha+1) du at 40 significant digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return 2 / mpmath.pi * mpmath.quad(lambda u: mpmath.sin(u) ** (a + 1),
                                           [0, mpmath.pi])


def omega_oracle(alpha: float) -> float:
    return float(omega_quad_mp(alpha))


def test_omega_at_one():
    assert abs(omega_coefficient(1.0) - 1.0) < 1e-9


@pytest.mark.parametrize("alpha", [1e-6, 1e-3, 1 / 19, 0.1, 0.25, 0.5, 0.6,
                                   0.8, 0.95, 1.0 - 1e-9, 1.0])
def test_omega_matches_high_precision_quadrature(alpha):
    exact = omega_quad_mp(alpha)
    with mpmath.workdps(40):
        rel = abs((mpmath.mpf(omega_coefficient(alpha)) - exact) / exact)
    assert rel <= 1e-14


def test_omega_at_half_vs_beta_oracle():
    val = omega_coefficient(0.5)
    assert abs(val - omega_oracle(0.5)) < 1e-9
    assert abs(val - 1.1129) < 1e-3


def test_omega_small_alpha_limit():
    assert abs(omega_coefficient(1e-6) - 4.0 / math.pi) < 1e-3


def test_omega_range_and_monotone_on_grid():
    grid = np.linspace(1e-3, 1.0, 100)
    vals = [omega_coefficient(float(a)) for a in grid]
    assert all(1.0 - 1e-12 <= v < 4.0 / math.pi for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_omega_matches_beta_oracle_across_range():
    for a in (0.05, 0.1, 0.3, 0.6, 0.8, 0.95):
        assert abs(omega_coefficient(a) - omega_oracle(a)) < 1e-9


def test_omega_rejects_out_of_range():
    for a in (0.0, -0.5, 1.01):
        with pytest.raises(ValueError):
            omega_coefficient(a)


# ------------------------------------------------------ natural frequency

def test_corrector_natural_frequency_example():
    # Independent route: quadrature Omega plus direct formula evaluation.
    p = FLIGHT_CORRECTOR
    kappa = 0.1 / 1.9
    expected = math.sqrt(omega_oracle(kappa) * p.k1) \
        / p.eps_c ** ((3 - 2 * p.alpha_c) / (2 - p.alpha_c))
    wc = corrector_natural_frequency(p, 1.0)
    assert wc == pytest.approx(expected, abs=1e-9)
    # Frozen oracle value; the design note quotes ~1.474 for this point.
    assert wc == pytest.approx(1.4644974784, abs=1e-8)
    assert wc == pytest.approx(1.474, abs=0.02)


def test_corrector_natural_frequency_amplitude_independent_at_alpha_one():
    p = CorrectorParams(k1=1.0, k2=30.0, alpha_c=1.0 - 1e-9, eps_c=0.5)
    w1 = corrector_natural_frequency(p, 1.0)
    w2 = corrector_natural_frequency(p, 7.0)
    assert w1 == pytest.approx(math.sqrt(p.k1) / p.eps_c, rel=1e-6)
    assert w1 == pytest.approx(w2, rel=1e-6)


def test_corrector_natural_frequency_amplitude_scaling():
    p = FLIGHT_CORRECTOR
    ratio = corrector_natural_frequency(p, 0.5) / corrector_natural_frequency(p, 1.0)
    assert ratio == pytest.approx(2.0 ** ((1 - p.alpha_c) / (2 - p.alpha_c)), rel=1e-12)


def test_observer_natural_frequency_example():
    wo = observer_natural_frequency(FLIGHT_OBSERVER, 1.0)
    assert wo == pytest.approx(1.1 * math.sqrt(20.0 * omega_oracle(0.6)), rel=1e-9)


def test_observer_natural_frequency_amplitude_scaling():
    p = FLIGHT_OBSERVER
    ratio = observer_natural_frequency(p, 1.0) / observer_natural_frequency(p, 16.0)
    assert ratio == pytest.approx(16.0 ** (0.5 * (1 - p.alpha_o)), rel=1e-12)
    p1 = ObserverParams(k3=20.0, k4=4.0, alpha_o=1.0 - 1e-9, eps_o=0.5)
    assert observer_natural_frequency(p1, 3.0) == pytest.approx(
        math.sqrt(20.0) / 0.5, rel=1e-6)


def test_natural_frequency_rejects_bad_amplitude():
    # Each analysis function refuses an amplitude that is not positive and
    # finite; a NaN amplitude used to give a NaN frequency or matrix.
    for call in (lambda a: corrector_natural_frequency(FLIGHT_CORRECTOR, a),
                 lambda a: observer_natural_frequency(FLIGHT_OBSERVER, a),
                 lambda a: linearize_corrector(FLIGHT_CORRECTOR, a, a),
                 lambda a: linearize_observer(FLIGHT_OBSERVER, a)):
        for amplitude in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=rf"^a_[co]1? must be positive and finite, "
                                                 rf"not {amplitude}$"):
                call(amplitude)


# ---------------------------------------------------------- linearization

def test_linearize_corrector_near_alpha_one_reduces_to_constant_gains():
    p = CorrectorParams(k1=2.0, k2=3.0, alpha_c=1.0 - 1e-9, eps_c=0.5)
    mat = linearize_corrector(p, 1.0, 1.0)
    eps3 = p.eps_c ** 3
    assert -mat[1, 1] == pytest.approx(p.k2 / eps3, rel=1e-6)
    # Stiffness at alpha -> 1 carries one eps factor less than the damping.
    assert -mat[1, 0] == pytest.approx(p.k1 / p.eps_c ** 2, rel=1e-6)


def test_linearize_corrector_stable_for_flight_params():
    mat = linearize_corrector(FLIGHT_CORRECTOR, 1.0, 1.0)
    assert all(e.real < 0 for e in np.linalg.eigvals(mat))


def test_linearize_corrector_frequency_consistency():
    for p in (FLIGHT_CORRECTOR,
              CorrectorParams(2.0, 5.0, 0.4, 0.6),
              CorrectorParams(0.5, 1.0, 0.85, 0.35)):
        for amp in (0.1, 1.0, 12.0):
            mat = linearize_corrector(p, amp, 2.0)
            assert abs(math.sqrt(-mat[1, 0])
                       - closed_form_corrector_frequency(p, amp)) < 1e-9


@pytest.mark.parametrize("amplitude", [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300,
                                       1e-100, 1e-3, 1.0, 3.0, 1e10, 1e100, 1e300])
def test_corrector_natural_frequency_matches_closed_form_at_every_amplitude(amplitude):
    # eps_c * a_c1 is subnormal once a_c1 < 2.2e-308 / eps_c: formed before
    # the power, it rounded (8.3 % low at 5e-324 on the flight parameters) or
    # reached 0 (eps_c = 0.35 at 5e-324, a ZeroDivisionError).  The small
    # alpha_c sets are taken only above their stiffness overflow window.
    for p in (FLIGHT_CORRECTOR, CorrectorParams(2.0, 5.0, 0.4, 0.6),
              CorrectorParams(0.5, 1.0, 0.85, 0.35), CorrectorParams(2.0, 2.0, 0.5, 0.9),
              *(q for q, below in STIFFNESS_OVERFLOW.items() if amplitude >= below)):
        assert corrector_natural_frequency(p, amplitude) == pytest.approx(
            closed_form_corrector_frequency(p, amplitude), rel=1e-12)


@pytest.mark.xfail(strict=True, reason="the stiffness overflows where the frequency "
                                       "does not (see linearize_corrector)")
def test_corrector_natural_frequency_in_the_stiffness_overflow_window():
    # Measured: inf at all three, where the closed form gives 1.16e156,
    # 4.75e157 and 2.46e154.  At alpha_c = 0.05, a_c1 = 1e-320 the damping
    # is still finite (6.50e305); at 5e-324 it overflows too.
    for alpha_c, amplitude in ((0.05, 1e-320), (0.05, 5e-324), (0.01, 1e-310)):
        p = replace(FLIGHT_CORRECTOR, alpha_c=alpha_c)
        assert corrector_natural_frequency(p, amplitude) == pytest.approx(
            closed_form_corrector_frequency(p, amplitude), rel=1e-12)


def test_a_denominator_that_underflows_to_zero_gives_an_infinite_entry():
    # The corrector's exact stiffness and damping (1.1e579 and 3.7e571) and
    # the observer's exact stiffness (3.0e327) lie beyond floating-point
    # range, so each entry is inf; the observer's damping (4.8e163) stays
    # finite.
    corrector = linearize_corrector(CorrectorParams(1.0, 30.0, 0.1, 1e-100), 1e-300, 1e-300)
    assert corrector[1, 0] == corrector[1, 1] == -math.inf
    observer = linearize_observer(replace(FLIGHT_OBSERVER, alpha_o=0.01, eps_o=1e-3), 5e-324)
    assert observer[1, 0] == -math.inf and math.isfinite(observer[1, 1])
    assert observer_natural_frequency(replace(FLIGHT_OBSERVER, alpha_o=0.01, eps_o=1e-3),
                                      5e-324) == math.inf


def test_a_tiny_gain_at_a_subnormal_amplitude_keeps_its_digits():
    # k3 * Omega(alpha_o) / a_o^(1 - alpha_o) / eps_o^2 is 8.0e292, while the
    # product eps_o^2 * a_o^(1 - alpha_o) is subnormal (1.5e-323); divided by
    # that product the stiffness read 8.56e292, 6.9 % high.  What is left is
    # the few digits of a_o^(1 - alpha_o) itself (measured 5.6e-8).
    p, a_o = ObserverParams(1e-30, 4.0, 0.01, 1e-3), 1e-320
    with mpmath.workdps(40):
        alpha = mpmath.mpf(p.alpha_o)
        exact = -p.k3 * omega_quad_mp(p.alpha_o) / (mpmath.mpf(p.eps_o) ** 2
                                                     * mpmath.mpf(a_o) ** (1 - alpha))
        assert abs((linearize_observer(p, a_o)[1, 0] - exact) / exact) <= 1e-6
    assert float(exact) == pytest.approx(-8.00914398e292, rel=1e-8)


def test_a_tiny_gain_is_multiplied_in_before_the_amplitude_divides():
    # The stiffness is 2.56e301, but Omega(kappa) / (eps_c*a_c1)^(1 - kappa)
    # alone is 1.6e312: formed without k1 = 1.6e-17, it overflowed, and the
    # stiffness read -inf.
    p = CorrectorParams(1.553798344835943e-17, 3.698882991862785e-10,
                        0.027792766063941154, 0.0009885496777705465)
    a_c1 = 2.7504192034e-314
    with mpmath.workdps(40):
        alpha, eps = mpmath.mpf(p.alpha_c), mpmath.mpf(p.eps_c)
        kappa = alpha / (2 - alpha)
        exact = -p.k1 * omega_quad_mp(kappa) * eps / (eps ** 3 * (eps * mpmath.mpf(a_c1))
                                                     ** (1 - kappa))
        stiffness = linearize_corrector(p, a_c1, 1.0)[1, 0]
        assert math.isfinite(stiffness) and abs((stiffness - exact) / exact) <= 1e-12
    assert float(exact) == pytest.approx(-2.5640698e301, rel=1e-7)


def test_linearize_observer_near_alpha_one():
    p = ObserverParams(k3=9.0, k4=5.0, alpha_o=1.0 - 1e-9, eps_o=0.5)
    mat = linearize_observer(p, 3.0)
    assert -mat[1, 1] == pytest.approx(p.k4 / p.eps_o, rel=1e-6)
    assert -mat[1, 0] == pytest.approx(p.k3 / p.eps_o ** 2, rel=1e-6)


def test_linearize_observer_stable_and_consistent():
    mat = linearize_observer(FLIGHT_OBSERVER, 1.0)
    assert all(e.real < 0 for e in np.linalg.eigvals(mat))
    for amp in (0.2, 1.0, 16.0):
        mat = linearize_observer(FLIGHT_OBSERVER, amp)
        assert abs(math.sqrt(-mat[1, 0])
                   - closed_form_observer_frequency(FLIGHT_OBSERVER, amp)) < 1e-9


def test_observer_describing_function_matches_stepped_observer():
    # The flight observer stepped alone at dt = 1e-5 against a unit step in
    # sigma (h = 0, so the measured velocity is y_o2 = t).  Over each half
    # cycle between sign changes of the innovation, the simulated frequency
    # pi/half-period is compared with |Im lambda| of the linearization at the
    # half cycle's peak |innovation|.  Measured: +4.2 %, +4.0 %, +5.0 % and
    # -1.4 % for peaks from 1.1e-2 down to 7.2e-5.  The next half cycle
    # (peak 7.1e-6, +31 %) is a step-size floor, not a property of the
    # observer: the held y_o2 ramps by dt * sigma = 1e-5 per step, on the
    # scale of that peak.  At dt = 1e-6 the same run reads +3.7 % to +6.8 %
    # for peaks down to 1.1e-5.
    p, dt = FLIGHT_OBSERVER, 1e-5
    state = ObserverState(0.0, 0.0)
    innov = np.empty(150_000)
    for i in range(innov.size):
        state = step_observer(state, i * dt, 0.0, p, dt)
        innov[i] = state.xhat3 - (i + 1) * dt
    flips = np.flatnonzero(np.signbit(innov[1:]) != np.signbit(innov[:-1])) + 1
    deviations = []
    for start, end in zip(flips, flips[1:]):
        peak = float(np.abs(innov[start:end]).max())
        if peak >= 7e-5:
            simulated = math.pi / ((end - start) * dt)
            predicted = np.abs(np.linalg.eigvals(linearize_observer(p, peak)).imag).max()
            deviations.append(simulated / predicted - 1.0)
    assert len(deviations) == 4, deviations
    assert max(map(abs, deviations)) <= 0.06, deviations


@pytest.mark.parametrize("k2, steps, ratio, fall", [
    (2.0, 296_000, 0.739, 74.7),
    (1.0, 376_000, 0.956, 3.80),
    (0.5, 472_000, 0.987, 1.863),
])
def test_corrector_describing_function_holds_while_the_amplitude_falls_slowly(
        k2, steps, ratio, fall):
    # The BALANCED corrector (k1 = 2, alpha_c = 0.5, eps_c = 0.9) with k2
    # varied, started at (1, 0) with zero measurements and stepped at
    # dt = 1e-5.  Over each of the first three half cycles between sign
    # changes of xhat1, the simulated frequency pi/half-period is compared
    # with |Im lambda| of the linearization at the half cycle's peak |xhat1|
    # and |xhat2|.  Measured: 0.73886-0.73916, 0.95608 and 0.98663, with
    # falls of 74.7, 3.80 and 1.863 times per half cycle.  Each ratio is the
    # same at every half cycle: the error system is homogeneous, so each half
    # cycle is a dilated, mirrored copy of the one before.  The describing
    # function assumes a slowly varying amplitude, and holds within 5 % only
    # while it falls by at most about 5 times per half cycle.
    p, dt = CorrectorParams(2.0, k2, 0.5, 0.9), 1e-5
    state, zero = CorrectorState(1.0, 0.0), AxisMeasurement(0.0, 0.0)
    x1, x2 = np.empty(steps), np.empty(steps)
    for i in range(steps):
        state = step_corrector(state, zero, p, dt)
        x1[i], x2[i] = state
    flips = np.flatnonzero(np.signbit(x1[1:]) != np.signbit(x1[:-1])) + 1
    assert len(flips) == 4, flips
    ratios, peaks = [], []
    for start, end in zip(flips, flips[1:]):
        peaks.append(float(np.abs(x1[start:end]).max()))
        matrix = linearize_corrector(p, peaks[-1], float(np.abs(x2[start:end]).max()))
        ratios.append(math.pi / ((end - start) * dt)
                      / np.abs(np.linalg.eigvals(matrix).imag).max())
    falls = [a / b for a, b in zip(peaks, peaks[1:])]
    assert all(abs(r - ratio) <= 1e-3 for r in ratios), ratios
    assert all(abs(f / fall - 1.0) <= 2e-3 for f in falls), falls
    assert all((abs(r - 1.0) <= 0.05) == (f <= 5.0) for r, f in zip(ratios, falls))


def test_companion_eigenvalues_match_polynomial_roots():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = CorrectorParams(float(rng.uniform(0.1, 5)), float(rng.uniform(0.1, 5)),
                            float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.1, 0.9)))
        mat = linearize_corrector(p, 1.0, 1.0)
        roots = np.roots([1.0, -mat[1, 1], -mat[1, 0]])
        eig = np.sort_complex(np.linalg.eigvals(mat))
        assert np.allclose(np.sort_complex(roots), eig, rtol=1e-9, atol=1e-9)


def test_oscillation_free_implies_real_eigenvalues_at_alpha_one():
    # At alpha -> 1 the no-oscillation inequality is exactly the discriminant
    # condition of the linearized system at unit amplitude.
    for k1, k2, eps in ((1.0, 4.0, 0.9), (2.0, 1.0, 0.3), (1.0, 1.9, 0.95)):
        alpha = 1.0 - 1e-12
        rep = validate_corrector_params(k1, k2, alpha, eps)
        mat = linearize_corrector(CorrectorParams(k1, k2, alpha, eps), 1.0, 1.0)
        has_real = np.max(np.abs(np.imag(np.linalg.eigvals(mat)))) < 1e-6
        if rep.oscillation_free:
            assert has_real
    for k3, k4 in ((4.0, 4.0), (20.0, 4.0), (1.0, 2.0)):
        alpha = 1.0 - 1e-12
        rep = validate_observer_params(k3, k4, alpha, 0.7)
        mat = linearize_observer(ObserverParams(k3, k4, alpha, 0.7), 1.0)
        has_real = np.max(np.abs(np.imag(np.linalg.eigvals(mat)))) < 1e-6
        assert rep.oscillation_free == has_real


# -------------------------------------------------------------- validators

def test_validate_corrector_flight_params():
    rep = validate_corrector_params(1.0, 30.0, 0.1, 1 / 1.2)
    assert rep.stable and rep.oscillation_free
    # 900 >= 4 * (1/1.2)^0.4 * 1 ~ 3.72
    assert any("900" in m for m in rep.messages)


def test_validators_state_the_rule_in_one_message_form():
    # The oscillation-free line and the warning name the rule's right side
    # alike, for either estimator.
    assert validate_corrector_params(1.0, 30.0, 0.1, 1 / 1.2).messages == (
        "oscillation-free: k2^2 = 900 >= 4*eps_c^(4 alpha_c)*k1 = 3.71867",)
    assert validate_corrector_params(1.0, 0.1, 0.5, 0.9).messages == (
        "warning: k2^2 = 0.01 < 4*eps_c^(4 alpha_c)*k1 = 3.24; "
        "the linearized corrector has complex poles and may ring",)
    assert validate_observer_params(4.0, 4.0, 0.6, 0.9).messages == (
        "oscillation-free: k4^2 = 16 >= 4*k3 = 16",)
    assert validate_observer_params(20.0, 4.0, 0.6, 1 / 1.1).messages == (
        "warning: k4^2 = 16 < 4*k3 = 80; "
        "the linearized observer has complex poles and may ring",)


def test_validate_corrector_sign_violation():
    rep = validate_corrector_params(-1.0, 30.0, 0.1, 0.8)
    assert not rep.stable and not rep.oscillation_free
    assert any("k1" in m for m in rep.messages)


def test_validate_corrector_oscillatory():
    rep = validate_corrector_params(1.0, 0.1, 0.5, 0.9)
    assert rep.stable and not rep.oscillation_free


def test_validate_observer_flight_params_warn():
    rep = validate_observer_params(20.0, 4.0, 0.6, 1 / 1.1)
    assert rep.stable and not rep.oscillation_free
    assert any("16" in m and "80" in m for m in rep.messages)


def test_validate_observer_boundary_and_violation():
    assert validate_observer_params(4.0, 4.0, 0.6, 0.9).oscillation_free
    assert not validate_observer_params(0.0, 4.0, 0.6, 0.9).stable


def test_validators_total_on_weird_input():
    for bad in (math.nan, math.inf, -math.inf):
        rep = validate_corrector_params(bad, bad, bad, bad)
        assert not rep.stable
        rep = validate_observer_params(bad, 1.0, 0.5, 0.5)
        assert not rep.stable


# ---------------------------------------------------------------- advice

def test_filtering_advice_high_noise():
    msgs = filtering_advice(FLIGHT_CORRECTOR, "high")
    joined = " ".join(msgs)
    assert "increase eps_c" in joined and "alpha_c" in joined


def test_filtering_advice_quiet():
    msgs = filtering_advice(FLIGHT_OBSERVER, "none")
    assert any("no bandwidth change" in m for m in msgs)
    assert any("natural frequency" in m for m in msgs)


def test_filtering_advice_growing_sensing_error():
    msgs = filtering_advice(FLIGHT_CORRECTOR, "low", sensing_error_growth=True)
    assert any("decrease k1" in m for m in msgs)
    with pytest.raises(ValueError):
        filtering_advice(FLIGHT_CORRECTOR, "extreme")
