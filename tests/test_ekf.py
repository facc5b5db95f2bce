from __future__ import annotations

import math

import numpy as np
import pytest

from corrobs import (AxisMeasurement, EkfConfig, bundled_config_path, ekf_init,
                     ekf_predict, ekf_update, load_scenario, process_noise)
from corrobs.ekf import EkfDivergence, EkfState
from oracles import axis_ekf_predict, axis_ekf_update

CFG = EkfConfig(q=0.01, r1=0.25, r2=1e-6, p0=10.0)


def predict(s: EkfState, dt: float, cfg: EkfConfig) -> EkfState:
    return ekf_predict(s, dt, process_noise(cfg.q, dt))


def one_axis(pos: float, vel: float, p11: float, p12: float, p22: float) -> EkfState:
    return EkfState((pos,), (vel,), p11, p12, p22)


def pd(s: EkfState) -> bool:
    return s.p11 > 0 and s.p22 > 0 and s.p11 * s.p22 - s.p12 ** 2 > 0


def test_init_from_first_measurement():
    s = ekf_init([AxisMeasurement(3.0, -0.5), AxisMeasurement(1.0, 2.0)], CFG)
    assert (s.pos, s.vel) == ((3.0, 1.0), (-0.5, 2.0))
    assert (s.p11, s.p12, s.p22) == (10.0, 0.0, 10.0)


def test_predict_mean_at_rest():
    s = one_axis(2.0, 0.0, 1.0, 0.0, 1.0)
    out = predict(s, 0.5, CFG)
    assert out.pos == (2.0,) and out.vel == (0.0,)
    # covariance picks up the cross terms of the transition
    assert out.p12 > 0.0


def test_predict_constant_velocity():
    s = one_axis(0.0, 1.0, 1.0, 0.0, 1.0)
    out = predict(s, 1.0, CFG)
    assert out.pos == (1.0,)


def test_predict_increases_trace():
    s = one_axis(0.0, 0.0, 1.0, 0.0, 1.0)
    out = predict(s, 0.1, CFG)
    assert out.p11 + out.p22 > s.p11 + s.p22


def test_predict_validation():
    with pytest.raises(ValueError):
        predict(one_axis(0, 0, 1, 0, 1), 0.0, CFG)
    with pytest.raises(ValueError):
        EkfConfig(q=0.0, r1=1.0, r2=1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["q", "r1", "r2", "p0"])
def test_config_refuses_a_value_that_is_not_finite_and_positive(name, value):
    kw = dict(q=1e-4, r1=0.25, r2=1e-6, p0=10.0)
    kw[name] = value
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite"):
        EkfConfig(**kw)


def test_update_zero_innovation_keeps_mean():
    s = one_axis(1.0, 2.0, 1.0, 0.1, 1.0)
    out = ekf_update(s, [AxisMeasurement(1.0, 2.0, True)], CFG)
    assert out.pos == (1.0,) and out.vel == (2.0,)
    assert pd(out)


def test_update_skips_stale_position():
    s = one_axis(1.0, 2.0, 1.0, 0.1, 1.0)
    a = ekf_update(s, [AxisMeasurement(500.0, 2.1, False)], CFG)
    b = ekf_update(s, [AxisMeasurement(-999.0, 2.1, False)], CFG)
    assert a == b  # stale channel value is ignored entirely


def test_update_velocity_only_tracks_velocity():
    s = one_axis(0.0, 0.0, 1.0, 0.0, 1.0)
    out = ekf_update(s, [AxisMeasurement(100.0, 1.0, False)], CFG)
    assert abs(out.vel[0] - 1.0) < 1e-3  # r2 tiny: velocity nearly adopted
    assert out.pos == (0.0,)             # no position information used


def test_update_refuses_fresh_flags_that_disagree():
    s = EkfState((0.0, 0.0), (0.0, 0.0), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="fresh together"):
        ekf_update(s, [AxisMeasurement(1.0, 0.0, True), AxisMeasurement(1.0, 0.0, False)],
                   CFG)


def test_bank_matches_the_per_axis_filters_bit_for_bit():
    # Three axes with their own means, each against the per-axis oracle with
    # a covariance of its own, over predict/update steps of random lengths
    # whose position samples are fresh on some updates and stale on others.
    rng = np.random.default_rng(32)
    cfg = EkfConfig(q=3e-3, r1=0.5, r2=1e-5, p0=4.0)
    frame = [AxisMeasurement(*map(float, rng.normal(0.0, 5.0, 2))) for _ in range(3)]
    bank = ekf_init(frame, cfg)
    axes = [(m.y_o1, m.y_o2, cfg.p0, 0.0, cfg.p0) for m in frame]
    fresh_updates = 0
    for _ in range(2000):
        if rng.random() < 0.5:
            dt = float(rng.choice([1e-3, 1e-2, 0.1]))
            q = process_noise(cfg.q, dt)
            bank = ekf_predict(bank, dt, q)
            axes = [axis_ekf_predict(a, dt, q) for a in axes]
        else:
            fresh = bool(rng.random() < 0.3)
            fresh_updates += fresh
            frame = [AxisMeasurement(float(rng.normal(0.0, 20.0)),
                                     float(rng.normal(0.0, 1.0)), fresh) for _ in range(3)]
            bank = ekf_update(bank, frame, cfg)
            axes = [axis_ekf_update(a, m.y_o1, m.y_o2, fresh, cfg.r1, cfg.r2)
                    for a, m in zip(axes, frame)]
        for a, axis in enumerate(axes):
            assert (bank.pos[a], bank.vel[a], bank.p11, bank.p12, bank.p22) == axis
    assert 100 < fresh_updates < 500


def test_update_joseph_form_keeps_pd():
    rng = np.random.default_rng(30)
    s = ekf_init([AxisMeasurement(0.0, 0.0)], CFG)
    for i in range(5000):
        s = predict(s, 0.01, CFG)
        fresh = i % 100 == 0
        m = AxisMeasurement(float(rng.normal(0, 0.5)), float(rng.normal(0, 0.01)), fresh)
        s = ekf_update(s, [m], CFG)
        assert pd(s)


def test_covariance_pd_over_many_random_cycles():
    # Long randomized predict/update soak across parameter draws.
    rng = np.random.default_rng(31)
    total = 0
    while total < 1_000_000:
        cfg = EkfConfig(q=float(rng.uniform(1e-6, 1.0)),
                        r1=float(rng.uniform(1e-4, 10.0)),
                        r2=float(rng.uniform(1e-8, 1e-2)),
                        p0=float(rng.uniform(0.1, 100.0)))
        s = ekf_init([AxisMeasurement(float(rng.normal()), float(rng.normal()))], cfg)
        n = int(rng.integers(1000, 20_000))
        for i in range(n):
            s = predict(s, 0.01, cfg)
            if i % 10 == 0:
                m = AxisMeasurement(float(rng.normal(0, 1)), float(rng.normal(0, 0.1)),
                                    i % 100 == 0)
                s = ekf_update(s, [m], cfg)
        assert pd(s)
        total += n


def test_constant_bias_leaks_into_estimate():
    # Constant +20 m offset on the position channel with exact velocity:
    # a Kalman filter has no mechanism to reject a non-zero-mean error, so
    # the steady position error is strictly positive (and grows toward the
    # bias as the old information fades).
    cfg = EkfConfig(q=1e-4, r1=0.25, r2=1e-6, p0=10.0)
    s = ekf_init([AxisMeasurement(20.0, 0.0)], cfg)  # first fix already biased
    for i in range(1, 60_001):
        s = predict(s, 0.01, cfg)
        fresh = i % 100 == 0
        s = ekf_update(s, [AxisMeasurement(20.0, 0.0, fresh)], cfg)
    assert s.pos[0] > 1.0  # truth is 0; the bias owns the estimate


def test_divergence_reports():
    s = one_axis(0.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(EkfDivergence):
        ekf_update(one_axis(math.inf, 0.0, 1.0, 0.0, 1.0),
                   [AxisMeasurement(0.0, 0.0, True)], CFG)
    assert pd(s)


def mixture_variance(mix) -> float:
    """Gaussian + uniform + Bernoulli impulse of random sign."""
    return (mix.gaussian_std ** 2 + mix.uniform_halfwidth ** 2 / 3.0
            + mix.impulse_prob * mix.impulse_magnitude ** 2)


@pytest.mark.parametrize("name, r2_over_variance", [("paper_sec6", 1.062), ("noise_only", 1.0)])
def test_bundled_measurement_variances_are_the_position_groups_noise(name, r2_over_variance):
    # What the module docstring states of the tuning: r1 is the position
    # mixture's variance (0.25 + 0.03 + 0.18 = 0.46 on paper_sec6), and r2
    # the velocity mixture's on noise_only and 2e-6 against 1.883e-6 on
    # paper_sec6.
    cfg = load_scenario(bundled_config_path(name))
    assert math.isclose(cfg.ekf.r1, mixture_variance(cfg.sensors.position_noise[0]))
    ratio = cfg.ekf.r2 / mixture_variance(cfg.sensors.velocity_noise[0])
    assert abs(ratio - r2_over_variance) <= 1e-3, ratio
