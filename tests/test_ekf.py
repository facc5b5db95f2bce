from __future__ import annotations

import math

import numpy as np
import pytest

from corrobs import (AxisMeasurement, EkfConfig, ekf_init, ekf_predict, ekf_update,
                     process_noise)
from corrobs.ekf import EkfDivergence, EkfState

CFG = EkfConfig(q=0.01, r1=0.25, r2=1e-6, p0=10.0)


def predict(s: EkfState, dt: float, cfg: EkfConfig) -> EkfState:
    return ekf_predict(s, dt, process_noise(cfg.q, dt))


def pd(s: EkfState) -> bool:
    return s.p11 > 0 and s.p22 > 0 and s.p11 * s.p22 - s.p12 ** 2 > 0


def test_init_from_first_measurement():
    s = ekf_init(AxisMeasurement(3.0, -0.5, 0.0), CFG)
    assert (s.pos, s.vel) == (3.0, -0.5)
    assert (s.p11, s.p12, s.p22) == (10.0, 0.0, 10.0)


def test_predict_mean_at_rest():
    s = EkfState(2.0, 0.0, 1.0, 0.0, 1.0)
    out = predict(s, 0.5, CFG)
    assert out.pos == 2.0 and out.vel == 0.0
    # covariance picks up the cross terms of the transition
    assert out.p12 > 0.0


def test_predict_constant_velocity():
    s = EkfState(0.0, 1.0, 1.0, 0.0, 1.0)
    out = predict(s, 1.0, CFG)
    assert out.pos == 1.0


def test_predict_increases_trace():
    s = EkfState(0.0, 0.0, 1.0, 0.0, 1.0)
    out = predict(s, 0.1, CFG)
    assert out.p11 + out.p22 > s.p11 + s.p22


def test_predict_validation():
    with pytest.raises(ValueError):
        predict(EkfState(0, 0, 1, 0, 1), 0.0, CFG)
    with pytest.raises(ValueError):
        EkfConfig(q=0.0, r1=1.0, r2=1.0)


def test_update_zero_innovation_keeps_mean():
    s = EkfState(1.0, 2.0, 1.0, 0.1, 1.0)
    out = ekf_update(s, AxisMeasurement(1.0, 2.0, 0.0, True), CFG)
    assert out.pos == 1.0 and out.vel == 2.0
    assert pd(out)


def test_update_skips_stale_position():
    s = EkfState(1.0, 2.0, 1.0, 0.1, 1.0)
    a = ekf_update(s, AxisMeasurement(500.0, 2.1, 0.0, False), CFG)
    b = ekf_update(s, AxisMeasurement(-999.0, 2.1, 0.0, False), CFG)
    assert a == b  # stale channel value is ignored entirely


def test_update_velocity_only_tracks_velocity():
    s = EkfState(0.0, 0.0, 1.0, 0.0, 1.0)
    out = ekf_update(s, AxisMeasurement(100.0, 1.0, 0.0, False), CFG)
    assert abs(out.vel - 1.0) < 1e-3  # r2 tiny: velocity nearly adopted
    assert out.pos == 0.0             # no position information used


def test_update_joseph_form_keeps_pd():
    rng = np.random.default_rng(30)
    s = ekf_init(AxisMeasurement(0.0, 0.0, 0.0), CFG)
    for i in range(5000):
        s = predict(s, 0.01, CFG)
        fresh = i % 100 == 0
        m = AxisMeasurement(float(rng.normal(0, 0.5)), float(rng.normal(0, 0.01)),
                            i * 0.01, fresh)
        s = ekf_update(s, m, CFG)
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
        s = ekf_init(AxisMeasurement(float(rng.normal()), float(rng.normal()), 0.0), cfg)
        n = int(rng.integers(1000, 20_000))
        for i in range(n):
            s = predict(s, 0.01, cfg)
            if i % 10 == 0:
                m = AxisMeasurement(float(rng.normal(0, 1)), float(rng.normal(0, 0.1)),
                                    i * 0.01, i % 100 == 0)
                s = ekf_update(s, m, cfg)
        assert pd(s)
        total += n


def test_constant_bias_leaks_into_estimate():
    # Constant +20 m offset on the position channel with exact velocity:
    # a Kalman filter has no mechanism to reject a non-zero-mean error, so
    # the steady position error is strictly positive (and grows toward the
    # bias as the old information fades).
    cfg = EkfConfig(q=1e-4, r1=0.25, r2=1e-6, p0=10.0)
    s = ekf_init(AxisMeasurement(20.0, 0.0, 0.0), cfg)  # first fix already biased
    for i in range(1, 60_001):
        s = predict(s, 0.01, cfg)
        fresh = i % 100 == 0
        s = ekf_update(s, AxisMeasurement(20.0, 0.0, i * 0.01, fresh), cfg)
    assert s.pos > 1.0  # truth is 0; the bias owns the estimate


def test_divergence_reports():
    s = EkfState(0.0, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(EkfDivergence):
        ekf_update(EkfState(math.inf, 0.0, 1.0, 0.0, 1.0),
                   AxisMeasurement(0.0, 0.0, 0.0, True), CFG)
    assert pd(s)
