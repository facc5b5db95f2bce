from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from corrobs import (LargeErrorModel, LargeErrorProcess, NoiseMixture, ScenarioConfig,
                     SensorConfig, SensorSuite, UncertaintyModel, bundled_config_path,
                     load_scenario, sample_noise)
from corrobs.config import BUNDLED_CONFIGS
from corrobs.sensors import _fold


def rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------------ noise

def test_sample_noise_zero_mixture():
    assert sample_noise(NoiseMixture(), rng()) == 0.0


def test_sample_noise_forced_impulse():
    mix = NoiseMixture(impulse_prob=1.0, impulse_magnitude=5.0)
    vals = {sample_noise(mix, rng(i)) for i in range(50)}
    assert vals <= {5.0, -5.0}
    assert len(vals) == 2


def test_sample_noise_heavy_tails():
    # Rare large impulses on a Gaussian base push the excess kurtosis well
    # above the Gaussian value of 3.
    mix = NoiseMixture(gaussian_std=0.1, impulse_prob=0.01, impulse_magnitude=2.0)
    g = rng(123)
    samples = np.array([sample_noise(mix, g) for _ in range(1_000_000)])
    kurt = float(np.mean((samples - samples.mean()) ** 4) / samples.var() ** 2)
    assert kurt > 3.5


def test_sample_noise_validation():
    with pytest.raises(ValueError):
        NoiseMixture(gaussian_std=-1.0)
    with pytest.raises(ValueError):
        NoiseMixture(impulse_prob=1.5)


def _holders(obj):
    """``obj`` and every scenario dataclass that its fields hold, alone or in
    tuples, nested."""
    yield obj
    for f in fields(obj):
        value = getattr(obj, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if is_dataclass(item):
                yield from _holders(item)


def _leaves(value, path=()):
    """Index paths of the numbers in ``value``: a number, or tuples of them."""
    if isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    elif isinstance(value, (int, float)):
        yield path


def _with_leaf(value, path, leaf):
    """``value`` with the number at index ``path`` set to ``leaf``."""
    if not path:
        return leaf
    i, *rest = path
    return value[:i] + (_with_leaf(value[i], rest, leaf),) + value[i + 1:]


# Every (holder, field name, leaf path) of a number in a bundled scenario.
# `initial_offset` is left out: a non-finite start is how a test forces the
# closed loop to diverge (the benchmark's divergence test builds one), so the
# scenario builds it and the loop's finiteness check refuses it at tick 0.
NUMERIC_LEAVES = [
    (holder, f.name, path)
    for cfg in (load_scenario(bundled_config_path(n)) for n in BUNDLED_CONFIGS)
    for holder in _holders(cfg)
    for f in fields(holder)
    if (type(holder), f.name) != (ScenarioConfig, "initial_offset")
    for path in _leaves(getattr(holder, f.name))
]
NON_FINITE_FIELDS = sorted({(type(h), name) for h, name, _ in NUMERIC_LEAVES},
                           key=lambda field: (field[0].__name__, field[1]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", NON_FINITE_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, n in NON_FINITE_FIELDS])
def test_non_finite_model_field_is_refused_by_name(cls, name, value):
    # Each number of every bundled scenario, set to ``value`` on its own, in
    # every object of ``cls`` that the scenario holds.
    for holder, field_name, path in NUMERIC_LEAVES:
        if (type(holder), field_name) == (cls, name):
            edited = _with_leaf(getattr(holder, name), path, value)
            with pytest.raises(ValueError, match=rf"^{name} must be .*, not {value}$"):
                replace(holder, **{name: edited})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("slot", [0, 1, 2])   # amplitude, frequency, phase
def test_non_finite_sinusoid_is_refused_by_name(slot, value):
    triple = [1.0, 1.0, 1.0]
    triple[slot] = value
    with pytest.raises(ValueError, match=rf"^delta_sinusoids must be finite, not {value}$"):
        UncertaintyModel(delta_sinusoids=(((0.5, 1.0, 0.0), tuple(triple)),) + ((),) * 5)


# ------------------------------------------------------------- large error

def test_large_error_zero_bound():
    proc = LargeErrorProcess(LargeErrorModel(constant=20.0, bound=0.0), rng())
    assert all(proc.value(n) == 0.0 for n in (0, 1, 50))


def test_large_error_constant_bias():
    proc = LargeErrorProcess(LargeErrorModel(constant=20.0, bound=25.0), rng())
    assert proc.value(0) == 20.0
    assert proc.value(123) == 20.0


def test_large_error_walk_never_exceeds_bound():
    model = LargeErrorModel(constant=18.0, walk_step=0.5, bound=20.0)
    proc = LargeErrorProcess(model, rng(42))
    worst = 0.0
    for n in range(1_000_000):
        worst = max(worst, abs(proc.value(n)))
    assert worst <= 20.0


def test_large_error_value_is_the_folded_constant_plus_walk_bit_for_bit():
    # The walk reaches past the bound from the constant, so the fold acts.
    model = LargeErrorModel(constant=3.0, walk_step=0.5, bound=4.0)
    proc = LargeErrorProcess(model, rng(5))
    folded = 0
    for k in range(500):
        got = proc.value(k * 3 // 8)
        raw = model.constant + proc._walk
        assert got == _fold(raw, model.bound)
        folded += abs(raw) > model.bound
    assert folded


def test_large_error_walk_steps_once_per_sample_instant_dropped_ones_included():
    # Position every 100 ticks, dropped on [0.5, 0.8) s: the samples at
    # instants 5, 6 and 7 are never taken, and the one at instant 8 sees the
    # walk after exactly 8 steps, the three dropped ones taken in order.
    model = LargeErrorModel(constant=1.0, walk_step=0.25, bound=2.0)
    cfg = default_config(position_period=0.1, dropouts=((0.5, 0.8),),
                         large_error=(model, LargeErrorModel()))
    suite = SensorSuite(cfg, seed=11, dt=1e-3)
    draws = suite._stream(11, 0, 2)   # axis x's walk stream, drawn here by hand
    walk, expected = 0.0, []
    for n in range(20):
        expected.append(_fold(model.constant + walk, model.bound))
        step = model.walk_step if draws.random() < 0.5 else -model.walk_step
        walk = _fold(walk + step, model.bound)
    seen = {}
    for tick in range(2000):
        frame = suite.measure(np.zeros(12), tick)
        if tick % 100 == 0 and frame[0].y_o1_fresh:
            seen[tick // 100] = frame[0].y_o1
    assert sorted(seen) == [n for n in range(20) if n not in (5, 6, 7)]
    assert all(seen[n] == expected[n] for n in seen)
    assert len(set(expected)) > 3    # the walk moved


def test_fold_stays_in_band():
    g = rng(9)
    for _ in range(2000):
        bound = float(g.uniform(0.1, 30))
        assert abs(_fold(float(g.uniform(-200, 200)), bound)) <= bound
    assert _fold(1.5, 1.0) == pytest.approx(0.5)
    assert _fold(0.3, 1.0) == 0.3
    assert _fold(-1.5, 1.0) == pytest.approx(-0.5)


# ---------------------------------------------------------------- measure

def default_config(**kw) -> SensorConfig:
    base = dict(
        position_period=1.0,
        velocity_period=0.01,
        dropouts=(),
        large_error=(LargeErrorModel(),) * 2,
        position_noise=(NoiseMixture(),) * 2,
        velocity_noise=(NoiseMixture(),) * 2,
    )
    base.update(kw)
    return SensorConfig(**base)


def test_measure_noise_free_exact_at_update_instants():
    suite = SensorSuite(default_config(), seed=1, dt=1e-3)
    state = np.arange(12, dtype=float)
    frame = suite.measure(state, 0)
    for axis in range(6):
        assert frame[axis].y_o1 == state[axis]
        assert frame[axis].y_o2 == state[6 + axis]
        assert frame[axis].y_o1_fresh


def test_measure_holds_between_updates():
    suite = SensorSuite(default_config(), seed=1, dt=1e-3)
    s0 = np.arange(12, dtype=float)
    suite.measure(s0, 0)
    moved = s0 + 5.0
    frame = suite.measure(moved, 500)  # t = 0.5 s: position stale, velocity fresh
    for axis in range(6):
        assert frame[axis].y_o1 == s0[axis]
        assert not frame[axis].y_o1_fresh
        assert frame[axis].y_o2 == moved[6 + axis]


def test_measure_returns_the_held_frame_object_until_a_sample_is_due():
    # Velocity every 10 ticks, position every 1000.  A tick with no sample
    # due gets the previous frame object back, unless that frame was flagged
    # fresh: the tick after it gets a new frame of the same values, stale.
    noisy = (NoiseMixture(0.5, 0.3, 0.02, 3.0),) * 2
    suite = SensorSuite(default_config(position_noise=noisy, velocity_noise=noisy),
                        seed=3, dt=1e-3)
    state = np.linspace(-1.0, 1.0, 12)
    prev = suite.measure(state, 0)
    held = new = 0
    for i in range(1, 2501):
        frame = suite.measure(state, i)
        if i % 10 == 0:
            assert frame is not prev and frame != prev
            new += 1
        elif prev[0].y_o1_fresh:
            assert frame is not prev
            assert [m[:2] for m in frame] == [m[:2] for m in prev]
            assert not any(m.y_o1_fresh for m in frame)
            new += 1
        else:
            assert frame is prev
            held += 1
        prev = frame
    assert (held, new) == (2247, 253)    # 250 velocity samples, 3 fresh positions


def test_measure_dropout_holds_last_valid():
    cfg = default_config(dropouts=((10.0, 20.0),))
    suite = SensorSuite(cfg, seed=1, dt=1e-3)
    held = None
    for i in range(0, 15_001):
        state = np.full(12, i * 1e-3)
        frame = suite.measure(state, i)
        if i == 9000:
            held = frame[0].y_o1
        if i == 15_000:
            # t = 15 s sits inside the dropout: value from the last update
            # before 10 s, flagged stale.
            assert frame[0].y_o1 == held == 9.0
            assert not frame[0].y_o1_fresh


def test_measure_fresh_flag_schedule():
    cfg = default_config(dropouts=((2.0, 3.0),))
    suite = SensorSuite(cfg, seed=1, dt=1e-3)
    state = np.zeros(12)
    for i in range(0, 5001):
        frame = suite.measure(state, i)
        t = i * 1e-3
        expected = (i % 1000 == 0) and not (2.0 <= t < 3.0)
        if i == 0:
            expected = True
        assert frame[0].y_o1_fresh == expected


def test_measure_large_error_applied_to_position_channel():
    # The position group's model biases x, y and z; attitude stays clean.
    models = (LargeErrorModel(constant=20.0, bound=25.0), LargeErrorModel())
    suite = SensorSuite(default_config(large_error=models), seed=1, dt=1e-3)
    state = np.zeros(12)
    frame = suite.measure(state, 0)
    assert [m.y_o1 for m in frame] == [20.0] * 3 + [0.0] * 3
    assert all(m.y_o2 == 0.0 for m in frame)


def test_measure_deterministic():
    cfg = default_config(
        position_noise=(NoiseMixture(0.5, 0.3, 0.02, 3.0),) * 2,
        velocity_noise=(NoiseMixture(0.001, 0.0005, 0.002, 0.02),) * 2,
        large_error=(LargeErrorModel(20.0, 0.05, 25.0),) * 2,
    )
    a = SensorSuite(cfg, seed=77, dt=1e-3)
    b = SensorSuite(cfg, seed=77, dt=1e-3)
    state = np.linspace(-1, 1, 12)
    for i in range(3000):
        fa = a.measure(state, i)
        fb = b.measure(state, i)
        assert fa == fb


def test_measure_axis_streams_independent():
    # Changing the attitude group's models must not perturb the position
    # axes' draws, and the axes of one group, under one noise model, draw
    # from streams of their own.
    noisy = (NoiseMixture(0.5, 0.0, 0.0, 0.0),) * 2
    cfg_a = default_config(position_noise=noisy, velocity_noise=noisy)
    cfg_b = default_config(
        position_noise=(noisy[0], NoiseMixture(0.1, 0.2, 0.3, 4.0)),
        velocity_noise=(noisy[0], NoiseMixture(0.0, 0.1, 0.0, 0.0)),
        large_error=(LargeErrorModel(), LargeErrorModel(5.0, 0.5, 9.0)))
    a = SensorSuite(cfg_a, seed=5, dt=1e-3)
    b = SensorSuite(cfg_b, seed=5, dt=1e-3)
    state = np.zeros(12)
    for i in range(5000):
        fa = a.measure(state, i)
        fb = b.measure(state, i)
        assert fa[:3] == fb[:3]
        assert fa[3:] != fb[3:]
        assert len({m.y_o1 for m in fa[:3]}) == len({m.y_o2 for m in fa[:3]}) == 3


def test_sensor_config_validation():
    with pytest.raises(ValueError):
        default_config(position_period=0.0)
    with pytest.raises(ValueError):
        default_config(dropouts=((5.0, 4.0),))
    with pytest.raises(ValueError):
        SensorConfig(large_error=(LargeErrorModel(),) * 5)
    with pytest.raises(ValueError):
        SensorSuite(default_config(), seed=1, dt=0.003)  # periods not multiples
    cfg = default_config()
    assert tuple(m.bound for m in cfg.large_error) == (0.0,) * 2
