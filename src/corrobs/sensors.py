"""Measurement generation: large-error position channels, accurate rate channels.

Each of the six axes produces two outputs,

    y_i1 = x_i + d_i(t) + n_i1(t)      (position/angle, large error allowed)
    y_i2 = v_i + n_i2(t)               (velocity/rate, accurate)

sampled at their own update periods and zero-order-held in between.  The
bounded error d_i(t) is a constant bias plus a bounded random walk, folded
back into [-bound, bound].  Noise is a Gaussian/uniform/impulse mixture,
which gives the heavy-tailed, distinctly non-Gaussian statistics the
estimators are supposed to survive.

The error and noise models are set per group: one for x, y, z, one for psi,
theta, phi.  Every channel draws from its own seeded stream (derived from the
master seed by axis and channel index), so traces are reproducible, the axes
of a group draw different noise, and changing one group's models leaves the
other group's draws untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .estimators import AxisMeasurement
from .plant import ConfigError, check_range, per_axis

__all__ = [
    "NoiseMixture", "LargeErrorModel", "LargeErrorProcess",
    "SensorConfig", "SensorSuite", "sample_noise", "whole_multiple",
]


def whole_multiple(name: str, value: float, unit: str, step: float) -> int:
    """How many ``step``s (called ``unit``) make ``value`` (called ``name``):
    a whole number of at least 1, to 1e-9 of itself, or a ConfigError.  The
    one rule for every interval that the fixed-step clock counts in ticks;
    both numbers must be positive and finite."""
    check_range("positive", **{name: value, unit: step})
    n = value / step
    k = round(n)
    if k < 1 or abs(n - k) > 1e-9 * k:
        raise ConfigError(f"{name} must be a whole multiple of {unit}")
    return k


@dataclass(frozen=True)
class NoiseMixture:
    """Additive noise: Gaussian + uniform + Bernoulli impulse of random sign."""

    gaussian_std: float = 0.0
    uniform_halfwidth: float = 0.0
    impulse_prob: float = 0.0
    impulse_magnitude: float = 0.0

    def __post_init__(self):
        check_range("nonnegative", gaussian_std=self.gaussian_std,
                    uniform_halfwidth=self.uniform_halfwidth,
                    impulse_magnitude=self.impulse_magnitude)
        check_range("in [0, 1]", impulse_prob=self.impulse_prob)


def sample_noise(mix: NoiseMixture, rng: np.random.Generator) -> float:
    """Draw one noise sample.  Always consumes four variates so that streams
    stay aligned regardless of the mixture parameters."""
    g = rng.standard_normal()
    u = -1.0 + 2.0 * rng.random()   # what rng.uniform(-1.0, 1.0) computes, bit for bit
    hit = rng.random()
    sign = 1.0 if rng.random() < 0.5 else -1.0
    val = mix.gaussian_std * g + mix.uniform_halfwidth * u
    if hit < mix.impulse_prob:
        val += sign * mix.impulse_magnitude
    return val


@dataclass(frozen=True)
class LargeErrorModel:
    """Bounded bias process: constant + reflected random walk.

    The total is folded into [-bound, bound], so |d(t)| <= bound by
    construction; ``bound`` is the recorded sup bound L_d of the channel.
    """

    constant: float = 0.0
    walk_step: float = 0.0
    walk_period: float = 1.0
    bound: float = 0.0

    def __post_init__(self):
        check_range("finite", constant=self.constant)
        check_range("nonnegative", walk_step=self.walk_step, bound=self.bound)
        check_range("positive", walk_period=self.walk_period)


def _fold(value: float, bound: float) -> float:
    """Reflect value into [-bound, bound] (triangle fold, continuous)."""
    if bound == 0.0:
        return 0.0
    if -bound <= value <= bound:
        return value
    span = 4.0 * bound
    y = math.fmod(value + bound, span)
    if y < 0.0:
        y += span
    if y > 2.0 * bound:
        y = span - y
    return y - bound


class LargeErrorProcess:
    """Stateful sampler of a LargeErrorModel along increasing time."""

    def __init__(self, model: LargeErrorModel, rng: np.random.Generator):
        self.model = model
        self._rng = rng
        self._walk = 0.0
        self._next_walk_t = model.walk_period

    def value(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be nonnegative")
        m = self.model
        if m.walk_step > 0.0:
            while self._next_walk_t <= t:
                step = m.walk_step if self._rng.random() < 0.5 else -m.walk_step
                self._walk = _fold(self._walk + step, m.bound)
                self._next_walk_t += m.walk_period
        return _fold(m.constant + self._walk, m.bound)


# AxisMeasurement from a (y_o1, y_o2, y_o1_fresh) tuple, without the
# Python-level __new__ that calling the class goes through.
_new_axis_measurement = partial(tuple.__new__, AxisMeasurement)


@dataclass(frozen=True)
class SensorConfig:
    """Rates, dropout schedule and the error/noise models of each group.

    ``dropouts`` lists [start, end) intervals during which the position
    channel is stale (the last valid value is held and flagged not fresh).
    A scenario also requires each period to be a whole multiple of its
    ``dt``, and ``position_period`` of ``velocity_period``.
    ``large_error``, ``position_noise`` and ``velocity_noise`` are
    (position group, attitude group) pairs.
    """

    position_period: float = 1.0
    velocity_period: float = 0.01
    dropouts: tuple[tuple[float, float], ...] = ()
    large_error: tuple[LargeErrorModel, LargeErrorModel] = (LargeErrorModel(),) * 2
    position_noise: tuple[NoiseMixture, NoiseMixture] = (NoiseMixture(),) * 2
    velocity_noise: tuple[NoiseMixture, NoiseMixture] = (NoiseMixture(),) * 2

    def __post_init__(self):
        check_range("positive", position_period=self.position_period,
                    velocity_period=self.velocity_period)
        intervals = {f"dropouts[{i}]": d for i, d in enumerate(self.dropouts)}
        check_range("interval", **intervals)
        check_range("finite", dropouts=self.dropouts)
        check_range("start < end", **intervals)
        check_range("pair", large_error=self.large_error, position_noise=self.position_noise,
                    velocity_noise=self.velocity_noise)

    def in_dropout(self, t: float) -> bool:
        return any(start <= t < end for start, end in self.dropouts)


class SensorSuite:
    """Holds the held values, walkers and RNG streams of all channels.

    Measurements must be requested at increasing tick indices; schedules are
    tick-based (period/dt must be a whole number) so update instants align
    exactly with the simulation clock.
    """

    def __init__(self, cfg: SensorConfig, seed: int, dt: float):
        self.cfg = cfg
        self.dt = dt
        self.position_every = whole_multiple("position_period", cfg.position_period, "dt", dt)
        self.velocity_every = whole_multiple("velocity_period", cfg.velocity_period, "dt", dt)
        self._pos_noise = per_axis(cfg.position_noise)
        self._vel_noise = per_axis(cfg.velocity_noise)
        self._pos_rngs = [self._stream(seed, axis, 0) for axis in range(6)]
        self._vel_rngs = [self._stream(seed, axis, 1) for axis in range(6)]
        self._err = [LargeErrorProcess(model, self._stream(seed, axis, 2))
                     for axis, model in enumerate(per_axis(cfg.large_error))]
        self._held_y1 = [0.0] * 6
        self._held_y2 = [0.0] * 6
        self._frame: tuple[AxisMeasurement, ...] | None = None    # the last one returned

    @staticmethod
    def _stream(seed: int, axis: int, channel: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(axis, channel))))

    def measure(self, state: Sequence[float],
                tick: int) -> tuple[AxisMeasurement, ...]:
        """The six axes' measurements at ``tick``.

        Channels that are due are sampled from ``state`` (12 values: six
        positions, then six velocities); the others hold their last value.
        The position sample is flagged fresh only when it was just taken;
        the first call samples every channel.  On a tick where no channel is
        due the previous frame object comes back as it is, unless it was
        flagged fresh: then a new frame holds its values, flagged stale.
        """
        frame = self._frame
        first = frame is None
        fresh = first or (tick % self.position_every == 0
                          and not self.cfg.in_dropout(tick * self.dt))
        vel_due = first or tick % self.velocity_every == 0
        if fresh or vel_due:
            t = tick * self.dt
            for axis in range(6):
                if fresh:
                    d = self._err[axis].value(t)
                    n1 = sample_noise(self._pos_noise[axis], self._pos_rngs[axis])
                    self._held_y1[axis] = float(state[axis]) + d + n1
                if vel_due:
                    n2 = sample_noise(self._vel_noise[axis], self._vel_rngs[axis])
                    self._held_y2[axis] = float(state[6 + axis]) + n2
        elif not frame[0].y_o1_fresh:
            return frame
        self._frame = frame = tuple([_new_axis_measurement((y1, y2, fresh))
                                     for y1, y2 in zip(self._held_y1, self._held_y2)])
        return frame
