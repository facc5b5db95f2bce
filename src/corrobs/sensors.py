"""Measurement generation: large-error position channels, accurate rate channels.

Each of the six axes produces two outputs,

    y_i1 = x_i + d_i(t) + n_i1(t)      (position/angle, large error allowed)
    y_i2 = v_i + n_i2(t)               (velocity/rate, accurate)

sampled at their own update periods and zero-order-held in between.  The
bounded error d_i(t) is a constant bias plus optional sinusoids plus a
bounded random walk, folded back into [-bound, bound].  Noise is a
Gaussian/uniform/impulse mixture, which gives the heavy-tailed, distinctly
non-Gaussian statistics the estimators are supposed to survive.

Every channel draws from its own seeded stream (derived from the master seed
by axis and channel index), so traces are reproducible and reseeding one
axis leaves the others untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .estimators import AxisMeasurement

__all__ = [
    "NoiseMixture", "LargeErrorModel", "LargeErrorProcess",
    "SensorConfig", "MeasurementFrame", "SensorSuite", "sample_noise",
]


@dataclass(frozen=True)
class NoiseMixture:
    """Additive noise: Gaussian + uniform + Bernoulli impulse of random sign."""

    gaussian_std: float = 0.0
    uniform_halfwidth: float = 0.0
    impulse_prob: float = 0.0
    impulse_magnitude: float = 0.0

    def __post_init__(self):
        if min(self.gaussian_std, self.uniform_halfwidth, self.impulse_magnitude) < 0:
            raise ValueError("noise mixture parameters must be nonnegative")
        if not 0.0 <= self.impulse_prob <= 1.0:
            raise ValueError("impulse_prob must be in [0, 1]")


def sample_noise(mix: NoiseMixture, rng: np.random.Generator) -> float:
    """Draw one noise sample.  Always consumes four variates so that streams
    stay aligned regardless of the mixture parameters."""
    g = rng.standard_normal()
    u = rng.uniform(-1.0, 1.0)
    hit = rng.random()
    sign = 1.0 if rng.random() < 0.5 else -1.0
    val = mix.gaussian_std * g + mix.uniform_halfwidth * u
    if hit < mix.impulse_prob:
        val += sign * mix.impulse_magnitude
    return val


@dataclass(frozen=True)
class LargeErrorModel:
    """Bounded bias process: constant + sinusoids + reflected random walk.

    ``sinusoids`` holds (amplitude, angular frequency, phase) triples.  The
    total is folded into [-bound, bound], so |d(t)| <= bound by construction;
    ``bound`` is the recorded sup bound L_d of the channel.
    """

    constant: float = 0.0
    sinusoids: tuple[tuple[float, float, float], ...] = ()
    walk_step: float = 0.0
    walk_period: float = 1.0
    bound: float = 0.0

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")
        if self.walk_period <= 0:
            raise ValueError("walk_period must be positive")
        if self.walk_step < 0:
            raise ValueError("walk_step must be nonnegative")


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
        raw = m.constant + self._walk
        for amp, omega, phase in m.sinusoids:
            raw += amp * math.sin(omega * t + phase)
        return _fold(raw, m.bound)


# AxisMeasurement from a (y_o1, y_o2, t, y_o1_fresh) tuple, without the
# Python-level __new__ that calling the class goes through.
_new_axis_measurement = partial(tuple.__new__, AxisMeasurement)


class MeasurementFrame(tuple):
    """Six AxisMeasurement records sharing one timestamp."""

    __slots__ = ()

    def __new__(cls, axes: Sequence[AxisMeasurement]):
        if len(axes) != 6:
            raise ValueError("a measurement frame holds exactly six axes")
        return super().__new__(cls, axes)

    @property
    def t(self) -> float:
        return self[0].t


@dataclass(frozen=True)
class SensorConfig:
    """Rates, dropout schedule and per-axis error/noise models.

    ``dropouts`` lists [start, end) intervals during which the position
    channel is stale (the last valid value is held and flagged not fresh).
    """

    position_period: float = 1.0
    velocity_period: float = 0.01
    dropouts: tuple[tuple[float, float], ...] = ()
    large_error: tuple[LargeErrorModel, ...] = tuple(LargeErrorModel() for _ in range(6))
    position_noise: tuple[NoiseMixture, ...] = tuple(NoiseMixture() for _ in range(6))
    velocity_noise: tuple[NoiseMixture, ...] = tuple(NoiseMixture() for _ in range(6))

    def __post_init__(self):
        if self.position_period <= 0 or self.velocity_period <= 0:
            raise ValueError("sensor update periods must be positive")
        for name in ("large_error", "position_noise", "velocity_noise"):
            if len(getattr(self, name)) != 6:
                raise ValueError(f"SensorConfig.{name} needs one entry per axis")
        for start, end in self.dropouts:
            if end <= start:
                raise ValueError("dropout intervals must satisfy start < end")

    @property
    def l_d(self) -> tuple[float, ...]:
        """Recorded sup bound of each axis's large error."""
        return tuple(m.bound for m in self.large_error)

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
        self.position_every = self._ticks(cfg.position_period, dt, "position_period")
        self.velocity_every = self._ticks(cfg.velocity_period, dt, "velocity_period")
        self._pos_rngs = [self._stream(seed, axis, 0) for axis in range(6)]
        self._vel_rngs = [self._stream(seed, axis, 1) for axis in range(6)]
        self._err = [LargeErrorProcess(cfg.large_error[axis], self._stream(seed, axis, 2))
                     for axis in range(6)]
        self._held_y1 = [0.0] * 6
        self._held_y2 = [0.0] * 6
        self._started = False

    @staticmethod
    def _ticks(period: float, dt: float, name: str) -> int:
        n = period / dt
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError(f"{name} must be a whole multiple of dt")
        return int(round(n))

    @staticmethod
    def _stream(seed: int, axis: int, channel: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(axis, channel))))

    def measure(self, state: Sequence[float], tick: int) -> MeasurementFrame:
        t = tick * self.dt
        first = not self._started
        self._started = True
        fresh = (tick % self.position_every == 0 and not self.cfg.in_dropout(t)) or first
        vel_due = tick % self.velocity_every == 0 or first
        if fresh or vel_due:
            for axis in range(6):
                if fresh:
                    d = self._err[axis].value(t)
                    n1 = sample_noise(self.cfg.position_noise[axis], self._pos_rngs[axis])
                    self._held_y1[axis] = float(state[axis]) + d + n1
                if vel_due:
                    n2 = sample_noise(self.cfg.velocity_noise[axis], self._vel_rngs[axis])
                    self._held_y2[axis] = float(state[6 + axis]) + n2
        return MeasurementFrame([_new_axis_measurement((y1, y2, t, fresh))
                                 for y1, y2 in zip(self._held_y1, self._held_y2)])
