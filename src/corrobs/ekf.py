"""Constant-velocity Kalman filter baseline for the three position axes.

The comparison baseline fuses the large-error position channel with the
accurate velocity channel under a discrete constant-velocity model.  The
measurement model is linear, so the extended filter reduces to a plain
Kalman filter here.  The axes run one filter each in the textbook form, but
they share the initial covariance, the process noise and the two
measurement variances, and their position samples are fresh on the same
ticks, so their covariances are the same floats at every step.  One
`EkfState` therefore holds the per-axis means and the one covariance they
share, stored as the three distinct entries of the symmetric 2x2 matrix;
updates use the Joseph form.

What holds of the bundled tuning: the position variance r1 is the
position noise mixture's variance (on ``paper_sec6``, 0.46 = 0.25 Gaussian +
0.03 uniform + 0.18 impulse), r2 is the velocity mixture's (2e-6 there,
against 1.88e-6), and q = 1e-4 is the best of a decade grid on the unbiased
``noise_only`` scenario (demo 05).  That is the lowest position RMS, not a
consistent filter: the velocity innovations also carry the disturbance the
constant-velocity model leaves out, so their normalized innovation squared
falls outside its two-sided 95 % bounds more often than the 5 % that a
consistent filter would give.  Nor has the filter any mechanism against
a non-zero-mean measurement error: a constant position bias leaks into the
state at the filter's own bandwidth.  That failure mode is precisely what
the signal corrector avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

from .estimators import AxisMeasurement
from .plant import check_range

__all__ = ["EkfConfig", "EkfState", "EkfDivergence", "process_noise", "ekf_init",
           "ekf_predict", "ekf_update"]


class EkfDivergence(RuntimeError):
    """Covariance lost positive definiteness or an innovation became singular."""


@dataclass(frozen=True)
class EkfConfig:
    q: float        # white-noise acceleration intensity, (m/s^2)^2 * s
    r1: float       # position measurement variance, m^2
    r2: float       # velocity measurement variance, (m/s)^2
    p0: float = 10.0  # initial covariance scale

    def __post_init__(self):
        check_range("positive", q=self.q, r1=self.r1, r2=self.r2, p0=self.p0)


class EkfState(NamedTuple):
    """Per-axis means (``pos``, ``vel``, one entry per axis) and the
    symmetric covariance entries (p11, p12, p22) that every axis shares."""

    pos: tuple[float, ...]
    vel: tuple[float, ...]
    p11: float
    p12: float
    p22: float


# EkfState from a (pos, vel, p11, p12, p22) tuple, without the Python-level
# __new__ that calling the class goes through.
_new_state = partial(tuple.__new__, EkfState)


def _checked(pos: tuple[float, ...], vel: tuple[float, ...],
             p11: float, p12: float, p22: float) -> EkfState:
    # Symmetry holds by storage; verify positive definiteness.
    if not (p11 > 0.0 and p22 > 0.0 and p11 * p22 - p12 * p12 > 0.0):
        raise EkfDivergence(
            f"covariance not positive definite: p11={p11}, p12={p12}, p22={p22}")
    if not all(map(math.isfinite, pos + vel)):
        raise EkfDivergence("non-finite filter mean")
    return _new_state((pos, vel, p11, p12, p22))


def process_noise(q: float, dt: float) -> tuple[float, float, float]:
    """Entries (q11, q12, q22) of Q = q * [[dt^3/3, dt^2/2], [dt^2/2, dt]]."""
    return q * dt ** 3 / 3.0, q * dt * dt / 2.0, q * dt


def ekf_init(frame: Sequence[AxisMeasurement], cfg: EkfConfig) -> EkfState:
    """One filter per measurement of ``frame``, started from its (y_o1, y_o2)
    pair, with the diagonal covariance p0*I."""
    y1, y2, _ = zip(*frame)
    return EkfState(y1, y2, cfg.p0, 0.0, cfg.p0)


def ekf_predict(s: EkfState, dt: float, q: tuple[float, float, float]) -> EkfState:
    """Constant-velocity propagation with white-noise-acceleration Q.

    ``q`` is `process_noise(cfg.q, dt)`, worked out once per step size.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    pos, vel, p11, p12, p22 = s
    q11, q12, q22 = q
    return _checked(tuple([x + dt * v for x, v in zip(pos, vel)]), vel,
                    p11 + 2.0 * dt * p12 + dt * dt * p22 + q11,
                    p12 + dt * p22 + q12,
                    p22 + q22)


def _corrected(s: EkfState, k1: float, k2: float,
               innov: list[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The means of ``s`` moved by the gains (k1, k2) times each axis's innovation."""
    return (tuple([x + k1 * e for x, e in zip(s.pos, innov)]),
            tuple([v + k2 * e for v, e in zip(s.vel, innov)]))


def _update_position(s: EkfState, ys: tuple[float, ...], r1: float) -> EkfState:
    innov_var = s.p11 + r1
    if innov_var <= 0.0 or not math.isfinite(innov_var):
        raise EkfDivergence(f"singular position innovation covariance: {innov_var}")
    k1 = s.p11 / innov_var
    k2 = s.p12 / innov_var
    innov = [y - x for y, x in zip(ys, s.pos)]
    a = 1.0 - k1
    # Joseph form: (I-KH) P (I-KH)' + K R K'
    p11 = a * a * s.p11 + k1 * k1 * r1
    p12 = a * (s.p12 - k2 * s.p11) + k1 * k2 * r1
    p22 = k2 * k2 * s.p11 - 2.0 * k2 * s.p12 + s.p22 + k2 * k2 * r1
    return _checked(*_corrected(s, k1, k2, innov), p11, p12, p22)


def _update_velocity(s: EkfState, ys: tuple[float, ...], r2: float) -> EkfState:
    innov_var = s.p22 + r2
    if innov_var <= 0.0 or not math.isfinite(innov_var):
        raise EkfDivergence(f"singular velocity innovation covariance: {innov_var}")
    k1 = s.p12 / innov_var
    k2 = s.p22 / innov_var
    innov = [y - v for y, v in zip(ys, s.vel)]
    b = 1.0 - k2
    p11 = s.p11 - 2.0 * k1 * s.p12 + k1 * k1 * s.p22 + k1 * k1 * r2
    p12 = b * (s.p12 - k1 * s.p22) + k1 * k2 * r2
    p22 = b * b * s.p22 + k2 * k2 * r2
    return _checked(*_corrected(s, k1, k2, innov), p11, p12, p22)


def ekf_update(s: EkfState, frame: Sequence[AxisMeasurement], cfg: EkfConfig) -> EkfState:
    """Measurement update of every axis, ``frame`` holding one measurement
    per axis, in the bank's order.

    The velocity channel is always applied (call this at the velocity update
    instants); the position channel is applied only when the sample is fresh.
    Stale position samples are skipped, not reused: holding them would
    double-count old information.  The axes share one covariance, so their
    position samples must be fresh together; a frame whose fresh flags
    disagree is a ValueError.
    """
    y1, y2, flags = zip(*frame)
    fresh = flags[0]
    if flags.count(fresh) != len(flags):
        raise ValueError("the axes' position samples must be fresh together")
    out = _update_velocity(s, y2, cfg.r2)
    if fresh:
        out = _update_position(out, y1, cfg.r1)
    return out
