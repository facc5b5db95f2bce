"""Per-axis constant-velocity Kalman filter baseline.

The comparison baseline fuses the large-error position channel with the
accurate velocity channel under a discrete constant-velocity model.  The
measurement model is linear, so the extended filter reduces to a plain
Kalman filter here.  One filter instance serves one translational axis; the
covariance is stored as the three distinct entries of the symmetric 2x2
matrix, and updates use the Joseph form.

The filter is honestly tuned (measurement variances set to the true sensor
noise, process noise grid-searched on an unbiased scenario), but it has no
mechanism against a non-zero-mean measurement error: a constant position
bias leaks into the state at the filter's own bandwidth.  That failure mode
is precisely what the signal corrector avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .estimators import AxisMeasurement

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
        if min(self.q, self.r1, self.r2, self.p0) <= 0:
            raise ValueError("EKF parameters must be strictly positive")


class EkfState(NamedTuple):
    """Mean (pos, vel) and symmetric covariance entries (p11, p12, p22)."""

    pos: float
    vel: float
    p11: float
    p12: float
    p22: float


def _check(pos: float, vel: float, p11: float, p12: float, p22: float) -> None:
    # Symmetry holds by storage; verify positive definiteness.
    if not (p11 > 0.0 and p22 > 0.0 and p11 * p22 - p12 * p12 > 0.0):
        raise EkfDivergence(
            f"covariance not positive definite: p11={p11}, p12={p12}, p22={p22}")
    if not (math.isfinite(pos) and math.isfinite(vel)):
        raise EkfDivergence("non-finite filter mean")


# EkfState from a (pos, vel, p11, p12, p22) tuple, without the Python-level
# __new__ that calling the class goes through.
_new_state = partial(tuple.__new__, EkfState)


def _checked(pos: float, vel: float, p11: float, p12: float, p22: float) -> EkfState:
    _check(pos, vel, p11, p12, p22)
    return _new_state((pos, vel, p11, p12, p22))


def process_noise(q: float, dt: float) -> tuple[float, float, float]:
    """Entries (q11, q12, q22) of Q = q * [[dt^3/3, dt^2/2], [dt^2/2, dt]]."""
    return q * dt ** 3 / 3.0, q * dt * dt / 2.0, q * dt


def ekf_init(meas: AxisMeasurement, cfg: EkfConfig) -> EkfState:
    """Start from the first measurement pair with diagonal covariance p0*I."""
    return EkfState(meas.y_o1, meas.y_o2, cfg.p0, 0.0, cfg.p0)


def ekf_predict(s: EkfState, dt: float, q: tuple[float, float, float]) -> EkfState:
    """Constant-velocity propagation with white-noise-acceleration Q.

    ``q`` is `process_noise(cfg.q, dt)`, worked out once per step size.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    pos, vel, p11, p12, p22 = s
    q11, q12, q22 = q
    out = (pos + dt * vel, vel,
           p11 + 2.0 * dt * p12 + dt * dt * p22 + q11,
           p12 + dt * p22 + q12,
           p22 + q22)
    _check(*out)
    return _new_state(out)


def _update_position(s: EkfState, y: float, r1: float) -> EkfState:
    innov_var = s.p11 + r1
    if innov_var <= 0.0 or not math.isfinite(innov_var):
        raise EkfDivergence(f"singular position innovation covariance: {innov_var}")
    k1 = s.p11 / innov_var
    k2 = s.p12 / innov_var
    innov = y - s.pos
    a = 1.0 - k1
    # Joseph form: (I-KH) P (I-KH)' + K R K'
    p11 = a * a * s.p11 + k1 * k1 * r1
    p12 = a * (s.p12 - k2 * s.p11) + k1 * k2 * r1
    p22 = k2 * k2 * s.p11 - 2.0 * k2 * s.p12 + s.p22 + k2 * k2 * r1
    return _checked(s.pos + k1 * innov, s.vel + k2 * innov, p11, p12, p22)


def _update_velocity(s: EkfState, y: float, r2: float) -> EkfState:
    innov_var = s.p22 + r2
    if innov_var <= 0.0 or not math.isfinite(innov_var):
        raise EkfDivergence(f"singular velocity innovation covariance: {innov_var}")
    k1 = s.p12 / innov_var
    k2 = s.p22 / innov_var
    innov = y - s.vel
    b = 1.0 - k2
    p11 = s.p11 - 2.0 * k1 * s.p12 + k1 * k1 * s.p22 + k1 * k1 * r2
    p12 = b * (s.p12 - k1 * s.p22) + k1 * k2 * r2
    p22 = b * b * s.p22 + k2 * k2 * r2
    return _checked(s.pos + k1 * innov, s.vel + k2 * innov, p11, p12, p22)


def ekf_update(s: EkfState, meas: AxisMeasurement, cfg: EkfConfig) -> EkfState:
    """Measurement update for one axis.

    The velocity channel is always applied (call this at the velocity update
    instants); the position channel is applied only when the sample is fresh.
    Stale position samples are skipped, not reused: holding them would
    double-count old information.
    """
    out = _update_velocity(s, meas.y_o2, cfg.r2)
    if meas.y_o1_fresh:
        out = _update_position(out, meas.y_o1, cfg.r1)
    return out
