"""Scenario documents: JSON-compatible key/value files with nested sections.

A scenario file fully determines a simulation run (plant constants,
uncertainty model, sensing, estimator and control parameters, EKF tuning,
trajectory, seed).  Three reference documents ship with the package:

    paper_sec6.cfg   flight replication: circle trajectory, ~20 m position
                     bias with dropouts, non-Gaussian noise
    paper_fig5.cfg   uncertainty-estimation run with the sinusoidal
                     disturbance set and no dropouts
    noise_only.cfg   unbiased small-noise scenario used to tune the EKF
                     baseline fairly
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import Any

from .control import ControlGains
from .ekf import EkfConfig
from .engine import ScenarioConfig, TrajectorySpec
from .estimators import CorrectorParams, ObserverParams
from .plant import AXIS_NAMES, UavParams, UncertaintyModel
from .sensors import LargeErrorModel, NoiseMixture, SensorConfig

__all__ = ["ConfigError", "load_scenario", "scenario_from_dict",
           "scenario_to_dict", "save_scenario", "bundled_config_path",
           "BUNDLED_CONFIGS"]

BUNDLED_CONFIGS = ("paper_sec6", "paper_fig5", "noise_only")


class ConfigError(ValueError):
    """Malformed scenario document; the message names the offending key."""


_REQUIRED = object()


def _get(d: dict, path: str, default=_REQUIRED):
    node: Any = d
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is not _REQUIRED:
                return default
            raise ConfigError(f"missing config key: {path}")
        node = node[part]
    return node


def _sinusoids(raw, path: str) -> tuple[tuple[float, float, float], ...]:
    out = []
    for i, triple in enumerate(raw):
        if len(triple) != 3:
            raise ConfigError(f"{path}[{i}] must be [amplitude, omega, phase]")
        out.append(tuple(float(v) for v in triple))
    return tuple(out)


def _large_error(raw: dict, path: str) -> LargeErrorModel:
    return LargeErrorModel(
        constant=float(_get(raw, "constant", 0.0)),
        sinusoids=_sinusoids(_get(raw, "sinusoids", []), f"{path}.sinusoids"),
        walk_step=float(_get(raw, "walk_step", 0.0)),
        walk_period=float(_get(raw, "walk_period", 1.0)),
        bound=float(_get(raw, "bound", 0.0)),
    )


def _noise(raw: dict) -> NoiseMixture:
    return NoiseMixture(
        gaussian_std=float(_get(raw, "gaussian_std", 0.0)),
        uniform_halfwidth=float(_get(raw, "uniform_halfwidth", 0.0)),
        impulse_prob=float(_get(raw, "impulse_prob", 0.0)),
        impulse_magnitude=float(_get(raw, "impulse_magnitude", 0.0)),
    )


def _per_group(position: Any, attitude: Any) -> tuple:
    return (position,) * 3 + (attitude,) * 3


def _group_values(values: tuple, name: str) -> tuple[Any, Any]:
    """The position-group and attitude-group entries of a per-axis tuple.

    A document holds one value per group, so a tuple whose axes differ within
    a group cannot be written without loss and is refused.
    """
    for first in (0, 3):
        for i in (first + 1, first + 2):
            if values[i] != values[first]:
                raise ConfigError(
                    f"cannot save {name}[{i}] (axis {AXIS_NAMES[i]}): it differs from "
                    f"{name}[{first}] (axis {AXIS_NAMES[first]}), and a scenario "
                    "document holds one value per position/attitude group")
    return values[0], values[3]


def _trajectory(doc: dict) -> TrajectorySpec:
    return TrajectorySpec(
        kind=str(_get(doc, "trajectory.kind", "circle")),
        radius=float(_get(doc, "trajectory.radius", 5.0)),
        speed=float(_get(doc, "trajectory.speed", 1.0)),
        altitude=float(_get(doc, "trajectory.altitude", 3.0)),
        climb_time=float(_get(doc, "trajectory.climb_time", 10.0)),
        start_x=float(_get(doc, "trajectory.start_x", 0.0)),
        start_y=float(_get(doc, "trajectory.start_y", 0.0)),
    )


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    try:
        uav = UavParams(
            m=float(_get(doc, "uav.m")),
            g=float(_get(doc, "uav.g")),
            l=float(_get(doc, "uav.l")),
            J_psi=float(_get(doc, "uav.J_psi")),
            J_theta=float(_get(doc, "uav.J_theta")),
            J_phi=float(_get(doc, "uav.J_phi")),
            b=float(_get(doc, "uav.b")),
            k=float(_get(doc, "uav.k")),
        )

        drag = tuple(float(_get(doc, f"uncertainty.drag.{a}", 0.0)) for a in AXIS_NAMES)
        sin6 = []
        const6 = []
        for a in AXIS_NAMES:
            raw = _get(doc, f"uncertainty.delta.{a}", {})
            sin6.append(_sinusoids(_get(raw, "sinusoids", []),
                                   f"uncertainty.delta.{a}.sinusoids"))
            const6.append(float(_get(raw, "constant", 0.0)))
        unc = UncertaintyModel(
            drag=drag,
            delta_sinusoids=tuple(sin6),
            delta_constant=tuple(const6),
            l_sigma=float(_get(doc, "uncertainty.l_sigma", 1.0)),
        )

        sensors = SensorConfig(
            position_period=float(_get(doc, "sensors.position_period", 1.0)),
            velocity_period=float(_get(doc, "sensors.velocity_period", 0.01)),
            dropouts=tuple((float(a), float(b))
                           for a, b in _get(doc, "sensors.dropouts", [])),
            large_error=_per_group(
                _large_error(_get(doc, "sensors.position_large_error", {}),
                             "sensors.position_large_error"),
                _large_error(_get(doc, "sensors.attitude_large_error", {}),
                             "sensors.attitude_large_error")),
            position_noise=_per_group(
                _noise(_get(doc, "sensors.position_noise", {})),
                _noise(_get(doc, "sensors.angle_noise", {}))),
            velocity_noise=_per_group(
                _noise(_get(doc, "sensors.velocity_noise", {})),
                _noise(_get(doc, "sensors.rate_noise", {}))),
        )

        def corrector(group: str) -> CorrectorParams:
            return CorrectorParams(
                k1=float(_get(doc, f"corrector.{group}.k1")),
                k2=float(_get(doc, f"corrector.{group}.k2")),
                alpha_c=float(_get(doc, f"corrector.{group}.alpha_c")),
                eps_c=float(_get(doc, f"corrector.{group}.eps_c")),
            )

        def observer(group: str) -> ObserverParams:
            return ObserverParams(
                k3=float(_get(doc, f"observer.{group}.k3")),
                k4=float(_get(doc, f"observer.{group}.k4")),
                alpha_o=float(_get(doc, f"observer.{group}.alpha_o")),
                eps_o=float(_get(doc, f"observer.{group}.eps_o")),
            )

        gains = ControlGains(
            kp1=float(_get(doc, "control.kp1")),
            kp2=float(_get(doc, "control.kp2")),
            ka1=float(_get(doc, "control.ka1")),
            ka2=float(_get(doc, "control.ka2")),
        )

        ekf = EkfConfig(
            q=float(_get(doc, "ekf.q")),
            r1=float(_get(doc, "ekf.r1")),
            r2=float(_get(doc, "ekf.r2")),
            p0=float(_get(doc, "ekf.p0", 10.0)),
        )

        return ScenarioConfig(
            duration=float(_get(doc, "duration")),
            dt=float(_get(doc, "dt", 1e-3)),
            seed=int(_get(doc, "seed")),
            sample_interval=float(_get(doc, "sample_interval", 0.01)),
            uav=uav,
            uncertainty=unc,
            sensors=sensors,
            gains=gains,
            correctors=_per_group(corrector("position"), corrector("attitude")),
            observers=_per_group(observer("position"), observer("attitude")),
            ekf=ekf,
            trajectory=_trajectory(doc),
            estimator_init=str(_get(doc, "estimator_init", "first_measurement")),
            control_source=str(_get(doc, "control_source", "estimates")),
            uncertainty_feed=str(_get(doc, "uncertainty_feed", "estimates")),
            corrector_substeps=int(_get(doc, "corrector_substeps", 2)),
            initial_offset=tuple(float(v) for v in _get(doc, "initial_offset",
                                                        [0.0] * 12)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The scenario document of ``cfg``; ``scenario_from_dict`` inverts it exactly.

    Raises ``ConfigError`` naming the field and axis when ``cfg`` holds what
    a document cannot: per-axis models that differ within the position or
    attitude group, or a callable disturbance.
    """
    for i, fn in enumerate(cfg.uncertainty.delta_callables):
        if fn is not None:
            raise ConfigError(
                f"cannot save uncertainty.delta_callables[{i}] (axis {AXIS_NAMES[i]}): "
                "a callable disturbance has no scenario-document form")
    pos_err, att_err = _group_values(cfg.sensors.large_error, "sensors.large_error")
    pos_noise, ang_noise = _group_values(cfg.sensors.position_noise,
                                         "sensors.position_noise")
    vel_noise, rate_noise = _group_values(cfg.sensors.velocity_noise,
                                          "sensors.velocity_noise")
    pos_corr, att_corr = _group_values(cfg.correctors, "correctors")
    pos_obs, att_obs = _group_values(cfg.observers, "observers")

    def noise_dict(n: NoiseMixture) -> dict:
        return {"gaussian_std": n.gaussian_std, "uniform_halfwidth": n.uniform_halfwidth,
                "impulse_prob": n.impulse_prob, "impulse_magnitude": n.impulse_magnitude}

    def err_dict(m: LargeErrorModel) -> dict:
        return {"constant": m.constant, "sinusoids": [list(s) for s in m.sinusoids],
                "walk_step": m.walk_step, "walk_period": m.walk_period, "bound": m.bound}

    doc = {
        "duration": cfg.duration,
        "dt": cfg.dt,
        "seed": cfg.seed,
        "sample_interval": cfg.sample_interval,
        "estimator_init": cfg.estimator_init,
        "control_source": cfg.control_source,
        "uncertainty_feed": cfg.uncertainty_feed,
        "corrector_substeps": cfg.corrector_substeps,
        "initial_offset": list(cfg.initial_offset),
        "uav": {k: getattr(cfg.uav, k)
                for k in ("m", "g", "l", "J_psi", "J_theta", "J_phi", "b", "k")},
        "uncertainty": {
            "drag": {a: cfg.uncertainty.drag[i] for i, a in enumerate(AXIS_NAMES)},
            "delta": {a: {"constant": cfg.uncertainty.delta_constant[i],
                          "sinusoids": [list(s) for s in cfg.uncertainty.delta_sinusoids[i]]}
                      for i, a in enumerate(AXIS_NAMES)},
            "l_sigma": cfg.uncertainty.l_sigma,
        },
        "sensors": {
            "position_period": cfg.sensors.position_period,
            "velocity_period": cfg.sensors.velocity_period,
            "dropouts": [list(d) for d in cfg.sensors.dropouts],
            "position_large_error": err_dict(pos_err),
            "attitude_large_error": err_dict(att_err),
            "position_noise": noise_dict(pos_noise),
            "angle_noise": noise_dict(ang_noise),
            "velocity_noise": noise_dict(vel_noise),
            "rate_noise": noise_dict(rate_noise),
        },
        "corrector": {
            "position": {"k1": pos_corr.k1, "k2": pos_corr.k2,
                         "alpha_c": pos_corr.alpha_c, "eps_c": pos_corr.eps_c},
            "attitude": {"k1": att_corr.k1, "k2": att_corr.k2,
                         "alpha_c": att_corr.alpha_c, "eps_c": att_corr.eps_c},
        },
        "observer": {
            "position": {"k3": pos_obs.k3, "k4": pos_obs.k4,
                         "alpha_o": pos_obs.alpha_o, "eps_o": pos_obs.eps_o},
            "attitude": {"k3": att_obs.k3, "k4": att_obs.k4,
                         "alpha_o": att_obs.alpha_o, "eps_o": att_obs.eps_o},
        },
        "control": {"kp1": cfg.gains.kp1, "kp2": cfg.gains.kp2,
                    "ka1": cfg.gains.ka1, "ka2": cfg.gains.ka2},
        "ekf": {"q": cfg.ekf.q, "r1": cfg.ekf.r1, "r2": cfg.ekf.r2, "p0": cfg.ekf.p0},
        "trajectory": {"kind": cfg.trajectory.kind, "radius": cfg.trajectory.radius,
                       "speed": cfg.trajectory.speed, "altitude": cfg.trajectory.altitude,
                       "climb_time": cfg.trajectory.climb_time,
                       "start_x": cfg.trajectory.start_x, "start_y": cfg.trajectory.start_y},
    }
    return doc


def load_scenario(path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return scenario_from_dict(doc)


def save_scenario(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def bundled_config_path(name: str) -> Path:
    """Filesystem path of one of the shipped scenario documents."""
    stem = name.removesuffix(".cfg")
    if stem not in BUNDLED_CONFIGS:
        raise ConfigError(f"unknown bundled config '{name}'; "
                          f"available: {', '.join(BUNDLED_CONFIGS)}")
    return Path(resources.files("corrobs") / "configs" / f"{stem}.cfg")
