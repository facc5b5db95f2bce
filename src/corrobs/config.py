"""Scenario documents: JSON-compatible key/value files with nested sections.

A scenario file fully determines a simulation run (plant constants,
uncertainty model, sensing, estimator and control parameters, EKF tuning,
trajectory, seed).  Three reference documents ship with the package:

    paper_sec6.cfg   flight replication: circle trajectory, ~20 m position
                     bias with dropouts, non-Gaussian noise
    paper_fig5.cfg   uncertainty-estimation run with the sinusoidal
                     disturbance set and no dropouts
    noise_only.cfg   unbiased small-noise scenario on which the EKF
                     baseline's q was grid-searched

A document is the scenario dataclasses written out: each section holds the
fields of the dataclass it builds under their field names, and a key left
out takes the field's default (the README lists the sections).  The tables
below hold only what the dataclasses cannot say.  A field held under several
keys holds one entry per key: a (position group, attitude group) pair under
two, one entry per axis under six.  Loading refuses a value of the wrong
type and a key that saving would not write back, naming the dotted key.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .engine import ScenarioConfig
from .plant import AXIS_NAMES, ConfigError, check_range

__all__ = ["load_scenario", "read_document", "scenario_from_dict", "scenario_to_dict",
           "save_scenario", "estimator_values", "bundled_config_path", "BUNDLED_CONFIGS"]

BUNDLED_CONFIGS = ("paper_sec6", "paper_fig5", "noise_only")


# Keys a document must give although the dataclass has a default (dotted
# paths from the top); a section named here needs every one of its keys.
_REQUIRED = frozenset({"duration", "seed", "uav", "control"})

# The document keys of each field not held under its own name (field names
# are unique across the scenario dataclasses), relative to the section of the
# dataclass that owns the field; the field's i-th entry is held under the
# i-th key.  Two keys hold a pair: the position group (x, y, z), then the
# attitude group (psi, theta, phi).  Six keys hold one entry per axis.
_KEYS = {
    "gains": ("control",),
    "correctors": ("corrector.position", "corrector.attitude"),
    "observers": ("observer.position", "observer.attitude"),
    "large_error": ("position_large_error", "attitude_large_error"),
    "position_noise": ("position_noise", "angle_noise"),
    "velocity_noise": ("velocity_noise", "rate_noise"),
    "drag": tuple(f"drag.{a}" for a in AXIS_NAMES),
    "delta_sinusoids": tuple(f"delta.{a}.sinusoids" for a in AXIS_NAMES),
}


# The resolved field types of a scenario dataclass; resolving them is most
# of the cost of a load.
_hints = cache(get_type_hints)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{path} must be a JSON object, not {node!r}" if path
                          else "config document must be a JSON object")
    return node


def _lookup(node: dict, key: str, path: str) -> Any:
    """The value at dotted ``key`` in the section ``node`` at ``path``, or MISSING."""
    *outer, last = key.split(".")
    for part in outer:
        path = _join(path, part)
        node = _object(node.get(part, {}), path)
    return node.get(last, MISSING)


def _section(node: dict, key: str, path: str) -> dict:
    """The section at dotted ``key`` in ``node``; empty when it is absent."""
    sub = _lookup(node, key, path)
    return _object({} if sub is MISSING else sub, _join(path, key))


def _value(raw: Any, hint: Any, path: str) -> Any:
    """``raw`` checked against the field type ``hint`` and converted to it.

    Numbers are never coerced from booleans or strings, and an integer field
    takes only an integral number.
    """
    if hint is float:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool) and math.isfinite(raw):
            return float(raw)
        raise ConfigError(f"{path} must be a finite number, not {raw!r}")
    if hint is int:
        if isinstance(raw, bool) or not (isinstance(raw, int) or (
                isinstance(raw, float) and raw.is_integer())):
            raise ConfigError(f"{path} must be an integer, not {raw!r}")
        return int(raw)
    if hint is str:
        if not isinstance(raw, str):
            raise ConfigError(f"{path} must be a string, not {raw!r}")
        return raw
    items = get_args(hint)   # tuple[T, ...] or a fixed-length tuple[T1, T2, ...]
    if items[-1] is Ellipsis:
        if not isinstance(raw, list):
            raise ConfigError(f"{path} must be a list, not {raw!r}")
        items = (items[0],) * len(raw)
    elif not (isinstance(raw, list) and len(raw) == len(items)):
        raise ConfigError(f"{path} must be a list of {len(items)} numbers, not {raw!r}")
    return tuple(_value(v, h, f"{path}[{i}]") for i, (v, h) in enumerate(zip(raw, items)))


def _fields(cls: type, node: dict, path: str, required: bool = False) -> dict:
    """Keyword arguments for dataclass ``cls`` from the document section ``node``."""
    hints = _hints(cls)
    kwargs = {}
    for f in fields(cls):
        keys = _KEYS.get(f.name, (f.name,))
        hint = hints[f.name] if len(keys) == 1 else get_args(hints[f.name])[0]
        parts = []
        for i, key in enumerate(keys):
            where = _join(path, key)
            needed = required or where in _REQUIRED
            if is_dataclass(hint):
                parts.append(_build(hint, _section(node, key, path), where, needed))
                continue
            raw = _lookup(node, key, path)
            if raw is not MISSING:
                parts.append(_value(raw, hint, where))
            elif needed or f.default is MISSING:
                raise ConfigError(f"missing config key: {where}")
            else:
                parts.append(f.default if len(keys) == 1 else f.default[i])
        kwargs[f.name] = parts[0] if len(keys) == 1 else tuple(parts)
    return kwargs


def _build(cls: type, node: dict, path: str, required: bool = False):
    """The ``cls`` that section ``node`` describes.  Every refusal of a
    scenario class opens with the name of the field at fault, so prefixing
    the section's path names the dotted key."""
    kwargs = _fields(cls, node, path, required)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(_join(path, str(exc))) from exc


def _document(obj: Any) -> dict:
    """The document section of dataclass instance ``obj``."""
    out: dict = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        keys = _KEYS.get(f.name, (f.name,))
        for key, part in zip(keys, (value,) if len(keys) == 1 else value):
            *outer, last = key.split(".")
            node = out
            for k in outer:
                node = node.setdefault(k, {})
            node[last] = _document(part) if is_dataclass(part) else _plain(part)
    return out


def _plain(value: Any) -> Any:
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def _unknown_keys(doc: dict, known: dict, path: str = ""):
    for key, value in doc.items():
        where = _join(path, key)
        if key not in known:
            yield where
        elif isinstance(known[key], dict):
            yield from _unknown_keys(value, known[key], where)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """The ScenarioConfig a scenario document describes.

    Raises ``ConfigError`` naming the dotted key for a missing key, a value
    of the wrong type or out of range, and a key the document format does not
    have (one that ``scenario_to_dict`` would not write back).
    """
    cfg = _build(ScenarioConfig, _object(doc, ""), "")
    unknown = list(_unknown_keys(doc, scenario_to_dict(cfg)))
    if unknown:
        raise ConfigError(f"unknown config key{'s' if len(unknown) > 1 else ''}: "
                          + ", ".join(unknown))
    return cfg


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The scenario document of ``cfg``; ``scenario_from_dict`` inverts it exactly."""
    return _document(cfg)


def estimator_values(doc: dict) -> dict[str, dict[str, float]]:
    """The corrector and observer parameters of each group, keyed by section
    (``corrector.position``, ...), type-checked but not range-checked, so
    that the selection rules can report on out-of-range values."""
    hints = _hints(ScenarioConfig)
    return {key: _fields(get_args(hints[name])[0], _section(_object(doc, ""), key, ""), key)
            for name in ("correctors", "observers") for key in _KEYS[name]}


def read_document(path) -> dict:
    """The JSON object in the file at ``path``."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _object(doc, "")


def load_scenario(path) -> ScenarioConfig:
    return scenario_from_dict(read_document(path))


def save_scenario(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def bundled_config_path(name: str) -> Path:
    """Filesystem path of one of the shipped scenario documents."""
    stem = name.removesuffix(".cfg")
    check_range(BUNDLED_CONFIGS, config=stem)
    return Path(resources.files("corrobs") / "configs" / f"{stem}.cfg")
