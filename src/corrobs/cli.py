"""Command-line front end.

Subcommands:

    run             simulate a scenario, write trace.csv and metrics.json
    validate        check estimator parameter selection rules in a config
    analyze         describing-function analysis, write analysis.json
    sweep           run a parameter sweep, write sweep.csv
    compare-ekf     corrector versus EKF error report, comparison.json
    decouple-check  structural estimator-independence check

Exit codes: 0 success; 1 a usage error, or a config error (a refused
document value, flag value or scenario) on one line naming its key or flag;
2 numerical divergence; 3 validation failure.  Any other error is a fault of
the program and ends in a traceback.  Outputs are deterministic: re-running a
subcommand with identical inputs rewrites identical bytes.

`validate` prints the selection-rule report of every estimator group, then
checks the rest of the document as `run` does.  A config error there exits 1
even when a rule has failed too; a rule failure alone exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import freq
from .config import (BUNDLED_CONFIGS, bundled_config_path, estimator_values,
                     read_document, scenario_from_dict, scenario_to_dict)
from .engine import (SWEEPABLE_PARAMETERS, ScenarioConfig, SimulationDiverged, _ratio,
                     decoupling_check, metrics, run_scenario, sweep_parameter, write_csv)
from .plant import AXIS_NAMES, ConfigError, range_faults

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VALIDATION = 3


def _config_path(args) -> Path:
    path = Path(args.config)
    if not path.exists() and str(path).removesuffix(".cfg") in BUNDLED_CONFIGS:
        path = bundled_config_path(str(path))
    return path


def _with_overrides(args, cfg: ScenarioConfig) -> ScenarioConfig:
    """``cfg`` with the ``--seed`` and ``--duration`` the subcommand takes; a
    value the scenario refuses is a ConfigError naming its flag."""
    for name in ("seed", "duration"):
        value = getattr(args, name, None)
        if value is not None:
            try:
                cfg = replace(cfg, **{name: value})
            except ConfigError as exc:
                raise ConfigError(f"--{name} {value}: {exc}") from exc
    return cfg


def _load(args) -> ScenarioConfig:
    return _with_overrides(args, scenario_from_dict(read_document(_config_path(args))))


def _settle(args, cfg: ScenarioConfig) -> float:
    """The ``--settle`` time, at most half the scenario's duration."""
    return min(args.settle, cfg.duration / 2.0)


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_run(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    trace = run_scenario(cfg)
    summary = metrics(trace, settle=_settle(args, cfg), scenario=cfg)
    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out / "trace.csv")
    _write_json(out / "metrics.json", summary)
    worst = max(summary["corrector"][a]["max"] for a in AXIS_NAMES[:3])
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.json'}")
    print(f"corrector steady position error (max over x,y,z): {worst:.4g} m")
    return EXIT_OK


def cmd_validate(args) -> int:
    # The selection rules report on out-of-range estimator parameters, which
    # the scenario objects refuse, so they read the plain document values.
    # The whole config is then built as `run` builds it, with the default
    # parameters standing in for each group a rule refuses.
    doc = read_document(_config_path(args))
    rules = {"corrector": freq.validate_corrector_params,
             "observer": freq.validate_observer_params}
    stand_in = scenario_to_dict(ScenarioConfig())
    checked = json.loads(json.dumps(doc))
    stable = oscillation_free = True
    for section, values in estimator_values(doc).items():
        group, axis = section.split(".")
        rep = rules[group](**values)
        stable &= rep.stable
        oscillation_free &= rep.oscillation_free
        print(f"{group}/{axis}: stable={rep.stable} oscillation_free={rep.oscillation_free}",
              *(f"  {m}" for m in rep.messages), sep="\n")
        if not rep.stable:
            checked[group][axis].update(stand_in[group][axis])
    _with_overrides(args, scenario_from_dict(checked))
    if not stable:
        print("validation FAILED: unstable parameter set")
        return EXIT_VALIDATION
    print("validation passed" + ("" if oscillation_free else " (with oscillation warnings)"))
    return EXIT_OK


def _linearized(cfg: ScenarioConfig, amp: float):
    """Per estimator of ``cfg``, in `analyze`'s order: its label, its two
    describing-function terms' exponents by term name, and its natural
    frequency and companion matrix at amplitude ``amp``.  Each is evaluated
    only when the loop reaches it, so a refused estimator stops `analyze`
    before the next one's model can fail in its own way."""
    for group, c, o in zip(("position", "attitude"), cfg.correctors, cfg.observers):
        yield (f"corrector_{group}", {"position": c.kappa, "velocity": c.alpha_c},
               freq.corrector_natural_frequency(c, amp), freq.linearize_corrector(c, amp, amp))
        yield (f"observer_{group}", {"innovation": o.beta, "uncertainty": o.alpha_o},
               freq.observer_natural_frequency(o, amp), freq.linearize_observer(o, amp))


def cmd_analyze(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    amp = args.amplitude
    doc: dict = {"amplitude": amp, "estimators": {}}
    for label, exponents, omega, matrix in _linearized(cfg, amp):
        if not np.isfinite(matrix).all():
            raise ConfigError(f"--amplitude {amp}: the linearized {label} overflows")
        eig = np.linalg.eigvals(matrix)
        doc["estimators"][label] = {
            **{f"omega_coeff_{t}_term": freq.omega_coefficient(e) for t, e in exponents.items()},
            "natural_frequency": omega,
            "eigenvalues_real": eig.real.tolist(), "eigenvalues_imag": eig.imag.tolist()}
    _write_json(out / "analysis.json", doc)
    print(f"wrote {out / 'analysis.json'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    result = sweep_parameter(cfg, args.param, args.values, settle=_settle(args, cfg),
                             jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    keys = list(result.rows[0])
    write_csv(out / "sweep.csv", keys, [[row[k] for k in keys] for row in result.rows])
    print(f"wrote {out / 'sweep.csv'} ({len(result.rows)} rows)")
    return EXIT_OK


def cmd_compare_ekf(args) -> int:
    cfg = _load(args)
    summary = metrics(run_scenario(cfg), settle=_settle(args, cfg), scenario=cfg)
    corr, ekf = summary["corrector"], summary["ekf"]
    per_axis = {a: {"corrector_rms": corr[a]["rms"], "corrector_max": corr[a]["max"],
                    "ekf_rms": ekf[a]["rms"], "ekf_max": ekf[a]["max"],
                    "ekf_to_corrector_rms_ratio": _ratio(ekf[a]["rms"], corr[a]["rms"])}
                for a in AXIS_NAMES[:3]}
    # A 0 corrector RMS leaves an axis's ratio None.
    ratios = [e["ekf_to_corrector_rms_ratio"] for e in per_axis.values()]
    ratios = [r for r in ratios if r is not None]
    mean = {k: sum(e[k] for e in per_axis.values()) / 3.0 for k in ("corrector_rms", "ekf_rms")}
    doc = {"per_axis": per_axis, "settle": summary["settle"],
           "min_ratio": min(ratios, default=None), "max_ratio": max(ratios, default=None),
           "aggregate_ratio": _ratio(mean["ekf_rms"], mean["corrector_rms"])}
    out = Path(args.out)
    _write_json(out / "comparison.json", doc)
    span = (f"in [{doc['min_ratio']:.3g}, {doc['max_ratio']:.3g}]" if ratios
            else "undefined: the corrector RMS is 0")
    print(f"wrote {out / 'comparison.json'}; EKF/corrector RMS ratio {span}")
    return EXIT_OK


def cmd_decouple_check(args) -> int:
    cfg = _load(args)
    report = decoupling_check(cfg)
    print(json.dumps({"decoupled": report.decoupled,
                      "corrector_unaffected": report.corrector_unaffected,
                      "observer_unaffected": report.observer_unaffected,
                      "first_divergence": report.first_divergence}, indent=2))
    return EXIT_OK if report.decoupled else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line with the config exit code,
    since argparse's own code, 2, means numerical divergence here."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _number_arg(rule: str):
    """An argparse type: the float a flag's text reads as, if it keeps
    ``rule``, a range rule of `plant.check_range`."""

    def number(text: str) -> float:
        value = float(text)     # argparse reports text that is not a number
        faults = range_faults(rule, value=value)
        if faults:
            raise argparse.ArgumentTypeError(faults[0])
        return value

    return number


def _values_arg(text: str) -> list[float]:
    """An argparse type: the comma-separated numbers of ``--values``, at
    least one (the length rule of `plant.check_range`)."""
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    faults = range_faults("nonempty", values=values)
    if faults:
        raise argparse.ArgumentTypeError(faults[0])
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrobs",
        description="Decoupled signal correction and uncertainty observation "
                    "for large-error sensing; quadrotor simulation front end.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--out": dict(default="out", help="output directory"),
        "--seed": dict(type=int, default=None, help="seed override"),
        "--duration": dict(type=float, default=None, help="duration override, seconds"),
        "--settle": dict(type=_number_arg("nonnegative"),
                         default=20.0, help="settling time before steady-state metrics"),
    }

    def subcommand(name, func, summary, *names):
        """A subcommand that takes ``--config`` and the flags ``names``."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True,
                       help="scenario document path, or a bundled name: "
                            + ", ".join(BUNDLED_CONFIGS))
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
        return p

    run_flags = ("--out", "--seed", "--duration", "--settle")
    subcommand("run", cmd_run, "simulate and write trace + metrics", *run_flags)
    subcommand("validate", cmd_validate, "check parameter selection rules",
               "--seed", "--duration")
    p = subcommand("analyze", cmd_analyze, "describing-function analysis", "--out")
    p.add_argument("--amplitude", default=1.0,
                   type=_number_arg("positive"),
                   help="innovation oscillation amplitude")
    p = subcommand("sweep", cmd_sweep, "parameter sweep", *run_flags)
    p.add_argument("--param", required=True,
                   help="one of: " + ", ".join(sorted(SWEEPABLE_PARAMETERS)))
    p.add_argument("--values", required=True, type=_values_arg,
                   help="comma-separated values")
    p.add_argument("--jobs", type=int, default=1, help="parallel scenario runs")
    subcommand("compare-ekf", cmd_compare_ekf, "corrector vs EKF error report", *run_flags)
    subcommand("decouple-check", cmd_decouple_check, "estimator independence check",
               "--seed", "--duration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationDiverged as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
