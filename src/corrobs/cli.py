"""Command-line front end.

Subcommands:

    run             simulate a scenario, write trace.csv and metrics.json
    validate        check estimator parameter selection rules in a config
    analyze         describing-function analysis, write analysis.json
    sweep           run a parameter sweep, write sweep.csv
    compare-ekf     corrector versus EKF error report, comparison.json
    decouple-check  structural estimator-independence check

Exit codes: 0 success, 1 config error, 2 numerical divergence,
3 validation failure.  Outputs are deterministic: re-running a subcommand
with identical inputs rewrites identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import freq
from .config import BUNDLED_CONFIGS, ConfigError, bundled_config_path, load_scenario
from .engine import (SWEEPABLE_PARAMETERS, SimulationDiverged, decoupling_check,
                     metrics, run_scenario, sweep_parameter)
from .plant import AXIS_NAMES

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_VALIDATION = 3


def _config_path(args) -> Path:
    path = Path(args.config)
    if not path.exists() and path.stem in BUNDLED_CONFIGS and path.parent == Path("."):
        path = bundled_config_path(path.stem)
    return path


def _load(args) -> "ScenarioConfig":  # noqa: F821
    cfg = load_scenario(_config_path(args))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "duration", None) is not None:
        cfg = replace(cfg, duration=args.duration)
    return cfg


def _load_raw(args) -> dict:
    path = _config_path(args)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_run(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    trace = run_scenario(cfg)
    out.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out / "trace.csv")
    summary = metrics(trace, settle=min(args.settle, cfg.duration / 2.0), scenario=cfg)
    _write_json(out / "metrics.json", summary)
    worst = max(summary["corrector"][a]["max"] for a in AXIS_NAMES[:3])
    print(f"wrote {out / 'trace.csv'} and {out / 'metrics.json'}")
    print(f"corrector steady position error (max over x,y,z): {worst:.4g} m")
    return EXIT_OK


def cmd_validate(args) -> int:
    # Validating out-of-range parameters is the point here, so read the raw
    # document values instead of constructing the (strict) scenario objects.
    doc = _load_raw(args)
    from .config import _get, _trajectory
    _trajectory(doc)  # an unknown trajectory kind is a config error here too
    ok = True
    warned = False
    for group in ("position", "attitude"):
        rep = freq.validate_corrector_params(
            float(_get(doc, f"corrector.{group}.k1")),
            float(_get(doc, f"corrector.{group}.k2")),
            float(_get(doc, f"corrector.{group}.alpha_c")),
            float(_get(doc, f"corrector.{group}.eps_c")))
        ok &= rep.stable
        warned |= not rep.oscillation_free
        print(f"corrector/{group}: stable={rep.stable} "
              f"oscillation_free={rep.oscillation_free}")
        for m in rep.messages:
            print(f"  {m}")
    for group in ("position", "attitude"):
        rep = freq.validate_observer_params(
            float(_get(doc, f"observer.{group}.k3")),
            float(_get(doc, f"observer.{group}.k4")),
            float(_get(doc, f"observer.{group}.alpha_o")),
            float(_get(doc, f"observer.{group}.eps_o")))
        ok &= rep.stable
        warned |= not rep.oscillation_free
        print(f"observer/{group}: stable={rep.stable} "
              f"oscillation_free={rep.oscillation_free}")
        for m in rep.messages:
            print(f"  {m}")
    if not ok:
        print("validation FAILED: unstable parameter set")
        return EXIT_VALIDATION
    print("validation passed" + (" (with oscillation warnings)" if warned else ""))
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _load(args)
    if args.amplitude <= 0:
        print("amplitude must be positive", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)
    doc: dict = {"amplitude": args.amplitude, "estimators": {}}
    for label, p in (("corrector_position", cfg.correctors[0]),
                     ("corrector_attitude", cfg.correctors[3])):
        lin = freq.linearize_corrector(p, args.amplitude, args.amplitude)
        doc["estimators"][label] = {
            "omega_coeff_position_term": freq.omega_coefficient(p.kappa),
            "omega_coeff_velocity_term": freq.omega_coefficient(p.alpha_c),
            "natural_frequency": freq.corrector_natural_frequency(p, args.amplitude),
            "eigenvalues_real": [float(e.real) for e in lin.eigenvalues()],
            "eigenvalues_imag": [float(e.imag) for e in lin.eigenvalues()],
        }
    for label, p in (("observer_position", cfg.observers[0]),
                     ("observer_attitude", cfg.observers[3])):
        lin = freq.linearize_observer(p, args.amplitude)
        doc["estimators"][label] = {
            "omega_coeff_innovation_term": freq.omega_coefficient(0.5 * (1 + p.alpha_o)),
            "omega_coeff_uncertainty_term": freq.omega_coefficient(p.alpha_o),
            "natural_frequency": freq.observer_natural_frequency(p, args.amplitude),
            "eigenvalues_real": [float(e.real) for e in lin.eigenvalues()],
            "eigenvalues_imag": [float(e.imag) for e in lin.eigenvalues()],
        }
    _write_json(out / "analysis.json", doc)
    print(f"wrote {out / 'analysis.json'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    if args.param not in SWEEPABLE_PARAMETERS:
        print(f"unknown sweep parameter '{args.param}'; sweepable: "
              f"{', '.join(sorted(SWEEPABLE_PARAMETERS))}", file=sys.stderr)
        return EXIT_CONFIG
    values = [float(v) for v in args.values.split(",") if v]
    if not values:
        print("no sweep values given", file=sys.stderr)
        return EXIT_CONFIG
    result = sweep_parameter(cfg, args.param, values,
                             settle=min(args.settle, cfg.duration / 2.0),
                             jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    keys = list(result.rows[0].keys())
    lines = [",".join(keys)]
    for row in result.rows:
        lines.append(",".join("%.17g" % row[k] for k in keys))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'sweep.csv'} ({len(values)} rows)")
    return EXIT_OK


def cmd_compare_ekf(args) -> int:
    cfg = _load(args)
    trace = run_scenario(cfg)
    summary = metrics(trace, settle=min(args.settle, cfg.duration / 2.0), scenario=cfg)
    doc: dict = {"per_axis": {}, "settle": summary["settle"]}
    ratios = []
    for a in AXIS_NAMES[:3]:
        corr = summary["corrector"][a]
        ekf = summary["ekf"][a]
        ratio = ekf["rms"] / corr["rms"] if corr["rms"] > 0 else float("inf")
        ratios.append(ratio)
        doc["per_axis"][a] = {"corrector_rms": corr["rms"], "corrector_max": corr["max"],
                              "ekf_rms": ekf["rms"], "ekf_max": ekf["max"],
                              "ekf_to_corrector_rms_ratio": ratio}
    doc["min_ratio"] = min(ratios)
    doc["max_ratio"] = max(ratios)
    mean_corr = sum(summary["corrector"][a]["rms"] for a in AXIS_NAMES[:3]) / 3.0
    mean_ekf = sum(summary["ekf"][a]["rms"] for a in AXIS_NAMES[:3]) / 3.0
    doc["aggregate_ratio"] = mean_ekf / mean_corr if mean_corr > 0 else float("inf")
    out = Path(args.out)
    _write_json(out / "comparison.json", doc)
    print(f"wrote {out / 'comparison.json'}; EKF/corrector RMS ratio in "
          f"[{min(ratios):.3g}, {max(ratios):.3g}]")
    return EXIT_OK


def cmd_decouple_check(args) -> int:
    cfg = _load(args)
    report = decoupling_check(cfg)
    print(json.dumps({"decoupled": report.decoupled,
                      "corrector_unaffected": report.corrector_unaffected,
                      "observer_unaffected": report.observer_unaffected,
                      "first_divergence": report.first_divergence}, indent=2))
    return EXIT_OK if report.decoupled else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrobs",
        description="Decoupled signal correction and uncertainty observation "
                    "for large-error sensing; quadrotor simulation front end.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True,
                       help="scenario document path, or a bundled name: "
                            + ", ".join(BUNDLED_CONFIGS))
        if needs_out:
            p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--duration", type=float, default=None,
                       help="duration override, seconds")
        p.add_argument("--settle", type=float, default=20.0,
                       help="settling time before steady-state metrics")

    p = sub.add_parser("run", help="simulate and write trace + metrics")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate", help="check parameter selection rules")
    common(p, needs_out=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="describing-function analysis")
    common(p)
    p.add_argument("--amplitude", type=float, default=1.0,
                   help="innovation oscillation amplitude")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="parameter sweep")
    common(p)
    p.add_argument("--param", required=True,
                   help="one of: " + ", ".join(sorted(SWEEPABLE_PARAMETERS)))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--jobs", type=int, default=1, help="parallel scenario runs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare-ekf", help="corrector vs EKF error report")
    common(p)
    p.set_defaults(func=cmd_compare_ekf)

    p = sub.add_parser("decouple-check", help="estimator independence check")
    common(p, needs_out=False)
    p.set_defaults(func=cmd_decouple_check)
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
