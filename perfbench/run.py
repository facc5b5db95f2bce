"""corrobs benchmark: one command for the `flight`, `estimator_study` and
`export` workloads.

    python3 perfbench/run.py --workload flight --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The measured time is split over three worker processes started one
after another (``worker.py``), so that set-up is repeated and no single
process placement decides the result.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  A result file
with the machine record is written under ``perfbench/out/``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
WORKERS = 3
WORKER_TIMEOUT_S = 150

# Layers of a tick, in the order the engine calls them.
TICK_LAYERS = (
    "sensors.measure", "ekf.predict", "ekf.update", "control.trajectory_point",
    "control.position_control", "control.attitude_control",
    "control.uncertainty_rescale", "plant.input_acceleration_scalars",
    "plant.step_plant", "estimators.step_corrector", "estimators.step_observer",
    "fractional.relay_step",
)
ESTIMATOR_LAYERS = ("estimators.step_corrector", "estimators.step_observer",
                    "fractional.relay_step")
EXPORT_LAYERS = ("engine.to_csv", "engine.from_csv", "engine.metrics")
ACCURACY = (("steady_pos_err_m", "m"), ("ekf_to_corrector_ratio", "ratio"),
            ("uncertainty_rms_frac", "frac"), ("worst_convergence_s", "s"))
END_TO_END = (("items_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Each workload's own name for `items_per_s`, and the export phases.
RATE_NAMES = {"flight": "ticks_per_s", "estimator_study": "estimator_steps_per_s",
              "export": "export_rows_per_s"}
PHASE_NAMES = {"write": "csv_write_rows_per_s", "read": "csv_read_rows_per_s",
               "metrics": "metrics_rows_per_s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {}
    for layer in TICK_LAYERS:
        units[f"{layer}.self_us_per_tick"] = "us"
        units[f"{layer}.calls_per_tick"] = "count"
    units["engine.run_scenario.self_us_per_tick"] = "us"
    for layer in ESTIMATOR_LAYERS:
        units[f"{layer}.self_us_per_call"] = "us"
    units["fractional.relay_step.calls_per_step"] = "count"
    for layer in EXPORT_LAYERS:
        units[f"{layer}.us_per_row"] = "us"
    units["engine.to_csv.bytes_per_row"] = "B"
    units["config.load_scenario.ms"] = "ms"
    units["setup.import_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    units.update(ACCURACY)
    return units


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record() -> dict:
    """What every output file must name: the machine and the code measured."""
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((SRC / "corrobs").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
    }


def best(rates) -> float:
    # The fastest operation of the run, not the median: neighbours on a shared
    # machine slow whole stretches of a run by up to 1.6x, which moves a
    # median by far more than a regression worth catching.
    return max(rates, default=0.0)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def spawn(spec: dict) -> dict:
    """Run one worker to completion and return what it printed."""
    proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def combine(workload: str, runs: list[dict], traced: bool) -> dict:
    """Merge the workers' results into the run's figures."""
    first = runs[0]
    combined = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "operations": sum(len(r["rates"]) for r in runs),
        "report": first["report"],
        "figures": {},
    }
    fig = combined["figures"]
    rate = best(x for r in runs for x in r["rates"])
    fig[RATE_NAMES[workload]] = (rate, "1/s")
    fig[f"{RATE_NAMES[workload]}_median"] = (
        _median(x for r in runs for x in r["rates"]), "1/s")
    for phase, name in PHASE_NAMES.items():
        if phase in first["phase_rates"]:
            fig[name] = (best(x for r in runs for x in r["phase_rates"][phase]), "1/s")
    fig["items_per_s"] = (rate, "1/s")
    fig["setup_s"] = (_median(r["import_s"] + r["setup_s"] for r in runs), "s")
    fig["peak_rss_mb"] = (_median(r["peak_rss_mb"] for r in runs), "MiB")
    fig["failed_fraction"] = (_per(combined["failed"], combined["attempted"]), "frac")
    for name, unit in ACCURACY:
        if name in first["report"]:
            fig[name] = (first["report"][name], unit)
    if traced:
        combined["layers"], combined["trace_checks"] = layer_metrics(runs, rate)
        if combined["trace_checks"]["count_drift"]:
            combined["failures"].append("call counts drifted between traced repeats")
        if not combined["trace_checks"]["self_times_sum_to_root"]:
            combined["failures"].append("self times do not sum to the root span")
    return combined


def layer_metrics(runs: list[dict], untraced_rate: float) -> tuple[dict, dict]:
    """Per-layer figures summed over the workers' traced operations."""
    totals: dict[str, dict[str, float]] = {}
    for r in runs:
        for name, v in r["layers"].items():
            t = totals.setdefault(name, {"calls": 0, "self_ns": 0.0, "total_ns": 0.0})
            for key in t:
                t[key] += v[key]
    ticks = sum(r["ticks"] for r in runs)
    rows = sum(r["rows"] for r in runs)

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0.0)

    m = {}
    for layer in TICK_LAYERS:
        m[f"{layer}.self_us_per_tick"] = _per(get(layer, "self_ns") / 1e3, ticks)
        m[f"{layer}.calls_per_tick"] = _per(get(layer, "calls"), ticks)
    m["engine.run_scenario.self_us_per_tick"] = _per(
        get("engine.run_scenario", "self_ns") / 1e3, ticks)
    for layer in ESTIMATOR_LAYERS:
        m[f"{layer}.self_us_per_call"] = _per(get(layer, "self_ns") / 1e3,
                                              get(layer, "calls"))
    m["fractional.relay_step.calls_per_step"] = _per(
        get("fractional.relay_step", "calls"), get("estimators.step_corrector", "calls"))
    for layer in EXPORT_LAYERS:
        m[f"{layer}.us_per_row"] = _per(get(layer, "total_ns") / 1e3, rows)
    m["engine.to_csv.bytes_per_row"] = (runs[0]["report"].get("bytes_per_row", 0.0)
                                        if rows else 0.0)
    loads = [r["load_scenario_s"] for r in runs if r["load_scenario_s"] is not None]
    m["config.load_scenario.ms"] = _median(loads) * 1e3
    m["setup.import_s"] = _median(r["import_s"] for r in runs)
    m["trace.overhead_frac"] = _per(best(x for r in runs for x in r["traced_rates"]),
                                    untraced_rate) - 1.0
    for name, _ in ACCURACY:
        m[name] = runs[0]["report"].get(name, 0.0)

    counts = [c for r in runs for c in r["calls_per_op"]]
    checks = {"count_drift": any(c != counts[0] for c in counts[1:]),
              "self_times_sum_to_root": all(r["self_sum_ok"] for r in runs),
              "calls_per_op": counts[0] if counts else {}}
    return m, checks


def recorded_digest(seed: int, duration: float) -> str | None:
    """Flight trace digest recorded at the seed commit, if one exists."""
    recorded = json.loads((BENCH / "digests.json").read_text())["flight"]
    if duration != recorded["duration_s"]:
        return None
    return recorded["sha256"].get(str(seed))


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              size: dict | None = None, workers: int = WORKERS) -> dict:
    """Run one workload, print its figures and return the result line."""
    OUT.mkdir(parents=True, exist_ok=True)
    machine = machine_record()
    runs = [spawn({"workload": workload, "seed": seed, "seconds": seconds / workers,
                   "trace": trace, "size": size, "check": k == 0, "out": str(OUT),
                   "spans": f"{workload}-spans-{k}.npz", "machine": machine})
            for k in range(workers)]
    result = combine(workload, runs, trace)
    report = result["report"]
    if workload == "flight":
        recorded = recorded_digest(seed, report["duration_s"])
        report["trace_sha256_recorded"] = recorded
        report["trace_matches_recorded"] = (None if recorded is None
                                            else recorded == report["trace_sha256"])
        print(f"flight trace sha256 {report['trace_sha256']} "
              f"(matches the digest recorded at the seed commit: "
              f"{report['trace_matches_recorded']})")

    print(f"{workload} seed={seed} trace={int(trace)}: {workers} workers, "
          f"{result['operations']} timed operations, {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    for name, (value, unit) in result["figures"].items():
        print(f"{name} {value:.6g} {unit}")
    if trace:
        units = per_layer_units()
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, u in units.items()}
        for name, entry in metrics.items():
            if name not in result["figures"]:
                print(f"{name} {entry['value']:.6g} {entry['unit']}")
        print(f"spans written to {OUT.relative_to(ROOT)}/{workload}-spans-*.npz")
    else:
        metrics = {n: {"value": result["figures"][n][0], "unit": u} for n, u in END_TO_END}

    doc = {"machine": machine, "workload": workload, "seed": seed, "seconds": seconds,
           "trace": int(trace), "workers": runs, "metrics": metrics,
           **{k: v for k, v in result.items() if k != "figures"},
           "figures": {n: {"value": v, "unit": u} for n, (v, u) in result["figures"].items()}}
    (OUT / f"{workload}-trace{int(trace)}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return {"correct": result["failed"] == 0 and not result["failures"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATE_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "corrobs" / "__init__.py").is_file():
        print(f"error: no corrobs package under {SRC}", file=sys.stderr)
        return 2
    try:
        final = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
