"""One benchmark worker process: set a workload up, then time its operations.

    python3 perfbench/worker.py '<json spec>'

The spec gives the workload, seed, seconds, trace flag, size, whether to run
the workload's check, and where to write spans.  The worker prints one JSON
object with its set-up time, per-operation rates, failures and, when traced,
per-layer sums.  `run.py` starts the workers one after another and combines
what they print.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def make_workload(name: str, seed: int, workdir: Path, size: dict | None = None):
    from workloads import EstimatorStudy, Export, Flight

    size = size or {}
    if name == "flight":
        return Flight(seed, **size)
    if name == "estimator_study":
        return EstimatorStudy(seed, **size)
    if name == "export":
        return Export(seed, workdir, **size)
    raise ValueError(f"unknown workload: {name}")


def _rates(outcomes, seconds=lambda o: o.seconds) -> list[float]:
    """Items per second of each successful operation."""
    return [o.items / seconds(o) for o in outcomes if not o.failed and o.items]


def run_worker(workload, seconds: float, traced: bool, check: bool = True):
    """Set up, check, repeat operations for `seconds`; returns (result, tracer).

    In a traced run untraced and traced operations alternate, so that both
    see the same machine state and their ratio gives the tracing overhead.
    """
    from tracer import Tracer

    t0 = perf_counter()
    load_s = workload.setup()
    setup_s = perf_counter() - t0
    checked = workload.check() if check else None

    tracer = Tracer()
    plain, traced_ops, spans = [], [], []
    t_start = perf_counter()
    while True:
        plain.append(workload.op(tracer))
        if traced:
            first = len(tracer)
            with tracer.patched():
                traced_ops.append(workload.op(tracer))
            spans.append((first, len(tracer)))
        if perf_counter() - t_start >= seconds:
            break

    ops = plain + traced_ops + ([checked] if checked else [])
    result = {
        "setup_s": setup_s,
        "load_scenario_s": load_s,
        "attempted": sum(o.attempted for o in ops),
        "failed": sum(o.failed for o in ops),
        "failures": [f for o in ops for f in o.failures][:20],
        "rates": _rates(plain),
        "phase_rates": {phase: _rates(plain, lambda o, p=phase: o.phases[p])
                        for phase in (plain[0].phases if plain else {})},
        "report": workload.report(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        arrays = tracer.arrays()
        ok = [o for o in traced_ops if not o.failed]
        result.update({
            "traced_rates": _rates(traced_ops),
            "layers": tracer.summary(),
            "calls_per_op": [{n: v["calls"] for n, v in tracer.summary(a, b).items()}
                             for a, b in spans],
            # The self times of an operation's spans add up to its root span.
            "self_sum_ok": all(int(arrays["self"][a:b].sum()) == int(arrays["dur"][a])
                               for a, b in spans if b > a),
            "ticks": workload.ticks_per_op * len(ok),
            "rows": sum(o.items for o in ok) if workload.name == "export" else 0,
        })
    return result, tracer


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import corrobs
    import_s = perf_counter() - t0
    if SRC not in Path(corrobs.__file__).resolve().parents:
        print(f"error: corrobs imported from {corrobs.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    out = Path(spec["out"])
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        workload = make_workload(spec["workload"], spec["seed"], Path(workdir),
                                 spec.get("size"))
        result, tracer = run_worker(workload, spec["seconds"], spec["trace"],
                                    spec["check"])
    result["import_s"] = import_s
    if spec["trace"]:
        tracer.write(out / spec["spans"], spec["machine"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
