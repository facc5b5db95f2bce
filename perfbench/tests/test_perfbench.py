"""Tests of the benchmark harness at tiny sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracer import patch_points  # noqa: E402
from worker import run_worker  # noqa: E402
from workloads import Flight  # noqa: E402

TINY = {
    "flight": {"duration": 8.0, "settle": 5.0, "op_duration": 0.5},
    "estimator_study": {"starts": 2},
    "export": {"duration": 0.5},
}


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    final = bench.benchmark(workload, 7, 0.0, bool(trace), TINY[workload], workers=1)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in final["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in final["metrics"].values())
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1


def test_traced_flight_self_times_sum_to_root_and_counts_repeat():
    flight = Flight(3, **TINY["flight"])
    result, _ = run_worker(flight, 0.0, True)
    assert result["self_sum_ok"] and result["failed"] == 0
    calls = result["calls_per_op"][0]
    ticks = flight.ticks_per_op
    assert calls["estimators.step_corrector"] == 6 * ticks
    assert calls["fractional.relay_step"] == 12 * ticks


def test_untraced_run_after_traced_run_gives_the_same_trace():
    from corrobs import engine, estimators, fractional

    traced = Flight(5, **TINY["flight"])
    result, _ = run_worker(traced, 0.0, True)
    assert result["failed"] == 0  # traced repeats match the untraced one
    plain = Flight(5, **TINY["flight"])
    run_worker(plain, 0.0, False)
    assert plain.op_digest == traced.op_digest and plain.digest == traced.digest
    assert engine.step_corrector is estimators.step_corrector
    assert estimators.relay_step is fractional.relay_step
    for _, owner, attr in patch_points():
        assert not hasattr(getattr(owner, attr), "__wrapped__")


class _Divergent(Flight):
    """Flight whose scenario is broken after set-up by `change`."""

    def __init__(self, change, **size):
        super().__init__(1, **size)
        self.change = change

    def setup(self):
        loaded = super().setup()
        self.cfg = self.change(self.cfg)
        self.op_cfg = self.change(self.op_cfg)
        return loaded


@pytest.mark.parametrize("change", [
    lambda cfg: replace(cfg, ekf=replace(cfg.ekf, q=1e300)),
    lambda cfg: replace(cfg, initial_offset=(math.inf,) + (0.0,) * 11),
], ids=["EkfDivergence", "SimulationDiverged"])
def test_divergent_config_counts_as_failure(change):
    result, _ = run_worker(_Divergent(change, **TINY["flight"]), 0.0, False)
    assert result["attempted"] == result["failed"] == 2
    assert result["rates"] == []


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flight", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
