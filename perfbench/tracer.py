"""Span recorder that instruments corrobs from outside the package.

`Tracer.patched()` replaces the public entry points at the places the engine
looks them up (module attributes of ``corrobs.engine`` and
``corrobs.estimators``, methods of the sensor, trajectory and trace classes)
with wrappers that record one span per call, and puts every original back
when the block ends.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent): times are ``perf_counter_ns`` values
and the parent is the index of the enclosing span, or -1 at the root.  Spans
are appended to flat arrays while the run goes on and are summarised or
written out after it.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


def patch_points():
    """(layer, owner, attribute) for every wrapped entry point."""
    from corrobs import engine, estimators
    from corrobs.control import CircleTrajectory
    from corrobs.sensors import SensorSuite

    return [
        ("estimators.step_corrector", engine, "step_corrector"),
        ("estimators.step_observer", engine, "step_observer"),
        ("plant.step_plant", engine, "step_plant"),
        ("plant.input_acceleration_scalars", engine, "input_acceleration_scalars"),
        ("ekf.predict", engine, "ekf_predict"),
        ("ekf.update", engine, "ekf_update"),
        ("control.position_control", engine, "position_control"),
        ("control.attitude_control", engine, "attitude_control"),
        ("control.uncertainty_rescale", engine, "uncertainty_rescale"),
        ("fractional.relay_step", estimators, "relay_step"),
        ("sensors.measure", SensorSuite, "measure"),
        ("control.trajectory_point", CircleTrajectory, "point"),
        ("engine.to_csv", engine.TraceLog, "to_csv"),
        ("engine.from_csv", engine.TraceLog, "from_csv"),
    ]


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.enabled = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        # A plain closure rather than `span`: it runs about 40 times per tick,
        # and a generator-based context manager costs more per call.
        nid = self._id(name)
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the harness (a root or a call site)."""
        if not self.enabled:
            yield
            return
        nid = self._id(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def patched(self):
        """Wrap every entry point for the duration of the block, then restore."""
        saved = []
        try:
            for layer, owner, attr in patch_points():
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    if isinstance(original, classmethod):
                        wrapper = classmethod(self._wrap(layer, original.__func__))
                    else:
                        wrapper = self._wrap(layer, original)
                else:
                    original = getattr(owner, attr)
                    wrapper = self._wrap(layer, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with durations and self times in ns."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        # Durations stay far below 2**53 ns, so float64 sums are exact.
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur)).astype(np.int64)
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child}

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, dict]:
        """Per name: calls, total and self time in ns, over spans [first, last)."""
        a = self.arrays()
        sl = slice(first, last)
        ids = a["name_id"][sl]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=a["dur"][sl], minlength=n)
        self_ns = np.bincount(ids, weights=a["self"][sl], minlength=n)
        return {name: {"calls": int(calls[i]), "total_ns": float(total[i]),
                       "self_ns": float(self_ns[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def write(self, path, machine: dict) -> None:
        """Write all spans, the name table and the machine record to an .npz file."""
        a = self.arrays()
        np.savez_compressed(path, name_id=a["name_id"], parent=a["parent"],
                            start=a["start"], end=a["end"],
                            names=np.array(self.names),
                            machine=np.array(json.dumps(machine, sort_keys=True)))
