"""Fly criterion 3's 1000 s flight beside the rest of the suite.

pytest runs the suite in one process, and that flight is its longest test.
When `test_criterion_03_no_drift_1000s` is selected with other tests, the
flight starts in a one-worker process pool as soon as collection ends, so it
runs on a second core while the rest of the suite runs here.  The test is
moved to the end of the run and takes the flight's result.  The flight times
itself, so the test's runtime bound still bounds the flight, not the wait.
Selected alone, the test flies in this process.

The pool is shut down when the session ends, so no worker outlives pytest;
a session that stops early waits there for the flight to end.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

FLIGHT_TEST = "test_criterion_03_no_drift_1000s"
# The pool and the flight's future, for the session that started them.
_FLIGHT = pytest.StashKey[tuple[ProcessPoolExecutor, Future]]()


@pytest.hookimpl(trylast=True)    # after `-k` and `-m` have deselected
def pytest_collection_modifyitems(config, items):
    mine = [item for item in items if item.name == FLIGHT_TEST]
    if not mine or len(items) == 1 or config.option.collectonly:
        return
    items.remove(mine[0])
    items.append(mine[0])
    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
    config.stash[_FLIGHT] = pool, pool.submit(mine[0].module.fly_no_drift)


def pytest_sessionfinish(session):
    if _FLIGHT in session.config.stash:
        session.config.stash[_FLIGHT][0].shutdown()


@pytest.fixture
def no_drift_flight(request):
    """Criterion 3's flight as (trace, wall time in s): the pool's, or flown
    here when the test runs alone."""
    if _FLIGHT in request.config.stash:
        return request.config.stash[_FLIGHT][1].result()
    return request.module.fly_no_drift()
