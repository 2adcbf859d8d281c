"""The shared dataflow's driver-side helpers (pipelines/phases.py)."""

from __future__ import annotations

import logging
import threading
import time

import pytest

from vectrain_ray.pipelines.phases import PhaseClock, background


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def test_background_join_waits_for_all_and_raises_the_first():
    """Two sinks fail at once while a third is still writing: the join
    returns only after the slow one finished, raises the first failure (in
    the order the sinks were given) and logs the second."""
    both_failing = threading.Barrier(2, timeout=10)
    finished = []

    def fail(msg: str):
        def run():
            both_failing.wait()
            raise RuntimeError(msg)
        return run

    def slow():
        time.sleep(0.5)
        finished.append(time.time())

    # a handler on the module's own logger: the engine's logging setup may
    # stop records from propagating to the root logger
    records = _Records()
    log = logging.getLogger("vectrain_ray.phases")
    log.addHandler(records)
    try:
        join = background(fail("first"), fail("second"), slow)
        with pytest.raises(RuntimeError, match="first"):
            join()
        raised_at = time.time()
    finally:
        log.removeHandler(records)
    assert finished and finished[0] <= raised_at
    logged = " ".join(records.messages)
    assert "RuntimeError('second')" in logged
    assert "RuntimeError('first')" not in logged


def test_background_join_is_quiet_on_success():
    out = []
    background(lambda: out.append(1), lambda: out.append(2))()
    assert sorted(out) == [1, 2]


def test_phase_clock_laps_and_overlapped_work():
    clock = PhaseClock()
    time.sleep(0.02)
    clock.lap("a")
    mark = clock.last
    clock.timed("side", lambda: time.sleep(0.02))()
    clock.lap("b")
    clock.lap("a_to_b", since=mark)
    clock.lap("total", since=clock.start)
    w = clock.walls
    assert w["a"] >= 0.02 and w["side"] >= 0.02 and w["b"] >= 0.02
    assert w["a_to_b"] >= w["b"]
    assert w["total"] >= w["a"] + w["b"]
