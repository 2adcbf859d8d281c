"""The shared dataflow (pipelines/phases.py): each phase gives the same
rows on a pyarrow table as on a Dataset, and its driver-side helpers."""

from __future__ import annotations

import logging
import pathlib
import re
import threading
import time

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd

import vectrain_ray
from vectrain_ray import synth
from vectrain_ray.functions.dedup_exact import dedup_exact, exchange
from vectrain_ray.pipelines import phases
from vectrain_ray.pipelines.phases import PhaseClock, background
from vectrain_ray.stages import materialize


def _rows(data) -> list:
    """``data``'s rows as a sorted list, a multiset comparable across a
    table and a Dataset (one per table of a tuple)."""
    if isinstance(data, tuple):
        return [_rows(x) for x in data]
    if not isinstance(data, pa.Table):
        blocks = [b for b in ray.get(data.to_arrow_refs()) if b.num_rows]
        data = pa.concat_tables(blocks) if blocks else pa.table({})
    return sorted(repr(sorted(r.items())) for r in data.to_pylist())


def _both(phase, *tables, **kwargs):
    """``phase`` over pyarrow tables: its result, its rows, and the rows
    of the same phase over rd.from_arrow of each table."""
    on_table = phase(*tables, **kwargs)
    on_ray = phase(*(rd.from_arrow(t) for t in tables), **kwargs)
    return on_table, _rows(on_table), _rows(on_ray)


@pytest.mark.parametrize("n_convs", [12, 0])
@pytest.mark.parametrize("num_parts", [None, 4])
def test_each_phase_same_rows_on_table_and_dataset(num_parts, n_convs):
    """Each phase over a table, then over rd.from_arrow of the same table
    (one block, so the Ray combiners see the rows the driver does)."""
    turns = synth.generate_transcripts(12, 6, seed=3).select(phases.COLS)
    if not n_convs:
        turns = turns.slice(0, 0)
    turns = dedup_exact(turns, ["conv_id", "turn_idx"], sort_within=["text"])
    enc = {"kind": "hashing", "dim": 16}
    ext, a, b = _both(phases.extract, turns, batch_size=32,
                      num_parts=num_parts)
    assert a == b and (len(a) > 0) == (n_convs > 0)
    partials, a, b = _both(phases.surface_partials, ext, num_parts=num_parts)
    assert a == b
    mapping_t, a, b = _both(phases.mapping, partials)
    assert a == b
    _, a, b = _both(phases.mentions, ext, batch_size=32,
                    num_parts=num_parts, **enc)
    assert a == b
    linker_cls, linker_kwargs, _ = phases.linker(
        mapping_t, 0, None, 16, 0.85, "exact", 64, None)
    linked, a, b = _both(phases.link, ext, linker_cls=linker_cls,
                         linker_kwargs=linker_kwargs, batch_size=32,
                         num_parts=num_parts)
    assert a == b
    _, a, b = _both(phases.edge_partials, linked, num_parts=num_parts)
    assert a == b
    edges, a, b = _both(materialize.edges_from_linked, linked)
    assert a == b
    for single_task in (True, False):
        _, a, b = _both(phases.finalize, edges, mapping_t,
                        single_task=single_task)
        assert a == b


def _pairs() -> pa.Table:
    keys = [i % 37 for i in range(500)]
    return pa.table({"k": [f"k{k}" for k in keys], "v": list(range(1, 501)),
                     "bucket": pa.array([k % 5 for k in keys], pa.int32())})


@pytest.mark.parametrize("keys", [["k"], None])
@pytest.mark.parametrize("fmt", ["pyarrow", "pandas"])
def test_exchange_on_table_equals_dataset_exchange(fmt, keys):
    """A table is one bucket holding every key: the finisher, which
    groups by key itself, gives the rows of the bucketed exchange. Without
    ``keys`` the input's own bucket column is used, here one per key."""
    # defined here, not at module level: Ray pickles them by value
    def sum_arrow(g: pa.Table) -> pa.Table:
        return g.group_by("k").aggregate([("v", "sum")])

    def sum_pandas(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False)["v"].sum()

    finish = sum_arrow if fmt == "pyarrow" else sum_pandas
    t = _pairs()
    on_table = exchange(t, finish, keys, batch_format=fmt)
    assert isinstance(on_table, pa.Table)
    assert _rows(on_table) == _rows(exchange(rd.from_arrow(t), finish, keys,
                                             batch_format=fmt))


def test_pipelines_define_no_dataset_twins():
    """Each phase has one body for both modes: no ``*_ds`` twin."""
    root = pathlib.Path(vectrain_ray.__file__).parent / "pipelines"
    twins = [f"{p.name}:{name}" for p in sorted(root.glob("*.py"))
             for name in re.findall(r"^\s*def (\w+_ds)\(", p.read_text(),
                                    re.M)]
    assert not twins


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
