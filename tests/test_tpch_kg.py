"""tpch_transcripts on a 2-CPU cluster: the KG registry operators must
finish there (their transcript derivation once held both CPU slots with
two actor pools and starved its own reads)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from _child import run_python

# the run takes ~15 s at 2 CPUs
TIMEOUT_S = 240

_SCRIPT = """
import sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from vectrain_ray.pipelines.queries import QUERIES
print(QUERIES["kg_triples"](sys.argv[1]).count())
ray.shutdown()
"""


def _write_tables(sf_dir: str, n_cust: int, n_supp: int) -> None:
    rng = np.random.default_rng(7)
    pq.write_table(pa.table({
        "n_nationkey": pa.array(range(25), pa.int32()),
        "n_name": [f"NATION_{k}" for k in range(25)],
    }), os.path.join(sf_dir, "nation.parquet"))
    sides = (("customer", "c_custkey", "c_nationkey", n_cust),
             ("supplier", "s_suppkey", "s_nationkey", n_supp))
    for table, key, nk, n in sides:
        pq.write_table(pa.table({
            key: pa.array(range(1, n + 1), pa.int64()),
            nk: pa.array(rng.integers(0, 25, n), pa.int32()),
        }), os.path.join(sf_dir, f"{table}.parquet"))


def test_kg_triples_finishes_at_two_cpus(tmp_path):
    sf_dir = str(tmp_path)
    _write_tables(sf_dir, n_cust=1500, n_supp=100)
    p = run_python(["-c", _SCRIPT, sf_dir], TIMEOUT_S,
                   "kg_triples at 2 CPUs")
    assert p.returncode == 0, p.stderr[-2000:]
    # one "<key> located in <nation>" triple per turn, two turns per entity
    assert int(p.stdout.strip().splitlines()[-1]) == 2 * (1500 + 100)


def test_tpch_kg_build_takes_the_driver_path(tmp_path):
    """The shared kg_edges/kg_nodes build materializes its transcripts, so
    the gate can size them: a few thousand turns run in the driver."""
    from vectrain_ray.pipelines.queries import _run_tpch_kg

    sf_dir = str(tmp_path)
    _write_tables(sf_dir, n_cust=1500, n_supp=100)
    res = _run_tpch_kg(sf_dir)
    assert res["gate"]["kg"] == {"path": "local", "rows": 2 * (1500 + 100)}
    # one "<key> located in <nation>" edge per entity, stated twice
    edges = res["edges"].to_pandas()
    assert len(edges) == 1500 + 100 and set(edges["weight"]) == {2}
