"""tpch_transcripts on a 2-CPU cluster: the KG registry operators must
finish there (their transcript derivation once held both CPU slots with
two actor pools and starved its own reads)."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
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
    # own process group: a hang is killed with the Ray daemons it started
    p = subprocess.Popen([sys.executable, "-c", _SCRIPT, sf_dir],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, cwd=REPO, start_new_session=True)
    try:
        out, err = p.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail(f"kg_triples did not finish in {TIMEOUT_S} s at 2 CPUs")
    assert p.returncode == 0, err[-2000:]
    # one "<key> located in <nation>" triple per turn, two turns per entity
    assert int(out.strip().splitlines()[-1]) == 2 * (1500 + 100)
