"""`run query` CLI — the operator registry exposed as a user command."""

from __future__ import annotations

import json
import os

import pytest

from _child import run_python

SF_DIR = "/root/testdata/sf0.001"


def _run(*argv):
    p = run_python(["-m", "vectrain_ray.run", *argv], 120,
                   f"run {' '.join(argv)}")
    return p.returncode, p.stdout.strip().splitlines()[-1] if p.stdout else ""


def test_query_list_and_unknown_name_no_ray():
    rc, out = _run("query", "--list")
    assert rc == 0
    ops = json.loads(out)["operators"]
    assert "histogram" in ops and "kg_triples" in ops and len(ops) >= 60

    rc, out = _run("query", "--name", "nope")
    assert rc == 2
    assert "unknown operator" in json.loads(out)["error"]


@pytest.mark.skipif(not os.path.isdir(SF_DIR), reason="testdata absent")
def test_query_runs_operator_end_to_end(tmp_path):
    rc, out = _run("query", "--name", "histogram",
                   "--sf-dir", SF_DIR,
                   "--num-cpus", "4", "--limit", "5")
    assert rc == 0, out
    doc = json.loads(out)
    assert doc["status"] == "ok" and doc["rows"] > 0
    assert len(doc["head"]) == 5
    assert set(doc["head"][0]) == {"bin", "n_orders"}

    out_dir = str(tmp_path / "res")
    rc, out = _run("query", "--name", "histogram",
                   "--sf-dir", SF_DIR,
                   "--num-cpus", "4", "--out", out_dir)
    assert rc == 0, out
    import glob

    import pyarrow.parquet as pq

    files = glob.glob(out_dir + "/*.parquet")
    assert files
    assert sum(pq.read_metadata(f).num_rows for f in files) == \
        json.loads(out)["rows"]
