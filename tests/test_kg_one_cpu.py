"""run_kg on a 1-CPU cluster finishes on both of its paths. The Ray path
once hung there: the encoder actor, started beside the canonicalize
shuffle, held the only CPU slot the shuffle's tasks waited for. The
sharded link once hung there too, in run_kg and in run_kg_resumable: its
router pool, or the link tasks, found no whole CPU beside K shard actors
of 0.1 CPU each."""

from __future__ import annotations

import pytest

from _child import run_python

# each run takes ~5-10 s at 1 CPU, Ray's start included
TIMEOUT_S = 180

_SCRIPT = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
from vectrain_ray import synth
from vectrain_ray.pipelines import resume
from vectrain_ray.pipelines.kg import run_kg
if sys.argv[1] == "ray":
    resume.LOCAL_MAX_ROWS = 0
res = run_kg(rd.from_arrow(synth.generate_transcripts(100, 8, seed=5)),
             out_dir=sys.argv[2], link_shards=int(sys.argv[3]) or None)
print(res["gate"]["kg"]["path"], res["edges"].count())
ray.shutdown()
"""


_RESUMABLE = """
import glob
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
import pyarrow.parquet as pq
from vectrain_ray import synth
from vectrain_ray.pipelines import resume
resume.LOCAL_MAX_ROWS = 0
synth.write_transcripts(sys.argv[1] + "/in", 30, 8, seed=5, num_files=2)
m = resume.run_kg_resumable(sys.argv[1] + "/in", sys.argv[1] + "/out",
                            num_parts=2, link_shards=3)
edges = glob.glob(sys.argv[1] + "/out/edges/**/*.parquet", recursive=True)
print(m["gate"]["p3"]["path"], pq.read_table(edges).num_rows)
ray.shutdown()
"""


@pytest.mark.parametrize("path", ["local", "ray"])
def test_run_kg_finishes_at_one_cpu(path, tmp_path):
    _finishes(path, 0, tmp_path)


def test_sharded_link_finishes_at_one_cpu(tmp_path):
    _finishes("ray", 3, tmp_path)


def test_resumable_sharded_link_finishes_at_one_cpu(tmp_path):
    p = run_python(["-c", _RESUMABLE, str(tmp_path)], TIMEOUT_S,
                   "run_kg_resumable's ray path at 1 CPU, 3 shards")
    _check(p, "ray")


def _finishes(path: str, link_shards: int, tmp_path):
    p = run_python(["-c", _SCRIPT, path, str(tmp_path / "out"),
                    str(link_shards)], TIMEOUT_S,
                   f"run_kg's {path} path at 1 CPU, {link_shards} shards")
    _check(p, path)


def _check(p, path: str):
    assert p.returncode == 0, p.stderr[-2000:]
    got_path, n_edges = p.stdout.strip().splitlines()[-1].split()
    assert got_path == path and int(n_edges) > 0
