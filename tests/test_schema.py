"""Every table the KG drivers write has the schema that schema.py declares,
on both sides of the local gate."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from vectrain_ray import schema as S
from vectrain_ray import synth
from vectrain_ray.pipelines import resume as R
from vectrain_ray.pipelines.kg import run_kg

DECLARED = {
    "mentions": S.mention_schema_with_embedding(),
    "triples": S.LINKED_TRIPLE_SCHEMA,
    "edges": S.EDGE_SCHEMA,
    "nodes": S.NODE_SCHEMA,
    "mapping": S.MAPPING_SCHEMA,
    "edge_partials": S.EDGE_PARTIAL_SCHEMA,
}


def _file_schemas(out_dir: str, table: str) -> list[pa.Schema]:
    files = glob.glob(os.path.join(out_dir, table, "**", "*.parquet"),
                      recursive=True)
    assert files, f"{table}: no files under {out_dir}"
    return [pq.read_schema(f) for f in files]


def _without_part(sch: pa.Schema) -> pa.Schema:
    i = sch.get_field_index("part")
    return (sch.remove(i) if i >= 0 else sch).remove_metadata()


@pytest.mark.parametrize("gate", ["local", "ray"])
def test_written_tables_have_their_declared_schemas(gate, tmp_path,
                                                    monkeypatch):
    if gate == "ray":
        monkeypatch.setattr(R, "LOCAL_MAX_ROWS", 0)
    src = synth.write_transcripts(str(tmp_path / "in"), 30, 8, seed=5,
                                  num_files=3)
    kg_out, r_out = str(tmp_path / "kg"), str(tmp_path / "resume")
    res = run_kg(src, out_dir=kg_out)
    R.run_kg_resumable(src, r_out, num_parts=4)
    assert res["gate"]["kg"]["path"] == gate
    got = {("kg", "mapping"): [pa.concat_tables(
        ray.get(res["mapping"].to_arrow_refs())).schema]}
    for table in ("mentions", "triples", "edges", "nodes"):
        got["kg", table] = _file_schemas(kg_out, table)
    for table in DECLARED:
        got["resume", table] = _file_schemas(r_out, table)
    wrong = {f"{driver}/{table}": str(sch)
             for (driver, table), schemas in got.items() for sch in schemas
             if not _without_part(sch).equals(DECLARED[table])}
    assert not wrong, wrong
