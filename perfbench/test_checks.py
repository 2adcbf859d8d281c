"""The benchmark's own checks fire on corrupted outputs.

    python3 -m pytest perfbench -q

Needs no Ray session: the outputs below are written by hand.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import checks
import gen

ANN, BAKOR, LOMIR = "e-ann", "e-bakor", "e-lomir"
GOOD = {
    "mentions": pa.table({
        "conv_id": ["c1", "c1", "c1", "c1"],
        "turn_idx": pa.array([0, 0, 1, 1], pa.int32()),
        "surface_form": ["Ann Lee", "Bakor Corp", "Bakor Inc", "Lomir"],
    }),
    "triples": pa.table({
        "conv_id": ["c1", "c1"],
        "turn_idx": pa.array([0, 1], pa.int32()),
        "subj": ["Ann Lee", "Bakor Inc"],
        "pred": ["works_at", "owns"],
        "obj": ["Bakor Corp", "Lomir"],
        "subj_id": [ANN, BAKOR],
        "obj_id": [BAKOR, LOMIR],
    }),
    "edges": pa.table({
        "src_id": [ANN, BAKOR],
        "dst_id": [BAKOR, LOMIR],
        "pred": ["works_at", "owns"],
        "weight": pa.array([1, 1], pa.int64()),
    }),
    "nodes": pa.table({
        "entity_id": [ANN, BAKOR, LOMIR],
        "n_mentions": pa.array([1, 2, 1], pa.int64()),
        "degree": pa.array([1, 2, 1], pa.int64()),
    }),
}
TRUTH = gen.Truth(
    triples=Counter({("c1", 0, "Ann Lee", "works_at", "Bakor Corp"): 1,
                     ("c1", 1, "Bakor Inc", "owns", "Lomir"): 1}),
    mentions=4, entities={"ann lee", "bakor", "lomir"})


def write_kg(root, tables: dict) -> str:
    out = str(root)
    for name, t in tables.items():
        os.makedirs(os.path.join(out, name, "part=0"), exist_ok=True)
        pq.write_table(t, os.path.join(out, name, "part=0", "f.parquet"))
    return out


def test_correct_output_passes(tmp_path):
    kg = checks.read_kg(write_kg(tmp_path, GOOD))
    assert checks.check_truth(kg, TRUTH) == []
    assert checks.check_conservation(kg) == []
    assert checks.check_same_graph(kg, kg) == []


def _drop_row(t: pa.Table, i: int = 0) -> pa.Table:
    return pa.concat_tables([t.slice(0, i), t.slice(i + 1)])


def _set(t: pa.Table, col: str, values) -> pa.Table:
    return t.set_column(t.schema.get_field_index(col), col,
                        pa.array(values, t.schema.field(col).type))


@pytest.mark.parametrize("table, corrupt, fires", [
    ("edges", _drop_row, "edge_weight_sum_equals_triples"),
    ("edges", _drop_row, "degree_sum_equals_twice_edges"),
    ("triples", _drop_row, "triples_equal_planted"),
    ("mentions", lambda t: pa.concat_tables([t, t.slice(0, 1)]),
     "mentions_equal_planted"),
    ("mentions", _drop_row, "n_mentions_sum_equals_mentions"),
    ("nodes", lambda t: _drop_row(t, 2), "nodes_equal_planted_entities"),
    ("nodes", lambda t: _drop_row(t, 2), "triple_ids_in_nodes"),
    ("triples", lambda t: _set(t, "obj", ["Bakor Corp", "Lomira"]),
     "triples_equal_planted"),
])
def test_each_check_fires(tmp_path, table, corrupt, fires):
    tables = dict(GOOD, **{table: corrupt(GOOD[table])})
    kg = checks.read_kg(write_kg(tmp_path, tables))
    assert fires in checks.check_truth(kg, TRUTH) + checks.check_conservation(kg)


@pytest.mark.parametrize("table, corrupt, fires", [
    ("triples", _drop_row, "triple_count_equal"),
    ("edges", lambda t: _set(t, "weight", [1, 2]), "edge_multiset_equal"),
    ("nodes", lambda t: _set(t, "n_mentions", [2, 1, 1]),
     "node_multiset_equal"),
])
def test_same_graph_fires(tmp_path, table, corrupt, fires):
    a = checks.read_kg(write_kg(tmp_path, GOOD))
    assert checks.check_same_graph(a, dict(a, **{table: corrupt(a[table])})
                                   ) == [fires]


def test_frame_check_fires():
    want = pd.DataFrame({"k": ["a", "b"], "v": [1.25, 2.5],
                         "t": pd.to_datetime(["2024-01-01", "2024-01-02"])})
    got = want.iloc[::-1][["v", "t", "k"]].reset_index(drop=True)
    assert checks.check_frame(got, want) == []
    assert checks.check_frame(got.iloc[:1], want) == ["rows_equal_oracle"]
    assert checks.check_frame(got.assign(v=[2.5, 1.0]), want) == [
        "values_equal_oracle:v"]
    assert checks.check_frame(got.rename(columns={"v": "w"}), want) == [
        "columns_equal_oracle"]


def test_generators_repeat_per_seed():
    a, b, c = gen.stream_base(5, 0), gen.stream_base(5, 0), gen.stream_base(5, 1)
    assert a.table.equals(b.table) and a.truth == b.truth
    assert not a.table.equals(c.table)
    assert a.resent_rows > 0
    texts = a.table["text"].to_pylist()
    assert sum(1 for t in texts if not t.strip()) > 0


def test_wide_corpus_does_not_repeat_and_stream_corpus_does():
    stream, wide = gen.stream_base(1, 0), gen.wide_corpus(1, 0)
    assert stream.distinct_sentences < 0.8 * stream.table.num_rows
    assert wide.distinct_sentences > 0.8 * wide.table.num_rows
    assert len(stream.truth.entities) < 1_000 < 10_000 < len(wide.truth.entities)


def test_benchmark_json_names_every_metric():
    import run
    import traced

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        traced.LAYER_METRICS
