"""Empty-table behavior of the session-5 ops: every op must return a
typed, zero-row result (not crash) when its input table is empty — the
contract a resumable 100-TB run relies on when a partition filter leaves
nothing behind."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vectrain_ray.pipelines import queries as Q


@pytest.fixture()
def empty_sf(tmp_path):
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "lang": pa.array([], pa.string()),
        "source": pa.array([], pa.string()),
        "n_chars": pa.array([], pa.int64()),
    }), os.path.join(sf, "documents.parquet"))
    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "props": pa.array([], pa.string()),
    }), os.path.join(sf, "events.parquet"))
    pq.write_table(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32())),
        "label": pa.array([], pa.int32()),
    }), os.path.join(sf, "embeddings.parquet"))
    pq.write_table(pa.table({
        "r_regionkey": pa.array([], pa.int32()),
        "r_name": pa.array([], pa.string()),
    }), os.path.join(sf, "region.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array([], pa.int32()),
        "n_name": pa.array([], pa.string()),
        "n_regionkey": pa.array([], pa.int32()),
    }), os.path.join(sf, "nation.parquet"))
    return sf


@pytest.mark.parametrize("op", [
    "quality_filter", "dup_ngram_fraction", "value_corr",
    "embed_quantize", "winsorize_by_group", "ngram_containment",
    "cluster_purity", "cross_join",
])
def test_session5_ops_empty_input(empty_sf, ray_session, op):
    res = Q.QUERIES[op](empty_sf)
    import ray.data

    if isinstance(res, ray.data.Dataset):
        assert res.count() == 0
    else:
        assert len(res) == 0
