"""Output checks made apart from the engine.

Each check returns the names of the properties that do not hold (an empty
list means the output is correct). They read the written Parquet tables
with pyarrow and compare them with the generator's planted truth, with
conserved quantities, with another output table, or with DuckDB.
"""

from __future__ import annotations

import glob
import os
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as ds

KG_COLUMNS = {
    "mentions": ["conv_id", "turn_idx", "surface_form"],
    "triples": ["conv_id", "turn_idx", "subj", "pred", "obj", "subj_id",
                "obj_id"],
    "edges": ["src_id", "dst_id", "pred", "weight"],
    "nodes": ["entity_id", "n_mentions", "degree"],
}


def _files(out_dir: str, table: str) -> list[str]:
    """A table's Parquet files, in a flat or a ``part=K/`` layout."""
    return sorted(glob.glob(os.path.join(out_dir, table, "**", "*.parquet"),
                            recursive=True))


def read_kg(out_dir: str) -> dict[str, pa.Table]:
    """The four KG tables under ``out_dir``."""
    return {name: ds.dataset(_files(out_dir, name), format="parquet")
            .to_table(columns=cols) for name, cols in KG_COLUMNS.items()}


def kg_bytes(out_dir: str) -> dict[str, int]:
    return {name: sum(map(os.path.getsize, _files(out_dir, name)))
            for name in KG_COLUMNS}


def multiset(t: pa.Table, cols) -> Counter:
    return Counter(zip(*(t[c].to_pylist() for c in cols)))


def check_truth(kg: dict[str, pa.Table], truth) -> list[str]:
    """Against the generator's planted truth."""
    bad = []
    if multiset(kg["triples"], ("conv_id", "turn_idx", "subj", "pred",
                                "obj")) != truth.triples:
        bad.append("triples_equal_planted")
    if kg["mentions"].num_rows != truth.mentions:
        bad.append("mentions_equal_planted")
    if kg["nodes"].num_rows != len(truth.entities):
        bad.append("nodes_equal_planted_entities")
    return bad


def _sum(col: pa.ChunkedArray) -> int:
    return int(pc.sum(col).as_py() or 0)


def check_conservation(kg: dict[str, pa.Table]) -> list[str]:
    """Quantities every correct graph conserves, whatever its input."""
    bad = []
    edges, nodes = kg["edges"], kg["nodes"]
    if _sum(edges["weight"]) != kg["triples"].num_rows:
        bad.append("edge_weight_sum_equals_triples")
    if _sum(nodes["degree"]) != 2 * edges.num_rows:
        bad.append("degree_sum_equals_twice_edges")
    if _sum(nodes["n_mentions"]) != kg["mentions"].num_rows:
        bad.append("n_mentions_sum_equals_mentions")
    ids = pa.chunked_array(kg["triples"]["subj_id"].chunks
                           + kg["triples"]["obj_id"].chunks,
                           pa.string()).unique()
    known = pc.is_in(ids, value_set=nodes["entity_id"].combine_chunks())
    if pc.any(pc.invert(known)).as_py():
        bad.append("triple_ids_in_nodes")
    return bad


def check_same_graph(a: dict[str, pa.Table], b: dict[str, pa.Table]) -> list[str]:
    """Two builds of the same input: the stream's tables against a one-shot
    build's."""
    bad = []
    if a["triples"].num_rows != b["triples"].num_rows:
        bad.append("triple_count_equal")
    for table, cols, name in (
            ("edges", ("src_id", "pred", "dst_id", "weight"), "edge"),
            ("nodes", ("entity_id", "n_mentions"), "node")):
        if multiset(a[table], cols) != multiset(b[table], cols):
            bad.append(f"{name}_multiset_equal")
    return bad


# --- registry results against DuckDB ---------------------------------------
def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if pd.api.types.is_datetime64_any_dtype(s):
            df[c] = s.astype("datetime64[us]").astype("int64")
        elif pd.api.types.is_bool_dtype(s) or pd.api.types.is_numeric_dtype(s):
            df[c] = s.astype("float64")
        else:
            df[c] = s.astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def check_frame(got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """Same columns and rows, numbers equal to a relative 1e-9."""
    if sorted(got.columns) != sorted(want.columns):
        return ["columns_equal_oracle"]
    if len(got) != len(want):
        return ["rows_equal_oracle"]
    g, w = _canon(got), _canon(want)
    for c in g.columns:
        if g[c].dtype == np.float64:
            ok = np.allclose(g[c].to_numpy(), w[c].to_numpy(), rtol=1e-9,
                             atol=1e-9, equal_nan=True)
        else:
            ok = g[c].equals(w[c])
        if not ok:
            return [f"values_equal_oracle:{c}"]
    return []
