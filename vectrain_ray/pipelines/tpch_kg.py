"""Deterministic transcript derivation from the driver testdata (TPC-H-ish
tables) — the KG correctness gate's input.

Each customer/supplier becomes a 2-turn conversation stating its nation
relation in rule-book grammar:

    turn 0 (user):      "C0001234 located in GERMANY."
    turn 1 (assistant): "Yes, C0001234 located in GERMANY."

("Yes" is a mention stopword → never an entity.) Because the statements are
templated, the triples the pipeline must emit are EXACTLY SQL-derivable from
customer⋈nation / supplier⋈nation — giving the KG extraction, linking,
canonicalization and edge aggregation a full DuckDB oracle
(__ray_entry__.oracle_sql: kg_triples / kg_edges / kg_nodes).

Nation names are Zipf-ish hubs (every customer of a nation hits the same
surface form), so this also exercises hot-key handling for real.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..schema import TRANSCRIPT_SCHEMA
from ..sources.readers import read_transcripts

_BASE_TS = 1_700_000_000_000_000


def _to_transcript(batch: pa.Table, nations: dict, prefix: str, key_col: str,
                   nk_col: str) -> pa.Table:
    """map_batches task: (prefix+key, nationkey) rows → 2 transcript turns.
    The 25-row nation dict rides in ``fn_kwargs``: plain tasks hold no CPU
    between batches, so the reads feeding them always get a slot, where an
    actor pool per side takes both CPUs of a 2-CPU cluster and starves its
    own inputs."""
    keys = batch[key_col].to_pylist()
    nks = batch[nk_col].to_pylist()
    conv, turn, role, text, tool, ts = [], [], [], [], [], []
    for k, nk in zip(keys, nks):
        name = f"{prefix}{k:07d}"
        nation = nations.get(nk, "NOWHERE")
        cid = f"{prefix.lower()}-{k}"
        stmt = f"{name} located in {nation}."
        for i, (r, t) in enumerate(
            (("user", stmt), ("assistant", f"Yes, {stmt}"))
        ):
            conv.append(cid)
            turn.append(i)
            role.append(r)
            text.append(t)
            tool.append(None)
            ts.append(_BASE_TS + k * 1000 + i)
    return pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turn, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": pa.array(text, pa.string()),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )


def tpch_transcripts(sf_dir: str) -> rd.Dataset:
    """customer + supplier (⋈ broadcast nation) → transcript Dataset."""
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nations = dict(zip(nation["n_nationkey"].to_pylist(),
                       nation["n_name"].to_pylist()))

    def side(table: str, prefix: str, key_col: str, nk_col: str):
        return read_transcripts(
            os.path.join(sf_dir, f"{table}.parquet"),
            columns=[key_col, nk_col],
        ).map_batches(
            _to_transcript,
            fn_kwargs=dict(nations=nations, prefix=prefix, key_col=key_col,
                           nk_col=nk_col),
            batch_format="pyarrow",
        )

    return side("customer", "C", "c_custkey", "c_nationkey").union(
        side("supplier", "S", "s_suppkey", "s_nationkey"))
