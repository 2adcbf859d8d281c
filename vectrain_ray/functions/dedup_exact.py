"""Exact deduplication — the building block the KG pipeline uses to make
duplicate re-sent turns idempotent (the reference instead duplicates on every
re-run: fresh uuid per written point, qdrant/store.go:32 + TODO store.go:45).

Pattern: (1) per-batch combiner — pandas ``drop_duplicates`` inside each
batch removes same-block duplicates at C speed; (2) hash-BUCKET the key into
``num_buckets`` coarse partitions (vectorized ``pd.util.hash_pandas_object``
— deterministic across processes, no per-row Python) and dedup each bucket
with one more vectorized ``drop_duplicates``. Never
``groupby(unique_key).map_groups`` — that is one Python call per ROW and was
measured 100×+ slower.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

_BUCKET = "__dedup_bucket"


def _to_arrow_stripped(df: pd.DataFrame) -> pa.Table:
    """pandas → metadata-free Arrow: Ray's own pandas→block conversion
    attaches the b'pandas' schema-metadata blob, which makes the schema
    unhashable and defeats unify_schemas on every downstream stage (the
    'Failed to hash the schemas' warning). Emitting Arrow directly with the
    metadata stripped fixes it at the stage boundary."""
    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def key_buckets(df: pd.DataFrame, key_cols: list[str], n: int) -> pd.Series:
    """Vectorized, process-stable bucket assignment for arbitrary key cols."""
    h = pd.util.hash_pandas_object(df[key_cols[0]], index=False)
    for c in key_cols[1:]:
        h = h ^ pd.util.hash_pandas_object(df[c], index=False)
    return (h % n).astype("int32")


def _first_per_key(df: pd.DataFrame, order: list[str],
                   key_cols: list[str]) -> pd.DataFrame:
    """The dedup kernel: first row per key after a stable sort by ``order``."""
    return df.sort_values(order, kind="stable").drop_duplicates(
        subset=key_cols, keep="first")


def dedup_table(t: pa.Table, key_cols, sort_within: list[str] | None = None
                ) -> pa.Table:
    """``dedup_exact`` over one in-memory table (no exchange): the same
    winner per key, for inputs small enough to dedup in one process."""
    key_cols = list(key_cols)
    order = list(dict.fromkeys((sort_within or []) + key_cols))
    return pa.Table.from_pandas(_first_per_key(t.to_pandas(), order, key_cols),
                                schema=t.schema, preserve_index=False)


def dedup_exact(ds, key_cols, sort_within: list[str] | None = None,
                num_buckets: int = 64, pre_batch: int = 65536):
    """Distinct rows by ``key_cols``; deterministic winner = first row after
    sorting the bucket by ``sort_within + key_cols`` (default: the key).

    ``pre_batch``: combiner batch size. It also bounds DOWNSTREAM
    parallelism: the groupby's sort partitions track the combiner's output
    block count, and Ray fuses whatever map stages follow into the
    post-sort operator — a small input that collapses to one combiner
    block therefore runs the entire downstream chain as ONE task. Callers
    that hang heavy stages (e.g. extraction) off the dedup should size
    ``pre_batch ≈ rows / (2 × CPUs)`` so the post-shuffle operator keeps
    the cluster busy."""
    key_cols = list(key_cols)
    order = list(dict.fromkeys((sort_within or []) + key_cols))

    def pre(df: pd.DataFrame) -> pa.Table:
        df = _first_per_key(df, order, key_cols)
        df[_BUCKET] = key_buckets(df, key_cols, num_buckets)
        return _to_arrow_stripped(df)  # shuffle input: hashable schema

    def bucket_dedup(g: pd.DataFrame) -> pa.Table:
        g = _first_per_key(g, order, key_cols)
        return _to_arrow_stripped(g.drop(columns=[_BUCKET]))

    pre_ds = ds.map_batches(pre, batch_format="pandas", batch_size=pre_batch)
    return pre_ds.groupby(_BUCKET).map_groups(bucket_dedup, batch_format="pandas")


def dedup_exact_local(ds, key_cols, sort_within: list[str] | None = None):
    """Zero-shuffle exact dedup under a PARTITIONING ASSUMPTION: all rows
    sharing a key live in the same input block (e.g. transcripts written
    one-file-per-conv-hash-bucket, the Kafka-partition analogue — a
    conversation and its duplicate re-sends never span files, and blocks at
    this file size are never split). ``batch_size=None`` makes each batch a
    whole block, so a vectorized ``drop_duplicates`` per block is exact.

    Use ``dedup_exact`` when the layout is unknown — this variant silently
    under-dedups if the assumption is violated."""
    key_cols = list(key_cols)
    order = list(dict.fromkeys((sort_within or []) + key_cols))

    def block_dedup(df: pd.DataFrame) -> pa.Table:
        return _to_arrow_stripped(_first_per_key(df, order, key_cols))

    return ds.map_batches(block_dedup, batch_format="pandas", batch_size=None)
