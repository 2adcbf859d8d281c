"""Exact deduplication — the building block the KG pipeline uses to make
duplicate re-sent turns idempotent (the reference instead duplicates on every
re-run: fresh uuid per written point, qdrant/store.go:32 + TODO store.go:45).

Pattern: (1) per-batch combiner — pandas ``drop_duplicates`` inside each
batch removes same-block duplicates at C speed; (2) hash-BUCKET the key into
``num_buckets`` coarse partitions (vectorized ``pd.util.hash_pandas_object``
— deterministic across processes, no per-row Python), sort on the bucket
and dedup each sorted block — whole buckets, so whole keys — with one more
vectorized ``drop_duplicates``. Never
``groupby(unique_key).map_groups`` — that is one Python call per ROW and was
measured 100×+ slower.

``exchange`` is that bucket-then-vectorize step on its own — every bucket
exchange in the engine goes through it. ``dedup_exact`` keeps a private
bucket column, because its input is caller data that may already carry a
``bucket`` column. Both make one finisher call per sorted block, which
holds one or more whole buckets: ``groupby(bucket).map_groups`` sorts the
same way but then splits each block per bucket, paying a Python call and
two pandas/Arrow conversions per bucket.

``exchange``, ``map_chunks`` (its map-side counterpart) and ``dedup_exact``
take a pyarrow table too, and run on it in the driver, with no Ray Data.
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


def map_chunks(fn, data, chunk: int | None = None,
               fn_kwargs: dict | None = None, **ray_args):
    """``fn``, a batch kernel, over ``data`` in ``chunk``-row batches
    (whole blocks, or the whole table, when None): on a Dataset
    ``map_batches(fn, batch_format="pyarrow")`` as plain tasks, on a
    pyarrow table slice after slice in the driver. The other ``ray_args``
    matter on Ray only, such as the ``batch_size`` of a combiner that runs
    over a whole table in one call."""
    if not isinstance(data, pa.Table):
        return data.map_batches(fn, batch_format="pyarrow",
                                fn_kwargs=fn_kwargs,
                                **{"batch_size": chunk, **ray_args})
    kwargs = fn_kwargs or {}
    outs = [fn(data.slice(i, chunk), **kwargs)
            for i in range(0, data.num_rows, chunk)] if chunk else []
    return pa.concat_tables(outs) if outs else fn(data, **kwargs)


def exchange(ds, finish, keys=None, n: int = 64, batch_format: str = "pandas"):
    """The engine's one all-to-all step: sort on ``bucket``, then one
    ``finish`` call per sorted block. A sorted block holds every row of
    each bucket in it, so every row of a key reaches exactly one call;
    a call may hold several buckets, so every finisher groups by its key
    itself (and by ``bucket`` where the bucket means something of its
    own, such as an LSH bucket or a range). With ``keys`` each Arrow
    batch gets ``bucket = key_buckets(keys, n)``, hashing only the key
    columns (the batch itself is never converted to pandas); without, the
    input's own ``bucket`` column is used — a combiner that already
    computed it, or a semantic bucket such as a range.

    A pyarrow table is one block holding every bucket: ``finish`` is
    called once, in the driver. Either way a pandas result leaves as
    metadata-free Arrow."""
    if keys is not None:
        keys = list(keys)

        def add_bucket(t: pa.Table) -> pa.Table:
            b = pa.array(key_buckets(t.select(keys).to_pandas(), keys,
                                     n).to_numpy(), pa.int32())
            i = t.schema.get_field_index("bucket")
            return (t.set_column(i, "bucket", b) if i >= 0
                    else t.append_column("bucket", b))

        ds = map_chunks(add_bucket, ds, batch_size=65536)

    def run(batch) -> pa.Table:
        out = finish(batch)
        return out if isinstance(out, pa.Table) else _to_arrow_stripped(out)

    if isinstance(ds, pa.Table):
        return run(ds.to_pandas() if batch_format == "pandas" else ds)
    return ds.sort("bucket").map_batches(run, batch_format=batch_format,
                                         batch_size=None)


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
    parallelism: the bucket sort's partitions track the combiner's output
    block count, and Ray fuses whatever map stages follow into the
    post-sort operator — a small input that collapses to one combiner
    block therefore runs the entire downstream chain as ONE task. Callers
    that hang heavy stages (e.g. extraction) off the dedup should size
    ``pre_batch ≈ rows / (2 × CPUs)`` so the post-shuffle operator keeps
    the cluster busy.

    On a pyarrow table it is ``dedup_table``."""
    if isinstance(ds, pa.Table):
        return dedup_table(ds, key_cols, sort_within)
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
    # a sorted block holds whole buckets, and a key lives in one bucket
    return pre_ds.sort(_BUCKET).map_batches(bucket_dedup,
                                            batch_format="pandas",
                                            batch_size=None)


def dedup_exact_local(ds, key_cols, sort_within: list[str] | None = None):
    """Zero-shuffle exact dedup under a PARTITIONING ASSUMPTION: all rows
    sharing a key live in the same input block (e.g. transcripts written
    one-file-per-conv-hash-bucket, the Kafka-partition analogue — a
    conversation and its duplicate re-sends never span files, and blocks at
    this file size are never split). ``batch_size=None`` makes each batch a
    whole block, so a vectorized ``drop_duplicates`` per block is exact.

    Use ``dedup_exact`` when the layout is unknown — this variant silently
    under-dedups if the assumption is violated. A pyarrow table needs no
    assumption (``dedup_table``)."""
    if isinstance(ds, pa.Table):
        return dedup_exact(ds, key_cols, sort_within)
    key_cols = list(key_cols)
    order = list(dict.fromkeys((sort_within or []) + key_cols))

    def block_dedup(df: pd.DataFrame) -> pa.Table:
        return _to_arrow_stripped(_first_per_key(df, order, key_cols))

    return ds.map_batches(block_dedup, batch_format="pandas", batch_size=None)
