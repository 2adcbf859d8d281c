"""``functions.dedup_exact.exchange`` — the engine's one bucket exchange
(combiner output → bucket → sort → one finisher call per sorted block,
each call holding one or more whole buckets)."""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from vectrain_ray.functions.dedup_exact import (dedup_exact, dedup_table,
                                                exchange, key_buckets)

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "vectrain_ray")


def _events(n: int = 4000) -> pa.Table:
    rng = np.random.default_rng(7)
    return pa.table({
        "user_id": rng.integers(0, 300, n),
        "kind": pa.array([f"k{i % 5}" for i in range(n)]),
        "v": rng.integers(0, 1000, n),  # integer sums: order-independent
    })


def _old_chain(ds, finish, keys, n, batch_format):
    """The chain every site wrote out by hand before the helper."""

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df["bucket"] = key_buckets(df, keys, n)
        return df

    return ds.map_batches(add_bucket, batch_format="pandas",
                          batch_size=65536).groupby("bucket").map_groups(
        finish, batch_format=batch_format)


def _finisher(fmt: str):
    """Per-(key, bucket) sums; built in a function so Ray workers, which
    cannot import this test module, get the finisher by value."""
    def sum_pd(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["user_id", "kind", "bucket"], sort=False).agg(
            s=("v", "sum"), n=("v", "size")).reset_index()

    def sum_pa(t: pa.Table) -> pa.Table:
        return t.group_by(["user_id", "kind", "bucket"]).aggregate(
            [("v", "sum"), ("v", "count")])

    return {"pandas": sum_pd, "pyarrow": sum_pa}[fmt]


def _rows(ds) -> list:
    df = ds.to_pandas()
    return sorted(map(tuple, df[sorted(df.columns)].itertuples(index=False)))


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_keys_mode_equals_old_chain(fmt):
    # the finishers keep the bucket column: equal rows means every key
    # landed in the same bucket as under the hand-written chain
    fn = _finisher(fmt)
    ds = rd.from_arrow(_events()).repartition(4)
    keys = ["user_id", "kind"]
    new = _rows(exchange(ds, fn, keys, 16, batch_format=fmt))
    assert new == _rows(_old_chain(ds, fn, keys, 16, fmt))
    assert len(new) == len(_events().group_by(keys).aggregate([]))


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_bucket_column_mode_equals_old_chain(fmt):
    fn = _finisher(fmt)

    def combiner(t: pa.Table) -> pa.Table:  # computes its own bucket
        b = key_buckets(t.select(["user_id"]).to_pandas(), ["user_id"], 8)
        return t.append_column("bucket", pa.array(b.to_numpy(), pa.int32()))

    ds = rd.from_arrow(_events()).repartition(4).map_batches(
        combiner, batch_format="pyarrow")
    old = ds.groupby("bucket").map_groups(fn, batch_format=fmt)
    assert _rows(exchange(ds, fn, batch_format=fmt)) == _rows(old)


def _blocks(t: pa.Table, n: int = 8):
    """``t`` as a Dataset of ``n`` input blocks, so the exchange's sort
    partitions it into several sorted blocks."""
    step = -(-t.num_rows // n)
    return rd.from_arrow([t.slice(i, step)
                          for i in range(0, t.num_rows, step)])


def _with_bucket(bucket_of) -> pa.Table:
    t = _events()
    return t.append_column("bucket", pa.array(bucket_of(t), pa.int32()))


def _tag_calls(key: str):
    """Finisher: per-``key`` row counts tagged with an id unique to the
    call, so the output shows which keys shared a call."""
    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        import uuid

        c = g.groupby(key).size().rename("n").reset_index()
        c["call"] = uuid.uuid4().hex
        return c

    return per_key


def test_every_key_reaches_exactly_one_call():
    t = _with_bucket(lambda t: key_buckets(
        t.select(["user_id"]).to_pandas(), ["user_id"], 16).to_numpy())
    out = exchange(_blocks(t), _tag_calls("user_id")).to_pandas()
    # a key split over two calls would show up as two rows
    assert out["user_id"].is_unique
    want = pd.Series(t["user_id"].to_numpy()).value_counts()
    got = out.set_index("user_id")["n"]
    assert got.sort_index().tolist() == want.sort_index().tolist()
    assert out["call"].nunique() > 1  # the keys really spread over calls


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_no_bucket_is_split_across_calls(fmt):
    # range buckets, as q_pack_sequences uses: a finisher may rely on
    # holding every row of each bucket it sees
    t = _with_bucket(lambda t: t["user_id"].to_numpy() // 20)
    per_bucket = _tag_calls("bucket")
    fn = per_bucket if fmt == "pandas" else (
        lambda b: per_bucket(b.to_pandas()))
    out = exchange(_blocks(t), fn, batch_format=fmt).to_pandas()
    assert out["bucket"].is_unique
    want = pd.Series(t["bucket"].to_numpy()).value_counts()
    got = out.set_index("bucket")["n"]
    assert got.sort_index().tolist() == want.sort_index().tolist()
    calls = out.groupby("call").size()
    assert len(calls) > 1 and calls.max() > 1  # several calls, whole buckets


def test_dedup_exact_on_blocks_equals_dedup_table():
    t = _events().append_column("row", pa.array(np.arange(len(_events()))))
    keys, order = ["user_id", "kind"], ["v", "row"]  # "row": no ties
    got = dedup_exact(_blocks(t), keys, sort_within=order, pre_batch=700)
    want = rd.from_arrow(dedup_table(t, keys, sort_within=order))
    assert got.schema().names == t.schema.names
    assert _rows(got) == _rows(want)


def test_keys_mode_replaces_a_stale_bucket_column():
    t = _events().append_column("bucket", pa.array(
        np.zeros(len(_events()), np.int32)))
    ds, fn = rd.from_arrow(t), _finisher("pandas")
    new = _rows(exchange(ds, fn, ["user_id", "kind"], 16))
    assert new == _rows(_old_chain(ds, fn, ["user_id", "kind"], 16,
                                   "pandas"))


def test_empty_input_keeps_typed_schema():
    # a complete graph has no candidate pair: every bucket returns the
    # typed empty frame, and the union with the typed empty table keeps
    # the columns (Ray drops all-empty pandas groups)
    from vectrain_ray.functions.graph import link_predict_ra

    k4 = pa.table({"src": [1, 1, 1, 2, 2, 3], "dst": [2, 3, 4, 3, 4, 4]})
    out = link_predict_ra(rd.from_arrow(k4), dense_max=0).materialize()
    assert out.count() == 0
    assert out.schema().names == ["u", "v", "n_common", "ra_score"]

    empty = rd.from_arrow(pa.table({"user_id": pa.array([], pa.int64())}))
    assert exchange(empty, lambda g: g, ["user_id"]).count() == 0


def test_no_hand_rolled_bucket_exchange():
    """Every bucket exchange goes through ``exchange`` (or ``dedup_exact``)
    and makes one call per sorted block: no module, ``dedup_exact.py``
    included, splits a block per bucket with ``map_groups``."""
    call = re.compile(r"\.groupby\(\s*([^()]*?)\s*\)\s*\.map_groups\(")
    bad = []
    for root, _, files in os.walk(PKG):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            src = open(path, encoding="utf-8").read()
            for m in call.finditer(src):
                key = m.group(1).strip("\"'").lower()
                if "bucket" in key or "coarse" in key or len(key) <= 2:
                    line = src.count("\n", 0, m.start()) + 1
                    bad.append(f"{os.path.relpath(path, PKG)}:{line} "
                               f"groupby({m.group(1)})")
    assert not bad, "map_groups over a bucket: " + ", ".join(bad)


def test_kg_pipelines_hold_no_actor_pool():
    """Every map stage of the engine runs as plain tasks: no module sizes an
    actor pool or builds one from constructor kwargs, except the one whose
    actors hold a live client connection (the allow-list). The KG drivers
    also read no ``"concurrency"`` spec key; the vector-store sink spec
    keeps its own, which sizes that allowed pool."""
    allowed = {os.path.join("stages", "vector_store.py")}  # Qdrant client
    pool = re.compile(r"fn_constructor_kwargs|\bconcurrency\s*=")
    spec_key = re.compile(r"[\"']concurrency[\"']")
    kg = {os.path.join("pipelines", f"{name}.py")
          for name in ("kg", "resume", "phases", "stream")}
    bad = []
    for root, _, files in os.walk(PKG):
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), PKG)
            if not f.endswith(".py") or rel in allowed:
                continue
            for n, line in enumerate(open(os.path.join(root, f),
                                          encoding="utf-8"), start=1):
                if pool.search(line) or (rel in kg and spec_key.search(line)):
                    bad.append(f"{rel}:{n}")
    assert not bad, "actor pool outside the allow-list: " + ", ".join(bad)
