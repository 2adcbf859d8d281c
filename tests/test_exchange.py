"""``functions.dedup_exact.exchange`` — the engine's one bucket exchange
(combiner output → bucket → one finisher call per bucket)."""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from vectrain_ray.functions.dedup_exact import exchange, key_buckets

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


def test_every_key_reaches_exactly_one_call():
    t = _events()

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("user_id").size().rename("n").reset_index()
        c["call"] = int(g["bucket"].iloc[0])
        return c

    out = exchange(rd.from_arrow(t).repartition(8), per_key,
                   ["user_id"], 16).to_pandas()
    # a key split over two calls would show up as two rows
    assert out["user_id"].is_unique
    want = pd.Series(t["user_id"].to_numpy()).value_counts()
    got = out.set_index("user_id")["n"]
    assert got.sort_index().tolist() == want.sort_index().tolist()
    assert out["call"].nunique() > 1  # the keys really spread over calls


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
    """Every bucket-keyed map_groups goes through ``exchange``; only
    ``dedup_exact`` keeps its own, on a private bucket column."""
    call = re.compile(r"\.groupby\(\s*([^()]*?)\s*\)\s*\.map_groups\(")
    bad = []
    for root, _, files in os.walk(PKG):
        for f in files:
            path = os.path.join(root, f)
            if not f.endswith(".py") or path.endswith(
                    os.path.join("functions", "dedup_exact.py")):
                continue
            src = open(path, encoding="utf-8").read()
            for m in call.finditer(src):
                key = m.group(1).strip("\"'").lower()
                if "bucket" in key or "coarse" in key or len(key) <= 2:
                    line = src.count("\n", 0, m.start()) + 1
                    bad.append(f"{os.path.relpath(path, PKG)}:{line} "
                               f"groupby({m.group(1)})")
    assert not bad, "hand-rolled bucket exchanges: " + ", ".join(bad)
