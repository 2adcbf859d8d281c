"""Local mirror of the driver's correctness gate: run every queries() entry
and compare against oracle_sql() via DuckDB (row count, Arrow column types,
sorted-column value frame equality). Usage:

    python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
import time

import duckdb
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def arrow_types(res) -> dict | None:
    """Column name → Arrow type of a query result (a Dataset's blocks as
    Arrow, the first non-empty one); ``None`` for a zero-block Dataset."""
    import pyarrow as pa
    import ray
    import ray.data

    if isinstance(res, ray.data.Dataset):
        tables = ray.get(res.to_arrow_refs())
        if not tables:
            return None
        sch = next((t for t in tables if t.num_rows), tables[0]).schema
    elif isinstance(res, pa.Table):
        sch = res.schema
    else:
        sch = pa.Schema.from_pandas(res, preserve_index=False)
    return {f.name: f.type for f in sch}


def _norm_type(t):
    """Fold the Arrow physical variants that carry the same values (64-bit
    offsets, list child field names) — a dtype difference is a different
    LOGICAL type, e.g. int64 against DuckDB's HUGEINT (decimal128(38, 0))."""
    import pyarrow as pa

    if pa.types.is_large_string(t):
        return pa.string()
    if pa.types.is_large_binary(t):
        return pa.binary()
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return pa.list_(_norm_type(t.value_type))
    return t


def type_diffs(mine: dict, oracle: dict) -> list[str]:
    return [f"{c}: {mine[c]} vs oracle {oracle[c]}" for c in sorted(oracle)
            if c in mine and _norm_type(mine[c]) != _norm_type(oracle[c])]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        df = res.to_pandas()
        if df.empty and not len(df.columns):
            # Ray's to_pandas drops columns on any 0-row dataset;
            # rebuild the typed empty frame from the dataset schema
            sch = res.schema()
            df = pd.DataFrame({n: pd.Series([], dtype="object")
                               for n in sch.names})
        return df
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)
    return df


def main():
    import ray
    import ray.data

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR", ignore_reinit_error=True)
    import sys as _sys

    _sys.path.insert(0, ".")
    from vectrain_ray.tuning import apply_data_context

    apply_data_context()

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    sys.path.insert(0, ".")
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs, sqls = e.queries(), e.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = fn(sf_dir)
            if isinstance(res, ray.data.Dataset):
                res = res.materialize()  # one execution for types + values
            mine_types = arrow_types(res)
            mine = canon(to_pandas(res))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"ROWS-ONLY {name}: {len(mine)} rows ({dt:.1f}s)")
            n_pass += 1
            continue
        try:
            rel = con.sql(sqls[name])
            oracle_types = {f.name: f.type for f in rel.limit(0).arrow().schema}
            oracle = canon(rel.df())
        except Exception as ex:
            print(f"FAIL {name}: oracle SQL raised {ex}")
            n_fail += 1
            continue
        if len(mine) != len(oracle):
            print(f"FAIL {name}: rows {len(mine)} vs oracle {len(oracle)} ({dt:.1f}s)")
            n_fail += 1
            continue
        if list(mine.columns) != list(oracle.columns):
            print(f"FAIL {name}: cols {list(mine.columns)} vs {list(oracle.columns)}")
            n_fail += 1
            continue
        diffs = ([] if mine_types is None and not len(mine)
                 else type_diffs(mine_types or {}, oracle_types))
        if diffs:
            print(f"FAIL {name}: dtypes differ: {' | '.join(diffs)}")
            n_fail += 1
            continue
        try:
            # dtypes are compared on the Arrow types above; canon() turns
            # object columns into strings, so the frames compare values only
            pd.testing.assert_frame_equal(mine, oracle, check_dtype=False,
                                          check_exact=False, rtol=1e-6, atol=1e-6)
            print(f"PASS {name}: {len(mine)} rows ({dt:.1f}s)")
            n_pass += 1
        except AssertionError as ex:
            msg = str(ex).split("\n")[0:4]
            print(f"FAIL {name}: values differ: {' | '.join(msg)}")
            n_fail += 1
    print(f"== {n_pass} pass, {n_fail} fail ==")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
