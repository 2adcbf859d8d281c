"""Round-5 changes: as-of join broadcast gate + bucketed scale path,
knn_join chunked matmul, vectorized crc bucketing. The sf0.01 oracle gate
covers value parity; these pin path equivalence and edge semantics."""

from __future__ import annotations

import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from vectrain_ray import rules
from vectrain_ray.pipelines import queries as Q

SF = "/root/testdata/sf0.001"


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns), kind="stable").reset_index(
        drop=True)


def test_asof_join_bucketed_equals_broadcast(ray_session):
    a = _sorted(Q.q_asof_join(SF).to_pandas())
    b = _sorted(Q.q_asof_join_bucketed(SF).to_pandas())
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_asof_join_gate_routes_to_bucketed(ray_session, monkeypatch):
    """Force the broadcast gate shut: q_asof_join must take the bucketed
    path (no driver materialization) and return identical rows."""
    want = _sorted(Q.q_asof_join(SF).to_pandas())
    monkeypatch.setattr(Q, "ASOF_BROADCAST_MAX_ROWS", 0)
    got = _sorted(Q.q_asof_join(SF).to_pandas())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_knn_join_chunked_matmul_equals_wide(ray_session, monkeypatch):
    """Slab width must not affect results — chunk=1 (degenerate) equals
    the default."""
    want = _sorted(Q.q_knn_join(SF).to_pandas())
    monkeypatch.setattr(Q, "KNN_QUERY_CHUNK", 1)
    got = _sorted(Q.q_knn_join(SF).to_pandas())
    assert len(want) > 0
    pd.testing.assert_frame_equal(got, want)


def test_crc_bucket_array_matches_scalar():
    vals = ["", None, "conv-000123", "a" * 5000, "Zzyx Corp", "élève 中文",
            "x" * 4097] + [f"key-{i}" for i in range(500)]
    arr = pa.chunked_array([pa.array(vals[:4], pa.string()),
                            pa.array(vals[4:], pa.string())])
    crc = rules.crc32_array(arr)
    assert crc.dtype == np.uint32
    assert crc.tolist() == [zlib.crc32((v or "").encode()) for v in vals]
    for n in (3, 8, 64):
        got = rules.crc_bucket_array(arr, n)
        want = np.array([rules.crc_bucket(v or "", n) for v in vals],
                        np.int32)
        assert (got == want).all()
    # sliced array (non-zero offset into the parent buffers)
    s = pa.array(vals[1:], pa.string()).slice(3, 200)
    got = rules.crc_bucket_array(s, 8)
    want = np.array([rules.crc_bucket(v or "", 8) for v in s.to_pylist()],
                    np.int32)
    assert (got == want).all()
    assert len(rules.crc_bucket_array(pa.array([], pa.string()), 8)) == 0


def test_skew_join_no_hot_keys_fast_path(tmp_path, ray_session):
    """A corpus with NO hot keys must return the plain join's rows (the
    empty-hot fast path skips the split entirely)."""
    sf = str(tmp_path)
    keys = list(range(1, 30))  # every key unique → nothing reaches hot
    pq.write_table(pa.table({
        "l_orderkey": pa.array(keys, pa.int64()),
        "l_linenumber": pa.array(range(len(keys)), pa.int32()),
        "l_extendedprice": pa.array([float(i) for i in range(len(keys))]),
    }), os.path.join(sf, "lineitem.parquet"))
    okeys = list(range(1, 25))
    pq.write_table(pa.table({
        "o_orderkey": pa.array(okeys, pa.int64()),
        "o_totalprice": pa.array([100.0 + k for k in okeys]),
        "o_orderpriority": pa.array([f"p{k % 3}" for k in okeys]),
    }), os.path.join(sf, "orders.parquet"))
    got = _sorted(Q.q_skew_join(sf).to_pandas())
    fact = pq.read_table(os.path.join(sf, "lineitem.parquet")).to_pandas()
    dim = pq.read_table(os.path.join(sf, "orders.parquet")).to_pandas()
    want = _sorted(fact.merge(dim, left_on="l_orderkey",
                              right_on="o_orderkey")[
        ["l_orderkey", "l_linenumber", "l_extendedprice",
         "o_totalprice", "o_orderpriority"]])
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the forced-split path (the >gate plan) must agree row-for-row even
    # when its detector finds nothing (empty-hot fast path inside split)
    split = _sorted(Q.q_skew_join(sf, _force_split=True).to_pandas())
    pd.testing.assert_frame_equal(split, want, check_dtype=False)


def test_skew_join_hot_split_equals_broadcast(tmp_path, ray_session):
    """With a genuinely hot key (>= SKEW_HOT_MIN rows in one batch) the
    forced-split plan routes it through the broadcast hot branch; output
    must still equal the gated broadcast plan's."""
    sf = str(tmp_path)
    keys = [7] * (Q.SKEW_HOT_MIN * 3) + list(range(100, 120))
    pq.write_table(pa.table({
        "l_orderkey": pa.array(keys, pa.int64()),
        "l_linenumber": pa.array(range(len(keys)), pa.int32()),
        "l_extendedprice": pa.array([float(i) for i in range(len(keys))]),
    }), os.path.join(sf, "lineitem.parquet"))
    okeys = [7] + list(range(100, 115))
    pq.write_table(pa.table({
        "o_orderkey": pa.array(okeys, pa.int64()),
        "o_totalprice": pa.array([100.0 + k for k in okeys]),
        "o_orderpriority": pa.array([f"p{k % 3}" for k in okeys]),
    }), os.path.join(sf, "orders.parquet"))
    bcast = _sorted(Q.q_skew_join(sf).to_pandas())
    split = _sorted(Q.q_skew_join(sf, _force_split=True).to_pandas())
    assert (split["l_orderkey"] == 7).sum() == Q.SKEW_HOT_MIN * 3
    pd.testing.assert_frame_equal(split, bcast, check_dtype=False)


def test_fsspec_http_probe_is_import_stable():
    """Importing vectrain_ray must leave fsspec.implementations.http
    permanently importable (real module or seeded stub): Ray Data probes
    it on every read_parquet catching only ModuleNotFoundError, and
    without the seed two threads racing the (failing, evicted-on-failure)
    import can surface a plain ImportError that kills the pipeline —
    observed at resume.py phase 2 overlapping the mentions thread."""
    import importlib
    import sys

    import vectrain_ray  # noqa: F401  (seeds the stub on import)

    assert "fsspec.implementations.http" in sys.modules
    m = importlib.import_module("fsspec.implementations.http")
    assert hasattr(m, "HTTPFileSystem")
    # the probe Ray runs per read_parquet must be exception-free now
    from ray.data.datasource.path_util import _is_http_filesystem
    import pyarrow.fs as fs

    assert _is_http_filesystem(fs.LocalFileSystem()) is False


def test_decontaminate_fuzzy_flags_verified_neardups(ray_session):
    """Every flagged train doc must (a) not be a bench doc, (b) point at a
    bench doc, and (c) survive an INDEPENDENT exact char-5-shingle Jaccard
    re-check against the raw parquet text — the op's claim, re-derived
    without MinHash/LSH. Non-triviality is pinned (the fixture modulus was
    chosen so sf0.001 has real bench near-dups)."""
    from vectrain_ray.functions.dedup import ngram_jaccard

    got = Q.q_decontaminate_fuzzy(SF).to_pandas()
    assert len(got) > 0
    assert (got["doc_id"] % 31 != 0).all()
    assert (got["best_bench"] % 31 == 0).all()
    assert (got["n_bench_matches"] >= 1).all()
    docs = pq.read_table(os.path.join(SF, "documents.parquet"),
                         columns=["doc_id", "text"]).to_pandas()
    txt = dict(zip(docs["doc_id"], docs["text"]))
    for did, bid in zip(got["doc_id"], got["best_bench"]):
        a = (txt[did] or "").lower()
        b = (txt[bid] or "").lower()
        assert ngram_jaccard(a, b, 5) >= 0.8, (did, bid)


def test_simhash_survives_driver_side_stage_cache(ray_session):
    """Regression: q_decontaminate_fuzzy (or any driver-side sketch/band
    call) parks a DuckDB connection in functions.dedup._STAGE_CACHE of the
    DRIVER process. simhash_batch used to be a nested function that
    cloudpickle serialized BY VALUE together with that global — making the
    whole simhash transform unpicklable. Poison the cache with an
    unpicklable object and prove the pipeline still ships."""
    import duckdb

    from vectrain_ray.functions import dedup

    dedup._STAGE_CACHE["__poison__"] = duckdb.connect()
    try:
        got = Q.q_simhash_pairs(SF).to_pandas()
        assert {"id_a", "id_b"} <= set(got.columns)
        # and the original two-op repro: fuzzy decon (driver-side banding)
        # followed by simhash in the same session
        assert len(Q.q_decontaminate_fuzzy(SF).to_pandas()) > 0
        got2 = Q.q_simhash_pairs(SF).to_pandas()
        assert len(got2) == len(got)
    finally:
        dedup._STAGE_CACHE.pop("__poison__", None)


def test_corpus_prep_invariants(ray_session):
    """Pipeline-shape invariants the SQL oracle can't see failing modes of:
    unique survivors, no bench ids, only train/test tags, token gate held,
    and every survivor is a minhash keeper."""
    got = Q.q_corpus_prep(SF).to_pandas()
    assert len(got) > 0
    assert got["doc_id"].is_unique
    assert (got["doc_id"] % 31 != 0).all()
    assert set(got["split"]) <= {"train", "test"}
    assert got["n_tokens"].between(10, 10000).all()
    keepers = Q._minhash_clusters(SF).to_pandas()
    keep_ids = set(keepers.loc[keepers["is_keeper"], "doc_id"])
    assert set(got["doc_id"]) <= keep_ids


def test_grouped_stats_bit_exact_vs_duckdb(ray_session):
    """The sweep gate compares floats at rtol 1e-6; this test pins the
    STRONGER property grouped_stats is built on — identical IEEE
    expression trees over order-independent-exact integer-valued sums
    make every float column BIT-equal to DuckDB's. A refactor that
    re-associates the float tree (still within 1e-6) fails here."""
    import duckdb

    mine = Q.q_grouped_stats(SF).to_pandas().sort_values(
        "l_returnflag").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM "
            f"read_parquet('{SF}/lineitem.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["grouped_stats"]).df().sort_values(
        "l_returnflag").reset_index(drop=True)
    for c in ["n_rows", "sum_qty", "mean_qty", "var_qty", "std_qty"]:
        assert (mine[c].to_numpy() == oracle[c].to_numpy()).all(), c


def test_vocab_coverage_bit_exact_and_sane(ray_session):
    """oov_rate's claimed bit-parity with DuckDB (exact-int division,
    identical tree) checked with ==, plus shape invariants."""
    import duckdb

    mine = Q.q_vocab_coverage(SF).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert len(mine) > 0
    assert mine["doc_id"].is_unique
    assert (mine["n_oov"] <= mine["n_tokens"]).all()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["vocab_coverage"]).df().sort_values(
        "doc_id").reset_index(drop=True)
    assert (mine["oov_rate"].to_numpy() ==
            oracle["oov_rate"].to_numpy()).all()


def test_lm_bigram_score_paths_and_bit_parity(ray_session):
    """Both scoring paths (broadcast model vs distinct-key hash joins)
    must return IDENTICAL rows, and lm_score must be BIT-equal to the
    DuckDB oracle — the fixed-point design's whole point is that the
    distributed sum is exact-integer, so no rtol is needed. A refactor
    that reintroduces a float accumulation fails here."""
    import duckdb

    bc = Q.q_lm_bigram_score(SF).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    jn = Q.q_lm_bigram_score(SF, _force_join=True).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert len(bc) > 0 and bc["doc_id"].is_unique
    pd.testing.assert_frame_equal(bc, jn, check_dtype=False)
    assert (bc["lm_score"] > 0).all() and (bc["lm_score"] <= 1.0).all()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["lm_bigram_score"]).df().sort_values(
        "doc_id").reset_index(drop=True)
    assert (bc["n_bigrams"].to_numpy() ==
            oracle["n_bigrams"].to_numpy()).all()
    assert (bc["lm_score"].to_numpy() == oracle["lm_score"].to_numpy()).all()


def test_dedup_cluster_stats_mass_conserved(ray_session):
    """The histogram must conserve corpus mass: Σ n_docs = #clustered
    docs, and n_docs = cluster_size · n_clusters row-wise."""
    stats = Q.q_dedup_cluster_stats(SF).to_pandas()
    assert len(stats) > 0
    assert (stats["n_docs"] ==
            stats["cluster_size"] * stats["n_clusters"]).all()
    total = Q._minhash_clusters(SF).count()
    assert int(stats["n_docs"].sum()) == total


def test_bpe_merge_pairs_unicode_parity(tmp_path, ray_session):
    """DuckDB substr/len count codepoints; the Ray side slices with
    utf8_slice_codeunits — this pins that parity on multi-byte text
    (accents, CJK) plus the 1-char-word edge (contributes no pairs)."""
    import duckdb

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(["élève élève naïve", "中文 分词 中文",
                          "a bb a bb ccc", "x", "", None]),
    }), os.path.join(sf, "documents.parquet"))
    mine = Q.q_bpe_merge_pairs(sf).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["bpe_merge_pairs"]).df()
    assert mine["pair"].tolist() == oracle["pair"].tolist()
    assert mine["cnt"].tolist() == oracle["cnt"].tolist()
    assert ("él" in set(mine["pair"]) and "中文" in set(mine["pair"]))


def test_normalize_text_unicode_and_empty_edges(tmp_path, ray_session):
    """RE2 parity on unicode/punctuation text, and the normalizes-to-empty
    drop rule (both a '' doc, a NULL doc, and a punctuation-only doc)."""
    import duckdb

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(["  Hello, World!!  ", "élève — naïve's test…",
                          "a\t\nb   c", "", None, "!!! ?? ..."]),
    }), os.path.join(sf, "documents.parquet"))
    mine = Q.q_normalize_text(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["normalize_text"]).df().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False)
    assert set(mine["doc_id"]) == {0, 1, 2}  # empty/null/punct-only dropped


def test_full_join_both_unmatched_branches(tmp_path, ray_session):
    """The sf fixtures have every event user in customer, so the
    right-unmatched branch never fires there — this corpus forces BOTH
    outer branches (customer without events AND event user without a
    customer row) and checks against the oracle."""
    import duckdb

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_mktsegment": pa.array(["A", "B", "C"]),
    }), os.path.join(sf, "customer.parquet"))
    pq.write_table(pa.table({
        "user_id": pa.array([2, 2, 9], pa.int64()),
    }), os.path.join(sf, "events.parquet"))
    mine = Q.q_full_join(sf).to_pandas().sort_values(
        "user_key").reset_index(drop=True)
    con = duckdb.connect()
    for t in ("customer", "events"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf}/{t}.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["full_join"]).df().sort_values(
        "user_key").reset_index(drop=True)
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False)
    assert set(mine["user_key"]) == {1, 2, 3, 9}
    row9 = mine[mine["user_key"] == 9].iloc[0]
    assert row9["c_mktsegment"] == "(none)" and row9["n_events"] == 1


def test_zscore_by_group_bit_exact_and_zero_var_excluded(tmp_path,
                                                         ray_session):
    """z must be BIT-equal to DuckDB (exact integer sums + identical IEEE
    tree — the grouped_stats argument), and a zero-variance source must
    vanish from the output entirely."""
    import duckdb

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(7), pa.int64()),
        "source": pa.array(["a", "a", "a", "b", "b", "const", "const"]),
        "n_chars": pa.array([10, 20, 33, 5, 7, 42, 42], pa.int64()),
        "text": pa.array(["x"] * 7),
        "lang": pa.array(["en"] * 7),
    }), os.path.join(sf, "documents.parquet"))
    mine = Q.q_zscore_by_group(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert set(mine["source"]) == {"a", "b"}  # const excluded
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["zscore_by_group"]).df().sort_values(
        "doc_id").reset_index(drop=True)
    assert (mine["z"].to_numpy() == oracle["z"].to_numpy()).all()
    full = Q.q_zscore_by_group("/root/testdata/sf0.001").to_pandas()
    assert len(full) > 0


def test_token_entropy_bit_exact_and_bounds(ray_session):
    """entropy must be BIT-equal to DuckDB (fixed-point Σ c·ln c, shared
    IEEE finisher tree) and respect 0 ≤ H ≤ ln(n_tokens); a
    single-repeated-token doc must score exactly 0."""
    import duckdb

    mine = Q.q_token_entropy(SF).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert len(mine) > 0
    lnn = np.log(mine["n_tokens"].to_numpy(np.float64))
    assert (mine["entropy"] >= -1e-12).all()
    assert (mine["entropy"] <= lnn + 1e-12).all()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["token_entropy"]).df().sort_values(
        "doc_id").reset_index(drop=True)
    assert (mine["entropy"].to_numpy() ==
            oracle["entropy"].to_numpy()).all()


def test_token_entropy_degenerate_docs(tmp_path, ray_session):
    """A doc of one repeated token has H ≈ 0 (up to the 1e-9 fixed-point
    quantum); a single-token doc is exactly 0 (ln 1 = 0, fp = 0)."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["spam spam spam spam", "lone", "a b c d"]),
    }), os.path.join(sf, "documents.parquet"))
    got = Q.q_token_entropy(sf).to_pandas().set_index("doc_id")
    assert abs(got.loc[0, "entropy"]) < 1e-8
    assert got.loc[1, "entropy"] == 0.0
    assert abs(got.loc[2, "entropy"] - np.log(4.0)) < 1e-8


def test_triangles_per_node_known_graph_and_join_path(ray_session):
    """Bowtie graph (two triangles sharing node 2): known per-node
    counts/coefficients, and the join-orientation path (broadcast_max=0)
    must match the broadcast path bit-for-bit."""
    import ray.data as rd
    from vectrain_ray.functions.graph import triangles_per_node

    edges = rd.from_arrow(pa.table({
        "u": pa.array([0, 1, 0, 2, 3, 2], pa.int64()),
        "v": pa.array([1, 2, 2, 3, 4, 4], pa.int64()),
    }))
    got = triangles_per_node(edges, "u", "v").to_pandas().sort_values(
        "node").reset_index(drop=True)
    assert got["node"].tolist() == [0, 1, 2, 3, 4]
    assert got["n_tri"].tolist() == [1, 1, 2, 1, 1]
    assert got["degree"].tolist() == [2, 2, 4, 2, 2]
    forced = triangles_per_node(edges, "u", "v",
                                broadcast_max=0).to_pandas().sort_values(
        "node").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, forced, check_dtype=False)


def test_degree_assortativity_known_graphs(ray_session):
    """A star graph is perfectly disassortative only in the excess-degree
    sense; with Newman's edge-Pearson formula a star's degrees are
    constant per side — check the two pinnable cases instead: a regular
    graph (triangle) → NULL r, and a path P4 → r = -0.5."""
    import ray.data as rd
    from vectrain_ray.functions.graph import degree_assortativity

    tri = rd.from_arrow(pa.table({"u": pa.array([0, 1, 2], pa.int64()),
                                  "v": pa.array([1, 2, 0], pa.int64())}))
    out = degree_assortativity(tri, "u", "v").to_pandas()
    assert out["n_edges"][0] == 3 and pd.isna(out["r"][0])
    p4 = rd.from_arrow(pa.table({"u": pa.array([0, 1, 2], pa.int64()),
                                 "v": pa.array([1, 2, 3], pa.int64())}))
    out = degree_assortativity(p4, "u", "v").to_pandas()
    assert out["n_edges"][0] == 3
    assert abs(out["r"][0] - (-0.5)) < 1e-12
    # join path must equal broadcast path
    forced = degree_assortativity(p4, "u", "v",
                                  broadcast_max=0).to_pandas()
    assert forced["r"][0] == out["r"][0]


def _bowtie():
    """Two triangles sharing node 2: 0-1-2 and 2-3-4."""
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "u": pa.array([0, 1, 0, 2, 3, 2], pa.int64()),
        "v": pa.array([1, 2, 2, 3, 4, 4], pa.int64()),
    }))


def test_edge_jaccard_known_graph_and_join_path(ray_session):
    """Bowtie: the two outer edges (0,1)/(3,4) have jaccard 1/3
    (1 common neighbor over union 3); the four hub edges have 1/5.
    The join-orientation path (broadcast_max=0) must match bit-for-bit."""
    from vectrain_ray.functions.graph import edge_jaccard

    got = edge_jaccard(_bowtie(), "u", "v").to_pandas().sort_values(
        ["u", "v"]).reset_index(drop=True)  # dense-matmul path (default)
    assert list(zip(got["u"], got["v"])) == [
        (0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
    assert got["n_common"].tolist() == [1, 1, 1, 1, 1, 1]
    assert got["deg_u"].tolist() == [2, 2, 2, 4, 4, 2]
    assert got["deg_v"].tolist() == [2, 4, 4, 2, 2, 2]
    exp = [1 / 3, 1 / 5, 1 / 5, 1 / 5, 1 / 5, 1 / 3]
    assert np.allclose(got["jaccard"].to_numpy(), exp, rtol=0, atol=0)
    wedge = edge_jaccard(_bowtie(), "u", "v",
                         dense_max=0).to_pandas().sort_values(
        ["u", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, wedge, check_dtype=False)
    forced = edge_jaccard(_bowtie(), "u", "v", dense_max=0,
                          broadcast_max=0).to_pandas().sort_values(
        ["u", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, forced, check_dtype=False)


def test_link_predict_ra_known_values_cap_and_join_path(ray_session):
    """Bowtie: the four cross-triangle pairs (0,3) (0,4) (1,3) (1,4)
    share exactly one neighbor (the hub, degree 4) → n_common 1,
    ra_score = SCALE // 4. apex_cap below the hub degree excludes the
    hub and leaves NO candidates (the degree-2 apexes only generate
    already-adjacent pairs). Join path == broadcast path."""
    from vectrain_ray.functions.graph import RA_FP_SCALE, link_predict_ra

    got = link_predict_ra(_bowtie(), "u", "v").to_pandas().sort_values(
        ["u", "v"]).reset_index(drop=True)
    assert list(zip(got["u"], got["v"])) == [(0, 3), (0, 4), (1, 3), (1, 4)]
    assert got["n_common"].tolist() == [1, 1, 1, 1]
    assert got["ra_score"].tolist() == [RA_FP_SCALE // 4] * 4
    capped = link_predict_ra(_bowtie(), "u", "v", apex_cap=3)
    assert capped.count() == 0
    capped_wedge = link_predict_ra(_bowtie(), "u", "v", apex_cap=3,
                                   dense_max=0)
    assert capped_wedge.count() == 0
    wedge = link_predict_ra(_bowtie(), "u", "v",
                            dense_max=0).to_pandas().sort_values(
        ["u", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, wedge, check_dtype=False)
    forced = link_predict_ra(_bowtie(), "u", "v", dense_max=0,
                             broadcast_max=0).to_pandas().sort_values(
        ["u", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, forced, check_dtype=False)


def test_length_quantiles_exact_ranks(tmp_path, ray_session):
    """Known per-source length multisets pin the integer rank rule
    k_p = ceil(n·p/100): source 'a' has lengths [1..10] → p50 = 5,
    p90 = 9, p99 = 10; source 'b' = [2, 2, 4] → p50 = 2, p90/p99 = 4;
    an empty-text doc counts at length 0."""
    sf = str(tmp_path)
    texts = [" ".join(["w"] * k) for k in range(1, 11)]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(14), pa.int64()),
        "source": pa.array(["a"] * 10 + ["b"] * 3 + ["c"]),
        "text": pa.array(texts + ["x y", "x y", "x y z w", ""]),
    }), os.path.join(sf, "documents.parquet"))
    got = Q.q_length_quantiles(sf).to_pandas().sort_values(
        "source").reset_index(drop=True)
    assert got["source"].tolist() == ["a", "b", "c"]
    assert got["n_docs"].tolist() == [10, 3, 1]
    assert got["p50"].tolist() == [5, 2, 0]
    assert got["p90"].tolist() == [9, 4, 0]
    assert got["p99"].tolist() == [10, 4, 0]


def test_conversation_stats_edges_and_oracle_parity(tmp_path, ray_session):
    """Pinned shapes: a 3-sentence doc alternates user/asst/user; an
    empty doc is one 0-char user turn with NULL resp_ratio; a doc whose
    user turns are all empty ('. x') also gets NULL ratio. Full-frame
    parity vs the DuckDB oracle on the same fixture."""
    import duckdb

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["hi there. hello back. ok", "", ". x", None]),
    }), os.path.join(sf, "documents.parquet"))
    got = Q.q_conversation_stats(sf).to_pandas().sort_values(
        "conv_id").reset_index(drop=True)
    r0 = got[got["conv_id"] == "doc-0"].iloc[0]
    assert (r0["n_turns"], r0["n_user"], r0["n_assistant"]) == (3, 2, 1)
    assert r0["user_chars"] == len("hi there") + len("ok")
    assert r0["assistant_chars"] == len("hello back")
    assert abs(r0["resp_ratio"] - 10 / 10) < 1e-15
    r1 = got[got["conv_id"] == "doc-1"].iloc[0]
    assert (r1["n_turns"], r1["user_chars"]) == (1, 0)
    assert pd.isna(r1["resp_ratio"])
    r2 = got[got["conv_id"] == "doc-2"].iloc[0]
    assert (r2["n_user"], r2["n_assistant"]) == (1, 1)
    assert r2["user_chars"] == 0 and r2["assistant_chars"] == 1
    assert pd.isna(r2["resp_ratio"])
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["conversation_stats"]).df().sort_values(
        "conv_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False)
    # the coalesce in the oracle keeps NULL-text docs present on both
    # sides (one 0-char user turn), unlike a bare string_split(NULL)
    assert "doc-3" in set(oracle["conv_id"])


def test_pair_ops_dense_equals_wedge_on_random_graph(ray_session):
    """60-node deterministic random graph: the dense-matmul path and the
    distributed wedge path must agree on EVERY column of both pair ops
    (ncom counts, degrees, fixed-point RA scores, float jaccard bits)."""
    import ray.data as rd
    from vectrain_ray.functions.graph import edge_jaccard, link_predict_ra

    rng = np.random.RandomState(7)
    u = rng.randint(0, 60, 500).astype(np.int64)
    v = rng.randint(0, 60, 500).astype(np.int64)
    edges = rd.from_arrow(pa.table({"u": pa.array(u), "v": pa.array(v)}))

    for fn, cols in ((edge_jaccard, ["jaccard"]),
                     (link_predict_ra, ["ra_score"])):
        dense = fn(edges, "u", "v").to_pandas().sort_values(
            ["u", "v"]).reset_index(drop=True)
        wedge = fn(edges, "u", "v", dense_max=0).to_pandas().sort_values(
            ["u", "v"]).reset_index(drop=True)
        assert len(dense) > 50  # non-trivial workload
        pd.testing.assert_frame_equal(dense, wedge, check_dtype=False)
        for c in cols:  # float/fixed-point columns must match to the bit
            assert (dense[c].to_numpy() == wedge[c].to_numpy()).all()


def test_type_token_ratio_pinned_and_oracle_parity(tmp_path, ray_session):
    """Pinned values: 'a a b' → (3, 2, 1, 2/3); case-folding merges
    'A a'; empty/NULL docs are excluded (no tokens). Full-frame parity
    vs the DuckDB oracle on the same fixture."""
    import duckdb

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a a b", "x", "", None, "A  a"]),
    }), os.path.join(sf, "documents.parquet"))
    got = Q.q_type_token_ratio(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == [0, 1, 4]
    assert got["n_tokens"].tolist() == [3, 1, 2]
    assert got["n_distinct"].tolist() == [2, 1, 1]
    assert got["n_hapax"].tolist() == [1, 1, 0]
    assert got["ttr"].tolist() == [2 / 3, 1.0, 0.5]
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')")
    oracle = con.sql(Q.ORACLE_SQL["type_token_ratio"]).df().sort_values(
        "doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, oracle, check_dtype=False)


def test_reciprocity_pinned(ray_session):
    """Directed 0↔1, 0→2, 2↔3 plus a self-loop and a duplicate edge:
    self-loops drop (node 4 absent), duplicates collapse, and node 0's
    ratio is 1/2 (only the 0↔1 link is mutual)."""
    import ray.data as rd
    from vectrain_ray.functions.graph import reciprocity

    edges = rd.from_arrow(pa.table({
        "u": pa.array([0, 1, 0, 2, 3, 4, 0], pa.int64()),
        "v": pa.array([1, 0, 2, 3, 2, 4, 1], pa.int64()),
    }))
    got = reciprocity(edges, "u", "v").to_pandas().sort_values(
        "node").reset_index(drop=True)
    assert got["node"].tolist() == [0, 1, 2, 3]
    assert got["n_out"].tolist() == [2, 1, 1, 1]
    assert got["n_recip"].tolist() == [1, 1, 1, 1]
    assert got["recip_ratio"].tolist() == [0.5, 1.0, 1.0, 1.0]


def test_turn_overlap_pinned(tmp_path, ray_session):
    """The templated 2-turn conversation pins the numbers: turn 1 adds
    'yes,' to the 4 distinct turn-0 tokens → (4, 5, 4, 0.8) for every
    conversation, customer and supplier alike."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "n_nationkey": pa.array([7], pa.int32()),
        "n_name": pa.array(["ZETA"]),
    }), os.path.join(sf, "nation.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2], pa.int64()),
        "c_nationkey": pa.array([7, 7], pa.int32()),
    }), os.path.join(sf, "customer.parquet"))
    pq.write_table(pa.table({
        "s_suppkey": pa.array([5], pa.int64()),
        "s_nationkey": pa.array([7], pa.int32()),
    }), os.path.join(sf, "supplier.parquet"))
    got = Q.q_turn_overlap(sf).to_pandas().sort_values(
        "conv_id").reset_index(drop=True)
    assert got["conv_id"].tolist() == ["c-1", "c-2", "s-5"]
    assert got["turn_idx"].tolist() == [1, 1, 1]
    assert got["n_prev"].tolist() == [4, 4, 4]
    assert got["n_cur"].tolist() == [5, 5, 5]
    assert got["n_common"].tolist() == [4, 4, 4]
    assert got["jaccard"].tolist() == [0.8, 0.8, 0.8]
