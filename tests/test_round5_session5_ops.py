"""Round-5 session-5 ops: quality_filter, dup_ngram_fraction, value_corr,
embed_quantize, cross_join. The sf0.01 oracle gate covers value parity on
the real tables; these pin rule boundaries and known-value semantics on
engineered fixtures."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vectrain_ray.pipelines import queries as Q

SF = "/root/testdata/sf0.001"


def test_quality_filter_rule_boundaries(tmp_path, ray_session):
    """One doc per rule edge: doc 0 passes everything at the exact
    boundaries (30 tokens, mean length exactly 4.0); doc 1 fails only
    the count rule (29 tokens); doc 2 fails only mean-token-length
    (3-char tokens); doc 3 fails distinctness AND top-unigram (one token
    repeated)."""
    sf = str(tmp_path)
    ok_doc = " ".join(f"t{i:03d}" for i in range(30))        # 30 × len-4
    short_doc = " ".join(f"t{i:03d}" for i in range(29))     # 29 tokens
    thin_doc = " ".join(f"a{i:02d}" for i in range(30))      # len-3 tokens
    rep_doc = " ".join(["wwww"] * 30)                        # 1 distinct
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array([ok_doc, short_doc, thin_doc, rep_doc]),
    }), os.path.join(sf, "documents.parquet"))
    got = Q.q_quality_filter(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert got["n_tokens"].tolist() == [30, 29, 30, 30]
    assert got["ok_len"].tolist() == [1, 0, 1, 1]
    assert got["ok_tok_len"].tolist() == [1, 1, 0, 1]
    assert got["ok_distinct"].tolist() == [1, 1, 1, 0]
    assert got["ok_top"].tolist() == [1, 1, 1, 0]
    assert got["keep"].tolist() == [1, 0, 0, 0]


def test_dup_ngram_fraction_known_counts(tmp_path, ray_session):
    """docs 0/1 share the 3-gram 'a b c' (each contributes one of its two
    gram occurrences → frac 0.5); doc 2 has a unique gram (frac 0); a
    2-token doc emits no grams and is absent."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["a b c d", "a b c x", "p q r", "u v"]),
    }), os.path.join(sf, "documents.parquet"))
    got = Q.q_dup_ngram_fraction(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == [0, 1, 2]
    assert got["n_grams"].tolist() == [2, 2, 1]
    assert got["n_dup_grams"].tolist() == [1, 1, 0]
    assert got["dup_frac"].tolist() == [0.5, 0.5, 0.0]


def test_value_corr_known_values_and_zero_variance(tmp_path, ray_session):
    """Group 'e': k = 2·cents exactly → corr 1.0, slope 2.0. Group 'z'
    has zero variance on both features → excluded."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "event_type": pa.array(["e", "e", "e", "z", "z"]),
        "value": pa.array([0.01, 0.02, 0.03, 0.05, 0.05], pa.float64()),
        "props": pa.array(['{"k": 2}', '{"k": 4}', '{"k": 6}',
                           '{"k": 9}', '{"k": 9}']),
    }), os.path.join(sf, "events.parquet"))
    got = Q.q_value_corr(sf).to_pandas()
    assert got["event_type"].tolist() == ["e"]
    assert got["n_events"].tolist() == [3]
    # cov/sqrt-products round to 1 + 1ulp; parity with the oracle tree is
    # the sf0.01 gate's job — this pins the statistic, not the bits
    assert np.allclose(got["corr"], [1.0], rtol=0, atol=1e-12)
    assert np.allclose(got["slope"], [2.0], rtol=0, atol=1e-12)


def test_embed_quantize_known_codes(tmp_path, ray_session):
    """[1, -0.5, 0] → mx 1, codes [127, -63, 0] (floor(-63.5+0.5) = -63);
    [0, 0, 2] → codes [0, 0, 127]; the all-zero vector is excluded."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([[1.0, -0.5, 0.0], [0.0, 0.0, 2.0],
                               [0.0, 0.0, 0.0]],
                              pa.list_(pa.float32())),
    }), os.path.join(sf, "embeddings.parquet"))
    got = Q.q_embed_quantize(sf).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    assert got["vec_id"].tolist() == [0, 1]
    assert got["dim"].tolist() == [3, 3]
    assert got["code_sum"].tolist() == [127 - 63, 127]
    assert got["code_l1"].tolist() == [127 + 63, 127]
    assert np.allclose(got["scale"], [1.0 / 127.0, 2.0 / 127.0])


def test_winsorize_known_thresholds(tmp_path, ray_session):
    """Source 'a' = lengths 1..20 → p5 rank k=(20·5+99)//100=1 → lo=1,
    p95 rank k=19 → hi=19: only the 20 clips (to 19). Source 'b' has 3
    equal values → lo=hi=7, nothing clips. A NULL source is in no group,
    as in the SQL oracle: its row is dropped and moves no threshold."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(25), pa.int64()),
        "source": pa.array(["a"] * 20 + ["b"] * 3 + [None] * 2),
        "n_chars": pa.array(list(range(1, 21)) + [7, 7, 7, 500, 1],
                            pa.int64()),
    }), os.path.join(sf, "documents.parquet"))
    got = Q.q_winsorize_by_group(sf).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert got["doc_id"].tolist() == list(range(23))
    a = got[got["source"] == "a"]
    assert a["clipped"].sum() == 1
    assert a.loc[a["n_chars"] == 20, "n_chars_w"].tolist() == [19]
    assert a.loc[a["n_chars"] == 1, "n_chars_w"].tolist() == [1]
    b = got[got["source"] == "b"]
    assert b["clipped"].sum() == 0
    assert b["n_chars_w"].tolist() == [7, 7, 7]


def test_ngram_containment_subset_pair(tmp_path, ray_session):
    """doc 1 is a strict prefix of doc 0 → containment 1.0 while Jaccard
    < 1 (the asymmetric signal); docs 2/3 share nothing → 0.0; a pair
    with an empty side (doc 4) is excluded."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array(["abcdefghij", "abcdefg", "abcdefg",
                          "zzzzzzzz", ""]),
    }), os.path.join(sf, "documents.parquet"))
    got = Q.q_ngram_containment(sf).to_pandas().sort_values(
        "doc_a").reset_index(drop=True)
    assert got["doc_a"].tolist() == [0, 1, 2]  # pair (3,4) excluded
    r01 = got[got["doc_a"] == 0].iloc[0]
    assert (r01["n_a"], r01["n_b"], r01["n_common"]) == (6, 3, 3)
    assert r01["containment"] == 1.0
    r23 = got[got["doc_a"] == 2].iloc[0]
    assert r23["n_common"] == 0 and r23["containment"] == 0.0


def test_cluster_purity_counts_conserved(ray_session):
    """Purity rows must partition the corpus: Σ n_vecs = #vectors,
    n_top ≤ n_vecs, purity ∈ (0, 1], and the majority tie-break is the
    smallest label (pinned implicitly by oracle parity at the gate)."""
    import pyarrow.parquet as _pq
    got = Q.q_cluster_purity(SF).to_pandas()
    total = _pq.read_metadata(os.path.join(SF, "embeddings.parquet")).num_rows
    assert got["n_vecs"].sum() == total
    assert (got["n_top"] <= got["n_vecs"]).all()
    assert ((got["purity"] > 0) & (got["purity"] <= 1)).all()
    assert got["cluster"].is_unique


def test_cluster_purity_keeps_null_labels(tmp_path, ray_session):
    """A NULL label is a group like any other (SQL GROUP BY semantics):
    n_vecs must count it and purity must not inflate. 3 IDENTICAL
    vectors (every vector is also a centroid at this size; identical →
    all tie to cluster 0) land in one cluster; one has a NULL label →
    n_vecs=3, majority label 7 with n_top=2, purity 2/3."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([[1.0, 0.0]] * 3, pa.list_(pa.float32())),
        "label": pa.array([7, 7, None], pa.int32()),
    }), os.path.join(sf, "embeddings.parquet"))
    got = Q.q_cluster_purity(sf).to_pandas()
    assert got["n_vecs"].sum() == 3
    row = got.loc[got["n_vecs"].idxmax()]
    assert row["n_vecs"] == 3 and row["n_top"] == 2
    assert row["top_label"] == 7
    assert abs(row["purity"] - 2 / 3) < 1e-12


def test_cross_join_full_product(ray_session):
    got = Q.q_cross_join(SF).to_pandas()
    assert len(got) == 125  # 25 nations × 5 regions
    assert got["n_name"].nunique() == 25
    assert got["r_name"].nunique() == 5
    assert not got.duplicated(["n_nationkey", "r_name"]).any()


@pytest.mark.parametrize("op", ["q_ngram_jaccard", "q_ngram_containment"])
def test_pair_verify_rejects_duplicate_doc_id(op, tmp_path, ray_session):
    """A duplicated doc_id raises a clear error; it used to drop the pairs
    around it silently."""
    sf = str(tmp_path)
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 2, 3], pa.int64()),
        "text": pa.array(["abcdefghij", "abcdefg", "abcdefg", "zzzzzzzz",
                          "abcdexyz"]),
    }), os.path.join(sf, "documents.parquet"))
    with pytest.raises(Exception, match=r"doc_id must be unique; "
                                        r"duplicated: \[2\]"):
        getattr(Q, op)(sf).to_pandas()
