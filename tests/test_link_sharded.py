"""Sharded link index (stages/link.py) — the ≥10^8-entity path.

Contract: ShardedEntityLinker over K crc-bucketed LinkShard actors produces
BIT-IDENTICAL output to the broadcast EntityLinker, including the fuzzy
fallback's global-argmax tie-break, and the full KG pipeline is invariant to
the index deployment shape (VERDICT r1 item 3: "a pytest forcing K≥4 shards
with kg_edges/kg_nodes oracle still exact").
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data as rd


@pytest.fixture(scope="module")
def tiny_mapping(tmp_path_factory):
    df = pd.DataFrame(
        {
            "surface_norm": [
                "acme corp", "acme corporation", "globex", "initech",
                "umbrella corp", "wayne enterprises", "stark industries",
            ],
            "entity_id": ["e1", "e1", "e2", "e3", "e4", "e5", "e6"],
            "canonical_name": [
                "Acme Corp", "Acme Corp", "Globex", "Initech",
                "Umbrella Corp", "Wayne Enterprises", "Stark Industries",
            ],
        }
    )
    return df


def _batch():
    surfaces = [
        "Acme Corp",          # exact (after normalize)
        "ACME corporation!",  # exact after normalize strips punctuation
        "Globex",             # exact
        "globex international ltd",   # fuzzy or new
        "Completely Unrelated Zzz",   # new entity
        None,                 # null passthrough
        "Stark  Industries",  # whitespace-collapse exact
    ]
    return pa.table({"subj": surfaces, "obj": list(reversed(surfaces))})


@pytest.mark.parametrize("threshold", [0.85, 0.0])
def test_sharded_equals_broadcast_linker(tiny_mapping, tmp_path, threshold):
    """Same batch through both deployment shapes → identical ids, at a real
    threshold (mixed exact/fuzzy/new) and at 0.0 (EVERY miss goes through
    the cross-shard global fuzzy max → exercises the tie-break)."""
    from vectrain_ray.stages.link import (
        EntityLinker,
        LinkShard,
        ShardedEntityLinker,
        build_link_index,
        make_link_shard_actors,
        write_link_index,
    )

    index_ref = ray.put(build_link_index(tiny_mapping, dim=64))
    broadcast = EntityLinker(index_ref=index_ref, dim=64,
                             fuzzy_threshold=threshold)

    idx_dir = str(tmp_path / f"idx_{threshold}")
    write_link_index(rd.from_pandas(tiny_mapping), idx_dir, num_shards=4)
    # at least two non-empty shards, or the test proves nothing
    non_empty = sum(
        1 for s in range(4) if LinkShard(idx_dir, s).norms)
    assert non_empty >= 2
    actors = make_link_shard_actors(idx_dir, 4, dim=64)
    try:
        sharded = ShardedEntityLinker(actors, dim=64,
                                      fuzzy_threshold=threshold)
        got_b = broadcast(_batch())
        got_s = sharded(_batch())
        assert got_b.column_names == got_s.column_names
        for col in ("subj_id", "obj_id"):
            assert got_b[col].to_pylist() == got_s[col].to_pylist(), col
        # memo path: second call identical
        assert sharded(_batch())["subj_id"].to_pylist() == \
            got_s["subj_id"].to_pylist()
    finally:
        for a in actors:
            ray.kill(a)


def _frames(res):
    out = {}
    for name in ("triples", "edges", "nodes"):
        df = res[name].to_pandas()
        for c in df.columns:
            if df[c].dtype == object:
                df[c] = df[c].astype(str)
        out[name] = df.sort_values(list(df.columns), kind="stable").reset_index(
            drop=True)
    return out


def test_kg_pipeline_invariant_to_link_sharding(small_transcripts, tmp_path):
    """run_kg with link_shards=4 == broadcast run_kg, row for row."""
    from vectrain_ray.pipelines.kg import run_kg

    ds = rd.from_arrow(small_transcripts)
    res_b = run_kg(ds, out_dir=None, write_outputs=False, link_shards=0)
    res_s = run_kg(ds, out_dir=str(tmp_path / "kg_sharded"),
                   write_outputs=False, link_shards=4)
    fb, fs = _frames(res_b), _frames(res_s)
    for name in ("triples", "edges", "nodes"):
        pd.testing.assert_frame_equal(fb[name], fs[name]), name


def test_resumable_with_sharded_index(small_transcripts, tmp_path,
                                      monkeypatch):
    """Resumable runner with link_shards: same edges/nodes as broadcast on
    both sides of the local gate (the sharded linker called in the driver,
    and as a Ray actor pool), and a rerun skips all phases (index marker
    honored)."""
    import pyarrow.parquet as pq

    from vectrain_ray.pipelines import resume as R
    from vectrain_ray.pipelines.resume import run_kg_resumable

    inp = str(tmp_path / "in")
    rd.from_arrow(small_transcripts).write_parquet(inp)
    out_b = str(tmp_path / "out_broadcast")
    out_s = str(tmp_path / "out_sharded")
    out_r = str(tmp_path / "out_sharded_ray")
    run_kg_resumable(inp, out_b, num_parts=2, link_shards=0)
    m1 = run_kg_resumable(inp, out_s, num_parts=2, link_shards=3)
    assert m1["gate"]["p3"]["path"] == "local"
    with monkeypatch.context() as mp:
        mp.setattr(R, "LOCAL_MAX_ROWS", 0)
        m_r = run_kg_resumable(inp, out_r, num_parts=2, link_shards=3)
    assert m_r["gate"]["p3"]["path"] == "ray"

    def read(out, tbl):
        df = pq.read_table(f"{out}/{tbl}").to_pandas()
        for c in df.columns:
            if df[c].dtype == object:
                df[c] = df[c].astype(str)
        return df.sort_values(list(df.columns), kind="stable").reset_index(
            drop=True)

    for tbl in ("edges", "nodes"):
        for out in (out_s, out_r):
            pd.testing.assert_frame_equal(read(out_b, tbl), read(out, tbl),
                                          obj=f"{tbl} ({out})")

    m2 = run_kg_resumable(inp, out_s, num_parts=2, link_shards=3)
    assert m2["skipped_p1"] == len(m1["p1_parts"]) and m2["skipped_p1"] > 0
    assert m2["skipped_p3"] == len(m1["p3_parts"]) and m2["skipped_p3"] > 0


def test_name_edges_join_path_equals_broadcast(small_transcripts):
    """name_edges above the broadcast threshold (forced with
    broadcast_max=0) must equal the broadcast path row-for-row — the node
    table is never driver-materialized on the scale path."""
    from vectrain_ray.pipelines.kg import run_kg
    from vectrain_ray.pipelines.queries import name_edges

    res = run_kg(rd.from_arrow(small_transcripts), out_dir=None,
                 write_outputs=False)
    b = name_edges(res["edges"], res["nodes"]).to_pandas()
    j = name_edges(res["edges"], res["nodes"], broadcast_max=0).to_pandas()
    key = ["src_name", "pred", "dst_name", "weight"]
    pd.testing.assert_frame_equal(
        b.sort_values(key, kind="stable").reset_index(drop=True),
        j.sort_values(key, kind="stable").reset_index(drop=True),
    )


def test_link_shard_ivf_all_probe_equals_exact(tiny_mapping, tmp_path):
    """IVF fuzzy mode with n_probe = all cells must return exactly the
    brute-force matches (same rows, scores and tie-breaks); a 1-probe run
    still returns well-formed results from the probed cell."""
    import numpy as np
    import ray.data as rd

    from vectrain_ray.stages.encode import encode_texts
    from vectrain_ray.stages.link import LinkShard, write_link_index

    index_dir = str(tmp_path / "idx")
    write_link_index(rd.from_pandas(tiny_mapping), index_dir, 1)

    exact = LinkShard(index_dir, 0, dim=64)
    ivf_all = LinkShard(index_dir, 0, dim=64, ann="ivf", n_cells=4)
    ivf_one = LinkShard(index_dir, 0, dim=64, ann="ivf", n_cells=4, n_probe=1)

    q = encode_texts(["acme korp", "stark industry", "umbrela corp",
                      "zzz unknown thing"], dim=64)
    se, ee, ne, me = exact.fuzzy(q)
    sa, ea, na, ma = ivf_all.fuzzy(q)
    assert list(ee) == list(ea) and list(ne) == list(na) \
        and list(me) == list(ma)
    assert np.allclose(se, sa)
    s1, e1, n1, m1 = ivf_one.fuzzy(q)
    assert len(e1) == 4
    for sc, eid in zip(s1, e1):  # valid match OR the empty-cell sentinel
        assert (eid is not None) or (sc == -np.inf)
    assert (np.asarray(s1) <= np.asarray(se) + 1e-12).all()  # probe ⊆ all


def test_link_shard_ivf_empty_shard_falls_back(tiny_mapping, tmp_path):
    """write_parquet creates no dir for an empty partition, so with many
    shards some are EMPTY — ann='ivf' on such a shard must fall back to
    exact (zero-row) behaviour, not raise 'unknown ann mode'."""
    import numpy as np
    import ray.data as rd

    from vectrain_ray.stages.encode import encode_texts
    from vectrain_ray.stages.link import LinkShard, write_link_index

    index_dir = str(tmp_path / "idx8")
    write_link_index(rd.from_pandas(tiny_mapping), index_dir, 8)
    import glob as _g
    import os as _os

    empty = next(s for s in range(8) if not _g.glob(
        _os.path.join(index_dir, f"link_shard={s}", "*.parquet")))
    shard = LinkShard(index_dir, empty, dim=64, ann="ivf")
    s, e, n, m = shard.fuzzy(encode_texts(["anything"], dim=64))
    assert list(e) == [None] and s[0] == -np.inf


@pytest.mark.parametrize("threshold", [0.85, 0.0])
def test_routed_fuzzy_equals_fanout_and_broadcast(tmp_path, threshold):
    """Round-3 verdict item 1: centroid-routed shard probing (default) must
    be bit-identical to both the all-shard fan-out (route=False) and the
    broadcast linker at K=8, while doing strictly fewer query x shard
    scorings than the fan-out."""
    from vectrain_ray.stages.link import (
        EntityLinker,
        ShardedEntityLinker,
        build_link_index,
        make_link_shard_actors,
        write_link_index,
    )

    mapping = pd.DataFrame({
        "surface_norm": [f"company {w}" for w in (
            "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
            "hotel", "india", "juliett", "kilo", "lima", "mike", "november",
            "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
            "victor", "whiskey", "xray", "yankee", "zulu")] + [
            "acme corp", "globex", "initech", "umbrella corp",
            "wayne enterprises", "stark industries", "tyrell corp",
            "cyberdyne systems", "weyland yutani", "oceanic airlines"],
    })
    mapping["entity_id"] = [f"e{i}" for i in range(len(mapping))]
    mapping["canonical_name"] = mapping["surface_norm"].str.title()

    K = 8
    idx_dir = str(tmp_path / "idx_routed")
    write_link_index(rd.from_pandas(mapping), idx_dir, num_shards=K)
    actors = make_link_shard_actors(idx_dir, K, dim=64)
    try:
        queries = [
            "Company Alfa", "company bravoo", "compny charlie", "Acme Korp",
            "globex international", "stark industry", "tyrel corp",
            "cyberdine systems", "weiland yutani", "oceanic airline",
            "totally novel zzz", "qqq unrelated thing", "company zulu",
            "Umbrella Corp", None, "wayne enterprise",
        ]
        batch = pa.table({"subj": queries, "obj": list(reversed(queries))})

        broadcast = EntityLinker(
            index_ref=ray.put(build_link_index(mapping, dim=64)),
            dim=64, fuzzy_threshold=threshold)
        routed = ShardedEntityLinker(actors, dim=64, fuzzy_threshold=threshold)
        fanout = ShardedEntityLinker(actors, dim=64, fuzzy_threshold=threshold,
                                     route=False)
        got_b, got_r, got_f = broadcast(batch), routed(batch), fanout(batch)
        for col in ("subj_id", "obj_id"):
            assert got_b[col].to_pylist() == got_r[col].to_pylist(), col
            assert got_b[col].to_pylist() == got_f[col].to_pylist(), col

        assert fanout.stats["fuzzy_probes"] == K * fanout.stats["fuzzy_misses"]
        assert routed.stats["fuzzy_misses"] == fanout.stats["fuzzy_misses"]
        # the point of the fix: strictly fewer probes than K x misses — and
        # at a real threshold, fewer actor RPCs too (threshold=0.0 is the
        # adversarial no-pruning case: every shard's bound stays >= 0, so
        # round-by-round probing can cost an extra RPC; scorings still drop)
        assert routed.stats["fuzzy_probes"] < fanout.stats["fuzzy_probes"]
        if threshold >= 0.85:
            assert routed.stats["fuzzy_calls"] < fanout.stats["fuzzy_calls"]
    finally:
        for a in actors:
            ray.kill(a)
