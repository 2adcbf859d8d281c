"""Edge aggregation: packed-partial merge correctness, the optional
second-level recombine path, and the Arrow merge kernels against their
frozen pandas formulations."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data as rd

from vectrain_ray.functions.dedup_exact import key_buckets
from vectrain_ray.stages import materialize as M
from vectrain_ray.stages.materialize import edges_from_linked


def _linked(rows):
    """rows: list of (subj_id, obj_id, pred, conv_id, turn_idx)."""
    return rd.from_arrow(
        pa.table(
            {
                "subj_id": pa.array([r[0] for r in rows]),
                "obj_id": pa.array([r[1] for r in rows]),
                "pred": pa.array([r[2] for r in rows]),
                "conv_id": pa.array([r[3] for r in rows]),
                "turn_idx": pa.array([r[4] for r in rows], pa.int32()),
            }
        )
    )


def _canon(ds):
    df = ds.to_pandas()
    df["prov"] = df["prov"].apply(tuple)
    return df.sort_values(["src_id", "dst_id", "pred"]).reset_index(drop=True)


def test_edge_recombine_paths_identical():
    """recombine on (any bundle size) ≡ recombine off: weights and the
    min-k capped provenance lists must match row for row."""
    rows = []
    # one dense edge spread over many convs (exercises the PROV_CAP min-k
    # merge) + a few sparse edges
    for i in range(60):
        rows.append(("a", "b", "works_at", f"conv{i:03d}", i % 7))
    rows += [("a", "c", "knows", "convX", 1), ("d", "b", "knows", "convY", 2),
             ("a", "b", "works_at", "conv000", 0)]  # dup prov within an edge
    ds = _linked(rows)
    base = _canon(edges_from_linked(ds, recombine_batch=None))
    assert (base["weight"] >= 1).all()
    dense = base[(base["src_id"] == "a") & (base["pred"] == "works_at")]
    assert int(dense["weight"].iloc[0]) == 61
    assert len(dense["prov"].iloc[0]) == 20  # PROV_CAP
    for rb in (8, 1 << 20):
        got = _canon(edges_from_linked(_linked(rows), recombine_batch=rb))
        assert got.equals(base), f"recombine_batch={rb} diverged"


# --- golden tests: the Arrow merge kernels against the pandas formulations
# they replaced, frozen here as the reference. Equality is Table.equals,
# schema included.
CAP = M.PROV_CAP


def _arrow(df: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(df, preserve_index=False
                                ).replace_schema_metadata(None)


def _ref_partial_edges(batch: pa.Table, extra_cols: tuple = ()) -> pa.Table:
    keys = ["src_id", "dst_id", "pred", *extra_cols]
    cols = {
        "src_id": batch["subj_id"], "dst_id": batch["obj_id"],
        "pred": batch["pred"],
        "prov": pc.binary_join_element_wise(
            batch["conv_id"],
            pc.utf8_lpad(pc.cast(batch["turn_idx"], pa.string()), 6, "0"),
            "|"),
    }
    for c in extra_cols:
        cols[c] = batch[c]
    grp = pa.table(cols).group_by(keys + ["prov"]).aggregate(
        [([], "count_all")]).rename_columns(keys + ["prov", "cnt"])
    df = grp.to_pandas().sort_values(keys + ["prov"], kind="stable")
    out = df.groupby(keys, sort=False)["cnt"].sum().to_frame("cnt")
    pv = df[df["prov"].notna()]
    gp = pv.groupby(keys, sort=False)
    packed = pv[gp.cumcount() < CAP].groupby(keys, sort=False)["prov"].agg(
        "\x1f".join)
    out["prov"] = packed.reindex(out.index)
    out = out.reset_index()
    out["bucket"] = key_buckets(out, ["src_id", "dst_id", "pred"],
                                M.NUM_BUCKETS)
    res = {
        "src_id": pa.array(out["src_id"], pa.string()),
        "dst_id": pa.array(out["dst_id"], pa.string()),
        "pred": pa.array(out["pred"], pa.string()),
        "prov": pa.array(out["prov"], pa.string()),
        "cnt": pa.array(out["cnt"], pa.int64()),
        "bucket": pa.array(out["bucket"], pa.int32()),
    }
    for c in extra_cols:
        res[c] = pa.array(out[c])
    return pa.table(res)


def _ref_finalize_edges_bucket(t: pa.Table) -> pa.Table:
    g = t.to_pandas()
    keys = ["src_id", "dst_id", "pred"]
    w = g.groupby(keys, sort=True)["cnt"].sum()
    pv = g.dropna(subset=["prov"])[keys + ["prov"]].copy()
    pv["prov"] = pv["prov"].str.split("\x1f")
    pv = pv.explode("prov")
    pv = pv[pv["prov"].notna() & (pv["prov"] != "")]
    pv = pv.drop_duplicates(subset=keys + ["prov"])
    pv = pv.sort_values(keys + ["prov"], kind="stable").groupby(
        keys, sort=True).head(CAP)
    prov_lists = pv.groupby(keys, sort=True)["prov"].agg(list)
    out = pd.DataFrame({"weight": w.astype("int64")})
    out["prov"] = prov_lists.reindex(out.index)
    out["prov"] = out["prov"].apply(lambda x: x if isinstance(x, list) else [])
    return _arrow(out.reset_index())


def _ref_mapping_row_for_union(batch: pa.Table) -> pa.Table:
    aliases = batch["aliases"].to_pylist()
    return pa.table({
        "entity_id": batch["entity_id"],
        "surface_norm": batch["surface_norm"],
        "canonical_name": batch["canonical_name"],
        "n_mentions": pc.cast(batch["n_mentions"], pa.int64()),
        "aliases_packed": pa.array(["\x1f".join(a or []) for a in aliases],
                                   pa.string()),
        "degree": pa.nulls(batch.num_rows, pa.int64()),
    })


def _ref_merge_nodes_bucket(t: pa.Table) -> pa.Table:
    g = t.to_pandas()
    deg = g.groupby("entity_id")["degree"].sum().fillna(0).astype("int64")
    m = g[g["canonical_name"].notna()]
    if m.empty:
        return _arrow(pd.DataFrame())
    nm = m.groupby("entity_id")["n_mentions"].sum().astype("int64")
    heaviest = m.sort_values(["entity_id", "n_mentions", "surface_norm"],
                             ascending=[True, False, True], kind="stable"
                             ).drop_duplicates("entity_id").set_index("entity_id")
    al = m[["entity_id", "aliases_packed"]].copy()
    al["aliases_packed"] = al["aliases_packed"].str.split("\x1f")
    al = al.explode("aliases_packed").dropna().drop_duplicates()
    aliases = al.sort_values(["entity_id", "aliases_packed"]).groupby(
        "entity_id")["aliases_packed"].agg(list)
    idx = heaviest.index
    return _arrow(pd.DataFrame({
        "entity_id": idx,
        "canonical_name": heaviest["canonical_name"].values,
        "aliases": aliases.reindex(idx).apply(
            lambda x: x if isinstance(x, list) else []).values,
        "n_mentions": nm.reindex(idx).values,
        "degree": deg.reindex(idx).fillna(0).astype("int64").values,
    }))


def _linked_table(rows, part=None) -> pa.Table:
    cols = {
        "subj_id": pa.array([r[0] for r in rows], pa.string()),
        "obj_id": pa.array([r[1] for r in rows], pa.string()),
        "pred": pa.array([r[2] for r in rows], pa.string()),
        "conv_id": pa.array([r[3] for r in rows], pa.string()),
        "turn_idx": pa.array([r[4] for r in rows], pa.int32()),
    }
    if part is not None:
        cols["part"] = pa.array(part, pa.int32())
    return pa.table(cols)


def _batches() -> list[pa.Table]:
    """Linked triples in three batches: a dense edge with 3×CAP distinct
    turns spread over every batch (so each batch's packed partial is
    capped and the global first-CAP needs all three), one prov string in
    every batch, null conv_ids next to valid ones, sparse edges, and a
    null subject id (a null key is in no group, as in pandas)."""
    rng = np.random.default_rng(5)
    dense = [("a", "b", "works_at", f"c{t % 7}", int(t))
             for t in rng.permutation(3 * CAP)]
    out = []
    for k in range(3):
        rows = dense[k::3] + [("a", "b", "works_at", "c0", 0),
                              ("x", "y", "knows", f"z{k}", k),
                              ("n", "m", "knows", None, k),
                              ("a", "b", "works_at", None, 1)]
        if k == 1:
            rows += [("n", "m", "knows", "c9", 9), ("p", "q", "knows", None, 0)]
        if k == 2:
            rows += [(None, "b", "knows", "c1", 3)]
        out.append(_linked_table(rows))
    return out


def test_partial_edges_golden():
    for batch in _batches():
        got, ref = M.partial_edges(batch), _ref_partial_edges(batch)
        assert got.equals(ref, check_metadata=True)
    whole = pa.concat_tables(_batches())
    assert M.partial_edges(whole).equals(_ref_partial_edges(whole))
    # capped at CAP, a null prov only where the key has no valid one
    got = M.partial_edges(whole).to_pylist()
    assert {r["src_id"]: r["prov"] for r in got}["p"] is None
    assert max(len(r["prov"].split("\x1f")) for r in got if r["prov"]) == CAP


def test_partial_edges_golden_extra_cols():
    whole = pa.concat_tables(_batches())
    part = [i % 3 for i in range(whole.num_rows)]
    t = _linked_table(list(zip(*[whole[c].to_pylist() for c in (
        "subj_id", "obj_id", "pred", "conv_id", "turn_idx")])), part=part)
    got = M.partial_edges(t, extra_cols=("part",))
    assert got.equals(_ref_partial_edges(t, extra_cols=("part",)))
    assert got.schema.field("part").type == pa.int32()


def _packed_partials() -> pa.Table:
    """Edge partials as phase 4 reads them: per-batch packed partials,
    recombined, plus hand-made rows with a null prov, an empty prov and
    empty segments between separators."""
    parts = [M.partial_edges(b) for b in _batches()]
    t = pa.concat_tables(parts + [M.recombine_edge_partials(
        pa.concat_tables(parts))])
    extra = pa.table({
        "src_id": ["x", "x", "e", "e"], "dst_id": ["y", "y", "f", "f"],
        "pred": ["knows"] * 4,
        "prov": [None, "", "\x1fz0|000001\x1f\x1fz0|000001", None],
        "cnt": pa.array([2, 1, 3, 1], pa.int64())})
    buckets = key_buckets(extra.to_pandas(), ["src_id", "dst_id", "pred"],
                          M.NUM_BUCKETS)
    extra = extra.append_column("bucket", pa.array(buckets, pa.int32()))
    return pa.concat_tables([t, extra])


def test_finalize_edges_golden():
    t = _packed_partials()
    got = M._finalize_edges_bucket(t)
    assert got.equals(_ref_finalize_edges_bucket(t), check_metadata=True)
    provs = {r["src_id"]: r["prov"] for r in got.to_pylist()}
    assert provs["a"] == sorted(provs["a"]) and len(provs["a"]) == CAP
    assert provs["p"] == [] and provs["e"] == ["z0|000001"]
    # one bucket at a time (the Ray exchange) gives the same rows
    by_bucket = pa.concat_tables(
        M._finalize_edges_bucket(t.filter(pc.equal(t["bucket"], b)))
        for b in pc.unique(t["bucket"]).to_pylist())
    assert by_bucket.sort_by("src_id").equals(got.sort_by("src_id"))


def _mapping() -> pa.Table:
    return pa.table({
        "surface_norm": ["acme", "acme co", "bob", "carol", "dan", "carl"],
        "entity_id": ["e1", "e1", "e2", "e3", "e4", "e3"],
        "canonical_name": ["Acme", "Acme Co", "Bob", "Carol", "Dan", "Carl"],
        "n_mentions": pa.array([3, 3, 1, 2, 1, 5], pa.int64()),
        "aliases": pa.array([["Acme", "ACME"], ["Acme Co", "Acme"], None,
                             [], ["Dan"], ["Carl"]], pa.list_(pa.string())),
    })


def _node_union() -> pa.Table:
    edges = M._finalize_edges_bucket(pa.table({
        "src_id": ["e1", "e2", "e9"], "dst_id": ["e3", "e1", "e8"],
        "pred": ["knows"] * 3, "prov": ["c|000001"] * 3,
        "cnt": pa.array([1, 1, 1], pa.int64())}))
    return pa.concat_tables([
        M._mapping_row_for_union(_mapping()),
        M._degree_row_for_union(M.partial_degrees(edges))])


def test_mapping_row_for_union_golden():
    m = _mapping()
    got = M._mapping_row_for_union(m)
    assert got.equals(_ref_mapping_row_for_union(m), check_metadata=True)
    assert got["aliases_packed"].to_pylist()[2:4] == ["", ""]


def test_merge_nodes_golden():
    """Null and empty aliases, an entity with two norms tied on
    n_mentions, one whose heaviest norm sorts last, and degree rows for
    ids (e8, e9) with no mapping row."""
    t = _node_union()
    got = M._merge_nodes_bucket(t)
    assert got.equals(_ref_merge_nodes_bucket(t), check_metadata=True)
    rows = {r["entity_id"]: r for r in got.to_pylist()}
    assert set(rows) == {"e1", "e2", "e3", "e4"}
    assert rows["e1"]["canonical_name"] == "Acme"
    assert rows["e3"]["canonical_name"] == "Carl"
    assert rows["e1"]["aliases"] == ["ACME", "Acme", "Acme Co"]
    assert (rows["e1"]["degree"], rows["e4"]["degree"]) == (2, 0)
    # a bucket of degree rows only: no nodes, in the schema of a
    # non-empty bucket (the reference's empty frame had no columns)
    only_degree = t.filter(pc.is_null(t["canonical_name"]))
    empty = M._merge_nodes_bucket(only_degree)
    assert empty.num_rows == _ref_merge_nodes_bucket(only_degree).num_rows
    assert empty.num_rows == 0 and empty.schema.equals(got.schema)


@pytest.mark.parametrize("kernel", ["partial_edges", "finalize", "mapping",
                                    "nodes"])
def test_merge_kernels_golden_empty(kernel):
    """An all-empty bucket. The reference's pandas frames lose the column
    types of an empty finalize (null-typed columns) and node merge (no
    columns); the Arrow kernels keep the schema of a non-empty bucket,
    which the test asserts instead."""
    if kernel == "partial_edges":
        t = _linked_table([]).slice(0, 0)
        assert M.partial_edges(t).equals(_ref_partial_edges(t))
    elif kernel == "finalize":
        t = _packed_partials().slice(0, 0)
        got = M._finalize_edges_bucket(t)
        assert got.num_rows == _ref_finalize_edges_bucket(t).num_rows == 0
        assert got.schema.equals(
            _ref_finalize_edges_bucket(_packed_partials()).schema)
    elif kernel == "mapping":
        t = _mapping().slice(0, 0)
        assert M._mapping_row_for_union(t).equals(
            _ref_mapping_row_for_union(t))
    else:
        t = _node_union().slice(0, 0)
        got = M._merge_nodes_bucket(t)
        assert got.num_rows == _ref_merge_nodes_bucket(t).num_rows == 0
        assert got.schema.equals(_ref_merge_nodes_bucket(_node_union()).schema)
