"""Canonicalization: alias clustering, hot-key safety, union-find merge."""

import pyarrow as pa
import ray.data as rd

from vectrain_ray import rules
from vectrain_ray.stages.canonicalize import (
    build_mapping,
    partial_surface_counts,
)
from vectrain_ray.state.unionfind import UnionFind


def _mentions(surfs):
    return rd.from_arrow(
        pa.table(
            {
                "conv_id": pa.array(["c"] * len(surfs)),
                "turn_idx": pa.array(list(range(len(surfs))), pa.int32()),
                "mention_id": pa.array([f"m{i}" for i in range(len(surfs))]),
                "surface_form": pa.array(surfs),
                "span_start": pa.array([0] * len(surfs), pa.int32()),
                "span_end": pa.array([1] * len(surfs), pa.int32()),
            }
        )
    )


def test_partial_counts_collapse_hot_keys():
    batch = pa.table(
        {"surface_form": pa.array(["Acme Corp"] * 1000 + ["Rare Co"])}
    )
    out = partial_surface_counts(batch)
    assert out.num_rows == 2  # 1001 rows → 2 partial rows before any shuffle
    d = {r["surface_form"]: r["cnt"] for r in out.to_pylist()}
    assert d["Acme Corp"] == 1000


def test_alias_clustering_merges_suffix_variants():
    ds = _mentions(["Acme Corp", "Acme Inc", "acme corp", "Globex Ltd"])
    mapping = build_mapping(ds).to_pandas()
    by_norm = dict(zip(mapping["surface_norm"], mapping["entity_id"]))
    assert by_norm["acme corp"] == by_norm["acme inc"]
    assert by_norm["acme corp"] != by_norm["globex ltd"]
    # canonical name is the most frequent original casing of the cluster
    names = dict(zip(mapping["surface_norm"], mapping["canonical_name"]))
    assert names["acme corp"] in ("Acme Corp", "acme corp")


def test_extra_pairs_union_find_merge():
    ds = _mentions(["Acme Corp", "Globex Ltd", "Initech"])
    merged = build_mapping(ds, extra_pairs=[("acme corp", "globex ltd")]).to_pandas()
    by_norm = dict(zip(merged["surface_norm"], merged["entity_id"]))
    assert by_norm["acme corp"] == by_norm["globex ltd"]
    assert by_norm["initech"] != by_norm["acme corp"]


def test_union_find_groups():
    uf = UnionFind()
    uf.union("a", "b")
    uf.union("b", "c")
    uf.union("x", "y")
    gs = {tuple(sorted(v)) for v in uf.groups().values()}
    assert gs == {("a", "b", "c"), ("x", "y")}


def test_mapping_entity_ids_stable_across_runs(small_transcripts):
    from vectrain_ray.stages.extract import extract_batch, mentions_table

    ext = extract_batch(small_transcripts)
    m = mentions_table(ext)
    a = build_mapping(rd.from_arrow(m)).to_pandas()
    b = build_mapping(rd.from_arrow(m)).to_pandas()
    a = a.sort_values("surface_norm").reset_index(drop=True)
    b = b.sort_values("surface_norm").reset_index(drop=True)
    assert list(a["entity_id"]) == list(b["entity_id"])


def test_recombine_paths_identical():
    """The second-level surface-count combiner must not change the mapping:
    recombine on (any bundle size) ≡ recombine off, row for row."""
    surfs = (["Acme Corp"] * 40 + ["Acme, Corp."] * 25 + ["Beta LLC"] * 10
             + ["Gamma Inc", "Gamma  Inc", "delta"] * 3)

    def rows(ds):
        df = ds.to_pandas()
        df["aliases"] = df["aliases"].apply(tuple)
        return df.sort_values(["surface_norm"]).reset_index(drop=True)

    base = rows(build_mapping(_mentions(surfs), recombine_batch=None))
    for rb in (4, 64, 1 << 20):
        got = rows(build_mapping(_mentions(surfs), recombine_batch=rb))
        assert got.equals(base), f"recombine_batch={rb} diverged"


def test_mapping_from_partials_equals_direct():
    """build_mapping_from_partials over per-shard partials ≡ build_mapping
    over the union of mentions — the streaming mapping-rebuild path."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from vectrain_ray.stages.canonicalize import (
        build_mapping,
        build_mapping_from_partials,
        surface_partials,
    )

    surfaces = (["Acme Corp"] * 5 + ["acme corp."] * 3 + ["Widget Inc"] * 4
                + ["Bob Smith"] * 2 + ["widget inc"] * 1)
    half = len(surfaces) // 2

    def ds_of(rows):
        return rd.from_arrow(pa.table({"surface_form": pa.array(rows)}))

    direct = build_mapping(ds_of(surfaces)).to_pandas()
    # build shard partials as materialized frames, then union — the stored
    # per-shard artifact layout of pipelines/resume.py phase 1.5
    p1 = surface_partials(ds_of(surfaces[:half])).to_pandas()
    p2 = surface_partials(ds_of(surfaces[half:])).to_pandas()
    union = rd.from_pandas(pd.concat([p1, p2], ignore_index=True))
    via_partials = build_mapping_from_partials(union).to_pandas()

    def canon(df):
        df = df.copy()
        df["aliases"] = df["aliases"].apply(tuple)
        return df.sort_values("surface_norm").reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(direct), canon(via_partials))


def test_hot_surface_collapses_before_shuffle():
    """The skew claim, empirically: a Zipf-hot surface repeated 50k times in
    one batch leaves the combiner as EXACTLY ONE partial row — hot keys are
    defused before the all-to-all, the stronger guarantee salting
    approximates."""
    import pyarrow as pa

    from vectrain_ray.stages.canonicalize import partial_surface_counts

    batch = pa.table({
        "surface_form": pa.array(["Acme Corp"] * 50_000 + ["Globex"]),
        "conv_id": pa.array(["c"] * 50_001),
        "turn_idx": pa.array([0] * 50_001, pa.int32()),
    })
    out = partial_surface_counts(batch)
    assert out.num_rows == 2
    cnt = dict(zip(out["surface_form"].to_pylist(), out["cnt"].to_pylist()))
    assert cnt["Acme Corp"] == 50_000 and cnt["Globex"] == 1


# --- golden test: the Arrow _canonicalize_bucket against the pandas
# formulation it replaced, frozen here as the reference (Table.equals,
# schema included)
def _ref_canonicalize_bucket(t: pa.Table) -> pa.Table:
    import pandas as pd

    g = t.to_pandas()
    tot = (g.groupby(["merge_key", "surface_norm", "surface_form"],
                     sort=True)["cnt"].sum().reset_index())
    tot = tot.sort_values(["surface_norm", "cnt", "surface_form"],
                          ascending=[True, False, True], kind="stable")
    canon = tot.drop_duplicates("surface_norm", keep="first").set_index(
        "surface_norm")
    n_mentions = tot.groupby("surface_norm")["cnt"].sum()
    aliases = tot.sort_values(["surface_norm", "surface_form"]).groupby(
        "surface_norm")["surface_form"].agg(list)
    norms = pd.DataFrame({
        "surface_norm": canon.index,
        "merge_key": canon["merge_key"].values,
        "canonical_surface": canon["surface_form"].values,
        "n_mentions": n_mentions.reindex(canon.index).astype("int64").values,
        "aliases": aliases.reindex(canon.index).values,
    })
    norms = norms.sort_values(["merge_key", "n_mentions", "surface_norm"],
                              ascending=[True, False, True], kind="stable")
    win = norms.drop_duplicates("merge_key", keep="first").set_index(
        "merge_key")
    eids = {k: rules.stable_id("ent", k) for k in win.index}
    return pa.Table.from_pandas(pd.DataFrame({
        "surface_norm": norms["surface_norm"].values,
        "entity_id": norms["merge_key"].map(eids).values,
        "canonical_name": norms["merge_key"].map(
            win["canonical_surface"]).values,
        "n_mentions": norms["n_mentions"].values,
        "aliases": norms["aliases"].values,
    }), preserve_index=False).replace_schema_metadata(None)


def test_canonicalize_bucket_golden():
    """Per-shard partials of one corpus, the same (norm, form) in several
    of them: canonical surface ties (broken by form), cluster winners tied
    on n_mentions (broken by norm), and a norm with one form."""
    from vectrain_ray.stages.canonicalize import (
        _canonicalize_bucket,
        recombine_surface_partials,
    )

    shards = [["Acme Corp", "ACME corp", "Acme Inc", "acme inc", "Bob"],
              ["Acme Corp", "ACME corp", "Acme, Inc.", "Bob", "bob"],
              ["Globex Ltd", "globex", "Acme Inc", "Zed"]]
    t = pa.concat_tables([recombine_surface_partials(
        partial_surface_counts(pa.table({"surface_form": s})))
        for s in shards])
    assert t.num_rows > len(set(sum(shards, [])))  # repeats across shards
    got = _canonicalize_bucket(t)
    assert got.equals(_ref_canonicalize_bucket(t), check_metadata=True)
    rows = {r["surface_norm"]: r for r in got.to_pylist()}
    assert rows["acme corp"]["canonical_name"] == rows["acme inc"][
        "canonical_name"] == "ACME corp"
    assert rows["acme inc"]["aliases"] == ["Acme Inc", "Acme, Inc.",
                                           "acme inc"]
    # an empty bucket keeps the schema of a non-empty one (the pandas
    # reference's empty frame had null- and double-typed columns)
    empty = _canonicalize_bucket(t.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema.equals(got.schema)
