"""Stage 3 — entity canonicalization (the shuffle-heavy stage).

The reference has no groupby/dedup at all (SURVEY.md §2.6); this implements
the north-rule's "groupby(surface_form) alias resolution + union-find merge
of near-duplicate clusters" with explicit skew handling:

  1. **Partial pre-aggregation** inside ``map_batches``: each batch collapses
     to at most one row per (surface_norm, surface_form) via a vectorized
     pyarrow ``group_by`` BEFORE the all-to-all exchange. A Zipf-hot surface
     form therefore contributes ≤ #batches rows to the shuffle instead of
     #mentions rows — the combiner that defuses hot-key skew.
  2. **Bucketed final aggregation**: rows shuffle on
     ``crc(surface_norm) % num_buckets`` (coarse, uniform — a hot norm is
     already collapsed to partials) and each bucket aggregates in Arrow
     and numpy over sorted group offsets (stages/groups.py). The one
     Python call per key left is the entity_id hash, once per cluster.
  3. Cluster assignment by ``merge_key`` (corp-suffix equivalence), again
     bucketed; entity_id = stable hash of the merge key (idempotent across
     runs — answers reference TODO qdrant/store.go:45).
  4. Optional **union-find** merge of extra near-duplicate candidate pairs
     (e.g. embedding-cosine pairs from functions.dedup) — pairs are provably
     few, so union-find runs driver-side over cluster representatives only
     (state/unionfind.py); the re-map is a broadcast dict, no extra shuffle.

Output: a mapping Dataset (surface_norm → entity_id, canonical_name,
n_mentions, aliases) small enough to broadcast with ``ray.put`` for the
linking stage; at ≥10^8 entities shard the dict by crc_bucket(norm, K) with
one ``LinkShard`` actor per shard (documented partitioning assumption).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .. import rules
from ..functions.dedup_exact import exchange, map_chunks
from ..state.unionfind import UnionFind
from .groups import group_lists, group_sums, sorted_groups

NUM_BUCKETS = 64


# per-worker-process memo: surface_form → (surface_norm, merge_key).
# Surfaces are Zipf-heavy, so normalizing DISTINCT forms (after the count
# aggregate) with a warm memo collapses the combiner's regex + merge-key
# cost from per-occurrence to per-new-distinct — measured the `mapping`
# phase growing superlinearly at 25M turns before this.
_NORM_MEMO: dict = {}
_NORM_MEMO_MAX = 2_000_000


def partial_surface_counts(batch: pa.Table,
                           extra_cols: tuple = ()) -> pa.Table:
    """Combiner: batch of mentions → ≤1 row per (surface_norm, surface_form)
    with a partial count + shuffle bucket. The bucket hashes the MERGE KEY,
    so all norms of one entity cluster land in the same bucket and a SINGLE
    groupby computes both per-norm stats and cluster assignment.

    ``extra_cols`` (e.g. ``("part",)``) joins the group key so ONE fused
    execution can emit per-shard partials for every stale shard at once —
    the resumable runner's phase-1 fusion (pipelines/resume.py)."""
    # count per DISTINCT raw surface first (Arrow C++), then normalize only
    # the distinct forms (memoized)
    keys = ["surface_form", *extra_cols]
    g = batch.select(keys).group_by(keys)
    out = g.aggregate([([], "count_all")])
    out = out.rename_columns(keys + ["cnt"])
    forms = out["surface_form"].to_pylist()
    memo = _NORM_MEMO
    norms: list = []
    mkeys: list = []
    for f in forms:
        hit = memo.get(f)
        if hit is None:
            n = rules.normalize_surface(f or "")
            hit = (n, rules.canonical_merge_key(n))
            if len(memo) < _NORM_MEMO_MAX:
                memo[f] = hit
        norms.append(hit[0])
        mkeys.append(hit[1])
    import pandas as pd

    from ..functions.dedup_exact import key_buckets

    out = out.append_column("surface_norm", pa.array(norms, pa.string()))
    out = out.append_column("merge_key", pa.array(mkeys, pa.string()))
    df = pd.DataFrame({"merge_key": mkeys})
    buckets = key_buckets(df, ["merge_key"], NUM_BUCKETS)
    out = out.append_column("bucket", pa.array(buckets.values, pa.int32()))
    return out.select(["surface_norm", "surface_form", "cnt", "merge_key",
                       "bucket", *extra_cols])


def recombine_surface_partials(t: pa.Table,
                               extra_cols: tuple = ()) -> pa.Table:
    """Second-level combiner: collapses same-key partial rows ACROSS upstream
    blocks before the all-to-all. A Zipf-hot surface contributes one partial
    row per extraction batch; bundling B blocks per recombine task (large
    ``batch_size`` on this stage) cuts the shuffle's row count up to B× at
    the cost of one cheap Arrow C++ group_by per bundle — no new shuffle."""
    keys = ["surface_norm", "surface_form", "merge_key", "bucket",
            *extra_cols]
    g = t.group_by(keys).aggregate([("cnt", "sum")])
    g = g.rename_columns(keys + ["cnt"])
    return g.select(["surface_norm", "surface_form", "cnt", "merge_key",
                     "bucket", *extra_cols])


def _canonicalize_bucket(t: pa.Table) -> pa.Table:
    """One merge-key-bucket of partial counts → mapping rows (one per member
    norm), all vectorized: per-norm stats (canonical surface = highest total
    count, ties → lexicographic), then cluster winner = heaviest norm per
    merge_key. entity_id is a pure function of merge_key → identical across
    runs and partitionings."""
    t, gid, starts = sorted_groups(
        t.select(["surface_norm", "surface_form", "merge_key", "cnt"]),
        ["surface_norm", "surface_form", "merge_key"])
    tot = t.take(starts).set_column(3, "cnt", group_sums(t["cnt"], starts))
    # per norm: first row = canonical surface. by_norm and tot both sort
    # by norm first, so nid also numbers tot's rows, whose (norm, form)
    # order lists each norm's aliases sorted
    by_norm, nid, nstarts = sorted_groups(tot, ["surface_norm"], (
        ("cnt", "descending"), ("surface_form", "ascending")))
    canon = by_norm.take(nstarts)
    norms, mid, mstarts = sorted_groups(pa.table({
        "surface_norm": canon["surface_norm"],
        "merge_key": canon["merge_key"],
        "canonical_surface": canon["surface_form"],
        "n_mentions": group_sums(by_norm["cnt"], nstarts),
        "aliases": group_lists(tot["surface_form"], nid, len(nstarts)),
    }), ["merge_key"], (("n_mentions", "descending"),
                        ("surface_norm", "ascending")))
    win = norms.take(mstarts)
    eids = pa.array([rules.stable_id("ent", k)
                     for k in win["merge_key"].to_pylist()], pa.string())
    return pa.table(
        {
            "surface_norm": pc.cast(norms["surface_norm"], pa.string()),
            "entity_id": eids.take(mid),
            "canonical_name": pc.cast(
                win["canonical_surface"].take(mid), pa.string()),
            "n_mentions": norms["n_mentions"],
            "aliases": norms["aliases"],
        }
    )


def build_mapping(mentions_ds, extra_pairs: list[tuple[str, str]] | None = None,
                  recombine_batch: int | None = 1 << 20):
    """mentions Dataset → mapping Dataset
    (surface_norm, entity_id, canonical_name, n_mentions, aliases).

    ONE all-to-all: per-batch combiner → groupby(merge-key bucket) →
    vectorized per-bucket canonicalization.

    ``extra_pairs``: optional (surface_norm_a, surface_norm_b) near-duplicate
    candidates from a similarity pass; merged via driver-side union-find.
    ``recombine_batch``: bundle size for the second-level combiner (None
    disables it).
    """
    partials = (surface_partials(mentions_ds, recombine_batch)
                if recombine_batch else map_chunks(
                    partial_surface_counts, mentions_ds, batch_size=65536))
    mapping = build_mapping_from_partials(partials)
    if extra_pairs:
        mapping = _apply_union_find(mapping, extra_pairs)
    return mapping


def surface_partials(mentions_ds, collapse_batch: int = 1 << 20,
                     extra_cols: tuple = ()):
    """mentions Dataset → per-shard surface-count partials
    (surface_norm, surface_form, cnt, merge_key, bucket) — the resumable
    pipeline's phase-1.5 artifact. Counts are mergeable, so the GLOBAL
    mapping can later be rebuilt from every shard's partials
    (build_mapping_from_partials) in O(distinct surfaces) instead of
    re-reading every mention: the streaming-append path's mapping rebuild
    cost stops scaling with corpus size. ``collapse_batch`` bundles the
    per-batch partials through one Arrow group_by so the stored artifact
    is ≈ one row per distinct (norm, form) per shard. ``extra_cols``
    (e.g. ``("part",)``) keys the partials per shard so one fused execution
    covers every stale shard (written with ``partition_cols=extra_cols``,
    which strips them from the stored files — the artifact schema is
    unchanged either way). A pyarrow table is one batch for each
    combiner."""
    kwargs = {"extra_cols": extra_cols}
    return map_chunks(recombine_surface_partials, map_chunks(
        partial_surface_counts, mentions_ds, fn_kwargs=kwargs,
        batch_size=65536), fn_kwargs=kwargs, batch_size=collapse_batch)


def build_mapping_from_partials(partials_ds):
    """Stored surface partials (any number of shards) → mapping Dataset,
    byte-identical to build_mapping over the union of the shards' mentions
    (equivalence-tested): sums are associative and _canonicalize_bucket
    sees the same per-bucket totals either way. On a pyarrow table it is
    one _canonicalize_bucket call over every bucket."""
    return exchange(partials_ds, _canonicalize_bucket, batch_format="pyarrow")


def _apply_union_find(mapping_ds, pairs: list[tuple[str, str]]):
    """Merge entity clusters connected by ``pairs`` (norm↔norm).

    The pair list is small by construction (near-dup candidates that survived
    verification), so union-find runs on the driver; the re-map is a
    broadcast dict applied in ``map_batches`` — no extra shuffle.
    """
    import ray

    from ..functions.dedup import worker_state

    touched = {n for p in pairs for n in p}
    rep = (
        mapping_ds.map_batches(
            lambda t: t.filter(pc.is_in(t["surface_norm"], pa.array(sorted(touched)))),
            batch_format="pyarrow",
        )
        .select_columns(["surface_norm", "entity_id", "canonical_name", "n_mentions"])
        .to_pandas()
    )
    norm2eid = dict(zip(rep["surface_norm"], rep["entity_id"]))
    uf = UnionFind()
    for a, b in pairs:
        ea, eb = norm2eid.get(a), norm2eid.get(b)
        if ea and eb:
            uf.union(ea, eb)
    weight = rep.groupby("entity_id")["n_mentions"].sum().to_dict()
    name = dict(zip(rep["entity_id"], rep["canonical_name"]))
    groups: dict[str, list[str]] = {}
    for eid in set(norm2eid.values()):
        groups.setdefault(uf.find(eid), []).append(eid)
    remap: dict[str, tuple[str, str]] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        winner = sorted(members, key=lambda e: (-weight.get(e, 0), e))[0]
        new_eid = rules.stable_id("ent*", *sorted(members))
        for e in members:
            remap[e] = (new_eid, name[winner])
    if not remap:
        return mapping_ds

    def apply_remap(t: pa.Table, remap_ref) -> pa.Table:
        remap = worker_state("remap", remap_ref)
        eids = t["entity_id"].to_pylist()
        names = t["canonical_name"].to_pylist()
        for i, e in enumerate(eids):
            if e in remap:
                eids[i], names[i] = remap[e]
        t = t.set_column(t.schema.get_field_index("entity_id"), "entity_id",
                         pa.array(eids, pa.string()))
        return t.set_column(t.schema.get_field_index("canonical_name"),
                            "canonical_name", pa.array(names, pa.string()))

    return mapping_ds.map_batches(apply_remap, batch_format="pyarrow",
                                  fn_kwargs={"remap_ref": ray.put(remap)})
