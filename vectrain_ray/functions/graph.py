"""Distributed graph analytics over edge Datasets (beyond-reference ops).

The reference engine (torys877/vectrain) stops at writing points into a
vector store; a KG-construction pipeline at 100 TB also needs the classic
graph passes over the edge table it produces. Everything here follows the
repo's two standing policies:

* **node-sized state is broadcast-or-join** (same policy as
  pipelines/kg.BROADCAST_MAX_ENTITIES): label / rank / degree tables are one
  row per node. While they fit a broadcast object they ship once per
  iteration via ``ray.put`` and every batch does a vectorized
  ``index_in``/``take`` lookup; above the threshold the lookup becomes a
  hash join (``Dataset.join``) — the node table never sits on one worker.
* **combiner before every shuffle**: each iteration's exchange is a
  per-batch Arrow ``group_by`` partial (min / sum) over the batch's
  candidates, then ONE node-bucketed ``exchange`` (functions/dedup_exact)
  over node-sized partials — edges themselves never shuffle after the
  initial distinct. The triangle family's wedge and merge exchanges go
  through the same helper, hashing only their key columns.

Determinism: label mins are plain value order (string = byte order, int =
numeric) and PageRank is **integer** arithmetic (floor division) — both
mirror ANSI SQL exactly, so every op has a full DuckDB oracle
(pipelines/queries.py ORACLE_SQL: kg_components, pagerank, triangle_count,
khop).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .dedup_exact import dedup_exact, exchange

NUM_BUCKETS = 64
# above this many nodes, per-iteration label/rank/degree lookups switch from
# a ray.put broadcast to a hash join (components, pagerank and triangles all
# implement both paths; khop's frontier broadcast is inherently
# frontier-sized, not node-sized)
BROADCAST_MAX_NODES = 2_000_000


def _join_num_partitions() -> int:
    """Hash-join partition count for the node-sized join paths, sized to
    the cluster (oversized aggregator pools stall small clusters)."""
    return max(2, min(32, int(ray.cluster_resources().get("CPU", 4)) // 2))


def _col_pa_type(ds, col: str, default=None):
    """Best-effort pyarrow type of ``col`` — Ray datasets whose blocks are
    pandas report a PandasBlockSchema (numpy dtypes), not a pyarrow schema."""
    try:
        base = ds.schema().base_schema
        if isinstance(base, pa.Schema):
            return base.field(col).type
        t = dict(zip(base.names, base.types))[col]
        if isinstance(t, pa.DataType):
            return t
        return pa.from_numpy_dtype(t)
    except Exception:
        return default


def _distinct_edges(edges, src: str, dst: str, symmetric: bool):
    """edges → distinct (u, v) pairs, self-loops dropped; ``symmetric`` adds
    the reversed direction (for undirected propagation). One all-to-all
    (bucketed dedup) over per-batch-deduped pairs."""

    def prep(t: pa.Table) -> pa.Table:
        out = pa.table({"u": t[src], "v": t[dst]})
        if symmetric:
            out = pa.concat_tables(
                [out, pa.table({"u": pc.cast(t[dst], out["u"].type),
                                "v": pc.cast(t[src], out["v"].type)})]
            )
        out = out.filter(pc.invert(pc.equal(out["u"], out["v"])))
        # per-batch combiner: collapse duplicates before the shuffle
        return out.group_by(["u", "v"]).aggregate([]).select(["u", "v"])

    prepped = edges.map_batches(prep, batch_format="pyarrow")
    return dedup_exact(prepped, ["u", "v"])


def _node_table(e_dist):
    """distinct (u, v) → distinct node Dataset (column ``node``)."""
    both = e_dist.map_batches(
        lambda t: pa.table(
            {"node": pa.concat_arrays(
                [t["u"].combine_chunks(), t["v"].combine_chunks()]
            )}
        ).group_by(["node"]).aggregate([]),
        batch_format="pyarrow",
    )
    return dedup_exact(both, ["node"])


def _pull_pairs(ds, kcol: str, vcol: str):
    """node-sized Dataset → (keys pa.Array, vals pa.Array) for ray.put.
    ONLY called under BROADCAST_MAX_NODES (the caller's policy gate)."""
    df = ds.to_pandas()
    return pa.array(df[kcol]), pa.array(df[vcol])


def _bucketed_sum(parts, value_col: str):
    """(node, value) partial rows → one row per node with the summed value:
    bucket on node, vectorized pandas sum within each bucket."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", sort=True)[value_col].sum().reset_index()

    return exchange(parts, merge, ["node"], NUM_BUCKETS)


def _out_degrees(e_dir):
    """distinct directed (u, v) → (node, s) out-degree Dataset: per-batch
    partial counts (each globally-distinct pair contributes exactly once),
    then one node-sized bucketed sum."""

    def _deg_partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["u"]).aggregate([("v", "count")])
        return g.rename_columns(["node", "s"])

    return _bucketed_sum(e_dir.map_batches(_deg_partial,
                                           batch_format="pyarrow"), "s")


def _bucketed_min(parts, value_col: str):
    """(node, value) partial rows → one row per node with the min value:
    bucket on node, vectorized pandas min within each bucket."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", sort=True)[value_col].min().reset_index()

    return exchange(parts, merge, ["node"], NUM_BUCKETS)


def connected_components(edges, src: str = "src", dst: str = "dst",
                         max_iters: int = 50,
                         broadcast_max: int | None = None):
    """Undirected connected components by iterative min-label propagation.

    Returns a Dataset (node, component) where component = min node id in the
    component (value order — byte order for strings, exactly SQL ``min``).
    Converges in O(diameter) iterations; each iteration is one streaming
    pass over the edge set + one node-sized bucketed groupby. Label lookup
    is broadcast under ``broadcast_max`` nodes, hash-join above (the
    node table is never driver- or worker-resident in the join path — only
    the broadcast path pulls it, and only below the threshold).
    """
    if broadcast_max is None:
        broadcast_max = BROADCAST_MAX_NODES
    e_sym = _distinct_edges(edges, src, dst, symmetric=True).materialize()
    if e_sym.count() == 0:  # no non-loop edges → no nodes; downstream
        import ray.data as rd  # pandas/join stages can't shape empties

        ntype = _col_pa_type(edges, src, default=pa.string())
        return rd.from_arrow(pa.table({"node": pa.array([], ntype),
                                       "component": pa.array([], ntype)}))
    lab = _node_table(e_sym).map_batches(
        lambda t: t.append_column("label", t["node"]), batch_format="pyarrow"
    ).materialize()
    n_nodes = lab.count()
    use_broadcast = n_nodes < broadcast_max

    for _ in range(max_iters):
        if use_broadcast:
            # node-sized label arrays are captured in the task closure —
            # Ray ships the serialized fn to the object store ONCE per
            # map_batches and workers cache the deserialized copy, so this
            # is the ray.put-broadcast shape without an actor-pool spin-up
            # per iteration (~1 s each; measured on the dedup task pools)
            keys_a, vals_a = _pull_pairs(lab, "node", "label")

            def cand_fn(t: pa.Table, _k=keys_a, _v=vals_a) -> pa.Table:
                lab_u = pc.take(_v, pc.index_in(t["u"], value_set=_k))
                out = pa.table({"node": t["v"], "cand": lab_u})
                return out.group_by(["node"]).aggregate(
                    [("cand", "min")]).rename_columns(["node", "cand"])

            cands = e_sym.map_batches(cand_fn, batch_format="pyarrow")
        else:
            lab_u = lab.map_batches(
                lambda t: t.rename_columns(["u", "cand"]),
                batch_format="pyarrow")
            nparts = _join_num_partitions()
            joined = e_sym.join(lab_u, join_type="inner",
                                num_partitions=nparts, on=("u",))
            cands = joined.map_batches(
                lambda t: pa.table({"node": t["v"], "cand": t["cand"]}
                                   ).group_by(["node"]).aggregate(
                    [("cand", "min")]).rename_columns(["node", "cand"]),
                batch_format="pyarrow")

        own = lab.map_batches(
            lambda t: pa.table({"node": t["node"], "cand": t["label"]}),
            batch_format="pyarrow")
        new_lab = _bucketed_min(cands.union(own), "cand").map_batches(
            lambda t: t.rename_columns(["node", "label"]),
            batch_format="pyarrow").materialize()
        # convergence: did any label strictly shrink? (labels only decrease)
        changed = new_lab.map_batches(
            lambda t: t.rename_columns(["node", "new"]), batch_format="pyarrow"
        ).union(
            lab.map_batches(
                lambda t: t.rename_columns(["node", "new"]),
                batch_format="pyarrow")
        )
        # distinct (node, label) pairs: unchanged node contributes 1, changed 2
        n_pairs = dedup_exact(changed, ["node", "new"]).count()
        lab = new_lab
        if n_pairs == n_nodes:
            break
    else:
        # returning intermediate labels would be SILENTLY wrong (a component
        # split in two); callers needing deep graphs raise max_iters —
        # convergence takes O(component diameter) iterations
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} "
            "iterations; raise max_iters (propagation needs one iteration "
            "per hop of the largest component's diameter)")
    return lab.map_batches(
        lambda t: t.rename_columns(["node", "component"]),
        batch_format="pyarrow")


def pagerank_int(edges, src: str = "src", dst: str = "dst", iters: int = 3,
                 scale: int = 10 ** 12, broadcast_max: int | None = None):
    """PageRank with INTEGER arithmetic (d = 0.85 as 85//100, floor
    division) over the distinct directed edge set — bit-exact across
    partitionings AND mirrorable in ANSI SQL (unrolled iterations), unlike
    float PageRank whose summation order diverges.

    r_0(v) = scale;  r_{i+1}(v) = (15*scale)//100 +
                                  (85 * Σ_{u→v} (r_i(u) // outdeg(u))) // 100
    Dangling-node mass leaks (standard simplification; documented in the
    oracle too). Returns (node, pr) with pr int64. Rank lookups broadcast
    under ``broadcast_max`` nodes; above it every iteration is a hash join
    (_pagerank_int_join) with bit-identical output.
    """
    if broadcast_max is None:
        broadcast_max = BROADCAST_MAX_NODES
    e_dir = _distinct_edges(edges, src, dst, symmetric=False).materialize()
    nodes = _node_table(e_dir).materialize()
    n_nodes = nodes.count()
    if n_nodes >= broadcast_max:
        return _pagerank_int_join(e_dir, nodes, iters, scale)

    dk_a, dv_a = _pull_pairs(_out_degrees(e_dir).materialize(), "node", "s")
    dv_a = pc.cast(dv_a, pa.int64())
    base = (15 * scale) // 100

    rank_df = nodes.to_pandas()
    rank_df["pr"] = np.int64(scale)
    for _ in range(iters):
        rk_a = pa.array(rank_df["node"])
        rv_a = pa.array(rank_df["pr"], pa.int64())

        def contrib_fn(t: pa.Table, _rk=rk_a, _rv=rv_a, _dk=dk_a,
                       _dv=dv_a) -> pa.Table:
            r_u = pc.take(_rv, pc.index_in(t["u"], value_set=_rk))
            d_u = pc.take(_dv, pc.index_in(t["u"], value_set=_dk))
            c = pc.divide(r_u, d_u)  # int64 // int64, all positive → floor
            out = pa.table({"node": t["v"], "s": c})
            return out.group_by(["node"]).aggregate(
                [("s", "sum")]).rename_columns(["node", "s"])

        sums = e_dir.map_batches(contrib_fn, batch_format="pyarrow")
        s_df = _bucketed_sum(sums, "s").to_pandas()
        rank_df = rank_df[["node"]].merge(s_df, on="node", how="left")
        s = rank_df["s"].fillna(0).astype("int64")
        rank_df["pr"] = (base + (85 * s) // 100).astype("int64")
        rank_df = rank_df[["node", "pr"]]

    import ray.data as rd

    return rd.from_arrow(pa.table({"node": pa.array(rank_df["node"]),
                                   "pr": pa.array(rank_df["pr"], pa.int64())}))


def _pagerank_int_join(e_dir, nodes, iters: int, scale: int):
    """Join-path PageRank for node tables beyond the broadcast threshold:
    the SAME integer recurrence, with every per-iteration rank lookup a hash
    join instead of a ray.put broadcast — bit-identical output
    (tests/test_graph.py asserts equality against the broadcast path).

    The out-degree attach is static across iterations, so it happens ONCE
    ((u, v) ⨝ outdeg → (u, v, du), materialized); each iteration then costs
    one hash join (edges ⨝ rank on u), a per-batch contribution combiner,
    and one node-sized bucketed sum. The rank/degree/node tables are only
    ever partitioned Datasets — nothing node-sized touches the driver or a
    single worker."""
    import ray.data as rd

    base = (15 * scale) // 100
    if nodes.count() == 0:  # no edges → no nodes (and join crashes on empty)
        # preserve the input id type in the empty schema (the broadcast
        # path returns the edge id type; downstream unions/joins rely on it)
        ntype = _col_pa_type(nodes, "node", default=pa.string())
        return rd.from_arrow(pa.table({"node": pa.array([], ntype),
                                       "pr": pa.array([], pa.int64())}))
    nparts = _join_num_partitions()
    deg_u = _out_degrees(e_dir).map_batches(
        lambda t: pa.table({"u": t["node"],
                            "du": pc.cast(t["s"], pa.int64())}),
        batch_format="pyarrow")
    e_deg = e_dir.join(deg_u, join_type="inner", num_partitions=nparts,
                       on=("u",)).materialize()
    rank = nodes.map_batches(
        lambda t: pa.table({"u": t["node"],
                            "pr": pa.array(np.full(t.num_rows, scale,
                                                   dtype=np.int64))}),
        batch_format="pyarrow").materialize()
    # every node appears in the per-iteration sum with an explicit 0 partial
    # (in-degree-0 nodes would otherwise drop out of the contribution rows)
    zeros = nodes.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "s": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow")

    def contrib(t: pa.Table) -> pa.Table:
        c = pc.divide(t["pr"], t["du"])  # int64 / int64, positive → floor
        out = pa.table({"node": t["v"], "s": c})
        return out.group_by(["node"]).aggregate(
            [("s", "sum")]).rename_columns(["node", "s"])

    def to_rank(t: pa.Table) -> pa.Table:
        pr = pc.add(base, pc.divide(pc.multiply(
            pc.cast(t["s"], pa.int64()), 85), 100))
        return pa.table({"u": t["node"], "pr": pc.cast(pr, pa.int64())})

    for _ in range(iters):
        joined = e_deg.join(rank, join_type="inner",
                            num_partitions=nparts, on=("u",))
        sums = joined.map_batches(contrib, batch_format="pyarrow")
        rank = _bucketed_sum(sums.union(zeros), "s").map_batches(
            to_rank, batch_format="pyarrow").materialize()

    return rank.map_batches(
        lambda t: pa.table({"node": t["u"], "pr": t["pr"]}),
        batch_format="pyarrow")


def _distinct_undirected(edges, src: str, dst: str):
    """Distinct undirected edge set (u < v, self-loops dropped),
    materialized — the entry stage of every undirected-graph metric."""

    def norm(t: pa.Table) -> pa.Table:
        a = pc.min_element_wise(t[src], t[dst])
        b = pc.max_element_wise(t[src], t[dst])
        out = pa.table({"u": a, "v": b})
        out = out.filter(pc.invert(pc.equal(out["u"], out["v"])))
        return out.group_by(["u", "v"]).aggregate([]).select(["u", "v"])

    return dedup_exact(edges.map_batches(norm, batch_format="pyarrow"),
                       ["u", "v"]).materialize()


def _degree_table(und):
    """(node, s=degree) from the distinct undirected edges — per-batch
    count partials + one node-bucketed sum; materialized (consumed by
    lookups/joins downstream)."""

    def deg_partial(t: pa.Table) -> pa.Table:
        both = pa.table({"node": pa.concat_arrays(
            [t["u"].combine_chunks(), t["v"].combine_chunks()])})
        g = both.group_by(["node"]).aggregate([("node", "count")])
        return g.rename_columns(["node", "s"])

    return _bucketed_sum(und.map_batches(deg_partial, batch_format="pyarrow"),
                         "s").materialize()


def _und_deg_oriented(edges, src: str, dst: str, broadcast_max: int,
                      und=None, deg=None):
    """Shared prep for the triangle family (triangle_count,
    triangles_per_node): distinct undirected edges, per-node degrees, and
    degree-oriented edges. Returns (und, deg, oriented, ranked); an empty
    graph returns (und, None, None, None). Orientation is broadcast under
    ``broadcast_max`` nodes and two hash joins above (triangle_count's
    path-equality test covers both). Callers that already materialized
    ``und`` / ``deg`` (e.g. a dense-path gate) pass them in to skip the
    duplicate exchanges."""
    if und is None:
        und = _distinct_undirected(edges, src, dst)
    if und.count() == 0:  # no edges (join path crashes empty)
        return und, None, None, None

    if deg is None:
        deg = _degree_table(und)
    if deg.count() >= broadcast_max:
        # join path: orient via two hash joins against the degree Dataset —
        # the node-sized degree table never leaves the partitioned exchange
        # (tests assert bit-equality with the broadcast path)
        nparts = _join_num_partitions()
        deg_su = deg.map_batches(
            lambda t: pa.table({"u": t["node"],
                                "du": pc.cast(t["s"], pa.int64())}),
            batch_format="pyarrow")
        deg_sv = deg.map_batches(
            lambda t: pa.table({"v": t["node"],
                                "dv": pc.cast(t["s"], pa.int64())}),
            batch_format="pyarrow")
        j = und.join(deg_su, join_type="inner", num_partitions=nparts,
                     on=("u",)).join(deg_sv, join_type="inner",
                                     num_partitions=nparts, on=("v",))

        def orient_join(t: pa.Table) -> pa.Table:
            # (du, u) < (dv, v): input is normalized u < v, so ties go u→v
            u_first = pc.or_(pc.less(t["du"], t["dv"]),
                             pc.equal(t["du"], t["dv"]))
            return pa.table({
                "a": pc.if_else(u_first, t["u"], t["v"]),
                "b": pc.if_else(u_first, t["v"], t["u"]),
                "db": pc.if_else(u_first, t["dv"], t["du"]),
            })

        oriented_db = j.map_batches(orient_join,
                                    batch_format="pyarrow").materialize()
        oriented = oriented_db.map_batches(lambda t: t.select(["a", "b"]),
                                           batch_format="pyarrow")
        ranked = oriented_db
    else:
        deg_k, deg_v = _pull_pairs(deg, "node", "s")

        def orient_fn(t: pa.Table, _k=deg_k, _v=deg_v) -> pa.Table:
            """u→v reoriented so the LOWER (deg, id) endpoint is the source."""
            du = pc.take(_v, pc.index_in(t["u"], value_set=_k))
            dv = pc.take(_v, pc.index_in(t["v"], value_set=_k))
            # (du, u) < (dv, v): input is normalized u < v, so ties go u→v
            u_first = pc.or_(pc.less(du, dv), pc.equal(du, dv))
            return pa.table({
                "a": pc.if_else(u_first, t["u"], t["v"]),
                "b": pc.if_else(u_first, t["v"], t["u"]),
            })

        oriented = und.map_batches(orient_fn,
                                   batch_format="pyarrow").materialize()

        def orient_rank_fn(t: pa.Table, _k=deg_k, _v=deg_v) -> pa.Table:
            """Attach (deg, id) order rank for sorting oriented adjacency."""
            db = pc.cast(pc.take(_v, pc.index_in(t["b"], value_set=_k)),
                         pa.int64())
            return t.append_column("db", db)

        ranked = oriented.map_batches(orient_rank_fn, batch_format="pyarrow")

    return und, deg, oriented, ranked


def _wedges_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Oriented src-bucket → wedge rows (apex, a, b): co-neighbor
    pairs of each apex in (deg, id) order (np.triu_indices inner;
    outer loop per NODE, not per row). Shared by triangles_per_node
    and edge_jaccard."""
    g = g.sort_values(["a", "db", "b"], kind="stable")
    aps: list = []
    xs: list = []
    ys: list = []
    for apex, grp in g.groupby("a", sort=False):
        s = len(grp)
        if s < 2:
            continue
        i, j = np.triu_indices(s, k=1)
        nb = grp["b"].to_numpy()
        aps.append(np.full(len(i), apex, dtype=nb.dtype))
        xs.append(nb[i])
        ys.append(nb[j])
    if not xs:
        return pd.DataFrame({"apex": [], "a": [], "b": []})
    return pd.DataFrame({"apex": np.concatenate(aps),
                         "a": np.concatenate(xs),
                         "b": np.concatenate(ys)})


def triangles_per_node(edges, src: str = "src", dst: str = "dst",
                       broadcast_max: int | None = None):
    """Per-node exact triangle counts + degrees: Dataset (node, degree,
    n_tri), every node of the graph present (n_tri = 0 when it closes no
    triangle). Same degree-orientation machinery as triangle_count
    (_und_deg_oriented), but wedges KEEP their apex so each verified
    wedge — one triangle — credits all three corners; the final exchange
    is ONE node-bucketed merge of degree rows with per-batch corner-count
    partials (node-sized, never wedge-sized)."""
    import ray.data as rd

    if broadcast_max is None:
        broadcast_max = BROADCAST_MAX_NODES
    und, deg, oriented, ranked = _und_deg_oriented(edges, src, dst,
                                                   broadcast_max)
    ntype = _col_pa_type(und, "u", pa.int64()) if und is not None else \
        pa.int64()
    if oriented is None:
        return rd.from_arrow(pa.table({
            "node": pa.array([], ntype),
            "degree": pa.array([], pa.int64()),
            "n_tri": pa.array([], pa.int64())}))

    wedges = exchange(ranked, _wedges_bucket, ["a"], NUM_BUCKETS)

    def tag(is_edge: int):
        def fn(t: pa.Table) -> pa.Table:
            if is_edge:
                out = pa.table({"a": t["a"], "b": t["b"]})
                out = out.append_column(
                    "apex", pa.nulls(out.num_rows, ntype))
            else:
                out = t.select(["a", "b", "apex"])
            return out

        return fn

    tagged = wedges.map_batches(tag(0), batch_format="pyarrow").union(
        oriented.map_batches(tag(1), batch_format="pyarrow"))

    def corners_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """Verify wedges against the edge set; each hit is one triangle —
        emit per-node corner-count partials (node, p_tri)."""
        is_edge = g["apex"].isna()
        edge_set = g[is_edge][["a", "b"]].drop_duplicates()
        hit = g[~is_edge].merge(edge_set, on=["a", "b"], how="inner")
        if hit.empty:
            return pd.DataFrame({"node": [], "p_tri": []})
        # apex came through a union with null-apex edge rows, so pandas
        # upcast it (int64 → float64); restore the endpoint dtype before
        # the concat or the node-keyed merge downstream silently misses
        nodes = pd.concat([hit["apex"].astype(hit["a"].dtype),
                           hit["a"], hit["b"]], ignore_index=True)
        c = nodes.value_counts().rename_axis("node").reset_index(
            name="p_tri")
        return c

    corners = exchange(tagged, corners_bucket, ["a", "b"], NUM_BUCKETS)

    # ONE node-bucketed merge of degrees (one row per node) with the
    # per-(a,b)-bucket corner partials
    def tag_node(kind: int):
        def fn(t: pa.Table) -> pa.Table:
            if kind:  # degree rows
                out = pa.table({"node": t["node"],
                                "deg": pc.cast(t["s"], pa.int64()),
                                "p_tri": pa.nulls(t.num_rows, pa.int64())})
            else:
                out = pa.table({"node": t["node"],
                                "deg": pa.nulls(t.num_rows, pa.int64()),
                                "p_tri": pc.cast(t["p_tri"], pa.int64())})
            return out

        return fn

    both = deg.map_batches(tag_node(1), batch_format="pyarrow").union(
        corners.map_batches(tag_node(0), batch_format="pyarrow"))

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g[g["deg"].notna()][["node", "deg"]]
        t = (g[g["p_tri"].notna()].groupby("node", sort=False)["p_tri"]
             .sum().reset_index())
        m = d.merge(t, on="node", how="left")
        return pd.DataFrame({
            "node": m["node"],
            "degree": m["deg"].astype("int64"),
            "n_tri": m["p_tri"].fillna(0).astype("int64")})

    return exchange(both, merge_bucket, ["node"], NUM_BUCKETS)


def _attach_degrees(und, deg, broadcast_max: int):
    """Distinct undirected edges (u, v) + node-sized degree table →
    Dataset (u, v, du, dv), broadcast-or-join per the standing policy:
    ``ray.put`` lookup under ``broadcast_max`` nodes, two hash joins
    above (the degree table never sits on one worker)."""
    if deg.count() >= broadcast_max:
        nparts = _join_num_partitions()
        deg_su = deg.map_batches(
            lambda t: pa.table({"u": t["node"],
                                "du": pc.cast(t["s"], pa.int64())}),
            batch_format="pyarrow")
        deg_sv = deg.map_batches(
            lambda t: pa.table({"v": t["node"],
                                "dv": pc.cast(t["s"], pa.int64())}),
            batch_format="pyarrow")
        return und.join(deg_su, join_type="inner", num_partitions=nparts,
                        on=("u",)).join(deg_sv, join_type="inner",
                                        num_partitions=nparts, on=("v",))
    deg_k, deg_v = _pull_pairs(deg, "node", "s")

    def attach(t: pa.Table, _k=deg_k, _v=deg_v) -> pa.Table:
        du = pc.cast(pc.take(_v, pc.index_in(t["u"], value_set=_k)),
                     pa.int64())
        dv = pc.cast(pc.take(_v, pc.index_in(t["v"], value_set=_k)),
                     pa.int64())
        return pa.table({"u": t["u"], "v": t["v"], "du": du, "dv": dv})

    return und.map_batches(attach, batch_format="pyarrow")


# pair-similarity ops (edge_jaccard, link_predict_ra) switch to ONE dense
# adjacency matmul under this many nodes: the wedge exchange on a DENSE
# small graph (the synthetic co-supply graph is near-complete) moves
# Σ C(deg, 2) ≈ N·deg² wedge rows to compute what an N² int matmul gives
# directly. 4096² float64 adjacency = 134 MB — one task's heap. All
# values stay exact: counts < 2^53 in float64, and the per-pair float
# expressions are the identical IEEE trees (path-equality tested).
DENSE_PAIRS_MAX_NODES = 4096


def _dense_adjacency(und):
    """Materialized distinct undirected edges → (nodes, ui, vi, A):
    sorted node values, edge endpoint indices and the dense float64
    adjacency. ONLY called under DENSE_PAIRS_MAX_NODES."""
    df = und.to_pandas()
    u = df["u"].to_numpy()
    v = df["v"].to_numpy()
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: len(u)], inv[len(u):]
    a = np.zeros((len(nodes), len(nodes)), dtype=np.float64)
    a[ui, vi] = 1.0
    a[vi, ui] = 1.0
    return nodes, ui, vi, a


def edge_jaccard(edges, src: str = "src", dst: str = "dst",
                 broadcast_max: int | None = None,
                 dense_max: int | None = None):
    """Per-edge neighborhood Jaccard similarity — the structural
    edge-strength signal used for KG edge pruning / community seeding:
    for every distinct undirected edge (u, v),
    ``jaccard = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|`` with
    ``|N(u) ∩ N(v)| = n_common`` (= triangles through the edge) and
    ``|N(u) ∪ N(v)| = deg_u + deg_v − n_common``. Output
    (u, v, deg_u, deg_v, n_common, jaccard), one row per edge.

    Scale path: n_common comes off the SAME degree-oriented wedge plan
    as triangle_count (shuffle-optimal Σ C(outdeg⁺, 2) wedge volume;
    _und_deg_oriented + _wedges_bucket) — each verified wedge is one
    triangle and credits its THREE normalized edges with per-bucket
    count partials, so the exchange after verification is edge-sized,
    never wedge-sized. Degrees attach broadcast-or-join
    (_attach_degrees). Under DENSE_PAIRS_MAX_NODES nodes the op takes
    ONE exact adjacency matmul instead (the wedge exchange on a dense
    small graph moves N·deg² rows to compute what A² gives directly;
    bit-identical, path-equality tested). jaccard is exact integers
    through ONE float division — the oracle's IEEE tree (denominator
    ≥ 2: each endpoint's neighborhood contains the other endpoint,
    which is never a common neighbor)."""
    import ray.data as rd

    if broadcast_max is None:
        broadcast_max = BROADCAST_MAX_NODES
    if dense_max is None:
        dense_max = DENSE_PAIRS_MAX_NODES
    und = _distinct_undirected(edges, src, dst)
    ntype = _col_pa_type(und, "u", pa.int64()) or pa.int64()
    if und.count() == 0:
        return rd.from_arrow(pa.table({
            "u": pa.array([], ntype), "v": pa.array([], ntype),
            "deg_u": pa.array([], pa.int64()),
            "deg_v": pa.array([], pa.int64()),
            "n_common": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64())}))
    deg = _degree_table(und)

    if deg.count() <= dense_max:
        # dense path: one matmul gives every edge's common-neighbor count
        nodes, ui, vi, a = _dense_adjacency(und)
        ncom = (a @ a)[ui, vi]  # exact: integer-valued float64 < 2^53
        degs = a.sum(axis=1)
        du, dv = degs[ui], degs[vi]
        jac = ncom / (du + dv - ncom)  # the wedge path's identical tree
        return rd.from_arrow(pa.table({
            "u": pa.array(nodes[ui]).cast(ntype),
            "v": pa.array(nodes[vi]).cast(ntype),
            "deg_u": pa.array(du.astype(np.int64), pa.int64()),
            "deg_v": pa.array(dv.astype(np.int64), pa.int64()),
            "n_common": pa.array(ncom.astype(np.int64), pa.int64()),
            "jaccard": pa.array(jac, pa.float64())}))

    und, deg, oriented, ranked = _und_deg_oriented(
        edges, src, dst, broadcast_max, und=und, deg=deg)

    wedges = exchange(ranked, _wedges_bucket, ["a"], NUM_BUCKETS)

    def tag(is_edge: int):
        def fn(t: pa.Table) -> pa.Table:
            if is_edge:
                out = pa.table({"a": t["a"], "b": t["b"]})
                out = out.append_column(
                    "apex", pa.nulls(out.num_rows, ntype))
            else:
                out = t.select(["a", "b", "apex"])
            return out

        return fn

    tagged = wedges.map_batches(tag(0), batch_format="pyarrow").union(
        oriented.map_batches(tag(1), batch_format="pyarrow"))

    def edge_partials_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """Verify wedges against the edge set; each hit (one triangle)
        credits its three edges, normalized (min, max) — emit per-edge
        common-neighbor count partials (x, y, p)."""
        is_edge = g["apex"].isna()
        edge_set = g[is_edge][["a", "b"]].drop_duplicates()
        hit = g[~is_edge].merge(edge_set, on=["a", "b"], how="inner")
        if hit.empty:
            return pd.DataFrame({"x": [], "y": [], "p": []})
        apex = hit["apex"].astype(hit["a"].dtype).to_numpy()
        a = hit["a"].to_numpy()
        b = hit["b"].to_numpy()
        x = np.concatenate([np.minimum(apex, a), np.minimum(apex, b),
                            np.minimum(a, b)])
        y = np.concatenate([np.maximum(apex, a), np.maximum(apex, b),
                            np.maximum(a, b)])
        return pd.DataFrame({"x": x, "y": y}).groupby(
            ["x", "y"], sort=False).size().reset_index(name="p")

    partials = exchange(tagged, edge_partials_bucket, ["a", "b"],
                        NUM_BUCKETS)

    # ONE edge-bucketed merge of degree-attached edges (one row per edge)
    # with the per-(a,b)-bucket common-neighbor partials
    und_deg = _attach_degrees(und, deg, broadcast_max)

    def tag_edge(kind: int):
        def fn(t: pa.Table) -> pa.Table:
            if kind:  # degree-attached edge rows
                out = pa.table({"u": t["u"], "v": t["v"],
                                "du": t["du"], "dv": t["dv"],
                                "p": pa.nulls(t.num_rows, pa.int64())})
            else:
                out = pa.table({"u": t["x"], "v": t["y"],
                                "du": pa.nulls(t.num_rows, pa.int64()),
                                "dv": pa.nulls(t.num_rows, pa.int64()),
                                "p": pc.cast(t["p"], pa.int64())})
            return out

        return fn

    both = und_deg.map_batches(tag_edge(1), batch_format="pyarrow").union(
        partials.map_batches(tag_edge(0), batch_format="pyarrow"))

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g[g["du"].notna()][["u", "v", "du", "dv"]]
        p = (g[g["p"].notna()].groupby(["u", "v"], sort=False)["p"]
             .sum().reset_index())
        m = d.merge(p, on=["u", "v"], how="left")
        ncom = m["p"].fillna(0).astype("int64")
        du = m["du"].astype("int64")
        dv = m["dv"].astype("int64")
        return pd.DataFrame({
            "u": m["u"], "v": m["v"], "deg_u": du, "deg_v": dv,
            "n_common": ncom,
            "jaccard": ncom.to_numpy().astype(np.float64)
            / (du + dv - ncom).to_numpy().astype(np.float64)})

    return exchange(both, merge_bucket, ["u", "v"], NUM_BUCKETS)


RA_FP_SCALE = 1_000_000_000_000  # fixed-point: floor(SCALE / deg) per apex


def link_predict_ra(edges, src: str = "src", dst: str = "dst",
                    apex_cap: int = 1000, scale: int = RA_FP_SCALE,
                    broadcast_max: int | None = None,
                    dense_max: int | None = None):
    """Resource-Allocation link prediction (Zhou–Lü–Zhang RA index) —
    the KG-completion candidate generator: for every NON-adjacent pair
    (u, v) sharing at least one neighbor,
    ``ra_score = Σ_{z ∈ N(u) ∩ N(v), deg(z) ≤ apex_cap} scale // deg(z)``
    in FIXED POINT, so the distributed sum is exact-integer and
    order-independent (the lm_bigram_score pattern — a float Σ 1/deg has
    no stable order). Output (u, v, n_common, ra_score), u < v.

    Hub apexes above ``apex_cap`` are excluded BY CONTRACT (mirrored by
    the oracle): a hub's per-pair contribution is ≤ scale/apex_cap while
    its wedge volume is C(deg, 2) — the cap is what keeps the wedge
    exchange near-linear on power-law graphs instead of quadratic in the
    hottest hub. Unlike the triangle family, wedges here must enumerate
    co-neighbor pairs over the FULL undirected neighborhood of each apex
    (degree orientation would miss pairs), so the cap is the scale lever.

    Shuffles: one apex-bucketed wedge generation over the capped
    symmetric adjacency (with per-bucket (pair → count, Σscore) combiner
    partials), then ONE pair-bucketed merge that anti-joins the existing
    edge set and sums partials. Under DENSE_PAIRS_MAX_NODES nodes the op
    takes two exact matmuls instead (A_g·A_gᵀ for counts, (A_g·w)·A_gᵀ
    for scores — bit-identical, path-equality tested)."""
    import ray.data as rd

    if broadcast_max is None:
        broadcast_max = BROADCAST_MAX_NODES
    und = _distinct_undirected(edges, src, dst)
    ntype = _col_pa_type(und, "u", pa.int64()) or pa.int64()
    empty = pa.table({"u": pa.array([], ntype), "v": pa.array([], ntype),
                      "n_common": pa.array([], pa.int64()),
                      "ra_score": pa.array([], pa.int64())})
    empty_pd = empty.to_pandas()
    if und.count() == 0:
        return rd.from_arrow(empty)
    deg = _degree_table(und)

    if dense_max is None:
        dense_max = DENSE_PAIRS_MAX_NODES
    if deg.count() <= dense_max:
        # dense path: n_common = A_g·A_gᵀ and ra = (A_g·w)·A_gᵀ with the
        # apex gate folded into the columns — w ≤ scale/2 and sums stay
        # < 2^53, so the float64 matmul is exact-integer
        nodes, ui, vi, a = _dense_adjacency(und)
        degs = a.sum(axis=1).astype(np.int64)
        gate = (degs >= 2) & (degs <= apex_cap)
        w = np.where(gate, scale // np.where(gate, degs, 1), 0).astype(
            np.float64)
        ag = a * gate.astype(np.float64)[None, :]
        ncom = ag @ ag.T
        ra = (ag * w[None, :]) @ ag.T
        iu, iv = np.triu_indices(len(nodes), k=1)
        sel = (a[iu, iv] == 0) & (ncom[iu, iv] > 0)
        return rd.from_arrow(pa.table({
            "u": pa.array(nodes[iu[sel]]).cast(ntype),
            "v": pa.array(nodes[iv[sel]]).cast(ntype),
            "n_common": pa.array(ncom[iu, iv][sel].astype(np.int64),
                                 pa.int64()),
            "ra_score": pa.array(ra[iu, iv][sel].astype(np.int64),
                                 pa.int64())}))

    # symmetric adjacency (apex, nb) — both directions of every edge
    def sym(t: pa.Table) -> pa.Table:
        return pa.table({
            "apex": pa.concat_arrays([t["u"].combine_chunks(),
                                      t["v"].combine_chunks()]),
            "nb": pa.concat_arrays([t["v"].combine_chunks(),
                                    t["u"].combine_chunks()])})

    adj = und.map_batches(sym, batch_format="pyarrow")

    # attach apex degree (broadcast-or-join), gate 2 ≤ deg ≤ apex_cap
    if deg.count() >= broadcast_max:
        nparts = _join_num_partitions()
        deg_a = deg.map_batches(
            lambda t: pa.table({"apex": t["node"],
                                "d": pc.cast(t["s"], pa.int64())}),
            batch_format="pyarrow")
        adj_d = adj.join(deg_a, join_type="inner", num_partitions=nparts,
                         on=("apex",))
    else:
        deg_k, deg_v = _pull_pairs(deg, "node", "s")

        def attach(t: pa.Table, _k=deg_k, _v=deg_v) -> pa.Table:
            d = pc.cast(pc.take(_v, pc.index_in(t["apex"], value_set=_k)),
                        pa.int64())
            return t.append_column("d", d)

        adj_d = adj.map_batches(attach, batch_format="pyarrow")

    def gate(t: pa.Table) -> pa.Table:
        return t.filter(pc.and_(pc.greater_equal(t["d"], 2),
                                pc.less_equal(t["d"], apex_cap)))

    gated = adj_d.map_batches(gate, batch_format="pyarrow")

    def wedge_partials(g: pd.DataFrame) -> pd.DataFrame:
        """apex bucket → per-pair (x < y in id order) combiner partials
        (x, y, n=#wedges, s=Σ scale//deg(apex))."""
        g = g.sort_values(["apex", "nb"], kind="stable")
        xs: list = []
        ys: list = []
        ss: list = []
        for _, grp in g.groupby("apex", sort=False):
            k = len(grp)
            if k < 2:
                continue
            i, j = np.triu_indices(k, k=1)
            nb = grp["nb"].to_numpy()
            xs.append(nb[i])
            ys.append(nb[j])
            ss.append(np.full(len(i), scale // int(grp["d"].iloc[0]),
                              dtype=np.int64))
        if not xs:
            return pd.DataFrame({"x": [], "y": [], "n": [], "s": []})
        df = pd.DataFrame({"x": np.concatenate(xs),
                           "y": np.concatenate(ys),
                           "s": np.concatenate(ss)})
        return df.groupby(["x", "y"], sort=False).agg(
            n=("s", "size"), s=("s", "sum")).reset_index()

    partials = exchange(gated, wedge_partials, ["apex"], NUM_BUCKETS)

    def tag(kind: int):
        def fn(t: pa.Table) -> pa.Table:
            if kind:  # existing-edge rows: n null marks them
                out = pa.table({"x": t["u"], "y": t["v"],
                                "n": pa.nulls(t.num_rows, pa.int64()),
                                "s": pa.nulls(t.num_rows, pa.int64())})
            else:
                out = pa.table({"x": t["x"], "y": t["y"],
                                "n": pc.cast(t["n"], pa.int64()),
                                "s": pc.cast(t["s"], pa.int64())})
            return out

        return fn

    both = partials.map_batches(tag(0), batch_format="pyarrow").union(
        und.map_batches(tag(1), batch_format="pyarrow"))

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_edge = g["n"].isna()
        es = g[is_edge][["x", "y"]].drop_duplicates()
        w = g[~is_edge].merge(es, on=["x", "y"], how="left", indicator=True)
        w = w[w["_merge"] == "left_only"]
        if w.empty:
            return empty_pd  # typed: keeps every block on ONE schema
        c = w.groupby(["x", "y"], sort=False).agg(
            n_common=("n", "sum"), ra_score=("s", "sum")).reset_index()
        return pd.DataFrame({"u": c["x"], "v": c["y"],
                             "n_common": c["n_common"].astype("int64"),
                             "ra_score": c["ra_score"].astype("int64")})

    # the typed empty union pins the output schema even when EVERY pair
    # is already an edge (a near-complete graph yields zero candidates
    # and Ray drops all-empty pandas groups, losing the columns)
    return exchange(both, merge_bucket, ["x", "y"], NUM_BUCKETS).union(
        rd.from_arrow(empty))


def degree_assortativity(edges, src: str = "src", dst: str = "dst",
                         broadcast_max: int | None = None) -> pa.Table:
    """Newman degree-assortativity coefficient (Newman 2002): the Pearson
    correlation of endpoint degrees over the distinct undirected edge set
    — positive = hubs attach to hubs, negative = hub-and-spoke. Returns a
    one-row pa.Table {n_edges, r}; r is NULL for a regular graph (the
    variance term is 0, r undefined).

    Scale path: degrees via the shared _degree_table (node-sized
    exchange), attached to edges by broadcast lookup under the node gate
    / two hash joins above; the moments (M, Σjk, Σ(j+k), Σ(j²+k²))
    collapse per batch to ONE partial row — exact integer sums (int64;
    Σjk bounds the domain to M·maxdeg² ≲ 2⁶³), so r is ONE float
    expression from exact integers, the oracle's tree, bit-exact."""
    if broadcast_max is None:
        broadcast_max = BROADCAST_MAX_NODES
    und = _distinct_undirected(edges, src, dst)
    if und.count() == 0:
        return pa.table({"n_edges": pa.array([0], pa.int64()),
                         "r": pa.array([None], pa.float64())})
    deg = _degree_table(und)

    if deg.count() >= broadcast_max:
        nparts = _join_num_partitions()
        deg_su = deg.map_batches(
            lambda t: pa.table({"u": t["node"],
                                "du": pc.cast(t["s"], pa.int64())}),
            batch_format="pyarrow")
        deg_sv = deg.map_batches(
            lambda t: pa.table({"v": t["node"],
                                "dv": pc.cast(t["s"], pa.int64())}),
            batch_format="pyarrow")
        withd = und.join(deg_su, join_type="inner", num_partitions=nparts,
                         on=("u",)).join(deg_sv, join_type="inner",
                                         num_partitions=nparts, on=("v",))
    else:
        deg_k, deg_v = _pull_pairs(deg, "node", "s")

        def attach(t: pa.Table, _k=deg_k, _v=deg_v) -> pa.Table:
            return pa.table({
                "du": pc.cast(pc.take(_v, pc.index_in(t["u"], value_set=_k)),
                              pa.int64()),
                "dv": pc.cast(pc.take(_v, pc.index_in(t["v"], value_set=_k)),
                              pa.int64())})

        withd = und.map_batches(attach, batch_format="pyarrow")

    def moments(t: pa.Table) -> pa.Table:
        j = t["du"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = t["dv"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "m": pa.array([t.num_rows], pa.int64()),
            "s_jk": pa.array([int((j * k).sum())], pa.int64()),
            "s_sum": pa.array([int((j + k).sum())], pa.int64()),
            "s_sq": pa.array([int((j * j + k * k).sum())], pa.int64())})

    parts = withd.map_batches(moments, batch_format="pyarrow").to_pandas()
    m = int(parts["m"].sum())
    s_jk = int(parts["s_jk"].sum())
    s_sum = int(parts["s_sum"].sum())
    s_sq = int(parts["s_sq"].sum())
    # the oracle's exact tree (ints → doubles, one expression)
    t1 = float(s_jk) / m
    mu = float(s_sum) / (2 * m)
    t2 = float(s_sq) / (2 * m)
    den = t2 - mu * mu
    r = None if den == 0 else (t1 - mu * mu) / den
    return pa.table({"n_edges": pa.array([m], pa.int64()),
                     "r": pa.array([r], pa.float64())})


def triangle_count(edges, src: str = "src", dst: str = "dst",
                   broadcast_max: int | None = None) -> pa.Table:
    """Exact triangle count by degree orientation + wedge check — the
    shuffle-optimal distributed algorithm (each triangle is counted once, at
    its lowest-(degree, id) apex; wedge volume is Σ C(outdeg⁺, 2), the
    theoretical minimum for exact counting).

    Stages: distinct undirected edges → node degrees (partial + bucketed
    sum) → orient each edge toward the higher (degree, id) endpoint
    (degree table broadcast under the node threshold; _und_deg_oriented) →
    per-src-bucket vectorized wedge emission (np.triu_indices per
    adjacency group) → bucketed semi-join of wedges against the oriented
    edge set. Returns a one-row pyarrow Table {n_triangles}.
    """
    if broadcast_max is None:
        broadcast_max = BROADCAST_MAX_NODES
    _, _, oriented, ranked = _und_deg_oriented(edges, src, dst,
                                               broadcast_max)
    if oriented is None:  # no edges → 0 triangles
        return pa.table({"n_triangles": pa.array([0], pa.int64())})

    def wedges_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """One src-bucket of oriented edges → wedge rows (x, y) where x, y
        are co-neighbors of some apex, ordered by (deg, id). Pair emission
        is np.triu_indices per adjacency group (vectorized inner; the outer
        loop is per NODE, not per row — bucketed like every merge here)."""
        g = g.sort_values(["a", "db", "b"], kind="stable")
        xs: list = []
        ys: list = []
        for _, grp in g.groupby("a", sort=False):
            s = len(grp)
            if s < 2:
                continue
            i, j = np.triu_indices(s, k=1)
            nb = grp["b"].to_numpy()
            xs.append(nb[i])
            ys.append(nb[j])
        if not xs:
            return pd.DataFrame({"a": [], "b": []})
        return pd.DataFrame({"a": np.concatenate(xs),
                             "b": np.concatenate(ys)})

    wedges = exchange(ranked, wedges_bucket, ["a"], NUM_BUCKETS)

    # semi-join wedges against the oriented edge set, bucketed on (a, b)
    def tag(is_edge: int):
        def fn(t: pa.Table) -> pa.Table:
            out = pa.table({"a": t["a"], "b": t["b"]})
            if is_edge:
                out = out.append_column("n", pa.nulls(out.num_rows,
                                                      pa.int64()))
            else:  # wedge partials: collapse duplicate wedges per batch
                out = out.group_by(["a", "b"]).aggregate([("a", "count")])
                out = out.rename_columns(["a", "b", "n"])
            return out

        return fn

    tagged = wedges.map_batches(tag(0), batch_format="pyarrow").union(
        oriented.map_batches(tag(1), batch_format="pyarrow"))

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        is_edge = g["n"].isna()
        edge_set = g[is_edge][["a", "b"]].drop_duplicates()
        w = g[~is_edge].groupby(["a", "b"], sort=False)["n"].sum().reset_index()
        hit = w.merge(edge_set, on=["a", "b"], how="inner")
        return pd.DataFrame({"t": [int(hit["n"].sum())]})

    per_bucket = exchange(tagged, count_bucket, ["a", "b"], NUM_BUCKETS)
    total = int(per_bucket.sum("t") or 0)
    return pa.table({"n_triangles": pa.array([total], pa.int64())})


def khop_hops(edges, seeds: list, k: int, src: str = "src",
              dst: str = "dst") -> pa.Table:
    """Min-hop distance (≤ k) from a seed set by frontier-broadcast BFS:
    each hop filters the edge Dataset with ``pc.is_in`` on the broadcast
    frontier (a semi-join — edges stream, never shuffle) and the new
    frontier is the distinct destination set. Frontier/result tables are
    frontier-sized (≪ nodes for small k); when a frontier outgrows the
    object store use khop_hops_ds, which swaps the broadcast for a per-hop
    hash join and never gathers anything node-sized on the driver.
    Mirrors the unrolled-SQL oracle exactly: hop sets may
    revisit nodes, the final groupby takes the min hop. Returns a pyarrow
    Table (node, hops).
    """
    e_dir = _distinct_edges(edges, src, dst, symmetric=False).materialize()
    acc: list[pa.Table] = []
    frontier = list(dict.fromkeys(seeds))
    seed_arr = pa.array(frontier)
    acc.append(pa.table({"node": seed_arr,
                         "hops": pa.array([0] * len(frontier), pa.int64())}))
    for h in range(1, k + 1):
        f_arr = pa.array(frontier, type=seed_arr.type)

        def step_fn(t: pa.Table, _f=f_arr) -> pa.Table:
            hit = t.filter(pc.is_in(t["u"],
                                    value_set=pc.cast(_f, t["u"].type)))
            return pa.table({"node": hit["v"]}).group_by(["node"]).aggregate([])

        nxt = dedup_exact(
            e_dir.map_batches(step_fn, batch_format="pyarrow"),
            ["node"],
        ).to_pandas()
        if nxt.empty:
            break
        frontier = list(nxt["node"])
        acc.append(pa.table({"node": pa.array(frontier, type=seed_arr.type),
                             "hops": pa.array([h] * len(frontier),
                                              pa.int64())}))
    allhops = pa.concat_tables(acc)
    df = allhops.to_pandas().groupby("node", sort=True)["hops"].min(
    ).reset_index()
    return pa.table({"node": pa.array(df["node"], seed_arr.type),
                     "hops": pa.array(df["hops"], pa.int64())})


def khop_hops_ds(edges, seeds: list, k: int, src: str = "src",
                 dst: str = "dst"):
    """Join-path k-hop BFS for frontiers beyond the broadcast scale: the
    frontier lives as a partitioned Dataset, each hop is ONE hash join
    (edges ⨝ frontier on the source node → distinct destinations), and the
    final min-hop reduction is one node-bucketed merge — nothing
    frontier- or node-sized ever gathers on the driver. Semantics are
    identical to khop_hops (hop sets may revisit nodes; min hop wins) and
    tests assert row-equality; returns a Dataset (node, hops)."""
    import ray.data as rd

    e_dir = _distinct_edges(edges, src, dst, symmetric=False).materialize()
    seed_list = list(dict.fromkeys(seeds))
    seed_arr = pa.array(seed_list)
    # reconcile the seed type with the edge id type (khop_hops casts per
    # hop; here the JOIN key types must match and the hop tables must union)
    if e_dir.count() > 0:
        utype = _col_pa_type(e_dir, "u")
        if utype is not None:
            seed_arr = pc.cast(seed_arr, utype)
    acc = [rd.from_arrow(pa.table(
        {"node": seed_arr,
         "hops": pa.array(np.zeros(len(seed_list), np.int64))}))]
    if e_dir.count() == 0:  # join crashes on an empty side
        return acc[0]
    nparts = _join_num_partitions()
    frontier = rd.from_arrow(pa.table({"u": seed_arr})).materialize()

    for h in range(1, k + 1):
        if frontier.count() == 0:
            break
        joined = e_dir.join(frontier, join_type="inner",
                            num_partitions=nparts, on=("u",))
        nxt = dedup_exact(
            joined.map_batches(
                lambda t: pa.table({"node": t["v"]}).group_by(
                    ["node"]).aggregate([]),
                batch_format="pyarrow"),
            ["node"]).materialize()
        if nxt.count() == 0:
            break
        acc.append(nxt.map_batches(
            lambda t, _h=h: pa.table(
                {"node": t["node"],
                 "hops": pa.array(np.full(t.num_rows, _h, np.int64))}),
            batch_format="pyarrow"))
        frontier = nxt.map_batches(
            lambda t: pa.table({"u": t["node"]}),
            batch_format="pyarrow").materialize()

    allhops = acc[0]
    for extra in acc[1:]:
        allhops = allhops.union(extra)
    return _bucketed_min(allhops, "hops").map_batches(
        lambda t: pa.table({"node": t["node"],
                            "hops": pc.cast(t["hops"], pa.int64())}),
        batch_format="pyarrow")


def sssp_rounds(edges, seed, rounds: int = 4, src: str = "u",
                dst: str = "v", weight: str = "w"):
    """Bounded-round Bellman-Ford over integer edge weights: dist_0 = {seed:
    0}; each round relaxes every edge once — dist_{k+1}(v) = min(dist_k(v),
    min over u→v of dist_k(u) + w). min/plus over int64 is order-independent,
    so the result is bit-exact across partitionings and mirrors an
    unrolled-SQL oracle. ONE deployment shape at every scale (no broadcast
    gate): each round is a hash join (edges ⨝ dist on the source node), a
    per-batch (node, candidate) min combiner, and one node-sized bucketed
    min. Returns a Dataset (node, dist) of nodes reached within ``rounds``
    relaxations."""
    import ray.data as rd

    e = edges.map_batches(
        lambda t: pa.table({"u": t[src], "v": t[dst],
                            "w": pc.cast(t[weight], pa.int64())}),
        batch_format="pyarrow").materialize()
    stype = _col_pa_type(e, "u", default=pa.int64())
    dist = rd.from_arrow(pa.table({"u": pa.array([seed], stype),
                                   "d": pa.array([0], pa.int64())}))
    if e.count() == 0:
        return dist.map_batches(
            lambda t: pa.table({"node": t["u"], "dist": t["d"]}),
            batch_format="pyarrow")
    nparts = _join_num_partitions()

    def cand(t: pa.Table) -> pa.Table:
        out = pa.table({"node": t["v"], "d": pc.add(t["d"], t["w"])})
        return out.group_by(["node"]).aggregate(
            [("d", "min")]).rename_columns(["node", "d"])

    for _ in range(rounds):
        joined = e.join(dist, join_type="inner", num_partitions=nparts,
                        on=("u",))
        own = dist.map_batches(
            lambda t: t.rename_columns(["node", "d"]),
            batch_format="pyarrow")
        dist = _bucketed_min(
            joined.map_batches(cand, batch_format="pyarrow").union(own), "d"
        ).map_batches(
            lambda t: pa.table({"u": t["node"],
                                "d": pc.cast(t["d"], pa.int64())}),
            batch_format="pyarrow").materialize()

    return dist.map_batches(
        lambda t: pa.table({"node": t["u"], "dist": t["d"]}),
        batch_format="pyarrow")


def reciprocity(edges, src: str = "src", dst: str = "dst"):
    """Per-node edge reciprocity over a DIRECTED graph — the mutual-link
    profile (how much of a node's out-neighborhood links back) used to
    separate symmetric relations from one-way ones when pruning /
    typing KG edges. Output (node, n_out, n_recip, recip_ratio): distinct
    out-neighbors (self-loops dropped), how many of them also carry the
    reverse edge, and their ratio — ONE float division of exact integers
    (the oracle's tree), so hashes match bit-for-bit.

    Scale path: the edge set collapses to distinct (u, v) pairs with the
    standard combiner-before-shuffle (_distinct_edges), then each pair is
    normalized to (min, max) with direction flags and ONE pair-bucketed
    groupby ORs the two directions together — pair-sized exchange. The
    per-node rollup is ONE node-bucketed groupby over per-batch count
    partials (node-sized). Nothing is ever all-pairs and no node's
    neighborhood is materialized anywhere."""
    from ray.data.aggregate import Sum

    e = _distinct_edges(edges, src, dst, symmetric=False)

    def canon(t: pa.Table) -> pa.Table:
        a = pc.min_element_wise(t["u"], t["v"])
        b = pc.max_element_wise(t["u"], t["v"])
        fwd = pc.cast(pc.less(t["u"], t["v"]), pa.int64())  # edge is a→b
        g = pa.table({
            "a": a, "b": b, "f": fwd, "r": pc.subtract(1, fwd),
        }).group_by(["a", "b"]).aggregate([("f", "sum"), ("r", "sum")])
        return g.rename_columns(["a", "b", "f", "r"])

    # distinct pairs ⇒ global f/r per (a, b) are each 0 or 1
    pairs = (e.map_batches(canon, batch_format="pyarrow")
             .groupby(["a", "b"])
             .aggregate(Sum("f", alias_name="f"), Sum("r", alias_name="r")))

    def per_node_partial(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
        rec = (f * r).astype(np.int64)  # 1 iff both directions exist
        nodes = np.concatenate([a[f == 1], b[r == 1]])
        recs = np.concatenate([rec[f == 1], rec[r == 1]])
        g = pa.table({
            "node": pa.array(nodes),
            "n_out": pa.array(np.ones(len(nodes), np.int64)),
            "n_recip": pa.array(recs),
        }).group_by(["node"]).aggregate([("n_out", "sum"),
                                         ("n_recip", "sum")])
        return g.rename_columns(["node", "n_out", "n_recip"])

    per_node = (pairs.map_batches(per_node_partial, batch_format="pyarrow")
                .groupby("node")
                .aggregate(Sum("n_out", alias_name="n_out"),
                           Sum("n_recip", alias_name="n_recip")))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n_out"].to_numpy(zero_copy_only=False).astype(np.float64)
        k = t["n_recip"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({
            "node": t["node"],
            "n_out": pc.cast(t["n_out"], pa.int64()),
            "n_recip": pc.cast(t["n_recip"], pa.int64()),
            "recip_ratio": pa.array(k / n, pa.float64()),
        })

    return per_node.map_batches(finish, batch_format="pyarrow")
