"""The KG phases as driver-local functions, pyarrow table in, table out:
the one copy of the kernel sequence that both drivers run below
``resume.LOCAL_MAX_ROWS``, with no Ray Data execution.

  turns → extract → surface_partials → mapping → linker
  extract → mentions (encoded)
  extract → link (linker) → edge_partials → finalize (+ mapping)
          → edges, nodes

``kg.run_kg`` writes the outputs as flat tables. ``resume.run_kg_resumable``
passes ``num_parts``: every output then carries the ``part`` column that its
per-part files, manifests and per-shard partials are keyed on.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .. import rules
from ..functions.dedup_exact import dedup_table
from ..stages import canonicalize, materialize
from ..stages.encode import encode_batch_task
from ..stages.extract import (
    extract_batch,
    filter_nonempty_text,
    mentions_table,
    triples_table,
)
from ..stages.link import (
    EntityLinker,
    ShardedEntityLinker,
    build_link_index,
    make_link_shard_actors,
    write_link_index,
)

# the mapping of a corpus with no mentions
EMPTY_MAPPING = pa.schema([
    ("surface_norm", pa.string()), ("entity_id", pa.string()),
    ("canonical_name", pa.string()), ("n_mentions", pa.int64()),
    ("aliases", pa.list_(pa.string()))]).empty_table()


def add_part_column(t: pa.Table, num_parts: int) -> pa.Table:
    """Vectorized ``part = crc_bucket(conv_id, P)`` (null conv_id buckets
    as ""). When the batch came off a hive-partitioned read the inferred
    ``part`` column (a string) is already authoritative — just cast it;
    otherwise recompute from conv_id."""
    if "part" in t.column_names:
        i = t.schema.get_field_index("part")
        return t.set_column(i, "part", pc.cast(t["part"], pa.int32()))
    parts = rules.crc_bucket_array(t["conv_id"], num_parts)
    return t.append_column("part", pa.array(parts, pa.int32()))


def _parts(t: pa.Table, num_parts: int | None) -> pa.Table:
    return add_part_column(t, num_parts) if num_parts else t


def map_chunks(fn, t: pa.Table, batch_size: int, **kwargs) -> pa.Table:
    """A batch kernel over ``t`` in ``batch_size`` slices, in the driver —
    what ``map_batches(fn, batch_size=batch_size)`` does on Ray."""
    outs = [fn(t.slice(i, batch_size), **kwargs)
            for i in range(0, t.num_rows, batch_size)]
    return pa.concat_tables(outs) if outs else fn(t, **kwargs)


def extract(turns: pa.Table, batch_size: int,
            num_parts: int | None = None) -> pa.Table:
    """Re-sent turns deduped with dedup_exact's winner per (conv_id,
    turn_idx) — ``turns`` holds every row of its keys — empty text
    dropped, then extract_batch."""
    src = dedup_table(turns, ["conv_id", "turn_idx"], sort_within=["text"])
    return _parts(map_chunks(extract_batch, filter_nonempty_text(src),
                             batch_size), num_parts)


def surface_partials(ext: pa.Table, num_parts: int | None = None) -> pa.Table:
    extra = ("part",) if num_parts else ()
    return canonicalize.recombine_surface_partials(
        canonicalize.partial_surface_counts(
            _parts(mentions_table(ext), num_parts), extra_cols=extra),
        extra_cols=extra)


def mapping(partials: pa.Table) -> pa.Table:
    """One _canonicalize_bucket call over every bucket (it groups by merge
    key itself)."""
    return canonicalize._canonicalize_bucket(partials)


def linker(mapping_t, link_shards: int, index_dir: str | None, dim: int,
           fuzzy_threshold: float, ann: str, n_cells: int, n_probe):
    """(linker class, its kwargs, shard actors to kill after linking). A
    broadcast index over ``mapping_t``, a pyarrow table or a Dataset; with
    ``link_shards``, shard actors over the index in ``index_dir``, first
    written there from ``mapping_t`` unless it is None."""
    if link_shards:
        if mapping_t is not None:
            write_link_index(rd.from_arrow(mapping_t) if isinstance(
                mapping_t, pa.Table) else mapping_t, index_dir, link_shards)
        actors = make_link_shard_actors(index_dir, link_shards, dim=dim,
                                        ann=ann, n_cells=n_cells,
                                        n_probe=n_probe)
        return ShardedEntityLinker, {
            "shard_handles": actors, "dim": dim,
            "fuzzy_threshold": fuzzy_threshold}, actors
    df = mapping_t.to_pandas()
    if "surface_norm" not in df.columns:  # a Dataset with no mentions
        df = EMPTY_MAPPING.to_pandas()
    return EntityLinker, {"index_ref": ray.put(build_link_index(df, dim=dim)),
                          "dim": dim, "fuzzy_threshold": fuzzy_threshold}, []


def mentions(ext: pa.Table, batch_size: int, num_parts: int | None = None,
             **enc_kwargs) -> pa.Table:
    return _parts(map_chunks(encode_batch_task, mentions_table(ext),
                             batch_size, **enc_kwargs), num_parts)


def link(ext: pa.Table, linker_fn, batch_size: int,
         num_parts: int | None = None) -> pa.Table:
    return _parts(map_chunks(linker_fn, triples_table(ext), batch_size),
                  num_parts)


def edge_partials(linked: pa.Table, num_parts: int | None = None) -> pa.Table:
    extra = ("part",) if num_parts else ()
    return materialize.recombine_edge_partials(
        materialize.partial_edges(linked, extra_cols=extra), extra_cols=extra)


def finalize(partials: pa.Table, mapping_t: pa.Table
             ) -> tuple[pa.Table, pa.Table]:
    """(edges with provenance structs, nodes), each merged in one call.
    With no triples the edges, and with no mentions the nodes, are empty:
    callers write no file for an empty table, as the Ray sinks write
    none."""
    edges = materialize._finalize_edges_bucket(partials)
    left = pa.concat_tables([
        materialize._mapping_row_for_union(mapping_t),
        materialize._degree_row_for_union(materialize.partial_degrees(edges))])
    return (materialize.prov_to_struct(edges),
            materialize._merge_nodes_bucket(left))
