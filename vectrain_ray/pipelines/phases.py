"""The KG dataflow, written once for both drivers, in two execution modes.

  turns → extract → surface_partials → mapping → linker
  extract → mentions (encoded)
  extract → link (linker) → edge_partials → finalize (+ mapping)
          → edges, nodes

The table functions (``extract`` … ``finalize``) run each phase in the
driver on pyarrow tables, with no Ray Data execution; both drivers use them
below ``resume.LOCAL_MAX_ROWS``. The ``*_ds`` functions are the same phases
as Ray Data stages, Dataset in, Dataset out; above the gate both drivers
chain them. Where a phase has a choice of execution (plain tasks or an
actor pool) the caller passes its own decision in. ``background`` runs the
overlapped sinks and ``PhaseClock`` keeps the per-phase wall times.

``kg.run_kg`` builds flat tables. ``resume.run_kg_resumable`` passes
``num_parts``: every output then carries the ``part`` column that its
per-part files, manifests and per-shard partials are keyed on.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor, wait

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .. import rules
from ..functions.dedup_exact import dedup_table
from ..stages import canonicalize, materialize
from ..stages.encode import ENCODERS, encode_batch_task
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
    link_batch_task,
    make_link_shard_actors,
    write_link_index,
)
from ..tuning import pin_failed_fsspec_http_import

_LOG = logging.getLogger("vectrain_ray.phases")

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
           fuzzy_threshold: float, ann: str, n_cells: int, n_probe,
           starved: bool = False):
    """(linker class, its kwargs, shard actors to kill after linking). A
    broadcast index over ``mapping_t``, a pyarrow table or a Dataset; with
    ``link_shards``, shard actors over the index in ``index_dir``, first
    written there from ``mapping_t`` unless it is None. ``starved`` shard
    actors reserve no CPU: on a 1-CPU cluster K shards of 0.1 CPU would
    leave no whole slot for the link tasks that call them."""
    if link_shards:
        if mapping_t is not None:
            write_link_index(rd.from_arrow(mapping_t) if isinstance(
                mapping_t, pa.Table) else mapping_t, index_dir, link_shards)
        actors = make_link_shard_actors(index_dir, link_shards, dim=dim,
                                        num_cpus=0 if starved else 0.1,
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


# --- the same phases as Ray Data stages ------------------------------------
def with_parts(ds, num_parts: int | None):
    """``add_part_column`` over every batch of ``ds``."""
    if not num_parts:
        return ds
    return ds.map_batches(add_part_column, fn_kwargs={"num_parts": num_parts},
                          batch_format="pyarrow")


def extract_ds(turns, batch_size: int, num_parts: int | None = None):
    """Empty text dropped, then extract_batch; each driver dedups re-sent
    turns in front of it."""
    return with_parts(turns.map_batches(
        filter_nonempty_text, batch_format="pyarrow", batch_size=batch_size
    ).map_batches(extract_batch, batch_format="pyarrow",
                  batch_size=batch_size), num_parts)


def surface_partials_ds(ext, num_parts: int | None = None):
    extra = ("part",) if num_parts else ()
    return canonicalize.surface_partials(with_parts(ext.map_batches(
        mentions_table, batch_format="pyarrow"), num_parts), extra_cols=extra)


def mentions_ds(ext, batch_size: int, pool: int, tasks: bool,
                num_parts: int | None = None, max_task_retries: int = 0,
                **enc_kwargs):
    """Encoded mentions: plain ``encode_batch_task`` tasks when ``tasks``,
    else an ``ENCODERS[kind]`` pool of ``pool`` actors whose tasks retry
    ``max_task_retries`` times (the reference's RetryPolicy,
    config.go:43-46, is parsed but never read; here it is enforced)."""
    if tasks:  # encode_batch_task caches one encoder (and its surface
        # memo) per worker process
        encode = {"fn": encode_batch_task, "fn_kwargs": enc_kwargs}
    else:
        ctor = {k: v for k, v in enc_kwargs.items() if k != "kind"}
        encode = {"fn": ENCODERS[enc_kwargs["kind"]],
                  "fn_constructor_kwargs": ctor, "concurrency": pool,
                  **({"max_task_retries": max_task_retries}
                     if max_task_retries else {})}
    return with_parts(ext.map_batches(
        mentions_table, batch_format="pyarrow"
    ).map_batches(**encode, batch_format="pyarrow", batch_size=batch_size),
        num_parts)


def link_ds(ext, linker_cls, linker_kwargs: dict, batch_size: int,
            pool: int, tasks: bool, num_parts: int | None = None):
    """Linked triples: plain ``link_batch_task`` tasks when ``tasks``,
    else a pool of ``pool`` ``linker_cls`` actors. No task retries on the
    pool: its constructor takes an object-store ref, and max_task_retries
    forces max_restarts>0, which deadlocks actor (re)starts whose ctor args
    live in the object store (ray#53727, reproduced here)."""
    if tasks:
        # link_batch_task caches one linker per worker process
        link = {"fn": link_batch_task,
                "fn_kwargs": {"linker_cls": linker_cls, **linker_kwargs}}
    else:
        link = {"fn": linker_cls, "fn_constructor_kwargs": linker_kwargs,
                "concurrency": pool}
    return with_parts(ext.map_batches(
        triples_table, batch_format="pyarrow"
    ).map_batches(**link, batch_format="pyarrow", batch_size=batch_size),
        num_parts)


def edge_partials_ds(linked, num_parts: int | None = None):
    """Map-only edge partials: counts sum and packed provs concatenate, so
    they merge in any grouping (the finalize dedups and caps)."""
    extra = ("part",) if num_parts else ()
    return linked.map_batches(
        materialize.partial_edges, fn_kwargs={"extra_cols": extra},
        batch_format="pyarrow",
    ).map_batches(
        materialize.recombine_edge_partials, fn_kwargs={"extra_cols": extra},
        batch_format="pyarrow", batch_size=1 << 17,
    )


def finalize_ds(edges, mapping, single_task: bool):
    """(edges with provenance structs, nodes) from the finalized edges,
    which both consume: pass them materialized. ``single_task`` merges the
    nodes in one task instead of the bucketed shuffle."""
    degrees = edges.map_batches(materialize.partial_degrees,
                                batch_format="pyarrow")
    return (edges.map_batches(materialize.prov_to_struct,
                              batch_format="pyarrow"),
            materialize.nodes_with_degree(mapping, degrees,
                                          single_task=single_task))


# --- overlapped sinks and phase timing --------------------------------------
def background(*fns):
    """Start each callable on its own driver thread; return the join. The
    join waits for every one, even after a failure: the callables are
    parquet sinks, and one cancelled mid-write would race the caller's
    cleanup. It logs each failure after the first, so a multi-sink outage
    does not hide its second root cause, and re-raises the first."""
    # concurrent writes race the failed fsspec.http import inside each
    # write_parquet unless it is pinned first
    pin_failed_fsspec_http_import()
    pool = ThreadPoolExecutor(max_workers=len(fns))
    futures = [pool.submit(fn) for fn in fns]
    pool.shutdown(wait=False)  # its threads exit once their sinks return

    def join() -> None:
        wait(futures)
        failed = [f.exception() for f in futures if f.exception()]
        for e in failed[1:]:
            _LOG.error("background sink failed (suppressed, first is "
                       "raised): %r", e)
        if failed:
            raise failed[0]

    return join


class PhaseClock:
    """Per-phase wall seconds, rounded to the millisecond, in ``walls``."""

    def __init__(self):
        self.start = self.last = time.time()
        self.walls: dict[str, float] = {}

    def lap(self, name: str, since: float | None = None) -> None:
        """Record the time since ``since``, by default since the previous
        lap (or the start), and start the next lap."""
        now = time.time()
        self.walls[name] = round(now - (self.last if since is None
                                        else since), 3)
        self.last = now

    def timed(self, name: str, fn):
        """``fn`` that records its own duration when called, outside the
        laps (for work overlapped on a thread)."""
        def run() -> None:
            t0 = time.time()
            fn()
            self.walls[name] = round(time.time() - t0, 3)
        return run
