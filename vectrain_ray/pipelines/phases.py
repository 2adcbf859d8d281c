"""The KG dataflow, written once for both drivers and both execution modes.

  turns → extract → surface_partials → mapping → linker
  extract → mentions (encoded)
  extract → link (linker) → edge_partials → finalize (+ mapping)
          → edges, nodes

Each phase takes a pyarrow table or a Dataset, and the input's type is the
mode: on a table the phase runs in the driver with no Ray Data execution
(both drivers, below ``resume.LOCAL_MAX_ROWS``), on a Dataset it chains Ray
Data stages. Each phase has one body; the two modes part only inside
``map_chunks`` and ``exchange`` (functions/dedup_exact.py). On Ray every
phase maps plain functions, so no stage holds a CPU between batches.
``background`` runs the overlapped sinks and ``PhaseClock`` keeps the
per-phase wall times.

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
from ..functions.dedup_exact import map_chunks
from ..schema import MAPPING_SCHEMA
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
    link_batch_task,
    make_link_shard_actors,
    write_link_index,
)
from ..tuning import pin_failed_fsspec_http_import

_LOG = logging.getLogger("vectrain_ray.phases")
# the transcript columns the dataflow reads
COLS = ["conv_id", "turn_idx", "text"]


def pin(data):
    """``data`` computed once for its several consumers: a Dataset
    materialized in the object store (a table already is)."""
    return data if isinstance(data, pa.Table) else data.materialize()


def num_rows(data) -> int:
    return data.num_rows if isinstance(data, pa.Table) else data.count()


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


def with_parts(data, num_parts: int | None):
    """``add_part_column`` over ``data`` (unchanged without ``num_parts``)."""
    if not num_parts:
        return data
    return map_chunks(add_part_column, data,
                      fn_kwargs={"num_parts": num_parts})


def extract(turns, batch_size: int | None, num_parts: int | None = None):
    """Empty text dropped, then extract_batch; each driver dedups re-sent
    turns in front of it (``dedup_exact``)."""
    text = map_chunks(filter_nonempty_text, turns, batch_size=batch_size)
    return with_parts(map_chunks(extract_batch, text, batch_size), num_parts)


def surface_partials(ext, num_parts: int | None = None):
    extra = ("part",) if num_parts else ()
    return canonicalize.surface_partials(
        with_parts(map_chunks(mentions_table, ext), num_parts),
        extra_cols=extra)


# the mapping of every surface in a phase's partials
mapping = canonicalize.build_mapping_from_partials


def linker(mapping_t, link_shards: int, index_dir: str | None, dim: int,
           fuzzy_threshold: float, ann: str, n_cells: int, n_probe):
    """(linker class, its kwargs, shard actors to kill after linking). A
    broadcast index over ``mapping_t``, a pyarrow table or a Dataset; with
    ``link_shards``, shard actors over the index in ``index_dir``, first
    written there from ``mapping_t`` unless it is None. On a 1-CPU cluster
    the shard actors reserve no CPU: K shards of 0.1 CPU would leave no
    whole slot for the link tasks that call them."""
    if link_shards:
        if mapping_t is not None:
            write_link_index(rd.from_arrow(mapping_t) if isinstance(
                mapping_t, pa.Table) else mapping_t, index_dir, link_shards)
        one_cpu = ray.cluster_resources().get("CPU", 0) < 2
        actors = make_link_shard_actors(index_dir, link_shards, dim=dim,
                                        num_cpus=0 if one_cpu else 0.1,
                                        ann=ann, n_cells=n_cells,
                                        n_probe=n_probe)
        return ShardedEntityLinker, {
            "shard_handles": actors, "dim": dim,
            "fuzzy_threshold": fuzzy_threshold}, actors
    df = mapping_t.to_pandas()
    if "surface_norm" not in df.columns:  # a Dataset with no mentions
        df = MAPPING_SCHEMA.empty_table().to_pandas()
    return EntityLinker, {"index_ref": ray.put(build_link_index(df, dim=dim)),
                          "dim": dim, "fuzzy_threshold": fuzzy_threshold}, []


def mentions(ext, batch_size: int, num_parts: int | None = None,
             **enc_kwargs):
    """Encoded mentions: ``encode_batch_task`` caches one encoder (and its
    surface memo) per worker process, the driver's included. Ray Data
    retries a task that a system failure kills."""
    return with_parts(map_chunks(encode_batch_task,
                                 map_chunks(mentions_table, ext), batch_size,
                                 fn_kwargs=enc_kwargs), num_parts)


def link(ext, linker_cls, linker_kwargs: dict, batch_size: int,
         num_parts: int | None = None):
    """Linked triples: ``link_batch_task`` caches one ``linker_cls`` per
    worker process, the driver's included."""
    return with_parts(map_chunks(
        link_batch_task, map_chunks(triples_table, ext), batch_size,
        fn_kwargs={"linker_cls": linker_cls, **linker_kwargs}), num_parts)


def edge_partials(linked, num_parts: int | None = None):
    """Map-only edge partials: counts sum and packed provs concatenate, so
    they merge in any grouping (the finalize dedups and caps)."""
    kwargs = {"extra_cols": ("part",) if num_parts else ()}
    return map_chunks(materialize.recombine_edge_partials, map_chunks(
        materialize.partial_edges, linked, fn_kwargs=kwargs),
        fn_kwargs=kwargs, batch_size=1 << 17)


def finalize(edges, mapping_t, single_task: bool = True):
    """(edges with provenance structs, nodes) from the finalized edges,
    which both consume: pass a Dataset materialized. On Ray
    ``single_task`` merges the nodes in one task instead of the bucketed
    shuffle; on a table they merge in one call either way. With no
    triples the edges, and with no mentions the nodes, are empty: a table
    sink writes no file for them, as the Ray sinks write none."""
    degrees = map_chunks(materialize.partial_degrees, edges)
    return (map_chunks(materialize.prov_to_struct, edges),
            materialize.nodes_with_degree(mapping_t, degrees,
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
