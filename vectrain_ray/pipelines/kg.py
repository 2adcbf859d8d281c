"""The flagship pipeline: transcripts → knowledge graph (nodes/, edges/),
the in-memory driver of the one KG dataflow in pipelines/phases.py.

Ray-Data recast of the reference's Source → Embedder → Storage topology
(internal/app/pipeline/pipeline.go:69-103 — bounded channels between one
consume goroutine, N embed workers, one store goroutine). The streaming
executor replaces the hand-rolled channels (backpressure for free); the
embed worker pool becomes plain map_batches tasks, which hold no CPU
between batches (each worker process caches its encoder); the store
batcher becomes write_parquet block coalescing.

Dataflow (each → is a streaming stage; ONE scan of the 100 TB input):

  read(conv_id, turn_idx, text)                   # column-pruned read
    → dedup duplicate re-sent turns              # zero-shuffle when input
                                                  #   is conv-partitioned
    → phases.extract → pin extracted              # branch point
  extracted → phases.surface_partials (combiners) → phases.mapping (ONE
      merge-key-bucketed exchange) → ray.put broadcast index
  extracted → phases.mentions (encode) → mentions/      [background sink]
  extracted → phases.link → triples/                    [background sink]
  linked → partial_edges combiner → bucketed groupby → phases.finalize
      → edges/ + nodes/                                 [background sinks]

Two execution modes, one body and one gate (``resume.local_gate``, gate
"kg", under ``resume.LOCAL_MAX_ROWS`` rows, sized from Parquet footers or
a materialized Dataset's metadata; a lazy Dataset takes the Ray path).
Below it the input is read as a pyarrow table, so every phase runs in the
driver, with no Ray Data execution and no background sink, and each table
is written as one file; above it, as a Dataset the phases chain as Ray
Data stages. The manifest-gated driver over the same phases is
pipelines/resume.py. Same tables, schemas and result keys on both modes,
plus ``result["gate"]``. The local ``timings`` add up to ``total`` and
have no ``edges`` (the Ray path's overlapped edges_agg + triples_write).

Scale notes: the only all-to-all exchanges are (a) the optional input dedup
(skipped when files are conv-hash-partitioned — the Kafka-partition
analogue), (b) pre-combined partial aggregates. The embedding column exists
only on the mentions output path and never enters a shuffle (SURVEY.md §7
hard parts — wide rows).
"""

from __future__ import annotations

import functools
import glob
import os
import tempfile

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from . import phases, resume
from ..functions.dedup_exact import dedup_exact, dedup_exact_local
from ..sources.readers import read_transcripts
from ..stages import materialize

# Above this many entities the mapping is not broadcast as one object but
# sharded by crc32(surface_norm) (stages/link.py): per-shard parquet + one
# LinkShard actor per shard; the driver never holds the entity table.
BROADCAST_MAX_ENTITIES = 2_000_000
TABLES = ("mentions", "triples", "edges", "nodes")


def _turns(transcripts, gate: dict):
    """The input's ``phases.COLS``: one pyarrow table when the gate sends
    the build to the driver, else a Dataset. Sized without an execution:
    Parquet footers for a path, block metadata for a materialized
    Dataset."""
    files, rows = None, None
    if isinstance(transcripts, str):
        files = ([transcripts] if os.path.isfile(transcripts) else
                 sorted(glob.glob(os.path.join(transcripts, "**", "*.parquet"),
                                  recursive=True)))
        rows = resume._rows(files)
    elif isinstance(transcripts, MaterializedDataset):
        rows = transcripts.count()
    if resume.local_gate(gate, "kg", rows, allowed=rows is not None):
        if files is not None:
            return pq.read_table(files, columns=phases.COLS)
        return pa.concat_tables(ray.get(transcripts.to_arrow_refs())
                                ).select(phases.COLS)
    if isinstance(transcripts, str):
        # read_transcripts strips the pandas schema-metadata blob at the
        # source — raw read_parquet defeats Ray's unify_schemas early exit
        # and spams 'Failed to hash the schemas' on every downstream shuffle
        return read_transcripts(transcripts, columns=phases.COLS)
    return transcripts.select_columns(phases.COLS)


def _results(tables: dict, out_dir, pinned: tuple = ()) -> dict:
    """Every table as a Dataset: read back from ``out_dir`` where it was
    written there, else in memory (a table through rd.from_arrow). An
    empty table gets no dir at all, and a ``pinned`` one is kept as it
    is."""
    res = {}
    for name, t in tables.items():
        p = os.path.join(out_dir, name) if out_dir else ""
        if name in TABLES and name not in pinned and os.path.isdir(p):
            res[name] = rd.read_parquet(p)
        else:
            res[name] = rd.from_arrow(t) if isinstance(t, pa.Table) else t
    return res


def run_kg(
    transcripts,
    out_dir: str | None = None,
    dim: int = 64,
    batch_size: int = 4096,
    write_outputs: bool = True,
    assume_conv_partitioned: bool = False,
    link_shards: int | None = None,
    encoder_kind: str = "hashing",
    encoder_kwargs: dict | None = None,
    fuzzy_threshold: float = 0.85,
    link_ann: str = "exact",
    link_ann_cells: int = 64,
    link_ann_probe: int | None = None,
) -> dict:
    """Run the full KG-construction pipeline.

    transcripts: parquet path/dir or a ray.data.Dataset.
    Returns dict with Datasets: mentions, triples (linked), nodes, edges,
    mapping — plus output paths when written, the per-phase ``timings``
    and the path decision ``gate`` (module docstring).
    """
    clock = phases.PhaseClock()
    gate: dict = {}
    turns = _turns(transcripts, gate)
    local = isinstance(turns, pa.Table)
    write = bool(out_dir and write_outputs)
    if write:
        # replace-on-rerun: write_parquet filenames embed a fresh uuid, so
        # writing into a reused out_dir would otherwise ACCUMULATE the old
        # run's files and every table would read back N× after N runs
        import shutil

        for name in TABLES:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    enc_kwargs = {"kind": encoder_kind, "dim": dim, **(encoder_kwargs or {})}

    def sink(name: str, data, timed_as: str):
        """Write ``data`` to out_dir/``name`` when writing, timed as
        ``timed_as``: in the driver at once, as that phase's lap; on Ray on
        a background thread. Returns what finishes it: the join or a
        no-op."""
        run = clock.timed(timed_as, lambda: resume.write_table(
            data, os.path.join(out_dir, name)))
        if local:
            if write:
                run()
            clock.lap(timed_as)
        elif write:
            return phases.background(run)
        return lambda: None

    # Idempotency: dedup duplicate re-sent turns at the INPUT (narrow rows).
    # Extraction of distinct turns provably yields distinct mention/triple
    # row_ids (spans/occ are unique within a turn), so the wider extracted
    # table needs NO dedup of its own. With ``assume_conv_partitioned``
    # (input files conv-hash-partitioned, the Kafka-partition analogue) the
    # dedup is per-block and costs NO shuffle at all.
    dedup = dedup_exact_local if assume_conv_partitioned else dedup_exact
    # Branch point: pin the narrow intermediate once (on Ray in the object
    # store, which spills to disk under memory pressure) — avoids
    # re-scanning the full input for the mention and triple branches, and
    # avoids a parquet write+read round-trip (the checkpointing variant
    # that DOES write it is pipelines/resume.py).
    extracted = phases.pin(phases.extract(
        dedup(turns, ["conv_id", "turn_idx"], sort_within=["text"]),
        batch_size))
    clock.lap("extract")

    # On Ray the encode branch runs CONCURRENTLY with mapping→link→edges
    # (hides the phase barriers). With the mapping/edges phases at their
    # final round-2 speed the overlap won in EVERY measured regime — 25M
    # turns / 32 CPUs one box: 85.3 s overlapped vs 117.7 s sequential (the
    # encode branch's 41 s hides entirely behind the main phases even
    # though the shared memory bus inflates edges 26 → 51 s); 6.3M / 8
    # CPUs: 47 s vs 67 s; 1.6M / 32 CPUs: neutral within noise. Encode and
    # link are plain tasks, which hold no slot between batches, so the
    # overlap also runs on a 1-CPU cluster.
    # In the driver the mentions are encoded here and written at once.
    mentions = phases.mentions(extracted, batch_size, **enc_kwargs)
    # The encode branch needs NO global state: its streaming execution
    # (encode → write mentions/) overlaps mapping-build + linking (still
    # only TWO concurrent executions — three-way was measured to thrash at
    # low CPU counts).
    finish_mentions = sink("mentions", mentions, "encode_write")

    # --- canonicalization -------------------------------------------------
    # mapping is small (one row per distinct surface form) and consumed by
    # three downstreams (link index, nodes, optional write) → pin it.
    mapping = phases.pin(phases.mapping(phases.surface_partials(extracted)))
    clock.lap("mapping")

    # --- triple branch -> linking -> edges -------------------------------
    # sharded past BROADCAST_MAX_ENTITIES unless ``link_shards`` is given:
    # the sharded index is streamed to per-shard parquet and loaded by K
    # actors, so the entity table never touches the driver
    if link_shards is None:
        n_entities = phases.num_rows(mapping)
        link_shards = 0 if n_entities < BROADCAST_MAX_ENTITIES else max(
            8, n_entities // 1_000_000)
    index_dir = None
    if link_shards:
        index_dir = (os.path.join(out_dir, "link_index") if out_dir else
                     tempfile.mkdtemp(prefix="vr_link_index_", dir="/tmp"))
    linker_cls, linker_kwargs, shard_actors = phases.linker(
        mapping, link_shards, index_dir, dim, fuzzy_threshold, link_ann,
        link_ann_cells, link_ann_probe)
    # `linked` feeds BOTH the triples output and edge aggregation → pin it.
    linked = phases.pin(phases.link(extracted, linker_cls, linker_kwargs,
                                    batch_size))
    for a in shard_actors:  # linking done → free the index actors
        ray.kill(a)
    clock.lap("link")
    edges_start = clock.last

    # Both consumers of the pinned `linked` — the triples parquet write and
    # the edge aggregation — are independent: on Ray overlap them (the
    # encode branch is usually done by now, so this keeps two executions in
    # flight, not three).
    finish_triples = sink("triples", linked, "triples_write")
    # edges is consumed twice (edge table + degree computation) → pin the
    # (small, pre-aggregated) result instead of re-running the linker branch
    edges = phases.pin(materialize.edges_from_linked(linked))
    # nodes: mapping ∪ degree partials, both pre-aggregated; when they are
    # SMALL the 64-bucket sort-shuffle costs more than the merge itself →
    # single-task fast path
    edges_out, nodes = phases.finalize(edges, mapping, single_task=(
        phases.num_rows(edges) + phases.num_rows(mapping) < 500_000))
    clock.lap("edges_agg")
    finish_triples()
    if not local:
        clock.lap("edges", since=edges_start)

    tables = {"mentions": mentions, "triples": linked, "edges": edges_out,
              "nodes": nodes, "mapping": mapping}
    final = [functools.partial(resume.write_table, t, os.path.join(
        out_dir, n)) for n, t in (("edges", edges_out), ("nodes", nodes))
    ] if write else []
    if local:
        for write_one in final:
            write_one()
        result = _results(tables, write and out_dir)
        clock.lap("final_writes")
    else:
        if write:
            # overlap the edges write with the nodes computation/write
            phases.background(*final)()
            clock.lap("final_writes")
            finish_mentions()  # the overlapped encode branch
        result = _results(tables, write and out_dir, pinned=("triples",))
    if write:
        result["paths"] = {n: os.path.join(out_dir, n) for n in TABLES}
    clock.lap("total", since=clock.start)
    return {**result, "timings": clock.walls, "gate": gate}
