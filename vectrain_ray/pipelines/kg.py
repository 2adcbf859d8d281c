"""The flagship pipeline: transcripts → knowledge graph (nodes/, edges/),
the in-memory driver of the one KG dataflow in pipelines/phases.py.

Ray-Data recast of the reference's Source → Embedder → Storage topology
(internal/app/pipeline/pipeline.go:69-103 — bounded channels between one
consume goroutine, N embed workers, one store goroutine). The streaming
executor replaces the hand-rolled channels (backpressure for free); the
embed worker pool becomes a map_batches actor pool; the store batcher
becomes write_parquet block coalescing.

Dataflow (each → is a streaming stage; ONE scan of the 100 TB input):

  read_parquet(conv_id, turn_idx, text)           # column-pruned read
    → dedup duplicate re-sent turns              # zero-shuffle when input
                                                  #   is conv-partitioned
    → phases.extract_ds                           # admission rule + extract
    → pin extracted (object store)                # branch point
  extracted → mentions → canonicalize (combiner + ONE merge-key-bucketed
      groupby) → mapping → ray.put broadcast index
  extracted → phases.mentions_ds (encode) → mentions/   [background sink]
  extracted → phases.link_ds → triples/                 [background sink]
  linked → partial_edges combiner → bucketed groupby → phases.finalize_ds
      → edges/ + nodes/                                 [background sinks]

Two execution modes, one gate (``resume.local_gate``, gate "kg", under
``resume.LOCAL_MAX_ROWS`` rows, sized from Parquet footers or a
materialized Dataset's metadata; a lazy Dataset takes the Ray path). Below
it the driver runs phases.py's table functions and writes each table as
one file, with no Ray Data execution; otherwise it chains the ``*_ds``
stages above. The manifest-gated driver over the same functions is
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

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from . import phases, resume
from ..functions.dedup_exact import dedup_exact, dedup_exact_local
from ..sources.readers import read_transcripts
from ..stages import canonicalize, materialize
from ..stages.extract import mentions_table

# Above this many entities the mapping is not broadcast as one object but
# sharded by crc32(surface_norm) (stages/link.py): per-shard parquet + one
# LinkShard actor per shard; the driver never holds the entity table.
BROADCAST_MAX_ENTITIES = 2_000_000
COLS = ["conv_id", "turn_idx", "text"]
TABLES = ("mentions", "triples", "edges", "nodes")


def _local_turns(transcripts, gate: dict) -> pa.Table | None:
    """The input as one pyarrow table when the gate sends the build to the
    driver, else None. Sized without an execution: Parquet footers for a
    path, block metadata for a materialized Dataset."""
    files, rows = None, None
    if isinstance(transcripts, str):
        files = ([transcripts] if os.path.isfile(transcripts) else
                 sorted(glob.glob(os.path.join(transcripts, "**", "*.parquet"),
                                  recursive=True)))
        rows = resume._rows(files)
    elif isinstance(transcripts, MaterializedDataset):
        rows = transcripts.count()
    if not resume.local_gate(gate, "kg", rows, allowed=rows is not None):
        return None
    if files is not None:
        return pq.read_table(files, columns=COLS)
    return pa.concat_tables(ray.get(transcripts.to_arrow_refs())).select(COLS)


def _linker(mapping, link_shards, out_dir, *args, starved=False) -> tuple:
    """phases.linker over ``mapping`` (a Dataset or a pyarrow table),
    sharded past BROADCAST_MAX_ENTITIES unless ``link_shards`` is given:
    the sharded index is streamed to per-shard parquet and loaded by K
    actors, so the entity table never touches the driver."""
    if link_shards is None:
        n_entities = (mapping.num_rows if isinstance(mapping, pa.Table)
                      else mapping.count())
        link_shards = 0 if n_entities < BROADCAST_MAX_ENTITIES else max(
            8, n_entities // 1_000_000)
    index_dir = None
    if link_shards:
        import tempfile

        index_dir = (os.path.join(out_dir, "link_index") if out_dir else
                     tempfile.mkdtemp(prefix="vr_link_index_", dir="/tmp"))
    return phases.linker(mapping, link_shards, index_dir, *args,
                         starved=starved)


def _run_local(turns: pa.Table, out_dir, write: bool,
               clock: phases.PhaseClock, batch_size: int, enc_kwargs: dict,
               link_args: tuple) -> dict:
    """The build in the driver, phase after phase; each table is written
    as one file (none for an empty table, as on the Ray sinks)."""
    def sink(name: str, t: pa.Table):
        if not (write and t.num_rows):
            return rd.from_arrow(t)
        os.makedirs(os.path.join(out_dir, name))
        pq.write_table(t, os.path.join(out_dir, name, resume.LOCAL_FILE))
        return rd.read_parquet(os.path.join(out_dir, name))

    ext = phases.extract(turns, batch_size)
    clock.lap("extract")
    res = {"mentions": sink("mentions", phases.mentions(ext, batch_size,
                                                        **enc_kwargs))}
    clock.lap("encode_write")
    mapping = phases.mapping(phases.surface_partials(ext))
    clock.lap("mapping")
    linker_cls, linker_kwargs, shard_actors = _linker(mapping, *link_args)
    linked = phases.link(ext, linker_cls(**linker_kwargs), batch_size)
    for a in shard_actors:
        ray.kill(a)
    clock.lap("link")
    res["triples"] = sink("triples", linked)
    clock.lap("triples_write")
    edges, nodes = phases.finalize(phases.edge_partials(linked), mapping)
    clock.lap("edges_agg")
    res.update(edges=sink("edges", edges), nodes=sink("nodes", nodes),
               mapping=rd.from_arrow(mapping))
    if write:
        res["paths"] = {n: os.path.join(out_dir, n) for n in TABLES}
    clock.lap("final_writes")
    return res


def run_kg(
    transcripts,
    out_dir: str | None = None,
    dim: int = 64,
    batch_size: int = 4096,
    encoder_concurrency: int = 4,
    linker_concurrency: int = 4,
    write_outputs: bool = True,
    assume_conv_partitioned: bool = False,
    max_task_retries: int = 2,
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
    turns = _local_turns(transcripts, gate)
    write = bool(out_dir and write_outputs)
    if write:
        # replace-on-rerun: write_parquet filenames embed a fresh uuid, so
        # writing into a reused out_dir would otherwise ACCUMULATE the old
        # run's files and every table would read back N× after N runs
        import shutil

        for name in TABLES:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
    link_args = (link_shards, out_dir, dim, fuzzy_threshold, link_ann,
                 link_ann_cells, link_ann_probe)
    enc_kwargs = {"kind": encoder_kind, "dim": dim, **(encoder_kwargs or {})}

    def done(res: dict) -> dict:
        clock.lap("total", since=clock.start)
        return {**res, "timings": clock.walls, "gate": gate}

    if turns is not None:
        return done(_run_local(turns, out_dir, write, clock, batch_size,
                               enc_kwargs, link_args))

    # an actor pool that reserves every CPU starves the task-pool stages
    # feeding it (ray_guide: "a pool that reserves every CPU … serializes");
    # cap each pool so ≥2 CPUs stay free for reads/extraction/writes
    total_cpus = int(ray.cluster_resources().get("CPU", 4))
    encoder_concurrency = max(1, min(encoder_concurrency, total_cpus - 2))
    linker_concurrency = max(1, min(linker_concurrency, total_cpus - 2))
    # with one CPU a pool of one actor leaves no task slot beside it: an
    # encode pool overlapping the canonicalize shuffle, or a link pool
    # behind its feeder tasks, would wait for a slot forever. A starved
    # cluster runs encode and link as plain tasks, one after the other
    starved = total_cpus - max(encoder_concurrency, linker_concurrency) < 1

    if isinstance(transcripts, str):
        # read_transcripts strips the pandas schema-metadata blob at the
        # source — raw read_parquet defeats Ray's unify_schemas early exit
        # and spams 'Failed to hash the schemas' on every downstream shuffle
        ds = read_transcripts(transcripts, columns=COLS)
    else:
        ds = transcripts.select_columns(COLS)

    # Idempotency: dedup duplicate re-sent turns at the INPUT (narrow rows).
    # Extraction of distinct turns provably yields distinct mention/triple
    # row_ids (spans/occ are unique within a turn), so the wider extracted
    # table needs NO dedup of its own. With ``assume_conv_partitioned``
    # (input files conv-hash-partitioned, the Kafka-partition analogue) the
    # dedup is per-block and costs NO shuffle at all.
    if assume_conv_partitioned:
        ds = dedup_exact_local(ds, ["conv_id", "turn_idx"], sort_within=["text"])
    else:
        ds = dedup_exact(ds, ["conv_id", "turn_idx"], sort_within=["text"])

    # Branch point: pin the narrow intermediate once in the object store
    # (spills to disk under memory pressure) — avoids re-scanning the full
    # input for the mention and triple branches, and avoids a parquet
    # write+read round-trip (the checkpointing variant that DOES write it is
    # pipelines/resume.py).
    extracted = phases.extract_ds(ds, batch_size).materialize()
    clock.lap("extract")

    # The encode branch runs CONCURRENTLY with mapping→link→edges (hides the
    # phase barriers) unless the cluster is starved, when it runs AFTER the
    # main phases. With the mapping/edges phases at their final round-2
    # speed the overlap wins in EVERY measured regime — 25M turns / 32 CPUs
    # one box: 85.3 s overlapped vs 117.7 s sequential (the encode branch's
    # 41 s hides entirely behind the main phases even though the shared
    # memory bus inflates edges 26 → 51 s); 6.3M / 8 CPUs: 47 s vs 67 s;
    # 1.6M / 32 CPUs: neutral within noise. (An earlier slower-mapping
    # build had sequential winning at 32 CPUs — re-measure if the phase mix
    # shifts again.)
    # NOTE: do NOT widen the encoder pool in sequential mode. Measured at
    # 25M turns / 32 CPUs (standalone encode branch, min-of-2):
    # concurrency 8 → 15.5 s, 12 → 29.9 s, 16 → 35.6 s, 30 → 50.8 s.
    # The hashing+memo encode is cheap; the branch is bound by the
    # mentions_table feeder tasks + parquet write tasks, and every actor
    # slot added beyond ~CPUs/4 takes a CPU from exactly those stages.
    mentions_emb = phases.mentions_ds(extracted, batch_size,
                                      encoder_concurrency, tasks=starved,
                                      max_task_retries=max_task_retries,
                                      **enc_kwargs)
    # The encode branch needs NO global state: its streaming execution
    # (encode → write mentions/) overlaps mapping-build + linking (still
    # only TWO concurrent executions — three-way was measured to thrash at
    # low CPU counts).
    write_mentions = clock.timed("encode_write", lambda: (
        mentions_emb.write_parquet(os.path.join(out_dir, "mentions"))))
    join_mentions = (phases.background(write_mentions)
                     if write and not starved else None)

    # --- canonicalization -------------------------------------------------
    # mapping is small (one row per distinct surface form) and consumed by
    # three downstreams (link index, nodes, optional write) → pin it.
    mapping = canonicalize.build_mapping(extracted.map_batches(
        mentions_table, batch_format="pyarrow")).materialize()
    clock.lap("mapping")

    # --- triple branch -> linking -> edges -------------------------------
    linker_cls, linker_kwargs, shard_actors = _linker(mapping, *link_args,
                                                      starved=starved)
    # `linked` feeds BOTH the triples output and edge aggregation → pin it.
    linked = phases.link_ds(extracted, linker_cls, linker_kwargs, batch_size,
                            linker_concurrency, tasks=starved).materialize()
    for a in shard_actors:  # linking done → free the index actors
        ray.kill(a)
    clock.lap("link")
    edges_start = clock.last

    # Both consumers of the pinned `linked` — the triples parquet write and
    # the edge aggregation — are independent: overlap them (the encode
    # branch is usually done by now, so this keeps two executions in
    # flight, not three).
    join_triples = phases.background(clock.timed("triples_write", lambda: (
        linked.write_parquet(os.path.join(out_dir, "triples"))))
    ) if write else None
    # edges is consumed twice (edge table + degree computation) → pin the
    # (small, pre-aggregated) result instead of re-running the linker branch
    edges = materialize.edges_from_linked(linked).materialize()
    # nodes: mapping ∪ degree partials, both pre-aggregated; when they are
    # SMALL the 64-bucket sort-shuffle costs more than the merge itself →
    # single-task fast path
    edges_out, nodes = phases.finalize_ds(
        edges, mapping, single_task=edges.count() + mapping.count() < 500_000)
    clock.lap("edges_agg")
    if join_triples is not None:
        join_triples()
    clock.lap("edges", since=edges_start)

    result: dict = {"mentions": mentions_emb, "triples": linked,
                    "edges": edges_out, "nodes": nodes, "mapping": mapping}
    if not write:
        return done(result)
    # overlap the edges write with the nodes computation/write
    phases.background(
        lambda: edges_out.write_parquet(os.path.join(out_dir, "edges")),
        lambda: nodes.write_parquet(os.path.join(out_dir, "nodes")))()
    clock.lap("final_writes")
    if join_mentions is not None:
        join_mentions()
    else:  # sequential mode: encode after the main phases
        write_mentions()
    result["paths"] = {n: os.path.join(out_dir, n) for n in TABLES}
    for name in TABLES:
        p = os.path.join(out_dir, name)
        # write_parquet of a 0-row dataset creates no dir at all — keep
        # the (empty) in-memory dataset instead of crashing the read
        if name != "triples" and os.path.isdir(p):
            result[name] = rd.read_parquet(p)
    return done(result)
