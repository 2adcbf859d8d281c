"""The flagship pipeline: transcripts → knowledge graph (nodes/, edges/).

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
    → filter_nonempty_text                        # admission rule (S3/T2)
    → extract_batch                               # mentions+triples, 1 pass
    → pin extracted (object store)                # branch point
  extracted → mentions → canonicalize (combiner + ONE merge-key-bucketed
      groupby) → mapping → ray.put broadcast index
  extracted → mentions → HashingEncoder pool → mentions/
  extracted → triples → EntityLinker pool → triples/
  linked → partial_edges combiner → bucketed groupby → edges/
  mapping ∪ degree-partials → merge (single-task when small) → nodes/

Two paths, one gate (``resume.local_gate``, gate "kg", under
``resume.LOCAL_MAX_ROWS`` rows, sized from Parquet footers or a materialized
Dataset's metadata; a lazy Dataset takes the Ray path). Below it the driver
runs the phase functions it shares with the resumable runner
(pipelines/phases.py) and writes each table as one file, with no Ray Data
execution; otherwise the dataflow above runs. Same tables, schemas and
result keys on both, plus ``result["gate"]``. The local ``timings`` add
up to ``total`` and have no ``edges`` (the Ray path's overlapped
edges_agg + triples_write).

Scale notes: the only all-to-all exchanges are (a) the optional input dedup
(skipped when files are conv-hash-partitioned — the Kafka-partition
analogue), (b) pre-combined partial aggregates. The embedding column exists
only on the mentions output path and never enters a shuffle (SURVEY.md §7
hard parts — wide rows). The checkpoint/exact-resume variant of this DAG is
pipelines/resume.py.
"""

from __future__ import annotations

import glob
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from . import phases, resume
from ..functions.dedup_exact import dedup_exact, dedup_exact_local
from ..sources.readers import read_transcripts
from ..stages import canonicalize, materialize
from ..stages.encode import ENCODERS, encode_batch_task
from ..stages.extract import (
    extract_batch,
    filter_nonempty_text,
    mentions_table,
    triples_table,
)
from ..stages.link import EntityLinker, link_batch_task

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


def _linker(mapping, link_shards, out_dir, *args) -> tuple:
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
    return phases.linker(mapping, link_shards, index_dir, *args)


def _run_local(turns: pa.Table, out_dir, write: bool, t_start: float,
               batch_size: int, enc_kwargs: dict, link_args: tuple) -> dict:
    """The build in the driver, phase after phase; each table is written
    as one file (none for an empty table, as on the Ray sinks)."""
    timings, last = {}, [t_start]

    def tick(name: str) -> None:
        now = time.time()
        timings[name], last[0] = round(now - last[0], 3), now

    def sink(name: str, t: pa.Table):
        if not (write and t.num_rows):
            return rd.from_arrow(t)
        os.makedirs(os.path.join(out_dir, name))
        pq.write_table(t, os.path.join(out_dir, name, resume.LOCAL_FILE))
        return rd.read_parquet(os.path.join(out_dir, name))

    ext = phases.extract(turns, batch_size)
    tick("extract")
    res = {"mentions": sink("mentions", phases.mentions(ext, batch_size,
                                                        **enc_kwargs))}
    tick("encode_write")
    mapping = phases.mapping(phases.surface_partials(ext))
    tick("mapping")
    linker_cls, linker_kwargs, shard_actors = _linker(mapping, *link_args)
    linked = phases.link(ext, linker_cls(**linker_kwargs), batch_size)
    for a in shard_actors:
        ray.kill(a)
    tick("link")
    res["triples"] = sink("triples", linked)
    tick("triples_write")
    edges, nodes = phases.finalize(phases.edge_partials(linked), mapping)
    tick("edges_agg")
    res.update(edges=sink("edges", edges), nodes=sink("nodes", nodes),
               mapping=rd.from_arrow(mapping))
    if write:
        res["paths"] = {n: os.path.join(out_dir, n) for n in TABLES}
    tick("final_writes")
    timings["total"] = round(time.time() - t_start, 3)
    return {**res, "timings": timings}


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
    encode_overlap: bool | str = "auto",
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
    t_start = time.time()
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
    if turns is not None:
        return {**_run_local(turns, out_dir, write, t_start, batch_size,
                             {"kind": encoder_kind, "dim": dim,
                              **(encoder_kwargs or {})}, link_args),
                "gate": gate}

    # an actor pool that reserves every CPU starves the task-pool stages
    # feeding it (ray_guide: "a pool that reserves every CPU … serializes");
    # cap each pool so ≥2 CPUs stay free for reads/extraction/writes
    total_cpus = int(ray.cluster_resources().get("CPU", 4))
    encoder_concurrency = max(1, min(encoder_concurrency, total_cpus - 2))
    linker_concurrency = max(1, min(linker_concurrency, total_cpus - 2))
    # with one CPU a pool of one actor leaves no task slot beside it: an
    # encode pool overlapping the canonicalize shuffle, or a link pool
    # behind its feeder tasks, would wait for a slot forever
    starved = total_cpus - max(encoder_concurrency, linker_concurrency) < 1

    from ..tuning import pin_failed_fsspec_http_import

    # run_kg overlaps branch writes on driver threads → the fsspec.http
    # import inside each write must be made race-free first
    pin_failed_fsspec_http_import()

    timings: dict[str, float] = {}

    # opt-in per-phase operator stats (ds.stats()) for profiling: set
    # VECTRAIN_STATS_DIR to a writable dir and each materialized phase dumps
    # its executor stats there — the feedback loop for tuning phase shapes
    stats_dir = os.environ.get("VECTRAIN_STATS_DIR")

    def _dump_stats(name: str, ds_) -> None:
        if stats_dir:
            try:
                os.makedirs(stats_dir, exist_ok=True)
                with open(os.path.join(stats_dir, f"{name}.txt"), "w") as f:
                    f.write(ds_.stats())
            except Exception:  # noqa: BLE001 — profiling must never kill a run
                pass

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

    extracted = ds.map_batches(
        filter_nonempty_text, batch_format="pyarrow", batch_size=batch_size
    ).map_batches(extract_batch, batch_format="pyarrow", batch_size=batch_size)

    # Branch point: pin the narrow intermediate once in the object store
    # (spills to disk under memory pressure) — avoids re-scanning the full
    # input for the mention and triple branches, and avoids a parquet
    # write+read round-trip (the checkpointing variant that DOES write it is
    # pipelines/resume.py).
    extracted = extracted.materialize()
    _dump_stats("extracted", extracted)
    timings["extract"] = round(time.time() - t_start, 3)

    # --- mention branch ---------------------------------------------------
    mentions = extracted.map_batches(mentions_table, batch_format="pyarrow")

    # the reference's RetryPolicy (config.go:43-46) is parsed but never
    # read; here it is actually enforced by Ray actor task retries
    retry_args = {"max_task_retries": max_task_retries} if max_task_retries else {}

    # ``encode_overlap``: True runs the encode branch CONCURRENTLY with
    # mapping→link→edges (hides the phase barriers), False runs it AFTER the
    # main phases. "auto" resolves to True: with the mapping/edges phases at
    # their final round-2 speed the overlap wins in EVERY measured regime —
    # 25M turns / 32 CPUs one box: 85.3 s overlapped vs 117.7 s sequential
    # (the encode branch's 41 s hides entirely behind the main phases even
    # though the shared memory bus inflates edges 26 → 51 s); 6.3M / 8 CPUs:
    # 47 s vs 67 s; 1.6M / 32 CPUs: neutral within noise. (An earlier
    # slower-mapping build had sequential winning at 32 CPUs — re-measure if
    # the phase mix shifts again.) Resolved BEFORE the encoder stage is
    # built: pool sizing depends on it. A starved cluster (above) runs
    # sequentially.
    if encode_overlap == "auto":
        encode_overlap = not starved
    # NOTE: do NOT widen the encoder pool in sequential mode. Measured at
    # 25M turns / 32 CPUs (standalone encode branch, min-of-2):
    # concurrency 8 → 15.5 s, 12 → 29.9 s, 16 → 35.6 s, 30 → 50.8 s.
    # The hashing+memo encode is cheap; the branch is bound by the
    # mentions_table feeder tasks + parquet write tasks, and every actor
    # slot added beyond ~CPUs/4 takes a CPU from exactly those stages.

    enc_kwargs = {"dim": dim, **(encoder_kwargs or {})}
    if starved:  # plain tasks, same kernel: no actor holds the one slot
        encode = {"fn": encode_batch_task,
                  "fn_kwargs": {"kind": encoder_kind, **enc_kwargs}}
    else:
        encode = {"fn": ENCODERS[encoder_kind],
                  "fn_constructor_kwargs": enc_kwargs,
                  "concurrency": encoder_concurrency, **retry_args}
    mentions_emb = mentions.map_batches(**encode, batch_format="pyarrow",
                                        batch_size=batch_size)

    # The encode branch needs NO global state — launch its streaming
    # execution (encode → write mentions/) in a side thread NOW, overlapping
    # it with mapping-build + linking on the main thread (strictly more
    # overlap than the old encode∥link window; still only TWO concurrent
    # executions — three-way was measured to thrash at low CPU counts).
    import threading

    encode_holder: dict = {}

    def _encode_branch():
        try:
            t0 = time.time()
            mentions_emb.write_parquet(os.path.join(out_dir, "mentions"))
            encode_holder["sec"] = round(time.time() - t0, 3)
        except BaseException as exc:  # noqa: BLE001
            encode_holder["exc"] = exc

    t_encode = None
    if out_dir and write_outputs and encode_overlap:
        t_encode = threading.Thread(target=_encode_branch)
        t_encode.start()

    # --- canonicalization -------------------------------------------------
    # mapping is small (one row per distinct surface form) and consumed by
    # three downstreams (link index, nodes, optional write) → pin it.
    t0 = time.time()
    mapping = canonicalize.build_mapping(mentions).materialize()
    _dump_stats("mapping", mapping)
    timings["mapping"] = round(time.time() - t0, 3)
    linker_cls, linker_kwargs, shard_actors = _linker(mapping, *link_args)

    # --- triple branch -> linking -> edges -------------------------------
    triples = extracted.map_batches(triples_table, batch_format="pyarrow")
    # NOTE: no retry_args for the linker pool — its constructor takes an
    # object-store ref (index_ref); max_task_retries forces max_restarts>0
    # on the pool, which deadlocks actor (re)starts whose ctor args live in
    # the object store (ray#53727, reproduced here).
    if starved and linker_cls is EntityLinker:
        link = {"fn": link_batch_task, "fn_kwargs": linker_kwargs}
    else:
        link = {"fn": linker_cls, "fn_constructor_kwargs": linker_kwargs,
                "concurrency": linker_concurrency}
    linked = triples.map_batches(**link, batch_format="pyarrow",
                                 batch_size=batch_size)
    # `linked` feeds BOTH the triples output and edge aggregation → pin it.
    t0 = time.time()
    linked = linked.materialize()
    _dump_stats("linked", linked)
    timings["link"] = round(time.time() - t0, 3)
    for a in shard_actors:  # linking done → free the index actors
        ray.kill(a)

    # Both consumers of the pinned `linked` — the triples parquet write and
    # the edge aggregation — are independent: overlap them (the encode
    # branch is usually done by now, so this keeps two executions in
    # flight, not three).
    t0 = time.time()
    triples_holder: dict = {}

    def _write_triples():
        try:
            t_w = time.time()
            linked.write_parquet(os.path.join(out_dir, "triples"))
            triples_holder["sec"] = round(time.time() - t_w, 3)
        except BaseException as exc:  # noqa: BLE001
            triples_holder["exc"] = exc

    t_triples = None
    if out_dir and write_outputs:
        t_triples = threading.Thread(target=_write_triples)
        t_triples.start()

    # edges is consumed twice (edge table + degree computation) → pin the
    # (small, pre-aggregated) result instead of re-running the linker branch
    edges = materialize.edges_from_linked(linked).materialize()
    _dump_stats("edges", edges)
    edges_out = edges.map_batches(materialize.prov_to_struct, batch_format="pyarrow")
    timings["edges_agg"] = round(time.time() - t0, 3)
    if t_triples is not None:
        t_triples.join()
        if "exc" in triples_holder:
            raise triples_holder["exc"]
        timings["triples_write"] = triples_holder.get("sec")
    timings["edges"] = round(time.time() - t0, 3)

    # --- nodes + degree (join-free: union + one groupby) ------------------
    degree_partials = edges.map_batches(
        materialize.partial_degrees, batch_format="pyarrow"
    )
    # both inputs are pre-aggregated; when they are SMALL the 64-bucket
    # sort-shuffle costs more than the merge itself → single-task fast path
    small = edges.count() + mapping.count() < 500_000
    nodes = materialize.nodes_with_degree(mapping, degree_partials,
                                          single_task=small)

    result: dict = {
        "mentions": mentions_emb,
        "triples": linked,
        "edges": edges_out,
        "nodes": nodes,
        "mapping": mapping,
    }

    if out_dir and write_outputs:
        t0 = time.time()
        paths = {"triples": os.path.join(out_dir, "triples"),
                 "mentions": os.path.join(out_dir, "mentions")}
        # overlap the edges write with the nodes computation/write
        edge_holder: dict = {}

        def _write_edges():
            try:
                edges_out.write_parquet(os.path.join(out_dir, "edges"))
            except BaseException as exc:  # noqa: BLE001
                edge_holder["exc"] = exc

        t_edges = threading.Thread(target=_write_edges)
        t_edges.start()
        nodes.write_parquet(os.path.join(out_dir, "nodes"))
        t_edges.join()
        if "exc" in edge_holder:
            raise edge_holder["exc"]
        for name in ("edges", "nodes"):
            p = os.path.join(out_dir, name)
            paths[name] = p
            # write_parquet of a 0-row dataset creates no dir at all — keep
            # the (empty) in-memory dataset instead of crashing the read
            if os.path.isdir(p):
                result[name] = rd.read_parquet(p)
        timings["final_writes"] = round(time.time() - t0, 3)
        result["paths"] = paths

    if t_encode is not None:
        t_encode.join()
    elif out_dir and write_outputs:
        _encode_branch()  # sequential mode: encode after the main phases
    if out_dir and write_outputs:
        if "exc" in encode_holder:
            raise encode_holder["exc"]
        timings["encode_write"] = encode_holder["sec"]
        mdir = os.path.join(out_dir, "mentions")
        if os.path.isdir(mdir):  # absent for a zero-mention corpus
            result["mentions"] = rd.read_parquet(mdir)

    timings["total"] = round(time.time() - t_start, 3)
    result["timings"] = timings
    result["gate"] = gate
    return result

