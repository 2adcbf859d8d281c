"""Resumable, partitioned KG pipeline — the checkpoint/exact-resume path.

Phases (each phase unit is idempotent + manifest-gated):

  0. shard      transcripts → shards/part=K/ by crc_bucket(conv_id, P)
                (conversation never splits; one-time layout shuffle)
  1. extract    per shard: filter+extract → extracted/part=K/ + the shard's
                surface-count partials surface_partials/part=K/ [manifest]
  2. canonical  global mapping rebuilt FROM THE STORED PARTIALS (mergeable
                sums → O(distinct surfaces), never re-reads mentions):
                mapping/ + link index                           [marker]
  3. link       per shard: triples → linked triples/part=K/ +
                edge partial aggregates edge_partials/part=K/   [manifest,
                records n_unsafe = link.count_unsafe_links]
  4. finalize   global: edge partials → edges/, mapping+degree → nodes/
                                                                [marker]

Killing the job anywhere and re-running converges to the same rows: shard
outputs are overwritten whenever their manifest is missing/stale, manifests
commit last (state/manifest.py), and every id is a stable hash. Per-shard
manifests carry row counts + wall time = the per-partition lineage/metrics.

Streaming appends are O(delta): a mapping rebuild invalidates phase 3 ONLY
for shards with mapping-DEPENDENT links — a shard with n_unsafe == 0 had
every surface resolve as an exact dict hit whose id is the pure per-surface
hash (see link.count_unsafe_links for the full soundness argument, which
also covers why any dict MISS — even a fallback that emitted the pure id —
forces a relink), so its committed output is provably unchanged by data
arriving elsewhere. Incremental ≡ one-shot stays exact
(test_stream.test_trickle_append_relinks_only_touched_parts).

Two execution paths, one set of kernels. Phase 1, the mention encode,
phase 3 and StreamDriver's shard append compare their input rows with
LOCAL_MAX_ROWS; phases 2 and 4, whose inputs are pre-aggregated partials,
compare theirs with EDGE_FINALIZE_SINGLE_TASK_MAX (and phase 4 also needs
a broadcast-size mapping). Under its gate a phase calls the stage kernels
(extract_batch, the surface and edge combiners, _canonicalize_bucket,
encode_batch_task, the linker, _finalize_edges_bucket) on pyarrow tables in
the driver and writes each part=K output with pq.write_table; at or above
it the phase runs as Ray Data executions. Manifests, fingerprints,
n_unsafe invalidation, the mapping marker and the commit-last order are the
same on both sides. Each decision is logged (``gate=<phase>,
path="local"|"ray", rows=…``) and returned in ``metrics["gate"]``. At the
default gates a micro-batch poll runs wholly in the driver while the
shards it touches hold under ~110 k turns (extraction yields ~2.3 rows per
turn); so does a cold ingest of up to ~110 k turns. Larger inputs and batch
builds take the Ray path phase by phase as each phase's input crosses its
gate.

At 100 TB: P = O(cluster size × few); phases 1/3 are embarrassingly parallel
per shard (each shard itself a streaming Ray Data pipeline); phases 2/4 only
touch pre-aggregated small tables — and per-poll cost tracks the delta, not
the corpus.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

import logging

from .. import rules
from ..functions.dedup_exact import (_to_arrow_stripped, dedup_exact,
                                     dedup_table)
from ..logs import log_event
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
    link_batch_task,
    build_link_index,
    make_link_shard_actors,
    write_link_index,
)
from ..state.manifest import (
    PartitionManifest,
    clear_partition_outputs,
    partition_output_dir,
)

_LOG = logging.getLogger("vectrain_ray.resume")

TABLES_P1 = ["extracted", "surface_partials"]
TABLES_M = ["mentions"]
TABLES_P3 = ["triples", "edge_partials"]
# above this many mapping rows the n_unsafe skip criterion switches from a
# driver-side norm set to the distributed counter (stages/link.py) — same
# size class as the kg.BROADCAST_MAX_ENTITIES broadcast gate
UNSAFE_SET_MAX_ENTITIES = 2_000_000
# below this many stored surface-partial (phase 2) or edge-partial
# (phase 4) rows the phase merges in ONE vectorized call instead of the
# 64-bucket sort-shuffle — the exchange's fixed cost dwarfs the merge at
# this size — and makes that call in the driver (phase 4 only while the
# mapping is broadcast-size: it also merges the nodes there)
EDGE_FINALIZE_SINGLE_TASK_MAX = 4_000_000
# below this many input rows phases 1/3 materialize their transform ONCE
# and feed every sink (extracted + surface partials + mention encode;
# triples + edge partials) from the in-memory handle on threads, instead
# of write → read-back → second execution. ~8M rows × ~300 B ≈ 2.4 GB of
# object store — comfortably under a worker heap; above the gate the
# streaming write + read-back path keeps memory flat (micro-batch polls
# sit far below it, big batch runs far above)
FUSE_MATERIALIZE_MAX_ROWS = 8_000_000
# below this many input rows phase 1, the mention encode, phase 3 and the
# stream's shard append run their kernels on pyarrow tables in the driver,
# with no Ray Data execution: a micro-batch poll otherwise paid ~10
# executions of fixed cost over ~1 k rows. Set at the 2-Ray-CPU crossover:
# cold stream ingests, each phase local vs on Ray, were at par at ~264 k
# turns for phase 1 (4.7-5.0 s vs 4.7-7.2 s) and ~595 k extracted rows for
# mentions + phase 3 (5.4-5.7 s vs 5.2-5.5 s), with the driver path still
# ahead at ~297 k rows; the driver's peak RSS grew ~0.3 GB at that size.
# Not measured above 2 CPUs, where the Ray path has more CPUs to use
LOCAL_MAX_ROWS = 262_144
# file name of every local-path output file (one per part=K dir)
LOCAL_FILE = "local.parquet"
# the stored edge-partial rows phase 4 merges
EP_SCHEMA = pa.schema([("src_id", pa.string()), ("dst_id", pa.string()),
                       ("pred", pa.string()), ("prov", pa.string()),
                       ("cnt", pa.int64()), ("bucket", pa.int32())])


def local_gate(record: dict, phase: str, rows: int,
               limit: int | None = None, allowed: bool = True) -> bool:
    """One phase's side of its row gate (``limit``, LOCAL_MAX_ROWS unless
    given): True runs it in the driver. The decision is logged and kept in
    ``record[phase]``. The event names its phase under ``gate``:
    ``phase="p1"``/``"p3"`` events are the per-part manifest commits,
    which carry ``part``."""
    limit = LOCAL_MAX_ROWS if limit is None else limit
    path = "local" if allowed and rows < limit else "ray"
    record[phase] = {"path": path, "rows": rows}
    log_event(_LOG, f"{phase} takes the {path} path over {rows} rows",
              gate=phase, path=path, rows=rows)
    return path == "local"


def _map_chunks(fn, t: pa.Table, batch_size: int, **kwargs) -> pa.Table:
    """A batch kernel over ``t`` in ``batch_size`` slices, in the driver —
    what ``map_batches(fn, batch_size=batch_size)`` does on Ray."""
    outs = [fn(t.slice(i, batch_size), **kwargs)
            for i in range(0, t.num_rows, batch_size)]
    return pa.concat_tables(outs) if outs else fn(t, **kwargs)


def write_parts(t: pa.Table, out_dir: str, table: str,
                name: str = LOCAL_FILE) -> None:
    """In-driver twin of ``write_parquet(partition_cols=["part"])``: one
    file per part present in ``t``, written without the part column (a
    part with no rows gets no file, as on the Ray sink)."""
    for part in sorted(pc.unique(t["part"]).to_pylist()):
        d = partition_output_dir(out_dir, table, part)
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            t.filter(pc.equal(t["part"], part)).drop_columns(["part"]),
            os.path.join(d, name))


def _rows(files: list[str]) -> int:
    return sum(pq.read_metadata(f).num_rows for f in files)


def _part_files(out_dir: str, table: str, part: int) -> list[str]:
    return sorted(glob.glob(os.path.join(
        partition_output_dir(out_dir, table, part), "*.parquet")))


def _join_all(fns: list, max_workers: int | None = None) -> None:
    """Run callables on threads, wait for ALL, log every failure, re-raise
    the first. Waiting for all (not FIRST_EXCEPTION) matters: the callables
    are parquet sinks — cancelling siblings mid-write would leave partial
    outputs racing the caller's cleanup; and logging the non-first failures
    keeps a multi-sink outage from hiding its second root cause."""
    from concurrent.futures import ThreadPoolExecutor, wait

    with ThreadPoolExecutor(max_workers=max_workers or len(fns)) as pool:
        futs = [pool.submit(fn) for fn in fns]
        wait(futs)
    errs = [f.exception() for f in futs if f.exception() is not None]
    for e in errs[1:]:
        _LOG.error("parallel sink failed (suppressed, first is raised): %r",
                   e)
    if errs:
        raise errs[0]


def _shard(input_path: str, out_dir: str, num_parts: int,
           source_kind: str = "parquet") -> str:
    shards = os.path.join(out_dir, "shards")
    marker = os.path.join(shards, "_DONE")
    if os.path.exists(marker):
        return shards
    if source_kind == "parquet":
        ds = rd.read_parquet(input_path,
                             columns=["conv_id", "turn_idx", "text"])
    else:  # registry dispatch (SourceSpec.kind), then prune columns
        from ..sources.readers import get_reader

        ds = get_reader(source_kind)(input_path).select_columns(
            ["conv_id", "turn_idx", "text"])

    ds.map_batches(add_part_column, fn_kwargs={"num_parts": num_parts},
                   batch_format="pyarrow").write_parquet(
        shards, partition_cols=["part"], min_rows_per_file=1 << 19
    )
    open(marker, "w").write("ok")
    return shards


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


def _backfill_surface_partials(out_dir: str, num_parts: int) -> int:
    """Upgrade path: output dirs written BEFORE the partials artifact
    existed have valid p1 manifests (so phase 1 skips) but no
    surface_partials — rebuilding the mapping from partials alone would
    then silently drop those shards' entities. Backfill any shard that has
    extracted output but no partials (one-time cost per migrated shard).
    Each shard's backfill is write-to-tmp + rename: the dir's existence is
    this path's only completion signal, so a crash mid-write must not
    leave a half-dir that a re-run would treat as complete (and then
    permanently truncate the mapping)."""
    n = 0
    for part in range(num_parts):
        sp_dir = partition_output_dir(out_dir, "surface_partials", part)
        tmp = sp_dir + "__tmp"
        shutil.rmtree(tmp, ignore_errors=True)  # stale crash tmp
        ext = _part_files(out_dir, "extracted", part)
        if ext and not glob.glob(os.path.join(sp_dir, "*.parquet")):
            clear_partition_outputs(out_dir, ["surface_partials"], part)
            canonicalize.surface_partials(
                rd.read_parquet(ext)
                .map_batches(mentions_table, batch_format="pyarrow")
            ).write_parquet(tmp)
            os.rename(tmp, sp_dir)
            n += 1
    return n


def run_kg_resumable(
    input_path: str,
    out_dir: str,
    num_parts: int = 8,
    dim: int = 64,
    batch_size: int = 4096,
    fail_after_phase1_parts: int | None = None,
    max_task_retries: int = 2,
    link_shards: int = 0,
    encoder_kind: str = "hashing",
    encoder_kwargs: dict | None = None,
    fuzzy_threshold: float = 0.85,
    link_ann: str = "exact",
    link_ann_cells: int = 64,
    link_ann_probe: int | None = None,
    source_kind: str = "parquet",
    pool_concurrency: int | None = None,
) -> dict:
    """Run (or resume) the partitioned pipeline. ``fail_after_phase1_parts``
    injects a crash after N phase-1 manifests commit (kill-point testing
    only) — inside the commit every phase-1 path shares.

    Phases 1 and 3 run FUSED: every stale shard goes through ONE pass per
    phase (in the driver under LOCAL_MAX_ROWS, else one Ray Data
    execution; a pipeline per shard paid ~1-2 s of fixed cost per shard
    per phase). ``pool_concurrency``: actors per encode/link pool; default
    scales with the cluster (max(2, CPUs // 8), capped 8)."""
    if pool_concurrency is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        pool_concurrency = max(2, min(8, cpus // 8))
    os.makedirs(out_dir, exist_ok=True)
    man1 = PartitionManifest(os.path.join(out_dir, "p1_extract"))
    man_m = PartitionManifest(os.path.join(out_dir, "p2_mentions"))
    man3 = PartitionManifest(os.path.join(out_dir, "p3_link"))
    gate: dict = {}
    metrics: dict = {"skipped_p1": 0, "skipped_p3": 0, "gate": gate}

    _tw: dict = {}
    _tc = [time.time()]

    def _tick(name: str) -> None:
        now = time.time()
        _tw[name] = round(now - _tc[0], 3)
        _tc[0] = now

    shards = _shard(input_path, out_dir, num_parts, source_kind)
    _tick("shard")

    # ---- phase 1: per-shard extraction ----------------------------------
    p1_todo: list[tuple[int, list[str]]] = []
    for part in range(num_parts):
        files = _part_files(out_dir, "shards", part)
        if not files:
            continue
        if man1.is_done(part, files):
            metrics["skipped_p1"] += 1
            continue
        p1_todo.append((part, files))

    def _run_p1(todo: list[tuple[int, list[str]]]):
        """Every stale shard in ONE pass; rows land partitioned by ``part``
        (vectorized crc on conv_id), so per-shard outputs, manifests and
        the O(delta) skip logic are unchanged, and a crash before the
        commits makes the next run redo exactly these shards. On the Ray
        path under FUSE_MATERIALIZE_MAX_ROWS the extract chain materializes
        ONCE and both sinks consume the handle (write → read-back → second
        execution cost ~3 s per micro-batch poll). Returns ``(extracted,
        finisher)``: the extracted rows (a pyarrow table on the local
        path, a materialized Dataset under the fuse gate, else None) for
        phases 1.7 and 3 to reuse, and a finisher when the extracted sink
        was deferred to a thread."""
        t0 = time.time()
        for part, _ in todo:
            clear_partition_outputs(out_dir, TABLES_P1, part)
        all_files = sorted(f for _, fs in todo for f in fs)
        n_in = _rows(all_files)
        if local_gate(gate, "p1", n_in):
            # shards hold whole conversations → dedup over the todo shards
            # is exact, with dedup_exact's winner per key
            src = dedup_table(
                pq.read_table(all_files,
                              columns=["conv_id", "turn_idx", "text"]),
                ["conv_id", "turn_idx"], sort_within=["text"])
            ext = add_part_column(
                _map_chunks(extract_batch, filter_nonempty_text(src),
                            batch_size), num_parts=num_parts)
            write_parts(ext, out_dir, "extracted")
            if ext.num_rows:
                mens = add_part_column(mentions_table(ext),
                                       num_parts=num_parts)
                write_parts(canonicalize.recombine_surface_partials(
                    canonicalize.partial_surface_counts(
                        mens, extra_cols=("part",)),
                    extra_cols=("part",)), out_dir, "surface_partials")
            _commit_p1(todo, t0)
            return ext, None
        cpus = int(ray.cluster_resources().get("CPU", 8))
        ds = rd.read_parquet(all_files)
        # global bucketed dedup ≡ the old per-shard dedup: conv_id
        # determines part, so (conv_id, turn_idx) groups never span shards.
        # pre_batch sized so the post-shuffle operator (which Ray fuses the
        # EXTRACTION into) gets ≥ ~2×CPUs blocks — a micro-batch that
        # collapsed to one sort partition ran the whole extract serially
        target = max(8192, min(65536, n_in // (2 * cpus) or 1))
        ds = dedup_exact(ds, ["conv_id", "turn_idx"], sort_within=["text"],
                         pre_batch=target)
        # re-block after the dedup exchange: Ray fuses the extraction into
        # the post-sort operator AND bundles write-task inputs up to the
        # write's min_rows_per_file — on a micro-batch both collapse the
        # whole extract chain into ONE serial task (measured 6-9 s for
        # work that takes ~1.5 s at 32-way). Streaming repartition +
        # a block-sized file floor keep task granularity ≈ 2×CPUs.
        ds = ds.repartition(target_num_rows_per_block=target)
        ext = ds.map_batches(
            filter_nonempty_text, batch_format="pyarrow",
            batch_size=batch_size
        ).map_batches(
            extract_batch, batch_format="pyarrow", batch_size=batch_size
        ).map_batches(
            add_part_column, fn_kwargs={"num_parts": num_parts},
            batch_format="pyarrow")
        ext_m = None
        if n_in < FUSE_MATERIALIZE_MAX_ROWS:
            ext_m = ext.materialize()

            def _w_ext() -> None:
                ext_m.write_parquet(os.path.join(out_dir, "extracted"),
                                    partition_cols=["part"],
                                    min_rows_per_file=target)

            def _w_sp() -> None:
                if ext_m.count() == 0:
                    return  # partials dir stays absent, as on the
                    # read-back path with zero extracted files
                mens = ext_m.map_batches(
                    mentions_table, batch_format="pyarrow"
                ).map_batches(add_part_column,
                              fn_kwargs={"num_parts": num_parts},
                              batch_format="pyarrow")
                canonicalize.surface_partials(
                    mens, extra_cols=("part",)
                ).write_parquet(os.path.join(out_dir, "surface_partials"),
                                partition_cols=["part"],
                                min_rows_per_file=65536)

            if cpus >= 16:
                # phase 2 needs only the surface partials — write the
                # extracted parquet on a thread joined (with the manifest
                # commit) right after phase 2, so the sink overlaps the
                # mapping rebuild
                from concurrent.futures import ThreadPoolExecutor as _TPE

                _ext_pool = _TPE(max_workers=1)
                ext_fut = _ext_pool.submit(_w_ext)
                _w_sp()

                def _finish() -> None:
                    try:
                        ext_fut.result()
                    finally:
                        _ext_pool.shutdown(wait=False)
                    _commit_p1(todo, t0)

                return ext_m, _finish
            # small sessions: concurrent executions starve each other's
            # map/write tasks (measured) — run serially
            _w_ext()
            _w_sp()
        else:
            ext.write_parquet(os.path.join(out_dir, "extracted"),
                              partition_cols=["part"],
                              min_rows_per_file=target)
            # phase-1.5: every todo shard's surface partials in one
            # execution, keyed per shard via
            # surface_partials(extra_cols=("part",))
            ext_back = sorted(f for part, _ in todo
                              for f in _part_files(out_dir, "extracted",
                                                   part))
            if ext_back:
                mens = rd.read_parquet(ext_back).map_batches(
                    mentions_table, batch_format="pyarrow"
                ).map_batches(add_part_column,
                              fn_kwargs={"num_parts": num_parts},
                              batch_format="pyarrow")
                canonicalize.surface_partials(
                    mens, extra_cols=("part",)
                ).write_parquet(os.path.join(out_dir, "surface_partials"),
                                partition_cols=["part"],
                                min_rows_per_file=65536)
        _commit_p1(todo, t0)
        return ext_m, None

    def _commit_p1(todo: list[tuple[int, list[str]]], t0: float) -> None:
        """Commit LAST, after both phase-1 sinks are durable. Every
        phase-1 path commits here, so the ``fail_after_phase1_parts`` kill
        point (raise once N manifests are committed) crashes the code that
        production runs."""
        wall = round((time.time() - t0) / len(todo), 3)
        for done, (part, files) in enumerate(todo, start=1):
            n = _rows(_part_files(out_dir, "extracted", part))
            man1.commit(part, files, {"rows_out": n, "wall_sec": wall})
            log_event(_LOG, f"p1 extract part={part} committed", phase="p1",
                      part=part, rows_out=n, wall_sec=wall, fused=len(todo))
            if (fail_after_phase1_parts is not None
                    and done >= fail_after_phase1_parts):
                raise RuntimeError("injected kill after phase-1 shard "
                                   f"{part} (testing resume)")

    # the extracted rows p1 just produced (a driver table on the local
    # path, an object-store handle under FUSE_MATERIALIZE_MAX_ROWS):
    # phases 1.7 / 3 consume them instead of re-reading the files when
    # their todo covers the same parts
    p1_ran_parts: list[int] = sorted(p for p, _ in p1_todo)
    p1_ext, p1_finish = _run_p1(p1_todo) if p1_todo else (None, None)

    _tick("p1")
    # ---- phase 1.7: mention encoding (pure function of extracted) -------
    # Mentions depend ONLY on (extracted input, encoder config) — never on
    # the mapping — so they carry their own manifest: a mapping-invalidated
    # relink (phase 3) no longer re-encodes untouched shards, and the
    # encode execution (launched after the extracted files land) OVERLAPS
    # phases 3–4 on big sessions (it needs nothing they produce).
    enc_sig = f"{encoder_kind}|{dim}|{sorted((encoder_kwargs or {}).items())!r}"
    enc_kwargs = {"kind": encoder_kind, "dim": dim, **(encoder_kwargs or {})}

    def _run_mentions_fused(todo: list[tuple[int, list[str]]],
                            src=None) -> None:
        t0 = time.time()
        for part, _ in todo:
            clear_partition_outputs(out_dir, TABLES_M, part)
        all_ext = sorted(f for _, fs in todo for f in fs)
        n_ext = _rows(all_ext)
        if local_gate(gate, "mentions", n_ext):
            ext = src if isinstance(src, pa.Table) else pq.read_table(all_ext)
            write_parts(add_part_column(
                _map_chunks(encode_batch_task, mentions_table(ext),
                            batch_size, **enc_kwargs),
                num_parts=num_parts), out_dir, "mentions")
        else:
            if not isinstance(src, rd.Dataset):
                src = rd.read_parquet(all_ext)
            mentions = src.map_batches(mentions_table,
                                       batch_format="pyarrow")
            if n_ext < FUSE_MATERIALIZE_MAX_ROWS:
                # plain tasks under the gate: encoder-pool spin-up
                # dominates micro-batch encodes; encode_batch_task caches
                # one encoder (and its surface memo) per worker process
                mentions = mentions.map_batches(
                    encode_batch_task,
                    fn_kwargs=enc_kwargs,
                    batch_format="pyarrow",
                    batch_size=batch_size,
                )
            else:
                mentions = mentions.map_batches(
                    ENCODERS[encoder_kind],
                    fn_constructor_kwargs={"dim": dim,
                                           **(encoder_kwargs or {})},
                    batch_format="pyarrow",
                    batch_size=batch_size,
                    concurrency=pool_concurrency,
                    **({"max_task_retries": max_task_retries}
                       if max_task_retries else {}),
                )
            mentions = mentions.map_batches(
                add_part_column, fn_kwargs={"num_parts": num_parts},
                batch_format="pyarrow")
            mentions.write_parquet(os.path.join(out_dir, "mentions"),
                                   partition_cols=["part"],
                                   min_rows_per_file=65536)
        wall = round((time.time() - t0) / len(todo), 3)
        for part, ext_files in todo:
            man_m.commit(part, ext_files,
                         {"encoder": enc_sig, "wall_sec": wall})
        log_event(_LOG, f"mentions encoded fused over {len(todo)} shards",
                  phase="mentions", parts=[p for p, _ in todo],
                  wall_sec=round(time.time() - t0, 3))

    # ---- phase 2: global canonicalization (small) -----------------------
    # The marker stores the fingerprint of the extracted/part=* inputs: if
    # phase 1 re-extracted anything (changed shard inputs), the mapping is
    # rebuilt AND every p3 manifest is invalidated — a stale entity mapping
    # makes every shard's linking output stale even when that shard's own
    # extracted files did not change.
    from ..state.manifest import _fingerprint

    _backfill_surface_partials(out_dir, num_parts)  # pre-partials out_dirs
    mapping_dir = os.path.join(out_dir, "mapping")
    mapping_marker = os.path.join(mapping_dir, "_DONE")
    sp_all = sorted(glob.glob(os.path.join(
        out_dir, "surface_partials", "part=*", "*.parquet")))
    ext_fp = _fingerprint(sp_all)
    marker_ok = False
    if os.path.exists(mapping_marker):
        try:
            marker_ok = open(mapping_marker).read() == ext_fp
        except OSError:
            marker_ok = False
    if not marker_ok:
        # O(distinct surfaces): the global mapping is rebuilt from the
        # per-shard count partials, not by re-reading every mention.
        # An all-empty corpus (every turn filtered) has no partials at all:
        # the local path writes no mapping file, the Ray path builds the
        # mapping from a zero-row partials table.
        n_sp_rows = _rows(sp_all)
        if os.path.exists(mapping_dir):
            shutil.rmtree(mapping_dir)
        if local_gate(gate, "p2", n_sp_rows,
                      limit=EDGE_FINALIZE_SINGLE_TASK_MAX):
            os.makedirs(mapping_dir)
            if n_sp_rows:
                pq.write_table(_to_arrow_stripped(
                    canonicalize._canonicalize_bucket(
                        pq.read_table(sp_all).to_pandas())),
                    os.path.join(mapping_dir, LOCAL_FILE))
        else:
            canonicalize.build_mapping_from_partials(
                rd.read_parquet(sp_all) if sp_all else
                canonicalize.surface_partials(rd.from_arrow(pa.table(
                    {"surface_form": pa.array([], pa.string())}))),
            ).write_parquet(mapping_dir)
        # The mapping changed — but a shard's phase-3 output is a PURE
        # function of its own extracted input unless some surface resolved
        # through the mapping-dependent path: a fuzzy-cosine DEPARTURE from
        # the per-surface stable hash, or any dict MISS at all (a miss's
        # below-threshold fallback yields the pure id, yet whether it stays
        # below threshold depends on what entities exist — a later append
        # can flip it). Invalidate shards whose manifest records
        # n_unsafe > 0 (or pre-upgrade manifests lacking the counter);
        # everything else keeps its committed outputs, so a streaming
        # append relinks O(delta) shards, not O(corpus) — incremental ≡
        # one-shot is preserved exactly (test_stream). The marker commits
        # LAST: a crash before it re-runs this whole block on resume.
        for done_part in man3.completed_parts():
            meta = man3.load(done_part) or {}
            if meta.get("n_unsafe") != 0:
                man3.invalidate(done_part)
        open(mapping_marker, "w").write(ext_fp)
    map_files = sorted(glob.glob(os.path.join(mapping_dir, "*.parquet")))
    shard_actors: list = []
    if link_shards:
        # sharded index artifact lives next to the mapping; rebuilt whenever
        # the mapping was rebuilt or the shard count changed
        index_dir = os.path.join(out_dir, "link_index")
        shards_marker = os.path.join(index_dir, "_SHARDS")
        # the marker binds BOTH the shard count and the mapping fingerprint
        # the index was built from: a crash between the mapping commit and
        # the index rebuild (or a shard-count change in between) must not
        # let phase 3 link against a stale index
        want = f"{link_shards}|{ext_fp}"
        index_ok = marker_ok and os.path.exists(shards_marker) and \
            open(shards_marker).read() == want
        if not index_ok:
            write_link_index(rd.read_parquet(mapping_dir), index_dir,
                             link_shards)
            open(shards_marker, "w").write(want)
        shard_actors = make_link_shard_actors(
            index_dir, link_shards, dim=dim, ann=link_ann,
            n_cells=link_ann_cells, n_probe=link_ann_probe)
        linker_cls: type = ShardedEntityLinker
        linker_kwargs: dict = {"shard_handles": shard_actors, "dim": dim,
                               "fuzzy_threshold": fuzzy_threshold}
    else:
        # broadcast regime ⇒ the mapping is driver-sized by definition:
        # plain pyarrow read (local parquet dir), no Ray execution — a
        # rd.read_parquet().to_pandas() here paid ~1.5 s of execution
        # fixed cost per poll just to load a few thousand rows
        if map_files:
            mapping_df = pq.read_table(map_files).to_pandas()
        else:  # all-empty corpus → empty index
            import pandas as pd

            mapping_df = pd.DataFrame({"surface_norm": [], "entity_id": [],
                                       "canonical_name": []})
        index_ref = ray.put(build_link_index(mapping_df, dim=dim))
        linker_cls = EntityLinker
        linker_kwargs = {"index_ref": index_ref, "dim": dim,
                         "fuzzy_threshold": fuzzy_threshold}

    import threading

    _norms_lock = threading.Lock()
    _lazy: dict = {"mapping_norms": None}
    n_map_rows = _rows(map_files)
    # join phase 1's deferred extracted write (it overlapped the mapping
    # rebuild) and commit its manifests — everything from here on reads
    # the extracted files, so they must be durable first
    if p1_finish is not None:
        p1_finish()
    _tick("p2")

    # scan + launch the mention encode now that extracted files are final;
    # on big sessions the thread overlaps phases 3–4 (joined pre-marker)
    m_todo: list[tuple[int, list[str]]] = []
    metrics["skipped_mentions"] = 0
    for part in range(num_parts):
        ext_files = _part_files(out_dir, "extracted", part)
        if not ext_files:
            continue
        if man_m.is_done(part, ext_files) and \
                (man_m.load(part) or {}).get("encoder") == enc_sig:
            metrics["skipped_mentions"] += 1
            continue
        m_todo.append((part, ext_files))
    mentions_fut = None
    _m_pool = None
    if m_todo:
        m_src = (p1_ext if sorted(p for p, _ in m_todo) == p1_ran_parts
                 else None)
        if int(ray.cluster_resources().get("CPU", 8)) >= 16:
            from concurrent.futures import ThreadPoolExecutor as _TPE

            _m_pool = _TPE(max_workers=1)
            mentions_fut = _m_pool.submit(_run_mentions_fused, m_todo,
                                          m_src)
        else:  # small sessions: two concurrent actor pools starve the
            # map/write tasks feeding them (measured) — run serially
            _run_mentions_fused(m_todo, m_src)

    # ---- phase 3: per-shard linking + mention encoding + edge partials --
    p3_todo: list[tuple[int, list[str]]] = []
    for part in range(num_parts):
        ext_files = _part_files(out_dir, "extracted", part)
        if not ext_files:
            continue
        if man3.is_done(part, ext_files):
            metrics["skipped_p3"] += 1
            continue
        p3_todo.append((part, ext_files))

    def _n_unsafe(tr_files: list[str], n_tr: int) -> int:
        """One shard's mapping-dependence counter (the selective phase-3
        skip criterion). Small regime loads only the shard's 4 surface/id
        columns on the driver; either side ≥ UNSAFE_SET_MAX_ENTITIES
        switches to the distributed counter (stages/link.py) — a small
        vocabulary over a huge corpus still means shard-sized triples,
        which the small branch would load as one pandas frame."""
        from ..stages.link import (count_unsafe_links,
                                   count_unsafe_links_distributed)

        if not tr_files:
            return 0
        if (n_map_rows >= UNSAFE_SET_MAX_ENTITIES
                or n_tr >= UNSAFE_SET_MAX_ENTITIES):
            return count_unsafe_links_distributed(tr_files, mapping_dir)
        with _norms_lock:  # load once per run, reuse per part
            if _lazy["mapping_norms"] is None:
                _lazy["mapping_norms"] = set(
                    pq.read_table(map_files, columns=["surface_norm"])
                    ["surface_norm"].to_pylist() if map_files else [])
        return count_unsafe_links(
            pq.read_table(tr_files, columns=["subj", "obj", "subj_id",
                                             "obj_id"]).to_pandas(),
            _lazy["mapping_norms"],
        )

    def _run_p3_fused(todo: list[tuple[int, list[str]]]):
        """Every stale shard's linking in ONE pass: in the driver under
        LOCAL_MAX_ROWS, else one streaming execution triples→link→write
        plus a map-only edge-partials pass. Outputs land partitioned by
        ``part``; manifests commit per shard after all sinks are durable,
        so the O(delta) skip logic and kill-anywhere convergence hold.

        Returns a finisher callable when the triples sink was deferred to
        a thread (join + manifest commit, run pre-marker), else None."""
        t0 = time.time()
        p3_parts = sorted(p for p, _ in todo)
        metrics.setdefault("p3_parts_run", []).extend(p3_parts)
        for part, _ in todo:
            clear_partition_outputs(out_dir, TABLES_P3, part)
        all_ext = sorted(f for _, fs in todo for f in fs)
        n_ext = _rows(all_ext)
        # reuse the extracted rows phase 1 still holds when its run covered
        # exactly these parts (always true on a streaming poll: an extract
        # rewrite invalidates the p3 manifest)
        ext = p1_ext if p3_parts == p1_ran_parts else None
        if local_gate(gate, "p3", n_ext):
            if not isinstance(ext, pa.Table):
                ext = pq.read_table(all_ext)
            linked = add_part_column(
                _map_chunks(linker_cls(**linker_kwargs), triples_table(ext),
                            batch_size), num_parts=num_parts)
            write_parts(linked, out_dir, "triples")
            if linked.num_rows:
                write_parts(materialize.recombine_edge_partials(
                    materialize.partial_edges(linked, extra_cols=("part",)),
                    extra_cols=("part",)), out_dir, "edge_partials")
            _commit_p3(todo, t0)
            return None
        if not isinstance(ext, rd.Dataset):
            ext = rd.read_parquet(all_ext)
        fuse_small = n_ext < FUSE_MATERIALIZE_MAX_ROWS
        linked = ext.map_batches(triples_table, batch_format="pyarrow")
        if fuse_small and linker_cls is EntityLinker:
            # plain tasks under the gate: pool spin-up (~1 s/poll) dwarfs
            # micro-batch linking, and tasks let Ray fuse the whole
            # triples→link→part chain into one operator. Same kernel —
            # link_batch_task caches one EntityLinker per worker process.
            linked = linked.map_batches(
                link_batch_task,
                fn_kwargs=dict(linker_kwargs),
                batch_format="pyarrow",
                batch_size=batch_size,
            )
        else:
            linked = linked.map_batches(
                linker_cls,
                fn_constructor_kwargs=linker_kwargs,
                batch_format="pyarrow",
                batch_size=batch_size,
                concurrency=pool_concurrency,
                # no max_task_retries: ctor arg is an object-store ref —
                # actor pools with max_restarts>0 + object-store ctor args
                # can deadlock restarts (ray#53727); see pipelines/kg.py
            )
        linked = linked.map_batches(add_part_column,
                                    fn_kwargs={"num_parts": num_parts},
                                    batch_format="pyarrow")

        # edge partials are MAP-ONLY over the linked triples: partial rows
        # are mergeable (counts sum, packed provs concatenate — finalize
        # dedups/caps globally), so the stored artifact needs no per-shard
        # finalize exchange at all; phase 4 merges every shard's partials
        # in its one global groupby. A shard with ZERO triples writes no
        # files and simply has no partials dir.
        def _ep_from(src) -> None:
            ep = src.map_batches(
                materialize.partial_edges,
                fn_kwargs={"extra_cols": ("part",)},
                batch_format="pyarrow",
            ).map_batches(
                materialize.recombine_edge_partials,
                fn_kwargs={"extra_cols": ("part",)},
                batch_format="pyarrow", batch_size=1 << 17,
            )
            ep.write_parquet(os.path.join(out_dir, "edge_partials"),
                             partition_cols=["part"],
                             min_rows_per_file=65536)

        if fuse_small:
            # link ONCE, then feed both sinks from the in-memory handle —
            # the written-triples read-back was a pure-fixed-cost second
            # execution per micro-batch poll
            linked_m = linked.materialize()

            def _w_tr() -> None:
                linked_m.write_parquet(os.path.join(out_dir, "triples"),
                                       partition_cols=["part"],
                                       min_rows_per_file=65536)

            def _w_ep() -> None:
                if linked_m.count() == 0:
                    return
                _ep_from(linked_m)

            if int(ray.cluster_resources().get("CPU", 8)) >= 16:
                # phase 4 needs only the edge partials — write triples on
                # a thread that joins right before the final marker, so
                # the triples sink overlaps the whole finalize phase
                from concurrent.futures import ThreadPoolExecutor as _TPE

                _tr_pool = _TPE(max_workers=1)
                tr_fut = _tr_pool.submit(_w_tr)
                _w_ep()

                def _finish() -> None:
                    try:
                        tr_fut.result()
                    finally:
                        _tr_pool.shutdown(wait=False)
                    _commit_p3(todo, t0)

                return _finish
            _w_tr()
            _w_ep()
        else:
            linked.write_parquet(os.path.join(out_dir, "triples"),
                                 partition_cols=["part"],
                                 min_rows_per_file=65536)
            tr_back = sorted(f for part, _ in todo
                             for f in _part_files(out_dir, "triples", part))
            if tr_back:
                _ep_from(rd.read_parquet(tr_back).map_batches(
                    add_part_column, fn_kwargs={"num_parts": num_parts},
                    batch_format="pyarrow"))

        _commit_p3(todo, t0)
        return None

    def _commit_p3(todo: list[tuple[int, list[str]]], t0: float) -> None:
        """Commit LAST, after all of the shard's sinks are durable."""
        wall = round((time.time() - t0) / len(todo), 3)
        for part, ext_files in todo:
            tr_files = _part_files(out_dir, "triples", part)
            n_tr = _rows(tr_files)
            man3.commit(part, ext_files,
                        {"triples_out": n_tr,
                         "n_unsafe": _n_unsafe(tr_files, n_tr),
                         "wall_sec": wall})
            log_event(_LOG, f"p3 link part={part} committed", phase="p3",
                      part=part, triples_out=n_tr, wall_sec=wall,
                      fused=len(todo))

    # p3_finish: non-None when the triples sink was deferred to a thread —
    # it joins the write and THEN commits the p3 manifests, called right
    # before the final marker (a crash in between redoes p3: coarser retry,
    # same convergence, and phase 4 reads only the durable edge partials)
    p3_finish = _run_p3_fused(p3_todo) if p3_todo else None

    for a in shard_actors:  # linking done → free the index actors
        ray.kill(a)

    _tick("p3")
    # ---- phase 4: global finalize (small pre-aggregated inputs) ---------
    final_marker = os.path.join(out_dir, "_FINAL_DONE")
    ep_all = sorted(glob.glob(os.path.join(out_dir, "edge_partials", "part=*", "*.parquet")))
    for tbl in ("edges", "nodes"):
        p = os.path.join(out_dir, tbl)
        if os.path.exists(p):
            shutil.rmtree(p)
    if os.path.exists(final_marker):
        os.remove(final_marker)

    # the stored per-shard artifact is PARTIAL rows (mergeable — see
    # _run_p3_fused); dirs written by pre-fusion versions hold FINALIZED
    # rows ("weight" + prov list) and are converted on read. Sniffed per
    # file so a half-upgraded out_dir keeps working.
    n_ep_rows = 0
    legacy, partials = [], []
    for f in ep_all:
        md = pq.read_metadata(f)
        n_ep_rows += md.num_rows
        names = md.schema.to_arrow_schema().names
        (legacy if "weight" in names else partials).append(f)
    # small regime (micro-batch polls, modest corpora): the 64-bucket
    # sort-shuffle's fixed cost dwarfs the merge, so one vectorized call
    # does the whole finalize (same function: it groups by edge key
    # internally, the bucket column is just ignored). With a broadcast-size
    # mapping both sinks are driver-sized too, so the finalize and both
    # sinks run in the driver: a Ray single task ran the same kernel over
    # the same rows and shipped its output back to the driver anyway. At
    # 4 M all-distinct partial rows the call takes ~2 GB of driver memory
    small = n_ep_rows < EDGE_FINALIZE_SINGLE_TASK_MAX
    if local_gate(gate, "p4", n_ep_rows, limit=EDGE_FINALIZE_SINGLE_TASK_MAX,
                  allowed=n_map_rows < UNSAFE_SET_MAX_ENTITIES):
        sides = []
        if partials:
            sides.append(pq.read_table(partials, columns=EP_SCHEMA.names))
        if legacy:
            sides.append(materialize.finalized_to_partial_rows(
                pq.read_table(legacy)))
        e_dir = os.path.join(out_dir, "edges")
        os.makedirs(e_dir, exist_ok=True)
        # a zero-triple corpus writes no edge file (≡ the Ray sink writing
        # zero files) and contributes no degree rows to the node union
        left = materialize._mapping_row_for_union(
            pq.read_table(map_files) if map_files else
            pa.table({"surface_norm": pa.array([], pa.string()),
                      "entity_id": pa.array([], pa.string()),
                      "canonical_name": pa.array([], pa.string()),
                      "n_mentions": pa.array([], pa.int64()),
                      "aliases": pa.array([], pa.list_(pa.string()))}))
        unioned = left
        if n_ep_rows:
            edges_tbl = _to_arrow_stripped(materialize._finalize_edges_bucket(
                pa.concat_tables(sides).to_pandas()))
            pq.write_table(materialize.prov_to_struct(edges_tbl),
                           os.path.join(e_dir, "part-0.parquet"))
            unioned = pa.concat_tables([left, materialize._degree_row_for_union(
                materialize.partial_degrees(edges_tbl))])
        nodes_df = materialize._merge_nodes_bucket(unioned.to_pandas())
        n_dir = os.path.join(out_dir, "nodes")
        os.makedirs(n_dir, exist_ok=True)
        if len(nodes_df.columns):  # all-empty corpus → colless df → the
            # Ray sink would write zero files; mirror that
            pq.write_table(pa.Table.from_pandas(nodes_df,
                                                preserve_index=False),
                           os.path.join(n_dir, "part-0.parquet"))
    else:
        sides = []
        if partials:
            sides.append(rd.read_parquet(partials, columns=EP_SCHEMA.names))
        if legacy:
            sides.append(rd.read_parquet(legacy).map_batches(
                materialize.finalized_to_partial_rows,
                batch_format="pyarrow"))
        if sides:
            ep = sides[0] if len(sides) == 1 else sides[0].union(sides[1])
        else:  # zero triples corpus-wide → empty partial-row table
            ep = rd.from_arrow(EP_SCHEMA.empty_table())
        if small:  # only with a mapping past the broadcast size
            edges = ep.repartition(1).map_batches(
                materialize._finalize_edges_bucket, batch_format="pandas",
                batch_size=None,
            ).materialize()
        else:
            edges = ep.groupby("bucket").map_groups(
                materialize._finalize_edges_bucket, batch_format="pandas"
            ).materialize()

        def _w_edges() -> None:
            edges.map_batches(
                materialize.prov_to_struct, batch_format="pyarrow"
            ).write_parquet(os.path.join(out_dir, "edges"))

        def _w_nodes() -> None:
            degree_partials = edges.map_batches(
                materialize.partial_degrees, batch_format="pyarrow"
            )
            mapping = rd.read_parquet(mapping_dir)
            materialize.nodes_with_degree(
                mapping, degree_partials, single_task=small
            ).write_parquet(os.path.join(out_dir, "nodes"))

        # both sinks consume the MATERIALIZED edges — overlap them; the
        # final marker commits only after both are durable
        if int(ray.cluster_resources().get("CPU", 8)) >= 16:
            _join_all([_w_edges, _w_nodes])
        else:
            _w_edges()
            _w_nodes()
    # join every deferred sink, THEN commit p3 manifests, THEN the marker:
    # _FINAL_DONE must imply every table (mentions + triples included)
    # durable and every manifest committed
    if mentions_fut is not None:
        try:
            mentions_fut.result()
        finally:
            _m_pool.shutdown(wait=False)
    if p3_finish is not None:
        p3_finish()
    open(final_marker, "w").write("ok")

    _tick("p4")
    metrics["phase_wall"] = _tw
    metrics["p1_parts"] = man1.completed_parts()
    metrics["p3_parts"] = man3.completed_parts()
    return metrics
