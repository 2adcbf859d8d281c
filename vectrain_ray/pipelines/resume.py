"""Resumable, partitioned KG pipeline — the checkpoint/exact-resume driver
of the one KG dataflow in pipelines/phases.py (kg.run_kg is the in-memory
driver of the same functions).

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

Two execution modes of one dataflow. Phase 1, the mention encode, phase 3
and StreamDriver's shard append compare their input rows with
LOCAL_MAX_ROWS; phases 2 and 4, whose inputs are pre-aggregated partials,
compare theirs with EDGE_FINALIZE_SINGLE_TASK_MAX (and phase 4 also needs
a broadcast-size mapping). The gate only chooses how a phase reads its
input: under it as a pyarrow table (``pq.read_table``), so phases.py's
functions run in the driver and ``write_parts`` writes each part=K output
with pq.write_table; at or above it as a Dataset (``rd.read_parquet``),
so the same functions, the ones run_kg chains, run as Ray Data
executions, with the overlapped sinks on ``phases.background`` threads.
Manifests, fingerprints, n_unsafe invalidation, the mapping marker and the
commit-last order are the same on both sides. Each decision is logged
(``gate=<phase>, path="local"|"ray", rows=…``) and returned in
``metrics["gate"]``. At the default gates a micro-batch poll runs wholly in
the driver while the shards it touches hold under ~110 k turns (extraction
yields ~2.3 rows per turn); so does a cold ingest of up to ~110 k turns.
Larger inputs and batch builds take the Ray path phase by phase as each
phase's input crosses its gate.

At 100 TB: P = O(cluster size × few); phases 1/3 are embarrassingly parallel
per shard (each shard itself a streaming Ray Data pipeline); phases 2/4 only
touch pre-aggregated small tables — and per-poll cost tracks the delta, not
the corpus.
"""

from __future__ import annotations

import functools
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

from . import phases
from ..functions.dedup_exact import dedup_exact, exchange, map_chunks
from ..logs import log_event
from ..schema import EDGE_PARTIAL_SCHEMA, MAPPING_SCHEMA
from ..stages import canonicalize, materialize
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
# triples + edge partials) from the in-memory handle, instead
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


def write_parts(data, out_dir: str, table: str, name: str = LOCAL_FILE,
                min_rows: int = 65536, **ray_args) -> None:
    """``data`` under ``out_dir/table/part=K/``, without its part column.
    A pyarrow table is written as one file ``name`` per part present in it
    (a part with no rows gets no file, as on the Ray sink); a Dataset with
    one partitioned write_parquet of ``min_rows`` rows per file and the
    other ``ray_args`` (a ``filename_provider``)."""
    if not isinstance(data, pa.Table):
        data.write_parquet(os.path.join(out_dir, table),
                           partition_cols=["part"], min_rows_per_file=min_rows,
                           **ray_args)
        return
    for part in sorted(pc.unique(data["part"]).to_pylist()):
        d = partition_output_dir(out_dir, table, part)
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            data.filter(pc.equal(data["part"], part)).drop_columns(["part"]),
            os.path.join(d, name))


def write_table(data, path: str, name: str = LOCAL_FILE) -> None:
    """A flat table's sink: a pyarrow table as the one file ``name`` under
    ``path`` (none for an empty table, as the Ray sink writes none), a
    Dataset with write_parquet."""
    if not isinstance(data, pa.Table):
        data.write_parquet(path)
    elif data.num_rows:
        os.makedirs(path, exist_ok=True)
        pq.write_table(data, os.path.join(path, name))


def _read(files, local: bool, held=None, empty: pa.Table | None = None,
          **kwargs):
    """``files`` as a pyarrow table when ``local``, else as a Dataset:
    ``held`` when it already holds them in that form, ``empty`` when there
    are no files."""
    if isinstance(held, pa.Table if local else rd.Dataset):
        return held
    if not files and empty is not None:
        return empty if local else rd.from_arrow(empty)
    return (pq.read_table if local else rd.read_parquet)(files, **kwargs)


def _rows(files: list[str]) -> int:
    return sum(pq.read_metadata(f).num_rows for f in files)


def _part_files(out_dir: str, table: str, part: int) -> list[str]:
    return sorted(glob.glob(os.path.join(
        partition_output_dir(out_dir, table, part), "*.parquet")))


def _shard(input_path: str, out_dir: str, num_parts: int,
           source_kind: str = "parquet") -> str:
    shards = os.path.join(out_dir, "shards")
    marker = os.path.join(shards, "_DONE")
    if os.path.exists(marker):
        return shards
    if source_kind == "parquet":
        ds = rd.read_parquet(input_path, columns=phases.COLS)
    else:  # registry dispatch (SourceSpec.kind), then prune columns
        from ..sources.readers import get_reader

        ds = get_reader(source_kind)(input_path).select_columns(phases.COLS)

    write_parts(phases.with_parts(ds, num_parts), out_dir, "shards",
                min_rows=1 << 19)
    open(marker, "w").write("ok")
    return shards


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
            phases.surface_partials(rd.read_parquet(ext)).write_parquet(tmp)
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
    link_shards: int = 0,
    encoder_kind: str = "hashing",
    encoder_kwargs: dict | None = None,
    fuzzy_threshold: float = 0.85,
    link_ann: str = "exact",
    link_ann_cells: int = 64,
    link_ann_probe: int | None = None,
    source_kind: str = "parquet",
) -> dict:
    """Run (or resume) the partitioned pipeline. ``fail_after_phase1_parts``
    injects a crash after N phase-1 manifests commit (kill-point testing
    only) — inside the commit every phase-1 path shares.

    Phases 1 and 3 run FUSED: every stale shard goes through ONE pass per
    phase (in the driver under LOCAL_MAX_ROWS, else one Ray Data
    execution; a pipeline per shard paid ~1-2 s of fixed cost per shard
    per phase)."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    # below 16 CPUs concurrent executions starve each other's map and write
    # tasks (measured), so only larger sessions overlap the Ray path's sinks
    overlap = cpus >= 16
    os.makedirs(out_dir, exist_ok=True)
    man1 = PartitionManifest(os.path.join(out_dir, "p1_extract"))
    man_m = PartitionManifest(os.path.join(out_dir, "p2_mentions"))
    man3 = PartitionManifest(os.path.join(out_dir, "p3_link"))
    gate: dict = {}
    metrics: dict = {"skipped_p1": 0, "skipped_p3": 0, "gate": gate}

    clock = phases.PhaseClock()
    shards = _shard(input_path, out_dir, num_parts, source_kind)
    clock.lap("shard")

    def _todo(table: str, man: PartitionManifest, skipped: str,
              also_done=lambda part: True) -> list[tuple[int, list[str]]]:
        """(part, files) of every part of ``table`` whose ``man`` manifest
        is stale; the others are counted in ``metrics[skipped]``."""
        todo = []
        metrics[skipped] = 0
        for part in range(num_parts):
            files = _part_files(out_dir, table, part)
            if files and man.is_done(part, files) and also_done(part):
                metrics[skipped] += 1
            elif files:
                todo.append((part, files))
        return todo

    # ---- phase 1: per-shard extraction ----------------------------------
    p1_todo = _todo("shards", man1, "skipped_p1")

    def _run_p1(todo: list[tuple[int, list[str]]]):
        """Every stale shard in ONE pass; rows land partitioned by ``part``
        (vectorized crc on conv_id), so per-shard outputs, manifests and
        the O(delta) skip logic are unchanged, and a crash before the
        commits makes the next run redo exactly these shards. Under
        FUSE_MATERIALIZE_MAX_ROWS (always on the local path) the extract
        chain runs ONCE and both sinks consume its output (on Ray, write →
        read-back → second execution cost ~3 s per micro-batch poll).
        Returns ``(extracted, finisher)``: the extracted rows (a pyarrow
        table on the local path, a materialized Dataset under the fuse
        gate, else None) for phases 1.7 and 3 to reuse, and a finisher
        when the extracted sink was deferred to a background thread."""
        t0 = time.time()
        for part, _ in todo:
            clear_partition_outputs(out_dir, TABLES_P1, part)
        all_files = sorted(f for _, fs in todo for f in fs)
        n_in = _rows(all_files)
        local = local_gate(gate, "p1", n_in)
        # global bucketed dedup ≡ the old per-shard dedup: conv_id
        # determines part, so (conv_id, turn_idx) groups never span shards.
        # pre_batch sized so the post-shuffle operator (which Ray fuses the
        # EXTRACTION into) gets ≥ ~2×CPUs blocks — a micro-batch that
        # collapsed to one sort partition ran the whole extract serially
        target = max(8192, min(65536, n_in // (2 * cpus) or 1))
        src = dedup_exact(
            pq.read_table(all_files, columns=phases.COLS) if local
            else rd.read_parquet(all_files),
            ["conv_id", "turn_idx"], sort_within=["text"], pre_batch=target)
        if not local:
            # re-block after the dedup exchange: Ray fuses the extraction
            # into the post-sort operator AND bundles write-task inputs up
            # to the write's min_rows_per_file — on a micro-batch both
            # collapse the whole extract chain into ONE serial task
            # (measured 6-9 s for work that takes ~1.5 s at 32-way).
            # Streaming repartition + a block-sized file floor keep task
            # granularity ≈ 2×CPUs.
            src = src.repartition(target_num_rows_per_block=target)
        ext = phases.extract(src, batch_size, num_parts)

        def _w_sp(src) -> None:
            # every todo shard's surface partials in one pass, keyed per
            # shard by the part column
            write_parts(phases.surface_partials(src, num_parts), out_dir,
                        "surface_partials")

        # phase 2 needs only the surface partials: with ``overlap`` the
        # extracted sink joins (with the manifest commit) right after phase
        # 2, so it overlaps the mapping rebuild
        return _sinks(todo, ext, "extracted", _w_sp,
                      lambda: _commit_p1(todo, t0),
                      fuse=local or n_in < FUSE_MATERIALIZE_MAX_ROWS,
                      min_rows=target)

    def _sinks(todo, rows, table: str, second, commit, fuse: bool,
               **write_args):
        """Both sinks of phase 1 or 3: ``rows`` into its own ``table``,
        then ``second`` over the same rows, skipped with none (its dir
        stays absent), then ``commit``. With ``fuse`` ``rows`` is computed
        once for both, and on Ray with ``overlap`` the first sink runs in
        the background: the finisher returned joins it and commits.
        Without, the first sink streams and ``second`` reads its files
        back. Returns (the computed rows or None, the finisher or None)."""
        if not fuse:
            write_parts(rows, out_dir, table, **write_args)
            back = sorted(f for part, _ in todo
                          for f in _part_files(out_dir, table, part))
            if back:
                second(rd.read_parquet(back))
            commit()
            return None, None
        rows = phases.pin(rows)
        first = functools.partial(write_parts, rows, out_dir, table,
                                  **write_args)
        join = (phases.background(first)
                if overlap and isinstance(rows, rd.Dataset) else None)
        if join is None:
            first()
        if phases.num_rows(rows):
            second(rows)
        if join is not None:
            return rows, lambda: (join(), commit())
        commit()
        return rows, None

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

    clock.lap("p1")
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
        ext = _read(all_ext, local_gate(gate, "mentions", n_ext), held=src)
        write_parts(phases.mentions(ext, batch_size, num_parts,
                                    **enc_kwargs), out_dir, "mentions")
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
        n_sp_rows = _rows(sp_all)
        if os.path.exists(mapping_dir):
            shutil.rmtree(mapping_dir)
        os.makedirs(mapping_dir)
        local = local_gate(gate, "p2", n_sp_rows,
                           limit=EDGE_FINALIZE_SINGLE_TASK_MAX)
        # An all-empty corpus (every turn filtered) has no partials at all:
        # the mapping is built from the partials of no surface forms (the
        # local path then writes no mapping file).
        no_forms = pa.table({"surface_form": pa.array([], pa.string())})
        partials = (_read(sp_all, local) if sp_all else
                    canonicalize.surface_partials(_read([], local,
                                                        empty=no_forms)))
        write_table(phases.mapping(partials), mapping_dir)
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
    index_dir = None
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
        mapping = None if index_ok else rd.read_parquet(mapping_dir)
    else:
        # broadcast regime ⇒ the mapping is driver-sized by definition:
        # plain pyarrow read (local parquet dir), no Ray execution — a
        # rd.read_parquet().to_pandas() here paid ~1.5 s of execution
        # fixed cost per poll just to load a few thousand rows
        mapping = (pq.read_table(map_files) if map_files
                   else MAPPING_SCHEMA.empty_table())
    linker_cls, linker_kwargs, shard_actors = phases.linker(
        mapping, link_shards, index_dir, dim, fuzzy_threshold, link_ann,
        link_ann_cells, link_ann_probe)
    if link_shards and mapping is not None:
        open(shards_marker, "w").write(want)

    n_map_rows = _rows(map_files)
    # join phase 1's deferred extracted write (it overlapped the mapping
    # rebuild) and commit its manifests — everything from here on reads
    # the extracted files, so they must be durable first
    if p1_finish is not None:
        p1_finish()
    clock.lap("p2")

    # scan + launch the mention encode now that extracted files are final;
    # with ``overlap`` it runs in the background through phases 3–4
    # (joined pre-marker)
    m_todo = _todo("extracted", man_m, "skipped_mentions", lambda part: (
        man_m.load(part) or {}).get("encoder") == enc_sig)
    join_mentions = None
    if m_todo:
        m_src = (p1_ext if sorted(p for p, _ in m_todo) == p1_ran_parts
                 else None)
        if overlap:
            join_mentions = phases.background(
                lambda: _run_mentions_fused(m_todo, m_src))
        else:
            _run_mentions_fused(m_todo, m_src)

    # ---- phase 3: per-shard linking + mention encoding + edge partials --
    p3_todo = _todo("extracted", man3, "skipped_p3")

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
        return count_unsafe_links(
            pq.read_table(tr_files, columns=["subj", "obj", "subj_id",
                                             "obj_id"]).to_pandas(),
            _mapping_norms(),
        )

    @functools.cache
    def _mapping_norms() -> set:  # loaded once per run, reused per part
        return set(pq.read_table(map_files, columns=["surface_norm"])
                   ["surface_norm"].to_pylist() if map_files else [])

    def _run_p3_fused(todo: list[tuple[int, list[str]]]):
        """Every stale shard's linking in ONE pass: in the driver under
        LOCAL_MAX_ROWS, else one streaming execution triples→link→write
        plus a map-only edge-partials pass. Outputs land partitioned by
        ``part``; manifests commit per shard after all sinks are durable,
        so the O(delta) skip logic and kill-anywhere convergence hold.

        Returns a finisher callable when the triples sink was deferred to
        a background thread (join + manifest commit, run pre-marker), else
        None."""
        t0 = time.time()
        p3_parts = sorted(p for p, _ in todo)
        metrics.setdefault("p3_parts_run", []).extend(p3_parts)
        for part, _ in todo:
            clear_partition_outputs(out_dir, TABLES_P3, part)
        all_ext = sorted(f for _, fs in todo for f in fs)
        n_ext = _rows(all_ext)
        local = local_gate(gate, "p3", n_ext)
        # reuse the extracted rows phase 1 still holds when its run covered
        # exactly these parts (always true on a streaming poll: an extract
        # rewrite invalidates the p3 manifest)
        ext = _read(all_ext, local,
                    held=p1_ext if p3_parts == p1_ran_parts else None)
        fuse_small = n_ext < FUSE_MATERIALIZE_MAX_ROWS
        # plain tasks let Ray fuse the whole triples→link→part chain into
        # one operator
        linked = phases.link(ext, linker_cls, linker_kwargs, batch_size,
                             num_parts=num_parts)

        # the stored edge partials need no per-shard finalize exchange at
        # all; phase 4 merges every shard's partials in its one global
        # groupby. A shard with ZERO triples writes no files and simply has
        # no partials dir.
        def _ep_from(src) -> None:
            # read-back triples get their part column back first
            write_parts(phases.edge_partials(
                src if fuse_small else phases.with_parts(src, num_parts),
                num_parts), out_dir, "edge_partials")

        # under the fuse gate link ONCE, then feed both sinks from its
        # output — on Ray the written-triples read-back was a
        # pure-fixed-cost second execution per micro-batch poll. Phase 4
        # needs only the edge partials: with ``overlap`` the triples sink
        # joins right before the final marker, so it overlaps the whole
        # finalize phase
        return _sinks(todo, linked, "triples", _ep_from,
                      lambda: _commit_p3(todo, t0),
                      fuse=local or fuse_small)[1]

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

    # p3_finish: non-None when the triples sink was deferred —
    # it joins the write and THEN commits the p3 manifests, called right
    # before the final marker (a crash in between redoes p3: coarser retry,
    # same convergence, and phase 4 reads only the durable edge partials)
    p3_finish = _run_p3_fused(p3_todo) if p3_todo else None

    for a in shard_actors:  # linking done → free the index actors
        ray.kill(a)

    clock.lap("p3")
    # ---- phase 4: global finalize (small pre-aggregated inputs) ---------
    final_marker = os.path.join(out_dir, "_FINAL_DONE")
    ep_all = sorted(glob.glob(os.path.join(out_dir, "edge_partials", "part=*", "*.parquet")))
    for tbl in ("edges", "nodes"):
        shutil.rmtree(os.path.join(out_dir, tbl), ignore_errors=True)
        os.makedirs(os.path.join(out_dir, tbl))
    if os.path.exists(final_marker):
        os.remove(final_marker)

    # the stored per-shard artifact is PARTIAL rows (mergeable — see
    # _run_p3_fused)
    n_ep_rows = _rows(ep_all)
    # small regime (micro-batch polls, modest corpora): the 64-bucket
    # sort-shuffle's fixed cost dwarfs the merge, so one vectorized call
    # does the whole finalize (same function: it groups by edge key
    # internally, the bucket column is just ignored). With a broadcast-size
    # mapping both sinks are driver-sized too, so the finalize and both
    # sinks run in the driver: a Ray single task ran the same kernel over
    # the same rows and shipped its output back to the driver anyway. At
    # 4 M all-distinct partial rows the call takes ~2 GB of driver memory
    small = n_ep_rows < EDGE_FINALIZE_SINGLE_TASK_MAX
    local = local_gate(gate, "p4", n_ep_rows,
                       limit=EDGE_FINALIZE_SINGLE_TASK_MAX,
                       allowed=n_map_rows < UNSAFE_SET_MAX_ENTITIES)
    # zero triples corpus-wide → empty partial-row table
    ep = _read(ep_all, local, columns=EDGE_PARTIAL_SCHEMA.names,
               empty=EDGE_PARTIAL_SCHEMA.empty_table())
    if small and not local:  # only with a mapping past the broadcast size
        edges = map_chunks(materialize._finalize_edges_bucket,
                           ep.repartition(1))
    else:
        edges = exchange(ep, materialize._finalize_edges_bucket,
                         batch_format="pyarrow")
    edges_out, nodes = phases.finalize(
        phases.pin(edges),
        _read(map_files if local else mapping_dir, local,
              empty=MAPPING_SCHEMA.empty_table()), small)
    # both sinks consume the pinned edges; the final marker commits only
    # after both are durable
    sinks = [functools.partial(write_table, t, os.path.join(out_dir, tbl),
                               "part-0.parquet")
             for tbl, t in (("edges", edges_out), ("nodes", nodes))]
    if overlap and not local:
        phases.background(*sinks)()
    else:
        for sink in sinks:
            sink()
    # join every deferred sink, THEN commit p3 manifests, THEN the marker:
    # _FINAL_DONE must imply every table (mentions + triples included)
    # durable and every manifest committed
    if join_mentions is not None:
        join_mentions()
    if p3_finish is not None:
        p3_finish()
    open(final_marker, "w").write("ok")

    clock.lap("p4")
    metrics["phase_wall"] = clock.walls
    metrics["p1_parts"] = man1.completed_parts()
    metrics["p3_parts"] = man3.completed_parts()
    return metrics
