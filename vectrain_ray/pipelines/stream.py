"""Unbounded micro-batch ingestion — the reference's continuous source loop.

The reference's defining behavior is a poll loop over Kafka from
OffsetBeginning with per-item offset bookkeeping (internal/app/sources/
kafka/client.go:49-92, fetch_messages.go:45-84; consume loop
internal/app/pipeline/pipeline.go:147-180). Recast for Ray Data's
batch-oriented execution as a micro-batch driver:

- the "topic" is a landing DIRECTORY of parquet files (each file = a batch
  of messages; the Kafka-partition analogue of the bench corpus layout);
- the "offset store" is ``stream_offsets.json`` + the resumable runner's
  per-shard manifests: a landing file is processed EXACTLY ONCE even across
  crashes, because (a) its rows are sharded into ``shards/part=K/`` under
  deterministic filenames derived from the source path (a retried append
  REPLACES its own partial output, never duplicates it), and (b) the
  downstream phases are manifest-gated on the shard file lists, so only
  shards whose contents changed re-extract/re-link (pipelines/resume.py);
- backpressure is inherent: one micro-batch pipeline runs at a time, and
  within it the streaming executor bounds memory.

``StreamDriver.run(max_iterations=..., idle_stop_after=...)`` is the
continuous loop (bounded stop conditions exist for tests; the reference
loops forever until a stop signal — run() with no bounds does too, and a
KeyboardInterrupt/stop file plays the role of D3's stop gate).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import time

import logging

import pyarrow.parquet as pq
import ray.data as rd

from ..logs import log_event
from .phases import COLS, with_parts
from .resume import local_gate, run_kg_resumable, write_parts

_LOG = logging.getLogger("vectrain_ray.stream")


class StreamDriver:
    """Micro-batch watch loop: landing dir → exactly-once KG updates."""

    def __init__(self, input_dir: str, out_dir: str, num_parts: int = 8,
                 poll_sec: float = 2.0, vector_store: dict | None = None,
                 **resume_kwargs):
        self.input_dir = input_dir
        self.out_dir = out_dir
        self.num_parts = num_parts
        self.poll_sec = poll_sec
        self.vector_store = vector_store
        self.resume_kwargs = resume_kwargs
        self.shards_dir = os.path.join(out_dir, "shards")
        self.offsets_path = os.path.join(out_dir, "stream_offsets.json")
        self._pending_path = os.path.join(out_dir, "stream_pending_batch.json")
        # this poll's shard-append gate decision (resume.local_gate)
        self._gate: dict = {}
        os.makedirs(self.shards_dir, exist_ok=True)
        # the stream driver owns the shard layout: mark it so the resumable
        # runner's one-shot _shard() never re-shards over it
        marker = os.path.join(self.shards_dir, "_DONE")
        if not os.path.exists(marker):
            open(marker, "w").write("stream")

    # --- offset store ----------------------------------------------------
    def _load_offsets(self) -> dict:
        if os.path.exists(self.offsets_path):
            return json.load(open(self.offsets_path))
        return {}

    def _commit_offsets(self, offsets: dict) -> None:
        tmp = self.offsets_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(offsets, f)
        os.replace(tmp, self.offsets_path)  # atomic commit, Kafka-style

    # --- idempotent shard append -----------------------------------------
    @staticmethod
    def _batch_tag(paths: list[str]) -> str:
        """Deterministic tag for a batch of landing files. For a single
        file this equals the legacy per-file tag (md5 of its abspath), so
        outputs written by older per-file appends are replaced by the same
        delete-before-write rule."""
        key = "|".join(sorted(os.path.abspath(p) for p in paths))
        return hashlib.md5(key.encode()).hexdigest()[:16]

    def _delete_tagged(self, tags: set[str]) -> None:
        for tag in tags:
            for old in glob.glob(os.path.join(
                    self.shards_dir, "part=*", f"src{tag}_*.parquet")):
                os.remove(old)

    def _recover_pending_batch(self) -> None:
        """Crash recovery for the fused batch append. The intent journal
        names the batch tag + file list written BEFORE the parquet write;
        it is removed only after the batch's offsets commit. On entry:
        journal present + every journal file committed ⇒ the crash hit
        after the offset commit — the data is live, just drop the journal;
        otherwise the write (or its offset commit) died ⇒ delete the batch
        tag's files (orphans a later differently-composed batch would
        otherwise duplicate) and let the caller re-append."""
        if not os.path.exists(self._pending_path):
            return
        try:
            rec = json.load(open(self._pending_path))
        except (json.JSONDecodeError, OSError):
            rec = None
        if rec is not None:
            offsets = self._load_offsets()
            if not all(f in offsets for f in rec.get("files", [])):
                self._delete_tagged({rec["tag"]})
        os.remove(self._pending_path)

    def _append_files(self, paths: list[str]) -> int:
        """Shard a BATCH of landing files into shards/part=K/ in ONE pass
        (per-file appends paid one Ray execution per file and wrote one
        file per part per input block — the resulting tiny-file explosion
        dominated every downstream read; r4 verdict item 1). Filenames
        carry the batch tag, so a retry after a crash REPLACES its own
        partial output (journal protocol in _recover_pending_batch).
        Returns {path: rows}. Caller commits offsets for all ``paths``
        after this returns, then calls _commit_batch()."""
        tag = self._batch_tag(paths)
        # per-file tags cover re-appends of files first ingested alone or
        # in a previously differently-composed (crashed) batch
        self._delete_tagged({self._batch_tag([p]) for p in paths} | {tag})
        tmp = self._pending_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"tag": tag,
                       "files": sorted(os.path.abspath(p) for p in paths)},
                      f)
        os.replace(tmp, self._pending_path)
        rows_by_file = {p: pq.read_metadata(p).num_rows for p in paths}
        self._write_shards(paths, tag, sum(rows_by_file.values()))
        return rows_by_file

    def _write_shards(self, paths: list[str], tag: str, rows: int) -> None:
        """Write the landing rows of ``paths`` into shards/part=K/ as
        ``src<tag>_*`` files: in the driver under resume.LOCAL_MAX_ROWS,
        else as one Ray execution."""
        read = (pq.read_table if local_gate(self._gate, "shard", rows)
                else rd.read_parquet)
        write_parts(with_parts(read(sorted(paths), columns=COLS),
                               self.num_parts),
                    self.out_dir, "shards", f"src{tag}_local.parquet",
                    # coalesce: micro-batches must not shatter into
                    # per-block-per-part tiny files
                    min_rows=1 << 20,
                    filename_provider=_SrcFilenameProvider(tag))

    def _commit_batch(self) -> None:
        try:
            os.remove(self._pending_path)
        except FileNotFoundError:
            pass

    def _append_file(self, path: str) -> int:
        """Single-file append (kept for the crash-window tests and manual
        repair): a batch of one, WITHOUT the journal — its idempotency is
        the legacy per-file delete-before-write."""
        tag = self._batch_tag([path])
        self._delete_tagged({tag})
        rows = pq.read_metadata(path).num_rows
        self._write_shards([path], tag, rows)
        return rows

    # --- the poll loop ----------------------------------------------------
    def poll_once(self) -> dict:
        """One micro-batch: ingest NEW landing files (exactly-once), then
        run the manifest-gated phases. A poll is a pure no-op only when the
        PIPELINE has completed over exactly the current file set — a stale
        ``_FINAL_DONE`` from an earlier poll does NOT mask files that were
        ingested but whose pipeline run crashed (the ``__completed__``
        marker commits only after a successful run)."""
        self._recover_pending_batch()  # crashed fused append, if any
        self._gate = {}
        offsets = self._load_offsets()
        files = sorted(glob.glob(os.path.join(self.input_dir, "*.parquet")))
        if not files and not offsets:
            # nothing has EVER landed → idle (don't run the pipeline over an
            # empty shard layout — read_parquet([]) raises). When offsets
            # exist but the landing dir was emptied (retention), fall
            # through: previously-sharded rows may still need processing.
            return {"new_files": 0, "rows_in": 0, "ran_pipeline": False}
        new = [f for f in files if f not in offsets]
        rows_in = 0
        if new:
            # ONE fused append execution for the whole batch; offsets for
            # every file commit together afterwards (append is idempotent
            # via the batch-tag journal → a crash anywhere in the window
            # stays exactly-once)
            rows_by_file = self._append_files(new)
            rows_in = sum(rows_by_file.values())
            cur = self._load_offsets()
            now = time.time()
            for f in new:
                cur[f] = {"rows": rows_by_file[f], "ingested_at": now}
            self._commit_offsets(cur)
            self._commit_batch()
            offsets = cur
        up_to_date = (
            not new
            and offsets.get("__completed__") == files
            and os.path.exists(os.path.join(self.out_dir, "_FINAL_DONE"))
        )
        if up_to_date:
            return {"new_files": 0, "rows_in": 0, "ran_pipeline": False}
        metrics = run_kg_resumable(
            self.input_dir, self.out_dir, num_parts=self.num_parts,
            **self.resume_kwargs,
        )
        if self.vector_store:
            vectors_pushed = self._push_vectors_delta()
        offsets = self._load_offsets()
        offsets["__completed__"] = files  # commit LAST: pipeline succeeded
        self._commit_offsets(offsets)
        metrics.update({"new_files": len(new), "rows_in": rows_in,
                        "ran_pipeline": True,
                        "gate": {**self._gate, **metrics["gate"]}})
        if self.vector_store:
            metrics["vectors_pushed"] = vectors_pushed
        log_event(_LOG, f"poll ingested {len(new)} files ({rows_in} rows)",
                  new_files=len(new), rows_in=rows_in,
                  skipped_p1=metrics.get("skipped_p1"),
                  skipped_p3=metrics.get("skipped_p3"))
        return metrics

    def _push_vectors_delta(self) -> int:
        """The embed→store tail per micro-batch, O(delta): push ONLY the
        mention partitions whose files changed since the last successful
        push. Change detection is a durable per-partition file fingerprint
        (name+size+mtime_ns, like the manifests) committed AFTER the push
        — a crash mid-push leaves stale fingerprints, so the next poll
        re-pushes those partitions; upserts are idempotent (deterministic
        point ids), so replays only overwrite. Pushes never DELETE points;
        neither did the full re-push this replaces (external stores need a
        separate retention sweep for mentions that vanish on re-send)."""
        import glob as _glob

        from ..stages.vector_store import push_mentions

        state_path = os.path.join(self.out_dir, "_vector_push_state.json")
        state = (json.load(open(state_path))
                 if os.path.exists(state_path) else {})

        def fp(part_dir: str) -> list:
            return [[os.path.basename(f), os.stat(f).st_size,
                     os.stat(f).st_mtime_ns]
                    for f in sorted(_glob.glob(
                        os.path.join(part_dir, "*.parquet")))]

        part_dirs = sorted(_glob.glob(
            os.path.join(self.out_dir, "mentions", "part=*")))
        changed, fresh = [], {}
        for d in part_dirs:
            key = os.path.basename(d)
            fresh[key] = fp(d)
            if state.get(key) != fresh[key]:
                changed.append(int(key.split("=")[1]))
        if not changed:
            return 0
        n = push_mentions(self.out_dir, self.vector_store,
                          parts=sorted(changed))
        state.update(fresh)
        tmp = state_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(state, f)
        os.replace(tmp, state_path)  # commit AFTER the push succeeded
        return n

    def run(self, max_iterations: int | None = None,
            idle_stop_after: int | None = None,
            stop_event=None, on_poll=None) -> list[dict]:
        """Continuous loop. ``max_iterations`` bounds total polls;
        ``idle_stop_after`` stops after N consecutive empty polls (both for
        tests/drain — omit both to run forever like the reference loop).
        ``stop_event``: a threading.Event the control plane sets to stop
        GRACEFULLY — checked only BETWEEN micro-batches, so the in-flight
        batch commits its manifests first (the reference's pipeline.Stop +
        tail flush, internal/app/pipeline/pipeline.go:193-209; lossless here
        because every phase is manifest-gated). ``on_poll(metrics)`` fires
        after every poll — the control plane's live progress hook."""
        history: list[dict] = []
        idle = 0
        it = 0
        while True:
            if stop_event is not None and stop_event.is_set():
                return history
            m = self.poll_once()
            history.append(m)
            if on_poll is not None:
                on_poll(m)
            idle = idle + 1 if m["new_files"] == 0 else 0
            it += 1
            if max_iterations is not None and it >= max_iterations:
                return history
            if idle_stop_after is not None and idle >= idle_stop_after:
                return history
            # wait() instead of sleep(): a stop request interrupts the idle
            # wait immediately instead of after poll_sec
            if stop_event is not None:
                if stop_event.wait(self.poll_sec):
                    return history
            else:
                time.sleep(self.poll_sec)


class _SrcFilenameProvider:
    """Per-source-file names src<tag>_<uuid>_<task>_<block>.parquet: the
    deterministic src<tag>_ PREFIX is what makes retries idempotent (the
    appender deletes src<tag>_* before rewriting); the write_uuid suffix is
    required by Ray's parquet datasink."""

    def __init__(self, tag: str):
        self.tag = tag

    def get_filename_for_block(self, block, write_uuid, task_index,
                               block_index) -> str:
        return (f"src{self.tag}_{write_uuid}_{task_index:06}_"
                f"{block_index:06}.parquet")
