"""Micro-batch streaming ingestion (pipelines/stream.py) — the reference's
unbounded Kafka poll loop recast (kafka/client.go:49-92).

Done-criterion from VERDICT r1 item 6: append files between two driver
iterations → union of outputs identical to a one-shot run, no dupes."""

from __future__ import annotations

import collections
import glob
import os

import pandas as pd
import pytest
import pyarrow.parquet as pq

from vectrain_ray.pipelines.resume import run_kg_resumable
from vectrain_ray.pipelines.stream import StreamDriver
from vectrain_ray.stages.materialize import PROV_CAP
from vectrain_ray.synth import write_transcripts


def _read_sorted(out_dir: str, tbl: str) -> pd.DataFrame:
    df = pq.read_table(os.path.join(out_dir, tbl)).to_pandas()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def test_incremental_equals_oneshot_no_dupes(tmp_path):
    landing = str(tmp_path / "landing")
    # batch 1: files 0-1; batch 2 (arrives later): files 2-3
    write_transcripts(landing, num_convs=24, turns_per_conv=6, seed=21,
                      num_files=4)
    all_files = sorted(glob.glob(os.path.join(landing, "*.parquet")))
    assert len(all_files) == 4
    late = all_files[2:]
    hidden = str(tmp_path / "hidden")
    os.makedirs(hidden)
    moved = []
    for f in late:
        dst = os.path.join(hidden, os.path.basename(f))
        os.rename(f, dst)
        moved.append((dst, f))

    out_stream = str(tmp_path / "out_stream")
    drv = StreamDriver(landing, out_stream, num_parts=4, poll_sec=0.01)
    m1 = drv.poll_once()
    assert m1["new_files"] == 2 and m1["ran_pipeline"]

    # files appear mid-stream → second poll ingests ONLY them
    for src, dst in moved:
        os.rename(src, dst)
    m2 = drv.poll_once()
    assert m2["new_files"] == 2 and m2["ran_pipeline"]

    # one-shot reference over the SAME 4 files
    out_once = str(tmp_path / "out_once")
    run_kg_resumable(landing, out_once, num_parts=4)

    for tbl in ("edges", "nodes", "triples", "mentions"):
        a, b = _read_sorted(out_stream, tbl), _read_sorted(out_once, tbl)
        pd.testing.assert_frame_equal(a, b, obj=tbl)
    # no dupes: mention ids unique
    men = _read_sorted(out_stream, "mentions")
    assert men["mention_id"].is_unique

    # idle poll: pure no-op
    m3 = drv.poll_once()
    assert m3 == {"new_files": 0, "rows_in": 0, "ran_pipeline": False}


def test_crash_between_append_and_offset_commit_is_exactly_once(tmp_path):
    """Simulate the crash window: a file is sharded but its offset not yet
    committed → the next poll re-appends it idempotently (REPLACES its own
    files); row counts stay exact."""
    landing = str(tmp_path / "landing")
    write_transcripts(landing, num_convs=12, turns_per_conv=5, seed=5,
                      num_files=2)
    out = str(tmp_path / "out")
    drv = StreamDriver(landing, out, num_parts=3, poll_sec=0.01)
    f0 = sorted(glob.glob(os.path.join(landing, "*.parquet")))[0]
    # manual append WITHOUT committing the offset (the crash window)
    drv._append_file(f0)
    drv.poll_once()  # re-appends f0 (replace), ingests the rest, runs

    out_once = str(tmp_path / "out_once")
    run_kg_resumable(landing, out_once, num_parts=3)
    for tbl in ("edges", "nodes"):
        pd.testing.assert_frame_equal(
            _read_sorted(out, tbl), _read_sorted(out_once, tbl), obj=tbl)


def test_run_loop_bounded_stops(tmp_path):
    landing = str(tmp_path / "landing")
    write_transcripts(landing, num_convs=6, turns_per_conv=4, seed=3,
                      num_files=1)
    drv = StreamDriver(landing, str(tmp_path / "out"), num_parts=2,
                       poll_sec=0.01)
    hist = drv.run(idle_stop_after=2)
    assert hist[0]["new_files"] == 1
    assert [h["new_files"] for h in hist[-2:]] == [0, 0]


def test_status_surface_reads_committed_state(tmp_path):
    """D6/D8: the status document is assembled from committed manifests +
    offset store only (no Ray work) and reflects phases, stream offsets,
    and output row counts."""
    from vectrain_ray.run import _status

    landing = str(tmp_path / "landing")
    write_transcripts(landing, num_convs=8, turns_per_conv=4, seed=11,
                      num_files=2)
    out = str(tmp_path / "out")
    drv = StreamDriver(landing, out, num_parts=2, poll_sec=0.01)
    drv.poll_once()

    doc = _status(out)
    assert doc["finalized"] and doc["mapping_done"]
    assert doc["phases"]["p1"]["completed_parts"] == [0, 1]
    assert doc["phases"]["p1"]["total_rows"] > 0
    assert doc["phases"]["p3"]["total_wall_sec"] > 0
    assert doc["stream"]["files_ingested"] == 2
    assert doc["output_rows"]["nodes"] > 0
    assert _status(str(tmp_path / "nope")) == {
        "out_dir": str(tmp_path / "nope"), "exists": False}


def test_crash_after_ingest_before_pipeline_recovers(tmp_path):
    """Regression: files ingested (offsets committed) but the pipeline run
    crashed → a later poll with NO new files must still run the pipeline
    (the stale _FINAL_DONE from the previous success must not mask it)."""
    landing = str(tmp_path / "landing")
    write_transcripts(landing, num_convs=16, turns_per_conv=4, seed=8,
                      num_files=4)
    all_files = sorted(glob.glob(os.path.join(landing, "*.parquet")))
    hidden = str(tmp_path / "hidden")
    os.makedirs(hidden)
    late = all_files[2:]
    for f in late:
        os.rename(f, os.path.join(hidden, os.path.basename(f)))

    out = str(tmp_path / "out")
    drv = StreamDriver(landing, out, num_parts=2, poll_sec=0.01)
    drv.poll_once()  # success → _FINAL_DONE + __completed__ committed

    # new files arrive; simulate a crash AFTER ingest, BEFORE the pipeline
    for f in late:
        dst = os.path.join(landing, os.path.basename(f))
        os.rename(os.path.join(hidden, os.path.basename(f)), dst)
        offsets = drv._load_offsets()
        offsets[dst] = {"rows": drv._append_file(dst), "ingested_at": 0}
        drv._commit_offsets(offsets)

    m = drv.poll_once()  # sees no "new" files — but must still run
    assert m["new_files"] == 0 and m["ran_pipeline"] is True

    out_once = str(tmp_path / "out_once")
    run_kg_resumable(landing, out_once, num_parts=2)
    for tbl in ("edges", "nodes"):
        pd.testing.assert_frame_equal(
            _read_sorted(out, tbl), _read_sorted(out_once, tbl), obj=tbl)

    # and now it IS up to date
    assert drv.poll_once()["ran_pipeline"] is False


def test_trickle_append_relinks_only_touched_parts(tmp_path):
    """The O(delta) streaming property: after a small append, phase 3 re-runs
    ONLY the shards whose own inputs changed — untouched shards keep their
    committed outputs across the mapping rebuild (their links are a pure
    function of their input when every surface resolved as a safe exact
    hit; stages/link.count_unsafe_links) — and the result still equals the
    one-shot run."""
    import pyarrow as pa
    import pyarrow.parquet as _pq

    from vectrain_ray.synth import generate_transcripts

    landing = str(tmp_path / "landing")
    write_transcripts(landing, num_convs=24, turns_per_conv=6, seed=33,
                      num_files=3)
    out = str(tmp_path / "out")
    drv = StreamDriver(landing, out, num_parts=4, poll_sec=0.01)
    m1 = drv.poll_once()
    assert m1["ran_pipeline"] and m1["skipped_p3"] == 0

    # trickle: ONE new conversation (renamed to avoid colliding with the
    # seed-shared conv-%06d ids) → at most one shard's inputs change
    t = generate_transcripts(num_convs=1, turns_per_conv=6, seed=77,
                             empty_frac=0.0, dup_frac=0.0)
    df = t.to_pandas()
    df["conv_id"] = df["conv_id"].str.replace("conv-", "convZ-")
    _pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                    os.path.join(landing, "zz_late.parquet"))

    m2 = drv.poll_once()
    assert m2["ran_pipeline"] and m2["new_files"] == 1
    # ≥3 of 4 shards untouched by one conv → their p1 AND p3 both skip
    assert m2["skipped_p1"] >= 3, m2
    assert m2["skipped_p3"] >= 3, m2

    # exactness: equals the one-shot run over the same landing dir
    out_once = str(tmp_path / "out_once")
    run_kg_resumable(landing, out_once, num_parts=4)
    for tbl in ("edges", "nodes", "triples", "mentions"):
        a, b = _read_sorted(out, tbl), _read_sorted(out_once, tbl)
        pd.testing.assert_frame_equal(a, b, obj=tbl)


def test_cross_poll_duplicate_resend_stays_exact(tmp_path):
    """A later landing file re-sends an EXISTING (conv, turn) with different
    text: the dedup winner (min text) can flip, surfaces can vanish from
    the corpus, the mapping shrinks — yet only the touched shard re-runs
    and the result still equals the one-shot run over both files."""
    import pyarrow as pa
    import pyarrow.parquet as _pq

    landing = str(tmp_path / "landing")
    write_transcripts(landing, num_convs=12, turns_per_conv=5, seed=13,
                      num_files=2)
    out = str(tmp_path / "out")
    drv = StreamDriver(landing, out, num_parts=4, poll_sec=0.01)
    m1 = drv.poll_once()
    assert m1["ran_pipeline"]

    # duplicate re-send of conv-000003 turn 0 with a lexicographically
    # SMALLER text containing a brand-new surface → min-text winner flips
    dup = pa.table({
        "conv_id": pa.array(["conv-000003"]),
        "turn_idx": pa.array([0], pa.int32()),
        "role": pa.array(["user"]),
        "text": pa.array(["Aaa Zzyx Corp announced a merger."]),
        "tool": pa.array([None], pa.string()),
        "ts": pa.array([1_700_000_000_000_000], pa.timestamp("us")),
    })
    _pq.write_table(dup, os.path.join(landing, "zz_resend.parquet"))
    m2 = drv.poll_once()
    assert m2["ran_pipeline"] and m2["new_files"] == 1
    assert m2["skipped_p1"] >= 3, m2  # one conv → ≤1 shard re-extracts

    out_once = str(tmp_path / "out_once")
    run_kg_resumable(landing, out_once, num_parts=4)
    for tbl in ("edges", "nodes", "triples", "mentions"):
        a, b = _read_sorted(out, tbl), _read_sorted(out_once, tbl)
        pd.testing.assert_frame_equal(a, b, obj=tbl)
    # the flipped winner's surface must be in the final graph
    nodes = _read_sorted(out, "nodes")
    assert nodes["canonical_name"].str.contains("Zzyx").any()


def test_big_input_path_equals_small(tmp_path, monkeypatch):
    """Force FUSE_MATERIALIZE_MAX_ROWS below the corpus so every phase
    takes the big-input branch (streaming write + read-back, bucketed
    phase-4) — outputs must match the gated small path exactly.
    Guards the branch all test corpora otherwise leave dead."""
    from vectrain_ray.pipelines import resume as R

    landing = str(tmp_path / "landing")
    write_transcripts(landing, num_convs=16, turns_per_conv=6, seed=31,
                      num_files=2)

    out_small = str(tmp_path / "out_small")
    StreamDriver(landing, out_small, num_parts=4, poll_sec=0.01).poll_once()

    monkeypatch.setattr(R, "FUSE_MATERIALIZE_MAX_ROWS", 0)
    # the local path would otherwise take every phase of this small poll
    monkeypatch.setattr(R, "LOCAL_MAX_ROWS", 0)
    # and drive phase 4 through its bucketed-shuffle + Ray-sink branch
    monkeypatch.setattr(R, "EDGE_FINALIZE_SINGLE_TASK_MAX", 0)
    out_big = str(tmp_path / "out_big")
    m = StreamDriver(landing, out_big, num_parts=4, poll_sec=0.01).poll_once()
    assert m["ran_pipeline"]

    for tbl in ("edges", "nodes", "triples", "mentions"):
        a, b = _read_sorted(out_small, tbl), _read_sorted(out_big, tbl)
        pd.testing.assert_frame_equal(a, b)


def _stream_with_appends(landing: str, late: list[str], out: str) -> list:
    """A cold ingest of ``landing``, then each ``late`` file lands and is
    polled on its own; returns every poll's metrics."""
    import shutil

    drv = StreamDriver(landing, out, num_parts=4, poll_sec=0.01)
    polls = [drv.poll_once()]
    for f in late:
        shutil.copy(f, os.path.join(landing, os.path.basename(f)))
        polls.append(drv.poll_once())
    return polls


def _manifest_counters(out_dir: str) -> dict:
    """Every committed p1/p3 manifest's row counters and n_unsafe."""
    from vectrain_ray.state.manifest import PartitionManifest

    res = {}
    for name in ("p1_extract", "p3_link"):
        man = PartitionManifest(os.path.join(out_dir, name))
        res[name] = {p: {k: v for k, v in (man.load(p) or {}).items()
                         if k in ("rows_out", "triples_out", "n_unsafe")}
                     for p in man.completed_parts()}
    return res


def test_local_gate_equals_ray_path(tmp_path, monkeypatch):
    """The local gates: an ingest plus three appends (the last re-sends
    existing turns with new text) streamed once with the default gates,
    where every phase runs in the driver, once with LOCAL_MAX_ROWS and
    EDGE_FINALIZE_SINGLE_TASK_MAX at 0, where every phase runs on Ray, and
    once with LOCAL_MAX_ROWS at 100 rows, where phases of one stream take
    both paths and the local ones read Ray-written files, give equal
    tables and equal p1/p3 manifest counters."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as _pq

    from vectrain_ray.pipelines import resume as R
    from vectrain_ray.synth import generate_transcripts

    src = str(tmp_path / "src")
    write_transcripts(src, num_convs=24, turns_per_conv=6, seed=41,
                      num_files=2)
    late_dir = tmp_path / "late"
    late_dir.mkdir()
    late = []
    for k, n in enumerate((1, 2)):
        df = generate_transcripts(num_convs=n, turns_per_conv=6,
                                  seed=90 + k).to_pandas()
        df["conv_id"] = df["conv_id"].str.replace("conv-", f"late{k}-")
        late.append(str(late_dir / f"late{k}.parquet"))
        _pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                        late[-1])
    # a re-send whose new text wins (it sorts first) and two whose new
    # text loses, so a winner picked by file order is wrong either way
    resend = _pq.read_table(sorted(glob.glob(
        os.path.join(src, "*.parquet")))[0]).slice(0, 3).to_pandas()
    resend["text"] = ["Aaa Qorvex Ltd acquired Zzyx Corp.",
                      "zzz Bovar Inc met Kelom.", "zzz Bovar Inc met Kelom."]
    late.append(str(late_dir / "late2.parquet"))
    _pq.write_table(pa.Table.from_pandas(resend, preserve_index=False),
                    late[-1])

    outs = {}
    single_task_max = R.EDGE_FINALIZE_SINGLE_TASK_MAX
    for name, gate in (("local", R.LOCAL_MAX_ROWS), ("ray", 0),
                       ("mixed", 100)):
        monkeypatch.setattr(R, "LOCAL_MAX_ROWS", gate)
        # phases 2 and 4 run in the driver below the single-task size
        monkeypatch.setattr(R, "EDGE_FINALIZE_SINGLE_TASK_MAX",
                            0 if name == "ray" else single_task_max)
        landing = str(tmp_path / f"landing_{name}")
        shutil.copytree(src, landing)
        outs[name] = str(tmp_path / f"out_{name}")
        polls = _stream_with_appends(landing, late, outs[name])
        assert [m["new_files"] for m in polls] == [2, 1, 1, 1]
        paths = {d["path"] for m in polls for d in m["gate"].values()}
        assert paths == ({"local", "ray"} if name == "mixed" else {name})

    counters = _manifest_counters(outs["local"])
    assert len(counters["p3_link"]) == 4
    for other in ("ray", "mixed"):
        for tbl in ("edges", "nodes", "triples", "mentions"):
            pd.testing.assert_frame_equal(_read_sorted(outs["local"], tbl),
                                          _read_sorted(outs[other], tbl),
                                          obj=f"{tbl} ({other})")
        assert counters == _manifest_counters(outs[other])
    nodes = _read_sorted(outs["local"], "nodes")
    assert nodes["canonical_name"].str.contains("Qorvex").any()
    assert not nodes["canonical_name"].str.contains("Bovar").any()


def _kg_corpus(case: str, tmp_path):
    """run_kg's input for one equivalence case: a materialized Dataset, or
    for "resent" a Parquet path whose re-sent turns carry new text (one
    winning, two losing), so a winner picked by row order is wrong."""
    import pyarrow as pa
    import ray.data as rd

    from vectrain_ray.synth import generate_transcripts

    if case == "zero_triple":
        return rd.from_arrow(pa.table({
            "conv_id": pa.array(["c1", "c1", "c2"]),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "text": pa.array(["Hello Alice.", "Greetings Bob.",
                              "Yes Carol."])}))
    t = generate_transcripts(num_convs=30, turns_per_conv=8, seed=43)
    if case == "capped":  # one edge in 2 × PROV_CAP distinct turns
        cap = t.take([0] * 2 * PROV_CAP).to_pandas()
        cap["conv_id"] = [f"cap{i % 7}" for i in range(len(cap))]
        cap["turn_idx"] = range(len(cap))
        cap["text"] = "Qorvex Ltd acquired Zzyx Corp."
        t = pa.concat_tables([t, pa.Table.from_pandas(
            cap, schema=t.schema, preserve_index=False)])
    if case != "resent":
        return rd.from_arrow(t)
    resend = t.slice(0, 3).to_pandas()
    resend["text"] = ["Aaa Qorvex Ltd acquired Zzyx Corp.",
                      "zzz Bovar Inc met Kelom.", "zzz Bovar Inc met Kelom."]
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(t, str(src / "a.parquet"))
    pq.write_table(pa.Table.from_pandas(resend, preserve_index=False),
                   str(src / "b.parquet"))
    return str(src)


def _kg_rows(ds) -> collections.Counter:
    """A table as a multiset of rows, its values compared as strings."""
    df = ds.to_pandas()
    df = df[sorted(df.columns)].astype(str)
    return collections.Counter(
        (tuple(df.columns), *row) for row in df.itertuples(index=False))


@pytest.mark.parametrize("case,link_shards", [
    ("broadcast", None), ("sharded", 3), ("resent", None),
    ("zero_triple", None), ("capped", None)])
def test_run_kg_local_gate_equals_ray_path(case, link_shards, tmp_path,
                                           monkeypatch):
    """run_kg's driver path (default gate) and its Ray path
    (LOCAL_MAX_ROWS=0) give the same four tables and mapping, as
    multisets of rows, from the same input; the driver path's phases add
    up to its total. "capped" links in batches of 16 rows, so one edge's
    2 × PROV_CAP provenance entries span several link batches and the
    capped merge runs on both paths."""
    from vectrain_ray.pipelines import resume as R
    from vectrain_ray.pipelines.kg import run_kg

    src = _kg_corpus(case, tmp_path)
    res = {}
    for name in ("local", "ray"):
        with monkeypatch.context() as mp:
            if name == "ray":
                mp.setattr(R, "LOCAL_MAX_ROWS", 0)
            res[name] = run_kg(src, out_dir=str(tmp_path / name),
                               link_shards=link_shards,
                               batch_size=16 if case == "capped" else 4096)
        assert res[name]["gate"]["kg"]["path"] == name
    for tbl in ("mentions", "triples", "edges", "nodes", "mapping"):
        assert _kg_rows(res["local"][tbl]) == _kg_rows(res["ray"][tbl]), tbl
    timings = dict(res["local"]["timings"])
    total = timings.pop("total")
    assert abs(sum(timings.values()) - total) <= 0.05 * total
    if case == "zero_triple":
        assert res["local"]["edges"].count() == 0
        assert res["local"]["nodes"].count() == 3
    if case == "capped":
        edges = res["local"]["edges"].to_pandas()
        top = edges.loc[edges["weight"].idxmax()]
        assert top["weight"] == 2 * PROV_CAP
        assert len(top["provenance"]) == PROV_CAP
    if case == "resent":
        names = res["local"]["nodes"].to_pandas()["canonical_name"]
        assert names.str.contains("Qorvex").any()
        assert not names.str.contains("Bovar").any()


@pytest.mark.parametrize("gate,link_shards", [
    ("default", None), ("default", 3), ("ray", None), ("ray", 3)])
def test_run_kg_equals_run_kg_resumable(gate, link_shards, tmp_path,
                                        monkeypatch):
    """The two drivers build the same four tables, as multisets of rows
    with ``part`` dropped, from the same Parquet input (with re-sent
    turns): at the default gates, where both run in the driver, and with
    every gate at 0, where both run their Ray dataflow; with broadcast
    and with sharded linking."""
    from vectrain_ray.pipelines import resume as R
    from vectrain_ray.pipelines.kg import run_kg

    if gate == "ray":
        monkeypatch.setattr(R, "LOCAL_MAX_ROWS", 0)
        monkeypatch.setattr(R, "EDGE_FINALIZE_SINGLE_TASK_MAX", 0)
    src = _kg_corpus("resent", tmp_path)
    one = run_kg(src, out_dir=str(tmp_path / "kg"), link_shards=link_shards)
    out = str(tmp_path / "resumable")
    m = run_kg_resumable(src, out, num_parts=4, link_shards=link_shards or 0)
    paths = {one["gate"]["kg"]["path"]} | {
        d["path"] for d in m["gate"].values()}
    assert paths == {"local" if gate == "default" else "ray"}
    for tbl in ("mentions", "triples", "edges", "nodes"):
        t = pq.read_table(os.path.join(out, tbl))
        if "part" in t.column_names:
            t = t.drop_columns(["part"])
        assert _kg_rows(t) == _kg_rows(one[tbl]), tbl
