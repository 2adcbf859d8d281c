"""Exact resume: kill mid-run → resume → identical rows to a clean run
(SURVEY.md §5 test 3 / BASELINE.md resume-correctness target)."""

import glob
import os

import pandas as pd
import pytest
import ray.data as rd

from vectrain_ray.pipelines.resume import run_kg_resumable
from vectrain_ray.synth import write_transcripts


@pytest.fixture(scope="module")
def transcripts_path(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("resume_in"))
    write_transcripts(d, num_convs=30, turns_per_conv=8, seed=5, num_files=4)
    return d


def _load(out_dir, table):
    files = sorted(glob.glob(os.path.join(out_dir, table, "**", "*.parquet"),
                             recursive=True))
    df = rd.read_parquet(files).to_pandas().astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_kill_and_resume_identical(transcripts_path, tmp_path):
    clean = str(tmp_path / "clean")
    killed = str(tmp_path / "killed")

    m = run_kg_resumable(transcripts_path, clean, num_parts=4)
    assert len(m["p1_parts"]) >= 1

    with pytest.raises(RuntimeError, match="injected kill"):
        run_kg_resumable(transcripts_path, killed, num_parts=4,
                         fail_after_phase1_parts=2)
    # resume: must skip the completed shards and converge
    m2 = run_kg_resumable(transcripts_path, killed, num_parts=4)
    assert m2["skipped_p1"] >= 2

    for table in ("nodes", "edges", "triples"):
        a, b = _load(clean, table), _load(killed, table)
        pd.testing.assert_frame_equal(a, b), table


def test_kill_and_resume_identical_ray_path(transcripts_path, tmp_path,
                                            monkeypatch):
    """The kill point on phase 1's Ray path (LOCAL_MAX_ROWS at 0): the
    injected crash after two commits resumes to the clean run's rows."""
    from vectrain_ray.pipelines import resume as rz

    monkeypatch.setattr(rz, "LOCAL_MAX_ROWS", 0)
    clean = str(tmp_path / "clean")
    killed = str(tmp_path / "killed")
    run_kg_resumable(transcripts_path, clean, num_parts=4)
    with pytest.raises(RuntimeError, match="injected kill"):
        run_kg_resumable(transcripts_path, killed, num_parts=4,
                         fail_after_phase1_parts=2)
    m = run_kg_resumable(transcripts_path, killed, num_parts=4)
    assert m["skipped_p1"] == 2
    assert m["gate"]["p1"]["path"] == "ray"
    for table in ("nodes", "edges", "triples"):
        pd.testing.assert_frame_equal(_load(clean, table),
                                      _load(killed, table))


def test_second_run_skips_everything(transcripts_path, tmp_path):
    out = str(tmp_path / "twice")
    run_kg_resumable(transcripts_path, out, num_parts=4)
    before = _load(out, "edges")
    m = run_kg_resumable(transcripts_path, out, num_parts=4)
    # all per-shard work skipped on the second run
    assert m["skipped_p1"] == len(m["p1_parts"])
    assert m["skipped_p3"] == len(m["p3_parts"])
    after = _load(out, "edges")
    pd.testing.assert_frame_equal(before, after)


def test_stale_fingerprint_forces_reprocess(transcripts_path, tmp_path):
    out = str(tmp_path / "stale")
    run_kg_resumable(transcripts_path, out, num_parts=4)
    # tamper with one shard's input → fingerprint mismatch → re-run that shard
    shard_files = sorted(glob.glob(os.path.join(out, "shards", "part=0", "*.parquet")))
    with open(shard_files[0], "ab") as f:
        f.write(b"\0")  # size change only; parquet footer still readable? no —
    # rewrite properly: copy file to itself doubled is invalid parquet; instead
    # just check is_done flips false via the manifest API
    from vectrain_ray.state.manifest import PartitionManifest

    man = PartitionManifest(os.path.join(out, "p1_extract"))
    assert not man.is_done(0, shard_files)


def test_pre_partials_out_dir_is_backfilled(transcripts_path, tmp_path):
    """Upgrade path: an out_dir written before the surface_partials artifact
    existed (simulated by deleting partials + mapping marker while p1
    manifests stay valid) must be backfilled — the mapping is rebuilt from
    ALL shards, never a silently truncated subset — and converge to the
    same bytes."""
    import shutil

    out = str(tmp_path / "old_layout")
    run_kg_resumable(transcripts_path, out, num_parts=4)
    before = {t: _load(out, t) for t in ("nodes", "edges", "triples")}

    shutil.rmtree(os.path.join(out, "surface_partials"))
    os.remove(os.path.join(out, "mapping", "_DONE"))

    m = run_kg_resumable(transcripts_path, out, num_parts=4)
    assert m["skipped_p1"] == len(m["p1_parts"])  # p1 itself untouched
    # partials were backfilled for every extracted shard
    for part in m["p1_parts"]:
        assert glob.glob(os.path.join(out, "surface_partials",
                                      f"part={part}", "*.parquet")), part
    for t in ("nodes", "edges", "triples"):
        pd.testing.assert_frame_equal(before[t], _load(out, t)), t


def test_count_unsafe_distributed_matches_driver(tmp_path):
    """The distributed n_unsafe counter (big-mapping regime) must equal the
    driver-set counter on the same inputs, covering all three outcomes:
    safe exact hit, fuzzy departure, and a mapping-absent norm."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vectrain_ray import rules
    from vectrain_ray.stages.link import (count_unsafe_links,
                                          count_unsafe_links_distributed)

    def pure(s):
        return rules.stable_id(
            "ent", rules.canonical_merge_key(rules.normalize_surface(s)))

    # surfaces: Alice = safe hit; Bob = departure (id != pure hash);
    # Carol = pure id but norm absent from mapping (unsafe miss);
    # Dave = safe hit appearing on the obj side and duplicated
    tr = pa.table({
        "subj": pa.array(["Alice", "Bob", "Carol", "Alice"]),
        "subj_id": pa.array([pure("Alice"), "deadbeefdeadbeef",
                             pure("Carol"), pure("Alice")]),
        "obj": pa.array(["Dave", "Dave", "Alice", "Bob"]),
        "obj_id": pa.array([pure("Dave"), pure("Dave"), pure("Alice"),
                            "deadbeefdeadbeef"]),
    })
    tr_dir = tmp_path / "tr"
    tr_dir.mkdir()
    pq.write_table(tr, str(tr_dir / "p.parquet"))

    norms = [rules.normalize_surface(s) for s in ("Alice", "Bob", "Dave")]
    map_dir = tmp_path / "mapping"
    map_dir.mkdir()
    pq.write_table(pa.table({"surface_norm": pa.array(norms)}),
                   str(map_dir / "m.parquet"))

    driver = count_unsafe_links(tr.to_pandas(), set(norms))
    dist = count_unsafe_links_distributed([str(tr_dir / "p.parquet")],
                                          str(map_dir))
    assert driver == dist == 2  # Bob (departure) + Carol (absent norm)


def test_resume_distributed_unsafe_gate(transcripts_path, tmp_path,
                                        monkeypatch):
    """Forcing the big-mapping gate to 0 routes every shard's n_unsafe
    through the distributed counter; the run must produce identical tables
    and manifest counters to the driver-set path."""
    from vectrain_ray.pipelines import resume as rz

    # every phase on Ray, so the forced gate reaches the distributed
    # counter and the Ray phase-4 sinks
    monkeypatch.setattr(rz, "LOCAL_MAX_ROWS", 0)
    out_a = str(tmp_path / "driver_path")
    m_a = run_kg_resumable(transcripts_path, out_a, num_parts=4)

    monkeypatch.setattr(rz, "UNSAFE_SET_MAX_ENTITIES", 0)
    out_b = str(tmp_path / "dist_path")
    m_b = run_kg_resumable(transcripts_path, out_b, num_parts=4)

    for t in ("nodes", "edges", "triples"):
        pd.testing.assert_frame_equal(_load(out_a, t), _load(out_b, t)), t
    from vectrain_ray.state.manifest import PartitionManifest

    for out in (out_a, out_b):
        man = PartitionManifest(os.path.join(out, "p3_link"))
        metas = {p: man.load(p) for p in man.completed_parts()}
        assert metas, out
        unsafe = {p: m["n_unsafe"] for p, m in metas.items()}
        if out == out_a:
            expected = unsafe
        else:
            assert unsafe == expected


def test_same_size_rewrite_forces_reprocess(transcripts_path, tmp_path):
    """A shard input rewritten in place with IDENTICAL byte size must still
    invalidate the manifest (fingerprint includes mtime, not just size)."""
    import os
    import time as _t

    from vectrain_ray.state.manifest import PartitionManifest, _fingerprint

    out = str(tmp_path / "o")
    run_kg_resumable(transcripts_path, out, num_parts=2)
    man = PartitionManifest(os.path.join(out, "p1_extract"))
    part = man.completed_parts()[0]
    files = sorted(glob.glob(os.path.join(out, "shards", f"part={part}",
                                          "*.parquet")))
    before = _fingerprint(files)
    _t.sleep(0.01)
    data = open(files[0], "rb").read()
    open(files[0], "wb").write(data)  # same bytes, same size, new mtime
    assert _fingerprint(files) != before
    assert not man.is_done(part, files)


@pytest.mark.parametrize("which", ["p1_extract", "p3_link"])
def test_crash_in_deferred_commit_window_converges(transcripts_path,
                                                   tmp_path, monkeypatch,
                                                   which):
    """The ≥16-CPU fast path defers two sink joins + manifest commits
    (phase 1's extracted write past phase 2; phase 3's triples write past
    phase 4). A crash DURING those deferred commits — after later phases
    already ran — must leave a state the next run converges from,
    identical to a never-crashed run."""
    import vectrain_ray.pipelines.resume as R
    import vectrain_ray.state.manifest as M

    clean = str(tmp_path / "clean")
    run_kg_resumable(transcripts_path, clean, num_parts=4)

    # force the deferred-thread paths despite the 4-CPU test session —
    # shim ONLY resume's view of ray (patching the global ray module's
    # cluster_resources desyncs Ray Data's own scheduler and hangs)
    import types

    import ray as real_ray

    shim = types.SimpleNamespace(
        cluster_resources=lambda: {"CPU": 32.0},
        put=real_ray.put, get=real_ray.get, kill=real_ray.kill,
    )
    monkeypatch.setattr(R, "ray", shim)
    # the deferred sinks live on the Ray path; this corpus is under the
    # local gate
    monkeypatch.setattr(R, "LOCAL_MAX_ROWS", 0)

    crashed = str(tmp_path / "crashed")
    orig = M.PartitionManifest.commit
    state = {"armed": True}

    def boom(self, part, files, meta=None):
        if state["armed"] and which in self.dir:
            state["armed"] = False
            raise RuntimeError("injected commit crash")
        return orig(self, part, files, meta)

    monkeypatch.setattr(M.PartitionManifest, "commit", boom)
    with pytest.raises(RuntimeError, match="injected commit crash"):
        run_kg_resumable(transcripts_path, crashed, num_parts=4)
    monkeypatch.setattr(M.PartitionManifest, "commit", orig)
    # the crash came from the deferred finisher: the phase after the
    # deferred one had already run (an inline commit would have crashed
    # before it), and the final marker had not committed
    later = {"p1_extract": os.path.join("mapping", "_DONE"),
             "p3_link": "edges"}[which]
    assert os.path.exists(os.path.join(crashed, later))
    assert not os.path.exists(os.path.join(crashed, "_FINAL_DONE"))

    m = run_kg_resumable(transcripts_path, crashed, num_parts=4)
    assert m  # converged without raising
    for table in ("nodes", "edges", "triples", "mentions"):
        a, b = _load(clean, table), _load(crashed, table)
        pd.testing.assert_frame_equal(a, b), table
