"""End-to-end pipeline invariants — SURVEY.md §5 tests 1–3."""

import os

import pyarrow.parquet as pq
import pytest
import ray.data as rd


def test_ordering_invariant_per_turn_text_equality(small_transcripts):
    """Sorting by (conv_id, turn_idx) reproduces input text per turn —
    the per-row invariant from BASELINE.json input_hint."""
    ds = rd.from_arrow(small_transcripts)
    got = ds.sort(["conv_id", "turn_idx"]).take_all()
    exp = sorted(
        small_transcripts.to_pylist(),
        key=lambda r: (r["conv_id"], r["turn_idx"]),
    )
    assert [r["text"] for r in got] == [r["text"] for r in exp]
    assert [(r["conv_id"], r["turn_idx"]) for r in got] == [
        (r["conv_id"], r["turn_idx"]) for r in exp
    ]


def test_outputs_written_and_nonempty(kg_result):
    res, out = kg_result
    for name in ("mentions", "triples", "edges", "nodes"):
        path = res["paths"][name]
        assert os.path.isdir(path)
        n = sum(
            pq.read_metadata(os.path.join(path, f)).num_rows
            for f in os.listdir(path)
            if f.endswith(".parquet")
        )
        assert n > 0, name


def test_provenance_in_turn_order(kg_result):
    """Edge provenance lists turns in ascending (conv_id, turn_idx) order —
    the reference's in-order forwarding (pipeline.go:172-178) re-expressed."""
    res, _ = kg_result
    for row in res["edges"].take_all():
        prov = [(p["conv_id"], p["turn_idx"]) for p in row["provenance"]]
        assert prov == sorted(prov)
        assert len(prov) >= 1


def test_edge_weights_match_triples(kg_result):
    res, _ = kg_result
    triples = res["triples"].take_all()
    from collections import Counter

    exp = Counter((t["subj_id"], t["obj_id"], t["pred"]) for t in triples)
    got = {
        (e["src_id"], e["dst_id"], e["pred"]): e["weight"]
        for e in res["edges"].take_all()
    }
    assert dict(exp) == got


def test_linked_ids_consistent_with_nodes(kg_result):
    res, _ = kg_result
    node_ids = {n["entity_id"] for n in res["nodes"].take_all()}
    for t in res["triples"].take_all():
        assert t["subj_id"] in node_ids
        assert t["obj_id"] in node_ids


def test_node_degree_counts_edge_endpoints(kg_result):
    res, _ = kg_result
    from collections import Counter

    deg = Counter()
    for e in res["edges"].take_all():
        deg[e["src_id"]] += 1
        deg[e["dst_id"]] += 1
    for n in res["nodes"].take_all():
        assert n["degree"] == deg.get(n["entity_id"], 0)


def test_duplicate_resends_are_idempotent(kg_result, small_transcripts):
    """The generator re-sends some turns (FIXTURES.md); dedup-by-stable-id
    must make them invisible: no triple appears twice with identical
    (conv, turn, occ) identity — reference TODO qdrant/store.go:45 fixed."""
    res, _ = kg_result
    rows = res["triples"].take_all()
    ids = [r["row_id"] for r in rows]
    assert len(ids) == len(set(ids))


def test_rerun_byte_identical(kg_result, small_transcripts, tmp_path,
                              monkeypatch):
    """Store idempotency (SURVEY.md §5 test 3): an independent second run
    produces identical node/edge tables — one run per path: the shared
    run takes the driver path, this one the Ray path (LOCAL_MAX_ROWS=0)."""
    from vectrain_ray.pipelines import resume as R
    from vectrain_ray.pipelines.kg import run_kg

    res1, _ = kg_result
    monkeypatch.setattr(R, "LOCAL_MAX_ROWS", 0)
    res2 = run_kg(rd.from_arrow(small_transcripts), out_dir=str(tmp_path))
    assert (res1["gate"]["kg"]["path"], res2["gate"]["kg"]["path"]) == (
        "local", "ray")

    def canon(ds):
        df = ds.to_pandas().astype(str)
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    for name in ("nodes", "edges", "triples"):
        a, b = canon(res1[name]), canon(res2[name])
        assert a.equals(b), name


def test_run_kg_rerun_same_out_dir_replaces(tmp_path):
    """Re-running into the same out_dir must REPLACE the tables, not
    accumulate a second run's files next to the first (write_parquet
    filenames embed a fresh uuid per run)."""
    import ray.data as rd

    from vectrain_ray import synth
    from vectrain_ray.pipelines.kg import run_kg

    out = str(tmp_path / "out")
    ds = rd.from_arrow(synth.generate_transcripts(10, 6, seed=4))
    r1 = run_kg(ds, out_dir=out)
    c1 = {n: r1[n].count() for n in ("mentions", "triples", "edges", "nodes")}
    ds2 = rd.from_arrow(synth.generate_transcripts(10, 6, seed=4))
    r2 = run_kg(ds2, out_dir=out)
    c2 = {n: r2[n].count() for n in ("mentions", "triples", "edges", "nodes")}
    assert c1 == c2


def test_run_kg_zero_triple_corpus_completes(tmp_path):
    """A corpus whose text never matches the predicate vocabulary produces
    mentions but ZERO triples — write_parquet then creates no edges dir and
    the pipeline must still complete end-to-end (empty tables, no crash)."""
    import pyarrow as pa
    import ray.data as rd

    from vectrain_ray.pipelines.kg import run_kg

    t = pa.table({
        "conv_id": pa.array(["c1", "c1", "c2"]),
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "text": pa.array(["Hello Alice.", "Greetings Bob.", "Yes Carol."]),
    })
    res = run_kg(rd.from_arrow(t), out_dir=str(tmp_path / "out"))
    assert res["triples"].count() == 0
    assert res["edges"].count() == 0
    assert res["mentions"].count() >= 1  # capitalized names still mention


def test_resume_zero_triple_shard_completes(tmp_path):
    """Same zero-triple case through the resumable runner: the shard's
    triples dir has no files and the edge-partial step must skip it, not
    wedge every resume on read_parquet([])."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vectrain_ray.pipelines.resume import run_kg_resumable

    d = tmp_path / "in"
    d.mkdir()
    t = pa.table({
        "conv_id": pa.array(["c1", "c1", "c2"]),
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "text": pa.array(["Hello Alice.", "Greetings Bob.", "Yes Carol."]),
    })
    pq.write_table(t, str(d / "p.parquet"))
    m = run_kg_resumable(str(d), str(tmp_path / "out"), num_parts=2)
    assert m["skipped_p3"] == 0
    m2 = run_kg_resumable(str(d), str(tmp_path / "out"), num_parts=2)
    assert m2["skipped_p1"] + m2["skipped_p3"] > 0  # resume skips, no wedge


@pytest.mark.parametrize("gate", ["local", "ray"])
def test_resume_all_empty_corpus_completes(gate, tmp_path, monkeypatch):
    """Every turn empty: no partials and no edges at all. On both sides of
    the gates the mapping, edges and nodes dirs exist and hold no file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from vectrain_ray.pipelines import resume as R

    if gate == "ray":
        monkeypatch.setattr(R, "LOCAL_MAX_ROWS", 0)
        monkeypatch.setattr(R, "EDGE_FINALIZE_SINGLE_TASK_MAX", 0)
    d = tmp_path / "in"
    d.mkdir()
    pq.write_table(pa.table({
        "conv_id": pa.array(["c1", "c1", "c2"]),
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "text": pa.array(["", "  ", ""]),
    }), str(d / "p.parquet"))
    out = tmp_path / "out"
    m = R.run_kg_resumable(str(d), str(out), num_parts=2)
    assert {m["gate"][p]["path"] for p in ("p1", "p2", "p4")} == {gate}
    for table in ("mapping", "edges", "nodes"):
        assert (out / table).is_dir() and not list(
            (out / table).glob("*.parquet"))
