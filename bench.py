"""Benchmark harness (driver contract).

    python bench.py            # headline pipelines over $GRAFT_SF_DIR
                               # (default /root/testdata/sf0.1) with
                               # ray.init(num_cpus=$RAY_GRAFT_CPUS, default 32)
                               # → prints ONE JSON line
    python bench.py --scaling  # same job at N and 4N CPUs (default 2/8) in
                               # fresh subprocesses → throughput at both +
                               # scaling efficiency (BASELINE.md criterion);
                               # extraction (the BASELINE.json metric) is
                               # primary, full pipeline secondary

Headline: the flagship KG-construction pipeline (extract → encode → link →
canonicalize → materialize) over a seed-fixed synthetic transcript corpus
(default 1.6M turns; scaling uses 6.3M), cached under /tmp — reported as
wall sec + turns/sec. Secondary: operator pipelines over the sf testdata.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# big enough that per-stage compute dominates fixed session/planning overhead
# (~1.6M turns); generated once and cached under /tmp
BENCH_CONVS = int(os.environ.get("GRAFT_BENCH_CONVS", "100000"))
BENCH_SEED = 1234


def _bench_transcripts_path(novel: bool = False) -> str:
    """Seed-fixed synthetic transcripts, written once and reused
    byte-identically across runs AND parallelism levels (FIXTURES.md §4).
    ``novel=True`` = the low-duplication worst case: every sentence carries
    a unique lowercase tag, so the extraction sentence memo never hits."""
    tag = "_novel" if novel else ""
    path = f"/tmp/vectrain_bench/transcripts_c{BENCH_CONVS}_s{BENCH_SEED}{tag}"
    marker = os.path.join(path, "_DONE")
    if not os.path.exists(marker):
        from vectrain_ray.synth import write_transcripts

        write_transcripts(path, num_convs=BENCH_CONVS, turns_per_conv=16,
                          seed=BENCH_SEED, num_files=64,
                          novel_frac=1.0 if novel else 0.0)
        open(marker, "w").write("ok")
    return path


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from vectrain_ray.tuning import apply_data_context

    apply_data_context()

    import pyarrow.parquet as pq
    import ray.data as rd

    from vectrain_ray.pipelines import queries as Q
    from vectrain_ray.pipelines.kg import run_kg
    from vectrain_ray.sources.readers import read_transcripts

    tpath = _bench_transcripts_path()
    n_turns = sum(
        pq.read_metadata(os.path.join(tpath, f)).num_rows
        for f in os.listdir(tpath) if f.endswith(".parquet")
    )

    # warm worker processes (imports) + the page cache, so timings measure
    # compute + shuffle — not process spawn or first disk read
    rd.range(1000, override_num_blocks=NUM_CPUS).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()
    read_transcripts(tpath).count()

    timings: dict[str, float] = {}
    mode = os.environ.get("GRAFT_BENCH_MODE", "full")

    def _time_extract(in_path: str, out_tag: str) -> float:
        from vectrain_ray.functions.dedup_exact import dedup_exact_local
        from vectrain_ray.stages.extract import (
            extract_batch,
            filter_nonempty_text,
        )

        out_dir = f"/tmp/vectrain_bench/ext_{out_tag}_{NUM_CPUS}"
        import shutil

        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        ds = read_transcripts(in_path,
                              columns=["conv_id", "turn_idx", "text"])
        ds = dedup_exact_local(ds, ["conv_id", "turn_idx"], sort_within=["text"])
        ds.map_batches(filter_nonempty_text, batch_format="pyarrow",
                       batch_size=8192).map_batches(
            extract_batch, batch_format="pyarrow", batch_size=8192
        ).write_parquet(out_dir)
        return time.time() - t0

    if mode == "extract":
        # the headline metric of BASELINE.json: triple-extraction throughput
        # (turns/sec) — the embarrassingly parallel stage, no phase barriers
        kg_sec = _time_extract(tpath, "hot")
        timings["extract_pipeline"] = round(kg_sec, 3)
    else:
        t0 = time.time()
        out_dir = f"/tmp/vectrain_bench/out_{NUM_CPUS}_{int(t0)}"
        res = run_kg(
            tpath,
            out_dir=out_dir,
            batch_size=8192,
            assume_conv_partitioned=True,  # bench corpus is one-file-per-conv-bucket
        )
        kg_sec = time.time() - t0
        timings["kg_pipeline"] = round(kg_sec, 3)
        timings["kg_phases"] = res.get("timings", {})

        if not os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
            # extraction on BOTH corpora (VERDICT r2 item 6): the memo-
            # friendly bench corpus and the low-duplication worst case
            # where every sentence is novel — bounds the memo assumption
            timings["extract_memo_corpus"] = round(
                _time_extract(tpath, "hot"), 3)
            npath = _bench_transcripts_path(novel=True)
            nodup_sec = _time_extract(npath, "nodup")
            timings["extract_nodup_corpus"] = round(nodup_sec, 3)
            timings["extract_nodup_turns_per_sec"] = round(
                n_turns / nodup_sec, 1)

    secondary = [] if os.environ.get("GRAFT_BENCH_HEADLINE_ONLY") else [
        ("groupby_agg", Q.q_groupby_agg),
        ("hash_join", Q.q_hash_join),
        ("window_tumbling", Q.q_window_tumbling),
        ("sessionize", Q.q_sessionize),
        ("dedup_exact", Q.q_dedup_exact),
        ("dedup_minhash", Q.q_dedup_minhash),
        ("ann_topk", Q.q_ann_topk),
        ("kg_triples_sf", Q.q_kg_triples),
        ("inverted_index", Q.q_inverted_index),
        ("repetition_stats", Q.q_repetition_stats),
        ("cooccurrence", Q.q_cooccurrence),
        ("decontaminate", Q.q_decontaminate),
        ("decontaminate_fuzzy", Q.q_decontaminate_fuzzy),
        ("event_throttle", Q.q_event_throttle),
        ("mixture_sample", Q.q_mixture_sample),
        ("bm25_topk", Q.q_bm25_topk),
        ("chunk_tokens", Q.q_chunk_tokens),
        ("tfidf_top_terms", Q.q_tfidf_top_terms),
        ("vocab_coverage", Q.q_vocab_coverage),
        ("lm_bigram_score", Q.q_lm_bigram_score),
        ("bpe_merge_pairs", Q.q_bpe_merge_pairs),
        ("normalize_text", Q.q_normalize_text),
        ("token_entropy", Q.q_token_entropy),
        ("zscore_by_group", Q.q_zscore_by_group),
        ("full_join", Q.q_full_join),
        # shares the co-supply edge derivation + wedge plan machinery
        ("edge_jaccard", Q.q_edge_jaccard),
        ("link_predict_ra", Q.q_link_predict_ra),
        ("length_quantiles", Q.q_length_quantiles),
        ("conversation_stats", Q.q_conversation_stats),
        # session-5 ops. quality_filter/dup_ngram_fraction run warm on the
        # shared _tokenized_docs cache (tokenize-once, same as bm25 et al.)
        ("quality_filter", Q.q_quality_filter),
        ("dup_ngram_fraction", Q.q_dup_ngram_fraction),
        ("value_corr", Q.q_value_corr),
        ("embed_quantize", Q.q_embed_quantize),
        ("cross_join", Q.q_cross_join),
        ("winsorize_by_group", Q.q_winsorize_by_group),
        ("ngram_containment", Q.q_ngram_containment),
        ("cluster_purity", Q.q_cluster_purity),
        # NOTE: runs after dedup_minhash, which warms the shared
        # clustering artifact (the "minhash_clusters" memo) — this row times
        # the INCREMENTAL cost (quality join + keep-best exchange), by
        # design; time it alone for the end-to-end cost
        ("dedup_keep_best", Q.q_dedup_keep_best),
        # warm clustering artifact as above: times the two count reductions
        ("dedup_cluster_stats", Q.q_dedup_cluster_stats),
        ("pmi_bigrams", Q.q_pmi_bigrams),
        ("train_test_split", Q.q_train_test_split),
        # round-4 ops. NOTE: bm25/tfidf/pmi/chunk warmed the shared
        # _tokenized_docs cache above, so these rows time the op's own
        # compute, not tokenization
        ("pack_sequences", Q.q_pack_sequences),
        ("semantic_dedup", Q.q_semantic_dedup),
        ("knn_join", Q.q_knn_join),
        ("dup_ngram_spans", Q.q_dup_ngram_spans),
        ("skew_join", Q.q_skew_join),
        ("window_dedup", Q.q_window_dedup),
        # NOTE: runs after dedup_minhash (warm clustering artifact) — times
        # the prep scan + keeper join, the incremental cost by design
        ("corpus_prep", Q.q_corpus_prep),
        # runs the full templated-TPC-H KG build (fresh in this session)
        ("kg_degree_hist", Q.q_kg_degree_hist),
    ]
    for name, fn in secondary:
        t0 = time.time()
        res = fn(SF_DIR)
        # consume without materializing to the driver
        n = res.count()
        timings[name] = round(time.time() - t0, 3)
        del n

    if not os.environ.get("GRAFT_BENCH_HEADLINE_ONLY"):
        timings.update(_time_stream())

    ray.shutdown()

    return {
        "metric": ("extract_wall_sec" if mode == "extract"
                   else "kg_pipeline_wall_sec"),
        "value": kg_sec,
        "unit": "sec",
        "queries": timings,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "bench_turns": n_turns,
        "turns_per_sec": round(n_turns / kg_sec, 1),
    }


def _time_stream() -> dict:
    """Streaming-path bench (VERDICT r3 item 7): landing-dir → StreamDriver
    → manifest-gated KG, the reference's continuous poll loop recast.

    - ``stream_ingest``: cold end-to-end micro-batch over a 20k-conv
      (~320k-turn) landing set — every shard extracts, maps, links, writes.
    - ``stream_append``: ONE new conversation lands on the warm KG; the
      poll re-extracts O(1) shards and relinks only invalidated ones. This
      is the trickle latency the r2 verdict flagged (19 s then)."""
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from vectrain_ray.pipelines.stream import StreamDriver
    from vectrain_ray.synth import generate_transcripts, write_transcripts

    base = "/tmp/vectrain_bench/stream"
    shutil.rmtree(base, ignore_errors=True)
    landing = os.path.join(base, "landing")
    out = os.path.join(base, "out")
    convs = int(os.environ.get("GRAFT_BENCH_STREAM_CONVS", "20000"))
    write_transcripts(landing, num_convs=convs, turns_per_conv=16,
                      seed=4321, num_files=16)
    n_turns = sum(
        pq.read_metadata(os.path.join(landing, f)).num_rows
        for f in os.listdir(landing) if f.endswith(".parquet")
    )
    # min-of-2 (the BASELINE.md scaling methodology): run-to-run variance
    # on this shared box reaches ±20%; each draw is pipeline-state-cold
    # (fresh out dir, every shard extracts/links) in the same warm session
    ingest_sec = float("inf")
    for draw in range(2):
        shutil.rmtree(out, ignore_errors=True)
        drv = StreamDriver(landing, out, num_parts=8, poll_sec=0.01,
                           batch_size=8192)
        t0 = time.time()
        m = drv.poll_once()
        ingest_sec = min(ingest_sec, time.time() - t0)
        assert m["ran_pipeline"] and m["rows_in"] == n_turns

    # one NEW conversation (conv_id disjoint from the synth namespace)
    # lands as one file → warm incremental poll
    late = generate_transcripts(num_convs=1, turns_per_conv=16, seed=99)
    late = late.set_column(
        0, "conv_id",
        pc.replace_substring(late["conv_id"], "conv-", "conv-late-"))
    pq.write_table(late, os.path.join(landing, "late-00000.parquet"))
    t0 = time.time()
    m2 = drv.poll_once()
    append_sec = time.time() - t0
    assert m2["new_files"] == 1 and m2["ran_pipeline"]
    return {
        "stream_ingest": round(ingest_sec, 3),
        "stream_ingest_turns": n_turns,
        "stream_ingest_turns_per_sec": round(n_turns / ingest_sec, 1),
        "stream_append": round(append_sec, 3),
    }


def run_scaling() -> dict:
    """Fresh processes per level on identical input: efficiency =
    throughput(4N) / (4 × throughput(N)).

    Uses a larger corpus than the plain bench (default 400k convs ≈ 6.3M
    turns) so per-stage compute dominates the fixed session/phase cost at
    BOTH levels — scaling numbers then reflect the engine, not the harness."""
    convs = int(os.environ.get("GRAFT_BENCH_SCALING_CONVS", "400000"))

    def run(ncpu: int, mode: str) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_HEADLINE_ONLY="1",
                   GRAFT_BENCH_CONVS=str(convs),
                   GRAFT_BENCH_MODE=mode)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env,
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # Default levels 2 and 8 (N and 4N): both sit below this box's memory-
    # bandwidth ceiling, so the ratio measures the ENGINE's parallel scaling
    # — what adding nodes (each with its own memory bus) buys. At 8→32 on
    # one box the extraction stage saturates the shared bus (~750k turns/s
    # flat); that ceiling is recorded in BASELINE.md, not a pipeline serial
    # bottleneck. Override with GRAFT_SCALE_LO / GRAFT_SCALE_HI.
    lo = int(os.environ.get("GRAFT_SCALE_LO", "2"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "8"))

    def eff_pair(mode: str) -> dict:
        # run-to-run variance on this shared box reaches ±20% at BOTH
        # levels (page cache, background noise) — take min-of-2 at both so
        # the ratio compares steady states, not noise draws
        r_lo = min((run(lo, mode) for _ in range(2)), key=lambda r: r["value"])
        r_hi = min((run(hi, mode) for _ in range(2)), key=lambda r: r["value"])
        tp_lo, tp_hi = r_lo["turns_per_sec"], r_hi["turns_per_sec"]
        return {
            "efficiency": round(tp_hi / (tp_lo * (hi / lo)), 3),
            "sec_lo": r_lo["value"],
            "sec_hi": r_hi["value"],
            "turns_per_sec_lo": tp_lo,
            "turns_per_sec_hi": tp_hi,
        }

    # primary: triple-extraction throughput (the BASELINE.json metric) —
    # no phase barriers, so single-box measurements reflect engine scaling
    ext = eff_pair("extract")
    # secondary: the full multi-phase KG pipeline — on ONE machine its phase
    # barriers + shared memory-bus cap measured efficiency well below what
    # the same DAG achieves across real nodes (each phase is internally
    # data-parallel); reported for transparency
    full = eff_pair("full")
    return {
        "metric": "scaling_efficiency",
        "value": ext["efficiency"],
        "unit": "ratio",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "extract": ext,
        "kg_full": full,
        "sf": SF_DIR,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
