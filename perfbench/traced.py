"""The traced run: per-layer metrics, one stage at a time.

On a transcript workload each round calls the engine's layers one stage at
a time on the workload's own input, materialising every stage, then runs
the fused ``run_kg`` on the same input, then times the kernels on pinned
Arrow batches in this process. The registry workload times each operator
on its own. Spans (name, start, end, parent) and counts stay in memory and
are written to ``.perfbench/trace-<workload>-<seed>.json`` at the end.

Every per-layer metric is printed on every workload; a layer the workload
does not run reads 0.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import shutil
import time

import checks
import gen
import workloads
from workloads import REGISTRY_OPS, median

DIM = 64
BATCH = 4096
KG_PHASES = ("extract", "mapping", "link", "edges_agg", "triples_write",
             "edges", "final_writes", "encode_write", "total")
KG_TABLES = ("mentions", "triples", "edges", "nodes")
LAYER_METRICS = {
    "setup.ray_init_s": "s",
    "setup.warm_s": "s",
    "read.rows_per_s": "rows/s",
    "dedup.rows_per_s": "rows/s",
    "dedup.rows_dropped": "count",
    "extract.kernel_turns_per_s": "turns/s",
    "extract.oracle_turns_per_s": "turns/s",
    "extract.phase_s": "s",
    "extract.exec_ratio": "ratio",
    "extract.memo_hit_ratio": "ratio",
    "extract.mentions": "count",
    "extract.triples": "count",
    "encode.kernel_rows_per_s": "rows/s",
    "encode.phase_s": "s",
    "encode.exec_ratio": "ratio",
    "canonicalize.mapping_s": "s",
    "canonicalize.entities": "count",
    "link.index_build_s": "s",
    "link.kernel_rows_per_s": "rows/s",
    "link.phase_s": "s",
    "link.exec_ratio": "ratio",
    "materialize.edge_partial_rows": "count",
    "materialize.edges_s": "s",
    "materialize.nodes_s": "s",
    "materialize.edges": "count",
    "materialize.nodes": "count",
    "sink.write_s": "s",
    **{f"sink.bytes.{t}": "bytes" for t in KG_TABLES},
    "kg.staged_s": "s",
    "kg.fused_s": "s",
    "kg.overlap_s": "s",
    **{f"kg.reported.{p}_s": "s" for p in KG_PHASES},
    "stream.ingest_poll_s": "s",
    **{f"stream.append_poll_s.{k + 1}": "s" for k in range(workloads.APPENDS)},
    "stream.parts_rerun": "count",
    "stream.shard_files": "count",
    **{f"registry.{op}_s": "s" for op, _ in REGISTRY_OPS},
    **{f"registry.{op}.rows": "count" for op, _ in REGISTRY_OPS},
}


class Tracer:
    """Spans, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[str] = []
        self.t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._open.pop()
            self.spans.append({"name": name, "parent": parent,
                               "start": start - self.t0,
                               "end": time.perf_counter() - self.t0})

    def dur(self, name: str) -> float:
        """Duration of the latest span called ``name``."""
        s = next(s for s in reversed(self.spans) if s["name"] == name)
        return s["end"] - s["start"]


def staged(tr: Tracer, in_dir: str, out_dir: str, single_task: bool):
    """The KG layers one stage at a time, each materialised. Returns the
    layer metrics, the deduplicated turns pinned in this process, and the
    link index's object ref."""
    import ray
    import pyarrow as pa

    from vectrain_ray.functions.dedup_exact import dedup_exact
    from vectrain_ray.sources.readers import read_transcripts
    from vectrain_ray.stages import canonicalize, materialize
    from vectrain_ray.stages.encode import HashingEncoder
    from vectrain_ray.stages.extract import (extract_batch,
                                             filter_nonempty_text,
                                             mentions_table, triples_table)
    from vectrain_ray.stages.link import EntityLinker, build_link_index

    m: dict[str, float] = {}
    with tr.span("staged"):
        with tr.span("read"):
            raw = read_transcripts(in_dir, columns=["conv_id", "turn_idx",
                                                    "text"]).materialize()
        with tr.span("dedup"):
            turns = dedup_exact(raw, ["conv_id", "turn_idx"],
                                sort_within=["text"]).materialize()
        with tr.span("extract"):
            extracted = turns.map_batches(
                filter_nonempty_text, batch_format="pyarrow",
                batch_size=BATCH).map_batches(
                extract_batch, batch_format="pyarrow",
                batch_size=BATCH).materialize()
        mentions = extracted.map_batches(mentions_table, batch_format="pyarrow")
        with tr.span("encode"):
            encoded = mentions.map_batches(
                HashingEncoder, fn_constructor_kwargs={"dim": DIM},
                batch_format="pyarrow", batch_size=BATCH,
                concurrency=1).materialize()
        with tr.span("canonicalize"):
            mapping = canonicalize.build_mapping(mentions).materialize()
        with tr.span("link_index"):
            mapping_df = mapping.to_pandas()
            index_ref = ray.put(build_link_index(mapping_df, dim=DIM))
        with tr.span("link"):
            linked = extracted.map_batches(
                triples_table, batch_format="pyarrow").map_batches(
                EntityLinker, fn_constructor_kwargs={"index_ref": index_ref,
                                                     "dim": DIM},
                batch_format="pyarrow", batch_size=BATCH,
                concurrency=1).materialize()
        with tr.span("edges"):
            edges = materialize.edges_from_linked(linked).materialize()
        with tr.span("nodes"):
            nodes = materialize.nodes_with_degree(
                mapping, edges.map_batches(materialize.partial_degrees,
                                           batch_format="pyarrow"),
                single_task=single_task).materialize()
        with tr.span("sinks"):
            edge_rows = edges.map_batches(materialize.prov_to_struct,
                                          batch_format="pyarrow")
            for name, table in zip(KG_TABLES, (encoded, linked, edge_rows,
                                               nodes)):
                with tr.span(f"sink.{name}"):
                    table.write_parquet(os.path.join(out_dir, name))

    # rows entering the edge exchange: edges_from_linked's two combiners
    partial_rows = linked.map_batches(
        materialize.partial_edges, batch_format="pyarrow",
        batch_size=131072).map_batches(
        materialize.recombine_edge_partials, batch_format="pyarrow",
        batch_size=1 << 17).count()
    n_raw, n_turns = raw.count(), turns.count()
    n_mentions, n_triples = encoded.count(), linked.count()
    sizes = checks.kg_bytes(out_dir)
    m.update({
        "read.rows_per_s": n_raw / tr.dur("read"),
        "dedup.rows_per_s": n_raw / tr.dur("dedup"),
        "dedup.rows_dropped": n_raw - n_turns,
        "extract.phase_s": tr.dur("extract"),
        "extract.mentions": n_mentions,
        "extract.triples": n_triples,
        "encode.phase_s": tr.dur("encode"),
        "canonicalize.mapping_s": tr.dur("canonicalize"),
        "canonicalize.entities": mapping_df["entity_id"].nunique(),
        "link.index_build_s": tr.dur("link_index"),
        "link.phase_s": tr.dur("link"),
        "materialize.edge_partial_rows": partial_rows,
        "materialize.edges_s": tr.dur("edges"),
        "materialize.nodes_s": tr.dur("nodes"),
        "materialize.edges": edges.count(),
        "materialize.nodes": nodes.count(),
        "sink.write_s": tr.dur("sinks"),
        **{f"sink.bytes.{t}": b for t, b in sizes.items()},
        "kg.staged_s": tr.dur("staged"),
    })
    pinned = pa.concat_tables(ray.get(turns.to_arrow_refs()))
    return m, pinned, index_ref


def kernels(tr: Tracer, turns, index_ref) -> dict:
    """Extract, encode and link kernels on pinned Arrow batches, in this
    process; the plain-Python oracle extractor as the baseline."""
    import pyarrow as pa

    from vectrain_ray import oracle
    from vectrain_ray.stages import extract as X
    from vectrain_ray.stages.encode import HashingEncoder
    from vectrain_ray.stages.link import EntityLinker

    batches = [pa.Table.from_batches([b]) for b in turns.to_batches(BATCH)]
    # the sentence memo is module state of the extract stage: cleared, so
    # its size afterwards counts the distinct sentences this input holds
    X._SENT_CACHE.clear()
    with tr.span("kernel.extract"):
        out = [X.extract_batch(X.filter_nonempty_text(b)) for b in batches]
    distinct = len(X._SENT_CACHE)
    X._SENT_CACHE.clear()
    candidates = sum(1 for text in turns["text"].to_pylist()
                     if text and text.strip()
                     for s in text.split(". ") if X._UPPER_RE.search(s))
    rows = turns.to_pylist()
    with tr.span("kernel.oracle"):
        oracle.extract_conversations(rows)
    mention_batches = [X.mentions_table(o) for o in out]
    triple_batches = [X.triples_table(o) for o in out]
    encoder = HashingEncoder(dim=DIM)
    with tr.span("kernel.encode"):
        for b in mention_batches:
            encoder(b)
    linker = EntityLinker(index_ref, dim=DIM)
    with tr.span("kernel.link"):
        for b in triple_batches:
            linker(b)
    n_mentions = sum(b.num_rows for b in mention_batches)
    n_triples = sum(b.num_rows for b in triple_batches)
    return {
        "extract.kernel_turns_per_s": turns.num_rows / tr.dur("kernel.extract"),
        "extract.oracle_turns_per_s": len(rows) / tr.dur("kernel.oracle"),
        "extract.memo_hit_ratio": 1 - distinct / candidates if candidates else 0,
        "encode.kernel_rows_per_s": n_mentions / tr.dur("kernel.encode"),
        "link.kernel_rows_per_s": n_triples / tr.dur("kernel.link"),
    }


def kg_round(session, tr: Tracer, in_dir: str, truth,
             single_task: bool) -> dict:
    """Staged layers, the fused build and the kernels over one input."""
    from vectrain_ray.pipelines.kg import run_kg

    ops = session.ops
    work = os.path.join(session.work, "traced")
    staged_dir, fused_dir = (os.path.join(work, d) for d in ("staged", "fused"))
    for d in (staged_dir, fused_dir):
        shutil.rmtree(d, ignore_errors=True)
    m: dict[str, float] = {}
    state: dict = {}

    def run_staged() -> list:
        layer, state["turns"], state["index"] = staged(tr, in_dir, staged_dir,
                                                        single_task)
        m.update(layer)
        kg = checks.read_kg(staged_dir)
        return checks.check_truth(kg, truth) + checks.check_conservation(kg)

    def run_fused() -> list:
        with tr.span("fused"):
            res = run_kg(in_dir, out_dir=fused_dir)
        m["kg.fused_s"] = tr.dur("fused")
        for p in KG_PHASES:
            m[f"kg.reported.{p}_s"] = res["timings"].get(p) or 0.0
        kg = checks.read_kg(fused_dir)
        return checks.check_truth(kg, truth) + checks.check_conservation(kg)

    def same_counts() -> list:
        a, b = checks.read_kg(staged_dir), checks.read_kg(fused_dir)
        return [f"staged_{t}_rows_equal_fused" for t in KG_TABLES
                if a[t].num_rows != b[t].num_rows]

    if ops.run("staged_build", run_staged):
        ops.run("fused_build", run_fused)
        ops.run("staged_equals_fused", same_counts)
        ops.run("kernels", lambda: m.update(
            kernels(tr, state["turns"], state["index"])))
    if "kg.fused_s" in m:
        m["kg.overlap_s"] = m["kg.staged_s"] - m["kg.fused_s"]
    n_turns = state["turns"].num_rows if "turns" in state else 0
    for layer, rows, kernel in (
            ("extract", n_turns, "extract.kernel_turns_per_s"),
            ("encode", m.get("extract.mentions", 0), "encode.kernel_rows_per_s"),
            ("link", m.get("extract.triples", 0), "link.kernel_rows_per_s")):
        if m.get(kernel) and m.get(f"{layer}.phase_s"):
            m[f"{layer}.exec_ratio"] = rows / m[f"{layer}.phase_s"] / m[kernel]
    return m


def kg(session, args, tr: Tracer, corpus_fn, single_task: bool) -> list[dict]:
    in_dir = os.path.join(session.work, "in")
    window = workloads.Window(args.seconds)
    rounds: list[dict] = []
    while not rounds or window.more():
        corpus = corpus_fn(args.seed, len(rounds))
        shutil.rmtree(in_dir, ignore_errors=True)
        gen.write_partitioned(corpus.table, in_dir, files=8)
        rounds.append(kg_round(session, tr, in_dir, corpus.truth, single_task))
    return rounds


def stream_trickle(session, args, tr: Tracer) -> list[dict]:
    s = workloads.StreamSession(session, args.seed)
    out_dir = os.path.join(session.work, "stream")
    window = workloads.Window(args.seconds)
    rounds: list[dict] = []
    while not rounds or window.more():
        r = len(rounds)
        m: dict[str, float] = {"stream.parts_rerun": 0}
        ingest: list[float] = []
        with tr.span("stream.ingest"):
            session.ops.run("ingest", lambda: s.ingest(r, out_dir, ingest))
        m["stream.ingest_poll_s"] = median(ingest)
        for k in range(workloads.APPENDS):
            walls: list[float] = []

            def append() -> list:
                bad, poll = s.append(r, k, out_dir, walls)
                m["stream.parts_rerun"] += (s.driver.num_parts
                                            - poll["skipped_p1"])
                return bad

            with tr.span(f"stream.append.{k + 1}"):
                session.ops.run("append", append)
            m[f"stream.append_poll_s.{k + 1}"] = median(walls)
        m["stream.shard_files"] = len(glob.glob(
            os.path.join(out_dir, "shards", "**", "*.parquet"), recursive=True))
        rounds.append(m)
    # the landing set now holds the last round's arrivals as well
    rounds[-1].update(kg_round(session, tr, s.landing, s.truth, single_task=True))
    session.ops.run("one_shot_equal", lambda: checks.check_same_graph(
        checks.read_kg(out_dir),
        checks.read_kg(os.path.join(session.work, "traced", "fused"))))
    return rounds


def registry_mix(session, args, tr: Tracer) -> list[dict]:
    reg = workloads.Registry(session, args.seed)
    window = workloads.Window(args.seconds)
    rounds: list[dict] = []
    while not rounds or window.more():
        walls: dict[str, float] = {}
        m: dict[str, float] = {}
        for name, _ in REGISTRY_OPS:
            def op() -> list:
                with tr.span(f"registry.{name}"):
                    bad = reg.op(name, walls)
                m[f"registry.{name}_s"] = walls[name]
                m[f"registry.{name}.rows"] = reg.result_rows[name]
                return bad

            session.ops.run(name, op)
        rounds.append(m)
    return rounds


def run(session, args) -> dict:
    tr = Tracer()
    if args.workload == "kg_wide":
        rounds = kg(session, args, tr, gen.wide_corpus, False)
    elif args.workload == "stream_trickle":
        rounds = stream_trickle(session, args, tr)
    else:
        rounds = registry_mix(session, args, tr)
    metrics = {name: (median([r[name] for r in rounds if name in r]), unit)
               for name, unit in LAYER_METRICS.items()}
    for name, value in session.timings.items():
        metrics[name] = (value, "s")
    path = os.path.join(os.path.dirname(session.work),
                        f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"spans": tr.spans,
                   "counts": {k: v for k, (v, _) in metrics.items()}}, f)
    return metrics
