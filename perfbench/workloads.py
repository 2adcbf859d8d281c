"""The three workloads, untraced: whole rounds of operations for ``--seconds``.

Rounds start until ``--seconds`` have passed and at least MIN_ROUNDS have
run, and the metrics are medians over them, so neither the first round of
a session, which starts actor pools in fresh worker processes, nor one
stalled round moves a metric. run.py adds set-up time and peak memory.

* ``kg_wide``: a round is one ``run_kg`` build with written outputs over
  the round's corpus. ``rows_per_s`` is input turns over the build's wall
  time and ``op_s`` the build's wall time.
* ``stream_trickle``: a round lands a fresh base set and ingests it cold into
  a fresh output directory, then APPENDS single-conversation files land one
  at a time, each followed by one poll (a closed loop: the next file lands
  when the previous poll returned). The first round is a warm-up and is
  not sampled. ``rows_per_s`` is the base set's turns over the ingest
  poll's wall time and ``op_s`` the append poll's.
* ``registry_mix``: a round is one pass over REGISTRY_OPS. ``rows_per_s`` is
  the rows of the tables the pass reads over the pass's wall time (the sum
  of its operators') and ``op_s`` that wall time.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import checks
import gen

APPENDS = 2
MIN_ROUNDS = 3
# a stream session's first round is the slowest (its ingest 30-50 % and its
# appends 10-20 % slower than later ones): it runs before the window and is
# not sampled. Stream polls are short and vary more than a build, so more
# rounds of them are sampled.
STREAM_WARMUP = 1
STREAM_MIN_ROUNDS = 4
# (operator, tables it reads): registry operators whose results DuckDB
# evaluates from ORACLE_SQL. Each builds its own plan from the tables and
# reads no module-level cache, so no operator warms another.
REGISTRY_OPS = (
    ("groupby_agg", ("lineitem",)),
    ("grouped_stats", ("lineitem",)),
    ("dedup_exact", ("documents",)),
    ("sessionize", ("events",)),
    ("window_tumbling", ("events",)),
    ("topk_per_group", ("events",)),
    ("count_distinct", ("events",)),
    ("latest_per_key", ("events",)),
    ("mode_per_group", ("events",)),
)


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


class Window:
    """Rounds start until ``seconds`` have passed since the first began."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = time.perf_counter()

    def more(self) -> bool:
        return time.perf_counter() - self.t0 < self.seconds


def repeat(seconds: float, one_round, warmup: int = 0,
           min_rounds: int = MIN_ROUNDS) -> dict[str, list]:
    """``warmup`` rounds whose samples are dropped, then rounds until
    ``seconds`` have passed and ``min_rounds`` more have run.
    ``one_round(r)`` returns the round's samples, {name: [values]}; they
    are pooled over the rounds after the warm-up."""
    for r in range(warmup):
        one_round(r)
    samples: dict[str, list] = {}
    window = Window(seconds)
    r = 0
    while r < min_rounds or window.more():
        for name, values in one_round(warmup + r).items():
            samples.setdefault(name, []).extend(values)
        r += 1
    return samples


def build_checked(in_dir: str, out_dir: str, truth, walls: list) -> list:
    """One ``run_kg`` build; its outputs checked against the truth."""
    from vectrain_ray.pipelines.kg import run_kg

    t0 = time.perf_counter()
    run_kg(in_dir, out_dir=out_dir)
    walls.append(time.perf_counter() - t0)
    kg = checks.read_kg(out_dir)
    return checks.check_truth(kg, truth) + checks.check_conservation(kg)


def kg(session, args, corpus_fn) -> dict:
    in_dir = os.path.join(session.work, "in")
    out_dir = os.path.join(session.work, "out")

    def one_round(r: int) -> dict:
        corpus = corpus_fn(args.seed, r)
        shutil.rmtree(in_dir, ignore_errors=True)
        gen.write_partitioned(corpus.table, in_dir, files=8)
        walls: list[float] = []
        if not session.ops.run("build", lambda: build_checked(
                in_dir, out_dir, corpus.truth, walls)):
            return {}
        return {"wall": walls, "rate": [corpus.table.num_rows / walls[0]]}

    samples = repeat(args.seconds, one_round)
    return {"rows_per_s": (median(samples.get("rate", [])), "rows/s"),
            "op_s": (median(samples.get("wall", [])), "s"),
            "out_bytes": (sum(checks.kg_bytes(out_dir).values()), "bytes")}


class StreamSession:
    """A landing directory and the StreamDriver rounds over it."""

    def __init__(self, session, seed: int):
        self.seed = seed
        self.landing = os.path.join(session.work, "landing")

    def ingest(self, r: int, out_dir: str, walls: list) -> list:
        from vectrain_ray.pipelines.stream import StreamDriver

        self.base = gen.stream_base(self.seed, r)
        shutil.rmtree(self.landing, ignore_errors=True)
        gen.write_partitioned(self.base.table, self.landing, files=8)
        self.truth = gen.Truth()
        self.truth.add(self.base.truth)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.driver = StreamDriver(self.landing, out_dir, num_parts=8,
                                   poll_sec=0.0)
        t0 = time.perf_counter()
        m = self.driver.poll_once()
        walls.append(time.perf_counter() - t0)
        bad = [] if m["rows_in"] == self.base.table.num_rows else ["rows_in"]
        return bad + self.check(out_dir)

    def append(self, r: int, k: int, out_dir: str,
               walls: list) -> tuple[list, dict]:
        conv = gen.stream_arrival(self.seed, r, k)
        gen.pq.write_table(conv.table, os.path.join(self.landing,
                                                    f"late-{k}.parquet"))
        self.truth.add(conv.truth)
        t0 = time.perf_counter()
        m = self.driver.poll_once()
        walls.append(time.perf_counter() - t0)
        bad = [] if m["new_files"] == 1 else ["new_files"]
        return bad + self.check(out_dir), m

    def check(self, out_dir: str) -> list:
        kg = checks.read_kg(out_dir)
        return checks.check_truth(kg, self.truth) + checks.check_conservation(kg)

    def check_one_shot(self, out_dir: str, one_shot_dir: str) -> list:
        """The stream's tables equal a one-shot build of the landing set."""
        bad = build_checked(self.landing, one_shot_dir, self.truth, [])
        return bad + checks.check_same_graph(checks.read_kg(out_dir),
                                             checks.read_kg(one_shot_dir))


def stream_trickle(session, args) -> dict:
    s = StreamSession(session, args.seed)
    out_dir = os.path.join(session.work, "stream")

    def one_round(r: int) -> dict:
        ingest: list[float] = []
        appends: list[float] = []
        if session.ops.run("ingest", lambda: s.ingest(r, out_dir, ingest)):
            rates = [s.base.table.num_rows / ingest[0]]
        else:
            rates = []
        for k in range(APPENDS):
            walls: list[float] = []
            if session.ops.run("append", lambda: s.append(r, k, out_dir,
                                                          walls)[0]):
                appends += walls
        return {"rate": rates, "append": appends}

    samples = repeat(args.seconds, one_round, warmup=STREAM_WARMUP,
                     min_rounds=STREAM_MIN_ROUNDS)
    out_bytes = sum(checks.kg_bytes(out_dir).values())
    session.ops.run("one_shot_equal", lambda: s.check_one_shot(
        out_dir, os.path.join(session.work, "one_shot")))
    return {"rows_per_s": (median(samples.get("rate", [])), "rows/s"),
            "op_s": (median(samples.get("append", [])), "s"),
            "out_bytes": (out_bytes, "bytes")}


class Registry:
    """Generated tables and the oracle's answers for them."""

    def __init__(self, session, seed: int):
        import duckdb
        from vectrain_ray.pipelines.queries import ORACLE_SQL, QUERIES

        self.dir = os.path.join(session.work, "tables")
        self.rows = gen.registry_tables(seed, self.dir)
        self.queries = QUERIES
        con = duckdb.connect()
        for t in self.rows:
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
                    f"'{os.path.join(self.dir, t)}.parquet')")
        self.want = {op: con.sql(ORACLE_SQL[op]).df() for op, _ in REGISTRY_OPS}
        con.close()
        self.result_rows: dict[str, int] = {}
        self.result_bytes: dict[str, int] = {}

    def op(self, name: str, walls: dict) -> list:
        t0 = time.perf_counter()
        res = self.queries[name](self.dir).materialize()
        walls[name] = time.perf_counter() - t0
        self.result_bytes[name] = res.size_bytes()
        got = res.to_pandas()
        self.result_rows[name] = len(got)
        return checks.check_frame(got, self.want[name])

    def input_rows(self) -> int:
        return sum(self.rows[t] for _, tables in REGISTRY_OPS for t in tables)


def registry_mix(session, args) -> dict:
    reg = Registry(session, args.seed)

    def one_round(r: int) -> dict:
        walls: dict[str, float] = {}
        ok = [session.ops.run(name, lambda: reg.op(name, walls))
              for name, _ in REGISTRY_OPS]
        return {"pass": [sum(walls.values())]} if all(ok) else {}

    passes = repeat(args.seconds, one_round).get("pass", [])
    wall = median(passes)
    return {"rows_per_s": (reg.input_rows() / wall if wall else 0.0, "rows/s"),
            "op_s": (wall, "s"),
            "out_bytes": (sum(reg.result_bytes.values()), "bytes")}


def run(session, args) -> dict:
    if args.workload == "kg_wide":
        return kg(session, args, gen.wide_corpus)
    if args.workload == "stream_trickle":
        return stream_trickle(session, args)
    return registry_mix(session, args)
