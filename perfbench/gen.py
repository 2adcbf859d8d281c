"""Seeded input generators for the benchmark, with planted truth.

Nothing here imports the engine: the engine sees only the Parquet files
written below, and the checks compare its outputs with the truth planted
here. Each text template is built so that the engine's rule-book
(capitalised-token mentions, a fixed predicate list, corporate suffixes
dropped when entities merge) yields exactly the planted mentions and
triples:

* entity tokens are capitalised consonant-vowel words of five letters
  (``Bakor``), which can be neither a sentence stopword nor a corporate
  suffix;
* every other word is lowercase and no lowercase word is a predicate;
* an organisation is a stem plus an optional suffix (``Bakor Corp``,
  ``Bakor Inc``): the aliases of one stem merge into one entity.
"""

from __future__ import annotations

import os
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PREDICATES = ("works at", "worked at", "reports to", "married to",
              "located in", "born in", "part of", "founded", "acquired",
              "created", "develops", "uses", "owns", "leads", "joined",
              "visited", "met")
ORG_SUFFIXES = ("Corp", "Inc", "Ltd", "")
FILLER = ("let me check that for you", "here is what i found so far",
          "could you clarify the request", "running the analysis now",
          "that looks correct to me", "the results are attached below")
_CONS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_BASE_TS = 1_700_000_000_000_000  # µs

TRANSCRIPT_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])


@dataclass
class Truth:
    """What the engine must produce from a corpus: one entry per kept
    (conv_id, turn_idx) — re-sends and empty turns contribute nothing."""

    triples: Counter = field(default_factory=Counter)  # (conv, turn, s, p, o)
    mentions: int = 0
    entities: set = field(default_factory=set)  # merge keys

    def add(self, other: "Truth") -> None:
        self.triples.update(other.triples)
        self.mentions += other.mentions
        self.entities |= other.entities


@dataclass
class Corpus:
    table: pa.Table
    truth: Truth
    distinct_sentences: int
    resent_rows: int


def _tokens(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct capitalised CVCVC words."""
    c = np.array(list(_CONS))
    v = np.array(list(_VOWELS))
    out: set[str] = set()
    while len(out) < n:
        k = 2 * (n - len(out)) + 16
        parts = [c[rng.integers(0, len(c), k)], v[rng.integers(0, len(v), k)],
                 c[rng.integers(0, len(c), k)], v[rng.integers(0, len(v), k)],
                 c[rng.integers(0, len(c), k)]]
        for w in map("".join, zip(*parts)):
            out.add(w.capitalize())
            if len(out) == n:
                break
    return sorted(out)


class Vocab:
    """People (two tokens), organisation stems and places (one token each),
    drawn from disjoint token pools so no two kinds share a merge key."""

    def __init__(self, rng: np.random.Generator, people: int, orgs: int,
                 places: int, zipf: float | None):
        first_n = max(8, int(np.sqrt(people)) + 1)
        toks = _tokens(rng, 2 * first_n + orgs + places)
        firsts, lasts = toks[:first_n], toks[first_n:2 * first_n]
        pairs = rng.permutation(first_n * first_n)[:people]
        self.people = [f"{firsts[p // first_n]} {lasts[p % first_n]}"
                       for p in pairs]
        self.orgs = list(rng.permutation(toks[2 * first_n:2 * first_n + orgs]))
        self.places = list(rng.permutation(toks[2 * first_n + orgs:]))
        self.zipf = zipf

    def _pick(self, rng, items: list[str]) -> str:
        if self.zipf is None:
            return items[rng.integers(0, len(items))]
        return items[min(len(items), int(rng.zipf(self.zipf))) - 1]

    def entity(self, rng) -> tuple[str, str]:
        """(surface, merge key) of a person or an organisation."""
        if rng.random() < 0.5:
            p = self._pick(rng, self.people)
            return p, p.lower()
        stem = self._pick(rng, self.orgs)
        suf = ORG_SUFFIXES[rng.integers(0, len(ORG_SUFFIXES))]
        return f"{stem} {suf}".strip(), stem.lower()

    def place(self, rng) -> tuple[str, str]:
        p = self._pick(rng, self.places)
        return p, p.lower()


def _turn(rng, vocab: Vocab, conv: str, turn: int, tag: bool,
          truth: Truth) -> str:
    """One non-empty turn's text; its mentions and triples go to ``truth``.
    ``tag`` appends a unique lowercase word to every sentence, so no
    sentence repeats anywhere in the corpus."""
    r = rng.random()
    sents: list[str] = []
    if r < 0.55:
        for _ in range(1 + int(rng.random() < 0.3)):
            subj, sk = vocab.entity(rng)
            obj, ok = (vocab.entity(rng) if rng.random() < 0.6
                       else vocab.place(rng))
            if obj == subj:
                obj, ok = vocab.place(rng)
            pred = PREDICATES[rng.integers(0, len(PREDICATES))]
            sents.append(f"{subj} {pred} {obj}")
            truth.triples[(conv, turn, subj, pred.replace(" ", "_"), obj)] += 1
            truth.mentions += 2
            truth.entities.update((sk, ok))
    elif r < 0.8:
        ent, ek = vocab.entity(rng)
        sents.append(f"tell me more about {ent}")
        truth.mentions += 1
        truth.entities.add(ek)
    else:
        sents.append(FILLER[rng.integers(0, len(FILLER))])
    if tag:
        sents = [f"{s} ref {zlib.crc32(f'{conv}|{turn}|{i}'.encode()):08x}"
                 for i, s in enumerate(sents)]
    return ". ".join(sents) + "."


def transcripts(seed: int, convs: int, turns: int, vocab: Vocab,
                tag: bool, prefix: str = "c", empty: float = 0.03,
                resend: float = 0.03) -> Corpus:
    """``convs`` conversations of ``turns // 2`` to ``3 * turns // 2`` turns.
    A share ``empty`` of turns is blank and a share ``resend`` is sent
    twice, the copy appended at the end of its conversation."""
    rng = np.random.default_rng([seed, zlib.crc32(prefix.encode())])
    truth = Truth()
    cols: dict[str, list] = {k: [] for k in TRANSCRIPT_SCHEMA.names}
    resent = 0
    for c in range(convs):
        conv = f"{prefix}{seed}-{c:06d}"
        n = int(rng.integers(turns // 2, 3 * turns // 2 + 1))
        rows = []
        for t in range(n):
            if rng.random() < empty:
                text = "" if rng.random() < 0.5 else "   "
            else:
                text = _turn(rng, vocab, conv, t, tag, truth)
            role = "user" if t % 2 == 0 else "assistant"
            rows.append((conv, t, role, text, None, _BASE_TS + c * 10**7 + t))
        dups = [row for row in rows if rng.random() < resend]
        resent += len(dups)
        for row in rows + dups:
            for k, v in zip(TRANSCRIPT_SCHEMA.names, row):
                cols[k].append(v)
    table = pa.table(
        {k: pa.array(cols[k], TRANSCRIPT_SCHEMA.field(k).type)
         if k != "ts" else pa.array(cols[k], pa.int64()).cast(pa.timestamp("us"))
         for k in TRANSCRIPT_SCHEMA.names},
        schema=TRANSCRIPT_SCHEMA)
    sentences = {s for text in cols["text"] for s in text.split(". ")
                 if any(ch.isupper() for ch in s)}
    return Corpus(table, truth, len(sentences), resent)


def write_partitioned(table: pa.Table, out_dir: str, files: int) -> list[str]:
    """One Parquet file per crc32(conv_id) bucket: a conversation and its
    re-sends never span files."""
    os.makedirs(out_dir, exist_ok=True)
    part = np.array([zlib.crc32(c.encode()) % files
                     for c in table["conv_id"].to_pylist()])
    paths = []
    for k in range(files):
        p = os.path.join(out_dir, f"part-{k:05d}.parquet")
        pq.write_table(table.filter(pa.array(part == k)), p)
        paths.append(p)
    return paths


# --- the workloads' corpora -----------------------------------------------
# Every round of a workload builds a fresh corpus from (seed, round): no
# round reuses the sentences or entity names of an earlier one, so worker
# memos warmed by one round give the next no head start.
def wide_corpus(seed: int, rnd: int) -> Corpus:
    """Every sentence unique and entities drawn uniformly from a large
    vocabulary, so most entities are distinct."""
    vocab = Vocab(np.random.default_rng([seed, rnd, 2]), people=120_000,
                  orgs=40_000, places=2_000, zipf=None)
    return transcripts(seed * 1000 + rnd, convs=800, turns=16, vocab=vocab,
                       tag=True)


def _stream_vocab(seed: int, rnd: int) -> Vocab:
    return Vocab(np.random.default_rng([seed, rnd, 3]), people=400, orgs=200,
                 places=40, zipf=1.2)


def stream_base(seed: int, rnd: int) -> Corpus:
    """The landing set a stream session ingests cold."""
    return transcripts(seed * 1000 + rnd, convs=500, turns=16, tag=False,
                       vocab=_stream_vocab(seed, rnd), prefix="s")


def stream_arrival(seed: int, rnd: int, k: int) -> Corpus:
    """The ``k``-th single conversation that lands after the cold ingest."""
    return transcripts((seed * 1000 + rnd) * 100 + k, convs=1, turns=16,
                       tag=False, vocab=_stream_vocab(seed, rnd),
                       prefix="late")


# --- registry tables ------------------------------------------------------
def registry_tables(seed: int, out_dir: str) -> dict[str, int]:
    """TPC-H-like tables for the registry operators, written as
    ``<out_dir>/<table>.parquet``; returns row counts. Every float is a
    multiple of 1/4, so sums are exact in any order and the engine and
    DuckDB round them identically."""
    rng = np.random.default_rng([seed, 4])
    os.makedirs(out_dir, exist_ok=True)
    n_ev, n_li, n_ord, n_cust, n_doc = 60_000, 60_000, 15_000, 1_500, 3_000

    def quarter(lo: int, hi: int, n: int) -> np.ndarray:
        return rng.integers(lo * 4, hi * 4, n) / 4.0

    ts0 = np.datetime64("2024-01-01T00:00:00", "us")
    tables = {
        "events": pa.table({
            "event_id": pa.array(np.arange(n_ev, dtype=np.int64)),
            "ts": pa.array(ts0 + np.sort(rng.integers(0, 14 * 86400, n_ev))
                           .astype("timedelta64[s]").astype("timedelta64[us]")),
            "user_id": pa.array(rng.integers(0, 2_000, n_ev, dtype=np.int64)),
            "event_type": pa.array(np.array(
                ["view", "click", "cart", "buy", "share"])[
                np.minimum(rng.zipf(1.6, n_ev), 5) - 1]),
            "value": pa.array(quarter(0, 500, n_ev)),
            "props": pa.array([None] * n_ev, pa.string()),
        }),
        "lineitem": pa.table({
            "l_orderkey": pa.array(rng.integers(0, n_ord, n_li, dtype=np.int64)),
            "l_partkey": pa.array(rng.integers(0, 2_000, n_li, dtype=np.int64)),
            "l_suppkey": pa.array(rng.integers(0, 100, n_li, dtype=np.int64)),
            "l_linenumber": pa.array(rng.integers(1, 8, n_li, dtype=np.int32)),
            "l_quantity": pa.array(rng.integers(1, 51, n_li).astype(np.float64)),
            "l_extendedprice": pa.array(quarter(100, 10_000, n_li)),
            "l_discount": pa.array(rng.choice([0.0, 0.25, 0.5], n_li)),
            "l_tax": pa.array(rng.choice([0.0, 0.25], n_li)),
            "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n_li)),
            "l_linestatus": pa.array(rng.choice(["F", "O"], n_li)),
            "l_shipdate": pa.array(ts0 + rng.integers(0, 700, n_li)
                                   .astype("timedelta64[D]").astype("timedelta64[us]")),
        }),
        "orders": pa.table({
            "o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, n_cust + 100, n_ord,
                                               dtype=np.int64)),
            "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n_ord)),
            "o_totalprice": pa.array(quarter(1_000, 400_000, n_ord)),
            "o_orderdate": pa.array(ts0 + rng.integers(0, 700, n_ord)
                                    .astype("timedelta64[D]").astype("timedelta64[us]")),
            "o_orderpriority": pa.array(rng.choice(["1-URGENT", "3-MEDIUM",
                                                    "5-LOW"], n_ord)),
        }),
        "customer": pa.table({
            "c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust, dtype=np.int32)),
            "c_acctbal": pa.array(quarter(-999, 9_999, n_cust)),
            "c_mktsegment": pa.array(rng.choice(
                ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                 "MACHINERY"], n_cust)),
        }),
    }
    words = np.array(_tokens(rng, 400))
    docs = [" ".join(w.lower() for w in words[rng.integers(0, 400, 12)])
            for _ in range(n_doc // 2)]
    # half the documents repeat an earlier one: exact-dedup has work to do
    docs += [docs[i] for i in rng.integers(0, len(docs), n_doc - len(docs))]
    tables["documents"] = pa.table({
        "doc_id": pa.array(np.arange(n_doc, dtype=np.int64)),
        "text": pa.array(docs),
        "lang": pa.array(["en"] * n_doc),
        "source": pa.array(rng.choice(["web", "book", "code"], n_doc)),
        "n_chars": pa.array(np.array([len(d) for d in docs], np.int64)),
    })
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return {name: t.num_rows for name, t in tables.items()}
