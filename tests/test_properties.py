"""Property-based tests (SURVEY.md §5): extraction/linking invariants under
arbitrary batching, partitioning and row order. Hypothesis generates random
transcripts; Ray work stays tiny (pure-function properties are checked
without Ray where possible)."""

import re
import zlib

import numpy as np
import pyarrow as pa
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vectrain_ray import oracle, rules
from vectrain_ray.stages.extract import extract_batch
from vectrain_ray.schema import TRANSCRIPT_SCHEMA

_WORDS = ["alice", "works", "at", "Acme", "Corp", "Bob", "visited", "Paris",
          "the", "and", "located", "in", "Globex", "Ltd", "tell", "me",
          "Helios", "Systems", "founded", "NATION_3", "C0000042", ""]


@st.composite
def transcripts(draw):
    n_convs = draw(st.integers(1, 4))
    rows = []
    for c in range(n_convs):
        n_turns = draw(st.integers(1, 6))
        for t in range(n_turns):
            n_words = draw(st.integers(0, 12))
            words = [draw(st.sampled_from(_WORDS)) for _ in range(n_words)]
            rows.append(
                {"conv_id": f"c{c}", "turn_idx": t, "role": "user",
                 "text": " ".join(words), "tool": None, "ts": 0}
            )
    return rows


def _table(rows):
    return pa.table(
        {
            "conv_id": pa.array([r["conv_id"] for r in rows], pa.string()),
            "turn_idx": pa.array([r["turn_idx"] for r in rows], pa.int32()),
            "role": pa.array([r["role"] for r in rows], pa.string()),
            "text": pa.array([r["text"] for r in rows], pa.string()),
            "tool": pa.array([r["tool"] for r in rows], pa.string()),
            "ts": pa.array([r["ts"] for r in rows], pa.int64()).cast(
                pa.timestamp("us")),
        },
        schema=TRANSCRIPT_SCHEMA,
    )


def _extract_rows(tbl):
    out = extract_batch(tbl)
    return sorted(
        (r["conv_id"], r["turn_idx"], r["kind"], r["row_id"], r["subj"],
         r["pred"], r["obj"], r["surface_form"])
        for r in out.to_pylist()
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(transcripts(), st.randoms())
def test_extraction_invariant_under_row_order(rows, rnd):
    base = _extract_rows(_table(rows))
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert _extract_rows(_table(shuffled)) == base


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(transcripts(), st.integers(1, 5))
def test_extraction_invariant_under_batch_split(rows, n_splits):
    base = _extract_rows(_table(rows))
    parts = [rows[i::n_splits] for i in range(n_splits)]
    merged = []
    for p in parts:
        if p:
            merged.extend(_extract_rows(_table(p)))
    assert sorted(merged) == base


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_extraction_total_on_arbitrary_text(text):
    """Never crashes; triples only reference extracted mentions."""
    mentions, triples = oracle.extract_turn(text)
    surfs = {m[0] for m in mentions}
    for s, p, o in triples:
        assert s in surfs and o in surfs
        assert p in {rules.normalize_pred(x) for x in rules.PREDICATES}


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=80))
def test_normalize_surface_idempotent(s):
    once = rules.normalize_surface(s)
    assert rules.normalize_surface(once) == once
    key = rules.canonical_merge_key(once)
    assert rules.canonical_merge_key(key) == key


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=30), min_size=1, max_size=8))
def test_encoder_deterministic_property(texts):
    from vectrain_ray.stages.encode import encode_texts

    import numpy as np

    a = encode_texts(texts, dim=16)
    b = encode_texts(texts, dim=16)
    np.testing.assert_array_equal(a, b)
    # permutation-equivariant
    rev = encode_texts(texts[::-1], dim=16)
    np.testing.assert_array_equal(rev[::-1], a)


_TOKEN = re.compile(r"[A-Za-z0-9]+")


def _scalar_encode(texts: list, dim: int):
    """The encoder's per-token reference: Python lower(), regex tokens,
    one zlib.crc32 per token, two probes, L2 rows. The Arrow path must
    reproduce it bit for bit."""
    out = np.zeros((len(texts), dim), dtype=np.float32)
    errs: list = [None] * len(texts)
    for i, t in enumerate(texts):
        if t is None or not t.strip():
            errs[i] = "empty_text"
            continue
        for tok in _TOKEN.findall(t.lower()):
            h = zlib.crc32(tok.encode())
            out[i, h % dim] += 1.0
            out[i, (h >> 7) % dim] += 1.0
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out, errs


# ASCII letters, digits and punctuation beside the characters where Python
# and Arrow part ways: ASCII control whitespace and Unicode spaces
# (str.strip removes them), and letters whose Python lowercase is ASCII
# only there (İ → i̇, K → k) or is not ASCII
_ENC_CHARS = st.sampled_from(list(
    "aZ09 !.-_\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x00\x85\xa0\u2028"
    "İıßΣKéÅ"))
_ENC_TEXT = st.one_of(st.none(), st.text(max_size=20),
                      st.text(_ENC_CHARS, max_size=20))


@settings(max_examples=150, deadline=None)
@given(st.lists(_ENC_TEXT, max_size=25))
@example([None, "", " \t", "\x0b\x0c\x1c\x1f", "!!!", "é", "İstanbul",
          "Acme, Corp.", "\x85x\xa0"])
def test_encoder_matches_scalar_reference(texts):
    """Every row the encoder gives, through _encode_texts and through a
    batch call (fan-out by dictionary code, memo warm on the second call),
    is byte-equal to the per-token reference, errors included. A text
    with no [a-z0-9] token ("!!!", "é") is a zero row with no error; only
    None and blank texts are dead letters."""
    from vectrain_ray.stages.encode import HashingEncoder

    want, want_errs = _scalar_encode(texts, 32)
    enc = HashingEncoder(dim=32)
    mat, errs = enc._encode_texts(texts)
    assert mat.tobytes() == want.tobytes() and errs == want_errs
    batch = pa.table({"surface_form": pa.array(texts + texts[::2],
                                                pa.string())})
    for _ in range(2):
        out = enc(batch)
        got = np.asarray(out["embedding"].combine_chunks().flatten(),
                         np.float32).reshape(-1, 32)
        assert got.tobytes() == np.concatenate([want, want[::2]]).tobytes()
        assert out["encode_err"].to_pylist() == want_errs + want_errs[::2]
    for t, row, err in zip(texts, mat, errs):
        no_token = t is None or not _TOKEN.search(t.lower())
        assert (err is not None) == (t is None or not t.strip())
        assert (not row.any()) == no_token


@given(st.integers(1, 200), st.integers(1, 12))
def test_ntile_assign_matches_row_by_row_definition(n, k):
    """SQL NTILE: sizes differ by at most 1, larger tiles first, tiles
    emitted in order — the vectorized formula must equal the naive fill."""
    import numpy as np

    from vectrain_ray.pipelines.queries import ntile_assign

    q, r = divmod(n, k)
    naive = []
    for tile in range(1, k + 1):
        size = q + 1 if tile <= r else q
        naive.extend([tile] * size)
    got = ntile_assign(np.arange(n), np.full(n, n), k)
    assert got.tolist() == naive
    if n >= k:  # every tile non-empty once there are enough rows
        assert set(naive) == set(range(1, k + 1))


@given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6))
def test_lev_le1_matches_dp(a, b):
    """_lev_le1 (the fuzzy-join verifier) equals full DP Levenshtein <= 1."""
    from vectrain_ray.pipelines.queries import _lev_le1

    la, lb = len(a), len(b)
    d = list(range(lb + 1))
    for i in range(1, la + 1):
        prev, d[0] = d[0], i
        for j in range(1, lb + 1):
            prev, d[j] = d[j], min(d[j] + 1, d[j - 1] + 1,
                                   prev + (a[i - 1] != b[j - 1]))
    assert _lev_le1(a, b) == (d[lb] <= 1)


@given(st.lists(st.lists(st.sampled_from(
    ["alpha", "Beta", "g7", "x", "Zz", ""]), min_size=0, max_size=150),
    min_size=1, max_size=8))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_chunk_tokens_kernel_properties(token_lists):
    """Chunker invariants for arbitrary token lists: the k-th chunk is
    exactly tokens[k*STEP : k*STEP+SIZE] (after the empty-token filter),
    the per-doc chunk count covers every token with the documented stride,
    and every token index is inside at least one chunk."""
    from vectrain_ray.pipelines.queries import (
        CHUNK_SIZE,
        CHUNK_STEP,
        _chunk_tokens_batch,
    )

    t = pa.table({
        "doc_id": pa.array(range(len(token_lists)), pa.int64()),
        "text": pa.array([" ".join(ws) for ws in token_lists]),
    })
    out = _chunk_tokens_batch(t).to_pylist()
    by_doc: dict[int, list] = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert set(by_doc) == set(range(len(token_lists)))  # every doc chunks
    for doc_id, ws in enumerate(token_lists):
        toks = [w.lower() for w in ws if w]  # the oracle-locked tokenizer
        rows = sorted(by_doc[doc_id], key=lambda r: r["chunk_idx"])
        # chunk count rule: k ranges over {0} ∪ {k : k*STEP < len(toks)}
        # (the kernel emits a trailing chunk even when it is fully inside
        # the previous window — matching the SQL generate_series mirror)
        n_by_rule = 1 + sum(1 for k in range(1, len(toks))
                            if len(toks) > k * CHUNK_STEP)
        assert len(rows) == n_by_rule
        for r in rows:
            k = r["chunk_idx"]
            want = toks[k * CHUNK_STEP: k * CHUNK_STEP + CHUNK_SIZE]
            assert r["chunk_text"] == " ".join(want)
            assert r["n_tokens"] == len(want)
        # coverage: every token index lies in some chunk's window
        covered = set()
        for r in rows:
            k = r["chunk_idx"]
            covered.update(range(k * CHUNK_STEP,
                                 k * CHUNK_STEP + r["n_tokens"]))
        assert covered == set(range(len(toks)))


@given(st.text(min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_char_shingles_match_duckdb_substr(t):
    """The oracle-locked 5-char shingle rule (_char_shingles) must equal
    DuckDB's DISTINCT substr(t, i, 5) on arbitrary unicode text — substr
    and Python slicing must both count CODEPOINTS, and the <5-char
    whole-text rule must match the oracle's UNION branch. lower() is
    applied through DuckDB on both sides so the property isolates the
    shingle rule (case-folding parity is the oracle gate's job)."""
    import duckdb

    from vectrain_ray.pipelines.queries import _char_shingles

    con = duckdb.connect()
    lowered = con.execute("SELECT lower($1)", [t]).fetchone()[0]
    want = {r[0] for r in con.execute(
        "SELECT DISTINCT substr(lower($1), i, 5) FROM "
        "(SELECT unnest(generate_series(1, len(lower($1)) - 4)) AS i) "
        "WHERE len(lower($1)) >= 5 "
        "UNION SELECT lower($1) WHERE len(lower($1)) > 0 "
        "AND len(lower($1)) < 5", [t]).fetchall()}
    assert _char_shingles(lowered) == want
