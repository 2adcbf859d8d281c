"""The extraction rule-book: the single source of truth for what a mention,
a predicate, a triple, and a canonical surface form ARE.

Both implementations — the plain-Python oracle (`vectrain_ray.oracle`, run per
conversation in turn order, the stand-in for "the reference's emitted triples")
and the distributed Ray stages (`vectrain_ray.stages.extract`) — are built from
these constants, so the P/R comparison measures whether distributed execution
(partitioning, batching, ordering) preserved the semantics.

Everything here is a pure function of the turn text: no wall-clock, no RNG —
required for the per-turn text-equality + P/R ≥ 0.95 invariants
(BASELINE.json north_rule).
"""

from __future__ import annotations

import hashlib
import re
import zlib

# --- sentences ------------------------------------------------------------
# Literal ". " split keeps the rule trivially mirror-able (incl. in SQL, where
# RE2 has no lookbehind). Deterministic, locale-free.
SENTENCE_SEP = ". "

# --- mentions -------------------------------------------------------------
# A mention is a maximal run of Capitalized tokens (letters/digits/underscore
# after the initial capital — identifiers like "NATION_3" count), e.g.
# "Alice Johnson", "Acme Corp". Single-word mentions are allowed.
MENTION_RE = re.compile(r"\b[A-Z][A-Za-z0-9_]*(?:[ ][A-Z][A-Za-z0-9_]*)*\b")

# Tokens that start sentences but are never entities on their own.
MENTION_STOPWORDS = frozenset(
    {"The", "A", "An", "It", "He", "She", "They", "We", "I", "You",
     "This", "That", "These", "Those", "There", "Then", "But", "And", "Or",
     "If", "In", "On", "At", "By", "For", "To", "Of", "As", "So", "Yes", "No",
     "Ok", "Okay", "Hello", "Hi", "Thanks", "Please"}
)

# --- predicates -----------------------------------------------------------
# Fixed relation vocabulary; longest-match-first so "works at" beats "works".
PREDICATES: tuple[str, ...] = (
    "works at",
    "worked at",
    "reports to",
    "married to",
    "located in",
    "born in",
    "part of",
    "founded",
    "acquired",
    "created",
    "develops",
    "uses",
    "owns",
    "leads",
    "joined",
    "visited",
    "met",
)

_PRED_ALTS = "|".join(re.escape(p) for p in sorted(PREDICATES, key=len, reverse=True))
PREDICATE_RE = re.compile(r"\b(" + _PRED_ALTS + r")\b")


def normalize_pred(p: str) -> str:
    return p.replace(" ", "_")


# --- surface normalization (canonicalization phase) ------------------------
_WS_RE = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[^\w\s]")
# Corporate suffixes dropped when forming the merge key → "Acme Corp" and
# "Acme Inc" canonicalize together (the near-dup rule union-find merges on).
CORP_SUFFIXES = frozenset({"inc", "corp", "ltd", "llc", "co", "company", "gmbh"})


def normalize_surface(s: str) -> str:
    """lowercase, strip punctuation, collapse whitespace."""
    return _WS_RE.sub(" ", _PUNCT_RE.sub("", s.lower())).strip()


def canonical_merge_key(norm: str) -> str:
    """Merge key for near-duplicate entity clustering (drop corp suffixes)."""
    toks = [t for t in norm.split(" ") if t not in CORP_SUFFIXES]
    return " ".join(toks) if toks else norm


# --- deterministic ids -----------------------------------------------------
def stable_id(*parts: object) -> str:
    """Deterministic 16-hex-char id. Replaces the reference's fresh
    `uuid.New()` per written point (qdrant/store.go:32, TODO store.go:45) —
    the root of its non-idempotent writes."""
    h = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode(), digest_size=8)
    return h.hexdigest()


def crc_bucket(s: str, n: int) -> int:
    """Stable partition assignment (conv_id → shard)."""
    return zlib.crc32(s.encode()) % n


# --- vectorized crc32 (the hot-path variant) -------------------------------
_CRC32_TABLE = None


def _crc32_table():
    import numpy as np

    global _CRC32_TABLE
    if _CRC32_TABLE is None:
        tab = np.empty(256, np.uint32)
        for i in range(256):
            c = i
            for _ in range(8):
                c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
            tab[i] = c
        _CRC32_TABLE = tab
    return _CRC32_TABLE


def crc32_array(arr):
    """``zlib.crc32`` of each string's UTF-8 bytes over an Arrow string
    array/chunked-array → uint32 numpy array (nulls hash as ""). Table-driven
    CRC-32 in numpy: rows are sorted longest first, so at byte position j
    the rows still running are a prefix of that order and advance together
    in one vector op. Memory is O(rows + bytes) whatever the longest string,
    and a batch of short keys (conv ids, norms, tokens) costs a handful of
    vector ops per byte position instead of one ``zlib.crc32`` call per
    row."""
    import numpy as np
    import pyarrow as _pa
    import pyarrow.compute as _pc

    a = _pc.fill_null(arr, "")
    if isinstance(a, _pa.ChunkedArray):
        a = a.combine_chunks()
    m = len(a)
    crc = np.full(m, 0xFFFFFFFF, np.uint32)
    if m:
        bufs = a.buffers()
        odt = np.int64 if _pa.types.is_large_string(a.type) else np.int32
        offsets = np.frombuffer(bufs[1], odt, count=m + 1 + a.offset)
        offsets = offsets[a.offset:].astype(np.int64)
        lens = offsets[1:] - offsets[:-1]
        maxlen = int(lens.max())
        if maxlen:
            data = np.frombuffer(bufs[2], np.uint8)
            order = np.argsort(-lens, kind="stable")
            pos = offsets[:-1][order]
            # running[j]: how many rows are longer than j bytes
            running = m - np.cumsum(np.bincount(lens, minlength=maxlen))
            c = crc[order]
            tab = _crc32_table()
            for j in range(maxlen):
                k = running[j]
                ck = c[:k]
                c[:k] = (ck >> np.uint32(8)) ^ tab[(ck ^ data[pos[:k] + j])
                                                   & np.uint32(0xFF)]
            crc[order] = c
    crc ^= np.uint32(0xFFFFFFFF)
    return crc


def crc_bucket_array(arr, n: int):
    """``crc_bucket`` over an Arrow string array/chunked-array → int32
    numpy array (nulls bucket as ""); bit-identical to the scalar path
    (tests/test_round5_ops.py asserts it)."""
    import numpy as np

    return (crc32_array(arr) % np.uint32(n)).astype(np.int32)


def extract_mentions(sentence: str):
    """All mentions in one sentence → list of (surface, start, end).

    Spans are offsets into the *sentence*. Single-token mentions that are
    stopwords are dropped; multi-token mentions keep leading stopword tokens
    trimmed (e.g. "The Acme Corp" → "Acme Corp").
    """
    out = []
    for m in MENTION_RE.finditer(sentence):
        surf, start = m.group(0), m.start()
        toks = surf.split(" ")
        # trim leading stopword tokens
        while toks and toks[0] in MENTION_STOPWORDS:
            start += len(toks[0]) + 1
            toks = toks[1:]
        if not toks:
            continue
        surf = " ".join(toks)
        out.append((surf, start, start + len(surf)))
    return out


def extract_triples_from_sentence(sentence: str, mentions=None):
    """(subj, pred, obj) triples in one sentence.

    Rule: for each predicate occurrence, subj = nearest mention ending at or
    before the predicate start, obj = nearest mention starting at or after the
    predicate end; both must exist, subj != obj. Pass precomputed
    ``mentions`` to avoid re-running the mention regex (the extractor
    computes them once per sentence anyway)."""
    if mentions is None:
        mentions = extract_mentions(sentence)
    if not mentions:
        return []
    out = []
    for pm in PREDICATE_RE.finditer(sentence):
        ps, pe = pm.start(), pm.end()
        subj = None
        for surf, s, e in mentions:
            if e <= ps:
                subj = surf
            else:
                break
        obj = None
        for surf, s, e in mentions:
            if s >= pe:
                obj = surf
                break
        if subj is not None and obj is not None and subj != obj:
            out.append((subj, normalize_pred(pm.group(1)), obj))
    return out
