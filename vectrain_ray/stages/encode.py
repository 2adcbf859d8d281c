"""Stage 2 — the stateful embedding encoder.

Recast of the reference's embedder stage (E1/E2): there, N goroutines each
POST one text at a time to an external Ollama server
(internal/app/embedders/ollama/embed_message.go:14-65, worker pool
internal/app/pipeline/pipeline.go:242-273). Here the model state lives in
one encoder per worker process — built once in ``__init__`` and cached by
``encode_batch_task`` — and ``__call__`` embeds a whole Arrow batch
vectorized, as plain tasks:

    ds.map_batches(encode_batch_task, fn_kwargs={"dim": dim},
                   batch_size=B, batch_format="pyarrow")

Error semantics made explicit (the reference parses a
``skip_embedder_errors`` knob but never reads it — internal/config/config.go:24):
rows that cannot be encoded get a dead-letter ``encode_err`` column instead of
an embedding; ``Vector`` xor ``Err`` exactly as pipeline.go:259-264, but
filterable before any sink.

The encoder itself is a deterministic feature-hashing projection (no model
downloads in this sandbox): each lowercased ``[a-z0-9]+`` token's crc32 ``h``
adds 1 at dims ``h % dim`` and ``(h >> 7) % dim``; rows are L2-normalized.
A real model swaps in by replacing ``_encode_texts`` only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import rules


class HashingEncoder:
    """Callable-class actor for ``map_batches``. State built once per actor."""

    def __init__(self, dim: int = 64, text_col: str = "surface_form",
                 out_col: str = "embedding", max_memo: int = 2_000_000):
        self.dim = dim
        self.text_col = text_col
        self.out_col = out_col
        # surface → (vector, err) memo: mention surfaces are Zipf-heavy, so
        # each actor encodes a hot surface ONCE, not once per occurrence
        # (measured 3–4× on the full-KG encode branch). Bounded: beyond
        # max_memo entries new surfaces are computed but not retained.
        self.max_memo = max_memo
        self._memo: dict = {}

    def _encode_texts(self, texts: list) -> tuple[np.ndarray, list]:
        """texts → (n×dim float32 L2-normalized matrix, err list).

        Deterministic across processes: crc32 (not Python ``hash``, which
        is salted per process). Python lowercases each text (``İ`` → ``i``
        + U+0307, ``K`` → ``k``), so no A-Z is left and Arrow's split on
        ``[^a-z0-9]+`` yields the ``[A-Za-z0-9]+`` tokens of the lowered
        text; all tokens of the batch are hashed in one
        ``rules.crc32_array`` call."""
        n, d = len(texts), self.dim
        out = np.zeros((n, d), dtype=np.float32)
        errs = [None if t is not None and t.strip() else "empty_text"
                for t in texts]
        low = pa.array([t.lower() if e is None else None
                        for t, e in zip(texts, errs)], pa.string())
        toks = pc.split_pattern_regex(low, "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        keep = pc.greater(pc.binary_length(flat), 0)
        row = pc.list_parent_indices(toks).filter(keep).to_numpy()
        h = rules.crc32_array(flat.filter(keep))
        np.add.at(out, (row, h % d), 1.0)
        np.add.at(out, (row, (h >> 7) % d), 1.0)  # second probe: more spread
        # a text with no [a-z0-9] token ("!!!", "é") keeps a zero row and
        # err None: only None and blank texts are dead letters
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        np.divide(out, norms, out=out, where=norms > 0)
        return out, errs

    def __call__(self, batch: pa.Table) -> pa.Table:
        # encode each DISTINCT surface once, then fan the distinct rows
        # back out to the batch by dictionary index
        codes = pc.dictionary_encode(batch[self.text_col].combine_chunks(),
                                     null_encoding="encode")
        uniq = codes.dictionary.to_pylist()
        memo = self._memo
        missing = [t for t in uniq if t not in memo]
        fresh: dict = {}
        if missing:
            mat_m, errs_m = self._encode_texts(missing)
            fresh = {t: (mat_m[j], errs_m[j]) for j, t in enumerate(missing)}
            if len(memo) < self.max_memo:
                # never memoize TRANSIENT failures (model-server errors):
                # a cached dead-letter would poison every later occurrence
                # of that surface on this actor. empty_text is
                # deterministic → safe to cache.
                memo.update({t: v for t, v in fresh.items()
                             if v[1] is None or v[1] == "empty_text"})
        vecs = np.empty((len(uniq), self.dim), dtype=np.float32)
        errs: list = [None] * len(uniq)
        for j, t in enumerate(uniq):
            hit = memo.get(t)
            if hit is None:
                hit = fresh[t]
            vecs[j] = hit[0]
            errs[j] = hit[1]
        mat = vecs[codes.indices.to_numpy()]
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1), type=pa.float32()), self.dim
        )
        batch = batch.append_column(self.out_col, emb)
        batch = batch.append_column(
            "encode_err", pa.array(errs, pa.string()).take(codes.indices))
        return batch


def encode_texts(texts: list, dim: int = 64) -> np.ndarray:
    """Driver-side helper (e.g. embedding a small alias table before
    broadcast): same deterministic encoding as the actor."""
    enc = HashingEncoder(dim=dim)
    mat, _ = enc._encode_texts(texts)
    return mat


class OllamaEncoder(HashingEncoder):
    """Real-model adapter with the reference's wire shape: batched POST of
    texts to an embedding server (internal/app/embedders/ollama/
    embed_message.go:14-65 — there one text per request; here one request
    per BATCH, the N-goroutine pool becoming plain map tasks). Subclasses
    HashingEncoder so batching/memoization/dead-lettering are shared; only
    ``_encode_texts`` talks to the model.

    ``transport`` is injectable for tests (texts → list of vectors). The
    default transport uses stdlib urllib against ``endpoint`` — per-row
    failures become ``encode_err`` dead letters, exactly the reference's
    Vector-xor-Err contract (pipeline.go:259-264)."""

    def __init__(self, dim: int = 64, text_col: str = "surface_form",
                 out_col: str = "embedding", max_memo: int = 2_000_000,
                 endpoint: str = "http://localhost:11434/api/embed",
                 model: str = "nomic-embed-text", timeout_sec: float = 30.0,
                 transport=None):
        super().__init__(dim=dim, text_col=text_col, out_col=out_col,
                         max_memo=max_memo)
        self.endpoint = endpoint
        self.model = model
        self.timeout_sec = timeout_sec
        self.transport = transport or self._http_transport

    def _http_transport(self, texts: list) -> list:
        import json
        import urllib.request

        req = urllib.request.Request(
            self.endpoint,
            data=json.dumps({"model": self.model, "input": texts}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=self.timeout_sec) as resp:
            return json.load(resp)["embeddings"]

    def _encode_texts(self, texts: list) -> tuple[np.ndarray, list]:
        n = len(texts)
        out = np.zeros((n, self.dim), dtype=np.float32)
        errs: list = [None] * n
        live = [(i, t) for i, t in enumerate(texts)
                if t is not None and t.strip()]
        for i, _ in ((i, t) for i, t in enumerate(texts)
                     if t is None or not t.strip()):
            errs[i] = "empty_text"
        if live:
            try:
                vecs = self.transport([t for _, t in live])
                if len(vecs) != len(live):
                    # a truncated response (partial batch, proxy cutoff)
                    # must dead-letter, not silently leave zero vectors
                    # with errs=None — that would break Vector-xor-Err AND
                    # poison the per-actor memo with fake encodings
                    raise ValueError(
                        f"embedding server returned {len(vecs)} vectors "
                        f"for {len(live)} inputs")
                for (i, _), v in zip(live, vecs):
                    out[i] = np.asarray(v, dtype=np.float32)[: self.dim]
            except Exception as exc:  # noqa: BLE001 — dead-letter, don't kill
                for i, _ in live:
                    errs[i] = f"embed_error: {exc}"
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        np.divide(out, norms, out=out, where=norms > 0)
        return out, errs


# Config-selectable encoder registry — the reference's component factory
# (internal/app/factory/factory.go:23-30) for embedders. A new encoder is
# one class + one entry; EncoderSpec.kind selects it.
ENCODERS: dict[str, type] = {
    "hashing": HashingEncoder,
    "ollama": OllamaEncoder,
}


# --- plain tasks ------------------------------------------------------------
# One encoder instance per WORKER PROCESS, keyed by config: Ray reuses
# worker processes, so the per-instance surface memo keeps paying off
# across tasks, and a task holds no CPU between batches, so the stages
# feeding it always get a slot.
_TASK_ENCODER_CACHE: dict = {}


def encode_batch_task(batch, kind: str = "hashing", **kwargs):
    """``batch`` encoded by this worker's cached ``ENCODERS[kind](**kwargs)``,
    built on the first call with that config."""
    key = (kind, tuple(sorted(kwargs.items())))
    enc = _TASK_ENCODER_CACHE.get(key)
    if enc is None:
        _TASK_ENCODER_CACHE.clear()  # one live encoder config per worker
        enc = ENCODERS[kind](**kwargs)
        _TASK_ENCODER_CACHE[key] = enc
    return enc(batch)
