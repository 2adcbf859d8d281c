"""Dedup suite, similarity search, text ops, wire-record ops, multimodal
plumbing."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from vectrain_ray.functions import textops
from vectrain_ray.functions.dedup import (
    dedup_minhash,
    hamming64,
    minhash_candidate_pairs,
    ngram_jaccard,
    simhash64,
    simhash_candidate_pairs,
)
from vectrain_ray.functions.dedup_exact import dedup_exact
from vectrain_ray.functions.multimodal import (
    AudioFeaturizer,
    ImageDecoder,
    VideoFrameSampler,
    make_fake_media_table,
)
from vectrain_ray.functions.similarity import (
    neardup_pairs_cosine,
    topk_cosine,
    topk_cosine_ivf,
    train_centroids,
)
from vectrain_ray.sources import wire


def _docs():
    texts = [
        "the quick brown fox jumps over the lazy dog and runs away fast",
        "the quick brown fox jumps over the lazy dog and runs away fast!",
        "completely different text about machine learning models and data",
        "another unrelated document discussing cooking recipes and food",
    ]
    return rd.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                  "text": pa.array(texts)})
    )


# --- exact dedup ----------------------------------------------------------
def test_dedup_exact_keeps_min():
    t = pa.table({"k": pa.array(["a", "a", "b", "a"]),
                  "v": pa.array([3, 1, 9, 2], pa.int64())})
    out = dedup_exact(rd.from_arrow(t), ["k"], sort_within=["v"]).take_all()
    assert sorted((r["k"], r["v"]) for r in out) == [("a", 1), ("b", 9)]


# --- minhash --------------------------------------------------------------
def test_minhash_clusters_near_dups():
    out = dedup_minhash(_docs()).take_all()
    got = {r["doc_id"]: (r["cluster_id"], r["is_keeper"]) for r in out}
    assert got[1] == (1, True)
    assert got[2] == (1, False)
    assert got[3] == (3, True) and got[4] == (4, True)


def test_minhash_distributed_cluster_path_matches_broadcast():
    """driver_pairs_max=0 forces the connected-components assignment path;
    its rows must equal the driver union-find path exactly (both dtypes)."""
    import pandas as pd

    for docs in (_docs(), None):
        if docs is None:  # string-id corpus
            base = "the quick brown fox jumps over the lazy dog " * 6
            docs = rd.from_arrow(pa.table({
                "doc_id": pa.array([f"d{i}" for i in range(5)]),
                "text": pa.array([base, base + "!", base + "?",
                                  "unrelated text one", "other text two"]),
            }))
        b = dedup_minhash(docs).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        d = dedup_minhash(docs, driver_pairs_max=0).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(b, d)


def test_minhash_candidates_deterministic():
    a = sorted((r["id_a"], r["id_b"])
               for r in minhash_candidate_pairs(_docs()).take_all())
    b = sorted((r["id_a"], r["id_b"])
               for r in minhash_candidate_pairs(_docs()).take_all())
    assert a == b and (1, 2) in a


def test_worker_state_ships_by_reference_and_keeps_one_value_per_name():
    """``worker_state`` is the one per-worker cache of the plain map tasks.
    A nested transform that calls it cloudpickles without the cache's
    contents, even with a DRIVER-side DuckDB connection parked there (the
    old nested ``simhash_batch`` failure); a second ref under the same
    name replaces the first value instead of adding a second."""
    import duckdb
    from ray import cloudpickle

    from vectrain_ray.functions import dedup
    from vectrain_ray.functions.dedup import worker_state

    names = ("test_duck", "test_marker", "test_ref")
    try:
        worker_state("test_duck", None, lambda _: duckdb.connect())
        worker_state("test_marker", None, lambda _: "parked-marker-7f3a")
        ref = ray.put(np.arange(3))

        def nested(t):
            return worker_state("test_ref", ref)

        blob = cloudpickle.dumps(nested)  # a DuckDB connection would raise
        assert b"parked-marker-7f3a" not in blob

        built = []

        def build(key):
            built.append(key)
            return ray.get(key)

        r1, r2 = ray.put([1, 2]), ray.put([3])
        assert worker_state("test_ref", r1, build) == [1, 2]
        assert worker_state("test_ref", r1, build) == [1, 2]
        assert built == [r1]  # built once per ref
        assert worker_state("test_ref", r2, build) == [3]
        assert built == [r1, r2]
        assert dedup._STAGE_CACHE["test_ref"] == (r2, [3])  # replaced
        assert worker_state("test_ref", r1) == [1, 2]  # default: ray.get
    finally:
        for n in names:
            dedup._STAGE_CACHE.pop(n, None)


def test_ngram_jaccard_bounds():
    assert ngram_jaccard("abcdefgh", "abcdefgh") == 1.0
    assert ngram_jaccard("abcdefgh", "zzzzzzzz") == 0.0
    assert ngram_jaccard("", "") == 1.0
    assert 0 < ngram_jaccard("abcdefghij", "abcdefghXX") < 1


# --- simhash --------------------------------------------------------------
def test_simhash_identical_tokens_zero_hamming():
    a = simhash64("alpha beta gamma delta")
    b = simhash64("alpha beta gamma delta")
    assert hamming64(a, b) == 0
    c = simhash64("alpha beta gamma echo")
    assert 0 < hamming64(a, c) <= 64


def test_simhash_pairs_finds_token_identical_docs():
    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array(["alpha beta gamma delta",
                                    "alpha  beta gamma delta",
                                    "totally different words here now"])})
    out = simhash_candidate_pairs(rd.from_arrow(t)).take_all()
    assert [(r["id_a"], r["id_b"], r["hamming"]) for r in out] == [(1, 2, 0)]


# --- similarity -----------------------------------------------------------
@pytest.fixture(scope="module")
def emb_ds():
    rng = np.random.RandomState(0)
    mat = rng.rand(300, 16)
    mat[7] = mat[3] + 1e-5
    ds = rd.from_arrow(
        pa.table({"vec_id": pa.array(range(300), pa.int64()),
                  "embedding": pa.array(mat.tolist(), pa.list_(pa.float32()))})
    ).materialize()
    return ds, mat


def test_topk_cosine_exact(emb_ds):
    ds, mat = emb_ds
    top = topk_cosine(ds, mat[3], k=5).take_all()
    ids = [r["vec_id"] for r in top]
    assert set(ids[:2]) == {3, 7}
    scores = [r["score"] for r in top]
    assert scores == sorted(scores, reverse=True)
    # brute-force verify top-5 against numpy
    m = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    q = mat[3] / np.linalg.norm(mat[3])
    exp = np.argsort(-(m @ q), kind="stable")[:5]
    assert set(ids) == set(int(i) for i in exp)


def test_neardup_pairs_cosine(emb_ds):
    ds, _ = emb_ds
    pairs = neardup_pairs_cosine(ds, dim=16, threshold=0.999999).take_all()
    assert [(r["id_a"], r["id_b"]) for r in pairs] == [(3, 7)]


def test_neardup_pairs_cosine_pairs_only_within_an_lsh_bucket():
    """One input block holds many LSH buckets, so the exchange hands one
    finisher call several of them: pairs must still come from within one
    bucket, as a brute-force pass per bucket finds them."""
    from vectrain_ray.functions.similarity import hyperplanes, lsh_bucket

    rng = np.random.default_rng(5)
    base = rng.standard_normal((30, 16))
    mat = np.repeat(base, 4, axis=0) + 0.08 * rng.standard_normal((120, 16))
    t = pa.table({"vec_id": pa.array(np.arange(120), pa.int64()),
                  "embedding": pa.array(list(mat.astype(np.float32)),
                                        pa.list_(pa.float32()))})
    got = {(r["id_a"], r["id_b"]) for r in neardup_pairs_cosine(
        rd.from_arrow(t), dim=16, threshold=0.95).take_all()}

    bucket = lsh_bucket(t, hyperplanes(16, 12))["bucket"].to_numpy()
    unit = mat.astype(np.float32).astype(np.float64)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    close = {(i, j) for i, j in zip(*np.where(np.triu(
        unit @ unit.T >= 0.95, k=1)))}
    want = {(i, j) for i, j in close if bucket[i] == bucket[j]}
    assert len(set(bucket)) > 10 and want != close  # buckets do split pairs
    assert got == want


def test_ivf_recall_on_probed_cells(emb_ds):
    ds, mat = emb_ds
    cents_ref = ray.put(train_centroids(mat, n_centroids=8))
    top = topk_cosine_ivf(ds, mat[3], cents_ref, k=3, n_probe=8).take_all()
    # probing ALL cells == exact
    assert set(r["vec_id"] for r in top[:2]) == {3, 7}


# --- wire-record ops (reference T1–T5) ------------------------------------
def test_wire_backfill_and_filter():
    t = pa.table({"id": pa.array(["", "x", None]),
                  "uuid": pa.array(["u1", "u2", "u3"]),
                  "text": pa.array(["hello", "  ", "world"])})
    out = wire.backfill_id(t)
    assert out["id"].to_pylist() == ["u1", "x", "u3"]
    kept = wire.filter_nonempty(out)
    assert kept["uuid"].to_pylist() == ["u1", "u3"]


def test_wire_typed_projection_zero_values():
    t = pa.table({"title": pa.array(["a", None]),
                  "year": pa.array(["1999", ""]),
                  "rating": pa.array(["4.5", "  "]),
                  "flag": pa.array(["true", ""]),
                  "junk": pa.array(["drop", "me"])})
    out = wire.typed_projection(
        t, {"title": "string", "year": "int", "rating": "float",
            "flag": "bool", "missing": "int"}
    )
    assert out.column_names == ["title", "year", "rating", "flag", "missing"]
    rows = out.to_pylist()
    assert rows[0] == {"title": "a", "year": 1999, "rating": 4.5,
                       "flag": True, "missing": 0}
    assert rows[1] == {"title": "", "year": 0, "rating": 0.0,
                       "flag": False, "missing": 0}


def test_wire_assemble_points_deterministic():
    t = pa.table({"id": pa.array(["a", "b"])})
    p1 = wire.assemble_points(t)["point_id"].to_pylist()
    p2 = wire.assemble_points(t)["point_id"].to_pylist()
    assert p1 == p2 and len(set(p1)) == 2


def test_wire_rejects_unknown_type():
    with pytest.raises(ValueError, match="unsupported field type"):
        wire.typed_projection(pa.table({"x": pa.array(["1"])}), {"x": "decimal"})


# --- text ops -------------------------------------------------------------
def test_token_count_and_quality():
    t = pa.table({"text": pa.array(["a bb  ccc", "", None, "  x  "])})
    out = textops.add_quality_stats(t)
    assert out["n_tokens"].to_pylist() == [3, 0, 0, 1]
    assert out["sum_token_len"].to_pylist() == [6, 0, 0, 1]


def test_rolling_fingerprints_deterministic():
    a = textops.rolling_fingerprints("hello world this is a longer text for fp")
    b = textops.rolling_fingerprints("hello world this is a longer text for fp")
    assert a == b and len(a) > 0
    assert textops.rolling_fingerprints("short") == []


# --- multimodal plumbing --------------------------------------------------
def test_image_decoder_plumbing():
    ds = rd.from_arrow(make_fake_media_table(50))
    out = ds.map_batches(
        ImageDecoder, fn_constructor_kwargs={"dim": 32},
        batch_format="pyarrow", batch_size=16, concurrency=2,
    ).take_all()
    assert len(out) == 50
    assert all(len(r["features"]) == 32 for r in out)
    assert "payload" not in out[0]  # wide bytes dropped after decode


def test_image_decoder_real_path_guarded():
    """fake=False is a REAL import-guarded decode: with Pillow installed it
    decodes an actual tiny PNG; without (this container) it raises
    NotImplementedError at construction."""
    try:
        import PIL  # noqa: F401
    except ImportError:
        with pytest.raises(NotImplementedError, match="Pillow"):
            ImageDecoder(fake=False)
        return
    import io

    from PIL import Image

    buf = io.BytesIO()
    Image.new("RGB", (8, 8), (200, 30, 90)).save(buf, format="PNG")
    t = make_fake_media_table(2)
    t = t.set_column(t.schema.get_field_index("payload"), "payload",
                     pa.array([buf.getvalue()] * 2, pa.binary()))
    out = ImageDecoder(dim=16, fake=False)(t)
    assert out["features"].type == pa.list_(pa.float32(), 16)
    import numpy as np

    v = np.asarray(out["features"][0].as_py())
    assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-5)


def test_audio_featurizer_real_path_guarded():
    try:
        import soundfile  # noqa: F401
    except ImportError:
        with pytest.raises(NotImplementedError, match="soundfile"):
            AudioFeaturizer(fake=False)
        return
    # soundfile present: featurize a generated 1 s sine WAV
    import io

    import numpy as np
    import soundfile as sf

    buf = io.BytesIO()
    sr = 8000
    sf.write(buf, np.sin(np.linspace(0, 440 * 2 * np.pi, sr)), sr,
             format="WAV")
    t = make_fake_media_table(1, kind="audio")
    t = t.set_column(t.schema.get_field_index("payload"), "payload",
                     pa.array([buf.getvalue()], pa.binary()))
    out = AudioFeaturizer(frame_ms=250, dim=8, fake=False)(t)
    assert out.num_rows == 4  # 1 s / 250 ms


def test_video_sampler_real_path_guarded():
    import shutil

    if shutil.which("ffmpeg") is None:
        with pytest.raises(NotImplementedError, match="ffmpeg"):
            VideoFrameSampler(fake=False)
        return
    VideoFrameSampler(fake=False)  # constructible when ffmpeg exists


def test_audio_featurizer_frames():
    ds = rd.from_arrow(make_fake_media_table(10, kind="audio"))
    out = ds.map_batches(
        AudioFeaturizer, fn_constructor_kwargs={"frame_ms": 250, "dim": 8},
        batch_format="pyarrow", batch_size=4, concurrency=2,
    ).take_all()
    assert len(out) == 10 * 4  # 1000ms / 250ms frames
    assert all(len(r["features"]) == 8 for r in out)


def test_video_sampler_deterministic():
    t = make_fake_media_table(5, kind="video")
    a = VideoFrameSampler()(t).to_pylist()
    b = VideoFrameSampler()(t).to_pylist()
    assert a == b and len(a) == 5 * 2  # 1000ms / 500ms


def test_dedup_minhash_string_ids():
    """Regression (review finding): the distributed verify path must keep
    working for STRING doc ids, not just int64 — the id dtype flows through
    attach/verify generically."""
    from vectrain_ray.functions.dedup import dedup_minhash

    base = "the quick brown fox jumps over the lazy dog " * 6
    t = pa.table({
        "doc_id": pa.array([f"doc-{i:03d}" for i in range(8)]),
        "text": pa.array([
            base, base + "!", base + " extra tail words",
            "completely different content about databases and rays",
            "another unrelated short text", base + "?",
            "yet another singleton", "",
        ]),
    })
    out = dedup_minhash(rd.from_arrow(t), threshold=0.8).to_pandas()
    assert len(out) == 8
    by_id = dict(zip(out["doc_id"], out["cluster_id"]))
    # the three near-identical docs cluster together under the min id
    assert by_id["doc-000"] == by_id["doc-001"] == by_id["doc-005"] == "doc-000"
    assert by_id["doc-003"] == "doc-003"  # singleton keeps itself
    keepers = set(out.loc[out["is_keeper"], "doc_id"])
    assert "doc-000" in keepers and "doc-001" not in keepers


def test_minhash_distributed_cluster_path_keeps_64bit_ids_exact():
    """Regression: the distributed merge must stay in Arrow — a pandas
    round-trip coerces int64-with-nulls to float64 and silently rounds ids
    above 2^53."""
    base = "the quick brown fox jumps over the lazy dog " * 6
    big = 2 ** 60
    t = pa.table({
        "doc_id": pa.array([big + 1, big + 3, big + 5], pa.int64()),
        "text": pa.array([base, base + "!", "totally different words here"]),
    })
    out = dedup_minhash(rd.from_arrow(t), driver_pairs_max=0).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == {big + 1: big + 1, big + 3: big + 1, big + 5: big + 5}


def test_minhash_distributed_path_no_pairs():
    """Zero verified pairs on the distributed path: every doc keeps itself
    (components on an empty pair set must not crash)."""
    t = pa.table({"doc_id": pa.array([10, 20], pa.int64()),
                  "text": pa.array(["alpha bravo charlie delta echo",
                                    "totally different words entirely now"])})
    out = dedup_minhash(rd.from_arrow(t), driver_pairs_max=0).to_pandas()
    assert sorted(out["doc_id"]) == [10, 20]
    assert (out["cluster_id"] == out["doc_id"]).all()
    assert out["is_keeper"].all()


def test_topk_ranks_by_unrounded_score():
    """Two cosines that round to the same 4th decimal must rank by the
    UNROUNDED value (the SQL oracle orders by exact cosine), not fall to
    the id tie-break."""
    import math

    def vec(c):
        return [c, math.sqrt(1 - c * c)]

    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([1, 2], pa.int64()),
        "embedding": pa.array([vec(0.12341), vec(0.12344)],
                              pa.list_(pa.float64())),
    }))
    top = topk_cosine(ds, [1.0, 0.0], k=1).take_all()
    assert [r["vec_id"] for r in top] == [2]
    assert top[0]["score"] == 0.1234  # output still rounds for the oracle


def test_real_and_fake_decode_paths_share_schemas_via_stub_codecs(monkeypatch):
    """VERDICT r2 item 9: the real codec libraries can't be installed here,
    but the real BRANCH code can still run — inject stub codec objects past
    the import guard and pin that real and fake paths emit identical
    schemas (the contract a cluster with the libs installed relies on)."""
    import numpy as np

    # image: stub PIL.Image module driving the real open→convert→resize path
    t_img = make_fake_media_table(3)
    fake_img = ImageDecoder(dim=8)(t_img)

    class _StubImg:
        def convert(self, mode):
            assert mode == "L"
            return self

        def resize(self, wh):
            assert wh == (8, 1)
            return self

        def __array__(self, dtype=None, copy=None):
            return np.ones((1, 8), dtype=dtype or np.float32)

    class _StubImageMod:
        @staticmethod
        def open(buf):
            return _StubImg()

    dec = ImageDecoder(dim=8)  # construct on the fake path (no import)
    dec.fake, dec._Image = False, _StubImageMod
    real_img = dec(t_img)
    assert real_img.schema == fake_img.schema

    # audio: stub soundfile.read driving the real frame-split path
    t_aud = make_fake_media_table(2, kind="audio")
    fake_aud = AudioFeaturizer(frame_ms=250, dim=8)(t_aud)

    class _StubSf:
        @staticmethod
        def read(buf, dtype):
            return np.linspace(-1, 1, 4000, dtype=np.float32), 8000

    af = AudioFeaturizer(frame_ms=250, dim=8)
    af.fake, af._sf = False, _StubSf
    real_aud = af(t_aud)
    assert real_aud.schema == fake_aud.schema
    assert real_aud.num_rows == 2 * 2  # 4000 samples / (8000*0.25) per clip

    # video: stub subprocess.run driving the real ffmpeg-pipe path
    t_vid = make_fake_media_table(2, kind="video")
    fake_vid = VideoFrameSampler(every_ms=500)(t_vid)

    class _Proc:
        stdout = b"\x00" * 150_000  # 3 × 64 KiB-ish strides

    import subprocess

    monkeypatch.setattr(subprocess, "run", lambda *a, **k: _Proc())
    vs = VideoFrameSampler(every_ms=500)
    vs.fake = False
    real_vid = vs(t_vid)
    assert real_vid.schema == fake_vid.schema
    assert real_vid.num_rows == 2 * 3


# --- vectorized minhash kernel parity (round-4: DuckDB/numpy hot path) -----
def _tricky_corpus():
    return pa.table({
        "doc_id": pa.array(list(range(8)), pa.int64()),
        "text": pa.array([
            "the quick brown fox jumps over the lazy dog",  # normal
            "",                                             # empty
            None,                                           # null
            "ab",                                           # shorter than k
            "ÀBçDeF✓ héllo wörld ünïcode",                   # non-ASCII
            "aaaaaaaaaaaaaaaa",                              # 1 distinct shingle
            "the quick brown fox jumps over the lazy dog",  # exact dup of 0
            "x" * 3000,                                      # long, 1 shingle
        ]),
    })


def test_sketcher_matches_scalar_reference():
    from vectrain_ray.functions.dedup import ShingleSketcher, char_shingles

    batch = _tricky_corpus()
    out = ShingleSketcher(k=5)(batch)
    assert out.column_names == ["doc_id", "sh"]
    for row, txt in zip(out["sh"].to_pylist(), batch["text"].to_pylist()):
        assert row == char_shingles(txt or "", 5).tolist()


def test_bander_matches_scalar_reference_text_and_sketch_paths():
    import hashlib

    from vectrain_ray.functions.dedup import (
        MinHashBander,
        ShingleSketcher,
        char_shingles,
        minhash_signature,
    )

    batch = _tricky_corpus()
    bander = MinHashBander(num_perm=64, bands=8, shingle_k=5)

    # scalar reference: the pre-round-4 per-row implementation
    ref_id, ref_band, ref_hash = [], [], []
    for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        sig = minhash_signature(char_shingles(t or "", 5), bander.a, bander.b)
        for band in range(8):
            chunk = sig[band * 8:(band + 1) * 8]
            key = ",".join(str(int(v)) for v in chunk)
            h = int.from_bytes(hashlib.md5(key.encode()).digest()[8:], "little")
            ref_id.append(i)
            ref_band.append(band)
            ref_hash.append(h - (1 << 64) if h >= (1 << 63) else h)
    ref = pa.table({"doc_id": pa.array(ref_id, pa.int64()),
                    "band_id": pa.array(ref_band, pa.int32()),
                    "band_hash": pa.array(ref_hash, pa.int64())})

    assert bander(batch).equals(ref)

    # sketch-column path, including a SLICED sketch table (regression: Arrow
    # .values is unsliced — offsets must be trimmed+rebased)
    sk = ShingleSketcher(k=5)(batch)
    sketch_bander = MinHashBander(num_perm=64, bands=8, sketch_col="sh")
    assert sketch_bander(sk).equals(ref)
    assert sketch_bander(sk.slice(2, 4)).equals(
        ref.filter(pa.compute.is_in(ref["doc_id"], value_set=pa.array([2, 3, 4, 5]))))
