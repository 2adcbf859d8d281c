"""Embedder-batching semantics — SURVEY.md §5 test 2: every row exactly once,
Vector xor Err, determinism across batch sizes (reference
pipeline.go:242-273 re-expressed)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from vectrain_ray.stages.encode import (HashingEncoder, encode_batch_task,
                                      encode_texts)


def _mention_ds(n=500):
    return rd.from_arrow(
        pa.table(
            {
                "mention_id": pa.array([f"m{i}" for i in range(n)]),
                "surface_form": pa.array(
                    [f"Entity {i % 37}" if i % 50 else "" for i in range(n)]
                ),
            }
        )
    )


@pytest.mark.parametrize("batch_size", [32, 101, 4096])
def test_exactly_once_any_batching(batch_size):
    # the production path: plain tasks over the per-worker cached encoder
    ds = _mention_ds()
    out = ds.map_batches(
        encode_batch_task,
        fn_kwargs={"dim": 16},
        batch_format="pyarrow",
        batch_size=batch_size,
    ).take_all()
    assert sorted(r["mention_id"] for r in out) == sorted(
        r["mention_id"] for r in _mention_ds().take_all()
    )
    for r in out:
        has_vec = any(v != 0 for v in r["embedding"])
        has_err = r["encode_err"] is not None
        assert has_vec != has_err  # Vector xor Err (pipeline.go:259-264)


def test_deterministic_across_processes_and_batching():
    a = encode_texts(["Acme Corp", "alice"], dim=32)
    b = encode_texts(["alice", "Acme Corp"], dim=32)[::-1].copy()
    np.testing.assert_array_equal(a, b)
    # unit norm
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, rtol=1e-5)


def test_same_tokens_same_vector():
    a = encode_texts(["Acme Corp"], dim=32)
    b = encode_texts(["acme CORP"], dim=32)  # case-insensitive tokens
    np.testing.assert_array_equal(a, b)


def test_error_rows_carry_dead_letter():
    mat = encode_texts(["", "ok"], dim=8)
    assert not mat[0].any()
    enc = HashingEncoder(dim=8)
    _, errs = enc._encode_texts(["", "ok", None])
    assert errs[0] == "empty_text" and errs[1] is None and errs[2] == "empty_text"


# --- encoder registry (reference factory.go:23-30) -------------------------
def test_registry_lists_both_encoders():
    from vectrain_ray.stages.encode import ENCODERS, HashingEncoder, OllamaEncoder

    assert ENCODERS["hashing"] is HashingEncoder
    assert ENCODERS["ollama"] is OllamaEncoder


def test_config_selects_registered_encoder():
    from vectrain_ray.config import EncoderSpec

    EncoderSpec(kind="hashing").validate()
    EncoderSpec(kind="ollama", options={"endpoint": "http://x/api"}).validate()
    import pytest

    with pytest.raises(ValueError, match="encoder.kind"):
        EncoderSpec(kind="bert-9000").validate()


def test_ollama_adapter_with_fake_transport():
    """Wire-shape test: the model adapter batches texts into ONE transport
    call, fans vectors back per row, normalizes, and dead-letters transport
    failures per the Vector-xor-Err contract."""
    import numpy as np
    import pyarrow as pa

    from vectrain_ray.stages.encode import OllamaEncoder

    calls = []

    def fake(texts):
        calls.append(list(texts))
        return [[float(len(t)), 1.0, 0.0, 0.0] for t in texts]

    enc = OllamaEncoder(dim=4, transport=fake)
    out = enc(pa.table({"surface_form": ["ab", "xyz", None, "ab"]}))
    assert len(calls) == 1 and calls[0] == ["ab", "xyz"]  # batched + memoized
    emb = np.asarray(out["embedding"].to_pylist())
    assert np.allclose(np.linalg.norm(emb[[0, 1, 3]], axis=1), 1.0)
    assert np.allclose(emb[0], emb[3])  # same text → same vector
    errs = out["encode_err"].to_pylist()
    assert errs == [None, None, "empty_text", None]


def test_ollama_adapter_dead_letters_on_transport_error():
    import pyarrow as pa

    from vectrain_ray.stages.encode import OllamaEncoder

    def broken(texts):
        raise ConnectionError("server down")

    enc = OllamaEncoder(dim=4, transport=broken)
    out = enc(pa.table({"surface_form": ["ab"]}))
    assert out["encode_err"][0].as_py().startswith("embed_error")
