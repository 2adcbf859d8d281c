"""Typed-config validation (reference D5/D2 semantics: fail fast before any
work is scheduled)."""

import json

import pytest

from vectrain_ray.config import PipelineSpec


def test_valid_spec_roundtrip(tmp_path):
    d = {
        "source": {"kind": "parquet", "path": "/tmp/in"},
        "encoder": {"dim": 32},
        "sink": {"out_dir": "/tmp/out", "num_parts": 4},
    }
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(d))
    spec = PipelineSpec.load(str(p))
    assert spec.encoder.dim == 32
    assert spec.sink.num_parts == 4
    assert spec.resumable is True


def test_missing_path_rejected():
    with pytest.raises(ValueError, match="source.path"):
        PipelineSpec.from_dict({"sink": {"out_dir": "/tmp/x"}})


def test_unknown_source_kind_rejected():
    with pytest.raises(ValueError, match="source.kind"):
        PipelineSpec.from_dict(
            {"source": {"kind": "postgres", "path": "x"},
             "sink": {"out_dir": "/tmp/x"}}
        )


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown EncoderSpec keys"):
        PipelineSpec.from_dict(
            {"source": {"path": "x"}, "encoder": {"dimension": 5},
             "sink": {"out_dir": "/tmp/x"}}
        )


def test_bad_threshold_rejected():
    with pytest.raises(ValueError, match="fuzzy_threshold"):
        PipelineSpec.from_dict(
            {"source": {"path": "x"}, "linker": {"fuzzy_threshold": 1.5},
             "sink": {"out_dir": "/tmp/x"}}
        )


def test_bad_ann_mode_rejected():
    with pytest.raises(ValueError, match="linker.ann"):
        PipelineSpec.from_dict(
            {"source": {"path": "x"}, "linker": {"ann": "hnsw"},
             "sink": {"out_dir": "/tmp/x"}}
        )


def test_linker_options_reach_the_linkers(tmp_path):
    """The LinkerSpec fields must actually be consumed — fuzzy_threshold,
    shards and the ann mode flow through run_from_spec into the sharded
    linker actors (the parsed-but-unused RetryPolicy anti-pattern the
    reference has and this repo keeps testing itself against)."""
    from vectrain_ray.config import run_from_spec
    from vectrain_ray.synth import write_transcripts

    src = str(tmp_path / "in")
    write_transcripts(src, num_convs=12, turns_per_conv=5, seed=7,
                      num_files=2)
    out = str(tmp_path / "out")
    spec = PipelineSpec.from_dict({
        "source": {"path": src},
        "linker": {"shards": 2, "ann": "ivf", "n_cells": 4,
                   "fuzzy_threshold": 0.9},
        "sink": {"out_dir": out, "num_parts": 2},
    })
    m = run_from_spec(spec)
    assert m.get("status", "ok") == "ok"
    import glob as _g
    import os as _os

    # the sharded index artifact only exists when linker.shards was honored
    # (marker = "<shards>|<mapping fingerprint>" since the staleness fix)
    assert _os.path.exists(_os.path.join(out, "link_index", "_SHARDS"))
    marker = open(_os.path.join(out, "link_index", "_SHARDS")).read()
    assert marker.split("|", 1)[0] == "2"
    assert _g.glob(_os.path.join(out, "edges", "*.parquet"))


def test_json_source_kind_dispatches_reader(tmp_path):
    """source.kind must actually pick the reader — a 'json' spec reads
    JSONL transcripts through the registry and produces the same tables a
    parquet run does on identical rows."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from vectrain_ray.config import run_from_spec
    from vectrain_ray.synth import generate_transcripts

    t = generate_transcripts(8, 5, seed=11)
    df = t.select(["conv_id", "turn_idx", "text"]).to_pandas()
    jdir = tmp_path / "in_json"
    jdir.mkdir()
    df.to_json(str(jdir / "part0.json"), orient="records", lines=True)
    pdir = tmp_path / "in_parquet"
    pdir.mkdir()
    pq.write_table(pa.Table.from_pandas(df), str(pdir / "p.parquet"))

    outs = {}
    for kind, src in (("json", jdir), ("parquet", pdir)):
        out = str(tmp_path / f"out_{kind}")
        run_from_spec(PipelineSpec.from_dict({
            "source": {"kind": kind, "path": str(src)},
            "sink": {"out_dir": out, "num_parts": 2},
        }))
        e = rd.read_parquet(out + "/edges").to_pandas().astype(str)
        outs[kind] = e.sort_values(list(e.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(outs["json"], outs["parquet"])


@pytest.mark.parametrize("sub", ["encoder", "linker"])
def test_resumable_and_stream_specs_reject_pool_sizes(sub, tmp_path):
    """Neither run_kg_resumable nor StreamDriver takes a pool size: a
    resumable or stream spec that sets one must fail, not drop it."""
    from vectrain_ray.config import (resume_kwargs_from_spec,
                                     stream_driver_from_spec)

    def spec(**subspec):
        return PipelineSpec.from_dict({
            "source": {"path": str(tmp_path / "in")},
            sub: subspec,
            "sink": {"out_dir": str(tmp_path / "out")}, "resumable": True})

    with pytest.raises(ValueError, match="concurrency"):
        spec(concurrency=2)
    # without one, both runners build from the spec with their defaults
    assert resume_kwargs_from_spec(spec())["dim"] == 64
    assert stream_driver_from_spec(spec()).out_dir == str(tmp_path / "out")


def test_deleted_pool_keys_rejected():
    """Encode and link run as plain tasks with no size or retry setting:
    a spec that sets one fails validation as an unknown key, resumable or
    not, rather than being silently accepted."""
    for sub, key in (("encoder", "concurrency"),
                     ("encoder", "max_task_retries"),
                     ("linker", "concurrency")):
        for resumable in (True, False):
            with pytest.raises(ValueError,
                               match=f"unknown {sub.title()}Spec keys"):
                PipelineSpec.from_dict({
                    "source": {"path": "x"}, sub: {key: 2},
                    "sink": {"out_dir": "/tmp/x"}, "resumable": resumable})
