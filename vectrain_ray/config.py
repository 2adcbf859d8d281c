"""Typed pipeline configuration — the reference's config system recast
(D5, internal/config/config.go:49-126: YAML → typed per-component sub-configs
with validation before anything runs; D2's validate-then-connect lifecycle,
pipeline.go:45-67,105-120).

A spec is a plain dataclass tree, loadable from YAML/JSON, validated at
construction time (fail fast, before any Ray work is scheduled — the
reference's nil-component + validator-tag checks). ``run_from_spec``
builds and executes the DAG. The reference's RetryPolicy (config.go:43-46,
parsed but never read) has no field here: Ray Data retries every map task
that a system failure kills.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field


@dataclass
class SourceSpec:
    kind: str = "parquet"  # registry key (sources.readers.READERS)
    path: str = ""

    def validate(self) -> None:
        from .sources.readers import READERS

        if self.kind not in READERS:
            raise ValueError(f"source.kind must be one of {sorted(READERS)}, "
                             f"got {self.kind!r}")
        if not self.path:
            raise ValueError("source.path is required")


@dataclass
class EncoderSpec:
    kind: str = "hashing"  # registry key (stages.encode.ENCODERS) — the
    # reference's embedder factory (factory.go:23-30); 'ollama' selects the
    # real-model HTTP adapter
    dim: int = 64
    batch_size: int = 4096
    options: dict = field(default_factory=dict)  # encoder-specific kwargs
    # (e.g. ollama endpoint/model)

    def validate(self) -> None:
        from .stages.encode import ENCODERS

        if self.kind not in ENCODERS:
            raise ValueError(f"encoder.kind must be one of {sorted(ENCODERS)}, "
                             f"got {self.kind!r}")
        if self.dim <= 0:
            raise ValueError("encoder.dim must be > 0")
        if self.batch_size <= 0:
            raise ValueError("encoder.batch_size must be > 0")


@dataclass
class LinkerSpec:
    fuzzy_threshold: float = 0.85  # wired into EntityLinker/ShardedEntityLinker
    shards: int = 0  # 0 = automatic (broadcast under the entity-count
    # gate, sharded above); >0 = force K LinkShard actors
    ann: str = "exact"  # per-shard fuzzy mode: exact | ivf (LinkShard)
    n_cells: int = 64  # ivf: k-means cells per shard
    n_probe: int | None = None  # ivf: cells probed per miss (None = default)

    def validate(self) -> None:
        if not (0.0 <= self.fuzzy_threshold <= 1.0):
            raise ValueError("linker.fuzzy_threshold must be in [0, 1]")
        if self.shards < 0:
            raise ValueError("linker.shards must be >= 0")
        if self.ann not in ("exact", "ivf"):
            raise ValueError("linker.ann must be 'exact' or 'ivf'")
        if self.n_cells <= 0:
            raise ValueError("linker.n_cells must be > 0")
        if self.n_probe is not None and self.n_probe <= 0:
            raise ValueError("linker.n_probe must be > 0 when set")


@dataclass
class SinkSpec:
    out_dir: str = ""
    num_parts: int = 8  # resumable-runner shards
    # optional network vector-store push (the reference's Qdrant sink,
    # qdrant/client.go:32-39): {kind, collection, dim, fields?, distance?,
    # concurrency?, batch_size?, options?}
    vector_store: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not self.out_dir:
            raise ValueError("sink.out_dir is required")
        if self.num_parts <= 0:
            raise ValueError("sink.num_parts must be > 0")
        if self.vector_store:
            from .stages.vector_store import VECTOR_STORES

            vs = self.vector_store
            allowed = {"kind", "collection", "dim", "fields", "distance",
                       "concurrency", "batch_size", "options"}
            unknown = set(vs) - allowed
            if unknown:
                # same strictness as the dataclass levels (from_dict):
                # a typo'd key must fail fast, not silently default
                raise ValueError(
                    f"unknown sink.vector_store key(s) {sorted(unknown)} "
                    f"(allowed: {sorted(allowed)})")
            kind = vs.get("kind", "memory")
            if kind not in VECTOR_STORES:
                raise ValueError(
                    f"unknown sink.vector_store.kind {kind!r} "
                    f"(have {sorted(VECTOR_STORES)})")
            if not vs.get("collection"):
                raise ValueError("sink.vector_store.collection is required")
            if int(vs.get("dim", 0)) <= 0:
                raise ValueError("sink.vector_store.dim must be > 0")


@dataclass
class PipelineSpec:
    source: SourceSpec = field(default_factory=SourceSpec)
    encoder: EncoderSpec = field(default_factory=EncoderSpec)
    linker: LinkerSpec = field(default_factory=LinkerSpec)
    sink: SinkSpec = field(default_factory=SinkSpec)
    resumable: bool = True

    def validate(self) -> "PipelineSpec":
        self.source.validate()
        self.encoder.validate()
        self.linker.validate()
        self.sink.validate()
        vs = self.sink.vector_store
        if vs and int(vs.get("dim", 0)) != self.encoder.dim:
            # fail FAST: otherwise the mismatch only surfaces in the
            # store writer after the whole pipeline has run
            raise ValueError(
                f"sink.vector_store.dim ({vs.get('dim')}) must equal "
                f"encoder.dim ({self.encoder.dim})")
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineSpec":
        def build(klass, sub):
            known = {f.name for f in dataclasses.fields(klass)}
            unknown = set(sub) - known
            if unknown:
                raise ValueError(
                    f"unknown {klass.__name__} keys: {sorted(unknown)}"
                )
            return klass(**sub)

        spec = cls(
            source=build(SourceSpec, d.get("source", {})),
            encoder=build(EncoderSpec, d.get("encoder", {})),
            linker=build(LinkerSpec, d.get("linker", {})),
            sink=build(SinkSpec, d.get("sink", {})),
            resumable=bool(d.get("resumable", True)),
        )
        return spec.validate()

    @classmethod
    def load(cls, path: str) -> "PipelineSpec":
        """YAML (via the stdlib-only subset: JSON is valid YAML; a real YAML
        parser is used when available) or JSON file → validated spec."""
        text = open(path).read()
        try:
            import yaml  # type: ignore

            d = yaml.safe_load(text)
        except ImportError:
            d = json.loads(text)
        return cls.from_dict(d or {})


def resume_kwargs_from_spec(spec: PipelineSpec) -> dict:
    """Keyword args for run_kg_resumable / StreamDriver derived from a
    validated spec — ONE derivation shared by every call site (run_from_spec,
    the stream CLI, the control plane), so a new spec field cannot silently
    miss one of them (the parsed-but-unused trap)."""
    return dict(
        source_kind=spec.source.kind,
        dim=spec.encoder.dim,
        batch_size=spec.encoder.batch_size,
        encoder_kind=spec.encoder.kind,
        encoder_kwargs=spec.encoder.options,
        link_shards=spec.linker.shards,
        fuzzy_threshold=spec.linker.fuzzy_threshold,
        link_ann=spec.linker.ann,
        link_ann_cells=spec.linker.n_cells,
        link_ann_probe=spec.linker.n_probe,
    )


def stream_driver_from_spec(spec: PipelineSpec, poll_sec: float = 2.0):
    """StreamDriver built from a validated spec — the ONE factory shared by
    the stream CLI and the control plane, so sink-level fields (num_parts,
    vector_store) cannot silently miss a call site."""
    from .pipelines.stream import StreamDriver

    return StreamDriver(
        spec.source.path, spec.sink.out_dir,
        num_parts=spec.sink.num_parts, poll_sec=poll_sec,
        vector_store=spec.sink.vector_store or None,
        **resume_kwargs_from_spec(spec),
    )


def run_from_spec(spec: PipelineSpec) -> dict:
    """Validate → build → execute (the reference's Run lifecycle,
    pipeline.go:45-67). Ray must already be initialised by the caller."""
    spec.validate()
    os.makedirs(spec.sink.out_dir, exist_ok=True)
    if spec.resumable:
        from .pipelines.resume import run_kg_resumable

        metrics = run_kg_resumable(
            spec.source.path,
            spec.sink.out_dir,
            num_parts=spec.sink.num_parts,
            **resume_kwargs_from_spec(spec),
        )
    else:
        from .pipelines.kg import run_kg
        from .sources.readers import get_reader

        src = (spec.source.path if spec.source.kind == "parquet"
               else get_reader(spec.source.kind)(spec.source.path))
        res = run_kg(
            src,
            out_dir=spec.sink.out_dir,
            dim=spec.encoder.dim,
            batch_size=spec.encoder.batch_size,
            encoder_kind=spec.encoder.kind,
            encoder_kwargs=spec.encoder.options,
            link_shards=spec.linker.shards or None,
            fuzzy_threshold=spec.linker.fuzzy_threshold,
            link_ann=spec.linker.ann,
            link_ann_cells=spec.linker.n_cells,
            link_ann_probe=spec.linker.n_probe,
        )
        metrics = {"paths": res.get("paths", {})}
    if spec.sink.vector_store:
        # the reference's embed→store tail: push AFTER the durable parquet
        # commit; idempotent (deterministic point ids), so a crash mid-push
        # re-upserts on the next run
        from .stages.vector_store import push_mentions

        metrics["vectors_pushed"] = push_mentions(
            spec.sink.out_dir, spec.sink.vector_store)
    return metrics
