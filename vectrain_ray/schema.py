"""Arrow schemas for every table that crosses a stage boundary.

The reference moves a single schemaless record (`Entity`,
/root/reference/pkg/types/entity.go:3-11) with a string→string payload and a
sink-side typed projection (/root/reference/internal/app/storages/qdrant/store.go:53-89).
Here the schema is declared once, up front, and enforced by Arrow at every
stage boundary (SURVEY.md §1.2).
"""

from __future__ import annotations

import pyarrow as pa

# Embedding width. The reference uses 768 (config/kafka_config.yaml:37); we
# default small so shuffled rows stay narrow in tests — configurable per stage.
DEFAULT_DIM = 64

# Primary input (BASELINE.json input_hint).
TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),  # user | assistant | tool
        ("text", pa.string()),
        ("tool", pa.string()),  # nullable; non-null iff role == "tool"
        ("ts", pa.timestamp("us")),
    ]
)

MENTION_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("mention_id", pa.string()),
        ("surface_form", pa.string()),
        ("span_start", pa.int32()),
        ("span_end", pa.int32()),
    ]
)


# the encoded mentions: ``encode_err`` is the dead letter of a row that
# could not be encoded
def mention_schema_with_embedding(dim: int = DEFAULT_DIM) -> pa.Schema:
    return MENTION_SCHEMA.append(
        pa.field("embedding", pa.list_(pa.float32(), dim))  # FixedSizeList → zero-copy numpy
    ).append(pa.field("encode_err", pa.string()))


TRIPLE_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
    ]
)

# the triples table: each triple keeps its extraction row_id
LINKED_TRIPLE_SCHEMA = TRIPLE_SCHEMA.insert(
    2, pa.field("row_id", pa.string())).append(
    pa.field("subj_id", pa.string())).append(pa.field("obj_id", pa.string()))

NODE_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("canonical_name", pa.string()),
        ("aliases", pa.list_(pa.string())),
        ("n_mentions", pa.int64()),
        ("degree", pa.int64()),
    ]
)

EDGE_SCHEMA = pa.schema(
    [
        ("src_id", pa.string()),
        ("dst_id", pa.string()),
        ("pred", pa.string()),
        ("weight", pa.int64()),
        (
            "provenance",
            pa.list_(
                pa.struct([("conv_id", pa.string()), ("turn_idx", pa.int32())])
            ),
        ),
    ]
)

# surface_norm → entity: the canonicalization output the linker indexes
MAPPING_SCHEMA = pa.schema([
    ("surface_norm", pa.string()), ("entity_id", pa.string()),
    ("canonical_name", pa.string()), ("n_mentions", pa.int64()),
    ("aliases", pa.list_(pa.string()))])

# the resumable pipeline's stored per-shard edge partials, merged by phase 4
EDGE_PARTIAL_SCHEMA = pa.schema([
    ("src_id", pa.string()), ("dst_id", pa.string()), ("pred", pa.string()),
    ("prov", pa.string()), ("cnt", pa.int64()), ("bucket", pa.int32())])

# Mirror of the reference's wire record (pkg/types/entity.go:3-11 + the typed
# sink projection config config/kafka_config.yaml:39-43) for the T1–T5 ops.
ENTITY_WIRE_SCHEMA = pa.schema(
    [
        ("id", pa.string()),  # may be empty → backfilled from uuid (fetch_messages.go:71-73)
        ("uuid", pa.string()),
        ("text", pa.string()),
        ("title", pa.string()),
        ("year", pa.string()),
        ("genres", pa.string()),
        ("rating", pa.string()),  # stringly payload; cast at the projection op
    ]
)
