"""vectrain_ray — a Ray-Data-native knowledge-graph-construction engine.

A brand-new engine with the query/data-processing capabilities of the
reference (torys877/vectrain, a Go Source→Embedder→Storage streaming
service), re-expressed as Ray Data streaming pipelines:

  read_parquet(transcripts)
    → map_batches(extract_mentions_triples)          # stateless Arrow tasks
    → map_batches(encode_batch_task)                 # per-worker cached encoder
    → canonicalize (salted groupby + union-find)     # the shuffle stage
    → map_batches(link_batch_task)                   # broadcast index lookup
    → write_parquet(nodes/, edges/) + manifests      # idempotent, resumable

Reference parity notes are cited per module as /root/reference file:line.
"""

__version__ = "0.1.0"


def _seed_fsspec_http_stub() -> None:
    """Make ``fsspec.implementations.http`` import-stable under threads.

    Ray Data probes it on EVERY ``read_parquet`` (path_util.py
    ``_is_http_filesystem``) and catches only ``ModuleNotFoundError`` —
    the probe normally fails that way when ``aiohttp`` is absent. But a
    FAILED import is evicted from ``sys.modules``, so two threads probing
    concurrently (our resume pipeline overlaps the mention-encode
    execution with phase 2 on a thread) can race: the losing thread sees
    the half-initialized module and gets a plain ``ImportError``
    ("cannot import name 'HTTPFileSystem'"), which Ray does NOT catch and
    which kills the pipeline. Seeding a permanent stub module (whose
    sentinel class nothing is an instance of) makes every subsequent
    probe deterministic and race-free; when aiohttp IS installed the real
    module imports once here and is cached, same effect."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        stub = types.ModuleType("fsspec.implementations.http")
        stub.HTTPFileSystem = type("HTTPFileSystem", (), {})
        stub.__doc__ = ("stub seeded by vectrain_ray: aiohttp absent; "
                        "see vectrain_ray.__init__._seed_fsspec_http_stub")
        sys.modules["fsspec.implementations.http"] = stub


_seed_fsspec_http_stub()
