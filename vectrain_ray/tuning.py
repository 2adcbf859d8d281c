"""Per-process Ray Data execution tuning, applied by entry points (bench,
tests, CLI, driver contract) — never by library functions, which stay pure.

Note on shuffle strategy: Ray 2.49's HASH_SHUFFLE backend measured ~1.5×
faster than the default sort-based shuffle on this engine's bucketed
groupbys in isolation, but its aggregator ACTORS stall the full KG
pipeline on small clusters — reproduced TWICE: executor stall at
num_cpus=4 (round 1), and a >10-min hang of the 47-s 8-CPU pipeline even
with max_hash_shuffle_aggregators=2 and 0.1-CPU-per-partition overrides
(round 2; the overlapped dual-execution DAG deadlocks against the
aggregator pool). The default sort shuffle is kept; revisit only on a
real multi-node cluster where aggregators don't share cores with the map
stages. The bucket exchange (``functions.dedup_exact.exchange`` and
``dedup_exact``) runs on that sort backend as ``sort("bucket")`` plus one
``map_batches(batch_size=None)`` call per sorted block, not
``groupby().map_groups``, whose per-bucket split and conversions cost
more than the finishers on the registry mix (``BENCH_exchange_blocks.json``).
"""

from __future__ import annotations

import logging


def pin_failed_fsspec_http_import() -> None:
    """Make the (absent-aiohttp) ``fsspec.implementations.http`` import
    deterministic. Ray's path resolution does
    ``from fsspec.implementations.http import HTTPFileSystem`` inside EVERY
    ``write_parquet``/``read_parquet`` and catches ModuleNotFoundError — but
    a FAILED import is not cached by Python, so two driver threads writing
    concurrently (kg.py overlaps its branch writes) can race the retried
    import and one sees the other's partially-initialized module: an
    ImportError ('cannot import name HTTPFileSystem') that Ray does NOT
    catch. Registering a stub module once makes every later import succeed
    instantly and thread-safely; the stub class matches nothing in
    isinstance checks, which is exactly the 'not an HTTP fs' answer."""
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
        return  # real module importable — nothing to pin
    except ModuleNotFoundError:
        pass
    except ImportError:
        pass
    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # stub: isinstance(...) is always False for real fs
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


def apply_data_context() -> None:
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    pin_failed_fsspec_http_import()
