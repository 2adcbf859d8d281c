"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (nor in the vectrain_ray library) calls ray.init()/ray.shutdown().

entry()      — flagship KG pipeline over /root/testdata/sf0.001 (transcripts
               derived deterministically from customer/supplier⋈nation).
queries()    — operator registry (vectrain_ray.pipelines.queries.QUERIES).
oracle_sql() — matching DuckDB SQL; keys absent here are rows-only checks.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMALL = "/root/testdata/sf0.001"


def _tune() -> None:
    from vectrain_ray.tuning import apply_data_context

    apply_data_context()


def entry() -> Any:
    """Flagship: derived transcripts → full KG pipeline → linked triples."""
    _tune()
    from vectrain_ray.pipelines.kg import run_kg
    from vectrain_ray.pipelines.tpch_kg import tpch_transcripts

    # materialized: run_kg's gate cannot size a lazy Dataset
    res = run_kg(tpch_transcripts(SF_SMALL).materialize(), out_dir=None,
                 write_outputs=False)
    return res["triples"]


def queries() -> dict[str, Callable[[str], Any]]:
    _tune()
    from vectrain_ray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from vectrain_ray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
