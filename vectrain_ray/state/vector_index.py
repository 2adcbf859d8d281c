"""Persisted, queryable IVF vector index — the vector-store SINK.

Recast of the reference's Qdrant storage (internal/app/storages/qdrant/
store.go:13-51 batched upsert; store.go:91-114 collection auto-create): the
reference's whole point is writing embeddings into a queryable ANN store.
Here the "collection" is a directory artifact:

    index_dir/
      meta.json            dim, n_centroids, id/vec column names, row count
      centroids.npy        (C, d) k-means centroids (float64)
      cells/ivf_cell=<c>/  per-cell parquet (id, vector) — one IVF
                           inverted list per partition directory
      _DONE                commit marker (written LAST → crash-safe rebuild)

Build is a streaming Ray Data pipeline (sample → k-means on the driver over
a BOUNDED sample → broadcast centroids → assign cells in map_batches →
partitioned parquet write); nothing corpus-sized touches the driver.
``query`` reads ONLY the ``n_probe`` cell directories nearest the query —
at 100 TB, size ``n_centroids`` so one cell (≈ corpus/C) fits a reader;
``n_probe = n_centroids`` degenerates to exact brute-force top-k (tested
equal to functions.similarity.topk_cosine). Upsert is idempotent by vector
id (the reference's upsert semantics, minus its random-uuid non-idempotency
— see rules.stable_id): re-adding an id replaces it at query time via
GLOBAL last-generation-wins dedup over the probed cells. Strictness
caveat: an upsert that CHANGES a vector assigns it to a (possibly) new
cell; the stale copy in the old cell loses whenever both cells are
probed, but can surface if only the old cell is — exactly Faiss-IVF
semantics, where changed-vector upsert requires delete-before-insert or a
rebuild. Same-vector re-ingest (the reference's at-least-once redelivery
case) is always exact.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.similarity import _to_matrix, ivf_assign, train_centroids

_GEN_COL = "__gen"


def build_ivf_index(
    ds,
    index_dir: str,
    dim: int,
    n_centroids: int = 16,
    sample_size: int = 4096,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 42,
) -> str:
    """Build (or rebuild) the index artifact from a Dataset of
    (id_col, vec_col). Returns index_dir."""
    import shutil

    if os.path.exists(index_dir):
        shutil.rmtree(index_dir)
    os.makedirs(index_dir)

    # spread, deterministic sample — limit() would take the FIRST rows,
    # and a corpus written sorted by category/time would then train every
    # centroid in one region (skewed cells, unbounded cell reads)
    n_total = ds.count()
    frac = min(1.0, (2.0 * sample_size) / max(n_total, 1))
    sample_tbl = (ds.random_sample(frac, seed=seed).limit(sample_size)
                  .to_pandas())
    if len(sample_tbl) == 0 and n_total > 0:  # tiny corpus + small frac
        sample_tbl = ds.limit(sample_size).to_pandas()
    sample = (np.asarray(list(sample_tbl[vec_col]), dtype=np.float64)
              if len(sample_tbl) else np.zeros((0, dim)))
    if len(sample) == 0:
        raise ValueError("cannot build an IVF index over an empty dataset")
    cents = train_centroids(sample, n_centroids=n_centroids, seed=seed)
    np.save(os.path.join(index_dir, "centroids.npy"), cents)

    assigned = ds.select_columns([id_col, vec_col]).map_batches(
        ivf_assign, fn_kwargs={"cents": cents, "vec_col": vec_col},
        batch_format="pyarrow", batch_size=4096,
    ).map_batches(
        lambda t: t.append_column(_GEN_COL,
                                  pa.array([0] * t.num_rows, pa.int64())),
        batch_format="pyarrow",
    )
    assigned.write_parquet(os.path.join(index_dir, "cells"),
                           partition_cols=["ivf_cell"])
    n_rows = _count_rows(index_dir)
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump({"dim": dim, "n_centroids": int(len(cents)),
                   "id_col": id_col, "vec_col": vec_col,
                   "n_rows": int(n_rows), "max_gen": 0}, f)
    open(os.path.join(index_dir, "_DONE"), "w").write("ok")
    return index_dir


def _max_file_gen(index_dir: str) -> int:
    """Highest generation number present in cell FILENAMES (gen<k>_...);
    base-build files carry no prefix and count as generation 0."""
    gens = [0]
    for f in glob.glob(os.path.join(index_dir, "cells", "ivf_cell=*",
                                    "gen*_*.parquet")):
        head = os.path.basename(f).split("_", 1)[0]
        try:
            gens.append(int(head[3:]))
        except ValueError:
            pass
    return max(gens)


def _count_rows(index_dir: str) -> int:
    return sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(index_dir, "cells", "ivf_cell=*",
                                        "*.parquet"))
    )


def _load_meta(index_dir: str) -> dict:
    if not os.path.exists(os.path.join(index_dir, "_DONE")):
        raise FileNotFoundError(
            f"{index_dir} is not a committed vector index (no _DONE marker)")
    return json.load(open(os.path.join(index_dir, "meta.json")))


def upsert_ivf_index(ds, index_dir: str) -> int:
    """Idempotent upsert: assign new vectors to the EXISTING centroids and
    append them to the cell partitions under a new generation number; query
    keeps the latest generation per id. Returns the new generation."""
    meta = _load_meta(index_dir)
    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    # next generation = 1 + max generation OBSERVED ON DISK, not meta's:
    # a crash after the file writes but before the meta rewrite must not
    # reuse the half-written generation number on retry
    gen = max(meta["max_gen"], _max_file_gen(index_dir)) + 1
    id_col, vec_col = meta["id_col"], meta["vec_col"]

    assigned = ds.select_columns([id_col, vec_col]).map_batches(
        ivf_assign, fn_kwargs={"cents": cents, "vec_col": vec_col},
        batch_format="pyarrow", batch_size=4096,
    ).map_batches(
        lambda t: t.append_column(_GEN_COL,
                                  pa.array([gen] * t.num_rows, pa.int64())),
        batch_format="pyarrow",
    )
    assigned.write_parquet(
        os.path.join(index_dir, "cells"),
        partition_cols=["ivf_cell"],
        filename_provider=_GenFilenameProvider(gen),
    )
    meta["max_gen"] = gen
    meta["n_rows"] = _count_rows(index_dir)
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return gen


class _GenFilenameProvider:
    """Unique filenames per upsert generation so appends never clobber the
    base build's files."""

    def __init__(self, gen: int):
        self.gen = gen

    def get_filename_for_block(self, block, write_uuid, task_index,
                               block_index) -> str:
        return (f"gen{self.gen}_{write_uuid}_{task_index:06}_"
                f"{block_index:06}.parquet")


def query_ivf_index(index_dir: str, query_vec, k: int = 10,
                    n_probe: int = 4) -> pa.Table:
    """Top-k cosine over the persisted index, reading ONLY the n_probe
    nearest cells. Driver-side pyarrow (a serving path needs no Ray job);
    each cell is bounded by construction (≈ n_rows / n_centroids).
    n_probe >= n_centroids → exact. Ties break (score desc, id asc),
    matching functions.similarity.topk_cosine."""
    meta = _load_meta(index_dir)
    id_col, vec_col = meta["id_col"], meta["vec_col"]
    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    q = np.asarray(query_vec, dtype=np.float64)
    probe = np.argsort(((cents - q) ** 2).sum(1))[:n_probe]

    qn = q / max(np.linalg.norm(q), 1e-30)
    ids: list = []
    gens: list = []
    scores: list = []
    for cell in probe.tolist():
        files = sorted(glob.glob(
            os.path.join(index_dir, "cells", f"ivf_cell={cell}", "*.parquet")))
        if not files:
            continue
        t = pq.read_table(files, columns=[id_col, vec_col, _GEN_COL])
        mat = _to_matrix(t[vec_col], dim=meta["dim"])
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1e-30
        sims = (mat @ qn) / norms
        ids.extend(t[id_col].to_pylist())
        gens.extend(t[_GEN_COL].to_pylist())
        scores.extend(sims.tolist())  # UNROUNDED — ranking uses exact cosine

    # last-generation-wins per id GLOBALLY across probed cells — ALWAYS,
    # not only when meta records an upsert: a crash between the upsert's
    # file writes and its meta rewrite leaves gen-1 rows on disk with
    # max_gen still 0, and skipping the dedup would then return duplicate
    # ids. A changed-vector upsert lands in its new cell, so the stale copy
    # in the old cell must lose to the newer generation even cross-cell.
    # Caveat (documented): if ONLY the stale cell is probed, the stale row
    # can still surface — like Faiss IVF, a changed-vector upsert needs
    # delete-before-insert or a rebuild for strict semantics; same-vector
    # re-ingest (the reference's redelivery case) is exact.
    best: dict = {}
    for i in range(len(ids)):
        j = best.get(ids[i])
        if j is None or gens[i] > gens[j]:
            best[ids[i]] = i
    keep = sorted(best.values())
    ids = [ids[i] for i in keep]
    scores = [scores[i] for i in keep]

    # rank on the unrounded cosine (rounded ties would break by id and
    # diverge from ORDER BY exact-score); round only in the projection
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return pa.table({
        id_col: pa.array([ids[i] for i in order]),
        "score": pa.array([round(scores[i], 4) for i in order],
                          pa.float64()),
    })
