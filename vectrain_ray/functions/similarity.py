"""Similarity search over embedding columns (list<float>).

Baseline: brute-force cosine top-k — per-batch numpy matmul against a
query vector shipped in each task's ``fn_kwargs``, per-batch partial
top-k, tiny final merge. Scale path: IVF — vectors
bucketed to the nearest of C centroids (centroids broadcast), search probes
only the closest buckets; and random-hyperplane LSH bucketing for near-dup
pair generation without an all-pairs pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup_exact import exchange


def _to_matrix(col: pa.ChunkedArray | pa.Array, dim: int = 0) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix (float64 so cosine matches
    DuckDB's double-precision list_cosine_similarity). Empty columns (possible
    after an ivf_cell filter or on empty input) yield shape (0, dim) — a bare
    np.asarray([]) would be 1-D and crash axis-1 reductions downstream."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.empty((0, dim), dtype=np.float64)
    # vectorized: flatten the list values and reshape — no per-row Python.
    # float32→float64 widening is exact, so cosine parity with DuckDB's
    # double-precision list_cosine_similarity is unchanged.
    if col.null_count == 0:
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        if len(lens) and lens.min() == lens.max():
            flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
            return flat.astype(np.float64, copy=False).reshape(
                len(col), int(lens[0]))
    # ragged / null rows: fall back to the per-row path (never hit by the
    # fixed-width embedding tables; kept so a malformed row errors the old
    # way instead of silently mis-reshaping)
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _cosine_to_query(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = q / max(np.linalg.norm(q), 1e-30)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1e-30
    return (mat @ qn) / norms


def batch_topk(batch: pa.Table, q: np.ndarray, k: int = 10,
               id_col: str = "vec_id", vec_col: str = "embedding") -> pa.Table:
    """Per-batch top-k rows by cosine vs the query vector ``q``."""
    mat = _to_matrix(batch[vec_col], dim=len(q))
    sims = _cosine_to_query(mat, q)
    k = min(k, len(sims))
    all_ids = np.asarray(batch[id_col].to_pylist())
    # FULL (score desc, id asc) order, not argpartition: a tie at the
    # batch-local k boundary must keep the SMALLEST id (the global
    # tie-break), independent of array position / batch composition
    idx = (np.lexsort((all_ids, -sims))[:k] if k
           else np.array([], int))
    ids = all_ids[idx]
    # explicit id type: an empty pa.array([]) would infer null and break
    # schema unification at the final sort. Scores stay UNROUNDED — the
    # global rank must use the exact cosine (the SQL oracle orders by
    # the unrounded value); callers round only in the final projection.
    id_type = batch.schema.field(id_col).type
    return pa.table(
        {
            id_col: pa.array(ids.tolist(), type=id_type),
            "score": pa.array(sims[idx], pa.float64()),
        }
    )


def topk_cosine(ds, query_vec, k: int = 10, id_col: str = "vec_id",
                vec_col: str = "embedding"):
    """Global cosine top-k: partial top-k per batch (plain tasks, the query
    in fn_kwargs) → final sort over ≤ k×num_batches candidate rows. Ties
    broken by (score desc, id asc) for determinism."""
    partial = ds.map_batches(
        batch_topk,
        fn_kwargs={"q": np.asarray(query_vec, dtype=np.float64), "k": k,
                   "id_col": id_col, "vec_col": vec_col},
        batch_format="pyarrow",
        batch_size=4096,
    )
    # rank on the UNROUNDED cosine (rounded ties across batches would break
    # by id and pick a different member than ORDER BY exact-score); round
    # only in the output projection
    ranked = partial.sort(["score", id_col],
                          descending=[True, False]).limit(k)
    import pyarrow.compute as pc

    return ranked.map_batches(
        lambda t: t.set_column(t.schema.get_field_index("score"), "score",
                               pc.round(t["score"], ndigits=4)),
        batch_format="pyarrow",
    )


# --- LSH (random hyperplanes) --------------------------------------------
def hyperplanes(dim: int, n_planes: int = 16, seed: int = 42) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((n_planes, dim))


def lsh_bucket(batch: pa.Table, planes: np.ndarray,
               vec_col: str = "embedding", out: str = "bucket") -> pa.Table:
    """Adds a bucket id = sign-pattern of projections onto ``planes``
    (``hyperplanes``: seeded → deterministic across tasks/runs)."""
    mat = _to_matrix(batch[vec_col], dim=planes.shape[1])
    bits = (mat @ planes.T) > 0
    buckets = bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))
    return batch.append_column(out, pa.array(buckets, pa.int64()))


def neardup_pairs_cosine(ds, dim: int, threshold: float = 0.95,
                         id_col: str = "vec_id", vec_col: str = "embedding",
                         n_planes: int = 12, max_bucket: int = 2000):
    """Embedding-cosine near-duplicate pairs without an all-pairs pass:
    LSH-bucket → exchange on the bucket → exact cosine within each bucket
    (≤ max_bucket rows; larger buckets are truncated deterministically and
    logged via a 'truncated' marker column so silent caps are visible)."""
    import pandas as pd

    bucketed = ds.map_batches(
        lsh_bucket,
        fn_kwargs={"planes": hyperplanes(dim, n_planes), "vec_col": vec_col},
        batch_format="pyarrow",
        batch_size=4096,
    )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one call may hold several LSH buckets: pair vectors only within
        # each bucket, never across two
        rows = []
        for _, b in g.groupby("bucket", sort=False):
            b = b.sort_values(id_col, kind="stable")
            truncated = len(b) > max_bucket
            if truncated:
                b = b.head(max_bucket)
            mat = np.asarray(list(b[vec_col]), dtype=np.float64)
            norms = np.linalg.norm(mat, axis=1)
            norms[norms == 0] = 1e-30
            sims = (mat / norms[:, None]) @ (mat / norms[:, None]).T
            ids = list(b[id_col])
            ii, jj = np.where(np.triu(sims >= threshold, k=1))
            rows += [(ids[i], ids[j], round(float(sims[i, j]), 4), truncated)
                     for i, j in zip(ii, jj)]
        return pd.DataFrame(rows, columns=["id_a", "id_b", "score",
                                           "truncated"])

    return exchange(bucketed, pairs_in_bucket)


# --- IVF (inverted-file) approximate search -------------------------------
def train_centroids(sample: np.ndarray, n_centroids: int = 16,
                    iters: int = 10, seed: int = 42) -> np.ndarray:
    """Plain Lloyd's k-means on a driver-side sample (deterministic seed).
    The centroid matrix is tiny → it rides in each task's fn_kwargs."""
    rng = np.random.RandomState(seed)
    idx = rng.choice(len(sample), size=min(n_centroids, len(sample)),
                     replace=False)
    sample = sample.astype(np.float64)
    cents = sample[idx].copy()
    s_sq = (sample ** 2).sum(1)[:, None]
    for _ in range(iters):
        # ||a-b||² expansion: largest temp is (n, C), never (n, C, d)
        d = s_sq - 2.0 * (sample @ cents.T) + (cents ** 2).sum(1)[None, :]
        assign = d.argmin(1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(0)
    return cents


def ivf_assign(batch: pa.Table, cents: np.ndarray,
               vec_col: str = "embedding") -> pa.Table:
    """Adds ivf_cell = nearest centroid id (float64 ``cents``)."""
    mat = _to_matrix(batch[vec_col], dim=cents.shape[1])
    # expansion form: the temp is (batch, C) — a (batch, C, d) float64
    # broadcast would be ~25 GB per batch at d=768, C=1024
    d = ((mat ** 2).sum(1)[:, None] - 2.0 * (mat @ cents.T)
         + (cents ** 2).sum(1)[None, :])
    return batch.append_column(
        "ivf_cell", pa.array(d.argmin(1).astype(np.int64), pa.int64())
    )


def topk_cosine_ivf(ds, query_vec, centroids_ref, k: int = 10,
                    n_probe: int = 4, id_col: str = "vec_id",
                    vec_col: str = "embedding"):
    """IVF search: assign cells once, then brute-force ONLY the n_probe cells
    closest to the query. Approximate (recall < 1 when the true neighbor sits
    in an unprobed cell) — the scale path next to exact topk_cosine."""
    import ray

    cents = np.asarray(ray.get(centroids_ref), dtype=np.float64)
    q = np.asarray(query_vec, dtype=np.float64)
    probe = np.argsort(((cents - q) ** 2).sum(1))[:n_probe].tolist()

    assigned = ds.map_batches(
        ivf_assign, fn_kwargs={"cents": cents, "vec_col": vec_col},
        batch_format="pyarrow", batch_size=4096,
    )
    import pyarrow.compute as pc

    probed = assigned.map_batches(
        lambda t: t.filter(pc.is_in(t["ivf_cell"], pa.array(probe))),
        batch_format="pyarrow",
    )
    return topk_cosine(probed, q, k=k, id_col=id_col, vec_col=vec_col)
