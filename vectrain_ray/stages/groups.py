"""The merge kernels' one group primitive, in Arrow and numpy: sort rows by
their group keys, number the groups densely, and build each group's list
from offsets — no Python call per group.

``sorted_groups`` sorts a table and marks where each group starts;
``group_sums`` adds up a column per group (``np.add.reduceat``) and
``group_lists`` turns values sorted by group id into one list per group
(``np.bincount`` → cumulative offsets → ``pa.ListArray``). A packed string
is ``pc.binary_join`` over those lists, and ``unpack`` reverses it.
Canonicalize (aliases per norm) and materialize (edge partials,
provenance, node aliases) both build on it.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def sorted_groups(t: pa.Table, keys: list[str], order: tuple = ()
                  ) -> tuple[pa.Table, np.ndarray, np.ndarray]:
    """``t`` sorted by ``keys`` ascending, then by ``order`` (``(column,
    "ascending" | "descending")`` pairs; nulls last, ties keep row order)
    → (sorted table, dense group id of each row, first row of each group).
    Rows with a null key are dropped, as pandas' ``groupby`` drops them."""
    valid = [pc.is_valid(t[k]) for k in keys if t[k].null_count]
    if valid:
        t = t.filter(functools.reduce(pc.and_, valid))
    t = t.take(pc.sort_indices(
        t, sort_keys=[(k, "ascending") for k in keys] + list(order)))
    n = t.num_rows
    new = np.zeros(n, bool)
    new[:1] = True
    for k in keys:
        c = t[k].combine_chunks()
        new[1:] |= pc.not_equal(c[1:], c[:-1]).to_numpy(zero_copy_only=False)
    return t, np.cumsum(new) - 1, np.flatnonzero(new)


def group_sums(values, starts: np.ndarray) -> pa.Array:
    """int64 sum of each group of sorted ``values`` (a null adds 0), given
    the first row of each group."""
    return pa.array(np.add.reduceat(pc.fill_null(values, 0).to_numpy(),
                                    starts), pa.int64())


def group_lists(values, gid: np.ndarray, n: int) -> pa.ListArray:
    """``values`` sorted by their dense group id ``gid`` → one list per
    group ``0..n-1``; a group with no values gets an empty list."""
    offsets = np.zeros(n + 1, np.int32)
    np.cumsum(np.bincount(gid, minlength=n), out=offsets[1:])
    return pa.ListArray.from_arrays(
        pa.array(offsets), pa.chunked_array(values).combine_chunks())


def unpack(packed, gid: np.ndarray, drop_empty: bool = False
           ) -> tuple[np.ndarray, pa.ChunkedArray]:
    """``\\x1f``-packed strings, row i in group ``gid[i]`` → the distinct
    (group id, value) pairs sorted by group, then value. A null packs
    nothing; ``drop_empty`` also drops empty values."""
    split = pc.split_pattern(pa.chunked_array(packed).combine_chunks(), "\x1f")
    flat = split.flatten()
    t = pa.table({"g": gid[pc.list_parent_indices(split).to_numpy()],
                  "v": flat})
    if drop_empty:
        t = t.filter(pc.not_equal(flat, ""))
    t, _, firsts = sorted_groups(t, ["g", "v"])
    return t["g"].to_numpy()[firsts], t["v"].take(firsts)
