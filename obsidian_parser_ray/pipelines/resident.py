"""Resident-edge rounds shared by :mod:`.pagerank` and :mod:`.components`.

Both pipelines iterate the same step: fold a node-scale state vector
along every edge into the edge's destination (a weighted sum for
PageRank, a min for label propagation).  While the node universe fits
the broadcast guard (``stages.joins.BROADCAST_MAX_ROWS`` ids and
``BROADCAST_MAX_BYTES`` of id buffers, read at call time) that step
needs no exchange per round:

* prologue — :func:`node_universe` collects the distinct ids on the
  driver as one sorted Arrow array; :func:`resident_edges` re-keys the
  edges to int32 positions in it (one ``ray.put`` + ``pc.index_in``
  pass), buckets them by destination position in ONE exchange and
  materializes the buckets, which then stay resident in the object
  store for every round;
* round — :func:`fold_round` ships the state vector once with
  ``ray.put`` and runs ONE ``map_batches`` over the resident buckets;
  each bucket emits a partial for its own destinations only, so the
  gathered result is node-scale and the driver finishes in numpy.

Positions follow the ids' sort order (byte order for strings), so a
min over positions is the min id.  Past the guard
:func:`node_universe` returns ``None`` and the callers run their
Dataset loops instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def exchange_width(rows: int, num_partitions: int) -> int:
    """Partition count for an exchange over ``rows`` measured rows: 4
    plus one per 400k rows, capped at ``num_partitions`` but never
    below 4."""
    return max(4, min(num_partitions, rows // 400_000 + 4))


def column_type(ds, col: str) -> pa.DataType | None:
    """Arrow type of ``ds[col]``, or ``None`` when the Dataset has no
    schema (a block-less empty one) or a dtype Arrow cannot name."""
    schema = ds.schema()
    if schema is None:
        return None
    t = schema.types[schema.names.index(col)]
    if isinstance(t, pa.DataType):
        return t
    try:  # pandas blocks report numpy dtypes
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError):
        return None


def node_universe(sources, key_type) -> pa.Array | None:
    """Sorted distinct non-null ids of ``sources`` — ``(dataset,
    columns)`` pairs — as one ``key_type`` Arrow array, or ``None`` once
    the distinct ids exceed the broadcast guard.

    Every block ships only its own distinct ids; the driver folds them
    whenever the held ids pass the guard, so it never holds much more
    than the guard allows.
    """
    from ..stages import joins

    max_rows = joins.BROADCAST_MAX_ROWS
    max_bytes = joins.BROADCAST_MAX_BYTES
    held = [pa.array([], key_type)]

    def fold() -> bool:
        held[:] = [pc.unique(pa.concat_arrays(held))]
        return len(held[0]) <= max_rows and held[0].nbytes <= max_bytes

    for ds, cols in sources:
        def block_ids(t: pa.Table, _cols=tuple(cols)) -> pa.Table:
            ids = pa.chunked_array(
                [c for col in _cols for c in t[col].chunks],
                type=t.schema.field(_cols[0]).type,
            )
            return pa.table({"id": pc.drop_null(pc.unique(ids))})

        for t in ds.select_columns(list(cols)).map_batches(
            block_ids, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            held.append(pc.cast(t["id"].combine_chunks(), key_type))
            if (sum(len(a) for a in held) > max_rows
                    or sum(a.nbytes for a in held) > max_bytes):
                if not fold():
                    return None
    if not fold():
        return None
    return held[0].take(pc.sort_indices(held[0]))


def resident_edges(edges, universe: pa.Array, *, num_buckets: int,
                   undirected: bool = False):
    """Materialized int32 edge buckets, or ``None`` for no edges.

    ``edges`` has ``subj``/``obj`` columns of the universe's type and an
    optional float64 ``w``; every row becomes ``(s, d[, w])`` with ``s``
    and ``d`` positions in ``universe`` (both directions when
    ``undirected``).  Rows are bucketed by destination range in one
    exchange and sorted on ``d`` within a bucket, so every destination
    lives in exactly one bucket.  Rows with a null endpoint are dropped.
    """
    import ray

    n = len(universe)
    if n == 0 or edges.count() == 0:
        return None
    u_ref = ray.put(universe)

    def rekey(t: pa.Table) -> pa.Table:
        u = ray.get(u_ref)
        s = pc.index_in(t["subj"], value_set=u)
        d = pc.index_in(t["obj"], value_set=u)
        cols = {"s": s, "d": d}
        if undirected:
            cols = {"s": pa.chunked_array(s.chunks + d.chunks, pa.int32()),
                    "d": pa.chunked_array(d.chunks + s.chunks, pa.int32())}
        elif "w" in t.column_names:
            cols["w"] = t["w"]
        out = pa.table(cols).drop_null()
        b = out["d"].to_numpy().astype(np.int64) * num_buckets // n
        return out.append_column("b", pa.array(b.astype(np.int32)))

    def pack(g: pa.Table) -> pa.Table:
        return g.drop_columns(["b"]).sort_by("d")

    return (
        edges.map_batches(rekey, batch_format="pyarrow", batch_size=None)
        .groupby("b")
        .map_groups(pack, batch_format="pyarrow")
        .materialize()
    )


def fold_round(resident, state: np.ndarray, how: str) -> np.ndarray:
    """One execution over the resident buckets → node-scale vector.

    ``how="sum"``: ``out[v] = Σ w·state[s]`` over the edges into ``v``
    (0 without in-edges).  ``how="min"``: ``out[v] = min(state[v],
    state[s] for the edges into v)``.
    """
    import ray

    if how == "sum":
        out = np.zeros(len(state), np.float64)
    else:
        out = state.copy()
    if resident is None:
        return out
    ref = ray.put(state)
    red = np.add if how == "sum" else np.minimum

    def partial(t: pa.Table) -> pa.Table:
        x = ray.get(ref)
        d = t["d"].to_numpy()
        v = x[t["s"].to_numpy()]
        if how == "sum":
            v = v * t["w"].to_numpy()
        if len(d) == 0:
            return pa.table({"d": pa.array(d), "v": pa.array(v)})
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        return pa.table({"d": d[starts], "v": red.reduceat(v, starts)})

    for t in resident.map_batches(
        partial, batch_format="pyarrow", batch_size=None
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        # a bucket split over two blocks repeats a destination, hence
        # the unbuffered ufunc.at rather than a plain scatter
        red.at(out, t["d"].to_numpy(), t["v"].to_numpy())
    return out


def node_table(columns: dict, num_blocks: int):
    """Dataset over node-scale driver columns, split into up to
    ``num_blocks`` blocks so downstream joins keep their parallelism."""
    import ray.data as rd

    t = pa.table(columns)
    step = max(1, -(-t.num_rows // num_blocks))
    return rd.from_arrow(
        [t.slice(i, step) for i in range(0, t.num_rows, step)] or [t]
    )
