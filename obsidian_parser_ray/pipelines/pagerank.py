"""Distributed PageRank over the canonical triple graph.

The reference stops at degree statistics (examples/analyzer.rs:74-84);
PageRank is the canonical "which notes matter" extension of the same
graph surface: the textbook power iteration with uniform teleport and
the dangling mass spread uniformly.

Which path runs is decided by the broadcast guard of
``stages.joins`` (``BROADCAST_MAX_ROWS`` ids and
``BROADCAST_MAX_BYTES`` of id buffers, read at call time) applied to
the node universe subj ∪ obj:

* under the guard — resident-edge rounds (:mod:`.resident`).  The edge
  table stays in the object store as int32 ``(s, d, w)`` buckets keyed
  by destination; the rank vector, out-weights and the L1 delta live
  on the driver as node-scale numpy arrays.  Each round ships
  ``rank / out_w`` once with ``ray.put`` and runs ONE ``map_batches``
  over the buckets; damping, dangling mass and the delta are computed
  in numpy.  The prologue is one universe collection, one re-key +
  bucketing exchange and one :func:`grouped_aggregate` for the
  out-weights.
* past the guard — the Dataset loop: every state table is a Dataset,
  the per-round joins against the rank table (one row per node, so
  never under the guard here) are :func:`hash_join_unique` shuffles,
  the setup joins against the per-source out-weights go through
  :func:`broadcast_join_unique` (map-side while the sources alone fit
  the guard), and the aggregates through :func:`grouped_aggregate` /
  :func:`distinct_rows`; nothing node-scale is held on the driver.

Both paths compute the same iterate.  Total rank mass is exactly 1 per
round by construction (``(1−d) + d·(transferred + dangling) = 1``), so
no totals pass.  L1 convergence is bounded by ``2 · damping^iterations``
regardless of graph shape (power-iteration contraction), which the
oracle gate in ``__ray_entry__`` relies on.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def pagerank(edges, *, damping: float = 0.85, iterations: int = 40,
             num_partitions: int = 64):
    """Directed weighted PageRank → ``(ranks, l1_delta)``.

    ``edges``: Dataset with (subj, obj) string columns and an optional
    int/float ``weight`` (edge multiplicity; defaults to 1).  ``ranks``
    is a ``(node, rank)`` Dataset over subj ∪ obj; ``l1_delta`` is the
    L1 distance between the last two iterates (NaN for
    ``iterations=0``).
    """
    import ray.data as rd

    from .resident import column_type, node_universe

    def proj(t: pa.Table) -> pa.Table:
        w = (
            pc.cast(t["weight"], pa.float64())
            if "weight" in t.column_names
            else pa.array([1.0] * t.num_rows, pa.float64())
        )
        kt = t.schema.field("subj").type
        return pa.table({"subj": t["subj"], "obj": pc.cast(t["obj"], kt),
                         "w": w})

    # materialized once: every consumer below reads it again, and a
    # lazy edge lineage would re-execute per read
    e = edges.map_batches(proj, batch_format="pyarrow").materialize()
    kt = column_type(e, "subj")
    if kt is None or e.count() == 0:
        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.string()),
                 "rank": pa.array([], pa.float64())}
            )
        ), 0.0

    universe = node_universe([(e, ["subj", "obj"])], kt)
    if universe is not None:
        return _pagerank_resident(e, universe, damping=damping,
                                  iterations=iterations,
                                  num_partitions=num_partitions)
    return _pagerank_loop(e, damping=damping, iterations=iterations,
                          num_partitions=num_partitions)


def _pagerank_resident(e, universe, *, damping, iterations,
                       num_partitions):
    from ..stages.joins import grouped_aggregate
    from .resident import (
        exchange_width,
        fold_round,
        node_table,
        resident_edges,
    )

    n = len(universe)
    width = exchange_width(e.count(), num_partitions)
    res = resident_edges(e, universe, num_buckets=width)
    out_w = np.zeros(n)
    for t in grouped_aggregate(
        res, ["s"], [("w", "sum", "out_w")], num_partitions=width
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        out_w[t["s"].to_numpy()] = t["out_w"].to_numpy()
    dang = out_w == 0
    inv_out = np.divide(1.0, out_w, out=np.zeros(n), where=~dang)

    rank = np.full(n, 1.0 / n)
    delta = float("nan")
    for _ in range(iterations):
        flow = fold_round(res, rank * inv_out, "sum")
        new = (1.0 - damping) / n + damping * (flow + rank[dang].sum() / n)
        delta = float(np.abs(new - rank).sum())
        rank = new
    return node_table({"node": universe, "rank": rank}, width), delta


def _pagerank_loop(e, *, damping, iterations, num_partitions):
    """The Dataset loop, for node universes past the broadcast guard.

    Per-round cost is kept to TWO executions:

    * one scalar reduction for the dangling mass — the rank table
      carries a STATIC ``dang`` flag (1.0 on nodes without out-edges,
      joined once at setup), so the reduction is ``sum(rank·dang)``
      over the already-materialized ranks, no per-round join;
    * one execution building the next iterate: ranks ⋈ transitions on
      subj → grouped sum per obj → rebase with the damping constant and
      the dangling share.  ``max(dang)`` inside the same aggregate
      re-attaches the static flag (the zeros row carries it;
      contribution rows carry 0).
    """
    from ..stages.joins import (
        broadcast_join_unique,
        distinct_rows,
        grouped_aggregate,
        hash_join_unique,
    )

    # out-weight per source, folded into a per-edge transition
    # probability p = w / out_w (built once, probed every round)
    out_w = grouped_aggregate(
        e, ["subj"], [("w", "sum", "out_w")], num_partitions=num_partitions
    ).materialize()
    trans = broadcast_join_unique(
        e, out_w, left_key="subj", num_partitions=num_partitions
    ).map_batches(
        lambda t: pa.table(
            {
                "subj": t["subj"],
                "obj": t["obj"],
                "p": pc.divide(t["w"], t["out_w"]),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    # node universe = subj ∪ obj (distinct), with the static dangling
    # flag: dang = 1.0 iff the node has NO out-edges (left-join miss)
    def col_as_node(name):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"node": t[name]})

        return f

    node_ids = distinct_rows(
        e.map_batches(col_as_node("subj"), batch_format="pyarrow")
        .union(e.map_batches(col_as_node("obj"), batch_format="pyarrow")),
        ["node"],
        num_partitions=num_partitions,
    )
    nodes = broadcast_join_unique(
        node_ids,
        out_w.map_batches(
            lambda t: pa.table(
                {
                    "subj": t["subj"],
                    "_has_out": pa.array([1.0] * t.num_rows, pa.float64()),
                }
            ),
            batch_format="pyarrow",
        ),
        left_key="node",
        right_key="subj",
        how="left",
        num_partitions=num_partitions,
    ).map_batches(
        lambda t: pa.table(
            {
                "node": t["node"],
                "dang": pc.subtract(
                    pa.scalar(1.0),
                    pc.coalesce(t["_has_out"], pa.scalar(0.0)),
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    n = nodes.count()

    def with_rank(value: float):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "node": t["node"],
                    "rank": pa.array([value] * t.num_rows, pa.float64()),
                    "dang": t["dang"],
                }
            )

        return f

    ranks = nodes.map_batches(with_rank(1.0 / n), batch_format="pyarrow")
    zeros = nodes.map_batches(with_rank(0.0), batch_format="pyarrow")
    delta = float("nan")

    for it in range(iterations):
        ranks = ranks.materialize()
        # dangling mass: one scalar reduction over materialized ranks
        dangling = (
            ranks.map_batches(
                lambda t: pa.table({"dm": pc.multiply(t["rank"], t["dang"])}),
                batch_format="pyarrow",
            ).sum("dm")
            or 0.0
        )

        # the rank table has one row per node, so past the guard it
        # never broadcasts: shuffle-join it directly
        contrib = hash_join_unique(
            trans,
            ranks.select_columns(["node", "rank"]),
            left_key="subj",
            right_key="node",
            num_partitions=num_partitions,
        ).map_batches(
            lambda t: pa.table(
                {
                    "node": t["obj"],
                    "rank": pc.multiply(t["p"], t["rank"]),
                    "dang": pa.array([0.0] * t.num_rows, pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
        base = (1.0 - damping) / n + damping * dangling / n
        new_ranks = (
            grouped_aggregate(
                contrib.union(zeros), ["node"],
                [("rank", "sum", "in_sum"), ("dang", "max", "dang")],
                num_partitions=num_partitions,
            )
            .map_batches(
                lambda t, b=base: pa.table(
                    {
                        "node": t["node"],
                        "rank": pc.add(
                            pc.multiply(
                                pc.cast(t["in_sum"], pa.float64()), damping
                            ),
                            pa.scalar(b, pa.float64()),
                        ),
                        "dang": t["dang"],
                    }
                ),
                batch_format="pyarrow",
            )
            # coalesce (metadata-level, no exchange): without this
            # clamp the rank table gains blocks every round and
            # per-round cost grows linearly with the iteration index
            .repartition(num_partitions, shuffle=False)
            .materialize()
        )
        if it == iterations - 1:
            delta = (
                hash_join_unique(
                    new_ranks.select_columns(["node", "rank"]),
                    ranks.map_batches(
                        lambda t: pa.table(
                            {"node": t["node"], "old": t["rank"]}
                        ),
                        batch_format="pyarrow",
                    ),
                    left_key="node",
                    num_partitions=num_partitions,
                )
                .map_batches(
                    lambda t: pa.table(
                        {"d": pc.abs(pc.subtract(t["rank"], t["old"]))}
                    ),
                    batch_format="pyarrow",
                )
                .sum("d")
            )
        ranks = new_ranks

    return ranks.select_columns(["node", "rank"]), float(delta)
