"""Graph-analytic operators over the canonical triples table.

:func:`triangle_counts` — EXACT per-node triangle participation counts
on the undirected graph induced by the triples (all predicates, self
loops dropped).  The classic degree-orientation algorithm, expressed
as Ray Data shuffles:

1. distinct undirected edge set (two-phase distinct, same shape as
   canonicalize: per-block partial → hash-partition → per-partition
   collapse),
2. degree per node (partial counts → small groupby),
3. orient every edge from its lower-(degree, node) endpoint to the
   higher one (two broadcast-free hash joins of the unique degree
   table onto the edges),
4. wedge generation per source node (one shuffle on the source key;
   out-degree under degree orientation is O(sqrt(m)), so per-node
   pair emission is bounded without any hub cap — the count stays
   EXACT, unlike cocitation's ``max_fanin`` drop),
5. close wedges with a semi join against the oriented edge set on the
   (v, w) composite key (each triangle matched exactly once), then
   explode the 3 corners and count per node.

Every stage is a bounded shuffle or a vectorized Arrow/numpy kernel;
nothing materializes on the driver.  Reference has no graph analytics
beyond degree (examples/analyzer.rs:74-84); this is part of the
beyond-reference training-data/graph surface.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SEP = "\x00"


def _edge_key(a, b):
    return pc.binary_join_element_wise(a, b, _SEP)


def undirected_edges(triples, *, num_partitions: int = 64):
    """Distinct undirected edge set ``(a, b)`` with ``a < b`` from the
    canonical triples (all predicates, self loops dropped)."""
    from ..hashing import hash_bucket_array

    def partial(t: pa.Table) -> pa.Table:
        s, o = t["subj"], t["obj"]
        a = pc.min_element_wise(s, o)
        b = pc.max_element_wise(s, o)
        keep = pc.not_equal(s, o)
        out = pa.table({"a": a, "b": b}).filter(keep)
        out = out.group_by(["a", "b"]).aggregate([])
        return out.append_column(
            "part", hash_bucket_array(_edge_key(out["a"], out["b"]),
                                      num_partitions)
        )

    def collapse(t: pa.Table) -> pa.Table:
        return t.drop_columns(["part"]).group_by(["a", "b"]).aggregate([])

    return (
        triples.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(collapse, batch_format="pyarrow")
    )


def triangle_counts(triples, *, num_partitions: int = 64):
    """Per-node triangle participation: ``(node, n_triangles)`` —
    one row per node appearing in ≥1 triangle of the undirected
    distinct graph.  Exact (no caps, no sampling).

    r5 restructure (found by the scripts/scale_sweep.py hotlist —
    226 s at sf0.1 for a 19k-edge graph, all overhead):

    * the shared intermediates (edge set, degree table, oriented
      edges) are ``materialize()``d — each was consumed by 2+
      downstream stages, and a lazy Dataset re-executes its WHOLE
      lineage (here: the kg build itself) once per consumer.  The pin
      is edge-scale and spill-backed; re-running the upstream twice
      costs more at every scale;
    * downstream exchange width is sized from the MEASURED edge count
      (the materialize makes the count free) instead of a fixed 64 —
      tiny graphs stop paying 64-task fixed costs per stage;
    * the degree-attach and wedge-close joins go through the guarded
      size-adaptive :func:`..stages.joins.broadcast_join_unique`
      (map-side when the right side fits, automatic fallback to the
      shuffle join past the guard — node/edge-scale sides at 10^12
      take the fallback).

    Measured: 226 s -> ~4 s at sf0.1, identical counts.
    """
    from ray.data.aggregate import Sum

    from ..hashing import hash_bucket_array
    from .joins import broadcast_join_unique

    ue = undirected_edges(
        triples, num_partitions=num_partitions
    ).materialize()
    m = ue.count()
    # exchange width ∝ measured edges (~200k rows per reduce task),
    # capped by the caller's num_partitions
    num_partitions = max(4, min(num_partitions, m // 200_000 + 4))

    def deg_partial(t: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        out = pa.table({"node": nodes}).group_by(["node"]).aggregate(
            [([], "count_all")]
        )
        return out.rename_columns(
            ["_d" if c == "count_all" else c for c in out.column_names]
        )

    deg = (
        ue.map_batches(deg_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Sum("_d", alias_name="deg"))
    ).materialize()  # consumed by both endpoint joins

    # orient: carry deg of both endpoints, direct the edge toward the
    # higher (deg, node) endpoint — a total order, so exactly one
    # orientation per edge
    e = broadcast_join_unique(ue, deg, left_key="a", right_key="node",
                              num_partitions=num_partitions)
    e = broadcast_join_unique(e, deg, left_key="b", right_key="node",
                              suffix="_b", num_partitions=num_partitions)

    def orient(t: pa.Table) -> pa.Table:
        da, db = t["deg"], t["deg_b"]
        # a-first iff (deg_a, a) < (deg_b, b); a < b already holds, so
        # ties in degree keep a first
        a_first = pc.or_(
            pc.less(da, db),
            pc.equal(da, db),
        )
        u = pc.if_else(a_first, t["a"], t["b"])
        v = pc.if_else(a_first, t["b"], t["a"])
        dv = pc.if_else(a_first, db, da)
        return pa.table({"u": u, "v": v, "dv": dv})

    # consumed twice (wedge source + closing edge set)
    oriented = e.map_batches(orient, batch_format="pyarrow").materialize()

    def add_upart(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", hash_bucket_array(t["u"], num_partitions)
        )

    def wedges(t: pa.Table) -> pa.Table:
        # out-neighbors of u sorted by the SAME (deg, node) total
        # order used for orientation, so each emitted pair (v, w) is
        # oriented and matches the closing edge's (u, v) key exactly
        t = t.sort_by([("u", "ascending"), ("dv", "ascending"),
                       ("v", "ascending")])
        u = t["u"].combine_chunks()
        v = t["v"].combine_chunks()
        n = t.num_rows
        if n == 0:
            return pa.table({
                "u": pa.array([], pa.string()),
                "v": pa.array([], pa.string()),
                "w": pa.array([], pa.string()),
            })
        same = pc.equal(u.slice(1), u.slice(0, n - 1))
        starts = np.flatnonzero(
            np.concatenate(([True], ~same.to_numpy(zero_copy_only=False)))
        )
        sizes = np.diff(np.concatenate((starts, [n])))
        li: list[np.ndarray] = []
        ri: list[np.ndarray] = []
        for o, s in zip(starts, sizes):
            if s < 2:
                continue
            x, y = np.triu_indices(int(s), k=1)
            li.append(x + o)
            ri.append(y + o)
        if not li:
            return pa.table({
                "u": pa.array([], pa.string()),
                "v": pa.array([], pa.string()),
                "w": pa.array([], pa.string()),
            })
        lii = np.concatenate(li)
        rii = np.concatenate(ri)
        idx_l = pa.array(lii, pa.int64())
        idx_r = pa.array(rii, pa.int64())
        return pa.table({
            "u": u.take(idx_l),
            "v": v.take(idx_l),
            "w": v.take(idx_r),
        })

    wedge_ds = (
        oriented.map_batches(add_upart, batch_format="pyarrow")
        .groupby("part")
        .map_groups(wedges, batch_format="pyarrow")
    )

    def wedge_key(t: pa.Table) -> pa.Table:
        return t.append_column("_ek", _edge_key(t["v"], t["w"]))

    def oedge_key(t: pa.Table) -> pa.Table:
        return pa.table({"_ek": _edge_key(t["u"], t["v"])})

    triangles = broadcast_join_unique(
        wedge_ds.map_batches(wedge_key, batch_format="pyarrow"),
        oriented.map_batches(oedge_key, batch_format="pyarrow"),
        left_key="_ek", how="semi", num_partitions=num_partitions,
    )

    def corner_partial(t: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays([
            t["u"].combine_chunks(),
            t["v"].combine_chunks(),
            t["w"].combine_chunks(),
        ])
        out = pa.table({"node": nodes}).group_by(["node"]).aggregate(
            [([], "count_all")]
        )
        return out.rename_columns(
            ["_n" if c == "count_all" else c for c in out.column_names]
        )

    from ray.data.aggregate import Sum as _Sum

    return (
        triangles.map_batches(corner_partial, batch_format="pyarrow")
        .groupby("node")
        .aggregate(_Sum("_n", alias_name="n_triangles"))
    )


def bfs_hops(triples, sources: list[str], *, pred: str = "links_to",
             directed: bool = False, max_hops: int = 8,
             num_partitions: int = 32,
             max_local_edges: int = 2_000_000):
    """Hop distances from ``sources`` over the ``pred`` edge set:
    ``(node, dist)`` for every node within ``max_hops``.

    Frontier-expansion BFS as rounds of bounded Ray joins: each round
    is one semi join (edges whose tail sits in the frontier) plus one
    anti join (drop already-visited heads), and the distance label of
    a node is written exactly once (the first round that reaches it,
    which IS its BFS distance).  State tables are coalesced +
    materialized per round (the iterative-pipeline block-growth rule —
    same as pagerank/components).

    Both per-round joins go through the guarded size-adaptive
    :func:`..stages.joins.broadcast_join_unique` with the
    frontier/visited table as the right side: while those fit the
    broadcast guard the EDGE TABLE IS NEVER SHUFFLED — each round is a
    map-side probe + one frontier-sized dedup exchange (at sf0.1 this
    took the query from 101 s to ~6 s; r5 scale-sweep finding).  A
    giant-component visited set past the guard falls back to the
    shuffle join automatically.  Exchange width is sized from the
    measured edge count.
    """
    import ray.data as rd

    from .joins import broadcast_join_unique

    def keep_pred(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["pred"], pa.scalar(pred, pa.string())))

    e = triples.map_batches(keep_pred, batch_format="pyarrow")

    def fwd(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["subj"], "b": t["obj"]})

    edges = e.map_batches(fwd, batch_format="pyarrow")
    if not directed:
        def rev(t: pa.Table) -> pa.Table:
            return pa.table({"a": t["obj"], "b": t["subj"]})

        edges = edges.union(e.map_batches(rev, batch_format="pyarrow"))
    edges = edges.materialize()
    n_edges = edges.count()
    num_partitions = max(4, min(num_partitions,
                                n_edges // 200_000 + 4))

    start_nodes = sorted(set(sources))

    # LOCAL fast path — the same auto-guard pattern as the analyzer's
    # component topology (pipelines/analyzer.py max_local_nodes): an
    # edge set under the broadcast guard is fetched whole by the
    # per-hop probes ANYWAY, so below it the whole BFS runs as one
    # driver sweep over the fetched table instead of max_hops Dataset
    # executions (~2.5 s of per-execution fixed cost each at sf0.1).
    # Equality with the distributed loop is pytest-pinned; pass
    # max_local_edges=0 to force the distributed path.
    if n_edges <= max_local_edges:
        tbl = pa.concat_tables(
            list(edges.iter_batches(batch_format="pyarrow"))
            or [pa.table({"a": pa.array([], pa.string()),
                          "b": pa.array([], pa.string())})]
        ).combine_chunks()
        adj: dict = {}
        for a_, b_ in zip(tbl["a"].to_pylist(), tbl["b"].to_pylist()):
            adj.setdefault(a_, []).append(b_)
        dist = {s: 0 for s in start_nodes}
        frontier_l = start_nodes
        for d in range(1, max_hops + 1):
            nxt = []
            for u in frontier_l:
                for w in adj.get(u, ()):
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            if not nxt:
                break
            frontier_l = nxt
        items = sorted(dist.items())
        return rd.from_arrow(pa.table({
            "node": pa.array([k for k, _ in items], pa.string()),
            "dist": pa.array([v for _, v in items], pa.int64()),
        }))
    visited_tbl = pa.table({
        "node": pa.array(start_nodes, pa.string()),
        "dist": pa.array([0] * len(start_nodes), pa.int64()),
    })

    # FAST PATH — one execution and ONE exchange per hop, while the
    # visited set fits the broadcast guard (it is exactly what the
    # anti probe would broadcast anyway, so holding it as one driver
    # Arrow table adds no new driver surface): the frontier node set
    # ships via ray.put, every resident edge block emits its local
    # distinct reached heads, and the dedup reduce drops
    # already-visited nodes map-side against the visited broadcast.
    # Past the guard the remaining hops run the Dataset loop below.
    import ray as _ray

    from ..hashing import hash_bucket_array
    from . import joins

    max_bcast_rows = joins.BROADCAST_MAX_ROWS
    frontier_nodes = visited_tbl["node"].combine_chunks()
    next_hop = 1
    fell_back = False
    while next_hop <= max_hops:
        if visited_tbl.num_rows > max_bcast_rows:
            fell_back = True
            break
        d = next_hop
        f_ref = _ray.put(frontier_nodes)
        v_ref = _ray.put(visited_tbl["node"].combine_chunks())

        def probe(t: pa.Table, _f=f_ref) -> pa.Table:
            f = _ray.get(_f)
            keep = pc.is_valid(pc.index_in(t["a"], f))
            heads = pc.unique(t.filter(keep)["b"])
            out = pa.table({"node": heads})
            return out.append_column(
                "part", hash_bucket_array(heads, num_partitions))

        def reduce(g: pa.Table, _v=v_ref) -> pa.Table:
            nodes = g["node"]
            if isinstance(nodes, pa.ChunkedArray):
                nodes = nodes.combine_chunks()
            nodes = pc.unique(nodes)
            v = _ray.get(_v)
            fresh = nodes.filter(
                pc.invert(pc.is_valid(pc.index_in(nodes, v))))
            return pa.table({"node": fresh})

        new_tbl = pa.concat_tables(
            list(
                edges.map_batches(probe, batch_format="pyarrow")
                .groupby("part")
                .map_groups(reduce, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow")
            )
            or [pa.table({"node": pa.array([], pa.string())})]
        ).combine_chunks()
        if new_tbl.num_rows == 0:
            return rd.from_arrow(visited_tbl)
        visited_tbl = pa.concat_tables([
            visited_tbl,
            new_tbl.append_column(
                "dist",
                pa.array([d] * new_tbl.num_rows, pa.int64()),
            ),
        ]).combine_chunks()
        frontier_nodes = new_tbl["node"].combine_chunks()
        next_hop += 1
    if not fell_back:
        return rd.from_arrow(visited_tbl)

    # FALLBACK — Dataset loop (guarded adaptive joins), resumed from
    # wherever the fast path stopped
    visited = rd.from_arrow(visited_tbl).repartition(
        num_partitions // 4 or 1, shuffle=False
    ).materialize()
    frontier = rd.from_arrow(
        pa.table({"node": frontier_nodes})
    ).materialize()

    for d in range(next_hop, max_hops + 1):
        # heads of edges leaving the frontier, deduped per partition
        reached = broadcast_join_unique(
            edges, frontier.select_columns(["node"]),
            left_key="a", right_key="node", how="semi",
            num_partitions=num_partitions,
        )

        def heads(t: pa.Table) -> pa.Table:
            out = pa.table({"node": t["b"]})
            return out.group_by(["node"]).aggregate([])

        cand = reached.map_batches(heads, batch_format="pyarrow")
        # global dedup (a head can arrive from many partitions)
        from ..hashing import hash_bucket_array

        def addp(t: pa.Table) -> pa.Table:
            return t.append_column(
                "part", hash_bucket_array(t["node"], num_partitions))

        def collapse(t: pa.Table) -> pa.Table:
            return (t.drop_columns(["part"])
                    .group_by(["node"]).aggregate([]))

        cand = (cand.map_batches(addp, batch_format="pyarrow")
                .groupby("part")
                .map_groups(collapse, batch_format="pyarrow"))
        new = broadcast_join_unique(
            cand, visited.select_columns(["node"]),
            left_key="node", how="anti", num_partitions=num_partitions,
        )

        def label(t: pa.Table) -> pa.Table:
            return t.append_column(
                "dist", pa.array([d] * t.num_rows, pa.int64()))

        frontier = new.map_batches(
            label, batch_format="pyarrow"
        ).repartition(num_partitions // 4 or 1, shuffle=False).materialize()
        if frontier.count() == 0:
            break
        visited = visited.union(frontier).repartition(
            num_partitions // 4 or 1, shuffle=False
        ).materialize()

    return visited


def k_core(triples, *, k: int = 2, num_partitions: int = 16,
           max_iters: int = 100):
    """Nodes of the ``k``-core: the maximal subgraph where every node
    has degree ≥ k (undirected, distinct edges, self loops dropped).

    Iterative peeling as Ray rounds, following the repo's iterative
    rules (state coalesced with a metadata-only repartition before each
    ``materialize``; joins via the partition-robust hash join):

    1. degrees from the CURRENT edge set (per-block partial counts →
       groupby-sum);
    2. survivors = nodes with degree ≥ k;
    3. edges = edges with BOTH endpoints surviving (two semi joins);
    repeat until no node is dropped — each round removes at least one
    node, so rounds ≤ nodes (``max_iters`` is a backstop, not a
    tuning knob).  Returns ``(node, degree)`` with the degree inside
    the final core (≥ k by construction).

    A chain peels away end-first under k=2 while a cycle survives —
    the classic distinction tests assert.  Reference has no graph
    analytics beyond degree; this extends the beyond-reference
    surface (cores are the standard KG-quality filter for dense
    subregions).
    """
    from ray.data.aggregate import Sum

    import ray.data as rd

    from .joins import hash_join_unique

    empty = pa.table(
        {"node": pa.array([], pa.string()), "degree": pa.array([], pa.int64())}
    )

    edges = undirected_edges(triples, num_partitions=num_partitions)
    edges = edges.repartition(num_partitions, shuffle=False).materialize()
    n_prev = None

    def deg_partial(t: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()]
        )
        flat = pa.table(
            {"node": nodes, "degree": pa.array([1] * len(nodes), pa.int64())}
        )
        out = flat.group_by("node").aggregate([("degree", "sum")])
        return out.rename_columns(
            ["degree" if c == "degree_sum" else c for c in out.column_names]
        ).select(["node", "degree"])

    for _ in range(max_iters):
        if edges.count() == 0:
            return rd.from_arrow(empty)
        degrees = edges.map_batches(
            deg_partial, batch_format="pyarrow"
        ).groupby("node").aggregate(Sum("degree", alias_name="degree"))

        def keep_core(t: pa.Table) -> pa.Table:
            return t.filter(pc.greater_equal(t["degree"], pa.scalar(k)))

        core = degrees.map_batches(keep_core, batch_format="pyarrow")
        core = core.repartition(num_partitions, shuffle=False).materialize()
        n_core = core.count()
        if n_core == 0:
            return rd.from_arrow(empty)
        if n_core == n_prev:
            return core
        n_prev = n_core
        survivors = core.select_columns(["node"])
        edges = hash_join_unique(
            edges, survivors, left_key="a", right_key="node", how="semi",
            num_partitions=num_partitions,
        )
        edges = hash_join_unique(
            edges, survivors, left_key="b", right_key="node", how="semi",
            num_partitions=num_partitions,
        )
        edges = edges.repartition(num_partitions, shuffle=False).materialize()
    raise RuntimeError(f"k_core did not converge in {max_iters} rounds")


_EMPTY_PICK = None


def _pick_hops(walks: pa.Table, edges_kv: pa.Table, step_seed: str,
               keep_hash: bool) -> pa.Table:
    """Shared hash-min hop kernel for both walk paths: Acero join of
    (walk_id, cur) against (cur, nxt), per-(walk, neighbor, step)
    hash, per-walk argmin via one sort + adjacent-run mask.  With
    ``keep_hash`` the winner rows keep ``_h`` so per-block winners can
    be min-combined globally (broadcast path)."""
    from ..hashing import hash64_array

    cols = {"walk_id": pa.array([], pa.string()),
            "cur": pa.array([], pa.string())}
    if keep_hash:
        cols["_h"] = pa.array([], pa.uint64())
    empty = pa.table(cols)
    if walks.num_rows == 0 or edges_kv.num_rows == 0:
        return empty
    m = walks.join(edges_kv, keys="cur", join_type="inner")
    if m.num_rows == 0:
        return empty
    wid = m["walk_id"]
    if isinstance(wid, pa.ChunkedArray):
        wid = wid.combine_chunks()
    nxt = m["nxt"]
    if isinstance(nxt, pa.ChunkedArray):
        nxt = nxt.combine_chunks()
    # printable separator: the key only needs to be unambiguous
    # within one walk group, where walk_id is constant
    key = pc.binary_join_element_wise(pa.scalar(step_seed), wid, nxt, "|")
    h = hash64_array(key.to_numpy(zero_copy_only=False))
    s = pa.table({
        "walk_id": wid, "cur": nxt,
        "_h": pa.array(h),  # uint64 — Arrow sorts it unsigned
    })
    s = _first_per_walk(s)
    return s if keep_hash else s.select(["walk_id", "cur"])


def _first_per_walk(s: pa.Table) -> pa.Table:
    """(walk_id, cur, _h) → the min-(_h, cur) row per walk_id."""
    idx = pc.sort_indices(
        s, sort_keys=[("walk_id", "ascending"), ("_h", "ascending"),
                      ("cur", "ascending")],
    )
    s = s.take(idx)
    swid = s["walk_id"]
    if isinstance(swid, pa.ChunkedArray):
        swid = swid.combine_chunks()
    n = len(swid)
    first = np.ones(n, dtype=bool)
    if n > 1:
        first[1:] = pc.not_equal(
            swid.slice(1), swid.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
    return s.filter(pa.array(first))


def random_walks(triples, *, walks_per_node: int = 1, walk_len: int = 4,
                 pred: str | None = "links_to", seed: int = 42,
                 num_partitions: int = 64,
                 broadcast_frontier: bool | None = None,
                 max_broadcast_rows: int = 2_000_000,
                 max_broadcast_bytes: int = 256 << 20):
    """Deterministic uniform random walks over the directed edge set —
    DeepWalk/node2vec-style corpus generation for graph ML.

    Every node starts ``walks_per_node`` walks; at each step the next
    hop is chosen uniformly among the current node's out-neighbors by
    HASH-MIN sampling: ``argmin hash64(seed, walk_id, step, neighbor)``
    — deterministic (reruns emit identical walks), uniform per step,
    and computable inside the partition holding the node's adjacency.
    Walks at sink nodes (no out-edges) simply stop.

    Dataflow per step (``walk_len`` bounded rounds): while the
    frontier fits the broadcast guard (``broadcast_frontier=None`` =
    auto; True/False force), the step is MAP-SIDE — the frontier
    table ships once via ``ray.put``, every resident edge block joins
    it locally (Acero hash join) and emits its per-walk hash-min
    winner, and one winner-sized exchange (≈ frontier rows, not edge
    rows) picks the global per-walk minimum.  The edge table is NEVER
    re-shuffled.  Past the guard the step falls back to the original
    co-partition shuffle (frontier ∪ edges on the current node — one
    bounded hash exchange carrying the edge rows).  Both paths use
    the identical per-(walk, neighbor, step) hash, so they emit
    IDENTICAL walks (pytest-pinned).  Per-step work is Σ deg(cur)
    either way — the inherent cost of uniform neighbor sampling
    without a prebuilt alias table.

    Output: ``(walk_id, step, node)`` rows, step 0 = the start node.
    """
    import pandas as pd

    from ..hashing import hash64_array, hash_bucket_array

    edges = triples
    if pred is not None:
        edges = edges.filter(expr=f"pred == '{pred}'")
    edges = edges.select_columns(["subj", "obj"])

    # start frontier: every distinct subject × walks_per_node
    def starts(t: pa.Table) -> pa.Table:
        import numpy as _np

        subj = t["subj"]
        if isinstance(subj, pa.ChunkedArray):
            subj = subj.combine_chunks()
        u = pc.unique(subj)
        n = len(u)
        rep = pc.take(u, pa.array(
            _np.repeat(_np.arange(n), walks_per_node)))
        k = pa.array(
            _np.tile(_np.arange(walks_per_node), n).astype("int64"))
        wid = pc.binary_join_element_wise(
            rep, pc.cast(k, pa.string()), "#")
        return pa.table({"walk_id": wid, "cur": rep})

    # one materialized pass over the edge lineage feeds the start
    # frontier, the width probe, and the per-step tagged table alike
    edges = edges.materialize()

    # distinct start rows (subjects repeat across blocks) — the
    # partitioned Arrow distinct; a groupby(walk_id).map_groups here
    # costs one Python call PER WALK (r5 finding: 2.9 s vs 1.3 s at
    # 162k walks) and inflates the block count
    from .joins import distinct_rows

    frontier = distinct_rows(
        edges.map_batches(starts, batch_format="pyarrow"),
        ["walk_id", "cur"], num_partitions=8,
    ).repartition(8, shuffle=False).materialize()

    out_parts = []

    def emit(step: int):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "walk_id": t["walk_id"],
                    "step": pa.array([step] * t.num_rows, pa.int64()),
                    "node": t["cur"],
                }
            )

        return f

    out_parts.append(frontier.map_batches(emit(0), batch_format="pyarrow"))

    def tag_walk(t: pa.Table) -> pa.Table:
        cur = t["cur"]
        if isinstance(cur, pa.ChunkedArray):
            cur = cur.combine_chunks()
        n = t.num_rows
        return pa.table(
            {
                "part": hash_bucket_array(cur, num_partitions),
                "is_edge": pa.array([False] * n, pa.bool_()),
                "key": cur,
                "walk_id": t["walk_id"],
                "obj": pa.nulls(n, pa.string()),
            }
        )

    def tag_edge(t: pa.Table) -> pa.Table:
        subj = t["subj"]
        if isinstance(subj, pa.ChunkedArray):
            subj = subj.combine_chunks()
        n = t.num_rows
        return pa.table(
            {
                "part": hash_bucket_array(subj, num_partitions),
                "is_edge": pa.array([True] * n, pa.bool_()),
                "key": subj,
                "walk_id": pa.nulls(n, pa.string()),
                "obj": t["obj"],
            }
        )

    # materialized ONCE: lazy, the edge table would re-derive its
    # whole lineage (the triples build / fact-table reads in callers)
    # on every step's union (r5 scale-sweep finding).  The per-step
    # exchange still carries the edge rows — the inherent cost of
    # uniform sampling without a persisted adjacency layout
    # (read_adjacency is the 10^12-scale alternative).  ORDER MATTERS:
    # the exchange width must be fixed BEFORE either tag map runs —
    # walks and edges co-locate only because both hash with the SAME
    # modulus (a mismatch silently strands walks at step 0: they
    # "stop", which the sink-node semantics make look legal).
    num_partitions = max(4, min(num_partitions,
                                edges.count() // 200_000 + 4))

    # built on first FALLBACK use only — the broadcast path never
    # needs the tagged union table
    _tagged_cache: list = []

    def _tagged_edges():
        if not _tagged_cache:
            _tagged_cache.append(
                edges.map_batches(
                    tag_edge, batch_format="pyarrow"
                ).materialize()
            )
        return _tagged_cache[0]

    import ray as _ray

    from ..hashing import hash_bucket_array as _hba

    for step in range(1, walk_len + 1):
        step_seed = f"{seed}|{step}|"
        n_frontier = frontier.count()
        use_bcast = broadcast_frontier
        if use_bcast is None:
            use_bcast = (n_frontier <= max_broadcast_rows
                         and frontier.size_bytes() <= max_broadcast_bytes)
        if use_bcast:
            # map-side step: the frontier ships once, every resident
            # edge block picks its local per-walk hash-min, and only
            # the winner rows (≈ frontier-sized) are exchanged
            f_tbl = pa.concat_tables(
                list(frontier.iter_batches(batch_format="pyarrow"))
                or [pa.table({"walk_id": pa.array([], pa.string()),
                              "cur": pa.array([], pa.string())})]
            ).combine_chunks()
            f_ref = _ray.put(f_tbl)

            def local_pick(t: pa.Table, _ss=step_seed,
                           _ref=f_ref) -> pa.Table:
                f = _ray.get(_ref)  # zero-copy plasma read per task
                return _pick_hops(
                    f, pa.table({"cur": t["subj"], "nxt": t["obj"]}),
                    _ss, keep_hash=True,
                )

            cmb = max(4, min(num_partitions, n_frontier // 500_000 + 4))

            def addp(t: pa.Table) -> pa.Table:
                return t.append_column("part", _hba(t["walk_id"], cmb))

            def pick_global(g: pa.Table) -> pa.Table:
                return _first_per_walk(
                    g.drop_columns(["part"])
                ).select(["walk_id", "cur"])

            frontier = (
                edges.map_batches(local_pick, batch_format="pyarrow")
                .map_batches(addp, batch_format="pyarrow")
                .groupby("part")
                .map_groups(pick_global, batch_format="pyarrow")
                .repartition(cmb, shuffle=False)
                .materialize()
            )
        else:
            def hop(g: pa.Table, _ss=step_seed) -> pa.Table:
                is_edge = g["is_edge"]
                if isinstance(is_edge, pa.ChunkedArray):
                    is_edge = is_edge.combine_chunks()
                walks = g.filter(pc.invert(is_edge))
                eg = g.filter(is_edge)
                return _pick_hops(
                    pa.table({"walk_id": walks["walk_id"],
                              "cur": walks["key"]}),
                    pa.table({"cur": eg["key"], "nxt": eg["obj"]}),
                    _ss, keep_hash=False,
                )

            frontier = (
                frontier.map_batches(tag_walk, batch_format="pyarrow")
                .union(_tagged_edges())
                .groupby("part")
                .map_groups(hop, batch_format="pyarrow")
                .repartition(num_partitions, shuffle=False)
                .materialize()
            )
        if frontier.count() == 0:
            break
        out_parts.append(
            frontier.map_batches(emit(step), batch_format="pyarrow")
        )

    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return out


def biased_walks(triples, *, walks_per_node: int = 1, walk_len: int = 4,
                 p: float = 1.0, q: float = 1.0,
                 pred: str | None = "links_to", seed: int = 42,
                 num_partitions: int = 64):
    """node2vec-biased random walks (Grover & Leskovec 2016): the next
    hop is drawn with weight ``1/p`` for returning to the previous
    node, ``1`` for a neighbor of the previous node (BFS-ish), and
    ``1/q`` otherwise (DFS-ish).

    Weighted sampling is DETERMINISTIC via Efraimidis–Spirakis keys:
    ``argmin −ln(u)/w`` with ``u`` derived from
    ``hash64(seed, walk_id, step, candidate)`` — reruns emit identical
    walks; ``p = q = 1`` degenerates to uniform sampling.  The first
    hop (no previous node) is uniform.

    Cost per step: the candidate fan-out shuffle (Σ deg(cur), as in
    :func:`random_walks`) PLUS one distance-1 classification join of
    the (prev, candidate) pairs against the unique edge-key set —
    node2vec's inherent extra lookup, kept as a bounded
    ``hash_join_unique(how="left")``.

    Output: ``(walk_id, step, node)`` rows, step 0 = the start node.
    """
    import pandas as pd

    from ..hashing import hash64_array, hash_bucket_array
    from .joins import hash_join_unique

    edges = triples
    if pred is not None:
        edges = edges.filter(expr=f"pred == '{pred}'")
    edges = edges.select_columns(["subj", "obj"])

    def starts(t: pa.Table) -> pa.Table:
        import numpy as _np

        subj = t["subj"]
        if isinstance(subj, pa.ChunkedArray):
            subj = subj.combine_chunks()
        u = pc.unique(subj)
        n = len(u)
        rep = pc.take(u, pa.array(_np.repeat(_np.arange(n), walks_per_node)))
        k = pa.array(_np.tile(_np.arange(walks_per_node), n).astype("int64"))
        wid = pc.binary_join_element_wise(rep, pc.cast(k, pa.string()), "#")
        return pa.table(
            {"walk_id": wid, "prev": pa.array([""] * len(wid), pa.string()),
             "cur": rep}
        )

    from .joins import distinct_rows

    frontier = distinct_rows(
        edges.map_batches(starts, batch_format="pyarrow"),
        ["walk_id", "prev", "cur"], num_partitions=8,
    ).repartition(8, shuffle=False).materialize()

    def emit(step: int):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "walk_id": t["walk_id"],
                    "step": pa.array([step] * t.num_rows, pa.int64()),
                    "node": t["cur"],
                }
            )

        return f

    out_parts = [frontier.map_batches(emit(0), batch_format="pyarrow")]

    def edge_marks(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pk": pc.binary_join_element_wise(
                    t["subj"], t["obj"], "\x00"
                ),
                "is_d1": pa.array([True] * t.num_rows, pa.bool_()),
            }
        )

    edge_key_tbl = edges.map_batches(edge_marks, batch_format="pyarrow")

    def tag_walk(t: pa.Table) -> pa.Table:
        cur = t["cur"]
        if isinstance(cur, pa.ChunkedArray):
            cur = cur.combine_chunks()
        n = t.num_rows
        return pa.table(
            {
                "part": hash_bucket_array(cur, num_partitions),
                "is_edge": pa.array([False] * n, pa.bool_()),
                "key": cur,
                "walk_id": t["walk_id"],
                "prev": t["prev"],
                "obj": pa.nulls(n, pa.string()),
            }
        )

    def tag_edge(t: pa.Table) -> pa.Table:
        subj = t["subj"]
        if isinstance(subj, pa.ChunkedArray):
            subj = subj.combine_chunks()
        n = t.num_rows
        return pa.table(
            {
                "part": hash_bucket_array(subj, num_partitions),
                "is_edge": pa.array([True] * n, pa.bool_()),
                "key": subj,
                "walk_id": pa.nulls(n, pa.string()),
                "prev": pa.nulls(n, pa.string()),
                "obj": t["obj"],
            }
        )

    # same r5 treatment as random_walks: one materialized edge pass,
    # width fixed BEFORE either tag map runs (both must hash with the
    # SAME modulus — a mismatch silently strands walks at step 0)
    edges = edges.materialize()
    num_partitions = max(4, min(num_partitions,
                                edges.count() // 200_000 + 4))
    tagged_edges = edges.map_batches(
        tag_edge, batch_format="pyarrow"
    ).materialize()

    for step in range(1, walk_len + 1):
        def fanout(g: pa.Table) -> pa.Table:
            is_edge = g["is_edge"]
            if isinstance(is_edge, pa.ChunkedArray):
                is_edge = is_edge.combine_chunks()
            walks = g.filter(pc.invert(is_edge))
            empty = pa.table(
                {"walk_id": pa.array([], pa.string()),
                 "prev": pa.array([], pa.string()),
                 "cur": pa.array([], pa.string()),
                 "nxt": pa.array([], pa.string())}
            )
            if walks.num_rows == 0:
                return empty
            eg = g.filter(is_edge)
            wdf = pd.DataFrame(
                {"walk_id": walks["walk_id"].to_pylist(),
                 "prev": walks["prev"].to_pylist(),
                 "cur": walks["key"].to_pylist()}
            )
            edf = pd.DataFrame(
                {"cur": eg["key"].to_pylist(), "nxt": eg["obj"].to_pylist()}
            )
            m = wdf.merge(edf, on="cur", how="inner")
            if not len(m):
                return empty
            return pa.table(
                {
                    "walk_id": pa.array(m["walk_id"].to_numpy(), pa.string()),
                    "prev": pa.array(m["prev"].to_numpy(), pa.string()),
                    "cur": pa.array(m["cur"].to_numpy(), pa.string()),
                    "nxt": pa.array(m["nxt"].to_numpy(), pa.string()),
                }
            )

        cands = (
            frontier.map_batches(tag_walk, batch_format="pyarrow")
            .union(tagged_edges)
            .groupby("part")
            .map_groups(fanout, batch_format="pyarrow")
        )

        def add_pk(t: pa.Table) -> pa.Table:
            return t.append_column(
                "pk",
                pc.binary_join_element_wise(t["prev"], t["nxt"], "\x00"),
            )

        classified = hash_join_unique(
            cands.map_batches(add_pk, batch_format="pyarrow"),
            edge_key_tbl,
            left_key="pk", how="left", num_partitions=num_partitions,
        )

        step_seed = f"{seed}|{step}|"

        def pick(g: pd.DataFrame, _ss=step_seed) -> pd.DataFrame:
            if not len(g):
                return pd.DataFrame(
                    {"walk_id": pd.Series([], dtype="object"),
                     "prev": pd.Series([], dtype="object"),
                     "cur": pd.Series([], dtype="object")}
                )
            h = hash64_array((_ss + g["walk_id"] + "|" + g["nxt"]).to_numpy())
            u = (h.astype(np.float64) + 0.5) / 2.0**64
            w = np.where(
                g["nxt"].to_numpy() == g["prev"].to_numpy(), 1.0 / p,
                np.where(g["is_d1"].fillna(False).to_numpy(), 1.0, 1.0 / q),
            )
            g = g.assign(_es=(-np.log(u)) / w)
            sel = g.loc[g.groupby("walk_id", sort=False)["_es"].idxmin()]
            return pd.DataFrame(
                {"walk_id": sel["walk_id"].to_numpy(),
                 "prev": sel["cur"].to_numpy(),
                 "cur": sel["nxt"].to_numpy()}
            )

        def tag_by_walk(t: pa.Table) -> pa.Table:
            w = t["walk_id"]
            if isinstance(w, pa.ChunkedArray):
                w = w.combine_chunks()
            return t.append_column(
                "wpart", hash_bucket_array(w, num_partitions)
            )

        frontier = (
            classified.map_batches(tag_by_walk, batch_format="pyarrow")
            .groupby("wpart")
            .map_groups(pick, batch_format="pandas")
            .repartition(num_partitions, shuffle=False)
            .materialize()
        )
        if frontier.count() == 0:
            break
        out_parts.append(
            frontier.map_batches(emit(step), batch_format="pyarrow")
        )

    out = out_parts[0]
    for prt in out_parts[1:]:
        out = out.union(prt)
    return out
