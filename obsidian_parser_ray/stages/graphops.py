"""Graph-analytic operators over the canonical triples table.

:func:`bfs_hops`, :func:`random_walks` and :func:`biased_walks` share
one admission guard, ``stages.joins.BROADCAST_MAX_ROWS`` /
``BROADCAST_MAX_BYTES`` (read at call time), applied to one
predicate's edge rows by :func:`..pipelines.resident.caller_csr`.
Under it the edges are collected on the driver as a CSR and every hop
or step is a numpy gather over neighbour slices — no Dataset execution
on a materialized input, one pred-filter execution on a lazy one.
Past it they run their Dataset loops: BFS a per-hop exchange while the
visited set fits the guard, then semi/anti join rounds; uniform walks
a map-side step while the frontier fits it, then a co-partition
exchange per step; biased walks a fan-out exchange plus a
classification join per step.  Each path emits the same rows
(pytest-pinned).

:func:`triangle_counts` — EXACT per-node triangle participation counts
on the undirected graph induced by the triples (all predicates, self
loops dropped).  The classic degree-orientation algorithm, expressed
as Ray Data shuffles:

1. distinct undirected edge set (:func:`..stages.joins.distinct_rows`),
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

from ..hashing import hash64_array
from .joins import distinct_rows, exchange


def undirected_edges(triples, *, num_partitions: int = 64):
    """Distinct undirected edge set ``(a, b)`` with ``a < b`` from the
    canonical triples (all predicates, self loops dropped)."""

    def ends(t: pa.Table) -> pa.Table:
        s, o = t["subj"], t["obj"]
        a = pc.min_element_wise(s, o)
        b = pc.max_element_wise(s, o)
        return pa.table({"a": a, "b": b}).filter(pc.not_equal(s, o))

    return distinct_rows(
        triples.map_batches(ends, batch_format="pyarrow"), ["a", "b"],
        num_partitions=num_partitions,
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

    wedge_ds = exchange(oriented, ["u"], wedges,
                        num_partitions=num_partitions)

    def wedge_key(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_ek", pc.binary_join_element_wise(t["v"], t["w"], "\x00"))

    def oedge_key(t: pa.Table) -> pa.Table:
        return pa.table(
            {"_ek": pc.binary_join_element_wise(t["u"], t["v"], "\x00")})

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
             max_local_edges: int | None = None):
    """Hop distances from ``sources`` over the ``pred`` edge set:
    ``(node, dist)`` for every node within ``max_hops``.  A source is at
    distance 0 even without edges; a row with a null endpoint is no
    edge.

    Three regimes, one result (pytest-pinned):

    * edges under the broadcast guard
      (:func:`..pipelines.resident.caller_csr`) — a numpy frontier loop
      over the caller-side CSR; no Dataset execution on a materialized
      input;
    * past it, while the visited set fits the guard — one execution and
      one frontier-sized exchange per hop (:func:`_bfs_exchange`);
    * past that — :func:`_bfs_join_loop`, resumed from the hop the
      exchange loop reached.

    ``max_local_edges`` caps the edge rows the CSR admits under the
    guard; ``0`` forces the Dataset paths.
    """
    from ..pipelines.resident import caller_csr, pred_edges

    start_nodes = sorted(set(sources))
    if max_local_edges == 0:
        e = pred_edges(triples, pred)
    else:
        csr, e = caller_csr(triples, pred, undirected=not directed,
                            max_rows=max_local_edges)
        if csr is not None:
            return _bfs_csr(csr, start_nodes, max_hops, num_partitions)
    return _bfs_exchange(e, start_nodes, directed=directed,
                         max_hops=max_hops, num_partitions=num_partitions)


def _bfs_csr(csr, start_nodes, max_hops, num_partitions):
    """Frontier loop over a :class:`..pipelines.resident.CallerCSR`:
    gather the frontier's neighbour slices, keep the unvisited ones."""
    from ..pipelines.resident import exchange_width, node_table

    u = csr.universe
    src = pa.array(start_nodes, pa.string())
    pos = pc.index_in(pc.cast(src, u.type), value_set=u)
    dist = np.full(len(u), -1, np.int64)
    front = pos.drop_null().to_numpy()
    dist[front] = 0
    for hop in range(1, max_hops + 1):
        nbr = np.unique(csr.neighbours(front)[1])
        front = nbr[dist[nbr] < 0]
        if not len(front):
            break
        dist[front] = hop
    reached = np.flatnonzero(dist >= 0)
    absent = src.filter(pc.is_null(pos))
    node = pa.concat_arrays([pc.cast(u.take(reached), pa.string()), absent])
    dist = np.concatenate([dist[reached], np.zeros(len(absent), np.int64)])
    order = pc.sort_indices(node)
    return node_table(
        {"node": node.take(order), "dist": dist[order.to_numpy()]},
        exchange_width(len(node), num_partitions),
    )


def _bfs_exchange(e, start_nodes, *, directed, max_hops, num_partitions):
    """BFS as one execution and ONE exchange per hop over the
    materialized edge table, while the visited set fits the broadcast
    guard: the frontier ships via ``ray.put``, every resident edge block
    emits its local distinct reached heads, and the dedup reduce drops
    already-visited nodes map-side against the visited broadcast — the
    edge table is never shuffled.  A node's label is written once, by
    the first hop that reaches it, which IS its distance.  Exchange
    width is sized from the measured edge count."""
    import ray
    import ray.data as rd

    from . import joins

    def fwd(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["subj"], "b": t["obj"]})

    edges = e.map_batches(fwd, batch_format="pyarrow")
    if not directed:
        def rev(t: pa.Table) -> pa.Table:
            return pa.table({"a": t["obj"], "b": t["subj"]})

        edges = edges.union(e.map_batches(rev, batch_format="pyarrow"))
    edges = edges.materialize()
    num_partitions = max(4, min(num_partitions,
                                edges.count() // 200_000 + 4))

    visited_tbl = pa.table({
        "node": pa.array(start_nodes, pa.string()),
        "dist": pa.array([0] * len(start_nodes), pa.int64()),
    })
    frontier_nodes = visited_tbl["node"].combine_chunks()
    for d in range(1, max_hops + 1):
        if visited_tbl.num_rows > joins.BROADCAST_MAX_ROWS:
            return _bfs_join_loop(edges, visited_tbl, frontier_nodes, d,
                                  max_hops, num_partitions)
        f_ref = ray.put(frontier_nodes)
        v_ref = ray.put(visited_tbl["node"].combine_chunks())

        def probe(t: pa.Table, _f=f_ref) -> pa.Table:
            f = ray.get(_f)
            keep = pc.is_valid(pc.index_in(t["a"], f))
            return pa.table({"node": pc.unique(t.filter(keep)["b"])})

        def reduce(g: pa.Table, _v=v_ref) -> pa.Table:
            nodes = g["node"]
            if isinstance(nodes, pa.ChunkedArray):
                nodes = nodes.combine_chunks()
            nodes = pc.unique(nodes)
            v = ray.get(_v)
            fresh = nodes.filter(
                pc.invert(pc.is_valid(pc.index_in(nodes, v))))
            return pa.table({"node": fresh})

        new_tbl = pa.concat_tables(
            list(
                exchange(edges.map_batches(probe, batch_format="pyarrow"),
                         ["node"], reduce, num_partitions=num_partitions)
                .iter_batches(batch_format="pyarrow")
            )
            or [pa.table({"node": pa.array([], pa.string())})]
        ).combine_chunks()
        if new_tbl.num_rows == 0:
            break
        visited_tbl = pa.concat_tables([
            visited_tbl,
            new_tbl.append_column(
                "dist",
                pa.array([d] * new_tbl.num_rows, pa.int64()),
            ),
        ]).combine_chunks()
        frontier_nodes = new_tbl["node"].combine_chunks()
    return rd.from_arrow(visited_tbl)


def _bfs_join_loop(edges, visited_tbl, frontier_nodes, first_hop,
                   max_hops, num_partitions):
    """Hops ``first_hop..max_hops`` as Dataset rounds, for visited sets
    past the broadcast guard: one semi join (edges whose tail sits in
    the frontier) and one anti join (drop visited heads) per round,
    both through the guarded :func:`..stages.joins.broadcast_join_unique`,
    with the state coalesced before each ``materialize`` (the
    iterative-pipeline block-growth rule)."""
    import ray.data as rd

    from .joins import broadcast_join_unique

    visited = rd.from_arrow(visited_tbl).repartition(
        num_partitions // 4 or 1, shuffle=False
    ).materialize()
    frontier = rd.from_arrow(
        pa.table({"node": frontier_nodes})
    ).materialize()

    def heads(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["b"]})

    for d in range(first_hop, max_hops + 1):
        # heads of edges leaving the frontier, deduped per partition,
        # then globally (a head can arrive from many partitions)
        reached = broadcast_join_unique(
            edges, frontier.select_columns(["node"]),
            left_key="a", right_key="node", how="semi",
            num_partitions=num_partitions,
        )
        cand = distinct_rows(
            reached.map_batches(heads, batch_format="pyarrow"), ["node"],
            num_partitions=num_partitions)
        new = broadcast_join_unique(
            cand, visited.select_columns(["node"]),
            left_key="node", how="anti", num_partitions=num_partitions,
        )

        def label(t: pa.Table, _d=d) -> pa.Table:
            return t.append_column(
                "dist", pa.array([_d] * t.num_rows, pa.int64()))

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


def _pick_hops(walks: pa.Table, edges_kv: pa.Table, step_seed: str,
               keep_hash: bool) -> pa.Table:
    """Shared hash-min hop kernel for both Dataset step paths: Acero
    join of (walk_id, cur) against (cur, nxt), per-(walk, neighbor,
    step) hash, per-walk argmin via one sort + adjacent-run mask.  With
    ``keep_hash`` the winner rows keep ``_h`` so per-block winners can
    be min-combined globally (map-side step)."""
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


def _walk_ids(subjects: pa.Array, walks_per_node: int):
    """``(walk_id, index)``: ``f"{subject}#{k}"`` for every subject ×
    ``k < walks_per_node``, and the subject index of each."""
    idx = np.repeat(np.arange(len(subjects)), walks_per_node)
    k = np.tile(np.arange(walks_per_node), len(subjects)).astype("int64")
    wid = pc.binary_join_element_wise(
        subjects.take(pa.array(idx)), pc.cast(pa.array(k), pa.string()), "#")
    return wid, idx


def _start_walks(walks_per_node: int, with_prev: bool):
    """Batch fn: the start rows of a block's distinct subjects (``prev``
    is ``""`` before the first hop of a biased walk)."""
    def f(t: pa.Table) -> pa.Table:
        subj = t["subj"]
        if isinstance(subj, pa.ChunkedArray):
            subj = subj.combine_chunks()
        u = pc.unique(subj)
        wid, idx = _walk_ids(u, walks_per_node)
        cols = {"walk_id": wid}
        if with_prev:
            cols["prev"] = pa.array([""] * len(wid), pa.string())
        cols["cur"] = u.take(pa.array(idx))
        return pa.table(cols)

    return f


def _emit(step: int):
    def f(t: pa.Table) -> pa.Table:
        return pa.table({
            "walk_id": t["walk_id"],
            "step": pa.array([step] * t.num_rows, pa.int64()),
            "node": t["cur"],
        })

    return f


def _union(parts):
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


def _walks_csr(csr, *, walks_per_node, walk_len, seed, num_partitions,
               bias=None):
    """Every step of :func:`random_walks` (``bias=None``) or
    :func:`biased_walks` (``bias=(p, q)``) over a
    :class:`..pipelines.resident.CallerCSR`: a segmented hash-min over
    the current nodes' neighbour slices.  Keys, weights and the
    (score, neighbour) tie-break are the Dataset loops', so the walks
    are row-identical; positions follow byte order, as the loops' sort
    on ``cur`` does."""
    from ..pipelines.resident import exchange_width, node_table

    u = csr.universe
    n = len(u)
    subjects = np.flatnonzero(np.diff(csr.offsets))
    wid, idx = _walk_ids(u.take(pa.array(subjects)), walks_per_node)
    walk, cur = np.arange(len(wid)), subjects[idx]
    if bias is not None:
        p, q = bias
        edge_keys = csr.s.astype(np.int64) * n + csr.d  # sorted
        # the loop's first-hop prev is the id "" — a node only if present
        blank = pc.index_in(pa.array([""], u.type), value_set=u)[0].as_py()
        prev = np.full(len(walk), -1 if blank is None else blank, np.int64)
    steps = [(walk, cur)]
    for step in range(1, walk_len + 1):
        i, nbr = csr.neighbours(cur)
        if not len(i):
            break
        # the uniform loop joins (seed|step|, walk_id, nbr) with "|"
        prefix = f"{seed}|{step}|" + ("|" if bias is None else "")
        key = pc.binary_join_element_wise(
            pa.scalar(prefix),
            pc.binary_join_element_wise(wid.take(pa.array(walk[i])),
                                        u.take(pa.array(nbr)), "|"),
            "")
        score = hash64_array(key.to_numpy(zero_copy_only=False))
        if bias is not None:
            # Efraimidis–Spirakis key with node2vec's 1/p, 1, 1/q weights
            pv = prev[i]
            pk = pv * n + nbr
            at = np.minimum(np.searchsorted(edge_keys, pk),
                            len(edge_keys) - 1)
            w = np.where(nbr == pv, 1.0 / p,
                         np.where(edge_keys[at] == pk, 1.0, 1.0 / q))
            score = (-np.log((score.astype(np.float64) + 0.5) / 2.0**64)) / w
        order = np.lexsort((nbr, score, i))
        i, nbr = i[order], nbr[order]
        win = np.r_[True, i[1:] != i[:-1]]
        if bias is not None:
            prev = cur[i[win]]
        walk, cur = walk[i[win]], nbr[win]
        steps.append((walk, cur))
    walk = np.concatenate([w for w, _ in steps])
    return node_table(
        {
            "walk_id": wid.take(pa.array(walk)),
            "step": np.repeat(np.arange(len(steps), dtype=np.int64),
                              [len(w) for w, _ in steps]),
            "node": u.take(pa.array(np.concatenate([c for _, c in steps]))),
        },
        exchange_width(len(walk), num_partitions),
    )


def random_walks(triples, *, walks_per_node: int = 1, walk_len: int = 4,
                 pred: str | None = "links_to", seed: int = 42,
                 num_partitions: int = 64):
    """Deterministic uniform random walks over the directed edge set —
    DeepWalk/node2vec-style corpus generation for graph ML.

    Every node with out-edges starts ``walks_per_node`` walks; at each
    step the next hop is chosen uniformly among the current node's
    out-neighbors by HASH-MIN sampling: ``argmin hash64(seed, step,
    walk_id, neighbor)`` — deterministic (reruns emit identical walks),
    uniform per step, and computable wherever the node's adjacency
    lives.  Walks at sink nodes (no out-edges) simply stop; rows with a
    null endpoint are no edges.

    Three step paths, one hash, IDENTICAL walks (pytest-pinned), chosen
    by the broadcast guard (``stages.joins.BROADCAST_MAX_ROWS`` /
    ``_BYTES``, read at call time):

    * edges under the guard — every step on the caller over the
      :func:`..pipelines.resident.caller_csr` (no Dataset execution on
      a materialized input);
    * past it, frontier under the guard — map-side steps
      (:func:`_walk_step_mapside`): the frontier ships via ``ray.put``
      and only winner rows are exchanged;
    * past both — co-partition steps (:func:`_walk_step_shuffle`): one
      exchange of frontier ∪ edges on the current node.

    Output: ``(walk_id, step, node)`` rows, step 0 = the start node.
    """
    from ..pipelines.resident import caller_csr

    csr, edges = caller_csr(triples, pred)
    if csr is not None:
        return _walks_csr(csr, walks_per_node=walks_per_node,
                          walk_len=walk_len, seed=seed,
                          num_partitions=num_partitions)

    from . import joins

    # one materialized pass over the edge lineage feeds the start
    # frontier, the width probe, and the per-step tables alike
    edges = edges.materialize()
    num_partitions = max(4, min(num_partitions,
                                edges.count() // 200_000 + 4))
    # distinct start rows (subjects repeat across blocks) — the
    # partitioned Arrow distinct
    frontier = distinct_rows(
        edges.map_batches(_start_walks(walks_per_node, False),
                          batch_format="pyarrow"),
        ["walk_id", "cur"], num_partitions=8,
    ).repartition(8, shuffle=False).materialize()
    out_parts = [frontier.map_batches(_emit(0), batch_format="pyarrow")]
    tagged = []  # built on first co-partition step only

    for step in range(1, walk_len + 1):
        step_seed = f"{seed}|{step}|"
        n_frontier = frontier.count()
        if (n_frontier <= joins.BROADCAST_MAX_ROWS
                and frontier.size_bytes() <= joins.BROADCAST_MAX_BYTES):
            frontier = _walk_step_mapside(frontier, edges, step_seed,
                                          n_frontier, num_partitions)
        else:
            if not tagged:
                tagged.append(edges.map_batches(
                    _tag_edges, batch_format="pyarrow").materialize())
            frontier = _walk_step_shuffle(frontier, tagged[0], step_seed,
                                          num_partitions)
        if frontier.count() == 0:
            break
        out_parts.append(
            frontier.map_batches(_emit(step), batch_format="pyarrow"))
    return _union(out_parts)


def _walk_step_mapside(frontier, edges, step_seed, n_frontier,
                       num_partitions):
    """One step with the frontier broadcast: every resident edge block
    picks its local per-walk hash-min and only the winner rows (≈
    frontier-sized) are exchanged; the edge table is never
    re-shuffled."""
    import ray

    f_tbl = pa.concat_tables(
        list(frontier.iter_batches(batch_format="pyarrow"))
        or [pa.table({"walk_id": pa.array([], pa.string()),
                      "cur": pa.array([], pa.string())})]
    ).combine_chunks()
    f_ref = ray.put(f_tbl)

    def local_pick(t: pa.Table) -> pa.Table:
        f = ray.get(f_ref)  # zero-copy plasma read per task
        return _pick_hops(
            f, pa.table({"cur": t["subj"], "nxt": t["obj"]}),
            step_seed, keep_hash=True,
        )

    cmb = max(4, min(num_partitions, n_frontier // 500_000 + 4))

    def pick_global(g: pa.Table) -> pa.Table:
        return _first_per_walk(g).select(["walk_id", "cur"])

    return (
        exchange(edges.map_batches(local_pick, batch_format="pyarrow"),
                 ["walk_id"], pick_global, num_partitions=cmb)
        .repartition(cmb, shuffle=False)
        .materialize()
    )


def _tag_edges(t: pa.Table, *, extra=()) -> pa.Table:
    """Edge rows of a co-partition exchange, keyed on ``subj``."""
    n = t.num_rows
    cols = {
        "is_edge": pa.array([True] * n, pa.bool_()),
        "key": t["subj"],
        "walk_id": pa.nulls(n, pa.string()),
    }
    cols.update((c, pa.nulls(n, pa.string())) for c in extra)
    cols["obj"] = t["obj"]
    return pa.table(cols)


def _tag_walks(t: pa.Table, *, extra=()) -> pa.Table:
    """Walk rows of a co-partition exchange, keyed on ``cur``."""
    n = t.num_rows
    cols = {
        "is_edge": pa.array([False] * n, pa.bool_()),
        "key": t["cur"],
        "walk_id": t["walk_id"],
    }
    cols.update((c, t[c]) for c in extra)
    cols["obj"] = pa.nulls(n, pa.string())
    return pa.table(cols)


def _walk_step_shuffle(frontier, tagged_edges, step_seed, num_partitions):
    """One step as a co-partition exchange of frontier ∪ edges on the
    current node — for frontiers past the broadcast guard."""
    def hop(g: pa.Table) -> pa.Table:
        is_edge = g["is_edge"]
        if isinstance(is_edge, pa.ChunkedArray):
            is_edge = is_edge.combine_chunks()
        walks = g.filter(pc.invert(is_edge))
        eg = g.filter(is_edge)
        return _pick_hops(
            pa.table({"walk_id": walks["walk_id"], "cur": walks["key"]}),
            pa.table({"cur": eg["key"], "nxt": eg["obj"]}),
            step_seed, keep_hash=False,
        )

    return (
        exchange(
            frontier.map_batches(_tag_walks, batch_format="pyarrow")
            .union(tagged_edges),
            ["key"], hop, num_partitions=num_partitions,
        )
        .repartition(num_partitions, shuffle=False)
        .materialize()
    )


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

    Edges under the broadcast guard run every step on the caller, as
    :func:`random_walks` does, with a ``searchsorted`` membership test
    on the sorted ``s·n+d`` edge keys for the distance-1 class.  Past
    it, :func:`_biased_walks_loop` — the identical walks as Dataset
    rounds.

    Output: ``(walk_id, step, node)`` rows, step 0 = the start node.
    """
    from ..pipelines.resident import caller_csr

    csr, edges = caller_csr(triples, pred)
    if csr is not None:
        return _walks_csr(csr, walks_per_node=walks_per_node,
                          walk_len=walk_len, seed=seed,
                          num_partitions=num_partitions, bias=(p, q))
    return _biased_walks_loop(edges, walks_per_node=walks_per_node,
                              walk_len=walk_len, p=p, q=q, seed=seed,
                              num_partitions=num_partitions)


def _strings(**cols) -> pa.Table:
    return pa.table({k: pc.cast(v, pa.string()) for k, v in cols.items()})


def _biased_walks_loop(edges, *, walks_per_node, walk_len, p, q, seed,
                       num_partitions):
    """:func:`biased_walks` past the broadcast guard.  Cost per step:
    the candidate fan-out shuffle (Σ deg(cur)) PLUS one distance-1
    classification join of the (prev, candidate) pairs against the
    edge-key set — node2vec's inherent extra lookup, kept as a bounded
    ``hash_join_unique(how="left")``."""
    import pandas as pd

    from .joins import hash_join_unique

    # one materialized edge pass feeds the width probe and both tables
    edges = edges.materialize()
    num_partitions = max(4, min(num_partitions,
                                edges.count() // 200_000 + 4))
    frontier = distinct_rows(
        edges.map_batches(_start_walks(walks_per_node, True),
                          batch_format="pyarrow"),
        ["walk_id", "prev", "cur"], num_partitions=8,
    ).repartition(8, shuffle=False).materialize()
    out_parts = [frontier.map_batches(_emit(0), batch_format="pyarrow")]

    def edge_marks(t: pa.Table) -> pa.Table:
        return pa.table({
            "pk": pc.binary_join_element_wise(t["subj"], t["obj"], "\x00"),
            "is_d1": pa.array([True] * t.num_rows, pa.bool_()),
        })

    edge_key_tbl = edges.map_batches(edge_marks, batch_format="pyarrow")
    tagged_edges = edges.map_batches(
        _tag_edges, batch_format="pyarrow", fn_kwargs={"extra": ("prev",)},
    ).materialize()

    def fanout(g: pa.Table) -> pa.Table:
        is_edge = g["is_edge"]
        if isinstance(is_edge, pa.ChunkedArray):
            is_edge = is_edge.combine_chunks()
        walks = g.filter(pc.invert(is_edge))
        eg = g.filter(is_edge)
        # an all-null column can arrive as Arrow's null type, which
        # the join rejects
        return _strings(walk_id=walks["walk_id"], prev=walks["prev"],
                        cur=walks["key"]).join(
            _strings(cur=eg["key"], nxt=eg["obj"]),
            keys="cur", join_type="inner")

    def add_pk(t: pa.Table) -> pa.Table:
        return t.append_column(
            "pk", pc.binary_join_element_wise(t["prev"], t["nxt"], "\x00"))

    for step in range(1, walk_len + 1):
        cands = exchange(
            frontier.map_batches(_tag_walks, batch_format="pyarrow",
                                 fn_kwargs={"extra": ("prev",)})
            .union(tagged_edges),
            ["key"], fanout, num_partitions=num_partitions,
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

        frontier = (
            exchange(classified, ["walk_id"], pick,
                     num_partitions=num_partitions, batch_format="pandas")
            .repartition(num_partitions, shuffle=False)
            .materialize()
        )
        if frontier.count() == 0:
            break
        out_parts.append(
            frontier.map_batches(_emit(step), batch_format="pyarrow"))
    return _union(out_parts)
