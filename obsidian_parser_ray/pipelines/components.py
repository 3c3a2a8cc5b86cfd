"""Connected components (SURVEY.md §2.5 A7).

The reference delegates to ``petgraph::algo::connected_components``
(/root/reference/examples/analyzer.rs:4,86-88) — a single-machine graph
walk.  Two Ray-Data-native equivalents:

* :func:`connected_components` — min-label propagation with POINTER
  JUMPING: every node starts labeled with itself; each round, every
  node takes the min label over itself and its neighbors (hooking),
  then labels are compressed via label-of-label — the jump squares the
  distance covered per round, so convergence is O(log diameter) rounds
  instead of O(diameter) (the classic Hash-Min + pointer-jumping
  scheme, cf. Kiveris et al., "Connected Components in MapReduce and
  Beyond").  Long representative chains — e.g. the giant components
  LSH dedup produces on template-heavy corpora — would otherwise pay
  one full edge pass PER HOP.  The broadcast guard of
  ``stages.joins`` (``BROADCAST_MAX_ROWS`` ids and
  ``BROADCAST_MAX_BYTES`` of id buffers, read at call time), applied
  to the node universe ``subj ∪ obj ∪ nodes.doc_id``, picks the path:

  - under the guard — resident-edge rounds (:mod:`.resident`): the
    edges stay in the object store as int32 buckets keyed by
    destination, and the label vector lives on the driver.  Each
    round ships the labels once with ``ray.put`` and runs ONE
    ``map_batches`` over the buckets for the hook; pointer jumping to
    a fixpoint and the changed check run in numpy on the driver.
  - past the guard — the Dataset loop: labels are a Dataset, each
    round is :func:`hash_join_unique` shuffles against the label
    table (one row per node, so never under the guard here) plus one
    :func:`grouped_aggregate` exchange, and nothing node-scale is
    held on the driver.

* :func:`connected_components_local` — exact streaming union-find on
  the driver (O(nodes) driver memory, edges streamed once).  This is
  the analyzer-parity oracle and the right tool whenever the NODE
  count (not edge count) fits one machine — same regime where the
  reference itself applies.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _norm_edges(edges):
    """Edge Dataset → undirected (src, dst) message pairs, both ways."""

    def fwd(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["subj"], "dst": t["obj"]})

    def rev(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["obj"], "dst": t["subj"]})

    e = edges.select_columns(["subj", "obj"])
    return e.map_batches(fwd, batch_format="pyarrow").union(
        e.map_batches(rev, batch_format="pyarrow")
    )


def connected_components(edges, nodes, *, max_iters: int = 50,
                         num_partitions: int = 16):
    """Label propagation → Dataset ``(node, component)``.

    ``edges``: Dataset with columns (subj, obj) — treated undirected.
    ``nodes``: Dataset with ``doc_id`` (isolated nodes get their own
    component).  ``component`` = min node id in the component
    (deterministic canonical representative).  Raises ``RuntimeError``
    when no round leaves every label unchanged within ``max_iters``.
    """
    from .resident import column_type, exchange_width, node_universe

    def proj(t: pa.Table) -> pa.Table:
        kt = t.schema.field("subj").type
        return pa.table({"subj": t["subj"], "obj": pc.cast(t["obj"], kt)})

    # materialized ONCE, before anything reads it: the edge lineage
    # often ends in an expensive shuffle (LSH pairs) that every later
    # read would otherwise re-execute
    e = edges.map_batches(proj, batch_format="pyarrow").materialize()
    # exchange width ∝ measured (directed) message count
    num_partitions = exchange_width(2 * e.count(), num_partitions)
    kt = (column_type(e, "subj") or column_type(nodes, "doc_id")
          or pa.string())
    universe = node_universe([(e, ["subj", "obj"]), (nodes, ["doc_id"])],
                             kt)
    if universe is not None:
        return _components_resident(e, universe, max_iters=max_iters,
                                    num_partitions=num_partitions)
    return _components_loop(e, nodes, max_iters=max_iters,
                            num_partitions=num_partitions)


def _not_converged(max_iters: int) -> RuntimeError:
    return RuntimeError(
        f"label propagation did not converge in {max_iters} rounds "
        "(component diameter exceeds max_iters) — raise max_iters"
    )


def _components_resident(e, universe, *, max_iters, num_partitions):
    from .resident import fold_round, node_table, resident_edges

    res = resident_edges(e, universe, num_buckets=num_partitions,
                         undirected=True)
    label = np.arange(len(universe), dtype=np.int32)
    for _ in range(max_iters):
        hooked = fold_round(res, label, "min")
        # pointer jumping to a fixpoint: label(label) never exceeds
        # label, so this only shortens representative chains
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        changed = not np.array_equal(hooked, label)
        label = hooked
        if not changed:
            return node_table(
                {"node": universe, "component": universe.take(label)},
                num_partitions,
            )
    raise _not_converged(max_iters)


def _components_loop(e, nodes, *, max_iters, num_partitions):
    """The Dataset loop, for node universes past the broadcast guard.
    Each round materializes a label table bounded by node count, never
    the full edge × label product."""
    from ..stages.joins import grouped_aggregate, hash_join_unique

    # every join below probes a label table with one row per node;
    # this loop only runs when the node universe is past the broadcast
    # guard, so those tables never broadcast — shuffle-join directly

    # coalesce BEFORE the loop: per-round cost is dominated by
    # scheduling latency × task count on small graphs
    msgs = (
        _norm_edges(e)
        .repartition(num_partitions, shuffle=False)
        .materialize()
    )

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["doc_id"], "label": t["doc_id"]})

    def endpoint_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["src"], "label": t["src"]})

    def min_label(ds):
        return grouped_aggregate(
            ds, ["node"], [("label", "min", "label")],
            num_partitions=num_partitions,
        )

    # seed from nodes UNION edge endpoints: an endpoint absent from the
    # nodes table must still participate in the convergence check (its
    # first-appearance round would otherwise be invisible to the
    # changed-count and the loop could declare convergence early)
    labels = min_label(
        nodes.select_columns(["doc_id"])
        .map_batches(init_labels, batch_format="pyarrow")
        .union(msgs.map_batches(endpoint_labels, batch_format="pyarrow"))
    ).materialize()

    for _ in range(max_iters):
        # neighbor labels: msg (src,dst) ⋈ labels(node=src) → (dst, label)
        joined = hash_join_unique(
            msgs,
            labels,
            left_key="src",
            right_key="node",
            num_partitions=num_partitions,
        ).select_columns(["dst", "label"])

        def as_node(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["dst"], "label": t["label"]})

        # materialized: consumed twice below (mid side + lut side) —
        # lazy, each consumer would re-run the union + aggregate
        hooked = min_label(
            joined.map_batches(as_node, batch_format="pyarrow").union(labels)
        ).materialize()

        # pointer jumping: label ← label(label).  Labels only decrease
        # (they are mins over node ids and label(x) ≤ x), so the jump
        # needs no extra min — it strictly compresses representative
        # chains, squaring the per-round propagation distance.
        def as_mid(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["node"], "mid": t["label"]})

        def as_lut(t: pa.Table) -> pa.Table:
            return pa.table({"mid": t["node"], "label": t["label"]})

        new_labels = (
            hash_join_unique(
                hooked.map_batches(as_mid, batch_format="pyarrow"),
                hooked.map_batches(as_lut, batch_format="pyarrow"),
                left_key="mid",
                num_partitions=num_partitions,
            )
            .select_columns(["node", "label"])
            # coalesce (metadata-level): the union + aggregate would
            # otherwise grow the label table's block count every round
            .repartition(num_partitions, shuffle=False)
            .materialize()
        )
        # converged iff no node's label changed — tiny anti-join check
        changed = (
            hash_join_unique(
                new_labels,
                labels.map_batches(
                    lambda t: pa.table({"node": t["node"], "old": t["label"]}),
                    batch_format="pyarrow",
                ),
                left_key="node",
                num_partitions=num_partitions,
            )
            .filter(expr="label != old")
            .count()
        )
        labels = new_labels
        if changed == 0:
            return labels.map_batches(
                lambda t: pa.table(
                    {"node": t["node"], "component": t["label"]}
                ),
                batch_format="pyarrow",
            )
    raise _not_converged(max_iters)


def n_components(labels) -> int:
    """Count distinct components from a (node, component) Dataset."""
    return labels.groupby("component").count().count()


def connected_components_local(edges, nodes) -> dict[str, str]:
    """Streaming union-find on the driver → {node: component-root}.

    Exact parity oracle for petgraph ``connected_components``.  Edges
    stream through once (no driver materialization of the edge list);
    state is O(nodes).
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        # path compression
        while parent.get(x, x) != root:
            parent[x], x = root, parent[x]
        return root

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # canonical representative = min id (deterministic)
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo

    for batch in nodes.select_columns(["doc_id"]).iter_batches(
        batch_format="pyarrow", batch_size=65536
    ):
        for n in batch["doc_id"].to_pylist():
            parent.setdefault(n, n)
    for batch in edges.select_columns(["subj", "obj"]).iter_batches(
        batch_format="pyarrow", batch_size=65536
    ):
        for a, b in zip(batch["subj"].to_pylist(), batch["obj"].to_pylist()):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            union(a, b)
    return {n: find(n) for n in parent}
