"""Canonicalization shuffle: edge multiset → canonical triple set.

The reference keeps parallel edges (graph_builder.rs:216-218 adds one
edge per link occurrence); the canonical *set* with multiplicity is
what the north rule scores (SURVEY.md §2.5 A8).  This stage implements
the mandated "groupby-aggregate canonicalization shuffle (salted keys
for hub-note skew)" as :func:`..stages.joins.grouped_aggregate` on
(subj, pred, obj) summing ``weight``:

1. **Pre-aggregate inside map_batches** — each block is collapsed with
   an Arrow ``Table.group_by`` before anything ships, so the all-to-all
   exchange moves one row per distinct (subj, pred, obj) per block
   instead of one per occurrence.  This is the salted two-phase
   aggregation in disguise: the implicit salt is the block id, which
   uniformly splits hub keys across the first phase.
2. **One keyed exchange** (:func:`..stages.joins.exchange`) on the
   NUL-joined triple, merging the per-block partials per partition.

Undirected graphs (reference ``get_ungraph``/``EdgeType`` generic,
vault_petgraph/mod.rs:46-49) canonicalize the endpoint pair to
(min, max) before grouping.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

TRIPLES_KEYS = ["subj", "pred", "obj"]


def _with_weight(batch: pa.Table) -> pa.Table:
    """The triple columns plus ``weight`` (1 per edge occurrence when
    the input carries none)."""
    if batch.num_rows == 0:
        return pa.table(
            {
                "subj": pa.array([], pa.string()),
                "pred": pa.array([], pa.string()),
                "obj": pa.array([], pa.string()),
                "weight": pa.array([], pa.int64()),
            }
        )
    if "weight" not in batch.column_names:
        batch = batch.append_column(
            "weight", pa.array([1] * batch.num_rows, pa.int64())
        )
    return batch.select(TRIPLES_KEYS + ["weight"])


def _combine_batch(batch: pa.Table) -> pa.Table:
    """Canonical triples of one in-memory table (the caller-side twin
    of :func:`canonicalize`, used by incremental updates)."""
    out = _with_weight(batch).group_by(TRIPLES_KEYS).aggregate(
        [("weight", "sum")]
    )
    # name-based rename: aggregate output column ORDER is not a
    # documented pyarrow guarantee across versions
    return out.rename_columns(
        ["weight" if c == "weight_sum" else c for c in out.column_names]
    ).select(TRIPLES_KEYS + ["weight"])


def _undirect_batch(batch: pa.Table) -> pa.Table:
    """Endpoint canonicalization for undirected graphs: subj,obj := minmax."""
    subj, obj = batch["subj"], batch["obj"]
    lo = pc.min_element_wise(subj, obj)
    hi = pc.max_element_wise(subj, obj)
    batch = batch.set_column(batch.schema.get_field_index("subj"), "subj", lo)
    return batch.set_column(batch.schema.get_field_index("obj"), "obj", hi)


def canonicalize(edges, *, directed: bool = True, num_partitions: int = 64):
    """edges Dataset → canonical triples Dataset (subj, pred, obj, weight).

    The only all-to-all exchange of the KG pipeline: a per-block Arrow
    partial (block id acts as the salt, splitting hub keys), then one
    :func:`..stages.joins.exchange` on the triple and a per-partition
    merge.  Shuffle volume is bounded by (distinct triples per block ×
    blocks), not raw edge count.  ``num_partitions`` sizes phase-2
    parallelism — at cluster scale set it ≈ 2× total cores.
    """
    from .joins import grouped_aggregate

    if not directed:
        edges = edges.map_batches(_undirect_batch, batch_format="pyarrow")
    return grouped_aggregate(
        edges.map_batches(_with_weight, batch_format="pyarrow"),
        TRIPLES_KEYS, [("weight", "sum", "weight")],
        num_partitions=num_partitions,
    )


def pred_filter(pred: str):
    """Batch fn keeping the rows whose ``pred`` equals ``pred`` — a
    ``pc.equal`` kernel, never an interpolated expression string, so
    quotes in a predicate name reach no parser."""
    value = pa.scalar(pred, pa.string())

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["pred"], value))

    return keep


def sorted_triples(triples):
    """Final sorted materialize order (north_star): (subj, pred, obj)."""
    return triples.sort(TRIPLES_KEYS)


def degree_top_k(triples, *, pred: str = "links_to", by: str = "obj", k: int = 10):
    """Hub notes: top-k endpoints by summed weight (SURVEY.md §2.5 A6).

    ``by='obj'`` = most-linked-to (in-degree), ``by='subj'`` =
    out-degree.  Deterministic tie-break on the key string.
    """
    from ray.data.aggregate import Sum

    deg = (
        triples.map_batches(pred_filter(pred), batch_format="pyarrow")
        .groupby(by)
        .aggregate(Sum("weight", alias_name="degree"))
    )
    return deg.sort(["degree", by], descending=[True, False]).limit(k)
