"""Canonicalization shuffle: edge multiset → canonical triple set.

The reference keeps parallel edges (graph_builder.rs:216-218 adds one
edge per link occurrence); the canonical *set* with multiplicity is
what the north rule scores (SURVEY.md §2.5 A8).  This stage implements
the mandated "groupby-aggregate canonicalization shuffle (salted keys
for hub-note skew)":

1. **Pre-aggregate inside map_batches** — each batch is collapsed with
   an Arrow ``Table.group_by`` before anything ships, so the all-to-all
   exchange moves one row per distinct (subj, pred, obj) per block
   instead of one per occurrence.  This is the salted two-phase
   aggregation in disguise: the implicit salt is the block id, which
   uniformly splits hub keys across the first phase; the second phase
   (the small global groupby) merges per-block partials.
2. **Global groupby** on (subj, pred, obj) summing the partial weights.

Undirected graphs (reference ``get_ungraph``/``EdgeType`` generic,
vault_petgraph/mod.rs:46-49) canonicalize the endpoint pair to
(min, max) before grouping.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

TRIPLES_KEYS = ["subj", "pred", "obj"]


def _combine_batch(batch: pa.Table) -> pa.Table:
    """Per-block partial aggregation (phase 1 of the salted two-phase)."""
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
    out = batch.select(TRIPLES_KEYS + ["weight"]).group_by(TRIPLES_KEYS).aggregate(
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


def _add_partition(batch: pa.Table, num_partitions: int) -> pa.Table:
    """Deterministic hash partition id of the triple key.

    crc32 over the null-joined key — the explicit partitioning the
    north_rule asks for.  Hub keys are ALREADY split across blocks by
    the phase-1 combiner (block id = implicit salt), so a hot triple
    contributes at most one row per block to its partition."""
    from ..hashing import hash_bucket_array

    keys = pc.binary_join_element_wise(
        batch["subj"], batch["pred"], batch["obj"], "\x00"
    )
    return batch.append_column("part", hash_bucket_array(keys, num_partitions))


def _collapse_partition(part: pa.Table) -> pa.Table:
    """Phase-2 merge of one hash partition (vectorized Arrow group_by)."""
    out = (
        part.select(TRIPLES_KEYS + ["weight"])
        .group_by(TRIPLES_KEYS)
        .aggregate([("weight", "sum")])
    )
    return out.rename_columns(
        ["weight" if c == "weight_sum" else c for c in out.column_names]
    ).select(TRIPLES_KEYS + ["weight"])


def canonicalize(edges, *, directed: bool = True, batch_size: int | None = None,
                 num_partitions: int = 64):
    """edges Dataset → canonical triples Dataset (subj, pred, obj, weight).

    The only all-to-all exchange of the KG pipeline, done as an explicit
    two-phase salted aggregation (SURVEY.md §2.5 A8):

    1. per-block Arrow ``group_by`` combine (phase 1 — block id acts as
       the salt, splitting hub keys),
    2. hash-partition on a small int key + per-partition vectorized
       merge (phase 2).  Grouping by the int partition id instead of
       the 3 string columns keeps the shuffle sort cheap; the real
       string grouping happens vectorized inside each partition task.

    Shuffle volume is bounded by (distinct triples per block × blocks),
    not raw edge count.  ``num_partitions`` sizes phase-2 parallelism —
    at cluster scale set it ≈ 2× total cores.
    """
    if not directed:
        edges = edges.map_batches(_undirect_batch, batch_format="pyarrow")
    partials = edges.map_batches(
        _combine_batch, batch_format="pyarrow", batch_size=batch_size
    ).map_batches(
        _add_partition,
        fn_kwargs={"num_partitions": num_partitions},
        batch_format="pyarrow",
    )
    return partials.groupby("part").map_groups(
        _collapse_partition, batch_format="pyarrow"
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
