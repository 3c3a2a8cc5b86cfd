"""End-to-end KG-construction pipeline (the flagship).

Mirrors the reference's vault → graph lifecycle (SURVEY.md §3) as a
Ray-Data-first dataflow in one of two shapes::

    streaming (default for large or unknown-size inputs)
      documents ─ extract_mentions_and_dict (ONE parse) → combined
                  (mention rows ∪ dict partials), materialized
        ├─ under the link guard: driver merge → ray.put → stateless
        │    linking tasks                               "broadcast"
        └─ over it: hash-partition the same table on the lookup key,
             merge + link per partition              "shuffle-combined"

    barrier (user_filter / checkpoint_dir / materialize_notes=True /
             inputs under 1 GiB)
      documents ─ extract_notes → notes, pinned (materialize or
                  parquet checkpoint + manifest — the resume point)
        ├─ dictionary (first-wins) → ray.put → stateless linking tasks
        └─ node table, duplicate reports

    edges ∪ child_of → per-block combine → groupby(subj,pred,obj)
    shuffle → triples

The link guard is measured, not configured: the combined table is
already materialized, so its row count and bytes are block metadata;
when either is past the guard, one vectorized sweep sums the row count
and key/val bytes of its dictionary side.  Bytes are bounded by
``stages.joins.BROADCAST_MAX_BYTES`` (the guard every map-side join
shares, read at call time) and entries by :data:`LINK_MAX_ENTRIES`.
The barrier shape always broadcasts: its dictionary is bounded by the
notes table it already pinned.  :attr:`GraphResult.link_topology`
reports which topology ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa

from ..stages.canonicalize import canonicalize, degree_top_k, sorted_triples
from ..stages.extract import explode_mentions, extract_notes
from ..stages.linking import build_dictionary, child_of_edges, link_mentions

#: Entry backstop of the link guard: past this many dictionary partial
#: rows the streaming build shuffles even under the byte guard.  Not
#: ``joins.BROADCAST_MAX_ROWS`` (2M): a measured 7.7M-entry / ~230 MB
#: dictionary (3.84M docs, BASELINE.md scaling table) still links
#: faster by broadcast.
LINK_MAX_ENTRIES = 10_000_000

#: Columns and types of every adjacency read (hit or empty).
_ADJ_SCHEMA = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                         ("obj", pa.string()), ("weight", pa.int64())])


@dataclass
class GraphResult:
    """Handles to every logical table of the build (all lazy Datasets
    except the broadcast dictionary)."""

    notes: object  # notes table (node attributes)
    mentions: object  # raw mention multiset (span-level parity view)
    edges: object  # resolved edge multiset (reference keeps parallel edges)
    triples: object  # canonical (subj, pred, obj, weight)
    dictionary: object = field(repr=False, default=None)
    #: which linking topology ran: "broadcast" or "shuffle-combined"
    #: (the materialized single-pass table shuffled; no dictionary)
    link_topology: str = ""

    def node_count(self) -> int:
        return self.notes.count()

    def edge_count(self) -> int:
        """Parallel-edge count — parity with petgraph ``edge_count()``."""
        from ray.data.aggregate import Sum

        t = self.triples.aggregate(Sum("weight", alias_name="n"))
        n = t["n"] if t else 0
        # child_of is an engine extension, not a reference edge; callers
        # wanting strict parity should filter pred first.
        return int(n or 0)

    def top_hubs(self, k: int = 10, pred: str = "links_to", by: str = "obj"):
        return degree_top_k(self.triples, pred=pred, by=by, k=k)


def _estimate_input_bytes(ds) -> int | None:
    """Source-size estimate WITHOUT executing the dataset.

    Walks the logical plan to its source operators and sums their
    metadata-level size estimates (parquet footer stats for reads,
    object sizes for in-memory sources).  Returns None when any
    source cannot be sized cheaply — callers must treat None as
    "large" (the scale-safe reading).  ``Dataset.size_bytes()`` is NOT
    usable here: on a lazy derived dataset it executes the whole
    upstream pipeline.
    """
    try:
        total = 0
        stack = [ds._logical_plan.dag]
        while stack:
            op = stack.pop()
            deps = op.input_dependencies
            if deps:
                stack.extend(deps)
                continue
            meta = op.infer_metadata()
            if meta.size_bytes is None:
                return None
            total += meta.size_bytes
        return total
    except Exception:
        return None


def _dict_exceeds_broadcast(combined, rows: int) -> bool:
    """The link guard over the materialized combined table of ``rows``
    rows (module docstring).

    The dictionary side is a subset of the whole table, so a table
    under both limits needs no probe: ``rows`` and ``size_bytes()``
    are block metadata.  Otherwise one vectorized sweep sums the
    dictionary side's row count (driver-merge size) and key+val bytes
    (plasma / per-task deserialization) — both dimensions of the
    broadcast cliff, as in ``joins.broadcast_join_unique``.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..stages import joins

    max_bytes = joins.BROADCAST_MAX_BYTES
    if rows <= LINK_MAX_ENTRIES and combined.size_bytes() <= max_bytes:
        return False

    def stats(t):
        import pyarrow as pa

        d = t.filter(pc.equal(t["row_kind"], 1))
        nb = (pc.sum(pc.binary_length(d["target_key"])).as_py() or 0) + (
            pc.sum(pc.binary_length(d["raw_text"])).as_py() or 0
        )
        return pa.table(
            {
                "n": pa.array([d.num_rows], pa.int64()),
                "nbytes": pa.array([nb], pa.int64()),
            }
        )

    agg = combined.map_batches(stats, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("nbytes", alias_name="nbytes")
    )
    n = int(agg["n"] or 0) if agg else 0
    nbytes = int(agg["nbytes"] or 0) if agg else 0
    return n > LINK_MAX_ENTRIES or nbytes > max_bytes


def build_graph(
    docs,
    *,
    directed: bool = True,
    drop_unresolved: bool = True,
    include_child_of: bool = True,
    include_tags: bool = True,
    checkpoint_dir: str | None = None,
    linker_batch_size: int | None = None,
    extract_batch_size: int | None = None,
    user_filter=None,
    materialize_notes: bool | None = None,
    strict_lists: bool = False,
):
    """documents Dataset → :class:`GraphResult`.

    ``user_filter`` is the reference's ``filter_entry``/iterator-combinator
    extension surface (SURVEY.md §2.10): a batch-level predicate
    applied to the notes table before graph construction (e.g. drop
    todos / empty notes, examples/analyzer.rs:45-49).

    ``materialize_notes=None`` (default) AUTO-selects the shape (module
    docstring): the barrier when a ``user_filter`` or
    ``checkpoint_dir`` needs it, or when the source-metadata estimate
    says the input is under 1 GiB (one parse, then a pinned notes
    table, is faster there); otherwise — large or UNKNOWN size — the
    streaming shape, which never pins the full notes table: ``notes``
    and ``mentions`` on the result stay lazy views that re-execute the
    extract if consumed.  ``True`` forces the barrier (worth it when
    several consumers re-read the notes table and it fits the object
    store, ≲10^7 notes per 100 GB of aggregate store); ``False``
    forces streaming unless a filter or checkpoint needs the barrier.

    The streaming shape links by broadcast or by the combined shuffle,
    chosen by the measured link guard; the topology that ran is
    :attr:`GraphResult.link_topology`.  The broadcast links in
    stateless tasks (``stages.linking.link_mentions``).
    """
    notes = extract_notes(docs, batch_size=extract_batch_size,
                          strict_lists=strict_lists)
    if user_filter is not None:
        notes = notes.map_batches(user_filter, batch_format="pyarrow")
    if materialize_notes is None:
        # NEVER call docs.size_bytes() here — on a lazy derived dataset
        # it EXECUTES the whole upstream pipeline (a full extra pass
        # over the input just to pick a path)
        materialize_notes = (
            nbytes := _estimate_input_bytes(docs)
        ) is not None and nbytes < (1 << 30)
    barrier = bool(materialize_notes or checkpoint_dir
                   or user_filter is not None)

    if checkpoint_dir:
        from ..state import checkpoint_dataset

        notes = checkpoint_dataset(
            notes, checkpoint_dir + "/notes", lineage="extract_notes"
        )
    elif barrier:
        notes = notes.materialize()

    mentions = explode_mentions(notes)
    edges = None  # set early only when the guard selects the shuffle
    link_topology = "broadcast"
    if barrier:
        dictionary = build_dictionary(notes)
        link_input = mentions
        if not include_tags:
            link_input = mentions.filter(
                expr="kind == 'link' or kind == 'embed' or kind == 'media'"
            )
    else:
        # ONE corpus read: the same parse emits mention rows AND
        # dictionary partials; only that combined derived table (a few
        # % of input bytes) is materialized, and both topologies read it
        from ..stages.extract import (
            combined_dict_partials,
            combined_mentions,
            extract_mentions_and_dict,
        )
        from ..stages.linking import _merge_dict_partials, link_combined_shuffle
        from .resident import exchange_width

        combined = extract_mentions_and_dict(
            docs,
            batch_size=extract_batch_size,
            strict_lists=strict_lists,
            include_tags=include_tags,
        ).materialize()
        rows = combined.count()  # block metadata
        if _dict_exceeds_broadcast(combined, rows):
            # too large for a driver merge + ray.put broadcast —
            # shuffle-join the SAME table (no re-read, no dictionary)
            edges = link_combined_shuffle(
                combined,
                num_partitions=exchange_width(rows, 64),
                drop_unresolved=drop_unresolved,
            )
            link_topology = "shuffle-combined"
            dictionary = None
        else:
            dictionary = _merge_dict_partials(combined_dict_partials(combined))
            link_input = combined_mentions(combined)
    if edges is None:
        edges = link_mentions(
            link_input,
            dictionary,
            batch_size=linker_batch_size,
            drop_unresolved=drop_unresolved,
        )
    if include_child_of:
        # streaming: `notes` is lazy — derive child_of from the raw docs
        # (doc_id is present verbatim) so the full extract doesn't
        # re-execute just to read one column
        edges = edges.union(child_of_edges(notes if barrier else docs))

    triples = canonicalize(edges, directed=directed)
    return GraphResult(
        notes=notes,
        mentions=mentions,
        edges=edges,
        triples=triples,
        dictionary=dictionary,
        link_topology=link_topology,
    )


def duplicates_by_name(notes):
    """A3 (vault_duplicates.rs:21-41): stems seen more than once; the
    keeper is the first occurrence = min(order_key)."""
    from ray.data.aggregate import Count, Min

    g = notes.groupby("note_name").aggregate(
        Count(alias_name="n_docs"), Min("order_key", alias_name="keeper")
    )
    return g.filter(expr="n_docs > 1")


def duplicates_by_content(notes):
    """A4 (vault_duplicates.rs:62-95): exact content dedup via digest."""
    from ray.data.aggregate import Count, Min

    g = notes.groupby("content_hash").aggregate(
        Count(alias_name="n_docs"), Min("order_key", alias_name="keeper")
    )
    return g.filter(expr="n_docs > 1")


def write_graph(result: GraphResult, out_dir: str,
                *, num_partitions: int | None = None,
                dataset_id: str = "") -> dict:
    """Sorted materialize of the canonical triples + node table
    (north_star final stage), partitioned parquet + manifests.

    ``dataset_id`` is folded into the manifest lineage: pass an input
    fingerprint (e.g. source path + row count) so a rerun over the SAME
    out_dir with DIFFERENT input data rewrites instead of silently
    returning the stale manifest."""
    from ..state import write_partitioned_output

    m1 = write_partitioned_output(
        sorted_triples(result.triples),
        out_dir + "/triples",
        lineage=f"triples:{dataset_id}" if dataset_id else "triples",
        num_partitions=num_partitions,
    )
    m2 = write_partitioned_output(
        result.notes.select_columns(
            [
                "doc_id",
                "note_name",
                "n_words",
                "n_bytes",
                "is_todo",
                "content_hash",
                "order_key",
            ]
        ),
        out_dir + "/nodes",
        lineage=f"nodes:{dataset_id}" if dataset_id else "nodes",
    )
    return {"triples": m1, "nodes": m2}


def write_adjacency(result: GraphResult, out_dir: str, *,
                    num_buckets: int = 64,
                    splits_per_bucket: int | str = "auto",
                    target_split_bytes: int = 256 << 20,
                    compression: str = "snappy") -> dict:
    """Bucketed adjacency layout: canonical triples hash-partitioned on
    ``subj`` (hive ``subj_bucket=`` dirs), sorted within files.

    The storage-side half of "pick ONE partitioning key and reuse it":
    per-subject adjacency reads prune to a single bucket directory —
    at 10^12 triples a lookup touches 1/num_buckets of the table.

    Single-shuffle sort-write fusion: tag each row with its int32
    shard, shuffle ONCE on that single int key (``groupby``), and in
    the reduce task sort the shard locally with one Arrow ``sort_by``
    and write its parquet file directly — no global ``Dataset.sort``
    merge over (subj, pred, obj) string tuples and no separate write
    stage (3.5x faster than that two-exchange sink at 38.4M triples,
    BASELINE.md "Fused adjacency sink").  Reduce tasks write
    ``out_dir`` themselves, so at cluster scale it must be shared
    storage (same caveat as ``write_markdown_files``).

    ``splits_per_bucket`` bounds the fused reduce task (VERDICT r2 #3:
    at 10^12 triples / 64 buckets one bucket is ~15 B rows — far past
    one task's memory).  Each bucket is subdivided by a SECOND,
    independent slice of the same subject hash into that many shards;
    a reduce task holds one (bucket, split) shard — memory =
    ``triple_bytes / (num_buckets × splits)``.  Each shard file is
    internally sorted and owns a disjoint hash-slice of the bucket's
    SUBJECTS, so per-subject reads (:func:`read_adjacency`) prune to
    exactly ONE file — strictly finer pruning than before, in exchange
    for the bucket no longer being one totally-ordered file.  The
    default ``"auto"`` sizes splits from the source-metadata byte
    estimate (an UPPER bound on triple bytes — over-splitting is the
    cheap direction) so no bucket shard is expected past
    ``target_split_bytes``; unknown-size inputs get 16 splits rather
    than an unbounded task.
    """
    import json
    import os

    import pyarrow as pa

    if splits_per_bucket == "auto":
        est = _estimate_input_bytes(result.triples)
        if est is None:
            splits = 16
        else:
            splits = max(1, min(4096, -(-est // (num_buckets * target_split_bytes))))
    else:
        splits = max(1, int(splits_per_bucket))

    def add_shard(t: pa.Table) -> pa.Table:
        subj = t["subj"]
        if isinstance(subj, pa.ChunkedArray):
            subj = subj.combine_chunks()
        from ..hashing import hash64_array

        h = hash64_array(subj)
        bucket = (h % num_buckets).astype("int64")
        split = ((h // num_buckets) % splits).astype("int64")
        shard = pa.array((bucket * splits + split).astype("int32"), pa.int32())
        return t.append_column("shard", shard)

    # idempotent: write into a tmp dir, rename into place — a rerun
    # replaces the layout instead of APPENDing duplicate files into
    # bucket dirs, and a crash never leaves a manifest over partial
    # data.  Not atomic: between the rmtree and the os.replace below
    # there is no layout (a crash there loses it; a concurrent
    # read_adjacency_many raises).
    import shutil

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    manifest = {
        "num_buckets": num_buckets,
        "splits_per_bucket": splits,
        "hash": "pd.util.hash_array",
    }
    tri = result.triples.map_batches(add_shard, batch_format="pyarrow")
    data_dir = os.path.join(tmp, "data")
    os.makedirs(data_dir, exist_ok=True)
    sort_keys = [(k, "ascending") for k in ("subj", "pred", "obj")]

    def sort_and_write(g: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        shard = g["shard"][0].as_py()
        b, s = divmod(shard, splits)
        body = g.drop_columns(["shard"]).sort_by(sort_keys)
        bdir = os.path.join(data_dir, f"subj_bucket={b}")
        os.makedirs(bdir, exist_ok=True)
        fp = os.path.join(bdir, f"part-{s:05d}.parquet")
        # compression is a bus-vs-CPU knob: zstd cuts the sink's
        # write bandwidth ~3-5x at modest compute cost (the right
        # trade when the sink shares a saturated memory bus or a
        # network link; snappy default unchanged)
        pq.write_table(body, fp, compression=compression)
        return pa.table(
            {
                "bucket": pa.array([b], pa.int32()),
                "split": pa.array([s], pa.int32()),
                "rows": pa.array([body.num_rows], pa.int64()),
                "bytes": pa.array([os.path.getsize(fp)], pa.int64()),
            }
        )

    # ≤ num_buckets × splits tiny manifest rows come back to the driver
    parts = (
        tri.groupby("shard")
        .map_groups(sort_and_write, batch_format="pyarrow")
        .take_all()
    )
    manifest["partitions"] = sorted(
        ({k: int(r[k]) for k in ("bucket", "split", "rows", "bytes")}
         for r in parts),
        key=lambda r: (r["bucket"], r["split"]),
    )
    with open(os.path.join(tmp, "_ADJ_MANIFEST.json"), "w") as f:
        json.dump(manifest, f)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    return manifest


def read_adjacency_many(out_dir: str, subjects) -> pa.Table:
    """Triples of the given subjects, read on the caller with no Ray
    task: each subject hashes to its (bucket, split) shard, and each
    shard file is opened ONCE with the subject set pushed down as a
    Parquet filter (files are sorted on ``subj``, so row-group
    statistics skip the row groups that cannot hold one).

    Returns the columns of :data:`_ADJ_SCHEMA`; shards come in
    manifest (bucket, split) order and rows in file order within each.
    Duplicate subjects read once.  A shard the manifest does not list
    had no rows and reads as empty; a listed shard whose file is gone
    (a lookup inside ``write_adjacency``'s replace) raises
    ``FileNotFoundError`` instead of answering empty."""
    import json
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from ..hashing import hash64_array

    subs = sorted(set(subjects))
    with open(os.path.join(out_dir, "_ADJ_MANIFEST.json")) as f:
        man = json.load(f)
    nb, splits = man["num_buckets"], man["splits_per_bucket"]
    listed = {(p["bucket"], p["split"]) for p in man["partitions"]}
    h = hash64_array(subs)
    bucket = (h % np.uint64(nb)).tolist()
    split = (h // np.uint64(nb) % np.uint64(splits)).tolist()
    by_shard: dict[tuple[int, int], list[str]] = {}
    for s, key in zip(subs, zip(bucket, split)):
        if key in listed:
            by_shard.setdefault(key, []).append(s)
    tables = [
        pq.read_table(
            os.path.join(out_dir, "data", f"subj_bucket={b}",
                         f"part-{sp:05d}.parquet"),
            schema=_ADJ_SCHEMA, filters=[("subj", "in", group)],
            partitioning=None,
        )
        for (b, sp), group in sorted(by_shard.items())
    ]
    return pa.concat_tables(tables or [_ADJ_SCHEMA.empty_table()])


def read_adjacency(out_dir: str, subj: str):
    """Partition-pruned adjacency lookup: triples of ONE subject, as a
    Dataset over :func:`read_adjacency_many`'s caller-side read (one
    shard file, 1/(num_buckets × splits) of the table)."""
    import ray.data as rd

    return rd.from_arrow(read_adjacency_many(out_dir, [subj]))
