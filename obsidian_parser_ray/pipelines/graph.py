"""End-to-end KG-construction pipeline (the flagship).

Mirrors the reference's vault → graph lifecycle (SURVEY.md §3) as a
Ray-Data-first dataflow::

    documents (span rows)
      └─ extract (stateless map_batches, P1-P13)          → notes
           ├─ checkpoint (materialize OR parquet+manifest)
           ├─ dictionary fold (3 tiny columns, first-wins) → ray.put
           ├─ explode mentions (Arrow list flatten)        → mentions
           │    └─ EntityLinker actor pool (broadcast dict)→ edges
           │         └─ union(child_of) → per-block combine
           │              └─ groupby(subj,pred,obj) SHUFFLE → triples
           └─ duplicate reports (groupby name / content hash)

The notes Dataset is consumed by several branches (dictionary,
mentions, node table, duplicate reports), so it is pinned once —
``materialize()`` at test/bench scale, a parquet checkpoint with a
manifest when ``checkpoint_dir`` is given (the 100 TB path; also the
resume point).  Nothing else in the pipeline materializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..stages.canonicalize import canonicalize, degree_top_k, sorted_triples
from ..stages.extract import explode_mentions, extract_notes
from ..stages.linking import build_dictionary, child_of_edges, link_mentions


@dataclass
class GraphResult:
    """Handles to every logical table of the build (all lazy Datasets
    except the broadcast dictionary)."""

    notes: object  # notes table (node attributes)
    mentions: object  # raw mention multiset (span-level parity view)
    edges: object  # resolved edge multiset (reference keeps parallel edges)
    triples: object  # canonical (subj, pred, obj, weight)
    dictionary: object = field(repr=False, default=None)
    #: which linking topology actually ran: "broadcast",
    #: "shuffle-fused" (link_mode="shuffle": extraction fused into the
    #: shuffle, docs re-read), or "shuffle-combined" (auto-selected:
    #: the materialized single-pass table shuffled, no second read)
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


def _dict_exceeds_broadcast(combined, max_entries: int, max_bytes: int) -> bool:
    """Size probe for the auto link-topology decision.

    One vectorized sweep over the ALREADY-MATERIALIZED combined table
    (mention rows ∪ dict partials — a few % of input bytes, pinned in
    the object store either way): per-block (row count, key+val byte
    volume) partials of the dictionary side, summed by a tiny
    aggregate.  Bounds BOTH dimensions of the broadcast cliff — entry
    count (driver-merge hash-map size) and payload bytes (plasma /
    per-actor deserialization) — mirroring the row+byte guard of
    ``joins.broadcast_join_unique``.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    # metadata short-circuit: on the materialized combined table both
    # count() and size_bytes() are free; the dictionary side is a
    # subset of the whole table, so if the WHOLE table fits the guard
    # the dictionary certainly does — no probe pass at all.  Only
    # oversized tables (where the probe cost is a rounding error of
    # the build) pay the exact dict-side sweep.
    try:
        if (combined.count() <= max_entries
                and combined.size_bytes() <= max_bytes):
            return False
    except Exception:
        pass

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
    return n > max_entries or nbytes > max_bytes


def build_graph(
    docs,
    *,
    directed: bool = True,
    drop_unresolved: bool = True,
    include_child_of: bool = True,
    include_tags: bool = True,
    checkpoint_dir: str | None = None,
    linker_concurrency=(2, 8),
    linker_batch_size: int | None = None,
    extract_batch_size: int | None = None,
    user_filter=None,
    materialize_notes: bool | None = None,
    strict_lists: bool = False,
    link_mode: str = "auto",
    num_link_partitions: int = 64,
    single_pass: bool = True,
    max_broadcast_entries: int = 10_000_000,
    max_broadcast_bytes: int = 512 << 20,
):
    """documents Dataset → :class:`GraphResult`.

    ``user_filter`` is the reference's ``filter_entry``/iterator-combinator
    extension surface (SURVEY.md §2.10): a batch-level predicate
    applied to the notes table before graph construction (e.g. drop
    todos / empty notes, examples/analyzer.rs:45-49).

    ``link_mode="auto"`` (default) SIZE-SELECTS the join topology so
    the flagship path has no manual scale cliff: in the streaming
    single-pass mode the materialized combined table is probed for its
    dictionary-partial row count and key/val byte volume (one cheap
    vectorized sweep over the already-pinned derived table — never a
    corpus re-read), and if either exceeds ``max_broadcast_entries`` /
    ``max_broadcast_bytes`` the build flips from the broadcast linker
    to :func:`..stages.linking.link_combined_shuffle` — a hash-
    partitioned join over the SAME combined table, zero extra passes.
    Guard defaults: BYTES (512 MB) is the binding constraint for the
    skinny string dictionary (driver merge + ray.put + per-actor
    fetch); the 10M entry guard backstops pathological many-tiny-key
    corpora (measured: a 7.7M-entry / ~230 MB dictionary at 3.84M docs
    still favors broadcast — see BASELINE.md scaling table).
    Barrier paths (``user_filter`` / ``checkpoint_dir`` / explicit
    ``materialize_notes=True``) and the two-pass mode resolve auto to
    broadcast: their semantics require the notes barrier, and the
    dictionary they build is bounded by the notes table they already
    pinned.  The chosen topology is reported on
    :attr:`GraphResult.link_topology`.

    ``link_mode="broadcast"`` forces the broadcast dictionary;
    ``"shuffle"`` forces the FUSED single-pass shuffle join
    (:func:`..stages.linking.link_edges_fused`): one parse per
    document, no driver-side dictionary, no broadcast size ceiling —
    also correct at 10^12 docs, but re-reads the corpus when a
    combined table would have existed anyway (requires no
    ``user_filter``; the notes/mentions/dictionary handles on the
    result are then lazy derivations).

    ``single_pass=True`` (default, streaming mode only): the corpus is
    read ONCE — the extract stage emits mention rows and dictionary
    partials from the same parse and only that combined derived table
    (a few % of input bytes) is materialized.  ``False`` restores the
    zero-materialization two-pass variant (slim dictionary sweep +
    direct mention extraction) — prefer it only when even the derived
    mentions table must not be pinned.

    ``materialize_notes=None`` (default) AUTO-selects: the STREAMING
    path (slim frontmatter dictionary sweep, no notes barrier — the
    100 TB default: nothing pins the full notes table in the object
    store) when no ``user_filter``/``checkpoint_dir`` is given, else
    the barrier path the filter/checkpoint semantics require.  Pass
    ``True`` to pin notes explicitly — worth it only when several
    consumers will re-read the notes table AND it fits the object
    store (≲10^7 notes per 100 GB of aggregate store); pass ``False``
    to force streaming.
    """
    if link_mode == "shuffle":
        if user_filter is not None:
            raise ValueError(
                "link_mode='shuffle' is the single-pass fused build — "
                "a user_filter needs the notes barrier; use the "
                "broadcast mode"
            )
        from ..stages.linking import link_edges_fused

        notes = extract_notes(docs, batch_size=extract_batch_size,
                              strict_lists=strict_lists)
        edges = link_edges_fused(
            docs,
            num_partitions=num_link_partitions,
            drop_unresolved=drop_unresolved,
            include_tags=include_tags,
            strict_lists=strict_lists,
            batch_size=extract_batch_size,
        )
        if include_child_of:
            edges = edges.union(child_of_edges(docs))
        return GraphResult(
            notes=notes,
            mentions=explode_mentions(notes),
            edges=edges,
            triples=canonicalize(edges, directed=directed),
            dictionary=None,
            link_topology="shuffle-fused",
        )
    if link_mode not in ("broadcast", "auto"):
        raise ValueError(f"unknown link_mode {link_mode!r}")

    notes = extract_notes(docs, batch_size=extract_batch_size,
                          strict_lists=strict_lists)
    if user_filter is not None:
        notes = notes.map_batches(user_filter, batch_format="pyarrow")
    if materialize_notes is None:
        # auto: a filter forces the barrier (checkpoint handled below —
        # it is its own resume-point barrier); otherwise select by
        # estimated input size — a small vault (<1 GiB) is faster with
        # the one-parse barrier, while large or UNKNOWN-size inputs
        # take the streaming path (the scale-safe default: never pin
        # an unbounded notes table on a size guess)
        if user_filter is not None:
            materialize_notes = True
        else:
            # NEVER call docs.size_bytes() here — on a lazy derived
            # dataset it EXECUTES the whole upstream pipeline (a full
            # extra pass over the input just to pick a path)
            materialize_notes = (
                nbytes := _estimate_input_bytes(docs)
            ) is not None and nbytes < (1 << 30)

    if checkpoint_dir:
        from ..state import checkpoint_dataset

        notes = checkpoint_dataset(
            notes, checkpoint_dir + "/notes", lineage="extract_notes"
        )
        dictionary = build_dictionary(notes)
    elif materialize_notes:
        notes = notes.materialize()
        dictionary = build_dictionary(notes)
    else:
        # streaming mode: dictionary from a cheap frontmatter-only
        # sweep (Phase A), so the main extract→link→canonicalize
        # pipeline runs with NO materialization barrier.  notes stays
        # lazy (re-executes extract if consumed — callers wanting the
        # notes table should materialize/checkpoint it themselves).
        if user_filter is not None:
            # the slim sweep can't see user filters on extracted
            # columns — fall back to the barrier for correctness
            notes = notes.materialize()
            dictionary = build_dictionary(notes)
        else:
            dictionary = None  # streaming: resolved below (single/two pass)

    mentions = explode_mentions(notes)
    edges = None  # set early only when auto selects the combined shuffle
    link_topology = "broadcast"
    if not (materialize_notes or checkpoint_dir or user_filter is not None):
        # streaming mode: the triples lineage reads mentions STRAIGHT
        # from the documents (parse_doc fast mode — no md5/word-count/
        # JSON, no intermediate notes table); `mentions`/`notes` above
        # remain the lazy full-attribute views for other consumers
        if single_pass:
            # ONE corpus read: the same parse emits mention rows AND
            # dictionary partials; only the combined derived table
            # (a few % of input bytes) is materialized.  The two-pass
            # variant reads the corpus twice — at high parallelism the
            # second read is pure storage-bandwidth cost that extra
            # cpus cannot reduce (see extract_mentions_and_dict).
            from ..stages.extract import (
                combined_dict_partials,
                combined_mentions,
                extract_mentions_and_dict,
            )
            from ..stages.linking import _merge_dict_partials

            combined = extract_mentions_and_dict(
                docs,
                batch_size=extract_batch_size,
                strict_lists=strict_lists,
                include_tags=include_tags,
            ).materialize()
            if link_mode == "auto" and _dict_exceeds_broadcast(
                combined, max_broadcast_entries, max_broadcast_bytes
            ):
                # dictionary too large for a driver merge + ray.put
                # broadcast — shuffle-join the SAME materialized table
                # instead (no re-read, no driver-side dictionary)
                from ..stages.linking import link_combined_shuffle

                edges = link_combined_shuffle(
                    combined,
                    num_partitions=num_link_partitions,
                    drop_unresolved=drop_unresolved,
                )
                link_topology = "shuffle-combined"
                dictionary = None
                link_input = None
            else:
                link_input = combined_mentions(combined)
                dictionary = _merge_dict_partials(
                    combined_dict_partials(combined)
                )
        else:
            from ..stages.extract import extract_mentions_direct
            from ..stages.linking import build_dictionary_from_docs

            dictionary = build_dictionary_from_docs(docs)
            link_input = extract_mentions_direct(
                docs,
                batch_size=extract_batch_size,
                strict_lists=strict_lists,
                include_tags=include_tags,
            )
    else:
        link_input = mentions
        if not include_tags:
            link_input = mentions.filter(
                expr="kind == 'link' or kind == 'embed' or kind == 'media'"
            )
    if edges is None:
        edges = link_mentions(
            link_input,
            dictionary,
            concurrency=linker_concurrency,
            batch_size=linker_batch_size,
            drop_unresolved=drop_unresolved,
        )
    if include_child_of:
        # in streaming mode `notes` is lazy — derive child_of from the
        # raw docs (doc_id is present verbatim) so the full extract
        # doesn't re-execute just to read one column
        child_src = docs if (not materialize_notes and not checkpoint_dir
                             and user_filter is None) else notes
        edges = edges.union(child_of_edges(child_src))

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
                    num_buckets: int = 64, mode: str = "fused",
                    splits_per_bucket: int | str = "auto",
                    target_split_bytes: int = 256 << 20,
                    compression: str = "snappy") -> dict:
    """Bucketed adjacency layout: canonical triples hash-partitioned on
    ``subj`` (hive ``subj_bucket=`` dirs), sorted within files.

    The storage-side half of "pick ONE partitioning key and reuse it":
    per-subject adjacency reads prune to a single bucket directory —
    at 10^12 triples a lookup touches 1/num_buckets of the table.

    ``mode``:

    * ``"fused"`` (default) — single-shuffle sort-write fusion: tag each
      row with its int32 shard, shuffle ONCE on that single int key
      (``groupby``), and in the reduce task sort the shard locally with
      one Arrow ``sort_by`` and write its parquet file directly.  The
      global ``Dataset.sort`` merge (which compares full
      (subj, pred, obj) string tuples across the whole dataset) and the
      separate write stage collapse into the reduce side of one
      exchange.  At cluster scale ``out_dir`` must be shared storage
      (same caveat as ``write_markdown_files``).
    * ``"sort"`` — global ``Dataset.sort`` on (bucket, subj, pred, obj)
      then hive-partitioned write; totally-ordered buckets, kept as the
      oracle for the equivalence test and for sinks where the writer
      must not touch the filesystem from worker tasks.

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
    than an unbounded task.  ``mode="sort"`` ignores splits — the
    distributed range-partitioned sort bounds its own tasks.
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

    # atomic + idempotent (same contract as state.checkpoint_dataset):
    # write into a tmp dir, rename into place — a rerun replaces the
    # layout instead of APPENDing duplicate files into bucket dirs, and
    # a crash never leaves a manifest over partial data.
    import shutil

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    manifest = {
        "num_buckets": num_buckets,
        "splits_per_bucket": splits,
        "hash": "pd.util.hash_array",
    }
    if mode == "fused":
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
    elif mode == "sort":

        def add_bucket(t: pa.Table) -> pa.Table:
            subj = t["subj"]
            if isinstance(subj, pa.ChunkedArray):
                subj = subj.combine_chunks()
            from ..hashing import hash_bucket_array

            return t.append_column(
                "subj_bucket", hash_bucket_array(subj, num_buckets)
            )

        tri = result.triples.map_batches(add_bucket, batch_format="pyarrow")
        tri = tri.sort(["subj_bucket", "subj", "pred", "obj"])
        tri.write_parquet(os.path.join(tmp, "data"), partition_cols=["subj_bucket"])
        manifest["splits_per_bucket"] = 1  # sort mode: whole-bucket files
    else:
        raise ValueError(f"unknown write_adjacency mode: {mode!r}")
    with open(os.path.join(tmp, "_ADJ_MANIFEST.json"), "w") as f:
        json.dump(manifest, f)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)
    return manifest


def read_adjacency(out_dir: str, subj: str):
    """Partition-pruned adjacency lookup: triples of ONE subject.

    Prunes to the subject's hash bucket directory, and — when the
    layout was written with ``splits_per_bucket > 1`` — to the single
    shard FILE the subject hashes into (1/(num_buckets × splits) of
    the table touched per lookup)."""
    import json
    import os

    import pyarrow as pa
    import ray.data as rd

    from ..hashing import hash64_scalar

    with open(os.path.join(out_dir, "_ADJ_MANIFEST.json")) as f:
        man = json.load(f)
    h = hash64_scalar(subj)
    bucket = h % man["num_buckets"]
    splits = int(man.get("splits_per_bucket", 1))
    path = os.path.join(out_dir, "data", f"subj_bucket={bucket}")
    if splits > 1:
        split = (h // man["num_buckets"]) % splits
        fp = os.path.join(path, f"part-{split:05d}.parquet")
        # a shard with no rows was still written (empty groups don't
        # reach map_groups, so a MISSING file means no rows landed
        # there) — treat missing as empty
        path = fp if os.path.isfile(fp) else ""
    if not (os.path.isdir(path) or os.path.isfile(path)):
        return rd.from_arrow(
            pa.table(
                {
                    "subj": pa.array([], pa.string()),
                    "pred": pa.array([], pa.string()),
                    "obj": pa.array([], pa.string()),
                    "weight": pa.array([], pa.int64()),
                }
            )
        )
    # pc.equal kernel, not an interpolated expr string — doc_ids are
    # arbitrary vault paths (quotes/backslashes must not reach a parser)
    import pyarrow.compute as pc

    # the column select also drops the ``subj_bucket`` column Ray
    # infers from the hive dir of a one-split layout
    def keep(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.equal(t["subj"], pa.scalar(subj, pa.string()))
        ).select(["subj", "pred", "obj", "weight"])

    return rd.read_parquet(path, file_extensions=["parquet"]).map_batches(
        keep, batch_format="pyarrow"
    )
