"""Entity linking: mentions → resolved edges, one kernel, two topologies.

Re-expresses the reference's two-phase graph build
(``src/vault/vault_petgraph/graph_builder.rs:88-223``):

* Phase A (index build, graph_builder.rs:88-114): the three lookup
  maps with **first-wins = min(order_key)** semantics (index.rs:13
  ``or_insert`` under walkdir order → deterministic ``min`` in our
  engine, SURVEY.md §1.4).  Workers min-reduce ``(kind, key, val)``
  partials per block; :func:`first_wins_dictionary` is the one merge
  of such rows into an :class:`ArrowLinkDictionary`, whoever holds
  them — the driver (:func:`build_dictionary`,
  :func:`_merge_dict_partials`), a shuffle partition
  (:func:`link_combined_shuffle`) or the incremental graph base.
* Phase B (edge build, graph_builder.rs:196-223): :func:`link_batch`,
  the one vectorized resolution kernel, in one of two topologies:

  - **broadcast** (:func:`link_mentions`): the dictionary is
    ``ray.put`` ONCE and deserialized once per :class:`EntityLinker`
    actor;
  - **shuffle** (:func:`link_combined_shuffle`): the single-pass
    combined table (mention rows ∪ dictionary partials, see
    ``stages.extract.extract_mentions_and_dict``) is hash-partitioned
    on the lookup key, so each partition holds every partial of its
    keys and merges them before linking — no driver-side dictionary.

  ``pipelines.graph.build_graph`` picks the topology from the measured
  dictionary side of the combined table it already materialized:
  broadcast below the guard, the shuffle above it.

Resolution rule (index.rs:21-27 + alias extension required by
BASELINE.json north_star): a key containing ``/`` is looked up in the
full-path map only; otherwise the short-name (stem) map, then — our
extension — the alias map.  A miss drops the mention
(graph_builder.rs:213-215 ``filter_map`` inner-join semantics); we
carry it as ``resolved=false`` so callers can keep unresolved metrics.
"""

from __future__ import annotations

import pyarrow as pa

PRED_FOR_KIND = {
    "link": "links_to",
    "embed": "embeds",
    "media": "embeds",
    "tag_inline": "tagged",
    "tag_frontmatter": "tagged",
}

# kinds whose target is used verbatim (no dictionary lookup)
_LITERAL_KINDS = {"media", "tag_inline", "tag_frontmatter"}


class LinkDictionary:
    """The three first-wins lookup maps (full / short / alias)."""

    __slots__ = ("full", "short", "alias")

    def __init__(self):
        self.full: set[str] = set()
        self.short: dict[str, str] = {}
        self.alias: dict[str, str] = {}

    def fold_batch(self, doc_ids, names, aliases_col) -> None:
        """Fold one (doc_id, note_name, aliases) batch. min() keeps the
        lexicographically-smallest order_key (= doc_id) per key, which
        is order-independent → safe under unordered block arrival."""
        for doc_id, name, aliases in zip(doc_ids, names, aliases_col):
            self.full.add(doc_id)
            prev = self.short.get(name)
            if prev is None or doc_id < prev:
                self.short[name] = doc_id
            for a in aliases or ():
                prev = self.alias.get(a)
                if prev is None or doc_id < prev:
                    self.alias[a] = doc_id

    def resolve(self, key: str) -> str | None:
        """index.rs:21-27 + alias fallback."""
        if "/" in key:
            return key if key in self.full else None
        hit = self.short.get(key)
        if hit is not None:
            return hit
        return self.alias.get(key)

    def __len__(self) -> int:
        return len(self.full) + len(self.short) + len(self.alias)

    def to_arrow(self) -> "ArrowLinkDictionary":
        return ArrowLinkDictionary(
            full_keys=pa.array(sorted(self.full), pa.string()),
            short_keys=pa.array(list(self.short.keys()), pa.string()),
            short_vals=pa.array(list(self.short.values()), pa.string()),
            alias_keys=pa.array(list(self.alias.keys()), pa.string()),
            alias_vals=pa.array(list(self.alias.values()), pa.string()),
        )


class ArrowLinkDictionary:
    """Broadcast form of the dictionary: five Arrow arrays.

    Arrow arrays pickle as raw buffers (no per-entry Python objects),
    so ``ray.put`` + per-actor fetch is near zero-copy, and lookups in
    the linker are vectorized hash joins (``pc.index_in`` /
    ``pc.is_in``) instead of a per-row Python dict loop."""

    __slots__ = ("full_keys", "short_keys", "short_vals", "alias_keys", "alias_vals")

    def __init__(self, full_keys, short_keys, short_vals, alias_keys, alias_vals):
        self.full_keys = full_keys
        self.short_keys = short_keys
        self.short_vals = short_vals
        self.alias_keys = alias_keys
        self.alias_vals = alias_vals

    def __len__(self) -> int:
        return len(self.full_keys) + len(self.short_keys) + len(self.alias_keys)

    def resolve(self, key: str) -> str | None:
        """Scalar parity helper (tests); hot path is the batched linker."""
        import pyarrow.compute as pc

        target = pa.array([key], pa.string())
        if "/" in key:
            return key if pc.is_in(target, value_set=self.full_keys)[0].as_py() else None
        idx = pc.index_in(target, self.short_keys)[0].as_py()
        if idx is not None:
            return self.short_vals[idx].as_py()
        idx = pc.index_in(target, self.alias_keys)[0].as_py()
        if idx is not None:
            return self.alias_vals[idx].as_py()
        return None


def _dict_partial_batch(t: pa.Table) -> pa.Table:
    """Per-block partial of the dictionary: (kind, key, val) rows,
    min-reduced per key — vectorized Arrow, runs on workers."""
    import pyarrow.compute as pc

    ids, names, aliases = (_arr(t[c]) for c in ("doc_id", "note_name", "aliases"))
    n = len(ids)
    flat_alias = aliases.flatten()
    alias_ids = pc.take(ids, pc.list_parent_indices(aliases))
    rows = pa.table(
        {
            "kind": pa.concat_arrays(
                [
                    pa.array(["full"] * n, pa.string()),
                    pa.array(["short"] * n, pa.string()),
                    pa.array(["alias"] * len(flat_alias), pa.string()),
                ]
            ),
            "key": pa.concat_arrays(
                [ids.cast(pa.string()), names.cast(pa.string()), flat_alias]
            ),
            "val": pa.concat_arrays(
                [ids.cast(pa.string()), ids.cast(pa.string()), alias_ids]
            ),
        }
    )
    out = rows.group_by(["kind", "key"]).aggregate([("val", "min")])
    return out.rename_columns(
        ["val" if c == "val_min" else c for c in out.column_names]
    ).select(["kind", "key", "val"])


def build_dictionary(notes) -> "ArrowLinkDictionary":
    """Distributed partial fold + tiny driver merge → Arrow broadcast form.

    Workers min-reduce ``(kind, key, doc_id)`` per block (vectorized
    Arrow ``group_by``); the driver only merges the pre-reduced
    partials — first-wins = global ``min(order_key)``, deterministic
    under unordered block arrival.  All vectorized — no per-entry
    Python objects anywhere.
    """
    partials = notes.select_columns(["doc_id", "note_name", "aliases"]).map_batches(
        _dict_partial_batch, batch_format="pyarrow"
    )
    return _merge_dict_partials(partials)


_EMPTY_PARTIALS = pa.table(
    {c: pa.array([], pa.string()) for c in ("kind", "key", "val")}
)


def _merge_dict_partials(partials) -> "ArrowLinkDictionary":
    """Driver-side first-wins merge of a Dataset of per-block
    ``(kind, key, val)`` dictionary partials.

    Partials are already min-reduced per block, so the Arrow
    ``group_by`` runs over ~one row per key — a single vectorized C++
    pass, while the dictionary fits the broadcast guard (past it,
    :func:`link_combined_shuffle` merges per partition instead)."""
    tables = [
        b
        for b in partials.iter_batches(batch_size=None, batch_format="pyarrow")
        if b.num_rows
    ]
    return first_wins_dictionary(
        pa.concat_tables(tables) if tables else _EMPTY_PARTIALS
    )


def first_wins_dictionary(rows: pa.Table, val: str = "val") -> "ArrowLinkDictionary":
    """``(kind, key, <val>)`` candidate rows → :class:`ArrowLinkDictionary`.

    The one first-wins merge: per ``(kind, key)`` the smallest ``val``
    (= order_key = doc_id) wins, then the winners split by kind into
    the full / short / alias maps.  ``rows`` may hold any number of
    candidates per key, in any order."""
    import pyarrow.compute as pc

    won = rows.group_by(["kind", "key"]).aggregate([(val, "min")])

    def split(kind: str) -> pa.Table:
        return won.filter(pc.equal(won["kind"], kind))

    full, short, alias = split("full"), split("short"), split("alias")
    return ArrowLinkDictionary(
        full_keys=_arr(full["key"]),
        short_keys=_arr(short["key"]),
        short_vals=_arr(short[f"{val}_min"]),
        alias_keys=_arr(alias["key"]),
        alias_vals=_arr(alias[f"{val}_min"]),
    )


EDGES_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("resolved", pa.bool_()),
        ("span_offset", pa.int32()),
        ("occurrence_idx", pa.int32()),
    ]
)


def _arr(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


_KIND_KEYS = pa.array(list(PRED_FOR_KIND.keys()), pa.string())
_PRED_VALS = pa.array(list(PRED_FOR_KIND.values()), pa.string())
_LITERAL_ARR = pa.array(sorted(_LITERAL_KINDS), pa.string())


def link_batch(batch: pa.Table, d: "ArrowLinkDictionary") -> pa.Table:
    """Vectorized resolution of one mentions batch against a dictionary.

    Shared by the broadcast actor pool (:class:`EntityLinker`), the
    shuffle topology (:func:`link_combined_shuffle`) and the
    incremental update — identical semantics by construction.
    """
    import pyarrow.compute as pc

    kinds = _arr(batch["kind"])
    targets = _arr(batch["target_key"])

    pred = pc.take(_PRED_VALS, pc.index_in(kinds, _KIND_KEYS))
    literal = pc.is_in(kinds, value_set=_LITERAL_ARR)

    short_val = pc.take(d.short_vals, pc.index_in(targets, d.short_keys))
    alias_val = pc.take(d.alias_vals, pc.index_in(targets, d.alias_keys))
    in_full = pc.is_in(targets, value_set=d.full_keys)
    has_slash = pc.match_substring(targets, "/")

    # index.rs:21-27: '/' keys resolve via full-path only; others
    # short-name first, then alias (our north_star extension).
    name_val = (
        pc.if_else(pc.is_valid(short_val), short_val, alias_val)
        if len(d.alias_keys)
        else short_val
    )
    full_val = pc.if_else(in_full, targets, pa.nulls(len(targets), pa.string()))
    lookup_val = pc.if_else(has_slash, full_val, name_val)

    resolved = pc.or_(literal, pc.is_valid(lookup_val))
    obj = pc.if_else(
        literal, targets, pc.if_else(pc.is_valid(lookup_val), lookup_val, targets)
    )
    return pa.Table.from_arrays(
        [
            _arr(batch["subj"]),
            pred,
            obj,
            resolved,
            _arr(batch["span_offset"]),
            _arr(batch["occurrence_idx"]),
        ],
        schema=EDGES_SCHEMA,
    )


class EntityLinker:
    """Actor-pool linking stage: ``map_batches(EntityLinker, ...)``.

    ``__init__`` runs once per actor (dictionary fetched from the
    object store once — Arrow buffers, near zero-copy); ``__call__`` is
    fully vectorized: kind→pred mapping and all three dictionary
    lookups are ``pc.index_in``/``pc.is_in`` hash probes, the
    resolution precedence (full-path / short / alias, miss kept
    unresolved) is an ``if_else``/``coalesce`` cascade.  Compare the
    reference's per-chunk rayon closure (graph_builder.rs:149-166) —
    same semantics, no downstream mutex, no per-row interpreter work.
    """

    def __init__(self, dict_ref=None, dictionary: ArrowLinkDictionary | None = None):
        if dictionary is not None:
            self.d = dictionary
        else:
            import ray

            self.d = ray.get(dict_ref)
        if isinstance(self.d, LinkDictionary):
            self.d = self.d.to_arrow()

    def __call__(self, batch: pa.Table) -> pa.Table:
        return link_batch(batch, self.d)


def _task_link(batch: pa.Table, dict_ref=None) -> pa.Table:
    """Task-path linker: fetch the broadcast dictionary (plasma
    shared-memory, near-zero-copy for Arrow buffers) and link."""
    import ray

    return link_batch(batch, ray.get(dict_ref))


def link_mentions(mentions, dictionary, *,
                  concurrency=None, batch_size: int | None = None,
                  drop_unresolved: bool = True):
    """mentions Dataset → edges Dataset via the broadcast linker.

    ``dictionary``: :class:`ArrowLinkDictionary` (or a test-built
    :class:`LinkDictionary`, converted here).  Broadcast once via
    ``ray.put``.

    ``concurrency=None`` runs STATELESS TASKS — each task re-opens the
    broadcast from the local object store; no pool spin-up latency.
    Measured 12× faster at 5k-doc scale but 2.5× SLOWER at 10⁶-doc
    scale (per-task dictionary deserialization is NOT free once the
    dictionary is tens of MB) — so ``build_graph`` defaults to the
    actor pool, and callers with small vaults opt into tasks.

    ``drop_unresolved=True`` matches the reference's inner-join
    semantics (unresolvable mentions discarded, graph_builder.rs:214);
    ``False`` keeps them flagged for metrics.
    """
    import pyarrow.compute as pc
    import ray

    if isinstance(dictionary, LinkDictionary):
        dictionary = dictionary.to_arrow()
    ref = ray.put(dictionary)
    if concurrency is None:
        edges = mentions.map_batches(
            _task_link,
            fn_kwargs={"dict_ref": ref},
            batch_format="pyarrow",
            batch_size=batch_size,
        )
    else:
        edges = mentions.map_batches(
            EntityLinker,
            fn_constructor_kwargs={"dict_ref": ref},
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
    if drop_unresolved:
        edges = edges.map_batches(
            lambda t: t.filter(pc.equal(t["resolved"], True)),
            batch_format="pyarrow",
        )
    return edges


def child_of_batch(batch: pa.Table) -> pa.Table:
    """Derived ``child_of`` edges of one ``doc_id`` batch (SURVEY.md
    §7.2: ``data/main`` → child_of → ``data``)."""
    import pyarrow.compute as pc

    ids = _arr(batch["doc_id"]).cast(pa.string())
    subj = ids.filter(pc.match_substring(ids, "/"))
    # parent = everything before the last '/' — Arrow regex kernel
    # (strip the final '/'+segment), no per-row Python
    parents = pc.replace_substring_regex(subj, r"/[^/]*$", "")
    n = len(subj)
    return pa.Table.from_arrays(
        [
            subj,
            pa.array(["child_of"] * n, pa.string()),
            parents,
            pa.array([True] * n, pa.bool_()),
            pa.nulls(n, pa.int32()),
            pa.nulls(n, pa.int32()),
        ],
        schema=EDGES_SCHEMA,
    )


def child_of_edges(notes):
    """Derived ``child_of`` triples from path-shaped doc ids
    (:func:`child_of_batch` per block)."""
    return notes.select_columns(["doc_id"]).map_batches(
        child_of_batch, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# J1 shuffle topology (SURVEY.md §2.4): past the broadcast guard,
# co-locate mentions and dictionary partials by key hash and resolve
# per partition.
# ---------------------------------------------------------------------------


def _resolve_link_partition(g: pa.Table) -> pa.Table:
    """One shuffle partition → edges: first-wins merge of the
    partition's dictionary partials, then the SAME vectorized
    resolution kernel as the broadcast path (:func:`link_batch`)."""
    import pyarrow.compute as pc

    is_dict = _arr(g["is_dict"])
    mention_side = g.filter(pc.invert(is_dict))
    if mention_side.num_rows == 0:
        return EDGES_SCHEMA.empty_table()
    d = first_wins_dictionary(g.filter(is_dict).select(["kind", "key", "val"]))
    batch = pa.table(
        {
            "kind": _arr(mention_side["kind"]),
            "target_key": _arr(mention_side["key"]),
            "subj": _arr(mention_side["subj"]),
            "span_offset": _arr(mention_side["span_offset"]),
            "occurrence_idx": _arr(mention_side["occurrence_idx"]),
        }
    )
    return link_batch(batch, d)


def link_combined_shuffle(combined, *, num_partitions: int = 64,
                          drop_unresolved: bool = True):
    """Shuffle-join edge build over an ALREADY-EXTRACTED combined table.

    ``combined`` is the output of
    :func:`..stages.extract.extract_mentions_and_dict` (mention rows ∪
    per-block dictionary partials, one corpus parse) — in
    ``build_graph``, the materialized single-pass table it already
    holds, so the shuffle costs no second read.  The combined rows are
    re-tagged vectorized (no re-parse) and hash-bucketed on the lookup
    key; each partition holds every dictionary partial of its keys, so
    its first-wins merge is the global one, and it resolves with the
    SAME kernel as the broadcast path (:func:`link_batch` via
    :func:`_resolve_link_partition`).  No driver-side dictionary, no
    broadcast ceiling.

    Literal-kind mentions (tags/media) resolve verbatim in any
    partition, so they are bucketed by ``subj`` — a hot tag value
    ('todo', a language tag) would otherwise funnel millions of rows
    into one key partition.
    """
    import pyarrow.compute as pc

    from .joins import exchange

    def tag(t: pa.Table) -> pa.Table:
        rk = _arr(t["row_kind"])
        is_dict = pc.equal(rk, 1)
        kind = _arr(t["kind"])
        key = _arr(t["target_key"])
        raw = _arr(t["raw_text"])  # mention raw_text | dict val
        subj = _arr(t["subj"])
        n = len(rk)
        literal = pc.and_(
            pc.invert(is_dict), pc.is_in(kind, value_set=_LITERAL_ARR)
        )
        # dict rows have null subj — fill before keying (those lanes
        # are never selected by the literal mask)
        return pa.table(
            {
                "_xk": pc.if_else(literal, pc.fill_null(subj, ""), key),
                "is_dict": is_dict,
                "kind": kind,
                "key": key,
                "val": pc.if_else(is_dict, raw, pa.nulls(n, pa.string())),
                "subj": subj,
                "span_offset": _arr(t["span_offset"]),
                "occurrence_idx": _arr(t["occurrence_idx"]),
            }
        )

    edges = exchange(
        combined.map_batches(tag, batch_format="pyarrow"), ["_xk"],
        _resolve_link_partition, num_partitions=num_partitions,
    )
    if drop_unresolved:
        edges = edges.map_batches(
            lambda t: t.filter(pc.equal(t["resolved"], True)),
            batch_format="pyarrow",
        )
    return edges


def resolution_stats(mentions, dictionary, *, batch_size: int | None = None):
    """Link-resolution observability: (pred, resolved) → count.

    Runs the linker with unresolved mentions KEPT, then a tiny
    partial-combine + groupby — the pipeline-metrics view the
    north_rule's lineage/metrics requirement calls for at the job
    level (e.g. to alert on dictionary drift / dangling-link rates).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    edges = link_mentions(
        mentions, dictionary, batch_size=batch_size, drop_unresolved=False
    )

    def combine(t: pa.Table) -> pa.Table:
        out = (
            t.select(["pred", "resolved"])
            .append_column("n", pa.array([1] * t.num_rows, pa.int64()))
            .group_by(["pred", "resolved"])
            .aggregate([("n", "sum")])
        )
        # name-based rename: aggregate output column ORDER is not a
        # documented pyarrow guarantee (same hazard as canonicalize.py)
        return out.rename_columns(
            ["n" if c == "n_sum" else c for c in out.column_names]
        ).select(["pred", "resolved", "n"])

    return (
        edges.map_batches(combine, batch_format="pyarrow")
        .groupby(["pred", "resolved"])
        .aggregate(Sum("n", alias_name="n_mentions"))
    )
