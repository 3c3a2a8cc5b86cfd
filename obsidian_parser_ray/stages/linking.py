"""Entity linking: mentions → resolved edges via a broadcast dictionary.

Re-expresses the reference's two-phase graph build
(/root/reference/src/vault/vault_petgraph/graph_builder.rs:88-223):

* Phase A (index build, graph_builder.rs:88-114) becomes
  :func:`build_dictionary` — a streaming pass over the tiny projection
  ``(doc_id, note_name, aliases)`` of the notes table that folds the
  three lookup maps with **first-wins = min(order_key)** semantics
  (index.rs:13 ``or_insert`` under walkdir order → deterministic
  ``min`` in our engine, SURVEY.md §1.4).
* Phase B (edge build, graph_builder.rs:196-223) becomes
  :class:`EntityLinker` — an actor-pool ``map_batches`` stage.  The
  dictionary is ``ray.put`` ONCE on the driver and deserialized ONCE
  per actor in ``__init__`` (never re-shipped per batch).  The
  reference's single consumer-thread graph mutator disappears: edges
  are just Dataset rows.

Resolution rule (index.rs:21-27 + alias extension required by
BASELINE.json north_star): a key containing ``/`` is looked up in the
full-path map only; otherwise the short-name (stem) map, then — our
extension — the alias map.  A miss drops the mention
(graph_builder.rs:213-215 ``filter_map`` inner-join semantics); we
carry it as ``resolved=false`` so callers can keep unresolved metrics.

Scale: the dictionary is the *small side* of the join — broadcast is
correct for ≲10^8 notes (a few GB).  Beyond that, switch to the
documented shuffle-join fallback (SURVEY.md §2.4 J1): hash-partition
mentions and dictionary on ``target_key`` and join per bucket.
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

    ids = t["doc_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    names = t["note_name"]
    if isinstance(names, pa.ChunkedArray):
        names = names.combine_chunks()
    aliases = t["aliases"]
    if isinstance(aliases, pa.ChunkedArray):
        aliases = aliases.combine_chunks()
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


def _slim_dict_batch(t: pa.Table) -> pa.Table:
    """documents (span rows) → dictionary partials DIRECTLY.

    Parses only the frontmatter span per doc (for aliases) — skips
    content join, link/tag scan, hashing.  Lets the dictionary pass run
    as a cheap first sweep so the main extract→link→canonicalize
    pipeline can stream with NO materialization barrier.

    Span selection is Arrow-flat (stages/scan.py): the text spans are
    never materialized as Python objects, so the sweep's per-doc cost
    is the YAML parse alone — the full-span ``to_pylist`` walk was the
    memory-bus hot spot at high worker counts."""
    from ..parser import frontmatter_aliases, parse_properties
    from .scan import frontmatter_texts_per_doc, note_names_array

    fm_texts = frontmatter_texts_per_doc(t)
    aliases = [
        frontmatter_aliases(parse_properties(fm)[0]) for fm in fm_texts
    ]
    ids = t["doc_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    ids = ids.cast(pa.string())
    slim = pa.table(
        {
            "doc_id": ids,
            "note_name": note_names_array(ids),
            "aliases": pa.array(aliases, pa.list_(pa.string())),
        }
    )
    return _dict_partial_batch(slim)


def build_dictionary_from_docs(docs, *, batch_size: int | None = None) -> "ArrowLinkDictionary":
    """Dictionary via a slim frontmatter-only sweep over the documents
    table (Phase A without the full parse).  Equivalent result to
    ``build_dictionary(extract_notes(docs))`` — used when the caller
    wants the main pipeline to stream without a notes barrier."""
    partials = docs.map_batches(
        _slim_dict_batch, batch_format="pyarrow", batch_size=batch_size
    )
    return _merge_dict_partials(partials)


def build_dictionary(notes) -> "ArrowLinkDictionary":
    """Distributed partial fold + tiny driver merge → Arrow broadcast form.

    Workers min-reduce ``(kind, key, doc_id)`` per block (vectorized
    Arrow ``group_by``); the driver only merges the pre-reduced
    partials — first-wins = global ``min(order_key)``, deterministic
    under unordered block arrival.  All vectorized — no per-entry
    Python objects anywhere.  At 10^12 docs this becomes the
    shuffle-join fallback instead (see module docstring + J1).
    """
    partials = notes.select_columns(["doc_id", "note_name", "aliases"]).map_batches(
        _dict_partial_batch, batch_format="pyarrow"
    )
    return _merge_dict_partials(partials)


def _merge_dict_partials(partials) -> "ArrowLinkDictionary":
    """Global first-wins merge of per-block dictionary partials.

    Partials are already min-reduced per block, so the driver-side
    Arrow ``group_by`` runs over ~one row per key — a single vectorized
    C++ pass (measured faster than a Ray groupby shuffle until the
    dictionary itself stops fitting the driver, which is also when the
    J1 shuffle-join path takes over entirely)."""
    import pyarrow.compute as pc

    tables = [
        b
        for b in partials.iter_batches(batch_size=None, batch_format="pyarrow")
        if b.num_rows
    ]
    empty = pa.array([], pa.string())
    if not tables:
        return ArrowLinkDictionary(empty, empty, empty, empty, empty)
    merged = (
        pa.concat_tables(tables)
        .group_by(["kind", "key"])
        .aggregate([("val", "min")])
    )

    def split(kind: str) -> pa.Table:
        return merged.filter(pc.equal(merged["kind"], kind)).combine_chunks()

    full = split("full")
    short = split("short")
    alias = split("alias")

    def col(t: pa.Table, name: str) -> pa.Array:
        c = t[name]
        return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c

    return ArrowLinkDictionary(
        full_keys=col(full, "key"),
        short_keys=col(short, "key"),
        short_vals=col(short, "val_min"),
        alias_keys=col(alias, "key"),
        alias_vals=col(alias, "val_min"),
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

    Shared by the broadcast actor pool (:class:`EntityLinker`) and the
    shuffle-join fallback (:func:`link_mentions_shuffle`) — identical
    semantics by construction.
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

    ids = _arr(batch["doc_id"])
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
# J1 shuffle-join fallback (SURVEY.md §2.4): when the dictionary
# exceeds broadcast size (≳10^8 notes), co-locate mentions and
# dictionary entries by key hash and resolve per partition.
# ---------------------------------------------------------------------------


def _resolve_link_partition(g: pa.Table) -> pa.Table:
    """One shuffle partition → edges: first-wins merge of the
    partition's dictionary partials, then the SAME vectorized
    resolution kernel as the broadcast path (:func:`link_batch`).
    Shared by :func:`link_mentions_shuffle` and
    :func:`link_edges_fused`."""
    import pyarrow.compute as pc

    is_dict = _arr(g["is_dict"])
    dict_side = g.filter(is_dict)
    mention_side = g.filter(pc.invert(is_dict))
    if mention_side.num_rows == 0:
        return pa.Table.from_arrays(
            [pa.array([], t) for t in EDGES_SCHEMA.types],
            schema=EDGES_SCHEMA,
        )
    # global first-wins merge of this partition's dict partials
    merged = (
        dict_side.select(["kind", "key", "val"])
        .group_by(["kind", "key"])
        .aggregate([("val", "min")])
    )

    def split(kind: str) -> pa.Table:
        return merged.filter(pc.equal(merged["kind"], kind)).combine_chunks()

    full, short, alias = split("full"), split("short"), split("alias")
    d = ArrowLinkDictionary(
        full_keys=_arr(full["key"]),
        short_keys=_arr(short["key"]),
        short_vals=_arr(short["val_min"]),
        alias_keys=_arr(alias["key"]),
        alias_vals=_arr(alias["val_min"]),
    )
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


def link_mentions_shuffle(mentions, docs, *, num_partitions: int = 64,
                          drop_unresolved: bool = True,
                          batch_size: int | None = None):
    """Shuffle-join linking: no driver-side dictionary, no broadcast.

    Both sides are hash-partitioned on the lookup key (mentions on
    ``target_key``; dictionary entries on ``key``), so every partition
    holds ALL dictionary entries for its keys — global first-wins
    (min order_key) is preserved because the per-partition merge sees
    every partial for a key.  Within a partition, resolution reuses the
    SAME vectorized kernel as the broadcast path
    (:func:`link_batch`), so the two paths are semantics-identical.

    ``docs`` is the documents Dataset (the dictionary side is derived
    via the slim frontmatter sweep).  Literal-kind mentions (tags,
    media) never need the dictionary, so they bypass the shuffle
    entirely and are linked in-place with an empty dictionary.
    """
    import pyarrow.compute as pc

    lit_list = sorted(_LITERAL_KINDS)
    lit_arr = pa.array(lit_list, pa.string())
    empty = pa.array([], pa.string())
    empty_dict = ArrowLinkDictionary(empty, empty, empty, empty, empty)

    from ..hashing import hash_bucket_array

    def part_of(keys: pa.Array) -> pa.Array:
        return hash_bucket_array(keys, num_partitions)

    # literal mentions bypass: resolved verbatim, no shuffle
    def literal_edges(t: pa.Table) -> pa.Table:
        mask = pc.is_in(_arr(t["kind"]), value_set=lit_arr)
        return link_batch(t.filter(mask), empty_dict)

    literals = mentions.map_batches(
        literal_edges, batch_format="pyarrow", batch_size=batch_size
    )

    # lookup mentions → tagged rows (part, is_dict=0, payload)
    def mention_rows(t: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(_arr(t["kind"]), value_set=lit_arr))
        t = t.filter(mask)
        key = _arr(t["target_key"])
        return pa.table(
            {
                "part": part_of(key),
                "is_dict": pa.array([False] * len(key), pa.bool_()),
                "kind": _arr(t["kind"]),
                "key": key,
                "val": pa.nulls(len(key), pa.string()),
                "subj": _arr(t["subj"]),
                "span_offset": _arr(t["span_offset"]),
                "occurrence_idx": _arr(t["occurrence_idx"]),
            }
        )

    # dictionary partials → tagged rows (part, is_dict=1, kind/key/val)
    def dict_rows(t: pa.Table) -> pa.Table:
        p = _slim_dict_batch(t)  # (kind, key, val) pre-reduced per block
        key = _arr(p["key"])
        n = len(key)
        return pa.table(
            {
                "part": part_of(key),
                "is_dict": pa.array([True] * n, pa.bool_()),
                "kind": _arr(p["kind"]),
                "key": key,
                "val": _arr(p["val"]),
                "subj": pa.nulls(n, pa.string()),
                "span_offset": pa.nulls(n, pa.int32()),
                "occurrence_idx": pa.nulls(n, pa.int32()),
            }
        )

    tagged = mentions.map_batches(
        mention_rows, batch_format="pyarrow", batch_size=batch_size
    ).union(docs.map_batches(dict_rows, batch_format="pyarrow", batch_size=batch_size))

    edges = tagged.groupby("part").map_groups(
        _resolve_link_partition, batch_format="pyarrow"
    ).union(literals)
    if drop_unresolved:
        edges = edges.map_batches(
            lambda t: t.filter(pc.equal(t["resolved"], True)),
            batch_format="pyarrow",
        )
    return edges


def link_edges_fused(docs, *, num_partitions: int = 64,
                     drop_unresolved: bool = True,
                     include_tags: bool = True,
                     strict_lists: bool = False,
                     batch_size: int | None = None):
    """SINGLE-PASS shuffle-join edge build: docs → edges with ONE read.

    The slim-sweep + broadcast path parses every document TWICE (the
    frontmatter sweep for Phase A, the full extract for Phase B) and
    holds the whole dictionary on the driver.  This fused path parses
    each document ONCE: the extract kernel emits, per doc, BOTH its
    mention rows and its dictionary partial rows (full/short/alias,
    min-reduced per block) into one tagged union table, hash-bucketed
    on the lookup key; each partition then holds every dictionary
    entry for its keys and resolves with the SAME vectorized kernel
    (:func:`link_batch`) as every other path.  Literal-kind mentions
    (tags/media) flow through the shuffle too (they resolve verbatim
    in any partition) — keeping the pipeline a single consumer of the
    read, so nothing re-executes.

    No driver-side dictionary, no broadcast ceiling, no second parse:
    this is the mandatory topology at 10^12 docs and an option
    everywhere (semantics proven equal to the broadcast path in
    tests).  Shuffle volume = mentions + pre-reduced dict partials.
    """
    import pyarrow.compute as pc

    from ..hashing import hash_bucket_array
    from .extract import parse_doc

    tag_kinds = ("tag_inline", "tag_frontmatter")

    def doc_rows(t: pa.Table) -> pa.Table:
        doc_ids = t["doc_id"].to_pylist()
        spans_col = t["spans"].to_pylist()
        m_kind, m_key, m_subj, m_off, m_occ = [], [], [], [], []
        d_kind, d_key, d_val = [], [], []
        for doc_id, spans in zip(doc_ids, spans_col):
            # fast mode: mention + dictionary fields only (no
            # md5/word-count/JSON — the edge lineage never reads them)
            note, mentions = parse_doc(
                doc_id, spans or [], strict_lists=strict_lists,
                with_attrs=False,
            )
            for m in mentions:
                if not include_tags and m["kind"] in tag_kinds:
                    continue
                m_kind.append(m["kind"])
                m_key.append(m["target_key"])
                m_subj.append(doc_id)
                m_off.append(m["span_offset"])
                m_occ.append(m["occurrence_idx"])
            d_kind.append("full")
            d_key.append(doc_id)
            d_val.append(doc_id)
            d_kind.append("short")
            d_key.append(note["note_name"])
            d_val.append(doc_id)
            for a in note["aliases"]:
                d_kind.append("alias")
                d_key.append(a)
                d_val.append(doc_id)
        # per-block min-reduce of the dictionary partials (first-wins
        # is a global min, so block partials compose exactly)
        dict_t = (
            pa.table(
                {
                    "kind": pa.array(d_kind, pa.string()),
                    "key": pa.array(d_key, pa.string()),
                    "val": pa.array(d_val, pa.string()),
                }
            )
            .group_by(["kind", "key"])
            .aggregate([("val", "min")])
        )
        dict_t = dict_t.rename_columns(
            ["val" if c == "val_min" else c for c in dict_t.column_names]
        )
        n_d = dict_t.num_rows
        n_m = len(m_key)
        m_key_arr = pa.array(m_key, pa.string())
        d_key_arr = _arr(dict_t["key"])
        # literal kinds (tags/media) resolve verbatim in ANY partition —
        # bucket them by subj, not key: a hot tag value ('todo', a
        # language tag) would otherwise funnel millions of rows into
        # one key partition
        m_kind_arr = pa.array(m_kind, pa.string())
        literal_mask = pc.is_in(m_kind_arr, value_set=_LITERAL_ARR)
        m_subj_arr = pa.array(m_subj, pa.string())
        m_part = pc.if_else(
            literal_mask,
            hash_bucket_array(m_subj_arr, num_partitions),
            hash_bucket_array(m_key_arr, num_partitions),
        )
        return pa.table(
            {
                "part": pa.concat_arrays(
                    [
                        m_part.combine_chunks()
                        if isinstance(m_part, pa.ChunkedArray)
                        else m_part,
                        hash_bucket_array(d_key_arr, num_partitions),
                    ]
                ),
                "is_dict": pa.concat_arrays(
                    [
                        pa.array([False] * n_m, pa.bool_()),
                        pa.array([True] * n_d, pa.bool_()),
                    ]
                ),
                "kind": pa.concat_arrays(
                    [m_kind_arr, _arr(dict_t["kind"])]
                ),
                "key": pa.concat_arrays([m_key_arr, d_key_arr]),
                "val": pa.concat_arrays(
                    [pa.nulls(n_m, pa.string()), _arr(dict_t["val"])]
                ),
                "subj": pa.concat_arrays(
                    [m_subj_arr, pa.nulls(n_d, pa.string())]
                ),
                "span_offset": pa.concat_arrays(
                    [
                        pa.array(m_off, pa.int32()),
                        pa.nulls(n_d, pa.int32()),
                    ]
                ),
                "occurrence_idx": pa.concat_arrays(
                    [
                        pa.array(m_occ, pa.int32()),
                        pa.nulls(n_d, pa.int32()),
                    ]
                ),
            }
        )

    edges = (
        docs.map_batches(doc_rows, batch_format="pyarrow", batch_size=batch_size)
        .groupby("part")
        .map_groups(_resolve_link_partition, batch_format="pyarrow")
    )
    if drop_unresolved:
        edges = edges.map_batches(
            lambda t: t.filter(pc.equal(t["resolved"], True)),
            batch_format="pyarrow",
        )
    return edges


def link_combined_shuffle(combined, *, num_partitions: int = 64,
                          drop_unresolved: bool = True):
    """Shuffle-join edge build over an ALREADY-EXTRACTED combined table.

    ``combined`` is the output of
    :func:`..stages.extract.extract_mentions_and_dict` (mention rows ∪
    per-block dictionary partials, one corpus parse) — typically the
    materialized single-pass table ``build_graph`` already holds.  This
    is the shuffle topology WITHOUT a second read: the combined rows
    are re-tagged vectorized (no re-parse), hash-bucketed on the lookup
    key, and each partition resolves with the SAME kernel as every
    other path (:func:`link_batch` via :func:`_resolve_link_partition`).

    Compare :func:`link_edges_fused`, which fuses extraction INTO the
    shuffle and therefore re-reads the documents — the right shape when
    no combined table exists yet.  When ``build_graph`` auto-detects a
    dictionary too large to broadcast, this function turns the
    already-paid extraction into the shuffle join, so the auto decision
    costs zero extra passes.

    Literal-kind mentions (tags/media) resolve verbatim in any
    partition, so they are bucketed by ``subj`` — a hot tag value would
    otherwise funnel millions of rows into one key partition (same
    skew guard as :func:`link_edges_fused`).
    """
    import pyarrow.compute as pc

    from ..hashing import hash_bucket_array

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
        # dict rows have null subj — fill before hashing (those lanes
        # are never selected by the literal mask)
        subj_part = hash_bucket_array(pc.fill_null(subj, ""), num_partitions)
        key_part = hash_bucket_array(key, num_partitions)
        part = pc.if_else(literal, subj_part, key_part)
        return pa.table(
            {
                "part": part,
                "is_dict": is_dict,
                "kind": kind,
                "key": key,
                "val": pc.if_else(is_dict, raw, pa.nulls(n, pa.string())),
                "subj": subj,
                "span_offset": _arr(t["span_offset"]),
                "occurrence_idx": _arr(t["occurrence_idx"]),
            }
        )

    edges = (
        combined.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(_resolve_link_partition, batch_format="pyarrow")
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
