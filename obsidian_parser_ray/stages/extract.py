"""Extract stage: interleaved span rows → note attributes + mentions.

One ``map_batches`` pass (stateless Ray tasks, ``batch_format='pyarrow'``)
re-expresses the reference's whole per-note parse path
(/root/reference/src/note: parser.rs P1-P3, note_tags.rs P4,
note_aliases.rs P5-P6, note_is_todo.rs P7, mod.rs P8-P10) over Arrow
batches.  Per SURVEY.md §3.1, steps 3-5 of the reference's
``from_string`` lifecycle collapse into this single stage; control only
crosses process boundaries at block boundaries.

Output schema (``notes`` table, SURVEY.md §7.1)::

    doc_id, note_name, properties_json, tags: list<string>,
    aliases: list<string>, is_todo: bool, n_words: int64,
    n_bytes: int64, content_hash: string, parse_error: string?,
    order_key: string (= doc_id; first-wins determinism via min),
    mentions: list<struct<kind, target_key, raw_text,
                          span_offset: int32, occurrence_idx: int32>>

Mention kinds: ``link`` (``[[x]]``), ``embed`` (``![[x]]``),
``media`` (media span, target = media_ref), ``tag_inline``,
``tag_frontmatter``.  The spans column is consumed read-only; with
``keep_spans=True`` it passes through untouched so the per-row
span-sequence invariant (kind, text, media_ref, order) is directly
checkable downstream.

Scale notes: the per-row Python loop is irreducible (YAML + tokenizer
are per-string), but everything around it is Arrow —  one
``to_pylist()`` per column per batch in, one ``pa.table`` out.
Measured in one process on a 4-core Xeon host: about 6-10k docs/s
both on ``synth_vault`` notes (~100 B of text) and on ``bench_corpus``
notes (~27 kB of text).  It parallelizes as block-parallel tasks with
no state.
"""

from __future__ import annotations

import hashlib
import json

import pyarrow as pa

from ..corpus import SPAN_TYPE
from ..parser import (
    frontmatter_aliases,
    frontmatter_tags,
    is_todo,
    note_name,
    parse_inline_tags,
    parse_links,
    parse_properties,
    word_count,
)

MENTION_TYPE = pa.struct(
    [
        ("kind", pa.string()),
        ("target_key", pa.string()),
        ("raw_text", pa.string()),
        ("span_offset", pa.int32()),
        ("occurrence_idx", pa.int32()),
    ]
)

NOTES_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("note_name", pa.string()),
        ("properties_json", pa.string()),
        ("tags", pa.list_(pa.string())),
        ("aliases", pa.list_(pa.string())),
        ("is_todo", pa.bool_()),
        ("n_words", pa.int64()),
        ("n_bytes", pa.int64()),
        ("content_hash", pa.string()),
        ("parse_error", pa.string()),
        ("order_key", pa.string()),
        ("mentions", pa.list_(MENTION_TYPE)),
    ]
)


def parse_doc(doc_id: str, spans: list[dict], *, strict_lists: bool = False,
              with_attrs: bool = True) -> tuple[dict, list[dict]]:
    """Parse ONE document's spans → (note attrs, mention list).

    Pure function shared by the batched stages and the oracle.
    ``strict_lists=True`` is exact ``Vec<String>`` parity: a non-string
    tags/aliases item FAILS THE NOTE (recorded in ``parse_error``, like
    a YAML syntax error — reference note_tags.rs:36 ``?``); the lenient
    default stringifies scalars.

    ``with_attrs=False`` is the mention-only mode: mention
    extraction, note_name and aliases only — skipping the content
    md5, word/byte counts and properties JSON.  The returned note dict
    then carries only (doc_id, note_name, aliases, parse_error); it is
    the row-for-row reference of the mention scanner (:mod:`.scan`,
    tests/test_scan.py).
    """
    from ..parser import ListTypeError

    ordered = sorted(spans, key=lambda s: s["offset"])
    fm_texts = [s for s in ordered if s["kind"] == "frontmatter"]
    text_spans = [s for s in ordered if s["kind"] == "text"]
    media_spans = [s for s in ordered if s["kind"] == "media"]

    properties_text = fm_texts[0]["text"] if fm_texts else None
    props, err = parse_properties(properties_text)

    try:
        fm_tags_checked = frontmatter_tags(props, strict=strict_lists)
        aliases_checked = frontmatter_aliases(props, strict=strict_lists)
    except ListTypeError as e:
        err = err or f"yaml: {e}"
        fm_tags_checked, aliases_checked = [], []

    mentions: list[dict] = []
    occ = 0
    # frontmatter tags first (note_tags.rs:60 ordering)
    fm_offset = fm_texts[0]["offset"] if fm_texts else 0
    fm_tags = fm_tags_checked
    for t in fm_tags:
        mentions.append(
            {
                "kind": "tag_frontmatter",
                "target_key": t,
                "raw_text": t,
                "span_offset": fm_offset,
                "occurrence_idx": occ,
            }
        )
        occ += 1
    inline_tags: list[str] = []
    for s in text_spans:
        for m in parse_links(s["text"]):
            mentions.append(
                {
                    "kind": "embed" if m.is_embed else "link",
                    "target_key": m.target_key,
                    "raw_text": m.raw_inner,
                    "span_offset": s["offset"],
                    "occurrence_idx": occ,
                }
            )
            occ += 1
        for t in parse_inline_tags(s["text"]):
            inline_tags.append(t)
            mentions.append(
                {
                    "kind": "tag_inline",
                    "target_key": t,
                    "raw_text": t,
                    "span_offset": s["offset"],
                    "occurrence_idx": occ,
                }
            )
            occ += 1
    for s in media_spans:
        mentions.append(
            {
                "kind": "media",
                "target_key": s["media_ref"],
                "raw_text": s["media_ref"],
                "span_offset": s["offset"],
                "occurrence_idx": occ,
            }
        )
        occ += 1

    if not with_attrs:
        return (
            {
                "doc_id": doc_id,
                "note_name": note_name(doc_id),
                "aliases": aliases_checked,
                "parse_error": err,
            },
            mentions,
        )

    content = "\n".join(s["text"] for s in text_spans)
    tags = fm_tags + inline_tags
    # single UTF-8 encode serves both byte_count and content_md5
    # (semantics identical to the standalone kernels in ..parser)
    encoded = content.encode("utf-8")
    note = {
        "doc_id": doc_id,
        "note_name": note_name(doc_id),
        "properties_json": json.dumps(props, ensure_ascii=False, sort_keys=True)
        if props is not None
        else None,
        "tags": tags,
        "aliases": aliases_checked,
        "is_todo": is_todo(tags),
        "n_words": word_count(content, encoded),
        "n_bytes": len(encoded),
        "content_hash": hashlib.md5(encoded).hexdigest(),
        "parse_error": err,
        "order_key": doc_id,
    }
    return note, mentions


class ExtractNotes:
    """Batched extractor: the :func:`parse_doc` loop over one Arrow
    batch.  Stateless — usable as a plain function too, but kept
    callable-class-shaped so callers can opt into an actor pool when
    they add per-actor state (e.g. a compiled BPE)."""

    def __init__(self, keep_spans: bool = False, strict_lists: bool = False):
        self.keep_spans = keep_spans
        self.strict_lists = strict_lists

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].cast(pa.string()).to_pylist()
        spans_col = batch["spans"].to_pylist()
        cols: dict[str, list] = {name: [] for name in NOTES_SCHEMA.names}
        for doc_id, spans in zip(doc_ids, spans_col):
            note, mentions = parse_doc(
                doc_id, spans or [], strict_lists=self.strict_lists
            )
            for k, v in note.items():
                cols[k].append(v)
            cols["mentions"].append(mentions)
        arrays = [
            pa.array(cols[f.name], type=f.type) for f in NOTES_SCHEMA
        ]
        out = pa.Table.from_arrays(arrays, schema=NOTES_SCHEMA)
        if self.keep_spans:
            out = out.append_column(
                "spans", batch["spans"].cast(pa.list_(SPAN_TYPE))
            )
        return out


def extract_notes(docs, *, keep_spans: bool = False, batch_size: int | None = None,
                  strict_lists: bool = False):
    """``documents`` Dataset → ``notes`` Dataset (stateless task stage).

    ``batch_size=None`` (default) processes one input block per task —
    a larger batch_size makes Ray Data *bundle* upstream blocks to fill
    batches, which silently caps task parallelism (e.g. 32 blocks ×
    375 rows with batch_size=1024 → only 11 tasks).  Parallelism is
    controlled upstream via ``override_num_blocks`` on the read.
    """
    return docs.map_batches(
        ExtractNotes(keep_spans=keep_spans, strict_lists=strict_lists),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


MENTIONS_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("kind", pa.string()),
        ("target_key", pa.string()),
        ("raw_text", pa.string()),
        ("span_offset", pa.int32()),
        ("occurrence_idx", pa.int32()),
    ]
)


def _scan_mention_table(batch: pa.Table, *, strict_lists: bool,
                        include_tags: bool):
    """Scanner output → (MENTIONS_SCHEMA table, per-doc aliases list
    for the dictionary partials)."""
    import pyarrow.compute as pc

    from .scan import scan_mentions_batch

    cols, aliases = scan_mentions_batch(batch, strict_lists=strict_lists)
    ids = batch["doc_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    out = pa.Table.from_arrays(
        [
            pc.take(ids, pa.array(cols["doc_row"])).cast(pa.string()),
            pa.array(cols["kind"], pa.string()),
            pa.array(cols["target_key"], pa.string()),
            pa.array(cols["raw_text"], pa.string()),
            pa.array(cols["span_offset"].astype("int32"), pa.int32()),
            pa.array(cols["occurrence_idx"].astype("int32"), pa.int32()),
        ],
        schema=MENTIONS_SCHEMA,
    )
    if not include_tags:
        out = out.filter(
            pc.invert(pc.is_in(
                out["kind"],
                value_set=pa.array(["tag_inline", "tag_frontmatter"]),
            ))
        )
    return out, aliases


COMBINED_SCHEMA = pa.schema(
    [
        ("row_kind", pa.int8()),  # 0 = mention row, 1 = dict partial row
        ("subj", pa.string()),
        ("kind", pa.string()),        # mention kind | dict kind
        ("target_key", pa.string()),  # mention target | dict key
        ("raw_text", pa.string()),    # mention raw    | dict val
        ("span_offset", pa.int32()),
        ("occurrence_idx", pa.int32()),
    ]
)


def extract_mentions_and_dict(docs, *, batch_size: int | None = None,
                              strict_lists: bool = False,
                              include_tags: bool = True):
    """ONE corpus read → union-tagged (mention rows ∪ per-block
    dictionary partials) — the streaming build's only pass over the
    documents.

    Each document is parsed once by the flat-buffer scanner
    (:mod:`.scan`: span structs are never materialized as Python
    dicts) and emits both row families, so corpus bytes cross storage
    exactly once — at high parallelism the single-node build is
    storage-bandwidth bound (the 32 GB / 3.84M-doc corpus reads at
    ~900 MB/s with 24 cpus), and a second read would be non-scaling
    cost.  The caller materializes the combined output (mentions +
    partials ≈ a few % of input bytes) and either splits it with
    :func:`combined_mentions` / :func:`combined_dict_partials` for the
    broadcast linker or shuffles it whole through
    ``linking.link_combined_shuffle``.  The mention rows equal
    ``explode_mentions(extract_notes(docs))`` (asserted in tests).
    """
    def rows(batch: pa.Table) -> pa.Table:
        from .linking import _dict_partial_batch
        from .scan import note_names_array

        m, aliases = _scan_mention_table(
            batch, strict_lists=strict_lists, include_tags=include_tags
        )
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        slim = pa.table(
            {
                "doc_id": ids.cast(pa.string()),
                "note_name": note_names_array(ids.cast(pa.string())),
                "aliases": pa.array(aliases, pa.list_(pa.string())),
            }
        )
        d = _dict_partial_batch(slim)
        n_m, n_d = m.num_rows, d.num_rows

        def col(arr):
            return (
                arr.combine_chunks()
                if isinstance(arr, pa.ChunkedArray) else arr
            )

        return pa.Table.from_arrays(
            [
                pa.concat_arrays(
                    [pa.array([0] * n_m, pa.int8()),
                     pa.array([1] * n_d, pa.int8())]
                ),
                pa.concat_arrays(
                    [col(m["subj"]), pa.nulls(n_d, pa.string())]
                ),
                pa.concat_arrays([col(m["kind"]), col(d["kind"])]),
                pa.concat_arrays([col(m["target_key"]), col(d["key"])]),
                pa.concat_arrays([col(m["raw_text"]), col(d["val"])]),
                pa.concat_arrays(
                    [col(m["span_offset"]), pa.nulls(n_d, pa.int32())]
                ),
                pa.concat_arrays(
                    [col(m["occurrence_idx"]), pa.nulls(n_d, pa.int32())]
                ),
            ],
            schema=COMBINED_SCHEMA,
        )

    return docs.map_batches(rows, batch_format="pyarrow", batch_size=batch_size)


def combined_mentions(combined):
    """Mention-row view of :func:`extract_mentions_and_dict` output."""
    import pyarrow.compute as pc

    def split(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["row_kind"], 0))
        return pa.Table.from_arrays(
            [t[f.name].combine_chunks() if isinstance(t[f.name], pa.ChunkedArray)
             else t[f.name] for f in MENTIONS_SCHEMA],
            schema=MENTIONS_SCHEMA,
        )

    return combined.map_batches(split, batch_format="pyarrow")


def combined_dict_partials(combined):
    """Dictionary-partial view (kind, key, val) of
    :func:`extract_mentions_and_dict` output — feed to
    ``_merge_dict_partials``."""
    import pyarrow.compute as pc

    def split(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["row_kind"], 1))
        return pa.table(
            {"kind": t["kind"], "key": t["target_key"], "val": t["raw_text"]}
        )

    return combined.map_batches(split, batch_format="pyarrow")


def explode_mentions_batch(batch: pa.Table) -> pa.Table:
    """Vectorized explode of the ``mentions`` list column → mention rows.

    Arrow-native: ``list_parent_indices`` + ``flatten`` — no Python loop.
    """
    import pyarrow.compute as pc

    mentions = batch["mentions"]
    if isinstance(mentions, pa.ChunkedArray):
        mentions = mentions.combine_chunks()
    parent = pc.list_parent_indices(mentions)
    flat = mentions.flatten()
    subj = pc.take(
        batch["doc_id"].combine_chunks()
        if isinstance(batch["doc_id"], pa.ChunkedArray)
        else batch["doc_id"],
        parent,
    )
    return pa.Table.from_arrays(
        [
            subj,
            flat.field("kind"),
            flat.field("target_key"),
            flat.field("raw_text"),
            flat.field("span_offset"),
            flat.field("occurrence_idx"),
        ],
        schema=MENTIONS_SCHEMA,
    )


def explode_mentions(notes):
    """``notes`` Dataset → ``mentions`` Dataset (projection happens first
    so only (doc_id, mentions) ship through the explode)."""
    return notes.select_columns(["doc_id", "mentions"]).map_batches(
        explode_mentions_batch, batch_format="pyarrow"
    )


def project_properties(notes, fields: dict, *, prefix: str = "prop_"):
    """User-schema projection of the dynamic properties payload.

    The reference lets callers substitute any serde struct for the
    frontmatter type (``Note<P>``, /root/reference/src/note/mod.rs:54-59,
    README.md:34-41) — schema-on-read over the dynamic YAML map.  Here
    the user supplies ``{field_name: pyarrow.DataType}``; each declared
    field becomes a typed ``prop_<name>`` column.  Missing fields are
    null; a type-incompatible value is nulled and reported in a
    ``projection_error`` column (the analog of serde's per-note
    ``Error::Yaml`` — callers choose skip-vs-fail).

    Supported types: int64/float64/bool/string and list<string>.
    """

    def coerce(value, typ: pa.DataType):
        if value is None:
            return None, None
        try:
            if pa.types.is_integer(typ):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError
                if isinstance(value, float) and not value.is_integer():
                    # serde would fail deserializing 3.7 / inf / nan as i64
                    raise TypeError
                return int(value), None
            if pa.types.is_floating(typ):
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError
                return float(value), None
            if pa.types.is_boolean(typ):
                if not isinstance(value, bool):
                    raise TypeError
                return value, None
            if pa.types.is_list(typ):
                if not isinstance(value, list):
                    raise TypeError
                return [str(v) for v in value], None
            return (value, None) if isinstance(value, str) else (str(value), None)
        except (TypeError, ValueError, OverflowError):
            return None, f"type mismatch: {type(value).__name__}"

    def project(batch: pa.Table) -> pa.Table:
        props_json = batch["properties_json"].to_pylist()
        cols: dict[str, list] = {name: [] for name in fields}
        errors: list[str | None] = []
        for pj in props_json:
            props = json.loads(pj) if pj else {}
            row_errs = []
            for name, typ in fields.items():
                v, err = coerce(props.get(name), typ)
                cols[name].append(v)
                if err:
                    row_errs.append(f"{name}: {err}")
            errors.append("; ".join(row_errs) or None)
        out = batch
        for name, typ in fields.items():
            out = out.append_column(prefix + name, pa.array(cols[name], type=typ))
        return out.append_column("projection_error", pa.array(errors, pa.string()))

    return notes.map_batches(project, batch_format="pyarrow")
