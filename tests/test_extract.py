"""Extract stage: batched semantics + span-sequence invariant."""

from __future__ import annotations

import pyarrow as pa
import pytest

from obsidian_parser_ray.corpus import (
    make_span,
    raw_from_spans,
    span_signature,
    spans_from_raw,
    spans_table,
)
from obsidian_parser_ray.stages.extract import (
    ExtractNotes,
    explode_mentions_batch,
    parse_doc,
)


def test_parse_doc_full():
    spans = spans_from_raw("---\ntags:\n- t1\naliases:\n- al\n---\nHello [[main]] #x ![[img]]")
    note, mentions = parse_doc("data/main", spans)
    assert note["note_name"] == "main"
    assert note["tags"] == ["t1", "x"]
    assert note["aliases"] == ["al"]
    assert note["is_todo"] is False
    assert note["parse_error"] is None
    assert note["order_key"] == "data/main"
    kinds = [m["kind"] for m in mentions]
    assert kinds == ["tag_frontmatter", "link", "embed", "tag_inline"]
    # occurrence indices are strictly increasing
    occs = [m["occurrence_idx"] for m in mentions]
    assert occs == sorted(occs) == list(range(len(mentions)))


def test_media_span_mention():
    # FIXTURES.md Fixture 6
    spans = [
        make_span("text", "see ![[diagram]]", offset=0),
        make_span("media", media_ref="assets/diagram.png", offset=1),
        make_span("text", "and [[main]]", offset=2),
    ]
    note, mentions = parse_doc("media_note", spans)
    assert [(m["kind"], m["target_key"]) for m in mentions] == [
        ("embed", "diagram"),
        ("link", "main"),
        ("media", "assets/diagram.png"),
    ]


def test_multi_text_span_content_joined():
    spans = [
        make_span("text", "one two", offset=0),
        make_span("text", "three", offset=1),
    ]
    note, _ = parse_doc("x", spans)
    assert note["n_words"] == 3
    assert note["n_bytes"] == len("one two\nthree")


def test_span_order_respected_not_physical_order():
    spans = [
        make_span("text", "second", offset=5),
        make_span("text", "first", offset=1),
    ]
    note, _ = parse_doc("x", spans)
    assert note["n_bytes"] == len("first\nsecond")


def test_yaml_error_flows_to_parse_error_column():
    spans = [make_span("frontmatter", ": : :"), make_span("text", "b", offset=1)]
    note, _ = parse_doc("x", spans)
    assert note["parse_error"] is not None
    assert note["tags"] == []  # properties unusable → no frontmatter tags


def test_batched_extractor_and_span_invariant():
    rows = [
        ("main", spans_from_raw("---\ntopic: work\n---\nOther [[data/main|main]]")),
        ("data/main", spans_from_raw("New main. [[link]]")),
    ]
    t = spans_table(rows)
    out = ExtractNotes(keep_spans=True)(t)
    assert out.num_rows == 2
    # per-row span-sequence invariant (kind, text, media_ref, order)
    assert span_signature(out["spans"]) == span_signature(t["spans"])
    names = out["note_name"].to_pylist()
    assert names == ["main", "main"]


def test_explode_mentions_vectorized():
    rows = [
        ("a", spans_from_raw("[[x]] [[y]]")),
        ("b", spans_from_raw("no links")),
        ("c", spans_from_raw("[[z]]")),
    ]
    notes = ExtractNotes()(spans_table(rows))
    m = explode_mentions_batch(notes)
    assert m["subj"].to_pylist() == ["a", "a", "c"]
    assert m["target_key"].to_pylist() == ["x", "y", "z"]


def test_raw_roundtrip():
    raw = "---\nk: v\n---\nbody [[x]]"
    assert raw_from_spans(spans_from_raw(raw)) == raw


def test_unclosed_frontmatter_raises_at_corpus_build():
    from obsidian_parser_ray.parser import NotFoundCloser

    with pytest.raises(NotFoundCloser):
        spans_from_raw("---\n")


def test_empty_spans_row():
    note, mentions = parse_doc("empty", [])
    assert note["n_words"] == 0 and mentions == []


def test_schema_stability():
    out = ExtractNotes()(spans_table([("a", spans_from_raw("x"))]))
    from obsidian_parser_ray.stages.extract import NOTES_SCHEMA

    assert out.schema == NOTES_SCHEMA
    assert out["n_words"].type == pa.int64()


class TestProjectProperties:
    """User-schema projection over dynamic frontmatter (the reference's
    serde-generic Note<P> surface, note/mod.rs:54-59)."""

    def _notes(self):
        import ray.data as rd

        from obsidian_parser_ray.corpus import spans_table, spans_from_raw
        from obsidian_parser_ray.stages.extract import extract_notes

        rows = [
            ("a", spans_from_raw("---\nid: 7\nscore: 1.5\nflag: true\nname: x\nlist:\n- p\n- q\n---\nbody")),
            ("b", spans_from_raw("---\nid: not_an_int\n---\nbody")),
            ("c", spans_from_raw("no frontmatter")),
        ]
        return extract_notes(rd.from_arrow(spans_table(rows)))

    def test_typed_projection(self, ray_session):
        import pyarrow as pa

        from obsidian_parser_ray.stages.extract import project_properties

        out = project_properties(
            self._notes(),
            {
                "id": pa.int64(),
                "score": pa.float64(),
                "flag": pa.bool_(),
                "name": pa.string(),
                "list": pa.list_(pa.string()),
            },
        )
        rows = {r["doc_id"]: r for r in out.take_all()}
        a = rows["a"]
        assert a["prop_id"] == 7 and a["prop_score"] == 1.5
        assert a["prop_flag"] is True and a["prop_name"] == "x"
        assert a["prop_list"] == ["p", "q"]
        assert a["projection_error"] is None
        # serde-style error: wrong type reported per-row, value nulled
        b = rows["b"]
        assert b["prop_id"] is None
        assert "id: type mismatch" in b["projection_error"]
        # absent frontmatter → all null, no error
        c = rows["c"]
        assert c["prop_id"] is None and c["projection_error"] is None


@pytest.mark.usefixtures("ray_session")
class TestMentionsDirect:
    def test_equivalent_to_explode_of_extract(self):
        """The single-pass streaming read (scanner, no notes table)
        must emit EXACTLY the mention rows of
        explode_mentions(extract_notes(docs)), with and without tags."""
        import ray.data as rd

        from obsidian_parser_ray.corpus import spans_from_raw, spans_table
        from obsidian_parser_ray.stages.extract import (
            combined_mentions,
            explode_mentions,
            extract_mentions_and_dict,
            extract_notes,
        )

        items = [
            ("a", "---\ntags:\n- t1\n---\nBody [[b|al]] #x and ![[c]]"),
            ("sub/b", "Plain [[a]] [[a]] #y"),
            ("c", ""),
        ]
        docs = rd.from_arrow(
            spans_table([(i, spans_from_raw(r)) for i, r in items])
        )

        def rows(ds):
            return sorted(
                (
                    r["subj"], r["kind"], r["target_key"], r["raw_text"],
                    r["span_offset"], r["occurrence_idx"],
                )
                for r in ds.take_all()
            )

        classic = rows(explode_mentions(extract_notes(docs)))
        direct = rows(combined_mentions(extract_mentions_and_dict(docs)))
        assert direct == classic and len(direct) > 0

        # include_tags=False drops exactly the tag kinds
        no_tags = rows(combined_mentions(
            extract_mentions_and_dict(docs, include_tags=False)))
        assert no_tags == [r for r in classic if not r[1].startswith("tag")]
        assert len(no_tags) < len(classic)


def test_streaming_build_equivalent_to_barrier_build(ray_session):
    """The streaming build (one read into the combined table) must emit
    the identical triple set as the barrier build over the pinned
    notes table."""
    import ray.data as rd

    from obsidian_parser_ray import build_graph
    from obsidian_parser_ray.corpus import make_span, spans_table

    rows = []
    for i in range(40):
        fm = f"---\naliases: [al_{i}]\ntags: [t{i % 3}]\n---"
        body = f"body [[note_{(i + 1) % 40}]] and [[al_{(i + 2) % 40}]] #x{i % 5}"
        rows.append(
            (f"dir/note_{i}", [make_span("frontmatter", fm, offset=0),
                               make_span("text", body, offset=1)])
        )
    docs = rd.from_arrow(spans_table(rows)).repartition(4)

    def triples(materialize_notes):
        g = build_graph(
            docs, materialize_notes=materialize_notes, linker_concurrency=2,
        )
        return sorted(
            tuple(sorted(r.items())) for r in g.triples.take_all()
        )

    assert triples(False) == triples(True)


def test_extract_notes_golden_edge_cases():
    """Edge rows through the batched extractor, with literal expected
    values: bad and null frontmatter, non-ASCII content in offset
    order, control characters, an empty span list, strict lists."""
    rows = [
        ("a/note1", [
            make_span("frontmatter", "tags: [todo, x]\naliases: [A, B]"),
            make_span("text", "see [[T|lbl]] and #tag words", offset=10),
            make_span("media", media_ref="i.png", offset=50),
        ]),
        ("c/empty", []),
        ("d/badyaml", [make_span("frontmatter", ": bad [")]),
        ("e/nullfm", [make_span("frontmatter", None)]),
        ("f/unicode", [make_span("text", "café wörd [[X]]", offset=5),
                       make_span("text", "earlier", offset=3)]),
        ("h/ctl", [make_span("text", "x\x1c\x1dy z")]),
    ]
    out = {r["doc_id"]: r for r in ExtractNotes()(spans_table(rows)).to_pylist()}

    a = out["a/note1"]
    assert a["tags"] == ["todo", "x", "tag"] and a["is_todo"] is True
    assert a["aliases"] == ["A", "B"]
    assert [(m["kind"], m["target_key"]) for m in a["mentions"]] == [
        ("tag_frontmatter", "todo"), ("tag_frontmatter", "x"),
        ("link", "T"), ("tag_inline", "tag"), ("media", "i.png"),
    ]
    assert out["c/empty"]["n_words"] == 0 and out["c/empty"]["mentions"] == []
    assert out["d/badyaml"]["parse_error"] is not None
    assert out["d/badyaml"]["tags"] == []
    assert out["e/nullfm"]["properties_json"] is None
    assert out["e/nullfm"]["parse_error"] is None
    # "earlier\ncafé wörd [[X]]": 8 + 17 UTF-8 bytes (é, ö are 2 each)
    assert out["f/unicode"]["n_bytes"] == 25
    assert out["f/unicode"]["n_words"] == 4
    assert out["h/ctl"]["n_words"] == 2

    strict = ExtractNotes(strict_lists=True)(
        spans_table([("s", [make_span("frontmatter", "tags:\n  - 7")])])
    ).to_pylist()[0]
    assert strict["parse_error"] is not None and strict["tags"] == []
