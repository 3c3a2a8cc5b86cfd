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
    extract_note_row,
)


def test_extract_note_row_full():
    spans = spans_from_raw("---\ntags:\n- t1\naliases:\n- al\n---\nHello [[main]] #x ![[img]]")
    note, mentions = extract_note_row("data/main", spans)
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
    note, mentions = extract_note_row("media_note", spans)
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
    note, _ = extract_note_row("x", spans)
    assert note["n_words"] == 3
    assert note["n_bytes"] == len("one two\nthree")


def test_span_order_respected_not_physical_order():
    spans = [
        make_span("text", "second", offset=5),
        make_span("text", "first", offset=1),
    ]
    note, _ = extract_note_row("x", spans)
    assert note["n_bytes"] == len("first\nsecond")


def test_yaml_error_flows_to_parse_error_column():
    spans = [make_span("frontmatter", ": : :"), make_span("text", "b", offset=1)]
    note, _ = extract_note_row("x", spans)
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
    note, mentions = extract_note_row("empty", [])
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


class TestAutoPathProbe:
    """ExtractNotes default path selection: env forces, else the
    once-per-process microprobe decides at first __call__."""

    def _batch(self):
        import pyarrow as pa

        from obsidian_parser_ray.corpus import make_span, spans_table

        return spans_table(
            [("a", [make_span("text", "hi [[b]] #t", offset=0)]),
             ("b", [make_span("text", "yo", offset=0)])]
        )

    def test_env_forces_path(self, monkeypatch):
        from obsidian_parser_ray.stages.extract import ExtractNotes

        monkeypatch.setenv("GRAFT_VECTOR_EXTRACT", "1")
        assert ExtractNotes().vectorized is True
        monkeypatch.setenv("GRAFT_VECTOR_EXTRACT", "0")
        assert ExtractNotes().vectorized is False
        monkeypatch.delenv("GRAFT_VECTOR_EXTRACT", raising=False)
        assert ExtractNotes().vectorized is None  # auto until first call

    def test_probe_decision_applied_both_ways(self, monkeypatch):
        from obsidian_parser_ray.stages import extract

        monkeypatch.delenv("GRAFT_VECTOR_EXTRACT", raising=False)
        batch = self._batch()
        outs = []
        for forced in (True, False):
            monkeypatch.setattr(
                extract, "_probe_vectorized", lambda f=forced: f
            )
            e = extract.ExtractNotes()
            assert e.vectorized is None
            out = e(batch)
            assert e.vectorized is forced  # decision cached on self
            outs.append(out)
        # row-identical regardless of which path the probe picked
        assert outs[0].equals(outs[1])

    def test_real_probe_runs_and_caches(self, monkeypatch):
        from obsidian_parser_ray.stages import extract

        monkeypatch.setattr(extract, "_AUTO_VECTOR", None)
        v = extract._probe_vectorized()
        assert isinstance(v, bool)
        assert extract._AUTO_VECTOR is v
        assert extract._probe_vectorized() is v  # cached
