"""File-per-note markdown sink + directory-walk reader round trip
(reference NoteWrite::flush, note_write.rs:77-95; vault walk,
vault_open/mod.rs:134-182)."""

from __future__ import annotations

import pytest

from obsidian_parser_ray.sources import (
    from_markdown_items,
    read_markdown_dir,
    write_markdown_files,
)

ITEMS = [
    ("a", "---\nid: 1\ntags:\n- x\n---\nBody [[b]] #t"),
    ("sub/b", "Plain body no frontmatter"),
    ("sub/deep/c", "---\naliases:\n- al\n---\nText ![[img.png]]"),
]


@pytest.mark.usefixtures("ray_session")
class TestMarkdownFileRoundTrip:
    def test_write_then_reingest_span_equality(self, tmp_path):
        vault = str(tmp_path / "vault")
        docs = from_markdown_items(ITEMS)
        man = write_markdown_files(docs, vault)
        assert man["files"] == 3 and man["bytes"] > 0

        back = read_markdown_dir(vault)
        orig = {r["doc_id"]: r["spans"] for r in docs.take_all()}
        got = {r["doc_id"]: r["spans"] for r in back.take_all()}
        # the north-star per-row invariant: span-sequence equality
        # (kind, text, media_ref, order)
        assert got == orig

    def test_rewrite_idempotent(self, tmp_path):
        vault = str(tmp_path / "vault")
        docs = from_markdown_items(ITEMS)
        m1 = write_markdown_files(docs, vault)
        m2 = write_markdown_files(docs, vault)
        assert m1["files"] == m2["files"] and m1["bytes"] == m2["bytes"]

    def test_hidden_and_depth_filters(self, tmp_path):
        vault = tmp_path / "vault"
        (vault / ".obsidian").mkdir(parents=True)
        (vault / "sub").mkdir()
        (vault / "top.md").write_text("top")
        (vault / ".hidden.md").write_text("hidden file")
        (vault / ".obsidian" / "cfg.md").write_text("hidden dir")
        (vault / "sub" / "deep.md").write_text("deep")
        (vault / "sub" / "notes.txt").write_text("not markdown")

        ids = {r["doc_id"] for r in read_markdown_dir(str(vault)).take_all()}
        assert ids == {"top", "sub/deep"}
        ids_hidden = {
            r["doc_id"]
            for r in read_markdown_dir(str(vault), include_hidden=True).take_all()
        }
        assert ids_hidden == {"top", "sub/deep", ".hidden", ".obsidian/cfg"}
        ids_shallow = {
            r["doc_id"]
            for r in read_markdown_dir(str(vault), max_depth=1).take_all()
        }
        assert ids_shallow == {"top"}

    def test_unsafe_path_rejected(self, tmp_path):
        docs = from_markdown_items([("../escape", "body")])
        with pytest.raises(Exception, match="unsafe doc_id"):
            write_markdown_files(docs, str(tmp_path / "vault"))

    def test_empty_dir(self, tmp_path):
        out = read_markdown_dir(str(tmp_path))
        assert out.count() == 0

    def test_lance_gate_message(self):
        """pylance is absent in this container: the .lance read path
        must fail with the actionable gate message, not a bare
        ModuleNotFoundError deep inside Ray."""
        from obsidian_parser_ray.sources import read_documents

        with pytest.raises(ImportError, match="pylance"):
            read_documents("/tmp/nonexistent.lance")

    def test_lance_read_path_exercised(self, monkeypatch, ray_session):
        """Exercise the .lance branch end-to-end with a stub reader:
        our wrapper must route .lance URIs to ray.data.read_lance,
        forward override_num_blocks, and hand the resulting Dataset to
        the normal pipeline unchanged.  (pylance itself is absent in
        this container; the stub stands in for the Ray-side reader,
        everything downstream of it is the real engine.)"""
        import ray.data as rd

        from obsidian_parser_ray.corpus import spans_table
        from obsidian_parser_ray.pipelines.graph import build_graph
        from obsidian_parser_ray.sources import read_documents

        calls = {}

        def fake_read_lance(uri, **kwargs):
            calls["uri"] = uri
            calls["kwargs"] = kwargs
            rows = [
                ("a", [("frontmatter", "id: 1", "", 0),
                        ("text", "links [[b]]", "", 7)]),
                ("b", [("text", "plain body", "", 0)]),
            ]
            return rd.from_arrow(spans_table(rows))

        monkeypatch.setattr(rd, "read_lance", fake_read_lance)
        docs = read_documents("/data/corpus.lance", override_num_blocks=4)
        assert calls["uri"] == "/data/corpus.lance"
        assert calls["kwargs"] == {"override_num_blocks": 4}

        g = build_graph(docs)
        triples = g.triples.take_all()
        assert {(t["subj"], t["pred"], t["obj"]) for t in triples} == {
            ("a", "links_to", "b")
        }


@pytest.mark.usefixtures("ray_session")
class TestReadParquetEvolved:
    def test_missing_extra_and_widening(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from obsidian_parser_ray.sources import read_parquet_evolved

        # shard A: old schema (int32 id, no score, extra junk col)
        pq.write_table(
            pa.table({
                "id": pa.array([1, 2], pa.int32()),
                "junk": pa.array(["x", "y"]),
            }),
            str(tmp_path / "a.parquet"),
        )
        # shard B: new schema
        pq.write_table(
            pa.table({
                "id": pa.array([3], pa.int64()),
                "score": pa.array([0.5], pa.float64()),
            }),
            str(tmp_path / "b.parquet"),
        )
        target = pa.schema([
            pa.field("id", pa.int64()),
            pa.field("score", pa.float64()),
        ])
        out = (
            read_parquet_evolved(
                [str(tmp_path / "a.parquet"),
                 str(tmp_path / "b.parquet")],
                target,
            )
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        assert list(out.columns) == ["id", "score"]
        assert list(out["id"]) == [1, 2, 3]
        assert out["score"].isna().tolist() == [True, True, False]

    def test_lossy_cast_refused(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import pytest as _pytest

        from obsidian_parser_ray.sources import read_parquet_evolved

        pq.write_table(
            pa.table({"id": pa.array([1.5], pa.float64())}),
            str(tmp_path / "c.parquet"),
        )
        target = pa.schema([pa.field("id", pa.int64())])
        ds = read_parquet_evolved([str(tmp_path / "c.parquet")], target)
        with _pytest.raises(Exception):
            ds.to_pandas()
