"""End-to-end graph construction semantics (reference vault fixture +
linking/canonicalization behavior).  Needs the Ray session fixture."""

from __future__ import annotations

import pytest

from obsidian_parser_ray.corpus import make_span, spans_from_raw, spans_table
from obsidian_parser_ray.pipelines.graph import (
    build_graph,
    duplicates_by_content,
    duplicates_by_name,
)
from obsidian_parser_ray.stages.linking import LinkDictionary


def _vault_ds(rows):
    import ray.data as rd

    return rd.from_arrow(spans_table(rows))


# The reference's 3-file vault (vault_test.rs:13-36): expected 3 nodes,
# 3 edges for both directed and undirected builds
# (vault_petgraph/mod.rs:152-188).
GOLDEN_VAULT = [
    (
        "main",
        spans_from_raw(
            "---\ntopic: work\ncreated: 15-04-2006\n---\nMain data. Other [[data/main|main]]"
        ),
    ),
    ("link", spans_from_raw("---\ntopic: kinl\ncreated: 15-04-2006\n---\n[[main]]")),
    ("data/main", spans_from_raw("New main. [[link]]")),
]


@pytest.mark.usefixtures("ray_session")
class TestGoldenVault:
    def _triples(self, **kw):
        g = build_graph(
            _vault_ds(GOLDEN_VAULT),
            include_child_of=False,
            include_tags=False,
            **kw,
        )
        rows = g.triples.to_pandas()
        return g, {
            (r.subj, r.pred, r.obj): r.weight for r in rows.itertuples()
        }

    def test_directed_counts_and_edges(self):
        g, triples = self._triples()
        assert g.node_count() == 3
        assert sum(triples.values()) == 3  # reference asserts edge_count == 3
        # [[data/main|main]] resolves via the FULL-path map;
        # [[main]] short-name first-wins → min order_key among stems
        # 'main' = {'data/main', 'main'} → 'data/main' (FIXTURES.md §1)
        assert triples == {
            ("main", "links_to", "data/main"): 1,
            ("link", "links_to", "data/main"): 1,
            ("data/main", "links_to", "link"): 1,
        }

    def test_undirected(self):
        g, triples = self._triples(directed=False)
        assert sum(triples.values()) == 3
        for s, p, o in triples:
            assert s <= o

    def test_matches_pure_python_oracle(self):
        from obsidian_parser_ray.oracle import oracle_graph, precision_recall

        g, triples = self._triples()
        _, exp = oracle_graph(
            GOLDEN_VAULT, include_child_of=False, include_tags=False
        )
        pr = precision_recall(triples, exp)
        assert pr["precision"] == 1.0 and pr["recall"] == 1.0
        assert pr["weighted_exact"] == 1.0

    @pytest.mark.parametrize("materialize_notes", [True, False])
    def test_default_build_links_in_tasks_like_the_pool(
        self, materialize_notes, actor_pools
    ):
        """A default build links in stateless tasks (no actor-pool
        operator, no ``EntityLinker`` stage) and its triples, child_of
        and tags included, equal the opt-in ``EntityLinker`` pool's
        (``link_mentions(concurrency=1)``) on the same notes."""
        from obsidian_parser_ray.stages.canonicalize import canonicalize
        from obsidian_parser_ray.stages.extract import (
            explode_mentions,
            extract_notes,
        )
        from obsidian_parser_ray.stages.linking import (
            build_dictionary,
            child_of_edges,
            link_mentions,
        )

        def rows(ds):
            return sorted(tuple(r.values()) for r in ds.take_all())

        g = build_graph(_vault_ds(GOLDEN_VAULT),
                        materialize_notes=materialize_notes)
        default = g.triples.materialize()
        stats = default.stats()
        assert actor_pools == []
        assert "EntityLinker" not in stats and "_task_link" in stats

        notes = extract_notes(_vault_ds(GOLDEN_VAULT)).materialize()
        edges = link_mentions(explode_mentions(notes),
                              build_dictionary(notes), concurrency=1)
        pool = canonicalize(edges.union(child_of_edges(notes)))
        assert len(rows(default)) >= 3
        assert rows(default) == rows(pool)
        assert any("EntityLinker" in n for n in actor_pools)


@pytest.mark.usefixtures("ray_session")
class TestLinkingSemantics:
    def test_unresolved_dropped_by_default(self):
        rows = [("a", spans_from_raw("[[missing]] [[b]]")), ("b", spans_from_raw("x"))]
        g = build_graph(_vault_ds(rows), include_tags=False)
        t = g.triples.to_pandas()
        assert len(t) == 1 and t.iloc[0]["obj"] == "b"

    def test_unresolved_kept_when_flagged(self):
        rows = [("a", spans_from_raw("[[missing]]"))]
        g = build_graph(
            _vault_ds(rows),
            include_tags=False,
            drop_unresolved=False,
        )
        e = g.edges.to_pandas()
        assert len(e) == 1 and not e.iloc[0]["resolved"]

    def test_parallel_edges_weighted(self):
        rows = [("a", spans_from_raw("[[b]] [[b]] [[b]]")), ("b", spans_from_raw("x"))]
        g = build_graph(_vault_ds(rows), include_tags=False)
        t = g.triples.to_pandas()
        assert len(t) == 1 and int(t.iloc[0]["weight"]) == 3

    def test_alias_resolution(self):
        # BASELINE.json north_star extension: aliases resolve
        rows = [
            ("a", spans_from_raw("[[The Alias]]")),
            ("b", spans_from_raw("---\naliases:\n- The Alias\n---\nx")),
        ]
        g = build_graph(_vault_ds(rows), include_tags=False)
        t = g.triples.to_pandas()
        assert {(r.subj, r.obj) for r in t.itertuples()} == {("a", "b")}

    def test_short_name_beats_alias(self):
        # documented precedence: stem map consulted before alias map
        rows = [
            ("a", spans_from_raw("[[target]]")),
            ("target", spans_from_raw("the real one")),
            ("z", spans_from_raw("---\naliases:\n- target\n---\nimpostor")),
        ]
        g = build_graph(_vault_ds(rows), include_tags=False)
        t = g.triples.to_pandas()
        assert {(r.subj, r.obj) for r in t.itertuples()} == {("a", "target")}

    def test_tag_and_media_and_child_of_predicates(self):
        rows = [
            (
                "folder/doc",
                [
                    make_span("frontmatter", "tags:\n- fm_tag", offset=0),
                    make_span("text", "body #inline ![[img]]", offset=1),
                    make_span("media", media_ref="assets/x.png", offset=2),
                ],
            ),
            ("img", spans_from_raw("an image note")),
        ]
        g = build_graph(_vault_ds(rows))
        t = {
            (r.subj, r.pred, r.obj) for r in g.triples.to_pandas().itertuples()
        }
        assert ("folder/doc", "tagged", "fm_tag") in t
        assert ("folder/doc", "tagged", "inline") in t
        assert ("folder/doc", "embeds", "img") in t
        assert ("folder/doc", "embeds", "assets/x.png") in t
        assert ("folder/doc", "child_of", "folder") in t

    def test_dictionary_unit(self):
        d = LinkDictionary()
        d.fold_batch(["b/n", "a/n"], ["n", "n"], [[], ["al"]])
        assert d.resolve("n") == "a/n"  # min order_key wins regardless of fold order
        assert d.resolve("a/n") == "a/n"
        assert d.resolve("b/n") == "b/n"
        assert d.resolve("al") == "a/n"
        assert d.resolve("nope") is None
        assert d.resolve("no/pe") is None


@pytest.mark.usefixtures("ray_session")
class TestDuplicates:
    def test_by_name_and_content(self):
        # vault_duplicates.rs:119-143: `file` and `folder/file`, same text
        rows = [
            ("file", spans_from_raw("same text")),
            ("folder/file", spans_from_raw("same text")),
            ("unique", spans_from_raw("other text")),
        ]
        g = build_graph(_vault_ds(rows))
        dn = duplicates_by_name(g.notes).to_pandas()
        assert len(dn) == 1
        assert dn.iloc[0]["note_name"] == "file"
        assert dn.iloc[0]["keeper"] == "file"  # min order_key
        assert int(dn.iloc[0]["n_docs"]) == 2
        dc = duplicates_by_content(g.notes).to_pandas()
        assert len(dc) == 1 and int(dc.iloc[0]["n_docs"]) == 2

    def test_no_duplicates(self):
        rows = [("a", spans_from_raw("x")), ("b", spans_from_raw("y"))]
        g = build_graph(_vault_ds(rows))
        assert duplicates_by_name(g.notes).count() == 0
        assert duplicates_by_content(g.notes).count() == 0


@pytest.mark.usefixtures("ray_session")
class TestUserExtension:
    def test_user_filter_drops_todos(self):
        # examples/analyzer.rs:49 — filter !is_todo before graph build
        import pyarrow.compute as pc

        rows = [
            ("a", spans_from_raw("---\ntags:\n- todo\n---\n[[b]]")),
            ("b", spans_from_raw("[[a]]")),
        ]
        g = build_graph(
            _vault_ds(rows),
            include_tags=False,
            user_filter=lambda t: t.filter(pc.equal(t["is_todo"], False)),
        )
        t = g.triples.to_pandas()
        # note a dropped → only b remains; its link targets the now-absent
        # 'a'... which still resolves? No: dictionary is built AFTER the
        # filter, so [[a]] is unresolved and dropped.
        assert g.node_count() == 1
        assert len(t) == 0


class TestMarkdownRoundTrip:
    """S7/P13: documents → render_markdown → re-parse == original."""

    def test_render_roundtrip(self):
        from obsidian_parser_ray.sources import from_markdown_items, render_markdown

        items = [
            ("with_fm", "---\nid: 1\ntags:\n- a\n---\nBody [[x]] text."),
            ("plain", "No frontmatter here. #tag"),
        ]
        docs = from_markdown_items(items)
        rendered = {
            r["doc_id"]: r["raw_text"] for r in render_markdown(docs).take_all()
        }
        # frontmatter docs re-render to the normalized ---\nyaml\n---\nbody
        assert rendered["with_fm"] == "---\nid: 1\ntags:\n- a\n---\nBody [[x]] text."
        assert rendered["plain"] == "No frontmatter here. #tag"

    def test_write_markdown_manifest(self, tmp_path):
        from obsidian_parser_ray.sources import from_markdown_items, write_markdown

        docs = from_markdown_items([("a", "hello"), ("b", "---\nx: 1\n---\nworld")])
        m = write_markdown(docs, str(tmp_path / "md_out"))
        assert m["rows"] == 2
        assert m["lineage"] == "render_markdown"


class TestShuffleJoinLinking:
    """J1 shuffle topology: linking the combined single-pass table by
    hash partition must produce the identical canonical triple set as
    the broadcast path."""

    def test_matches_broadcast(self):
        from collections import Counter

        import ray.data as rd

        from obsidian_parser_ray.corpus import derive_vault_batch
        from obsidian_parser_ray.stages.canonicalize import canonicalize
        from obsidian_parser_ray.stages.extract import (
            explode_mentions,
            extract_mentions_and_dict,
            extract_notes,
        )
        from obsidian_parser_ray.stages.linking import (
            build_dictionary,
            link_combined_shuffle,
            link_mentions,
        )

        import pyarrow as pa

        n = 60
        base = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(list(range(n)), pa.int64()),
                    "lang": pa.array(["en"] * n, pa.string()),
                }
            )
        )
        docs = base.map_batches(
            derive_vault_batch, fn_kwargs={"n_docs": n}, batch_format="pyarrow"
        ).materialize()
        notes = extract_notes(docs).materialize()
        mentions = explode_mentions(notes)

        d = build_dictionary(notes)
        bcast = canonicalize(link_mentions(mentions, d))
        shuf = canonicalize(link_combined_shuffle(
            extract_mentions_and_dict(docs).materialize(), num_partitions=4
        ))

        def as_counter(ds):
            return Counter(
                {(r["subj"], r["pred"], r["obj"]): r["weight"] for r in ds.take_all()}
            )

        assert as_counter(bcast) == as_counter(shuf)

    def test_build_graph_auto_selects_topology_by_size(self, monkeypatch):
        """VERDICT r2 #1: the build must pick broadcast vs the combined
        shuffle by MEASURED dictionary size — each guard constant alone
        flips it — and both topologies must produce identical
        canonical triples."""
        from collections import Counter

        from obsidian_parser_ray import build_graph, synth_vault
        from obsidian_parser_ray.pipelines import graph
        from obsidian_parser_ray.stages import joins

        sf = "/root/testdata/sf0.001"

        def as_counter(ds):
            return Counter(
                {(r["subj"], r["pred"], r["obj"]): r["weight"]
                 for r in ds.take_all()}
            )

        # small dictionary → broadcast
        g_b = build_graph(synth_vault(sf), materialize_notes=False)
        assert g_b.link_topology == "broadcast"

        # entry guard forced to 1 → the combined shuffle
        with monkeypatch.context() as m:
            m.setattr(graph, "LINK_MAX_ENTRIES", 1)
            g_s = build_graph(synth_vault(sf), materialize_notes=False)
            assert g_s.link_topology == "shuffle-combined"
            assert g_s.dictionary is None
            assert as_counter(g_b.triples) == as_counter(g_s.triples)

        # byte guard alone must flip it too
        with monkeypatch.context() as m:
            m.setattr(joins, "BROADCAST_MAX_BYTES", 1)
            g_bytes = build_graph(synth_vault(sf), materialize_notes=False)
            assert g_bytes.link_topology == "shuffle-combined"

    def test_build_graph_shuffle_without_tags(self, monkeypatch):
        """The combined shuffle drops tag mentions like the broadcast
        build does when ``include_tags=False``."""
        from collections import Counter

        from obsidian_parser_ray import build_graph, synth_vault
        from obsidian_parser_ray.pipelines import graph

        sf = "/root/testdata/sf0.001"

        def as_counter(ds):
            return Counter(
                {(r["subj"], r["pred"], r["obj"]): r["weight"]
                 for r in ds.take_all()}
            )

        g_b = build_graph(synth_vault(sf), materialize_notes=False,
                          include_tags=False)
        assert g_b.link_topology == "broadcast"
        monkeypatch.setattr(graph, "LINK_MAX_ENTRIES", 1)
        g_s = build_graph(synth_vault(sf), materialize_notes=False,
                          include_tags=False)
        assert g_s.link_topology == "shuffle-combined"
        got = as_counter(g_s.triples)
        assert got == as_counter(g_b.triples)
        preds = {p for _, p, _ in got}
        assert "tagged" not in preds and "links_to" in preds


class TestResolutionStats:
    def test_counts(self):
        import ray.data as rd

        from obsidian_parser_ray.corpus import spans_table, spans_from_raw
        from obsidian_parser_ray.stages.extract import explode_mentions, extract_notes
        from obsidian_parser_ray.stages.linking import (
            build_dictionary,
            resolution_stats,
        )

        rows = [
            ("a", spans_from_raw("[[b]] [[missing]] #t ![[b]]")),
            ("b", spans_from_raw("[[a]]")),
        ]
        notes = extract_notes(rd.from_arrow(spans_table(rows))).materialize()
        stats = {
            (r["pred"], r["resolved"]): r["n_mentions"]
            for r in resolution_stats(
                explode_mentions(notes), build_dictionary(notes)
            ).take_all()
        }
        assert stats == {
            ("links_to", True): 2,
            ("links_to", False): 1,
            ("embeds", True): 1,
            ("tagged", True): 1,
        }


class TestHubSkew:
    """north_rule: hub-note skew handled by the salted two-phase
    canonicalization — correctness under a pathological hub."""

    def test_hub_weights_exact(self):
        import ray.data as rd

        from obsidian_parser_ray.corpus import spans_table, spans_from_raw
        from obsidian_parser_ray.stages.canonicalize import degree_top_k

        n = 400
        rows = [("hub", spans_from_raw("the hub"))]
        # every note links the hub 3 times (parallel edges kept as weight)
        rows += [
            (f"n{i}", spans_from_raw("[[hub]] mid [[hub]] end [[hub]]"))
            for i in range(n)
        ]
        from obsidian_parser_ray import build_graph

        g = build_graph(
            rd.from_arrow(spans_table(rows)), include_child_of=False,
        )
        hub_triples = {
            (r["subj"], r["obj"]): r["weight"]
            for r in g.triples.filter(expr="obj == 'hub'").take_all()
        }
        assert len(hub_triples) == n
        assert all(w == 3 for w in hub_triples.values())
        top = degree_top_k(g.triples, pred="links_to", by="obj", k=1).take_all()
        assert top[0]["obj"] == "hub" and top[0]["degree"] == 3 * n


    def test_degree_top_k_pred_with_quote(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.canonicalize import degree_top_k

        tri = rd.from_arrow(pa.table({
            "subj": ["a", "b", "c", "a"],
            "pred": ["it's", "it's", "links_to", "links_to"],
            "obj": ["x", "x", "y", "y"],
            "weight": pa.array([1, 2, 5, 5], pa.int64()),
        }))
        top = degree_top_k(tri, pred="it's", by="obj", k=5).take_all()
        assert [(r["obj"], r["degree"]) for r in top] == [("x", 3)]
        assert degree_top_k(tri, pred="x' or pred != 'x", by="obj",
                            k=5).take_all() == []


class TestAdjacencyLayout:
    def test_bucketed_write_and_pruned_read(self, tmp_path):
        from obsidian_parser_ray import build_graph
        from obsidian_parser_ray.pipelines.graph import read_adjacency, write_adjacency
        from obsidian_parser_ray.sources import from_markdown_items

        docs = from_markdown_items(
            [(f"n{i}", f"[[n{(i + 1) % 12}]] and [[n{(i + 2) % 12}]]") for i in range(12)]
        )
        g = build_graph(docs, include_child_of=False)
        out = str(tmp_path / "adj")
        man = write_adjacency(g, out, num_buckets=4)
        assert man["num_buckets"] == 4
        rows = read_adjacency(out, "n3").take_all()
        assert {(r["subj"], r["obj"]) for r in rows} == {("n3", "n4"), ("n3", "n5")}
        assert all(r["weight"] == 1 for r in rows)

    def test_lookup_returns_the_four_triple_columns(self, tmp_path, ray_session):
        """A one-split layout keeps its rows under hive
        ``subj_bucket=`` dirs; the lookup must not surface that dir as a
        fifth column, on the hit path or on the missing-bucket path."""
        from obsidian_parser_ray import build_graph, read_adjacency, write_adjacency
        from obsidian_parser_ray.hashing import hash64_scalar
        from obsidian_parser_ray.sources import from_markdown_items
        from obsidian_parser_ray.state import publish

        cols = ["subj", "pred", "obj", "weight"]
        docs = from_markdown_items([("a", "[[b]]"), ("b", "[[a]]")])
        out = str(tmp_path / "adj1")
        g = build_graph(docs, include_child_of=False)
        man = write_adjacency(g, out, num_buckets=16, splits_per_bucket=1)
        assert man["splits_per_bucket"] == 1
        rows = read_adjacency(out, "a").take_all()
        assert [list(r) for r in rows] == [cols]
        assert rows[0]["obj"] == "b"
        missing = next(
            s for s in (f"m{i}" for i in range(1000))
            if not publish.live(man, "data", [hash64_scalar(s) % 16])
        )
        empty = read_adjacency(out, missing)
        assert empty.schema().names == cols
        assert empty.take_all() == []

    def test_rewrite_is_idempotent(self, tmp_path):
        from obsidian_parser_ray import build_graph, read_adjacency, write_adjacency
        from obsidian_parser_ray.sources import from_markdown_items

        docs = from_markdown_items([("a", "[[b]]"), ("b", "[[a]]")])
        out = str(tmp_path / "adj2")
        g = build_graph(docs, include_child_of=False)
        write_adjacency(g, out, num_buckets=2)
        write_adjacency(g, out, num_buckets=2)  # rerun must REPLACE, not append
        rows = read_adjacency(out, "a").take_all()
        assert len(rows) == 1 and rows[0]["obj"] == "b" and rows[0]["weight"] == 1

    def test_fused_mode_equivalent_to_sort_mode(self, tmp_path):
        """The single-shuffle sink (groupby + reduce-side local sort +
        direct write) gives each bucket exactly the rows a global sort
        on (bucket, subj, pred, obj) would: the build's triples whose
        subject hashes there, in (subj, pred, obj) order."""
        import pyarrow.parquet as pq

        from obsidian_parser_ray import build_graph
        from obsidian_parser_ray.hashing import hash64_scalar
        from obsidian_parser_ray.pipelines.graph import read_adjacency, write_adjacency
        from obsidian_parser_ray.sources import from_markdown_items
        from obsidian_parser_ray.state import publish

        docs = from_markdown_items(
            [
                (f"n{i}", f"[[n{(i * 7 + 1) % 23}]] x [[n{(i * 3 + 2) % 23}]] [[hub]]")
                for i in range(23)
            ]
            + [("hub", "[[n0]]")]
        )
        g = build_graph(docs, include_child_of=False)
        triples = g.triples.take_all()
        cols = ["subj", "pred", "obj", "weight"]
        out = str(tmp_path / "adj_fused")
        man = write_adjacency(g, out, num_buckets=4, splits_per_bucket=1)

        seen = 0
        for b in range(4):
            expected = sorted(
                ({c: r[c] for c in cols} for r in triples
                 if hash64_scalar(r["subj"]) % 4 == b),
                key=lambda r: (r["subj"], r["pred"], r["obj"]),
            )
            files = publish.paths(out, man, "data", [b])  # one split: shard b
            assert bool(files) == bool(expected)
            if not expected:
                continue
            got = pq.read_table(files[0]).select(cols).to_pylist()
            assert got == expected  # same rows, same order
            seen += len(got)
        assert seen == len(triples) > 0

        # the manifest records per-bucket stats that add up
        parts = man["partitions"]
        assert sum(p["rows"] for p in parts) == len(triples)
        assert all(p["bytes"] > 0 for p in parts)
        # and the pruned read finds the hub's one triple
        hub = read_adjacency(out, "hub").take_all()
        assert hub == [{c: r[c] for c in cols} for r in triples
                       if r["subj"] == "hub"]
        assert len(hub) == 1

    def test_split_buckets_bound_the_reduce_task(self, tmp_path):
        """VERDICT r2 #3: splits_per_bucket subdivides each bucket so a
        fused reduce task never holds a whole bucket — same row SET as
        the unsplit layout, each shard file internally sorted, and
        per-subject reads prune to exactly one shard file."""
        import os

        import pyarrow.parquet as pq

        from obsidian_parser_ray import build_graph
        from obsidian_parser_ray.pipelines.graph import (
            read_adjacency,
            write_adjacency,
        )
        from obsidian_parser_ray.sources import from_markdown_items
        from obsidian_parser_ray.state import publish

        docs = from_markdown_items(
            [
                (f"n{i}", f"[[n{(i * 7 + 1) % 23}]] x [[n{(i * 3 + 2) % 23}]] [[hub]]")
                for i in range(23)
            ]
            + [("hub", "[[n0]]")]
        )
        g = build_graph(docs, include_child_of=False)
        out_1 = str(tmp_path / "adj_one")
        out_4 = str(tmp_path / "adj_split")
        write_adjacency(g, out_1, num_buckets=2, splits_per_bucket=1)
        man = write_adjacency(g, out_4, num_buckets=2, splits_per_bucket=4)
        assert man["splits_per_bucket"] == 4
        # several distinct shard files exist (the whole point: no
        # single-task whole-bucket sort), each internally sorted
        n_files = 0
        for f in publish.paths(out_4, man, "data"):
            t = pq.read_table(f)
            rows = list(
                zip(*(t[c].to_pylist() for c in ("subj", "pred", "obj")))
            )
            assert rows == sorted(rows)
            n_files += 1
        assert n_files > 2
        # same total content as the unsplit layout
        whole_1 = sorted(
            pq.read_table(os.path.join(out_1, "data")).to_pylist(),
            key=lambda r: (r["subj"], r["pred"], r["obj"]),
        )
        whole_4 = sorted(
            pq.read_table(os.path.join(out_4, "data")).to_pylist(),
            key=lambda r: (r["subj"], r["pred"], r["obj"]),
        )
        assert whole_1 == whole_4
        # pruned per-subject reads agree between the layouts
        for s in ("hub", "n3", "n17", "nope"):
            r1 = sorted(map(str, read_adjacency(out_1, s).take_all()))
            r4 = sorted(map(str, read_adjacency(out_4, s).take_all()))
            assert r1 == r4

    def test_lookup_with_hostile_doc_id(self, tmp_path):
        """doc_ids are arbitrary vault paths: quotes, backslashes and
        newlines must round-trip through the bucketed lookup (the
        filter is a pc.equal kernel, never an interpolated expr)."""
        from obsidian_parser_ray import build_graph, read_adjacency, write_adjacency
        from obsidian_parser_ray.sources import from_markdown_items

        evil = "we'ird\"note\\x"
        docs = from_markdown_items([(evil, "[[plain]]"), ("plain", "body")])
        out = str(tmp_path / "adj3")
        g = build_graph(docs, include_child_of=False)
        write_adjacency(g, out, num_buckets=2)
        rows = read_adjacency(out, evil).take_all()
        assert {(r["subj"], r["obj"]) for r in rows} == {(evil, "plain")}
        assert read_adjacency(out, "no'such").take_all() == []

    def test_readers_equal_full_table_filter(self, tmp_path, ray_session):
        """Both adjacency readers return exactly the rows of a
        ``pc.equal`` filter over the whole ``data/`` table (files in
        manifest order), row order included: every subject of the
        split-1 and split-4 layouts, a hostile id, a subject whose
        bucket has no file and one whose shard file lacks it.  A shard
        the manifest lists but whose file is gone raises."""
        import os

        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from obsidian_parser_ray import build_graph
        from obsidian_parser_ray.hashing import hash64_scalar
        from obsidian_parser_ray.pipelines.graph import (
            _ADJ_SCHEMA,
            read_adjacency,
            read_adjacency_many,
            write_adjacency,
        )
        from obsidian_parser_ray.sources import from_markdown_items
        from obsidian_parser_ray.state import publish

        evil = "we'ird\"note\\x"
        docs = from_markdown_items(
            [
                (f"n{i}", f"[[n{(i * 7 + 1) % 23}]] x [[n{(i * 3 + 2) % 23}]] [[hub]]")
                for i in range(23)
            ]
            + [("hub", "[[n0]]"), (evil, "[[hub]] [[n1]]")]
        )
        g = build_graph(docs, include_child_of=False)

        def shard_file(man, b, s):
            # the shard's one live file, relative to data/
            (rel,) = publish.live(man, "data",
                                  [b * man["splits_per_bucket"] + s])
            return os.path.relpath(rel, "data")

        no_file_seen = 0
        for nb, splits in ((2, 1), (2, 4), (16, 1)):
            out = str(tmp_path / f"adj_{nb}_{splits}")
            man = write_adjacency(g, out, num_buckets=nb,
                                  splits_per_bucket=splits)
            data = os.path.join(out, "data")
            parts = [(p["bucket"], p["split"]) for p in man["partitions"]]
            on_disk = sorted(os.path.relpath(os.path.join(r, f), data)
                             for r, _, fs in os.walk(data) for f in fs)
            assert on_disk == sorted(shard_file(man, *p) for p in parts)
            whole = pa.concat_tables(
                pq.read_table(os.path.join(data, shard_file(man, *p)),
                              partitioning=None) for p in parts)

            def shard_of(s):
                h = hash64_scalar(s)
                return (h % nb, h // nb % splits)

            subjects = sorted(set(whole["subj"].to_pylist()))
            assert evil in subjects
            absent = [f"nope{i}" for i in range(200)]
            in_file = next(s for s in absent if shard_of(s) in parts)
            no_file = [s for s in absent if shard_of(s) not in parts][:1]
            no_file_seen += len(no_file)
            probes = subjects + [in_file, "no'such"] + no_file
            for s in probes:
                want = whole.filter(
                    pc.equal(whole["subj"], pa.scalar(s, pa.string())))
                got = read_adjacency(out, s)
                assert got.schema().names == _ADJ_SCHEMA.names
                assert got.take_all() == want.to_pylist(), s

            many = read_adjacency_many(out, probes + probes[::-2])
            assert many.schema == _ADJ_SCHEMA
            assert many.to_pylist() == whole.filter(
                pc.is_in(whole["subj"], value_set=pa.array(probes))
            ).to_pylist()
            assert many.num_rows == whole.num_rows > 0
            empty = read_adjacency_many(out, [])
            assert empty.schema == _ADJ_SCHEMA and empty.num_rows == 0
        assert no_file_seen  # the 16-bucket layout leaves buckets empty

        # on the last (16-bucket) layout: listed in the manifest, file
        # gone (a lookup inside write_adjacency's replace) — raise,
        # never an empty answer
        gone = parts[-1]
        victim = next(s for s in subjects if shard_of(s) == gone)
        os.remove(os.path.join(data, shard_file(man, *gone)))
        with pytest.raises(FileNotFoundError):
            read_adjacency(out, victim)
        with pytest.raises(FileNotFoundError):
            read_adjacency_many(out, ["hub", victim])
        other = next(s for s in subjects if shard_of(s) != gone)
        assert read_adjacency(out, other).take_all() == whole.filter(
            pc.equal(whole["subj"], pa.scalar(other, pa.string()))
        ).to_pylist()

    def test_lookup_starts_no_dataset_execution(self, tmp_path,
                                                ray_session, monkeypatch):
        """Both readers work on the caller: no Ray Data execution
        starts until the returned Dataset is consumed."""
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        from obsidian_parser_ray import build_graph
        from obsidian_parser_ray.pipelines.graph import (
            read_adjacency,
            read_adjacency_many,
            write_adjacency,
        )
        from obsidian_parser_ray.sources import from_markdown_items

        docs = from_markdown_items(
            [("a", "[[b]]"), ("b", "[[a]] [[c]]"), ("c", "leaf")])
        out = str(tmp_path / "adj_exec")
        write_adjacency(build_graph(docs, include_child_of=False), out,
                        num_buckets=4)
        calls = []
        real_execute = StreamingExecutor.execute

        def counting(executor, *a, **kw):
            calls.append(1)
            return real_execute(executor, *a, **kw)

        monkeypatch.setattr(StreamingExecutor, "execute", counting)
        ds = read_adjacency(out, "b")
        assert len(calls) == 0
        many = read_adjacency_many(out, ["a", "b", "missing"])
        assert len(calls) == 0
        assert many.num_rows == 3
        rows = ds.take_all()
        assert len(calls) == 1
        assert {(r["subj"], r["obj"]) for r in rows} == {("b", "a"), ("b", "c")}


class TestShuffleJoinEmptyPartitions:
    def test_dict_only_partitions_do_not_crash(self):
        """num_partitions >> mentions → most partitions hold only
        dictionary rows; the empty-mention branch must return a typed
        empty edges table, not crash."""
        import ray.data as rd

        from obsidian_parser_ray.corpus import spans_from_raw, spans_table
        from obsidian_parser_ray.stages.extract import extract_mentions_and_dict
        from obsidian_parser_ray.stages.linking import link_combined_shuffle

        docs = rd.from_arrow(
            spans_table([("a", spans_from_raw("[[b]]")), ("b", spans_from_raw("x"))])
        ).materialize()
        edges = link_combined_shuffle(
            extract_mentions_and_dict(docs).materialize(), num_partitions=32
        ).take_all()
        assert [(e["subj"], e["obj"]) for e in edges] == [("a", "b")]


class TestKgJobCli:
    """scripts/kg_job.py end-to-end in a fresh process (ray job submit
    entry-point contract)."""

    def test_cli_roundtrip(self, tmp_path):
        import json
        import subprocess
        import sys

        import pyarrow.parquet as pq

        from obsidian_parser_ray.corpus import spans_from_raw, spans_table

        rows = [
            (f"n{i}", spans_from_raw(f"---\nid: {i}\n---\nBody [[n{(i + 1) % 20}]]"))
            for i in range(20)
        ]
        inp = str(tmp_path / "docs.parquet")
        pq.write_table(spans_table(rows), inp)
        out = str(tmp_path / "kg")
        p = subprocess.run(
            [sys.executable, "scripts/kg_job.py", "--input", inp, "--output", out,
             "--streaming", "--output-partitions", "2"],
            capture_output=True, text=True, timeout=240, cwd="/root/repo",
        )
        assert p.returncode == 0, p.stderr[-1500:]
        report = json.loads(
            [l for l in p.stdout.splitlines() if l.startswith("{")][-1]
        )
        assert report["nodes"] == 20 and report["triples"] == 20
        assert report["partitions"]["triples"] == 2
