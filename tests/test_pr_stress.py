"""P/R stress harness: edge-case-rich vault, distributed pipeline vs
the sequential pure-Python oracle (north rule: P/R ≥ 0.95; a correct
engine scores 1.0).

Edge cases covered (reference tests, SURVEY.md §5):
CRLF frontmatter, `---` inside the body, space-prefixed first line (no
frontmatter), unclosed frontmatter (skip-errors path), overlapping
``[[a [[b]]``, link format matrix, emoji/unicode tags, duplicate stems
across directories, aliases, media spans, empty notes.
"""

from collections import Counter

import ray.data as rd

from obsidian_parser_ray import build_graph
from obsidian_parser_ray.corpus import spans_from_raw, spans_table, make_span
from obsidian_parser_ray.oracle import oracle_graph, precision_recall
from obsidian_parser_ray.parser import NotFoundCloser


RAW_DOCS = [
    ("plain", "Just text [[target]] done."),
    ("target", "#tag1 content"),
    ("crlf", "---\r\nid: 1\r\ntags:\r\n- cr\r\n---\r\nbody [[plain]]"),
    ("dashes", "---\nid: 2\n---\nbody with --- inside [[target]]"),
    ("spacefm", "  ---\nnot frontmatter, still body #kek;d [[plain|alias text]]"),
    ("overlap", "[[a [[b]] trailing"),
    ("b", "i am b"),
    ("matrix", "[[Note]] [[Note|Alias]] [[Note^block]] [[Note#h|A]] [[Note^b|A]] ![[Note]]"),
    ("Note", "the note"),
    ("emoji", "#татар #d😭 #two-tag ##rejected #warning_tag! text"),
    ("dup/plain", "duplicate stem of plain [[missing_link]]"),
    ("aliased", "---\naliases:\n- nickname\n---\ncontent"),
    ("linker", "see [[nickname]] and [[dup/plain]] and [[nope/nope]]"),
    ("empty", ""),
    ("unicode", "---\nid: 💩\n---\n💩 content [[emoji]]"),
]


def _span_rows():
    rows = []
    for doc_id, raw in RAW_DOCS:
        try:
            spans = spans_from_raw(raw)
        except NotFoundCloser:
            continue
        rows.append((doc_id, spans))
    # one doc with media spans + interleaved text spans
    rows.append(
        (
            "mixed/media",
            [
                make_span("frontmatter", "tags:\n- media", offset=0),
                make_span("text", "intro [[plain]]", offset=1),
                make_span("media", media_ref="assets/a.png", offset=2),
                make_span("text", "outro #endtag", offset=3),
                make_span("media", media_ref="assets/b.mp3", offset=4),
            ],
        )
    )
    return rows


def test_unclosed_frontmatter_raises():
    import pytest

    with pytest.raises(NotFoundCloser):
        spans_from_raw("---\nnever closed")


def test_pr_one_point_zero(ray_session):
    rows = _span_rows()
    docs = rd.from_arrow(spans_table(rows))
    for directed in (True, False):
        g = build_graph(docs, directed=directed)
        actual = Counter(
            {
                (r["subj"], r["pred"], r["obj"]): r["weight"]
                for r in g.triples.take_all()
            }
        )
        _, expected = oracle_graph(rows, directed=directed)
        pr = precision_recall(actual, expected)
        assert pr["precision"] == 1.0, pr
        assert pr["recall"] == 1.0, pr
        assert pr["weighted_exact"] == 1.0, pr


def test_pr_shuffle_join_path(ray_session):
    """The J1 shuffle topology scores identically."""
    from obsidian_parser_ray.stages.canonicalize import canonicalize
    from obsidian_parser_ray.stages.extract import extract_mentions_and_dict
    from obsidian_parser_ray.stages.linking import (
        child_of_edges,
        link_combined_shuffle,
    )

    rows = _span_rows()
    docs = rd.from_arrow(spans_table(rows)).materialize()
    edges = link_combined_shuffle(
        extract_mentions_and_dict(docs).materialize(), num_partitions=3
    )
    tri = canonicalize(edges.union(child_of_edges(docs)))
    actual = Counter(
        {(r["subj"], r["pred"], r["obj"]): r["weight"] for r in tri.take_all()}
    )
    _, expected = oracle_graph(rows)
    pr = precision_recall(actual, expected)
    assert pr["precision"] == 1.0 and pr["recall"] == 1.0, pr
