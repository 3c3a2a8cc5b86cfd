"""Differential tests: stages/scan.py (flat-buffer mention scanner)
must reproduce the parse_doc per-doc loop ROW FOR ROW — same mention
tuples, same occurrence_idx assignment, same aliases — on golden
parser cases, adversarial span layouts, and seeded random corpora.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from obsidian_parser_ray.stages.extract import parse_doc
from obsidian_parser_ray.stages.scan import (
    note_names_array,
    scan_mentions_batch,
)


def make_batch(docs: list[tuple[str, list[dict]]]) -> pa.Table:
    span_t = pa.struct([
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ])
    return pa.table({
        "doc_id": pa.array([d for d, _ in docs], pa.string()),
        "spans": pa.array([s for _, s in docs], pa.list_(span_t)),
    })


def sp(kind, text="", media_ref=None, offset=0):
    return {"kind": kind, "text": text, "media_ref": media_ref,
            "offset": offset}


def oracle_rows(batch, *, strict_lists=False):
    ids = batch["doc_id"].to_pylist()
    spans = batch["spans"].to_pylist()
    rows, als = [], []
    for r, (d, s) in enumerate(zip(ids, spans)):
        attrs, ms = parse_doc(
            d, s or [], strict_lists=strict_lists, with_attrs=False
        )
        als.append(attrs["aliases"])
        rows += [
            (r, m["kind"], m["target_key"], m["raw_text"],
             m["span_offset"], m["occurrence_idx"])
            for m in ms
        ]
    return rows, als


def scan_rows(batch, *, strict_lists=False):
    cols, als = scan_mentions_batch(batch, strict_lists=strict_lists)
    rows = list(zip(
        cols["doc_row"].tolist(), cols["kind"], cols["target_key"],
        cols["raw_text"], [int(x) for x in cols["span_offset"]],
        [int(x) for x in cols["occurrence_idx"]],
    ))
    return rows, als


def assert_parity(batch, **kw):
    o_rows, o_als = oracle_rows(batch, **kw)
    s_rows, s_als = scan_rows(batch, **kw)
    assert s_rows == o_rows
    assert s_als == o_als


class TestGoldenLinks:
    def test_link_format_matrix(self):
        # parser.rs:160-169 matrix — every form resolves to "Note"
        text = ("[[Note]] [[Note|Alias]] [[Note^block]] "
                "[[Note#Heading|Alias]] [[Note^block|Alias]]")
        assert_parity(make_batch([("a", [sp("text", text)])]))

    def test_embeds_and_overlap(self):
        assert_parity(make_batch([
            ("a", [sp("text", "![[img.png]] and [[a [[b]] tail")]),
            ("b", [sp("text", "[[[x]] [[[[y]] ]]z[[ w ]]")]),
            ("c", [sp("text", "[[unclosed and ]] before [[ok]]")]),
            ("d", [sp("text", "[[]] empty [[  ]] spaces")]),
        ]))

    def test_closer_not_in_same_span_drops(self):
        assert_parity(make_batch([
            ("a", [sp("text", "open [[never", offset=0),
                   sp("text", "closes]] here", offset=1)]),
        ]))

    def test_bracket_runs_parity(self):
        for s in ("[", "[[", "[[[", "[[[[", "[[[[[", "]]]", "[]][[]]"):
            assert_parity(make_batch([("a", [sp("text", f"x {s}y]] z")])]))


class TestGoldenTags:
    def test_tag_golden_vector(self):
        text = ("#super_tag ##no_tag #warning_tag! #two-tag #kek;d "
                "#dfds# #all, #татар #d😭 plain")
        assert_parity(make_batch([("a", [sp("text", text)])]))

    def test_tag_and_links_ordering_within_span(self):
        # links of a span come before its tags, across multiple spans
        assert_parity(make_batch([
            ("a", [sp("text", "#t1 [[L1]] #t2", offset=0),
                   sp("text", "[[L2]] #t3", offset=1)]),
        ]))


class TestFrontmatterAndMedia:
    def test_fm_tags_aliases(self):
        fm = "tags:\n  - alpha\n  - beta\naliases:\n  - Al\n"
        assert_parity(make_batch([
            ("a", [sp("frontmatter", fm, offset=0),
                   sp("text", "[[x]] #inline", offset=1)]),
        ]))

    def test_fm_strict_vs_lenient(self):
        fm = "tags:\n  - 7\naliases:\n  - 8\n"
        b = make_batch([("a", [sp("frontmatter", fm)])])
        assert_parity(b, strict_lists=False)
        assert_parity(b, strict_lists=True)

    def test_first_fm_wins_and_offset_order(self):
        assert_parity(make_batch([
            ("a", [sp("frontmatter", "tags: [two]", offset=5),
                   sp("frontmatter", "tags: [one]", offset=1)]),
        ]))

    def test_media_after_text_regardless_of_offset(self):
        assert_parity(make_batch([
            ("a", [sp("media", media_ref="m1", offset=0),
                   sp("text", "[[x]]", offset=1),
                   sp("media", media_ref="m0", offset=2)]),
        ]))

    def test_yaml_error_yields_no_fm_mentions(self):
        assert_parity(make_batch([
            ("a", [sp("frontmatter", "tags: [unclosed"),
                   sp("text", "#still_works")]),
        ]))


class TestShapes:
    def test_empty_docs_and_null_spans(self):
        span_t = pa.struct([
            ("kind", pa.string()), ("text", pa.string()),
            ("media_ref", pa.string()), ("offset", pa.int32()),
        ])
        batch = pa.table({
            "doc_id": pa.array(["a", "b", "c"], pa.string()),
            "spans": pa.array([[], None, [sp("text", "[[x]]")]],
                              pa.list_(span_t)),
        })
        assert_parity(batch)

    def test_offset_ties_stable_by_list_position(self):
        assert_parity(make_batch([
            ("a", [sp("text", "[[first]]", offset=3),
                   sp("text", "[[second]]", offset=3)]),
        ]))

    def test_note_names_array(self):
        ids = pa.array(["a", "dir/b", "x/y/z"], pa.string())
        assert note_names_array(ids).to_pylist() == ["a", "b", "z"]


class TestFuzzDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_corpora(self, seed):
        rng = np.random.default_rng(seed)
        frag = ["[[", "]]", "![[", "#", "##", "w", " ", "\n", "|", "^",
                "#t-g!", "[[N|A]]", "x]]y", "[", "]", "тэг", "😭", "\t",
                "#тег", "a#b", "[[ s ]]", "!", "e[[f"]
        docs = []
        for d in range(40):
            spans = []
            n_spans = rng.integers(0, 5)
            offsets = rng.permutation(int(n_spans) + 2)[: n_spans]
            for j in range(int(n_spans)):
                kind = rng.choice(
                    ["text", "text", "text", "frontmatter", "media"]
                )
                if kind == "text":
                    txt = "".join(
                        rng.choice(frag, rng.integers(0, 30))
                    )
                    spans.append(sp("text", txt, offset=int(offsets[j])))
                elif kind == "frontmatter":
                    fm = rng.choice([
                        "tags: [a, b]", "aliases: [Q]", "k: v",
                        "tags: [unclosed", "tags:\n  - x\naliases:\n  - y",
                    ])
                    spans.append(
                        sp("frontmatter", str(fm), offset=int(offsets[j]))
                    )
                else:
                    spans.append(sp(
                        "media", media_ref=f"m{d}_{j}",
                        offset=int(offsets[j]),
                    ))
            docs.append((f"d/{d}", spans))
        assert_parity(make_batch(docs))
        assert_parity(make_batch(docs), strict_lists=True)
