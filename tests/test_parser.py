"""Golden parser-parity tests (reference test matrix, SURVEY.md §5).

Every case is an inline constant lifted from the reference's own tests
(/root/reference/src/note/parser.rs:78-169, note_read.rs:75-91,
note_tags.rs:72-83, note_aliases.rs:102-103, note_is_todo.rs:41-42).
"""

from __future__ import annotations

import pytest

from obsidian_parser_ray.parser import (
    NotFoundCloser,
    all_tags,
    byte_count,
    frontmatter_aliases,
    is_todo,
    note_name,
    parent_of,
    parse_inline_tags,
    parse_links,
    parse_note,
    parse_properties,
    render_note,
    word_count,
)


class TestParseNote:
    def test_body_contains_delimiter(self):
        # note_read.rs:75-81 — closing `---` is a substring search; later
        # `---` stays in the body.
        p = parse_note(
            "---\ntopic: life\ncreated: 2025-03-16\n---\nTest data\n---\nTwo test data"
        )
        assert p.properties == "topic: life\ncreated: 2025-03-16"
        assert p.content == "Test data\n---\nTwo test data"

    def test_without_frontmatter_verbatim(self):
        # note_read.rs:109-118
        assert parse_note("TEST_DATA") == ("TEST_DATA", None)

    def test_unclosed_raises(self):
        # parser.rs:119-125
        with pytest.raises(NotFoundCloser):
            parse_note("---\n")
        with pytest.raises(NotFoundCloser):
            parse_note("---")

    def test_space_prefixed_open_is_not_frontmatter(self):
        # parser.rs:138-143 — first line trim_END only
        p = parse_note("  ---\ntest: test-data\n---\n")
        assert p.properties is None

    def test_crlf_and_trailing_whitespace(self):
        # parser.rs:145-158
        p = parse_note("---\r\nproperties data\r\n---\r   \ntest data")
        assert p.properties == "properties data"
        assert p.content == "test data"

    @pytest.mark.parametrize("raw", ["test_data---", "---properties data"])
    def test_inline_dashes_not_frontmatter(self, raw):
        # parser.rs:106-117,127-134
        assert parse_note(raw).properties is None

    def test_unicode(self):
        # note_read.rs:89,142-152
        p = parse_note("---\ndata: 💩\n---\nSuper data 💩💩💩")
        assert p.properties == "data: 💩"
        assert p.content == "Super data 💩💩💩"

    def test_empty_frontmatter(self):
        p = parse_note("---\n---\nbody")
        assert p.properties == ""
        assert p.content == "body"


class TestParseLinks:
    def test_link_format_matrix(self):
        # parser.rs:160-169 — all five formats resolve to "Note"
        text = (
            "[[Note]] [[Note|Alias]] [[Note^block]] "
            "[[Note#Heading|Alias]] [[Note^block|Alias]]"
        )
        ms = parse_links(text)
        assert [m.target_key for m in ms] == ["Note"] * 5
        # occurrence order preserved
        assert [m.start for m in ms] == sorted(m.start for m in ms)

    def test_doc_example(self):
        # parser.rs:14-20
        ms = parse_links("[[Physics]] and [[Math|Mathematics]]")
        assert [m.target_key for m in ms] == ["Physics", "Math"]

    def test_overlapping(self):
        # match_indices overlap behavior (SURVEY.md §7.5)
        ms = parse_links("[[a [[b]]")
        assert [m.target_key for m in ms] == ["a [[b", "b"]

    def test_unmatched_dropped(self):
        assert parse_links("[[x") == []
        assert parse_links("x ]] y") == []

    def test_embed_flag(self):
        ms = parse_links("![[Embed]] then [[plain]]")
        assert [(m.target_key, m.is_embed) for m in ms] == [
            ("Embed", True),
            ("plain", False),
        ]

    def test_duplicates_kept(self):
        ms = parse_links("[[A]] [[A]]")
        assert [m.target_key for m in ms] == ["A", "A"]

    def test_inner_trimmed(self):
        assert parse_links("[[  Note  ]]")[0].target_key == "Note"


class TestTags:
    def test_golden_vector(self):
        # note_tags.rs:72-83
        content = (
            "SameData #super_tag ##no_tag and #warning_tag! #two-tag "
            "#kek;d #dfds# #all, #татар #d😭"
        )
        assert parse_inline_tags(content) == [
            "super_tag",
            "warning_tag",
            "two-tag",
            "kek",
            "dfds",
            "all",
            "татар",
            "d😭",
        ]

    def test_frontmatter_first_then_content_order(self):
        # note_tags.rs:60
        props, err = parse_properties("tags:\n- my_tag")
        assert err is None
        assert all_tags(props, "SameData #super_tag") == ["my_tag", "super_tag"]

    def test_lone_hash_dropped(self):
        assert parse_inline_tags("# #") == []

    def test_singleton_emoji_property(self):
        """Exact Emoji-property table: singleton codepoints (©, ®, ™,
        ‼, ℹ) are emoji; lookalike arrows/symbols outside the property
        (↚ U+219A, ↛ U+219B) are NOT — they terminate the tag (the old
        approximate block ranges wrongly accepted them)."""
        assert parse_inline_tags("#c© #r® #t™ #b‼ #i ℹ") == [
            "c©", "r®", "t™", "b‼", "i",
        ]
        assert parse_inline_tags("#cut↚tail #also↛x") == ["cut", "also"]
        # keycap base characters * and digits are in the property
        assert parse_inline_tags("#star* #num5") == ["star*", "num5"]
        # '#' itself is in the property but excluded by the caller
        # (note_tags.rs:40-41) — it still terminates a tag
        assert parse_inline_tags("#a#b") == ["a"]

    def test_no_tags(self):
        assert parse_inline_tags("plain text") == []


class TestPropertiesAliasesTodo:
    def test_aliases_present_absent(self):
        # note_aliases.rs:102-103
        assert frontmatter_aliases(parse_properties("aliases:\n- my_alias")[0]) == [
            "my_alias"
        ]
        assert frontmatter_aliases(parse_properties("tags:\n- todo")[0]) == []
        assert frontmatter_aliases(None) == []

    def test_strict_vec_string_parity(self):
        """serde_yml from_value::<Vec<String>>? fails the note on a
        non-string item or non-sequence value (note_tags.rs:36,
        note_aliases.rs:86); the lenient default stringifies scalars."""
        import pytest

        from obsidian_parser_ray.parser import ListTypeError, frontmatter_tags
        from obsidian_parser_ray.stages.extract import parse_doc

        props_num = parse_properties("tags:\n- 42\n- ok")[0]
        # lenient (default): unquoted scalar stringified
        assert frontmatter_tags(props_num) == ["42", "ok"]
        # strict: reference parity — the note fails
        with pytest.raises(ListTypeError):
            frontmatter_tags(props_num, strict=True)
        with pytest.raises(ListTypeError):
            frontmatter_tags(parse_properties("tags: scalar")[0], strict=True)
        with pytest.raises(ListTypeError):
            frontmatter_aliases(parse_properties("aliases:")[0], strict=True)
        # absent key is fine in strict mode (reference None => default)
        assert frontmatter_tags(parse_properties("x: 1")[0], strict=True) == []

        # end to end: strict failure lands in parse_error, note kept
        spans = [{"kind": "frontmatter", "text": "tags:\n- 42", "media_ref": None,
                  "offset": 0},
                 {"kind": "text", "text": "Body #ok", "media_ref": None,
                  "offset": 1}]
        note, mentions = parse_doc("n", spans, strict_lists=True)
        assert note["parse_error"] and "string" in note["parse_error"]
        assert note["tags"] == ["ok"]  # inline tags still extracted
        lenient, _ = parse_doc("n", spans)
        assert lenient["parse_error"] is None
        assert lenient["tags"] == ["42", "ok"]

    def test_todo(self):
        # note_is_todo.rs:41-42
        assert is_todo(["todo"]) is True
        assert is_todo(["not_todo"]) is False

    def test_broken_yaml_reports_error(self):
        # note_read.rs:83-87
        props, err = parse_properties("    asdfv:--fs\n    sfsf\n    ---\n    TestData")
        assert props is None and err is not None

    def test_non_mapping_rejected(self):
        props, err = parse_properties("- a\n- b")
        assert props is None and err is not None

    def test_empty_frontmatter_is_empty_mapping(self):
        props, err = parse_properties("")
        assert props == {} and err is None


class TestScalars:
    def test_word_count(self):
        # mod.rs:100-103
        assert word_count("a  b\tc\n d") == 4
        assert word_count("") == 0

    def test_byte_count_not_chars(self):
        # mod.rs:119-122 — bytes
        assert byte_count("💩") == 4
        assert byte_count("abc") == 3

    def test_note_name_and_parent(self):
        assert note_name("data/main") == "main"
        assert note_name("main") == "main"
        assert parent_of("a/b/c") == "a/b"
        assert parent_of("solo") is None

    def test_render_roundtrip(self):
        # note_write.rs:81-90
        raw = render_note("body", "k: v")
        assert raw == "---\nk: v\n---\nbody"
        p = parse_note(raw)
        assert p == ("body", "k: v")
        assert render_note("body", None) == "body"


class TestFastFrontmatterParity:
    """The trivial-frontmatter fast path must return EXACTLY what
    libyaml returns, or decline (None) and fall back — asserted over
    the resolver minefield (octal-looking ints, bool words, dates,
    floats, quotes, lists, nesting)."""

    CASES = [
        "id: 123",
        "id: 0",
        "id: -45",
        "key: value",
        "a: hello world",
        "x: file007",
        "x: v1.2.3",
        "x: a_b-c.d/e",
        "a: one\nb: 2\n\nc: three",
        "name: On_call",  # letter-led, not the bool word
        # below must all FALL BACK (fast path declines)
        "id: 007",          # YAML 1.1 octal
        "id: +7",
        "id: 0x1A",
        "flag: yes",
        "flag: Off",
        "v: null",
        "f: 1.5",
        "d: 2024-01-02",    # timestamp resolver
        "q: 'quoted'",
        'q: "dq"',
        "t: a: b",
        "l: [1, 2]",
        "tags:\n  - a\n  - b",
        "k:\tv",
        "c: has # comment",
        "e: &anchor v",
        "s: 1:30",          # sexagesimal
        "u: ~",
        "n: .inf",
        "empty:",
        "- item",
        ": odd",
    ]

    def test_fast_path_matches_yaml(self):
        import yaml as _y

        from obsidian_parser_ray.parser import (
            _YAML_LOADER,
            _parse_properties_fast,
            parse_properties,
        )

        for text in self.CASES:
            fast = _parse_properties_fast(text)
            try:
                # the SAME loader production uses (libyaml CSafeLoader
                # accepts a few inputs the pure-python loader rejects,
                # e.g. tab after the colon)
                ref = _y.load(text, Loader=_YAML_LOADER)
            except Exception:
                ref = "<error>"
            if fast is not None:
                assert ref == fast, f"fast path diverged on {text!r}: {fast} vs {ref}"
            # parse_properties end-to-end equals the pure-yaml result
            got, err = parse_properties(text)
            if ref == "<error>":
                assert got is None and err is not None, text
            elif ref is None:
                assert got == {} and err is None, text
            elif not isinstance(ref, dict):
                assert got is None and err == "yaml: not a mapping", text
            else:
                assert got == ref and err is None, text

    def test_duplicate_keys_last_wins(self):
        import yaml as _y

        from obsidian_parser_ray.parser import parse_properties

        text = "k: 1\nk: 2"
        got, err = parse_properties(text)
        assert err is None and got == _y.safe_load(text)
