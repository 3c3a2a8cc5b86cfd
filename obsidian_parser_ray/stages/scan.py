"""Vectorized mention scanner — the flat-column twin of
``parse_doc``'s mention path (``stages/extract.py``), used only by the
streaming build's combined extract
(``extract.extract_mentions_and_dict``).  Full note attributes come
from the ``parse_doc`` loop alone (``extract.ExtractNotes``).

``parse_doc`` materializes every span as a Python dict and walks every
text string with ``str.find`` — measured ~60% of link-path extract CPU
(39% parse_links, ~22% span ``to_pylist``), and at 12+ workers the
Python-object churn is what saturates the single-host memory bus
(BASELINE.md r4 decomposition).  This module scans the WHOLE batch's
span text as one numpy byte array straight out of the Arrow buffer:

* wikilink openers: ``str::match_indices("[[")`` non-overlap semantics
  reproduced by run-length parity over ``[``-runs (a run of k ``[``
  yields openers at even in-run offsets), runs broken at span
  boundaries;
* closers: ``find("]]")`` = next ``]]`` candidate at ``>= opener+2``
  via one ``searchsorted`` into the global closer-candidate array,
  rejected when it falls in a different span (reference drops the
  mention, parser.rs:21-37);
* target cut: first of ``# ^ |`` inside the inner slice — three
  ``searchsorted`` probes (sequential-split semantics reduce to the
  positional min);
* inline tags: spans without a ``#`` byte are skipped via a cumsum
  prefilter; only ``#``-bearing spans pay the Python tag walker
  (unicode emoji char-class — ``parser._tag_char_ok``);
* frontmatter: YAML stays per-doc Python (inherent), but only the
  per-doc FIRST frontmatter span is ever materialized.

Per-MENTION work (slicing ~10 small strings per doc) stays Python —
mentions are orders of magnitude rarer than text bytes, and all slice
boundaries sit on ASCII anchors so byte slices are always valid UTF-8.

Row-for-row parity with the ``parse_doc`` loop (same mention rows,
same ``occurrence_idx`` assignment: frontmatter tags, then per
offset-ordered text span links-then-tags, then offset-ordered media)
is asserted against ``parse_doc(with_attrs=False)`` by a differential
test over adversarial span tables (``tests/test_scan.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..parser import (
    ListTypeError,
    _TAG_WORD_RE,
    _tag_char_ok,
    frontmatter_aliases,
    frontmatter_tags,
    parse_properties,
)

_INF = np.iinfo(np.int64).max


def _string_bytes(arr: pa.Array):
    """Compact StringArray → (data uint8 view, starts, ends int64)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type):
        odt, ow = np.int64, 8
    else:
        odt, ow = np.int32, 4
    bufs = arr.buffers()
    off = np.frombuffer(
        bufs[1], dtype=odt, count=len(arr) + 1, offset=arr.offset * ow
    ).astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8)
    return data, off[:-1], off[1:]


def _rank_within(groups: np.ndarray) -> np.ndarray:
    """Positions grouped-contiguously → 0-based rank inside each group."""
    if len(groups) == 0:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(len(groups), dtype=np.int64)
    new = np.concatenate([[True], groups[1:] != groups[:-1]])
    first = np.maximum.accumulate(np.where(new, idx, 0))
    return idx - first


def scan_mentions_batch(batch: pa.Table, *, strict_lists: bool = False):
    """One batch of ``(doc_id, spans)`` rows → mention arrays +
    dictionary inputs, with no per-doc Python except YAML and
    tag-bearing tokens.

    Returns ``(mention_cols, aliases_list)`` where ``mention_cols`` is
    a dict of numpy/python arrays ``doc_row`` (int64 row index into the
    batch), ``kind``, ``target_key``, ``raw_text`` (python lists),
    ``span_offset`` (int64 np), ``occurrence_idx`` (int64 np) — rows
    ordered exactly like the ``parse_doc`` loop — and ``aliases_list``
    is the per-doc ``aliases`` python list (frontmatter parse product,
    ``[]`` on error, matching ``parse_doc``'s lenient/strict modes).
    """
    n_docs = batch.num_rows
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    lens = pc.fill_null(
        pc.list_value_length(spans), 0
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = spans.flatten()
    span_doc = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    n_spans = len(flat)

    kinds = pc.fill_null(flat.field("kind"), "")
    texts = pc.fill_null(flat.field("text"), "")
    offs = pc.fill_null(flat.field("offset"), 0).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    pos = np.arange(n_spans, dtype=np.int64)

    k_text = pc.equal(kinds, "text").to_numpy(zero_copy_only=False)
    k_fm = pc.equal(kinds, "frontmatter").to_numpy(zero_copy_only=False)
    k_media = pc.equal(kinds, "media").to_numpy(zero_copy_only=False)

    # families of output rows, assembled at the end
    m_doc: list = []       # np arrays of doc rows
    m_kind: list = []      # python lists of kind strings
    m_target: list = []    # python lists / np object
    m_raw: list = []
    m_off: list = []       # np arrays
    m_phase: list = []     # 0 fm-tags, 1 text-span mentions, 2 media
    m_srank: list = []     # processing rank of the span within its doc
    m_sub: list = []       # within a text span: 0 links, 1 tags
    m_within: list = []    # order inside the (span, sub) family

    # --- frontmatter: first fm span per doc, YAML per doc ------------
    fm_idx = np.flatnonzero(k_fm)
    fm_first = np.full(n_docs, -1, dtype=np.int64)
    fm_offset = np.zeros(n_docs, dtype=np.int64)
    if len(fm_idx):
        o = fm_idx[np.lexsort((fm_idx, offs[fm_idx], span_doc[fm_idx]))]
        docs_o = span_doc[o]
        _, first = np.unique(docs_o, return_index=True)
        fm_first[docs_o[first]] = o[first]
        fm_offset[docs_o[first]] = offs[o[first]]
    have_fm = np.flatnonzero(fm_first >= 0)
    aliases_list: list = [[] for _ in range(n_docs)]
    if len(have_fm):
        # null-preserving text take: a frontmatter span with null text
        # parses like an absent block (parse_doc passes the raw value)
        fm_texts = pc.take(
            flat.field("text"), pa.array(fm_first[have_fm])
        ).to_pylist()
        fm_doc_rows, fm_tag_vals, fm_tag_within = [], [], []
        for d, ptxt in zip(have_fm, fm_texts):
            props, _ = parse_properties(ptxt)
            try:
                ftags = frontmatter_tags(props, strict=strict_lists)
                fals = frontmatter_aliases(props, strict=strict_lists)
            except ListTypeError:
                ftags, fals = [], []
            aliases_list[d] = fals
            for j, tg in enumerate(ftags):
                fm_doc_rows.append(d)
                fm_tag_vals.append(tg)
                fm_tag_within.append(j)
        k = len(fm_doc_rows)
        if k:
            m_doc.append(np.array(fm_doc_rows, dtype=np.int64))
            m_kind.append(["tag_frontmatter"] * k)
            m_target.append(fm_tag_vals)
            m_raw.append(list(fm_tag_vals))
            m_off.append(fm_offset[np.array(fm_doc_rows)])
            m_phase.append(np.zeros(k, dtype=np.int64))
            m_srank.append(np.zeros(k, dtype=np.int64))
            m_sub.append(np.zeros(k, dtype=np.int64))
            m_within.append(np.array(fm_tag_within, dtype=np.int64))

    # --- text spans in processing order -------------------------------
    t_idx = np.flatnonzero(k_text)
    if len(t_idx):
        t_order = t_idx[np.lexsort((t_idx, offs[t_idx], span_doc[t_idx]))]
        t_doc = span_doc[t_order]
        t_off = offs[t_order]
        t_rank = _rank_within(t_doc)
        tarr = pc.take(texts, pa.array(t_order))
        if isinstance(tarr, pa.ChunkedArray):
            tarr = tarr.combine_chunks()
        data, starts, ends = _string_bytes(tarr)
        nbytes = int(ends[-1]) if len(ends) else 0
        data = data[:nbytes]
        if nbytes:
            # Only SIMD byte-compare + flatnonzero touch the full
            # buffer; all run/parity/boundary logic runs on the SPARSE
            # candidate arrays (sequential numpy kernels measure only
            # ~100 Mops/s on this VM — a whole-buffer cumsum would
            # cost more than the Python loop it replaces).
            def _is_span_start(p: np.ndarray) -> np.ndarray:
                ss = np.searchsorted(starts, p)
                ok = ss < len(starts)
                out = np.zeros(len(p), dtype=bool)
                out[ok] = starts[ss[ok]] == p[ok]
                return out

            def _pair_heads(positions: np.ndarray) -> np.ndarray:
                """positions of byte c → mask: c at i AND i+1, i+1 in
                the same span (the two-byte token candidates)."""
                if len(positions) < 2:
                    return np.zeros(len(positions), dtype=bool)
                nxt_adj = np.concatenate(
                    [positions[1:] == positions[:-1] + 1, [False]]
                )
                brk = _is_span_start(positions)
                return nxt_adj & ~np.concatenate([brk[1:], [True]])

            lbp = np.flatnonzero(data == 0x5B)  # '['
            openers = np.zeros(0, dtype=np.int64)
            if len(lbp):
                adj_ok = _pair_heads(lbp)
                # non-overlapping match_indices("[[") = even in-run
                # offset; runs of '[' break at non-adjacency or span
                # boundary
                new_run = np.concatenate(
                    [[True], np.diff(lbp) != 1]
                ) | _is_span_start(lbp)
                cidx = np.arange(len(lbp), dtype=np.int64)
                run_first = np.maximum.accumulate(
                    np.where(new_run, cidx, 0)
                )
                openers = lbp[adj_ok & (((cidx - run_first) & 1) == 0)]

            rbp = np.flatnonzero(data == 0x5D)  # ']'
            closers = (
                rbp[_pair_heads(rbp)] if len(rbp) else
                np.zeros(0, dtype=np.int64)
            )

            link_doc, link_tk, link_raw = [], [], []
            link_off, link_rank, link_within = [], [], []
            if len(openers) and len(closers):
                j = np.searchsorted(closers, openers + 2)
                has = j < len(closers)
                o_arr = openers[has]
                q_arr = closers[j[has]]
                o_span = np.searchsorted(ends, o_arr, side="right")
                q_span = np.searchsorted(ends, q_arr, side="right")
                same = o_span == q_span
                o_arr, q_arr, o_span = o_arr[same], q_arr[same], o_span[same]
                if len(o_arr):
                    # '#'/'^'/'|' cut inside the tiny inner slice via
                    # C memchr — a full-buffer position scan per symbol
                    # would cost more than every mention combined
                    for o, q, k in zip(o_arr, q_arr, o_span):
                        inner = data[o + 2:q].tobytes()
                        c = len(inner)
                        for sym in (b"#", b"^", b"|"):
                            p = inner.find(sym, 0, c)
                            if p != -1:
                                c = p
                        link_doc.append(t_doc[k])
                        link_tk.append(
                            inner[:c].decode("utf-8").strip()
                        )
                        link_raw.append(inner.decode("utf-8"))
                        link_off.append(t_off[k])
                        link_rank.append(t_rank[k])
                        link_within.append(o)
                        # kind resolved below via the embed flag
                    embed = (o_arr > starts[o_span]) & (
                        data[np.maximum(o_arr - 1, 0)] == 0x21
                    )
                    kinds_l = np.where(embed, "embed", "link").tolist()
                    k = len(link_doc)
                    m_doc.append(np.array(link_doc, dtype=np.int64))
                    m_kind.append(kinds_l)
                    m_target.append(link_tk)
                    m_raw.append(link_raw)
                    m_off.append(np.array(link_off, dtype=np.int64))
                    m_phase.append(np.ones(k, dtype=np.int64))
                    m_srank.append(np.array(link_rank, dtype=np.int64))
                    m_sub.append(np.zeros(k, dtype=np.int64))
                    m_within.append(np.array(link_within, dtype=np.int64))

            # inline tags: only spans that contain a '#' (Arrow SIMD
            # substring probe per span, no byte-position scan)
            has_hash = pc.match_substring(tarr, "#").to_numpy(
                zero_copy_only=False
            )
            tag_spans = np.flatnonzero(has_hash)
            if len(tag_spans):
                tag_texts = pc.take(
                    tarr, pa.array(tag_spans)
                ).to_pylist()
                g_doc, g_val, g_off2, g_rank, g_within = [], [], [], [], []
                for k, txt in zip(tag_spans, tag_texts):
                    w = 0
                    for rest in _TAG_WORD_RE.findall(txt):
                        if rest[:1] == "#":
                            continue
                        end = len(rest)
                        for i, c in enumerate(rest):
                            if not _tag_char_ok(c):
                                end = i
                                break
                        if end > 0:
                            g_doc.append(t_doc[k])
                            g_val.append(rest[:end])
                            g_off2.append(t_off[k])
                            g_rank.append(t_rank[k])
                            g_within.append(w)
                            w += 1
                k = len(g_doc)
                if k:
                    m_doc.append(np.array(g_doc, dtype=np.int64))
                    m_kind.append(["tag_inline"] * k)
                    m_target.append(g_val)
                    m_raw.append(list(g_val))
                    m_off.append(np.array(g_off2, dtype=np.int64))
                    m_phase.append(np.ones(k, dtype=np.int64))
                    m_srank.append(np.array(g_rank, dtype=np.int64))
                    m_sub.append(np.ones(k, dtype=np.int64))
                    m_within.append(np.array(g_within, dtype=np.int64))

    # --- media spans in processing order ------------------------------
    md_idx = np.flatnonzero(k_media)
    if len(md_idx):
        md_order = md_idx[
            np.lexsort((md_idx, offs[md_idx], span_doc[md_idx]))
        ]
        refs = pc.take(flat.field("media_ref"), pa.array(md_order))
        refs_py = refs.to_pylist()
        k = len(md_order)
        m_doc.append(span_doc[md_order])
        m_kind.append(["media"] * k)
        m_target.append(refs_py)
        m_raw.append(list(refs_py))
        m_off.append(offs[md_order])
        m_phase.append(np.full(k, 2, dtype=np.int64))
        m_srank.append(_rank_within(span_doc[md_order]))
        m_sub.append(np.zeros(k, dtype=np.int64))
        m_within.append(np.zeros(k, dtype=np.int64))

    if not m_doc:
        empty = {
            "doc_row": np.zeros(0, dtype=np.int64),
            "kind": [],
            "target_key": [],
            "raw_text": [],
            "span_offset": np.zeros(0, dtype=np.int64),
            "occurrence_idx": np.zeros(0, dtype=np.int64),
        }
        return empty, aliases_list

    doc = np.concatenate(m_doc)
    phase = np.concatenate(m_phase)
    srank = np.concatenate(m_srank)
    sub = np.concatenate(m_sub)
    within = np.concatenate(m_within)
    off_all = np.concatenate(m_off)
    kind_all = np.array(
        [x for part in m_kind for x in part], dtype=object
    )
    tgt_all = np.array(
        [x for part in m_target for x in part], dtype=object
    )
    raw_all = np.array(
        [x for part in m_raw for x in part], dtype=object
    )

    order = np.lexsort((within, sub, srank, phase, doc))
    doc = doc[order]
    occurrence = _rank_within(doc)
    cols = {
        "doc_row": doc,
        "kind": kind_all[order].tolist(),
        "target_key": tgt_all[order].tolist(),
        "raw_text": raw_all[order].tolist(),
        "span_offset": off_all[order],
        "occurrence_idx": occurrence,
    }
    return cols, aliases_list


def note_names_array(doc_ids: pa.Array) -> pa.Array:
    """Vectorized ``parser.note_name`` (text after the last '/')."""
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    return pc.replace_substring_regex(doc_ids, pattern="^.*/", replacement="")
