"""Text-analysis operators: language ID, quality signals, token
counting, fingerprinting.

Definitions are chosen to be (a) vectorizable per batch and (b) exactly
reproducible by a DuckDB oracle where one exists — integer counts over
whitespace tokenization, md5 fingerprints — so the driver can
hash-compare them.  The language-ID heuristic is model-free (stopword +
character-class evidence) and deterministic; it is a rows-only query.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

# Exact stopword lists shared with the oracle SQL (keep sorted + tiny;
# the oracle embeds the same literals).
STOPWORDS = {
    "en": ("the", "and", "of", "to", "a", "in", "is", "that", "it", "for"),
    "de": ("der", "die", "das", "und", "ist", "nicht", "ein", "mit", "für", "zu"),
    "fr": ("le", "la", "les", "et", "est", "un", "une", "pour", "dans", "que"),
    "es": ("el", "la", "los", "y", "es", "un", "una", "por", "para", "que"),
}

PUNCT = ".,!?;:"

# GPT2-ish BPE pre-tokenizer (public regex shape): contractions, words,
# numbers, punctuation runs, whitespace runs.  re.ASCII pins \d and \s
# to the ASCII classes (RE2 semantics) so the DuckDB oracle reproduces
# token counts exactly even on NBSP / non-ASCII digits.
BPE_SPLIT = re.compile(
    r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-zÀ-ÿЀ-ӿ]+| ?\d+| ?[^\sA-Za-zÀ-ÿЀ-ӿ\d]+|\s+",
    re.ASCII,
)

# ASCII word splitter (RE2 \S+ semantics) for oracle-checkable word
# counts; Python str.split() is Unicode-aware and would diverge on
# NBSP / ideographic space.
_ASCII_WORD = re.compile(r"\S+", re.ASCII)


def _flat_split(col, split_pattern: str, *, pre_lower: bool = False,
                post_ascii_lower: bool = False):
    """Vectorized findall-equivalent tokenizer: ONE Arrow regex split
    over the whole column instead of a per-doc Python ``findall`` loop
    (that loop was the measured constant in every corpus-statistics
    partial — the tokens never need to exist as Python objects).
    ``findall(CLASS+)`` ≡ split on the complement ``[^CLASS]+`` with
    boundary empties dropped (``+`` merges separator runs, so interior
    empties cannot occur).  Returns ``(flat, lens)``: all tokens of
    all rows concatenated in row order (``pa.StringArray``) and
    tokens-per-row (``np.int64``); null rows count 0 tokens.

    ``pre_lower`` lowercases the TEXT before splitting (parity with
    ``findall(x.lower())`` — only sound when lowercasing cannot create
    new separator/token chars, true for ``\\s``); ``post_ascii_lower``
    lowercases the TOKENS after splitting (parity with
    ``[tok.lower() for tok in findall(x)]`` over an ASCII token class
    — lowering first would diverge on unicode chars whose lowercase
    contains ASCII letters, e.g. U+212A → 'k')."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    if pre_lower:
        col = pc.utf8_lower(col)
    if split_pattern == r"\s+":
        # dedicated kernel, measured 8× the RE2 split; same boundary-
        # empty shape, and its ASCII-whitespace class ([ \t\n\v\f\r])
        # matches Python re.ASCII \s exactly (RE2 \s lacks \v — the
        # kernel is the BETTER parity twin of the original findall)
        lists = pc.ascii_split_whitespace(col)
    else:
        lists = pc.split_pattern_regex(col, pattern=split_pattern)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    flat = lists.flatten()
    offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = offsets - offsets[0]
    empty = pc.equal(pc.binary_length(flat), 0)
    emp = empty.to_numpy(zero_copy_only=False)
    cum = np.concatenate([[0], np.cumsum(emp)])
    lens = np.diff(offsets) - (cum[offsets[1:]] - cum[offsets[:-1]])
    flat = flat.filter(pc.invert(empty))
    if post_ascii_lower:
        flat = pc.ascii_lower(flat)
    return flat, lens


def _flat_lower_tokens(col):
    """``_ASCII_WORD.findall(x.lower())`` per row, vectorized — the
    ``\\S+``-over-lowercased-text token universe shared with the
    DuckDB oracles' RE2 ``\\s+`` split."""
    return _flat_split(col, r"\s+", pre_lower=True)


def _flat_alnum_tokens(col):
    """``[tok.lower() for tok in _TERM_RE.findall(x)]`` per row,
    vectorized — the lowercased ASCII-alnum token universe of the
    retrieval/novelty operators."""
    return _flat_split(col, "[^A-Za-z0-9]+", post_ascii_lower=True)



def count_punct(text: str) -> int:
    return sum(text.count(c) for c in PUNCT)


_STOP_SETS = {lang: frozenset(words) for lang, words in STOPWORDS.items()}


def count_stopwords(text: str, lang: str = "en") -> int:
    stops = _STOP_SETS.get(lang, _STOP_SETS["en"])
    return sum(1 for w in _ASCII_WORD.findall(text.lower()) if w in stops)


def ascii_word_count(text: str) -> int:
    r"""ASCII-whitespace word count (== the DuckDB oracle's RE2 \s+
    split with empties filtered)."""
    return sum(1 for _ in _ASCII_WORD.finditer(text))


def bpe_token_count(text: str) -> int:
    """Count of BPE-ish pre-tokens (excluding pure-whitespace tokens)."""
    return sum(1 for t in BPE_SPLIT.findall(text) if not t.isspace())


def rolling_fingerprint(text: str, *, window: int = 4, keep: int = 8) -> int:
    """Winnowing-style document fingerprint: polynomial rolling hash
    over word windows, xor of the ``keep`` smallest window hashes.
    Deterministic, order-sensitive, 63-bit."""
    words = text.split()
    if not words:
        return 0
    hs = []
    for i in range(max(1, len(words) - window + 1)):
        h = 1469598103934665603
        for w in words[i : i + window]:
            for b in w.encode("utf-8"):
                h = ((h ^ b) * 1099511628211) & 0x7FFFFFFFFFFFFFFF
        hs.append(h)
    out = 0
    for h in sorted(hs)[:keep]:
        out ^= h
    return out


def text_profile(ds, *, text_col: str = "text", id_col: str = "doc_id",
                 batch_size: int | None = 512):
    """Per-document integer quality/token profile (oracle-checkable).

    Columns: n_chars (unicode chars), n_bytes, n_words (whitespace),
    n_punct (chars in ``.,!?;:``), n_stop_en (exact lowercase matches
    of the English stopword list), n_bpe_tokens, fingerprint (md5 hex).

    All counting columns are vectorized Arrow kernels; only the BPE
    pre-tokenizer (alternation regex — no complement-split form) and
    the md5 fingerprint remain per-doc Python.
    """
    import pyarrow.compute as pc

    stop_arr = pa.array(sorted(_STOP_SETS["en"]), pa.string())

    def profile(t: pa.Table) -> pa.Table:
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        texts = txt.to_pylist()
        n = t.num_rows
        n_punct = None
        for ch in PUNCT:
            c = pc.count_substring(txt, ch)
            n_punct = c if n_punct is None else pc.add(n_punct, c)
        flat, lens = _flat_lower_tokens(txt)
        n_stop = np.zeros(n, dtype=np.int64)
        if len(flat):
            hit = pc.is_in(flat, value_set=stop_arr).to_numpy(
                zero_copy_only=False
            )
            if hit.any():
                doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
                n_stop = np.bincount(
                    doc_of[hit], minlength=n
                ).astype(np.int64)
        _, n_words = _flat_split(txt, r"\s+")
        return pa.table(
            {
                id_col: t[id_col],
                "n_chars": pc.cast(pc.utf8_length(txt), pa.int64()),
                "n_bytes": pc.cast(pc.binary_length(txt), pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
                "n_punct": pc.cast(n_punct, pa.int64()),
                "n_stop_en": pa.array(n_stop, pa.int64()),
                "n_bpe_tokens": pa.array(
                    [bpe_token_count(x) for x in texts], pa.int64()
                ),
                "fingerprint": pa.array(
                    [hashlib.md5(x.encode("utf-8")).hexdigest() for x in texts],
                    pa.string(),
                ),
            }
        )

    return ds.map_batches(profile, batch_format="pyarrow", batch_size=batch_size)


def quality_score_batch(t: pa.Table, *, text_col: str = "text") -> pa.Table:
    """Heuristic quality score in [0,1]: balanced length, moderate
    punctuation, presence of stopwords (Gopher-style signals).

    Emits both ``quality`` (rounded float, the API value) and
    ``quality_micro`` (``floor(raw_score * 1e6)`` as int64) — the
    integer form is bit-reproducible by the DuckDB oracle (identical
    IEEE-754 op order on both sides, then an exact floor), so the
    driver hash-compares this op end to end.  Word count here is the
    ASCII-whitespace count (RE2 ``\\s+`` parity).

    Vectorized: token/punct/stopword counts are Arrow kernels (the
    same ``_flat_*`` helpers as :func:`text_profile`) and the score
    arithmetic is elementwise float64 numpy — binary64 op-for-op
    identical to the scalar formulation (each step is a single IEEE
    operation per element, in the same order).  Only the final
    ``round(raw, 6)`` stays a scalar loop: Python's float round is
    correctly-rounded decimal, which ``np.round``'s scale-and-round
    is not guaranteed to reproduce in the last ulp."""
    import pyarrow.compute as pc

    txt = t[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    txt = pc.fill_null(txt, "")
    n = t.num_rows

    _, lens = _flat_split(txt, r"\s+")
    nw = np.where(lens == 0, 1, lens).astype(np.float64)

    n_punct = None
    for ch in PUNCT:
        c = pc.count_substring(txt, ch)
        n_punct = c if n_punct is None else pc.add(n_punct, c)
    n_punct = n_punct.to_numpy(zero_copy_only=False).astype(np.float64)
    n_chars = np.maximum(
        1, pc.utf8_length(txt).to_numpy(zero_copy_only=False)
    ).astype(np.float64)

    flat, tlens = _flat_lower_tokens(txt)
    n_stop = np.zeros(n, dtype=np.int64)
    if len(flat):
        stop_arr = pa.array(sorted(_STOP_SETS["en"]), pa.string())
        hit = pc.is_in(flat, value_set=stop_arr).to_numpy(
            zero_copy_only=False
        )
        if hit.any():
            doc_of = np.repeat(np.arange(n, dtype=np.int64), tlens)
            n_stop = np.bincount(doc_of[hit], minlength=n)

    len_score = np.minimum(1.0, nw / 50.0) * np.where(nw < 2000, 1.0, 0.5)
    punct_score = np.where(n_punct / n_chars < 0.1, 1.0, 0.5)
    stop_score = np.minimum(1.0, (n_stop / nw) * 5)
    raw = (len_score + punct_score + stop_score) / 3
    scores = [round(float(r), 6) for r in raw]
    micros = np.floor(raw * 1000000.0).astype(np.int64)
    t = t.append_column("quality", pa.array(scores, pa.float64()))
    return t.append_column(
        "quality_micro", pa.array(micros, pa.int64())
    )


class LangId:
    """Actor-pool language identifier (stopword + char-class evidence).

    State (compiled evidence tables) built once per actor.  Scores each
    language by stopword hits; char-class overrides for scripts
    (CJK → zh, Cyrillic → ru).  Deterministic tie-break by language
    code.  Returns 'und' when no evidence.
    """

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self.tables = {
            lang: frozenset(words) for lang, words in STOPWORDS.items()
        }
        self.cjk = re.compile(r"[一-鿿]")
        self.cyr = re.compile(r"[Ѐ-ӿ]")

    def predict(self, text: str) -> str:
        if self.cjk.search(text):
            return "zh"
        if self.cyr.search(text):
            return "ru"
        # ASCII-whitespace words (RE2 \s+ parity) so the DuckDB oracle
        # reproduces the scores exactly; tie-break = first language in
        # sorted code order with the strictly-highest score
        words = _ASCII_WORD.findall(text.lower())
        best, best_score = "und", 0
        for lang in sorted(self.tables):
            score = sum(1 for w in words if w in self.tables[lang])
            if score > best_score:
                best, best_score = lang, score
        return best

    def __call__(self, t: pa.Table) -> pa.Table:
        # vectorized twin of predict() over the whole batch: one
        # lowered whitespace split, one is_in + bincount per language
        # (value sets are actor state), argmax with predict()'s exact
        # strictly-greater / sorted-code tie-break, then the script
        # overrides as two Arrow RE2 sweeps (CJK wins over Cyrillic,
        # same check order as predict)
        import pyarrow.compute as pc

        txt = t[self.text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        n = t.num_rows
        langs = sorted(self.tables)
        flat, lens = _flat_lower_tokens(txt)
        scores = np.zeros((n, len(langs)), np.int64)
        if len(flat):
            doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
            for j, lang in enumerate(langs):
                hit = pc.is_in(
                    flat,
                    value_set=pa.array(sorted(self.tables[lang]),
                                       pa.string()),
                ).to_numpy(zero_copy_only=False)
                if hit.any():
                    scores[:, j] = np.bincount(doc_of[hit], minlength=n)
        best_idx = scores.argmax(axis=1) if langs else np.zeros(n, np.int64)
        best_score = scores[np.arange(n), best_idx] if langs else np.zeros(n)
        pred = np.array(langs + ["und"], dtype=object)[best_idx]
        pred[best_score == 0] = "und"
        cyr = pc.match_substring_regex(txt, self.cyr.pattern).to_numpy(
            zero_copy_only=False
        )
        cjk = pc.match_substring_regex(txt, self.cjk.pattern).to_numpy(
            zero_copy_only=False
        )
        pred[cyr] = "ru"
        pred[cjk] = "zh"
        return pa.table(
            {
                self.id_col: t[self.id_col],
                "pred_lang": pa.array(list(pred), pa.string()),
            }
        )


def lang_id(ds, *, text_col: str = "text", id_col: str = "doc_id", concurrency=(1, 4),
            batch_size: int | None = 512):
    return ds.map_batches(
        LangId,
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def lang_stats(ds, *, lang_col: str = "lang", text_col: str = "text"):
    """Per-language corpus stats (oracle-checkable integers).

    Pre-aggregated per batch (vectorized Arrow kernels + group_by)
    before the tiny global groupby — the standard partial-aggregate
    pattern with no per-doc Python loop.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        _, words = _flat_split(txt, r"\s+")
        g = (
            pa.table({
                lang_col: t[lang_col],
                "_n": pa.array(np.ones(t.num_rows, np.int64)),
                "_chars": pc.cast(
                    pc.utf8_length(pc.fill_null(txt, "")), pa.int64()
                ),
                "_words": pa.array(words),
            })
            .group_by(lang_col, use_threads=False)
            .aggregate([("_n", "sum"), ("_chars", "sum"),
                        ("_words", "sum")])
        )
        return g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=2048)
        .groupby(lang_col)
        .aggregate(
            Sum("_n", alias_name="n_docs"),
            Sum("_chars", alias_name="total_chars"),
            Sum("_words", alias_name="total_words"),
        )
    )


# ---------------------------------------------------------------------------
# TF-IDF keyword extraction
# ---------------------------------------------------------------------------

# ASCII alnum tokens: RE2-parity with the DuckDB oracle's
# regexp_extract_all(text, '[A-Za-z0-9]+'); tokens are pure ASCII so
# per-token lower() is engine-independent (unlike lower() on the raw
# unicode text)
_TERM_RE = re.compile(r"[A-Za-z0-9]+")


def term_frequencies(ds, *, text_col: str = "text", id_col: str = "doc_id",
                     batch_size: int | None = 512):
    """Explode documents into ``(id, term, tf)`` rows (one per distinct
    lowercased ASCII-alnum token per document).  Fully vectorized: one
    Arrow tokenize (:func:`_flat_alnum_tokens`) + one single-threaded
    Arrow ``group_by`` on (row, term) — no per-doc Python loop."""
    import pyarrow.compute as pc

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        flat, lens = _flat_alnum_tokens(t[text_col])
        doc_of = np.repeat(
            np.arange(t.num_rows, dtype=np.int64), lens
        )
        g = (
            pa.table({"_d": pa.array(doc_of), "term": flat})
            .group_by(["_d", "term"], use_threads=False)
            .aggregate([("term", "count")])
        )
        return pa.table(
            {
                id_col: pc.take(ids, g["_d"]),
                "term": g["term"],
                "tf": pc.cast(g["term_count"], pa.int64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow",
                          batch_size=batch_size)


def tfidf_top_terms(ds, k: int = 3, *, idf: str = "linear",
                    text_col: str = "text", id_col: str = "doc_id",
                    num_partitions: int = 64, batch_size: int | None = 512):
    """Per-document top-k terms by TF-IDF → ``(id, term, tf, df,
    score, rn)``.

    The canonical two-shuffle plan: explode to (id, term, tf), groupby
    term for document frequencies (vocabulary-sized exchange), join tf
    rows back against the unique df table
    (:func:`..joins.hash_join_unique` — one exchange of the tf table),
    then :func:`..ranking.grouped_topk` on the document key.  Nothing
    materializes on the driver; corpus size enters as one scalar.

    ``idf="linear"`` scores ``tf · (n/df)`` — rank-equivalent to the
    log form for a fixed corpus and EXACTLY reproducible across
    engines (IEEE division/multiplication are fully specified; ``ln``
    is libm-dependent, so a log-scored top-k boundary could pick
    different tied terms on different engines).  ``idf="log"`` gives
    the textbook ``tf · ln(n/df)``.
    """
    import pyarrow.compute as pc

    from .joins import hash_join_unique
    from .ranking import grouped_topk

    if idf not in ("linear", "log"):
        raise ValueError(f"idf must be 'linear' or 'log', got {idf!r}")
    tf = term_frequencies(ds, text_col=text_col, id_col=id_col,
                          batch_size=batch_size)
    df_t = tf.groupby("term").count()
    df_t = df_t.map_batches(
        lambda t: pa.table(
            {"term": t["term"], "df": pc.cast(t["count()"], pa.int64())}
        ),
        batch_format="pyarrow",
    )
    n = float(ds.count())

    joined = hash_join_unique(
        tf, df_t, left_key="term", num_partitions=num_partitions
    )

    def score(t: pa.Table) -> pa.Table:
        ratio = pc.divide(
            pa.scalar(n, pa.float64()), pc.cast(t["df"], pa.float64())
        )
        if idf == "log":
            ratio = pc.ln(ratio)
        s = pc.multiply(pc.cast(t["tf"], pa.float64()), ratio)
        return t.append_column("score", s)

    scored = joined.map_batches(score, batch_format="pyarrow")
    return grouped_topk(
        scored, [id_col], "score", k, tiebreak=["term"], rank_col="rn",
        num_partitions=num_partitions,
    )


def repetition_profile(ds, *, text_col: str = "text",
                       id_col: str = "doc_id",
                       batch_size: int | None = 512):
    """Gopher-style repetition/boilerplate signals, all integers so
    the DuckDB twin reproduces them bit-exactly:

    n_lines / n_distinct_lines (split on ``\\n``, empties kept — ==
    ``string_split(text, chr(10))``), n_words / n_distinct_words
    (ASCII ``\\S+`` runs == RE2 ``\\s+`` split with empties dropped),
    and the duplicate fractions as exact integer micros
    (``(total - distinct) * 1e6 // total``; 0 for empty docs).
    High dup_*_micro = boilerplate / template / scraper junk.

    Vectorized: one Arrow split per signal, distinct-per-doc via an
    ``index_in``-coded ``np.unique`` over (doc, code) pairs — no
    per-doc Python loop."""
    import pyarrow.compute as pc

    def _distinct_per_doc(flat, lens, n):
        """tokens-per-row + flat tokens → distinct-tokens-per-row."""
        if len(flat) == 0:
            return np.zeros(n, dtype=np.int64)
        codes = pc.index_in(flat, pc.unique(flat)).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        width = codes.max() + 1
        doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
        pairs = np.unique(doc_of * width + codes)
        return np.bincount(pairs // width, minlength=n).astype(np.int64)

    def profile(t: pa.Table) -> pa.Table:
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        n = t.num_rows
        # lines: literal '\n' split, empties KEPT ('' has 1 line)
        line_lists = pc.split_pattern(pc.fill_null(txt, ""), "\n")
        if isinstance(line_lists, pa.ChunkedArray):
            line_lists = line_lists.combine_chunks()
        flat_lines = line_lists.flatten()
        off = line_lists.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n_lines = np.diff(off - off[0])
        nd_lines = _distinct_per_doc(flat_lines, n_lines, n)
        # words: \S+ runs, NOT lowercased (distinct is case-sensitive)
        flat_words, n_words = _flat_split(txt, r"\s+")
        nd_words = _distinct_per_doc(flat_words, n_words, n)
        dlm = np.where(
            n_lines > 0,
            (n_lines - nd_lines) * 1_000_000 // np.maximum(n_lines, 1),
            0,
        )
        dwm = np.where(
            n_words > 0,
            (n_words - nd_words) * 1_000_000 // np.maximum(n_words, 1),
            0,
        )
        return pa.table({
            id_col: t[id_col],
            "n_lines": pa.array(n_lines, pa.int64()),
            "n_distinct_lines": pa.array(nd_lines, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "n_distinct_words": pa.array(nd_words, pa.int64()),
            "dup_line_micro": pa.array(dlm.astype(np.int64), pa.int64()),
            "dup_word_micro": pa.array(dwm.astype(np.int64), pa.int64()),
        })

    return ds.map_batches(profile, batch_format="pyarrow",
                          batch_size=batch_size)


# ---------------------------------------------------------------------------
# PII redaction (vectorized RE2 rewrite)
# ---------------------------------------------------------------------------

# (pattern, replacement) pairs applied IN ORDER.  Plain-ASCII RE2
# patterns on purpose: pyarrow's replace_substring_regex and DuckDB's
# regexp_replace are both RE2, so the oracle reproduces the rewrite
# byte-for-byte.  Order matters (emails contain digit runs) and is part
# of the operator contract.
DEFAULT_REDACTIONS: tuple[tuple[str, str], ...] = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\b\d{7,}\b", "<NUM>"),
)


def redact_pii(ds, *, text_col: str = "text", id_col: str = "doc_id",
               redactions: tuple[tuple[str, str], ...] = DEFAULT_REDACTIONS):
    """Rewrite PII-shaped substrings to placeholder tokens and count
    what was removed, fully vectorized (one Arrow RE2 kernel pass per
    pattern per batch — no Python per row).

    Output: ``(id_col, clean_text, n_redacted_0..n_redacted_{k-1})``
    where ``n_redacted_i`` counts pattern ``i`` matches BEFORE any
    rewriting (counts are independent of application order; the
    rewrite itself is sequential in the declared order).
    """
    import pyarrow.compute as pc

    def clean(t: pa.Table) -> pa.Table:
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        cols = {id_col: t[id_col]}
        counts = []
        for pat, _ in redactions:
            counts.append(
                pc.cast(pc.count_substring_regex(txt, pattern=pat), pa.int64())
            )
        out = txt
        for pat, rep in redactions:
            out = pc.replace_substring_regex(out, pattern=pat, replacement=rep)
        cols["clean_text"] = out
        for i, c in enumerate(counts):
            cols[f"n_redacted_{i}"] = c
        return pa.table(cols)

    return ds.map_batches(clean, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Character-trigram LM surprisal — the KenLM-shaped quality filter
# (CCNet/Gopher-style: score documents by how "language-like" their
# byte statistics are under a model trained on the corpus itself)
# ---------------------------------------------------------------------------


def _byte_trigrams(text: str) -> np.ndarray:
    """uint32 codes of every byte trigram (UTF-8), vectorized."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(b) < 3:
        return np.empty(0, dtype=np.uint32)
    return (
        b[:-2].astype(np.uint32) * np.uint32(65536)
        + b[1:-1].astype(np.uint32) * np.uint32(256)
        + b[2:].astype(np.uint32)
    )


def _flat_trigram_codes(col):
    """Byte-trigram codes of a whole string column at once — the
    column-level twin of :func:`_byte_trigrams` (same codes, same
    per-document order).  ONE pass over the column's flat UTF-8 data
    buffer computes every code; trigrams that would straddle a
    document boundary are dropped by a vectorized per-document gather
    (no per-doc Python loop, no per-doc ``encode`` — the strings never
    materialize as Python objects).  Returns ``(codes: uint32[total],
    counts: int64[n_rows])`` with ``counts[i] = max(0, bytes_i − 2)``;
    null rows count 0."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "").cast(pa.large_utf8())
    n = len(col)
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
        col.offset : col.offset + n + 1
    ]
    data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
    b = data[offs[0] : offs[-1]]
    offs = offs - offs[0]
    counts = np.maximum(np.diff(offs) - 2, 0)
    total = int(counts.sum())
    if len(b) < 3 or total == 0:
        return np.empty(0, np.uint32), counts
    codes = b[:-2].astype(np.uint32)
    codes <<= 8
    codes |= b[1:-1]
    codes <<= 8
    codes |= b[2:]
    # valid trigram starts of row i are offs[i] .. offs[i+1]-3; the
    # only flat positions to drop are the ≤2 straddlers before each
    # row boundary (offs[i]-2, offs[i]-1 — provably never inside any
    # row's valid range), so one boolean mask replaces a full gather
    mask = np.ones(len(codes), dtype=bool)
    bounds = offs[1:]
    bad = np.concatenate([bounds - 2, bounds - 1])
    bad = bad[(bad >= 0) & (bad < len(codes))]
    mask[bad] = False
    return codes[mask], counts


def train_char_lm(ds, *, text_col: str = "text", alpha: float = 1.0):
    """Distributed byte-trigram counts → dense log-probability table.

    Per-block partial: ``np.unique`` over the block's trigram codes
    (sparse — shuffle carries distinct-trigram rows, not corpus
    bytes); one Ray groupby-sum merges partials; the driver folds the
    ≤2²⁴-entry sparse result into a dense float32 table (64 MB) that
    broadcasts once via ``ray.put``.  Add-α smoothing over the full
    2²⁴ trigram space keeps unseen trigrams finite and maximally
    surprising.

    Returns ``(logp: float32[2**24], total: int)``.
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        # one flat-buffer pass over the block (no per-doc encode loop)
        # — identical code multiset to the per-doc _byte_trigrams walk
        codes, _counts = _flat_trigram_codes(t[text_col])
        if not len(codes):
            return pa.table(
                {"tri": pa.array([], pa.int64()),
                 "_n": pa.array([], pa.int64())}
            )
        tri, cnt = np.unique(codes, return_counts=True)
        return pa.table(
            {"tri": pa.array(tri.astype(np.int64)),
             "_n": pa.array(cnt.astype(np.int64))}
        )

    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("tri")
        .aggregate(Sum("_n", alias_name="n"))
        .take_all()
    )
    v = 1 << 24
    counts = np.zeros(v, dtype=np.float64)
    total = 0
    for r in rows:
        counts[int(r["tri"])] = float(r["n"])
        total += int(r["n"])
    logp = (np.log(counts + alpha) - np.log(total + alpha * v)).astype(
        np.float32
    )
    return logp, total


def char_lm_surprisal(ds, logp_ref, *, text_col: str = "text",
                      id_col: str = "doc_id",
                      out_col: str = "surprisal_micro"):
    """Per-document mean byte-trigram surprisal (−mean log p), as an
    int64 MICRO value (⌊nats × 1e6⌋ — deterministic to compare and
    threshold; the per-doc mean is a float64 weighted ``bincount``
    fold over the block's flat trigram codes, sequential and
    order-fixed, hence reproducible bit-for-bit).  Docs shorter than
    one trigram score NULL-free 0.  ``logp_ref`` is the ``ray.put``
    handle of :func:`train_char_lm`'s table — fetched once per task
    from the local object store."""
    import ray

    def score(t: pa.Table) -> pa.Table:
        logp = ray.get(logp_ref)
        # one flat-buffer pass: codes for ALL docs, per-doc fold via
        # a weighted bincount (float64 sequential accumulation) — no
        # per-doc Python loop
        codes, counts = _flat_trigram_codes(t[text_col])
        out = np.zeros(t.num_rows, dtype=np.int64)
        if len(codes):
            doc_idx = np.repeat(
                np.arange(t.num_rows, dtype=np.int64), counts
            )
            sums = np.bincount(
                doc_idx,
                weights=logp[codes].astype(np.float64),
                minlength=t.num_rows,
            )
            has = counts > 0
            out[has] = np.floor(
                -(sums[has] / counts[has]) * 1_000_000
            ).astype(np.int64)
        return pa.table({id_col: t[id_col], out_col: pa.array(out)})

    return ds.map_batches(score, batch_format="pyarrow")


def normalize_text(ds, *, text_col: str = "text", id_col: str = "doc_id",
                   lowercase: bool = True, collapse_ws: bool = True,
                   strip_control: bool = True,
                   out_col: str = "norm_text"):
    """Standard corpus normalization, fully Arrow-vectorized (RE2
    kernels — DuckDB reproduces each step exactly): optional
    lowercasing, control-character stripping, whitespace collapse to
    single spaces with outer trim.  Returns
    ``(id, norm_text, n_chars)`` where ``n_chars`` counts the
    normalized UTF-8 characters."""
    import pyarrow.compute as pc

    def norm(t: pa.Table) -> pa.Table:
        s = t[text_col]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        if strip_control:
            s = pc.replace_substring_regex(
                s, r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]", ""
            )
        if lowercase:
            s = pc.utf8_lower(s)
        if collapse_ws:
            s = pc.replace_substring_regex(s, r"\s+", " ")
            s = pc.utf8_trim_whitespace(s)
        return pa.table(
            {
                id_col: t[id_col],
                out_col: s,
                "n_chars": pc.utf8_length(s).cast(pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


def cooccurrence_counts(ds, *, text_col: str = "text", window: int = 4,
                        min_count: int = 2, num_partitions: int = 64):
    r"""Word co-occurrence counts within a token window — the corpus
    statistic under GloVe/PMI-style embedding training and collocation
    mining.  Output: ``(w1, w2, n_cooc)`` with ``w1 < w2``
    (unordered pairs, each in-window pair of positions counted once),
    ``n_cooc >= min_count``.

    Two-pass, integer-coded dataflow (measured 8× the throughput of a
    string-pair shuffle on web-page-sized docs):

    1. FREQUENT-vocabulary sweep (distributed token counts, floor =
       ``min_count`` — lossless: a pair reaching the floor needs both
       words at the floor), SORTED → code order ≡ string order, so
       canonical (min, max) code pairs are exactly the
       ``least/greatest`` string pairs the SQL twin computes; the
       vocab broadcasts once (``ray.put``), driver state bounded by
       the frequent-token count;
    2. per doc: one ``pc.index_in`` tokenize-to-codes probe, shifted
       zips per window offset, pairs PACKED into one int64
       (``w1 << 32 | w2``) — per-block ``np.unique`` combine, ONE
       int-keyed shuffle, per-partition group-sum, then a final
       vocab ``take`` decodes codes back to strings.

    Tokens are ASCII-``\S+`` words lowercased.  Vocabularies beyond
    2³² tokens would need a wider pack (not a realistic corpus).
    """
    import ray

    import pyarrow.compute as pc

    # pass 1: FREQUENT vocabulary — a pair can only reach min_count if
    # BOTH its words occur >= min_count times globally, so pruning the
    # vocab at that floor is provably lossless AND bounds the driver
    # collect by the frequent-token count, not the raw vocabulary.
    # Rare tokens keep their POSITIONS (coded −1) so window distances
    # across them are unchanged.
    def token_counts(t: pa.Table) -> pa.Table:
        flat, _ = _flat_lower_tokens(t[text_col])
        vc = flat.value_counts()
        return pa.table(
            {"w": vc.field("values"),
             "_n": pc.cast(vc.field("counts"), pa.int64())}
        )

    from .joins import grouped_aggregate

    freq = grouped_aggregate(
        ds.map_batches(token_counts, batch_format="pyarrow"),
        ["w"], [("_n", "sum", "n")],
    )
    words: list = []
    for b in freq.iter_batches(batch_format="pyarrow"):
        keep = pc.greater_equal(b["n"], min_count)
        words.extend(b["w"].filter(
            keep.combine_chunks() if isinstance(keep, pa.ChunkedArray)
            else keep
        ).to_pylist())
    vocab = pa.array(sorted(words), pa.string())
    if len(vocab) >= (1 << 32):
        raise ValueError("vocabulary exceeds the 32-bit pair pack")
    vocab_ref = ray.put(vocab)

    def partial(t: pa.Table) -> pa.Table:
        v = ray.get(vocab_ref)
        # tokenize the WHOLE block in Arrow, then ONE index_in probe —
        # a per-doc probe rebuilds the vocab hash table per call and
        # dominates everything else; the tokens never materialize as
        # Python strings at all
        flat, lens = _flat_lower_tokens(t[text_col])
        total = int(lens.sum())
        packed_all = []
        if total >= 2:
            idx = pc.index_in(flat, v)
            codes = pc.fill_null(idx, -1).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            doc_of = np.repeat(np.arange(len(lens)), lens)
            for d in range(1, window + 1):
                if d >= total:
                    break
                a = codes[:-d]
                b = codes[d:]
                valid = (doc_of[:-d] == doc_of[d:]) & (a >= 0) & (b >= 0)
                lo = np.minimum(a, b)[valid]
                hi = np.maximum(a, b)[valid]
                if len(lo):
                    packed_all.append((lo << np.int64(32)) | hi)
        if not packed_all:
            return pa.table(
                {"pk": pa.array([], pa.int64()),
                 "_n": pa.array([], pa.int64()),
                 "part": pa.array([], pa.int32())}
            )
        pk, cnt = np.unique(np.concatenate(packed_all), return_counts=True)
        return pa.table(
            {
                "pk": pa.array(pk),
                "_n": pa.array(cnt.astype(np.int64)),
                "part": pa.array(
                    (pk % np.int64(num_partitions)).astype(np.int32)
                ),
            }
        )

    def reduce_part(g: pa.Table) -> pa.Table:
        out = g.select(["pk", "_n"]).group_by(["pk"]).aggregate(
            [("_n", "sum")]
        )
        n = out["_n_sum"]
        if isinstance(n, pa.ChunkedArray):
            n = n.combine_chunks()
        keep = pc.greater_equal(n, min_count)
        out = pa.table({"pk": out["pk"], "n_cooc": n}).filter(keep)
        v = ray.get(vocab_ref)
        pk = out["pk"]
        if isinstance(pk, pa.ChunkedArray):
            pk = pk.combine_chunks()
        codes = pk.to_numpy(zero_copy_only=False)
        w1 = pc.take(v, pa.array(codes >> np.int64(32)))
        w2 = pc.take(v, pa.array(codes & np.int64((1 << 32) - 1)))
        return pa.table({"w1": w1, "w2": w2, "n_cooc": out["n_cooc"]})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(reduce_part, batch_format="pyarrow")
    )


def token_frequencies(ds, *, text_col: str = "text"):
    """Global token frequencies ``(w, n)`` over lowercased
    ASCII-``\\S+`` words — the marginal counts under PMI/collocation
    scoring (pair with :func:`cooccurrence_counts`, whose tokenizer
    this matches exactly).  Per-block vectorized ``value_counts``
    partials (one Arrow split + count, no per-doc loop) → one
    partitioned groupby-sum."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        flat, _ = _flat_lower_tokens(t[text_col])
        vc = flat.value_counts()
        return pa.table(
            {"w": vc.field("values"),
             "_n": pc.cast(vc.field("counts"), pa.int64())}
        )

    from .joins import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["w"], [("_n", "sum", "n")],
    )


def hashed_doc_vectors(ds, *, text_col: str = "text",
                       id_col: str = "doc_id", dim: int = 256):
    """Feature-hashing (hashing-trick, Weinberger et al. 2009) document
    vectors: each token adds ±1 to bucket ``md5(w)[:8] % dim`` with the
    sign from the 9th md5 hex digit — term-frequency-weighted signed
    hashing, the classic model-free way to give a text-only corpus
    embeddings the ANN/clustering operators can consume.

    md5-derived buckets/signs make the op EXACTLY replayable in SQL
    (like ``deterministic_sample_per_key``), so the driver
    hash-compares real vector values, not just shapes.  Output is
    long-form sparse: ``(id, dim_idx, value)`` int64 rows, zero
    (fully-cancelled) dims dropped — assemble dense vectors downstream
    with a fixed-size scatter when a dense column is needed.

    Per block: one Arrow tokenize + ``index_in`` against the block's
    DISTINCT tokens, md5 once per distinct token (the only Python loop
    left, bounded by block vocabulary), then a single signed
    ``bincount`` over ``doc × dim`` cells — no shuffle at all; the
    output is already keyed by doc.
    """
    import hashlib

    import pyarrow.compute as pc

    def vectors(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        n = t.num_rows
        flat, lens = _flat_lower_tokens(t[text_col])
        acc = np.zeros((n, dim), dtype=np.int64)
        if len(flat):
            uniq = pc.unique(flat)
            buckets = np.empty(len(uniq), dtype=np.int64)
            signs = np.empty(len(uniq), dtype=np.int64)
            for j, w in enumerate(uniq.to_pylist()):
                h = hashlib.md5(w.encode("utf-8")).hexdigest()
                buckets[j] = int(h[:8], 16) % dim
                signs[j] = 1 if int(h[8], 16) % 2 == 0 else -1
            codes = pc.index_in(flat, uniq).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            doc_of = np.repeat(np.arange(n, dtype=np.int64), lens)
            acc = np.bincount(
                doc_of * dim + buckets[codes],
                weights=signs[codes].astype(np.float64),
                minlength=n * dim,
            ).astype(np.int64).reshape(n, dim)
        doc_idx, dim_idx = np.nonzero(acc)
        return pa.table(
            {
                id_col: pc.take(ids, pa.array(doc_idx)),
                "dim_idx": pa.array(dim_idx.astype(np.int64)),
                "value": pa.array(acc[doc_idx, dim_idx]),
            }
        )

    return ds.map_batches(vectors, batch_format="pyarrow")


def bm25_topk(ds, query_terms: list[str], *, k: int = 10,
              k1: float = 1.2, b: float = 0.75,
              text_col: str = "text", id_col: str = "doc_id",
              checkpoint_dir: str | None = None,
              batch_size: int | None = 512):
    """BM25 ranked retrieval: top-``k`` documents for a bag of query
    terms, with a RATIONAL idf — ``(N - df + 0.5) / (df + 0.5)``
    instead of the textbook log.  Rank-equivalent for df < N/2 (the
    transform is monotone there), and — unlike ``ln`` — exactly
    reproducible across engines: every operation in the score is an
    IEEE-754 division/multiplication/addition with a fully specified
    result, so a DuckDB twin spelled with the same associativity
    hashes identically.

    Plan (two streaming passes, zero corpus-sized pins):

    1. ``explode`` — per block, one row per doc: total token count
       ``dl`` plus one tf column per query term (the query is a
       bounded list, so the pivot is map-side and the exploded table
       is |docs| × (|q|+2) ints — orders of magnitude below the text).
    2. stats pass — per-block partials of (n_docs, Σdl, df per term)
       merged in one tiny task → scalar avgdl and idf per term.
    3. score pass — re-runs the explode lineage (streaming; pass
       ``checkpoint_dir`` to spool the exploded table to parquet once
       instead — the 100 TB configuration), evaluates the shared
       length norm ``k1·((1-b) + b·(dl/avgdl))`` and the per-term
       contributions left-associatively, and feeds per-block partial
       top-k into one tiny final sort.

    Output: (id_col, score, dl, tf_<term>...) for the top-k docs,
    score strictly > 0 (docs without any query term never rank).
    """
    import numpy as np
    import pyarrow.compute as pc

    from ..pipelines.analytics import global_topk

    terms = [t.lower() for t in query_terms]
    tf_cols = [f"tf_{t}" for t in terms]

    term_arr = pa.array(terms, pa.string())

    def explode(t: pa.Table) -> pa.Table:
        # one Arrow tokenize + ONE index_in probe against the bounded
        # query-term list; per-(doc, term) counts fold in a single
        # bincount — no per-doc Python loop
        flat, lens = _flat_alnum_tokens(t[text_col])
        n = t.num_rows
        nt = len(terms)
        tf_mat = np.zeros((n, nt), dtype=np.int64)
        if len(flat):
            codes = pc.fill_null(
                pc.index_in(flat, term_arr), -1
            ).to_numpy(zero_copy_only=False).astype(np.int64)
            hit = codes >= 0
            if hit.any():
                doc_of = np.repeat(
                    np.arange(n, dtype=np.int64), lens
                )
                tf_mat = np.bincount(
                    doc_of[hit] * nt + codes[hit], minlength=n * nt
                ).astype(np.int64).reshape(n, nt)
        out = {id_col: t[id_col], "dl": pa.array(lens)}
        for j, col in enumerate(tf_cols):
            out[col] = pa.array(tf_mat[:, j])
        return pa.table(out)

    per_doc = ds.map_batches(explode, batch_format="pyarrow",
                             batch_size=batch_size)
    if checkpoint_dir is not None:
        from ..state import checkpoint_dataset

        per_doc = checkpoint_dataset(
            per_doc, checkpoint_dir,
            lineage=f"bm25:{','.join(terms)}:{id_col}",
        )

    def stats_partial(t: pa.Table) -> pa.Table:
        out = {
            "n": pa.array([t.num_rows], pa.int64()),
            "total_dl": pa.array(
                [pc.sum(t["dl"]).as_py() or 0], pa.int64()),
        }
        for col in tf_cols:
            out["df_" + col] = pa.array(
                [pc.sum(
                    pc.cast(pc.greater(t[col], 0), pa.int64())
                ).as_py() or 0], pa.int64())
        return pa.table(out)

    def stats_merge(t: pa.Table) -> pa.Table:
        return pa.table({
            c: pa.array([pc.sum(t[c]).as_py() or 0], pa.int64())
            for c in t.column_names
        })

    stats = (
        per_doc.map_batches(stats_partial, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(stats_merge, batch_format="pyarrow")
        .take(1)[0]
    )
    n_docs = stats["n"]
    avgdl = float(stats["total_dl"]) / float(n_docs)  # one division
    idf = {
        col: ((float(n_docs) - float(stats["df_" + col])) + 0.5)
        / (float(stats["df_" + col]) + 0.5)
        for col in tf_cols
    }

    def score(t: pa.Table) -> pa.Table:
        dl = pc.cast(t["dl"], pa.float64())
        # k1·((1-b) + b·(dl/avgdl)) — spelled once, reused per term
        norm = pc.multiply(
            pa.scalar(k1),
            pc.add(pa.scalar(1.0 - b),
                   pc.multiply(pa.scalar(b),
                               pc.divide(dl, pa.scalar(avgdl)))),
        )
        total = None
        any_hit = None
        for col in tf_cols:
            tf = pc.cast(t[col], pa.float64())
            contrib = pc.multiply(
                pa.scalar(idf[col]),
                pc.divide(
                    pc.multiply(tf, pa.scalar(k1 + 1.0)),
                    pc.add(tf, norm),
                ),
            )
            total = contrib if total is None else pc.add(total, contrib)
            hit = pc.greater(t[col], 0)
            any_hit = hit if any_hit is None else pc.or_(any_hit, hit)
        t = t.append_column("score", total)
        return t.filter(any_hit)

    return global_topk(
        per_doc.map_batches(score, batch_format="pyarrow"),
        "score", k, tiebreak=[id_col],
    )


def char_pair_counts(ds, *, text_col: str = "text", k: int = 50):
    """Corpus-wide top-k adjacent character-pair counts — the counting
    core of ONE byte-pair-encoding merge round.

    Fully vectorized: each block concatenates its docs' bytes with a
    NUL separator, forms all adjacent byte pairs with one uint16
    multiply-add, and folds them into a 65,536-bin ``np.bincount`` —
    the per-block partial the shuffle carries is bounded by the pair
    alphabet (≤ 64Ki rows), never by corpus size, so the exchange is
    O(1) in the data; one tiny task merges and takes the top-k
    (deterministic ties: lexicographically smaller pair wins).

    Byte pairs equal character pairs for ASCII corpora (the testdata
    oracle's regime); multibyte UTF-8 text is counted at byte level —
    the standard BPE convention.

    Output: (pair [2-char string], n), top-k by count desc.
    """

    def partial(t: pa.Table) -> pa.Table:
        # pairs straight off the column's flat UTF-8 data buffer (the
        # buffer IS the docs' byte concatenation) — no per-doc encode
        # loop, no joined copy; row-straddling pairs are dropped by a
        # boundary mask, and pairs containing a genuine NUL byte are
        # dropped exactly as the NUL-separator formulation did
        import pyarrow.compute as pc

        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = pc.fill_null(col, "").cast(pa.large_utf8())
        offs = np.frombuffer(col.buffers()[1], dtype=np.int64)[
            col.offset : col.offset + len(col) + 1
        ]
        data = np.frombuffer(col.buffers()[2], dtype=np.uint8)
        b = data[offs[0] : offs[-1]]
        offs = offs - offs[0]
        if len(b) < 2:
            return pa.table({
                "code": pa.array([], pa.int32()),
                "n": pa.array([], pa.int64()),
            })
        hi, lo = b[:-1], b[1:]
        mask = (hi != 0) & (lo != 0)
        bad = offs[1:] - 1  # pair starting at a row's last byte
        bad = bad[(bad >= 0) & (bad < len(mask))]
        mask[bad] = False
        codes = hi[mask].astype(np.int32) * 256 + lo[mask]
        counts = np.bincount(codes, minlength=65536)
        nz = np.flatnonzero(counts)
        return pa.table({
            "code": pa.array(nz.astype(np.int32), pa.int32()),
            "n": pa.array(counts[nz], pa.int64()),
        })

    def merge_topk(t: pa.Table) -> pa.Table:
        g = t.group_by("code").aggregate([("n", "sum")])
        codes = g["code"].to_numpy()
        n = g["n_sum"].to_numpy()
        # sort: count desc, then pair bytes asc (code asc == lexical
        # asc for single-byte chars)
        order = np.lexsort((codes, -n))[:k]
        pairs = [
            bytes([c >> 8, c & 0xFF]).decode("latin-1")
            for c in codes[order]
        ]
        return pa.table({
            "pair": pa.array(pairs, pa.string()),
            "n": pa.array(n[order], pa.int64()),
        })

    return (
        ds.select_columns([text_col])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(merge_topk, batch_format="pyarrow",
                     batch_size=None)
    )


def token_search(ds, *, all_of=(), any_of=(), none_of=(),
                 text_col: str = "text", keep_cols=("doc_id", "lang")):
    """Boolean token retrieval: documents whose lowercased
    ``[A-Za-z0-9]+`` token set contains ALL of ``all_of``, at least one
    of ``any_of`` (if given), and NONE of ``none_of``.

    Pure vectorized map — one RE2 presence test per query term per
    batch (the term wrapped in non-alphanumeric boundaries, exactly
    the tokenizer's complement class, so presence ≡ token-list
    containment), combined with Arrow boolean kernels.  No shuffle,
    no index; for repeated interactive queries build the inverted
    index via :func:`term_frequencies` instead.

    Output: ``keep_cols`` of matching documents.
    """
    import re

    import pyarrow.compute as pc

    def present(low, term):
        pat = rf"(^|[^a-z0-9]){re.escape(term.lower())}([^a-z0-9]|$)"
        return pc.greater(
            pc.count_substring_regex(low, pat), pa.scalar(0, pa.int32())
        )

    def match(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t[text_col])
        mask = pa.array(np.ones(t.num_rows, dtype=bool))
        for term in all_of:
            mask = pc.and_(mask, present(low, term))
        if any_of:
            any_m = present(low, any_of[0])
            for term in any_of[1:]:
                any_m = pc.or_(any_m, present(low, term))
            mask = pc.and_(mask, any_m)
        for term in none_of:
            mask = pc.and_(mask, pc.invert(present(low, term)))
        return t.filter(mask).select(list(keep_cols))

    return ds.map_batches(match, batch_format="pyarrow")


def ngram_novelty(ds, *, n: int = 3, text_col: str = "text",
                  id_col: str = "doc_id", hash_grams: bool = False):
    """Per-document n-gram novelty: the fraction of a doc's DISTINCT
    word n-grams whose FIRST appearance (by ascending doc id) is this
    document — the order-aware "how much is new?" measure behind
    incremental corpus curation, computed WITHOUT a sequential scan:
    first-seen is a commutative ``min(doc_id)`` reduction per gram.

    Plan (one gram-cardinality exchange — the join-back of the first
    version tripled shuffle volume and ran 3× slower at bench scale):

    1. per-doc totals ``(doc, n_grams)`` — exact IN BLOCK (a doc's
       text lives in one row), no gram row ever shuffled for this;
    2. gram rows → ``groupby(gram).min(doc)`` (THE exchange, the same
       O(distinct doc-grams) the decontamination op pays) → the
       winner table folds per block to ``(first_doc, count)`` partials
       → one small per-doc sum: every gram is novel in exactly one
       doc, so novel counts need no join against the gram table;
    3. totals LEFT JOIN novels at |docs| rows (explicit schemas — no
       probe execution), null → 0.

    ``hash_grams=True`` shuffles 8-byte siphash64 gram keys instead of
    the gram STRINGS — ~3× exchange-volume reduction at bench shape
    (the gram strings dominate the exchange: ~3 words ≈ 20+ bytes vs
    8) at a documented ~(distinct grams)²/2⁶⁵ collision risk, which
    can only ever UNDER-count novelty by conflating two grams.  Exact
    strings stay the default — the DuckDB oracle compares that mode;
    the hash mode is the 100 TB scale path (parity-tested in
    tests/test_text.py).

    Docs with < n tokens emit no grams and no output row.
    Output: (id_col, n_grams, n_novel, novelty).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Min, Sum

    sch0 = ds.schema()
    id_t = dict(zip(sch0.names, sch0.types))[id_col]
    gram_t = pa.int64() if hash_grams else pa.string()

    def _distinct_grams(t: pa.Table):
        """→ distinct (doc_row int64, gram string) pairs, vectorized:
        Arrow tokenize, ONE sliced ``binary_join_element_wise`` over
        the flat token array (gram j = tokens[j..j+n) — cross-doc
        windows masked by comparing doc ids n-1 apart), per-doc dedup
        via a single-threaded Arrow group_by.  Returns None when the
        block yields no gram."""
        flat, lens = _flat_alnum_tokens(t[text_col])
        total = len(flat)
        if total < n:
            return None
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        width = total - n + 1
        grams = pc.binary_join_element_wise(
            *[flat.slice(j, width) for j in range(n)], " "
        )
        valid = doc_of[:width] == doc_of[n - 1:]
        if not valid.any():
            return None
        return (
            pa.table({
                "_d": pa.array(doc_of[:width][valid]),
                "gram": grams.filter(pa.array(valid)),
            })
            .group_by(["_d", "gram"], use_threads=False)
            .aggregate([])
        )

    def totals(t: pa.Table) -> pa.Table:
        d = _distinct_grams(t)
        if d is None:
            return pa.table({
                id_col: pa.array([], id_t),
                "n_grams": pa.array([], pa.int64()),
            })
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        cnt = np.bincount(
            d["_d"].to_numpy(zero_copy_only=False),
            minlength=t.num_rows,
        )
        keep = np.flatnonzero(cnt)  # docs with ≥ n tokens
        return pa.table({
            id_col: pc.take(ids, pa.array(keep)),
            "n_grams": pa.array(cnt[keep].astype(np.int64), pa.int64()),
        })

    def explode(t: pa.Table) -> pa.Table:
        d = _distinct_grams(t)
        if d is None:
            return pa.table({
                id_col: pa.array([], id_t),
                "gram": pa.array([], gram_t),
            })
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        gram = d["gram"]
        if isinstance(gram, pa.ChunkedArray):
            gram = gram.combine_chunks()
        if hash_grams:
            from ..hashing import hash64_array

            gram = pa.array(
                hash64_array(gram).view(np.int64), pa.int64()
            )
        return pa.table({
            id_col: pc.take(ids, d["_d"]),
            "gram": gram,
        })

    pruned = ds.select_columns([id_col, text_col])
    tot = pruned.map_batches(totals, batch_format="pyarrow")
    first = pruned.map_batches(explode, batch_format="pyarrow").groupby(
        "gram"
    ).aggregate(Min(id_col, alias_name="first_doc"))

    def novel_partial(t: pa.Table) -> pa.Table:
        g = t.select(["first_doc"]).group_by("first_doc").aggregate(
            [([], "count_all")]
        )
        g = g.rename_columns([
            "n_novel" if c == "count_all" else c for c in g.column_names
        ])
        return g.rename_columns([
            id_col if c == "first_doc" else c for c in g.column_names
        ])

    novels = (
        first.map_batches(novel_partial, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("n_novel", alias_name="n_novel"))
    )

    from .joins import hash_join_unique

    joined = hash_join_unique(
        tot, novels, left_key=id_col, right_key=id_col, how="left",
        left_schema=pa.schema([pa.field(id_col, id_t),
                               pa.field("n_grams", pa.int64())]),
        right_schema=pa.schema([pa.field(id_col, id_t),
                                pa.field("n_novel", pa.int64())]),
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if id_col not in t.column_names:
            # schema restore for an all-empty lineage (no doc produced
            # a single n-gram)
            return pa.table({
                id_col: pa.array([], id_t),
                "n_grams": pa.array([], pa.int64()),
                "n_novel": pa.array([], pa.int64()),
                "novelty": pa.array([], pa.float64()),
            })
        n_novel = pc.coalesce(t["n_novel"], pa.scalar(0, pa.int64()))
        nov = pc.divide(
            pc.cast(n_novel, pa.float64()),
            pc.cast(t["n_grams"], pa.float64()),
        )
        return pa.table({
            id_col: t[id_col],
            "n_grams": t["n_grams"],
            "n_novel": n_novel,
            "novelty": nov,
        })

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Persisted inverted text index (the text counterpart of the IVF
# vector index in stages/similarity.py — build once, prune reads at
# query time)
# ---------------------------------------------------------------------------


def build_term_index(ds, index_dir: str, *, text_col: str = "text",
                     id_col: str = "doc_id",
                     num_buckets: int = 64) -> dict:
    """Materialize the corpus's postings ``(doc_id, term, tf)`` as a
    term-hash-bucketed parquet index on shared storage.

    Layout: ``{index_dir}/data/bucket=<n>/*.parquet`` (hive
    partitioning) + ``_TERM_INDEX_MANIFEST.json`` (bucket count,
    column names).  A query for terms T then reads ONLY the buckets
    ``hash(t) % num_buckets`` — at 10^12 postings that is the
    difference between scanning the corpus per query and reading a
    few hundred files.  Build is one streaming explode pass; the
    hive write is the only shuffle-like step.  Atomic + idempotent:
    built under a tmp dir and renamed into place (same contract as
    ``similarity.build_ivf_index``).
    """
    import json
    import os
    import shutil

    from ..hashing import hash_bucket_array

    def explode(t: pa.Table) -> pa.Table:
        # vectorized twin of the per-doc
        # Counter(_TERM_RE.findall(x)) loop: one Arrow regex split
        # over the block, then one C++ hash aggregation for the
        # per-(doc, term) tf — the tokens never exist as Python
        # objects
        import pyarrow.compute as pc

        flat, lens = _flat_alnum_tokens(t[text_col])
        ids = t[id_col].take(
            pa.array(np.repeat(np.arange(t.num_rows), lens), pa.int64())
        )
        g = (
            pa.table({id_col: ids, "term": flat})
            .group_by([id_col, "term"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        terms = g["term"].combine_chunks()
        return pa.table({
            id_col: g[id_col],
            "term": terms,
            "tf": pc.cast(g["count_all"], pa.int64()),
            "bucket": hash_bucket_array(terms, num_buckets),
        })

    tmp = index_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "data"), exist_ok=True)
    postings = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow"
    )
    postings.write_parquet(
        os.path.join(tmp, "data"), partition_cols=["bucket"]
    )
    manifest = {
        "num_buckets": num_buckets,
        "id_col": id_col,
        "text_col": text_col,
    }
    with open(os.path.join(tmp, "_TERM_INDEX_MANIFEST.json"), "w") as f:
        json.dump(manifest, f)
    shutil.rmtree(index_dir, ignore_errors=True)
    os.replace(tmp, index_dir)
    return manifest


def search_term_index(index_dir: str, *, all_of=(), any_of=(),
                      none_of=()):
    """Boolean retrieval against a persisted term index — same
    semantics as :func:`token_search`, but reading ONLY the hash
    buckets of the query terms instead of the corpus.

    Per-doc resolution is one bounded aggregate over the pruned
    postings: count of matched ``all_of`` terms (must equal
    |all_of|), any/none flags as max-reduced ints — a single
    doc-cardinality groupby over postings that mention a query term,
    which for selective terms is orders of magnitude below corpus
    size.

    Output: (id_col,) of matching documents.
    """
    import json
    import os

    import pyarrow.compute as pc
    import ray.data as rd

    from ..hashing import hash_bucket_scalar

    with open(os.path.join(index_dir,
                           "_TERM_INDEX_MANIFEST.json")) as f:
        man = json.load(f)
    id_col = man["id_col"]
    nb = man["num_buckets"]

    all_of = tuple(t.lower() for t in all_of)
    any_of = tuple(t.lower() for t in any_of)
    none_of = tuple(t.lower() for t in none_of)
    terms = set(all_of) | set(any_of) | set(none_of)
    if not terms:
        raise ValueError("need at least one query term")
    if not all_of and not any_of:
        # a pure-negation query cannot be answered from a pruned
        # index: docs containing NO query term never appear in the
        # read postings, so the result would silently be empty where
        # token_search (full corpus scan) returns every non-matching
        # doc — fail loudly instead of diverging
        raise ValueError(
            "pure-negation queries (only none_of terms) need the "
            "full corpus — use token_search, or add an all_of/any_of "
            "term"
        )
    wanted = sorted({hash_bucket_scalar(t, nb) for t in terms})
    paths = [
        p for p in (
            os.path.join(index_dir, "data", f"bucket={b}")
            for b in wanted
        ) if os.path.isdir(p)
    ]
    term_arr = pa.array(sorted(terms), pa.string())
    all_arr = pa.array(sorted(set(all_of)), pa.string())
    any_arr = pa.array(sorted(set(any_of)), pa.string())
    none_arr = pa.array(sorted(set(none_of)), pa.string())
    n_all = len(set(all_of))

    if not paths:
        hits = None
    else:
        postings = rd.read_parquet(paths, file_extensions=["parquet"])

        def partial(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_in(t["term"], value_set=term_arr))
            flat = pa.table({
                id_col: t[id_col],
                "n_all": pc.cast(
                    pc.is_in(t["term"], value_set=all_arr), pa.int64()
                ),
                "has_any": pc.cast(
                    pc.is_in(t["term"], value_set=any_arr), pa.int64()
                ),
                "has_none": pc.cast(
                    pc.is_in(t["term"], value_set=none_arr), pa.int64()
                ),
            })
            g = flat.group_by(id_col).aggregate(
                [("n_all", "sum"), ("has_any", "max"),
                 ("has_none", "max")]
            )
            return g.rename_columns([
                {"n_all_sum": "n_all", "has_any_max": "has_any",
                 "has_none_max": "has_none"}.get(c, c)
                for c in g.column_names
            ])

        from ray.data.aggregate import Max, Sum

        hits = (
            postings.map_batches(partial, batch_format="pyarrow")
            .groupby(id_col)
            .aggregate(Sum("n_all", alias_name="n_all"),
                       Max("has_any", alias_name="has_any"),
                       Max("has_none", alias_name="has_none"))
        )

    if hits is None:
        return rd.from_arrow(
            pa.table({id_col: pa.array([], pa.int64())})
        )

    need_any = 1 if any_of else 0

    def resolve(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.equal(t["n_all"], pa.scalar(n_all, pa.int64())),
                pc.greater_equal(t["has_any"],
                                 pa.scalar(need_any, pa.int64())),
            ),
            pc.equal(t["has_none"], pa.scalar(0, pa.int64())),
        )
        return t.filter(m).select([id_col])

    return hits.map_batches(resolve, batch_format="pyarrow")


def domain_stats(ds, *, text_col: str = "text", id_col: str = "doc_id"):
    """Per-domain web statistics: every whitespace-delimited token
    starting with ``http(s)://`` is a URL hit; its host (chars up to
    the first ``/`` after the scheme, ASCII-lowercased) is the domain.
    Returns ``(domain, n_hits, n_docs)`` — total occurrences and
    distinct containing documents.

    The web-crawl curation staple (domain blocklists, per-domain
    caps, source-mix audits à la C4/RefinedWeb).  One Arrow split +
    regex-filter per block, then ONE bounded groupby keyed on the
    domain (output is |domains|-sized); nothing driver-side.  At
    crawl scale the domain key is zipfian — count partials are
    per-block pre-aggregated below so the exchange carries
    (block × distinct-domain) rows, not raw hits.
    """
    import pyarrow.compute as pc

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        flat, lens = _flat_split(t[text_col], r"\s+")
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        is_url = pc.match_substring_regex(
            flat, "^https?://"
        ).to_numpy(zero_copy_only=False)
        urls = flat.filter(pa.array(is_url))
        hosts = pc.utf8_lower(
            pc.struct_field(
                pc.extract_regex(urls, r"^https?://(?P<h>[^/]+)"), "h"
            )
        )
        docs = pc.take(ids, pa.array(doc_of[is_url]))
        # scheme-only tokens ('http://') match the URL filter but
        # extract no host — they are not domain hits; drop them so the
        # SQL twin (which filters empty extracts) agrees
        ok = pc.is_valid(hosts)
        hosts = hosts.filter(ok)
        docs = docs.filter(ok)
        # per-block pre-aggregation: (domain, doc) hit counts
        g = pa.table({"domain": hosts, id_col: docs}).group_by(
            ["domain", id_col]
        ).aggregate([([], "count_all")])
        return g.rename_columns(["domain", id_col, "hits"])

    from ray.data.aggregate import Count, Sum

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow"
    )
    # (domain, doc) partials may repeat across blocks of the same doc
    # only if a doc spans blocks (it cannot — rows are atomic), so one
    # groupby finishes both aggregates
    return exploded.groupby("domain").aggregate(
        Sum("hits", alias_name="n_hits"),
        Count(alias_name="n_docs"),
    )
