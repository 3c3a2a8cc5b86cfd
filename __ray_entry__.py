"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init``/``ray.shutdown`` here or in the library.

The knowledge-graph queries run over an interleaved-span vault
(BASELINE.json ``input_hint`` schema) synthesized deterministically
from the sf dir's ``documents`` table by
:func:`obsidian_parser_ray.corpus.derive_vault_batch` — a derivation
simple enough that the expected triples/notes are analytically
computable in SQL (:func:`obsidian_parser_ray.corpus.oracle_cte`)
while the Ray side does the real work: markdown/frontmatter parsing,
wikilink+tag extraction, broadcast-dictionary entity linking, and the
canonicalization groupby shuffle.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_GRAPH_CACHE: dict[str, Any] = {}


def _graph(sf_dir: str):
    """Build (once per sf_dir) the full KG pipeline result.

    ``materialize_notes=True``: ten driver queries consume the notes /
    mentions tables of the SAME tiny graph — the multi-consumer case
    the pin exists for.  The library default is the streaming path."""
    if sf_dir not in _GRAPH_CACHE:
        from obsidian_parser_ray import build_graph, synth_vault

        _GRAPH_CACHE[sf_dir] = build_graph(
            synth_vault(sf_dir), materialize_notes=True
        )
    return _GRAPH_CACHE[sf_dir]


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: vault → canonical
    triples (sorted materialize)."""
    from obsidian_parser_ray.stages.canonicalize import sorted_triples

    g = _graph("/root/testdata/sf0.001")
    return sorted_triples(g.triples)


# --- Ray-side query callables ------------------------------------------------


def _q_kg_triples(sf_dir: str):
    return _graph(sf_dir).triples


def _q_kg_nodes(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    notes = _graph(sf_dir).notes

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "note_name": t["note_name"],
                "n_words": t["n_words"],
                "n_bytes": t["n_bytes"],
                "content_hash": t["content_hash"],
                "n_tags": pc.cast(pc.list_value_length(t["tags"]), pa.int64()),
                "n_aliases": pc.cast(pc.list_value_length(t["aliases"]), pa.int64()),
                "is_todo": t["is_todo"],
            }
        )

    return notes.map_batches(project, batch_format="pyarrow")


def _q_kg_mentions(sf_dir: str):
    from ray.data.aggregate import Count

    m = _graph(sf_dir).mentions
    return m.groupby("kind").aggregate(Count(alias_name="n"))


def _q_kg_degree(sf_dir: str):
    return _graph(sf_dir).top_hubs(k=10, pred="links_to", by="obj")


def _q_kg_top_links(sf_dir: str):
    """Per-note top-2 outbound links (weight desc, obj asc) via the
    two-phase partial top-k — no global sort, shuffle ≤ k rows per
    (key, block)."""
    from obsidian_parser_ray.stages.ranking import grouped_topk

    return grouped_topk(
        _graph(sf_dir).triples.filter(expr="pred == 'links_to'"),
        ["subj"], "weight", 2, tiebreak=["obj"], rank_col="rn",
    ).select_columns(["subj", "obj", "weight", "rn"])


def _q_kg_cocitation(sf_dir: str):
    """Related notes by co-citation: pairs linking to the same target,
    scored by shared-target count (hub-capped pair explosion)."""
    from obsidian_parser_ray.stages.ranking import cocitation

    return cocitation(_graph(sf_dir).triples)


def _q_kg_triangles(sf_dir: str):
    """Per-node triangle participation counts over the undirected
    canonical graph (ALL predicates — tag/media hubs close the
    wedges), exact via degree-oriented wedge counting."""
    from obsidian_parser_ray.stages.graphops import triangle_counts

    return triangle_counts(_graph(sf_dir).triples)


def _q_kg_kcore(sf_dir: str):
    """k-core as an EXACTNESS GATE (pagerank pattern): the distributed
    iterative peeling must equal a driver-exact peel of the same
    edge set (node set AND within-core degrees); the SQL-computable
    anchor is the distinct-undirected-edge count."""
    import pandas as pd

    from obsidian_parser_ray.stages.graphops import k_core, undirected_edges

    triples = (
        _graph(sf_dir).triples.repartition(4, shuffle=False).materialize()
    )
    ue = undirected_edges(triples, num_partitions=4).materialize()
    n_edges = ue.count()
    got = {
        r["node"]: r["degree"]
        for r in k_core(triples, k=2, num_partitions=4).take_all()
    }

    # driver-exact peel — collect is gate-scale-only by design
    adj: dict[str, set[str]] = {}
    for r in ue.take_all():
        adj.setdefault(r["a"], set()).add(r["b"])
        adj.setdefault(r["b"], set()).add(r["a"])
    changed = True
    while changed:
        changed = False
        for node in [v for v, nb in adj.items() if len(nb) < 2]:
            for m in adj.pop(node):
                adj[m].discard(node)
            changed = True
    exp = {v: len(nb) for v, nb in adj.items()}

    return pd.DataFrame(
        [
            {
                "n_edges": int(n_edges),
                "core_nonempty": bool(got),
                "match_ok": bool(got == exp),
            }
        ]
    )


def _q_doc_prep_pipeline(sf_dir: str):
    """Composed prep pipeline (quality+lang filter → exact dedup →
    chunking) hash-checked END TO END against the chained SQL twins of
    its stages."""
    from obsidian_parser_ray.pipelines.prepare import prepare_training_corpus

    return prepare_training_corpus(
        _read(sf_dir, "documents", ["doc_id", "text", "lang"]),
        min_quality_micro=650000,
        langs=("en", "de"),
    )


def _q_doc_prep_boiler(sf_dir: str):
    """Prep pipeline v2: boilerplate strip (shared-5-gram span
    removal) → quality+lang filter → exact dedup → chunking — the
    WHOLE four-stage composition hash-checked against one chained SQL
    twin (the strip CTEs feeding the existing prep chain)."""
    from obsidian_parser_ray.pipelines.prepare import prepare_training_corpus

    return prepare_training_corpus(
        _read(sf_dir, "documents", ["doc_id", "text", "lang"]),
        min_quality_micro=650000,
        langs=("en", "de"),
        strip_ngram=5,
    )


def _q_emb_label_by_lang(sf_dir: str):
    """Cross-table fact↔dimension join: embeddings ⋈ documents on the
    int id (hash_join_unique — docs unique per doc_id), then a grouped
    count per (lang, label)."""
    from ray.data.aggregate import Count

    from obsidian_parser_ray.stages.joins import hash_join_unique

    embs = _read(sf_dir, "embeddings", ["vec_id", "label"])
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    return (
        hash_join_unique(embs, docs, left_key="vec_id", right_key="doc_id")
        .groupby(["lang", "label"])
        .aggregate(Count(alias_name="n_vecs"))
    )


def _q_emb_lang_centroid(sf_dir: str):
    """Per-language embedding centroid, hash-exact: embeddings ⋈
    documents on the int id, then per-(lang, dim) integer-grid sums
    (Σ floor(val × 1e6) as int64 — associative, so the distributed
    result is bit-identical to the SQL twin; stages/clustering.py
    grouped_centroid_sums)."""
    from obsidian_parser_ray.stages.clustering import grouped_centroid_sums
    from obsidian_parser_ray.stages.joins import hash_join_unique

    embs = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    j = hash_join_unique(embs, docs, left_key="vec_id", right_key="doc_id")
    return grouped_centroid_sums(j, key_col="lang")


def _q_events_running_spend(sf_dir: str):
    """Per-user running spend: SQL windowed SUM/row_number twin.
    Value is integer cents (floor(value·100)) — float window sums have
    no cross-engine accumulation-order guarantee; integer sums do."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.events import running_sum

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "s": pc.divide(pc.cast(t["ts"], pa.int64()), 1_000_000),
                "event_id": t["event_id"],
                "cents": pc.cast(
                    pc.floor(pc.multiply(t["value"], pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    return running_sum(
        ev.map_batches(prep, batch_format="pyarrow"),
        key_col="user_id",
        order_cols=["s", "event_id"],
        value_col="cents",
        cum_col="cum_cents",
        idx_col="rn",
    )


def _q_events_never_purchased(sf_dir: str):
    """Distributed anti-join at (user, hour) grain: active user-hours
    with NO purchase in that hour — distinct user-hours ▷ distinct
    purchase user-hours via hash_join_unique(how='anti', presence
    check on a composite key).  User-level would be vacuous (every
    user purchases at every sf)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.joins import hash_join_unique

    from ray.data.aggregate import Max

    def distinct_uh(only_purchase: bool):
        def prep(t: pa.Table) -> pa.Table:
            if only_purchase:
                t = t.filter(pc.equal(t["event_type"], "purchase"))
            hour = pc.divide(
                pc.divide(pc.cast(t["ts"], pa.int64()), 1_000_000), 3600
            )
            key = pc.binary_join_element_wise(
                pc.cast(t["user_id"], pa.string()),
                pc.cast(hour, pa.string()),
                "\x00",
            )
            return pa.table(
                {"_uh": key, "user_id": t["user_id"], "hour_s": hour}
            )

        return (
            _read(sf_dir, "events", ["user_id", "ts", "event_type"])
            .map_batches(prep, batch_format="pyarrow")
            .groupby("_uh")
            .aggregate(
                Max("user_id", alias_name="user_id"),
                Max("hour_s", alias_name="hour_s"),
            )
        )

    active = distinct_uh(False)
    bought = distinct_uh(True).select_columns(["_uh"])
    return hash_join_unique(
        active, bought, left_key="_uh", how="anti"
    ).select_columns(["user_id", "hour_s"])


def _q_doc_top_terms(sf_dir: str):
    """Per-document top-3 TF-IDF keywords (linear idf: IEEE-exact
    cross-engine scores — see stages/text.py tfidf_top_terms)."""
    from obsidian_parser_ray.stages.text import tfidf_top_terms

    return tfidf_top_terms(_read(sf_dir, "documents", ["doc_id", "text"]), 3)


def _q_kg_pagerank(sf_dir: str):
    """PageRank as a TOLERANCE GATE (HLL pattern): the distributed
    power iteration must agree with an exact dense power iteration
    (same iteration count, numpy, driver-side — gate scale only) to
    1e-9, and total rank mass must be 1.  The oracle expects the
    SQL-exact node count with TRUE booleans."""
    import numpy as np
    import pandas as pd

    from obsidian_parser_ray.pipelines.pagerank import pagerank

    # coalesce: the triples lineage ends in a wide shuffle whose many
    # tiny output blocks would multiply every pagerank stage's task
    # count at gate scale
    edges = (
        _graph(sf_dir)
        .triples.filter(expr="pred == 'links_to'")
        .repartition(4, shuffle=False)
        .materialize()
    )
    iters, d = 6, 0.85
    ranks, _ = pagerank(edges, damping=d, iterations=iters,
                        num_partitions=4)
    got = {r["node"]: r["rank"] for r in ranks.take_all()}

    # exact dense oracle — collect is gate-scale-only by design
    el = edges.select_columns(["subj", "obj", "weight"]).take_all()
    nodes = sorted({r["subj"] for r in el} | {r["obj"] for r in el})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    M = np.zeros((n, n))
    out_w = np.zeros(n)
    for r in el:
        out_w[idx[r["subj"]]] += r["weight"]
    for r in el:
        M[idx[r["obj"]], idx[r["subj"]]] += r["weight"] / out_w[idx[r["subj"]]]
    vec = np.full(n, 1.0 / n)
    has_out = out_w > 0
    for _ in range(iters):
        vec = (1 - d) / n + d * (M @ vec + vec[~has_out].sum() / n)
    exp = dict(zip(nodes, vec))

    max_diff = max(abs(got[v] - exp[v]) for v in exp) if exp else 0.0
    return pd.DataFrame(
        [
            {
                "n_nodes": len(got),
                "sum_ok": bool(abs(sum(got.values()) - 1.0) < 1e-9),
                "match_ok": bool(set(got) == set(exp) and max_diff < 1e-9),
            }
        ]
    )


def _q_kg_bfs(sf_dir: str):
    """BFS hop distances from note_0 over the undirected links_to
    graph (≤ 6 hops) — frontier expansion over the caller-side CSR, or
    per-hop exchanges past the broadcast guard."""
    from obsidian_parser_ray.stages.graphops import bfs_hops

    return bfs_hops(
        _graph(sf_dir).triples, ["note_0"], pred="links_to",
        directed=False, max_hops=6,
    )


def _q_kg_incremental(sf_dir: str):
    """Incremental maintenance as an EQUALITY GATE: checkpoint the
    graph base, apply a delta (changed doc + alias-stealing new doc +
    removed doc), and require the bucket-rewriting incremental path
    to produce EXACTLY the triples of a from-scratch rebuild of the
    mutated vault.  Oracle expects the doc count with TRUE."""
    import shutil
    import tempfile

    import pandas as pd

    from obsidian_parser_ray import build_graph, synth_vault
    from obsidian_parser_ray.pipelines.incremental import (
        checkpoint_graph_base, incremental_update,
    )
    from obsidian_parser_ray.sources import from_markdown_items

    delta_items = [
        ("note_7", "Rewired to [[note_3]] only now. #tag_d"),
        # sorts before every note_* doc → steals alias_0 from note_0,
        # so all d%5==1 docs citing [[alias_0]] must re-resolve
        ("aaa/thief", "---\naliases: [alias_0]\n---\nSteals alias_0."),
    ]
    removed = ["note_11"]  # citing docs' links become unresolved

    v0 = synth_vault(sf_dir)
    base = tempfile.mkdtemp(prefix="kg_inc_gate_")
    try:
        checkpoint_graph_base(v0, base, num_buckets=16)
        inc = incremental_update(
            base, from_markdown_items(delta_items), removed
        )
        got = sorted(
            (r["subj"], r["pred"], r["obj"], r["weight"])
            for r in inc.take_all()
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)

    changed = {d for d, _ in delta_items} | set(removed)
    import pyarrow.compute as _pc

    def drop_changed(t):
        import pyarrow as _pa

        return t.filter(
            _pc.invert(_pc.is_in(
                t["doc_id"],
                value_set=_pa.array(sorted(changed), _pa.string()),
            ))
        )

    v1 = v0.map_batches(drop_changed, batch_format="pyarrow").union(
        from_markdown_items(delta_items)
    )
    full = build_graph(v1, materialize_notes=True)
    exp = sorted(
        (r["subj"], r["pred"], r["obj"], r["weight"])
        for r in full.triples.take_all()
    )
    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()
    return pd.DataFrame(
        [{"n_docs": n_docs, "match_ok": bool(got == exp)}]
    )


def _q_emb_kmeans(sf_dir: str):
    """Distributed k-means as a TOLERANCE GATE (pagerank pattern):
    the map_batches/groupby Lloyd iteration must agree with an exact
    driver-side numpy twin (same seeded init, same iteration count,
    same first-hit argmin tie-break) — assignments exactly, centroids
    to 1e-9.  Oracle expects the SQL row count with TRUE booleans."""
    import numpy as np
    import pandas as pd

    from obsidian_parser_ray.stages.clustering import (
        _assign, kmeans_assign, kmeans_fit,
    )
    from obsidian_parser_ray.stages.similarity import _sample_centroids

    k, iters = 8, 5
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cents = kmeans_fit(ds, k, n_iter=iters)
    got = {
        r["vec_id"]: r["cluster_id"]
        for r in kmeans_assign(ds, cents).take_all()
    }

    # exact driver twin — collect is gate-scale-only by design
    rows = ds.take_all()
    ids = [r["vec_id"] for r in rows]
    x = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    c = np.asarray(
        _sample_centroids(ds, k, 42, "embedding", "vec_id"),
        dtype=np.float64,
    )
    for _ in range(iters):
        a = _assign(x, c)
        nc = c.copy()
        for cid in range(k):
            m = a == cid
            if m.any():
                nc[cid] = x[m].sum(axis=0) / m.sum()
        c = nc
    exp = dict(zip(ids, _assign(x, c)))
    cent_diff = float(np.abs(cents - c).max())
    return pd.DataFrame(
        [
            {
                "n_vecs": len(got),
                "assign_ok": bool(got == exp),
                "centroid_ok": bool(cent_diff < 1e-9),
            }
        ]
    )


def _q_kg_dup_name(sf_dir: str):
    from obsidian_parser_ray.pipelines.graph import duplicates_by_name

    return duplicates_by_name(_graph(sf_dir).notes)


def _q_kg_dup_content(sf_dir: str):
    from obsidian_parser_ray.pipelines.graph import duplicates_by_content

    return duplicates_by_content(_graph(sf_dir).notes)


def _q_kg_components(sf_dir: str):
    """Connected components over resolved links_to edges (A7,
    petgraph connected_components parity — analyzer.rs:86-88)."""
    from obsidian_parser_ray.pipelines.components import connected_components

    g = _graph(sf_dir)
    edges = g.triples.filter(expr="pred == 'links_to'")
    return connected_components(edges, g.notes, num_partitions=4)


def _q_kg_resolution(sf_dir: str):
    """Link-resolution metrics: (pred, resolved) → mention count."""
    from obsidian_parser_ray.stages.linking import resolution_stats

    g = _graph(sf_dir)
    return resolution_stats(g.mentions, g.dictionary)


def _q_kg_analyzer(sf_dir: str):
    """End-to-end analyzer report (examples/analyzer.rs parity),
    rebuilt on the filtered vault — every scalar (note count, word
    sum, dup groups, component count, top hub) is emitted as a
    comparable one-row table and checked against an analytic SQL
    oracle over the same filtered-dictionary resolution rules."""
    import pandas as pd

    from obsidian_parser_ray import synth_vault
    from obsidian_parser_ray.pipelines.analyzer import analyze

    return pd.DataFrame([analyze(synth_vault(sf_dir))])


def _q_kg_markdown(sf_dir: str):
    """Markdown re-render of the vault (S7/P13 round trip)."""
    from obsidian_parser_ray import synth_vault
    from obsidian_parser_ray.sources import render_markdown

    return render_markdown(synth_vault(sf_dir))


# --- training-data ops over the driver tables --------------------------------


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _q_doc_dedup_exact(sf_dir: str):
    from obsidian_parser_ray.stages.dedup import exact_dedup

    return exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_doc_dedup_drop(sf_dir: str):
    """Exact-dedup row drop: keep min(doc_id) per distinct text."""
    from obsidian_parser_ray.stages.dedup import drop_exact_duplicates

    kept = drop_exact_duplicates(_read(sf_dir, "documents", ["doc_id", "text"]))
    return kept.select_columns(["doc_id"])


def _q_doc_repetition(sf_dir: str):
    """Gopher-style repetition signals (duplicate line/word fractions
    as exact integer micros)."""
    from obsidian_parser_ray.stages.text import repetition_profile

    return repetition_profile(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_doc_quality(sf_dir: str):
    """Quality score as exact integer micros (floor(raw*1e6)) — the
    float arithmetic is replicated op-for-op by the DuckDB oracle."""
    from obsidian_parser_ray.stages.text import quality_score_batch

    return (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(quality_score_batch, batch_format="pyarrow", batch_size=512)
        .select_columns(["doc_id", "quality_micro"])
    )


def _q_doc_ngram_jaccard(sf_dir: str):
    """Exact distributed n-gram Jaccard near-dup pairs (shingle
    inverted index, df-capped) — oracle-checked end-to-end."""
    from obsidian_parser_ray.stages.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs(ds, threshold=0.4, max_df=64)


def _q_doc_neardup_drop(sf_dir: str):
    """Near-duplicate dedup DROP: exact >=0.4-Jaccard pair graph →
    distributed connected components over it → keep the min-id
    representative per cluster (corpus anti-joined against the
    losers)."""
    from obsidian_parser_ray.stages.dedup import drop_near_duplicates

    return drop_near_duplicates(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        threshold=0.4, max_df=64,
    ).select_columns(["doc_id"])


def _q_doc_sample(sf_dir: str):
    """Deterministic stratified sample: 5 docs per language by
    smallest md5(doc_id) — reproducible in SQL, oracle-checked."""
    from obsidian_parser_ray.stages.chunking import deterministic_sample_per_key

    return deterministic_sample_per_key(
        _read(sf_dir, "documents", ["doc_id", "lang"]),
        key_col="lang",
        id_col="doc_id",
        k=5,
    )


def _q_doc_chunks(sf_dir: str):
    from obsidian_parser_ray.stages.chunking import chunk_documents

    return chunk_documents(
        _read(sf_dir, "documents", ["doc_id", "text"]), window=200, overlap=50
    )


def _q_events_hist(sf_dir: str):
    from obsidian_parser_ray.stages.events import value_histogram

    return value_histogram(_read(sf_dir, "events", ["event_type", "value"]))


def _q_events_approx_users(sf_dir: str):
    """HyperLogLog distinct-user estimate as a TOLERANCE GATE: the
    query emits the exact distinct count (computed distributedly) plus
    a boolean asserting the HLL estimate lands within 5% of it (p=12 →
    ~1.6% standard error; the estimate is deterministic for fixed
    data).  The oracle expects (exact, TRUE) — an HLL regression flips
    the boolean and fails the hash compare."""
    import pandas as pd

    from obsidian_parser_ray.stages.sketch import approx_distinct

    ev = _read(sf_dir, "events", ["user_id"])
    est = approx_distinct(ev, "user_id", p=12)
    exact = ev.groupby("user_id").count().count()
    within = abs(est - exact) / exact <= 0.05 if exact else True
    return pd.DataFrame(
        [{"n_distinct_exact": int(exact), "hll_within_5pct": bool(within)}]
    )


def _q_events_countmin_types(sf_dir: str):
    """Count-Min sketch per-type frequency estimates as a TOLERANCE
    GATE (stages/sketch.py CountMinSketch): exact per-type counts come
    from a distributed groupby (SQL-checkable), and ``cm_ok`` asserts
    per type that the sketch estimate is a true overestimate within
    the Cormode–Muthukrishnan bound (4× slack on (e/width)·N).  The
    oracle expects (type, exact, TRUE) — any sketch regression flips
    a boolean and fails the hash compare."""
    import numpy as np
    import pandas as pd
    from ray.data.aggregate import Count

    from obsidian_parser_ray.stages.sketch import countmin_counts

    ev = _read(sf_dir, "events", ["event_type"])
    exact = (
        ev.groupby("event_type").aggregate(Count(alias_name="n")).take_all()
    )
    cm = countmin_counts(ev, "event_type", width=2048, depth=4)
    types = [r["event_type"] for r in exact]
    true = np.array([r["n"] for r in exact], dtype=np.int64)
    est = cm.query(types)
    total = int(true.sum())
    bound = 4 * (np.e / 2048) * total
    ok = (est >= true) & ((est - true) <= bound)
    return pd.DataFrame(
        {
            "event_type": types,
            "n": true,
            "cm_ok": [bool(x) for x in ok],
        }
    )


def _q_doc_top_words_by_lang(sf_dir: str):
    """Per-language top-5 words through the grouped Misra–Gries
    heavy-hitter sketch (stages/sketch.py grouped_frequent_items).
    The corpus vocabulary (31 distinct words per lang) sits far below
    k=64, so no counter ever evicts and the MG estimates are EXACT —
    the sketch result must therefore hash-match the exact SQL
    count/row_number twin, pinning the whole partial→merge algebra at
    value level.  Ties break by word, deterministic both sides."""
    import pandas as pd
    import pyarrow as pa

    from obsidian_parser_ray.stages.sketch import grouped_frequent_items
    from obsidian_parser_ray.stages.text import _flat_split

    import numpy as np

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def words(t: pa.Table) -> pa.Table:
        langs = t["lang"]
        if isinstance(langs, pa.ChunkedArray):
            langs = langs.combine_chunks()
        import pyarrow.compute as pc

        flat, lens = _flat_split(t["text"], r"\s+")
        doc_of = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        return pa.table(
            {"lang": pc.take(langs, pa.array(doc_of)), "word": flat}
        )

    hh = grouped_frequent_items(
        docs.map_batches(words, batch_format="pyarrow"), "lang", "word",
        k=64,
    )
    # bounded leaf (≤ |langs| × k rows): rank per lang, keep top 5
    df = hh.to_pandas()
    df = df.sort_values(
        ["lang", "est_count", "word"], ascending=[True, False, True]
    )
    df["rk"] = df.groupby("lang").cumcount()
    out = df[df.rk < 5].drop(columns=["rk"]).rename(
        columns={"est_count": "n"}
    )
    return pd.DataFrame(out.reset_index(drop=True))


def _q_events_topk_users(sf_dir: str):
    from ray.data.aggregate import Count

    ev = _read(sf_dir, "events", ["user_id"])
    g = ev.groupby("user_id").aggregate(Count(alias_name="n_events"))
    return g.sort(["n_events", "user_id"], descending=[True, False]).limit(20)


def _q_doc_profile(sf_dir: str):
    from obsidian_parser_ray.stages.text import text_profile

    return text_profile(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_lang_stats(sf_dir: str):
    from obsidian_parser_ray.stages.text import lang_stats

    return lang_stats(_read(sf_dir, "documents", ["lang", "text"]))


def _q_doc_langid(sf_dir: str):
    """Deterministic heuristic language ID (stopword evidence +
    char-class overrides) — rules replicated exactly in SQL."""
    from obsidian_parser_ray.stages.text import lang_id

    return lang_id(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_doc_minhash_neardup(sf_dir: str):
    """MinHash-LSH as a RECALL GATE against the exact n-gram Jaccard
    pair set (which IS SQL-computable): emits the exact ≥0.5-Jaccard
    pair count plus a boolean asserting LSH recall ≥ 0.9 over that
    set.  The signatures/bands are deterministic, so the gate is
    stable; an LSH regression flips the boolean."""
    import pandas as pd

    from obsidian_parser_ray.stages.dedup import (
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    found = minhash_lsh_pairs(ds, threshold=0.4).to_pandas()
    exact = ngram_jaccard_pairs(ds, threshold=0.5, max_df=64).to_pandas()
    f = {(a, b) for a, b in zip(found["id_a"], found["id_b"])}
    t = {(a, b) for a, b in zip(exact["id_a"], exact["id_b"])}
    recall = len(f & t) / len(t) if t else 1.0
    return pd.DataFrame(
        [{"n_true_pairs": len(t), "recall_ok": bool(recall >= 0.9)}]
    )


def _q_doc_simhash_neardup(sf_dir: str):
    """SimHash (Hamming ≤ 3) as a RECALL GATE against the exact
    ≥0.5-Jaccard pair set (SQL-computable, same truth set as the
    MinHash gate).  SimHash targets cosine-style similarity so its
    recall over the Jaccard set is structurally below 1 — measured
    0.73–0.80 across sf0.001/0.01/0.1; the gate asserts ≥ 0.6.  A
    hash/bucketing regression (bit corruption, block-permutation bug)
    drops it to ~0 and flips the boolean."""
    import pandas as pd

    from obsidian_parser_ray.stages.dedup import ngram_jaccard_pairs, simhash_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    found = simhash_pairs(ds).to_pandas()
    exact = ngram_jaccard_pairs(ds, threshold=0.5, max_df=64).to_pandas()
    f = {tuple(sorted(p)) for p in zip(found["id_a"], found["id_b"])}
    t = {tuple(sorted(p)) for p in zip(exact["id_a"], exact["id_b"])}
    recall = len(f & t) / len(t) if t else 1.0
    return pd.DataFrame(
        [{"n_true_pairs": len(t), "recall_ok": bool(recall >= 0.6)}]
    )


def _q_emb_knn(sf_dir: str):
    from obsidian_parser_ray.stages.similarity import knn_bruteforce, load_queries

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn_bruteforce(ds, load_queries(ds, n_queries=10), k=5, concurrency=2)
    return out.select_columns(["query_id", "neighbor_id", "rank"])


def _q_emb_knn_ivf(sf_dir: str):
    """IVF-flat kNN as a RECALL GATE vs brute force: per query, the
    ratio of IVF@5 ∩ exact@5; the gate asserts MEAN recall ≥ 0.3
    (deterministic seeded centroids; random embeddings at nprobe=4/16
    centroids measure ≈0.46 — a pruning/assignment regression drops it
    to ~0).  Exact@5 is itself oracle-checked separately (emb_knn)."""
    import pandas as pd

    from obsidian_parser_ray.stages.similarity import (
        knn_bruteforce,
        knn_ivf,
        load_queries,
    )

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = load_queries(ds, n_queries=10)
    ivf = knn_ivf(ds, q, k=5, n_centroids=16, nprobe=4).to_pandas()
    bf = knn_bruteforce(ds, q, k=5, concurrency=2).to_pandas()
    recalls = []
    for qid in sorted(set(bf["query_id"])):
        a = set(ivf[ivf.query_id == qid]["neighbor_id"])
        b = set(bf[bf.query_id == qid]["neighbor_id"])
        recalls.append(len(a & b) / len(b))
    mean_recall = sum(recalls) / len(recalls)
    return pd.DataFrame(
        [{"n_queries": len(recalls), "recall_ok": bool(mean_recall >= 0.3)}]
    )


def _q_emb_dedup_drop(sf_dir: str):
    """Semantic (embedding-space) dedup DROP gate
    (stages/dedup.py drop_embedding_duplicates): over the same
    planted-copy corpus as emb_neardup, dropping cosine-≥0.9 clusters
    must keep exactly the original table (every planted copy pairs
    with its source, min id wins; the raw table has no pair above
    0.52 so no original may be lost).  The oracle states the exact
    expected survivor count."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from obsidian_parser_ray.stages.dedup import drop_embedding_duplicates

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_pylist()
        vecs = t["embedding"].to_pylist()
        out_id, out_vec = [], []
        for i, v in zip(ids, vecs):
            if i < 25:
                rng = np.random.RandomState(1000 + i)
                pert = np.asarray(v, dtype=np.float64)
                pert = pert + rng.standard_normal(len(pert)) * 0.01 * (
                    np.abs(pert).mean() or 1.0
                )
                out_id.append(i + 1_000_000)
                out_vec.append(pert.astype(np.float32).tolist())
        return pa.table(
            {
                "vec_id": pa.array(out_id, pa.int64()),
                "embedding": pa.array(out_vec, pa.list_(pa.float32())),
            }
        )

    corpus = ds.union(ds.map_batches(plant, batch_format="pyarrow"))
    n_orig = ds.count()
    kept = drop_embedding_duplicates(
        corpus, threshold=0.9, num_tables=3
    ).to_pandas()
    kept_ids = set(int(v) for v in kept["vec_id"])
    orig_ids = set(range(n_orig))
    survivors_ok = kept_ids == orig_ids  # min id per planted cluster
    return pd.DataFrame(
        [{"n_kept": len(kept_ids), "survivors_ok": bool(survivors_ok)}]
    )


def _q_emb_knn_pq(sf_dir: str):
    """Product-quantization kNN (stages/similarity.py pq_knn — 8-byte
    codes, ADC scan, exact re-rank of the refine candidates) as a
    RECALL GATE vs brute force: mean recall@5 ≥ 0.7 at refine=32
    (measured 0.88–0.98 across sf0.001/0.01/0.1; a codebook/encode/ADC
    regression drops it to ~0).  Additionally asserts EXACT cosine
    parity on overlapping pairs — the re-rank must reproduce brute
    force's scores bit-for-bit."""
    import pandas as pd

    from obsidian_parser_ray.stages.similarity import (
        knn_bruteforce,
        load_queries,
        pq_knn,
    )

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    q = load_queries(ds, n_queries=10)
    pq = pq_knn(ds, q, k=5, refine=32, concurrency=2).to_pandas()
    bf = knn_bruteforce(ds, q, k=5, concurrency=2).to_pandas()
    me = {(r.query_id, r.neighbor_id): r.cosine for r in bf.itertuples()}
    cos_exact = all(
        abs(me[(r.query_id, r.neighbor_id)] - r.cosine) < 1e-12
        for r in pq.itertuples()
        if (r.query_id, r.neighbor_id) in me
    )
    recalls = []
    for qid in sorted(set(bf["query_id"])):
        a = set(pq[pq.query_id == qid]["neighbor_id"])
        b = set(bf[bf.query_id == qid]["neighbor_id"])
        recalls.append(len(a & b) / len(b))
    mean_recall = sum(recalls) / len(recalls)
    return pd.DataFrame(
        [
            {
                "n_queries": len(recalls),
                "recall_ok": bool(mean_recall >= 0.7),
                "rerank_exact": bool(cos_exact),
            }
        ]
    )


def _q_emb_neardup(sf_dir: str):
    """Embedding near-dup RECALL/PRECISION GATE over a derived corpus
    with PLANTED near-duplicates (the raw table has no pair above
    cosine 0.52 — an unmodified run would emit zero rows and verify
    nothing).  Planted copies are deterministic: vec_id < 25
    re-emitted at vec_id+1_000_000 with a seeded 1% perturbation; the
    gate compares multi-table LSH output against the exact all-pairs
    mode of the same operator (num_planes=0) and asserts recall ≥ 0.8
    and exact precision.  The oracle states the expected true-pair
    count (one per planted copy) and the TRUE gates in SQL."""
    import numpy as np
    import pyarrow as pa

    from obsidian_parser_ray.stages.dedup import embedding_neardup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_pylist()
        vecs = t["embedding"].to_pylist()
        out_id, out_vec = [], []
        for i, v in zip(ids, vecs):
            if i < 25:
                rng = np.random.RandomState(1000 + i)
                pert = np.asarray(v, dtype=np.float64)
                pert = pert + rng.standard_normal(len(pert)) * 0.01 * (
                    np.abs(pert).mean() or 1.0
                )
                out_id.append(i + 1_000_000)
                out_vec.append(pert.astype(np.float32).tolist())
        return pa.table(
            {
                "vec_id": pa.array(out_id, pa.int64()),
                "embedding": pa.array(out_vec, pa.list_(pa.float32())),
            }
        )

    corpus = ds.union(ds.map_batches(plant, batch_format="pyarrow"))
    lsh = embedding_neardup_pairs(corpus, threshold=0.9).to_pandas()
    # exact mode: num_planes=0 → single bucket → all-pairs verify
    # (fine at driver-gate scale; the LSH path is the scale path)
    exact = embedding_neardup_pairs(
        corpus, threshold=0.9, num_planes=0, num_tables=1,
        max_bucket=10_000_000,
    ).to_pandas()
    f = {(a, b) for a, b in zip(lsh["id_a"], lsh["id_b"])}
    t = {(a, b) for a, b in zip(exact["id_a"], exact["id_b"])}
    recall = len(f & t) / len(t) if t else 1.0
    import pandas as pd

    return pd.DataFrame(
        [
            {
                "n_true_pairs": len(t),
                "recall_ok": bool(recall >= 0.8),
                "precision_ok": bool(f <= t),
            }
        ]
    )


def _q_events_hourly(sf_dir: str):
    from obsidian_parser_ray.stages.events import hourly_counts

    return hourly_counts(_read(sf_dir, "events", ["user_id", "ts"]))


def _q_events_sessions(sf_dir: str):
    from obsidian_parser_ray.stages.events import sessionize

    return sessionize(_read(sf_dir, "events", ["user_id", "ts"]))


def _q_events_funnel(sf_dir: str):
    """Ordered 3-step funnel signup → view → purchase: per user the
    earliest strictly-increasing completion times (integer epoch
    seconds; -1 = step not reached)."""
    from obsidian_parser_ray.stages.events import funnel

    return funnel(
        _read(sf_dir, "events", ["user_id", "ts", "event_type"]),
        ["signup", "view", "purchase"],
    )


def _q_events_retention(sf_dir: str):
    """Daily cohort retention matrix: users active N days after their
    first-ever active day."""
    from obsidian_parser_ray.stages.events import retention_cohorts

    return retention_cohorts(_read(sf_dir, "events", ["user_id", "ts"]))


def _q_events_type_stats(sf_dir: str):
    from obsidian_parser_ray.stages.events import type_stats

    return type_stats(_read(sf_dir, "events", ["event_type", "value"]))


def _events_seconds(sf_dir: str, *, event_type: str, columns: list):
    """Events of one type with ts as exact integer epoch seconds."""
    import pyarrow as pa
    import pyarrow.compute as pc

    # a pc.equal kernel, not an interpolated expr string: quotes in
    # ``event_type`` reach no parser
    value = pa.scalar(event_type, pa.string())

    def to_s(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], value))
        s = pc.divide(pc.cast(t["ts"], pa.int64()), 1_000_000)
        return t.append_column("s", s)

    return (
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])
        .map_batches(to_s, batch_format="pyarrow")
        .select_columns(columns)
    )


def _q_events_value_quantiles(sf_dir: str):
    """Mergeable quantile sketch as a TOLERANCE GATE (same pattern as
    events_approx_users): the query estimates q10/q50/q90 of `value`
    with the per-block compaction summary, then verifies each estimate
    DISTRIBUTEDLY — the true rank of the estimate (one counting pass)
    must be within ±2% of the requested quantile (sketch bound: ≤1/k =
    0.2%).  The oracle expects (n_rows, TRUE, TRUE, TRUE)."""
    import pandas as pd
    import pyarrow as pa

    from obsidian_parser_ray.stages.sketch import approx_quantiles

    ev = _read(sf_dir, "events", ["value"])
    qs = [0.1, 0.5, 0.9]
    est = approx_quantiles(ev, "value", qs, k=512)

    def rank_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = t["value"]
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                **{
                    f"le{i}": pa.array(
                        [pc.sum(pc.less_equal(v, e)).as_py() or 0], pa.int64()
                    )
                    for i, e in enumerate(est)
                },
            }
        )

    # one distributed counting pass for all three rank checks
    parts = ev.map_batches(rank_partial, batch_format="pyarrow").to_pandas()
    n = int(parts["n"].sum())
    row = {"n_rows": n}
    for i, q in enumerate(qs):
        rank = parts[f"le{i}"].sum() / n
        row[f"q{int(q * 100)}_ok"] = bool(abs(rank - q) <= 0.02)
    return pd.DataFrame([row])


def _q_events_type_quantiles(sf_dir: str):
    """Grouped quantile sketch as a TOLERANCE GATE: per event_type
    q25/q50/q75 of `value` estimated with approx_quantiles_by, each
    verified DISTRIBUTEDLY — the true within-type rank of the estimate
    (one counting pass for all types × quantiles) must be within ±2%
    (sketch bound ≤ 1/k = 0.2%).  Oracle: exact per-type counts +
    expected-TRUE booleans."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.sketch import approx_quantiles_by

    ev = _read(sf_dir, "events", ["event_type", "value"])
    qs = [0.25, 0.5, 0.75]
    est = approx_quantiles_by(ev, "event_type", "value", qs, k=512).to_pandas()
    thresholds = {
        r["event_type"]: [r["q25"], r["q50"], r["q75"]]
        for _, r in est.iterrows()
    }

    def rank_partial(t: pa.Table) -> pa.Table:
        types, ns = [], []
        les: list[list] = [[] for _ in qs]
        for et, th in thresholds.items():
            sub = t.filter(pc.equal(t["event_type"], et))["value"]
            types.append(et)
            ns.append(len(sub))
            for i, e in enumerate(th):
                les[i].append(pc.sum(pc.less_equal(sub, e)).as_py() or 0)
        return pa.table(
            {
                "event_type": pa.array(types, pa.string()),
                "n": pa.array(ns, pa.int64()),
                **{
                    f"le{i}": pa.array(le, pa.int64())
                    for i, le in enumerate(les)
                },
            }
        )

    parts = ev.map_batches(rank_partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("event_type", as_index=False).sum()
    out = {"event_type": g["event_type"], "n_events": g["n"].astype("int64")}
    for i, q in enumerate(qs):
        rank = g[f"le{i}"] / g["n"]
        out[f"q{int(q * 100)}_ok"] = (rank - q).abs() <= 0.02
    return pd.DataFrame(out)


def _q_events_type_approx_users(sf_dir: str):
    """Grouped HLL as a TOLERANCE GATE: per event_type approximate
    distinct users, each within 5% of the exact distinct count
    (p=12 → σ≈1.6%).  Oracle: exact per-type distincts + TRUE."""
    import pandas as pd
    from ray.data.aggregate import Count

    from obsidian_parser_ray.stages.sketch import approx_distinct_by

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    est = approx_distinct_by(ev, "event_type", "user_id", p=12).to_pandas()
    exact = (
        ev.groupby(["event_type", "user_id"])
        .count()
        .groupby("event_type")
        .aggregate(Count(alias_name="n_users"))
        .to_pandas()
    )
    m = exact.merge(est, on="event_type")
    m["within_5pct"] = (
        (m["approx_distinct"] - m["n_users"]).abs() / m["n_users"] <= 0.05
    )
    return m[["event_type", "n_users", "within_5pct"]]


def _q_events_heavy_users(sf_dir: str):
    """Misra–Gries heavy hitters as a TOLERANCE GATE: the exact top-10
    users (distributed groupby + deterministic tie-break) each must be
    present in the k=512 sketch with an estimate within the documented
    bound (undercount ≤ n/(k+1), never overcount).  Oracle expects the
    exact top-10 with TRUE booleans."""
    import pandas as pd
    from ray.data.aggregate import Count

    from obsidian_parser_ray.stages.sketch import frequent_items

    ev = _read(sf_dir, "events", ["user_id"])
    sketch = frequent_items(ev, "user_id", k=512)
    top = (
        ev.groupby("user_id")
        .aggregate(Count(alias_name="n_events"))
        .sort(["n_events", "user_id"], descending=[True, False])
        .limit(10)
        .to_pandas()
    )
    n = int(ev.count())
    bound = n / (512 + 1)
    top["in_sketch"] = [int(u) in sketch for u in top["user_id"]]
    top["within_bound"] = [
        bool(0 <= c - sketch.get(int(u), 0) <= bound)
        for u, c in zip(top["user_id"], top["n_events"])
    ]
    return top


def _q_events_bursts(sf_dir: str):
    """Burst detection: each user's MAX event count over any sliding
    1-hour window (15-min hops) — hopping_counts composed with a
    grouped max, exact integers end to end."""
    from ray.data.aggregate import Max

    from obsidian_parser_ray.stages.events import hopping_counts

    return (
        hopping_counts(
            _read(sf_dir, "events", ["user_id", "ts"]),
            window_seconds=3600, hop_seconds=900,
        )
        .groupby("user_id")
        .aggregate(Max("n_events", alias_name="peak_events"))
    )


def _q_events_hopping(sf_dir: str):
    """Hopping (sliding) windows: 1 h window, 15 min hop — each event
    counted into 4 overlapping windows."""
    from obsidian_parser_ray.stages.events import hopping_counts

    return hopping_counts(
        _read(sf_dir, "events", ["user_id", "ts"]),
        window_seconds=3600, hop_seconds=900,
    )


def _q_events_asof(sf_dir: str):
    """As-of join: each click matched to the user's latest prior (or
    simultaneous) purchase.  The right side is pre-aggregated to one
    row per (user, second) — max(value) — which makes the as-of match
    deterministic (DuckDB ASOF JOIN has the same uniqueness
    requirement).  Unmatched rows are coalesced to -1 so the compared
    output is null-free."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    from obsidian_parser_ray.stages.events import asof_join

    left = _events_seconds(
        sf_dir, event_type="click", columns=["event_id", "user_id", "s"]
    )
    right = (
        _events_seconds(sf_dir, event_type="purchase",
                        columns=["user_id", "s", "value"])
        .groupby(["user_id", "s"])
        .aggregate(Max("value", alias_name="p_value"))
    )
    j = asof_join(left, right, key_col="user_id", ts_col="s")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "s": t["s"],
                "p_s": pc.fill_null(t["s_r"], -1),
                "p_value": pc.fill_null(t["p_value"], -1.0),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow")


def _q_events_purchases_in_session(sf_dir: str):
    """Interval (range) join: purchases matched into the session window
    containing them, then counted per session — (user_id, session_idx,
    n_purchases) for sessions with at least one purchase."""
    from ray.data.aggregate import Count

    from obsidian_parser_ray.stages.events import interval_join, sessionize

    sessions = sessionize(_read(sf_dir, "events", ["user_id", "ts"])).drop_columns(
        ["n_events"]
    )
    pts = _events_seconds(
        sf_dir, event_type="purchase", columns=["event_id", "user_id", "s"]
    )
    j = interval_join(
        pts, sessions, key_col="user_id", ts_col="s",
        start_col="start_s", end_col="end_s",
    )
    return (
        j.groupby(["user_id", "session_idx"])
        .aggregate(Count(alias_name="n_purchases"))
    )


def _q_events_interval_overlap(sf_dir: str):
    """OVERLAPPING-interval join: clicks matched to EVERY ±15-minute
    window around a purchase of the same user (windows overlap whenever
    purchases cluster — the case interval_join's as-of reduction cannot
    express; stages/events.py interval_join_overlapping, VERDICT r2
    #7).  Oracle: DuckDB inequality join."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.events import interval_join_overlapping

    pts = _events_seconds(
        sf_dir, event_type="click", columns=["event_id", "user_id", "s"]
    )

    def widen(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "anchor_id": t["event_id"],
                "w_start": pc.subtract(t["s"], pa.scalar(900, pa.int64())),
                "w_end": pc.add(t["s"], pa.scalar(900, pa.int64())),
            }
        )

    iv = _events_seconds(
        sf_dir, event_type="purchase", columns=["event_id", "user_id", "s"]
    ).map_batches(widen, batch_format="pyarrow")
    out = interval_join_overlapping(
        pts, iv, key_col="user_id", ts_col="s",
        start_col="w_start", end_col="w_end",
    )

    def as_arrow(t: pa.Table) -> pa.Table:
        # normalize pandas-block output (nullable Int64) to plain
        # Arrow int64 blocks for the driver's dtype-sensitive compare
        return t

    return out.select_columns(
        ["event_id", "user_id", "s", "anchor_id"]
    ).map_batches(as_arrow, batch_format="pyarrow")


def _q_media_features(sf_dir: str):
    """Media decode features, hash-checked: the fake decoder derives
    media_type / n_bytes / width / height / duration_ms from md5 of
    the asset id, which the SQL oracle re-derives in DuckDB — so the
    ref-extraction, distributed dedup, payload synthesis, and decode
    metadata passthrough are all value-verified.  phash/embedding
    (functions of the RNG payload bytes) stay test-only columns."""
    from obsidian_parser_ray import synth_vault
    from obsidian_parser_ray.stages.multimodal import decode_media, media_from_vault

    feats = decode_media(media_from_vault(synth_vault(sf_dir)), concurrency=1)
    return feats.select_columns(
        ["asset_id", "media_type", "n_bytes", "width", "height", "duration_ms"]
    )


def _q_doc_text_knn(sf_dir: str):
    """Model-free text similarity search, hash-exact end to end:
    hashed_doc_vectors → sparse_topk_inner_products (integer dots, id
    tie-break) — top-3 most-similar docs for doc_id < 5, replayed
    exactly in SQL over the same md5-derived vectors."""
    from obsidian_parser_ray.stages.similarity import (
        sparse_topk_inner_products,
    )
    from obsidian_parser_ray.stages.text import hashed_doc_vectors

    vecs = hashed_doc_vectors(
        _read(sf_dir, "documents", ["doc_id", "text"]), dim=64
    )
    return sparse_topk_inner_products(vecs, [0, 1, 2, 3, 4], k=3)


def _q_doc_hash_vectors(sf_dir: str):
    """Feature-hashing document vectors (stages/text.py
    hashed_doc_vectors — the hashing-trick embedding for text-only
    corpora): md5-derived buckets/signs, so the SQL twin recomputes
    every sparse vector entry exactly."""
    from obsidian_parser_ray.stages.text import hashed_doc_vectors

    return hashed_doc_vectors(
        _read(sf_dir, "documents", ["doc_id", "text"]), dim=64
    )


def _q_doc_collocations(sf_dir: str):
    """Collocation statistics: co-occurrence pairs joined to BOTH
    words' exact global frequencies — the integer sufficient
    statistics of PMI (all-exact join composition:
    cooccurrence_counts ⋈ token_frequencies ⋈ token_frequencies)."""
    import pyarrow as pa

    from obsidian_parser_ray.stages.joins import hash_join_unique
    from obsidian_parser_ray.stages.text import (
        cooccurrence_counts,
        token_frequencies,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    cooc = cooccurrence_counts(docs, window=4, min_count=3)
    # materialized: consumed by BOTH marginal joins below — lazy, the
    # whole frequency derivation would run twice
    freq = token_frequencies(docs).materialize()

    def rn(new):
        def f(t: pa.Table) -> pa.Table:
            return t.rename_columns([new, "c" + new[1]])

        return f

    j = hash_join_unique(
        cooc, freq.map_batches(rn("w1"), batch_format="pyarrow"),
        left_key="w1",
    )
    j = hash_join_unique(
        j, freq.map_batches(rn("w2"), batch_format="pyarrow"),
        left_key="w2",
    )
    return j.select_columns(["w1", "w2", "n_cooc", "c1", "c2"])


def _q_doc_mixture(sf_dir: str):
    """Proportional training-mix sampling (stages/chunking.py
    sample_mixture): per-language quotas floor(frac × n_lang), members
    = smallest md5(doc_id) per language — exact SQL twin via windowed
    rank against per-key counts."""
    from obsidian_parser_ray.stages.chunking import sample_mixture

    return sample_mixture(
        _read(sf_dir, "documents", ["doc_id", "lang"]),
        key_col="lang",
        fractions={"en": 0.5, "de": 0.25, "fr": 0.1},
        id_col="doc_id",
    )


def _q_doc_cooccurrence(sf_dir: str):
    """Windowed word co-occurrence counts (stages/text.py
    cooccurrence_counts — the GloVe/PMI corpus statistic): unordered
    in-window pairs, exact integer counts, min_count floor — full
    value check against a positional self-join SQL twin."""
    from obsidian_parser_ray.stages.text import cooccurrence_counts

    return cooccurrence_counts(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        window=4, min_count=3,
    )


def _q_graph_walks(sf_dir: str):
    """Deterministic random walks (stages/graphops.py random_walks —
    hash-min uniform neighbor sampling over the caller-side CSR, or
    per-step Dataset rounds past the broadcast guard)
    over the customer→order→supplier graph, gated: exactly one walk
    per customer-with-orders (SQL-exact count) and EVERY emitted hop
    must be a real edge (distributed anti-join of hop pairs vs the
    edge set → zero violations)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.graphops import random_walks
    from obsidian_parser_ray.stages.joins import hash_join_unique

    def as_edges(prefix_a, prefix_b, ka, kb):
        def f(t: pa.Table) -> pa.Table:
            a = pc.binary_join_element_wise(
                pa.array([prefix_a] * t.num_rows),
                pc.cast(t[ka], pa.string()), ":",
            )
            b = pc.binary_join_element_wise(
                pa.array([prefix_b] * t.num_rows),
                pc.cast(t[kb], pa.string()), ":",
            )
            n = t.num_rows
            return pa.table(
                {
                    "subj": a,
                    "pred": pa.array(["links_to"] * n, pa.string()),
                    "obj": b,
                    "weight": pa.array([1] * n, pa.int64()),
                }
            )

        return f

    edges = _read(sf_dir, "orders", ["o_custkey", "o_orderkey"]).map_batches(
        as_edges("c", "o", "o_custkey", "o_orderkey"),
        batch_format="pyarrow",
    ).union(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"]).map_batches(
            as_edges("o", "s", "l_orderkey", "l_suppkey"),
            batch_format="pyarrow",
        )
    )
    walks = random_walks(
        edges, walks_per_node=1, walk_len=2, num_partitions=16
    ).materialize()

    # distributed validity: every (step k-1 → step k) hop is an edge
    def hop_pairs(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["walk_id", "step"])
        prev = df.groupby("walk_id", sort=False)["node"].shift()
        m = prev.notna()
        # join with Arrow, NOT pandas: `Series + "\x00"` silently drops
        # the NUL (C-string truncation inside pandas' scalar-op path)
        return pa.table(
            {
                "k": pc.binary_join_element_wise(
                    pa.array(prev[m].to_numpy(), pa.string()),
                    pa.array(df["node"][m].to_numpy(), pa.string()),
                    "\x00",
                )
            }
        )

    # walk rows for one walk can span blocks — co-locate per walk first
    from obsidian_parser_ray.hashing import hash_bucket_array

    def tag(t: pa.Table) -> pa.Table:
        w = t["walk_id"]
        if isinstance(w, pa.ChunkedArray):
            w = w.combine_chunks()
        return t.append_column("part", hash_bucket_array(w, 16))

    pairs = (
        walks.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(hop_pairs, batch_format="pyarrow")
    )

    def edge_keys(t: pa.Table) -> pa.Table:
        return pa.table(
            {"k": pc.binary_join_element_wise(t["subj"], t["obj"], "\x00")}
        )

    violations = hash_join_unique(
        pairs.map_batches(lambda t: t, batch_format="pyarrow"),
        edges.map_batches(edge_keys, batch_format="pyarrow"),
        left_key="k", how="anti", num_partitions=16,
    ).count()
    n_walks = walks.filter(expr="step == 0").count()
    walk_starts = n_walks  # one per distinct subject by construction
    return pd.DataFrame(
        [
            {
                "n_walks": int(walk_starts),
                "valid_ok": bool(violations == 0),
            }
        ]
    )


def _q_dq_referential(sf_dir: str):
    """Data-quality constraint sweep: referential integrity
    (orders→customer, lineitem→orders via distributed ANTI joins) and
    key uniqueness (customer.c_custkey) — the checks an ingestion job
    gates on before publishing a table.  Exact SQL twin."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from obsidian_parser_ray.stages.joins import hash_join_unique

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def rn(new):
        def f(t: pa.Table) -> pa.Table:
            return t.rename_columns([new])

        return f

    orphan_orders = hash_join_unique(
        orders, cust.map_batches(rn("o_custkey"), batch_format="pyarrow"),
        left_key="o_custkey", how="anti",
    ).count()
    orphan_lineitems = hash_join_unique(
        li,
        orders.select_columns(["o_orderkey"]).map_batches(
            rn("l_orderkey"), batch_format="pyarrow"
        ),
        left_key="l_orderkey", how="anti",
    ).count()
    per_key = cust.groupby("c_custkey").aggregate(Count(alias_name="n"))
    dup_custkeys = per_key.map_batches(
        lambda t: t.filter(pc.greater(t["n"], 1)), batch_format="pyarrow"
    ).count()
    return pd.DataFrame(
        [
            {
                "orphan_orders": int(orphan_orders),
                "orphan_lineitems": int(orphan_lineitems),
                "dup_custkeys": int(dup_custkeys),
            }
        ]
    )


def _q_doc_normalize(sf_dir: str):
    """Vectorized corpus normalization (stages/text.py normalize_text:
    control-strip → lowercase → whitespace collapse, all RE2/Arrow
    kernels) — the SQL twin applies the identical rewrite chain, so
    the normalized text is value-checked byte-for-byte."""
    from obsidian_parser_ray.stages.text import normalize_text

    return normalize_text(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_doc_lm_quality(sf_dir: str):
    """Char-trigram LM surprisal (stages/text.py train_char_lm /
    char_lm_surprisal — the KenLM-shaped quality filter) as a
    SELF-VALIDATING gate: the model is trained on the corpus, then
    every document is scored against a deterministically scrambled
    twin (same characters, seeded shuffle) — language-like structure
    must be less surprising, so ≥95% of docs must beat their twin.  A
    counting/smoothing/lookup regression collapses the separation."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from ray.data.aggregate import Sum

    from obsidian_parser_ray.stages.text import train_char_lm

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    logp, _total = train_char_lm(docs)
    ref = ray.put(logp)

    def scramble_and_compare(t: pa.Table) -> pa.Table:
        # both scores computed IN the batch → the comparison stays
        # distributed; only two counters reach the driver
        from obsidian_parser_ray.stages.text import _byte_trigrams

        table = ray.get(ref)
        n = t.num_rows
        better = 0
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            rng = np.random.RandomState(int(d) % (2**31))
            chars = list(x)
            rng.shuffle(chars)
            tri_o = _byte_trigrams(x)
            tri_s = _byte_trigrams("".join(chars))
            s_o = -float(np.mean(table[tri_o])) if len(tri_o) else 0.0
            s_s = -float(np.mean(table[tri_s])) if len(tri_s) else 0.0
            better += s_s > s_o
        return pa.table(
            {"n": pa.array([n], pa.int64()),
             "better": pa.array([better], pa.int64())}
        )

    agg = docs.map_batches(
        scramble_and_compare, batch_format="pyarrow"
    ).aggregate(Sum("n", alias_name="n"), Sum("better", alias_name="b"))
    n_docs = int(agg["n"] or 0)
    frac = (int(agg["b"] or 0) / n_docs) if n_docs else 1.0
    return pd.DataFrame(
        [{"n_docs": n_docs, "lm_ok": bool(frac >= 0.95)}]
    )


def _q_doc_dedup_incremental(sf_dir: str):
    """Continuous-ingestion exact dedup (stages/dedup.py
    dedup_against_index): even-id docs are ingested first into a fresh
    persisted digest index, then odd-id docs are deduped against BOTH
    that index and themselves — the SQL twin recomputes the admitted
    odd-id set (text unseen in batch 1, min-id keeper within batch
    2)."""
    import shutil
    import tempfile

    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.dedup import dedup_against_index

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def half(parity: int):
        def f(t: pa.Table) -> pa.Table:
            import numpy as np

            keys = t["doc_id"]
            if isinstance(keys, pa.ChunkedArray):
                keys = keys.combine_chunks()
            mask = pa.array(
                keys.to_numpy(zero_copy_only=False) % 2 == parity
            )
            return t.filter(mask)

        return f

    idx = tempfile.mkdtemp(prefix="digest_idx_")
    try:
        # batch 1: even ids seed the index (output not compared)
        dedup_against_index(
            docs.map_batches(half(0), batch_format="pyarrow"), idx,
            num_partitions=8,
        ).materialize()
        admitted = dedup_against_index(
            docs.map_batches(half(1), batch_format="pyarrow"), idx,
            num_partitions=8,
        )
        return admitted.select_columns(["doc_id"]).materialize()
    finally:
        shutil.rmtree(idx, ignore_errors=True)


def _q_doc_strip_boilerplate(sf_dir: str):
    """Cross-document repeated-substring REMOVAL (Lee et al. 2022
    span-excision, stages/dedup.py remove_repeated_ngrams): every word
    span inside a 5-gram shared by ≥2 distinct docs is excised; the
    SQL twin recomputes the exact clean_text (string_agg of surviving
    tokens) and removal counts — a full value check of both shuffles
    and the interval-union rewrite."""
    from obsidian_parser_ray.stages.dedup import remove_repeated_ngrams

    return remove_repeated_ngrams(
        _read(sf_dir, "documents", ["doc_id", "text"]), n=5, min_docs=2
    )


def _q_events_gap_median(sf_dir: str):
    """Per-user inter-event gap stats (stages/events.py
    inter_event_gaps): count + interpolated median of the gaps between
    consecutive events in integer seconds — numpy median over sorted
    int gaps is exactly SQL median() (mean of the two middles on even
    counts, exactly representable)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.events import inter_event_gaps

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def to_s(t: pa.Table) -> pa.Table:
        s = pc.divide(pc.cast(t["ts"], pa.int64()), 1_000_000)
        return pa.table({"user_id": t["user_id"], "s": s})

    out = inter_event_gaps(ev.map_batches(to_s, batch_format="pyarrow"))

    def as_arrow(t: pa.Table) -> pa.Table:
        return t  # normalize pandas blocks → Arrow for the compare

    return out.map_batches(as_arrow, batch_format="pyarrow")


def _q_customer_rfm(sf_dir: str):
    """RFM (recency / frequency / monetary) customer segmentation —
    the classic behavioral rollup: per customer the last-order epoch
    day, order count, and total spend in exact integer cents
    (floor(price × 100) per order, summed associatively — same
    money-integerization discipline as the sales pipelines)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Sum

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def prep(t: pa.Table) -> pa.Table:
        import numpy as np

        day = pc.divide(
            pc.cast(t["o_orderdate"], pa.int64()), 86_400_000_000
        )
        price = t["o_totalprice"]
        if isinstance(price, pa.ChunkedArray):
            price = price.combine_chunks()
        cents = np.floor(
            price.to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "day": day,
                "cents": pa.array(cents),
            }
        )

    return (
        orders.map_batches(prep, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(
            Max("day", alias_name="last_order_day"),
            Count(alias_name="n_orders"),
            Sum("cents", alias_name="total_cents"),
        )
    )


def _q_customer_full_join(sf_dir: str):
    """FULL OUTER equi-join (stages/joins.py hash_join_unique
    how='full', USING-style coalesced key): a filtered customer subset
    against per-customer order counts — right-only rows are the
    customers the filter removed but who still have orders; left-only
    rows are order-less kept customers.  All outputs coalesced to
    non-null for hash-stable compare."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from obsidian_parser_ray.stages.joins import hash_join_unique

    cust = _read(sf_dir, "customer", ["c_custkey"])

    def mark(t: pa.Table) -> pa.Table:
        keys = t["c_custkey"]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        import numpy as np

        mask = pa.array(keys.to_numpy(zero_copy_only=False) % 3 != 0)
        t = t.filter(mask)
        return t.append_column(
            "has_customer", pa.array([True] * t.num_rows, pa.bool_())
        )

    left = cust.map_batches(mark, batch_format="pyarrow")
    right = (
        _read(sf_dir, "orders", ["o_custkey"])
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n_orders"))
    )

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["c_custkey" if c == "o_custkey" else c for c in t.column_names]
        )

    j = hash_join_unique(
        left, right.map_batches(rename, batch_format="pyarrow"),
        left_key="c_custkey", how="full",
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "has_customer": pc.fill_null(t["has_customer"], False),
                "n_orders": pc.fill_null(t["n_orders"], pa.scalar(0, pa.int64())),
            }
        )

    return j.map_batches(finish, batch_format="pyarrow")


def _q_orders_lineitem_mn(sf_dir: str):
    """General M:N shuffle equi-join (stages/joins.py hash_join):
    orders ⋈ lineitem on the order key WITHOUT pre-aggregation — the
    probe-side build carries duplicate keys (one row per line item),
    which hash_join_unique would reject.  Per-partition resolution is
    dictionary-encode + run-length expansion, no Python row loop."""
    from obsidian_parser_ray.stages.joins import hash_join

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderstatus"])
    items = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_linenumber", "l_quantity"])
    return hash_join(
        orders, items, left_key="o_orderkey", right_key="l_orderkey",
        how="inner", num_partitions=32,
    )


def _q_customer_supplier_mn(sf_dir: str):
    """M:N equi-join with duplicate keys on BOTH sides: customers ⋈
    suppliers of the same nation (the co-location-pair shape whose
    output cardinality is sum over nations of |C_n| × |S_n|)."""
    from obsidian_parser_ray.stages.joins import hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    return hash_join(
        cust, supp, left_key="c_nationkey", right_key="s_nationkey",
        how="inner", num_partitions=16,
    )


def _q_doc_embed_knn(sf_dir: str):
    """Pluggable embedding-INFERENCE stage (stages/embedding.py
    embed_documents: actor pool, model loaded once per actor in
    __init__, batched inference, output contract validated) feeding
    the existing brute-force kNN operator.  The default model is the
    deterministic md5 feature-hash encoder, so DuckDB recomputes every
    dense vector from md5(token) and re-ranks — real vector values
    checked end-to-end, not just shapes.  Zero-vector docs are
    excluded on both sides (cosine undefined)."""
    import numpy as np

    from obsidian_parser_ray.stages.embedding import embed_documents
    from obsidian_parser_ray.stages.similarity import knn_bruteforce

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    # materialize once: queries AND candidates read the same vectors
    emb = embed_documents(docs, dim=64).materialize()

    def nonzero(t):
        import pyarrow as pa

        m = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        if not len(m):
            return t
        return t.filter(pa.array((m * m).sum(axis=1) > 0))

    cand = emb.map_batches(nonzero, batch_format="pyarrow")
    q_rows = sorted(
        (r for r in cand.filter(expr="doc_id < 5").take_all()),
        key=lambda r: r["doc_id"],
    )
    ids = [r["doc_id"] for r in q_rows]
    vecs = np.asarray([r["embedding"] for r in q_rows], dtype=np.float64)
    res = knn_bruteforce(
        cand, (ids, vecs), k=5, vec_col="embedding", id_col="doc_id",
        exclude_self=True,
    )
    return res.select_columns(["query_id", "neighbor_id", "rank"])


def _q_doc_pack(sf_dir: str):
    """Sequence packing (stages/chunking.py pack_sequences) as a
    CONSERVATION + CONSTRAINT gate: chunks → 256-token next-fit bins;
    the query re-verifies DISTRIBUTEDLY that (a) every bin's recorded
    fill equals the sum of its members' tokens, (b) no multi-chunk bin
    exceeds capacity (single oversize chunks ride alone by contract),
    and emits the exact chunk/token totals, which the SQL twin
    recomputes from the same chunk derivation (doc_chunks oracle) —
    expecting (n_chunks, total_tokens, TRUE, TRUE)."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Count, Max, Min, Sum

    from obsidian_parser_ray.stages.chunking import (
        chunk_documents,
        pack_sequences,
    )

    chunks = chunk_documents(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        window=200, overlap=50,
    )
    packed = pack_sequences(chunks, capacity=256)

    per_bin = packed.groupby("bin_id").aggregate(
        Sum("n_tokens", alias_name="member_sum"),
        Max("bin_fill", alias_name="fill"),
        Min("bin_fill", alias_name="fill_min"),
        Count(alias_name="n_members"),
    )

    def check(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        consistent = pc.and_(
            pc.equal(t["member_sum"], t["fill"]),
            pc.equal(t["fill"], t["fill_min"]),
        )
        within = pc.or_(
            pc.less_equal(t["fill"], 256), pc.equal(t["n_members"], 1)
        )
        ok = pc.and_(consistent, within)
        return pa.table(
            {
                "bins": pa.array([t.num_rows], pa.int64()),
                "ok": pa.array(
                    [bool(pc.min(ok).as_py()) if t.num_rows else True],
                    pa.bool_(),
                ),
                "chunks": pa.array(
                    [int(pc.sum(t["n_members"]).as_py() or 0)], pa.int64()
                ),
                "tokens": pa.array(
                    [int(pc.sum(t["member_sum"]).as_py() or 0)], pa.int64()
                ),
            }
        )

    agg = per_bin.map_batches(check, batch_format="pyarrow").aggregate(
        Sum("chunks", alias_name="chunks"),
        Sum("tokens", alias_name="tokens"),
        Min("ok", alias_name="ok"),
    )
    n_chunks = int(agg["chunks"] or 0)
    total_tokens = int(agg["tokens"] or 0)
    bins_ok = bool(agg["ok"]) if agg["ok"] is not None else True
    # conservation vs the un-packed chunk table (independent lineage)
    src = chunks.aggregate(
        Count(alias_name="n"), Sum("n_tokens", alias_name="tok")
    )
    conserve_ok = (n_chunks == int(src["n"] or 0)
                   and total_tokens == int(src["tok"] or 0))
    return pd.DataFrame(
        [
            {
                "n_chunks": n_chunks,
                "total_tokens": total_tokens,
                "fill_ok": bool(bins_ok),
                "conserve_ok": bool(conserve_ok),
            }
        ]
    )


def _q_media_decode_real(sf_dir: str):
    """REAL six-codec decode, value-checked: every payload is an
    actual encoded file (PNG, baseline JPEG or progressive SOF2 JPEG
    for images, PCM16 or compressed IMA-ADPCM WAV for audio, ISO
    BMFF/MP4 container for video, split by md5 of the asset id —
    stages/multimodal.py synth_real_media_batch; codecs in
    stages/png.py + stages/jpeg.py + stages/jpeg_progressive.py +
    stages/wav.py + stages/mp4.py), decoded with strict=True — no
    fake fallback — so the only way width/height/duration come back
    right is a real header+payload decode (incl. the SOF2 scan loop,
    the ADPCM block recurrence + fact-chunk trim, and the
    moov/mvhd/tkhd box walk).  The SQL oracle recomputes the planted
    values from md5(asset_id)."""
    from obsidian_parser_ray import synth_vault
    from obsidian_parser_ray.stages.multimodal import (
        decode_media,
        media_from_vault,
        synth_real_media_batch,
    )

    media = media_from_vault(
        synth_vault(sf_dir), synth=synth_real_media_batch
    )
    feats = decode_media(media, strict=True, concurrency=1)
    return feats.select_columns(
        ["asset_id", "media_type", "width", "height", "duration_ms"]
    )


def _q_media_thumbnails(sf_dir: str):
    """REAL image resize, value-checked end to end: real-codec image
    payloads (PNG / baseline JPEG / SOF2 JPEG) are decoded, box-filter
    downsampled to fit 16 px (stages/multimodal.py resize_images,
    strict — no fallback) and re-encoded as PNG; the query then
    decodes each thumbnail PNG BACK and reports its true dimensions —
    so source decode, integer thumb-dims arithmetic, resample AND PNG
    re-encode must all be right for the md5-derived oracle values to
    match."""
    import pyarrow as pa

    from obsidian_parser_ray import synth_vault
    from obsidian_parser_ray.stages.multimodal import (
        media_from_vault,
        resize_images,
        synth_real_media_batch,
    )

    media = media_from_vault(
        synth_vault(sf_dir), synth=synth_real_media_batch
    )
    thumbs = resize_images(media, max_dim=16, strict=True)

    def roundtrip(t: pa.Table) -> pa.Table:
        from obsidian_parser_ray.stages.png import decode_png

        ws, hs = [], []
        for p in t["thumb"].to_pylist():
            img = decode_png(p)
            hs.append(img.shape[0])
            ws.append(img.shape[1])
        return pa.table({
            "asset_id": t["asset_id"],
            "src_w": t["src_w"],
            "src_h": t["src_h"],
            "width": pa.array(ws, pa.int64()),
            "height": pa.array(hs, pa.int64()),
        })

    return thumbs.map_batches(roundtrip, batch_format="pyarrow")


def _q_media_frame_sample(sf_dir: str):
    """REAL video frame sampling, value-checked per frame: every asset
    becomes a motion-JPEG MP4 with genuine stsz/stco sample tables
    (stages/mp4.py encode_mjpeg_mp4); the stage walks the tables,
    extracts every 2nd frame byte-exactly and decodes it with the real
    baseline-JPEG codec (stages/multimodal.py sample_video_frames,
    strict).  Planted constant grays are multiples of the quality-85
    DC quantizer step, so decoded dims AND the per-frame mean gray
    match the md5-derived SQL oracle bit-for-bit."""
    from obsidian_parser_ray import synth_vault
    from obsidian_parser_ray.stages.multimodal import (
        media_from_vault,
        sample_video_frames,
        synth_mjpeg_media_batch,
    )

    media = media_from_vault(
        synth_vault(sf_dir), synth=synth_mjpeg_media_batch
    )
    return sample_video_frames(media, stride=2, strict=True)


def _q_doc_media_join(sf_dir: str):
    """Cross-modal join, value-checked end to end: media spans are
    extracted from the vault (one (note, asset_id) row per media
    span), the assets are strict-decoded through the real six-codec
    path, and the decoded features are joined back to the notes with
    the general M:N `hash_join` (stages/joins.py:361) — the standard
    'which documents carry which media, and what is in that media'
    enrichment of a multimodal training pipeline.  The SQL oracle
    rebuilds the doc→asset mapping from the vault spec (doc_id%6==0 →
    assets/img_{doc_id%10}.png) and the planted decode values from
    md5(asset_id)."""
    import numpy as np
    import pyarrow as pa

    from obsidian_parser_ray import synth_vault
    from obsidian_parser_ray.stages.joins import hash_join
    from obsidian_parser_ray.stages.multimodal import (
        decode_media,
        media_from_vault,
        synth_real_media_batch,
    )

    vault = synth_vault(sf_dir)

    def pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        spans = t["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        flat = spans.flatten()
        offs = spans.offsets.to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        lens = np.diff(offs - offs[0])
        notes = t["doc_id"].take(
            pa.array(
                np.repeat(np.arange(t.num_rows, dtype=np.int64), lens),
                pa.int64(),
            )
        )
        mask = pc.equal(flat.field("kind"), "media")
        return pa.table({
            "note": notes.filter(mask),
            "asset_id": flat.field("media_ref").filter(mask),
        })

    feats = decode_media(
        media_from_vault(vault, synth=synth_real_media_batch),
        strict=True, concurrency=1,
    ).select_columns(
        ["asset_id", "media_type", "width", "height", "duration_ms"]
    )
    return hash_join(
        vault.map_batches(pairs, batch_format="pyarrow"),
        feats,
        left_key="asset_id",
        num_partitions=8,
    )


def _q_media_image_neardup(sf_dir: str):
    """Image near-duplicate pairs, value-checked: every asset is a
    real PNG of its md5-group's shared base image plus a
    mean-preserving two-pixel edit (stages/multimodal.py
    synth_neardup_images_batch — same-group average-hashes are within
    Hamming ≤ 2 BY CONSTRUCTION, cross-group hashes are independent),
    so strict decode → perceptual hash → pigeonhole pairing
    (stages/dedup.py hash64_neardup_pairs) must return exactly the
    same-group pairs the SQL oracle derives from md5(asset_id)."""
    from obsidian_parser_ray import synth_vault
    from obsidian_parser_ray.stages.multimodal import (
        image_neardup_pairs,
        media_from_vault,
        synth_neardup_images_batch,
    )

    media = media_from_vault(
        synth_vault(sf_dir), synth=synth_neardup_images_batch
    )
    return image_neardup_pairs(
        media, max_hamming=3, strict=True
    ).select_columns(["id_a", "id_b"])


def _q_doc_decontaminate(sf_dir: str):
    """Train/test decontamination: distinct 5-gram overlap counts of
    training docs against a benchmark subset (doc_id % 29 == 0),
    value-checked against the SQL sliding-window twin."""
    import numpy as np
    import pyarrow as pa

    from obsidian_parser_ray.stages.dedup import ngram_contamination

    full = _read(sf_dir, "documents", ["doc_id", "text"])

    def train(t):
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        return t.filter(pa.array(ids % 29 != 0))

    def bench(t):
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        return t.filter(pa.array(ids % 29 == 0))

    return ngram_contamination(
        full.map_batches(train, batch_format="pyarrow"),
        full.map_batches(bench, batch_format="pyarrow"),
        n=5,
    )


def _q_doc_domain_stats(sf_dir: str):
    """Per-domain web statistics (stages/text.py domain_stats):
    deterministic URLs (mixed-case hosts derived from doc_id) are
    planted identically in Ray and SQL; hit counts and distinct-doc
    counts per lowercased host must hash-match the unnest twin."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.text import domain_stats

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        d = pc.cast(t["doc_id"], pa.string())
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        g5 = pa.array((ids % 5).astype("U1"))
        g3 = pa.array((ids % 3).astype("U1"))
        planted = pc.binary_join_element_wise(
            t["text"], " https://W", g5, ".example.com/p/", d,
            " http://MIRROR", g3, ".example.org", "",
        )
        return pa.table({"doc_id": t["doc_id"], "text": planted})

    return domain_stats(docs.map_batches(plant, batch_format="pyarrow"))


def _q_doc_line_dedup(sf_dir: str):
    """C4-style global exact-line dedup (stages/dedup.py dedup_lines):
    deterministic line structure is planted identically in Ray and SQL
    (a corpus-wide shared footer — one winner —, a 7-group footer, an
    always-kept short line, a per-doc unique line, plus the original
    text as line 0 so real exact-dup docs dedup too), then every
    duplicated line of length ≥ 3 is kept only at its minimal
    (doc_id, line_no) occurrence.  clean_text, n_lines and n_removed
    must hash-match the SQL row_number() twin."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.dedup import dedup_lines

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        d = pc.cast(t["doc_id"], pa.string())
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        g = pa.array((ids % 7).astype("U1"))
        planted = pc.binary_join_element_wise(
            t["text"], "\nshared footer alpha\ngroup footer ", g,
            "\nok\nunique line ", d, "",
        )
        return pa.table({"doc_id": t["doc_id"], "text": planted})

    return dedup_lines(
        docs.map_batches(plant, batch_format="pyarrow"), min_len=3
    )


def _q_orders_zorder_box(sf_dir: str):
    """Z-order clustered layout (stages/layout.py): orders re-written
    as a Morton-interleaved (o_custkey, cents) parquet layout, then a
    2-D box query answered through manifest pruning + residual filter.
    Values must hash-match the full-scan SQL box; ``pruned_ok``
    additionally gates that the ~0.5% box touched under half the file
    partitions (the data-skipping claim itself)."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.layout import (
        read_zorder,
        write_zorder,
        zorder_plan,
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "cents": pc.cast(
                    pc.floor(pc.multiply(t["o_totalprice"],
                                         pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )

    # deterministic per-input path: write_zorder's publish (a new
    # generation, then the sweep) replaces it on re-runs instead of
    # leaking a fresh mkdtemp directory per query invocation
    tag8 = hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    out = f"/tmp/zorder_gate_{tag8}/orders_z"
    write_zorder(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        out, ["o_custkey", "cents"], bits=10, num_files=64,
    )
    ranges = {"o_custkey": (100, 400), "cents": (1_000_000, 2_000_000)}
    sel, total = zorder_plan(out, ranges)
    pruned_ok = len(sel) < total / 2

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            "pruned_ok", pa.array([pruned_ok] * t.num_rows, pa.bool_())
        )

    return read_zorder(out, ranges).map_batches(
        tag, batch_format="pyarrow"
    )


def _q_doc_redact(sf_dir: str):
    """PII redaction, value-checked end to end: deterministic PII
    (email/IP/long-number derived from doc_id) is planted identically
    in Ray and SQL, then rewritten by the same ordered RE2 chain —
    clean text AND per-pattern match counts must hash-match."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.text import redact_pii

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(t: pa.Table) -> pa.Table:
        d = pc.cast(t["doc_id"], pa.string())
        planted = pc.binary_join_element_wise(
            t["text"], " contact user", d, "@example.com from 10.0.0.7 ref 90000000",
            d, "",
        )
        return pa.table({"doc_id": t["doc_id"], "text": planted})

    return redact_pii(docs.map_batches(plant, batch_format="pyarrow"))


def _q_events_bloom_purchasers(sf_dir: str):
    """Bloom-join prefilter gate: keep events whose user ever
    purchased, via a broadcast Bloom filter instead of a shuffle semi
    join.  Gates: n_exact hash-matches the SQL semi-join count, the
    exact survivor set passes the bloom in full (no false negatives),
    and the FP pass-through rate stays under 2%."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from obsidian_parser_ray.stages.joins import hash_join_unique
    from obsidian_parser_ray.stages.sketch import bloom_semi_filter, build_bloom

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])

    def buyers_only(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], pa.scalar("purchase"))
        return pa.table({"user_id": t.filter(keep)["user_id"]})

    buyers = ev.map_batches(buyers_only, batch_format="pyarrow")
    bloom = build_bloom(buyers, "user_id")
    approx_n = bloom_semi_filter(ev, bloom, "user_id").count()
    exact = hash_join_unique(ev, buyers, left_key="user_id", how="semi")
    exact_n = exact.count()
    total_n = ev.count()
    verified_n = bloom_semi_filter(exact, bloom, "user_id").count()
    fp = (approx_n - exact_n) / max(1, total_n - exact_n)
    return pd.DataFrame(
        [
            {
                "n_exact": int(exact_n),
                "no_false_negatives": bool(verified_n == exact_n),
                "fp_below_2pct": bool(fp <= 0.02),
            }
        ]
    )


# --- relational analytics over the TPC-H-style tables ------------------------


def _q_sales_pricing(sf_dir: str):
    """Q1-shape pricing roll-up: per-block partial aggregate → tiny
    global groupby; money in exact int64 micro-units."""
    import datetime as dt

    from obsidian_parser_ray.pipelines.analytics import pricing_summary

    return pricing_summary(
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity",
               "l_extendedprice", "l_discount", "l_tax", "l_shipdate"]),
        cutoff=dt.datetime(2000, 9, 2),
    )


def _q_sales_top_orders(sf_dir: str):
    """Q3-shape: segment semi-join + pre-aggregated revenue join +
    global partial top-k."""
    from obsidian_parser_ray.pipelines.analytics import top_orders_by_revenue

    return top_orders_by_revenue(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]),
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]),
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
    )


def _q_orders_late_priority(sf_dir: str):
    """Q4-shape: per-order max(shipdate) aggregate ⋈ orders + date
    arithmetic + priority counts."""
    from obsidian_parser_ray.pipelines.analytics import late_order_priority

    return late_order_priority(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]),
        _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]),
    )


def _q_sales_region_revenue(sf_dir: str):
    """Q5-shape: fact ⋈ three scaling dims (shuffle joins) ⋈ two
    bounded dims (driver-broadcast Arrow arrays)."""
    from obsidian_parser_ray.pipelines.analytics import region_nation_revenue

    return region_nation_revenue(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation"),
        _read(sf_dir, "region"),
    )


def _q_customer_order_dist(sf_dir: str):
    """Q13-shape: left join with absent-key=0 semantics → count
    distribution."""
    from obsidian_parser_ray.pipelines.analytics import customer_order_distribution

    return customer_order_distribution(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        _read(sf_dir, "customer", ["c_custkey"]),
    )


def _q_supplier_topk(sf_dir: str):
    """Q15-shape: windowed per-supplier revenue → name join → top-k."""
    from obsidian_parser_ray.pipelines.analytics import top_suppliers

    return top_suppliers(
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_name"]),
    )


def _q_part_supplier_cnt(sf_dir: str):
    """Q16-shape: COUNT(DISTINCT supplier) per part attribute group
    with brand/type/size filters and a bad-supplier exclusion."""
    from obsidian_parser_ray.pipelines.analytics import part_supplier_counts

    return part_supplier_counts(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]),
        _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"]),
    )


def _q_orders_big(sf_dir: str):
    """Q18-shape: HAVING sum(qty) > N on the big groupby, then
    order/customer joins and top-k by price."""
    from obsidian_parser_ray.pipelines.analytics import big_orders

    return big_orders(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]),
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]),
        _read(sf_dir, "customer", ["c_custkey", "c_name"]),
    )


def _q_customer_idle(sf_dir: str):
    """Q22-shape: above-average balance AND no orders, per nation —
    exact integer threshold, anti join."""
    from obsidian_parser_ray.pipelines.analytics import idle_customers

    return idle_customers(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"]),
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
    )


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _q_events_pivot(sf_dir: str):
    """Wide per-user behavioral features: one count column per event
    type (vectorized block-local pivot, single key groupby)."""
    from obsidian_parser_ray.stages.events import pivot_counts

    return pivot_counts(
        _read(sf_dir, "events", ["user_id", "event_type"]),
        types=_EVENT_TYPES,
    )


def _q_events_transitions(sf_dir: str):
    """Markov transition matrix of per-user event sequences
    (lead() twin; one key shuffle + vectorized shift sweep)."""
    from obsidian_parser_ray.stages.events import transition_counts

    return transition_counts(
        _read(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"]),
    )


def _q_sales_rollup(sf_dir: str):
    """ROLLUP (region, nation) supplier-side revenue with derived
    super-aggregates — no second pass, 'ALL' level markers."""
    from obsidian_parser_ray.pipelines.analytics import revenue_rollup

    return revenue_rollup(
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation"),
        _read(sf_dir, "region"),
    )


def _q_doc_bm25(sf_dir: str):
    """BM25 top-k retrieval with a rational idf (exactly reproducible
    doubles — no transcendental functions anywhere in the score)."""
    from obsidian_parser_ray.stages.text import bm25_topk

    return bm25_topk(
        _read(sf_dir, "documents", ["doc_id", "text"]),
        ["hash", "join", "vector"], k=25,
    )


def _q_doc_winsorize(sf_dir: str):
    """Exact discrete-quantile winsorization of doc lengths (value-
    histogram reduction — O(distinct) exchange, no sort)."""
    from obsidian_parser_ray.stages.sketch import winsorize

    return winsorize(
        _read(sf_dir, "documents", ["doc_id", "n_chars"]),
        column="n_chars",
    )


def _q_customer_fuzzy(sf_dir: str):
    """Edit-distance-1 name pairs via deletion-neighborhood blocking
    (exact recall, no all-pairs comparison)."""
    from obsidian_parser_ray.stages.dedup import edit1_pairs

    return edit1_pairs(_read(sf_dir, "customer", ["c_name"]),
                       column="c_name")


def _q_events_json_stats(sf_dir: str):
    """Semi-structured extraction: integer field from the JSON props
    column, per-type stats via RE2 kernel + bounded partials."""
    from obsidian_parser_ray.stages.events import json_int_field_stats

    return json_int_field_stats(
        _read(sf_dir, "events", ["event_type", "props"]))


def _q_doc_zscore(sf_dir: str):
    """Per-language z-scores of doc length: exact int64 moments →
    deterministic doubles (sqrt is IEEE correctly-rounded)."""
    from obsidian_parser_ray.stages.diagnostics import group_zscores

    return group_zscores(
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        value_col="n_chars", group_col="lang",
    )


def _q_customer_diff(sf_dir: str):
    """Keyed snapshot diff (added/removed/changed) over two
    deterministically derived customer snapshots."""
    import pyarrow as pa
    import pyarrow.compute as _pc

    from obsidian_parser_ray.stages.diagnostics import table_diff

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_acctbal", "c_mktsegment"])

    def _mod(col, m: int):
        # non-negative int64 modulo (pyarrow has no mod kernel):
        # k - (k // m) * m
        return _pc.subtract(
            col, _pc.multiply(_pc.divide(col, m), pa.scalar(m, pa.int64())))

    def old_snap(t):
        return t.filter(
            _pc.not_equal(_mod(t["c_custkey"], 7), pa.scalar(0, pa.int64())))

    def new_snap(t):
        t = t.filter(
            _pc.not_equal(_mod(t["c_custkey"], 11),
                          pa.scalar(0, pa.int64())))
        bump = _pc.equal(_mod(t["c_custkey"], 5), pa.scalar(0, pa.int64()))
        bal = _pc.if_else(bump, _pc.add(t["c_acctbal"], 1.0),
                          t["c_acctbal"])
        return t.set_column(
            t.schema.get_field_index("c_acctbal"), "c_acctbal", bal)

    old = cust.map_batches(old_snap, batch_format="pyarrow")
    new = cust.map_batches(new_snap, batch_format="pyarrow")
    return table_diff(old, new, key_col="c_custkey",
                      compare_cols=["c_acctbal", "c_mktsegment"])


def _q_nations_volume(sf_dir: str):
    """Q7 shape: fact with BOTH a supplier-side and a customer-side dim
    chain; two-nation filter applied as early as the chain allows."""
    from obsidian_parser_ray.pipelines.analytics import nations_volume

    return nations_volume(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_suppkey", "l_shipdate",
               "l_extendedprice", "l_discount"]),
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation"),
    )


def _q_customer_returns(sf_dir: str):
    """Q10 shape: returned-item revenue per customer, global top-20,
    attribute backfill on the winner set only."""
    from obsidian_parser_ray.pipelines.analytics import returned_revenue_topk

    return returned_revenue_topk(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_returnflag", "l_extendedprice",
               "l_discount"]),
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"]),
    )


def _q_sales_promo(sf_dir: str):
    """Q14 shape: per-month promo vs total revenue; the fact is reduced
    to (partkey, month) partials before it meets part."""
    from obsidian_parser_ray.pipelines.analytics import promo_share

    return promo_share(
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "part", ["p_partkey", "p_type"]),
    )


def _q_part_small_qty(sf_dir: str):
    """Q17 shape: correlated per-part average-quantity threshold
    resolved with exact integer cross-multiplication."""
    from obsidian_parser_ray.pipelines.analytics import small_qty_revenue

    return small_qty_revenue(
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_quantity", "l_extendedprice"]),
        _read(sf_dir, "part", ["p_partkey", "p_brand"]),
    )


def _q_sales_market_share(sf_dir: str):
    """Q8 shape: one nation's supplier share of a region's spend on one
    part type, per order year (conditional numerator in one pass)."""
    from obsidian_parser_ray.pipelines.analytics import market_share

    return market_share(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_partkey", "l_suppkey",
               "l_extendedprice", "l_discount"]),
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "part", ["p_partkey", "p_type"]),
        _read(sf_dir, "nation"),
        _read(sf_dir, "region"),
    )


def _q_sales_disjunctive(sf_dir: str):
    """Q19 shape: OR-of-ANDs predicate spanning both join sides; only
    the union envelope is pushed below the join."""
    from obsidian_parser_ray.pipelines.analytics import disjunctive_revenue

    return disjunctive_revenue(
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]),
    )


def _q_events_attribution(sf_dir: str):
    """Last-touch attribution: purchases credited to the most recent
    preceding touch event per user (IGNORE NULLS window twin)."""
    from obsidian_parser_ray.stages.events import last_touch_attribution

    return last_touch_attribution(
        _read(sf_dir, "events",
              ["user_id", "ts", "event_id", "event_type"]),
    )


def _q_events_new_users(sf_dir: str):
    """Growth accounting: per-day new users + cumulative total via a
    per-user first-seen reduction (no window shuffle)."""
    from obsidian_parser_ray.stages.events import new_user_counts

    return new_user_counts(_read(sf_dir, "events", ["user_id", "ts"]))


def _q_doc_split(sf_dir: str):
    """Deterministic md5-hash train/val/test split — assignment stable
    under corpus growth and re-partitioning."""
    from obsidian_parser_ray.stages.chunking import hash_split

    return hash_split(_read(sf_dir, "documents", ["doc_id", "lang"]))


def _q_doc_outliers_mad(sf_dir: str):
    """Per-language MAD outlier flags over doc lengths — exact integer
    arithmetic end-to-end (grouped histogram reductions)."""
    from obsidian_parser_ray.stages.diagnostics import group_mad_outliers

    return group_mad_outliers(
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        value_col="n_chars", group_col="lang",
    )


def _q_doc_len_corr(sf_dir: str):
    """Per-language Pearson correlation of char length vs token count
    — exact int64 moments, doubles only in the final expression."""
    import pyarrow.compute as _pc

    from obsidian_parser_ray.stages.diagnostics import grouped_pearson

    docs = _read(sf_dir, "documents", ["lang", "n_chars", "text"])

    def add_tokens(t):
        import pyarrow as pa

        return t.append_column(
            "n_tokens",
            _pc.cast(
                _pc.count_substring_regex(t["text"], "[A-Za-z0-9]+"),
                pa.int64(),
            ),
        ).drop_columns(["text"])

    return grouped_pearson(
        docs.map_batches(add_tokens, batch_format="pyarrow"),
        x_col="n_chars", y_col="n_tokens", group_col="lang",
    )


def _q_customer_mode_segment(sf_dir: str):
    """Grouped mode: most common market segment per nation,
    deterministic ties (row_number window twin)."""
    from obsidian_parser_ray.stages.ranking import grouped_mode

    return grouped_mode(
        _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"]),
        ["c_nationkey"], "c_mktsegment",
    )


def _q_events_type_overlap(sf_dir: str):
    """Audience Jaccard between event types: distinct-user set overlap
    for every type pair (self-join twin)."""
    from obsidian_parser_ray.stages.events import type_user_overlap

    return type_user_overlap(
        _read(sf_dir, "events", ["user_id", "event_type"]))


def _q_events_contingency(sf_dir: str):
    """Chi-square core: observed vs independence-expected counts for
    the (type × hour) table — exact integer floor division."""
    from obsidian_parser_ray.stages.events import contingency_expected

    return contingency_expected(
        _read(sf_dir, "events", ["event_type", "ts"]))


def _q_sales_daily_ma(sf_dir: str):
    """Time-series smoothing: per-day revenue + trailing 3-row moving
    average over the bounded day table (no window shuffle)."""
    from obsidian_parser_ray.pipelines.analytics import daily_moving_avg

    return daily_moving_avg(
        _read(sf_dir, "lineitem",
              ["l_shipdate", "l_extendedprice", "l_discount"]))


def _q_sales_nation_share(sf_dir: str):
    """Ratio-to-report: each nation's share of its region's revenue —
    window derived from bounded leaves, no second pass."""
    from obsidian_parser_ray.pipelines.analytics import nation_share

    return nation_share(
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation"),
        _read(sf_dir, "region"),
    )


def _q_supplier_pareto(sf_dir: str):
    """Pareto 80/20 flagging over aggregated supplier revenue — exact
    integer cross-multiplied membership test."""
    from obsidian_parser_ray.pipelines.analytics import supplier_pareto

    return supplier_pareto(
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount"]))


def _q_doc_char_bigrams(sf_dir: str):
    """One BPE merge round: corpus-wide top-50 adjacent char pairs via
    bounded 64Ki-bin bincount partials."""
    from obsidian_parser_ray.stages.text import char_pair_counts

    return char_pair_counts(_read(sf_dir, "documents", ["text"]), k=50)


def _q_events_lifespan_quantiles(sf_dir: str):
    """Engagement distribution: exact discrete deciles of per-user
    lifespans (histogram reduction over the per-user aggregate)."""
    import pandas as pd

    from obsidian_parser_ray.stages.events import user_lifespans
    from obsidian_parser_ray.stages.sketch import exact_int_quantiles

    spans = user_lifespans(_read(sf_dir, "events", ["user_id", "ts"]))
    qs = [0.1, 0.25, 0.5, 0.75, 0.9]
    vals = exact_int_quantiles(spans, "lifespan_s", qs)
    return pd.DataFrame({"q": qs, "lifespan_q": vals}).astype(
        {"q": "float64", "lifespan_q": "int64"}
    )


def _q_orders_brand_pairs(sf_dir: str):
    """Market basket: top-20 brand pairs co-occurring in one order
    (distinct-pair reduction per basket partition)."""
    from obsidian_parser_ray.stages.joins import broadcast_join_unique
    from obsidian_parser_ray.stages.ranking import basket_pairs

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    joined = broadcast_join_unique(
        li, _read(sf_dir, "part", ["p_partkey", "p_brand"]),
        left_key="l_partkey", right_key="p_partkey", how="inner",
    )
    out = basket_pairs(
        joined, basket_col="l_orderkey", item_col="p_brand", k=20,
    )

    def rename(t):
        return t.rename_columns([
            {"item_a": "brand_a", "item_b": "brand_b"}.get(c, c)
            for c in t.column_names
        ])

    return out.map_batches(rename, batch_format="pyarrow")


def _q_doc_bool_search(sf_dir: str):
    """Boolean retrieval: (hash AND join) docs, excluding 'vector' —
    token-boundary RE2 presence tests, no shuffle."""
    from obsidian_parser_ray.stages.text import token_search

    return token_search(
        _read(sf_dir, "documents", ["doc_id", "lang", "text"]),
        all_of=("hash", "join"), none_of=("vector",),
    )


def _q_sales_qty_percentile(sf_dir: str):
    """Grouped percent_rank of quantity within return flag — grouped
    value-histogram reduction, one double division per row."""
    import pyarrow as pa
    import pyarrow.compute as _pc

    from obsidian_parser_ray.stages.sketch import grouped_percent_ranks

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_returnflag",
                "l_quantity"])

    def add_qty(t):
        return t.append_column(
            "qty", _pc.cast(t["l_quantity"], pa.int64())
        ).drop_columns(["l_quantity"])

    return grouped_percent_ranks(
        li.map_batches(add_qty, batch_format="pyarrow"),
        column="qty", group_col="l_returnflag",
    )


def _q_orders_seek_page(sf_dir: str):
    """Keyset pagination: next 20 orders after cursor
    (totalprice 150000.0, orderkey 1000) in (price desc, key asc)
    order — filter + partial top-k, no OFFSET scan."""
    import pyarrow as pa
    import pyarrow.compute as _pc

    from obsidian_parser_ray.pipelines.analytics import global_topk

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_totalprice"])
    price, key = 150000.0, 1000

    def after_cursor(t):
        m = _pc.or_(
            _pc.less(t["o_totalprice"], price),
            _pc.and_(
                _pc.equal(t["o_totalprice"], price),
                _pc.greater(t["o_orderkey"],
                            pa.scalar(key, pa.int64())),
            ),
        )
        return t.filter(m)

    return global_topk(
        orders.map_batches(after_cursor, batch_format="pyarrow"),
        "o_totalprice", 20, tiebreak=["o_orderkey"],
    )


def _q_doc_ngram_novelty(sf_dir: str):
    """First-seen 3-gram novelty per doc — order-aware curation
    measure via a commutative min(doc_id) reduction."""
    from obsidian_parser_ray.stages.text import ngram_novelty

    return ngram_novelty(_read(sf_dir, "documents", ["doc_id", "text"]))


def _q_customer_record_linkage(sf_dir: str):
    """Entity resolution: edit-distance-1 name pairs constrained to
    the same nation (blocking + attribute agreement)."""
    from obsidian_parser_ray.stages.dedup import edit1_pairs
    from obsidian_parser_ray.stages.joins import broadcast_join_unique

    cust = _read(sf_dir, "customer", ["c_name", "c_nationkey"])
    pairs = edit1_pairs(cust, column="c_name")
    dim = cust  # c_name is unique per customer (generator invariant)
    a = broadcast_join_unique(
        pairs, dim, left_key="name_a", right_key="c_name", how="inner",
    )

    def rn(t):
        return t.rename_columns([
            "nat_a" if c == "c_nationkey" else c for c in t.column_names
        ])

    a = a.map_batches(rn, batch_format="pyarrow")
    b = broadcast_join_unique(
        a, dim, left_key="name_b", right_key="c_name", how="inner",
    )

    def same_nation(t):
        import pyarrow.compute as _pc

        t = t.filter(_pc.equal(t["nat_a"], t["c_nationkey"]))
        t = t.rename_columns([
            "c_nationkey" if c == "c_nationkey" else c
            for c in t.column_names
        ])
        return t.select(["name_a", "name_b", "c_nationkey"])

    return b.map_batches(same_nation, batch_format="pyarrow")


def _q_sales_yoy(sf_dir: str):
    """LAG shape: year-over-year revenue growth per supplier nation,
    lag resolved on bounded leaves."""
    from obsidian_parser_ray.pipelines.analytics import yoy_growth

    return yoy_growth(
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_shipdate", "l_extendedprice",
               "l_discount"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation"),
    )


def _q_sales_daily_ma_range(sf_dir: str):
    """RANGE-frame (calendar) trailing moving average — gaps shrink
    the window; resolved with one searchsorted over bounded days."""
    from obsidian_parser_ray.pipelines.analytics import (
        daily_moving_avg_range,
    )

    return daily_moving_avg_range(
        _read(sf_dir, "lineitem",
              ["l_shipdate", "l_extendedprice", "l_discount"]))


def _q_doc_index_search(sf_dir: str):
    """Boolean retrieval through the PERSISTED inverted term index
    (build → bucket-pruned search); same semantics and twin as
    doc_bool_search, doc_id-only."""
    import shutil
    import tempfile

    from obsidian_parser_ray.stages.text import (
        build_term_index,
        search_term_index,
    )

    idx = tempfile.mkdtemp(prefix="term_idx_")
    shutil.rmtree(idx, ignore_errors=True)
    try:
        build_term_index(
            _read(sf_dir, "documents", ["doc_id", "text"]), idx,
        )
        return search_term_index(
            idx, all_of=("hash", "join"), none_of=("vector",),
        ).to_pandas()
    finally:
        shutil.rmtree(idx, ignore_errors=True)


def _q_events_sessions_incremental(sf_dir: str):
    """Streaming sessionization on a batch engine: three out-of-order
    delta batches absorbed into the persisted session store (work ∝
    delta buckets) must equal the one-shot window twin."""
    import shutil
    import tempfile

    import pyarrow as pa
    import pyarrow.compute as _pc

    from obsidian_parser_ray.stages.events import (
        read_sessions,
        sessionize_update,
    )

    base = tempfile.mkdtemp(prefix="sess_store_")
    shutil.rmtree(base, ignore_errors=True)
    try:
        ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
        for r in range(3):
            def pick(t, r=r):
                m = _pc.equal(
                    _pc.subtract(
                        t["event_id"],
                        _pc.multiply(
                            _pc.divide(t["event_id"], 3),
                            pa.scalar(3, pa.int64()),
                        ),
                    ),
                    pa.scalar(r, pa.int64()),
                )
                return t.filter(m).select(["user_id", "ts"])

            sessionize_update(
                base, ev.map_batches(pick, batch_format="pyarrow"),
            )
        return read_sessions(base).to_pandas()
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _q_sales_forecast(sf_dir: str):
    """Q6 shape: pure filter + global discount-amount sum — the
    predicate-pushdown probe."""
    import datetime as dt

    from obsidian_parser_ray.pipelines.analytics import forecast_revenue

    return forecast_revenue(
        _read(sf_dir, "lineitem",
              ["l_shipdate", "l_discount", "l_quantity",
               "l_extendedprice"]),
        date_from=dt.datetime(1996, 1, 1),
        date_to=dt.datetime(1997, 1, 1),
        disc_lo=0.05, disc_hi=0.07, qty_max=24.0,
    )


def _q_supplier_quartiles(sf_dir: str):
    """NTILE(4) over aggregated supplier revenue — total order only on
    the |suppliers|-sized reduction, exact SQL tile boundaries."""
    from obsidian_parser_ray.pipelines.analytics import supplier_quartiles

    return supplier_quartiles(
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount"]))


def _q_customer_first_last(sf_dir: str):
    """FIRST/LAST_VALUE per customer via a packed argmin/argmax reduce
    — no window shuffle."""
    from obsidian_parser_ray.pipelines.analytics import customer_first_last

    return customer_first_last(
        _read(sf_dir, "orders",
              ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]))


def _q_orders_dow(sf_dir: str):
    """Calendar seasonality: order counts + revenue by day-of-week
    (engine-neutral ``(epoch_day + 3) % 7`` — 0 = Monday — so no
    cross-engine DOW-convention trap)."""
    import pyarrow as pa
    import pyarrow.compute as _pc

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(t):
        day = _pc.divide(
            _pc.cast(_pc.cast(t["o_orderdate"], pa.timestamp("us")),
                     pa.int64()),
            86_400_000_000,
        )
        shifted = _pc.add(day, pa.scalar(3, pa.int64()))
        dow = _pc.subtract(
            shifted,
            _pc.multiply(_pc.divide(shifted, 7),
                         pa.scalar(7, pa.int64())),
        )
        micro = _pc.cast(
            _pc.floor(_pc.multiply(t["o_totalprice"], 1_000_000.0)),
            pa.int64(),
        )
        flat = pa.table({
            "dow": dow,
            "n_orders": pa.array([1] * t.num_rows, pa.int64()),
            "revenue_micro": micro,
        })
        g = flat.group_by("dow").aggregate(
            [("n_orders", "sum"), ("revenue_micro", "sum")]
        )
        return g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])

    def merge(t):
        g = t.group_by("dow").aggregate(
            [("n_orders", "sum"), ("revenue_micro", "sum")]
        )
        return g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])

    return (
        orders.map_batches(partial, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(merge, batch_format="pyarrow")
    )


def _q_events_conversion_lag(sf_dir: str):
    """Funnel timing: signup→purchase lag quantiles (exact discrete),
    filter-pruned single shuffle."""
    from obsidian_parser_ray.stages.events import conversion_lag

    return conversion_lag(
        _read(sf_dir, "events", ["user_id", "ts", "event_type"]))


def _q_sales_cube(sf_dir: str):
    """CUBE grouping sets over (returnflag, orderpriority) — all four
    levels derived from bounded leaves, one fact exchange."""
    from obsidian_parser_ray.pipelines.analytics import revenue_cube

    return revenue_cube(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_returnflag", "l_extendedprice",
               "l_discount"]),
        _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]),
    )


def _q_events_top_paths(sf_dir: str):
    """Clickstream path mining: top-15 session-opening type paths
    (bounded path space, one user shuffle)."""
    from obsidian_parser_ray.stages.events import top_session_paths

    return top_session_paths(
        _read(sf_dir, "events",
              ["user_id", "ts", "event_id", "event_type"]))


def _q_events_linear_attribution(sf_dir: str):
    """Linear multi-touch attribution — exact integer credit splitting
    (floor(1e6 / n_prior) per touch), one shuffle."""
    from obsidian_parser_ray.stages.events import linear_attribution

    return linear_attribution(
        _read(sf_dir, "events",
              ["user_id", "ts", "event_id", "event_type"]))


def _q_supplier_gini(sf_dir: str):
    """Gini coefficient of supplier revenue — exact integer rank sums,
    one double division."""
    from obsidian_parser_ray.pipelines.analytics import supplier_gini

    return supplier_gini(
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount"]))


def _q_sales_hhi(sf_dir: str):
    """Herfindahl concentration of nation shares per region — exact
    rational (Σrev²)/(Σrev)², bounded leaves."""
    from obsidian_parser_ray.pipelines.analytics import region_hhi

    return region_hhi(
        _read(sf_dir, "lineitem",
              ["l_suppkey", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation"),
        _read(sf_dir, "region"),
    )


def _q_events_debounce(sf_dir: str):
    """Throttle dedup: drop events repeating the same (user, type)
    within an hour — lag() semantics, one key shuffle."""
    from obsidian_parser_ray.stages.events import debounce

    return debounce(
        _read(sf_dir, "events",
              ["event_id", "user_id", "event_type", "ts"]),
        window_seconds=3600)


def _q_sales_missing_days(sf_dir: str):
    """Calendar-spine completeness: ship-date gaps in 1996 (bounded
    spine anti join)."""
    import datetime as dt

    from obsidian_parser_ray.pipelines.analytics import missing_ship_days

    return missing_ship_days(
        _read(sf_dir, "lineitem", ["l_shipdate"]),
        date_from=dt.datetime(1995, 1, 1),
        date_to=dt.datetime(2003, 1, 1),
    )


def _q_events_latest_per_user(sf_dir: str):
    """DISTINCT ON shape: each user's latest event via a packed
    argmax reduce (grouped top-1, no window shuffle)."""
    import pyarrow as pa
    import pyarrow.compute as _pc

    from obsidian_parser_ray.stages.ranking import grouped_topk

    ev = _read(sf_dir, "events",
               ["user_id", "event_id", "event_type", "ts"])

    def pack(t):
        sec = _pc.divide(
            _pc.cast(_pc.cast(t["ts"], pa.timestamp("us")), pa.int64()),
            1_000_000,
        )
        packed = _pc.add(
            _pc.multiply(sec, pa.scalar(1 << 20, pa.int64())),
            _pc.cast(t["event_id"], pa.int64()),
        )
        return pa.table({
            "user_id": t["user_id"],
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "packed": packed,
        })

    out = grouped_topk(
        ev.map_batches(pack, batch_format="pyarrow"),
        ["user_id"], "packed", 1, descending=True,
    )

    def strip(t):
        return t.select(["user_id", "event_id", "event_type"])

    return out.map_batches(strip, batch_format="pyarrow")


def _q_parties_per_nation(sf_dir: str):
    """UNION + distinct across two sources: customers ∪ suppliers per
    nation (Dataset.union → per-block dedup → distinct count)."""
    import pyarrow as pa

    from ray.data.aggregate import Count

    cust = _read(sf_dir, "customer", ["c_name", "c_nationkey"])
    supp = _read(sf_dir, "supplier", ["s_name", "s_nationkey"])

    def cn(t):
        return pa.table({
            "nationkey": pa.compute.cast(t["c_nationkey"], pa.int64()),
            "name": t["c_name"],
        })

    def sn(t):
        return pa.table({
            "nationkey": pa.compute.cast(t["s_nationkey"], pa.int64()),
            "name": t["s_name"],
        })

    both = cust.map_batches(cn, batch_format="pyarrow").union(
        supp.map_batches(sn, batch_format="pyarrow")
    )

    def dedup_partial(t):
        return t.group_by(["nationkey", "name"]).aggregate([])

    distinct = (
        both.map_batches(dedup_partial, batch_format="pyarrow")
        .groupby(["nationkey", "name"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    counts = distinct.groupby("nationkey").aggregate(
        Count(alias_name="n_parties")
    )
    return counts


def _q_doc_winsorize_by_lang(sf_dir: str):
    """Per-language winsorization — grouped histogram cut points, one
    vectorized clamp."""
    from obsidian_parser_ray.stages.sketch import grouped_winsorize

    return grouped_winsorize(
        _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        column="n_chars", group_col="lang",
    )


def _q_events_user_hhi(sf_dir: str):
    """Behavioral concentration: per-user Herfindahl index of
    hour-of-day activity — exact integer Σc² cores."""
    from obsidian_parser_ray.stages.events import user_hour_concentration

    return user_hour_concentration(
        _read(sf_dir, "events", ["user_id", "ts"]))


def _q_events_type_users_exact(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type — two-level groupby
    (the exact twin of the HLL gate events_type_approx_users)."""
    from ray.data.aggregate import Count

    ev = _read(sf_dir, "events", ["event_type", "user_id"])

    def dedup_partial(t):
        return t.group_by(["event_type", "user_id"]).aggregate([])

    distinct = (
        ev.map_batches(dedup_partial, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )
    return distinct.groupby("event_type").aggregate(
        Count(alias_name="n_users")
    )


def _q_supplier_dense_topk(sf_dir: str):
    """DENSE_RANK ≤ 3: every supplier whose revenue is among the top-3
    DISTINCT revenue values — ties kept, rank from a tiny distinct
    top-k, no window shuffle."""
    import pyarrow as pa
    import pyarrow.compute as _pc

    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"])

    def partial(t):
        rev = _pc.cast(
            _pc.floor(_pc.multiply(
                _pc.multiply(
                    t["l_extendedprice"],
                    _pc.subtract(pa.scalar(1.0), t["l_discount"]),
                ),
                1_000_000.0,
            )),
            pa.int64(),
        )
        flat = pa.table({"l_suppkey": t["l_suppkey"], "_rev": rev})
        g = flat.group_by("l_suppkey").aggregate([("_rev", "sum")])
        return g.rename_columns([
            "_rev" if c == "_rev_sum" else c for c in g.column_names
        ])

    totals = (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Sum("_rev", alias_name="revenue_micro"))
    )

    def dense_filter(t):
        vals = _pc.unique(t["revenue_micro"])
        top = sorted(vals.to_pylist(), reverse=True)[:3]
        cut = pa.array(top, pa.int64())
        t = t.filter(_pc.is_in(t["revenue_micro"], value_set=cut))
        rank_of = {v: i + 1 for i, v in enumerate(top)}
        ranks = pa.array(
            [rank_of[v] for v in t["revenue_micro"].to_pylist()],
            pa.int64(),
        )
        out = t.rename_columns([
            "s_suppkey" if c == "l_suppkey" else c
            for c in t.column_names
        ])
        return out.append_column("rnk", ranks)

    return (
        totals.repartition(1, shuffle=False)
        .map_batches(dense_filter, batch_format="pyarrow",
                     batch_size=None)
    )


def _q_kg_tag_counts(sf_dir: str):
    """Tag distribution over the built KG: top-10 tags by total edge
    weight (bounded tag space, partial top-k)."""
    import pyarrow as pa

    from obsidian_parser_ray.pipelines.analytics import global_topk

    tagged = _graph(sf_dir).triples.filter(expr="pred == 'tagged'")

    def partial(t):
        flat = pa.table({
            "tag": t["obj"],
            "total_weight": pa.compute.cast(t["weight"], pa.int64()),
            "n_notes": pa.array([1] * t.num_rows, pa.int64()),
        })
        g = flat.group_by("tag").aggregate(
            [("total_weight", "sum"), ("n_notes", "sum")]
        )
        return g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])

    def merge(t):
        g = t.group_by("tag").aggregate(
            [("total_weight", "sum"), ("n_notes", "sum")]
        )
        return g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])

    counts = (
        tagged.map_batches(partial, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(merge, batch_format="pyarrow")
    )
    return global_topk(counts, "total_weight", 10, tiebreak=["tag"])


def _q_doc_source_mix(sf_dir: str):
    """Corpus composition report: docs + chars per source with share
    of total — the mixture dashboard every curation run starts from
    (bounded source space, exact int sums, one derived division)."""
    import pyarrow as pa
    import pyarrow.compute as _pc

    docs = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(t):
        flat = pa.table({
            "source": t["source"],
            "n_docs": pa.array([1] * t.num_rows, pa.int64()),
            "n_chars": _pc.cast(t["n_chars"], pa.int64()),
        })
        g = flat.group_by("source").aggregate(
            [("n_docs", "sum"), ("n_chars", "sum")]
        )
        return g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])

    def finish(t):
        g = t.group_by("source").aggregate(
            [("n_docs", "sum"), ("n_chars", "sum")]
        )
        g = g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])
        total = _pc.sum(g["n_chars"]).as_py() or 0
        share = _pc.divide(
            _pc.cast(g["n_chars"], pa.float64()),
            pa.scalar(float(total)),
        )
        return g.append_column("char_share", share)

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(finish, batch_format="pyarrow")
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "kg_triples": _q_kg_triples,
        "kg_nodes": _q_kg_nodes,
        "kg_mentions": _q_kg_mentions,
        "kg_degree": _q_kg_degree,
        "kg_top_links": _q_kg_top_links,
        "kg_cocitation": _q_kg_cocitation,
        "kg_triangles": _q_kg_triangles,
        "kg_pagerank": _q_kg_pagerank,
        "kg_kcore": _q_kg_kcore,
        "kg_dup_name": _q_kg_dup_name,
        "kg_dup_content": _q_kg_dup_content,
        "kg_components": _q_kg_components,
        "kg_markdown": _q_kg_markdown,
        "kg_analyzer": _q_kg_analyzer,
        "kg_resolution": _q_kg_resolution,
        "kg_incremental": _q_kg_incremental,
        "kg_bfs": _q_kg_bfs,
        "doc_dedup_exact": _q_doc_dedup_exact,
        "doc_dedup_drop": _q_doc_dedup_drop,
        "doc_profile": _q_doc_profile,
        "doc_top_terms": _q_doc_top_terms,
        "doc_quality": _q_doc_quality,
        "doc_repetition": _q_doc_repetition,
        "doc_chunks": _q_doc_chunks,
        "doc_sample": _q_doc_sample,
        "doc_ngram_jaccard": _q_doc_ngram_jaccard,
        "doc_neardup_drop": _q_doc_neardup_drop,
        "events_topk_users": _q_events_topk_users,
        "events_hist": _q_events_hist,
        "events_approx_users": _q_events_approx_users,
        "events_countmin_types": _q_events_countmin_types,
        "doc_top_words_by_lang": _q_doc_top_words_by_lang,
        "lang_stats": _q_lang_stats,
        "doc_langid": _q_doc_langid,
        "doc_minhash_neardup": _q_doc_minhash_neardup,
        "doc_simhash_neardup": _q_doc_simhash_neardup,
        "emb_knn": _q_emb_knn,
        "emb_knn_ivf": _q_emb_knn_ivf,
        "emb_knn_pq": _q_emb_knn_pq,
        "emb_dedup_drop": _q_emb_dedup_drop,
        "emb_neardup": _q_emb_neardup,
        "emb_kmeans": _q_emb_kmeans,
        "events_hourly": _q_events_hourly,
        "events_sessions": _q_events_sessions,
        "events_funnel": _q_events_funnel,
        "events_retention": _q_events_retention,
        "events_type_stats": _q_events_type_stats,
        "events_asof": _q_events_asof,
        "events_purchases_in_session": _q_events_purchases_in_session,
        "events_interval_overlap": _q_events_interval_overlap,
        "events_hopping": _q_events_hopping,
        "events_bursts": _q_events_bursts,
        "doc_prep_pipeline": _q_doc_prep_pipeline,
        "doc_prep_boiler": _q_doc_prep_boiler,
        "emb_label_by_lang": _q_emb_label_by_lang,
        "emb_lang_centroid": _q_emb_lang_centroid,
        "events_running_spend": _q_events_running_spend,
        "events_never_purchased": _q_events_never_purchased,
        "events_value_quantiles": _q_events_value_quantiles,
        "events_heavy_users": _q_events_heavy_users,
        "events_type_quantiles": _q_events_type_quantiles,
        "events_type_approx_users": _q_events_type_approx_users,
        "media_features": _q_media_features,
        "media_decode_real": _q_media_decode_real,
        "media_thumbnails": _q_media_thumbnails,
        "media_frame_sample": _q_media_frame_sample,
        "doc_media_join": _q_doc_media_join,
        "media_image_neardup": _q_media_image_neardup,
        "doc_strip_boilerplate": _q_doc_strip_boilerplate,
        "doc_line_dedup": _q_doc_line_dedup,
        "doc_domain_stats": _q_doc_domain_stats,
        "doc_dedup_incremental": _q_doc_dedup_incremental,
        "doc_lm_quality": _q_doc_lm_quality,
        "doc_normalize": _q_doc_normalize,
        "dq_referential": _q_dq_referential,
        "graph_walks": _q_graph_walks,
        "doc_cooccurrence": _q_doc_cooccurrence,
        "doc_mixture": _q_doc_mixture,
        "doc_collocations": _q_doc_collocations,
        "doc_hash_vectors": _q_doc_hash_vectors,
        "doc_text_knn": _q_doc_text_knn,
        "doc_pack": _q_doc_pack,
        "customer_full_join": _q_customer_full_join,
        "orders_lineitem_mn": _q_orders_lineitem_mn,
        "customer_supplier_mn": _q_customer_supplier_mn,
        "doc_embed_knn": _q_doc_embed_knn,
        "customer_rfm": _q_customer_rfm,
        "events_gap_median": _q_events_gap_median,
        "doc_decontaminate": _q_doc_decontaminate,
        "doc_redact": _q_doc_redact,
        "events_bloom_purchasers": _q_events_bloom_purchasers,
        "sales_pricing": _q_sales_pricing,
        "sales_top_orders": _q_sales_top_orders,
        "orders_late_priority": _q_orders_late_priority,
        "sales_region_revenue": _q_sales_region_revenue,
        "customer_order_dist": _q_customer_order_dist,
        "supplier_topk": _q_supplier_topk,
        "part_supplier_cnt": _q_part_supplier_cnt,
        "orders_big": _q_orders_big,
        "customer_idle": _q_customer_idle,
        "events_pivot": _q_events_pivot,
        "events_transitions": _q_events_transitions,
        "sales_rollup": _q_sales_rollup,
        "doc_bm25": _q_doc_bm25,
        "doc_winsorize": _q_doc_winsorize,
        "customer_fuzzy": _q_customer_fuzzy,
        "events_json_stats": _q_events_json_stats,
        "doc_zscore": _q_doc_zscore,
        "customer_diff": _q_customer_diff,
        "nations_volume": _q_nations_volume,
        "customer_returns": _q_customer_returns,
        "sales_promo": _q_sales_promo,
        "part_small_qty": _q_part_small_qty,
        "sales_market_share": _q_sales_market_share,
        "sales_disjunctive": _q_sales_disjunctive,
        "events_attribution": _q_events_attribution,
        "events_new_users": _q_events_new_users,
        "doc_split": _q_doc_split,
        "doc_outliers_mad": _q_doc_outliers_mad,
        "doc_len_corr": _q_doc_len_corr,
        "customer_mode_segment": _q_customer_mode_segment,
        "events_type_overlap": _q_events_type_overlap,
        "events_contingency": _q_events_contingency,
        "sales_daily_ma": _q_sales_daily_ma,
        "sales_nation_share": _q_sales_nation_share,
        "supplier_pareto": _q_supplier_pareto,
        "doc_char_bigrams": _q_doc_char_bigrams,
        "events_lifespan_quantiles": _q_events_lifespan_quantiles,
        "orders_brand_pairs": _q_orders_brand_pairs,
        "doc_bool_search": _q_doc_bool_search,
        "sales_qty_percentile": _q_sales_qty_percentile,
        "orders_seek_page": _q_orders_seek_page,
        "orders_zorder_box": _q_orders_zorder_box,
        "doc_ngram_novelty": _q_doc_ngram_novelty,
        "customer_record_linkage": _q_customer_record_linkage,
        "sales_yoy": _q_sales_yoy,
        "sales_daily_ma_range": _q_sales_daily_ma_range,
        "doc_index_search": _q_doc_index_search,
        "events_sessions_incremental": _q_events_sessions_incremental,
        "sales_forecast": _q_sales_forecast,
        "supplier_quartiles": _q_supplier_quartiles,
        "customer_first_last": _q_customer_first_last,
        "orders_dow": _q_orders_dow,
        "events_conversion_lag": _q_events_conversion_lag,
        "sales_cube": _q_sales_cube,
        "events_top_paths": _q_events_top_paths,
        "events_linear_attribution": _q_events_linear_attribution,
        "supplier_gini": _q_supplier_gini,
        "sales_hhi": _q_sales_hhi,
        "events_debounce": _q_events_debounce,
        "sales_missing_days": _q_sales_missing_days,
        "events_latest_per_user": _q_events_latest_per_user,
        "parties_per_nation": _q_parties_per_nation,
        "doc_winsorize_by_lang": _q_doc_winsorize_by_lang,
        "events_user_hhi": _q_events_user_hhi,
        "events_type_users_exact": _q_events_type_users_exact,
        "supplier_dense_topk": _q_supplier_dense_topk,
        "kg_tag_counts": _q_kg_tag_counts,
        "doc_source_mix": _q_doc_source_mix,
    }


def oracle_sql() -> dict[str, str]:
    from obsidian_parser_ray.corpus import oracle_cte
    from obsidian_parser_ray.stages.text import STOPWORDS

    cte = oracle_cte("documents")

    def _sql_list(lang: str) -> str:
        return ", ".join(f"'{w}'" for w in STOPWORDS[lang])

    # analyzer oracle: the filtered vault (parse-ok, nonempty, !todo)
    # with the reference resolution rules re-derived on the FILTERED
    # dictionary — shadow notes win short-name ties by min(doc_key),
    # todo-filtered targets become unresolved and drop, alias owners
    # are the surviving d%5==0 notes (first-wins by min doc key)
    analyzer_sql = cte.replace("WITH ", "WITH RECURSIVE ", 1) + """,
f AS (SELECT * FROM exp_notes WHERE NOT is_todo),
sn AS (SELECT note_name, min(doc_key) AS target FROM f GROUP BY note_name),
al AS (SELECT 'alias_'||d AS alias, 'note_'||d AS target
       FROM m WHERE d % 5 = 0 AND d % 13 <> 0),
lm AS (
  SELECT 'note_'||m.d AS subj, sn.target AS obj
  FROM m JOIN sn ON sn.note_name = 'note_'||m.l1 WHERE m.d % 13 <> 0
  UNION ALL
  SELECT 'note_'||m.d, sn.target
  FROM m JOIN sn ON sn.note_name = 'note_'||m.l1 WHERE m.d % 13 <> 0
  UNION ALL
  SELECT 'note_'||m.d, al.target
  FROM m JOIN al ON al.alias = 'alias_'||m.a
  WHERE m.d % 13 <> 0 AND m.d % 5 = 1
),
u AS (SELECT subj AS na, obj AS nb FROM lm UNION SELECT obj, subj FROM lm),
reach(node, lbl) AS (
  SELECT doc_key, doc_key FROM f
  UNION
  SELECT u.nb, r.lbl FROM reach r JOIN u ON u.na = r.node
),
comp AS (SELECT node, min(lbl) AS c FROM reach GROUP BY node),
deg AS (SELECT obj, count(*)::BIGINT AS degree FROM lm GROUP BY obj),
hub AS (SELECT obj, degree FROM deg ORDER BY degree DESC, obj LIMIT 1)
SELECT
  (SELECT count(*)::BIGINT FROM f) AS n_notes,
  (SELECT sum(n_words)::BIGINT FROM f) AS total_words,
  (SELECT count(*)::BIGINT FROM
     (SELECT note_name FROM f GROUP BY note_name HAVING count(*) > 1)
  ) AS dup_name_groups,
  (SELECT count(*)::BIGINT FROM
     (SELECT content_hash FROM f GROUP BY content_hash HAVING count(*) > 1)
  ) AS dup_content_groups,
  (SELECT count(DISTINCT c)::BIGINT FROM comp) AS n_components,
  (SELECT obj FROM hub) AS top_hub,
  (SELECT degree FROM hub) AS top_hub_degree
"""

    return {
        "kg_analyzer": analyzer_sql,
        # quality score replicated op-for-op in IEEE-754 double, then
        # an exact integer floor — mirrors text.py:quality_score_batch
        "doc_repetition": r"""
SELECT doc_id,
  len(ln)::BIGINT AS n_lines,
  len(list_distinct(ln))::BIGINT AS n_distinct_lines,
  len(w)::BIGINT AS n_words,
  len(list_distinct(w))::BIGINT AS n_distinct_words,
  (CASE WHEN len(ln) = 0 THEN 0
        ELSE (len(ln) - len(list_distinct(ln))) * 1000000 // len(ln)
   END)::BIGINT AS dup_line_micro,
  (CASE WHEN len(w) = 0 THEN 0
        ELSE (len(w) - len(list_distinct(w))) * 1000000 // len(w)
   END)::BIGINT AS dup_word_micro
FROM (
  SELECT doc_id, string_split(text, chr(10)) AS ln,
         list_filter(regexp_split_to_array(text, '\s+'),
                     x -> x <> '') AS w
  FROM documents
)
""",
        "doc_quality": rf"""
WITH s AS (
  SELECT doc_id,
    length(text)::BIGINT AS n_chars,
    len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))::BIGINT
      AS nw0,
    length(regexp_replace(text, '[^.,!?;:]', '', 'g'))::BIGINT AS n_punct,
    len(list_filter(regexp_split_to_array(lower(text), '\s+'),
        x -> x IN ({_sql_list("en")})))::BIGINT AS n_stop
  FROM documents
),
x AS (
  SELECT doc_id, CASE WHEN nw0 = 0 THEN 1 ELSE nw0 END AS nw,
         n_chars, n_punct, n_stop FROM s
),
y AS (
  SELECT doc_id,
    least(1.0, nw / 50.0) * (CASE WHEN nw < 2000 THEN 1.0 ELSE 0.5 END)
      AS len_score,
    CASE WHEN n_punct / greatest(1, n_chars) < 0.1 THEN 1.0 ELSE 0.5 END
      AS punct_score,
    least(1.0, n_stop / nw * 5) AS stop_score
  FROM x
)
SELECT doc_id,
  floor((len_score + punct_score + stop_score) / 3 * 1000000.0)::BIGINT
    AS quality_micro
FROM y
""",
        # language-ID heuristic: char-class overrides, then stopword
        # argmax with first-in-sorted-order tie-break — mirrors
        # text.py:LangId.predict
        "doc_langid": rf"""
WITH w AS (
  SELECT doc_id, text,
         regexp_split_to_array(lower(text), '\s+') AS ws
  FROM documents
),
s AS (
  SELECT doc_id, text,
    len(list_filter(ws, x -> x IN ({_sql_list("de")}))) AS s_de,
    len(list_filter(ws, x -> x IN ({_sql_list("en")}))) AS s_en,
    len(list_filter(ws, x -> x IN ({_sql_list("es")}))) AS s_es,
    len(list_filter(ws, x -> x IN ({_sql_list("fr")}))) AS s_fr
  FROM w
)
SELECT doc_id,
  CASE WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
       WHEN regexp_matches(text, '[Ѐ-ӿ]') THEN 'ru'
       WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
       WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de'
       WHEN s_en >= s_es AND s_en >= s_fr THEN 'en'
       WHEN s_es >= s_fr THEN 'es'
       ELSE 'fr' END AS pred_lang
FROM s
""",
        "kg_triples": cte + "\nSELECT subj, pred, obj, weight FROM exp_triples",
        "kg_nodes": cte
        + "\nSELECT doc_key AS doc_id, note_name, n_words, n_bytes,"
        " content_hash, n_tags, n_aliases, is_todo FROM exp_notes",
        "kg_mentions": cte
        + """
SELECT 'link' AS kind,
       (2*count(*)
        + sum(CASE WHEN d % 5 = 1 THEN 1 ELSE 0 END)
        + sum(CASE WHEN d % 9 = 0 THEN 1 ELSE 0 END))::BIGINT AS n FROM m
UNION ALL SELECT 'embed', sum(CASE WHEN d % 4 = 0 THEN 1 ELSE 0 END)::BIGINT FROM m
UNION ALL SELECT 'media', sum(CASE WHEN d % 6 = 0 THEN 1 ELSE 0 END)::BIGINT FROM m
UNION ALL SELECT 'tag_frontmatter',
       (count(*) + sum(CASE WHEN d % 13 = 0 THEN 1 ELSE 0 END))::BIGINT FROM m
UNION ALL SELECT 'tag_inline', count(*)::BIGINT FROM m
""",
        "kg_degree": cte
        + "\nSELECT obj, sum(weight)::BIGINT AS degree FROM exp_triples"
        " WHERE pred = 'links_to' GROUP BY obj"
        " ORDER BY degree DESC, obj LIMIT 10",
        "kg_top_links": cte
        + """
SELECT subj, obj, weight, rn FROM (
  SELECT subj, obj, weight,
         row_number() OVER (PARTITION BY subj ORDER BY weight DESC, obj)
           ::BIGINT AS rn
  FROM exp_triples WHERE pred = 'links_to') WHERE rn <= 2
""",
        "kg_cocitation": cte
        + """
, l AS (SELECT subj, obj FROM exp_triples WHERE pred = 'links_to')
SELECT a.subj AS note_a, b.subj AS note_b, count(*)::BIGINT AS n_shared
FROM l a JOIN l b ON a.obj = b.obj AND a.subj < b.subj
GROUP BY 1, 2
""",
        "kg_triangles": cte
        + """
, ue AS (
  SELECT DISTINCT least(subj, obj) AS a, greatest(subj, obj) AS b
  FROM exp_triples WHERE subj <> obj
),
tri AS (
  SELECT e1.a AS x, e1.b AS y, e2.b AS z
  FROM ue e1
  JOIN ue e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN ue e3 ON e3.a = e1.b AND e3.b = e2.b
),
corners AS (
  SELECT x AS node FROM tri
  UNION ALL SELECT y FROM tri
  UNION ALL SELECT z FROM tri
)
SELECT node, count(*)::BIGINT AS n_triangles FROM corners GROUP BY 1
""",
        "kg_pagerank": cte
        + """
SELECT count(DISTINCT node)::BIGINT AS n_nodes, TRUE AS sum_ok,
       TRUE AS match_ok
FROM (SELECT subj AS node FROM exp_triples WHERE pred = 'links_to'
      UNION SELECT obj FROM exp_triples WHERE pred = 'links_to')
""",
        # exactness-gate oracle (pagerank pattern): SQL anchors the
        # distinct-undirected-edge count; peeling itself is verified
        # Ray-side against the driver-exact peel
        "kg_kcore": cte
        + """
SELECT count(*)::BIGINT AS n_edges, TRUE AS core_nonempty, TRUE AS match_ok
FROM (SELECT DISTINCT least(subj, obj) AS a, greatest(subj, obj) AS b
      FROM exp_triples WHERE subj <> obj)
""",
        "kg_dup_name": cte
        + "\nSELECT note_name, count(*)::BIGINT AS n_docs, min(doc_key) AS keeper"
        " FROM exp_notes GROUP BY note_name HAVING count(*) > 1",
        "kg_dup_content": cte
        + "\nSELECT content_hash, count(*)::BIGINT AS n_docs, min(doc_key) AS keeper"
        " FROM exp_notes GROUP BY content_hash HAVING count(*) > 1",
        # undirected transitive closure → min reachable node id = the
        # same canonical component representative the Ray label
        # propagation converges to
        "kg_components": cte.replace("WITH ", "WITH RECURSIVE ", 1)
        + """,
und AS (
  SELECT subj AS a, obj AS b FROM exp_triples WHERE pred = 'links_to'
  UNION
  SELECT obj, subj FROM exp_triples WHERE pred = 'links_to'
),
reach(node, lbl) AS (
  SELECT doc_key, doc_key FROM exp_notes
  UNION
  SELECT u.b, r.lbl FROM reach r JOIN und u ON u.a = r.node
)
SELECT node, min(lbl) AS component FROM reach GROUP BY node
""",
        # mention counts by (pred, resolved): all tag/media mentions
        # are literal-resolved; links resolve except the dangling
        # [[missing_d]] (d%9==0); embeds/alias links always resolve
        "kg_resolution": cte
        + """
SELECT 'links_to' AS pred, TRUE AS resolved,
       (2*count(*) + sum(CASE WHEN d % 5 = 1 THEN 1 ELSE 0 END))::BIGINT
         AS n_mentions FROM m
UNION ALL SELECT 'links_to', FALSE,
       sum(CASE WHEN d % 9 = 0 THEN 1 ELSE 0 END)::BIGINT FROM m
UNION ALL SELECT 'embeds', TRUE,
       (sum(CASE WHEN d % 4 = 0 THEN 1 ELSE 0 END)
        + sum(CASE WHEN d % 6 = 0 THEN 1 ELSE 0 END))::BIGINT FROM m
UNION ALL SELECT 'tagged', TRUE,
       (2*count(*) + sum(CASE WHEN d % 13 = 0 THEN 1 ELSE 0 END))::BIGINT FROM m
""",
        "kg_markdown": cte
        + """
SELECT 'note_'||m.d AS doc_id,
       '---' || chr(10) || 'id: ' || m.d || chr(10) || 'tags:' || chr(10) || '- ' || m.lang
       || CASE WHEN m.d % 13 = 0 THEN chr(10) || '- todo' ELSE '' END
       || CASE WHEN m.d % 5 = 0
               THEN chr(10) || 'aliases:' || chr(10) || '- alias_' || m.d ELSE '' END
       || chr(10) || '---' || chr(10) || nc.content AS raw_text
FROM m JOIN note_content nc ON nc.doc_key = 'note_'||m.d
UNION ALL
SELECT 'extra/note_'||d, 'Shadow body.' FROM m WHERE d % 10 = 0
""",
        "doc_dedup_exact": (
            "SELECT md5(text) AS content_hash, min(doc_id) AS keeper,"
            " count(*)::BIGINT AS n_copies FROM documents GROUP BY md5(text)"
        ),
        "doc_dedup_drop": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        # deterministic stratified sample: smallest-k md5(id) per key
        "doc_sample": """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang ORDER BY md5(doc_id::VARCHAR), doc_id
         ) AS rn
  FROM documents
) WHERE rn <= 5
""",
        # word-window chunking: window=200, stride=150; last window
        # truncated; single-space-joined chunk text
        "doc_chunks": r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM documents WHERE trim(text) <> ''
),
c AS (
  SELECT doc_id, ws, array_length(ws) AS n,
         CASE WHEN array_length(ws) <= 200 THEN 1
              ELSE 1 + CAST(ceil((array_length(ws) - 200) / 150.0) AS INT)
         END AS k
  FROM w
),
x AS (
  SELECT doc_id, ws, n, unnest(generate_series(1, k)) AS i FROM c
)
SELECT doc_id,
       (i - 1)::BIGINT AS chunk_idx,
       array_to_string(ws[(i-1)*150 + 1 : least((i-1)*150 + 200, n)], ' ')
         AS chunk_text,
       (least((i-1)*150 + 200, n) - (i-1)*150)::BIGINT AS n_tokens
FROM x
""",
        # exact n-gram Jaccard (k=3 word shingles, distinct per doc,
        # stop-shingles with df>64 dropped) — mirrors
        # stages/dedup.py:ngram_jaccard_pairs rule for rule
        "doc_ngram_jaccard": r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i : i+2], ' ') AS shingle
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 2)) AS i
        FROM w WHERE len(ws) >= 3)
  UNION
  SELECT doc_id, array_to_string(ws, ' ') FROM w WHERE len(ws) BETWEEN 1 AND 2
),
n AS (SELECT doc_id, count(*)::BIGINT AS n_sh FROM sh GROUP BY doc_id),
ok AS (SELECT shingle FROM sh GROUP BY shingle
       HAVING count(*) BETWEEN 2 AND 64),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*)::BIGINT AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  JOIN ok ON ok.shingle = a.shingle
  GROUP BY 1, 2
)
SELECT p.id_a, p.id_b, p.inter,
       (na.n_sh + nb.n_sh - p.inter)::BIGINT AS union_n,
       p.inter / (na.n_sh + nb.n_sh - p.inter) AS jaccard
FROM p JOIN n na ON na.doc_id = p.id_a JOIN n nb ON nb.doc_id = p.id_b
WHERE p.inter / (na.n_sh + nb.n_sh - p.inter) >= 0.4
""",
        # near-dup DROP: the exact pair graph above → recursive-CTE
        # connected components → keep the min-id representative per
        # cluster — mirrors stages/dedup.py:drop_near_duplicates
        "doc_neardup_drop": r"""
WITH RECURSIVE w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i : i+2], ' ') AS shingle
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 2)) AS i
        FROM w WHERE len(ws) >= 3)
  UNION
  SELECT doc_id, array_to_string(ws, ' ') FROM w WHERE len(ws) BETWEEN 1 AND 2
),
n AS (SELECT doc_id, count(*)::BIGINT AS n_sh FROM sh GROUP BY doc_id),
ok AS (SELECT shingle FROM sh GROUP BY shingle
       HAVING count(*) BETWEEN 2 AND 64),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*)::BIGINT AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  JOIN ok ON ok.shingle = a.shingle
  GROUP BY 1, 2
),
e AS (
  SELECT p.id_a AS a, p.id_b AS b
  FROM p JOIN n na ON na.doc_id = p.id_a JOIN n nb ON nb.doc_id = p.id_b
  WHERE p.inter / (na.n_sh + nb.n_sh - p.inter) >= 0.4
),
und AS (SELECT a, b FROM e UNION SELECT b, a FROM e),
reach(node, lbl) AS (
  SELECT a, a FROM und
  UNION
  SELECT u.b, r.lbl FROM reach r JOIN und u ON u.a = r.node
),
comp AS (SELECT node, min(lbl) AS component FROM reach GROUP BY node)
SELECT doc_id FROM documents
WHERE doc_id NOT IN (SELECT node FROM comp WHERE node <> component)
""",
        "events_topk_users": (
            "SELECT user_id, count(*)::BIGINT AS n_events FROM events"
            " GROUP BY user_id ORDER BY n_events DESC, user_id LIMIT 20"
        ),
        # tolerance gate: exact distinct + the HLL-within-5% boolean
        # (deterministic estimate — a sketch regression flips it)
        "events_approx_users": (
            "SELECT count(DISTINCT user_id)::BIGINT AS n_distinct_exact,"
            " TRUE AS hll_within_5pct FROM events"
        ),
        # grouped-MG heavy hitters in the no-eviction regime (31-word
        # vocab << k=64) — sketch estimates are exact, so the twin is
        # the exact count / row_number top-5 per lang
        "doc_top_words_by_lang": r"""
WITH w AS (
  SELECT lang, unnest(regexp_split_to_array(text, '\s+')) AS word
  FROM documents
),
c AS (
  SELECT lang, word, count(*)::BIGINT AS n
  FROM w WHERE word <> '' GROUP BY lang, word
),
r AS (
  SELECT lang, word, n,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n DESC, word) AS rk
  FROM c
)
SELECT lang, word, n FROM r WHERE rk <= 5
""",
        # tolerance gate: exact per-type counts + the Count-Min
        # overestimate-within-bound boolean per type
        "events_countmin_types": (
            "SELECT event_type, count(*)::BIGINT AS n, TRUE AS cm_ok"
            " FROM events GROUP BY event_type"
        ),
        # recall gate: the exact >=0.5-Jaccard pair count is fully
        # SQL-computable (same shingle rules as doc_ngram_jaccard);
        # the boolean asserts deterministic LSH recall >= 0.9 over it
        "doc_minhash_neardup": r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i : i+2], ' ') AS shingle
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 2)) AS i
        FROM w WHERE len(ws) >= 3)
  UNION
  SELECT doc_id, array_to_string(ws, ' ') FROM w WHERE len(ws) BETWEEN 1 AND 2
),
n AS (SELECT doc_id, count(*)::BIGINT AS n_sh FROM sh GROUP BY doc_id),
ok AS (SELECT shingle FROM sh GROUP BY shingle
       HAVING count(*) BETWEEN 2 AND 64),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*)::BIGINT AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  JOIN ok ON ok.shingle = a.shingle
  GROUP BY 1, 2
)
SELECT count(*)::BIGINT AS n_true_pairs, TRUE AS recall_ok
FROM p JOIN n na ON na.doc_id = p.id_a JOIN n nb ON nb.doc_id = p.id_b
WHERE p.inter / (na.n_sh + nb.n_sh - p.inter) >= 0.5
""",
        # same exact-Jaccard truth set as the MinHash gate; the Ray
        # side checks SimHash recall over it (>= 0.6, see query doc)
        "doc_simhash_neardup": r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i : i+2], ' ') AS shingle
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 2)) AS i
        FROM w WHERE len(ws) >= 3)
  UNION
  SELECT doc_id, array_to_string(ws, ' ') FROM w WHERE len(ws) BETWEEN 1 AND 2
),
n AS (SELECT doc_id, count(*)::BIGINT AS n_sh FROM sh GROUP BY doc_id),
ok AS (SELECT shingle FROM sh GROUP BY shingle
       HAVING count(*) BETWEEN 2 AND 64),
p AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*)::BIGINT AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  JOIN ok ON ok.shingle = a.shingle
  GROUP BY 1, 2
)
SELECT count(*)::BIGINT AS n_true_pairs, TRUE AS recall_ok
FROM p JOIN n na ON na.doc_id = p.id_a JOIN n nb ON nb.doc_id = p.id_b
WHERE p.inter / (na.n_sh + nb.n_sh - p.inter) >= 0.5
""",
        # recall gate: mean IVF@5 recall vs the (separately
        # oracle-checked) exact top-5; a pruning/assignment
        # regression flips the boolean
        "emb_knn_ivf": (
            "SELECT count(*)::BIGINT AS n_queries, TRUE AS recall_ok"
            " FROM embeddings WHERE vec_id < 10"
        ),
        "emb_knn_pq": (
            "SELECT count(*)::BIGINT AS n_queries, TRUE AS recall_ok,"
            " TRUE AS rerank_exact"
            " FROM embeddings WHERE vec_id < 10"
        ),
        "emb_dedup_drop": (
            "SELECT count(*)::BIGINT AS n_kept, TRUE AS survivors_ok"
            " FROM embeddings"
        ),
        # planted-pair gate: one true pair per planted copy
        # (vec_id < 25); LSH recall >= 0.8 and exact precision
        "emb_neardup": (
            "SELECT count(*)::BIGINT AS n_true_pairs,"
            " TRUE AS recall_ok, TRUE AS precision_ok"
            " FROM embeddings WHERE vec_id < 25"
        ),
        "emb_kmeans": (
            "SELECT count(*)::BIGINT AS n_vecs, TRUE AS assign_ok,"
            " TRUE AS centroid_ok FROM embeddings"
        ),
        "kg_incremental": (
            "SELECT count(*)::BIGINT AS n_docs, TRUE AS match_ok"
            " FROM documents"
        ),
        "kg_bfs": cte.replace("WITH ", "WITH RECURSIVE ", 1)
        + """
, le AS (SELECT subj, obj FROM exp_triples WHERE pred = 'links_to'),
ue AS (SELECT subj AS a, obj AS b FROM le UNION SELECT obj, subj FROM le),
walk(node, dist) AS (
  SELECT 'note_0', 0
  UNION
  SELECT ue.b, w.dist + 1 FROM walk w JOIN ue ON ue.a = w.node
  WHERE w.dist < 6
)
SELECT node, min(dist)::BIGINT AS dist FROM walk GROUP BY 1
""",
        "events_hist": (
            "SELECT event_type, floor(value)::BIGINT AS bin,"
            " count(*)::BIGINT AS n_events FROM events GROUP BY 1, 2"
        ),
        "doc_top_terms": """
WITH toks AS (
  SELECT doc_id, lower(t.term) AS term FROM documents,
    unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS t(term)
),
tf AS (SELECT doc_id, term, count(*)::BIGINT AS tf FROM toks GROUP BY 1, 2),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY 1),
n AS (SELECT count(*)::BIGINT AS n FROM documents)
SELECT doc_id, term, tf, df, score, rn FROM (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         tf.tf * (n.n::DOUBLE / df.df) AS score,
         row_number() OVER (PARTITION BY tf.doc_id
            ORDER BY tf.tf * (n.n::DOUBLE / df.df) DESC, tf.term)
           ::BIGINT AS rn
  FROM tf JOIN df USING (term), n) WHERE rn <= 3
""",
        "doc_profile": r"""
SELECT doc_id,
       length(text)::BIGINT AS n_chars,
       strlen(text)::BIGINT AS n_bytes,
       len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))::BIGINT
         AS n_words,
       length(regexp_replace(text, '[^.,!?;:]', '', 'g'))::BIGINT AS n_punct,
       len(list_filter(regexp_split_to_array(lower(text), '\s+'),
           x -> x IN ('the','and','of','to','a','in','is','that','it','for')))::BIGINT
         AS n_stop_en,
       len(list_filter(regexp_extract_all(text,
           '''(?:[sdmt]|ll|ve|re)| ?[A-Za-zÀ-ÿЀ-ӿ]+| ?[0-9]+| ?[^\sA-Za-zÀ-ÿЀ-ӿ0-9]+|\s+'),
           x -> NOT regexp_matches(x, '^\s+$')))::BIGINT AS n_bpe_tokens,
       md5(text) AS fingerprint
FROM documents
""",
        "lang_stats": r"""
SELECT lang, count(*)::BIGINT AS n_docs,
       sum(length(text))::BIGINT AS total_chars,
       sum(len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '')))::BIGINT
         AS total_words
FROM documents GROUP BY lang
""",
        "emb_knn": """
SELECT q.vec_id AS query_id, n.vec_id AS neighbor_id,
       row_number() OVER (
         PARTITION BY q.vec_id
         ORDER BY list_cosine_similarity(q.embedding::DOUBLE[], n.embedding::DOUBLE[])
                  DESC, n.vec_id
       )::BIGINT AS rank
FROM embeddings q JOIN embeddings n ON n.vec_id <> q.vec_id
WHERE q.vec_id < 10
QUALIFY rank <= 5
""",
        "events_hourly": (
            "SELECT user_id, epoch_us(ts)//3600000000 AS hour_epoch,"
            " count(*)::BIGINT AS n_events FROM events GROUP BY 1, 2"
        ),
        "events_sessions": """
WITH s AS (SELECT user_id, epoch_us(ts)//1000000 AS sec FROM events),
x AS (
  SELECT user_id, sec,
         CASE WHEN lag(sec) OVER w IS NULL
                OR sec - lag(sec) OVER w > 1800 THEN 1 ELSE 0 END AS brk
  FROM s WINDOW w AS (PARTITION BY user_id ORDER BY sec)
),
y AS (
  SELECT user_id, sec,
         sum(brk) OVER (PARTITION BY user_id ORDER BY sec
                        ROWS UNBOUNDED PRECEDING)::BIGINT AS session_idx
  FROM x
)
SELECT user_id, session_idx, count(*)::BIGINT AS n_events,
       min(sec)::BIGINT AS start_s, max(sec)::BIGINT AS end_s
FROM y GROUP BY 1, 2
""",
        "events_funnel": """
WITH e AS (SELECT user_id, event_type,
                  epoch_us(ts)//1000000 AS s FROM events),
u AS (SELECT DISTINCT user_id FROM e),
s1 AS (SELECT user_id, min(s) AS t1 FROM e
       WHERE event_type = 'signup' GROUP BY 1),
s2 AS (SELECT e.user_id, min(e.s) AS t2 FROM e
       JOIN s1 ON s1.user_id = e.user_id
       WHERE e.event_type = 'view' AND e.s > s1.t1 GROUP BY 1),
s3 AS (SELECT e.user_id, min(e.s) AS t3 FROM e
       JOIN s2 ON s2.user_id = e.user_id
       WHERE e.event_type = 'purchase' AND e.s > s2.t2 GROUP BY 1)
SELECT u.user_id,
       (CASE WHEN t1 IS NULL THEN 0 WHEN t2 IS NULL THEN 1
             WHEN t3 IS NULL THEN 2 ELSE 3 END)::BIGINT
         AS steps_completed,
       coalesce(t1, -1)::BIGINT AS t1_s,
       coalesce(t2, -1)::BIGINT AS t2_s,
       coalesce(t3, -1)::BIGINT AS t3_s
FROM u LEFT JOIN s1 ON s1.user_id = u.user_id
       LEFT JOIN s2 ON s2.user_id = u.user_id
       LEFT JOIN s3 ON s3.user_id = u.user_id
""",
        "events_retention": """
WITH e AS (SELECT DISTINCT user_id,
                  epoch_us(ts)//1000000//86400 AS bucket FROM events),
c AS (SELECT user_id, min(bucket) AS cohort FROM e GROUP BY 1)
SELECT c.cohort::BIGINT AS cohort_bucket,
       (e.bucket - c.cohort)::BIGINT AS bucket_offset,
       count(*)::BIGINT AS n_users
FROM e JOIN c ON c.user_id = e.user_id GROUP BY 1, 2
""",
        "events_type_stats": (
            "SELECT event_type, count(*)::BIGINT AS n_events,"
            " min(value) AS min_value, max(value) AS max_value"
            " FROM events GROUP BY event_type"
        ),
        # composed pipeline: the quality / dedup / chunk stage twins
        # chained in one statement (same literals as their own oracles)
        "doc_prep_pipeline": rf"""
WITH qs AS (
  SELECT doc_id,
    length(text)::BIGINT AS n_chars,
    len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))::BIGINT
      AS nw0,
    length(regexp_replace(text, '[^.,!?;:]', '', 'g'))::BIGINT AS n_punct,
    len(list_filter(regexp_split_to_array(lower(text), '\s+'),
        x -> x IN ({_sql_list("en")})))::BIGINT AS n_stop
  FROM documents
),
qx AS (
  SELECT doc_id, CASE WHEN nw0 = 0 THEN 1 ELSE nw0 END AS nw,
         n_chars, n_punct, n_stop FROM qs
),
qy AS (
  SELECT doc_id,
    least(1.0, nw / 50.0) * (CASE WHEN nw < 2000 THEN 1.0 ELSE 0.5 END)
      AS len_score,
    CASE WHEN n_punct / greatest(1, n_chars) < 0.1 THEN 1.0 ELSE 0.5 END
      AS punct_score,
    least(1.0, n_stop / nw * 5) AS stop_score
  FROM qx
),
q AS (
  SELECT doc_id,
    floor((len_score + punct_score + stop_score) / 3 * 1000000.0)::BIGINT
      AS qm
  FROM qy
),
f AS (
  SELECT d.doc_id, d.text FROM documents d JOIN q USING (doc_id)
  WHERE q.qm >= 650000 AND d.lang IN ('en', 'de')
),
k AS (SELECT min(doc_id) AS doc_id FROM f GROUP BY text),
kd AS (SELECT f.doc_id, f.text FROM f JOIN k USING (doc_id)),
w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM kd WHERE trim(text) <> ''
),
c AS (
  SELECT doc_id, ws, array_length(ws) AS n,
         CASE WHEN array_length(ws) <= 200 THEN 1
              ELSE 1 + CAST(ceil((array_length(ws) - 200) / 150.0) AS INT)
         END AS kk
  FROM w
),
xx AS (
  SELECT doc_id, ws, n, unnest(generate_series(1, kk)) AS i FROM c
)
SELECT doc_id,
       (i - 1)::BIGINT AS chunk_idx,
       array_to_string(ws[(i-1)*150 + 1 : least((i-1)*150 + 200, n)], ' ')
         AS chunk_text,
       (least((i-1)*150 + 200, n) - (i-1)*150)::BIGINT AS n_tokens
FROM xx
""",
        # v2: the doc_strip_boilerplate CTEs produce `cleaned`, which
        # then flows through the SAME quality/dedup/chunk chain as
        # doc_prep_pipeline — one end-to-end twin for four stages
        "doc_prep_boiler": rf"""
WITH sw AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS w
  FROM documents
),
grams AS (
  SELECT doc_id,
         unnest(list_transform(range(1, greatest(len(w) - 4, 0) + 1),
                               i -> array_to_string(w[i:i+4], ' '))) AS g,
         unnest(range(1, greatest(len(w) - 4, 0) + 1)) AS i
  FROM sw
),
dup AS (SELECT g FROM grams GROUP BY g HAVING count(DISTINCT doc_id) >= 2),
hits AS (SELECT DISTINCT doc_id, i FROM grams JOIN dup USING (g)),
tokens AS (
  SELECT doc_id, unnest(w) AS word, unnest(range(1, len(w) + 1)) AS j
  FROM sw
),
removed AS (
  SELECT DISTINCT t.doc_id, t.j
  FROM tokens t JOIN hits h
    ON t.doc_id = h.doc_id AND t.j BETWEEN h.i AND h.i + 4
),
keptw AS (
  SELECT t.doc_id, string_agg(t.word, ' ' ORDER BY t.j) AS clean_text
  FROM tokens t LEFT JOIN removed r ON t.doc_id = r.doc_id AND t.j = r.j
  WHERE r.j IS NULL
  GROUP BY t.doc_id
),
cleaned AS (
  SELECT d.doc_id, coalesce(k.clean_text, '') AS text, d.lang
  FROM documents d LEFT JOIN keptw k USING (doc_id)
),
qs AS (
  SELECT doc_id,
    length(text)::BIGINT AS n_chars,
    len(list_filter(regexp_split_to_array(text, '\s+'), x -> x <> ''))::BIGINT
      AS nw0,
    length(regexp_replace(text, '[^.,!?;:]', '', 'g'))::BIGINT AS n_punct,
    len(list_filter(regexp_split_to_array(lower(text), '\s+'),
        x -> x IN ({_sql_list("en")})))::BIGINT AS n_stop
  FROM cleaned
),
qx AS (
  SELECT doc_id, CASE WHEN nw0 = 0 THEN 1 ELSE nw0 END AS nw,
         n_chars, n_punct, n_stop FROM qs
),
qy AS (
  SELECT doc_id,
    least(1.0, nw / 50.0) * (CASE WHEN nw < 2000 THEN 1.0 ELSE 0.5 END)
      AS len_score,
    CASE WHEN n_punct / greatest(1, n_chars) < 0.1 THEN 1.0 ELSE 0.5 END
      AS punct_score,
    least(1.0, n_stop / nw * 5) AS stop_score
  FROM qx
),
q AS (
  SELECT doc_id,
    floor((len_score + punct_score + stop_score) / 3 * 1000000.0)::BIGINT
      AS qm
  FROM qy
),
f AS (
  SELECT d.doc_id, d.text FROM cleaned d JOIN q USING (doc_id)
  WHERE q.qm >= 650000 AND d.lang IN ('en', 'de')
),
k AS (SELECT min(doc_id) AS doc_id FROM f GROUP BY text),
kd AS (SELECT f.doc_id, f.text FROM f JOIN k USING (doc_id)),
w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM kd WHERE trim(text) <> ''
),
c AS (
  SELECT doc_id, ws, array_length(ws) AS n,
         CASE WHEN array_length(ws) <= 200 THEN 1
              ELSE 1 + CAST(ceil((array_length(ws) - 200) / 150.0) AS INT)
         END AS kk
  FROM w
),
xx AS (
  SELECT doc_id, ws, n, unnest(generate_series(1, kk)) AS i FROM c
)
SELECT doc_id,
       (i - 1)::BIGINT AS chunk_idx,
       array_to_string(ws[(i-1)*150 + 1 : least((i-1)*150 + 200, n)], ' ')
         AS chunk_text,
       (least((i-1)*150 + 200, n) - (i-1)*150)::BIGINT AS n_tokens
FROM xx
""",
        "emb_label_by_lang": (
            "SELECT d.lang, e.label, count(*)::BIGINT AS n_vecs"
            " FROM embeddings e JOIN documents d ON e.vec_id = d.doc_id"
            " GROUP BY 1, 2"
        ),
        # exact per-(lang, dim) centroid sums on the floor(val*1e6)
        # integer grid — int64 addition is associative, so the
        # distributed sums hash-match SQL bit-for-bit (float avg would
        # differ in the last ulp by summation order)
        "emb_lang_centroid": """
WITH x AS (
  SELECT vec_id,
         unnest(embedding) AS val,
         unnest(range(1, len(embedding) + 1)) AS dim
  FROM embeddings
)
SELECT d.lang, x.dim::BIGINT AS dim,
       sum(floor(x.val::DOUBLE * 1000000))::BIGINT AS sum_scaled,
       count(*)::BIGINT AS n_vecs
FROM x JOIN documents d ON x.vec_id = d.doc_id
GROUP BY 1, 2
""",
        "events_running_spend": """
WITH e AS (SELECT user_id, epoch_us(ts)//1000000 AS s, event_id,
                  floor(value*100)::BIGINT AS cents FROM events)
SELECT user_id, s, event_id, cents,
       sum(cents) OVER (PARTITION BY user_id ORDER BY s, event_id
                        ROWS UNBOUNDED PRECEDING)::BIGINT AS cum_cents,
       row_number() OVER (PARTITION BY user_id ORDER BY s, event_id)
         ::BIGINT AS rn
FROM e
""",
        "events_never_purchased": """
WITH uh AS (SELECT DISTINCT user_id,
                   epoch_us(ts)//1000000//3600 AS hour_s FROM events),
p AS (SELECT DISTINCT user_id, epoch_us(ts)//1000000//3600 AS hour_s
      FROM events WHERE event_type = 'purchase')
SELECT user_id, hour_s FROM uh
EXCEPT SELECT user_id, hour_s FROM p
""",
        # gate oracles (HLL pattern): exact quantities + expected-TRUE
        # booleans that a sketch regression would flip
        "events_value_quantiles": (
            "SELECT count(*)::BIGINT AS n_rows, TRUE AS q10_ok,"
            " TRUE AS q50_ok, TRUE AS q90_ok FROM events"
        ),
        "events_type_approx_users": (
            "SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users,"
            " TRUE AS within_5pct FROM events GROUP BY event_type"
        ),
        "events_type_quantiles": """
SELECT event_type, count(*)::BIGINT AS n_events,
       TRUE AS q25_ok, TRUE AS q50_ok, TRUE AS q75_ok
FROM events GROUP BY event_type
""",
        "events_heavy_users": """
SELECT user_id, count(*)::BIGINT AS n_events,
       TRUE AS in_sketch, TRUE AS within_bound
FROM events GROUP BY user_id
ORDER BY n_events DESC, user_id LIMIT 10
""",
        # k-way window explode re-derived with a range() cross join
        "events_hopping": """
WITH e AS (SELECT user_id, epoch_us(ts)//1000000 AS s FROM events),
w AS (
  SELECT user_id, (s//900 - i.range) * 900 AS ws, s
  FROM e CROSS JOIN range(4) i
)
SELECT user_id, ws::BIGINT AS window_start_s, count(*)::BIGINT AS n_events
FROM w WHERE ws <= s AND s < ws + 3600 GROUP BY 1, 2
""",
        # per-user peak over the same hopping windows
        "events_bursts": """
WITH e AS (SELECT user_id, epoch_us(ts)//1000000 AS s FROM events),
w AS (
  SELECT user_id, (s//900 - i.range) * 900 AS ws, s
  FROM e CROSS JOIN range(4) i
),
h AS (
  SELECT user_id, ws, count(*)::BIGINT AS n_events
  FROM w WHERE ws <= s AND s < ws + 3600 GROUP BY 1, 2
)
SELECT user_id, max(n_events)::BIGINT AS peak_events
FROM h GROUP BY 1
""",
        # DuckDB's native ASOF JOIN is the oracle for the co-partitioned
        # merge_asof operator (stages/events.py asof_join)
        "events_asof": """
WITH l AS (
  SELECT event_id, user_id, epoch_us(ts)//1000000 AS s
  FROM events WHERE event_type = 'click'
),
r AS (
  SELECT user_id, epoch_us(ts)//1000000 AS s, max(value) AS p_value
  FROM events WHERE event_type = 'purchase' GROUP BY 1, 2
)
SELECT l.event_id, l.user_id, l.s,
       coalesce(r.s, -1)::BIGINT AS p_s,
       coalesce(r.p_value, -1.0) AS p_value
FROM l ASOF LEFT JOIN r ON l.user_id = r.user_id AND l.s >= r.s
""",
        # inequality join re-derives the interval_join + sessionize pair
        "events_purchases_in_session": """
WITH s AS (SELECT user_id, epoch_us(ts)//1000000 AS sec FROM events),
x AS (
  SELECT user_id, sec,
         CASE WHEN lag(sec) OVER w IS NULL
                OR sec - lag(sec) OVER w > 1800 THEN 1 ELSE 0 END AS brk
  FROM s WINDOW w AS (PARTITION BY user_id ORDER BY sec)
),
y AS (
  SELECT user_id, sec,
         sum(brk) OVER (PARTITION BY user_id ORDER BY sec
                        ROWS UNBOUNDED PRECEDING)::BIGINT AS session_idx
  FROM x
),
sess AS (
  SELECT user_id, session_idx,
         min(sec)::BIGINT AS start_s, max(sec)::BIGINT AS end_s
  FROM y GROUP BY 1, 2
),
p AS (
  SELECT user_id, epoch_us(ts)//1000000 AS sec
  FROM events WHERE event_type = 'purchase'
)
SELECT sess.user_id, sess.session_idx, count(*)::BIGINT AS n_purchases
FROM sess JOIN p
  ON p.user_id = sess.user_id AND p.sec BETWEEN sess.start_s AND sess.end_s
GROUP BY 1, 2
""",
        "events_interval_overlap": """
WITH c AS (
  SELECT event_id, user_id, epoch_us(ts)//1000000 AS s
  FROM events WHERE event_type = 'click'
),
p AS (
  SELECT event_id AS anchor_id, user_id,
         epoch_us(ts)//1000000 - 900 AS w_start,
         epoch_us(ts)//1000000 + 900 AS w_end
  FROM events WHERE event_type = 'purchase'
)
SELECT c.event_id, c.user_id, c.s, p.anchor_id
FROM c JOIN p
  ON c.user_id = p.user_id AND c.s BETWEEN p.w_start AND p.w_end
""",
        # re-derives the fake decoder's md5-based metadata in SQL
        # (synth_media_batch, stages/multimodal.py) over the asset set
        # the vault derivation plants (corpus.py SPEC: media span with
        # ref 'assets/img_{d%10}.png' when d%6==0) — value-checks
        # ref extraction + dedup + decode metadata end-to-end
        "media_features": r"""
WITH assets AS (
  SELECT DISTINCT 'assets/img_' || (doc_id % 10) || '.png' AS asset_id
  FROM documents WHERE doc_id % 6 = 0
),
h AS (
  SELECT asset_id,
         ('0x' || substr(md5(asset_id), 1, 2))::INT AS b0,
         ('0x' || substr(md5(asset_id), 3, 2))::INT AS b1,
         ('0x' || substr(md5(asset_id), 5, 2))::INT AS b2,
         ('0x' || substr(md5(asset_id), 7, 2))::INT AS b3,
         ('0x' || substr(md5(asset_id), 9, 2))::INT AS b4
  FROM assets
)
SELECT asset_id,
       CASE WHEN b0 % 2 = 0 THEN 'image' ELSE 'audio' END AS media_type,
       (256 + b1 * 8)::BIGINT AS n_bytes,
       CASE WHEN b0 % 2 = 0 THEN 16 + b2 % 64 ELSE 0 END::BIGINT AS width,
       CASE WHEN b0 % 2 = 0 THEN 16 + b3 % 64 ELSE 0 END::BIGINT AS height,
       CASE WHEN b0 % 2 = 0 THEN 0 ELSE 1000 + b4 * 100 END::BIGINT AS duration_ms
FROM h
""",
        # real-codec twin of media_features: dimensions/durations
        # planted via md5(asset_id) into ACTUAL PNG / baseline-JPEG /
        # PCM-WAV payloads (synth_real_media_batch); the Ray side must
        # really decode (strict=True) to recover them
        "media_decode_real": r"""
WITH assets AS (
  SELECT DISTINCT 'assets/img_' || (doc_id % 10) || '.png' AS asset_id
  FROM documents WHERE doc_id % 6 = 0
),
h AS (
  SELECT asset_id,
         ('0x' || substr(md5(asset_id), 1, 2))::INT AS b0,
         ('0x' || substr(md5(asset_id), 5, 2))::INT AS b2,
         ('0x' || substr(md5(asset_id), 7, 2))::INT AS b3,
         ('0x' || substr(md5(asset_id), 9, 2))::INT AS b4
  FROM assets
)
SELECT asset_id,
       CASE b0 % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
            ELSE 'video' END AS media_type,
       CASE WHEN b0 % 3 = 1 THEN 0 ELSE 16 + b2 % 64 END::BIGINT
         AS width,
       CASE WHEN b0 % 3 = 1 THEN 0 ELSE 16 + b3 % 64 END::BIGINT
         AS height,
       CASE WHEN b0 % 3 = 0 THEN 0 ELSE 500 + b4 * 20 END::BIGINT
         AS duration_ms
FROM h
""",
        # real resize: image assets only (md5[0]%3=0); thumb dims are
        # the same integer-floor arithmetic thumb_dims() applies, and
        # the query decodes the thumbnail PNG back so the values can
        # only match if the full decode→resample→re-encode path ran
        "media_thumbnails": r"""
WITH assets AS (
  SELECT DISTINCT 'assets/img_' || (doc_id % 10) || '.png' AS asset_id
  FROM documents WHERE doc_id % 6 = 0
),
h AS (
  SELECT asset_id,
         ('0x' || substr(md5(asset_id), 1, 2))::INT AS b0,
         16 + ('0x' || substr(md5(asset_id), 5, 2))::INT % 64 AS w,
         16 + ('0x' || substr(md5(asset_id), 7, 2))::INT % 64 AS hh
  FROM assets
)
SELECT asset_id,
       w::BIGINT AS src_w, hh::BIGINT AS src_h,
       CASE WHEN greatest(w, hh) <= 16 THEN w
            ELSE greatest(1, (w * 16) // greatest(w, hh)) END::BIGINT
         AS width,
       CASE WHEN greatest(w, hh) <= 16 THEN hh
            ELSE greatest(1, (hh * 16) // greatest(w, hh)) END::BIGINT
         AS height
FROM h WHERE b0 % 3 = 0
""",
        # real MJPEG frame sampling: every 2nd frame of each asset's
        # 2 + md5[5]%6 frames; gray is the planted constant
        # 63 + 5*((md5[4]+i) % 26), reproduced EXACTLY by the real
        # JPEG round trip (multiples of the q85 DC quantizer step)
        "media_frame_sample": r"""
WITH assets AS (
  SELECT DISTINCT 'assets/img_' || (doc_id % 10) || '.png' AS asset_id
  FROM documents WHERE doc_id % 6 = 0
),
h AS (
  SELECT asset_id,
         16 + ('0x' || substr(md5(asset_id), 5, 2))::INT % 64 AS w,
         16 + ('0x' || substr(md5(asset_id), 7, 2))::INT % 64 AS hh,
         ('0x' || substr(md5(asset_id), 9, 2))::INT AS b4,
         2 + ('0x' || substr(md5(asset_id), 11, 2))::INT % 6 AS n
  FROM assets
),
f AS (
  SELECT asset_id, w, hh, b4,
         unnest(generate_series(0, n - 1)) AS frame_index
  FROM h
)
SELECT asset_id, frame_index::BIGINT AS frame_index,
       w::BIGINT AS width, hh::BIGINT AS height,
       (63 + 5 * ((b4 + frame_index) % 26))::BIGINT AS gray
FROM f WHERE frame_index % 2 = 0
""",
        # cross-modal join: vault media spans (doc_id%6==0 →
        # assets/img_{doc_id%10}.png per the corpus spec) joined to
        # the strict-decoded features, values from md5(asset_id)
        "doc_media_join": r"""
WITH pairs AS (
  SELECT 'note_' || doc_id AS note,
         'assets/img_' || (doc_id % 10) || '.png' AS asset_id
  FROM documents WHERE doc_id % 6 = 0
),
h AS (
  SELECT DISTINCT asset_id,
         ('0x' || substr(md5(asset_id), 1, 2))::INT AS b0,
         ('0x' || substr(md5(asset_id), 5, 2))::INT AS b2,
         ('0x' || substr(md5(asset_id), 7, 2))::INT AS b3,
         ('0x' || substr(md5(asset_id), 9, 2))::INT AS b4
  FROM pairs
)
SELECT p.note, p.asset_id,
       CASE b0 % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
            ELSE 'video' END AS media_type,
       CASE WHEN b0 % 3 = 1 THEN 0 ELSE 16 + b2 % 64 END::BIGINT
         AS width,
       CASE WHEN b0 % 3 = 1 THEN 0 ELSE 16 + b3 % 64 END::BIGINT
         AS height,
       CASE WHEN b0 % 3 = 0 THEN 0 ELSE 500 + b4 * 20 END::BIGINT
         AS duration_ms
FROM pairs p JOIN h USING (asset_id)
""",
        # image near-dup: expected pairs are exactly 'same md5-derived
        # base group' (the synth guarantees same-group ahash Hamming
        # ≤ 2 and independent cross-group hashes)
        "media_image_neardup": r"""
WITH assets AS (
  SELECT DISTINCT 'assets/img_' || (doc_id % 10) || '.png' AS asset_id
  FROM documents WHERE doc_id % 6 = 0
),
b AS (
  SELECT asset_id,
         ('0x' || substr(md5(asset_id), 3, 2))::INT % 4 AS base
  FROM assets
)
SELECT x.asset_id AS id_a, y.asset_id AS id_b
FROM b x JOIN b y ON x.base = y.base AND x.asset_id < y.asset_id
""",
        # gaps between consecutive events per user; median() over
        # BIGINT gaps interpolates exactly like numpy on sorted ints
        "events_gap_median": """
WITH e AS (SELECT user_id, epoch_us(ts)//1000000 AS s FROM events),
d AS (
  SELECT user_id,
         s - lag(s) OVER (PARTITION BY user_id ORDER BY s) AS gap
  FROM e
)
SELECT user_id, count(gap)::BIGINT AS n_gaps,
       median(gap)::DOUBLE AS median_gap
FROM d WHERE gap IS NOT NULL
GROUP BY 1
""",
        # RFM rollup, exact integers (epoch days + floor-cents)
        "customer_rfm": """
SELECT o_custkey,
       max(epoch_us(o_orderdate) // 86400000000)::BIGINT
         AS last_order_day,
       count(*)::BIGINT AS n_orders,
       sum(floor(o_totalprice * 100))::BIGINT AS total_cents
FROM orders GROUP BY 1
""",
        # FULL OUTER JOIN USING semantics: coalesced key, right-only
        # rows kept (orders whose customer the %3 filter removed)
        "customer_full_join": """
WITH c AS (
  SELECT c_custkey, TRUE AS has_customer
  FROM customer WHERE c_custkey % 3 <> 0
),
o AS (
  SELECT o_custkey AS c_custkey, count(*)::BIGINT AS n_orders
  FROM orders GROUP BY 1
)
SELECT COALESCE(c.c_custkey, o.c_custkey) AS c_custkey,
       COALESCE(c.has_customer, FALSE) AS has_customer,
       COALESCE(o.n_orders, 0)::BIGINT AS n_orders
FROM c FULL JOIN o ON c.c_custkey = o.c_custkey
""",
        # general M:N join: duplicate keys on the build side (one
        # lineitem row per order line), no pre-aggregation anywhere
        "orders_lineitem_mn": """
SELECT o_orderkey, o_custkey, o_orderstatus,
       l_linenumber, l_quantity
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
""",
        # M:N with duplicates on BOTH sides (nation co-location pairs)
        "customer_supplier_mn": """
SELECT c_custkey, c_nationkey, s_suppkey
FROM customer JOIN supplier ON c_nationkey = s_nationkey
""",
        # embedding-inference gate: dense md5 feature-hash vectors
        # (same derivation as doc_hash_vectors, assembled dense) →
        # cosine kNN ranks; zero vectors excluded on both sides
        "doc_embed_knn": r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
toks AS (SELECT doc_id, unnest(ws) AS w FROM w),
b AS (
  SELECT doc_id,
         ('0x' || substr(md5(w), 1, 8))::BIGINT % 64 AS dim_idx,
         CASE WHEN ('0x' || substr(md5(w), 9, 1))::INT % 2 = 0
              THEN 1 ELSE -1 END AS sgn
  FROM toks
),
v AS (
  SELECT doc_id, dim_idx, sum(sgn)::DOUBLE AS val
  FROM b GROUP BY 1, 2
),
nz AS (SELECT doc_id FROM v GROUP BY doc_id HAVING sum(val*val) > 0),
dims AS (SELECT unnest(range(64)) AS dim_idx),
dense AS (
  SELECT d.doc_id, dm.dim_idx, COALESCE(v.val, 0.0) AS val
  FROM nz d CROSS JOIN dims dm
  LEFT JOIN v ON v.doc_id = d.doc_id AND v.dim_idx = dm.dim_idx
),
vecs AS (
  SELECT doc_id, array_agg(val ORDER BY dim_idx) AS vec
  FROM dense GROUP BY doc_id
)
SELECT q.doc_id AS query_id, n.doc_id AS neighbor_id,
       row_number() OVER (
         PARTITION BY q.doc_id
         ORDER BY list_cosine_similarity(q.vec, n.vec) DESC, n.doc_id
       )::BIGINT AS rank
FROM vecs q JOIN vecs n ON n.doc_id <> q.doc_id
WHERE q.doc_id < 5
QUALIFY rank <= 5
""",
        # packing gate: totals recomputed from the doc_chunks
        # derivation; the constraint booleans must both hold
        "doc_pack": r"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM documents WHERE trim(text) <> ''
),
c AS (
  SELECT doc_id, array_length(ws) AS n,
         CASE WHEN array_length(ws) <= 200 THEN 1
              ELSE 1 + CAST(ceil((array_length(ws) - 200) / 150.0) AS INT)
         END AS k
  FROM w
),
x AS (SELECT doc_id, n, unnest(generate_series(1, k)) AS i FROM c)
SELECT count(*)::BIGINT AS n_chunks,
       sum(least((i-1)*150 + 200, n) - (i-1)*150)::BIGINT AS total_tokens,
       TRUE AS fill_ok,
       TRUE AS conserve_ok
FROM x
""",
        "doc_lm_quality": (
            "SELECT count(*)::BIGINT AS n_docs, TRUE AS lm_ok"
            " FROM documents"
        ),
        "graph_walks": (
            "SELECT (SELECT count(DISTINCT o_custkey) FROM orders)"
            " + (SELECT count(DISTINCT l_orderkey) FROM lineitem)"
            " AS n_walks, TRUE AS valid_ok"
        ),
        # top-3 by exact integer inner product over the md5-derived
        # sparse vectors; ties by neighbor id; self excluded; only
        # docs sharing >=1 nonzero dim appear (inner-join semantics)
        "doc_text_knn": r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
toks AS (SELECT doc_id, unnest(ws) AS w FROM w),
b AS (
  SELECT doc_id,
         ('0x' || substr(md5(w), 1, 8))::BIGINT % 64 AS dim_idx,
         CASE WHEN ('0x' || substr(md5(w), 9, 1))::INT % 2 = 0
              THEN 1 ELSE -1 END AS sgn
  FROM toks
),
v AS (
  SELECT doc_id, dim_idx, sum(sgn)::BIGINT AS value
  FROM b GROUP BY 1, 2 HAVING sum(sgn) <> 0
),
q AS (SELECT * FROM v WHERE doc_id < 5),
dots AS (
  SELECT q.doc_id AS query_id, v.doc_id AS neighbor_id,
         sum(q.value * v.value)::BIGINT AS dot
  FROM q JOIN v ON q.dim_idx = v.dim_idx AND v.doc_id <> q.doc_id
  GROUP BY 1, 2
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY dot DESC, neighbor_id) AS rk
  FROM dots
)
SELECT query_id, neighbor_id, dot, rk::BIGINT AS rank
FROM r WHERE rk <= 3
""",
        # signed feature hashing: bucket = md5[:8] % 64, sign = 9th
        # hex digit parity, tf-weighted; fully-cancelled dims dropped
        "doc_hash_vectors": r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
toks AS (SELECT doc_id, unnest(ws) AS w FROM w),
b AS (
  SELECT doc_id,
         ('0x' || substr(md5(w), 1, 8))::BIGINT % 64 AS dim_idx,
         CASE WHEN ('0x' || substr(md5(w), 9, 1))::INT % 2 = 0
              THEN 1 ELSE -1 END AS sgn
  FROM toks
)
SELECT doc_id, dim_idx, sum(sgn)::BIGINT AS value
FROM b GROUP BY 1, 2 HAVING sum(sgn) <> 0
""",
        # co-occurrence pairs + both marginals — the exact-integer
        # sufficient statistics of PMI
        "doc_collocations": r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(ws) AS w, unnest(range(1, len(ws) + 1)) AS j
  FROM w
),
freq AS (SELECT w, count(*)::BIGINT AS c FROM toks GROUP BY 1),
pairs AS (
  SELECT least(a.w, b.w) AS w1, greatest(a.w, b.w) AS w2
  FROM toks a JOIN toks b
    ON a.doc_id = b.doc_id AND b.j > a.j AND b.j - a.j <= 4
),
cooc AS (
  SELECT w1, w2, count(*)::BIGINT AS n_cooc
  FROM pairs GROUP BY 1, 2 HAVING count(*) >= 3
)
SELECT cooc.w1, cooc.w2, cooc.n_cooc,
       f1.c AS c1, f2.c AS c2
FROM cooc JOIN freq f1 ON cooc.w1 = f1.w
          JOIN freq f2 ON cooc.w2 = f2.w
""",
        # per-lang quota = floor(frac * n_lang); members ranked by
        # md5(doc_id) — the same hash-rank convention as doc_sample
        "doc_mixture": """
WITH n AS (SELECT lang, count(*) AS c FROM documents GROUP BY 1),
q AS (
  SELECT lang,
         CASE lang WHEN 'en' THEN floor(0.5 * c)
                   WHEN 'de' THEN floor(0.25 * c)
                   WHEN 'fr' THEN floor(0.1 * c) END AS quota
  FROM n WHERE lang IN ('en', 'de', 'fr')
),
r AS (
  SELECT d.doc_id, d.lang,
         row_number() OVER (PARTITION BY d.lang
                            ORDER BY md5(d.doc_id::VARCHAR), d.doc_id)
           AS rk
  FROM documents d
)
SELECT r.doc_id, r.lang
FROM r JOIN q USING (lang)
WHERE r.rk <= q.quota
""",
        # unordered in-window pairs via positional self-join; UTF-8
        # byte order == codepoint order, so least/greatest matches the
        # Ray side's canonical pair ordering
        "doc_cooccurrence": r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(text), '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(ws) AS w,
         unnest(range(1, len(ws) + 1)) AS j
  FROM w
),
pairs AS (
  SELECT least(a.w, b.w) AS w1, greatest(a.w, b.w) AS w2
  FROM toks a JOIN toks b
    ON a.doc_id = b.doc_id AND b.j > a.j AND b.j - a.j <= 4
)
SELECT w1, w2, count(*)::BIGINT AS n_cooc
FROM pairs GROUP BY 1, 2 HAVING count(*) >= 3
""",
        "dq_referential": """
SELECT
  (SELECT count(*) FROM orders o
    WHERE o.o_custkey NOT IN (SELECT c_custkey FROM customer))::BIGINT
    AS orphan_orders,
  (SELECT count(*) FROM lineitem l
    WHERE l.l_orderkey NOT IN (SELECT o_orderkey FROM orders))::BIGINT
    AS orphan_lineitems,
  (SELECT count(*) FROM (
     SELECT c_custkey FROM customer GROUP BY 1 HAVING count(*) > 1
   ))::BIGINT AS dup_custkeys
""",
        # identical rewrite chain: control-strip -> lower -> \s+ -> ' '
        # -> trim; RE2 on both engines makes it byte-identical
        "doc_normalize": r"""
SELECT doc_id,
  trim(regexp_replace(
    lower(regexp_replace(text,
      '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]', '', 'g')),
    '\s+', ' ', 'g')) AS norm_text,
  length(trim(regexp_replace(
    lower(regexp_replace(text,
      '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]', '', 'g')),
    '\s+', ' ', 'g')))::BIGINT AS n_chars
FROM documents
""",
        # two-batch ingestion: odd-id docs admitted iff their text is
        # unseen among even-id docs, min-id keeper within the batch
        "doc_dedup_incremental": """
WITH b1 AS (SELECT text FROM documents WHERE doc_id % 2 = 0),
b2 AS (SELECT doc_id, text FROM documents WHERE doc_id % 2 = 1)
SELECT min(doc_id)::BIGINT AS doc_id
FROM b2 WHERE text NOT IN (SELECT text FROM b1)
GROUP BY text
""",
        # cross-doc repeated 5-gram span removal: dup grams by DISTINCT
        # doc count, word positions unioned per doc via an inequality
        # join, surviving tokens re-joined with single spaces —
        # byte-identical to remove_repeated_ngrams' rewrite
        "doc_strip_boilerplate": r"""
WITH words AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS w
  FROM documents
),
grams AS (
  SELECT doc_id,
         unnest(list_transform(range(1, greatest(len(w) - 4, 0) + 1),
                               i -> array_to_string(w[i:i+4], ' '))) AS g,
         unnest(range(1, greatest(len(w) - 4, 0) + 1)) AS i
  FROM words
),
dup AS (SELECT g FROM grams GROUP BY g HAVING count(DISTINCT doc_id) >= 2),
hits AS (SELECT DISTINCT doc_id, i FROM grams JOIN dup USING (g)),
tokens AS (
  SELECT doc_id, unnest(w) AS word, unnest(range(1, len(w) + 1)) AS j
  FROM words
),
removed AS (
  SELECT DISTINCT t.doc_id, t.j
  FROM tokens t JOIN hits h
    ON t.doc_id = h.doc_id AND t.j BETWEEN h.i AND h.i + 4
),
kept AS (
  SELECT t.doc_id, string_agg(t.word, ' ' ORDER BY t.j) AS clean_text
  FROM tokens t LEFT JOIN removed r ON t.doc_id = r.doc_id AND t.j = r.j
  WHERE r.j IS NULL
  GROUP BY t.doc_id
),
counts AS (SELECT doc_id, count(*)::BIGINT AS n_removed FROM removed GROUP BY 1)
SELECT w.doc_id,
       coalesce(k.clean_text, '') AS clean_text,
       len(w.w)::BIGINT AS n_words,
       coalesce(c.n_removed, 0)::BIGINT AS n_removed
FROM words w
LEFT JOIN kept k USING (doc_id)
LEFT JOIN counts c USING (doc_id)
""",
        # same planted URLs; a URL hit = whitespace token starting
        # with http(s)://, domain = lowercased host capture
        "doc_domain_stats": r"""
WITH planted AS (
  SELECT doc_id,
         text || ' https://W' || (doc_id % 5) || '.example.com/p/' ||
         doc_id || ' http://MIRROR' || (doc_id % 3) ||
         '.example.org' AS text
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(text, '\s+')) AS tok
  FROM planted
),
urls AS (
  SELECT doc_id, tok FROM toks WHERE regexp_matches(tok, '^https?://')
),
hosts AS (
  SELECT doc_id,
         lower(regexp_extract(tok, '^https?://([^/]+)', 1)) AS domain
  FROM urls
)
SELECT domain,
       count(*)::BIGINT AS n_hits,
       count(DISTINCT doc_id)::BIGINT AS n_docs
FROM hosts
WHERE domain <> ''
GROUP BY domain
""",
        # C4-style line dedup: same planted line structure, winner =
        # min (doc_id, line_no) via row_number(); lines shorter than 3
        # chars never participate (rn pinned to 1); docs whose every
        # line is removed still emit a row (coalesce to '')
        "doc_line_dedup": r"""
WITH planted AS (
  SELECT doc_id,
         text || chr(10) || 'shared footer alpha' || chr(10) ||
         'group footer ' || (doc_id % 7) || chr(10) || 'ok' ||
         chr(10) || 'unique line ' || doc_id AS text
  FROM documents
),
split AS (SELECT doc_id, string_split(text, chr(10)) AS ls FROM planted),
lines AS (
  SELECT doc_id, unnest(ls) AS line,
         unnest(range(1, len(ls) + 1)) AS j
  FROM split
),
ranked AS (
  SELECT doc_id, line, j,
         CASE WHEN length(line) >= 3
              THEN row_number() OVER (PARTITION BY line
                                      ORDER BY doc_id, j)
              ELSE 1 END AS rn
  FROM lines
)
SELECT doc_id,
       coalesce(string_agg(line, chr(10) ORDER BY j)
                FILTER (WHERE rn = 1), '') AS clean_text,
       count(*)::BIGINT AS n_lines,
       (count(*) FILTER (WHERE rn > 1))::BIGINT AS n_removed
FROM ranked
GROUP BY doc_id
""",
        # sliding-window n-grams (NO partial gram for docs shorter than
        # n words — word_ngrams_exact parity); hits = DISTINCT shared
        # grams per training doc
        "doc_decontaminate": r"""
WITH words AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS w
  FROM documents
),
grams AS (
  SELECT doc_id,
         unnest(list_transform(range(1, greatest(len(w) - 4, 0) + 1),
                               i -> array_to_string(w[i:i+4], ' '))) AS g
  FROM words
),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 29 = 0)
SELECT doc_id, count(DISTINCT g)::BIGINT AS n_hits
FROM grams JOIN bench USING (g)
WHERE doc_id % 29 <> 0
GROUP BY doc_id
""",
        # same planted PII + the SAME ordered RE2 rewrite chain as
        # stages/text.py DEFAULT_REDACTIONS (pyarrow and DuckDB are
        # both RE2 — byte-identical rewrites); counts taken BEFORE
        # rewriting
        "doc_redact": r"""
WITH planted AS (
  SELECT doc_id,
         text || ' contact user' || doc_id ||
         '@example.com from 10.0.0.7 ref 90000000' || doc_id AS text
  FROM documents
)
SELECT doc_id,
  regexp_replace(
    regexp_replace(
      regexp_replace(text,
        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
      '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
    '\b\d{7,}\b', '<NUM>', 'g') AS clean_text,
  len(regexp_extract_all(text,
      '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))::BIGINT
    AS n_redacted_0,
  len(regexp_extract_all(text,
      '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))::BIGINT AS n_redacted_1,
  len(regexp_extract_all(text, '\b\d{7,}\b'))::BIGINT AS n_redacted_2
FROM planted
""",
        # gate oracle: the exact semi-join count must hash-match; the
        # bloom-specific gates (no false negatives, FP under bound) are
        # verified Ray-side and asserted as constants here
        "events_bloom_purchasers": r"""
SELECT
  (SELECT count(*) FROM events e
   WHERE EXISTS (SELECT 1 FROM events p
                 WHERE p.event_type = 'purchase'
                   AND p.user_id = e.user_id))::BIGINT AS n_exact,
  TRUE AS no_false_negatives,
  TRUE AS fp_below_2pct
""",
        # --- TPC-H-shaped relational analytics: money compared in exact
        # int64 micro-units (floor(expr * 1000000) per row — the SAME
        # IEEE-double expression the Ray side evaluates, so distributed
        # integer sums are bit-identical under any accumulation order).
        # DuckDB sum(BIGINT) yields HUGEINT → cast back to BIGINT.
        "sales_pricing": r"""
SELECT l_returnflag, l_linestatus,
  CAST(sum(CAST(floor(l_quantity * 1000000) AS BIGINT)) AS BIGINT) AS sum_qty_micro,
  CAST(sum(CAST(floor(l_extendedprice * 1000000) AS BIGINT)) AS BIGINT) AS sum_base_micro,
  CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)) AS BIGINT) AS sum_disc_micro,
  CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 1000000) AS BIGINT)) AS BIGINT) AS sum_charge_micro,
  CAST(sum(CAST(floor(l_discount * 1000000) AS BIGINT)) AS BIGINT) AS sum_discount_micro,
  count(*)::BIGINT AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '2000-09-02'
GROUP BY l_returnflag, l_linestatus
""",
        "sales_top_orders": r"""
WITH r AS (
  SELECT l_orderkey,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)) AS BIGINT)
      AS revenue_micro
  FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-03-15'
  GROUP BY l_orderkey
)
SELECT o_orderkey, revenue_micro, epoch(o_orderdate)::BIGINT AS o_orderdate_s,
       o_orderpriority
FROM r
JOIN orders ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
WHERE c_mktsegment = 'BUILDING' AND o_orderdate < TIMESTAMP '1998-03-15'
ORDER BY revenue_micro DESC, o_orderkey
LIMIT 10
""",
        "orders_late_priority": r"""
SELECT o_orderpriority, count(*)::BIGINT AS n_late_orders
FROM orders
JOIN (SELECT l_orderkey, max(l_shipdate) AS max_ship
      FROM lineitem GROUP BY l_orderkey) x
  ON o_orderkey = l_orderkey
WHERE max_ship > o_orderdate + INTERVAL 90 DAY
GROUP BY o_orderpriority
""",
        "sales_region_revenue": r"""
SELECT n_name,
  CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)) AS BIGINT)
    AS revenue_micro
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
JOIN nation   ON n_nationkey = c_nationkey
JOIN region   ON r_regionkey = n_regionkey
WHERE r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
""",
        "customer_order_dist": r"""
SELECT n_orders, count(*)::BIGINT AS n_customers
FROM (
  SELECT c_custkey, count(o_orderkey)::BIGINT AS n_orders
  FROM customer LEFT JOIN orders ON o_custkey = c_custkey
  GROUP BY c_custkey
)
GROUP BY n_orders
""",
        "supplier_topk": r"""
WITH r AS (
  SELECT l_suppkey,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)) AS BIGINT)
      AS revenue_micro
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey
)
SELECT l_suppkey AS s_suppkey, s_name, revenue_micro
FROM r JOIN supplier ON s_suppkey = l_suppkey
ORDER BY revenue_micro DESC, s_suppkey
LIMIT 10
""",
        "part_supplier_cnt": r"""
SELECT p_brand, p_type, p_size,
       count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt
FROM lineitem
JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#5'
  AND p_type NOT LIKE 'ECONOMY%'
  AND p_size IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY p_brand, p_type, p_size
""",
        "orders_big": r"""
WITH q AS (
  SELECT l_orderkey, CAST(sum(l_quantity) AS BIGINT) AS sum_qty
  FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 300
)
SELECT c_name, c_custkey, o_orderkey,
       epoch(o_orderdate)::BIGINT AS o_orderdate_s,
       CAST(floor(o_totalprice * 1000000) AS BIGINT) AS totalprice_micro,
       sum_qty
FROM q
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
ORDER BY totalprice_micro DESC, o_orderkey
LIMIT 100
""",
        "customer_idle": r"""
WITH s AS (
  SELECT CAST(sum(CAST(floor(c_acctbal * 1000000) AS BIGINT)) AS BIGINT)
           AS total_micro,
         count(*)::BIGINT AS n_pos
  FROM customer WHERE c_acctbal > 0
)
SELECT c_nationkey, count(*)::BIGINT AS numcust,
  CAST(sum(CAST(floor(c_acctbal * 1000000) AS BIGINT)) AS BIGINT)
    AS totacctbal_micro
FROM customer, s
WHERE CAST(floor(c_acctbal * 1000000) AS BIGINT) * n_pos > total_micro
  AND c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderdate >= TIMESTAMP '1997-06-01')
GROUP BY c_nationkey
""",
        "events_pivot": r"""
SELECT user_id,
  count(*) FILTER (event_type = 'click')::BIGINT    AS n_click,
  count(*) FILTER (event_type = 'error')::BIGINT    AS n_error,
  count(*) FILTER (event_type = 'purchase')::BIGINT AS n_purchase,
  count(*) FILTER (event_type = 'signup')::BIGINT   AS n_signup,
  count(*) FILTER (event_type = 'view')::BIGINT     AS n_view,
  count(*)::BIGINT AS n_total
FROM events GROUP BY user_id
""",
        "events_transitions": r"""
WITH w AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS next_type
  FROM events
)
SELECT event_type, next_type, count(*)::BIGINT AS n
FROM w WHERE next_type IS NOT NULL
GROUP BY event_type, next_type
""",
        "sales_rollup": r"""
SELECT COALESCE(r_name, 'ALL') AS r_name,
       COALESCE(n_name, 'ALL') AS n_name,
       CAST(sum(rev_micro) AS BIGINT) AS revenue_micro
FROM (
  SELECT s_nationkey,
    CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)
      AS rev_micro
  FROM lineitem JOIN supplier ON s_suppkey = l_suppkey
) li
JOIN nation ON n_nationkey = s_nationkey
JOIN region ON r_regionkey = n_regionkey
GROUP BY ROLLUP (r_name, n_name)
""",
        # BM25 with rational idf: every arithmetic step below is
        # spelled with the SAME operand order and associativity as the
        # engine (IEEE doubles are deterministic under fixed
        # expression shape; only ln/exp would be libm-dependent).
        "doc_bm25": r"""
WITH toks AS (
  SELECT doc_id, lower(t.term) AS term FROM documents,
    unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS t(term)
),
per_doc AS (
  SELECT doc_id, count(*)::BIGINT AS dl,
    count(*) FILTER (term = 'hash')::BIGINT   AS tf_hash,
    count(*) FILTER (term = 'join')::BIGINT   AS tf_join,
    count(*) FILTER (term = 'vector')::BIGINT AS tf_vector
  FROM toks GROUP BY doc_id
),
stats AS (
  SELECT count(*)::BIGINT AS n, sum(dl)::BIGINT AS total_dl,
    count(*) FILTER (tf_hash > 0)::BIGINT   AS df_hash,
    count(*) FILTER (tf_join > 0)::BIGINT   AS df_join,
    count(*) FILTER (tf_vector > 0)::BIGINT AS df_vector
  FROM per_doc
),
scored AS (
  SELECT doc_id, dl, tf_hash, tf_join, tf_vector,
    (((n::DOUBLE - df_hash::DOUBLE) + 0.5) / (df_hash::DOUBLE + 0.5))
      * ((tf_hash::DOUBLE * (1.2 + 1))
         / (tf_hash::DOUBLE
            + (1.2 * ((1 - 0.75)
                      + (0.75 * (dl::DOUBLE
                                 / (total_dl::DOUBLE / n::DOUBLE)))))))
    + (((n::DOUBLE - df_join::DOUBLE) + 0.5) / (df_join::DOUBLE + 0.5))
      * ((tf_join::DOUBLE * (1.2 + 1))
         / (tf_join::DOUBLE
            + (1.2 * ((1 - 0.75)
                      + (0.75 * (dl::DOUBLE
                                 / (total_dl::DOUBLE / n::DOUBLE)))))))
    + (((n::DOUBLE - df_vector::DOUBLE) + 0.5) / (df_vector::DOUBLE + 0.5))
      * ((tf_vector::DOUBLE * (1.2 + 1))
         / (tf_vector::DOUBLE
            + (1.2 * ((1 - 0.75)
                      + (0.75 * (dl::DOUBLE
                                 / (total_dl::DOUBLE / n::DOUBLE)))))))
      AS score
  FROM per_doc, stats
  WHERE tf_hash > 0 OR tf_join > 0 OR tf_vector > 0
)
SELECT doc_id, dl, tf_hash, tf_join, tf_vector, score
FROM scored ORDER BY score DESC, doc_id LIMIT 25
""",
        "doc_winsorize": r"""
WITH q AS (
  SELECT quantile_disc(n_chars, 0.05)::BIGINT AS lo,
         quantile_disc(n_chars, 0.95)::BIGINT AS hi
  FROM documents
)
SELECT doc_id, n_chars,
  CASE WHEN n_chars < lo THEN lo
       WHEN n_chars > hi THEN hi
       ELSE n_chars::BIGINT END AS n_chars_w
FROM documents, q
""",
        "customer_fuzzy": r"""
WITH names AS (SELECT DISTINCT c_name AS name FROM customer)
SELECT a.name AS name_a, b.name AS name_b
FROM names a JOIN names b ON a.name < b.name
WHERE levenshtein(a.name, b.name) <= 1
""",
        "events_json_stats": r"""
WITH x AS (
  SELECT event_type,
         CAST(json_extract_string(props, '$.k') AS BIGINT) AS v
  FROM events
)
SELECT event_type,
  count(v)::BIGINT AS n,
  CAST(sum(v) AS BIGINT) AS sum_v,
  min(v)::BIGINT AS min_v,
  max(v)::BIGINT AS max_v
FROM x GROUP BY event_type
""",
        # exact-integer moments → the only doubles are the final
        # divisions and ONE sqrt (IEEE correctly-rounded) — expression
        # shape mirrors diagnostics.group_zscores exactly
        "doc_zscore": r"""
WITH m AS (
  SELECT lang,
         CAST(sum(CAST(n_chars AS BIGINT)) AS BIGINT) AS s1,
         CAST(sum(CAST(n_chars AS BIGINT) * CAST(n_chars AS BIGINT))
              AS BIGINT) AS s2,
         count(*)::BIGINT AS n
  FROM documents GROUP BY lang
)
SELECT doc_id, lang, n_chars,
  ((n_chars::DOUBLE - (s1::DOUBLE / n::DOUBLE))
   / sqrt((s2::DOUBLE / n::DOUBLE)
          - ((s1::DOUBLE / n::DOUBLE) * (s1::DOUBLE / n::DOUBLE)))) AS z
FROM documents JOIN m USING (lang)
""",
        "customer_diff": r"""
WITH old AS (
  SELECT c_custkey, c_acctbal, c_mktsegment FROM customer
  WHERE c_custkey % 7 <> 0
),
new AS (
  SELECT c_custkey,
         CASE WHEN c_custkey % 5 = 0 THEN c_acctbal + 1
              ELSE c_acctbal END AS c_acctbal,
         c_mktsegment
  FROM customer WHERE c_custkey % 11 <> 0
)
SELECT COALESCE(o.c_custkey, n.c_custkey) AS c_custkey,
  CASE WHEN o.c_custkey IS NULL THEN 'added'
       WHEN n.c_custkey IS NULL THEN 'removed'
       ELSE 'changed' END AS change
FROM old o FULL JOIN new n ON o.c_custkey = n.c_custkey
WHERE o.c_custkey IS NULL OR n.c_custkey IS NULL
   OR o.c_acctbal <> n.c_acctbal OR o.c_mktsegment <> n.c_mktsegment
""",
        "nations_volume": r"""
SELECT supp_nation, cust_nation, l_year,
       CAST(sum(rev) AS BIGINT) AS revenue_micro
FROM (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
         EXTRACT(year FROM l_shipdate)::BIGINT AS l_year,
         CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)
           AS rev
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN orders   ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation n1 ON n1.n_nationkey = s_nationkey
  JOIN nation n2 ON n2.n_nationkey = c_nationkey
  WHERE l_shipdate >= TIMESTAMP '1995-01-01'
    AND l_shipdate <  TIMESTAMP '1997-01-01'
    AND n1.n_name IN ('NATION_1', 'NATION_2')
    AND n2.n_name IN ('NATION_1', 'NATION_2')
    AND n1.n_name <> n2.n_name
)
GROUP BY supp_nation, cust_nation, l_year
""",
        "customer_returns": r"""
WITH per_cust AS (
  SELECT o_custkey,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) AS revenue_micro
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
  WHERE l_returnflag = 'R'
    AND o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate <  TIMESTAMP '1996-07-01'
  GROUP BY o_custkey
),
top AS (
  SELECT * FROM per_cust ORDER BY revenue_micro DESC, o_custkey LIMIT 20
)
SELECT c_custkey, c_name,
       CAST(floor(c_acctbal * 1000000) AS BIGINT) AS c_acctbal_micro,
       revenue_micro
FROM top JOIN customer ON c_custkey = o_custkey
""",
        "sales_promo": r"""
WITH li AS (
  SELECT (EXTRACT(year FROM l_shipdate) * 100
          + EXTRACT(month FROM l_shipdate))::BIGINT AS month,
         l_partkey,
         CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)
           AS rev
  FROM lineitem
)
SELECT month,
  CAST(sum(CASE WHEN p_type = 'PROMO' THEN rev ELSE 0 END) AS BIGINT)
    AS promo_micro,
  CAST(sum(rev) AS BIGINT) AS total_micro
FROM li JOIN part ON p_partkey = l_partkey
GROUP BY month
""",
        "part_small_qty": r"""
WITH stats AS (
  SELECT l_partkey AS pk, CAST(sum(l_quantity) AS BIGINT) AS sum_qty,
         count(*)::BIGINT AS n_li
  FROM lineitem GROUP BY l_partkey
)
SELECT p_brand,
  CAST(sum(CAST(floor(l_extendedprice * 1000000) AS BIGINT)) AS BIGINT)
    AS revenue_micro,
  count(*)::BIGINT AS n_small
FROM lineitem
JOIN stats ON pk = l_partkey
JOIN part  ON p_partkey = l_partkey
WHERE CAST(l_quantity AS BIGINT) * 5 * n_li < 1 * sum_qty
GROUP BY p_brand
""",
        "sales_market_share": r"""
SELECT o_year,
  CAST(sum(nat_rev) AS BIGINT) AS nation_micro,
  CAST(sum(rev) AS BIGINT) AS total_micro,
  (CAST(sum(nat_rev) AS BIGINT)::DOUBLE
   / CAST(sum(rev) AS BIGINT)::DOUBLE) AS mkt_share
FROM (
  SELECT EXTRACT(year FROM o_orderdate)::BIGINT AS o_year,
    CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)
      AS rev,
    CASE WHEN n1.n_name = 'NATION_2'
      THEN CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                AS BIGINT)
      ELSE 0 END AS nat_rev
  FROM lineitem
  JOIN part     ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation n1 ON n1.n_nationkey = s_nationkey
  JOIN orders   ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation n2 ON n2.n_nationkey = c_nationkey
  JOIN region   ON r_regionkey = n2.n_regionkey
  WHERE p_type = 'PROMO' AND r_name = 'ASIA'
    AND o_orderdate >= TIMESTAMP '1995-01-01'
    AND o_orderdate <  TIMESTAMP '1997-01-01'
)
GROUP BY o_year
""",
        "sales_disjunctive": r"""
SELECT
  CAST(COALESCE(sum(
    CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)
  ), 0) AS BIGINT) AS revenue_micro,
  count(*)::BIGINT AS n_items
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#1' AND p_size <= 5
       AND l_quantity >= 1 AND l_quantity <= 11)
   OR (p_brand = 'Brand#2' AND p_size <= 10
       AND l_quantity >= 10 AND l_quantity <= 20)
   OR (p_brand = 'Brand#3' AND p_size <= 15
       AND l_quantity >= 20 AND l_quantity <= 30)
""",
        "events_attribution": r"""
WITH w AS (
  SELECT event_type,
    last_value(CASE WHEN event_type IN ('click', 'signup', 'view')
                    THEN event_type END IGNORE NULLS)
      OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS touch
  FROM events
)
SELECT COALESCE(touch, 'none') AS touch, count(*)::BIGINT AS n_purchases
FROM w WHERE event_type = 'purchase'
GROUP BY COALESCE(touch, 'none')
""",
        "events_new_users": r"""
WITH f AS (
  SELECT user_id, min(ts) AS fts FROM events GROUP BY user_id
),
d AS (
  SELECT (EXTRACT(year FROM fts) * 10000
          + EXTRACT(month FROM fts) * 100
          + EXTRACT(day FROM fts))::BIGINT AS day,
         count(*)::BIGINT AS new_users
  FROM f GROUP BY day
)
SELECT day, new_users,
       CAST(sum(new_users) OVER (ORDER BY day) AS BIGINT) AS cum_users
FROM d
""",
        "doc_split": r"""
SELECT doc_id, lang,
  CASE WHEN b < 80 THEN 'train'
       WHEN b < 90 THEN 'val'
       ELSE 'test' END AS split
FROM (
  SELECT doc_id, lang,
    CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT)
      % 100 AS b
  FROM documents
)
""",
        "doc_outliers_mad": r"""
WITH m AS (
  SELECT lang, quantile_disc(n_chars, 0.5)::BIGINT AS med
  FROM documents GROUP BY lang
),
d AS (
  SELECT doc_id, lang, n_chars,
         abs(n_chars - med)::BIGINT AS dev
  FROM documents JOIN m USING (lang)
),
s AS (
  SELECT lang, quantile_disc(dev, 0.5)::BIGINT AS mad
  FROM d GROUP BY lang
)
SELECT doc_id, lang, n_chars::BIGINT AS n_chars, dev,
       (dev > 3 * mad) AS is_outlier
FROM d JOIN s USING (lang)
""",
        # exact int64 moments; corr doubles share the engine's exact
        # expression shape (two sqrts, one division)
        "doc_len_corr": r"""
WITH x AS (
  SELECT lang, CAST(n_chars AS BIGINT) AS x,
         CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT)
           AS y
  FROM documents
),
m AS (
  SELECT lang, count(*)::BIGINT AS n,
         CAST(sum(x) AS BIGINT) AS sx, CAST(sum(y) AS BIGINT) AS sy,
         CAST(sum(x * y) AS BIGINT) AS sxy,
         CAST(sum(x * x) AS BIGINT) AS sxx,
         CAST(sum(y * y) AS BIGINT) AS syy
  FROM x GROUP BY lang
)
SELECT lang, n,
  CASE WHEN (n * sxx - sx * sx) > 0 AND (n * syy - sy * sy) > 0
    THEN ((n * sxy - sx * sy)::DOUBLE
          / (sqrt((n * sxx - sx * sx)::DOUBLE)
             * sqrt((n * syy - sy * sy)::DOUBLE)))
    ELSE NULL END AS corr
FROM m
""",
        "customer_mode_segment": r"""
WITH c AS (
  SELECT c_nationkey, c_mktsegment, count(*)::BIGINT AS n
  FROM customer GROUP BY c_nationkey, c_mktsegment
),
r AS (
  SELECT *, row_number() OVER (PARTITION BY c_nationkey
                               ORDER BY n DESC, c_mktsegment) AS rk
  FROM c
)
SELECT c_nationkey, c_mktsegment, n FROM r WHERE rk = 1
""",
        "events_type_overlap": r"""
WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
c AS (SELECT event_type, count(*)::BIGINT AS n FROM d GROUP BY 1),
b AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         count(*)::BIGINT AS n_both
  FROM d a JOIN d b USING (user_id)
  WHERE a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT type_a, type_b, ca.n AS n_a, cb.n AS n_b, n_both,
       (n_both::DOUBLE / (ca.n + cb.n - n_both)::DOUBLE) AS jaccard
FROM b
JOIN c ca ON ca.event_type = type_a
JOIN c cb ON cb.event_type = type_b
""",
        "events_contingency": r"""
WITH o AS (
  SELECT event_type, EXTRACT(hour FROM ts)::BIGINT AS hour,
         count(*)::BIGINT AS observed
  FROM events GROUP BY 1, 2
),
r AS (SELECT event_type, CAST(sum(observed) AS BIGINT) AS rn
      FROM o GROUP BY 1),
c AS (SELECT hour, CAST(sum(observed) AS BIGINT) AS cn
      FROM o GROUP BY 1),
t AS (SELECT CAST(sum(observed) AS BIGINT) AS n FROM o)
SELECT event_type, hour, observed,
       CAST((rn * cn * 1000000) // n AS BIGINT) AS expected_micro
FROM o JOIN r USING (event_type) JOIN c USING (hour), t
""",
        "sales_daily_ma": r"""
WITH d AS (
  SELECT (EXTRACT(year FROM l_shipdate) * 10000
          + EXTRACT(month FROM l_shipdate) * 100
          + EXTRACT(day FROM l_shipdate))::BIGINT AS day,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) AS rev_micro
  FROM lineitem GROUP BY day
)
SELECT day, rev_micro,
  CAST(sum(rev_micro) OVER w AS BIGINT) AS ma_sum_micro,
  CAST(count(*) OVER w AS BIGINT) AS ma_n,
  (CAST(sum(rev_micro) OVER w AS BIGINT)::DOUBLE
   / CAST(count(*) OVER w AS BIGINT)::DOUBLE) AS ma
FROM d
WINDOW w AS (ORDER BY day ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
""",
        "sales_nation_share": r"""
WITH leaf AS (
  SELECT r_name, n_name,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) AS revenue_micro
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation   ON n_nationkey = s_nationkey
  JOIN region   ON r_regionkey = n_regionkey
  GROUP BY r_name, n_name
)
SELECT r_name, n_name, revenue_micro,
  CAST(sum(revenue_micro) OVER (PARTITION BY r_name) AS BIGINT)
    AS region_micro,
  (revenue_micro::DOUBLE
   / CAST(sum(revenue_micro) OVER (PARTITION BY r_name)
          AS BIGINT)::DOUBLE) AS share
FROM leaf
""",
        "supplier_pareto": r"""
WITH s AS (
  SELECT l_suppkey AS s_suppkey,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) AS revenue_micro
  FROM lineitem GROUP BY l_suppkey
),
w AS (
  SELECT *,
    CAST(sum(revenue_micro)
         OVER (ORDER BY revenue_micro DESC, s_suppkey) AS BIGINT)
      AS cum_micro,
    CAST(sum(revenue_micro) OVER () AS BIGINT) AS total
  FROM s
)
SELECT s_suppkey, revenue_micro, cum_micro,
       ((cum_micro - revenue_micro) * 100 < total * 80) AS in_pareto
FROM w
""",
        "doc_char_bigrams": r"""
WITH pos AS (
  SELECT text, unnest(range(1, length(text))) AS i FROM documents
),
c AS (
  SELECT substr(text, i, 2) AS pair, count(*)::BIGINT AS n
  FROM pos GROUP BY pair
)
SELECT pair, n FROM c ORDER BY n DESC, pair LIMIT 50
""",
        "events_lifespan_quantiles": r"""
WITH l AS (
  SELECT (epoch_us(max(ts)) // 1000000)
         - (epoch_us(min(ts)) // 1000000) AS lifespan_s
  FROM events GROUP BY user_id
)
SELECT unnest([0.1, 0.25, 0.5, 0.75, 0.9])::DOUBLE AS q,
       unnest(quantile_disc(lifespan_s,
                            [0.1, 0.25, 0.5, 0.75, 0.9]))::BIGINT
         AS lifespan_q
FROM l
""",
        "orders_brand_pairs": r"""
WITH ob AS (
  SELECT DISTINCT l_orderkey, p_brand
  FROM lineitem JOIN part ON p_partkey = l_partkey
)
SELECT a.p_brand AS brand_a, b.p_brand AS brand_b,
       count(*)::BIGINT AS n
FROM ob a JOIN ob b
  ON a.l_orderkey = b.l_orderkey AND a.p_brand < b.p_brand
GROUP BY 1, 2
ORDER BY n DESC, brand_a, brand_b
LIMIT 20
""",
        "doc_bool_search": r"""
WITH toks AS (
  SELECT doc_id, lang,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
  FROM documents
)
SELECT doc_id, lang FROM toks
WHERE list_contains(ts, 'hash') AND list_contains(ts, 'join')
  AND NOT list_contains(ts, 'vector')
""",
        "sales_qty_percentile": r"""
SELECT l_orderkey, l_linenumber, l_returnflag,
  CAST(l_quantity AS BIGINT) AS qty,
  ((rank() OVER (PARTITION BY l_returnflag
                 ORDER BY CAST(l_quantity AS BIGINT)) - 1)::DOUBLE
   / (count(*) OVER (PARTITION BY l_returnflag) - 1)::DOUBLE) AS pr
FROM lineitem
""",
        "orders_seek_page": r"""
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders
WHERE o_totalprice < 150000.0
   OR (o_totalprice = 150000.0 AND o_orderkey > 1000)
ORDER BY o_totalprice DESC, o_orderkey
LIMIT 20
""",
        # full-scan twin of the pruned z-order box read; pruned_ok is
        # the Ray side's file-skipping gate (constant TRUE here)
        "orders_zorder_box": r"""
SELECT o_orderkey, o_custkey,
       CAST(floor(o_totalprice * 100) AS BIGINT) AS cents,
       TRUE AS pruned_ok
FROM orders
WHERE o_custkey BETWEEN 100 AND 400
  AND floor(o_totalprice * 100) BETWEEN 1000000 AND 2000000
""",
        "doc_ngram_novelty": r"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id,
         ts[i] || ' ' || ts[i + 1] || ' ' || ts[i + 2] AS gram
  FROM (SELECT doc_id, ts, unnest(range(1, len(ts) - 1)) AS i
        FROM toks)
),
f AS (SELECT gram, min(doc_id) AS first_doc FROM grams GROUP BY gram)
SELECT doc_id,
  count(*)::BIGINT AS n_grams,
  count(*) FILTER (first_doc = doc_id)::BIGINT AS n_novel,
  (count(*) FILTER (first_doc = doc_id)::DOUBLE
   / count(*)::DOUBLE) AS novelty
FROM grams JOIN f USING (gram)
GROUP BY doc_id
""",
        "customer_record_linkage": r"""
WITH names AS (
  SELECT DISTINCT c_name AS name, c_nationkey FROM customer
)
SELECT a.name AS name_a, b.name AS name_b, a.c_nationkey
FROM names a
JOIN names b ON a.name < b.name AND a.c_nationkey = b.c_nationkey
WHERE levenshtein(a.name, b.name) <= 1
""",
        "sales_yoy": r"""
WITH leaf AS (
  SELECT n_name, EXTRACT(year FROM l_shipdate)::BIGINT AS yr,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) AS rev
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation   ON n_nationkey = s_nationkey
  GROUP BY n_name, yr
)
SELECT a.n_name, a.yr, a.rev AS revenue_micro, b.rev AS prev_micro,
       ((a.rev - b.rev)::DOUBLE / b.rev::DOUBLE) AS yoy
FROM leaf a JOIN leaf b ON a.n_name = b.n_name AND a.yr = b.yr + 1
""",
        "sales_daily_ma_range": r"""
WITH d AS (
  SELECT (epoch_us(l_shipdate) // 86400000000) AS epoch_day,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) AS rev_micro
  FROM lineitem GROUP BY epoch_day
)
SELECT epoch_day, rev_micro,
  CAST(sum(rev_micro) OVER w AS BIGINT) AS ma_sum_micro,
  CAST(count(*) OVER w AS BIGINT) AS ma_n,
  (CAST(sum(rev_micro) OVER w AS BIGINT)::DOUBLE
   / CAST(count(*) OVER w AS BIGINT)::DOUBLE) AS ma
FROM d
WINDOW w AS (ORDER BY epoch_day
             RANGE BETWEEN 2 PRECEDING AND CURRENT ROW)
""",
        "doc_index_search": r"""
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
  FROM documents
)
SELECT doc_id FROM toks
WHERE list_contains(ts, 'hash') AND list_contains(ts, 'join')
  AND NOT list_contains(ts, 'vector')
""",
        "events_sessions_incremental": r"""
WITH s AS (SELECT user_id, epoch_us(ts)//1000000 AS sec FROM events),
x AS (
  SELECT user_id, sec,
         CASE WHEN lag(sec) OVER w IS NULL
                OR sec - lag(sec) OVER w > 1800 THEN 1 ELSE 0 END AS brk
  FROM s WINDOW w AS (PARTITION BY user_id ORDER BY sec)
),
y AS (
  SELECT user_id, sec,
         sum(brk) OVER (PARTITION BY user_id ORDER BY sec
                        ROWS UNBOUNDED PRECEDING)::BIGINT AS session_idx
  FROM x
)
SELECT user_id, session_idx, count(*)::BIGINT AS n_events,
       min(sec)::BIGINT AS start_s, max(sec)::BIGINT AS end_s
FROM y GROUP BY 1, 2
""",
        "sales_forecast": r"""
SELECT
  CAST(COALESCE(sum(
    CAST(floor(l_extendedprice * l_discount * 1000000) AS BIGINT)
  ), 0) AS BIGINT) AS revenue_micro,
  count(*)::BIGINT AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1997-01-01'
  AND l_discount >= 0.05 AND l_discount <= 0.07
  AND l_quantity < 24
""",
        "supplier_quartiles": r"""
WITH s AS (
  SELECT l_suppkey AS s_suppkey,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) AS revenue_micro
  FROM lineitem GROUP BY l_suppkey
)
SELECT s_suppkey, revenue_micro,
  ntile(4) OVER (ORDER BY revenue_micro DESC, s_suppkey)::BIGINT
    AS tile
FROM s
""",
        "customer_first_last": r"""
WITH o AS (
  SELECT o_custkey,
         (epoch_us(o_orderdate) // 86400000000) AS d,
         CAST(floor(o_totalprice * 1000000) AS BIGINT) AS p,
         o_orderkey
  FROM orders
),
w AS (
  SELECT o_custkey AS c_custkey,
    first_value(d) OVER win AS first_date_day,
    first_value(p) OVER win AS first_price_micro,
    last_value(d) OVER win AS last_date_day,
    last_value(p) OVER win AS last_price_micro,
    row_number() OVER win AS rn,
    count(*) OVER (PARTITION BY o_custkey) AS n
  FROM o
  WINDOW win AS (PARTITION BY o_custkey ORDER BY d, o_orderkey
                 ROWS BETWEEN UNBOUNDED PRECEDING
                 AND UNBOUNDED FOLLOWING)
)
SELECT c_custkey, first_date_day::BIGINT AS first_date_day,
       first_price_micro, last_date_day::BIGINT AS last_date_day,
       last_price_micro
FROM w WHERE rn = 1
""",
        "orders_dow": r"""
SELECT ((epoch_us(o_orderdate) // 86400000000) + 3) % 7 AS dow,
  count(*)::BIGINT AS n_orders,
  CAST(sum(CAST(floor(o_totalprice * 1000000) AS BIGINT)) AS BIGINT)
    AS revenue_micro
FROM orders GROUP BY dow
""",
        "events_conversion_lag": r"""
WITH s AS (
  SELECT user_id, min(epoch_us(ts) // 1000000) AS s0
  FROM events WHERE event_type = 'signup' GROUP BY user_id
),
p AS (
  SELECT s.user_id, min(epoch_us(e.ts) // 1000000) AS p0
  FROM s JOIN events e ON e.user_id = s.user_id
  WHERE e.event_type = 'purchase'
    AND epoch_us(e.ts) // 1000000 >= s0
  GROUP BY s.user_id
),
g AS (SELECT p0 - s0 AS gap FROM p JOIN s USING (user_id))
SELECT (SELECT count(*) FROM s)::BIGINT AS n_from_users,
       count(*)::BIGINT AS n_converted,
       quantile_disc(gap, 0.5)::BIGINT AS lag_p50,
       quantile_disc(gap, 0.9)::BIGINT AS lag_p90
FROM g
""",
        "sales_cube": r"""
SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
       COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
       CAST(sum(rev) AS BIGINT) AS revenue_micro
FROM (
  SELECT l_returnflag, o_orderpriority,
    CAST(floor(l_extendedprice * (1 - l_discount) * 1000000) AS BIGINT)
      AS rev
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
)
GROUP BY CUBE (l_returnflag, o_orderpriority)
""",
        "events_top_paths": r"""
WITH s AS (
  SELECT user_id, event_id, event_type,
         epoch_us(ts) // 1000000 AS sec
  FROM events
),
x AS (
  SELECT *, CASE WHEN lag(sec) OVER w IS NULL
                   OR sec - lag(sec) OVER w > 1800
                 THEN 1 ELSE 0 END AS brk
  FROM s WINDOW w AS (PARTITION BY user_id ORDER BY sec, event_id)
),
y AS (
  SELECT *, sum(brk) OVER (PARTITION BY user_id
                           ORDER BY sec, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM x
),
z AS (
  SELECT *, row_number() OVER (PARTITION BY user_id, sid
                               ORDER BY sec, event_id) AS rn
  FROM y
),
p AS (
  SELECT user_id, sid,
         string_agg(event_type, '>' ORDER BY sec, event_id) AS path
  FROM z WHERE rn <= 3 GROUP BY user_id, sid
)
SELECT path, count(*)::BIGINT AS n_sessions
FROM p GROUP BY path
ORDER BY n_sessions DESC, path
LIMIT 15
""",
        "events_linear_attribution": r"""
WITH s AS (
  SELECT user_id, event_id, event_type,
         epoch_us(ts) // 1000000 AS sec
  FROM events
),
w AS (
  SELECT event_type,
    count(*) FILTER (event_type IN ('click', 'signup', 'view'))
      OVER pre AS n_prior,
    count(*) FILTER (event_type = 'click')  OVER pre AS p_click,
    count(*) FILTER (event_type = 'signup') OVER pre AS p_signup,
    count(*) FILTER (event_type = 'view')   OVER pre AS p_view
  FROM s
  WINDOW pre AS (PARTITION BY user_id ORDER BY sec, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
),
conv AS (
  SELECT COALESCE(n_prior, 0) AS n_prior,
         COALESCE(p_click, 0) AS p_click,
         COALESCE(p_signup, 0) AS p_signup,
         COALESCE(p_view, 0) AS p_view
  FROM w WHERE event_type = 'purchase'
),
credits AS (
  SELECT 'click' AS touch,
    CAST(sum((1000000 // n_prior) * p_click) AS BIGINT) AS credit_micro
  FROM conv WHERE n_prior > 0
  UNION ALL
  SELECT 'signup',
    CAST(sum((1000000 // n_prior) * p_signup) AS BIGINT)
  FROM conv WHERE n_prior > 0
  UNION ALL
  SELECT 'view',
    CAST(sum((1000000 // n_prior) * p_view) AS BIGINT)
  FROM conv WHERE n_prior > 0
  UNION ALL
  SELECT 'none', CAST(count(*) * 1000000 AS BIGINT)
  FROM conv WHERE n_prior = 0
)
SELECT touch, credit_micro FROM credits
WHERE credit_micro IS NOT NULL AND credit_micro > 0
""",
        "supplier_gini": r"""
WITH s AS (
  SELECT l_suppkey,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) // 1000000 AS units
  FROM lineitem GROUP BY l_suppkey
),
r AS (
  SELECT units,
         row_number() OVER (ORDER BY units, l_suppkey) AS rk
  FROM s
)
SELECT count(*)::BIGINT AS n_suppliers,
  CAST(sum(units) AS BIGINT) AS sum_units,
  ((2 * CAST(sum(rk * units) AS BIGINT)
    - (count(*) + 1) * CAST(sum(units) AS BIGINT))::DOUBLE
   / (count(*) * CAST(sum(units) AS BIGINT))::DOUBLE) AS gini
FROM r
""",
        "sales_hhi": r"""
WITH leaf AS (
  SELECT r_name, n_name,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) // 1000000 AS units
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation   ON n_nationkey = s_nationkey
  JOIN region   ON r_regionkey = n_regionkey
  GROUP BY r_name, n_name
)
SELECT r_name, count(*)::BIGINT AS n_nations,
  CAST(sum(units * units) AS BIGINT) AS hhi_num,
  (CAST(sum(units * units) AS BIGINT)::DOUBLE
   / (CAST(sum(units) AS BIGINT)::DOUBLE
      * CAST(sum(units) AS BIGINT)::DOUBLE)) AS hhi
FROM leaf GROUP BY r_name
""",
        "events_debounce": r"""
WITH s AS (
  SELECT event_id, user_id, event_type,
         epoch_us(ts) // 1000000 AS sec
  FROM events
),
w AS (
  SELECT event_id, user_id, event_type,
         lag(sec) OVER (PARTITION BY user_id, event_type
                        ORDER BY sec, event_id) AS prev_sec,
         sec
  FROM s
)
SELECT event_id, user_id, event_type
FROM w WHERE prev_sec IS NULL OR sec - prev_sec > 3600
""",
        "sales_missing_days": r"""
WITH spine AS (
  SELECT unnest(range(
    (epoch_us(TIMESTAMP '1995-01-01') // 86400000000),
    (epoch_us(TIMESTAMP '2003-01-01') // 86400000000)
  )) AS epoch_day
),
seen AS (
  SELECT DISTINCT (epoch_us(l_shipdate) // 86400000000) AS epoch_day
  FROM lineitem
)
SELECT epoch_day FROM spine
WHERE epoch_day NOT IN (SELECT epoch_day FROM seen)
""",
        "events_latest_per_user": r"""
WITH w AS (
  SELECT user_id, event_id, event_type,
         row_number() OVER (
           PARTITION BY user_id
           ORDER BY (epoch_us(ts) // 1000000) * 1048576 + event_id
             DESC
         ) AS rn
  FROM events
)
SELECT user_id, event_id, event_type FROM w WHERE rn = 1
""",
        "parties_per_nation": r"""
WITH u AS (
  SELECT c_nationkey AS nationkey, c_name AS name FROM customer
  UNION
  SELECT s_nationkey, s_name FROM supplier
)
SELECT nationkey, count(*)::BIGINT AS n_parties
FROM u GROUP BY nationkey
""",
        "doc_winsorize_by_lang": r"""
WITH q AS (
  SELECT lang, quantile_disc(n_chars, 0.05)::BIGINT AS lo,
         quantile_disc(n_chars, 0.95)::BIGINT AS hi
  FROM documents GROUP BY lang
)
SELECT doc_id, lang, n_chars,
  CASE WHEN n_chars < lo THEN lo
       WHEN n_chars > hi THEN hi
       ELSE n_chars::BIGINT END AS n_chars_w
FROM documents JOIN q USING (lang)
""",
        "events_user_hhi": r"""
WITH c AS (
  SELECT user_id, EXTRACT(hour FROM ts)::BIGINT AS hour,
         count(*)::BIGINT AS n
  FROM events GROUP BY user_id, hour
)
SELECT user_id,
  CAST(sum(n) AS BIGINT) AS n_events,
  CAST(sum(n * n) AS BIGINT) AS hhi_num,
  (CAST(sum(n * n) AS BIGINT)::DOUBLE
   / (CAST(sum(n) AS BIGINT)::DOUBLE
      * CAST(sum(n) AS BIGINT)::DOUBLE)) AS hhi
FROM c GROUP BY user_id
""",
        "events_type_users_exact": r"""
SELECT event_type, count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY event_type
""",
        "supplier_dense_topk": r"""
WITH s AS (
  SELECT l_suppkey AS s_suppkey,
    CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000000)
                  AS BIGINT)) AS BIGINT) AS revenue_micro
  FROM lineitem GROUP BY l_suppkey
),
r AS (
  SELECT *, dense_rank() OVER (ORDER BY revenue_micro DESC)::BIGINT
           AS rnk
  FROM s
)
SELECT s_suppkey, revenue_micro, rnk FROM r WHERE rnk <= 3
""",
        "kg_tag_counts": cte + """
SELECT obj AS tag, CAST(sum(weight) AS BIGINT) AS total_weight,
       count(*)::BIGINT AS n_notes
FROM exp_triples WHERE pred = 'tagged'
GROUP BY obj
ORDER BY total_weight DESC, tag
LIMIT 10
""",
        "doc_source_mix": r"""
WITH t AS (SELECT CAST(sum(n_chars) AS BIGINT) AS total
           FROM documents)
SELECT source, count(*)::BIGINT AS n_docs,
  CAST(sum(n_chars) AS BIGINT) AS n_chars,
  (CAST(sum(n_chars) AS BIGINT)::DOUBLE / total::DOUBLE) AS char_share
FROM documents, t GROUP BY source, total
""",
    }
