"""Analyzer job — the reference's end-to-end CLI example recomposed.

Mirrors /root/reference/examples/analyzer.rs:26-96 as one Ray Data
job: parse-error filter → empty-content filter → !is_todo filter →
vault stats (note count, duplicate reports, word count) → graph →
most-connected hub + connected components.

Each stage is the engine's own operator; this module only composes
them — the same way the reference example composes iterator
combinators (README.md:49-53).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages import joins
from ..stages.canonicalize import degree_top_k
from .components import (
    connected_components,
    connected_components_local,
    n_components,
)
from .graph import build_graph, duplicates_by_content, duplicates_by_name


def analyzer_filter(batch: pa.Table) -> pa.Table:
    """analyzer.rs:38-49: drop parse errors, empty content, todos."""
    ok = pc.is_null(batch["parse_error"])
    nonempty = pc.greater(batch["n_bytes"], 0)
    not_todo = pc.invert(batch["is_todo"])
    return batch.filter(pc.and_(pc.and_(ok, nonempty), not_todo))


def analyze(docs, *, linker_concurrency=None) -> dict:
    """documents Dataset → analyzer report dict.

    Aggregates are tiny (driver-side scalars); the heavy lifting stays
    in the distributed stages.  Components topology is SIZE-SELECTED
    by the broadcast guard: when notes + link edges fit
    ``stages.joins.BROADCAST_MAX_ROWS`` (read at call time), the exact
    driver union-find runs (petgraph-parity regime, analyzer.rs:86-88);
    above it, the distributed pointer-jumping propagation takes over —
    both produce the identical min-id component labeling, so the
    report is byte-identical either way.  The counts feeding the guard
    are free: triples are already materialized and ``n_notes`` is
    already computed for the report.
    """
    from ray.data.aggregate import Sum

    g = build_graph(
        docs,
        user_filter=analyzer_filter,
        linker_concurrency=linker_concurrency,
        include_child_of=False,
    )
    # triples feed two consumers (hub top-k, components) — pin once so
    # the explode→link→canonicalize lineage doesn't execute twice
    g.triples = g.triples.materialize()
    n_notes = g.notes.count()
    word_row = g.notes.aggregate(Sum("n_words", alias_name="w"))
    total_words = int(word_row["w"] or 0) if word_row else 0
    dup_name = duplicates_by_name(g.notes).count()
    dup_content = duplicates_by_content(g.notes).count()

    # components over note↔note wikilink edges ('embeds' may carry
    # media-asset objects — our extension — which are not graph nodes)
    link_edges = g.triples.filter(expr="pred == 'links_to'")
    hubs = degree_top_k(g.triples, pred="links_to", by="obj", k=1).take_all()
    # notes + edge rows bound the union-find key space (keys are notes
    # ∪ edge endpoints); edge count over materialized triples is one
    # cheap vectorized filter pass, no re-execution
    n_edges = link_edges.count()
    if n_notes + n_edges <= joins.BROADCAST_MAX_ROWS:
        comp = connected_components_local(link_edges, g.notes)
        comp_count = len(set(comp.values()))
    else:
        labels = connected_components(link_edges, g.notes)
        comp_count = n_components(labels)
    return {
        "n_notes": n_notes,
        "total_words": total_words,
        "dup_name_groups": dup_name,
        "dup_content_groups": dup_content,
        "n_components": comp_count,
        "top_hub": hubs[0]["obj"] if hubs else None,
        "top_hub_degree": int(hubs[0]["degree"]) if hubs else 0,
    }
