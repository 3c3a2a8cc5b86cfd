"""Sequential pure-Python oracle mirroring the reference's graph build.

Re-implements the reference's *control flow* (not just its kernels):
a sequential two-phase build exactly like
/root/reference/src/vault/vault_petgraph/graph_builder.rs —
Phase A walks notes in order and builds the first-wins index
(index.rs:11-14), Phase B walks again resolving mentions and emitting
one edge per occurrence (graph_builder.rs:196-223, misses dropped).
Used by the P/R harness (SURVEY.md §5) to score the distributed
pipeline's triple set; on a correct engine P = R = 1.0.

Note order is the explicit ``order_key`` (sorted doc_id) — the
engine's deterministic stand-in for walkdir order (SURVEY.md §1.4).
"""

from __future__ import annotations

from collections import Counter

from .stages.extract import parse_doc
from .stages.linking import PRED_FOR_KIND, _LITERAL_KINDS


def oracle_graph(doc_rows: list[tuple[str, list[dict]]], *, directed: bool = True,
                 include_child_of: bool = True, include_tags: bool = True):
    """[(doc_id, spans)] → (nodes, edge multiset Counter of (s,p,o)).

    Returns ``(notes: list[dict], edges: Counter[(subj,pred,obj)])``;
    the canonical triple set is ``{k: v for k, v in edges.items()}``
    (weight = multiplicity).
    """
    ordered = sorted(doc_rows, key=lambda r: r[0])  # order_key = doc_id

    # Phase A — index build, first-wins on short stem and alias.
    full: set[str] = set()
    short: dict[str, str] = {}
    alias: dict[str, str] = {}
    parsed = []
    for doc_id, spans in ordered:
        note, mentions = parse_doc(doc_id, spans)
        parsed.append((note, mentions))
        full.add(doc_id)
        short.setdefault(note["note_name"], doc_id)
        for a in note["aliases"]:
            alias.setdefault(a, doc_id)

    def resolve(key: str) -> str | None:
        if "/" in key:
            return key if key in full else None
        return short.get(key) or alias.get(key)

    # Phase B — edge emission in (note order × occurrence order).
    edges: Counter = Counter()
    for note, mentions in parsed:
        subj = note["doc_id"]
        for m in mentions:
            pred = PRED_FOR_KIND[m["kind"]]
            if not include_tags and pred == "tagged":
                continue
            if m["kind"] in _LITERAL_KINDS:
                obj = m["target_key"]
            else:
                obj = resolve(m["target_key"])
                if obj is None:
                    continue  # graph_builder.rs:214 — miss dropped
            if not directed:
                subj2, obj = min(subj, obj), max(subj, obj)
            else:
                subj2 = subj
            edges[(subj2, pred, obj)] += 1
        if include_child_of and "/" in subj:
            parent = subj.rsplit("/", 1)[0]
            s, o = (subj, parent) if directed else (min(subj, parent), max(subj, parent))
            edges[(s, "child_of", o)] += 1
    notes = [n for n, _ in parsed]
    return notes, edges


def precision_recall(actual: dict | Counter, expected: dict | Counter) -> dict:
    """Set-level P/R over canonical (subj, pred, obj) keys plus exact
    weighted match rate — the north-rule scoring."""
    a, e = set(actual), set(expected)
    tp = len(a & e)
    precision = tp / len(a) if a else 1.0
    recall = tp / len(e) if e else 1.0
    exact = sum(
        1 for k in a & e if actual[k] == expected[k]
    ) / max(1, len(a | e))
    return {
        "precision": precision,
        "recall": recall,
        "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
        "weighted_exact": exact,
        "n_actual": len(a),
        "n_expected": len(e),
    }
