"""Analyzer composition job vs a pure-Python oracle on the same vault
(reference flow: examples/analyzer.rs:26-96)."""

from collections import Counter

import pyarrow as pa
import ray.data as rd

from obsidian_parser_ray.corpus import derive_vault_batch
from obsidian_parser_ray.oracle import oracle_graph
from obsidian_parser_ray.pipelines.analyzer import analyze
from obsidian_parser_ray.stages.extract import parse_doc


def _synth_rows(n):
    base = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "lang": pa.array(["en" if i % 2 else "de" for i in range(n)], pa.string()),
        }
    )
    t = derive_vault_batch(base, n)
    return list(zip(t["doc_id"].to_pylist(), t["spans"].to_pylist()))


def _oracle_report(doc_rows):
    # analyzer filter: drop todos (synthetic vault has no parse errors
    # or empty notes)
    kept = []
    for doc_id, spans in doc_rows:
        note, _ = parse_doc(doc_id, spans)
        if note["parse_error"] is None and note["n_bytes"] > 0 and not note["is_todo"]:
            kept.append((doc_id, spans))
    notes, edges = oracle_graph(kept, include_child_of=False)
    total_words = sum(n["n_words"] for n in notes)
    names = Counter(n["note_name"] for n in notes)
    hashes = Counter(n["content_hash"] for n in notes)
    deg = Counter()
    for (s, p, o), w in edges.items():
        if p == "links_to":
            deg[o] += w
    # undirected components over links_to+embeds
    parent = {n["doc_id"]: n["doc_id"] for n in notes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (s, p, o), _w in edges.items():
        if p == "links_to" and s in parent and o in parent:
            rs, ro = find(s), find(o)
            if rs != ro:
                lo, hi = (rs, ro) if rs < ro else (ro, rs)
                parent[hi] = lo
    n_comp = len({find(x) for x in parent})
    top_hub, top_deg = (None, 0)
    if deg:
        top_deg = max(deg.values())
        top_hub = min(k for k, v in deg.items() if v == top_deg)
    return {
        "n_notes": len(notes),
        "total_words": total_words,
        "dup_name_groups": sum(1 for v in names.values() if v > 1),
        "dup_content_groups": sum(1 for v in hashes.values() if v > 1),
        "n_components": n_comp,
        "top_hub": top_hub,
        "top_hub_degree": top_deg,
    }


def test_analyzer_matches_oracle(ray_session):
    rows = _synth_rows(80)
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.string()),
                "spans": pa.array([r[1] for r in rows]),
            }
        )
    )
    got = analyze(docs)
    exp = _oracle_report(rows)
    assert got == exp


def test_analyzer_components_topology_size_selected(
    ray_session, monkeypatch
):
    """The components path is chosen by node+edge size: small inputs
    take the driver union-find, large (forced by patching the
    broadcast guard) take distributed pointer jumping — with an
    identical report."""
    import obsidian_parser_ray.pipelines.analyzer as mod
    from obsidian_parser_ray.stages import joins

    rows = _synth_rows(60)
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.string()),
                "spans": pa.array([r[1] for r in rows]),
            }
        )
    )
    exp = _oracle_report(rows)

    # default guard: LOCAL path must run; distributed must NOT
    def _boom(*a, **k):
        raise AssertionError("distributed path taken below the guard")

    monkeypatch.setattr(mod, "connected_components", _boom)
    assert analyze(docs) == exp
    monkeypatch.undo()

    # forced over the guard: DISTRIBUTED path must run; local must NOT
    def _boom2(*a, **k):
        raise AssertionError("local path taken above the guard")

    monkeypatch.setattr(mod, "connected_components_local", _boom2)
    monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", -1)
    assert analyze(docs) == exp
