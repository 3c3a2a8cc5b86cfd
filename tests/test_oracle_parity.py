"""P/R harness: distributed pipeline vs independent oracles.

Two independent checks on the synthesized vault (corpus.py spec):

1. The **analytic DuckDB oracle** (corpus.oracle_cte) computes the
   expected triple/note tables without parsing any markdown — it
   derives them arithmetically from the generation spec.  The driver
   runs the same comparison at sf0.01 via __ray_entry__.oracle_sql().
2. The **sequential pure-Python oracle** (oracle.py) re-walks the
   reference's two-phase build over the same span rows.

North-rule gate: P/R ≥ 0.95; a correct engine scores 1.0 on both.
"""

from __future__ import annotations

import duckdb
import pytest

from obsidian_parser_ray import build_graph, synth_vault
from obsidian_parser_ray.corpus import oracle_cte, span_signature
from obsidian_parser_ray.oracle import oracle_graph, precision_recall

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def graph(ray_session):
    return build_graph(synth_vault(SF))


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    return c


def test_triples_match_duckdb_oracle(graph, con):
    tri = graph.triples.to_pandas()
    actual = {(r.subj, r.pred, r.obj): int(r.weight) for r in tri.itertuples()}
    exp_rows = con.execute(
        oracle_cte() + "\nSELECT subj, pred, obj, weight FROM exp_triples"
    ).fetchall()
    expected = {(s, p, o): int(w) for s, p, o, w in exp_rows}
    pr = precision_recall(actual, expected)
    assert pr["precision"] >= 0.95 and pr["recall"] >= 0.95, pr
    assert pr == pytest.approx(
        {**pr, "precision": 1.0, "recall": 1.0, "weighted_exact": 1.0}
    ), pr


def test_notes_match_duckdb_oracle(graph, con):
    notes = graph.notes.to_pandas().set_index("doc_id")
    exp = con.execute(
        oracle_cte()
        + "\nSELECT doc_key, note_name, n_words, n_bytes, content_hash, n_tags,"
        " n_aliases, is_todo FROM exp_notes"
    ).fetchdf().set_index("doc_key")
    assert set(notes.index) == set(exp.index)
    exp = exp.reindex(notes.index)
    for col in ["note_name", "n_words", "n_bytes", "content_hash", "is_todo"]:
        mismatch = (notes[col] != exp[col]).sum()
        assert mismatch == 0, f"{col}: {mismatch} mismatches"
    assert (notes["tags"].map(len) != exp["n_tags"]).sum() == 0
    assert (notes["aliases"].map(len) != exp["n_aliases"]).sum() == 0


def test_triples_match_python_oracle(graph):
    vault_rows = [
        (r["doc_id"], r["spans"])
        for b in synth_vault(SF).iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    ]
    _, exp = oracle_graph(vault_rows)
    tri = graph.triples.to_pandas()
    actual = {(r.subj, r.pred, r.obj): int(r.weight) for r in tri.itertuples()}
    pr = precision_recall(actual, dict(exp))
    assert pr["precision"] == 1.0 and pr["recall"] == 1.0 and pr["weighted_exact"] == 1.0


def test_span_invariant_through_extract(ray_session):
    """Per-row span-sequence invariant (kind, text, media_ref, order):
    the extract stage passes spans through untouched."""
    from obsidian_parser_ray.stages.extract import ExtractNotes

    docs = synth_vault(SF)
    table_in = docs.take_batch(200, batch_format="pyarrow")
    import pyarrow as pa

    t = pa.table(table_in) if not isinstance(table_in, pa.Table) else table_in
    out = ExtractNotes(keep_spans=True)(t)
    assert span_signature(out["spans"]) == span_signature(t["spans"])


def test_mention_kind_counts_match_oracle(graph, con):
    m = graph.mentions.to_pandas()
    # collapse tag kinds to the oracle's 'tag'
    m["kind"] = m["kind"].replace(
        {"tag_frontmatter": "tag", "tag_inline": "tag"}
    )
    # dangling link mentions exist pre-linking; oracle exp_mentions
    # excludes them → subtract the known dangling count (d%9==0 docs)
    actual = m.groupby("kind").size().to_dict()
    exp_rows = con.execute(
        oracle_cte() + "\nSELECT kind, count(*) FROM exp_mentions GROUP BY 1"
    ).fetchall()
    expected = dict(exp_rows)
    n_dangling = con.execute(
        "SELECT count(*) FROM documents WHERE doc_id % 9 = 0"
    ).fetchone()[0]
    assert actual["tag"] == expected["tag"]
    assert actual["media"] == expected["media"]
    assert actual["embed"] == expected["embed"]
    assert actual["link"] == expected["link"] + n_dangling
