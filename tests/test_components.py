"""Connected components (A7) — parity between the distributed
label-propagation and the driver union-find, plus golden-vault checks
(reference: petgraph connected_components via examples/analyzer.rs:86-88)."""

import pyarrow as pa
import pytest
import ray.data as rd

from obsidian_parser_ray import build_graph
from obsidian_parser_ray.pipelines import components as components_mod
from obsidian_parser_ray.pipelines.components import (
    connected_components,
    connected_components_local,
    n_components,
)
from obsidian_parser_ray.sources import from_markdown_items
from obsidian_parser_ray.stages import joins


def _edges_ds(pairs):
    return rd.from_arrow(
        pa.table(
            {
                "subj": pa.array([p[0] for p in pairs], pa.string()),
                "obj": pa.array([p[1] for p in pairs], pa.string()),
            }
        )
    )


def _nodes_ds(ids):
    return rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.string())}))


def _unexpected(*args, **kwargs):
    raise AssertionError("the broadcast guard picked the other path")


def _both_paths(edges, nodes, **kw):
    """``connected_components`` as ``{node: component}`` on the resident
    path and on the Dataset loop (forced by a guard no universe fits);
    each run fails if the other path is taken or emits a node twice.
    The two must agree."""
    out = []
    for forced in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if forced:
                mp.setattr(joins, "BROADCAST_MAX_ROWS", -1)
                mp.setattr(components_mod, "_components_resident",
                           _unexpected)
            else:
                mp.setattr(components_mod, "_components_loop", _unexpected)
            rows = connected_components(edges, nodes, **kw).take_all()
            got = {r["node"]: r["component"] for r in rows}
            assert len(rows) == len(got)
            out.append(got)
    assert out[0] == out[1]
    return out[0]


class TestLocal:
    def test_two_components_and_isolate(self):
        comp = connected_components_local(
            _edges_ds([("a", "b"), ("b", "c"), ("x", "y")]),
            _nodes_ds(["a", "b", "c", "x", "y", "lone"]),
        )
        assert comp["a"] == comp["b"] == comp["c"] == "a"
        assert comp["x"] == comp["y"] == "x"
        assert comp["lone"] == "lone"
        assert len(set(comp.values())) == 3


class TestDistributed:
    def test_matches_local(self):
        pairs = [("a", "b"), ("b", "c"), ("x", "y"), ("c", "a"), ("p", "q")]
        nodes = ["a", "b", "c", "x", "y", "p", "q", "solo"]
        dist = _both_paths(_edges_ds(pairs), _nodes_ds(nodes),
                           num_partitions=2)
        local = connected_components_local(_edges_ds(pairs), _nodes_ds(nodes))
        assert dist == local

    def test_chain_needs_iterations(self):
        # a long path exercises multi-round propagation
        n = 20
        pairs = [(f"n{i:02d}", f"n{i + 1:02d}") for i in range(n)]
        nodes = [f"n{i:02d}" for i in range(n + 1)]
        labels = connected_components(
            _edges_ds(pairs), _nodes_ds(nodes), num_partitions=2
        )
        assert n_components(labels) == 1
        got = _both_paths(_edges_ds(pairs), _nodes_ds(nodes),
                          num_partitions=2)
        assert got == {v: "n00" for v in nodes}

    def test_isolated_nodes_only_in_nodes(self):
        got = _both_paths(_edges_ds([("b", "a")]),
                          _nodes_ds(["a", "b", "lone", "0solo"]))
        assert got == {"a": "a", "b": "a", "lone": "lone", "0solo": "0solo"}

    def test_endpoints_absent_from_nodes(self):
        pairs = [("m", "k"), ("k", "z"), ("q", "r")]
        got = _both_paths(_edges_ds(pairs), _nodes_ds(["z", "solo"]))
        assert got == connected_components_local(
            _edges_ds(pairs), _nodes_ds(["z", "solo"]))
        assert got["m"] == got["z"] == "k" and got["r"] == "q"

    def test_empty_edge_table(self):
        got = _both_paths(_edges_ds([]), _nodes_ds(["b", "a"]))
        assert got == {"a": "a", "b": "b"}
        assert _both_paths(_edges_ds([]), _nodes_ds([])) == {}

    def test_limit0_pandas_nodes(self):
        # drop_near_duplicates' shape: no corpus-wide nodes, passed as a
        # limit(0) view of a pandas-block id column
        import pandas as pd

        corpus = rd.from_pandas(pd.DataFrame({"id": ["d3", "d1", "d2"]}))
        no_nodes = corpus.select_columns(["id"]).limit(0).map_batches(
            lambda t: t.rename_columns(["doc_id"]), batch_format="pyarrow"
        )
        got = _both_paths(_edges_ds([("d3", "d2"), ("d2", "d4")]), no_nodes)
        assert got == {"d2": "d2", "d3": "d2", "d4": "d2"}

    def test_non_ascii_min_is_byte_order(self):
        # UTF-8 byte order: "f" (0x66) < "é" (0xC3 0xA9) < "日" — a
        # locale collation would put "é" first
        pairs = [("é", "f"), ("日本", "é"), ("Ω", "x"), ("ä", "Ω")]
        got = _both_paths(_edges_ds(pairs), _nodes_ds(["é", "ü"]))
        assert got == connected_components_local(
            _edges_ds(pairs), _nodes_ds(["é", "ü"]))
        assert got["日本"] == "f" and got["Ω"] == "x" and got["ü"] == "ü"

    def test_max_iters_exhausted_raises(self):
        pairs = [(f"n{i:02d}", f"n{i + 1:02d}") for i in range(20)]
        with pytest.raises(RuntimeError, match="did not converge"):
            connected_components(_edges_ds(pairs), _nodes_ds([]),
                                 max_iters=1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(joins, "BROADCAST_MAX_ROWS", -1)
            mp.setattr(components_mod, "_components_resident", _unexpected)
            with pytest.raises(RuntimeError, match="did not converge"):
                connected_components(_edges_ds(pairs), _nodes_ds([]),
                                     max_iters=2)


class TestGoldenVaultComponents:
    """3-file golden vault (vault_test.rs:13-36) is one cycle →
    1 component, matching petgraph on the same edges."""

    def test_one_component(self):
        docs = from_markdown_items(
            [
                ("main", "[[data/main|main]]"),
                ("link", "[[main]]"),
                ("data/main", "[[link]]"),
            ]
        )
        g = build_graph(docs, include_child_of=False, include_tags=False)
        edges = g.triples.filter(expr="pred == 'links_to'")
        nodes = g.notes
        local = connected_components_local(edges, nodes)
        assert len(set(local.values())) == 1
        labels = connected_components(edges, nodes, num_partitions=2)
        assert n_components(labels) == 1
        assert _both_paths(edges, nodes, num_partitions=2) == local


def test_long_chain_converges_in_log_rounds(ray_session):
    """A 200-node path needs ~200 hash-min rounds without pointer
    jumping; with label-of-label compression it must converge well
    inside max_iters=12 (≈ log2 diameter + constant)."""
    import pyarrow as pa
    import ray.data as rd

    from obsidian_parser_ray.pipelines.components import connected_components

    n = 200
    names = ["n%03d" % i for i in range(n)]
    edges = pa.table(
        {
            "subj": pa.array(names[:-1], pa.string()),
            "obj": pa.array(names[1:], pa.string()),
        }
    )
    nodes = pa.table({"doc_id": pa.array(names, pa.string())})
    out = _both_paths(
        rd.from_arrow(edges).repartition(4),
        rd.from_arrow(nodes),
        max_iters=12,
        num_partitions=4,
    )
    assert out == {v: "n000" for v in names}
