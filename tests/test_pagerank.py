import math

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from obsidian_parser_ray.pipelines import pagerank as pagerank_mod
from obsidian_parser_ray.pipelines.pagerank import pagerank
from obsidian_parser_ray.stages import joins


def _np_pagerank(edges, weights, d, iters):
    """Dense power-iteration oracle with uniform dangling redistribution."""
    nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    M = np.zeros((n, n))
    out_w = np.zeros(n)
    for (a, b), w in zip(edges, weights):
        out_w[idx[a]] += w
    for (a, b), w in zip(edges, weights):
        M[idx[b], idx[a]] += w / out_w[idx[a]]
    r = np.full(n, 1.0 / n)
    has_out = out_w > 0
    for _ in range(iters):
        dangling = r[~has_out].sum()
        r = (1 - d) / n + d * (M @ r + dangling / n)
    return dict(zip(nodes, r))


def _edges_ds(edges, weights):
    return rd.from_arrow(
        pa.table(
            {
                "subj": pa.array([a for a, _ in edges], pa.string()),
                "obj": pa.array([b for _, b in edges], pa.string()),
                "weight": pa.array(weights, pa.int64()),
            }
        )
    )


def _unexpected(*args, **kwargs):
    raise AssertionError("the broadcast guard picked the other path")


def _both_paths(**kw):
    """``pagerank(**kw)`` as ``({node: rank}, l1_delta)`` on the resident
    path and on the Dataset loop (forced by a guard no universe fits);
    each run fails if the other path is taken or emits a node twice."""
    out = []
    for forced in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if forced:
                mp.setattr(joins, "BROADCAST_MAX_ROWS", -1)
                mp.setattr(pagerank_mod, "_pagerank_resident", _unexpected)
            else:
                mp.setattr(pagerank_mod, "_pagerank_loop", _unexpected)
            ranks, delta = pagerank(**kw)
            rows = ranks.take_all()
            got = {r["node"]: r["rank"] for r in rows}
            assert len(rows) == len(got)
            out.append((got, delta))
    (res, res_delta), (loop, loop_delta) = out
    assert res.keys() == loop.keys()
    for v in res:
        assert abs(res[v] - loop[v]) < 1e-12, v
    assert res_delta == pytest.approx(loop_delta, abs=1e-12, nan_ok=True)
    return out


def _assert_matches(got, exp, delta, d, iters):
    assert set(got) == set(exp)
    for v in exp:
        assert abs(got[v] - exp[v]) < 1e-9, v
    assert abs(sum(got.values()) - 1.0) < 1e-9
    assert delta <= 2 * d**iters + 1e-12


def test_pagerank_matches_numpy_with_dangling(ray_session):
    # n4 is dangling (no out-edges); n1 is a hub; weighted edges
    edges = [("n1", "n2"), ("n1", "n3"), ("n2", "n3"), ("n3", "n4"),
             ("n2", "n1"), ("n5", "n1")]
    weights = [2, 1, 1, 3, 1, 1]
    exp = _np_pagerank(edges, weights, 0.85, 12)
    for got, delta in _both_paths(
        edges=_edges_ds(edges, weights), damping=0.85, iterations=12,
        num_partitions=4,
    ):
        _assert_matches(got, exp, delta, 0.85, 12)


def test_pagerank_uniform_on_cycle(ray_session):
    # symmetric cycle → uniform stationary distribution, any damping
    edges = [("a", "b"), ("b", "c"), ("c", "a")]
    for got, delta in _both_paths(
        edges=_edges_ds(edges, [1, 1, 1]), iterations=10, num_partitions=2
    ):
        assert np.allclose(list(got.values()), 1.0 / 3, atol=1e-12)
        assert delta < 1e-12  # exact fixed point from the first iterate


def test_pagerank_random_graph_block_invariance(ray_session):
    rng = np.random.default_rng(7)
    pairs = sorted(
        {
            (f"v{int(a)}", f"v{int(b)}")
            for a, b in zip(rng.integers(0, 30, 150), rng.integers(0, 30, 150))
            if a != b
        }
    )
    weights = [int(w) for w in rng.integers(1, 4, len(pairs))]
    exp = _np_pagerank(pairs, weights, 0.85, 10)
    for got, _ in _both_paths(
        edges=_edges_ds(pairs, weights).repartition(11), iterations=10,
        num_partitions=4,
    ):
        for v in exp:
            assert abs(got[v] - exp[v]) < 1e-9, v


def test_pagerank_empty_edges(ray_session):
    for got, delta in _both_paths(edges=_edges_ds([], []), iterations=5):
        assert got == {} and delta == 0.0


def test_pagerank_every_head_dangling(ray_session):
    # sources point only at sinks: every head is dangling, so nearly all
    # mass flows through the dangling share
    edges = [("s1", "t1"), ("s1", "t2"), ("s2", "t2"), ("s3", "t3")]
    weights = [1, 3, 1, 2]
    exp = _np_pagerank(edges, weights, 0.85, 7)
    for got, delta in _both_paths(edges=_edges_ds(edges, weights),
                                  iterations=7, num_partitions=2):
        _assert_matches(got, exp, delta, 0.85, 7)


def test_pagerank_non_ascii_ids_and_zero_iterations(ray_session):
    edges = [("é", "日本"), ("日本", "z"), ("z", "é"), ("Ω", "z")]
    weights = [1, 2, 1, 1]
    exp = _np_pagerank(edges, weights, 0.85, 6)
    for got, delta in _both_paths(edges=_edges_ds(edges, weights),
                                  iterations=6, num_partitions=2):
        _assert_matches(got, exp, delta, 0.85, 6)
    for got, delta in _both_paths(edges=_edges_ds(edges, weights),
                                  iterations=0):
        assert got == {v: 0.25 for v in exp} and math.isnan(delta)


def test_pagerank_resident_output_keeps_blocks(ray_session):
    edges = [(f"v{i}", f"v{(i * 7 + 1) % 50}") for i in range(50)]
    ranks, _ = pagerank(_edges_ds(edges, [1] * 50), iterations=2,
                        num_partitions=8)
    assert ranks.materialize().num_blocks() > 1
