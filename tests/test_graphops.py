"""triangle_counts: exact parity vs brute force + normalization."""

from __future__ import annotations

import itertools
import random

import pyarrow as pa
import pytest


def _brute_force(edges: set[tuple[str, str]]) -> dict[str, int]:
    adj: dict[str, set[str]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    exp: dict[str, int] = {}
    for x, y, z in itertools.combinations(sorted(adj), 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            for n in (x, y, z):
                exp[n] = exp.get(n, 0) + 1
    return exp


def _run(rows, num_partitions=8):
    import ray

    from obsidian_parser_ray.stages.graphops import triangle_counts

    t = pa.table(
        {k: [r[k] for r in rows] for k in ("subj", "pred", "obj")}
        if rows
        else {
            "subj": pa.array([], pa.string()),
            "pred": pa.array([], pa.string()),
            "obj": pa.array([], pa.string()),
        }
    )
    ds = ray.data.from_arrow(t)
    out = triangle_counts(ds, num_partitions=num_partitions)
    return {r["node"]: r["n_triangles"] for r in out.take_all()}


@pytest.mark.usefixtures("ray_session")
class TestTriangles:
    def test_random_graph_parity(self):
        random.seed(11)
        nodes = [f"n{i}" for i in range(40)]
        edges = set()
        while len(edges) < 130:
            a, b = random.sample(nodes, 2)
            edges.add((min(a, b), max(a, b)))
        rows = [{"subj": a, "pred": "p", "obj": b} for a, b in edges]
        # duplicates, reversed duplicates and self loops must not
        # change the distinct undirected edge set
        rows += [{"subj": b, "pred": "q", "obj": a}
                 for a, b in list(edges)[:40]]
        rows += [{"subj": "n1", "pred": "q", "obj": "n1"}]
        exp = _brute_force(edges)
        assert _run(rows) == exp
        assert sum(exp.values()) % 3 == 0 and sum(exp.values()) > 0

    def test_hub_star_no_triangles(self):
        # a pure star has wedges but no closing edges
        rows = [{"subj": "hub", "pred": "p", "obj": f"leaf{i}"}
                for i in range(50)]
        assert _run(rows) == {}

    def test_hub_with_rim(self):
        # star + one rim edge = exactly one triangle; the hub's high
        # degree must not inflate the count (degree orientation puts
        # both wedge edges at the low-degree rim nodes)
        rows = [{"subj": "hub", "pred": "p", "obj": f"leaf{i}"}
                for i in range(50)]
        rows.append({"subj": "leaf0", "pred": "p", "obj": "leaf1"})
        assert _run(rows) == {"hub": 1, "leaf0": 1, "leaf1": 1}

    def test_clique(self):
        nodes = [f"k{i}" for i in range(6)]
        rows = [
            {"subj": a, "pred": "p", "obj": b}
            for a, b in itertools.combinations(nodes, 2)
        ]
        # K6: each node in C(5,2) = 10 triangles
        assert _run(rows) == {n: 10 for n in nodes}

    def test_empty(self):
        assert _run([]) == {}


@pytest.mark.usefixtures("ray_session")
class TestBfsHops:
    def _run(self, edges, sources, **kw):
        import ray

        from obsidian_parser_ray.stages.graphops import bfs_hops

        rows = [{"subj": a, "pred": kw.pop("pred_name", "links_to"),
                 "obj": b, "weight": 1} for a, b in edges]
        t = pa.table({k: [r[k] for r in rows]
                      for k in ("subj", "pred", "obj", "weight")})
        ds = ray.data.from_arrow(t)
        out = bfs_hops(ds, sources, num_partitions=8, **kw)
        return {r["node"]: r["dist"] for r in out.take_all()}

    def test_chain_directed_vs_undirected(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("x", "a")]
        und = self._run(edges, ["a"])
        assert und == {"a": 0, "b": 1, "c": 2, "d": 3, "x": 1}
        fwd = self._run(edges, ["a"], directed=True)
        assert fwd == {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_shortest_wins_over_longer_path(self):
        # two routes a→…→e: length 2 and length 4; dist must be 2
        edges = [("a", "b"), ("b", "e"),
                 ("a", "p"), ("p", "q"), ("q", "r"), ("r", "e")]
        got = self._run(edges, ["a"], directed=True)
        assert got["e"] == 2

    def test_max_hops_cutoff_and_multi_source(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("z", "c")]
        got = self._run(edges, ["a", "z"], directed=True, max_hops=1)
        assert got == {"a": 0, "z": 0, "b": 1, "c": 1}

    def test_unreached_absent(self):
        edges = [("a", "b"), ("x", "y")]
        got = self._run(edges, ["a"])
        assert "x" not in got and "y" not in got

    def test_local_and_distributed_paths_identical(self):
        # max_local_edges=0 forces the Dataset loop; default takes the
        # local fast path — same (node, dist) map either way
        import numpy as np

        rng = np.random.RandomState(9)
        edges = [(f"n{rng.randint(0, 60)}", f"n{rng.randint(0, 60)}")
                 for _ in range(300)]
        local = self._run(edges, ["n0", "n1"])
        dist = self._run(edges, ["n0", "n1"], max_local_edges=0)
        assert local == dist
        fwd_l = self._run(edges, ["n0"], directed=True, max_hops=3)
        fwd_d = self._run(edges, ["n0"], directed=True, max_hops=3,
                          max_local_edges=0)
        assert fwd_l == fwd_d

    def test_past_broadcast_guard_loop_identical(self, monkeypatch):
        # a broadcast guard no visited set fits sends every hop of the
        # distributed path through the Dataset loop
        import numpy as np

        from obsidian_parser_ray.stages import joins

        rng = np.random.RandomState(4)
        edges = [(f"n{rng.randint(0, 40)}", f"n{rng.randint(0, 40)}")
                 for _ in range(150)]
        local = self._run(edges, ["n0"], max_hops=4)
        monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", 0)
        assert self._run(edges, ["n0"], max_hops=4,
                         max_local_edges=0) == local


def _triples(pairs):
    return pa.table(
        {
            "subj": pa.array([a for a, _ in pairs], pa.string()),
            "pred": pa.array(["links_to"] * len(pairs), pa.string()),
            "obj": pa.array([b for _, b in pairs], pa.string()),
        }
    )


def _peel(edges: set[tuple[str, str]], k: int) -> dict[str, int]:
    """Driver-exact k-core oracle: peel until stable."""
    adj: dict[str, set[str]] = {}
    for a, b in edges:
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    changed = True
    while changed:
        changed = False
        for n in [n for n, nb in adj.items() if len(nb) < k]:
            for m in adj.pop(n):
                adj[m].discard(n)
            changed = True
    return {n: len(nb) for n, nb in adj.items()}


class TestKCore:
    def _run(self, pairs, k, **kw):
        import ray.data as rd

        from obsidian_parser_ray.stages.graphops import k_core

        out = k_core(
            rd.from_arrow(_triples(pairs)).repartition(3), k=k,
            num_partitions=4, **kw
        ).to_pandas()
        return dict(zip(out.get("node", []), out.get("degree", [])))

    def test_cycle_survives_chain_peels(self, ray_session):
        # cycle c0-c1-c2-c3-c0 (every degree 2) + tail c0-t0-t1
        pairs = [("c0", "c1"), ("c1", "c2"), ("c2", "c3"), ("c3", "c0"),
                 ("c0", "t0"), ("t0", "t1")]
        got = self._run(pairs, 2)
        assert got == {"c0": 2, "c1": 2, "c2": 2, "c3": 2}

    def test_clique_is_its_own_core(self, ray_session):
        nodes = ["n%d" % i for i in range(5)]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        got = self._run(pairs, 4)
        assert got == {n: 4 for n in nodes}

    def test_everything_peels(self, ray_session):
        got = self._run([("a", "b"), ("b", "c")], 2)
        assert got == {}

    def test_parallel_and_self_edges_ignored(self, ray_session):
        # duplicate + reversed + self edges must not inflate degrees
        pairs = [("a", "b"), ("b", "a"), ("a", "b"), ("a", "a"),
                 ("b", "c"), ("c", "a")]
        got = self._run(pairs, 2)
        assert got == {"a": 2, "b": 2, "c": 2}

    def test_random_graph_matches_driver_peeling(self, ray_session):
        rng = random.Random(5)
        nodes = ["v%d" % i for i in range(40)]
        pairs = {
            tuple(sorted(rng.sample(nodes, 2))) for _ in range(120)
        }
        for k in (2, 3, 4):
            got = self._run(sorted(pairs), k)
            assert got == _peel(set(pairs), k), k


@pytest.mark.usefixtures("ray_session")
class TestRandomWalks:
    def _edges(self, pairs):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "subj": pa.array([a for a, _ in pairs]),
                    "pred": pa.array(["links_to"] * len(pairs)),
                    "obj": pa.array([b for _, b in pairs]),
                    "weight": pa.array([1] * len(pairs), pa.int64()),
                }
            )
        )

    def test_walks_valid_and_deterministic(self):
        from obsidian_parser_ray.stages.graphops import random_walks

        pairs = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"),
                 ("c", "d"), ("d", "a"), ("b", "d")]
        tri = self._edges(pairs)
        out = random_walks(
            tri, walks_per_node=2, walk_len=5, num_partitions=4
        ).to_pandas()
        edge_set = set(pairs)
        walks: dict = {}
        for r in out.itertuples():
            walks.setdefault(r.walk_id, {})[r.step] = r.node
        assert len(walks) == 8  # 4 start nodes × 2
        for wid, steps in walks.items():
            start = wid.rsplit("#", 1)[0]
            assert steps[0] == start
            ks = sorted(steps)
            assert ks == list(range(len(ks)))  # contiguous steps
            for s in ks[1:]:
                assert (steps[s - 1], steps[s]) in edge_set  # real edge
            assert len(ks) == 6  # no sinks in this graph → full length

        out2 = random_walks(
            tri, walks_per_node=2, walk_len=5, num_partitions=4
        ).to_pandas()
        a = sorted(map(tuple, out.to_numpy()))
        b = sorted(map(tuple, out2.to_numpy()))
        assert a == b  # deterministic

    def test_full_length_under_width_autoshrink(self):
        # num_partitions=64 on a 7-edge graph exercises the r5
        # measured-width auto-shrink: the frontier and edge tag maps
        # MUST hash with the same modulus — a mismatch strands walks
        # at step 0, which the sink-stop semantics would mask (the
        # oracle gate cannot see a prematurely stopped walk)
        from obsidian_parser_ray.stages.graphops import random_walks

        pairs = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"),
                 ("c", "d"), ("d", "a"), ("b", "d")]
        out = random_walks(
            self._edges(pairs), walks_per_node=1, walk_len=5,
            num_partitions=64,
        ).to_pandas()
        per_walk = out.groupby("walk_id")["step"].max()
        assert len(per_walk) == 4          # one walk per start node
        assert (per_walk == 5).all()       # sink-free → full length

    def test_broadcast_and_shuffle_paths_identical(self):
        # both step paths use the same per-(walk, neighbor, step)
        # hash, so forcing either must emit byte-identical walks
        from obsidian_parser_ray.stages.graphops import random_walks

        pairs = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"),
                 ("c", "d"), ("d", "a"), ("b", "d"), ("d", "b")]
        outs = []
        for forced in (True, False):
            out = random_walks(
                self._edges(pairs), walks_per_node=2, walk_len=4,
                num_partitions=4, broadcast_frontier=forced,
            ).to_pandas()
            outs.append(sorted(map(tuple, out.to_numpy())))
        assert outs[0] == outs[1]

    def test_sink_terminates(self):
        from obsidian_parser_ray.stages.graphops import random_walks

        out = random_walks(
            self._edges([("a", "b")]), walks_per_node=1, walk_len=4,
            num_partitions=2,
        ).to_pandas()
        # only 'a' starts (distinct SUBJECTS); its walk stops at b
        steps = sorted(
            (r.step, r.node) for r in out.itertuples()
        )
        assert steps == [(0, "a"), (1, "b")]

    def test_uniformity_ish(self):
        import collections

        from obsidian_parser_ray.stages.graphops import random_walks

        # hub with 4 out-neighbors, many walks: each neighbor should be
        # visited a nontrivial share of the time at step 1
        pairs = [("hub", f"n{i}") for i in range(4)]
        # give each neighbor an edge back so starts exist only for hub?
        # (starts come from distinct SUBJECTS — only 'hub' here)
        tri = self._edges(pairs)
        out = random_walks(
            tri, walks_per_node=200, walk_len=1, num_partitions=2
        ).to_pandas()
        step1 = out[out.step == 1]
        counts = collections.Counter(step1.node)
        assert sum(counts.values()) == 200
        for i in range(4):
            assert counts[f"n{i}"] > 20  # crude uniformity floor


@pytest.mark.usefixtures("ray_session")
class TestBiasedWalks:
    def _edges(self, pairs):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "subj": pa.array([a for a, _ in pairs]),
                    "pred": pa.array(["links_to"] * len(pairs)),
                    "obj": pa.array([b for _, b in pairs]),
                    "weight": pa.array([1] * len(pairs), pa.int64()),
                }
            )
        )

    def test_valid_and_deterministic(self):
        from obsidian_parser_ray.stages.graphops import biased_walks

        pairs = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "a"),
                 ("c", "b"), ("a", "c")]
        tri = self._edges(pairs)
        out = biased_walks(tri, walks_per_node=3, walk_len=4, p=2.0,
                           q=0.5, num_partitions=4).to_pandas()
        edge_set = set(pairs)
        w: dict = {}
        for r in out.itertuples():
            w.setdefault(r.walk_id, {})[r.step] = r.node
        assert len(w) == 9
        for wid, steps in w.items():
            for s in sorted(steps)[1:]:
                assert (steps[s - 1], steps[s]) in edge_set
        out2 = biased_walks(tri, walks_per_node=3, walk_len=4, p=2.0,
                            q=0.5, num_partitions=4).to_pandas()
        assert sorted(map(tuple, out.to_numpy())) == \
            sorted(map(tuple, out2.to_numpy()))

    def test_return_bias_direction(self):
        """tiny p makes returning to the previous node overwhelmingly
        likely; large p suppresses returns — check both directions on
        a graph where 'm' always has the return option plus others."""
        import collections

        from obsidian_parser_ray.stages.graphops import biased_walks

        # star: m <-> s0..s3; from any s the only move is back to m,
        # from m the RETURN edge competes with 3 others
        pairs = []
        for i in range(4):
            pairs += [("m", f"s{i}"), (f"s{i}", "m")]
        tri = self._edges(pairs)

        def return_rate(p):
            out = biased_walks(
                tri, walks_per_node=60, walk_len=3, p=p, q=1.0,
                num_partitions=4,
            ).to_pandas()
            w: dict = {}
            for r in out.itertuples():
                w.setdefault(r.walk_id, {})[r.step] = r.node
            ret = tot = 0
            for steps in w.values():
                # step1 -> step2 -> step3: step3 from 'm' has a
                # return option (step2's node) iff step2 == 'm'... use
                # transitions FROM m at step >= 2 (prev = some s_i)
                for s in sorted(steps)[2:]:
                    if steps[s - 1] == "m":
                        tot += 1
                        ret += steps[s] == steps[s - 2]
            return ret / tot if tot else 0.0

        assert return_rate(0.01) > 0.9   # near-certain return
        assert return_rate(100.0) < 0.2  # returns suppressed
