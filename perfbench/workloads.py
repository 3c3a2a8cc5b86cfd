"""The four workloads: set-up, timed rounds, traced rounds and checks.

Load model: closed loop, one main process, one operation at a time.
A *round* is one pass over a workload's list of operations.  Every
operation's output is consumed inside its timed region and checked
against an independent computation outside it; a wrong output or an
exception counts as a failed operation.

The untraced round calls only the package's top-level entry points.
The traced round (``--trace 1``) calls the layers one by one from
here, materializes the Dataset at each layer boundary, and records a
span around each call (see ``tracing.py``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import time
from collections import Counter, defaultdict, deque

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from inputs import (SIZES, generate, input_key, kg_build_expected,
                    load_manifest)
from tracing import ray_operator_stats


class Recorder:
    """Operation samples, attempt and failure counts of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.rounds: list[float] = []  # per round: sum of its timed regions
        self._round_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, op: str, why) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op}: {why}")

    def run(self, op: str, fn, check=None):
        """Time ``fn()``; then, outside the timed region, run
        ``check(out)`` (returns an error string or None).  Returns the
        output, or None when the operation raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # a failed operation is counted, not fatal
            self.fail(op, repr(e)[:300])
            return None
        dt = time.perf_counter() - t0
        self.samples[op].append(dt)
        self._round_s += dt
        if check is not None:
            err = check(out)
            if err:
                self.fail(op, err)
        return out

    def begin_round(self) -> None:
        self._round_s = 0.0

    def end_round(self) -> None:
        self.rounds.append(self._round_s)


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def quantile(xs, q: float) -> float:
    """Nearest-rank quantile (no interpolation below 10 samples)."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return float(s[min(len(s) - 1, max(0, int(np.ceil(q * len(s))) - 1))])


def _counter_diff(got: Counter, want: Counter) -> str | None:
    if got == want:
        return None
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    return f"{missing} expected rows missing, {extra} unexpected rows"


def _triples(rows) -> Counter:
    return Counter({(r["subj"], r["pred"], r["obj"]): int(r["weight"]) for r in rows})


def _read_parquet_dir(d: str) -> pa.Table | None:
    files = sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True))
    return pa.concat_tables([pq.read_table(f) for f in files]) if files else None


def _dir_snapshot(d: str) -> dict[str, tuple]:
    snap = {}
    for dirpath, _, files in os.walk(d):
        for name in files:
            p = os.path.join(dirpath, name)
            st = os.stat(p)
            snap[p] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return snap


def _written(before: dict, after: dict) -> tuple[int, int]:
    """(files, bytes) that are new or rewritten between two snapshots."""
    changed = [p for p, v in after.items() if before.get(p) != v]
    return len(changed), sum(after[p][0] for p in changed)


def _materialized(tracer, name: str, layer: str, fn, *, consume: bool = False):
    """Run ``fn()`` (returns a Dataset) inside a span, materialize it at
    the boundary and attach its Ray operator stats to the span.  With
    ``consume`` the rows are also fetched inside the span, as the
    untraced round does, and ``(ds, rows)`` is returned."""
    with tracer.span(name, layer) as sp:
        ds = fn().materialize()
        rows = ds.take_all() if consume else None
    sp["ray_ops"] = ray_operator_stats(ds)
    return (ds, rows) if consume else ds


def _span_s(tracer, name: str) -> float:
    """Median duration of the spans called ``name``."""
    return median([s["end"] - s["start"] for s in tracer.spans if s["name"] == name])


class Workload:
    name = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.size = SIZES[ctx.scale][self.name]
        self.key = input_key(self.name, ctx.seed, ctx.scale)
        self.parts = 2 * ctx.num_cpus

    # --- set-up: generate the seeded input and load it (timed, repeated)
    def setup(self) -> None:
        self.dir = generate(self.ctx.data_root, self.key)
        load_manifest(self.dir, self.key)
        self.load()

    def load(self) -> None:
        pass

    # --- once after set-up, untimed: the independent expected outputs
    def prepare(self, rec: Recorder) -> None:
        pass

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def traced_round(self, tracer, rec: Recorder) -> dict:
        raise NotImplementedError

    # --- metrics: the operation repeated within a round
    step_op = ""

    def e2e(self, rec: Recorder) -> dict:
        """``round_s`` prices each operation of a round at its median
        over the run, so one slow burst of the host moves it less than
        a sum of single samples would."""
        per_round = len(rec.rounds)
        return {"round_s": sum(len(v) / per_round * median(v)
                               for v in rec.samples.values()),
                "step_p50_s": median(rec.samples[self.step_op])}

    def detail(self, rec: Recorder) -> dict:
        return {}


def _joins_probe(tracer, ds, key: str, val: str, parts: int) -> dict:
    """Time the ``stages.joins`` primitives on one of the workload's own
    tables: a grouped sum by ``key`` (also the unique right side of
    both joins), a distinct over ``key``, and both join topologies."""
    from obsidian_parser_ray.stages.joins import (broadcast_join_unique,
                                                  distinct_rows,
                                                  grouped_aggregate,
                                                  hash_join_unique)

    n = ds.count()
    right = _materialized(tracer, "joins.grouped_agg", "joins",
                          lambda: grouped_aggregate(ds, [key], [(val, "sum", "_s")]))
    _materialized(tracer, "joins.distinct", "joins",
                  lambda: distinct_rows(ds, [key]))
    _materialized(tracer, "joins.hash_join", "joins",
                  lambda: hash_join_unique(ds, right, left_key=key,
                                           num_partitions=parts))
    _materialized(tracer, "joins.broadcast_join", "joins",
                  lambda: broadcast_join_unique(ds, right, left_key=key))
    m = right.count()
    out = {"joins.grouped_agg.rows_in": n, "joins.distinct.rows_in": n,
           "joins.hash_join.rows_in": n + m, "joins.broadcast_join.rows_in": n + m}
    for prim in ("grouped_agg", "distinct", "hash_join", "broadcast_join"):
        out[f"joins.{prim}_s"] = _span_s(tracer, f"joins.{prim}")
    return out


# ===================================================================== kg_build

class KgBuild(Workload):
    """Read the long-note corpus, ``build_graph`` on the streaming
    single-pass path, ``write_adjacency``; then point lookups with
    ``read_adjacency``."""

    name = "kg_build"
    step_op = "lookup"

    def _docs(self):
        import ray.data as rd

        return rd.read_parquet(os.path.join(self.dir, "docs.parquet"),
                               override_num_blocks=self.parts)

    def prepare(self, rec):
        from obsidian_parser_ray.oracle import oracle_graph

        rows = pq.read_table(os.path.join(self.dir, "docs.parquet")).to_pylist()
        _, edges = oracle_graph([(r["doc_id"], r["spans"]) for r in rows])
        self.expected = Counter(edges)
        planted = kg_build_expected(self.dir)
        rec.attempted += 1
        err = _counter_diff(self.expected, planted)
        if err:
            rec.fail("oracle", f"oracle vs generator: {err}")
        self.by_subj: dict[str, list] = defaultdict(list)
        for (s, p, o), w in self.expected.items():
            self.by_subj[s].append((s, p, o, w))
        rng = np.random.default_rng([self.ctx.seed, 101])
        n = self.size["docs"]
        self.lookup_keys = deque(
            f"note_missing_{i}" if i % 10 == 9 else f"note_{int(rng.integers(0, n))}"
            for i in range(100_000)
        )
        self.adj = os.path.join(self.ctx.run_dir, "adjacency")

    def _check_adjacency(self, _out) -> str | None:
        t = _read_parquet_dir(os.path.join(self.adj, "data"))
        if t is None:
            return "adjacency layout is empty"
        got = _triples(t.to_pylist())
        links = sum(w for (_, p, _), w in got.items() if p == "links_to")
        want_links = self.size["docs"] * self.size["links_per_doc"]
        if links != want_links:
            return f"links_to weight {links} != {want_links}"
        return _counter_diff(got, self.expected)

    def _lookup_check(self, subj):
        want = sorted(self.by_subj.get(subj, []))

        def check(rows):
            got = sorted((r["subj"], r["pred"], r["obj"], r["weight"]) for r in rows)
            return None if got == want else f"lookup {subj}: {len(got)} rows, want {len(want)}"

        return check

    def round(self, rec):
        from obsidian_parser_ray import build_graph
        from obsidian_parser_ray.pipelines.graph import (read_adjacency,
                                                        write_adjacency)

        def build():
            g = build_graph(self._docs(), materialize_notes=False)
            write_adjacency(g, self.adj)
            return g

        g = rec.run("build", build, self._check_adjacency)
        if g is not None:
            self.link_topology = g.link_topology
        for _ in range(self.size["lookups_per_round"]):
            subj = self.lookup_keys.popleft()
            rec.run("lookup", lambda: read_adjacency(self.adj, subj).take_all(),
                    self._lookup_check(subj))

    def traced_round(self, tracer, rec):
        from obsidian_parser_ray.pipelines.graph import (GraphResult,
                                                        _estimate_input_bytes,
                                                        read_adjacency,
                                                        write_adjacency)
        from obsidian_parser_ray.stages.canonicalize import canonicalize
        from obsidian_parser_ray.stages.extract import (
            combined_dict_partials, combined_mentions,
            extract_mentions_and_dict)
        from obsidian_parser_ray.stages.linking import (_merge_dict_partials,
                                                       child_of_edges,
                                                       link_mentions)

        docs = self._docs()
        with tracer.span("round", "bench"):
            combined = _materialized(tracer, "extract", "extract",
                                     lambda: extract_mentions_and_dict(docs))
            with tracer.span("linking.dict", "linking"):
                dictionary = _merge_dict_partials(combined_dict_partials(combined))
            with tracer.span("linking.link", "linking") as sp:
                linked = link_mentions(combined_mentions(combined), dictionary,
                                       concurrency=(2, 8)).materialize()
                child = child_of_edges(docs).materialize()
            sp["ray_ops"] = ray_operator_stats(linked)
            triples = _materialized(tracer, "canonicalize", "canonicalize",
                                    lambda: canonicalize(linked.union(child)))
            with tracer.span("graph.sink", "graph"):
                man = write_adjacency(
                    GraphResult(notes=None, mentions=None, edges=None,
                                triples=triples), self.adj)
            lookups = []
            for _ in range(self.size["lookups_per_round"]):
                subj = self.lookup_keys.popleft()
                with tracer.span("graph.lookup", "graph") as sp:
                    rows = read_adjacency(self.adj, subj).take_all()
                lookups.append((subj, rows, sp["end"] - sp["start"]))
        with tracer.span("probes", "bench"):
            counts = _joins_probe(tracer, triples, "subj", "weight", self.parts)
        rec.attempted += 1 + len(lookups)
        for err in [self._check_adjacency(None)] + [
                self._lookup_check(subj)(rows) for subj, rows, _ in lookups]:
            if err:
                rec.fail("build", err)
        mentions_in = combined_mentions(combined).count()
        splits = int(man["splits_per_bucket"])
        bucket_files = Counter(p["bucket"] for p in man["partitions"])
        dict_bytes = sum(getattr(dictionary, a).nbytes for a in (
            "full_keys", "short_keys", "short_vals", "alias_keys", "alias_vals"))
        counts.update({
            "extract.wall_s": _span_s(tracer, "extract"),
            "linking.dict_s": _span_s(tracer, "linking.dict"),
            "linking.link_s": _span_s(tracer, "linking.link"),
            "canonicalize.wall_s": _span_s(tracer, "canonicalize"),
            "graph.sink_s": _span_s(tracer, "graph.sink"),
            "extract.docs_in": self.size["docs"],
            "extract.rows_out": combined.count(),
            "extract.bytes_out": combined.size_bytes(),
            "linking.dict_entries": len(dictionary),
            "linking.dict_bytes": dict_bytes,
            "linking.mentions_in": mentions_in,
            "linking.resolved_ratio": linked.count() / max(1, mentions_in),
            "canonicalize.rows_in": linked.count() + child.count(),
            "canonicalize.rows_out": triples.count(),
            "graph.sink_files": len(man["partitions"]),
            "graph.sink_bytes": sum(p["bytes"] for p in man["partitions"]),
            "graph.lookup_s": median([t for _, _, t in lookups]),
            "graph.lookup_files": 1 if splits > 1 else median(list(bucket_files.values())),
            "graph.input_bytes_est": _estimate_input_bytes(docs) or 0,
            "graph.streaming": 1,
            "graph.link_topology_shuffle": int(
                getattr(self, "link_topology", "").startswith("shuffle")),
        })
        return counts

    def detail(self, rec):
        lk = rec.samples["lookup"]
        return {
            "kg_build_docs_per_s": self.size["docs"] / median(rec.samples["build"]),
            "adj_lookup_p50_s": median(lk),
            "adj_lookup_p90_s": quantile(lk, 0.9),
            "lookups": len(lk),
        }


# ===================================================================== kg_graph

class KgGraph(Workload):
    """The iterative graph family over a seeded hub-skewed edge table."""

    name = "kg_graph"
    step_op = "bfs"
    max_hops = 8
    walk_len = 4

    def load(self):
        import ray.data as rd

        self.tri = rd.read_parquet(os.path.join(self.dir, "triples.parquet"),
                                   override_num_blocks=self.parts).materialize()
        self.nodes = rd.read_parquet(os.path.join(self.dir, "nodes.parquet")).materialize()

    def prepare(self, rec):
        t = pq.read_table(os.path.join(self.dir, "triples.parquet"))
        subj, obj = t["subj"].to_pylist(), t["obj"].to_pylist()
        w = np.asarray(t["weight"].to_pylist(), np.float64)
        all_nodes = pq.read_table(os.path.join(self.dir, "nodes.parquet"))["doc_id"].to_pylist()
        self.n_edges = len(subj)
        und = defaultdict(set)
        for a, b in zip(subj, obj):
            und[a].add(b)
            und[b].add(a)
        self.source = min(und, key=lambda v: (-len(und[v]), v))
        self.want_bfs = self._bfs(und, self.source)
        self.want_cc = self._components(all_nodes, und)
        self.want_rank = self._pagerank(subj, obj, w, self.size["pagerank_iters"])
        self.out = defaultdict(set)
        for a, b in zip(subj, obj):
            self.out[a].add(b)

    def _bfs(self, und, src) -> dict:
        dist = {src: 0}
        q = deque([src])
        while q:
            v = q.popleft()
            if dist[v] == self.max_hops:
                continue
            for u in und[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
        return dist

    @staticmethod
    def _components(all_nodes, und) -> dict:
        label = {}
        for v in sorted(all_nodes):
            if v in label:
                continue
            label[v] = v
            stack = [v]
            while stack:
                x = stack.pop()
                for u in und.get(x, ()):
                    if u not in label:
                        label[u] = v
                        stack.append(u)
        return label

    @staticmethod
    def _pagerank(subj, obj, w, iters, damping=0.85) -> dict:
        """Sparse power iteration with the package's semantics: node
        universe subj ∪ obj, uniform start, dangling mass spread
        uniformly, ``iters`` rounds."""
        names = sorted(set(subj) | set(obj))
        ix = {v: i for i, v in enumerate(names)}
        s = np.fromiter((ix[v] for v in subj), np.int64, len(subj))
        o = np.fromiter((ix[v] for v in obj), np.int64, len(obj))
        n = len(names)
        out_w = np.bincount(s, weights=w, minlength=n)
        p = w / out_w[s]
        dang = out_w == 0
        r = np.full(n, 1.0 / n)
        for _ in range(iters):
            r = (damping * np.bincount(o, weights=p * r[s], minlength=n)
                 + (1 - damping) / n + damping * r[dang].sum() / n)
        return dict(zip(names, r.tolist()))

    def _check_bfs(self, rows):
        got = {r["node"]: int(r["dist"]) for r in rows}
        if got == self.want_bfs:
            return None
        return f"bfs: {len(got)} nodes reached, want {len(self.want_bfs)}"

    def _check_rank(self, rows):
        got = {r["node"]: r["rank"] for r in rows}
        if got.keys() != self.want_rank.keys():
            return f"pagerank: {len(got)} nodes, want {len(self.want_rank)}"
        err = max(abs(got[v] - x) for v, x in self.want_rank.items())
        mass = sum(got.values())
        if err > 1e-9 or abs(mass - 1.0) > 1e-9:
            return f"pagerank: max error {err:.3g}, mass {mass:.12f}"
        return None

    def _check_cc(self, rows):
        got = {r["node"]: r["component"] for r in rows}
        return None if got == self.want_cc else "components differ from union-find"

    def _check_walks(self, rows):
        walks = defaultdict(dict)
        for r in rows:
            walks[r["walk_id"]][int(r["step"])] = r["node"]
        want_ids = {f"{v}#0" for v in self.out}
        if walks.keys() != want_ids:
            return f"walks: {len(walks)} walks, want {len(want_ids)}"
        for wid, steps in walks.items():
            path = [steps[i] for i in range(len(steps)) if i in steps]
            if len(path) != len(steps) or path[0] != wid.rsplit("#", 1)[0]:
                return f"walk {wid}: steps not contiguous from its start"
            if any(b not in self.out.get(a, ()) for a, b in zip(path, path[1:])):
                return f"walk {wid}: hop along a missing edge"
            if len(path) < self.walk_len + 1 and self.out.get(path[-1]):
                return f"walk {wid}: stopped early at a node with out-edges"
        return None

    def _ops(self):
        from obsidian_parser_ray.pipelines.components import connected_components
        from obsidian_parser_ray.pipelines.pagerank import pagerank
        from obsidian_parser_ray.stages.graphops import bfs_hops, random_walks

        iters = self.size["pagerank_iters"]
        return [
            ("bfs", "graphops", lambda: bfs_hops(self.tri, [self.source], max_hops=self.max_hops),
             self._check_bfs),
            ("bfs_dist", "graphops",
             lambda: bfs_hops(self.tri, [self.source], max_hops=self.max_hops,
                              max_local_edges=0),
             self._check_bfs),
            ("pagerank", "pagerank",
             lambda: pagerank(self.tri, iterations=iters, num_partitions=self.ctx.num_cpus)[0],
             self._check_rank),
            ("components", "components",
             lambda: connected_components(self.tri, self.nodes), self._check_cc),
            ("walks", "graphops",
             lambda: random_walks(self.tri, walk_len=self.walk_len), self._check_walks),
        ]

    def round(self, rec):
        ops = self._ops()
        for op, _, fn, check in ops[:1] * self.size["bfs_per_round"] + ops[1:]:
            rec.run(op, lambda: fn().take_all(), check)

    def traced_round(self, tracer, rec):
        from obsidian_parser_ray.pipelines.pagerank import pagerank

        ops = self._ops()
        done, walls = [], defaultdict(list)
        with tracer.span("round", "bench"):
            for op, layer, fn, check in ops[:1] * self.size["bfs_per_round"] + ops[1:]:
                _, rows = _materialized(tracer, f"{layer}.{op}", layer, fn, consume=True)
                walls[op].append(tracer.spans[-1]["end"] - tracer.spans[-1]["start"])
                done.append((op, check, rows))
        with tracer.span("probes", "bench"):
            _materialized(tracer, "pagerank.prologue", "pagerank",
                          lambda: pagerank(self.tri, iterations=0,
                                           num_partitions=self.ctx.num_cpus)[0])
            prologue = tracer.spans[-1]["end"] - tracer.spans[-1]["start"]
            counts = _joins_probe(tracer, self.tri, "subj", "weight", self.parts)
        rows = {}
        for op, check, out in done:
            rec.attempted += 1
            err = check(out)
            if err:
                rec.fail(op, err)
            rows[op] = out
        counts.update({
            "graphops.bfs_s": median(walls["bfs"]),
            "graphops.bfs_dist_s": median(walls["bfs_dist"]),
            "graphops.bfs_reached": len(rows["bfs"]),
            "graphops.bfs_depth": max(int(r["dist"]) for r in rows["bfs"]),
            "graphops.walks_s": median(walls["walks"]),
            "graphops.walk_rows": len(rows["walks"]),
            "pagerank.prologue_s": prologue,
            "pagerank.round_s": (median(walls["pagerank"]) - prologue)
            / self.size["pagerank_iters"],
            "components.wall_s": median(walls["components"]),
            "components.count": len({r["component"] for r in rows["components"]}),
        })
        return counts

    def detail(self, rec):
        s = rec.samples
        return {
            "graph_bfs_s": median(s["bfs"]),
            "graph_bfs_runs": len(s["bfs"]),
            "graph_bfs_dist_s": median(s["bfs_dist"]),
            "graph_pagerank_s": median(s["pagerank"]),
            "graph_components_s": median(s["components"]),
            "graph_walks_s": median(s["walks"]),
        }


# ==================================================================== kg_ingest

class KgIngest(Workload):
    """A fresh ``checkpoint_graph_base`` per round, then each delta
    through ``incremental_update`` with a full readback."""

    name = "kg_ingest"
    step_op = "delta"
    # the bucket count of the package's own incremental gate; the
    # default 64 multiplies per-delta file and task counts at this size
    num_buckets = 16

    def load(self):
        from obsidian_parser_ray import synth_vault

        self.v0 = synth_vault(self.dir).materialize()

    def _delta_docs(self, delta):
        from obsidian_parser_ray.sources import from_markdown_items

        return from_markdown_items([tuple(i) for i in delta["items"]])

    def prepare(self, rec):
        """Expected final triples: a full ``build_graph`` rebuild (notes
        barrier) of the vault with every delta applied."""
        from obsidian_parser_ray import build_graph

        with open(os.path.join(self.dir, "deltas.json")) as f:
            self.deltas = json.load(f)
        self.n_base_docs = self.v0.count()
        items = [tuple(i) for d in self.deltas for i in d["items"]]
        gone = {i[0] for i in items} | {r for d in self.deltas for r in d["removed"]}
        keep = pa.array(sorted(gone), pa.string())
        v1 = self.v0.map_batches(
            lambda t: t.filter(pc.invert(pc.is_in(t["doc_id"], value_set=keep))),
            batch_format="pyarrow",
        ).union(self._delta_docs({"items": items}))
        self.expected = _triples(build_graph(v1, materialize_notes=True).triples.take_all())
        self.delta_bytes = [sum(len(i[1].encode()) for i in d["items"])
                            for d in self.deltas]

    def _check_final(self, rows):
        return _counter_diff(_triples(rows), self.expected)

    def round(self, rec):
        from obsidian_parser_ray.pipelines.incremental import (
            checkpoint_graph_base, incremental_update)

        base = os.path.join(self.ctx.run_dir, f"base-{len(rec.rounds)}")
        try:
            if rec.run("base", lambda: checkpoint_graph_base(
                    self.v0, base, num_buckets=self.num_buckets)) is None:
                return
            for k, delta in enumerate(self.deltas):
                last = k == len(self.deltas) - 1
                rec.run("delta",
                        lambda: incremental_update(base, self._delta_docs(delta),
                                                   delta["removed"]).take_all(),
                        self._check_final if last else None)
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def traced_round(self, tracer, rec):
        from obsidian_parser_ray.pipelines.incremental import (
            checkpoint_graph_base, incremental_update)

        base = os.path.join(self.ctx.run_dir, "base-traced")
        files = nbytes = 0
        updates, readbacks = [], []
        try:
            with tracer.span("round", "bench"):
                with tracer.span("incremental.base", "incremental") as sp:
                    checkpoint_graph_base(self.v0, base, num_buckets=self.num_buckets)
                base_s = sp["end"] - sp["start"]
                for k, delta in enumerate(self.deltas):
                    before = _dir_snapshot(base)
                    ds = _materialized(
                        tracer, "incremental.update", "incremental",
                        lambda: incremental_update(base, self._delta_docs(delta),
                                                   delta["removed"]))
                    updates.append(tracer.spans[-1]["end"] - tracer.spans[-1]["start"])
                    f, b = _written(before, _dir_snapshot(base))
                    files, nbytes = files + f, nbytes + b
                    with tracer.span("incremental.readback", "incremental") as sp:
                        rows = ds.take_all()
                    readbacks.append(sp["end"] - sp["start"])
            rec.attempted += 1 + len(self.deltas)
            err = self._check_final(rows)
            if err:
                rec.fail("delta", err)
            reverse = sum(len(fs) for _, _, fs in os.walk(os.path.join(base, "mention_keys")))
        finally:
            shutil.rmtree(base, ignore_errors=True)
        return {
            "incremental.base_s": base_s,
            "incremental.update_s": median(updates),
            "incremental.readback_s": median(readbacks),
            "state.bytes_written": nbytes / len(self.deltas),
            "state.files_written": files / len(self.deltas),
            "state.write_amp": nbytes / max(1, sum(self.delta_bytes)),
            "state.reverse_index_files": reverse,
        }

    def detail(self, rec):
        return {
            "ingest_base_s": median(rec.samples["base"]),
            "ingest_delta_p50_s": median(rec.samples["delta"]),
        }


# ==================================================================== doc_dedup

def _shingles(text: str, k: int = 3) -> set:
    w = text.split()
    return {" ".join(w[i:i + k]) for i in range(len(w) - k + 1)}


def _jaccard(a: set, b: set) -> float:
    return len(a & b) / max(1, len(a | b))


class DocDedup(Workload):
    """``minhash_lsh_pairs`` then ``token_frequencies`` over a corpus
    with planted near-duplicates."""

    name = "doc_dedup"
    step_op = "token_freq"
    # the minimum exact Jaccard an emitted pair may have: the
    # signature estimate (64 hashes) is >= 0.5 for every emitted pair
    # and its standard error is <= 0.0625, so 0.25 is four errors below
    min_exact_jaccard = 0.25
    sample = 50

    def load(self):
        import ray.data as rd

        self.ds = rd.read_parquet(os.path.join(self.dir, "docs.parquet"),
                                  override_num_blocks=self.parts).materialize()

    def prepare(self, rec):
        t = pq.read_table(os.path.join(self.dir, "docs.parquet"))
        ids, texts = t["doc_id"].to_pylist(), t["text"].to_pylist()
        self.text = dict(zip(ids, texts))
        self.want_freq = Counter(w for x in texts for w in x.lower().split())
        with open(os.path.join(self.dir, "planted.json")) as f:
            planted = json.load(f)
        rng = np.random.default_rng([self.ctx.seed, 202])
        pick = rng.choice(len(planted), min(self.sample, len(planted)), replace=False)
        self.must_find = [tuple(sorted((ids[planted[i][0]], ids[planted[i][1]])))
                          for i in pick]

    def _check_pairs(self, rows):
        got = {tuple(sorted((r["id_a"], r["id_b"]))) for r in rows}
        missing = [p for p in self.must_find if p not in got]
        if missing:
            return f"{len(missing)} sampled planted pairs not emitted, e.g. {missing[0]}"
        for a, b in got:
            j = _jaccard(_shingles(self.text[a]), _shingles(self.text[b]))
            if j < self.min_exact_jaccard:
                return f"pair ({a}, {b}) has exact Jaccard {j:.3f}"
        return None

    def _check_freq(self, rows):
        got = Counter({r["w"]: int(r["n"]) for r in rows})
        return _counter_diff(got, self.want_freq)

    def round(self, rec):
        from obsidian_parser_ray.stages.dedup import minhash_lsh_pairs
        from obsidian_parser_ray.stages.text import token_frequencies

        rec.run("minhash", lambda: minhash_lsh_pairs(self.ds).take_all(), self._check_pairs)
        for _ in range(self.size["token_freq_per_round"]):
            rec.run("token_freq", lambda: token_frequencies(self.ds).take_all(),
                    self._check_freq)

    def traced_round(self, tracer, rec):
        from obsidian_parser_ray.stages.dedup import minhash_lsh_pairs
        from obsidian_parser_ray.stages.text import token_frequencies

        def tokens(t: pa.Table) -> pa.Table:
            w = pc.list_flatten(pc.split_pattern(pc.utf8_lower(t["text"]), " "))
            return pa.table({"w": w, "one": pa.array(np.ones(len(w), np.int64))})

        toks = self.ds.map_batches(tokens, batch_format="pyarrow").materialize()
        freq = []
        with tracer.span("round", "bench"):
            _, rows = _materialized(tracer, "dedup.minhash", "dedup",
                                    lambda: minhash_lsh_pairs(self.ds), consume=True)
            out = [("minhash", rows, self._check_pairs)]
            for _ in range(self.size["token_freq_per_round"]):
                _, rows = _materialized(tracer, "text.token_freq", "text",
                                        lambda: token_frequencies(self.ds), consume=True)
                freq.append(tracer.spans[-1]["end"] - tracer.spans[-1]["start"])
                out.append(("token_freq", rows, self._check_freq))
        with tracer.span("probes", "bench"):
            counts = _joins_probe(tracer, toks, "w", "one", self.parts)
        for op, rows, check in out:
            rec.attempted += 1
            err = check(rows)
            if err:
                rec.fail(op, err)
        counts.update({
            "dedup.wall_s": _span_s(tracer, "dedup.minhash"),
            "dedup.docs_in": self.size["docs"],
            "dedup.pairs_out": len(out[0][1]),
            "text.token_freq_s": median(freq),
            "text.tokens_in": sum(self.want_freq.values()),
            "text.vocab_out": len(out[-1][1]),
        })
        return counts

    def detail(self, rec):
        return {
            "dedup_docs_per_s": self.size["docs"] / median(rec.samples["minhash"]),
            "token_freq_s": median(rec.samples["token_freq"]),
            "token_freq_runs": len(rec.samples["token_freq"]),
        }


WORKLOADS = {w.name: w for w in (KgBuild, KgGraph, KgIngest, DocDedup)}
