"""Checkpoint / resume / lineage-metrics support (north_rule: "resumable
from checkpoint with per-partition lineage + metrics").

A checkpoint is a directory of parquet part files under ``data/``
plus a ``_MANIFEST.json`` recording row count, per-file metrics,
wall time, the pipeline-stage lineage string and the live file list.
It is published by :mod:`.publish`, the protocol every persisted store
shares: a crashed run never leaves a manifest over half-written data,
and a resume reads only the files the manifest lists.
``checkpoint_dataset`` skips recompute when a valid manifest is
already present — that IS the resume path: rerunning a pipeline with
the same ``checkpoint_dir`` re-reads finished stages and re-executes
only what's missing.
"""

from __future__ import annotations

import os
import time

from . import publish

_MANIFEST = "_MANIFEST.json"
_REBUILD = "checkpoint_dataset(..., resume=False)"
_VIEW_MANIFEST = "_VIEW_MANIFEST.json"
_VIEW_REBUILD = "incremental_sum_view on an empty base_dir"


def manifest_path(path: str) -> str:
    return os.path.join(path, _MANIFEST)


def load_manifest(path: str) -> dict | None:
    try:
        return publish.load(path, _MANIFEST, _REBUILD)
    except FileNotFoundError:
        return None


def _read(path: str, man: dict):
    import ray.data as rd

    return rd.read_parquet(publish.paths(path, man, "data"),
                           partitioning=None)


def checkpoint_dataset(ds, path: str, *, lineage: str = "", resume: bool = True):
    """Materialize ``ds`` to a resumable parquet checkpoint, return a
    fresh Dataset reading from it.

    At 100 TB this is the alternative to ``materialize()`` — the
    checkpoint lives on shared storage, bounds object-store pressure,
    and makes every downstream consumer restartable without replaying
    the upstream lineage.
    """
    import pyarrow.parquet as pq

    if resume:
        m = load_manifest(path)
        if m is not None and m.get("lineage") == lineage:
            return _read(path, m)
        # lineage mismatch = the checkpoint belongs to a DIFFERENT
        # pipeline stage/shape → recompute rather than silently serving
        # stale data

    gen = publish.next_generation(path, _MANIFEST)
    t0 = time.perf_counter()
    files = publish.write_generation(ds, path, "data", gen)
    # per-partition metrics from parquet footers (no data re-read):
    # each output file is one resumable partition — a downstream
    # consumer can skip, retry, or audit partitions individually.
    partitions = {}
    for f in publish.live({"files": {"data": files}}, "data"):
        fp = os.path.join(path, f)
        md = pq.ParquetFile(fp).metadata
        partitions[f] = {"rows": md.num_rows, "bytes": os.path.getsize(fp),
                         "row_groups": md.num_row_groups}
    manifest = publish.commit(path, _MANIFEST, {
        "rows": sum(p["rows"] for p in partitions.values()),
        "lineage": lineage,
        "wall_sec": round(time.perf_counter() - t0, 3),
        "generation": gen,
        "files": {"data": files},
        "partitions": partitions,
        "written_at": time.time(),
    })
    return _read(path, manifest)


def write_partitioned_output(triples, out_dir: str, *, lineage: str = "",
                             num_partitions: int | None = None) -> dict:
    """Final sink: partitioned parquet + manifest (resumable output).

    ``num_partitions`` coalesces/splits output files (order-preserving
    repartition — sorted runs stay sorted); size it so each partition
    is a few hundred MB at scale.
    """
    m = load_manifest(out_dir)
    if m is not None and m.get("lineage") == lineage:
        return m
    if num_partitions is not None:
        triples = triples.repartition(num_partitions)
    checkpoint_dataset(triples, out_dir, lineage=lineage, resume=False)
    return load_manifest(out_dir)


def incremental_sum_view(base_dir: str, delta, *, keys: list[str],
                         sums: list[str],
                         num_partitions: int = 64) -> dict:
    """Persisted additive materialized view: per-``keys`` integer sums
    maintained under delta batches, touching ONLY the key-hash
    buckets a delta mentions.

    Additive aggregates are the easy incremental case — new partials
    simply add — so an update is: fold the delta to per-key partials,
    then :func:`.publish.rewrite_buckets` unions them with the affected
    buckets' stored rows, runs one groupby-sum per bucket and publishes
    the rewritten buckets (the session store's contract).  Layout:
    ``{base_dir}/view/g<gen>-<b>.parquet`` + ``_VIEW_MANIFEST.json``
    pinning (keys, sums, buckets) and listing the live files.

    Returns {"buckets_touched": int, "rows_written": int}.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..hashing import hash_bucket_array

    def bucket_of(t: pa.Table) -> pa.Array:
        if len(keys) == 1:
            kk = pc.cast(t[keys[0]], pa.string())
        else:
            kk = pc.binary_join_element_wise(
                *[pc.cast(t[c], pa.string()) for c in keys], "\x00"
            )
        return hash_bucket_array(kk, num_partitions)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(list(keys) + list(sums)).group_by(list(keys)).aggregate(
            [(c, "sum") for c in sums]
        )
        return g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])

    def merge(p):
        return p.groupby(list(keys), as_index=False)[list(sums)].sum()

    return publish.rewrite_buckets(
        base_dir, _VIEW_MANIFEST,
        {"keys": list(keys), "sums": list(sums),
         "num_partitions": num_partitions},
        delta.map_batches(partial, batch_format="pyarrow"),
        table="view", cols=list(keys) + list(sums), bucket_of=bucket_of,
        merge=merge, rebuild=_VIEW_REBUILD)


def read_sum_view(base_dir: str):
    """Read the full materialized view as a Dataset (keys + sums)."""
    import ray.data as rd

    man = publish.load(base_dir, _VIEW_MANIFEST, _VIEW_REBUILD)
    return rd.read_parquet(publish.paths(base_dir, man, "view"),
                           partitioning=None)
