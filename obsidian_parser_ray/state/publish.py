"""One publish protocol for every persisted store.

A store is a directory of data files plus one JSON manifest whose
``files`` maps table → bucket → live files (paths relative to the
store root).  Readers read exactly the manifest's files with
``partitioning=None``, so nothing else on disk (a crashed writer's
output, a superseded file not yet deleted) is ever read.

A write makes its files live in three steps (write-then-publish, as
Delta Lake's log):

1. write new files under names no live file has: ``g<gen>`` names,
   ``gen`` one past the live manifest's generation;
2. write the manifest to a temp file and ``os.replace`` it over the
   old one, the one atomic step;
3. only then delete the files the new manifest does not list.

A crash before step 2 leaves the old store plus orphans; a crash after
it leaves the new store plus orphans.  The next write ignores them,
reuses the crashed generation's names and sweeps what is left.  This
holds for a crash of the process: the manifest is fsync'd, data files
are not.  No previous generation is kept, so a lazy Dataset a call
returned stops being readable once the next write sweeps its files.

The data-file writes (:func:`write_table`, :func:`write_dataset`), the
swap (:func:`publish`) and the deletes (:func:`drop_files`) are the
seams the crash tests patch.  A task that writes binds
:func:`write_table` on the caller, so a patched seam travels with it.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq


def load(root: str, name: str, rebuild: str) -> dict:
    """The live manifest ``root/name``; ``FileNotFoundError`` when the
    store has none.  A manifest without a ``files`` map (written before
    this protocol) raises ``ValueError`` naming ``rebuild``, the call
    that rewrites the store."""
    with open(os.path.join(root, name)) as f:
        man = json.load(f)
    if not isinstance(man.get("files"), dict):
        raise ValueError(
            f"{root}: {name} has no 'files' map (a layout written before "
            f"generation commits); re-checkpoint the store with {rebuild}"
        )
    return man


def next_generation(root: str, name: str) -> int:
    """Generation of a rewrite: one past the live manifest's, 0 when
    there is none (or it is unreadable: a rewrite replaces it)."""
    try:
        with open(os.path.join(root, name)) as f:
            return int(json.load(f)["generation"]) + 1
    except (OSError, ValueError, KeyError, TypeError):
        return 0


def live(man: dict, table: str, buckets=None) -> list[str]:
    """Live files of ``table`` (relative paths), all buckets or the
    given ones, in bucket order."""
    files = man["files"][table]
    keys = (sorted(files, key=int) if buckets is None
            else [str(b) for b in sorted(set(buckets))])
    return [p for b in keys for p in files.get(b, ())]


def paths(root: str, man: dict, table: str, buckets=None) -> list[str]:
    """:func:`live` as paths under ``root``."""
    return [os.path.join(root, p) for p in live(man, table, buckets)]


def write_table(table: pa.Table, path: str, **kw) -> None:
    """One data-file write (on the caller or in a task)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path, **kw)


def write_dataset(ds, path: str, **kw) -> None:
    """One Ray Data Parquet sink."""
    ds.write_parquet(path, **kw)


def write_generation(ds, root: str, table: str, gen: int,
                     partition_col: str | None = None, **write_kw) -> dict:
    """Step 1 for a bulk write: ``ds`` into ``<table>/g<gen>/``, in hive
    ``<partition_col>=<v>`` dirs when given.  Returns bucket → files for
    the manifest (one bucket ``"0"`` without ``partition_col``).  The
    dir is cleared first: a generation past the live one holds only a
    crashed writer's orphans."""
    path = os.path.join(root, table, f"g{gen}")
    shutil.rmtree(path, ignore_errors=True)
    write_dataset(ds, path, partition_cols=[partition_col] if partition_col
                  else None, **write_kw)
    files: dict = {}
    for d, _, fs in sorted(os.walk(path)):
        ps = sorted(f for f in fs if f.endswith(".parquet"))
        if ps:
            b = os.path.basename(d).split("=", 1)[1] if partition_col else "0"
            files[b] = [os.path.relpath(os.path.join(d, f), root) for f in ps]
    return files


def publish(root: str, name: str, man: dict) -> None:
    """Step 2, the commit point: temp file + ``os.replace``."""
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, name)
    with open(path + ".tmp", "w") as f:
        json.dump(man, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(path + ".tmp", path)


def drop_files(root: str, rel_paths) -> None:
    """Step 3: delete files the live manifest no longer lists; a crash
    here only leaves orphans, which no reader lists."""
    for p in rel_paths:
        try:
            os.remove(os.path.join(root, p))
        except FileNotFoundError:
            pass


def sweep(root: str, man: dict) -> None:
    """Step 3 in full: delete every file under the manifest's table
    dirs that it does not list (superseded generations, a crashed
    writer's orphans, an older layout), then the emptied dirs."""
    listed = {os.path.normpath(p) for t in man["files"] for p in live(man, t)}
    for table in man["files"]:
        top = os.path.join(root, table)
        drop_files(root, [
            rel for d, _, fs in os.walk(top) for f in fs
            if (rel := os.path.relpath(os.path.join(d, f), root)) not in listed
        ])
        for d, _, _ in os.walk(top, topdown=False):
            if d != top and not os.listdir(d):
                os.rmdir(d)


def commit(root: str, name: str, man: dict) -> dict:
    """Steps 2 and 3: swap the manifest in, then sweep."""
    publish(root, name, man)
    sweep(root, man)
    return man


def rewrite_buckets(root: str, name: str, params: dict, delta, *,
                    table: str, cols: list[str], bucket_of, merge,
                    rebuild: str) -> dict:
    """Merge ``delta`` (a Dataset of ``cols``) into the buckets it
    touches and publish them; untouched buckets keep their files.

    ``params`` are pinned by the manifest (a mismatch raises
    ``ValueError``).  ``bucket_of(t)`` buckets the rows of an Arrow
    table, delta and stored rows alike; ``merge(p)`` turns one bucket's
    stored rows ∪ delta rows (pandas, bucket column dropped) into the
    bucket's new rows, written as ``<table>/g<gen>-<b>.parquet`` by a
    reduce task.  Returns {"buckets_touched": int, "rows_written": int}.
    """
    import pandas as pd
    import ray.data as rd

    try:
        man = load(root, name, rebuild)
    except FileNotFoundError:
        man = dict(params, generation=-1, files={table: {}})
    if any(man.get(k) != v for k, v in params.items()):
        raise ValueError("store parameters differ from manifest: " + str(man))
    gen = int(man["generation"]) + 1

    def tag(t: pa.Table) -> pa.Table:
        return t.select(cols).append_column("bucket", bucket_of(t))

    d = delta.map_batches(tag, batch_format="pyarrow")
    # bounded: one row per bucket survives the per-block dedup
    touched = sorted({
        b for t in d.map_batches(
            lambda t: t.select(["bucket"]).group_by("bucket").aggregate([]),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow")
        for b in t["bucket"].to_pylist()
    })
    if not touched:
        return {"buckets_touched": 0, "rows_written": 0}
    stored = paths(root, man, table, touched)
    if stored:
        d = d.union(rd.read_parquet(stored, partitioning=None)
                    .map_batches(tag, batch_format="pyarrow"))
    write = write_table

    def merge_write(p: pd.DataFrame) -> pd.DataFrame:
        b = int(p["bucket"].iloc[0])
        out = merge(p.drop(columns=["bucket"]))
        rel = os.path.join(table, f"g{gen}-{b}.parquet")
        write(pa.Table.from_pandas(out, preserve_index=False),
              os.path.join(root, rel))
        return pd.DataFrame({"bucket": [b], "rows": [len(out)], "path": [rel]})

    stats = (d.groupby("bucket")
             .map_groups(merge_write, batch_format="pandas").take_all())
    files = {t: dict(v) for t, v in man["files"].items()}
    for r in stats:
        files[table][str(int(r["bucket"]))] = [r["path"]]
    commit(root, name, dict(man, generation=gen, files=files))
    return {"buckets_touched": len(stats),
            "rows_written": sum(int(r["rows"]) for r in stats)}
