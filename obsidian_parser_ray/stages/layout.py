"""Z-order clustered parquet layout — multi-dimensional data skipping.

The Delta/Iceberg ``OPTIMIZE ZORDER BY`` pattern, Ray-Data-native:
interleave the bits of d quantized numeric columns into one Morton
code, partition files by the code's top bits, and record each file
partition's ACTUAL per-column min/max (straight from the parquet
footers, no data read) in a manifest.  A d-dimensional box query then
prunes to the files whose stats intersect the box — a single-column
sort layout can prune on one column only; Morton order keeps BOTH
range dimensions local, so a tight box touches O(few) files at any
table size.

Scale shape: the stats pass is one bounded aggregate (2d numbers);
assignment is a streaming per-block map; the write is Ray's
hive-partitioned sink (the only exchange); the manifest is O(files)
and built from footer metadata alone.  Reads prune BEFORE touching
data bytes and push a residual exact filter into the scan — at 100 TB
the pruned read IS the feature (a full scan for a 1% box is the bug).

No reference analog (the reference has no storage layout layer); the
pattern follows the public Delta Lake / Iceberg z-ordering design and
the repo's own persisted-index contracts (``state/publish.py``:
manifest-listed files, one manifest swap; footer-only derivations).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..state import publish

_MANIFEST = "_ZORDER_MANIFEST.json"


def morton_codes(quantized: list[np.ndarray], bits: int) -> np.ndarray:
    """Interleave d quantized uint64 coordinate arrays (values in
    ``[0, 2**bits)``) round-robin into one Morton code per row:
    bit ``j`` of dim ``i`` lands at output bit ``j*d + i``."""
    d = len(quantized)
    if d * bits > 63:
        raise ValueError(f"d*bits must be <= 63, got {d}*{bits}")
    z = np.zeros(len(quantized[0]), dtype=np.uint64)
    for i, q in enumerate(quantized):
        q = q.astype(np.uint64)
        for j in range(bits):
            z |= ((q >> np.uint64(j)) & np.uint64(1)) << np.uint64(j * d + i)
    return z


def _quantize(v: np.ndarray, lo: float, hi: float, bits: int) -> np.ndarray:
    """Scale values into ``[0, 2**bits)`` cells.  Quantization error
    only affects file ASSIGNMENT (clustering quality); pruning
    correctness comes from the manifest's exact per-file stats."""
    n_cells = 1 << bits
    if hi <= lo:
        return np.zeros(len(v), dtype=np.uint64)
    q = ((v.astype(np.float64) - lo) / (hi - lo) * n_cells).astype(np.int64)
    return np.clip(q, 0, n_cells - 1).astype(np.uint64)


def write_zorder(ds, out_dir: str, cols: list[str], *, bits: int = 10,
                 num_files: int = 64, stats_cols: list[str] = ()) -> dict:
    """Write ``ds`` as a z-order-clustered parquet layout under
    ``out_dir``; returns the manifest dict.

    Layout: ``{out_dir}/data/g<gen>/zf=<k>/*.parquet`` +
    ``_ZORDER_MANIFEST.json`` holding per-file-partition min/max of
    every clustered column (read from parquet footers — O(files), zero
    data bytes) and the live files.  Published by ``state/publish.py``:
    a rebuild replaces the layout, and a crash leaves the old or the
    new one.

    ``cols`` must be numeric.  ``bits`` is the per-dimension quantizer
    resolution; ``num_files`` (rounded up to a power of two) is the
    number of file partitions = the pruning granularity.  At 100 TB
    you'd size ``num_files`` so each partition is a few GB and let the
    sink emit multiple files per partition — pruning operates on the
    partition stats either way.

    ``stats_cols``: extra columns whose per-partition min/max is
    recorded in the manifest WITHOUT participating in the clustering
    key (the Iceberg-style generalization — every stats column is
    prunable, but only clustered columns prune WELL; a stats-only
    column's values scatter across partitions, so its ranges are wide
    and skip little.  The pruning-comparison test pins exactly this
    contrast).
    """
    from ray.data.aggregate import Max, Min

    d = len(cols)
    if d < 1:
        raise ValueError("need at least one clustering column")
    nf = 1
    while nf < num_files:
        nf *= 2
    n_bits_file = nf.bit_length() - 1
    if n_bits_file > d * bits:
        raise ValueError(f"num_files {nf} exceeds 2^(d*bits) cells")
    shift = d * bits - n_bits_file

    aggs = []
    for c in cols:
        aggs.append(Min(c))
        aggs.append(Max(c))
    stats = ds.aggregate(*aggs)
    bounds = {c: (float(stats[f"min({c})"]), float(stats[f"max({c})"]))
              for c in cols}

    def assign(t: pa.Table) -> pa.Table:
        qs = [
            _quantize(
                t[c].to_numpy(zero_copy_only=False),
                bounds[c][0], bounds[c][1], bits,
            )
            for c in cols
        ]
        z = morton_codes(qs, bits)
        fid = (z >> np.uint64(shift)).astype(np.int32)
        return t.append_column("zf", pa.array(fid, pa.int32()))

    gen = publish.next_generation(out_dir, _MANIFEST)
    files = publish.write_generation(
        ds.map_batches(assign, batch_format="pyarrow"), out_dir, "data", gen,
        "zf")

    import pyarrow.parquet as pq

    all_stats = list(dict.fromkeys(list(cols) + list(stats_cols)))
    parts = {}
    for fid, fs in files.items():
        mins = {c: None for c in all_stats}
        maxs = {c: None for c in all_stats}
        rows = 0
        for rel in fs:
            md = pq.ParquetFile(os.path.join(out_dir, rel)).metadata
            rows += md.num_rows
            schema_names = [md.schema.column(i).name
                            for i in range(md.num_columns)]
            for rg in range(md.num_row_groups):
                g = md.row_group(rg)
                for c in all_stats:
                    st = g.column(schema_names.index(c)).statistics
                    if st is None or not st.has_min_max:
                        raise ValueError(f"no footer stats for {c} in {rel}")
                    lo, hi = st.min, st.max
                    if mins[c] is None or lo < mins[c]:
                        mins[c] = lo
                    if maxs[c] is None or hi > maxs[c]:
                        maxs[c] = hi
        parts[fid] = {
            "rows": rows,
            "min": {c: mins[c] for c in all_stats},
            "max": {c: maxs[c] for c in all_stats},
        }

    return publish.commit(out_dir, _MANIFEST, {
        "cols": list(cols),
        "stats_cols": all_stats,
        "bits": bits,
        "num_files": nf,
        "bounds": {c: list(bounds[c]) for c in cols},
        "partitions": parts,
        "generation": gen,
        "files": {"data": files},
    })


def zorder_plan(out_dir: str, ranges: dict) -> tuple[list[int], int]:
    """Which file partitions a box query must read: returns
    ``(selected_partition_ids, total_partitions)``.  A partition is
    selected unless some queried column's manifest [min, max] misses
    the requested ``[lo, hi]`` (either bound may be None = open)."""
    manifest = publish.load(out_dir, _MANIFEST, "write_zorder")
    stats_cols = manifest.get("stats_cols", manifest["cols"])
    unknown = set(ranges) - set(stats_cols)
    if unknown:
        raise ValueError(
            f"range columns {sorted(unknown)} not in manifest stats "
            f"columns {stats_cols}"
        )
    selected = []
    for k, p in manifest["partitions"].items():
        ok = True
        for c, (lo, hi) in ranges.items():
            if lo is not None and p["max"][c] < lo:
                ok = False
                break
            if hi is not None and p["min"][c] > hi:
                ok = False
                break
        if ok:
            selected.append(int(k))
    return sorted(selected), len(manifest["partitions"])


def read_zorder(out_dir: str, ranges: dict, *, columns=None,
                override_num_blocks: int | None = None):
    """Pruned box read over a :func:`write_zorder` layout: open ONLY
    the file partitions whose manifest stats intersect the box, then
    apply the exact residual filter per block.  Returns a Dataset with
    the layout's columns (minus the internal ``zf``), restricted to
    ``columns`` when given (the residual filter adds the range columns
    to the scan and drops them after)."""
    import pyarrow.compute as pc
    import ray.data as rd

    selected, _total = zorder_plan(out_dir, ranges)
    manifest = publish.load(out_dir, _MANIFEST, "write_zorder")
    read_cols = None
    if columns is not None:
        read_cols = list(dict.fromkeys(list(columns) + list(ranges)))
    if not selected:
        import pyarrow.parquet as pq

        schema = pq.read_schema(publish.paths(out_dir, manifest, "data")[0])
        keep = [n for n in schema.names
                if n != "zf" and (columns is None or n in columns)]
        empty = pa.table(
            {n: pa.nulls(0, schema.field(n).type) for n in keep}
        )
        return rd.from_arrow(empty)
    kw = {}
    if override_num_blocks is not None:
        kw["override_num_blocks"] = override_num_blocks
    # hive partitioning (the default) only adds ``zf``, which the
    # residual drops; Ray's reader fails a projection without it
    ds = rd.read_parquet(publish.paths(out_dir, manifest, "data", selected),
                         columns=read_cols, **kw)

    def residual(t: pa.Table) -> pa.Table:
        mask = None
        for c, (lo, hi) in ranges.items():
            col = t[c]
            if lo is not None:
                m = pc.greater_equal(col, lo)
                mask = m if mask is None else pc.and_(mask, m)
            if hi is not None:
                m = pc.less_equal(col, hi)
                mask = m if mask is None else pc.and_(mask, m)
        out = t if mask is None else t.filter(mask)
        keep = [n for n in out.column_names
                if n != "zf" and (columns is None or n in columns)]
        return out.select(keep)

    return ds.map_batches(residual, batch_format="pyarrow")
