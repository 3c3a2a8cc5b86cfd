"""Event-stream operators: windows, sessionization (one-shot and
incremental), temporal joins, funnels, attribution, path mining,
debouncing, growth accounting, and behavioral features.

Ray Data is a batch engine (no watermarks); stream-shaped semantics are
expressed per the standard pattern: treat the events table as a
partitioned log — partition by key (``groupby(user_id)``), order by
``ts`` within the partition (sort inside ``map_groups``) — and compute
windows over the sorted group.  Ordering assumption: per-key processing
sees ALL events of that key (the groupby guarantees co-location);
cross-key order is irrelevant.

Timestamps are compared as integer epoch seconds/hours (floor), which
DuckDB reproduces exactly (``epoch_us(ts)//1_000_000``) — no float
time arithmetic anywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _epoch_seconds(ts: pd.Series) -> pd.Series:
    return pd.Series(
        ts.to_numpy().astype("datetime64[ns]").astype(np.int64) // 1_000_000_000,
        index=ts.index,
    )


def tumbling_counts(events, *, key_col: str = "user_id", ts_col: str = "ts",
                    window_seconds: int = 3600,
                    window_col: str = "window_epoch"):
    """Tumbling fixed-width window counts per key:
    ``(key, window_epoch, n_events)`` with
    ``window_epoch = epoch_seconds // window_seconds`` (floor — exact
    integer window ids, reproducible in SQL).

    Partial per-batch combine → small global groupby (shuffle carries
    one row per (key, window) per block).
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([key_col, ts_col]).to_pandas()
        df[window_col] = _epoch_seconds(df[ts_col]) // window_seconds
        g = (
            df.groupby([key_col, window_col], as_index=False)
            .size()
            .rename(columns={"size": "_n"})
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, window_col])
        .aggregate(Sum("_n", alias_name="n_events"))
    )


def hourly_counts(events, *, key_col: str = "user_id", ts_col: str = "ts"):
    """Tumbling 1-hour window counts per key: (key, hour_epoch,
    n_events) — the 3600 s special case of :func:`tumbling_counts`."""
    return tumbling_counts(
        events, key_col=key_col, ts_col=ts_col,
        window_seconds=3600, window_col="hour_epoch",
    )


def type_stats(events, *, type_col: str = "event_type", value_col: str = "value"):
    """Per-type count/min/max (exact — no float summation in compared
    output)."""
    from ray.data.aggregate import Count, Max, Min

    return events.groupby(type_col).aggregate(
        Count(alias_name="n_events"),
        Min(value_col, alias_name="min_value"),
        Max(value_col, alias_name="max_value"),
    )


def sessionize(events, *, key_col: str = "user_id", ts_col: str = "ts",
               gap_minutes: int = 30, num_partitions: int = 64):
    """Session windows: a new session starts after a gap > gap_minutes.

    Output: (key, session_idx [1-based per key in ts order], n_events,
    start_s, end_s) — all integers, reproducible by a DuckDB window
    query.  Each hash partition is processed with ONE vectorized sweep:
    sort by (key, ts), diff/cumsum the break flags across the whole
    partition frame, then a single C-speed groupby-agg — no per-key
    Python loop.
    """
    gap_s = gap_minutes * 60

    def add_part(t: pa.Table) -> pa.Table:
        # bounded shuffle key (shared deterministic hash — works for
        # int AND string keys): one Ray task per partition
        from ..hashing import hash_bucket_array

        return t.append_column(
            "part", hash_bucket_array(t[key_col], num_partitions)
        )

    empty = pd.DataFrame(
        {
            key_col: pd.Series([], dtype="object"),
            "session_idx": pd.Series([], dtype="int64"),
            "n_events": pd.Series([], dtype="int64"),
            "start_s": pd.Series([], dtype="int64"),
            "end_s": pd.Series([], dtype="int64"),
        }
    )

    def sessions_partition(p: pd.DataFrame) -> pd.DataFrame:
        if not len(p):
            e = empty.copy()
            e[key_col] = e[key_col].astype(p[key_col].dtype)
            return e
        p = p.sort_values([key_col, ts_col], kind="stable")
        keys = p[key_col].to_numpy()
        secs = _epoch_seconds(p[ts_col]).to_numpy()
        n = len(p)
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = keys[1:] != keys[:-1]
        brk = new_key.copy()
        brk[1:] |= secs[1:] - secs[:-1] > gap_s
        # global session counter, then rebased 1-per-key: the counter
        # value at each key's first row is carried forward by a
        # running max (counter is nondecreasing)
        sg = np.cumsum(brk.astype(np.int64))
        key_first = np.maximum.accumulate(np.where(new_key, sg, 0))
        sidx = sg - key_first + 1
        # sessions are CONTIGUOUS runs of the (key, ts)-sorted frame,
        # so the reduction is pure numpy indexing (start = first row,
        # end = last row — secs are nondecreasing within a run), no
        # pandas groupby: ~2× on output-heavy partitions
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], n)
        return pd.DataFrame(
            {
                key_col: keys[starts],
                "session_idx": sidx[starts].astype(np.int64),
                "n_events": (ends - starts).astype(np.int64),
                "start_s": secs[starts].astype(np.int64),
                "end_s": secs[ends - 1].astype(np.int64),
            }
        )

    return (
        events.select_columns([key_col, ts_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sessions_partition, batch_format="pandas")
    )


def value_histogram(events, *, type_col: str = "event_type",
                    value_col: str = "value", bin_width: float = 1.0):
    """Fixed-width value histogram per event type (exact integer bins →
    oracle-checkable).  Partial per-block combine before the shuffle."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([type_col, value_col]).to_pandas()
        df["bin"] = np.floor(df[value_col] / bin_width).astype(np.int64)
        g = (
            df.groupby([type_col, "bin"], as_index=False)
            .size()
            .rename(columns={"size": "_n"})
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby([type_col, "bin"])
        .aggregate(Sum("_n", alias_name="n_events"))
    )

# ---------------------------------------------------------------------------
# Temporal joins: as-of join + interval (range) join
#
# Ray Data has no native as-of/range join.  Both are expressed with the
# same co-partitioning shape as sessionize: hash-partition BOTH sides on
# the join key (one bounded shuffle), then resolve each partition with a
# single vectorized pandas sweep (merge_asof) — no per-key Python loop,
# no driver materialization.  Partitioning assumption: every row of a
# given key lands in one partition (the groupby guarantees it), so skew
# is bounded by the hottest key, same as any keyed join.
# ---------------------------------------------------------------------------


def _co_partition(left, right, *, key_col: str, num_partitions: int):
    """Union-tag two datasets into one, hash-partitioned on key_col.

    Returns (grouped, left_schema, right_schema): the union carries a
    ``_side`` flag (0=left, 1=right) and each side's missing columns
    padded with typed nulls so the schemas align exactly.
    """
    from ..hashing import hash_bucket_array

    l_schema = left.schema()
    r_schema = right.schema()
    l_arrow = pa.schema(
        [pa.field(n, t) for n, t in zip(l_schema.names, l_schema.types)]
    )
    r_arrow = pa.schema(
        [pa.field(n, t) for n, t in zip(r_schema.names, r_schema.types)]
    )
    shared = set(l_arrow.names) & set(r_arrow.names)
    for n in shared:
        if l_arrow.field(n).type != r_arrow.field(n).type:
            raise ValueError(
                f"column {n!r} has different types on the two sides: "
                f"{l_arrow.field(n).type} vs {r_arrow.field(n).type}"
            )
    # combined schema: left fields, then right-only fields, then markers
    combined = list(l_arrow) + [
        f for f in r_arrow if f.name not in set(l_arrow.names)
    ]
    combined_schema = pa.schema(
        combined
        + [pa.field("_side", pa.int8()), pa.field("part", pa.int32())]
    )

    def _pad(side: int):
        def fn(t: pa.Table) -> pa.Table:
            cols = []
            for f in combined_schema:
                if f.name == "_side":
                    cols.append(pa.array([side] * t.num_rows, pa.int8()))
                elif f.name == "part":
                    cols.append(hash_bucket_array(t[key_col], num_partitions))
                elif f.name in t.column_names:
                    cols.append(t[f.name].cast(f.type))
                else:
                    cols.append(pa.nulls(t.num_rows, f.type))
            return pa.Table.from_arrays(cols, schema=combined_schema)

        return fn

    tagged = left.map_batches(_pad(0), batch_format="pyarrow").union(
        right.map_batches(_pad(1), batch_format="pyarrow")
    )
    return tagged.groupby("part"), l_arrow, r_arrow


def _pandas_dtype_map(schema: pa.Schema) -> dict:
    """Stable post-merge dtypes: integer columns become nullable Int64 so
    partitions with unmatched rows emit the SAME arrow type (int64 with
    nulls) as fully-matched partitions — never a silent int→float block."""
    out = {}
    for f in schema:
        if pa.types.is_integer(f.type):
            out[f.name] = "Int64"
        elif pa.types.is_floating(f.type):
            out[f.name] = "float64"
    return out


def asof_join(left, right, *, key_col: str, ts_col: str,
              direction: str = "backward", suffix: str = "_r",
              num_partitions: int = 64):
    """As-of join: for each left row, the single right row of the same
    key with the largest ``ts_col`` <= left's (direction='backward';
    'forward' = smallest >=).  Left-join semantics: unmatched left rows
    keep typed nulls on the right columns.

    Requirements (same as DuckDB ASOF JOIN determinism): the right side
    must be unique per (key, ts) — pre-aggregate otherwise.  ``ts_col``
    must exist on both sides with the same type (integer epoch seconds
    recommended: exact, oracle-reproducible).

    Output: all left columns + each right non-key/ts column + the
    matched right timestamp as ``ts_col + suffix``.  Right value columns
    that collide with a left name are suffixed too.
    """
    grouped, l_arrow, r_arrow = _co_partition(
        left, right, key_col=key_col, num_partitions=num_partitions
    )
    l_cols = list(l_arrow.names)
    r_value_cols = [n for n in r_arrow.names if n not in (key_col, ts_col)]
    rename = {
        n: (n + suffix if n in set(l_cols) else n) for n in r_value_cols
    }
    rename[ts_col] = ts_col + suffix
    out_r_cols = [rename[ts_col]] + [rename[n] for n in r_value_cols]
    out_schema = pa.schema(
        [l_arrow.field(n) for n in l_cols]
        + [pa.field(rename[ts_col], r_arrow.field(ts_col).type)]
        + [pa.field(rename[n], r_arrow.field(n).type) for n in r_value_cols]
    )
    dtypes = _pandas_dtype_map(out_schema)
    empty = pa.table(
        {f.name: pa.nulls(0, f.type) for f in out_schema}
    ).to_pandas().astype(dtypes)

    def join_partition(t: pa.Table) -> pd.DataFrame:
        # split sides at the ARROW level: the union's null padding never
        # touches a real row's columns, so ints stay exact int64 in
        # pandas (no NaN-driven float64 round-trip of id columns)
        side = t["_side"]
        lf = t.filter(pc.equal(side, 0)).select(l_cols).to_pandas()
        if not len(lf):
            return empty.copy()
        rf = (
            t.filter(pc.equal(side, 1))
            .select([key_col, ts_col] + r_value_cols)
            .rename_columns(
                [key_col, ts_col] + [rename[n] for n in r_value_cols]
            )
            .to_pandas()
        )
        rf[rename[ts_col]] = rf[ts_col]
        lf = lf.sort_values(ts_col, kind="stable")
        rf = rf.sort_values(ts_col, kind="stable")
        m = pd.merge_asof(
            lf, rf, on=ts_col, by=key_col, direction=direction
        )
        m = m[l_cols + out_r_cols]
        for c, dt in dtypes.items():
            m[c] = m[c].astype(dt)
        return m

    return grouped.map_groups(join_partition, batch_format="pyarrow")


def interval_join(points, intervals, *, key_col: str, ts_col: str,
                  start_col: str, end_col: str,
                  num_partitions: int = 64):
    """Interval (range) join: each point row is matched to the interval
    of the same key with ``start_col <= ts < = end_col`` (inclusive both
    ends, inner join).

    Partitioning/semantic assumption (documented per the north rule):
    intervals of one key must be NON-OVERLAPPING (e.g. session windows)
    — then "the containing interval" is exactly "the latest interval
    starting at or before the point", i.e. an as-of match on
    ``start_col`` followed by an ``end_col >= ts`` filter, one
    vectorized sweep per partition.  For OVERLAPPING intervals use
    :func:`interval_join_overlapping` (running-max-end sweep, point ×
    every containing interval).

    Output: all point columns + all interval columns except the key.
    """
    grouped, p_arrow, i_arrow = _co_partition(
        points, intervals, key_col=key_col, num_partitions=num_partitions
    )
    p_cols = list(p_arrow.names)
    i_cols = [n for n in i_arrow.names if n != key_col]
    out_schema = pa.schema(
        [p_arrow.field(n) for n in p_cols]
        + [i_arrow.field(n) for n in i_cols]
    )
    dtypes = _pandas_dtype_map(out_schema)
    empty = pa.table(
        {f.name: pa.nulls(0, f.type) for f in out_schema}
    ).to_pandas().astype(dtypes)

    def join_partition(t: pa.Table) -> pd.DataFrame:
        side = t["_side"]
        pf = t.filter(pc.equal(side, 0)).select(p_cols).to_pandas()
        itf = (
            t.filter(pc.equal(side, 1)).select([key_col] + i_cols).to_pandas()
        )
        if not len(pf) or not len(itf):
            return empty.copy()
        pf = pf.sort_values(ts_col, kind="stable")
        itf = itf.sort_values(start_col, kind="stable")
        m = pd.merge_asof(
            pf, itf, left_on=ts_col, right_on=start_col, by=key_col,
            direction="backward",
        )
        m = m[m[end_col] >= m[ts_col]]
        m = m[p_cols + i_cols]
        for c, dt in dtypes.items():
            m[c] = m[c].astype(dt)
        return m

    return grouped.map_groups(join_partition, batch_format="pyarrow")


def _as_int64_time(v: np.ndarray):
    """View a time-like column as int64 for banding, or None if not
    representable (ints, datetime64, and integral floats qualify)."""
    if np.issubdtype(v.dtype, np.datetime64):
        return v.astype("datetime64[ns]").astype(np.int64)
    if np.issubdtype(v.dtype, np.integer):
        return v.astype(np.int64)
    if np.issubdtype(v.dtype, np.floating) and len(v):
        f = np.floor(v)
        if np.all(np.isfinite(v)) and np.all(f == v) and \
                np.all(np.abs(v) < 2**53):
            return f.astype(np.int64)
    return None


_NO_PAIRS = (np.empty(0, np.int64), np.empty(0, np.int64))


def _overlap_pairs_vectorized(pf, itf, key_col, ts_col, start_col, end_col):
    """Whole-partition overlap sweep, zero per-key Python.

    Both frames are (key, time)-sorted.  Keys map to shared ordinals;
    times are banded per key (``code × BIG + (t - tmin)``), which makes
    the interval-start array globally sorted, turns the per-key running
    max-end into a segmented cummax (banding keeps it globally
    nondecreasing), and lets ONE global searchsorted pair find every
    point's candidate range.  Returns (point_indices,
    interval_indices) or None when times aren't int64-representable
    (caller falls back to the per-key loop).
    """
    ts_raw = pf[ts_col].to_numpy()
    st_raw = itf[start_col].to_numpy()
    en_raw = itf[end_col].to_numpy()
    ts = _as_int64_time(ts_raw)
    st = _as_int64_time(st_raw)
    en = _as_int64_time(en_raw)
    if ts is None or st is None or en is None:
        return None

    # shared key ordinals (both frames sorted by key → codes ascending)
    all_keys, codes = np.unique(
        np.concatenate([pf[key_col].to_numpy(), itf[key_col].to_numpy()]),
        return_inverse=True,
    )
    p_code = codes[: len(pf)]
    i_code = codes[len(pf):]

    lo_t = min(ts.min(), st.min(), en.min())
    hi_t = max(ts.max(), st.max(), en.max())
    big = np.int64(hi_t - lo_t + 2)
    if int(big) * len(all_keys) >= np.iinfo(np.int64).max // 2:
        return None  # banding would overflow — fall back

    comp_st = i_code * big + (st - lo_t)
    cmax = np.maximum.accumulate(i_code * big + (en - lo_t)) if len(en) \
        else np.empty(0, np.int64)
    comp_ts = p_code * big + (ts - lo_t)

    # per-key slice of the interval frame
    i_first = np.searchsorted(i_code, np.arange(len(all_keys)), side="left")
    i_last = np.searchsorted(i_code, np.arange(len(all_keys)), side="right")

    j = np.searchsorted(comp_st, comp_ts, side="right")
    lo = np.searchsorted(cmax, comp_ts, side="left")
    # clamp to the point's own key slice: j already ≤ slice end (comp
    # ordering), lo can land before the slice when the previous key's
    # band tops out below the probe
    lo = np.maximum(lo, i_first[p_code])
    j = np.minimum(j, i_last[p_code])
    cnt = np.maximum(j - lo, 0)
    total = int(cnt.sum())
    if not total:
        return _NO_PAIRS
    rep_p = np.repeat(np.arange(len(ts)), cnt)
    offs = np.cumsum(cnt) - cnt
    cand = np.arange(total) - np.repeat(offs, cnt) + np.repeat(lo, cnt)
    mask = en[cand] >= ts[rep_p]
    return rep_p[mask], cand[mask]


def _overlap_pairs_by_key(pf, itf, key_col, ts_col, start_col, end_col):
    """Per-key loop fallback (arbitrary orderable time types)."""
    iv_groups = itf.groupby(key_col, sort=False).indices
    out_pi, out_ii = [], []
    for k, p_idx in pf.groupby(key_col, sort=False).indices.items():
        g_iv = iv_groups.get(k)
        if g_iv is None:
            continue
        starts = itf[start_col].to_numpy()[g_iv]
        ends = itf[end_col].to_numpy()[g_iv]
        cmax = np.maximum.accumulate(ends)
        ts = pf[ts_col].to_numpy()[p_idx]
        j = np.searchsorted(starts, ts, side="right")
        lo = np.searchsorted(cmax, ts, side="left")
        cnt = np.maximum(j - lo, 0)
        total = int(cnt.sum())
        if not total:
            continue
        rep_p = np.repeat(np.arange(len(ts)), cnt)
        offs = np.cumsum(cnt) - cnt
        cand = np.arange(total) - np.repeat(offs, cnt) + np.repeat(lo, cnt)
        mask = ends[cand] >= ts[rep_p]
        if not mask.any():
            continue
        out_pi.append(p_idx[rep_p[mask]])
        out_ii.append(g_iv[cand[mask]])
    if not out_pi:
        return _NO_PAIRS
    return np.concatenate(out_pi), np.concatenate(out_ii)


def interval_join_overlapping(points, intervals, *, key_col: str,
                              ts_col: str, start_col: str, end_col: str,
                              num_partitions: int = 64):
    """Interval join for OVERLAPPING intervals: each point row matches
    EVERY interval of its key with ``start <= ts <= end`` (inclusive,
    inner join) — the case :func:`interval_join`'s as-of reduction
    cannot express (ad-campaign windows, nested sessions; VERDICT r2
    #7).

    Per co-partitioned key: intervals sorted by start with a RUNNING
    MAX of end.  For point ts, candidates are the index range
    [first cmax ≥ ts, count of starts ≤ ts) — two ``searchsorted``
    calls — then one exact ``end >= ts`` filter over the expanded
    candidates.  All numpy (multi-range arange expansion), and — for
    integer/datetime columns — the whole PARTITION is one composite-key
    sweep: keys become ordinals, values are offset into per-key bands
    (``code × BIG + value``), the running max-end is a segmented
    cummax via the same banding, and both boundary lookups are ONE
    global ``searchsorted`` each — no per-key Python loop, so a
    partition with millions of keys costs a handful of numpy calls.
    Non-numeric time columns fall back to a per-key loop with
    identical semantics.  Output-sized work is inherent to the
    operator (a point in k intervals emits k rows).

    Output: all point columns + all interval columns except the key.
    Prefer :func:`interval_join` when intervals are known
    non-overlapping — its single merge_asof sweep does no fan-out.
    """
    grouped, p_arrow, i_arrow = _co_partition(
        points, intervals, key_col=key_col, num_partitions=num_partitions
    )
    p_cols = list(p_arrow.names)
    i_cols = [n for n in i_arrow.names if n != key_col]
    out_schema = pa.schema(
        [p_arrow.field(n) for n in p_cols]
        + [i_arrow.field(n) for n in i_cols]
    )
    dtypes = _pandas_dtype_map(out_schema)
    empty = pa.table(
        {f.name: pa.nulls(0, f.type) for f in out_schema}
    ).to_pandas().astype(dtypes)

    def join_partition(t: pa.Table) -> pd.DataFrame:
        side = t["_side"]
        pf = t.filter(pc.equal(side, 0)).select(p_cols).to_pandas()
        itf = (
            t.filter(pc.equal(side, 1)).select([key_col] + i_cols).to_pandas()
        )
        if not len(pf) or not len(itf):
            return empty.copy()
        pf = pf.sort_values([key_col, ts_col], kind="stable").reset_index(
            drop=True
        )
        itf = itf.sort_values([key_col, start_col], kind="stable").reset_index(
            drop=True
        )
        pi_ii = _overlap_pairs_vectorized(pf, itf, key_col, ts_col,
                                          start_col, end_col)
        if pi_ii is None:  # non-bandable time columns → per-key loop
            pi_ii = _overlap_pairs_by_key(pf, itf, key_col, ts_col,
                                          start_col, end_col)
        pi, ii = pi_ii
        if not len(pi):
            return empty.copy()
        m = pf.iloc[pi].reset_index(drop=True)
        for c in i_cols:
            m[c] = itf[c].to_numpy()[ii]
        m = m[p_cols + i_cols]
        for c, dt in dtypes.items():
            m[c] = m[c].astype(dt)
        return m

    return grouped.map_groups(join_partition, batch_format="pyarrow")


def hopping_counts(events, *, key_col: str = "user_id", ts_col: str = "ts",
                   window_seconds: int = 3600, hop_seconds: int = 900,
                   window_col: str = "window_start_s"):
    """Hopping (sliding) window counts per key: every event lands in
    ``window_seconds / hop_seconds`` overlapping windows whose starts
    are multiples of ``hop_seconds``.  Output: (key, window_start_s,
    n_events) — exact integer window starts, SQL-reproducible.

    Same partial-combine shape as :func:`tumbling_counts`: the k-way
    explode happens inside the batch (numpy repeat/tile, no Python
    loop) and is pre-aggregated per block, so the shuffle carries at
    most k rows per (key, window) per block — not k× the event count.

    ``window_seconds`` must be a multiple of ``hop_seconds`` (the
    standard hopping-window constraint; enforced).
    """
    if window_seconds % hop_seconds:
        raise ValueError(
            "window_seconds must be a multiple of hop_seconds "
            f"(got {window_seconds} / {hop_seconds})"
        )
    k = window_seconds // hop_seconds
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([key_col, ts_col]).to_pandas()
        secs = _epoch_seconds(df[ts_col]).to_numpy()
        keys = df[key_col].to_numpy()
        n = len(df)
        # window starts: (s//hop - i)*hop for i in 0..k-1 — every one
        # satisfies ws <= s < ws + window by construction
        base = secs // hop_seconds
        offs = np.arange(k, dtype=np.int64)
        ws = (np.repeat(base, k) - np.tile(offs, n)) * hop_seconds
        g = (
            pd.DataFrame({key_col: np.repeat(keys, k), window_col: ws})
            .groupby([key_col, window_col], as_index=False)
            .size()
            .rename(columns={"size": "_n"})
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, window_col])
        .aggregate(Sum("_n", alias_name="n_events"))
    )


def running_sum(events, *, key_col: str = "user_id",
                order_cols: list | None = None, value_col: str = "value",
                cum_col: str = "cum_value", idx_col: str = "rn",
                num_partitions: int = 64):
    """Per-key running aggregate: cumulative sum of ``value_col`` and
    1-based row index in ``order_cols`` order (the SQL
    ``SUM(...) OVER (PARTITION BY key ORDER BY ... ROWS UNBOUNDED
    PRECEDING)`` / ``row_number()`` pair).

    ``order_cols`` (default ``["s", "event_id"]``) MUST be a total
    order within each key, or the prefix sums are nondeterministic.
    ``value_col`` should be an INTEGER column when the result is
    compared across engines — float window sums have no specified
    accumulation order (DuckDB may use segment trees), so only integer
    sums are exactly reproducible.

    One hash shuffle on the key; each partition is one vectorized
    sweep: sort by (key, order), full-column cumsum, then subtract the
    running total carried in from each key's previous rows (offset =
    cumsum value just before the key's first row).  No per-key loop.
    """
    order_cols = order_cols or ["s", "event_id"]

    def add_part(t: pa.Table) -> pa.Table:
        from ..hashing import hash_bucket_array

        return t.append_column(
            "part", hash_bucket_array(t[key_col], num_partitions)
        )

    def sweep(p: pd.DataFrame) -> pd.DataFrame:
        p = p.drop(columns=["part"])
        if not len(p):
            out = p.copy()
            out[cum_col] = pd.Series([], dtype="int64")
            out[idx_col] = pd.Series([], dtype="int64")
            return out
        p = p.sort_values([key_col] + order_cols, kind="stable").reset_index(
            drop=True
        )
        keys = p[key_col].to_numpy()
        vals = p[value_col].to_numpy()
        n = len(p)
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = keys[1:] != keys[:-1]
        starts = np.flatnonzero(new_key)
        gid = np.cumsum(new_key.astype(np.int64)) - 1
        total = np.cumsum(vals)
        # offset[g] = running total just BEFORE group g's first row
        offset = np.concatenate(([0], total[starts[1:] - 1]))
        p[cum_col] = total - offset[gid]
        p[idx_col] = np.arange(n, dtype=np.int64) - starts[gid] + 1
        return p

    return (
        events.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sweep, batch_format="pandas")
    )


def funnel(events, steps: list[str], *, key_col: str = "user_id",
           ts_col: str = "ts", type_col: str = "event_type",
           num_partitions: int = 64):
    """Ordered funnel: per key, the earliest strictly-increasing
    completion of the ``steps`` event-type sequence.

    Output one row per key seen in the stream: ``(key,
    steps_completed, t1_s .. tk_s)`` — ``ti_s`` is the epoch second
    of the earliest step-i event AFTER (strict) the chosen step-(i-1)
    time, or ``-1``.  All integers, so a DuckDB twin of nested
    min-filter joins reproduces the result bit-exactly.

    One hash shuffle on the key; each partition is resolved with k
    vectorized pandas grouped-min / merge passes (no per-key loop).
    """
    step_cols = [f"t{i + 1}_s" for i in range(len(steps))]

    def add_part(t: pa.Table) -> pa.Table:
        from ..hashing import hash_bucket_array

        return t.append_column(
            "part", hash_bucket_array(t[key_col], num_partitions)
        )

    def resolve(p: pd.DataFrame) -> pd.DataFrame:
        num_cols = {"steps_completed": "int64",
                    **{c: "int64" for c in step_cols}}
        order = [key_col, "steps_completed", *step_cols]
        if not len(p):
            e = pd.DataFrame(
                {c: pd.Series([], dtype=d) for c, d in num_cols.items()}
            )
            e.insert(0, key_col,
                     pd.Series([], dtype=p[key_col].dtype))
            return e[order]
        p = p.copy()
        p["_s"] = _epoch_seconds(p[ts_col])
        out = (
            p[[key_col]].drop_duplicates().set_index(key_col).sort_index()
        )
        prev: pd.Series | None = None
        for step, col in zip(steps, step_cols):
            sub = p[p[type_col] == step]
            if prev is not None:
                # index-free lookup of the previous step's time per key
                pv = sub[key_col].map(prev)
                sub = sub[pv.notna() & (sub["_s"] > pv)]
            tk = sub.groupby(key_col)["_s"].min()
            out[col] = tk
            prev = tk
        # monotone: t_i is defined only if t_{i-1} was, so the count
        # of non-null step columns IS the furthest step reached
        out["steps_completed"] = out[step_cols].notna().sum(axis=1)
        out = out.fillna(-1).reset_index()
        return out[order].astype(num_cols)

    return (
        events.select_columns([key_col, ts_col, type_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(resolve, batch_format="pandas")
    )


def retention_cohorts(events, *, key_col: str = "user_id",
                      ts_col: str = "ts", bucket_seconds: int = 86400,
                      num_partitions: int = 64):
    """Cohort retention matrix: ``(cohort_bucket, bucket_offset,
    n_users)`` — distinct keys active ``bucket_offset`` buckets after
    their first-ever active bucket (cohort = floor-div epoch bucket of
    the key's first event).

    Per-block distinct (key, bucket) partials shrink the shuffle to
    one row per (key, bucket, block); ONE hash shuffle co-locates each
    key's buckets, so cohort assignment and offset emission are local;
    the final (cohort, offset) count is a tiny groupby because keys
    never span partitions (each key counted exactly once per offset).
    """
    from ray.data.aggregate import Sum

    from ..hashing import hash_bucket_array

    def partial(t: pa.Table) -> pa.Table:
        df = t.select([key_col, ts_col]).to_pandas()
        df["bucket"] = _epoch_seconds(df[ts_col]) // bucket_seconds
        g = df[[key_col, "bucket"]].drop_duplicates()
        out = pa.Table.from_pandas(g, preserve_index=False)
        return out.append_column(
            "part", hash_bucket_array(out[key_col], num_partitions)
        )

    def offsets(p: pd.DataFrame) -> pd.DataFrame:
        if not len(p):
            return pd.DataFrame({
                "cohort_bucket": pd.Series([], dtype="int64"),
                "bucket_offset": pd.Series([], dtype="int64"),
                "_n": pd.Series([], dtype="int64"),
            })
        p = p[[key_col, "bucket"]].drop_duplicates()
        cohort = p.groupby(key_col)["bucket"].transform("min")
        g = (
            pd.DataFrame({
                "cohort_bucket": cohort,
                "bucket_offset": p["bucket"] - cohort,
            })
            .groupby(["cohort_bucket", "bucket_offset"], as_index=False)
            .size()
            .rename(columns={"size": "_n"})
        )
        return g.astype({"cohort_bucket": "int64",
                         "bucket_offset": "int64", "_n": "int64"})

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(offsets, batch_format="pandas")
        .groupby(["cohort_bucket", "bucket_offset"])
        .aggregate(Sum("_n", alias_name="n_users"))
    )


def inter_event_gaps(events, *, key_col: str = "user_id", ts_col: str = "s",
                     num_partitions: int = 64):
    """Per-key inter-event gap statistics: ``(key, n_gaps,
    median_gap)`` over the gaps between CONSECUTIVE events in time
    order (keys with fewer than two events emit nothing).

    The sorted-diff multiset is invariant to tie order, so only the
    timestamp column orders the sweep.  Median = numpy linear
    interpolation on the sorted gaps — identical to SQL ``median()``
    over integers (mean of the two middles on even counts, exactly
    representable when timestamps are integer seconds).

    One bounded hash shuffle on the key, then a vectorized
    sort/diff/groupby-median sweep per partition (the sessionize
    shape).
    """
    from ..hashing import hash_bucket_array

    def tag(t: pa.Table) -> pa.Table:
        keys = t[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        return t.select([key_col, ts_col]).append_column(
            "part", hash_bucket_array(keys, num_partitions)
        )

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col], kind="stable")
        same_key = g[key_col].eq(g[key_col].shift())
        gaps = g[ts_col].diff()
        d = pd.DataFrame({key_col: g[key_col], "gap": gaps})[same_key]
        if not len(d):
            return pd.DataFrame(
                {key_col: pd.Series([], dtype=g[key_col].dtype),
                 "n_gaps": pd.Series([], dtype="int64"),
                 "median_gap": pd.Series([], dtype="float64")}
            )
        out = d.groupby(key_col, sort=False)["gap"].agg(
            n_gaps="size", median_gap="median"
        ).reset_index()
        out["n_gaps"] = out["n_gaps"].astype("int64")
        out["median_gap"] = out["median_gap"].astype("float64")
        return out

    return (
        events.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sweep, batch_format="pandas")
    )


def pivot_counts(events, *, key_col: str = "user_id",
                 type_col: str = "event_type", types: list[str]):
    """Per-key event counts PIVOTED into one column per type
    (``n_<type>``) plus ``n_total`` — the wide-format behavioral
    feature table.

    Scale shape: the pivot happens inside each block (one boolean
    compare per type — vectorized, no row loop, no per-type pass over
    the data), the block is pre-aggregated to per-key partials, and
    the only shuffle is ONE hash groupby over the key with integer
    Sum merges.  Types must be a bounded, known list (the oracle needs
    fixed columns); events of unlisted types still count in n_total.

    Output: (key_col, n_<type>..., n_total).
    """
    from ray.data.aggregate import Sum

    cols = [f"n_{t}" for t in types]

    def partial(t: pa.Table) -> pa.Table:
        flat = {key_col: t[key_col]}
        for ty, c in zip(types, cols):
            flat[c] = pc.cast(pc.equal(t[type_col], ty), pa.int64())
        flat["n_total"] = pa.array([1] * t.num_rows, pa.int64())
        ft = pa.table(flat)
        g = ft.group_by(key_col).aggregate(
            [(c, "sum") for c in cols + ["n_total"]]
        )
        return g.rename_columns(
            [c[:-4] if c.endswith("_sum") else c for c in g.column_names]
        )

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(*[Sum(c, alias_name=c) for c in cols + ["n_total"]])
    )


def transition_counts(events, *, key_col: str = "user_id",
                      ts_col: str = "ts", type_col: str = "event_type",
                      order_col: str = "event_id",
                      num_partitions: int = 64):
    """Markov transition matrix of per-key event sequences: how often
    does type A immediately precede type B for the same key, in
    (ts, order_col) order.

    Scale shape: one bounded hash shuffle on the key (each partition
    holds ALL events of its keys), then a single vectorized sweep per
    partition — sort, shift-compare against the previous row, mask
    cross-key boundaries, C-speed pair groupby.  Per-partition output
    is the bounded (|types|²) partial count table; the final merge is
    one tiny task, not a second shuffle.

    Output: (event_type, next_type, n) — SQL twin is
    ``lead() OVER (PARTITION BY key ORDER BY ts, order)``.
    """
    from ..hashing import hash_bucket_array

    def tag(t: pa.Table) -> pa.Table:
        keys = t[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        return t.select([key_col, ts_col, type_col, order_col]).append_column(
            "part", hash_bucket_array(keys, num_partitions)
        )

    empty = pd.DataFrame({
        "event_type": pd.Series([], dtype="object"),
        "next_type": pd.Series([], dtype="object"),
        "n": pd.Series([], dtype="int64"),
    })

    def sweep(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return empty.copy()
        g = g.sort_values([key_col, ts_col, order_col], kind="stable")
        same_key = g[key_col].eq(g[key_col].shift(-1)).to_numpy()
        cur = g[type_col].to_numpy()
        nxt = np.roll(cur, -1)
        d = pd.DataFrame({"event_type": cur[same_key],
                          "next_type": nxt[same_key]})
        if not len(d):
            return empty.copy()
        out = d.groupby(["event_type", "next_type"], sort=False).size()
        out = out.reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    partials = (
        events.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sweep, batch_format="pandas")
    )

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by(["event_type", "next_type"]).aggregate([("n", "sum")])
        return g.rename_columns(
            ["n" if c == "n_sum" else c for c in g.column_names]
        )

    return partials.repartition(1, shuffle=False).map_batches(
        merge, batch_format="pyarrow"
    )


def json_int_field_stats(events, *, props_col: str = "props",
                         field: str = "k",
                         group_col: str = "event_type"):
    """Per-group stats (n / sum / min / max) of an integer field
    extracted from a flat-JSON string column — the semi-structured
    log-processing shape.

    Extraction is the Arrow RE2 kernel ``extract_regex`` (compiled
    once per process, no Python row loop): for flat ``{"k": 123}``
    payloads the regex equals a JSON parse; nested/escaped payloads
    would need a real parser behind the same interface.  Rows without
    the field keep a null and drop out of the stats, matching SQL
    ``json_extract`` semantics.  Per-block bounded partials (groups ≤
    event-type cardinality) merge in one tiny task — no shuffle of
    the events themselves.

    Output: (group_col, n, sum_v, min_v, max_v).
    """
    import re as _re

    # field is escaped (it lands inside an RE2 pattern), and a float
    # value like `"k": 12.5` must yield NULL, not a truncated 12.  RE2
    # has no lookahead, so capture the one character after the digit
    # run (greedy \d+ consumes all digits, leaving only `.`/`e`/`E`
    # as float markers) and invalidate the match when it is non-empty.
    pattern = rf'"{_re.escape(field)}":\s*(?P<v>-?\d+)(?P<tail>[.eE]?)'

    def partial(t: pa.Table) -> pa.Table:
        ext = pc.extract_regex(t[props_col], pattern)
        raw = pc.struct_field(ext, "v")
        is_int = pc.equal(pc.struct_field(ext, "tail"), "")
        v = pc.cast(
            pc.if_else(pc.fill_null(is_int, False), raw, None),
            pa.int64(),
        )
        flat = pa.table({
            group_col: t[group_col],
            "n": pc.cast(pc.is_valid(v), pa.int64()),
            "sum_v": pc.if_else(pc.is_valid(v), v, pa.scalar(0, pa.int64())),
            "min_v": v,
            "max_v": v,
        })
        g = flat.group_by(group_col).aggregate(
            [("n", "sum"), ("sum_v", "sum"), ("min_v", "min"),
             ("max_v", "max")]
        )
        return g.rename_columns([
            c[:-4] if c.endswith(("_sum", "_min", "_max")) else c
            for c in g.column_names
        ])

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by(group_col).aggregate(
            [("n", "sum"), ("sum_v", "sum"), ("min_v", "min"),
             ("max_v", "max")]
        )
        return g.rename_columns([
            c[:-4] if c.endswith(("_sum", "_min", "_max")) else c
            for c in g.column_names
        ])

    return (
        events.map_batches(partial, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(merge, batch_format="pyarrow")
    )


def last_touch_attribution(events, *, key_col: str = "user_id",
                           ts_col: str = "ts", id_col: str = "event_id",
                           type_col: str = "event_type",
                           conversion: str = "purchase",
                           touches: tuple = ("click", "signup", "view"),
                           num_partitions: int = 64):
    """Last-touch marketing attribution: every ``conversion`` event is
    credited to the most recent PRECEDING touch event (any type in
    ``touches``) of the same user; conversions with no prior touch are
    credited to ``'none'``.

    SQL twin: ``last_value(touch IGNORE NULLS) OVER (PARTITION BY user
    ORDER BY ts, event_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1
    PRECEDING)``.  One bounded hash shuffle by user, then ONE
    vectorized numpy sweep per partition (segmented max-accumulate of
    touch positions — no per-user Python loop), then bounded-key count
    partials merged in a single tiny task (≤ len(touches)+1 groups).

    Output: (touch, n_purchases), one row per credited touch type.
    """
    touch_list = list(touches)

    def add_part(t: pa.Table) -> pa.Table:
        from ..hashing import hash_bucket_array

        return t.append_column(
            "part", hash_bucket_array(t[key_col], num_partitions)
        )

    def attribute_partition(p: pd.DataFrame) -> pd.DataFrame:
        if not len(p):
            return pd.DataFrame({
                "touch": pd.Series([], dtype="object"),
                "n_purchases": pd.Series([], dtype="int64"),
            })
        p = p.sort_values([key_col, ts_col, id_col], kind="stable")
        keys = p[key_col].to_numpy()
        vals = p[type_col].to_numpy()
        n = len(p)
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = keys[1:] != keys[:-1]
        # position of the last touch at-or-before each row WITHIN its
        # key segment: running max of touch positions, gated by the
        # segment start (both nondecreasing, so the compare is exact)
        is_touch = np.isin(vals, touch_list)
        pos = np.where(is_touch, np.arange(n), -1)
        seg_start = np.maximum.accumulate(
            np.where(new_key, np.arange(n), 0)
        )
        run = np.maximum.accumulate(pos)
        at_or_before = np.where(run >= seg_start, run, -1)
        # strictly-before = the previous row's at-or-before (same
        # segment), -1 at segment starts
        prev = np.concatenate(([-1], at_or_before[:-1]))
        prev = np.where(new_key, -1, prev)
        conv = vals == conversion
        credited = prev[conv]
        labels = np.where(
            credited >= 0,
            vals[np.clip(credited, 0, None)],
            "none",
        )
        out = (
            pd.Series(labels)
            .value_counts()
            .rename_axis("touch")
            .reset_index(name="n_purchases")
        )
        return out.astype({"touch": "object", "n_purchases": "int64"})

    def merge(t: pa.Table) -> pa.Table:
        if "touch" not in t.column_names:
            # all partitions were purchase-free: Ray drops the schema
            # of an all-empty lineage — restore the contract type
            return pa.table({
                "touch": pa.array([], pa.string()),
                "n_purchases": pa.array([], pa.int64()),
            })
        g = t.group_by("touch").aggregate([("n_purchases", "sum")])
        return g.rename_columns([
            "n_purchases" if c == "n_purchases_sum" else c
            for c in g.column_names
        ])

    return (
        events.select_columns([key_col, ts_col, id_col, type_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(attribute_partition, batch_format="pandas")
        .repartition(1, shuffle=False)
        .map_batches(merge, batch_format="pyarrow")
    )


def new_user_counts(events, *, key_col: str = "user_id",
                    ts_col: str = "ts"):
    """Per-day new-user counts + running cumulative total (growth
    accounting over an append-only event log).

    Scale shape: per-block (user → min epoch) partials first, so the
    per-user shuffle moves ≤ one row per (block, user); the per-day
    reduction is bounded (calendar days), merged + cumsum'd in one
    tiny final task — the cumulative sum never touches a window shuffle.

    Output: (day [yyyymmdd int], new_users, cum_users) in day order.
    """

    def first_partial(t: pa.Table) -> pa.Table:
        # normalize the unit first: pandas-sourced tables are ns,
        # parquet testdata is us — the int64 epoch must be micros
        flat = pa.table({
            key_col: t[key_col],
            "first_us": pc.cast(
                pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()
            ),
        })
        g = flat.group_by(key_col).aggregate([("first_us", "min")])
        return g.rename_columns([
            "first_us" if c == "first_us_min" else c
            for c in g.column_names
        ])

    from ray.data.aggregate import Min

    firsts = (
        events.select_columns([key_col, ts_col])
        .map_batches(first_partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Min("first_us", alias_name="first_us"))
    )

    def day_partial(t: pa.Table) -> pa.Table:
        ts = pc.cast(t["first_us"], pa.timestamp("us"))
        day = pc.add(
            pc.add(
                pc.multiply(pc.cast(pc.year(ts), pa.int64()), 10000),
                pc.multiply(pc.cast(pc.month(ts), pa.int64()), 100),
            ),
            pc.cast(pc.day(ts), pa.int64()),
        )
        g = (
            pa.table({"day": day})
            .group_by("day")
            .aggregate([([], "count_all")])
        )
        return g.rename_columns([
            "new_users" if c == "count_all" else c for c in g.column_names
        ])

    def merge_cum(t: pa.Table) -> pa.Table:
        g = t.group_by("day").aggregate([("new_users", "sum")])
        g = g.rename_columns([
            "new_users" if c == "new_users_sum" else c
            for c in g.column_names
        ]).sort_by("day")
        cum = np.cumsum(g["new_users"].to_numpy())
        return g.append_column("cum_users", pa.array(cum, pa.int64()))

    return (
        firsts.map_batches(day_partial, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(merge_cum, batch_format="pyarrow")
    )


def type_user_overlap(events, *, key_col: str = "user_id",
                      type_col: str = "event_type",
                      num_partitions: int = 64):
    """Jaccard overlap between the DISTINCT-user sets of every pair of
    event types — audience-similarity for bounded categorical columns.

    One hash shuffle by user; each partition reduces its users to
    distinct (user, type) pairs and emits BOTH pair-intersection
    partials (self-merge per user — per-user fan-out is bounded by the
    type cardinality, never by event count) and per-type distinct-user
    partials, as one tagged table; the final task (bounded by |types|²
    rows) resolves counts and the Jaccard double with the exact
    expression shape of the SQL twin.  Pairs with an empty
    intersection are not emitted (inner-join semantics).

    Output: (type_a, type_b [a < b], n_a, n_b, n_both, jaccard).
    """

    def add_part(t: pa.Table) -> pa.Table:
        from ..hashing import hash_bucket_array

        return t.append_column(
            "part", hash_bucket_array(t[key_col], num_partitions)
        )

    def partition_partials(p: pd.DataFrame) -> pd.DataFrame:
        if not len(p):
            return pd.DataFrame({
                "type_a": pd.Series([], dtype="object"),
                "type_b": pd.Series([], dtype="object"),
                "is_total": pd.Series([], dtype="int64"),
                "n": pd.Series([], dtype="int64"),
            })
        d = p[[key_col, type_col]].drop_duplicates()
        # intersections: per-user self merge (bounded fan-out)
        m = d.merge(d, on=key_col, suffixes=("_a", "_b"))
        m = m[m[f"{type_col}_a"] < m[f"{type_col}_b"]]
        pairs = (
            m.groupby([f"{type_col}_a", f"{type_col}_b"])
            .size().rename("n").reset_index()
            .rename(columns={f"{type_col}_a": "type_a",
                             f"{type_col}_b": "type_b"})
        )
        pairs["is_total"] = 0
        # per-type distinct users, tagged by a DEDICATED marker column
        # (is_total=1), never by a sentinel type_b value — a real
        # empty-string event_type must not collide with the marker
        singles = (
            d.groupby(type_col).size().rename("n").reset_index()
            .rename(columns={type_col: "type_a"})
        )
        singles["type_b"] = singles["type_a"]
        singles["is_total"] = 1
        out = pd.concat(
            [pairs[["type_a", "type_b", "is_total", "n"]],
             singles[["type_a", "type_b", "is_total", "n"]]],
            ignore_index=True,
        )
        return out.astype({"type_a": "object", "type_b": "object",
                           "is_total": "int64", "n": "int64"})

    def finish(t: pa.Table) -> pa.Table:
        if "type_a" not in t.column_names:
            # schema restore for an all-empty lineage (see merge above)
            return pa.table({
                "type_a": pa.array([], pa.string()),
                "type_b": pa.array([], pa.string()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "n_both": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            })
        g = t.group_by(["type_a", "type_b", "is_total"]).aggregate(
            [("n", "sum")]
        )
        df = g.to_pandas().rename(columns={"n_sum": "n"})
        totals = (
            df[df["is_total"] == 1]
            .set_index("type_a")["n"].to_dict()
        )
        pairs = df[df["is_total"] == 0].copy()
        pairs["n_a"] = pairs["type_a"].map(totals).astype("int64")
        pairs["n_b"] = pairs["type_b"].map(totals).astype("int64")
        pairs = pairs.rename(columns={"n": "n_both"})
        union = pairs["n_a"] + pairs["n_b"] - pairs["n_both"]
        pairs["jaccard"] = (
            pairs["n_both"].astype("float64") / union.astype("float64")
        )
        return pa.Table.from_pandas(
            pairs[["type_a", "type_b", "n_a", "n_b", "n_both",
                   "jaccard"]],
            preserve_index=False,
        )

    return (
        events.select_columns([key_col, type_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(partition_partials, batch_format="pandas")
        .repartition(1, shuffle=False)
        .map_batches(finish, batch_format="pyarrow")
    )


def _expected_micro(df: "pd.DataFrame", type_col: str) -> "pd.Series":
    """Exact ``row_total * col_total * 1e6 // n`` for a merged
    (type, hour, observed) contingency table.

    The marginal product wraps int64 once it passes ~9.2e12 (reachable
    around tens of millions of events with a skewed type/hour
    distribution), so the product is taken in PYTHON ints — the table
    is bounded by |types| × 24 rows, so the scalar loop is O(groups),
    not O(events), and the bit-reproducibility claim holds at any
    event count whose expected counts fit int64 micros.
    """
    row_tot = df.groupby(type_col)["observed"].transform("sum")
    col_tot = df.groupby("hour")["observed"].transform("sum")
    n = int(df["observed"].sum())
    return pd.array(
        [(int(r) * int(c) * 1_000_000) // n
         for r, c in zip(row_tot, col_tot)],
        dtype="int64",
    )


def contingency_expected(events, *, type_col: str = "event_type",
                         ts_col: str = "ts"):
    """Observed vs independence-expected counts for the
    (event type × hour-of-day) contingency table — the exact-integer
    core of a chi-square independence test.

    ``expected_micro = row_total * col_total * 1e6 // n`` is an exact
    int64 floor division (no doubles anywhere), so the table is
    bit-reproducible and the SQL twin matches row-for-row; the caller
    derives chi² from (observed, expected) as a final driver-side
    fold.  Per-block partials are bounded (|types| × 24), merged in
    one tiny task that also resolves the marginals.

    Output: (event_type, hour, observed, expected_micro).
    """

    def partial(t: pa.Table) -> pa.Table:
        flat = pa.table({
            type_col: t[type_col],
            "hour": pc.cast(
                pc.hour(pc.cast(t[ts_col], pa.timestamp("us"))),
                pa.int64(),
            ),
        })
        g = flat.group_by([type_col, "hour"]).aggregate(
            [([], "count_all")]
        )
        return g.rename_columns([
            "observed" if c == "count_all" else c for c in g.column_names
        ])

    def finish(t: pa.Table) -> pa.Table:
        g = t.group_by([type_col, "hour"]).aggregate(
            [("observed", "sum")]
        )
        df = g.to_pandas().rename(columns={"observed_sum": "observed"})
        df["expected_micro"] = _expected_micro(df, type_col)
        return pa.Table.from_pandas(
            df[[type_col, "hour", "observed", "expected_micro"]],
            preserve_index=False,
        )

    return (
        events.select_columns([type_col, ts_col])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(finish, batch_format="pyarrow")
    )


def user_lifespans(events, *, key_col: str = "user_id",
                   ts_col: str = "ts"):
    """Per-user lifespan in whole seconds (last event − first event,
    integer epoch floor) — the input to retention/engagement
    distribution statistics.

    Per-block (user → min/max epoch) partials, one per-user groupby;
    shuffle volume ≤ one row per (block, user).
    Output: (key_col, lifespan_s).
    """
    from ray.data.aggregate import Max, Min

    def partial(t: pa.Table) -> pa.Table:
        s = pc.divide(
            pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()),
            1_000_000,
        )
        flat = pa.table({key_col: t[key_col], "lo": s, "hi": s})
        g = flat.group_by(key_col).aggregate(
            [("lo", "min"), ("hi", "max")]
        )
        return g.rename_columns([
            {"lo_min": "lo", "hi_max": "hi"}.get(c, c)
            for c in g.column_names
        ])

    spans = (
        events.select_columns([key_col, ts_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Min("lo", alias_name="lo"), Max("hi", alias_name="hi"))
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            key_col: t[key_col],
            "lifespan_s": pc.subtract(t["hi"], t["lo"]),
        })

    return spans.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Incremental sessionization: a persisted session store that absorbs
# late-arriving event batches with work ∝ delta, not corpus
# ---------------------------------------------------------------------------


def _session_merge_sweep(p: pd.DataFrame, key_col: str,
                         gap_s: int) -> pd.DataFrame:
    """One vectorized sweep merging interval rows (start_s, end_s, n)
    of a partition into gap-separated sessions with 1-based per-key
    indices.  Inputs may overlap/nest (an old session plus a late
    event inside it); a running max of end times makes the break test
    correct for that case."""
    p = p.sort_values([key_col, "start_s", "end_s"], kind="stable")
    keys = p[key_col].to_numpy()
    start = p["start_s"].to_numpy()
    end = p["end_s"].to_numpy()
    n = len(p)
    new_key = np.ones(n, dtype=bool)
    new_key[1:] = keys[1:] != keys[:-1]
    # running max of end within key (grouped cummax — no offset trick,
    # so epoch seconds can't overflow on any partition size)
    run_end = (
        pd.Series(end).groupby(pd.Series(keys), sort=False)
        .cummax().to_numpy()
    )
    prev_end = np.concatenate(([0], run_end[:-1]))
    brk = new_key.copy()
    brk[1:] |= start[1:] - prev_end[1:] > gap_s
    sg = np.cumsum(brk.astype(np.int64))
    key_first = np.maximum.accumulate(np.where(new_key, sg, 0))
    sidx = sg - key_first + 1
    # contiguous-run reduction (see sessionize): start = first row's
    # start (start-sorted), end = the running max at the run's last
    # row (intervals may nest), n_events via one add.reduceat
    starts_i = np.flatnonzero(brk)
    ends_i = np.append(starts_i[1:], n)
    n_ev = np.add.reduceat(
        p["n_events"].to_numpy().astype(np.int64), starts_i
    )
    return pd.DataFrame({
        key_col: keys[starts_i],
        "session_idx": sidx[starts_i].astype(np.int64),
        "n_events": n_ev,
        "start_s": start[starts_i].astype(np.int64),
        "end_s": run_end[ends_i - 1].astype(np.int64),
    })


_SESSIONS_MANIFEST = "_SESSIONS_MANIFEST.json"
_SESSIONS_REBUILD = "sessionize_update on an empty base_dir"


def sessionize_update(base_dir: str, new_events, *,
                      key_col: str = "user_id", ts_col: str = "ts",
                      gap_minutes: int = 30,
                      num_partitions: int = 64) -> dict:
    """Absorb a batch of (possibly late-arriving) events into a
    persisted session store, touching ONLY the key-hash buckets the
    batch mentions — the streaming-sessionization contract on a batch
    engine: work and I/O ∝ delta keys, never corpus.

    Store layout: ``{base_dir}/sessions/g<gen>-<b>.parquet`` (one
    summary table per bucket; at 10^12 events a bucket would shard
    further — the merge is associative so nothing changes) plus
    ``_SESSIONS_MANIFEST.json`` pinning (gap, buckets, columns) and
    listing the live files.  Adding events can only EXTEND or MERGE
    sessions, never split them, so stored (start_s, end_s, n_events)
    summaries are a sufficient statistic: each update unions affected
    buckets' summaries with the delta's single-event intervals and
    re-runs one vectorized merge sweep per bucket.  The rewritten
    buckets go live together through
    :func:`..state.publish.rewrite_buckets` (new files, then the
    manifest swap), so a crash leaves the old store or the new one.

    Returns {"buckets_touched": int, "rows_written": int}.
    """
    from ..hashing import hash_bucket_array
    from ..state import publish

    gap_s = gap_minutes * 60

    def delta_rows(t: pa.Table) -> pa.Table:
        sec = pc.divide(
            pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()),
            1_000_000,
        )
        return pa.table({
            key_col: t[key_col],
            "start_s": sec,
            "end_s": sec,
            "n_events": pa.array(
                np.ones(t.num_rows, dtype=np.int64)
            ),
        })

    return publish.rewrite_buckets(
        base_dir, _SESSIONS_MANIFEST,
        {"gap_minutes": gap_minutes, "num_partitions": num_partitions,
         "key_col": key_col},
        new_events.select_columns([key_col, ts_col]).map_batches(
            delta_rows, batch_format="pyarrow"),
        table="sessions", cols=[key_col, "start_s", "end_s", "n_events"],
        bucket_of=lambda t: hash_bucket_array(t[key_col], num_partitions),
        merge=lambda p: _session_merge_sweep(p, key_col, gap_s),
        rebuild=_SESSIONS_REBUILD)


def read_sessions(base_dir: str):
    """Read the full persisted session store as a Dataset with the
    same schema as :func:`sessionize` output."""
    import ray.data as rd

    from ..state import publish

    man = publish.load(base_dir, _SESSIONS_MANIFEST, _SESSIONS_REBUILD)
    return rd.read_parquet(publish.paths(base_dir, man, "sessions"),
                           partitioning=None)


def conversion_lag(events, *, from_type: str = "signup",
                   to_type: str = "purchase", key_col: str = "user_id",
                   ts_col: str = "ts", type_col: str = "event_type",
                   quantiles=(0.5, 0.9), num_partitions: int = 64):
    """Funnel timing: for each user, the lag between their FIRST
    ``from_type`` event and the first ``to_type`` event at-or-after
    it; reported as conversion counts + exact discrete lag quantiles.

    One hash shuffle of the two relevant event types only (the filter
    prunes before the exchange); each partition resolves its users
    with one vectorized sweep (first-from via grouped min, first-to-
    after via a sorted searchsorted per partition frame); the lag
    distribution reduces through the exact value-histogram (quantile
    exchange is O(distinct lags)).

    Output: one row (n_from_users, n_converted,
    lag_p<q> [seconds] per requested quantile — null when nobody
    converts).
    """
    import pandas as pd

    from ..hashing import hash_bucket_array
    from .sketch import exact_int_quantiles

    def keep(t: pa.Table) -> pa.Table:
        m = pc.or_(
            pc.equal(t[type_col], from_type),
            pc.equal(t[type_col], to_type),
        )
        t = t.filter(m)
        sec = pc.divide(
            pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()),
            1_000_000,
        )
        out = pa.table({
            key_col: t[key_col],
            "sec": sec,
            "is_from": pc.equal(t[type_col], from_type),
        })
        return out.append_column(
            "part", hash_bucket_array(out[key_col], num_partitions)
        )

    def lags_partition(p: pd.DataFrame) -> pd.DataFrame:
        if not len(p):
            return pd.DataFrame({
                "gap": pd.Series([], dtype="int64"),
                "is_from_user": pd.Series([], dtype="int64"),
            })
        f = p[p["is_from"]]
        if not len(f):
            return pd.DataFrame({
                "gap": pd.Series([], dtype="int64"),
                "is_from_user": pd.Series([], dtype="int64"),
            })
        s0 = (
            f.groupby(key_col)["sec"].min().rename("s0").reset_index()
        )
        t = p[~p["is_from"]].merge(s0, on=key_col)
        t = t[t["sec"] >= t["s0"]]
        g2 = t.groupby(key_col).agg(
            p0=("sec", "min"), s0=("s0", "first")
        )
        gaps = (g2["p0"] - g2["s0"]).astype("int64")
        out = pd.DataFrame({
            "gap": gaps.to_numpy(),
            "is_from_user": np.zeros(len(gaps), dtype=np.int64),
        })
        # one marker row per from-user so the caller can count them
        # without a second pass
        marker = pd.DataFrame({
            "gap": np.full(len(s0), -1, dtype=np.int64),
            "is_from_user": np.ones(len(s0), dtype=np.int64),
        })
        return pd.concat([out, marker], ignore_index=True)

    rows = (
        events.select_columns([key_col, ts_col, type_col])
        .map_batches(keep, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lags_partition, batch_format="pandas")
    ).materialize()  # consumed twice below (counts + quantiles); the
    # pinned table is one row per from-user/conversion — ≪ events

    import pyarrow.compute as _pc

    def counts(t: pa.Table) -> pa.Table:
        return pa.table({
            "n_from": pa.array(
                [_pc.sum(t["is_from_user"]).as_py() or 0], pa.int64()
            ),
            "n_conv": pa.array(
                [int(t.num_rows
                     - (_pc.sum(t["is_from_user"]).as_py() or 0))],
                pa.int64(),
            ),
        })

    merged = (
        rows.map_batches(counts, batch_format="pyarrow")
        .repartition(1, shuffle=False)
        .map_batches(
            lambda t: pa.table({
                "n_from": pa.array(
                    [_pc.sum(t["n_from"]).as_py() or 0], pa.int64()
                ),
                "n_conv": pa.array(
                    [_pc.sum(t["n_conv"]).as_py() or 0], pa.int64()
                ),
            }),
            batch_format="pyarrow",
        )
        .take_all()
    )[0]
    n_from, n_conv = int(merged["n_from"]), int(merged["n_conv"])

    data = {"n_from_users": [n_from], "n_converted": [n_conv]}
    if n_conv:
        gaps_only = rows.map_batches(
            lambda t: t.filter(
                _pc.equal(t["is_from_user"], pa.scalar(0, pa.int64()))
            ),
            batch_format="pyarrow",
        )
        vals = exact_int_quantiles(gaps_only, "gap", list(quantiles))
        for q, v in zip(quantiles, vals):
            data[f"lag_p{int(q * 100)}"] = [v]
    else:
        for q in quantiles:
            data[f"lag_p{int(q * 100)}"] = [None]
    return pd.DataFrame(data)


def top_session_paths(events, *, key_col: str = "user_id",
                      ts_col: str = "ts", id_col: str = "event_id",
                      type_col: str = "event_type",
                      gap_minutes: int = 30, prefix_len: int = 3,
                      k: int = 15, num_partitions: int = 64):
    """Clickstream path mining: the top-k session-opening paths — the
    first ``prefix_len`` event types of each session joined with
    ``'>'`` — with counts.

    One hash shuffle by user; each partition re-runs the sessionize
    break sweep, takes each session's first ``prefix_len`` rows with
    a vectorized in-session rank (cumcount), and folds to path-count
    partials; the path space is bounded (|types|^prefix_len), so the
    final merge + top-k is one tiny task.  Ties in the opening order
    resolve by (ts, event_id) — the same total order the SQL twin
    spells.

    Output: (path, n_sessions), count desc, path asc on ties.
    """
    import pandas as pd

    from ..hashing import hash_bucket_array

    gap_s = gap_minutes * 60

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", hash_bucket_array(t[key_col], num_partitions)
        )

    def paths_partition(p: pd.DataFrame) -> pd.DataFrame:
        if not len(p):
            return pd.DataFrame({
                "path": pd.Series([], dtype="object"),
                "n_sessions": pd.Series([], dtype="int64"),
            })
        p = p.sort_values([key_col, ts_col, id_col], kind="stable")
        keys = p[key_col].to_numpy()
        secs = _epoch_seconds(p[ts_col]).to_numpy()
        n = len(p)
        new_key = np.ones(n, dtype=bool)
        new_key[1:] = keys[1:] != keys[:-1]
        brk = new_key.copy()
        brk[1:] |= secs[1:] - secs[:-1] > gap_s
        sg = np.cumsum(brk.astype(np.int64))
        # in-session rank via cumcount over the session id
        rank = (
            pd.Series(np.ones(n, dtype=np.int64))
            .groupby(pd.Series(sg), sort=False).cumsum().to_numpy()
        )
        d = pd.DataFrame({
            "_sg": sg,
            "t": p[type_col].to_numpy(),
        })[rank <= prefix_len]
        paths = (
            d.groupby("_sg", sort=False)["t"]
            .agg(">".join)
            .value_counts()
            .rename_axis("path")
            .reset_index(name="n_sessions")
        )
        return paths.astype({"path": "object", "n_sessions": "int64"})

    def merge_topk(t: pa.Table) -> pa.Table:
        if "path" not in t.column_names:
            return pa.table({
                "path": pa.array([], pa.string()),
                "n_sessions": pa.array([], pa.int64()),
            })
        g = t.group_by("path").aggregate([("n_sessions", "sum")])
        g = g.rename_columns([
            "n_sessions" if c == "n_sessions_sum" else c
            for c in g.column_names
        ])
        return g.sort_by([
            ("n_sessions", "descending"), ("path", "ascending"),
        ]).slice(0, k)

    return (
        events.select_columns([key_col, ts_col, id_col, type_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(paths_partition, batch_format="pandas")
        .repartition(1, shuffle=False)
        .map_batches(merge_topk, batch_format="pyarrow",
                     batch_size=None)
    )


def linear_attribution(events, *, key_col: str = "user_id",
                       ts_col: str = "ts", id_col: str = "event_id",
                       type_col: str = "event_type",
                       conversion: str = "purchase",
                       touches: tuple = ("click", "signup", "view"),
                       num_partitions: int = 64):
    """Linear multi-touch attribution: every conversion's credit is
    split EQUALLY across all prior touch events of the user; a
    conversion with no prior touch credits ``'none'``.

    Exactness: the per-touch share is ``floor(1e6 / n_prior)`` micro
    credits (the ≤ n_prior−1 leftover micros per conversion are
    deliberately unassigned — integer splitting is associative and
    bit-reproducible where double division is not; the SQL twin
    spells the same floor).  One hash shuffle; per partition the
    prior-touch counts come from shifted cumulative sums per type —
    vectorized, no per-event loop; the credit table is bounded
    (|touches|+1 rows), merged in one tiny task.

    Output: (touch, credit_micro).
    """
    import pandas as pd

    from ..hashing import hash_bucket_array

    touch_list = list(touches)

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", hash_bucket_array(t[key_col], num_partitions)
        )

    def credit_partition(p: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "touch": pd.Series([], dtype="object"),
            "credit_micro": pd.Series([], dtype="int64"),
        })
        if not len(p):
            return empty
        p = p.sort_values([key_col, ts_col, id_col], kind="stable")
        keys = pd.Series(p[key_col].to_numpy())
        vals = p[type_col].to_numpy()
        conv = vals == conversion
        if not conv.any():
            return empty
        # per-type prior counts: grouped cumsum shifted by one row
        prior = {}
        for tt in touch_list:
            ind = pd.Series((vals == tt).astype(np.int64))
            cum = ind.groupby(keys, sort=False).cumsum()
            prior[tt] = (
                (cum - ind).to_numpy()  # strictly-before count
            )
        n_prior = np.zeros(len(p), dtype=np.int64)
        for tt in touch_list:
            n_prior += prior[tt]
        rows = []
        cmask = conv & (n_prior > 0)
        if cmask.any():
            share = 1_000_000 // n_prior[cmask]
            for tt in touch_list:
                credit = int((share * prior[tt][cmask]).sum())
                if credit:
                    rows.append((tt, credit))
        none_n = int((conv & (n_prior == 0)).sum())
        if none_n:
            rows.append(("none", none_n * 1_000_000))
        if not rows:
            return empty
        out = pd.DataFrame(rows, columns=["touch", "credit_micro"])
        return out.astype({"touch": "object",
                           "credit_micro": "int64"})

    def merge(t: pa.Table) -> pa.Table:
        if "touch" not in t.column_names:
            return pa.table({
                "touch": pa.array([], pa.string()),
                "credit_micro": pa.array([], pa.int64()),
            })
        g = t.group_by("touch").aggregate([("credit_micro", "sum")])
        return g.rename_columns([
            "credit_micro" if c == "credit_micro_sum" else c
            for c in g.column_names
        ])

    return (
        events.select_columns([key_col, ts_col, id_col, type_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(credit_partition, batch_format="pandas")
        .repartition(1, shuffle=False)
        .map_batches(merge, batch_format="pyarrow")
    )


def debounce(events, *, key_col: str = "user_id",
             type_col: str = "event_type", ts_col: str = "ts",
             id_col: str = "event_id", window_seconds: int = 5,
             num_partitions: int = 64):
    """Throttle-style stream dedup: drop an event when the SAME
    (key, type) fired within ``window_seconds`` before it — the
    standard debounce for double-clicks / retry storms.

    Semantics are "gap from the previous occurrence" (the SQL
    ``lag()`` form — vectorizable as one diff per partition), not
    "gap from the previous KEPT event" (a sequential chain no engine
    expresses in a window function).  One hash shuffle on the key;
    each partition is one sort + diff sweep.

    Output: the surviving events' (id_col, key_col, type_col) rows.
    """
    import pandas as pd

    from ..hashing import hash_bucket_array

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", hash_bucket_array(t[key_col], num_partitions)
        )

    def keep_partition(t: pa.Table) -> pa.Table:
        # pure Arrow: the pandas round trip (object-dtype strings both
        # ways) dominated this output-heavy op at 4M events
        n = t.num_rows
        if not n:
            return t.select([id_col, key_col, type_col])
        t = t.sort_by([(key_col, "ascending"), (type_col, "ascending"),
                       (ts_col, "ascending"), (id_col, "ascending")])
        keys = t[key_col].combine_chunks()
        typs = t[type_col].combine_chunks()
        secs = pc.divide(
            pc.cast(pc.cast(t[ts_col], pa.timestamp("us")), pa.int64()),
            1_000_000,
        ).combine_chunks()
        same = pc.and_(
            pc.equal(keys.slice(1), keys.slice(0, n - 1)),
            pc.equal(typs.slice(1), typs.slice(0, n - 1)),
        )
        gap_ok = pc.greater(
            pc.subtract(secs.slice(1), secs.slice(0, n - 1)),
            pa.scalar(window_seconds, pa.int64()),
        )
        rest = pc.or_(pc.invert(same), gap_ok)
        keep = pa.chunked_array([
            pa.array([True]), *rest.combine_chunks().chunks
        ] if isinstance(rest, pa.ChunkedArray) else
            [pa.array([True]), rest])
        return t.filter(keep).select([id_col, key_col, type_col])

    return (
        events.select_columns([id_col, key_col, type_col, ts_col])
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(keep_partition, batch_format="pyarrow")
    )


def user_hour_concentration(events, *, key_col: str = "user_id",
                            ts_col: str = "ts"):
    """Behavioral concentration feature: per user, the Herfindahl
    index of their hour-of-day activity distribution — 1/24 for a
    uniform clock profile, 1.0 for single-hour users.

    Exact rational core: ``hhi = Σ cᵢ² / (Σ cᵢ)²`` over the user's 24
    hourly counts — integer partials per (user, hour), one per-user
    merge, the single double division per user.  Shuffle carries ≤ 24
    rows per (block, user).

    Output: (key_col, n_events, hhi_num, hhi).
    """

    def partial(t: pa.Table) -> pa.Table:
        hour = pc.cast(
            pc.hour(pc.cast(t[ts_col], pa.timestamp("us"))), pa.int64()
        )
        g = (
            pa.table({key_col: t[key_col], "hour": hour})
            .group_by([key_col, "hour"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns([
            "n" if c == "count_all" else c for c in g.column_names
        ])

    from ray.data.aggregate import Sum

    counts = (
        events.select_columns([key_col, ts_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby([key_col, "hour"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def finish_partial(t: pa.Table) -> pa.Table:
        n = pc.cast(t["n"], pa.int64())
        flat = pa.table({
            key_col: t[key_col],
            "n_events": n,
            "hhi_num": pc.multiply(n, n),
        })
        g = flat.group_by(key_col).aggregate(
            [("n_events", "sum"), ("hhi_num", "sum")]
        )
        return g.rename_columns([
            c[:-4] if c.endswith("_sum") else c for c in g.column_names
        ])

    per_user = (
        counts.map_batches(finish_partial, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("hhi_num", alias_name="hhi_num"))
    )

    def hhi(t: pa.Table) -> pa.Table:
        tot = pc.cast(t["n_events"], pa.float64())
        h = pc.divide(
            pc.cast(t["hhi_num"], pa.float64()),
            pc.multiply(tot, tot),
        )
        return t.append_column("hhi", h)

    return per_user.map_batches(hhi, batch_format="pyarrow")
