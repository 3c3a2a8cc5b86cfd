"""Generic hash equi-joins: unique-keyed probe and full M:N.

``Dataset.join`` in Ray 2.49 crashes when a hash partition receives no
blocks for one input sequence (the aggregator builds a ZERO-COLUMN
empty table and Acero then fails with "No match ... for key field" —
ray/data/_internal/execution/operators/join.py:104-125), which any
small or skewed join can trigger.  It also allocates ``num_partitions``
concurrent 1-CPU actors.  This module provides partition-robust,
actor-free alternatives built from the repo's standard primitives:
union-tag the two sides, hash-partition on the key, and resolve each
partition with vectorized Arrow/numpy kernels (the same pattern as
dedup's candidate↔signature join, dedup.py:380-401).

* :func:`hash_join_unique` — probe a fact table against a side UNIQUE
  per key (a dictionary, an aggregate, a rank/label table): one
  ``pc.index_in`` per partition.  A violated uniqueness invariant
  RAISES (never silently drops the extra rows).
* :func:`hash_join` — general M:N equi-join with duplicate keys
  allowed on BOTH sides: per-partition dictionary-encode + run-length
  expansion (numpy repeat arithmetic, no Python row loop).
* :func:`broadcast_join_unique` — map-side variant for small unique
  right sides (falls back to the shuffle join over size guards).
* :func:`broadcast_join` — map-side M:N variant: per-actor build-side
  index, vectorized expansion per batch, same size guards (falls back
  to :func:`hash_join`).

Shuffle volume is |left| + |right| rows, the per-partition work is
O(rows + matches) Arrow kernels, and empty partitions are simply
absent groups.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# The broadcast guard: a side at most this many rows AND bytes may be
# collected on the driver and shipped to every task with ``ray.put``.
# The map-side joins (unless given explicit limits), BFS's resident
# hops and the resident graph rounds of pagerank / connected_components
# share it, and all of them read it at call time, so one assignment
# moves them all.
BROADCAST_MAX_ROWS = 2_000_000
BROADCAST_MAX_BYTES = 512 << 20


def _plan_shuffle_join(left, right, *, left_key: str, right_key: str,
                       how: str, suffix: str, num_partitions: int,
                       salt: int, left_schema, right_schema,
                       fn_name: str):
    """Shared front half of the shuffle equi-joins: schema resolution,
    empty-side short circuits, carrier construction and the union-tag
    + hash-partition plan.

    Returns ``(short_circuit, plan)`` — exactly one is non-None.
    ``plan`` is a dict with the tagged dataset and the pieces the
    per-partition kernel needs (out_schema, l_names, l_fields,
    r_value, empty, left_key).
    """
    from ..hashing import hash_bucket_array

    # schema inference on a lazy side whose lineage holds an
    # all-to-all EXECUTES that subtree and discards the work; callers
    # that know their schemas pass them to skip the probe entirely
    l_schema = left_schema if left_schema is not None else left.schema()
    r_schema = (
        right_schema if right_schema is not None else right.schema()
    )
    # a fully-empty input can surface as a block-less dataset whose
    # schema is unknown (e.g. a map_groups stage that emitted only
    # empty tables) — the join result is then determined without it
    if l_schema is None:
        if how == "full":
            raise ValueError(
                f"{fn_name}(how='full'): left side has no schema "
                "(block-less empty dataset) — cannot type the null left "
                "columns of right-only rows; materialize an empty typed "
                "table instead"
            )
        return left, None  # empty: inner/semi/anti/left are all empty
    if r_schema is None:
        if how == "anti":
            return left, None  # nothing to subtract
        if how in ("semi", "inner"):
            return left.limit(0), None
        raise ValueError(
            f"{fn_name}(how={how!r}): right side has no schema "
            "(block-less empty dataset) — cannot type the null value "
            "columns; materialize an empty typed table instead"
        )
    l_fields = [pa.field(n, t) for n, t in zip(l_schema.names, l_schema.types)]
    l_names = [f.name for f in l_fields]
    r_value = (
        []
        if how in ("semi", "anti")
        else [
            pa.field(n, t)
            for n, t in zip(r_schema.names, r_schema.types)
            if n != right_key
        ]
    )
    rename = {
        f.name: (f.name + suffix if f.name in set(l_names) else f.name)
        for f in r_value
    }
    out_schema = pa.schema(
        l_fields + [pa.field(rename[f.name], f.type) for f in r_value]
    )
    kt = l_schema.types[l_schema.names.index(left_key)]
    rkt = r_schema.types[r_schema.names.index(right_key)]
    if kt != rkt:
        raise ValueError(f"key type mismatch: {kt} vs {rkt}")

    # combined carrier schema: key + left values + right values + markers
    carrier = pa.schema(
        [pa.field("_k", kt)]
        + l_fields
        + [pa.field("_rv_" + f.name, f.type) for f in r_value]
        + [pa.field("_side", pa.int8()), pa.field("part", pa.int32())]
    )

    def pad_left(t: pa.Table) -> pa.Table:
        import numpy as np

        base = hash_bucket_array(t[left_key], num_partitions)
        if salt > 1:
            slot = np.arange(t.num_rows, dtype=np.int64) % salt
            part = pa.array(
                (base.to_numpy().astype(np.int64) * salt + slot).astype(
                    "int32"
                ),
                pa.int32(),
            )
        else:
            part = base
        cols = [t[left_key]]
        cols += [t[n] for n in l_names]
        cols += [pa.nulls(t.num_rows, f.type) for f in r_value]
        cols += [pa.array([0] * t.num_rows, pa.int8()), part]
        return pa.Table.from_arrays(
            [c.cast(f.type) if hasattr(c, "cast") else c
             for c, f in zip(cols, carrier)],
            schema=carrier,
        )

    def pad_right(t: pa.Table) -> pa.Table:
        import numpy as np

        base = hash_bucket_array(t[right_key], num_partitions)
        if salt > 1:
            # replicate each right row into every slot of its partition
            n = t.num_rows
            rep = np.repeat(np.arange(n, dtype=np.int64), salt)
            t = t.take(pa.array(rep))
            slots = np.tile(np.arange(salt, dtype=np.int64), n)
            part = pa.array(
                (base.to_numpy().astype(np.int64)[rep] * salt
                 + slots).astype("int32"),
                pa.int32(),
            )
        else:
            part = base
        cols = [t[right_key]]
        cols += [pa.nulls(t.num_rows, f.type) for f in l_fields]
        cols += [t[f.name] for f in r_value]
        cols += [pa.array([1] * t.num_rows, pa.int8()), part]
        return pa.Table.from_arrays(
            [c.cast(f.type) if hasattr(c, "cast") else c
             for c, f in zip(cols, carrier)],
            schema=carrier,
        )

    tagged = left.map_batches(pad_left, batch_format="pyarrow").union(
        right.map_batches(pad_right, batch_format="pyarrow")
    )
    empty = pa.table({f.name: pa.nulls(0, f.type) for f in out_schema})
    return None, {
        "tagged": tagged,
        "out_schema": out_schema,
        "l_names": l_names,
        "l_fields": l_fields,
        "r_value": r_value,
        "empty": empty,
        "left_key": left_key,
    }


def probe_salt(ds, key: str, *, num_partitions: int = 64, k: int = 64,
               skew_factor: float = 2.0, max_salt: int = 16) -> int:
    """Pick a join ``salt`` from the measured key skew of ``ds[key]``.

    ONE column-pruned pass: per-block exact ``value_counts`` folded
    into a Misra–Gries k-counter partial plus the block's row count,
    merged driver-side (≤ k pairs + one int per block of traffic).
    The MG estimate undercounts by at most ``n/(k+1)``, so
    ``top_estimate + n/(k+1)`` upper-bounds the true hottest-key
    count; if that bound exceeds ``skew_factor ×`` the mean partition
    size, the returned salt splits the hot partition to roughly mean
    size (capped at ``max_salt`` — salt replicates the join's right
    side ×salt, so unbounded salt trades one straggler for a
    broadcast).  Uniform keys return 1.

    COST CAVEAT (same class as the schema-probe trap documented on
    the joins): the pass executes ``ds``'s lineage once.  On a cheap
    source read that is one extra column scan; on a lazy lineage
    holding an all-to-all it re-runs that subtree — materialize first
    or pass an explicit salt there.  This is why ``salt="auto"`` is
    opt-in, never the default.
    """
    import math

    from .sketch import MisraGries

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t[key].combine_chunks())
        sk = MisraGries(k)
        sk.add_counts(
            vc.field("values").to_pylist(), vc.field("counts").to_pylist()
        )
        vals = list(sk.counters.keys())
        return pa.table(
            {
                "values": pa.array([vals], pa.list_(t[key].type)),
                "counts": pa.array(
                    [[sk.counters[v] for v in vals]], pa.list_(pa.int64())
                ),
                "rows": pa.array([t.num_rows], pa.int64()),
            }
        )

    merged = MisraGries(k)
    n_total = 0
    for b in ds.select_columns([key]).map_batches(
        partial, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        for vals, cnts, rows in zip(
            b["values"].to_pylist(), b["counts"].to_pylist(),
            b["rows"].to_pylist(),
        ):
            merged.add_counts(vals, cnts)
            n_total += rows
    if n_total == 0 or not merged.counters:
        return 1
    upper = max(merged.counters.values()) + n_total // (k + 1)
    per_part = max(1.0, n_total / num_partitions)
    if upper <= skew_factor * per_part:
        return 1
    return min(max_salt, math.ceil(upper / per_part))


def _resolve_salt(salt, left, left_key, num_partitions, how, fn_name):
    if salt == "auto":
        if how == "full":
            raise ValueError(
                f"{fn_name}(how='full') does not support salt='auto': "
                "right-only detection needs cross-slot visibility"
            )
        return probe_salt(left, left_key, num_partitions=num_partitions)
    return max(1, int(salt))


def hash_join_unique(left, right, *, left_key: str, right_key: str | None = None,
                     how: str = "inner", suffix: str = "_r",
                     num_partitions: int = 64, salt: int = 1,
                     left_schema: pa.Schema | None = None,
                     right_schema: pa.Schema | None = None,
                     validate_unique: bool = True):
    """Equi-join ``left`` against a ``right`` side unique per key.

    ``right`` MUST have at most one row per ``right_key`` value (an
    aggregate / dictionary / rank table); rows beyond the first per key
    would be silently ignored, so callers own that invariant — except
    for ``how="semi"``/``"anti"``, which are pure presence checks and
    accept any right side.  ``how`` is ``"inner"``, ``"left"``
    (unmatched left rows keep typed nulls on the right value columns),
    ``"semi"`` (left rows WITH a match, left columns only), ``"anti"``
    (left rows WITHOUT a match, left columns only) or ``"full"`` (left
    mode PLUS one row per unmatched right key; USING-style key
    semantics — the ``left_key`` column carries the coalesced key, so
    right-only rows stay identifiable, matching
    ``FULL JOIN ... USING (k)`` in SQL).  Right value columns
    colliding with a left column name get ``suffix``.

    Output columns: all left columns, then (inner/left/full only)
    each right non-key column.

    ``salt > 1`` splits every key partition into ``salt`` slots: left
    rows round-robin across the slots of their key partition and the
    (unique-keyed, hence small) right side replicates into every slot
    — the standard hot-key remedy, turning one straggler task holding
    the whole hub key into ``salt`` even tasks.  Results are
    IDENTICAL for left-driven modes (inner/left/semi/anti: every left
    row still meets its full right set); ``how="full"`` rejects
    ``salt > 1`` because right-only detection needs cross-slot
    visibility.  Cost: ``salt × |right|`` extra shuffle rows.
    ``salt="auto"`` measures the left key skew first
    (:func:`probe_salt` — one extra column-pruned pass over the left
    lineage; opt-in for exactly that reason) and picks 1 for uniform
    keys.

    ``left_schema`` / ``right_schema``: pass the known Arrow schema of
    a side whose lineage contains an all-to-all (groupby/sort) —
    otherwise the plan's ``schema()`` probe executes that whole
    subtree once just for inference and the real run repeats it.

    ``validate_unique=True`` (the default) checks the uniqueness
    invariant per partition — one ``count_distinct`` vs ``len``
    compare, negligible cost — and RAISES on a duplicate right key
    for the value-carrying modes (inner/left/full) instead of
    silently dropping rows beyond the first.  semi/anti are pure
    presence checks and accept any right side.  Pass ``False`` only
    when the caller just proved uniqueness (e.g. the right side is a
    groupby output on the key).  Duplicate keys on both sides are a
    feature, not an error — that's :func:`hash_join`.
    """
    if how not in ("inner", "left", "semi", "anti", "full"):
        raise ValueError(
            f"how must be 'inner', 'left', 'semi', 'anti' or 'full', "
            f"got {how!r}"
        )
    salt = _resolve_salt(salt, left, left_key, num_partitions, how,
                         "hash_join_unique")
    if salt > 1 and how == "full":
        raise ValueError(
            "hash_join_unique(how='full') does not support salt > 1: "
            "right-only rows need cross-slot visibility"
        )
    right_key = right_key or left_key

    short, plan = _plan_shuffle_join(
        left, right, left_key=left_key, right_key=right_key, how=how,
        suffix=suffix, num_partitions=num_partitions, salt=salt,
        left_schema=left_schema, right_schema=right_schema,
        fn_name="hash_join_unique",
    )
    if plan is None:
        return short
    out_schema = plan["out_schema"]
    l_names = plan["l_names"]
    l_fields = plan["l_fields"]
    r_value = plan["r_value"]
    empty = plan["empty"]
    check_unique = validate_unique and how in ("inner", "left", "full")

    def join_partition(t: pa.Table) -> pa.Table:
        side = t["_side"]
        lf = t.filter(pc.equal(side, 0))
        if lf.num_rows == 0 and how != "full":
            return empty
        rf = t.filter(pc.equal(side, 1))
        rkeys = rf["_k"].combine_chunks()
        if check_unique and rf.num_rows:
            n_distinct = pc.count_distinct(rkeys, mode="all").as_py()
            if n_distinct != rf.num_rows:
                raise ValueError(
                    "hash_join_unique: right side has duplicate "
                    f"'{right_key}' keys ({rf.num_rows - n_distinct} "
                    "extra rows in one partition) — rows beyond the "
                    "first per key would be silently dropped. "
                    "Pre-aggregate the right side or use hash_join() "
                    "for M:N semantics."
                )
        idx = pc.index_in(lf["_k"], rkeys)
        if how in ("inner", "semi", "anti"):
            keep = pc.is_valid(idx)
            if how == "anti":
                keep = pc.invert(keep)
            lf = lf.filter(keep)
            idx = idx.filter(keep)
            if lf.num_rows == 0:
                return empty
        cols = [lf[n] for n in l_names]
        for f in r_value:
            cols.append(pc.take(rf["_rv_" + f.name], idx))
        out = pa.Table.from_arrays(cols, schema=out_schema)
        if how != "full" or rf.num_rows == 0:
            return out
        # full: append one row per right key with NO left match —
        # left columns null except left_key, which carries the key
        # (USING-style coalesced-key semantics)
        r_unmatched = pc.invert(
            pc.is_in(rkeys, value_set=lf["_k"].combine_chunks())
        )
        ro = rf.filter(r_unmatched)
        if ro.num_rows == 0:
            return out
        ro_cols = []
        for f in l_fields:
            if f.name == left_key:
                ro_cols.append(ro["_k"].cast(f.type))
            else:
                ro_cols.append(pa.nulls(ro.num_rows, f.type))
        for f in r_value:
            ro_cols.append(ro["_rv_" + f.name])
        return pa.concat_tables(
            [out, pa.Table.from_arrays(ro_cols, schema=out_schema)]
        )

    return plan["tagged"].groupby("part").map_groups(
        join_partition, batch_format="pyarrow"
    )


def _mn_index(rkeys_valid: pa.Array):
    """Dictionary-encode + group the VALID right keys once: returns
    ``(dictionary, order, counts, starts)`` — the reusable build-side
    index of the M:N expansion (grouped row order, per-key run
    lengths, run starts)."""
    import numpy as np

    enc = pc.dictionary_encode(rkeys_valid)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_groups = len(enc.dictionary)
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=n_groups)
    starts = np.zeros(n_groups, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return enc.dictionary, order, counts, starts


def _mn_match(lk: pa.Array, dictionary, order, counts, starts):
    """Probe left keys against an :func:`_mn_index`: returns
    ``(matched bool[n_left], l_take, r_take)`` — the row expansion
    (left row repeated per match, paired valid-right row indices),
    pure numpy repeat/offset arithmetic.  Null left keys never match
    (the dictionary holds only valid keys)."""
    import numpy as np

    g = pc.index_in(lk, dictionary)
    matched = pc.is_valid(g).to_numpy(zero_copy_only=False)
    if not matched.any():
        return matched, np.empty(0, np.int64), np.empty(0, np.int64)
    g_np = (
        pc.fill_null(g, -1).to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    m_rows = np.flatnonzero(matched)
    m_g = g_np[matched]
    m_counts = counts[m_g]
    total = int(m_counts.sum())
    l_take = np.repeat(m_rows, m_counts)
    off = np.zeros(len(m_counts), dtype=np.int64)
    np.cumsum(m_counts[:-1], out=off[1:])
    intra = np.arange(total, dtype=np.int64) - np.repeat(off, m_counts)
    r_take = order[np.repeat(starts[m_g], m_counts) + intra]
    return matched, l_take, r_take


def hash_join(left, right, *, left_key: str, right_key: str | None = None,
              how: str = "inner", suffix: str = "_r",
              num_partitions: int = 64, salt: int = 1,
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None):
    """General M:N equi-join — duplicate keys allowed on BOTH sides.

    Same partition-robust union-tag + hash-partition plan as
    :func:`hash_join_unique`, but each partition resolves matches with
    a dictionary-encode + run-length expansion instead of a unique
    probe: right rows are grouped by key code (one stable argsort of
    int32 codes), each matched left row is ``np.repeat``-ed by its
    key's right-group size, and the paired right row indices come from
    pure numpy offset arithmetic — no Python row loop, O(rows +
    matches) per partition.  Output size is the true join cardinality;
    a hot key producing K_left × K_right matches costs exactly that
    many rows, all inside one partition task (``salt`` spreads the
    LEFT rows of a hot key across slots, bounding the per-task
    expansion).

    ``how`` ∈ inner / left / semi / anti / full with the same
    semantics and USING-style full-join key coalescing as
    :func:`hash_join_unique`; null keys never match (SQL semantics —
    null-keyed left rows are unmatched, null-keyed right rows surface
    only as right-only rows under ``how="full"``).  semi/anti dedupe
    nothing: they return left rows (not distinct keys) exactly like
    ``EXISTS`` / ``NOT EXISTS``.  Right value columns colliding with
    a left column name get ``suffix``.

    ``salt > 1`` is identical to the unique join: left rows round-robin
    across slots, right rows replicate into every slot, full mode
    rejects it (right-only detection needs cross-slot visibility).
    ``salt="auto"`` probes the left key skew first (:func:`probe_salt`
    — one extra column-pruned pass; opt-in for exactly that reason).
    """
    import numpy as np

    if how not in ("inner", "left", "semi", "anti", "full"):
        raise ValueError(
            f"how must be 'inner', 'left', 'semi', 'anti' or 'full', "
            f"got {how!r}"
        )
    salt = _resolve_salt(salt, left, left_key, num_partitions, how,
                         "hash_join")
    if salt > 1 and how == "full":
        raise ValueError(
            "hash_join(how='full') does not support salt > 1: "
            "right-only rows need cross-slot visibility"
        )
    right_key = right_key or left_key

    short, plan = _plan_shuffle_join(
        left, right, left_key=left_key, right_key=right_key, how=how,
        suffix=suffix, num_partitions=num_partitions, salt=salt,
        left_schema=left_schema, right_schema=right_schema,
        fn_name="hash_join",
    )
    if plan is None:
        return short
    out_schema = plan["out_schema"]
    l_names = plan["l_names"]
    l_fields = plan["l_fields"]
    r_value = plan["r_value"]
    empty = plan["empty"]

    def join_partition(t: pa.Table) -> pa.Table:
        side = t["_side"]
        lf = t.filter(pc.equal(side, 0))
        if lf.num_rows == 0 and how != "full":
            return empty
        rf = t.filter(pc.equal(side, 1))
        # SQL null semantics: null keys never match.  Null-keyed right
        # rows leave the match space entirely (they reappear below as
        # right-only rows under how="full").
        rk_all = rf["_k"].combine_chunks()
        r_valid_mask = pc.is_valid(rk_all)
        rv = rf.filter(r_valid_mask)
        lk = lf["_k"].combine_chunks()

        pieces = []
        if rv.num_rows and lf.num_rows:
            # null left keys never match: the dictionary holds only
            # VALID right keys, so SQL null-never-matches falls out
            matched, l_take, r_take = _mn_match(
                lk, *_mn_index(rv["_k"].combine_chunks())
            )
        else:
            matched = np.zeros(lf.num_rows, dtype=bool)
            l_take = r_take = np.empty(0, np.int64)

        if how == "semi":
            if not matched.any():
                return empty
            lo = lf.filter(pa.array(matched))
            return pa.Table.from_arrays(
                [lo[n] for n in l_names], schema=out_schema
            )
        if how == "anti":
            keep = ~matched
            if not keep.any():
                return empty
            lo = lf.filter(pa.array(keep))
            return pa.Table.from_arrays(
                [lo[n] for n in l_names], schema=out_schema
            )

        if matched.any():
            le = lf.take(pa.array(l_take))
            cols = [le[n] for n in l_names]
            for f in r_value:
                cols.append(
                    pc.take(rv["_rv_" + f.name], pa.array(r_take))
                )
            pieces.append(pa.Table.from_arrays(cols, schema=out_schema))

        if how in ("left", "full") and not matched.all():
            lo = lf.filter(pa.array(~matched))
            cols = [lo[n] for n in l_names]
            for f in r_value:
                cols.append(pa.nulls(lo.num_rows, f.type))
            pieces.append(pa.Table.from_arrays(cols, schema=out_schema))

        if how == "full" and rf.num_rows:
            # right-only rows: valid keys absent from the left, plus
            # every null-keyed right row (null never matches)
            lk_valid = lk.filter(pc.is_valid(lk))
            r_only = pc.or_kleene(
                pc.invert(r_valid_mask),
                pc.fill_null(
                    pc.invert(pc.is_in(rk_all, value_set=lk_valid)),
                    False,
                ),
            )
            ro = rf.filter(pc.fill_null(r_only, False))
            if ro.num_rows:
                ro_cols = []
                for f in l_fields:
                    if f.name == left_key:
                        ro_cols.append(ro["_k"].cast(f.type))
                    else:
                        ro_cols.append(pa.nulls(ro.num_rows, f.type))
                for f in r_value:
                    ro_cols.append(ro["_rv_" + f.name])
                pieces.append(
                    pa.Table.from_arrays(ro_cols, schema=out_schema)
                )

        if not pieces:
            return empty
        return pieces[0] if len(pieces) == 1 else pa.concat_tables(pieces)

    return plan["tagged"].groupby("part").map_groups(
        join_partition, batch_format="pyarrow"
    )


def broadcast_join_unique(left, right, *, left_key: str,
                          right_key: str | None = None, how: str = "inner",
                          suffix: str = "_r",
                          max_broadcast_rows: int | None = None,
                          max_broadcast_bytes: int | None = None,
                          num_partitions: int = 64):
    """Map-side equi-join against a SMALL unique-keyed right side.

    The right side is fetched once, shipped to the object store with
    ``ray.put`` (one zero-copy Arrow buffer, shared by every task —
    never re-serialized per batch), and probed inside ``map_batches``
    with one vectorized ``pc.index_in`` per batch.  The left side is
    NEVER shuffled — this is the join for dimension tables
    (nation/region/supplier-sized sides), saving a full sort-exchange
    of the fact table versus :func:`hash_join_unique`.

    Same semantics as :func:`hash_join_unique` (right unique per key;
    ``how`` ∈ inner/left/semi/anti; colliding right value columns get
    ``suffix``).  If the right side exceeds ``max_broadcast_rows`` OR
    ``max_broadcast_bytes`` (wide value columns can be multi-GB under
    the row guard alone; ``None`` reads :data:`BROADCAST_MAX_ROWS` /
    :data:`BROADCAST_MAX_BYTES` at call time) the call falls back to
    :func:`hash_join_unique` — the broadcast cliff is a deliberate,
    guarded decision, not a silent OOM.  This makes
    the operator a size-ADAPTIVE join: pass any right side whose size
    is data-dependent (a filtered dimension, a pre-aggregated table)
    and the plan picks map-side vs shuffle at run time.

    The right side is ``materialize()``d for the size probe (count +
    fetch must not execute its subtree twice); a right side KNOWN to
    be fact-table-sized should go straight to :func:`hash_join_unique`
    so it streams through the shuffle instead of pinning the object
    store.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"how must be 'inner', 'left', 'semi' or 'anti', got {how!r}"
        )
    right_key = right_key or left_key
    if max_broadcast_rows is None:
        max_broadcast_rows = BROADCAST_MAX_ROWS
    if max_broadcast_bytes is None:
        max_broadcast_bytes = BROADCAST_MAX_BYTES

    import ray

    # NOTE deliberately no left.schema() probe: on a lazy left whose
    # lineage contains an all-to-all (groupby/sort), schema inference
    # EXECUTES that whole subtree and throws the work away — a 3×
    # wall-clock trap when an expensive left feeds two chained joins
    # (measured: 46 s -> 15 s on the record-linkage pipeline).  Column
    # names are read from each batch inside `probe` instead.
    right = right.materialize()
    r_schema = right.schema()
    if r_schema is None:
        if how == "anti":
            return left
        if how in ("semi", "inner"):
            return left.limit(0)
        raise ValueError(
            "broadcast_join_unique(how='left'): right side has no schema"
        )

    n_right = right.count()
    # bound by BYTES as well as rows: a right side with wide value
    # columns (text payloads) can be multi-GB under the row guard, and
    # the pa.concat_tables below assembles it ON THE DRIVER —
    # size_bytes() on a materialized dataset is metadata-only (free)
    if n_right > max_broadcast_rows or right.size_bytes() > max_broadcast_bytes:
        return hash_join_unique(
            left, right, left_key=left_key, right_key=right_key, how=how,
            suffix=suffix, num_partitions=num_partitions,
        )

    r_tbl = pa.concat_tables(
        list(right.iter_batches(batch_format="pyarrow"))
        or [pa.table({n: pa.nulls(0, t)
                      for n, t in zip(r_schema.names, r_schema.types)})]
    ).combine_chunks()
    r_ref = ray.put(r_tbl)

    r_value = (
        []
        if how in ("semi", "anti")
        else [n for n in r_schema.names if n != right_key]
    )

    def probe(t: pa.Table) -> pa.Table:
        r = ray.get(r_ref)  # zero-copy plasma read, once per task
        rkeys = r[right_key].combine_chunks()
        idx = pc.index_in(t[left_key], rkeys)
        if how in ("inner", "semi", "anti"):
            keep = pc.is_valid(idx)
            if how == "anti":
                keep = pc.invert(keep)
            t = t.filter(keep)
            idx = idx.filter(keep)
        if how in ("semi", "anti"):
            return t
        l_names = list(t.column_names)
        rename = {
            n: (n + suffix if n in set(l_names) else n) for n in r_value
        }
        cols = [t[n] for n in l_names]
        names = list(l_names)
        for n in r_value:
            cols.append(pc.take(r[n], idx))
            names.append(rename[n])
        return pa.Table.from_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
             for c in cols],
            names=names,
        )

    return left.map_batches(probe, batch_format="pyarrow")


class _BroadcastMNProbe:
    """Actor-pool probe for :func:`broadcast_join`: the build-side M:N
    index (dictionary-encode + grouped order) is constructed ONCE per
    actor in ``__init__`` from the plasma-shared right table, then
    every batch pays only the numpy expansion."""

    def __init__(self, r_ref, left_key: str, right_key: str, how: str,
                 suffix: str):
        import ray

        r = ray.get(r_ref)  # zero-copy plasma read, once per actor
        self.left_key = left_key
        self.how = how
        self.suffix = suffix
        rk = r[right_key].combine_chunks()
        valid = pc.is_valid(rk)
        self.rv = r.filter(valid)
        rv_keys = self.rv[right_key].combine_chunks()
        self.index = _mn_index(rv_keys) if len(rv_keys) else None
        self.r_value = [n for n in r.column_names if n != right_key]

    def __call__(self, t: pa.Table) -> pa.Table:
        import numpy as np

        how = self.how
        l_names = list(t.column_names)
        lk = t[self.left_key]
        if isinstance(lk, pa.ChunkedArray):
            lk = lk.combine_chunks()
        if self.index is not None and t.num_rows:
            matched, l_take, r_take = _mn_match(lk, *self.index)
        else:
            matched = np.zeros(t.num_rows, dtype=bool)
            l_take = r_take = np.empty(0, np.int64)
        if how == "semi":
            return t.filter(pa.array(matched))
        if how == "anti":
            return t.filter(pa.array(~matched))
        rename = {
            n: (n + self.suffix if n in set(l_names) else n)
            for n in self.r_value
        }
        pieces = []
        if matched.any():
            le = t.take(pa.array(l_take))
            cols = [le[n] for n in l_names]
            names = list(l_names)
            for n in self.r_value:
                cols.append(pc.take(self.rv[n], pa.array(r_take)))
                names.append(rename[n])
            pieces.append(pa.Table.from_arrays(
                [c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                 else c for c in cols],
                names=names,
            ))
        if how == "left" and not matched.all():
            lo = t.filter(pa.array(~matched))
            cols = [lo[n] for n in l_names]
            names = list(l_names)
            for n in self.r_value:
                cols.append(pa.nulls(
                    lo.num_rows, self.rv.schema.field(n).type
                ))
                names.append(rename[n])
            pieces.append(pa.Table.from_arrays(
                [c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                 else c for c in cols],
                names=names,
            ))
        if not pieces:
            # typed empty: left columns + null-typed right value cols
            cols = [t[n].slice(0, 0) for n in l_names]
            names = list(l_names)
            if how in ("inner", "left"):
                for n in self.r_value:
                    cols.append(pa.nulls(
                        0, self.rv.schema.field(n).type
                    ))
                    names.append(rename[n])
            return pa.Table.from_arrays(
                [c.combine_chunks() if isinstance(c, pa.ChunkedArray)
                 else c for c in cols],
                names=names,
            )
        return pieces[0] if len(pieces) == 1 else pa.concat_tables(pieces)


def broadcast_join(left, right, *, left_key: str,
                   right_key: str | None = None, how: str = "inner",
                   suffix: str = "_r",
                   max_broadcast_rows: int | None = None,
                   max_broadcast_bytes: int | None = None,
                   num_partitions: int = 64, concurrency=(1, 8),
                   batch_size: int | None = None):
    """Map-side M:N equi-join against a SMALL right side with
    DUPLICATE keys allowed — the broadcast twin of :func:`hash_join`
    exactly as :func:`broadcast_join_unique` is the broadcast twin of
    :func:`hash_join_unique`.

    The right side ships to the object store once (``ray.put``); each
    actor builds the M:N index (dictionary-encode + grouped order)
    once in ``__init__`` and every batch pays only the vectorized
    repeat/offset expansion — the left side is NEVER shuffled.  Over
    the row/byte guards (``None``: the module's broadcast guard, read
    at call time) the call falls back to the shuffling
    :func:`hash_join` (a deliberate decision, not a silent OOM).

    ``how`` ∈ inner/left/semi/anti with :func:`hash_join` semantics
    (SQL nulls: a null key never matches).  ``how="full"`` is not
    offered map-side — right-only detection needs a global view of the
    left; use :func:`hash_join` for full outer.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"how must be 'inner', 'left', 'semi' or 'anti', got {how!r}"
        )
    right_key = right_key or left_key
    if max_broadcast_rows is None:
        max_broadcast_rows = BROADCAST_MAX_ROWS
    if max_broadcast_bytes is None:
        max_broadcast_bytes = BROADCAST_MAX_BYTES

    import ray

    right = right.materialize()
    r_schema = right.schema()
    if r_schema is None:
        if how == "anti":
            return left
        if how in ("semi", "inner"):
            return left.limit(0)
        raise ValueError(
            "broadcast_join(how='left'): right side has no schema"
        )
    n_right = right.count()
    if (n_right > max_broadcast_rows
            or right.size_bytes() > max_broadcast_bytes):
        return hash_join(
            left, right, left_key=left_key, right_key=right_key,
            how=how, suffix=suffix, num_partitions=num_partitions,
        )
    r_tbl = pa.concat_tables(
        list(right.iter_batches(batch_format="pyarrow"))
        or [pa.table({n: pa.nulls(0, t)
                      for n, t in zip(r_schema.names, r_schema.types)})]
    ).combine_chunks()
    r_ref = ray.put(r_tbl)

    return left.map_batches(
        _BroadcastMNProbe,
        fn_constructor_kwargs={
            "r_ref": r_ref,
            "left_key": left_key,
            "right_key": right_key,
            "how": how,
            "suffix": suffix,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def distinct_rows(ds, cols: list[str], *, num_partitions: int = 64):
    """Global DISTINCT over a column tuple, fully partitioned.

    Per-block Arrow distinct (bounds the exchange at block-distinct
    rows) → hash-partition on the NUL-joined composite key → one Arrow
    ``group_by`` per partition.  Replaces
    ``Dataset.groupby([c1, c2, ...]).aggregate(Count())`` for
    distinct-tuple derivation: Ray's multi-key aggregate sorts the
    whole exchange on the composite key (measured ~300 s CPU on a
    3M-row pair table — the doc_minhash sf1 tail before r5), while
    this shape is a single int-keyed shuffle with C-speed hash
    reduces.  The composite key is joined with NUL via Arrow — never
    pandas string concat (the r3 NUL-truncation gotcha).
    """
    from ..hashing import hash_bucket_array

    def local(t: pa.Table) -> pa.Table:
        g = t.select(list(cols)).group_by(list(cols)).aggregate([])
        key = pc.binary_join_element_wise(
            *[pc.cast(g[c], pa.string()) for c in cols], "\x00"
        ) if len(cols) > 1 else pc.cast(g[cols[0]], pa.string())
        return g.append_column(
            "_dpart", hash_bucket_array(key, num_partitions)
        )

    def reduce(g: pa.Table) -> pa.Table:
        return g.drop_columns(["_dpart"]).group_by(
            list(cols)
        ).aggregate([]).select(list(cols))

    return (
        ds.map_batches(local, batch_format="pyarrow")
        .groupby("_dpart")
        .map_groups(reduce, batch_format="pyarrow")
    )


def grouped_aggregate(ds, keys: list[str], aggs: list[tuple], *,
                      num_partitions: int = 64):
    """Distributed groupby-aggregate as per-block Arrow partials → one
    int-keyed hash exchange → per-partition Arrow finals.

    ``aggs``: list of ``(col, fn, alias)`` with ``fn`` in
    ``{"sum", "min", "max", "count"}`` — the self-decomposable
    aggregates (``count`` partials combine by sum).  Replaces
    ``Dataset.groupby(keys).aggregate(...)`` where the key set is
    data-scale: Ray's aggregate sorts the whole exchange on the key
    (measured 4.1 s vs 1.4 s for this shape on the Q18 orderkey
    groupby at sf0.1, and ~300 s on a 3M-row two-key pair table).
    Composite keys are NUL-joined via Arrow, never pandas concat.
    Raises ``ValueError`` on more than one ``count`` (Arrow names
    every count output ``count_all``) and on an alias equal to a key.
    """
    from ..hashing import hash_bucket_array

    for _, fn, alias in aggs:
        if fn not in ("sum", "min", "max", "count"):
            raise ValueError(
                f"fn must be a decomposable aggregate, got {fn!r}"
            )
        if alias in keys:
            raise ValueError(f"alias {alias!r} collides with a key column")
    if sum(fn == "count" for _, fn, _ in aggs) > 1:
        raise ValueError("at most one 'count' aggregate per call")

    def _key_array(t: pa.Table):
        if len(keys) == 1:
            k = t[keys[0]]
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            return pc.cast(k, pa.string())
        return pc.binary_join_element_wise(
            *[pc.cast(t[c], pa.string()) for c in keys], "\x00"
        )

    def partial(t: pa.Table) -> pa.Table:
        specs = []
        names = []
        for col, fn, alias in aggs:
            if fn == "count":
                specs.append(([], "count_all"))
                names.append(alias)
            else:
                specs.append((col, fn))
                names.append(alias)
        g = t.select(
            list(keys)
            + sorted({c for c, f, _ in aggs if f != "count"} - set(keys))
        ).group_by(list(keys)).aggregate(specs)
        # arrow names outputs <col>_<fn> / count_all, keys last or
        # first depending on version — select by position-safe names
        out_cols = {k: g[k] for k in keys}
        for (col, fn, alias) in aggs:
            src = "count_all" if fn == "count" else f"{col}_{fn}"
            out_cols[alias] = g[src]
        out = pa.table(out_cols)
        return out.append_column(
            "_gpart", hash_bucket_array(_key_array(out), num_partitions)
        )

    def final(g: pa.Table) -> pa.Table:
        specs = []
        for col, fn, alias in aggs:
            specs.append((alias, "sum" if fn == "count" else fn))
        gg = g.drop_columns(["_gpart"]).group_by(list(keys)).aggregate(specs)
        out_cols = {k: gg[k] for k in keys}
        for (col, fn, alias) in aggs:
            src = f"{alias}_{'sum' if fn == 'count' else fn}"
            out_cols[alias] = gg[src]
        return pa.table(out_cols)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("_gpart")
        .map_groups(final, batch_format="pyarrow")
    )
