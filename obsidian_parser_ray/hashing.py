"""Deterministic partition hashing shared by every stage that persists
or shuffles on a hash bucket.

One definition on purpose: these bits define on-disk bucket identity
(adjacency layout, incremental base, digest index, session store) AND
shuffle co-location (``stages.joins.exchange`` — and through it
canonicalize, shuffle-join linking, graphops and dedup — plus the
salted join exchanges and the modules not yet moved onto it), so all
sites must agree forever.

Every value is first canonicalized to a string (strings pass through;
other scalars via ``repr``; nulls → a sentinel), then hashed with
``pd.util.hash_array(..., categorize=False)`` — a fixed-key siphash,
deterministic across processes and machines.  The canonicalization
step guarantees:

* scalar and array paths are bit-identical for EVERY value type,
* a null in one batch cannot flip a sibling value's dtype (the int64 →
  float64 promotion pandas does for nullable ints would otherwise make
  the same key hash differently depending on which batch it rode in),
* NUL-containing strings hash distinctly (``categorize=True`` routes
  through a C string table that conflates them).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_NULL_SENTINEL = "\x00<null>\x00"


def _canon_list(values) -> np.ndarray:
    """Arrow/numpy/list → object ndarray of canonical strings."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array):
        values = values.to_pylist()
    else:
        values = list(np.asarray(values).tolist()) if not isinstance(values, list) else values
    out = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        out[i] = _canon_one(v)
    return out


def _canon_one(v) -> str:
    if v is None:
        return _NULL_SENTINEL
    if isinstance(v, str):
        return v
    return repr(v)


def hash_bucket_array(values, num_buckets: int) -> pa.Array:
    """Vectorized bucket ids → int32 Arrow array."""
    h = pd.util.hash_array(_canon_list(values), categorize=False)
    return pa.array((h % num_buckets).astype("int32"), pa.int32())


def hash_bucket_scalar(value, num_buckets: int) -> int:
    """Bucket id of one value — bit-identical to the array path.

    NOTE: int() BEFORE the modulo — a np.uint64 scalar % python int
    promotes to float64 and silently corrupts the bucket id.
    """
    arr = np.empty(1, dtype=object)
    arr[0] = _canon_one(value)
    return int(pd.util.hash_array(arr, categorize=False)[0]) % num_buckets


def hash64_array(values) -> np.ndarray:
    """Full 64-bit canonical hashes (uint64) — for sketches."""
    return pd.util.hash_array(_canon_list(values), categorize=False)


def hash64_scalar(value) -> int:
    """Full 64-bit canonical hash of one value — bit-identical to the
    array path (so bucket AND sub-split derivations agree between
    writers hashing columns and readers hashing one key)."""
    arr = np.empty(1, dtype=object)
    arr[0] = _canon_one(value)
    return int(pd.util.hash_array(arr, categorize=False)[0])
