"""Similarity search over an embedding column (``list<float>``).

* :func:`knn_bruteforce` — exact cosine top-k: the query matrix is
  broadcast once (``ray.put``), every batch computes a vectorized
  float64 matmul against it and emits only its LOCAL top-k per query
  (k rows per query per batch), then a tiny ``groupby(query_id)``
  merges partials into the global top-k.  Shuffle volume is
  O(queries × k × blocks), never O(rows).
* :func:`knn_ivf` — IVF-flat scale path: deterministic centroids
  (seeded sample), vectors partitioned by nearest centroid
  (hash-shuffle on the centroid id), queries probe the ``nprobe``
  nearest centroids only.  Exact within probed lists; recall < 1
  by design — verified against brute force in tests.

Float determinism: all scoring in float64 with the same reduction
order as the DuckDB oracle (``list_cosine_similarity`` casts to
DOUBLE), ranks compared as integers.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _as_matrix(col) -> np.ndarray:
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _unit(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        # empty batch/query set: preserve 2-D shape for downstream matmul
        return m.reshape(0, m.shape[1]) if m.ndim == 2 else m.reshape(0, 0)
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


class _PartialTopK:
    """Actor-pool stage: per-batch cosine vs the broadcast query matrix,
    emit local top-k per query."""

    def __init__(self, queries_ref, k: int, vec_col: str, id_col: str,
                 exclude_self: bool):
        import ray

        q = ray.get(queries_ref)  # (query_ids, unit query matrix)
        self.q_ids, self.q_unit = q
        self.k = k
        self.vec_col = vec_col
        self.id_col = id_col
        self.exclude_self = exclude_self

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        ids = np.asarray(t[self.id_col].to_pylist(), dtype=np.int64)
        unit = _unit(_as_matrix(t[self.vec_col]))
        sim = self.q_unit @ unit.T  # (n_queries, batch)
        out_q, out_n, out_s = [], [], []
        k = self.k
        for qi, q_id in enumerate(self.q_ids):
            row = sim[qi]
            mask = ids != q_id if self.exclude_self else slice(None)
            cand_ids = ids[mask]
            cand_sim = row[mask]
            if len(cand_ids) == 0:
                continue
            top = np.argsort(-cand_sim, kind="stable")[:k]
            out_q.extend([int(q_id)] * len(top))
            out_n.extend(int(x) for x in cand_ids[top])
            out_s.extend(float(x) for x in cand_sim[top])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )


def _merge_topk(k: int):
    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cosine", "neighbor_id"], ascending=[False, True], kind="stable"
        ).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return merge


def knn_bruteforce(ds, query_ids_and_vecs, *, k: int = 5, vec_col: str = "embedding",
                   id_col: str = "vec_id", exclude_self: bool = True,
                   concurrency=(1, 8), batch_size: int | None = 1024):
    """Exact cosine top-k for a small query set against the full dataset.

    ``query_ids_and_vecs`` = (ids: int list, vectors: 2D float array).
    Output: (query_id, neighbor_id, cosine, rank) — global top-k,
    deterministic ties (cosine desc, neighbor_id asc).
    """
    import ray

    q_ids = np.asarray(query_ids_and_vecs[0], dtype=np.int64)
    q_unit = _unit(np.asarray(query_ids_and_vecs[1], dtype=np.float64))
    ref = ray.put((q_ids, q_unit))
    partials = ds.map_batches(
        _PartialTopK,
        fn_constructor_kwargs={
            "queries_ref": ref,
            "k": k,
            "vec_col": vec_col,
            "id_col": id_col,
            "exclude_self": exclude_self,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    return partials.groupby("query_id").map_groups(
        _merge_topk(k), batch_format="pandas"
    )


def load_queries(ds, *, n_queries: int, vec_col: str = "embedding",
                 id_col: str = "vec_id"):
    """Deterministic query set: the ``n_queries`` smallest ids."""
    rows = ds.filter(expr=f"{id_col} < {n_queries}").take_all()
    if not rows:
        raise ValueError(
            f"no query vectors: no rows with {id_col} < {n_queries}"
        )
    rows.sort(key=lambda r: r[id_col])
    ids = [r[id_col] for r in rows]
    vecs = np.asarray([r[vec_col] for r in rows], dtype=np.float64)
    return ids, vecs


# ---------------------------------------------------------------------------
# IVF-flat
# ---------------------------------------------------------------------------


def knn_ivf(ds, query_ids_and_vecs, *, k: int = 5, n_centroids: int = 16,
            nprobe: int = 4, vec_col: str = "embedding", id_col: str = "vec_id",
            exclude_self: bool = True, seed: int = 42):
    """IVF-flat approximate top-k.

    Centroids = seeded deterministic sample of the dataset (ids
    hashed), held as a broadcast array.  Each batch assigns its vectors
    to the nearest centroid; a ``groupby(list_id)`` co-locates lists;
    queries search only their ``nprobe`` closest lists.  At 10^12 rows
    the list assignment is the partitioning key for a persisted index
    layout (one parquet dir per list).
    """
    import ray

    centroids = _sample_centroids(ds, n_centroids, seed, vec_col, id_col)

    q_ids = np.asarray(query_ids_and_vecs[0], dtype=np.int64)
    q_unit = _unit(np.asarray(query_ids_and_vecs[1], dtype=np.float64))
    q_lists = np.argsort(-(q_unit @ centroids.T), axis=1)[:, :nprobe]
    # list_id -> query rows probing it
    probes: dict[int, list[int]] = {}
    for qi, lists in enumerate(q_lists):
        for l in lists:
            probes.setdefault(int(l), []).append(qi)
    ref = ray.put((centroids, probes, q_ids, q_unit))

    class AssignAndScore:
        def __init__(self):
            self.centroids, self.probes, self.q_ids, self.q_unit = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
            unit = _unit(_as_matrix(t[vec_col]))
            assign = np.argmax(unit @ self.centroids.T, axis=1)
            out_q, out_n, out_s = [], [], []
            for list_id, q_idx in self.probes.items():
                mask = assign == list_id
                if not mask.any():
                    continue
                sub_ids = ids[mask]
                sub = unit[mask]
                sim = self.q_unit[q_idx] @ sub.T
                for row, qi in zip(sim, q_idx):
                    q_id = int(self.q_ids[qi])
                    m = sub_ids != q_id if exclude_self else slice(None)
                    cids, csim = sub_ids[m], row[m]
                    if len(cids) == 0:
                        continue
                    top = np.argsort(-csim, kind="stable")[:k]
                    out_q.extend([q_id] * len(top))
                    out_n.extend(int(x) for x in cids[top])
                    out_s.extend(float(x) for x in csim[top])
            return pa.table(
                {
                    "query_id": pa.array(out_q, pa.int64()),
                    "neighbor_id": pa.array(out_n, pa.int64()),
                    "cosine": pa.array(out_s, pa.float64()),
                }
            )

    partials = ds.map_batches(AssignAndScore, batch_format="pyarrow",
                              batch_size=1024, concurrency=(1, 8))
    return partials.groupby("query_id").map_groups(
        _merge_topk(k), batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Persisted IVF index: the 10^12-row layout (one parquet partition per
# inverted list; queries read ONLY their nprobe lists from storage).
# ---------------------------------------------------------------------------


def _sample_centroids(ds, n_centroids: int, seed: int, vec_col: str, id_col: str):
    """Deterministic seeded sample: the ``n_centroids`` rows with the
    smallest ``hash((seed, id))``.

    Per-block partial min-n inside ``map_batches`` + a tiny driver
    merge (the same partial-top-k shape as :func:`knn_bruteforce`) —
    never a full-dataset sort.  Driver memory is
    O(n_centroids × blocks), shuffle volume zero."""

    def partial(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        h = np.fromiter(
            (hash((seed, int(i))) & 0x7FFFFFFF for i in ids),
            dtype=np.int64,
            count=len(ids),
        )
        keep = np.argsort(h, kind="stable")[:n_centroids]
        return pa.table(
            {
                id_col: pc_take(t[id_col], keep),
                vec_col: pc_take(t[vec_col], keep),
                "_h": pa.array(h[keep], pa.int64()),
            }
        )

    import pyarrow.compute as _pc

    def pc_take(col, idx):
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return _pc.take(col, pa.array(idx, pa.int64()))

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: (r["_h"], r[id_col]))
    return _unit(
        np.asarray([r[vec_col] for r in rows[:n_centroids]], dtype=np.float64)
    )


_IVF_MANIFEST = "_IVF_MANIFEST.json"


def _assign_lists(t: pa.Table, centroids_ref=None, vec_col: str = "",
                  id_col: str = "") -> pa.Table:
    """Task-path IVF assignment: fetch the broadcast centroids and tag
    each vector with its nearest list."""
    import ray

    unit = _unit(_as_matrix(t[vec_col]))
    assign = np.argmax(unit @ ray.get(centroids_ref).T, axis=1)
    return pa.table(
        {
            id_col: t[id_col],
            vec_col: t[vec_col],
            "list_id": pa.array(assign.astype("int32"), pa.int32()),
        }
    )


def build_ivf_index(ds, index_dir: str, *, n_centroids: int = 16, seed: int = 42,
                    vec_col: str = "embedding", id_col: str = "vec_id") -> dict:
    """Partition the vector table into inverted lists on disk.

    Layout: ``{index_dir}/data/g<gen>/list_id=<n>/*.parquet`` (hive
    partitioning via ``write_parquet(partition_cols)``) plus
    ``_IVF_MANIFEST.json`` holding the centroid matrix, per-list row
    counts and the live files.  Assignment is a streaming
    ``map_batches`` pass of stateless tasks; the write is the only
    shuffle-like step (grouped by partition value).  Published by
    ``state/publish.py``: a rebuild replaces the index (``write_parquet``
    names files uniquely, so writing into a live dir would double-count
    vectors), and a crash leaves the old index or the new one.

    Storage contract: ``index_dir`` must be shared storage visible to
    the driver and every node — the same requirement every sink here
    has (``write_adjacency``, ``write_markdown_files``).  The driver's
    post-write ``list_rows`` derivation reads ONLY parquet footers
    (metadata, no data bytes), so it stays O(files) regardless of
    index size.
    """
    import os

    import pyarrow.parquet as pq
    import ray

    from ..state import publish

    centroids = _sample_centroids(ds, n_centroids, seed, vec_col, id_col)
    assigned = ds.map_batches(
        _assign_lists, batch_format="pyarrow", batch_size=1024,
        fn_kwargs={"centroids_ref": ray.put(centroids), "vec_col": vec_col,
                   "id_col": id_col})
    gen = publish.next_generation(index_dir, _IVF_MANIFEST)
    files = publish.write_generation(assigned, index_dir, "data", gen,
                                     "list_id")
    return publish.commit(index_dir, _IVF_MANIFEST, {
        "n_centroids": int(len(centroids)),
        "dim": int(centroids.shape[1]),
        "centroids": centroids.tolist(),
        "list_rows": {
            lid: sum(pq.ParquetFile(os.path.join(index_dir, f)).metadata
                     .num_rows for f in fs)
            for lid, fs in files.items()
        },
        "vec_col": vec_col,
        "id_col": id_col,
        "seed": seed,
        "generation": gen,
        "files": {"data": files},
    })


def search_ivf_index(index_dir: str, query_ids_and_vecs, *, k: int = 5,
                     nprobe: int = 4, exclude_self: bool = True):
    """Top-k search against a persisted IVF index.

    Reads ONLY the ``nprobe`` nearest inverted lists per query from
    storage (partition-pruned parquet read) — the I/O profile that
    makes IVF pay off at 10^12 rows.  Scoring is the same partial-top-k
    + merge dataflow as :func:`knn_bruteforce`.
    """
    import ray.data as rd

    from ..state import publish

    man = publish.load(index_dir, _IVF_MANIFEST, "build_ivf_index")
    centroids = np.asarray(man["centroids"], dtype=np.float64)
    vec_col, id_col = man["vec_col"], man["id_col"]

    q_ids = np.asarray(query_ids_and_vecs[0], dtype=np.int64)
    q_unit = _unit(np.asarray(query_ids_and_vecs[1], dtype=np.float64))
    q_lists = np.argsort(-(q_unit @ centroids.T), axis=1)[:, :nprobe]
    wanted = sorted({int(l) for row in q_lists for l in row})

    paths = publish.paths(index_dir, man, "data", wanted)
    if not paths:
        return rd.from_arrow(
            pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "neighbor_id": pa.array([], pa.int64()),
                 "cosine": pa.array([], pa.float64()),
                 "rank": pa.array([], pa.int64())}
            )
        )
    lists = rd.read_parquet(paths, partitioning=None)
    return knn_bruteforce(
        lists,
        (q_ids, q_unit),
        k=k,
        vec_col=vec_col,
        id_col=id_col,
        exclude_self=exclude_self,
    )


# ---------------------------------------------------------------------------
# Product quantization (PQ) — the compressed ANN scale path
# (Jégou/Douze/Schmid 2011, "Product Quantization for Nearest
# Neighbor Search": split d dims into m subspaces, k-means each to
# n_codes centroids, store each vector as m uint8 codes; queries scan
# codes with per-subspace lookup tables — asymmetric distance
# computation, ADC)
# ---------------------------------------------------------------------------


def _kmeans_np(x: np.ndarray, k: int, n_iter: int, seed: int) -> np.ndarray:
    """Seeded driver-side Lloyd k-means for PQ codebook training
    (bounded sample — matmul distances, empty clusters keep their
    centroid)."""
    rng = np.random.RandomState(seed)
    k_eff = min(k, len(x))
    cents = x[rng.choice(len(x), size=k_eff, replace=False)].copy()
    for _ in range(n_iter):
        d2 = (cents * cents).sum(axis=1)[None, :] - 2.0 * (x @ cents.T)
        a = np.argmin(d2, axis=1)
        for j in range(k_eff):
            mask = a == j
            if mask.any():
                cents[j] = x[mask].mean(axis=0)
    return cents


def train_pq_codebooks(ds, *, m: int = 8, n_codes: int = 256,
                       sample_size: int = 16384, n_iter: int = 10,
                       seed: int = 42, vec_col: str = "embedding",
                       id_col: str = "vec_id") -> np.ndarray:
    """(m, n_codes_eff, d/m) codebooks trained on a DETERMINISTIC
    hash-sample of the (unit-normalized) vectors — bounded driver
    work, the standard practice for quantizer training (train on a
    sample, encode the corpus streaming)."""
    sample = _sample_centroids(ds, sample_size, seed, vec_col, id_col)
    d = sample.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    dsub = d // m
    return np.stack(
        [
            _kmeans_np(
                np.ascontiguousarray(sample[:, j * dsub:(j + 1) * dsub]),
                n_codes, n_iter, seed + j,
            )
            for j in range(m)
        ]
    )


def pq_knn(ds, query_ids_and_vecs, *, k: int = 5, m: int = 8,
           n_codes: int = 256, refine: int = 64,
           sample_size: int = 16384, n_iter: int = 10, seed: int = 42,
           vec_col: str = "embedding", id_col: str = "vec_id",
           exclude_self: bool = True, concurrency=(1, 8),
           batch_size: int | None = 1024, num_partitions: int = 64):
    """PQ-compressed approximate top-k with EXACT re-rank.

    Scale story: the scan touches ``m`` bytes per vector instead of
    ``4·d`` (64-dim float32 → 8 bytes, 32× less memory bandwidth); the
    per-block work is one uint8 gather per subspace against the ADC
    tables.  Candidates (per-block partial top-``refine`` per query,
    merged globally) are then re-ranked EXACTLY — their true vectors
    come back through a bounded hash join, so the output schema and
    tie-break semantics match :func:`knn_bruteforce`
    (query_id, neighbor_id, cosine, rank).  Recall is a function of
    ``refine`` and codebook fit — gated (not hash-matched) by the
    ``emb_knn_pq`` driver query.

    Codebooks: driver-trained on a seeded hash-sample
    (:func:`train_pq_codebooks`); encoding is streaming per block —
    the full corpus is never materialized, and only codes + candidate
    ids cross the cluster.
    """
    import ray

    from .joins import hash_join_unique

    books = train_pq_codebooks(
        ds, m=m, n_codes=n_codes, sample_size=sample_size,
        n_iter=n_iter, seed=seed, vec_col=vec_col, id_col=id_col,
    )
    q_ids = np.asarray(query_ids_and_vecs[0], dtype=np.int64)
    q_unit = _unit(np.asarray(query_ids_and_vecs[1], dtype=np.float64))
    ref = ray.put((books, q_ids, q_unit))

    m_eff, kk, dsub = books.shape

    class PQScan:
        def __init__(self):
            self.books, self.q_ids, self.q_unit = ray.get(ref)
            nq, d = self.q_unit.shape
            # ADC tables: T[q, j, c] = <q_sub_j, codebook_j[c]>
            self.T = np.stack(
                [
                    self.q_unit[:, j * dsub:(j + 1) * dsub]
                    @ self.books[j].T
                    for j in range(m_eff)
                ],
                axis=1,
            )  # (nq, m, kk)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = np.asarray(t[id_col].to_pylist(), dtype=np.int64)
            unit = _unit(_as_matrix(t[vec_col]))
            nb = len(ids)
            if not nb:
                return pa.table(
                    {
                        "query_id": pa.array([], pa.int64()),
                        "neighbor_id": pa.array([], pa.int64()),
                        "approx": pa.array([], pa.float64()),
                    }
                )
            # encode: per subspace argmin ||x_sub - c||²
            codes = np.empty((nb, m_eff), dtype=np.int64)
            for j in range(m_eff):
                sub = unit[:, j * dsub:(j + 1) * dsub]
                bj = self.books[j]
                d2 = (bj * bj).sum(axis=1)[None, :] - 2.0 * (sub @ bj.T)
                codes[:, j] = np.argmin(d2, axis=1)
            # ADC scan: approx dot = Σ_j T[q, j, code_j]
            nq = len(self.q_ids)
            scores = np.zeros((nq, nb))
            for j in range(m_eff):
                scores += self.T[:, j, :][:, codes[:, j]]
            out_q, out_n, out_s = [], [], []
            r = min(refine, nb)
            for qi in range(nq):
                row = scores[qi]
                n_ids = ids
                if exclude_self:
                    keep = ids != int(self.q_ids[qi])
                    row = row[keep]
                    n_ids = ids[keep]
                    if not len(row):
                        continue
                rr = min(r, len(row))
                top = np.argpartition(-row, rr - 1)[:rr]
                out_q.extend([int(self.q_ids[qi])] * rr)
                out_n.extend(n_ids[top])
                out_s.extend(row[top])
            return pa.table(
                {
                    "query_id": pa.array(out_q, pa.int64()),
                    "neighbor_id": pa.array(out_n, pa.int64()),
                    "approx": pa.array(out_s, pa.float64()),
                }
            )

    partials = ds.map_batches(
        PQScan,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )

    def merge_refine(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["approx", "neighbor_id"], ascending=[False, True],
            kind="stable",
        ).head(refine)
        return g[["query_id", "neighbor_id"]]

    cands = partials.groupby("query_id").map_groups(
        merge_refine, batch_format="pandas"
    )

    def to_arrow(t: pa.Table) -> pa.Table:
        return t

    joined = hash_join_unique(
        cands.map_batches(to_arrow, batch_format="pyarrow"),
        ds.select_columns([id_col, vec_col]),
        left_key="neighbor_id", right_key=id_col,
        num_partitions=num_partitions,
    )

    def exact(t: pa.Table) -> pa.Table:
        b, qi, qu = ray.get(ref)
        qmap = {int(q): i for i, q in enumerate(qi)}
        unit = _unit(_as_matrix(t[vec_col]))
        qidx = np.asarray(
            [qmap[int(q)] for q in t["query_id"].to_pylist()], dtype=np.int64
        )
        cos = (qu[qidx] * unit).sum(axis=1) if len(qidx) else np.array([])
        return pa.table(
            {
                "query_id": t["query_id"],
                "neighbor_id": t["neighbor_id"],
                "cosine": pa.array(cos, pa.float64()),
            }
        )

    return (
        joined.map_batches(exact, batch_format="pyarrow")
        .groupby("query_id")
        .map_groups(_merge_topk(k), batch_format="pandas")
    )


def sparse_topk_inner_products(vecs, query_ids, *, k: int = 3,
                               id_col: str = "doc_id",
                               dim_col: str = "dim_idx",
                               val_col: str = "value",
                               num_partitions: int = 64):
    """Exact top-k INNER PRODUCTS of long-form sparse vectors against a
    small query set — with :func:`..text.hashed_doc_vectors` this is
    text-similarity search with NO model and NO floats (integer dots →
    hash-exact oracles; ties broken by neighbor id).

    Dataflow: the query entries broadcast once (tiny: |queries| × nnz);
    each corpus block joins its rows against them on the dimension
    (one vectorized pandas merge), pre-sums per (query, doc) inside
    the block, then a bounded groupby-sum + the shared grouped-top-k
    finalize.  Only docs sharing ≥1 nonzero dimension with a query
    appear (inner-join semantics — a zero dot cannot enter a
    positive-overlap top-k anyway).  Self-matches are excluded.
    """
    import ray
    from ray.data.aggregate import Sum

    import pyarrow.compute as pc

    from ..hashing import hash_bucket_array  # noqa: F401 (grouped_topk)
    from .ranking import grouped_topk

    qset = list(query_ids)
    q_arr = pa.array(qset)

    def only_queries(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[id_col], value_set=q_arr))

    q_rows = vecs.map_batches(
        only_queries, batch_format="pyarrow"
    ).take_all()
    qdf = pd.DataFrame(
        {
            "query_id": [r[id_col] for r in q_rows],
            dim_col: [r[dim_col] for r in q_rows],
            "_qv": [r[val_col] for r in q_rows],
        }
    )
    q_ref = ray.put(qdf)

    def partial(t: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        df = pd.DataFrame(
            {
                "neighbor_id": t[id_col].to_pylist(),
                dim_col: t[dim_col].to_pylist(),
                "_v": t[val_col].to_pylist(),
            }
        )
        m = df.merge(q, on=dim_col, how="inner")
        m = m[m["neighbor_id"] != m["query_id"]]
        if not len(m):
            return pa.table(
                {"query_id": pa.array([], pa.int64()),
                 "neighbor_id": pa.array([], pa.int64()),
                 "_d": pa.array([], pa.int64())}
            )
        m["_d"] = m["_v"] * m["_qv"]
        g = m.groupby(["query_id", "neighbor_id"], as_index=False,
                      sort=False)["_d"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    dots = (
        vecs.map_batches(partial, batch_format="pyarrow")
        .groupby(["query_id", "neighbor_id"])
        .aggregate(Sum("_d", alias_name="dot"))
    )
    return grouped_topk(
        dots, ["query_id"], "dot", k, descending=True,
        tiebreak=["neighbor_id"], rank_col="rank",
        num_partitions=num_partitions,
    )
