"""Every store published through ``state/publish.py`` under injected
crashes: a write that dies at its first data-file write, between its
last write and the manifest swap, or inside the sweep leaves the store
reading back as its old or its new contents, and the next write
converges.  The graph base's commit has its own crash tests in
``tests/test_incremental.py`` (its deltas delete superseded files
instead of sweeping)."""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from obsidian_parser_ray.state import publish


def _table_ds(**cols):
    import ray.data as rd

    return rd.from_arrow(pa.table(cols))


def _adjacency(triples):
    from obsidian_parser_ray.pipelines.graph import write_adjacency

    s, p, o = zip(*triples)
    return lambda root: write_adjacency(
        SimpleNamespace(triples=_table_ds(
            subj=list(s), pred=list(p), obj=list(o),
            weight=pa.array([1] * len(s), pa.int64()))),
        root, num_buckets=2, splits_per_bucket=2)


def _checkpoint(lo, hi):
    import ray.data as rd

    from obsidian_parser_ray.state import checkpoint_dataset

    return lambda root: checkpoint_dataset(
        rd.range(hi, override_num_blocks=3).filter(expr=f"id >= {lo}"),
        root, lineage=f"range-{lo}-{hi}")


def _zorder(seed):
    from obsidian_parser_ray.stages.layout import write_zorder

    x, y = np.random.RandomState(seed).randint(0, 100, (2, 40))
    return lambda root: write_zorder(_table_ds(x=x, y=y), root, ["x", "y"],
                                     bits=3, num_files=4)


def _term_index(texts):
    from obsidian_parser_ray.stages.text import build_term_index

    ids = [f"d{i}" for i in range(len(texts))]
    return lambda root: build_term_index(_table_ds(doc_id=ids, text=texts),
                                         root, num_buckets=4)


def _ivf(seed):
    from obsidian_parser_ray.stages.similarity import build_ivf_index

    vecs = np.random.RandomState(seed).standard_normal((30, 4)).tolist()
    return lambda root: build_ivf_index(
        _table_ds(vec_id=pa.array(range(30), pa.int64()), embedding=vecs),
        root, n_centroids=3)


def _digests(texts):
    from obsidian_parser_ray.stages.dedup import dedup_against_index

    ids = [f"{t}-{i}" for i, t in enumerate(texts)]
    return lambda root: dedup_against_index(_table_ds(doc_id=ids, text=texts),
                                            root, num_partitions=4)


def _sessions(users, day):
    import pandas as pd
    import ray.data as rd

    from obsidian_parser_ray.stages.events import sessionize_update

    ev = pd.DataFrame({"user_id": users,
                       "ts": [pd.Timestamp(f"2024-01-{day:02d}")
                              + pd.Timedelta(minutes=7 * i)
                              for i in range(len(users))]})
    return lambda root: sessionize_update(root, rd.from_pandas(ev),
                                          num_partitions=4)


def _sum_view(keys):
    import pandas as pd
    import ray.data as rd

    from obsidian_parser_ray.state import incremental_sum_view

    df = pd.DataFrame({"k": keys, "v": np.arange(len(keys), dtype="int64")})
    return lambda root: incremental_sum_view(
        root, rd.from_pandas(df), keys=["k"], sums=["v"], num_partitions=4)


# store → (manifest, three writes: the first builds the store, the
# second is the one that crashes, the third follows the recovery)
STORES = {
    "adjacency": ("_ADJ_MANIFEST.json", [
        _adjacency([("a", "links_to", "b"), ("b", "links_to", "c")]),
        _adjacency([("a", "links_to", "c"), ("d", "links_to", "a"),
                    ("e", "tagged", "#t")]),
        _adjacency([("c", "links_to", "a")]),
    ]),
    "checkpoint": ("_MANIFEST.json", [
        _checkpoint(0, 5), _checkpoint(3, 12), _checkpoint(1, 4)]),
    "zorder": ("_ZORDER_MANIFEST.json", [_zorder(1), _zorder(2), _zorder(3)]),
    "term_index": ("_TERM_INDEX_MANIFEST.json", [
        _term_index(["alpha beta", "beta gamma"]),
        _term_index(["gamma delta", "alpha", "epsilon zeta"]),
        _term_index(["eta"]),
    ]),
    "ivf_index": ("_IVF_MANIFEST.json", [_ivf(1), _ivf(2), _ivf(3)]),
    "digest_index": ("_DIGEST_MANIFEST.json", [
        _digests(["one", "two", "two"]),
        _digests(["two", "three", "four"]),
        _digests(["four", "five"]),
    ]),
    "session_store": ("_SESSIONS_MANIFEST.json", [
        _sessions([1, 2, 3, 4, 5], 1),
        _sessions([2, 3, 9], 1),
        _sessions([1, 9, 11], 2),
    ]),
    "sum_view": ("_VIEW_MANIFEST.json", [
        _sum_view([1, 2, 3, 4, 5, 1]),
        _sum_view([2, 7, 7]),
        _sum_view([1, 8]),
    ]),
}


def _contents(root: str, name: str) -> list[str]:
    """What any reader of the store sees: the rows of every file the
    live manifest lists."""
    man = publish.load(root, name, "")
    return sorted(
        repr(sorted(r.items()))
        for t in man["files"]
        for p in publish.paths(root, man, t)
        for r in pq.read_table(p, partitioning=None).to_pylist()
    )


def _unlisted(root: str, name: str) -> set:
    """Files under the store's table dirs that its manifest does not
    list."""
    man = publish.load(root, name, "")
    listed = {os.path.normpath(p) for t in man["files"]
              for p in publish.live(man, t)}
    return {
        os.path.relpath(os.path.join(d, f), root)
        for t in man["files"]
        for d, _, fs in os.walk(os.path.join(root, t))
        for f in fs
    } - listed


def _crash_on_first_write(marker: str):
    """``write_table`` that raises after the first data file any
    process writes (the marker file makes "first" global across Ray
    workers; the closure ships to them by value)."""
    real = publish.write_table

    def write(table, path, **kw):
        real(table, path, **kw)
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
        raise RuntimeError("injected crash after the first data-file write")

    return write


@pytest.fixture(scope="module")
def expected(tmp_path_factory, ray_session):
    """Contents after each of the three writes, on an uncrashed store."""
    out = {}
    for store, (name, writes) in STORES.items():
        root = str(tmp_path_factory.mktemp(f"ref_{store}") / "store")
        out[store] = []
        for w in writes:
            w(root)
            out[store].append(_contents(root, name))
        assert out[store][0] != out[store][1] != out[store][2]
    return out


@pytest.mark.parametrize("point", ["first_write", "before_swap", "in_sweep"])
@pytest.mark.parametrize("store", sorted(STORES))
def test_crash_reads_old_or_new_and_next_write_converges(
        store, point, expected, tmp_path, monkeypatch):
    name, (w0, w1, w2) = STORES[store]
    old, new, after = expected[store]
    root = str(tmp_path / "store")
    w0(root)
    assert _contents(root, name) == old

    real_write_dataset = publish.write_dataset
    real_drop = publish.drop_files

    def first_sink(ds, path, **kw):
        real_write_dataset(ds.limit(1), path, **kw)
        raise RuntimeError("injected crash after the first data-file write")

    def swap(root, name, man):
        raise RuntimeError("injected crash before the manifest swap")

    def sweep_crash(root, rel_paths):
        real_drop(root, list(rel_paths)[:1])
        raise RuntimeError("injected crash inside the sweep")

    if point == "first_write":
        monkeypatch.setattr(publish, "write_table", _crash_on_first_write(
            str(tmp_path / "crashed")))
        monkeypatch.setattr(publish, "write_dataset", first_sink)
    elif point == "before_swap":
        monkeypatch.setattr(publish, "publish", swap)
    else:
        monkeypatch.setattr(publish, "drop_files", sweep_crash)
    with pytest.raises(Exception, match="injected crash"):
        w1(root)
    monkeypatch.undo()

    # the swap is the commit point: only a crash after it is visible
    assert _contents(root, name) == (new if point == "in_sweep" else old)
    if point != "in_sweep":
        w1(root)  # the caller reruns the write that raised
    assert _contents(root, name) == new
    w2(root)
    assert _contents(root, name) == after
    assert not _unlisted(root, name)
