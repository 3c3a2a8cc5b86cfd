"""Incremental graph maintenance == full rebuild, across delta shapes:
content-only change, short-name theft, alias theft, add, remove, and
successive deltas (tombstone generations); plus the commit under
injected crashes, the execution count and the rebuild guard."""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest


def _triples_set(ds):
    return sorted(
        (r["subj"], r["pred"], r["obj"], r["weight"])
        for r in ds.take_all()
    )


def _full(vault: dict):
    from obsidian_parser_ray.pipelines.graph import build_graph
    from obsidian_parser_ray.sources import from_markdown_items

    g = build_graph(
        from_markdown_items(sorted(vault.items())),
        materialize_notes=True,
    )
    return _triples_set(g.triples)


def _apply(vault: dict, delta: list, removed: list) -> dict:
    v = dict(vault)
    for d, raw in delta:
        v[d] = raw
    for d in removed:
        v.pop(d, None)
    return v


V0 = {
    "notes/a": "Link to [[b]] and [[missing]]. #t1",
    "notes/b": "---\naliases: [bee]\n---\nBody [[c]].",
    "notes/c": "See [[bee]] and [[notes/a]].",
    "notes/d": "Cites [[c]] too.",
    "zz/c": "Shadow short-name c loses to notes/c.",
}

# content change + alias theft + removal: rewrites candidate, docs,
# mentions and triples buckets and appends reverse-index rows
MIXED = (
    [("notes/a", "Rewritten: [[c]] only. #t2"),
     ("aa/thief", "---\naliases: [bee]\n---\nSteals bee.")],
    ["notes/d"],
)


class _Crash(RuntimeError):
    pass


def _base_triples(base: str):
    """What any reader of the base sees: the manifest's live triples."""
    from obsidian_parser_ray.pipelines.incremental import (
        _load_manifest,
        _triples_dataset,
    )

    return _triples_set(_triples_dataset(base, _load_manifest(base)))


def _orphans(base: str) -> set:
    """Table files on disk that the manifest does not list."""
    from obsidian_parser_ray.pipelines.incremental import _load_manifest
    from obsidian_parser_ray.state import publish

    man = _load_manifest(base)
    live = {p for t in man["files"] for p in publish.live(man, t)}
    return {
        os.path.relpath(os.path.join(d, f), base)
        for t in man["files"]
        for d, _, fs in os.walk(os.path.join(base, t))
        for f in fs
    } - live


def _snapshot(base: str) -> dict:
    out = {}
    for d, _, fs in os.walk(base):
        for f in fs:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), base)] = fh.read()
    return out


@pytest.mark.usefixtures("ray_session")
class TestIncremental:
    def _base(self, vault: dict, tmp: str):
        from obsidian_parser_ray.pipelines.incremental import (
            checkpoint_graph_base,
        )
        from obsidian_parser_ray.sources import from_markdown_items

        checkpoint_graph_base(
            from_markdown_items(sorted(vault.items())), tmp, num_buckets=8
        )

    def _update(self, tmp: str, delta: list, removed: list):
        from obsidian_parser_ray.pipelines.incremental import (
            incremental_update,
        )
        from obsidian_parser_ray.sources import from_markdown_items

        return _triples_set(
            incremental_update(
                tmp, from_markdown_items(delta), removed
            )
        )

    def _roundtrip(self, deltas_and_removals: list[tuple[list, list]]):
        tmp = tempfile.mkdtemp(prefix="kginc_")
        try:
            self._base(V0, tmp)
            vault = V0
            for delta, removed in deltas_and_removals:
                got = self._update(tmp, delta, removed)
                vault = _apply(vault, delta, removed)
                assert got == _full(vault)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_content_only_change(self):
        # no name/alias changes: only notes/a's own triples move
        self._roundtrip(
            [([("notes/a", "Now links [[c]] twice: [[c]]. #t9")], [])]
        )

    def test_alias_theft_and_removal(self):
        # aa/thief < notes/b steals alias 'bee' → notes/c re-resolves
        self._roundtrip([
            ([("aa/thief", "---\naliases: [bee]\n---\nSteals bee.")], []),
            # removing the thief must REVERT the alias to notes/b
            # (runner-up promotion — winner-only state couldn't do this)
            ([], ["aa/thief"]),
        ])

    def test_short_name_theft(self):
        # 'aa/c' < 'notes/c' wins short name 'c' → notes/b and notes/d
        # (citing [[c]]) re-resolve to the new winner
        self._roundtrip(
            [([("aa/c", "New earliest-keyed c.")], [])]
        )

    def test_remove_cited_doc(self):
        # removing notes/c drops short 'c' to the shadow zz/c — citing
        # docs re-resolve to the promoted runner-up
        self._roundtrip([([], ["notes/c"])])

    def test_mixed_successive_deltas(self):
        self._roundtrip([
            (
                [("notes/a", "Rewritten: [[c]] only. #t2"),
                 ("aa/thief", "---\naliases: [bee]\n---\nSteals bee.")],
                ["notes/d"],
            ),
            (
                [("notes/e", "Late joiner cites [[bee]] and [[a]].")],
                ["zz/c"],
            ),
        ])

    def test_empty_delta_is_noop(self):
        tmp = tempfile.mkdtemp(prefix="kginc_")
        try:
            self._base(V0, tmp)
            got = self._update(tmp, [], [])
            assert got == _full(V0)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_compaction_preserves_reads_and_shrinks_map(self):
        """VERDICT r2 #8: compact_mention_keys must (a) clear the
        tombstone map, (b) leave the tombstone-FILTERED read of the
        reverse index identical to the plain read of the compacted
        one, (c) physically drop stale generations, and (d) leave
        later incremental updates producing the same triples as an
        uncompacted twin."""
        import json
        import os

        import ray.data as rd

        from obsidian_parser_ray.pipelines.incremental import (
            _load_manifest,
            _tombstone_filter,
            compact_mention_keys,
        )
        from obsidian_parser_ray.state import publish

        tmp = tempfile.mkdtemp(prefix="kginc_")
        twin = tempfile.mkdtemp(prefix="kginc_twin_")
        try:
            self._base(V0, tmp)
            # two deltas → tombstones at two generations
            d1 = [("notes/a", "Now links [[c]] twice: [[c]]. #t9")]
            d2 = [("aa/thief", "---\naliases: [bee]\n---\nSteals bee.")]
            self._update(tmp, d1, [])
            self._update(tmp, d2, [])

            def read_mk(filtered_by: dict | None):
                ds = rd.read_parquet(
                    [os.path.join(tmp, p) for p in
                     publish.live(_load_manifest(tmp), "mention_keys")],
                    partitioning=None,
                )
                if filtered_by:
                    ds = ds.map_batches(_tombstone_filter(filtered_by),
                                        batch_format="pyarrow")
                return sorted(
                    (r["target_key"], r["doc_id"], r["gen"])
                    for r in ds.take_all()
                )

            with open(os.path.join(tmp, "_MANIFEST.json")) as f:
                man_pre = json.load(f)
            assert man_pre["tombstones"]  # something to compact
            raw_pre = read_mk(None)
            filt_pre = read_mk(man_pre["tombstones"])
            assert len(raw_pre) > len(filt_pre)  # stale rows exist

            shutil.copytree(tmp, twin, dirs_exist_ok=True)
            man_post = compact_mention_keys(tmp)
            assert man_post["tombstones"] == {}
            with open(os.path.join(tmp, "_MANIFEST.json")) as f:
                assert json.load(f)["tombstones"] == {}
            # plain read of compacted == filtered read of uncompacted
            assert read_mk(None) == filt_pre
            # compacting again is a no-op (empty map short-circuits)
            assert compact_mention_keys(tmp)["tombstones"] == {}

            # a further delta behaves identically on both bases
            d3 = [("notes/e", "Cites [[bee]] and [[c]].")]
            got_compacted = self._update(tmp, d3, [])
            got_twin = self._update(twin, d3, [])
            assert got_compacted == got_twin
            vault = _apply(_apply(_apply(V0, d1, []), d2, []), d3, [])
            assert got_compacted == _full(vault)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.rmtree(twin, ignore_errors=True)


@pytest.mark.usefixtures("ray_session")
class TestIncrementalCommit:
    """The generation commit: bucket files are written under new names,
    the manifest swap publishes them, superseded files go after it."""

    def _base(self, tmp: str):
        TestIncremental()._base(V0, tmp)

    def _update(self, tmp: str, delta: list, removed: list):
        return TestIncremental()._update(tmp, delta, removed)

    @pytest.mark.parametrize("crash", ["first_write", "middle_write",
                                       "after_publish"])
    def test_crash_leaves_old_or_new_base_and_reapply_converges(
            self, monkeypatch, crash):
        from obsidian_parser_ray.state import publish

        old, new = _full(V0), _full(_apply(V0, *MIXED))
        tmp = tempfile.mkdtemp(prefix="kginc_")
        try:
            # the number of bucket-file writes of this delta, on a copy
            self._base(tmp)
            dry = tmp + "_dry"
            shutil.copytree(tmp, dry)
            writes = []
            real_write = publish.write_table
            monkeypatch.setattr(publish, "write_table",
                                lambda t, p: writes.append(p) or real_write(t, p))
            self._update(dry, *MIXED)
            shutil.rmtree(dry, ignore_errors=True)
            assert len(writes) >= 5

            # crash after the k-th write, or in the post-publish cleanup
            k = {"first_write": 1, "middle_write": len(writes) // 2}.get(crash)
            done = []

            def write_then_crash(t, p):
                real_write(t, p)
                done.append(p)
                if len(done) == k:
                    raise _Crash(p)

            def cleanup_crash(base_dir, paths):
                raise _Crash("cleanup")

            if k is None:
                monkeypatch.setattr(publish, "write_table", real_write)
                monkeypatch.setattr(publish, "drop_files", cleanup_crash)
            else:
                monkeypatch.setattr(publish, "write_table", write_then_crash)
            with pytest.raises(_Crash):
                self._update(tmp, *MIXED)
            monkeypatch.undo()

            assert _base_triples(tmp) == (new if k is None else old)
            assert _orphans(tmp)  # written-but-unpublished or superseded
            # re-applying the same delta converges to the new vault
            assert self._update(tmp, *MIXED) == new
            assert _base_triples(tmp) == new
            # and the next delta ignores whatever orphans remain
            d2 = [("notes/e", "Late joiner cites [[bee]] and [[a]].")]
            assert self._update(tmp, d2, []) == _full(
                _apply(_apply(V0, *MIXED), d2, []))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.rmtree(tmp + "_dry", ignore_errors=True)

    def test_delta_runs_one_execution_plus_readback(self, monkeypatch):
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        from obsidian_parser_ray.pipelines.incremental import (
            incremental_update,
        )
        from obsidian_parser_ray.sources import from_markdown_items

        tmp = tempfile.mkdtemp(prefix="kginc_")
        try:
            self._base(tmp)
            calls = []
            real_execute = StreamingExecutor.execute

            def counting(executor, *a, **kw):
                calls.append(1)
                return real_execute(executor, *a, **kw)

            delta = from_markdown_items(MIXED[0])
            monkeypatch.setattr(StreamingExecutor, "execute", counting)
            ds = incremental_update(tmp, delta, MIXED[1])
            in_update = len(calls)
            rows = _triples_set(ds)
            assert in_update <= 2
            assert len(calls) - in_update == 1
            assert rows == _full(_apply(V0, *MIXED))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    @pytest.mark.parametrize("limit", ["BROADCAST_MAX_BYTES",
                                       "BROADCAST_MAX_ROWS"])
    def test_delta_past_the_guard_asks_for_a_rebuild(self, monkeypatch,
                                                      limit):
        from obsidian_parser_ray.stages import joins

        tmp = tempfile.mkdtemp(prefix="kginc_")
        try:
            self._base(tmp)
            before = _snapshot(tmp)
            monkeypatch.setattr(joins, limit, 1)
            with pytest.raises(ValueError, match="checkpoint_graph_base"):
                self._update(tmp, *MIXED)
            assert _snapshot(tmp) == before
            monkeypatch.undo()
            assert self._update(tmp, *MIXED) == _full(_apply(V0, *MIXED))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_manifest_without_file_list_asks_to_recheckpoint(self):
        import json

        from obsidian_parser_ray.pipelines.incremental import (
            compact_mention_keys,
        )

        tmp = tempfile.mkdtemp(prefix="kginc_")
        try:
            with open(os.path.join(tmp, "_MANIFEST.json"), "w") as f:
                json.dump({"num_buckets": 8, "generation": 3,
                           "tombstones": {"notes/a": 3}}, f)
            with pytest.raises(ValueError, match="re-checkpoint"):
                self._update(tmp, *MIXED)
            with pytest.raises(ValueError, match="re-checkpoint"):
                compact_mention_keys(tmp)
            # a checkpoint over it publishes a fresh base
            self._base(tmp)
            assert _base_triples(tmp) == _full(V0)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
