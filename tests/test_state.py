"""Checkpoint / resume / lineage manifests (north_rule: resumable runs
with per-partition lineage + metrics)."""

import json
import os

import pytest

from obsidian_parser_ray import build_graph, write_graph
from obsidian_parser_ray.sources import from_markdown_items
from obsidian_parser_ray.state import (
    checkpoint_dataset,
    load_manifest,
    manifest_path,
    publish,
)


def _docs():
    return from_markdown_items(
        [(f"n{i}", f"---\nid: {i}\n---\nBody [[n{(i + 1) % 20}]] #t{i % 3}") for i in range(20)]
    )


class TestCheckpointDataset:
    def test_checkpoint_and_resume(self, tmp_path, ray_session):
        import ray.data as rd

        ds = rd.range(100).map_batches(lambda b: b, batch_format="pyarrow")
        path = str(tmp_path / "ckpt")
        out1 = checkpoint_dataset(ds, path, lineage="stage_x")
        assert out1.count() == 100
        m = load_manifest(path)
        assert m["rows"] == 100 and m["lineage"] == "stage_x"
        written_at = m["written_at"]

        # resume: same path returns the stored data WITHOUT rewriting
        out2 = checkpoint_dataset(ds, path, lineage="stage_x")
        assert out2.count() == 100
        assert load_manifest(path)["written_at"] == written_at

    def test_half_written_checkpoint_not_trusted(self, tmp_path, ray_session):
        import ray.data as rd

        path = str(tmp_path / "ckpt2")
        # simulate a crash: a first write's file exists but no manifest
        garbage = os.path.join("data", "g0", "part-0.parquet")
        os.makedirs(os.path.join(path, "data", "g0"), exist_ok=True)
        with open(os.path.join(path, garbage), "wb") as f:
            f.write(b"garbage")
        ds = rd.range(7)
        out = checkpoint_dataset(ds, path, lineage="y")
        assert out.count() == 7  # recomputed, garbage replaced
        assert load_manifest(path)["rows"] == 7
        assert garbage not in publish.live(load_manifest(path), "data")
        assert not os.path.exists(os.path.join(path, garbage))


class TestGraphCheckpoint:
    def test_build_graph_resumes_from_notes_checkpoint(self, tmp_path, ray_session):
        ck = str(tmp_path / "graph_ck")
        g1 = build_graph(_docs(), checkpoint_dir=ck)
        t1 = {
            (r["subj"], r["pred"], r["obj"]): r["weight"]
            for r in g1.triples.take_all()
        }
        stamp = load_manifest(ck + "/notes")["written_at"]

        g2 = build_graph(_docs(), checkpoint_dir=ck)
        t2 = {
            (r["subj"], r["pred"], r["obj"]): r["weight"]
            for r in g2.triples.take_all()
        }
        assert t1 == t2
        # the notes stage was NOT recomputed on the resumed run
        assert load_manifest(ck + "/notes")["written_at"] == stamp


class TestWriteGraph:
    def test_partitioned_output_with_manifests(self, tmp_path, ray_session):
        out = str(tmp_path / "kg_out")
        g = build_graph(_docs())
        m = write_graph(g, out)
        assert m["triples"]["rows"] > 0
        assert m["nodes"]["rows"] == 20
        for sub in ("triples", "nodes"):
            assert os.path.exists(manifest_path(f"{out}/{sub}"))
            man = json.load(open(manifest_path(f"{out}/{sub}")))
            files = publish.live(man, "data")
            assert files and all(f.endswith(".parquet") for f in files)
        # rerun: resumable — manifests untouched
        stamp = m["triples"]["written_at"]
        m2 = write_graph(build_graph(_docs()), out)
        assert m2["triples"]["written_at"] == stamp

    def test_dataset_id_invalidates_stale_output(self, tmp_path, ray_session):
        """An input fingerprint in dataset_id must force a rewrite over
        the same out_dir — the stale-manifest escape hatch ADVICE asked
        for (lineage alone would silently serve the old data)."""
        out = str(tmp_path / "kg_fp")
        m1 = write_graph(build_graph(_docs()), out, dataset_id="corpus-v1")
        stamp = m1["triples"]["written_at"]
        # same dataset_id → resume (no rewrite)
        m2 = write_graph(build_graph(_docs()), out, dataset_id="corpus-v1")
        assert m2["triples"]["written_at"] == stamp
        # different dataset_id → rewrite
        m3 = write_graph(build_graph(_docs()), out, dataset_id="corpus-v2")
        assert m3["triples"]["written_at"] != stamp


@pytest.mark.usefixtures("ray_session")
class TestIncrementalSumView:
    def test_deltas_equal_full_recompute(self, tmp_path):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from obsidian_parser_ray.state import (
            incremental_sum_view,
            read_sum_view,
        )

        rng = np.random.RandomState(53)
        full = pd.DataFrame(
            {
                "k": rng.randint(0, 30, 500),
                "v": rng.randint(0, 100, 500).astype("int64"),
                "w": rng.randint(0, 10, 500).astype("int64"),
            }
        )
        base = str(tmp_path / "mv")
        for s in [full.iloc[0::3], full.iloc[1::3], full.iloc[2::3]]:
            r = incremental_sum_view(
                base, rd.from_pandas(s.reset_index(drop=True)),
                keys=["k"], sums=["v", "w"], num_partitions=8,
            )
            assert r["buckets_touched"] > 0
        got = (
            read_sum_view(base).to_pandas()
            .sort_values("k").reset_index(drop=True)
            .astype({"k": "int64", "v": "int64", "w": "int64"})
        )
        want = (
            full.groupby("k", as_index=False)[["v", "w"]].sum()
            .sort_values("k").reset_index(drop=True)
        )
        assert got.equals(want)

    def test_param_mismatch_raises(self, tmp_path):
        import pandas as pd
        import ray.data as rd

        from obsidian_parser_ray.state import incremental_sum_view

        base = str(tmp_path / "mv2")
        df = pd.DataFrame({"k": [1], "v": [2]})
        incremental_sum_view(base, rd.from_pandas(df), keys=["k"],
                             sums=["v"], num_partitions=4)
        with pytest.raises(ValueError):
            incremental_sum_view(base, rd.from_pandas(df), keys=["k"],
                                 sums=["v"], num_partitions=8)

    def test_untouched_buckets_left_alone(self, tmp_path):
        import os

        import numpy as np
        import pandas as pd
        import ray.data as rd

        from obsidian_parser_ray.state import incremental_sum_view

        base = str(tmp_path / "mv3")
        rng = np.random.RandomState(59)
        df = pd.DataFrame({
            "k": rng.randint(0, 40, 300),
            "v": np.ones(300, dtype="int64"),
        })
        incremental_sum_view(base, rd.from_pandas(df), keys=["k"],
                             sums=["v"], num_partitions=16)

        def bucket_files():
            # bucket → (live file, mtime), read from the manifest
            man = publish.load(base, "_VIEW_MANIFEST.json", "")
            return {b: [(p, os.path.getmtime(os.path.join(base, p)))
                        for p in fs]
                    for b, fs in man["files"]["view"].items()}

        mtimes = bucket_files()
        one = pd.DataFrame({"k": [int(df["k"].iloc[0])], "v": [5]})
        r = incremental_sum_view(base, rd.from_pandas(one), keys=["k"],
                                 sums=["v"], num_partitions=16)
        assert r["buckets_touched"] == 1
        after = bucket_files()
        changed = [d for d in mtimes if after.get(d) != mtimes[d]]
        assert len(changed) == 1
