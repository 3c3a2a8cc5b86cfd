"""Chunking + shuffled shard export."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from obsidian_parser_ray.stages.chunking import (
    chunk_documents,
    chunk_rows,
    export_training_shards,
)
from obsidian_parser_ray.state import load_manifest, publish


class TestChunkRows:
    def test_boundaries(self):
        words = " ".join(f"w{i}" for i in range(350))
        chunks = chunk_rows(words, 200, 150)
        assert [c[0] for c in chunks] == [0, 1]
        assert chunks[0][2] == 200 and chunks[1][2] == 200
        assert chunks[1][1].split()[0] == "w150"
        assert chunk_rows(" ".join(["x"] * 200), 200, 150) == [
            (0, " ".join(["x"] * 200), 200)
        ]
        assert len(chunk_rows(" ".join(["x"] * 351), 200, 150)) == 3
        assert chunk_rows("", 200, 150) == []
        assert chunk_rows("   ", 200, 150) == []

    def test_overlap_content(self):
        chunks = chunk_rows("a b c d e", 3, 2)
        assert chunks == [(0, "a b c", 3), (1, "c d e", 3)]


class TestChunkDocuments:
    def test_explode(self, ray_session):
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(
                        [" ".join(f"w{i}" for i in range(250)), "short", ""],
                        pa.string(),
                    ),
                }
            )
        )
        rows = chunk_documents(ds, window=100, overlap=20).take_all()
        by_doc = {}
        for r in rows:
            by_doc.setdefault(r["doc_id"], []).append(r)
        assert len(by_doc[1]) == 3  # 250 words, stride 80: [0:100][80:180][160:250]
        assert by_doc[1][2]["n_tokens"] == 90
        assert len(by_doc[2]) == 1 and by_doc[2][0]["n_tokens"] == 1
        assert 3 not in by_doc


class TestExportShards:
    def test_deterministic_shards(self, tmp_path, ray_session):
        ds = rd.range(1000).map_batches(
            lambda t: pa.table({"id": t["column_0"] if "column_0" in t.column_names else t["id"]}),
            batch_format="pyarrow",
        )

        def read_ids(d):
            # the shard files, in the order the manifest lists them
            return [pq.read_table(f)["id"].to_pylist()
                    for f in publish.paths(d, load_manifest(d), "data")]

        m1 = export_training_shards(ds, str(tmp_path / "a"), num_shards=4, seed=7)
        m2 = export_training_shards(ds, str(tmp_path / "b"), num_shards=4, seed=7)
        assert m1["rows"] == m2["rows"] == 1000
        a, b = read_ids(str(tmp_path / "a")), read_ids(str(tmp_path / "b"))
        assert len(a) == 4
        assert a == b  # same seed → identical shard layout
        flat = [x for s in a for x in s]
        assert sorted(flat) == list(range(1000))
        assert flat != sorted(flat)  # actually shuffled


class TestChunkCountFormula:
    """chunk_rows count must equal the oracle's closed-form
    (window=200, stride=150): 1 if n<=200 else 1+ceil((n-200)/150)."""

    def test_formula_equivalence(self):
        import math

        for n in list(range(0, 700)) + [1999, 2000, 2001, 5000]:
            text = " ".join(["w"] * n)
            got = len(chunk_rows(text, 200, 150))
            exp = 0 if n == 0 else (1 if n <= 200 else 1 + math.ceil((n - 200) / 150))
            assert got == exp, n


@pytest.mark.usefixtures("ray_session")
class TestDeterministicSample:
    def test_k_per_key_and_determinism(self):
        import hashlib

        import pandas as pd
        import ray.data as rd

        from obsidian_parser_ray.stages.chunking import (
            deterministic_sample_per_key,
        )

        rows = [
            {"doc_id": i, "lang": ["en", "de", "fr"][i % 3]} for i in range(60)
        ]
        ds = rd.from_pandas(pd.DataFrame(rows))
        out = deterministic_sample_per_key(
            ds, key_col="lang", id_col="doc_id", k=4
        ).to_pandas()
        assert len(out) == 12
        assert out.groupby("lang").size().to_dict() == {"en": 4, "de": 4, "fr": 4}
        # matches the analytic rule: smallest-4 md5(str(id)) per lang
        df = pd.DataFrame(rows)
        df["_h"] = [
            hashlib.md5(str(i).encode()).hexdigest() for i in df["doc_id"]
        ]
        expect = set(
            df.sort_values(["_h", "doc_id"]).groupby("lang").head(4)["doc_id"]
        )
        assert set(out["doc_id"]) == expect
        # independent of partitioning
        out2 = deterministic_sample_per_key(
            ds.repartition(7), key_col="lang", id_col="doc_id", k=4
        ).to_pandas()
        assert set(out2["doc_id"]) == expect

    def test_k_larger_than_group(self):
        import pandas as pd
        import ray.data as rd

        from obsidian_parser_ray.stages.chunking import (
            deterministic_sample_per_key,
        )

        ds = rd.from_pandas(
            pd.DataFrame({"doc_id": [1, 2], "lang": ["en", "en"]})
        )
        out = deterministic_sample_per_key(
            ds, key_col="lang", id_col="doc_id", k=10
        ).to_pandas()
        assert sorted(out["doc_id"]) == [1, 2]


@pytest.mark.usefixtures("ray_session")
class TestPackSequences:
    def test_constraints_and_next_fit_parity(self):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.chunking import pack_sequences

        rng = np.random.RandomState(0)
        rows = []
        for d in range(40):
            for c in range(int(rng.randint(1, 6))):
                rows.append((f"d{d:02d}", c, int(rng.randint(10, 120))))
        rows.append(("dbig", 0, 999))  # oversize chunk rides alone
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows]),
                    "chunk_idx": pa.array([r[1] for r in rows], pa.int64()),
                    "n_tokens": pa.array([r[2] for r in rows], pa.int64()),
                }
            )
        ).repartition(5)
        cap = 256
        out = pack_sequences(ds, capacity=cap, num_partitions=4).to_pandas()

        # token conservation, row conservation
        assert len(out) == len(rows)
        assert out["n_tokens"].sum() == sum(r[2] for r in rows)
        # every bin: fill == sum of member tokens; <= cap unless oversize
        for b, grp in out.groupby("bin_id"):
            assert (grp["bin_fill"] == grp["n_tokens"].sum()).all()
            if not grp["oversize"].any():
                assert grp["bin_fill"].iloc[0] <= cap
            else:
                assert len(grp) == 1  # oversize chunks are alone
        # deterministic: same input → same bins
        out2 = pack_sequences(ds, capacity=cap, num_partitions=4).to_pandas()
        a = out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
        b = out2.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
        assert a.equals(b)
        # next-fit within partition: sequential reference per partition
        from obsidian_parser_ray.hashing import hash_bucket_scalar

        for part in range(4):
            mine = a[[hash_bucket_scalar(d, 4) == part
                      for d in a["doc_id"]]].sort_values(
                ["doc_id", "chunk_idx"]
            )
            toks = mine["n_tokens"].to_numpy()
            want_bins = []
            fill, seq = 0, 0
            for t in toks:
                if fill and fill + t > cap:
                    seq += 1
                    fill = 0
                fill += t
                want_bins.append(seq)
            got_bins = (mine["bin_id"] - (part << 32)).to_numpy()
            assert list(got_bins) == want_bins

    def test_ffd_same_contract_higher_fill(self):
        """strategy='ffd' keeps every pack_sequences invariant
        (conservation, capacity, oversize-alone, determinism) and its
        average non-oversize bin fill is >= next-fit's on a mixed-size
        corpus (the point of the strategy)."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.chunking import pack_sequences

        rng = np.random.RandomState(3)
        rows = []
        for d in range(60):
            for c in range(int(rng.randint(1, 7))):
                rows.append((f"d{d:02d}", c, int(rng.randint(5, 200))))
        rows.append(("dbig", 0, 700))
        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows]),
                    "chunk_idx": pa.array([r[1] for r in rows], pa.int64()),
                    "n_tokens": pa.array([r[2] for r in rows], pa.int64()),
                }
            )
        ).repartition(5)
        cap = 256
        ffd = pack_sequences(
            ds, capacity=cap, num_partitions=4, strategy="ffd"
        ).to_pandas()
        nf = pack_sequences(
            ds, capacity=cap, num_partitions=4
        ).to_pandas()

        # identical contract checks as the next-fit test
        assert len(ffd) == len(rows)
        assert ffd["n_tokens"].sum() == sum(r[2] for r in rows)
        for _, grp in ffd.groupby("bin_id"):
            assert (grp["bin_fill"] == grp["n_tokens"].sum()).all()
            if grp["oversize"].any():
                assert len(grp) == 1
            else:
                assert grp["bin_fill"].iloc[0] <= cap
        # deterministic
        ffd2 = pack_sequences(
            ds, capacity=cap, num_partitions=4, strategy="ffd"
        ).to_pandas()
        key = ["doc_id", "chunk_idx"]
        assert (
            ffd.sort_values(key).reset_index(drop=True)
            .equals(ffd2.sort_values(key).reset_index(drop=True))
        )
        # fill improvement: fewer-or-equal bins → higher average fill
        n_ffd = ffd.loc[~ffd["oversize"], "bin_id"].nunique()
        n_nf = nf.loc[~nf["oversize"], "bin_id"].nunique()
        assert n_ffd <= n_nf
        fill_ffd = ffd.loc[~ffd["oversize"]].groupby("bin_id")[
            "bin_fill"].first().mean()
        fill_nf = nf.loc[~nf["oversize"]].groupby("bin_id")[
            "bin_fill"].first().mean()
        assert fill_ffd >= fill_nf

    def test_ffd_rejects_unknown_strategy(self):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.chunking import pack_sequences

        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array(["a"]),
            "chunk_idx": pa.array([0], pa.int64()),
            "n_tokens": pa.array([5], pa.int64()),
        }))
        with pytest.raises(ValueError, match="strategy"):
            pack_sequences(ds, capacity=10, strategy="best_fit")


@pytest.mark.usefixtures("ray_session")
class TestSampleMixture:
    def test_quotas_and_determinism(self):
        import hashlib

        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.chunking import sample_mixture

        rows = [(f"id{i:03d}", ["a", "b", "c"][i % 3]) for i in range(300)]
        ds = rd.from_arrow(
            pa.table({"doc_id": pa.array([r[0] for r in rows]),
                      "src": pa.array([r[1] for r in rows])})
        ).repartition(5)
        out = sample_mixture(
            ds, key_col="src", fractions={"a": 0.4, "b": 0.1},
            id_col="doc_id",
        ).to_pandas()
        # quotas: floor(0.4*100)=40, floor(0.1*100)=10; 'c' dropped
        counts = out["src"].value_counts().to_dict()
        assert counts == {"a": 40, "b": 10}
        # membership = smallest md5(id) per key (sequential reference)
        for key, quota in (("a", 40), ("b", 10)):
            ids = [r[0] for r in rows if r[1] == key]
            want = set(sorted(
                ids, key=lambda i: (hashlib.md5(i.encode()).hexdigest(), i)
            )[:quota])
            got = set(out[out["src"] == key]["doc_id"])
            assert got == want
        out2 = sample_mixture(
            ds, key_col="src", fractions={"a": 0.4, "b": 0.1},
            id_col="doc_id",
        ).to_pandas()
        assert sorted(out["doc_id"]) == sorted(out2["doc_id"])


@pytest.mark.usefixtures("ray_session")
class TestHashSplit:
    def test_deterministic_and_stable_under_growth(self):
        import hashlib

        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.chunking import hash_split

        ids = list(range(200))
        t = pa.table({"doc_id": pa.array(ids, pa.int64())})
        out = (
            hash_split(rd.from_arrow(t).repartition(4))
            .to_pandas().set_index("doc_id")["split"]
        )
        for i in ids:
            b = int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100
            exp = "train" if b < 80 else ("val" if b < 90 else "test")
            assert out.loc[i] == exp
        # assignment of existing ids never changes when the corpus grows
        t2 = pa.table({"doc_id": pa.array(ids + list(range(500, 700)),
                                          pa.int64())})
        out2 = (
            hash_split(rd.from_arrow(t2).repartition(7))
            .to_pandas().set_index("doc_id")["split"]
        )
        assert out2.loc[ids].equals(out)

    def test_bad_params_raise(self):
        import ray.data as rd
        import pyarrow as pa

        from obsidian_parser_ray.stages.chunking import hash_split

        ds = rd.from_arrow(pa.table({"doc_id": [1]}))
        with pytest.raises(ValueError):
            hash_split(ds, pcts=(90, 80))


@pytest.mark.usefixtures("ray_session")
class TestJsonlShards:
    def test_round_trip_and_manifest(self, tmp_path):
        import gzip
        import json
        import os

        from obsidian_parser_ray.stages.chunking import (
            export_jsonl_shards,
        )

        t = pa.table({
            "doc_id": pa.array(list(range(100)), pa.int64()),
            "text": pa.array([f"doc {i}" for i in range(100)]),
        })
        out = str(tmp_path / "jl")
        man = export_jsonl_shards(
            rd.from_arrow(t).repartition(4), out, num_shards=5,
        )
        assert man["total_rows"] == 100
        assert os.path.exists(os.path.join(out, "_MANIFEST.json"))
        got = []
        for s in man["shards"]:
            p = os.path.join(out, f"shard-{s['shard']:05d}.jsonl.gz")
            with gzip.open(p, "rt") as f:
                rows = [json.loads(line) for line in f]
            assert len(rows) == s["rows"]
            got.extend(rows)
        assert sorted(r["doc_id"] for r in got) == list(range(100))

    def test_rerun_byte_identical(self, tmp_path):
        import hashlib
        import os

        from obsidian_parser_ray.stages.chunking import (
            export_jsonl_shards,
        )

        t = pa.table({
            "doc_id": pa.array(list(range(40)), pa.int64()),
            "v": pa.array([i * 1.5 for i in range(40)]),
        })

        def digest(d):
            h = hashlib.md5()
            for name in sorted(os.listdir(d)):
                if name.endswith(".gz"):
                    h.update(open(os.path.join(d, name), "rb").read())
            return h.hexdigest()

        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        export_jsonl_shards(rd.from_arrow(t), d1, num_shards=3)
        export_jsonl_shards(rd.from_arrow(t).repartition(5), d2,
                            num_shards=3)
        assert digest(d1) == digest(d2)


@pytest.mark.usefixtures("ray_session")
class TestJsonlRoundTrip:
    def test_export_then_read_back(self, tmp_path):
        from obsidian_parser_ray.sources import read_jsonl_shards
        from obsidian_parser_ray.stages.chunking import (
            export_jsonl_shards,
        )

        t = pa.table({
            "doc_id": pa.array(list(range(60)), pa.int64()),
            "text": pa.array([f"body {i}" for i in range(60)]),
        })
        out = str(tmp_path / "rt")
        export_jsonl_shards(rd.from_arrow(t).repartition(3), out,
                            num_shards=4)
        back = (
            read_jsonl_shards(out)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert list(back["doc_id"]) == list(range(60))
        assert back["text"].iloc[7] == "body 7"

    def test_manifest_mismatch_raises(self, tmp_path):
        import os

        from obsidian_parser_ray.sources import read_jsonl_shards
        from obsidian_parser_ray.stages.chunking import (
            export_jsonl_shards,
        )

        t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64())})
        out = str(tmp_path / "bad")
        export_jsonl_shards(rd.from_arrow(t), out, num_shards=2)
        # delete one shard -> count mismatch must be detected
        shards = [f for f in os.listdir(out) if f.endswith(".gz")]
        os.remove(os.path.join(out, shards[0]))
        with pytest.raises(ValueError):
            read_jsonl_shards(out)

    def test_truncated_shard_raises_without_reading(self, tmp_path):
        import os

        from obsidian_parser_ray.sources import read_jsonl_shards
        from obsidian_parser_ray.stages.chunking import (
            export_jsonl_shards,
        )

        t = pa.table({
            "doc_id": pa.array(list(range(30)), pa.int64()),
            "text": pa.array([f"body {i}" for i in range(30)]),
        })
        out = str(tmp_path / "trunc")
        export_jsonl_shards(rd.from_arrow(t), out, num_shards=2)
        # truncate one shard in place: same shard count, fewer bytes —
        # the stat()-level size check must catch it before any read
        shards = sorted(
            f for f in os.listdir(out) if f.endswith(".gz")
        )
        victim = os.path.join(out, shards[0])
        body = open(victim, "rb").read()
        with open(victim, "wb") as f:
            f.write(body[: len(body) // 2])
        with pytest.raises(ValueError, match="size mismatch"):
            read_jsonl_shards(out)
