"""Dedup operators: exact, MinHash-LSH, SimHash, embedding cosine."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from obsidian_parser_ray.stages.dedup import (
    MinHasher,
    drop_exact_duplicates,
    embedding_neardup_pairs,
    exact_dedup,
    jaccard,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash64,
    simhash_pairs,
    word_shingles,
)


def _docs_ds(texts):
    import ray.data as rd

    return rd.from_pandas(
        pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    )


BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from a warm windowsill in the late afternoon sun"
)
NEAR = BASE.replace("lazy", "sleepy")  # one-word edit → high Jaccard
FAR = "completely different content about ray data pipelines and arrow batches"


class TestPureKernels:
    def test_shingles_and_jaccard(self):
        a = word_shingles("a b c d", 3)
        assert a == {"a b c", "b c d"}
        assert jaccard(a, a) == 1.0
        assert jaccard(a, set()) == 0.0
        assert jaccard(set(), set()) == 1.0
        assert word_shingles("a", 3) == {"a"}
        assert word_shingles("", 3) == set()

    def test_minhash_estimates_jaccard(self):
        mh = MinHasher(128)
        sa, sb = mh.signature(word_shingles(BASE)), mh.signature(word_shingles(NEAR))
        est = (sa == sb).mean()
        true = jaccard(word_shingles(BASE), word_shingles(NEAR))
        assert abs(est - true) < 0.2
        sf = mh.signature(word_shingles(FAR))
        assert (sa == sf).mean() < 0.2

    def test_minhash_deterministic(self):
        s1 = MinHasher(32, seed=7).signature({"x", "y"})
        s2 = MinHasher(32, seed=7).signature({"x", "y"})
        assert (s1 == s2).all()

    def test_simhash_near_and_far(self):
        a, b, f = simhash64(BASE), simhash64(NEAR), simhash64(FAR)
        ham = lambda x, y: bin(x ^ y).count("1")
        assert ham(a, b) < ham(a, f)
        assert simhash64(BASE) == a  # deterministic
        assert 0 <= a < 2**64


@pytest.mark.usefixtures("ray_session")
class TestExactDedup:
    def test_groups_and_keeper(self):
        ds = _docs_ds(["same", "same", "other", "same"])
        out = exact_dedup(ds).to_pandas()
        assert len(out) == 2
        g = out.set_index("keeper")["n_copies"].to_dict()
        assert g == {0: 3, 2: 1}

    def test_drop_duplicates(self):
        ds = _docs_ds(["same", "same", "other"])
        out = drop_exact_duplicates(ds).to_pandas().sort_values("doc_id")
        assert list(out["doc_id"]) == [0, 2]


@pytest.mark.usefixtures("ray_session")
class TestMinHashLSH:
    def test_planted_near_duplicates_found(self):
        texts = [BASE, NEAR, FAR, "unrelated words entirely " * 5]
        out = minhash_lsh_pairs(_docs_ds(texts), threshold=0.5).to_pandas()
        pairs = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
        assert (0, 1) in pairs
        assert (0, 2) not in pairs and (1, 2) not in pairs

    def test_minhash_stage_runs_no_actor_pool(self, actor_pools):
        """The MinHash stage is a stateless batch function: no
        actor-pool operator is built."""
        texts = [BASE, NEAR, FAR]
        out = minhash_lsh_pairs(_docs_ds(texts), threshold=0.5).materialize()
        stats = out.stats()
        assert actor_pools == []
        assert "_minhash_docs" in stats and "_MinHashDocs" not in stats
        assert out.count() == 1

    def test_exact_verification(self):
        texts = [BASE, NEAR, FAR]
        out = ngram_jaccard_pairs(_docs_ds(texts), threshold=0.5).to_pandas()
        assert list(out["id_a"]) == [0] and list(out["id_b"]) == [1]
        true = jaccard(word_shingles(BASE), word_shingles(NEAR))
        assert out["jaccard"].iloc[0] == pytest.approx(true)
        # integer witness columns are exact
        row = out.iloc[0]
        assert row["inter"] / row["union_n"] == row["jaccard"]

    def test_stop_shingle_guard(self):
        # a shingle with df > max_df contributes nothing to inter
        texts = ["x y z unique", "x y z other", "x y z third"]
        out = ngram_jaccard_pairs(
            _docs_ds(texts), threshold=0.01, max_df=2
        ).to_pandas()
        # 'x y z' appears in all 3 docs (df=3 > 2) → dropped; the docs
        # share no other shingle → no pairs at all
        assert len(out) == 0

    def test_empty_corpus_keeps_schema(self):
        import pyarrow as pa
        import ray.data as rd

        empty = rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "text": pa.array([], pa.string())}
            )
        )
        out = ngram_jaccard_pairs(empty, threshold=0.5)
        assert out.count() == 0
        assert out.schema().names == [
            "id_a", "id_b", "inter", "union_n", "jaccard",
        ]


@pytest.mark.usefixtures("ray_session")
class TestSimHash:
    def test_exact_dup_found_far_not(self):
        # recall guarantee holds for hamming <= 3; an identical text is
        # hamming 0 and must always surface, FAR must not
        texts = [BASE, BASE, FAR]
        out = simhash_pairs(_docs_ds(texts), max_hamming=3).to_pandas()
        pairs = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
        assert (0, 1) in pairs
        assert (0, 2) not in pairs and (1, 2) not in pairs
        assert int(out.set_index(["id_a", "id_b"]).loc[(0, 1), "hamming"]) == 0

    def test_no_pairs_keeps_schema(self):
        out = simhash_pairs(_docs_ds([BASE, FAR]), max_hamming=3)
        assert out.count() == 0
        # NB: ray 2.49 to_pandas() drops columns on any 0-row dataset;
        # the Dataset-level schema is the contract
        assert out.schema().names == ["id_a", "id_b", "hamming"]


@pytest.mark.usefixtures("ray_session")
class TestEmbeddingNearDup:
    def test_planted_pair(self):
        import ray.data as rd

        rng = np.random.RandomState(0)
        base = rng.standard_normal(32)
        near = base + rng.standard_normal(32) * 0.01
        far = rng.standard_normal(32)
        df = pd.DataFrame(
            {
                "vec_id": [0, 1, 2],
                "embedding": [base.tolist(), near.tolist(), far.tolist()],
            }
        )
        out = embedding_neardup_pairs(
            rd.from_pandas(df), threshold=0.95
        ).to_pandas()
        pairs = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
        assert pairs == {(0, 1)}
        assert out["cosine"].iloc[0] > 0.99

    def test_recall_vs_bruteforce(self):
        """Multi-table LSH recall on planted near-dups ≥ 0.8 of the
        brute-force ground truth; precision exact by construction."""
        import ray.data as rd

        rng = np.random.RandomState(7)
        dim, n_base, n_planted = 32, 60, 20
        base = rng.standard_normal((n_base, dim))
        rows = [(i, base[i]) for i in range(n_base)]
        for i in range(n_planted):
            rows.append((1000 + i, base[i] + rng.standard_normal(dim) * 0.02))
        ids = [r[0] for r in rows]
        vecs = np.stack([r[1] for r in rows])
        df = pd.DataFrame({"vec_id": ids, "embedding": [v.tolist() for v in vecs]})

        thr = 0.95
        unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
        sim = unit @ unit.T
        iu, ju = np.triu_indices(len(ids), 1)
        truth = {
            (min(ids[i], ids[j]), max(ids[i], ids[j]))
            for i, j in zip(iu, ju)
            if sim[i, j] >= thr
        }
        assert len(truth) >= n_planted  # planted pairs really are near-dups

        out = embedding_neardup_pairs(
            rd.from_pandas(df), threshold=thr, num_tables=3
        ).to_pandas()
        found = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
        assert found <= truth  # exact verify → precision 1.0
        assert len(found) / len(truth) >= 0.8


@pytest.mark.usefixtures("ray_session")
class TestDropNearDuplicates:
    def _kept(self, texts, **kw):
        from obsidian_parser_ray.stages.dedup import drop_near_duplicates

        out = drop_near_duplicates(
            _docs_ds(texts), num_partitions=8, cc_num_partitions=4, **kw
        )
        return sorted(r["doc_id"] for r in out.take_all())

    def test_cluster_keeps_min_id_representative(self):
        # 0≈1≈2 one cluster, 3 unrelated → keep {0, 3}
        assert self._kept(
            [BASE, NEAR, BASE, FAR], threshold=0.4
        ) == [0, 3]

    def test_no_duplicates_keeps_everything(self):
        texts = [BASE, FAR, "a third unrelated note about minhash"]
        assert self._kept(texts, threshold=0.9) == [0, 1, 2]

    def test_transitive_chain_collapses(self):
        # a~b and b~c above threshold; a~c below it — transitive
        # closure must still collapse all three onto the min id
        a = BASE
        b = BASE.replace("lazy", "sleepy").replace("warm", "cold")
        c = (BASE.replace("lazy", "sleepy").replace("warm", "cold")
             .replace("quick", "slow").replace("cat", "bird"))
        from obsidian_parser_ray.stages.dedup import (
            ascii_word_shingles, jaccard,
        )

        ja_c = jaccard(ascii_word_shingles(a), ascii_word_shingles(c))
        jab = jaccard(ascii_word_shingles(a), ascii_word_shingles(b))
        jbc = jaccard(ascii_word_shingles(b), ascii_word_shingles(c))
        thr = (max(ja_c, 0.0) + min(jab, jbc)) / 2
        assert ja_c < thr < min(jab, jbc)  # the chain premise holds
        assert self._kept([a, b, c, FAR], threshold=thr) == [0, 3]


class TestContamination:
    def _mk(self):
        import ray.data as rd

        train = pa.table(
            {
                "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                "text": pa.array(
                    [
                        # shares the 3-gram "alpha beta gamma" with bench
                        "alpha beta gamma delta",
                        # no overlap
                        "zeta eta theta iota kappa",
                        # two distinct shared 3-grams
                        "alpha beta gamma alpha beta gamma",
                        # shorter than n: yields NO grams at all
                        "alpha beta",
                    ]
                ),
            }
        )
        bench = pa.table(
            {
                "doc_id": pa.array([100], pa.int64()),
                "text": pa.array(["alpha beta gamma alpha mu nu"]),
            }
        )
        return rd.from_arrow(train).repartition(3), rd.from_arrow(bench)

    def test_counts_distinct_shared_ngrams(self, ray_session):
        from obsidian_parser_ray.stages.dedup import ngram_contamination

        train, bench = self._mk()
        got = (
            ngram_contamination(train, bench, n=3, num_partitions=8)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # doc 1: "alpha beta gamma" -> 1 hit
        # doc 3: "alpha beta gamma" + "gamma alpha beta"?  bench grams of
        #   "alpha beta gamma alpha mu nu": {alpha beta gamma,
        #   beta gamma alpha, gamma alpha mu, alpha mu nu};
        #   doc 3 grams: {alpha beta gamma, beta gamma alpha,
        #   gamma alpha beta} -> hits = 2
        assert got["doc_id"].tolist() == [1, 3]
        assert got["n_hits"].tolist() == [1, 2]

    def test_short_doc_yields_no_grams(self, ray_session):
        from obsidian_parser_ray.stages.dedup import word_ngrams_exact

        assert word_ngrams_exact("alpha beta", 3) == set()
        assert word_ngrams_exact("", 3) == set()
        assert word_ngrams_exact("a b c", 3) == {"a b c"}

    def test_min_hits_threshold(self, ray_session):
        from obsidian_parser_ray.stages.dedup import ngram_contamination

        train, bench = self._mk()
        got = ngram_contamination(
            train, bench, n=3, min_hits=2, num_partitions=8
        ).to_pandas()
        assert got["doc_id"].tolist() == [3]

    def test_drop_contaminated(self, ray_session):
        from obsidian_parser_ray.stages.dedup import drop_contaminated

        train, bench = self._mk()
        kept = (
            drop_contaminated(train, bench, n=3, num_partitions=8)
            .to_pandas()
            .sort_values("doc_id")
        )
        assert kept["doc_id"].tolist() == [2, 4]

    def test_matches_duckdb_sliding_window(self, ray_session):
        """Parity with the SQL oracle shape on a random small corpus."""
        import duckdb
        import numpy as np
        import ray.data as rd

        from obsidian_parser_ray.stages.dedup import ngram_contamination

        rng = np.random.RandomState(11)
        # tiny vocabulary => dense 4-gram collisions between docs
        vocab = ["w%d" % i for i in range(6)]
        texts = [
            " ".join(rng.choice(vocab, rng.randint(2, 40)))
            for _ in range(120)
        ]
        t = pa.table(
            {"doc_id": pa.array(range(120), pa.int64()),
             "text": pa.array(texts)}
        )
        con = duckdb.connect()
        con.register("documents", t)
        exp = con.execute("""
WITH words AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '') AS w
  FROM documents),
grams AS (
  SELECT doc_id,
         unnest(list_transform(range(1, greatest(len(w) - 3, 0) + 1),
                               i -> array_to_string(w[i:i+3], ' '))) AS g
  FROM words),
bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 7 = 0)
SELECT doc_id, count(DISTINCT g)::BIGINT AS n_hits
FROM grams JOIN bench USING (g)
WHERE doc_id % 7 <> 0 GROUP BY doc_id ORDER BY doc_id
""").fetchdf()
        full = rd.from_arrow(t).repartition(5)
        def _part(keep_bench):
            def fn(b):
                ids = np.asarray(b["doc_id"].to_pylist(), dtype=np.int64)
                mask = ids % 7 == 0 if keep_bench else ids % 7 != 0
                return b.filter(pa.array(mask))

            return fn

        train = full.map_batches(_part(False), batch_format="pyarrow")
        bench = full.map_batches(_part(True), batch_format="pyarrow")
        got = (
            ngram_contamination(train, bench, n=4, num_partitions=16)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got["doc_id"].tolist() == exp["doc_id"].tolist()
        assert got["n_hits"].tolist() == exp["n_hits"].tolist()


class TestMinhashClusterDedup:
    def _corpus(self):
        import ray.data as rd

        rng = np.random.RandomState(3)
        vocab = ["tok%d" % i for i in range(400)]
        texts, ids = [], []
        # 10 template clusters of 6 near-identical docs + 40 singletons
        did = 0
        for c in range(10):
            base = list(rng.choice(vocab, 60))
            for j in range(6):
                t = list(base)
                t[j] = "mut%d_%d" % (c, j)  # one-token mutation
                texts.append(" ".join(t))
                ids.append(did)
                did += 1
        for _ in range(40):
            texts.append(" ".join(rng.choice(vocab, 60)))
            ids.append(did)
            did += 1
        return rd.from_arrow(
            pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts)})
        ).repartition(4)

    def test_keeps_one_per_cluster(self, ray_session):
        from obsidian_parser_ray.stages.dedup import drop_minhash_duplicates

        ds = self._corpus()
        kept = sorted(
            drop_minhash_duplicates(
                ds, threshold=0.5, num_partitions=8
            ).to_pandas()["doc_id"]
        )
        # each 6-doc cluster collapses to its min id; singletons survive
        assert [k for k in kept if k < 60] == [0, 6, 12, 18, 24, 30, 36, 42, 48, 54]
        assert [k for k in kept if k >= 60] == list(range(60, 100))

    def test_star_candidates_connect_same_clusters_as_pairs(self, ray_session):
        from obsidian_parser_ray.stages.dedup import minhash_lsh_pairs

        ds = self._corpus()

        def comps(pairs_df):
            parent = {}

            def find(x):
                while parent.get(x, x) != x:
                    parent[x] = parent.get(parent[x], parent[x])
                    x = parent[x]
                return x

            for a, b in zip(pairs_df["id_a"], pairs_df["id_b"]):
                parent.setdefault(a, a), parent.setdefault(b, b)
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            out = {}
            for n in list(parent):
                out.setdefault(find(n), set()).add(n)
            # NB: a SET of frozensets — sorted() would compare sets
            # with `<` (subset partial order), making the list order
            # depend on pair emission order
            return {frozenset(v) for v in out.values()}

        full = minhash_lsh_pairs(
            ds, threshold=0.5, num_partitions=8
        ).to_pandas()
        star = minhash_lsh_pairs(
            ds, threshold=0.5, num_partitions=8, candidates="star",
        ).to_pandas()
        assert len(star) < len(full)          # linear vs quadratic surface
        assert comps(star) == comps(full)     # same clusters


@pytest.mark.usefixtures("ray_session")
class TestRemoveRepeatedNgrams:
    def _brute(self, docs: dict, n: int, min_docs: int = 2):
        import re

        wre = re.compile(r"\S+", re.ASCII)
        words = {d: wre.findall(t) for d, t in docs.items()}
        gram_docs: dict = {}
        for d, w in words.items():
            for i in range(max(0, len(w) - n + 1)):
                gram_docs.setdefault(tuple(w[i:i + n]), set()).add(d)
        dup = {g for g, ds_ in gram_docs.items() if len(ds_) >= min_docs}
        out = {}
        for d, w in words.items():
            removed = [False] * len(w)
            for i in range(max(0, len(w) - n + 1)):
                if tuple(w[i:i + n]) in dup:
                    for j in range(i, min(i + n, len(w))):
                        removed[j] = True
            clean = " ".join(x for x, r in zip(w, removed) if not r)
            out[d] = (clean, len(w), sum(removed))
        return out

    def test_matches_bruteforce(self):
        import numpy as np
        import ray.data as rd
        import pyarrow as pa

        from obsidian_parser_ray.stages.dedup import remove_repeated_ngrams

        rng = np.random.RandomState(3)
        vocab = [f"w{i}" for i in range(40)]
        boiler = "the quick brown fox jumps over lazy dogs today"
        docs = {}
        for i in range(30):
            body = " ".join(rng.choice(vocab, size=25))
            # plant the shared boilerplate in 1 of 3 docs, mid-text
            if i % 3 == 0:
                body = body + " " + boiler + " " + " ".join(
                    rng.choice(vocab, size=5)
                )
            docs[f"d{i:02d}"] = body
        docs["empty"] = ""
        docs["short"] = "just two"

        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(list(docs)),
                    "text": pa.array(list(docs.values())),
                }
            )
        ).repartition(6)
        got = {
            r["doc_id"]: (r["clean_text"], r["n_words"], r["n_removed"])
            for r in remove_repeated_ngrams(
                ds, n=5, num_partitions=8
            ).take_all()
        }
        want = self._brute(docs, n=5)
        assert got == want
        # sanity: the boilerplate actually got removed somewhere
        assert any(v[2] > 0 for v in got.values())
        # and untouched docs stayed word-identical
        assert got["short"] == ("just two", 2, 0)
        assert got["empty"] == ("", 0, 0)

    def test_within_doc_repeat_not_removed(self):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.dedup import remove_repeated_ngrams

        # the repeated 3-gram lives in ONE doc only -> min_docs=2 keeps it
        docs = {
            "a": "x y z x y z tail",
            "b": "completely different words here",
        }
        ds = rd.from_arrow(
            pa.table({"doc_id": pa.array(list(docs)),
                      "text": pa.array(list(docs.values()))})
        )
        got = {r["doc_id"]: r["n_removed"]
               for r in remove_repeated_ngrams(ds, n=3).take_all()}
        assert got == {"a": 0, "b": 0}


@pytest.mark.usefixtures("ray_session")
class TestDedupAgainstIndex:
    def _ds(self, rows):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows]),
                    "text": pa.array([r[1] for r in rows]),
                }
            )
        )

    def test_cross_batch_and_within_batch(self, tmp_path):
        from obsidian_parser_ray.stages.dedup import dedup_against_index
        from obsidian_parser_ray.state import publish

        idx = str(tmp_path / "digests")
        # batch 1: b/c share text -> min-id keeper 'b'
        kept1 = dedup_against_index(
            self._ds([("a", "alpha text"), ("b", "same text"),
                      ("c", "same text")]),
            idx, num_partitions=4,
        ).to_pandas()
        assert sorted(kept1["doc_id"]) == ["a", "b"]
        man = publish.load(idx, "_DIGEST_MANIFEST.json", "")
        assert man["generation"] == 1

        # batch 2: 'd' repeats batch-1 text -> dropped; 'e' is new
        kept2_ds = dedup_against_index(
            self._ds([("d", "same text"), ("e", "brand new")]),
            idx, num_partitions=4,
        )
        kept2 = kept2_ds.to_pandas()
        assert sorted(kept2["doc_id"]) == ["e"]
        # lazy re-consumption AFTER the append sees the same snapshot
        assert sorted(kept2_ds.to_pandas()["doc_id"]) == ["e"]

        # batch 3: everything seen -> empty
        kept3 = dedup_against_index(
            self._ds([("f", "alpha text"), ("g", "brand new")]),
            idx, num_partitions=4,
        ).to_pandas()
        assert len(kept3) == 0

    def test_guardrails(self, tmp_path):
        import pytest as _pytest

        from obsidian_parser_ray.stages.dedup import dedup_against_index

        idx = str(tmp_path / "digests2")
        dedup_against_index(self._ds([("a", "x")]), idx, num_partitions=4)
        with _pytest.raises(ValueError, match="num_buckets"):
            dedup_against_index(self._ds([("b", "y")]), idx,
                                num_partitions=8)
        with _pytest.raises(ValueError, match="digest"):
            dedup_against_index(self._ds([("b", "y")]), idx,
                                num_partitions=4, digest="sha256")


@pytest.mark.usefixtures("ray_session")
class TestDropEmbeddingDuplicates:
    def test_cluster_dedup_keeps_min_id(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.dedup import drop_embedding_duplicates

        rng = np.random.RandomState(1)
        base_a = rng.standard_normal(32)
        base_b = rng.standard_normal(32)
        rows = []
        # cluster A: ids 10, 11, 12 (near-identical)
        for i, jitter in ((10, 0.0), (11, 0.005), (12, 0.008)):
            rows.append((i, base_a + rng.standard_normal(32) * jitter))
        # cluster B: ids 20, 21
        for i, jitter in ((20, 0.0), (21, 0.004)):
            rows.append((i, base_b + rng.standard_normal(32) * jitter))
        # singletons
        for i in range(30, 36):
            rows.append((i, rng.standard_normal(32)))
        df = pd.DataFrame(
            {"vec_id": [r[0] for r in rows],
             "embedding": [r[1].tolist() for r in rows]}
        )
        kept = drop_embedding_duplicates(
            rd.from_pandas(df), threshold=0.95, num_tables=3,
            num_partitions=4,
        ).to_pandas()
        got = sorted(int(v) for v in kept["vec_id"])
        # min id survives per cluster; singletons untouched
        assert got == [10, 20, 30, 31, 32, 33, 34, 35]

    def test_no_duplicates_is_identity(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.dedup import drop_embedding_duplicates

        rng = np.random.RandomState(2)
        df = pd.DataFrame(
            {"vec_id": list(range(12)),
             "embedding": [rng.standard_normal(16).tolist()
                           for _ in range(12)]}
        )
        kept = drop_embedding_duplicates(
            rd.from_pandas(df), threshold=0.99, num_partitions=4
        ).to_pandas()
        assert sorted(kept["vec_id"]) == list(range(12))


@pytest.mark.usefixtures("ray_session")
class TestEdit1Pairs:
    def _pairs(self, names):
        import ray.data as rd

        from obsidian_parser_ray.stages.dedup import edit1_pairs

        ds = rd.from_arrow(pa.table({"name": pa.array(names)})).repartition(3)
        out = edit1_pairs(ds, column="name").to_pandas()
        if not len(out):
            return set()
        return set(map(tuple, out[["name_a", "name_b"]].to_numpy()))

    def test_substitution_insertion_deletion_found(self):
        got = self._pairs(["cat", "cut", "cats", "at", "dog"])
        # cat~cut (sub), cat~cats (ins), cat~at (del), cut~at? dist 2.
        assert ("cat", "cut") in got
        assert ("cat", "cats") in got
        assert ("at", "cat") in got
        assert not any("dog" in p for p in got)

    def test_transposition_is_distance_two(self):
        # ab / ba share both deletion variants but levenshtein = 2
        assert self._pairs(["ab", "ba"]) == set()

    def test_duplicates_collapse_and_empty_string(self):
        got = self._pairs(["x", "x", "", "y"])
        # ''~'x' and ''~'y' are insertions; 'x'~'y' substitution
        assert got == {("", "x"), ("", "y"), ("x", "y")}

    def test_matches_duckdb_levenshtein(self):
        import duckdb
        import numpy as np

        rng = np.random.RandomState(9)
        # clustered serial-number-ish names → dense distance-1 graph
        names = list({
            f"item-{rng.randint(0, 40):03d}{rng.choice(list('abc'))}"
            for _ in range(250)
        })
        got = self._pairs(names)
        exp = duckdb.sql(
            "SELECT a.n, b.n FROM (SELECT unnest(?) n) a, "
            "(SELECT unnest(?) n) b "
            "WHERE a.n < b.n AND levenshtein(a.n, b.n) <= 1",
            params=[names, names],
        ).fetchall()
        assert got == set(map(tuple, exp))


class TestDedupLines:
    def _brute(self, docs: dict, min_len: int = 1):
        occ: dict = {}
        for d in sorted(docs):
            for i, ln in enumerate(docs[d].split("\n")):
                if len(ln) >= min_len:
                    occ.setdefault(ln, []).append((d, i))
        drop = set()
        for lst in occ.values():
            drop.update(sorted(lst)[1:])
        out = {}
        for d, t in docs.items():
            lines = t.split("\n")
            kept = [ln for i, ln in enumerate(lines) if (d, i) not in drop]
            removed = sum(1 for i in range(len(lines)) if (d, i) in drop)
            out[d] = ("\n".join(kept), len(lines), removed)
        return out

    def _run(self, docs: dict, ray_session, **kw):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.dedup import dedup_lines

        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": list(docs),
                    "text": [docs[d] for d in docs],
                }
            )
        )
        out = dedup_lines(ds, **kw).to_pandas()
        return {
            r.doc_id: (r.clean_text, r.n_lines, r.n_removed)
            for r in out.itertuples()
        }

    def test_matches_bruteforce_random(self, ray_session):
        import numpy as np

        rng = np.random.RandomState(7)
        pool = [f"line number {i} content" for i in range(12)]
        pool += ["", "x", "shared footer boilerplate"]
        docs = {
            d: "\n".join(
                pool[rng.randint(len(pool))]
                for _ in range(rng.randint(1, 9))
            )
            for d in range(40)
        }
        got = self._run(docs, ray_session)
        assert got == self._brute(docs)

    def test_null_text_rows_survive_as_empty(self, ray_session):
        # ADVICE r4: null text used to NaN the explode lengths and
        # crash the rebuild's .split; contract is null == ''
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.dedup import dedup_lines

        ds = rd.from_arrow(
            pa.table(
                {
                    "doc_id": [1, 2, 3],
                    "text": pa.array(
                        ["shared line\nkeep me", None,
                         "shared line\nother"],
                        pa.string(),
                    ),
                }
            )
        )
        out = dedup_lines(ds).to_pandas().set_index("doc_id")
        assert out.loc[2].clean_text == ""
        assert out.loc[2].n_lines == 1 and out.loc[2].n_removed == 0
        assert out.loc[1].clean_text == "shared line\nkeep me"
        assert out.loc[3].clean_text == "other"

    def test_min_len_guard_and_within_doc(self, ray_session):
        docs = {
            1: "aa\nlong shared line\n\naa",
            2: "long shared line\nbb\n",
        }
        # min_len=3: 'aa', 'bb', '' never participate; doc 1 wins the
        # shared line (smaller doc_id); doc 1's second 'aa' survives
        # (below the guard) — within-doc dedup applies only to
        # participating lines
        got = self._run(docs, ray_session, min_len=3)
        assert got[1] == ("aa\nlong shared line\n\naa", 4, 0)
        assert got[2] == ("bb\n", 3, 1)

    def test_within_doc_dedup_and_empty(self, ray_session):
        docs = {5: "dup line\ndup line\ndup line", 6: ""}
        got = self._run(docs, ray_session)
        assert got[5] == ("dup line", 3, 2)
        assert got[6] == ("", 1, 0)
