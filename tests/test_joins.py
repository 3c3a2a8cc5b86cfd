import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from obsidian_parser_ray.stages.joins import hash_join_unique


def _left():
    return rd.from_arrow(
        pa.table(
            {
                "k": pa.array(["a", "b", "c", "a", "x"], pa.string()),
                "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
            }
        )
    )


def _right():
    return rd.from_arrow(
        pa.table(
            {
                "kk": pa.array(["a", "b", "c"], pa.string()),
                "w": pa.array([10.0, 20.0, 30.0], pa.float64()),
            }
        )
    )


def test_inner_join_matches_pandas(ray_session):
    got = (
        hash_join_unique(_left(), _right(), left_key="k", right_key="kk")
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    exp = (
        _left()
        .to_pandas()
        .merge(
            _right().to_pandas().rename(columns={"kk": "k"}), on="k",
            how="inner",
        )
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp)


def test_left_join_keeps_unmatched_with_nulls(ray_session):
    got = (
        hash_join_unique(
            _left(), _right(), left_key="k", right_key="kk", how="left"
        )
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    assert len(got) == 5
    x_row = got[got["k"] == "x"]
    assert x_row["w"].isna().all()


def test_empty_partitions_do_not_crash(ray_session):
    # regression: Dataset.join crashes when a hash partition receives
    # no blocks for one side (zero-column empty table into Acero);
    # 64 partitions over 5 rows guarantees many empty partitions
    got = hash_join_unique(
        _left(), _right(), left_key="k", right_key="kk",
        num_partitions=64,
    ).to_pandas()
    assert len(got) == 4


def test_collision_suffix_and_semi_join(ray_session):
    right = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(["a", "b"], pa.string()),
                "v": pa.array([100, 200], pa.int64()),
            }
        )
    )
    got = hash_join_unique(_left(), right, left_key="k").to_pandas()
    assert set(got.columns) == {"k", "v", "v_r"}
    # key-only right side = distributed semi-join
    semi = hash_join_unique(
        _left(), right.select_columns(["k"]), left_key="k"
    ).to_pandas()
    assert sorted(semi["k"]) == ["a", "a", "b"]


def test_key_type_mismatch_raises(ray_session):
    bad = rd.from_arrow(pa.table({"kk": pa.array([1, 2], pa.int64())}))
    with pytest.raises(ValueError, match="key type mismatch"):
        hash_join_unique(_left(), bad, left_key="k", right_key="kk")


def test_semi_and_anti_join(ray_session):
    right_dup = rd.from_arrow(
        pa.table({"kk": pa.array(["a", "a", "b"], pa.string())})
    )
    # semi/anti are presence checks: a NON-unique right side is fine
    semi = hash_join_unique(
        _left(), right_dup, left_key="k", right_key="kk", how="semi"
    ).to_pandas()
    assert sorted(semi["k"]) == ["a", "a", "b"]
    assert list(semi.columns) == ["k", "v"]
    anti = hash_join_unique(
        _left(), right_dup, left_key="k", right_key="kk", how="anti"
    ).to_pandas()
    assert sorted(anti["k"]) == ["c", "x"]


def test_broadcast_join_matches_hash_join_all_modes(ray_session):
    from obsidian_parser_ray.stages.joins import broadcast_join_unique

    for how in ("inner", "left", "semi", "anti"):
        got = (
            broadcast_join_unique(
                _left(), _right(), left_key="k", right_key="kk", how=how
            )
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        exp = (
            hash_join_unique(
                _left(), _right(), left_key="k", right_key="kk", how=how
            )
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)]
        ), how


def test_broadcast_join_fallback_over_threshold(ray_session):
    # max_broadcast_rows=0 forces the shuffle-join fallback; results
    # must be identical
    from obsidian_parser_ray.stages.joins import broadcast_join_unique

    got = (
        broadcast_join_unique(
            _left(), _right(), left_key="k", right_key="kk",
            max_broadcast_rows=0,
        )
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    assert len(got) == 4
    assert set(got.columns) == {"k", "v", "w"}


def test_broadcast_join_fallback_over_byte_threshold(ray_session):
    # a right side UNDER the row guard but with wide value columns must
    # trip the BYTE guard (ADVICE r2: multi-GB text sides pinned driver
    # RAM under the row-only guard); results identical either way
    from obsidian_parser_ray.stages.joins import broadcast_join_unique

    got = (
        broadcast_join_unique(
            _left(), _right(), left_key="k", right_key="kk",
            max_broadcast_bytes=1,
        )
        .to_pandas()
        .sort_values(["k", "v"])
        .reset_index(drop=True)
    )
    assert len(got) == 4
    assert set(got.columns) == {"k", "v", "w"}


def test_broadcast_joins_read_module_guard_at_call_time(ray_session,
                                                        monkeypatch):
    # without explicit limits both broadcast joins read the module
    # guard when called, so patching it sends them to the shuffle join
    from obsidian_parser_ray.stages import joins

    calls = []
    for name in ("hash_join_unique", "hash_join"):
        real = getattr(joins, name)
        monkeypatch.setattr(
            joins, name,
            lambda *a, _real=real, _name=name, **kw:
                calls.append(_name) or _real(*a, **kw),
        )
    monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", -1)
    for fn in (joins.broadcast_join_unique, joins.broadcast_join):
        got = fn(_left(), _right(), left_key="k", right_key="kk").to_pandas()
        assert len(got) == 4
    assert calls == ["hash_join_unique", "hash_join"]


def test_broadcast_join_collision_suffix(ray_session):
    from obsidian_parser_ray.stages.joins import broadcast_join_unique

    right = rd.from_arrow(
        pa.table(
            {
                "k": pa.array(["a", "b"], pa.string()),
                "v": pa.array([100, 200], pa.int64()),
            }
        )
    )
    got = broadcast_join_unique(_left(), right, left_key="k").to_pandas()
    assert set(got.columns) == {"k", "v", "v_r"}


def test_broadcast_join_empty_right_all_modes(ray_session):
    from obsidian_parser_ray.stages.joins import broadcast_join_unique

    empty_right = rd.from_arrow(
        pa.table(
            {"kk": pa.array([], pa.string()), "w": pa.array([], pa.float64())}
        )
    )
    inner = broadcast_join_unique(
        _left(), empty_right, left_key="k", right_key="kk", how="inner"
    ).to_pandas()
    assert len(inner) == 0
    anti = broadcast_join_unique(
        _left(), empty_right, left_key="k", right_key="kk", how="anti"
    ).to_pandas()
    assert len(anti) == 5
    left = broadcast_join_unique(
        _left(), empty_right, left_key="k", right_key="kk", how="left"
    ).to_pandas()
    assert len(left) == 5
    assert left["w"].isna().all()


def test_full_outer_join_matches_reference(ray_session):
    """how='full': left rows keep matched/null right values AND every
    unmatched right key comes back as a right-only row carrying the
    key in the left_key column (USING-style) — checked against a
    dict-based reference over keys present in both/one/neither side,
    including partitions with an empty left side."""
    import numpy as np

    rng = np.random.default_rng(5)
    l_keys = [f"k{i}" for i in rng.choice(60, 40, replace=False)]
    r_keys = [f"k{i}" for i in rng.choice(90, 35, replace=False)]
    left = rd.from_arrow(
        pa.table({"k": pa.array(l_keys),
                  "v": pa.array(range(len(l_keys)), type=pa.int64())})
    ).repartition(4)
    right = rd.from_arrow(
        pa.table({"kk": pa.array(r_keys),
                  "w": pa.array(range(100, 100 + len(r_keys)),
                                type=pa.int64())})
    ).repartition(3)
    out = hash_join_unique(
        left, right, left_key="k", right_key="kk", how="full",
        num_partitions=16,
    ).to_pandas()

    rmap = {k: 100 + i for i, k in enumerate(r_keys)}
    want = []
    for i, k in enumerate(l_keys):
        want.append((k, i, rmap.get(k)))
    for k in r_keys:
        if k not in set(l_keys):
            want.append((k, None, rmap[k]))
    got = sorted(
        (r.k, None if pd.isna(r.v) else int(r.v),
         None if pd.isna(r.w) else int(r.w))
        for r in out.itertuples()
    )
    assert got == sorted(want)


def test_salted_join_identical_results_under_hot_key(ray_session):
    """salt splits a hub key across slots without changing ANY
    left-driven result: inner/left/semi/anti must match the unsalted
    join row-for-row on data where one key holds 90% of the rows."""
    import numpy as np

    rng = np.random.default_rng(9)
    keys = ["hub"] * 900 + [f"k{i}" for i in rng.integers(0, 40, 100)]
    left = rd.from_arrow(
        pa.table({"k": pa.array(keys),
                  "v": pa.array(range(len(keys)), type=pa.int64())})
    ).repartition(5)
    right = rd.from_arrow(
        pa.table({"kk": pa.array(["hub"] + [f"k{i}" for i in range(30)]),
                  "w": pa.array(range(31), type=pa.int64())})
    )
    for how in ("inner", "left", "semi", "anti"):
        plain = (
            hash_join_unique(left, right, left_key="k", right_key="kk",
                             how=how, num_partitions=8)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        )
        salted = (
            hash_join_unique(left, right, left_key="k", right_key="kk",
                             how=how, num_partitions=8, salt=4)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            plain[sorted(plain.columns)], salted[sorted(salted.columns)]
        ), how


def test_salted_full_join_rejected(ray_session):
    with pytest.raises(ValueError, match="salt"):
        hash_join_unique(_left(), _right(), left_key="k", right_key="kk",
                         how="full", salt=4)


def _mn_sides():
    """Duplicate keys on BOTH sides, plus nulls and a name collision."""
    import numpy as np

    rng = np.random.default_rng(21)
    lk = rng.integers(0, 12, 200).astype("float64")
    lk[rng.choice(200, 10, replace=False)] = np.nan
    rk = rng.integers(0, 15, 80).astype("float64")
    rk[rng.choice(80, 6, replace=False)] = np.nan
    left = pd.DataFrame({"k": lk, "lv": np.arange(200)})
    right = pd.DataFrame(
        {"k": rk, "rv": np.arange(80) * 10, "lv": np.arange(80) * 7}
    )
    return left, right


def test_hash_join_mn_all_modes_match_duckdb(ray_session):
    """M:N join with duplicate keys on both sides, null keys, and a
    colliding value column — every mode vs the DuckDB twin."""
    import duckdb

    from obsidian_parser_ray.stages.joins import hash_join

    left, right = _mn_sides()
    con = duckdb.connect()
    con.register("L", left)
    con.register("R", right)

    def norm(df):
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            df[c] = df[c].astype("float64")
        return (
            df.sort_values(list(df.columns))
            .reset_index(drop=True).fillna(-9e9)
        )

    cases = {
        "inner": "SELECT L.k, L.lv, rv, R.lv AS lv_r "
                 "FROM L JOIN R ON L.k = R.k",
        "left": "SELECT L.k, L.lv, rv, R.lv AS lv_r "
                "FROM L LEFT JOIN R ON L.k = R.k",
        "semi": "SELECT k, lv FROM L WHERE k IN "
                "(SELECT k FROM R WHERE k IS NOT NULL)",
        "anti": "SELECT k, lv FROM L WHERE k NOT IN "
                "(SELECT k FROM R WHERE k IS NOT NULL) OR k IS NULL",
        "full": "SELECT COALESCE(L.k, R.k) AS k, L.lv, rv, "
                "R.lv AS lv_r FROM L FULL JOIN R ON L.k = R.k",
    }
    for how, sql in cases.items():
        got = hash_join(
            rd.from_pandas(left).repartition(4),
            rd.from_pandas(right).repartition(3),
            left_key="k", how=how, num_partitions=8,
        ).to_pandas()
        exp = con.execute(sql).fetchdf()
        assert norm(got).equals(norm(exp)), how


def test_hash_join_salted_hub_key_identical(ray_session):
    """A 90%-hub key under salt must produce row-identical results for
    every left-driven mode — including the M:N expansion."""
    import numpy as np

    from obsidian_parser_ray.stages.joins import hash_join

    rng = np.random.default_rng(5)
    lkeys = ["hub"] * 450 + [f"k{i}" for i in rng.integers(0, 20, 50)]
    rkeys = ["hub"] * 5 + [f"k{i}" for i in range(15)]
    left = rd.from_arrow(
        pa.table({"k": pa.array(lkeys),
                  "v": pa.array(range(len(lkeys)), type=pa.int64())})
    ).repartition(5)
    right = rd.from_arrow(
        pa.table({"k": pa.array(rkeys),
                  "w": pa.array(range(len(rkeys)), type=pa.int64())})
    ).repartition(2)
    for how in ("inner", "left", "semi", "anti"):
        plain = (
            hash_join(left, right, left_key="k", how=how,
                      num_partitions=8)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        )
        salted = (
            hash_join(left, right, left_key="k", how=how,
                      num_partitions=8, salt=4)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        )
        if how == "inner":
            assert (plain["k"] == "hub").sum() == 450 * 5
        pd.testing.assert_frame_equal(
            plain.sort_values(sorted(plain.columns))
            .reset_index(drop=True),
            salted.sort_values(sorted(salted.columns))
            .reset_index(drop=True),
        ), how


def test_hash_join_equals_unique_join_on_unique_right(ray_session):
    """On a right side that IS unique per key, hash_join and
    hash_join_unique must agree in every mode."""
    from obsidian_parser_ray.stages.joins import hash_join

    for how in ("inner", "left", "semi", "anti", "full"):
        mn = (
            hash_join(_left(), _right(), left_key="k", right_key="kk",
                      how=how, num_partitions=4)
            .to_pandas()
        )
        uq = (
            hash_join_unique(_left(), _right(), left_key="k",
                             right_key="kk", how=how, num_partitions=4)
            .to_pandas()
        )
        cols = sorted(mn.columns)
        pd.testing.assert_frame_equal(
            mn[cols].sort_values(cols).reset_index(drop=True),
            uq[cols].sort_values(cols).reset_index(drop=True),
        ), how


def test_hash_join_unique_raises_on_duplicate_right_keys(ray_session):
    """A violated uniqueness invariant must FAIL, not silently drop
    the extra right rows."""
    dup_right = rd.from_arrow(
        pa.table({
            "kk": pa.array(["a", "a", "b"], pa.string()),
            "w": pa.array([1.0, 2.0, 3.0], pa.float64()),
        })
    )
    for how in ("inner", "left"):
        with pytest.raises(Exception, match="duplicate"):
            hash_join_unique(
                _left(), dup_right, left_key="k", right_key="kk",
                how=how,
            ).to_pandas()
    # semi/anti are presence checks: any right side is legal
    got = hash_join_unique(
        _left(), dup_right, left_key="k", right_key="kk", how="semi"
    ).to_pandas()
    assert sorted(got["k"]) == ["a", "a", "b"]
    # and the opt-out restores the old first-wins behavior
    got = hash_join_unique(
        _left(), dup_right, left_key="k", right_key="kk",
        validate_unique=False,
    ).to_pandas()
    assert len(got) == 3


def test_hash_join_empty_sides(ray_session):
    from obsidian_parser_ray.stages.joins import hash_join

    empty_r = rd.from_arrow(
        pa.table({"kk": pa.array([], pa.string()),
                  "w": pa.array([], pa.float64())})
    )
    assert hash_join(_left(), empty_r, left_key="k", right_key="kk",
                     how="inner").count() == 0
    assert hash_join(_left(), empty_r, left_key="k", right_key="kk",
                     how="anti").count() == 5
    out = hash_join(_left(), empty_r, left_key="k", right_key="kk",
                    how="left").to_pandas()
    assert len(out) == 5 and out["w"].isna().all()
    full = hash_join(_left(), empty_r, left_key="k", right_key="kk",
                     how="full").to_pandas()
    assert len(full) == 5


def test_broadcast_join_mn_matches_hash_join(ray_session):
    """Map-side M:N broadcast_join must agree with the shuffling
    hash_join in every mode on nulls + duplicate keys + collisions."""
    from obsidian_parser_ray.stages.joins import broadcast_join, hash_join

    left, right = _mn_sides()
    lds = rd.from_pandas(left).repartition(4)
    rds = rd.from_pandas(right).repartition(3)
    for how in ("inner", "left", "semi", "anti"):
        bj = broadcast_join(lds, rds, left_key="k", how=how).to_pandas()
        hj = hash_join(lds, rds, left_key="k", how=how,
                       num_partitions=8).to_pandas()
        cols = sorted(bj.columns)
        assert cols == sorted(hj.columns), how
        a = (bj[cols].sort_values(cols).reset_index(drop=True)
             .fillna(-9e9))
        b = (hj[cols].sort_values(cols).reset_index(drop=True)
             .fillna(-9e9))
        pd.testing.assert_frame_equal(a, b), how


def test_broadcast_join_falls_back_over_threshold(ray_session):
    from obsidian_parser_ray.stages.joins import broadcast_join

    left, right = _mn_sides()
    out = broadcast_join(
        rd.from_pandas(left), rd.from_pandas(right), left_key="k",
        max_broadcast_rows=10,  # force the hash_join fallback
    ).to_pandas()
    direct = broadcast_join(
        rd.from_pandas(left), rd.from_pandas(right), left_key="k",
    ).to_pandas()
    cols = sorted(out.columns)
    pd.testing.assert_frame_equal(
        out[cols].sort_values(cols).reset_index(drop=True).fillna(-9e9),
        direct[cols].sort_values(cols).reset_index(drop=True)
        .fillna(-9e9),
    )


def test_broadcast_join_empty_right(ray_session):
    from obsidian_parser_ray.stages.joins import broadcast_join

    empty_r = rd.from_arrow(
        pa.table({"kk": pa.array([], pa.string()),
                  "w": pa.array([], pa.float64())})
    )
    assert broadcast_join(_left(), empty_r, left_key="k",
                          right_key="kk").count() == 0
    assert broadcast_join(_left(), empty_r, left_key="k",
                          right_key="kk", how="anti").count() == 5
    out = broadcast_join(_left(), empty_r, left_key="k",
                         right_key="kk", how="left").to_pandas()
    assert len(out) == 5 and out["w"].isna().all()


class TestAutoSalt:
    def test_probe_detects_hub_and_uniform(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import probe_salt

        # 90% hub key → hot-key bound far above mean partition size
        hub = ["hub"] * 9000 + [f"k{i}" for i in range(1000)]
        ds = rd.from_arrow(pa.table({"k": hub})).repartition(8)
        s = probe_salt(ds, "k", num_partitions=16)
        assert s > 1
        uni = rd.from_arrow(
            pa.table({"k": [f"k{i % 500}" for i in range(10000)]})
        ).repartition(8)
        assert probe_salt(uni, "k", num_partitions=16) == 1

    def test_auto_equals_unsalted_results(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import hash_join

        left = rd.from_arrow(
            pa.table(
                {
                    "k": ["hub"] * 500 + ["a", "b", "c"],
                    "lv": list(range(503)),
                }
            )
        ).repartition(4)
        right = rd.from_arrow(
            pa.table({"k": ["hub", "a", "z"], "rv": [10, 20, 30]})
        )

        def rows(ds):
            return sorted(
                (r["k"], r["lv"], r.get("rv"))
                for r in ds.take_all()
            )

        plain = rows(
            hash_join(left, right, left_key="k", how="left", salt=1)
        )
        auto = rows(
            hash_join(left, right, left_key="k", how="left", salt="auto")
        )
        assert plain == auto
        assert len(auto) == 503

    def test_auto_rejected_for_full(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import hash_join

        ds = rd.from_arrow(pa.table({"k": ["a"], "v": [1]}))
        with pytest.raises(ValueError, match="salt='auto'"):
            hash_join(ds, ds, left_key="k", how="full", salt="auto")


class TestExchange:
    """``exchange`` contract: every key's rows reach exactly one
    ``reduce`` call, and ``reduce`` never sees the partition column."""

    @staticmethod
    def _calls(ds, keys, num_partitions=4):
        """Per key: the reduce calls that saw it and its row count."""
        import uuid

        import pyarrow as pa

        from obsidian_parser_ray.stages.joins import exchange

        def reduce(g: pa.Table) -> pa.Table:
            out = g.group_by(keys).aggregate([([], "count_all")])
            n = out.num_rows
            return out.append_column(
                "call", pa.array([uuid.uuid4().hex] * n)
            ).append_column(
                "cols", pa.array([",".join(g.column_names)] * n)
            )

        calls, rows = {}, {}
        for r in exchange(ds, keys, reduce,
                          num_partitions=num_partitions).take_all():
            k = tuple(r[c] for c in keys)
            calls.setdefault(k, set()).add(r["call"])
            rows[k] = rows.get(k, 0) + r["count_all"]
            assert r["cols"] == ",".join(ds.schema().names)
        return calls, rows

    def test_each_key_reaches_one_call(self, ray_session):
        import collections

        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        rng = np.random.RandomState(3)
        ints = rng.randint(0, 50, 3000)
        strs = [["p", "q", "r\x00s", ""][i] for i in rng.randint(0, 4, 3000)]
        ds = rd.from_arrow(pa.table({
            "i": pa.array(ints, pa.int64()),
            "s": pa.array(strs, pa.string()),
        })).repartition(7)
        for keys, exp in (
            (["i"], collections.Counter((int(x),) for x in ints)),
            (["s"], collections.Counter((x,) for x in strs)),
            (["i", "s"], collections.Counter(
                (int(x), y) for x, y in zip(ints, strs))),
        ):
            calls, rows = self._calls(ds, keys)
            assert rows == dict(exp)
            assert all(len(c) == 1 for c in calls.values())

    def test_nul_and_null_composite_parts(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        # ("a\x00b", "c") and ("a", "b\x00c") join to the same string,
        # and so does every key with a null part: they may share a
        # partition but stay distinct groups
        ds = rd.from_arrow(pa.table({
            "k1": pa.array(["a\x00b", "a", "a\x00b", None, "a", None]),
            "k2": pa.array(["c", "b\x00c", "c", "c", None, "c"]),
        })).repartition(3)
        calls, rows = self._calls(ds, ["k1", "k2"])
        assert rows == {("a\x00b", "c"): 2, ("a", "b\x00c"): 1,
                        (None, "c"): 2, ("a", None): 1}
        assert all(len(c) == 1 for c in calls.values())

    def test_single_key_partition_is_its_hash_bucket(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.hashing import hash_bucket_array
        from obsidian_parser_ray.stages.joins import exchange

        def buckets(g: pa.Table) -> pa.Table:
            b = hash_bucket_array(g["k"], 8).unique()
            return pa.table({"n_buckets": [len(b)]})

        ds = rd.from_arrow(
            pa.table({"k": [f"key{i % 37}" for i in range(500)]})
        ).repartition(5)
        out = exchange(ds, ["k"], buckets, num_partitions=8).take_all()
        assert out and all(r["n_buckets"] == 1 for r in out)

    def test_pandas_reduce_sees_input_columns(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import exchange

        ds = rd.from_arrow(pa.table({"k": [1, 2, 1], "v": [3, 4, 5]}))
        out = exchange(
            ds, ["k"], lambda g: g.assign(n=len(g), cols=",".join(g.columns)),
            batch_format="pandas",
        ).take_all()
        got = sorted((r["k"], r["v"], r["n"], r["cols"]) for r in out)
        assert got == [(1, 3, 2, "k,v"), (1, 5, 2, "k,v"), (2, 4, 1, "k,v")]

    def test_empty_input(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import exchange

        ds = rd.from_arrow(pa.table({
            "k": pa.array([], pa.string()), "v": pa.array([], pa.int64()),
        }))
        assert exchange(ds, ["k"], lambda g: g).count() == 0
        assert exchange(ds, ["k", "v"], lambda g: g).count() == 0


class TestDistinctRows:
    def test_matches_bruteforce_and_handles_multi_block(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import distinct_rows

        rng = np.random.RandomState(11)
        a = rng.randint(0, 40, 5000)
        # python-list strings: numpy U-dtype -> Arrow truncates at an
        # embedded NUL (the same C-string trap as the pandas concat
        # gotcha), and the NUL value here is the point of the test
        vals = ["x", "y", "z\x00w", ""]
        b = [vals[i] for i in rng.randint(0, 4, 5000)]
        ds = rd.from_arrow(
            pa.table({"k1": pa.array(a, pa.int64()),
                      "k2": pa.array(b, pa.string())})
        ).repartition(7)
        out = distinct_rows(ds, ["k1", "k2"], num_partitions=8).to_pandas()
        got = sorted(map(tuple, out.itertuples(index=False)))
        exp = sorted({(int(x), str(y)) for x, y in zip(a, b)})
        assert got == exp

    def test_single_column(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import distinct_rows

        ds = rd.from_arrow(pa.table({"k": [3, 1, 3, 2, 1]})).repartition(3)
        out = distinct_rows(ds, ["k"], num_partitions=4).to_pandas()
        assert sorted(out["k"]) == [1, 2, 3]


class TestGroupedAggregate:
    def test_matches_duckdb(self, ray_session):
        import duckdb
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import grouped_aggregate

        rng = np.random.RandomState(5)
        t = pa.table({
            "k": pa.array(rng.randint(0, 200, 20000), pa.int64()),
            "g": pa.array([["x", "y"][i] for i in
                           rng.randint(0, 2, 20000)]),
            "v": pa.array(rng.randint(-50, 50, 20000), pa.int64()),
        })
        ds = rd.from_arrow(t).repartition(6)
        out = grouped_aggregate(
            ds, ["k", "g"],
            [("v", "sum", "s"), ("v", "min", "lo"),
             ("v", "max", "hi"), ("v", "count", "n")],
            num_partitions=8,
        ).to_pandas().sort_values(["k", "g"]).reset_index(drop=True)
        exp = duckdb.connect().execute(
            "SELECT k, g, sum(v)::BIGINT s, min(v) lo, max(v) hi,"
            " count(*)::BIGINT n FROM t GROUP BY k, g ORDER BY k, g"
        ).fetchdf()
        assert out[["k", "g", "s", "lo", "hi", "n"]].equals(
            exp[["k", "g", "s", "lo", "hi", "n"]]
        )

    def test_rejects_nondecomposable(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import grouped_aggregate

        ds = rd.from_arrow(pa.table({"k": [1], "v": [1]}))
        with pytest.raises(ValueError, match="decomposable"):
            grouped_aggregate(ds, ["k"], [("v", "mean", "m")])

    def test_rejects_two_counts(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import grouped_aggregate

        ds = rd.from_arrow(pa.table({"k": [1], "v": [1]}))
        with pytest.raises(ValueError, match="count"):
            grouped_aggregate(ds, ["k"], [("v", "count", "a"),
                                          ("k", "count", "b")])

    def test_rejects_alias_equal_to_key(self, ray_session):
        import pyarrow as pa
        import pytest
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import grouped_aggregate

        ds = rd.from_arrow(pa.table({"k": [1], "v": [1]}))
        with pytest.raises(ValueError, match="collides with a key"):
            grouped_aggregate(ds, ["k"], [("v", "sum", "k")])

    def test_agg_column_that_is_a_key(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.joins import grouped_aggregate

        ds = rd.from_arrow(pa.table({"k": [2, 1, 2, 1, 2],
                                     "v": [5, 6, 7, 8, 9]})).repartition(3)
        out = grouped_aggregate(
            ds, ["k"], [("k", "max", "kmax"), ("v", "sum", "s")],
            num_partitions=4,
        ).to_pandas().sort_values("k")
        assert out["k"].tolist() == [1, 2]
        assert out["kmax"].tolist() == [1, 2]
        assert out["s"].tolist() == [14, 21]


def test_broadcast_join_fallback_salts_hub_key(ray_session, monkeypatch):
    """Past the guard, broadcast_join_unique's shuffle fallback measures
    the left key skew: a 90%-hub left side runs salted, with rows
    identical to the broadcast result in every mode."""
    import numpy as np

    from obsidian_parser_ray.stages import joins

    rng = np.random.default_rng(11)
    lkeys = ["hub"] * 900 + [f"k{i}" for i in rng.integers(0, 40, 100)]
    left = rd.from_arrow(
        pa.table({"k": pa.array(lkeys),
                  "v": pa.array(range(len(lkeys)), type=pa.int64())})
    ).repartition(5)
    right = rd.from_arrow(
        pa.table({"kk": pa.array(["hub"] + [f"k{i}" for i in range(30)]),
                  "w": pa.array(range(31), type=pa.int64())})
    )
    modes = ("inner", "left", "semi", "anti")

    def rows(how):
        df = joins.broadcast_join_unique(
            left, right, left_key="k", right_key="kk", how=how,
            num_partitions=8,
        ).to_pandas()
        return df.sort_values(sorted(df.columns)).reset_index(drop=True)

    expected = {how: rows(how) for how in modes}
    assert (expected["inner"]["k"] == "hub").sum() == 900

    salts = []
    real = joins._resolve_salt

    def spy(*a, **kw):
        salts.append(real(*a, **kw))
        return salts[-1]

    monkeypatch.setattr(joins, "_resolve_salt", spy)
    monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", -1)
    for how in modes:
        pd.testing.assert_frame_equal(rows(how), expected[how], obj=how)
    assert len(salts) == len(modes) and min(salts) > 1, salts
