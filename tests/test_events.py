"""Event-stream operators: tumbling windows + sessionization."""

from __future__ import annotations

import pandas as pd
import pytest

from obsidian_parser_ray.stages.events import hourly_counts, sessionize, type_stats


def _events_ds(rows):
    import ray.data as rd

    df = pd.DataFrame(rows)
    df["ts"] = pd.to_datetime(df["ts"])
    return rd.from_pandas(df)


@pytest.mark.usefixtures("ray_session")
class TestWindows:
    def test_hourly_counts(self):
        ds = _events_ds(
            [
                {"user_id": 1, "ts": "2024-01-01 10:05:00"},
                {"user_id": 1, "ts": "2024-01-01 10:55:00"},
                {"user_id": 1, "ts": "2024-01-01 11:01:00"},
                {"user_id": 2, "ts": "2024-01-01 10:30:00"},
            ]
        )
        out = hourly_counts(ds).to_pandas()
        got = {
            (int(r.user_id), int(r.hour_epoch)): int(r.n_events)
            for r in out.itertuples()
        }
        h10 = pd.Timestamp("2024-01-01 10:00:00").value // 10**9 // 3600
        assert got == {(1, h10): 2, (1, h10 + 1): 1, (2, h10): 1}

    def test_tumbling_generalized(self):
        from obsidian_parser_ray.stages.events import tumbling_counts

        ds = _events_ds(
            [
                {"user_id": 1, "ts": "2024-01-01 10:05:00"},
                {"user_id": 1, "ts": "2024-01-01 10:09:30"},
                {"user_id": 1, "ts": "2024-01-01 10:12:00"},
            ]
        )
        out = tumbling_counts(ds, window_seconds=600).to_pandas()
        w = pd.Timestamp("2024-01-01 10:00:00").value // 10**9 // 600
        got = {
            (int(r.user_id), int(r.window_epoch)): int(r.n_events)
            for r in out.itertuples()
        }
        assert got == {(1, w): 2, (1, w + 1): 1}

    def test_sessionize_gap_semantics(self):
        ds = _events_ds(
            [
                {"user_id": 1, "ts": "2024-01-01 10:00:00"},
                {"user_id": 1, "ts": "2024-01-01 10:29:00"},  # within gap
                {"user_id": 1, "ts": "2024-01-01 11:30:00"},  # > 30 min → new
                {"user_id": 2, "ts": "2024-01-01 09:00:00"},
            ]
        )
        out = sessionize(ds, gap_minutes=30).to_pandas()
        u1 = out[out["user_id"] == 1].sort_values("session_idx")
        assert list(u1["session_idx"]) == [1, 2]
        assert list(u1["n_events"]) == [2, 1]
        s0 = pd.Timestamp("2024-01-01 10:00:00").value // 10**9
        assert int(u1.iloc[0]["start_s"]) == s0
        assert int(out[out["user_id"] == 2]["session_idx"].iloc[0]) == 1

    def test_sessionize_exact_boundary_not_a_break(self):
        ds = _events_ds(
            [
                {"user_id": 1, "ts": "2024-01-01 10:00:00"},
                {"user_id": 1, "ts": "2024-01-01 10:30:00"},  # exactly 30min → same
            ]
        )
        out = sessionize(ds, gap_minutes=30).to_pandas()
        assert len(out) == 1 and int(out["n_events"].iloc[0]) == 2

    def test_type_stats(self):
        ds = _events_ds(
            [
                {"user_id": 1, "ts": "2024-01-01", "event_type": "a", "value": 1.5},
                {"user_id": 1, "ts": "2024-01-01", "event_type": "a", "value": 2.5},
                {"user_id": 1, "ts": "2024-01-01", "event_type": "b", "value": -1.0},
            ]
        )
        out = type_stats(ds).to_pandas().set_index("event_type")
        assert int(out.loc["a", "n_events"]) == 2
        assert out.loc["a", "min_value"] == 1.5
        assert out.loc["a", "max_value"] == 2.5
        assert out.loc["b", "min_value"] == -1.0


class TestStringUserIds:
    def test_sessionize_string_keys(self, ray_session):
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import sessionize

        ts = pd.to_datetime(
            ["2026-01-01 00:00", "2026-01-01 00:10", "2026-01-01 02:00",
             "2026-01-01 00:05"]
        )
        ds = rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array(["alice", "alice", "alice", "bob"]),
                    "ts": pa.array(ts),
                }
            )
        )
        rows = {(r["user_id"], r["session_idx"]): r["n_events"]
                for r in sessionize(ds).take_all()}
        assert rows == {("alice", 1): 2, ("alice", 2): 1, ("bob", 1): 1}


@pytest.mark.usefixtures("ray_session")
class TestTemporalJoins:
    """asof_join + interval_join (stages/events.py): co-partitioned
    merge_asof semantics vs hand-computed expectations."""

    def _sides(self):
        import pyarrow as pa
        import ray.data as rd

        left = rd.from_arrow(
            pa.table(
                {
                    "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
                    "user_id": pa.array([1, 1, 1, 2, 3], pa.int64()),
                    "s": pa.array([100, 200, 300, 150, 50], pa.int64()),
                }
            )
        )
        right = rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array([1, 1, 2], pa.int64()),
                    "s": pa.array([150, 250, 150], pa.int64()),
                    "p_value": pa.array([10.0, 20.0, 30.0], pa.float64()),
                }
            )
        )
        return left, right

    def test_asof_backward_with_misses(self):
        from obsidian_parser_ray.stages.events import asof_join

        left, right = self._sides()
        out = (
            asof_join(left, right, key_col="user_id", ts_col="s",
                      num_partitions=4)
            .to_pandas()
            .set_index("event_id")
        )
        assert len(out) == 5
        # event 1 (u1, s=100): no purchase at or before 100 → null
        assert pd.isna(out.loc[1, "s_r"])
        # event 2 (u1, s=200): latest prior is s=150
        assert out.loc[2, "s_r"] == 150 and out.loc[2, "p_value"] == 10.0
        # event 3 (u1, s=300): s=250
        assert out.loc[3, "s_r"] == 250 and out.loc[3, "p_value"] == 20.0
        # event 4 (u2, s=150): EXACT tie matches (>= semantics)
        assert out.loc[4, "s_r"] == 150 and out.loc[4, "p_value"] == 30.0
        # event 5 (u3): key absent on the right → null
        assert pd.isna(out.loc[5, "s_r"])

    def test_asof_forward(self):
        from obsidian_parser_ray.stages.events import asof_join

        left, right = self._sides()
        out = (
            asof_join(left, right, key_col="user_id", ts_col="s",
                      direction="forward", num_partitions=4)
            .to_pandas()
            .set_index("event_id")
        )
        assert out.loc[1, "s_r"] == 150  # next purchase at/after 100
        assert pd.isna(out.loc[3, "s_r"])  # nothing at/after 300

    def test_asof_name_collision_suffixed(self):
        """A right value column named like a left column gets the suffix."""
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import asof_join

        left = rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array([1], pa.int64()),
                    "s": pa.array([10], pa.int64()),
                    "value": pa.array([1.0], pa.float64()),
                }
            )
        )
        right = rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array([1], pa.int64()),
                    "s": pa.array([5], pa.int64()),
                    "value": pa.array([99.0], pa.float64()),
                }
            )
        )
        out = asof_join(left, right, key_col="user_id", ts_col="s").to_pandas()
        assert set(out.columns) == {"user_id", "s", "value", "s_r", "value_r"}
        assert out.loc[0, "value"] == 1.0 and out.loc[0, "value_r"] == 99.0

    def test_interval_join_containment(self):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import interval_join

        pts = rd.from_arrow(
            pa.table(
                {
                    "event_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                    "s": pa.array([5, 15, 25, 5], pa.int64()),
                }
            )
        )
        # u1: [0,10] and [20,30] (non-overlapping); u2 has no intervals
        ivs = rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array([1, 1], pa.int64()),
                    "iv_id": pa.array([7, 8], pa.int64()),
                    "start_s": pa.array([0, 20], pa.int64()),
                    "end_s": pa.array([10, 30], pa.int64()),
                }
            )
        )
        out = (
            interval_join(pts, ivs, key_col="user_id", ts_col="s",
                          start_col="start_s", end_col="end_s",
                          num_partitions=4)
            .to_pandas()
            .set_index("event_id")
        )
        # inner join: point 2 (gap) and point 4 (no intervals) drop
        assert sorted(out.index) == [1, 3]
        assert out.loc[1, "iv_id"] == 7
        assert out.loc[3, "iv_id"] == 8

    def test_interval_join_boundaries_inclusive(self):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import interval_join

        pts = rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array([1, 1], pa.int64()),
                    "s": pa.array([0, 10], pa.int64()),
                }
            )
        )
        ivs = rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array([1], pa.int64()),
                    "start_s": pa.array([0], pa.int64()),
                    "end_s": pa.array([10], pa.int64()),
                }
            )
        )
        out = interval_join(
            pts, ivs, key_col="user_id", ts_col="s",
            start_col="start_s", end_col="end_s", num_partitions=2
        ).to_pandas()
        assert len(out) == 2  # both boundary points included

    def test_type_mismatch_rejected(self):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import asof_join

        left = rd.from_arrow(
            pa.table({"user_id": pa.array([1], pa.int64()),
                      "s": pa.array([1], pa.int64())})
        )
        right = rd.from_arrow(
            pa.table({"user_id": pa.array(["1"], pa.string()),
                      "s": pa.array([1], pa.int64())})
        )
        with pytest.raises(ValueError, match="different types"):
            asof_join(left, right, key_col="user_id", ts_col="s")


@pytest.mark.usefixtures("ray_session")
class TestHoppingWindows:
    def test_every_event_in_k_windows(self):
        from obsidian_parser_ray.stages.events import hopping_counts

        ds = _events_ds([{"user_id": 1, "ts": "2024-01-01 10:07:00"}])
        out = hopping_counts(ds, window_seconds=3600, hop_seconds=900).to_pandas()
        # one event → exactly window/hop = 4 windows, all counting it
        assert len(out) == 4
        assert set(out["n_events"]) == {1}
        s = pd.Timestamp("2024-01-01 10:07:00").value // 10**9
        starts = sorted(int(x) for x in out["window_start_s"])
        assert starts == [(s // 900 - i) * 900 for i in range(3, -1, -1)]
        # containment: ws <= s < ws + window for every emitted window
        assert all(w <= s < w + 3600 for w in starts)

    def test_overlap_counting(self):
        from obsidian_parser_ray.stages.events import hopping_counts

        # two events 15 min apart share 3 of their 4 windows
        ds = _events_ds(
            [
                {"user_id": 1, "ts": "2024-01-01 10:00:00"},
                {"user_id": 1, "ts": "2024-01-01 10:15:00"},
            ]
        )
        out = hopping_counts(ds, window_seconds=3600, hop_seconds=900).to_pandas()
        counts = sorted(int(x) for x in out["n_events"])
        assert counts == [1, 1, 2, 2, 2]

    def test_non_divisible_hop_rejected(self):
        from obsidian_parser_ray.stages.events import hopping_counts

        ds = _events_ds([{"user_id": 1, "ts": "2024-01-01 10:00:00"}])
        with pytest.raises(ValueError, match="multiple"):
            hopping_counts(ds, window_seconds=3600, hop_seconds=700)

    def test_hop_equals_window_is_tumbling(self):
        from obsidian_parser_ray.stages.events import (
            hopping_counts,
            tumbling_counts,
        )

        rows = [
            {"user_id": u, "ts": f"2024-01-01 {h:02d}:{m:02d}:00"}
            for u in (1, 2) for h in (9, 10) for m in (5, 35, 55)
        ]
        hop = hopping_counts(
            _events_ds(rows), window_seconds=1800, hop_seconds=1800,
            window_col="w",
        ).to_pandas()
        tum = tumbling_counts(
            _events_ds(rows), window_seconds=1800, window_col="w",
        ).to_pandas()
        hop["w"] = hop["w"] // 1800  # tumbling emits window INDEX
        a = hop.sort_values(["user_id", "w"]).reset_index(drop=True)
        b = tum.sort_values(["user_id", "w"]).reset_index(drop=True)
        assert a.astype("int64").equals(b.astype("int64"))


@pytest.mark.usefixtures("ray_session")
class TestTemporalJoinRandomizedParity:
    """Seeded randomized parity: asof_join / interval_join vs a
    brute-force per-row reference on data with key skew, timestamp
    ties, and keys missing from either side."""

    def test_asof_random_vs_bruteforce(self):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import asof_join

        rng = np.random.default_rng(42)
        n_l, n_r = 400, 150
        # zipf-ish skew: key 1 is hot; right side misses some keys
        l_keys = rng.choice([1, 1, 1, 2, 3, 4, 5], size=n_l).astype(np.int64)
        l_ts = rng.integers(0, 500, size=n_l).astype(np.int64)
        r_keys = rng.choice([1, 1, 2, 3, 9], size=n_r).astype(np.int64)
        r_ts = rng.integers(0, 500, size=n_r).astype(np.int64)
        # enforce right uniqueness per (key, ts) — operator contract
        seen = set()
        keep = []
        for i in range(n_r):
            kk = (int(r_keys[i]), int(r_ts[i]))
            keep.append(kk not in seen)
            seen.add(kk)
        r_keys, r_ts = r_keys[keep], r_ts[keep]
        r_val = np.arange(len(r_keys), dtype=np.float64)

        left = rd.from_arrow(
            pa.table({"event_id": pa.array(np.arange(n_l, dtype=np.int64)),
                      "k": pa.array(l_keys), "s": pa.array(l_ts)})
        )
        right = rd.from_arrow(
            pa.table({"k": pa.array(r_keys), "s": pa.array(r_ts),
                      "v": pa.array(r_val)})
        )
        out = (
            asof_join(left, right, key_col="k", ts_col="s", num_partitions=8)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        assert len(out) == n_l
        for i in range(n_l):
            kk, ss = int(l_keys[i]), int(l_ts[i])
            cand = [
                (int(r_ts[j]), float(r_val[j]))
                for j in range(len(r_keys))
                if int(r_keys[j]) == kk and int(r_ts[j]) <= ss
            ]
            row = out.iloc[i]
            if cand:
                bs, bv = max(cand)
                assert int(row["s_r"]) == bs and float(row["v"]) == bv
            else:
                assert pd.isna(row["s_r"])

    def test_interval_random_vs_bruteforce(self):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import interval_join

        rng = np.random.default_rng(7)
        # non-overlapping intervals per key: consecutive [10i, 10i+5]
        ivs_rows = [
            (k, i, 10 * i, 10 * i + 5)
            for k in (1, 2, 3) for i in range(10)
        ]
        n_p = 300
        p_keys = rng.choice([1, 2, 3, 4], size=n_p).astype(np.int64)
        p_ts = rng.integers(0, 110, size=n_p).astype(np.int64)
        pts = rd.from_arrow(
            pa.table({"pid": pa.array(np.arange(n_p, dtype=np.int64)),
                      "k": pa.array(p_keys), "s": pa.array(p_ts)})
        )
        ivs = rd.from_arrow(
            pa.table({
                "k": pa.array([r[0] for r in ivs_rows], pa.int64()),
                "iv": pa.array([r[1] for r in ivs_rows], pa.int64()),
                "lo": pa.array([r[2] for r in ivs_rows], pa.int64()),
                "hi": pa.array([r[3] for r in ivs_rows], pa.int64()),
            })
        )
        out = interval_join(
            pts, ivs, key_col="k", ts_col="s", start_col="lo",
            end_col="hi", num_partitions=8,
        ).to_pandas()
        got = {(int(r.pid), int(r.iv)) for r in out.itertuples()}
        want = {
            (i, int(p_ts[i]) // 10)
            for i in range(n_p)
            if int(p_keys[i]) in (1, 2, 3)
            and int(p_ts[i]) % 10 <= 5 and int(p_ts[i]) // 10 < 10
        }
        assert got == want

    def test_interval_overlapping_random_vs_bruteforce(self):
        """OVERLAPPING intervals (nested, staggered, duplicated starts,
        inclusive boundaries): every (point, containing interval) pair
        must come back — checked against a nested-loop reference."""
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import interval_join_overlapping

        rng = np.random.default_rng(11)
        n_iv = 60
        iv_keys = rng.choice([1, 1, 2, 3, 9], size=n_iv).astype(np.int64)
        iv_lo = rng.integers(0, 100, size=n_iv).astype(np.int64)
        iv_len = rng.integers(0, 40, size=n_iv).astype(np.int64)
        iv_hi = iv_lo + iv_len  # heavy overlap; zero-length allowed
        n_p = 250
        p_keys = rng.choice([1, 2, 3, 4], size=n_p).astype(np.int64)
        p_ts = rng.integers(0, 140, size=n_p).astype(np.int64)

        pts = rd.from_arrow(
            pa.table({"pid": pa.array(np.arange(n_p, dtype=np.int64)),
                      "k": pa.array(p_keys), "s": pa.array(p_ts)})
        )
        ivs = rd.from_arrow(
            pa.table({"k": pa.array(iv_keys),
                      "iv": pa.array(np.arange(n_iv, dtype=np.int64)),
                      "lo": pa.array(iv_lo), "hi": pa.array(iv_hi)})
        )
        out = interval_join_overlapping(
            pts, ivs, key_col="k", ts_col="s", start_col="lo",
            end_col="hi", num_partitions=8,
        ).to_pandas()
        got = sorted((int(r.pid), int(r.iv)) for r in out.itertuples())
        want = sorted(
            (i, j)
            for i in range(n_p)
            for j in range(n_iv)
            if p_keys[i] == iv_keys[j] and iv_lo[j] <= p_ts[i] <= iv_hi[j]
        )
        assert got == want  # exact multiset: no dup rows, no misses
        # interval value columns ride along correctly
        for r in out.itertuples():
            assert int(r.lo) == iv_lo[int(r.iv)]
            assert int(r.hi) == iv_hi[int(r.iv)]

        # fractional float times can't band into int64 → the per-key
        # fallback runs; results must be IDENTICAL to the int case
        # (same values scaled by 0.5 keeps all comparisons equivalent)
        pts_f = rd.from_arrow(
            pa.table({"pid": pa.array(np.arange(n_p, dtype=np.int64)),
                      "k": pa.array(p_keys),
                      "s": pa.array(p_ts.astype(np.float64) + 0.5)})
        )
        ivs_f = rd.from_arrow(
            pa.table({"k": pa.array(iv_keys),
                      "iv": pa.array(np.arange(n_iv, dtype=np.int64)),
                      "lo": pa.array(iv_lo.astype(np.float64) + 0.5),
                      "hi": pa.array(iv_hi.astype(np.float64) + 0.5)})
        )
        out_f = interval_join_overlapping(
            pts_f, ivs_f, key_col="k", ts_col="s", start_col="lo",
            end_col="hi", num_partitions=8,
        ).to_pandas()
        got_f = sorted((int(r.pid), int(r.iv)) for r in out_f.itertuples())
        assert got_f == want  # +0.5 uniformly → same containment set


def test_running_sum_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from obsidian_parser_ray.stages.events import running_sum

    rng = np.random.default_rng(13)
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 9, 400),
            "s": rng.integers(0, 50, 400),
            "event_id": np.arange(400),
            "v": rng.integers(-5, 20, 400),
        }
    )
    got = (
        running_sum(
            rd.from_pandas(df).repartition(7),
            key_col="user_id", order_cols=["s", "event_id"],
            value_col="v", cum_col="cum_v", idx_col="rn",
            num_partitions=5,
        )
        .to_pandas()
        .sort_values(["user_id", "s", "event_id"])
        .reset_index(drop=True)
    )
    exp = df.sort_values(["user_id", "s", "event_id"]).reset_index(drop=True)
    exp["cum_v"] = exp.groupby("user_id")["v"].cumsum()
    exp["rn"] = exp.groupby("user_id").cumcount() + 1
    pd.testing.assert_frame_equal(
        got[["user_id", "s", "event_id", "v", "cum_v", "rn"]],
        exp[["user_id", "s", "event_id", "v", "cum_v", "rn"]],
        check_dtype=False,
    )


@pytest.mark.usefixtures("ray_session")
class TestFunnel:
    def _run(self, rows, steps):
        import pandas as pd
        import ray

        from obsidian_parser_ray.stages.events import funnel

        df = pd.DataFrame(rows)
        df["ts"] = pd.to_datetime(df["ts"], unit="s")
        out = funnel(ray.data.from_pandas(df), steps, num_partitions=4)
        return {
            r["user_id"]: (r["steps_completed"],
                           *[r[f"t{i+1}_s"] for i in range(len(steps))])
            for r in out.take_all()
        }

    def test_ordered_completion(self):
        rows = [
            # u1 completes in order
            {"user_id": 1, "event_type": "a", "ts": 10},
            {"user_id": 1, "event_type": "b", "ts": 20},
            {"user_id": 1, "event_type": "c", "ts": 30},
            # u2: b BEFORE a only → stops at step 1
            {"user_id": 2, "event_type": "b", "ts": 5},
            {"user_id": 2, "event_type": "a", "ts": 10},
            # u3: never does step a
            {"user_id": 3, "event_type": "b", "ts": 1},
        ]
        got = self._run(rows, ["a", "b", "c"])
        assert got == {
            1: (3, 10, 20, 30),
            2: (1, 10, -1, -1),
            3: (0, -1, -1, -1),
        }

    def test_strict_order_same_second(self):
        # step 2 at the SAME second as step 1 does not count (strict >)
        rows = [
            {"user_id": 7, "event_type": "a", "ts": 100},
            {"user_id": 7, "event_type": "b", "ts": 100},
            {"user_id": 7, "event_type": "b", "ts": 101},
        ]
        got = self._run(rows, ["a", "b"])
        assert got == {7: (2, 100, 101)}

    def test_earliest_chain_not_greedy(self):
        # earliest t1 then earliest b AFTER it — later a's are ignored
        rows = [
            {"user_id": 9, "event_type": "a", "ts": 10},
            {"user_id": 9, "event_type": "a", "ts": 50},
            {"user_id": 9, "event_type": "b", "ts": 40},
        ]
        got = self._run(rows, ["a", "b"])
        assert got == {9: (2, 10, 40)}


@pytest.mark.usefixtures("ray_session")
class TestRetention:
    def test_cohort_offsets(self):
        import pandas as pd
        import ray

        from obsidian_parser_ray.stages.events import retention_cohorts

        day = 86400
        rows = [
            # u1: cohort day 0, active days 0, 1, 3 (two events day 0)
            {"user_id": 1, "ts": 10}, {"user_id": 1, "ts": 20},
            {"user_id": 1, "ts": day + 5}, {"user_id": 1, "ts": 3 * day},
            # u2: cohort day 1, active days 1, 3
            {"user_id": 2, "ts": day + 1}, {"user_id": 2, "ts": 3 * day},
        ]
        df = pd.DataFrame(rows)
        df["ts"] = pd.to_datetime(df["ts"], unit="s")
        out = retention_cohorts(
            ray.data.from_pandas(df), num_partitions=4
        )
        got = {(r["cohort_bucket"], r["bucket_offset"]): r["n_users"]
               for r in out.take_all()}
        assert got == {
            (0, 0): 1, (0, 1): 1, (0, 3): 1,
            (1, 0): 1, (1, 2): 1,
        }


class TestIntervalOverlapProperty:
    """Hypothesis sweep: arbitrary key/interval/point layouts must
    match the nested-loop reference exactly (vectorized banding path
    AND semantics under duplicates, zero-length intervals, ties)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        seed=st.integers(0, 2**16),
        n_iv=st.integers(0, 25),
        n_p=st.integers(0, 40),
        span=st.integers(1, 30),
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_bruteforce(self, ray_session, seed, n_iv, n_p, span):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import (
            interval_join_overlapping,
        )

        rng = np.random.default_rng(seed)
        iv_keys = rng.integers(0, 4, n_iv).astype(np.int64)
        iv_lo = rng.integers(0, 50, n_iv).astype(np.int64)
        iv_hi = iv_lo + rng.integers(0, span, n_iv).astype(np.int64)
        p_keys = rng.integers(0, 5, n_p).astype(np.int64)
        p_ts = rng.integers(0, 60, n_p).astype(np.int64)

        pts = rd.from_arrow(
            pa.table({"pid": pa.array(np.arange(n_p, dtype=np.int64)),
                      "k": pa.array(p_keys), "s": pa.array(p_ts)})
        )
        ivs = rd.from_arrow(
            pa.table({"k": pa.array(iv_keys),
                      "iv": pa.array(np.arange(n_iv, dtype=np.int64)),
                      "lo": pa.array(iv_lo), "hi": pa.array(iv_hi)})
        )
        out = interval_join_overlapping(
            pts, ivs, key_col="k", ts_col="s", start_col="lo",
            end_col="hi", num_partitions=4,
        ).to_pandas()
        got = sorted((int(r.pid), int(r.iv)) for r in out.itertuples())
        want = sorted(
            (i, j)
            for i in range(n_p)
            for j in range(n_iv)
            if p_keys[i] == iv_keys[j] and iv_lo[j] <= p_ts[i] <= iv_hi[j]
        )
        assert got == want


@pytest.mark.usefixtures("ray_session")
class TestPivotAndTransitions:
    def test_pivot_counts_with_unlisted_type(self):
        from obsidian_parser_ray.stages.events import pivot_counts

        ds = _events_ds(
            [
                {"user_id": 1, "ts": "2024-01-01 10:00:00", "event_type": "click"},
                {"user_id": 1, "ts": "2024-01-01 10:01:00", "event_type": "click"},
                {"user_id": 1, "ts": "2024-01-01 10:02:00", "event_type": "view"},
                # 'exotic' is not in the pivot list → only n_total
                {"user_id": 2, "ts": "2024-01-01 10:03:00", "event_type": "exotic"},
            ]
        )
        out = pivot_counts(ds, types=["click", "view"]).to_pandas()
        out = out.set_index("user_id").sort_index()
        assert out.loc[1].to_dict() == {"n_click": 2, "n_view": 1, "n_total": 3}
        assert out.loc[2].to_dict() == {"n_click": 0, "n_view": 0, "n_total": 1}

    def test_transition_counts_boundaries_and_ties(self):
        from obsidian_parser_ray.stages.events import transition_counts

        # user 1: a→b→b ; user 2: single event (no pairs);
        # user 3: two events with IDENTICAL ts → event_id breaks the tie
        ds = _events_ds(
            [
                {"user_id": 1, "ts": "2024-01-01 10:00:00",
                 "event_type": "a", "event_id": 0},
                {"user_id": 1, "ts": "2024-01-01 10:01:00",
                 "event_type": "b", "event_id": 1},
                {"user_id": 1, "ts": "2024-01-01 10:02:00",
                 "event_type": "b", "event_id": 2},
                {"user_id": 2, "ts": "2024-01-01 10:00:00",
                 "event_type": "a", "event_id": 3},
                {"user_id": 3, "ts": "2024-01-01 10:00:00",
                 "event_type": "x", "event_id": 5},
                {"user_id": 3, "ts": "2024-01-01 10:00:00",
                 "event_type": "y", "event_id": 4},
            ]
        )
        out = transition_counts(ds, num_partitions=4).to_pandas()
        got = {
            (r.event_type, r.next_type): int(r.n) for r in out.itertuples()
        }
        # user 3 sorted by (ts, event_id): y (id 4) precedes x (id 5)
        assert got == {("a", "b"): 1, ("b", "b"): 1, ("y", "x"): 1}

    def test_transition_counts_matches_duckdb(self):
        import duckdb
        import numpy as np

        rng = np.random.RandomState(3)
        n = 400
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 25, n),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 86400, n), unit="s"),
                "event_type": rng.choice(list("abcd"), n),
                "event_id": np.arange(n),
            }
        )
        from obsidian_parser_ray.stages.events import transition_counts
        import ray.data as rd

        out = (
            transition_counts(rd.from_pandas(df).repartition(6))
            .to_pandas()
            .sort_values(["event_type", "next_type"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute(
            """
            WITH w AS (
              SELECT event_type,
                     lead(event_type) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id) AS next_type
              FROM events)
            SELECT event_type, next_type, count(*)::BIGINT AS n
            FROM w WHERE next_type IS NOT NULL GROUP BY 1, 2
            ORDER BY 1, 2
            """
        ).fetchdf()
        assert out.equals(exp)


@pytest.mark.usefixtures("ray_session")
class TestJsonFieldStats:
    def test_extraction_with_missing_and_negative(self):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import json_int_field_stats

        t = pa.table({
            "event_type": pa.array(["a", "a", "a", "b", "b"]),
            "props": pa.array([
                '{"k": 5}', '{"k": -3}', '{"other": 1}',
                '{"k": 10}', '{"k": 0}',
            ]),
        })
        out = (
            json_int_field_stats(rd.from_arrow(t).repartition(2))
            .to_pandas().set_index("event_type").sort_index()
        )
        assert out.loc["a"].to_dict() == {
            "n": 2, "sum_v": 2, "min_v": -3, "max_v": 5}
        assert out.loc["b"].to_dict() == {
            "n": 2, "sum_v": 10, "min_v": 0, "max_v": 10}

    def test_float_values_skipped_not_truncated(self):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import json_int_field_stats

        t = pa.table({
            "event_type": pa.array(["a", "a", "a", "a"]),
            "props": pa.array([
                '{"k": 12.5}',     # float: must be null, not 12
                '{"k": 1e5}',      # exponent: null, not 1
                '{"k": 7}',        # plain int: counted
                '{"k": -2.0}',     # negative float: null, not -2
            ]),
        })
        out = (
            json_int_field_stats(rd.from_arrow(t).repartition(2))
            .to_pandas().set_index("event_type")
        )
        assert out.loc["a"].to_dict() == {
            "n": 1, "sum_v": 7, "min_v": 7, "max_v": 7}

    def test_field_name_is_regex_escaped(self):
        import pyarrow as pa
        import ray.data as rd

        from obsidian_parser_ray.stages.events import json_int_field_stats

        # an unescaped "a.b" would also match the "axb" payload
        t = pa.table({
            "event_type": pa.array(["g", "g"]),
            "props": pa.array(['{"a.b": 4}', '{"axb": 9}']),
        })
        out = (
            json_int_field_stats(rd.from_arrow(t), field="a.b")
            .to_pandas().set_index("event_type")
        )
        assert out.loc["g"].to_dict() == {
            "n": 1, "sum_v": 4, "min_v": 4, "max_v": 4}


@pytest.mark.usefixtures("ray_session")
class TestLastTouchAttribution:
    def test_matches_window_oracle(self):
        import duckdb
        import numpy as np

        rng = np.random.RandomState(7)
        n = 600
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 30, n),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 86400, n), unit="s"),
                "event_type": rng.choice(
                    ["click", "view", "signup", "purchase", "error"], n
                ),
                "event_id": np.arange(n),
            }
        )
        from obsidian_parser_ray.stages.events import last_touch_attribution
        import ray.data as rd

        out = (
            last_touch_attribution(rd.from_pandas(df).repartition(5))
            .to_pandas().sort_values("touch").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute(
            """
            WITH w AS (
              SELECT event_type,
                last_value(CASE WHEN event_type IN
                                  ('click', 'signup', 'view')
                                THEN event_type END IGNORE NULLS)
                  OVER (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                        AND 1 PRECEDING) AS touch
              FROM events)
            SELECT COALESCE(touch, 'none') AS touch,
                   count(*)::BIGINT AS n_purchases
            FROM w WHERE event_type = 'purchase'
            GROUP BY 1 ORDER BY 1
            """
        ).fetchdf()
        assert out.equals(exp)

    def test_no_prior_touch_is_none(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import last_touch_attribution

        df = pd.DataFrame(
            {
                "user_id": [1, 1, 2],
                "ts": pd.to_datetime(
                    ["2024-01-01", "2024-01-02", "2024-01-01"]
                ),
                "event_type": ["purchase", "click", "purchase"],
                "event_id": [0, 1, 2],
            }
        )
        out = (
            last_touch_attribution(rd.from_pandas(df))
            .to_pandas().set_index("touch")
        )
        assert out.loc["none", "n_purchases"] == 2


@pytest.mark.usefixtures("ray_session")
class TestNewUserCounts:
    def test_cumulative_matches_oracle(self):
        import duckdb
        import numpy as np

        rng = np.random.RandomState(11)
        n = 500
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 60, n),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 86400 * 9, n), unit="s"),
            }
        )
        from obsidian_parser_ray.stages.events import new_user_counts
        import ray.data as rd

        out = (
            new_user_counts(rd.from_pandas(df).repartition(4))
            .to_pandas().reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute(
            """
            WITH f AS (SELECT user_id, min(ts) AS fts
                       FROM events GROUP BY user_id),
            d AS (SELECT (EXTRACT(year FROM fts) * 10000
                          + EXTRACT(month FROM fts) * 100
                          + EXTRACT(day FROM fts))::BIGINT AS day,
                         count(*)::BIGINT AS new_users
                  FROM f GROUP BY day)
            SELECT day, new_users,
                   CAST(sum(new_users) OVER (ORDER BY day) AS BIGINT)
                     AS cum_users
            FROM d ORDER BY day
            """
        ).fetchdf()
        assert out.equals(exp)
        # cumulative total ends at the number of distinct users
        assert out["cum_users"].iloc[-1] == df["user_id"].nunique()


@pytest.mark.usefixtures("ray_session")
class TestTypeUserOverlap:
    def test_matches_self_join_oracle(self):
        import duckdb
        import numpy as np

        rng = np.random.RandomState(13)
        n = 800
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 50, n),
                "event_type": rng.choice(list("pqrs"), n),
            }
        )
        from obsidian_parser_ray.stages.events import type_user_overlap
        import ray.data as rd

        out = (
            type_user_overlap(rd.from_pandas(df).repartition(5))
            .to_pandas().sort_values(["type_a", "type_b"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute(
            """
            WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
            c AS (SELECT event_type, count(*)::BIGINT AS n
                  FROM d GROUP BY 1),
            b AS (SELECT a.event_type AS type_a, b.event_type AS type_b,
                         count(*)::BIGINT AS n_both
                  FROM d a JOIN d b USING (user_id)
                  WHERE a.event_type < b.event_type GROUP BY 1, 2)
            SELECT type_a, type_b, ca.n AS n_a, cb.n AS n_b, n_both,
                   (n_both::DOUBLE
                    / (ca.n + cb.n - n_both)::DOUBLE) AS jaccard
            FROM b JOIN c ca ON ca.event_type = type_a
                   JOIN c cb ON cb.event_type = type_b
            ORDER BY 1, 2
            """
        ).fetchdf()
        assert out.equals(exp)

    def test_disjoint_types_emit_no_pair(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import type_user_overlap

        df = pd.DataFrame(
            {"user_id": [1, 2, 3, 4], "event_type": list("aabb")}
        )
        out = type_user_overlap(rd.from_pandas(df)).to_pandas()
        assert len(out) == 0

    def test_empty_string_event_type_is_a_real_type(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import type_user_overlap

        # "" as an actual event_type value must behave like any other
        # type, not collide with an internal totals marker
        df = pd.DataFrame(
            {
                "user_id": [1, 1, 2, 2, 3],
                "event_type": ["", "x", "", "x", ""],
            }
        )
        out = (
            type_user_overlap(rd.from_pandas(df).repartition(3))
            .to_pandas().set_index(["type_a", "type_b"])
        )
        row = out.loc[("", "x")]
        assert int(row["n_a"]) == 3      # users of "": 1, 2, 3
        assert int(row["n_b"]) == 2      # users of "x": 1, 2
        assert int(row["n_both"]) == 2
        assert row["jaccard"] == 2 / 3


@pytest.mark.usefixtures("ray_session")
class TestContingencyExpected:
    def test_marginal_product_floor_division(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import contingency_expected

        df = pd.DataFrame(
            {
                "event_type": ["a", "a", "a", "b"],
                "ts": pd.to_datetime(
                    ["2024-01-01 00:10", "2024-01-01 00:20",
                     "2024-01-01 01:10", "2024-01-01 00:30"]
                ),
            }
        )
        out = (
            contingency_expected(rd.from_pandas(df).repartition(2))
            .to_pandas()
            .set_index(["event_type", "hour"]).sort_index()
        )
        # row a: 3, row b: 1; col 0: 3, col 1: 1; n = 4
        assert out.loc[("a", 0), "observed"] == 2
        assert out.loc[("a", 0), "expected_micro"] == 3 * 3 * 1_000_000 // 4
        assert out.loc[("a", 1), "expected_micro"] == 3 * 1 * 1_000_000 // 4
        assert out.loc[("b", 0), "expected_micro"] == 1 * 3 * 1_000_000 // 4

    def test_no_int64_wrap_at_large_marginals(self):
        from obsidian_parser_ray.stages.events import _expected_micro

        # marginal product 4e9 * 4e9 * 1e6 = 1.6e25 >> int64 — the
        # vectorized int64 formula would silently wrap here
        df = pd.DataFrame(
            {
                "event_type": ["a", "a", "b"],
                "hour": [0, 1, 0],
                "observed": [2_000_000_000, 2_000_000_000,
                             1_000_000],
            }
        )
        got = list(_expected_micro(df, "event_type"))
        n = 4_001_000_000
        assert got[0] == (4_000_000_000 * 2_001_000_000
                          * 1_000_000) // n
        assert got[1] == (4_000_000_000 * 2_000_000_000
                          * 1_000_000) // n
        assert got[2] == (1_000_000 * 2_001_000_000 * 1_000_000) // n
        assert all(g >= 0 for g in got)


@pytest.mark.usefixtures("ray_session")
class TestUserLifespans:
    def test_lifespan_floor_seconds(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import user_lifespans

        df = pd.DataFrame(
            {
                "user_id": [1, 1, 1, 2],
                "ts": pd.to_datetime(
                    ["2024-01-01 00:00:00.900",
                     "2024-01-01 00:00:05.100",
                     "2024-01-01 00:00:03.000",
                     "2024-01-02 00:00:00.000"]
                ),
            }
        )
        out = (
            user_lifespans(rd.from_pandas(df).repartition(3))
            .to_pandas().set_index("user_id").sort_index()
        )
        # floor(5.1) - floor(0.9) = 5 - 0 = 5
        assert out.loc[1, "lifespan_s"] == 5
        assert out.loc[2, "lifespan_s"] == 0


class TestAttributionProperty:
    """Hypothesis sweep: the segmented max-accumulate attribution must
    match a per-user nested-loop reference under arbitrary layouts
    (ties on ts broken by event_id, users with no touches, users with
    no purchases, single-event users)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(seed=st.integers(0, 2**16), n=st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_matches_bruteforce(self, ray_session, seed, n):
        import numpy as np
        import ray.data as rd

        from obsidian_parser_ray.stages.events import (
            last_touch_attribution,
        )

        rng = np.random.default_rng(seed)
        types = np.array(["click", "view", "signup", "purchase",
                          "error"])
        df = pd.DataFrame(
            {
                "user_id": rng.integers(0, 6, n),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.integers(0, 20, n), unit="s"),
                "event_type": types[rng.integers(0, 5, n)],
                "event_id": np.arange(n),
            }
        )
        out = last_touch_attribution(
            rd.from_pandas(df) if n else rd.from_items(
                [{"user_id": 0, "ts": pd.Timestamp("2024-01-01"),
                  "event_type": "error", "event_id": 0}]
            ),
            num_partitions=3,
        ).to_pandas()
        # an all-empty lineage is schema-less in Ray Data (empty
        # output blocks are pruned) — zero purchases anywhere means
        # zero rows, possibly without columns
        if out.empty:
            got = {}
        else:
            got = dict(zip(out["touch"], out["n_purchases"]))
        if not n:
            assert got == {}
            return
        touches = {"click", "view", "signup"}
        want: dict = {}
        for u in df["user_id"].unique():
            sub = df[df["user_id"] == u].sort_values(
                ["ts", "event_id"]).reset_index(drop=True)
            last = None
            for r in sub.itertuples():
                if r.event_type == "purchase":
                    lbl = last if last is not None else "none"
                    want[lbl] = want.get(lbl, 0) + 1
                if r.event_type in touches:
                    last = r.event_type
        assert got == want


@pytest.mark.usefixtures("ray_session")
class TestIncrementalSessionize:
    def _events(self, seed, n, users=20):
        import numpy as np

        rng = np.random.default_rng(seed)
        return pd.DataFrame(
            {
                "user_id": rng.integers(0, users, n),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(
                    rng.integers(0, 86400 * 2, n), unit="s"),
            }
        )

    def _norm(self, df):
        return (
            df.sort_values(["user_id", "session_idx"])
            .reset_index(drop=True)
            [["user_id", "session_idx", "n_events", "start_s", "end_s"]]
            .astype({"user_id": "int64"})
        )

    def test_incremental_equals_full_rebuild(self, tmp_path):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import (
            read_sessions,
            sessionize,
            sessionize_update,
        )

        full = self._events(1, 400)
        # three arbitrary slices, NOT time-ordered (late arrivals)
        slices = [full.iloc[0::3], full.iloc[1::3], full.iloc[2::3]]
        base = str(tmp_path / "sess_store")
        for s in slices:
            r = sessionize_update(
                base, rd.from_pandas(s.reset_index(drop=True)),
                num_partitions=8,
            )
            assert r["buckets_touched"] > 0
        got = self._norm(read_sessions(base).to_pandas())
        want = self._norm(
            sessionize(rd.from_pandas(full)).to_pandas()
        )
        assert got.equals(want)

    def test_late_event_bridges_two_sessions(self, tmp_path):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import (
            read_sessions,
            sessionize_update,
        )

        base = str(tmp_path / "bridge_store")
        t0 = pd.Timestamp("2024-01-01 10:00:00")
        first = pd.DataFrame({
            "user_id": [1, 1],
            "ts": [t0, t0 + pd.Timedelta(minutes=70)],
        })
        sessionize_update(base, rd.from_pandas(first),
                          num_partitions=4)
        assert len(read_sessions(base).to_pandas()) == 2
        # a late event 35 min in bridges the 70-min gap (30-min rule:
        # 35 to each side ≤... no — 35 > 30, stays 2; use 25/45 split)
        bridge = pd.DataFrame({
            "user_id": [1],
            "ts": [t0 + pd.Timedelta(minutes=45)],
        })
        sessionize_update(base, rd.from_pandas(bridge),
                          num_partitions=4)
        out = read_sessions(base).to_pandas()
        # gaps are now 45 and 25 minutes -> 45 still breaks: 2 sessions
        assert len(out) == 2
        closer = pd.DataFrame({
            "user_id": [1],
            "ts": [t0 + pd.Timedelta(minutes=20)],
        })
        sessionize_update(base, rd.from_pandas(closer),
                          num_partitions=4)
        out = read_sessions(base).to_pandas()
        # gaps 20, 25, 25 -> everything merges into ONE session of 4
        assert len(out) == 1
        assert int(out["n_events"].iloc[0]) == 4

    def test_manifest_param_mismatch_raises(self, tmp_path):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import sessionize_update

        base = str(tmp_path / "mismatch_store")
        ev = self._events(2, 10)
        sessionize_update(base, rd.from_pandas(ev), gap_minutes=30,
                          num_partitions=4)
        with pytest.raises(ValueError):
            sessionize_update(base, rd.from_pandas(ev),
                              gap_minutes=60, num_partitions=4)

    def test_untouched_bucket_files_not_rewritten(self, tmp_path):
        import os

        import ray.data as rd

        from obsidian_parser_ray.stages.events import sessionize_update
        from obsidian_parser_ray.state import publish

        base = str(tmp_path / "touch_store")
        ev = self._events(3, 200, users=40)
        sessionize_update(base, rd.from_pandas(ev), num_partitions=16)

        def bucket_files():
            # bucket → (live file, mtime), read from the manifest
            man = publish.load(base, "_SESSIONS_MANIFEST.json", "")
            return {b: [(p, os.path.getmtime(os.path.join(base, p)))
                        for p in fs]
                    for b, fs in man["files"]["sessions"].items()}

        mtimes = bucket_files()
        # delta touching exactly one user
        one = pd.DataFrame({
            "user_id": [int(ev["user_id"].iloc[0])],
            "ts": [pd.Timestamp("2024-01-05")],
        })
        r = sessionize_update(base, rd.from_pandas(one),
                              num_partitions=16)
        assert r["buckets_touched"] == 1
        after = bucket_files()
        changed = [d for d in mtimes if after.get(d) != mtimes[d]]
        assert len(changed) == 1


@pytest.mark.usefixtures("ray_session")
class TestConversionLag:
    def test_first_from_first_to_after(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import conversion_lag

        t0 = pd.Timestamp("2024-01-01")
        df = pd.DataFrame(
            {
                # u1: purchase BEFORE signup ignored; lag = 100s
                # u2: signup, never purchases
                # u3: no signup (purchase only) -> not counted
                "user_id": [1, 1, 1, 2, 3],
                "ts": [t0 + pd.Timedelta(seconds=s)
                       for s in [50, 60, 160, 10, 5]],
                "event_type": ["purchase", "signup", "purchase",
                               "signup", "purchase"],
            }
        )
        out = conversion_lag(rd.from_pandas(df), num_partitions=3)
        assert out["n_from_users"].iloc[0] == 2
        assert out["n_converted"].iloc[0] == 1
        assert out["lag_p50"].iloc[0] == 100
        assert out["lag_p90"].iloc[0] == 100

    def test_no_conversions_yields_nulls(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import conversion_lag

        df = pd.DataFrame(
            {
                "user_id": [1],
                "ts": [pd.Timestamp("2024-01-01")],
                "event_type": ["signup"],
            }
        )
        out = conversion_lag(rd.from_pandas(df))
        assert out["n_from_users"].iloc[0] == 1
        assert out["n_converted"].iloc[0] == 0
        assert out["lag_p50"].isna().all()


@pytest.mark.usefixtures("ray_session")
class TestTopSessionPaths:
    def test_prefix_and_session_breaks(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import top_session_paths

        t0 = pd.Timestamp("2024-01-01")
        df = pd.DataFrame(
            {
                "user_id": [1, 1, 1, 1, 1, 2],
                "ts": [t0, t0 + pd.Timedelta(seconds=10),
                       t0 + pd.Timedelta(seconds=20),
                       t0 + pd.Timedelta(seconds=30),
                       t0 + pd.Timedelta(hours=2),  # new session
                       t0],
                "event_id": [0, 1, 2, 3, 4, 5],
                "event_type": ["a", "b", "c", "d", "a", "a"],
            }
        )
        out = top_session_paths(
            rd.from_pandas(df), prefix_len=3, k=10, num_partitions=3,
        ).to_pandas()
        got = dict(zip(out["path"], out["n_sessions"]))
        # u1 session1 opens a>b>c (4th event beyond prefix);
        # u1 session2 and u2 session1 are both just "a"
        assert got == {"a": 2, "a>b>c": 1}
        assert list(out["path"]) == ["a", "a>b>c"]  # count desc


@pytest.mark.usefixtures("ray_session")
class TestLinearAttribution:
    def test_equal_split_with_floor(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import linear_attribution

        t0 = pd.Timestamp("2024-01-01")
        df = pd.DataFrame(
            {
                # u1: click, view, view, purchase -> n_prior=3,
                #     share=333333: click 333333, view 666666
                # u2: purchase with no prior -> none 1000000
                "user_id": [1, 1, 1, 1, 2],
                "ts": [t0 + pd.Timedelta(seconds=s)
                       for s in [0, 1, 2, 3, 0]],
                "event_id": [0, 1, 2, 3, 4],
                "event_type": ["click", "view", "view", "purchase",
                               "purchase"],
            }
        )
        out = linear_attribution(
            rd.from_pandas(df), num_partitions=3
        ).to_pandas().set_index("touch")
        assert out.loc["click", "credit_micro"] == 333333
        assert out.loc["view", "credit_micro"] == 666666
        assert out.loc["none", "credit_micro"] == 1_000_000

    def test_matches_window_oracle_random(self):
        import duckdb
        import numpy as np
        import ray.data as rd

        from obsidian_parser_ray.stages.events import linear_attribution

        rng = np.random.RandomState(43)
        n = 700
        df = pd.DataFrame(
            {
                "user_id": rng.randint(0, 40, n),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.randint(0, 86400, n), unit="s"),
                "event_id": np.arange(n),
                "event_type": rng.choice(
                    ["click", "view", "signup", "purchase", "error"], n
                ),
            }
        )
        out = (
            linear_attribution(rd.from_pandas(df).repartition(5))
            .to_pandas().sort_values("touch").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("events", df)
        exp = con.execute(
            """
            WITH s AS (SELECT user_id, event_id, event_type,
                              epoch_us(ts) // 1000000 AS sec
                       FROM events),
            w AS (
              SELECT event_type,
                count(*) FILTER (event_type IN
                    ('click', 'signup', 'view')) OVER pre AS n_prior,
                count(*) FILTER (event_type = 'click')  OVER pre
                  AS p_click,
                count(*) FILTER (event_type = 'signup') OVER pre
                  AS p_signup,
                count(*) FILTER (event_type = 'view')   OVER pre
                  AS p_view
              FROM s
              WINDOW pre AS (PARTITION BY user_id
                             ORDER BY sec, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND 1 PRECEDING)
            ),
            conv AS (SELECT COALESCE(n_prior, 0) AS n_prior,
                            COALESCE(p_click, 0) AS p_click,
                            COALESCE(p_signup, 0) AS p_signup,
                            COALESCE(p_view, 0) AS p_view
                     FROM w WHERE event_type = 'purchase'),
            credits AS (
              SELECT 'click' AS touch, CAST(sum((1000000 // n_prior)
                * p_click) AS BIGINT) AS credit_micro
              FROM conv WHERE n_prior > 0
              UNION ALL
              SELECT 'signup', CAST(sum((1000000 // n_prior)
                * p_signup) AS BIGINT) FROM conv WHERE n_prior > 0
              UNION ALL
              SELECT 'view', CAST(sum((1000000 // n_prior)
                * p_view) AS BIGINT) FROM conv WHERE n_prior > 0
              UNION ALL
              SELECT 'none', CAST(count(*) * 1000000 AS BIGINT)
              FROM conv WHERE n_prior = 0
            )
            SELECT touch, credit_micro FROM credits
            WHERE credit_micro IS NOT NULL AND credit_micro > 0
            ORDER BY touch
            """
        ).fetchdf()
        assert out.equals(exp)


@pytest.mark.usefixtures("ray_session")
class TestDebounce:
    def test_lag_window_semantics(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import debounce

        t0 = pd.Timestamp("2024-01-01")
        df = pd.DataFrame(
            {
                # u1 clicks at 0, 3, 7: event 1 (gap 3 ≤ 5) dropped;
                # event 2 (gap 4 from PREVIOUS OCCURRENCE, not
                # previous kept) also dropped — lag semantics
                # u1 view at 2 survives (different type)
                "event_id": [0, 1, 2, 3],
                "user_id": [1, 1, 1, 1],
                "event_type": ["click", "click", "click", "view"],
                "ts": [t0, t0 + pd.Timedelta(seconds=3),
                       t0 + pd.Timedelta(seconds=7),
                       t0 + pd.Timedelta(seconds=2)],
            }
        )
        out = debounce(rd.from_pandas(df), window_seconds=5,
                       num_partitions=2).to_pandas()
        assert sorted(out["event_id"]) == [0, 3]


@pytest.mark.usefixtures("ray_session")
class TestUserHourConcentration:
    def test_uniform_and_single_hour(self):
        import ray.data as rd

        from obsidian_parser_ray.stages.events import (
            user_hour_concentration,
        )

        rows = []
        # u1: one event in each of 4 distinct hours -> hhi = 1/4
        for h in range(4):
            rows.append((1, pd.Timestamp(f"2024-01-01 {h:02d}:30")))
        # u2: 5 events all in one hour -> hhi = 1.0
        for _ in range(5):
            rows.append((2, pd.Timestamp("2024-01-01 07:10")))
        df = pd.DataFrame(rows, columns=["user_id", "ts"])
        out = (
            user_hour_concentration(rd.from_pandas(df).repartition(3))
            .to_pandas().set_index("user_id")
        )
        assert out.loc[1, "hhi"] == 0.25
        assert out.loc[1, "n_events"] == 4
        assert out.loc[2, "hhi"] == 1.0


class TestDebounceProperty:
    """Hypothesis sweep: the Arrow sliced-compare sweep must match a
    per-(key, type) nested-loop reference on arbitrary layouts
    (duplicate timestamps, singleton groups, exact-boundary gaps)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 80),
           w=st.integers(0, 10))
    @settings(max_examples=15, deadline=None)
    def test_matches_bruteforce(self, ray_session, seed, n, w):
        import numpy as np
        import ray.data as rd

        from obsidian_parser_ray.stages.events import debounce

        rng = np.random.default_rng(seed)
        df = pd.DataFrame(
            {
                "event_id": np.arange(n),
                "user_id": rng.integers(0, 5, n),
                "event_type": np.array(["a", "b", "c"])[
                    rng.integers(0, 3, n)],
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(rng.integers(0, 30, n), unit="s"),
            }
        )
        out = debounce(
            rd.from_pandas(df), window_seconds=w, num_partitions=3,
        ).to_pandas()
        got = sorted(out["event_id"])
        want = []
        for (u, tt), sub in df.groupby(["user_id", "event_type"]):
            sub = sub.sort_values(["ts", "event_id"])
            secs = (sub["ts"].astype("int64") // 10**9).to_numpy()
            ids = sub["event_id"].to_numpy()
            prev = None
            for s, i in zip(secs, ids):
                if prev is None or s - prev > w:
                    want.append(int(i))
                prev = s
        assert got == sorted(want)


class TestTopPathsProperty:
    """Hypothesis sweep: session-opening paths must match a
    per-user nested-loop sessionizer + prefix join on arbitrary
    layouts (ties on ts broken by event_id, exact-gap boundaries)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 60))
    @settings(max_examples=12, deadline=None)
    def test_matches_bruteforce(self, ray_session, seed, n):
        import numpy as np
        import ray.data as rd

        from obsidian_parser_ray.stages.events import top_session_paths

        rng = np.random.default_rng(seed)
        df = pd.DataFrame(
            {
                "user_id": rng.integers(0, 4, n),
                "ts": pd.to_datetime("2024-01-01")
                + pd.to_timedelta(
                    rng.integers(0, 7200, n), unit="s"),
                "event_id": np.arange(n),
                "event_type": np.array(["x", "y", "z"])[
                    rng.integers(0, 3, n)],
            }
        )
        out = top_session_paths(
            rd.from_pandas(df), gap_minutes=10, prefix_len=2, k=100,
            num_partitions=3,
        ).to_pandas()
        got = dict(zip(out["path"], out["n_sessions"]))
        want: dict = {}
        for u, sub in df.groupby("user_id"):
            sub = sub.sort_values(["ts", "event_id"])
            secs = (sub["ts"].astype("int64") // 10**9).to_numpy()
            typs = sub["event_type"].to_numpy()
            sessions = []
            for i in range(len(sub)):
                if i == 0 or secs[i] - secs[i - 1] > 600:
                    sessions.append([typs[i]])
                else:
                    sessions[-1].append(typs[i])
            for s in sessions:
                p = ">".join(s[:2])
                want[p] = want.get(p, 0) + 1
        assert got == want


def _ray_entry():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "__ray_entry__.py"
    spec = importlib.util.spec_from_file_location("_ray_entry_under_test", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_events_seconds_quoted_event_type(ray_session):
    """The event_type filter is a pc.equal kernel: a quote in the value
    reaches no expression parser, and a real type still keeps exactly
    its rows."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.001"
    entry = _ray_entry()
    cols = ["event_id", "s"]
    for evil in ("it's", "purchase' or event_type != '", 'a"b\\'):
        assert entry._events_seconds(
            sf, event_type=evil, columns=cols).take_all() == []
    got = entry._events_seconds(sf, event_type="purchase", columns=cols)
    ev = pq.read_table(f"{sf}/events.parquet", columns=["event_id", "event_type"])
    want = ev.filter(pc.equal(ev["event_type"], "purchase"))["event_id"]
    assert sorted(r["event_id"] for r in got.take_all()) == sorted(
        want.to_pylist())
