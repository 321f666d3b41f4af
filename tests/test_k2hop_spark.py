"""Distributed k/2-hop: equality with the sequential algorithm, pruning
accounting and an exact read count, the driver's extension store, and a
DuckDB-oracle check of the one pruned read (``range_filter``) that both the
hop-windows and the extension store collect through."""
import math
import uuid
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pytest

from repro.baselines.bruteforce import brute_force_fc_convoys
from repro.core.convoy import Convoy
from repro.core.k2hop import k2hop
from repro.core.k2hop_spark import HopStore, k2hop_spark, range_filter
from repro.stores import FileStore
from repro.stores.base import COLUMNS
from repro.synth_data import convoy_scene
from repro.testkit import EPS, border_scene, scene_from_groups


class TestK2HopSpark:
    # k = 60 and 130 reach and pass the 60-step timeline; "empty" mines
    # a frame with no rows.
    @pytest.mark.parametrize(
        "k, n_rows",
        [pytest.param(k, None, id=str(k)) for k in (2, 4, 10, 60, 130)]
        + [pytest.param(4, 0, id="empty")],
    )
    def test_equals_sequential_on_scene(self, spark, k, n_rows):
        df, _ = convoy_scene(
            n_objects=40, n_timestamps=60, n_convoys=2, convoy_size=4,
            convoy_len=20, eps=10.0, seed=17,
        )
        df = df.iloc[:n_rows]
        seq = k2hop(FileStore(df), 3, k, 10.0).convoys
        # The schema is spelled out because Spark cannot infer it from no rows.
        sdf = spark.createDataFrame(df, "t long, oid long, x double, y double")
        par = k2hop_spark(spark, sdf, 3, k, 10.0).convoys
        assert par == seq

    def test_equals_sequential_with_dropout(self, spark):
        df, _ = convoy_scene(
            n_objects=50, n_timestamps=80, n_convoys=3, convoy_size=4,
            convoy_len=25, eps=10.0, presence=0.8, seed=23,
        )
        seq = k2hop(FileStore(df), 3, 12, 10.0).convoys
        par = k2hop_spark(spark, spark.createDataFrame(df), 3, 12, 10.0).convoys
        assert par == seq
        assert par  # scene contains convoys

    def test_border_point_independent_of_row_order(self, spark):
        df = border_scene()
        seq = k2hop(FileStore(df), 4, 4, 1.0).convoys
        assert {v.objs for v in seq} == {frozenset({1, 2, 3, 4, 9}), frozenset({5, 6, 7, 8})}
        sdf = spark.createDataFrame(df.sort_values(["t", "oid"], ascending=[True, False]))
        assert k2hop_spark(spark, sdf, 4, 4, 1.0).convoys == seq

    def test_no_convoys_short_circuit(self, spark):
        groups = {t: [] for t in range(30)}
        df = scene_from_groups(groups, list(range(8)))
        res = k2hop_spark(spark, spark.createDataFrame(df), 3, 8, EPS)
        assert res.convoys == []
        assert res.n_spanning == 0
        # Only the benchmark snapshots were ever scanned.
        assert res.points_scanned == len(df) * len(range(0, 30, 4)) // 30

    def test_queries_in_one_session_share_nothing(self, spark):
        # Two frames with the same (t, oid) keys and two eps: every query
        # runs on the session's reused Python workers and must equal the
        # sequential result, itself checked against brute force.
        def frame(gap):
            groups = {t: [] if t == gap else [[0, 1, 2]] for t in range(16)}
            return scene_from_groups(groups, list(range(6)))

        a, b = frame(None), frame(7)
        for df, eps in [(a, EPS), (b, EPS), (b, 60.0), (a, EPS)]:
            seq = k2hop(FileStore(df), 3, 4, eps).convoys
            assert seq == brute_force_fc_convoys(FileStore(df), 3, 4, eps)
            assert k2hop_spark(spark, spark.createDataFrame(df), 3, 4, eps).convoys == seq

    def test_pruning_accounting(self, spark):
        df, _ = convoy_scene(
            n_objects=80, n_timestamps=120, n_convoys=2, convoy_size=4,
            convoy_len=40, eps=10.0, seed=31,
        )
        res = k2hop_spark(spark, spark.createDataFrame(df), 4, 30, 10.0)
        assert 0 < res.points_scanned < len(df)
        assert res.pruning_pct > 50.0

    def test_reads_exactly_what_each_phase_needs(self, spark):
        groups = {t: [[0, 1, 2]] if 2 <= t <= 10 else [] for t in range(14)}
        df = scene_from_groups(groups, list(range(6)))
        res = k2hop_spark(spark, spark.createDataFrame(df), 3, 4, EPS)
        assert res.convoys == [Convoy(ts=2, te=10, objs=frozenset({0, 1, 2}))]
        # h = 2. Every benchmark snapshot; the candidates {0, 1, 2} strictly
        # inside each window between the benchmarks 2..10 that hold them; and
        # the extension hull of [2, 10], one hop each side.
        ours = df["oid"].isin([0, 1, 2])
        bench = df["t"] % 2 == 0
        interior = ours & (df["t"] % 2 == 1) & df["t"].between(2, 10)
        hull = ours & df["t"].between(0, 12)
        assert res.points_processed == bench.sum() + interior.sum() + hull.sum()


@contextmanager
def jobs_run(spark):
    """Yields a list that receives, on exit, the number of Spark jobs the
    block ran."""
    sc = spark.sparkContext
    group = f"jobs-run-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "jobs counted by a test")
    counted: list[int] = []
    try:
        yield counted
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        counted.append(len(sc.statusTracker().getJobIdsForGroup(group)))


def rows_in(df: pd.DataFrame, intervals: dict[int, tuple[int, int]]) -> pd.DataFrame:
    """The rows of object ``o`` with ``lo <= t <= hi``, for every ``o: (lo,
    hi)``, in (t, oid) order."""
    lo = df["oid"].map(lambda o: intervals.get(o, (0, -1))[0])
    hi = df["oid"].map(lambda o: intervals.get(o, (0, -1))[1])
    return df[(lo <= df["t"]) & (df["t"] <= hi)].sort_values(["t", "oid"])


class TestHopStore:
    H = 3
    # Object 2 is in both convoys, so its interval is their hull; the first
    # convoy's left hop and the second's right hop are clipped to the span.
    MERGED = [
        Convoy(ts=1, te=8, objs=frozenset({0, 1, 2})),
        Convoy(ts=14, te=18, objs=frozenset({2, 3})),
    ]
    HULL = {0: (0, 11), 1: (0, 11), 2: (0, 19), 3: (11, 19)}

    @pytest.fixture(scope="class")
    def scene(self, spark):
        df, _ = convoy_scene(
            n_objects=12, n_timestamps=20, n_convoys=1, convoy_size=4,
            convoy_len=10, eps=10.0, presence=0.8, seed=5,
        )
        return df, spark.createDataFrame(df)

    def test_first_collection_is_the_hull(self, spark, scene):
        df, sdf = scene
        with jobs_run(spark) as jobs:
            store = HopStore(sdf, (0, 19), self.H, self.MERGED)
        want = rows_in(df, self.HULL)
        assert jobs == [1]
        assert store.collected == len(want)
        assert store.time_range() == (0, 19)
        # Every hull row is served without another job.
        with jobs_run(spark) as jobs:
            keys, xy = store.points(want["t"].tolist(), [[o] for o in want["oid"]])
        assert jobs == [0]
        np.testing.assert_array_equal(keys, want[["t", "oid"]].to_numpy())
        np.testing.assert_array_equal(xy, want[["x", "y"]].to_numpy())

    def test_reads_past_the_hull_run_one_job(self, spark, scene):
        df, sdf = scene
        store = HopStore(sdf, (0, 19), self.H, self.MERGED)
        # Past object 0's interval on the right, object 3's on the left, and
        # object 7, never collected; object 1 inside its interval.
        t = [13, 15, 5, 9, 7]
        oids = [{0}, {0}, {3, 7}, {1}, {7}]
        with jobs_run(spark) as jobs:
            got = store.points(t, oids)
        assert jobs == [1]
        want = FileStore(df).points(t, oids)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        # Each object grew by the timestamps asked past it plus one hop, and
        # holds every row of its grown interval, each collected once.
        grown = rows_in(df, {**self.HULL, 0: (0, 18), 3: (2, 19), 7: (2, 10)})
        assert store.collected == len(grown)
        with jobs_run(spark) as jobs:
            keys, _xy = store.points(grown["t"].tolist(), [[o] for o in grown["oid"]])
        assert jobs == [0]
        np.testing.assert_array_equal(keys, grown[["t", "oid"]].to_numpy())

    def test_no_convoys_collect_nothing(self, spark, scene):
        _df, sdf = scene
        with jobs_run(spark) as jobs:
            store = HopStore(sdf, (0, 19), self.H, [])
            keys, _xy = store.points([25, -1], [{0}, {1}])  # outside the span
        assert jobs == [0]
        assert store.collected == 0 and len(keys) == 0


class TestRangeFilterOracle:
    def test_range_filter_matches_sql_range_join(self, spark):
        """The pruned read of the hop-windows and of the extension store is
        a Catalyst filter; its result must equal the same ranges joined in
        SQL over DuckDB."""
        from repro.oracle import assert_equivalent

        df, _ = convoy_scene(
            n_objects=20, n_timestamps=20, n_convoys=1, convoy_size=4,
            convoy_len=12, eps=10.0, seed=3,
        )
        # Objects 0 and 1 share a range; object 2 has one on each side of
        # its collected interval; object 30 has no rows.
        ranges = [(0, 3, 9), (1, 3, 9), (2, 0, 2), (2, 12, 15), (5, 19, 19), (30, 0, 19)]
        got = spark.createDataFrame(df).filter(range_filter(ranges)).select(*COLUMNS)
        assert_equivalent(
            got,
            """SELECT d.t, d.oid, d.x, d.y FROM pts d JOIN ranges r ON d.oid = r.oid
               WHERE d.t BETWEEN r.lo AND r.hi""",
            pts=df,
            ranges=pd.DataFrame(ranges, columns=["oid", "lo", "hi"]),
        )


@pytest.mark.parametrize("executor", ["file", "spark"])
@pytest.mark.parametrize(
    "m, eps", [(4, 0.0), (4, -1.0), (4, math.nan), (4, math.inf), (0, 1.0)]
)
def test_rejects_invalid_m_and_eps(request, executor, m, eps):
    df = border_scene()
    with pytest.raises(ValueError, match="m >= 1 and a finite eps > 0"):
        if executor == "file":
            k2hop(FileStore(df), m, 4, eps)
        else:
            spark = request.getfixturevalue("spark")
            k2hop_spark(spark, spark.createDataFrame(df), m, 4, eps)
