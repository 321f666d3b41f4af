"""Spark snapshot-clustering dataflow vs the sequential substrate, and the
Spark input boundary's re-rooting, its once-per-frame memo and release."""
import gc
import uuid

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.dcm import dcm
from repro.baselines.spare import spare
from repro.core.benchmarks import benchmark_cluster_sets
from repro.core.k2hop_spark import k2hop_spark
from repro.core.spark_cluster import (
    _release,
    collect_cluster_sets,
    snapshot_clusters,
    spark_input,
)
from repro.stores import FileStore
from repro.synth_data import convoy_scene
from repro.testkit import EPS, border_scene, scene_from_groups


class TestSnapshotClusters:
    def test_matches_sequential_clustering(self, spark):
        df, _ = convoy_scene(
            n_objects=40, n_timestamps=30, n_convoys=2, convoy_size=4,
            convoy_len=10, eps=10.0, seed=21,
        )
        sdf = spark.createDataFrame(df)
        got = collect_cluster_sets(snapshot_clusters(sdf, 3, 10.0))
        store = FileStore(df)
        for t, exp in benchmark_cluster_sets(store, range(30), 3, 10.0).items():
            assert sorted(got.get(t, []), key=sorted) == sorted(exp, key=sorted), t

    def test_border_point_follows_oid_order(self, spark):
        # Rows reach Spark in descending oid order; object 9, a border
        # point of both clusters, must still join the one the stores'
        # oid order discovers first.
        df = border_scene()
        sdf = spark.createDataFrame(df.sort_values(["t", "oid"], ascending=[True, False]))
        got = collect_cluster_sets(snapshot_clusters(sdf, 4, 1.0))
        store = FileStore(df)
        for t, exp in benchmark_cluster_sets(store, range(6), 4, 1.0).items():
            assert exp == [frozenset({1, 2, 3, 4, 9}), frozenset({5, 6, 7, 8})]
            assert sorted(got[t], key=sorted) == exp, t

    def test_noise_dropped(self, spark):
        groups = {0: [[0, 1, 2]], 1: []}
        df = scene_from_groups(groups, list(range(6)))
        sdf = spark.createDataFrame(df)
        out = snapshot_clusters(sdf, 3, EPS).toPandas()
        assert set(out.t) == {0}
        assert [sorted(objs) for objs in out.objs] == [[0, 1, 2]]

    def test_min_size_enforced(self, spark):
        # DBSCAN minPts=3 clusters exist, but the (m,eps) filter also
        # applies m to cluster *size* — a pair can never survive.
        groups = {0: [[0, 1]]}
        df = scene_from_groups(groups, list(range(4)))
        out = snapshot_clusters(spark.createDataFrame(df), 2, EPS).toPandas()
        assert [sorted(objs) for objs in out.objs] == [[0, 1]]
        out3 = snapshot_clusters(spark.createDataFrame(df), 3, EPS).toPandas()
        assert out3.empty

    def test_oracle_counts_per_snapshot(self, spark):
        """Cluster rows keyed by t — cluster members per t, aggregated by
        Spark, cross-checked via the DuckDB oracle on the same aggregate."""
        from repro.oracle import assert_equivalent

        df, _ = convoy_scene(
            n_objects=30, n_timestamps=10, n_convoys=1, convoy_size=5,
            convoy_len=10, eps=10.0, seed=2,
        )
        clusters = snapshot_clusters(spark.createDataFrame(df), 3, 10.0)
        got = clusters.groupBy("t").agg(F.sum(F.size("objs")).alias("n"))
        members = clusters.toPandas().explode("objs")
        assert_equivalent(
            got, "SELECT t, count(*) AS n FROM members GROUP BY t", members=members
        )


def _persisted(spark) -> int:
    return spark.sparkContext._jsc.sc().getPersistentRDDs().size()


def _jobs(spark, fn):
    """(the number of Spark jobs ``fn()`` runs, its result)."""
    sc = spark.sparkContext
    group = f"spark-input-{uuid.uuid4()}"
    sc.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return len(sc.statusTracker().getJobIdsForGroup(group)), out


def _scene():
    df, _ = convoy_scene(
        n_objects=20, n_timestamps=30, n_convoys=1, convoy_size=4,
        convoy_len=15, eps=10.0, seed=9,
    )
    return df


class TestSparkInput:
    def test_reroots_and_releases(self, spark):
        df = _scene()
        before = _persisted(spark)
        sdf = spark.createDataFrame(df)
        n_check, got = _jobs(spark, lambda: spark_input(sdf))
        rooted, total, span = got
        # The plan is the checkpointed RDD, not the embedded rows.
        plan = rooted._jdf.queryExecution().logical().getClass().getSimpleName()
        assert plan == "LogicalRDD"
        assert (total, span) == (len(df), (int(df.t.min()), int(df.t.max())))
        assert n_check > 0
        assert _persisted(spark) == before + 1
        assert rooted.count() == len(df)
        # The same object again: the same result, and no job.
        assert _jobs(spark, lambda: spark_input(sdf)) == (0, got)
        assert _persisted(spark) == before + 1
        del sdf, got, rooted
        gc.collect()
        assert _persisted(spark) == before

    @pytest.mark.parametrize("mine", [k2hop_spark, dcm, spare], ids=["spark", "dcm", "spare"])
    def test_second_query_runs_no_check(self, spark, mine):
        df = _scene()
        before = _persisted(spark)
        n_check, _ = _jobs(spark, lambda: spark_input(spark.createDataFrame(df)))
        gc.collect()
        assert _persisted(spark) == before
        sdf = spark.createDataFrame(df)
        first, out = _jobs(spark, lambda: mine(spark, sdf, 3, 6, 10.0))
        second, again = _jobs(spark, lambda: mine(spark, sdf, 3, 6, 10.0))
        # k2hop_spark returns a K2HopResult, DCM and SPARE a convoy list.
        assert getattr(again, "convoys", again) == getattr(out, "convoys", out)
        assert second == first - n_check
        assert _persisted(spark) == before + 1
        del sdf
        gc.collect()
        assert _persisted(spark) == before

    def test_distinct_frames_each_checked(self, spark):
        df = _scene()
        before = _persisted(spark)
        a, b = spark.createDataFrame(df), spark.createDataFrame(df)
        n_a, got_a = _jobs(spark, lambda: spark_input(a))
        n_b, got_b = _jobs(spark, lambda: spark_input(b))
        assert n_a == n_b > 0
        assert got_a[0] is not got_b[0] and got_a[1:] == got_b[1:]
        assert _persisted(spark) == before + 2
        del a, got_a
        gc.collect()
        assert _persisted(spark) == before + 1
        del b, got_b
        gc.collect()
        assert _persisted(spark) == before

    def test_malformed_frame_raises_on_every_call(self, spark):
        df = _scene()
        df.loc[7, "x"] = np.nan
        sdf = spark.createDataFrame(df)
        before = _persisted(spark)
        error = "^malformed trajectory frame: non-finite x/y at 1 rows$"
        for _ in range(2):
            with pytest.raises(ValueError, match=error):
                spark_input(sdf)
            assert _persisted(spark) == before

    def test_release_skips_inactive_context(self, spark):
        class Blocks:
            calls = 0

            def unpersist(self, blocking):
                self.calls += 1

        stale, live = Blocks(), Blocks()
        _release(object(), stale)
        _release(spark.sparkContext, live)
        assert (stale.calls, live.calls) == (0, 1)

    # Whether a miner returns or raises, no checkpointed input stays
    # persisted once the caller drops its frame.
    @pytest.mark.parametrize("mine", [k2hop_spark, dcm, spare], ids=["spark", "dcm", "spare"])
    @pytest.mark.parametrize("nan", [False, True], ids=["valid", "nan"])
    def test_miners_release_input(self, spark, mine, nan):
        df = _scene()
        if nan:
            df.loc[7, "x"] = np.nan
        before = _persisted(spark)
        sdf = spark.createDataFrame(df)
        if nan:
            with pytest.raises(ValueError, match="non-finite x/y at 1 rows"):
                mine(spark, sdf, 3, 6, 10.0)
        else:
            mine(spark, sdf, 3, 6, 10.0)
        del sdf
        gc.collect()
        assert _persisted(spark) == before
