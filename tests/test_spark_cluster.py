"""Spark snapshot-clustering dataflow vs the sequential substrate, and the
Spark input boundary's re-rooting and release."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.dcm import dcm
from repro.baselines.spare import spare
from repro.core.benchmarks import benchmark_cluster_sets
from repro.core.k2hop_spark import k2hop_spark
from repro.core.spark_cluster import collect_cluster_sets, snapshot_clusters, spark_input
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
        assert set(out.t.unique()) == {0}
        assert set(out.oid) == {0, 1, 2}

    def test_min_size_enforced(self, spark):
        # DBSCAN minPts=3 clusters exist, but the (m,eps) filter also
        # applies m to cluster *size* — a pair can never survive.
        groups = {0: [[0, 1]]}
        df = scene_from_groups(groups, list(range(4)))
        out = snapshot_clusters(spark.createDataFrame(df), 2, EPS).toPandas()
        assert set(out.oid) == {0, 1}
        out3 = snapshot_clusters(spark.createDataFrame(df), 3, EPS).toPandas()
        assert out3.empty

    def test_oracle_counts_per_snapshot(self, spark):
        """Cluster membership rows keyed by t — row counts per t cross-
        checked via the DuckDB oracle on an equivalent aggregate."""
        from repro.oracle import assert_equivalent

        df, _ = convoy_scene(
            n_objects=30, n_timestamps=10, n_convoys=1, convoy_size=5,
            convoy_len=10, eps=10.0, seed=2,
        )
        sdf = spark.createDataFrame(df)
        clusters = snapshot_clusters(sdf, 3, 10.0).toPandas()
        got = (
            spark.createDataFrame(clusters)
            .groupBy("t")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got, "SELECT t, count(*) AS n FROM cl GROUP BY t", cl=clusters
        )


def _persisted(spark) -> int:
    return spark.sparkContext._jsc.sc().getPersistentRDDs().size()


class TestSparkInput:
    def test_reroots_and_releases(self, spark):
        df, _ = convoy_scene(
            n_objects=10, n_timestamps=12, n_convoys=1, convoy_size=3,
            convoy_len=6, eps=10.0, seed=5,
        )
        before = _persisted(spark)
        with spark_input(spark.createDataFrame(df)) as (sdf, total, span):
            # The plan is the checkpointed RDD, not the embedded rows.
            plan = sdf._jdf.queryExecution().logical().getClass().getSimpleName()
            assert plan == "LogicalRDD"
            assert (total, span) == (len(df), (int(df.t.min()), int(df.t.max())))
            assert _persisted(spark) == before + 1
            assert sdf.count() == len(df)
        assert _persisted(spark) == before

    # Whether a miner returns or raises, no checkpointed input stays persisted.
    @pytest.mark.parametrize("mine", [k2hop_spark, dcm, spare], ids=["spark", "dcm", "spare"])
    @pytest.mark.parametrize("nan", [False, True], ids=["valid", "nan"])
    def test_miners_release_input(self, spark, mine, nan):
        df, _ = convoy_scene(
            n_objects=20, n_timestamps=30, n_convoys=1, convoy_size=4,
            convoy_len=15, eps=10.0, seed=9,
        )
        if nan:
            df.loc[7, "x"] = np.nan
        before = _persisted(spark)
        if nan:
            with pytest.raises(ValueError, match="non-finite x/y at 1 rows"):
                mine(spark, spark.createDataFrame(df), 3, 6, 10.0)
        else:
            mine(spark, spark.createDataFrame(df), 3, 6, 10.0)
        assert _persisted(spark) == before
