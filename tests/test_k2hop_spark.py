"""Distributed k/2-hop: equality with the sequential algorithm, pruning
accounting, and a DuckDB-oracle check of the pruned hop-window join."""
import math

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.bruteforce import brute_force_fc_convoys
from repro.core.k2hop import k2hop
from repro.core.k2hop_spark import k2hop_spark
from repro.stores import FileStore
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


class TestPrunedJoinOracle:
    def test_candidate_join_matches_sql_semijoin(self, spark):
        """The hop-window pruned read is a Catalyst join; its result must
        equal the equivalent SQL over DuckDB."""
        from repro.oracle import assert_equivalent

        df, _ = convoy_scene(
            n_objects=20, n_timestamps=20, n_convoys=1, convoy_size=4,
            convoy_len=12, eps=10.0, seed=3,
        )
        cand = pd.DataFrame(
            {"oid": [0, 1, 2, 3], "w_lo": [4, 4, 4, 4], "w_hi": [10, 10, 10, 10]}
        )
        sdf = spark.createDataFrame(df)
        got = (
            sdf.join(spark.createDataFrame(cand), on="oid")
            .where((F.col("t") > F.col("w_lo")) & (F.col("t") < F.col("w_hi")))
            .select("t", "oid", "x", "y")
        )
        assert_equivalent(
            got,
            """SELECT d.t, d.oid, d.x, d.y FROM pts d JOIN cand c ON d.oid = c.oid
               WHERE d.t > c.w_lo AND d.t < c.w_hi""",
            pts=df,
            cand=cand,
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
